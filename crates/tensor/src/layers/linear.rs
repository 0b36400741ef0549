//! Fully connected (dense) layer.

use rand::rngs::StdRng;

use crate::init::Init;
use crate::kernels;
use crate::layers::incremental::{
    self, cache_mismatch, step_mismatch, CacheNode, IncrementalCache, Lanes, PackedColumns, StepRef,
};
use crate::profile::{ComputeProfile, ExecutionUnit};
use crate::{Layer, Tensor, TensorError};

/// A fully connected layer computing `y = x Wᵀ + b` on `[batch, in]` inputs.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use varade_tensor::{layers::Linear, Layer, Tensor};
///
/// # fn main() -> Result<(), varade_tensor::TensorError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Linear::new(4, 2, &mut rng);
/// let x = Tensor::zeros(&[3, 4]);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cached_input: Option<Tensor>,
    /// `weight` and `bias` packed block-major over `in` rows for the column
    /// kernel, built on first use and dropped whenever the parameters can
    /// move.
    columns: PackedColumns,
}

impl Linear {
    /// Creates a new layer with Xavier-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "feature counts must be positive"
        );
        let weight = Init::XavierUniform.tensor(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        );
        Self {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            weight_grad: Tensor::zeros(&[out_features, in_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            cached_input: None,
            columns: PackedColumns::default(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read-only access to the weight matrix (`[out, in]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Read-only access to the bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn check_input(&self, input: &Tensor) -> Result<(), TensorError> {
        if input.ndim() != 2 || input.shape()[1] != self.in_features {
            return Err(TensorError::InvalidInput {
                layer: "linear",
                reason: format!(
                    "expected [batch, {}], got {:?}",
                    self.in_features,
                    input.shape()
                ),
            });
        }
        Ok(())
    }

    /// `weight` and `bias` packed block-major, shared by every pass.
    fn packed(&self) -> &[Lanes] {
        self.columns.get_or_pack(|| {
            incremental::pack_linear(
                self.weight.as_slice(),
                self.bias.as_slice(),
                self.in_features,
            )
        })
    }

    /// The affine map itself, one [`incremental::linear_column`] per batch
    /// row: every output starts at its bias and adds `x·w` in input order.
    /// Shared by the training forward (which caches the input afterwards)
    /// and the inference path.
    fn compute(&self, input: &Tensor) -> Tensor {
        let batch = input.shape()[0];
        let (in_f, out_f) = (self.in_features, self.out_features);
        let packed = self.packed();
        let mut out = Tensor::zeros(&[batch, out_f]);
        let mut column = vec![0.0f32; incremental::column_len(out_f)];
        let rows = input.as_slice().chunks_exact(in_f);
        for (x, o) in rows.zip(out.as_mut_slice().chunks_exact_mut(out_f)) {
            incremental::linear_column(packed, x, &mut column);
            o.copy_from_slice(&column[..out_f]);
        }
        out
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.check_input(input)?;
        let out = self.compute(input);
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.check_input(input)?;
        Ok(self.compute(input))
    }

    fn make_incremental_cache(
        &self,
        input_shape: &[usize],
    ) -> Result<IncrementalCache, TensorError> {
        if input_shape.len() != 2 || input_shape[0] != 1 || input_shape[1] != self.in_features {
            return Err(TensorError::InvalidInput {
                layer: "linear",
                reason: format!(
                    "incremental cache needs a [1, {}] feature stream, got {input_shape:?}",
                    self.in_features
                ),
            });
        }
        Ok(IncrementalCache::linear(self.out_features))
    }

    fn step_incremental<'a>(
        &self,
        step: StepRef<'a>,
        cache: &'a mut IncrementalCache,
    ) -> Result<Option<StepRef<'a>>, TensorError> {
        let CacheNode::Linear(out) = &mut cache.node else {
            return Err(cache_mismatch("linear"));
        };
        let StepRef::Features(features) = step else {
            return Err(step_mismatch("linear", &step));
        };
        if features.len() != self.in_features {
            return Err(TensorError::InvalidInput {
                layer: "linear",
                reason: format!(
                    "feature step of {} values, expected {}",
                    features.len(),
                    self.in_features
                ),
            });
        }
        incremental::linear_column(self.packed(), features, out);
        Ok(Some(StepRef::Features(&out[..self.out_features])))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(TensorError::BackwardBeforeForward { layer: "linear" })?;
        let batch = input.shape()[0];
        if grad_output.shape() != [batch, self.out_features] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![batch, self.out_features],
                got: grad_output.shape().to_vec(),
            });
        }
        // The dense map is the convolution's over one row per batch row:
        // the same loop, `gw += g·x` and `gi += g·w` per output in order.
        let mut grad_input = Tensor::zeros(&[batch, self.in_features]);
        kernels::rows_backward(
            input.as_slice(),
            grad_output.as_slice(),
            self.weight.as_slice(),
            self.weight_grad.as_mut_slice(),
            self.bias_grad.as_mut_slice(),
            Some(grad_input.as_mut_slice()),
            1,
        );
        Ok(grad_input)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.columns.clear();
        visitor(&mut self.weight, &mut self.weight_grad);
        visitor(&mut self.bias, &mut self.bias_grad);
    }

    fn visit_tensors(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Tensor)) {
        visitor(&crate::join_tensor_name(prefix, "weight"), &self.weight);
        visitor(&crate::join_tensor_name(prefix, "bias"), &self.bias);
    }

    fn visit_tensors_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Tensor)) {
        self.columns.clear();
        visitor(&crate::join_tensor_name(prefix, "weight"), &mut self.weight);
        visitor(&crate::join_tensor_name(prefix, "bias"), &mut self.bias);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.first().copied().unwrap_or(1), self.out_features]
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let batch = input_shape.first().copied().unwrap_or(1) as f64;
        let inf = self.in_features as f64;
        let outf = self.out_features as f64;
        ComputeProfile {
            flops: batch * 2.0 * inf * outf,
            param_bytes: 4.0 * (inf * outf + outf),
            activation_bytes: 4.0 * batch * (inf + outf),
            parallel_fraction: 0.95,
            unit: ExecutionUnit::Gpu,
        }
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::{finite_difference_grad, relative_error};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let layer = Linear::new(2, 2, &mut rng());
        // Overwrite weights with known values.
        let mut fixed = layer.clone();
        fixed.weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        fixed.bias = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, 0.0], &[2, 2]).unwrap();
        let y = fixed.forward(&x).unwrap();
        // row0: [1*1+2*1+0.5, 3*1+4*1-0.5] = [3.5, 6.5]
        // row1: [1*2+0.5, 3*2-0.5] = [2.5, 5.5]
        assert_eq!(y.as_slice(), &[3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn rejects_wrong_input_rank_or_width() {
        let mut layer = Linear::new(3, 2, &mut rng());
        assert!(layer.forward(&Tensor::zeros(&[2, 4])).is_err());
        assert!(layer.forward(&Tensor::zeros(&[2, 3, 1])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = Linear::new(3, 2, &mut rng());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(TensorError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let mut r = rng();
        let layer = Linear::new(3, 2, &mut r);
        let x: Vec<f32> = vec![0.3, -0.7, 0.2, 0.9, 0.1, -0.4];
        // Loss = sum of outputs; analytic input grad = column sums of W per sample.
        let mut loss_fn = |xs: &[f32]| {
            let mut l = layer.clone();
            let t = Tensor::from_vec(xs.to_vec(), &[2, 3]).unwrap();
            l.forward(&t).unwrap().sum()
        };
        let numeric = finite_difference_grad(&mut loss_fn, &x, 1e-3);
        let mut l = layer.clone();
        let t = Tensor::from_vec(x.clone(), &[2, 3]).unwrap();
        let out = l.forward(&t).unwrap();
        let analytic = l.backward(&Tensor::ones(out.shape())).unwrap();
        assert!(relative_error(analytic.as_slice(), &numeric) < 1e-2);
    }

    #[test]
    fn weight_gradient_check() {
        let mut r = rng();
        let base = Linear::new(2, 2, &mut r);
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.2], &[2, 2]).unwrap();
        let w0: Vec<f32> = base.weight.as_slice().to_vec();
        let mut loss_fn = |ws: &[f32]| {
            let mut l = base.clone();
            l.weight = Tensor::from_vec(ws.to_vec(), &[2, 2]).unwrap();
            l.forward(&x).unwrap().norm_sq()
        };
        let numeric = finite_difference_grad(&mut loss_fn, &w0, 1e-3);
        let mut l = base.clone();
        let out = l.forward(&x).unwrap();
        // d(sum y^2)/dy = 2y
        l.backward(&out.scale(2.0)).unwrap();
        assert!(relative_error(l.weight_grad.as_slice(), &numeric) < 1e-2);
    }

    #[test]
    fn param_count_and_profile() {
        let mut layer = Linear::new(10, 5, &mut rng());
        assert_eq!(layer.param_count(), 10 * 5 + 5);
        let p = layer.profile(&[1, 10]);
        assert_eq!(p.flops, 100.0);
        assert_eq!(p.param_bytes, 4.0 * 55.0);
        assert_eq!(layer.output_shape(&[7, 10]), vec![7, 5]);
    }

    #[test]
    fn zero_grad_clears_accumulated_gradients() {
        let mut layer = Linear::new(2, 2, &mut rng());
        let x = Tensor::ones(&[1, 2]);
        let y = layer.forward(&x).unwrap();
        layer.backward(&Tensor::ones(y.shape())).unwrap();
        assert!(layer.weight_grad.norm() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.weight_grad.norm(), 0.0);
        assert_eq!(layer.bias_grad.norm(), 0.0);
    }
}
