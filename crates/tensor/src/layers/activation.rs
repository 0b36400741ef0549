//! Element-wise activation layers.

use crate::kernels;
use crate::layers::incremental::{cache_mismatch, CacheNode, IncrementalCache, StreamStep};
use crate::profile::{ComputeProfile, ExecutionUnit};
use crate::{Layer, Tensor, TensorError};

/// Rectified linear unit: `max(0, x)` applied element-wise to any shape.
///
/// # Examples
///
/// ```
/// use varade_tensor::{layers::Relu, Layer, Tensor};
///
/// # fn main() -> Result<(), varade_tensor::TensorError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 0.5], &[2])?;
/// assert_eq!(relu.forward(&x)?.as_slice(), &[0.0, 0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Relu {
    /// Creates a new ReLU activation.
    pub fn new() -> Self {
        Self { mask: None }
    }

    fn apply(&self, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(input.shape());
        kernels::relu(input.as_slice(), out.as_mut_slice());
        out
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let mask: Vec<bool> = input.iter().map(|&v| v > 0.0).collect();
        let out = self.apply(input);
        self.mask = Some(mask);
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        Ok(self.apply(input))
    }

    fn make_incremental_cache(
        &self,
        _input_shape: &[usize],
    ) -> Result<IncrementalCache, TensorError> {
        Ok(IncrementalCache::elementwise())
    }

    fn forward_incremental(
        &self,
        step: StreamStep,
        cache: &mut IncrementalCache,
    ) -> Result<Option<StreamStep>, TensorError> {
        if !matches!(cache.node, CacheNode::Elementwise) {
            return Err(cache_mismatch("relu"));
        }
        // Whatever flows past keeps its step kind and phase stream. The step
        // owns its values, so rectify them in place: the same `max(0, x)`
        // `kernels::relu` computes, without an allocation.
        let relu = |mut values: Vec<f32>| {
            for v in &mut values {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
            values
        };
        Ok(Some(match step {
            StreamStep::Column { stream, values } => StreamStep::Column {
                stream,
                values: relu(values),
            },
            StreamStep::Features(values) => StreamStep::Features(relu(values)),
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(TensorError::BackwardBeforeForward { layer: "relu" })?;
        if mask.len() != grad_output.len() {
            return Err(TensorError::ShapeMismatch {
                expected: vec![mask.len()],
                got: vec![grad_output.len()],
            });
        }
        // A select, not a branch: the mask of a trained layer is close to a
        // coin flip per element, which a branch mispredicts half the time.
        let mut grad = Tensor::zeros(grad_output.shape());
        for ((g, &go), &m) in grad.iter_mut().zip(grad_output.iter()).zip(mask) {
            *g = if m { go } else { 0.0 };
        }
        Ok(grad)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let n: usize = input_shape.iter().product();
        ComputeProfile {
            flops: n as f64,
            param_bytes: 0.0,
            activation_bytes: 8.0 * n as f64,
            parallel_fraction: 1.0,
            unit: ExecutionUnit::Gpu,
        }
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Hyperbolic tangent activation applied element-wise to any shape.
#[derive(Debug, Clone)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Default for Tanh {
    fn default() -> Self {
        Self::new()
    }
}

impl Tanh {
    /// Creates a new tanh activation.
    pub fn new() -> Self {
        Self { output: None }
    }

    fn apply(&self, input: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(input.shape());
        kernels::tanh(input.as_slice(), out.as_mut_slice());
        out
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let out = self.apply(input);
        self.output = Some(out.clone());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        Ok(self.apply(input))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let out = self
            .output
            .as_ref()
            .ok_or(TensorError::BackwardBeforeForward { layer: "tanh" })?;
        grad_output.zip_map(out, |g, t| g * (1.0 - t * t))
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let n: usize = input_shape.iter().product();
        ComputeProfile {
            flops: 4.0 * n as f64,
            param_bytes: 0.0,
            activation_bytes: 8.0 * n as f64,
            parallel_fraction: 1.0,
            unit: ExecutionUnit::Gpu,
        }
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clips_negatives_and_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.1, 0.0, 0.1, 3.0], &[5]).unwrap();
        let y = relu.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 0.1, 3.0]);
        let g = relu.backward(&Tensor::ones(&[5])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::ones(&[1])).is_err());
    }

    #[test]
    fn tanh_gradient_matches_identity() {
        let mut tanh = Tanh::new();
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]).unwrap();
        let y = tanh.forward(&x).unwrap();
        assert!((y.at(&[0])).abs() < 1e-7);
        let g = tanh.backward(&Tensor::ones(&[3])).unwrap();
        // d tanh(0)/dx = 1
        assert!((g.at(&[0]) - 1.0).abs() < 1e-6);
        // derivative is symmetric
        assert!((g.at(&[1]) - g.at(&[2])).abs() < 1e-6);
    }

    #[test]
    fn activations_have_no_params_and_preserve_shape() {
        let mut relu = Relu::new();
        let mut tanh = Tanh::new();
        assert_eq!(relu.param_count(), 0);
        assert_eq!(tanh.param_count(), 0);
        assert_eq!(relu.output_shape(&[2, 3, 4]), vec![2, 3, 4]);
        assert_eq!(tanh.output_shape(&[5]), vec![5]);
    }
}
