//! One-dimensional convolution over the time axis.

use rand::rngs::StdRng;

use crate::init::Init;
use crate::kernels;
use crate::layers::incremental::{
    self, cache_mismatch, step_mismatch, CacheNode, IncrementalCache, PackedColumns, StreamStep,
};
use crate::profile::{ComputeProfile, ExecutionUnit};
use crate::{Layer, Tensor, TensorError};

/// 1-D convolution over `[batch, channels, time]` tensors.
///
/// VARADE's backbone uses kernel size 2 and stride 2 so the time axis is
/// halved at every layer (paper §3.1); the convolutional autoencoder baseline
/// uses kernel 3, stride 1, padding 1 inside its residual blocks.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use varade_tensor::{layers::Conv1d, Layer, Tensor};
///
/// # fn main() -> Result<(), varade_tensor::TensorError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv1d::new(3, 8, 2, 2, 0, &mut rng);
/// let x = Tensor::zeros(&[1, 3, 16]);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.shape(), &[1, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel_size: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cached_padded_input: Option<Tensor>,
    /// `weight` packed `[in, 2, out]` for the incremental column kernel,
    /// built on the first column and dropped whenever the weights can move.
    columns: PackedColumns,
}

impl Conv1d {
    /// Creates a new convolution with He-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_size`, `stride`, `in_channels` or `out_channels` is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel_size: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(
            kernel_size > 0 && stride > 0,
            "kernel size and stride must be positive"
        );
        let fan_in = in_channels * kernel_size;
        let fan_out = out_channels * kernel_size;
        let weight = Init::HeUniform.tensor(
            &[out_channels, in_channels, kernel_size],
            fan_in,
            fan_out,
            rng,
        );
        Self {
            in_channels,
            out_channels,
            kernel_size,
            stride,
            padding,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            weight_grad: Tensor::zeros(&[out_channels, in_channels, kernel_size]),
            bias_grad: Tensor::zeros(&[out_channels]),
            cached_padded_input: None,
            columns: PackedColumns::default(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (feature maps).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel width along the time axis.
    pub fn kernel_size(&self) -> usize {
        self.kernel_size
    }

    /// Stride along the time axis.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding applied to both ends of the time axis.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output length for a given input length, or `None` if the input is too
    /// short for one kernel application.
    pub fn output_len(&self, input_len: usize) -> Option<usize> {
        let padded = input_len + 2 * self.padding;
        if padded < self.kernel_size {
            None
        } else {
            Some((padded - self.kernel_size) / self.stride + 1)
        }
    }

    fn pad(&self, input: &Tensor) -> Tensor {
        if self.padding == 0 {
            return input.clone();
        }
        let (b, c, t) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(&[b, c, t + 2 * self.padding]);
        for bi in 0..b {
            for ci in 0..c {
                for ti in 0..t {
                    *out.at_mut(&[bi, ci, ti + self.padding]) = input.at(&[bi, ci, ti]);
                }
            }
        }
        out
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize), TensorError> {
        if input.ndim() != 3 || input.shape()[1] != self.in_channels {
            return Err(TensorError::InvalidInput {
                layer: "conv1d",
                reason: format!(
                    "expected [batch, {}, time], got {:?}",
                    self.in_channels,
                    input.shape()
                ),
            });
        }
        let t = input.shape()[2];
        let out_len = self
            .output_len(t)
            .ok_or_else(|| TensorError::InvalidInput {
                layer: "conv1d",
                reason: format!(
                    "time axis {} (+2*{} padding) shorter than kernel {}",
                    t, self.padding, self.kernel_size
                ),
            })?;
        Ok((input.shape()[0], out_len))
    }

    /// The convolution itself, over an already padded input. Shared by the
    /// training forward (which caches `padded` afterwards) and the generic
    /// inference path; the inner loops are [`kernels::conv1d`].
    fn compute(&self, padded: &Tensor, batch: usize, out_len: usize) -> Tensor {
        let padded_len = padded.shape()[2];
        let mut out = Tensor::zeros(&[batch, self.out_channels, out_len]);
        kernels::conv1d(
            padded.as_slice(),
            self.weight.as_slice(),
            self.bias.as_slice(),
            out.as_mut_slice(),
            batch,
            self.in_channels,
            self.out_channels,
            padded_len,
            out_len,
            self.kernel_size,
            self.stride,
        );
        out
    }

    /// Specialized inference kernel for the `kernel 2 / stride 2 / padding 0`
    /// convolutions of the VARADE backbone (paper §3.1). Instead of walking
    /// every output element through two-element sub-slices,
    /// [`kernels::conv1d_k2s2`] streams each input-channel row once per
    /// feature map with the time loop innermost over contiguous output memory
    /// — the same FLOPs, but bounds checks and loop overhead amortize over the
    /// row, which roughly halves the cost of the full-window pass.
    fn compute_k2s2(&self, input: &Tensor, batch: usize, out_len: usize) -> Tensor {
        let t = input.shape()[2];
        let mut out = Tensor::zeros(&[batch, self.out_channels, out_len]);
        kernels::conv1d_k2s2(
            input.as_slice(),
            self.weight.as_slice(),
            self.bias.as_slice(),
            out.as_mut_slice(),
            batch,
            self.in_channels,
            self.out_channels,
            t,
            out_len,
        );
        out
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        // Training is about to move the weights: the column packing would go
        // stale, so drop it; it rebuilds on the next column.
        self.columns.clear();
        let (batch, out_len) = self.check_input(input)?;
        let padded = self.pad(input);
        let out = self.compute(&padded, batch, out_len);
        self.cached_padded_input = Some(padded);
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let (batch, out_len) = self.check_input(input)?;
        if self.kernel_size == 2 && self.stride == 2 && self.padding == 0 {
            return Ok(self.compute_k2s2(input, batch, out_len));
        }
        Ok(self.compute(&self.pad(input), batch, out_len))
    }

    fn make_incremental_cache(
        &self,
        input_shape: &[usize],
    ) -> Result<IncrementalCache, TensorError> {
        if input_shape.len() != 3 || input_shape[0] != 1 || input_shape[1] != self.in_channels {
            return Err(TensorError::InvalidInput {
                layer: "conv1d",
                reason: format!(
                    "incremental cache needs a [1, {}, time] stream, got {input_shape:?}",
                    self.in_channels
                ),
            });
        }
        // Only unpadded kernel-2/stride-2 convolutions stream: padded or
        // overlapping kernels couple output columns to the window edges. The
        // phase tree pairs every consecutive column, which matches the full
        // pass only when the window tiles exactly into pairs: an odd time
        // length leaves forward_infer's last column unpaired while the phased
        // path would pair across it — silently different numbers.
        if self.kernel_size != 2
            || self.stride != 2
            || self.padding != 0
            || !input_shape[2].is_multiple_of(2)
        {
            return Err(TensorError::InvalidInput {
                layer: "conv1d",
                reason: format!(
                    "incremental streaming needs an unpadded kernel-2/stride-2 \
                     convolution over an even time length, got kernel {} stride {} \
                     padding {} over {}",
                    self.kernel_size, self.stride, self.padding, input_shape[2]
                ),
            });
        }
        Ok(IncrementalCache::conv_k2s2())
    }

    fn forward_incremental(
        &self,
        step: StreamStep,
        cache: &mut IncrementalCache,
    ) -> Result<Option<StreamStep>, TensorError> {
        let CacheNode::ConvK2S2(state) = &mut cache.node else {
            return Err(cache_mismatch("conv1d"));
        };
        let StreamStep::Column { stream, values } = step else {
            return Err(step_mismatch("conv1d", &step));
        };
        if values.len() != self.in_channels {
            return Err(TensorError::InvalidInput {
                layer: "conv1d",
                reason: format!(
                    "column of {} values, expected {}",
                    values.len(),
                    self.in_channels
                ),
            });
        }
        incremental::grow_to(&mut state.streams, stream);
        let phase = &mut state.streams[stream];
        let index = phase.seen;
        phase.seen += 1;
        let Some(prev) = phase.prev.replace(values) else {
            // First element of this phase stream: nothing to pair.
            return Ok(None);
        };
        let new = phase.prev.as_ref().expect("column stored above");
        let mut out = vec![0.0f32; self.out_channels];
        let packed = self.columns.get_or_pack(|| {
            incremental::pack_k2s2(self.weight.as_slice(), self.in_channels, self.out_channels)
        });
        incremental::k2s2_column(packed, self.bias.as_slice(), &prev, new, &mut out);
        // The pair covers elements (index - 1, index): it starts
        // on an even element exactly when `index` is odd, which
        // routes it to the even phase child `2 * stream`.
        let child = 2 * stream + usize::from(index % 2 == 0);
        Ok(Some(StreamStep::Column {
            stream: child,
            values: out,
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let padded = self
            .cached_padded_input
            .as_ref()
            .ok_or(TensorError::BackwardBeforeForward { layer: "conv1d" })?;
        let batch = padded.shape()[0];
        let padded_len = padded.shape()[2];
        let out_len = (padded_len - self.kernel_size) / self.stride + 1;
        if grad_output.shape() != [batch, self.out_channels, out_len] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![batch, self.out_channels, out_len],
                got: grad_output.shape().to_vec(),
            });
        }
        let mut grad_padded = Tensor::zeros(&[batch, self.in_channels, padded_len]);
        let x = padded.as_slice();
        let w = self.weight.as_slice();
        let go = grad_output.as_slice();
        let gw = self.weight_grad.as_mut_slice();
        let gb = self.bias_grad.as_mut_slice();
        let gp = grad_padded.as_mut_slice();
        let (ci_n, k) = (self.in_channels, self.kernel_size);
        for bi in 0..batch {
            for oc in 0..self.out_channels {
                let go_row = &go[(bi * self.out_channels + oc) * out_len
                    ..(bi * self.out_channels + oc + 1) * out_len];
                for (ot, &g) in go_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    gb[oc] += g;
                    let start = ot * self.stride;
                    for ic in 0..ci_n {
                        let x_base = (bi * ci_n + ic) * padded_len + start;
                        let w_base = (oc * ci_n + ic) * k;
                        for kk in 0..k {
                            gw[w_base + kk] += g * x[x_base + kk];
                            gp[x_base + kk] += g * w[w_base + kk];
                        }
                    }
                }
            }
        }
        // Strip padding from the input gradient.
        if self.padding == 0 {
            return Ok(grad_padded);
        }
        let t = padded_len - 2 * self.padding;
        let mut grad_input = Tensor::zeros(&[batch, self.in_channels, t]);
        for bi in 0..batch {
            for ci in 0..self.in_channels {
                for ti in 0..t {
                    *grad_input.at_mut(&[bi, ci, ti]) =
                        grad_padded.at(&[bi, ci, ti + self.padding]);
                }
            }
        }
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
        let out_len = self.output_len(input_shape[2]).unwrap_or(0);
        vec![input_shape[0], self.out_channels, out_len]
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let batch = input_shape.first().copied().unwrap_or(1) as f64;
        let out_len = self.output_len(input_shape[2]).unwrap_or(0) as f64;
        let k = self.kernel_size as f64;
        let cin = self.in_channels as f64;
        let cout = self.out_channels as f64;
        let in_elems = batch * cin * input_shape[2] as f64;
        let out_elems = batch * cout * out_len;
        ComputeProfile {
            flops: batch * out_len * cout * cin * k * 2.0,
            param_bytes: 4.0 * (cout * cin * k + cout),
            activation_bytes: 4.0 * (in_elems + out_elems),
            parallel_fraction: 0.97,
            unit: ExecutionUnit::Gpu,
        }
    }

    fn name(&self) -> &'static str {
        "conv1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::{finite_difference_grad, relative_error};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn output_length_follows_conv_arithmetic() {
        let conv = Conv1d::new(1, 1, 2, 2, 0, &mut rng());
        assert_eq!(conv.output_len(16), Some(8));
        assert_eq!(conv.output_len(17), Some(8));
        assert_eq!(conv.output_len(2), Some(1));
        assert_eq!(conv.output_len(1), None);
        let padded = Conv1d::new(1, 1, 3, 1, 1, &mut rng());
        assert_eq!(padded.output_len(10), Some(10));
    }

    #[test]
    fn forward_matches_hand_computed_values() {
        let mut conv = Conv1d::new(1, 1, 2, 2, 0, &mut rng());
        conv.weight = Tensor::from_vec(vec![1.0, -1.0], &[1, 1, 2]).unwrap();
        conv.bias = Tensor::from_vec(vec![0.5], &[1]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 5.0], &[1, 1, 4]).unwrap();
        let y = conv.forward(&x).unwrap();
        // windows (1,2) and (3,5): 1-2+0.5=-0.5, 3-5+0.5=-1.5
        assert_eq!(y.as_slice(), &[-0.5, -1.5]);
    }

    #[test]
    fn padded_same_convolution_preserves_length() {
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, &mut rng());
        let x = Tensor::ones(&[2, 2, 7]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3, 7]);
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut conv = Conv1d::new(2, 3, 2, 2, 0, &mut rng());
        assert!(conv.forward(&Tensor::zeros(&[1, 3, 8])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 2])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 1])).is_err());
        assert!(conv.backward(&Tensor::zeros(&[1, 3, 4])).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let base = Conv1d::new(2, 3, 2, 2, 0, &mut rng());
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut loss_fn = |xs: &[f32]| {
            let mut c = base.clone();
            let t = Tensor::from_vec(xs.to_vec(), &[1, 2, 8]).unwrap();
            c.forward(&t).unwrap().norm_sq()
        };
        let numeric = finite_difference_grad(&mut loss_fn, &x, 1e-3);
        let mut c = base.clone();
        let t = Tensor::from_vec(x.clone(), &[1, 2, 8]).unwrap();
        let y = c.forward(&t).unwrap();
        let analytic = c.backward(&y.scale(2.0)).unwrap();
        assert!(relative_error(analytic.as_slice(), &numeric) < 1e-2);
    }

    #[test]
    fn weight_gradient_matches_finite_differences_with_padding() {
        let base = Conv1d::new(1, 2, 3, 1, 1, &mut rng());
        let x =
            Tensor::from_vec((0..6).map(|i| (i as f32 * 0.7).cos()).collect(), &[1, 1, 6]).unwrap();
        let w0 = base.weight.as_slice().to_vec();
        let mut loss_fn = |ws: &[f32]| {
            let mut c = base.clone();
            c.weight = Tensor::from_vec(ws.to_vec(), &[2, 1, 3]).unwrap();
            c.forward(&x).unwrap().norm_sq()
        };
        let numeric = finite_difference_grad(&mut loss_fn, &w0, 1e-3);
        let mut c = base.clone();
        let y = c.forward(&x).unwrap();
        c.backward(&y.scale(2.0)).unwrap();
        assert!(relative_error(c.weight_grad.as_slice(), &numeric) < 1e-2);
    }

    #[test]
    fn bias_gradient_accumulates_output_gradient() {
        let mut conv = Conv1d::new(1, 1, 2, 2, 0, &mut rng());
        let x = Tensor::ones(&[1, 1, 8]);
        let y = conv.forward(&x).unwrap();
        conv.backward(&Tensor::ones(y.shape())).unwrap();
        // 4 output positions, gradient 1 each.
        assert_eq!(conv.bias_grad.at(&[0]), 4.0);
    }

    #[test]
    fn forward_infer_matches_forward_on_generic_convolutions() {
        // Padded kernel-3 convolution takes the generic compute path, which is
        // byte-for-byte the same code the training forward runs.
        let mut conv = Conv1d::new(2, 3, 3, 1, 1, &mut rng());
        let x = Tensor::from_vec(
            (0..28).map(|i| (i as f32 * 0.31).sin()).collect(),
            &[2, 2, 7],
        )
        .unwrap();
        let trained = conv.forward(&x).unwrap();
        let inferred = conv.forward_infer(&x).unwrap();
        assert_eq!(trained, inferred);
    }

    #[test]
    fn forward_infer_k2s2_kernel_matches_forward_within_rounding() {
        // The specialized kernel fuses the two kernel taps into one addition,
        // so it may differ from the training forward in the last bit only.
        let mut conv = Conv1d::new(3, 5, 2, 2, 0, &mut rng());
        let x = Tensor::from_vec(
            (0..96).map(|i| (i as f32 * 0.17).cos()).collect(),
            &[2, 3, 16],
        )
        .unwrap();
        let trained = conv.forward(&x).unwrap();
        let inferred = conv.forward_infer(&x).unwrap();
        assert_eq!(trained.shape(), inferred.shape());
        for (a, b) in trained.iter().zip(inferred.iter()) {
            assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn forward_infer_is_batch_invariant() {
        // Scoring a window alone must produce bit-identical values to scoring
        // it inside a larger batch, so a score does not depend on how many
        // windows an evaluation pass groups together.
        let conv = Conv1d::new(2, 4, 2, 2, 0, &mut rng());
        let row: Vec<f32> = (0..16).map(|i| (i as f32 * 0.23).sin()).collect();
        let mut batch3 = Vec::new();
        for shift in 0..3 {
            batch3.extend(row.iter().map(|v| v + shift as f32));
        }
        let single = conv
            .forward_infer(&Tensor::from_vec(row.clone(), &[1, 2, 8]).unwrap())
            .unwrap();
        let batched = conv
            .forward_infer(&Tensor::from_vec(batch3, &[3, 2, 8]).unwrap())
            .unwrap();
        assert_eq!(single.as_slice(), &batched.as_slice()[..single.len()]);
    }

    #[test]
    fn forward_infer_rejects_bad_inputs() {
        let conv = Conv1d::new(2, 3, 2, 2, 0, &mut rng());
        assert!(conv.forward_infer(&Tensor::zeros(&[1, 3, 8])).is_err());
        assert!(conv.forward_infer(&Tensor::zeros(&[1, 2, 1])).is_err());
    }

    #[test]
    fn profile_counts_macs() {
        let conv = Conv1d::new(4, 8, 2, 2, 0, &mut rng());
        let p = conv.profile(&[1, 4, 16]);
        // out_len = 8; flops = 8*8*4*2*2 = 1024
        assert_eq!(p.flops, 1024.0);
        assert_eq!(p.param_bytes, 4.0 * (8.0 * 4.0 * 2.0 + 8.0));
    }
}
