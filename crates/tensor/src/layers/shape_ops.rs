//! Shape-manipulation layers: flattening, last-time-step selection and
//! nearest-neighbour upsampling.

use crate::layers::incremental::{
    self, cache_mismatch, step_mismatch, CacheNode, IncrementalCache, StepRef,
};
use crate::profile::{ComputeProfile, ExecutionUnit};
use crate::{Layer, Tensor, TensorError};

/// Flattens `[batch, channels, time]` (or any rank ≥ 2 tensor) into
/// `[batch, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        if input.ndim() < 2 {
            return Err(TensorError::InvalidInput {
                layer: "flatten",
                reason: format!("expected rank >= 2, got {:?}", input.shape()),
            });
        }
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        self.input_shape = Some(input.shape().to_vec());
        input.reshape(&[batch, rest])
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        if input.ndim() < 2 {
            return Err(TensorError::InvalidInput {
                layer: "flatten",
                reason: format!("expected rank >= 2, got {:?}", input.shape()),
            });
        }
        let batch = input.shape()[0];
        input.reshape(&[batch, input.shape()[1..].iter().product()])
    }

    fn make_incremental_cache(
        &self,
        input_shape: &[usize],
    ) -> Result<IncrementalCache, TensorError> {
        if input_shape.len() != 3 || input_shape[0] != 1 || input_shape[2] == 0 {
            return Err(TensorError::InvalidInput {
                layer: "flatten",
                reason: format!(
                    "incremental cache needs a [1, channels, time > 0] stream, got {input_shape:?}"
                ),
            });
        }
        Ok(IncrementalCache::flatten(input_shape[1], input_shape[2]))
    }

    fn step_incremental<'a>(
        &self,
        step: StepRef<'a>,
        cache: &'a mut IncrementalCache,
    ) -> Result<Option<StepRef<'a>>, TensorError> {
        let CacheNode::Flatten(state) = &mut cache.node else {
            return Err(cache_mismatch("flatten"));
        };
        let StepRef::Column { stream, values } = step else {
            return Err(step_mismatch("flatten", &step));
        };
        let (channels, held) = (state.channels, state.time - 1);
        if values.len() != channels {
            return Err(TensorError::InvalidInput {
                layer: "flatten",
                reason: format!("column of {} values, expected {channels}", values.len()),
            });
        }
        if held == 0 {
            return Ok(Some(StepRef::Features(values)));
        }
        incremental::grow_to(&mut state.streams, stream);
        let history = &mut state.streams[stream];
        history.columns.resize(held * channels, 0.0);
        if history.len < held {
            history.columns[history.len * channels..][..channels].copy_from_slice(values);
            history.len += 1;
            return Ok(None);
        }
        // Channel-major flatten of the leaf stream's last `time` columns,
        // oldest first — identical ordering to flattening [1, C, time].
        let columns = || (0..held).map(|k| (history.oldest + k) % held);
        for (c, features) in state.features.chunks_exact_mut(held + 1).enumerate() {
            for (f, k) in features.iter_mut().zip(columns()) {
                *f = history.columns[k * channels + c];
            }
            features[held] = values[c];
        }
        history.columns[history.oldest * channels..][..channels].copy_from_slice(values);
        history.oldest = (history.oldest + 1) % held;
        Ok(Some(StepRef::Features(&state.features)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .input_shape
            .as_ref()
            .ok_or(TensorError::BackwardBeforeForward { layer: "flatten" })?;
        grad_output.reshape(shape)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let batch = input_shape.first().copied().unwrap_or(1);
        vec![batch, input_shape[1..].iter().product()]
    }

    fn profile(&self, _input_shape: &[usize]) -> ComputeProfile {
        ComputeProfile::default()
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Selects the last time step of a `[batch, channels, time]` tensor,
/// producing `[batch, channels]`. Used to turn a recurrent sequence output
/// into a forecasting head input.
#[derive(Debug, Clone, Default)]
pub struct LastTimeStep {
    input_shape: Option<Vec<usize>>,
}

impl LastTimeStep {
    /// Creates a new last-time-step selector.
    pub fn new() -> Self {
        Self { input_shape: None }
    }

    fn select(input: &Tensor) -> Result<Tensor, TensorError> {
        if input.ndim() != 3 || input.shape()[2] == 0 {
            return Err(TensorError::InvalidInput {
                layer: "last_time_step",
                reason: format!(
                    "expected [batch, channels, time>0], got {:?}",
                    input.shape()
                ),
            });
        }
        let (b, c, t) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(&[b, c]);
        for bi in 0..b {
            for ci in 0..c {
                *out.at_mut(&[bi, ci]) = input.at(&[bi, ci, t - 1]);
            }
        }
        Ok(out)
    }
}

impl Layer for LastTimeStep {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let out = Self::select(input)?;
        self.input_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        Self::select(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .input_shape
            .clone()
            .ok_or(TensorError::BackwardBeforeForward {
                layer: "last_time_step",
            })?;
        let (b, c, t) = (shape[0], shape[1], shape[2]);
        if grad_output.shape() != [b, c] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![b, c],
                got: grad_output.shape().to_vec(),
            });
        }
        let mut grad = Tensor::zeros(&shape);
        for bi in 0..b {
            for ci in 0..c {
                *grad.at_mut(&[bi, ci, t - 1]) = grad_output.at(&[bi, ci]);
            }
        }
        Ok(grad)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[1]]
    }

    fn profile(&self, _input_shape: &[usize]) -> ComputeProfile {
        ComputeProfile::default()
    }

    fn name(&self) -> &'static str {
        "last_time_step"
    }
}

/// Nearest-neighbour upsampling along the time axis of a
/// `[batch, channels, time]` tensor; used by the convolutional autoencoder's
/// decoder.
#[derive(Debug, Clone)]
pub struct Upsample1d {
    factor: usize,
    input_shape: Option<Vec<usize>>,
}

impl Upsample1d {
    /// Creates an upsampler that repeats every time step `factor` times.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: usize) -> Self {
        assert!(factor > 0, "upsample factor must be positive");
        Self {
            factor,
            input_shape: None,
        }
    }

    /// The upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    fn repeat(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        if input.ndim() != 3 {
            return Err(TensorError::InvalidInput {
                layer: "upsample1d",
                reason: format!("expected [batch, channels, time], got {:?}", input.shape()),
            });
        }
        let (b, c, t) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(&[b, c, t * self.factor]);
        for bi in 0..b {
            for ci in 0..c {
                for ti in 0..t {
                    let v = input.at(&[bi, ci, ti]);
                    for f in 0..self.factor {
                        *out.at_mut(&[bi, ci, ti * self.factor + f]) = v;
                    }
                }
            }
        }
        Ok(out)
    }
}

impl Layer for Upsample1d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        let out = self.repeat(input)?;
        self.input_shape = Some(input.shape().to_vec());
        Ok(out)
    }

    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.repeat(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        let shape = self
            .input_shape
            .clone()
            .ok_or(TensorError::BackwardBeforeForward {
                layer: "upsample1d",
            })?;
        let (b, c, t) = (shape[0], shape[1], shape[2]);
        if grad_output.shape() != [b, c, t * self.factor] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![b, c, t * self.factor],
                got: grad_output.shape().to_vec(),
            });
        }
        let mut grad = Tensor::zeros(&shape);
        for bi in 0..b {
            for ci in 0..c {
                for ti in 0..t {
                    let mut acc = 0.0;
                    for f in 0..self.factor {
                        acc += grad_output.at(&[bi, ci, ti * self.factor + f]);
                    }
                    *grad.at_mut(&[bi, ci, ti]) = acc;
                }
            }
        }
        Ok(grad)
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[1], input_shape[2] * self.factor]
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        let n: usize = input_shape.iter().product();
        ComputeProfile {
            flops: 0.0,
            param_bytes: 0.0,
            activation_bytes: 4.0 * (n + n * self.factor) as f64,
            parallel_fraction: 1.0,
            unit: ExecutionUnit::Gpu,
        }
    }

    fn name(&self) -> &'static str {
        "upsample1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_round_trips_through_backward() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]).unwrap();
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 6]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.shape(), &[2, 2, 3]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn flatten_rejects_rank_one() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn last_time_step_picks_final_column() {
        let mut l = LastTimeStep::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.as_slice(), &[2.0, 5.0, 8.0, 11.0]);
        let g = l.backward(&Tensor::ones(&[2, 2])).unwrap();
        assert_eq!(g.at(&[0, 0, 2]), 1.0);
        assert_eq!(g.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn last_time_step_rejects_empty_time_axis() {
        let mut l = LastTimeStep::new();
        assert!(l.forward(&Tensor::zeros(&[1, 2, 0])).is_err());
    }

    #[test]
    fn upsample_repeats_and_backward_sums() {
        let mut u = Upsample1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2]).unwrap();
        let y = u.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        let g = u
            .backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]).unwrap())
            .unwrap();
        assert_eq!(g.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn upsample_zero_factor_panics() {
        let _ = Upsample1d::new(0);
    }
}
