//! # varade-tensor
//!
//! A from-scratch tensor and neural-network substrate for the VARADE
//! reproduction. The original paper implemented its models in TensorFlow;
//! this crate provides the minimal set of building blocks those models need —
//! dense tensors, 1-D convolutions, linear layers, LSTMs, residual blocks,
//! Gaussian negative-log-likelihood and KL-divergence losses, and the Adam
//! optimizer — with hand-written forward and backward passes.
//!
//! The compute-heavy inner loops are the [`kernels`], called directly by the
//! layers, the optimizers and [`Tensor`], and the column kernels of
//! [`layers::incremental`], which the convolution and dense layers run for
//! serving and training. The column kernels and training's hot element-wise
//! loops are also built with AVX2, and one run-time pick in [`kernels`]
//! chooses the build. Its dispatch is the crate's only `unsafe`: one call
//! into each kernel's AVX2 build, made only on a CPU that has AVX2.
//!
//! Every layer also reports a [`profile::ComputeProfile`] describing its
//! per-inference cost (FLOPs, parameter bytes, activation bytes, parallel
//! fraction), which the `varade-edge` crate uses to estimate behaviour on
//! edge devices.
//!
//! # Examples
//!
//! Train a tiny regression model with Adam:
//!
//! ```
//! use varade_tensor::{Tensor, layers::{Linear, Relu, Sequential}, loss, optim::Adam, Layer};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), varade_tensor::TensorError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Sequential::new(vec![
//!     Box::new(Linear::new(2, 8, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 1, &mut rng)),
//! ]);
//! let mut opt = Adam::new(1e-2);
//! let x = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2])?;
//! let y = Tensor::from_vec(vec![1.0, -1.0], &[2, 1])?;
//! for _ in 0..50 {
//!     model.zero_grad();
//!     let pred = model.forward(&x)?;
//!     let (loss, grad) = loss::mse_loss(&pred, &y)?;
//!     model.backward(&grad)?;
//!     opt.step(&mut model);
//!     let _ = loss;
//! }
//! # Ok(())
//! # }
//! ```
#![deny(unsafe_code)]

pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod numerics;
pub mod optim;
pub mod profile;
mod tensor;

use std::fmt;

pub use kernels::BackendKind;
pub use profile::{ComputeProfile, ExecutionUnit};
pub use tensor::Tensor;

/// Joins a [`Layer::visit_tensors`] prefix with a component name, omitting
/// the `.` separator when the prefix is empty, so a model visited with an
/// empty prefix yields names like `0.weight` rather than `.0.weight`.
pub fn join_tensor_name(prefix: &str, leaf: &str) -> String {
    if prefix.is_empty() {
        leaf.to_string()
    } else {
        format!("{prefix}.{leaf}")
    }
}

/// Errors produced by tensor operations and layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An operation received operands with incompatible shapes.
    ShapeMismatch {
        /// Shape the operation expected (or the left-hand operand's shape).
        expected: Vec<usize>,
        /// Shape it received instead.
        got: Vec<usize>,
    },
    /// A layer received an input whose rank or dimensions it cannot process.
    InvalidInput {
        /// The layer that rejected the input.
        layer: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// `backward` was called before `forward` cached the activations it needs.
    BackwardBeforeForward {
        /// The layer that was misused.
        layer: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            TensorError::InvalidInput { layer, reason } => {
                write!(f, "invalid input to {layer}: {reason}")
            }
            TensorError::BackwardBeforeForward { layer } => {
                write!(f, "backward called before forward on {layer}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// A differentiable layer with explicitly managed parameters and gradients.
///
/// Layers cache whatever they need during [`Layer::forward`] so that a
/// subsequent [`Layer::backward`] can compute gradients with respect to both
/// the input and the layer's parameters. Parameter/gradient pairs are exposed
/// through [`Layer::visit_params`] so optimizers can update them without
/// knowing the layer's internals.
///
/// `Send + Sync` is a supertrait: every layer is plain owned data (tensors
/// and scalars), and requiring it keeps fitted models shareable across
/// threads — which data-parallel training backends and the test suite's
/// shared fixtures both rely on.
pub trait Layer: Send + Sync {
    /// Runs the forward pass, caching activations needed for `backward`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError>;

    /// Back-propagates `grad_output` (gradient of the loss with respect to
    /// this layer's output), accumulating parameter gradients and returning
    /// the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward` or if `grad_output` has an
    /// unexpected shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError>;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads, such
    /// as the first layer of a network being trained: accumulates the same
    /// parameter gradients and may skip forming the input gradient. The
    /// default runs `backward` and drops its result.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), TensorError> {
        self.backward(grad_output).map(drop)
    }

    /// Runs an inference-only forward pass through `&self`: no activations
    /// are cached (so `backward` cannot follow), which lets one fitted model
    /// be shared behind an `Arc` and scored from many threads concurrently —
    /// the contract the multi-stream serving layer builds on.
    ///
    /// Implementations must produce the same result as [`Layer::forward`]
    /// would for layers whose forward pass is a pure function of the input
    /// and parameters; they are free to use a faster kernel as long as the
    /// computation stays deterministic.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer, or
    /// — for the default implementation — if the layer has no immutable
    /// inference path (stateful layers like the LSTM only support
    /// [`Layer::forward`]).
    fn forward_infer(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let _ = input;
        Err(TensorError::InvalidInput {
            layer: self.name(),
            reason: "layer has no immutable inference path; use forward".into(),
        })
    }

    /// Plans the per-layer state [`Layer::forward_incremental`] needs to
    /// process a stream whose sliding windows have the given `input_shape`
    /// (`[1, channels, window]` for the convolutional layers). Containers
    /// plan one child cache per layer by threading [`Layer::output_shape`].
    ///
    /// # Errors
    ///
    /// The default implementation returns [`TensorError::InvalidInput`]:
    /// layers without an incremental path (the LSTM, residual blocks, tanh)
    /// cannot be part of an incremental pipeline.
    fn make_incremental_cache(
        &self,
        input_shape: &[usize],
    ) -> Result<layers::IncrementalCache, TensorError> {
        let _ = input_shape;
        Err(TensorError::InvalidInput {
            layer: self.name(),
            reason: "layer has no incremental streaming path".into(),
        })
    }

    /// Consumes one [`layers::StreamStep`] of the input stream and emits the
    /// resulting step of the output stream, if the layer's state is primed
    /// enough to produce one — the streaming counterpart of
    /// [`Layer::forward_infer`] that recomputes only the receptive-field
    /// frontier instead of the whole window (see
    /// [`layers::incremental`] for the parity-phased cache design).
    ///
    /// Like `forward_infer` this takes `&self`: all mutable state lives in
    /// the caller-owned cache, so one fitted model behind an `Arc` can serve
    /// any number of independent streams, each with its own cache.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidInput`] for a step kind the layer cannot
    /// consume, a cache planned for a different layer, or — for the default
    /// implementation — a layer without an incremental path.
    fn forward_incremental(
        &self,
        step: layers::StreamStep,
        cache: &mut layers::IncrementalCache,
    ) -> Result<Option<layers::StreamStep>, TensorError> {
        let _ = (step, cache);
        Err(TensorError::InvalidInput {
            layer: self.name(),
            reason: "layer has no incremental streaming path".into(),
        })
    }

    /// Visits every `(parameter, gradient)` pair in a stable order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Visits every parameter tensor together with a stable, unique,
    /// dot-separated name rooted at `prefix` (e.g. `net.0.weight`).
    ///
    /// The visitation order and the names are part of a layer's public
    /// contract: the persistence layer serializes tensors in exactly this
    /// order and addresses them by exactly these names, so reordering or
    /// renaming is a format-breaking change. Containers append their child's
    /// position to the prefix (`{prefix}.{index}`); leaf layers append the
    /// parameter's role (`.weight`, `.bias`, ...). Layers without parameters
    /// use the default no-op.
    fn visit_tensors(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Tensor)) {
        let _ = (prefix, visitor);
    }

    /// Mutable counterpart of [`Layer::visit_tensors`]: visits the same
    /// tensors, under the same names, in the same order. Used to overwrite a
    /// freshly constructed model's parameters with deserialized weights.
    fn visit_tensors_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Tensor)) {
        let _ = (prefix, visitor);
    }

    /// Resets all parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, grad| grad.fill_zero());
    }

    /// Shape of the output produced for an input of the given shape.
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;

    /// Per-inference compute cost for an input of the given shape.
    fn profile(&self, input_shape: &[usize]) -> ComputeProfile;

    /// Short human-readable layer name used in model summaries.
    fn name(&self) -> &'static str;

    /// A no-op: every layer runs the one set of [`kernels`]. It stays until
    /// ROADMAP item 6(c)'s benchmark-tagged change removes perfbench's call.
    fn set_backend(&mut self, kind: BackendKind) {
        let _ = kind;
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p, _| count += p.len());
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeMismatch {
            expected: vec![2, 3],
            got: vec![4],
        };
        assert!(e.to_string().contains("shape mismatch"));
        let e = TensorError::InvalidInput {
            layer: "conv1d",
            reason: "rank".into(),
        };
        assert!(e.to_string().contains("conv1d"));
        let e = TensorError::BackwardBeforeForward { layer: "linear" };
        assert!(e.to_string().contains("linear"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
        assert_send_sync::<Tensor>();
    }
}
