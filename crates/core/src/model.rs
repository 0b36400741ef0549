//! The VARADE network: strided convolutional backbone + variational head.

use rand::rngs::StdRng;
use rand::SeedableRng;

use varade_tensor::layers::{Conv1d, Flatten, IncrementalCache, Linear, Relu, Sequential, StepRef};
use varade_tensor::{ComputeProfile, Layer, Tensor, TensorError};

use crate::{VaradeConfig, VaradeError};

/// The variational head's output for one window: `(mean, log_variance)`,
/// one value per input channel.
pub type VariationalHead = (Vec<f32>, Vec<f32>);

/// One row of the model summary used to reproduce Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSummary {
    /// Layer name (`conv1d`, `relu`, `flatten`, `linear`).
    pub name: String,
    /// Output shape for a batch of one window.
    pub output_shape: Vec<usize>,
}

/// The VARADE network (paper Figure 1).
///
/// The backbone is a cascade of [`Conv1d`] layers with kernel size 2 and
/// stride 2 — each layer halves the time axis — interleaved with ReLU
/// activations, with the number of feature maps doubling every two layers.
/// A final linear projection produces, for every input channel, the mean and
/// the log-variance of the predicted distribution of the next time step.
///
/// The network implements [`Layer`], so optimizers can update it directly;
/// [`VaradeModel::forward_variational`] / [`VaradeModel::backward_variational`]
/// expose the mean/log-variance view used by the loss.
pub struct VaradeModel {
    config: VaradeConfig,
    n_channels: usize,
    network: Sequential,
}

impl std::fmt::Debug for VaradeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VaradeModel")
            .field("config", &self.config)
            .field("n_channels", &self.n_channels)
            .field("layers", &self.network.len())
            .finish()
    }
}

impl VaradeModel {
    /// Builds the network for `n_channels` input channels.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::InvalidConfig`] if the configuration is invalid
    /// or `n_channels` is zero.
    pub fn new(
        config: VaradeConfig,
        n_channels: usize,
        rng: &mut StdRng,
    ) -> Result<Self, VaradeError> {
        config.validate()?;
        if n_channels == 0 {
            return Err(VaradeError::InvalidConfig(
                "need at least one input channel".into(),
            ));
        }
        let mut network = Sequential::empty();
        let mut in_ch = n_channels;
        for layer in 0..config.n_layers() {
            let out_ch = config.feature_maps_at(layer);
            network.push(Box::new(Conv1d::new(in_ch, out_ch, 2, 2, 0, rng)));
            network.push(Box::new(Relu::new()));
            in_ch = out_ch;
        }
        network.push(Box::new(Flatten::new()));
        // After n_layers halvings the time axis has length 2.
        let features = in_ch * (config.window >> config.n_layers());
        network.push(Box::new(Linear::new(features, 2 * n_channels, rng)));
        Ok(Self {
            config,
            n_channels,
            network,
        })
    }

    /// Convenience constructor seeding its own RNG from the configuration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VaradeModel::new`].
    pub fn from_config(config: VaradeConfig, n_channels: usize) -> Result<Self, VaradeError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        Self::new(config, n_channels, &mut rng)
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &VaradeConfig {
        &self.config
    }

    /// Number of input channels.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// Runs the network and splits the output into `(mean, log_variance)`,
    /// each of shape `[batch, channels]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not `[batch, n_channels, window]`.
    pub fn forward_variational(&mut self, input: &Tensor) -> Result<(Tensor, Tensor), VaradeError> {
        if input.ndim() != 3
            || input.shape()[1] != self.n_channels
            || input.shape()[2] != self.config.window
        {
            return Err(VaradeError::InvalidData(format!(
                "expected [batch, {}, {}], got {:?}",
                self.n_channels,
                self.config.window,
                input.shape()
            )));
        }
        let out = self.network.forward(input)?;
        Ok(self.split_output(&out)?)
    }

    /// Inference-only variant of [`VaradeModel::forward_variational`]: runs
    /// the network through the immutable [`varade_tensor::Layer::forward_infer`]
    /// path, so no activations are cached and a fitted model can be scored
    /// from many threads at once (e.g. behind an `Arc` in the fleet engine).
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not `[batch, n_channels, window]`.
    pub fn forward_variational_infer(
        &self,
        input: &Tensor,
    ) -> Result<(Tensor, Tensor), VaradeError> {
        if input.ndim() != 3
            || input.shape()[1] != self.n_channels
            || input.shape()[2] != self.config.window
        {
            return Err(VaradeError::InvalidData(format!(
                "expected [batch, {}, {}], got {:?}",
                self.n_channels,
                self.config.window,
                input.shape()
            )));
        }
        let out = self.network.forward_infer(input)?;
        Ok(self.split_output(&out)?)
    }

    /// Plans the parity-phased incremental cache for this network's
    /// `[1, n_channels, window]` sliding-window stream (see
    /// [`varade_tensor::layers::incremental`]).
    ///
    /// # Errors
    ///
    /// Returns an error if any layer lacks an incremental path (the VARADE
    /// backbone always has one).
    pub fn make_incremental_cache(&self) -> Result<IncrementalCache, VaradeError> {
        Ok(self
            .network
            .make_incremental_cache(&[1, self.n_channels, self.config.window])?)
    }

    /// Feeds one sample (one value per channel) into the incremental
    /// pipeline, recomputing only the backbone's receptive-field frontier.
    /// Returns the `(mean, log_variance)` of the window that **ends** at this
    /// sample once the pipeline has seen a full window, `None` while priming.
    ///
    /// Takes `&self` like [`VaradeModel::forward_variational_infer`]: all
    /// mutable state lives in the caller's cache, so a fitted model behind an
    /// `Arc` serves any number of streams, each with its own cache.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::InvalidData`] for a sample of the wrong width
    /// or a cache planned for a different network.
    pub fn forward_incremental(
        &self,
        row: &[f32],
        cache: &mut IncrementalCache,
    ) -> Result<Option<VariationalHead>, VaradeError> {
        if row.len() != self.n_channels {
            return Err(VaradeError::InvalidData(format!(
                "sample of {} values, expected {}",
                row.len(),
                self.n_channels
            )));
        }
        let c = self.n_channels;
        Ok(self
            .forward_incremental_raw(row, cache)?
            .map(|v| (v[..c].to_vec(), v[c..].to_vec())))
    }

    /// [`VaradeModel::forward_incremental`] without the head split or the
    /// copy: returns the raw `[mean..., log_variance...]` vector (`2 *
    /// n_channels` values) where the head wrote it, in `cache`, so the
    /// per-push hot path allocates nothing.
    pub(crate) fn forward_incremental_raw<'a>(
        &self,
        row: &'a [f32],
        cache: &'a mut IncrementalCache,
    ) -> Result<Option<&'a [f32]>, VaradeError> {
        if row.len() != self.n_channels {
            return Err(VaradeError::InvalidData(format!(
                "sample of {} values, expected {}",
                row.len(),
                self.n_channels
            )));
        }
        let step = StepRef::Column {
            stream: 0,
            values: row,
        };
        match self.network.step_incremental(step, cache)? {
            None => Ok(None),
            Some(StepRef::Features(v)) => {
                if v.len() != 2 * self.n_channels {
                    return Err(VaradeError::InvalidData(format!(
                        "incremental head produced {} values, expected {}",
                        v.len(),
                        2 * self.n_channels
                    )));
                }
                Ok(Some(v))
            }
            Some(_) => Err(VaradeError::InvalidData(
                "incremental pipeline emitted a non-feature head step".into(),
            )),
        }
    }

    /// Back-propagates gradients with respect to the mean and log-variance.
    ///
    /// # Errors
    ///
    /// Returns an error if called before `forward_variational` or if the
    /// gradient shapes do not match the last forward batch.
    pub fn backward_variational(
        &mut self,
        grad_mean: &Tensor,
        grad_log_var: &Tensor,
    ) -> Result<Tensor, VaradeError> {
        let combined = self.merge_grads(grad_mean, grad_log_var)?;
        Ok(self.network.backward(&combined)?)
    }

    /// [`VaradeModel::backward_variational`] for training: accumulates the
    /// same parameter gradients but never forms the gradient with respect to
    /// the input window, which an optimizer step does not read.
    pub(crate) fn backward_variational_params(
        &mut self,
        grad_mean: &Tensor,
        grad_log_var: &Tensor,
    ) -> Result<(), VaradeError> {
        let combined = self.merge_grads(grad_mean, grad_log_var)?;
        Ok(self.network.backward_params(&combined)?)
    }

    /// Splits a raw `[batch, 2 * channels]` output into `(mean, log_variance)`.
    fn split_output(&self, output: &Tensor) -> Result<(Tensor, Tensor), TensorError> {
        let batch = output.shape()[0];
        let c = self.n_channels;
        let mut mean = Tensor::zeros(&[batch, c]);
        let mut log_var = Tensor::zeros(&[batch, c]);
        for b in 0..batch {
            for ci in 0..c {
                *mean.at_mut(&[b, ci]) = output.at(&[b, ci]);
                *log_var.at_mut(&[b, ci]) = output.at(&[b, c + ci]);
            }
        }
        Ok((mean, log_var))
    }

    /// Merges per-head gradients back into the `[batch, 2 * channels]` layout.
    fn merge_grads(
        &self,
        grad_mean: &Tensor,
        grad_log_var: &Tensor,
    ) -> Result<Tensor, TensorError> {
        if grad_mean.shape() != grad_log_var.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: grad_mean.shape().to_vec(),
                got: grad_log_var.shape().to_vec(),
            });
        }
        let batch = grad_mean.shape()[0];
        let c = self.n_channels;
        let mut combined = Tensor::zeros(&[batch, 2 * c]);
        for b in 0..batch {
            for ci in 0..c {
                *combined.at_mut(&[b, ci]) = grad_mean.at(&[b, ci]);
                *combined.at_mut(&[b, c + ci]) = grad_log_var.at(&[b, ci]);
            }
        }
        Ok(combined)
    }

    /// Per-layer summary for one input window, reproducing Figure 1.
    pub fn summary(&self) -> Vec<LayerSummary> {
        self.network
            .summary(&[1, self.n_channels, self.config.window])
            .into_iter()
            .map(|(name, output_shape)| LayerSummary { name, output_shape })
            .collect()
    }

    /// Per-inference compute profile of the full network.
    pub fn inference_profile(&self) -> ComputeProfile {
        self.network
            .profile(&[1, self.n_channels, self.config.window])
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.network.param_count()
    }
}

impl Layer for VaradeModel {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, TensorError> {
        self.network.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, TensorError> {
        self.network.backward(grad_output)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.network.visit_params(visitor);
    }

    fn visit_tensors(&self, prefix: &str, visitor: &mut dyn FnMut(&str, &Tensor)) {
        self.network.visit_tensors(prefix, visitor);
    }

    fn visit_tensors_mut(&mut self, prefix: &str, visitor: &mut dyn FnMut(&str, &mut Tensor)) {
        self.network.visit_tensors_mut(prefix, visitor);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.network.output_shape(input_shape)
    }

    fn profile(&self, input_shape: &[usize]) -> ComputeProfile {
        self.network.profile(input_shape)
    }

    fn name(&self) -> &'static str {
        "varade"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> VaradeConfig {
        VaradeConfig {
            window: 16,
            base_feature_maps: 8,
            ..VaradeConfig::default()
        }
    }

    #[test]
    fn architecture_matches_paper_shape() {
        let cfg = VaradeConfig {
            window: 512,
            base_feature_maps: 128,
            ..VaradeConfig::default()
        };
        let mut model = VaradeModel::from_config(cfg, 86).unwrap();
        let summary = model.summary();
        // 8 conv layers + 8 relus + flatten + linear = 18 rows.
        assert_eq!(summary.len(), 18);
        // First conv halves the time axis and produces 128 maps.
        assert_eq!(summary[0].output_shape, vec![1, 128, 256]);
        // Last conv produces 1024 maps at length 2.
        assert_eq!(summary[14].output_shape, vec![1, 1024, 2]);
        // Head outputs mean + log-variance for each of the 86 channels.
        assert_eq!(summary[17].output_shape, vec![1, 172]);
        assert!(model.parameter_count() > 1_000_000);
    }

    #[test]
    fn forward_produces_mean_and_log_variance_per_channel() {
        let mut model = VaradeModel::from_config(tiny_config(), 5).unwrap();
        let x = Tensor::zeros(&[3, 5, 16]);
        let (mu, log_var) = model.forward_variational(&x).unwrap();
        assert_eq!(mu.shape(), &[3, 5]);
        assert_eq!(log_var.shape(), &[3, 5]);
    }

    #[test]
    fn forward_infer_matches_training_forward_closely() {
        let mut model = VaradeModel::from_config(tiny_config(), 4).unwrap();
        let x = Tensor::from_vec(
            (0..2 * 4 * 16).map(|i| (i as f32 * 0.13).sin()).collect(),
            &[2, 4, 16],
        )
        .unwrap();
        let (mu_t, lv_t) = model.forward_variational(&x).unwrap();
        let (mu_i, lv_i) = model.forward_variational_infer(&x).unwrap();
        // The k2s2 inference kernel only differs from the training forward in
        // final-bit rounding of the per-tap additions.
        for (a, b) in mu_t.iter().zip(mu_i.iter()) {
            assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0));
        }
        for (a, b) in lv_t.iter().zip(lv_i.iter()) {
            assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0));
        }
        assert!(model
            .forward_variational_infer(&Tensor::zeros(&[1, 4, 8]))
            .is_err());
    }

    #[test]
    fn forward_rejects_wrong_shapes() {
        let mut model = VaradeModel::from_config(tiny_config(), 5).unwrap();
        assert!(model
            .forward_variational(&Tensor::zeros(&[1, 4, 16]))
            .is_err());
        assert!(model
            .forward_variational(&Tensor::zeros(&[1, 5, 8]))
            .is_err());
        assert!(model.forward_variational(&Tensor::zeros(&[5, 16])).is_err());
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut model = VaradeModel::from_config(tiny_config(), 3).unwrap();
        let x = Tensor::ones(&[2, 3, 16]);
        let (mu, log_var) = model.forward_variational(&x).unwrap();
        let grad = model
            .backward_variational(&Tensor::ones(mu.shape()), &Tensor::ones(log_var.shape()))
            .unwrap();
        assert_eq!(grad.shape(), x.shape());
    }

    #[test]
    fn backward_params_accumulates_the_same_gradients() {
        let x: Vec<f32> = (0..2 * 3 * 16).map(|v| (v as f32 * 0.37).sin()).collect();
        let x = Tensor::from_vec(x, &[2, 3, 16]).unwrap();
        let grads = |params_only: bool| {
            let mut model = VaradeModel::from_config(tiny_config(), 3).unwrap();
            let (mu, log_var) = model.forward_variational(&x).unwrap();
            let g = mu.map(|v| v - 0.25);
            if params_only {
                model.backward_variational_params(&g, &log_var).unwrap();
            } else {
                model.backward_variational(&g, &log_var).unwrap();
            }
            let mut bits = Vec::new();
            model.visit_params(&mut |_, grad| {
                bits.extend(grad.as_slice().iter().map(|v| v.to_bits()));
            });
            bits
        };
        let full = grads(false);
        assert!(full.iter().any(|&b| f32::from_bits(b) != 0.0));
        assert_eq!(grads(true), full);
    }

    #[test]
    fn backward_rejects_mismatched_grad_shapes() {
        let mut model = VaradeModel::from_config(tiny_config(), 3).unwrap();
        let x = Tensor::ones(&[2, 3, 16]);
        let _ = model.forward_variational(&x).unwrap();
        let bad = model.backward_variational(&Tensor::ones(&[2, 3]), &Tensor::ones(&[2, 2]));
        assert!(bad.is_err());
    }

    #[test]
    fn split_and_merge_are_inverse() {
        let model = VaradeModel::from_config(tiny_config(), 4).unwrap();
        let raw = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 8]).unwrap();
        let (mu, lv) = model.split_output(&raw).unwrap();
        let merged = model.merge_grads(&mu, &lv).unwrap();
        assert_eq!(merged, raw);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(VaradeModel::from_config(
            VaradeConfig {
                window: 10,
                ..tiny_config()
            },
            3
        )
        .is_err());
        assert!(VaradeModel::from_config(tiny_config(), 0).is_err());
    }

    #[test]
    fn profile_scales_with_window() {
        let small = VaradeModel::from_config(tiny_config(), 8)
            .unwrap()
            .inference_profile();
        let large = VaradeModel::from_config(
            VaradeConfig {
                window: 64,
                base_feature_maps: 8,
                ..VaradeConfig::default()
            },
            8,
        )
        .unwrap()
        .inference_profile();
        assert!(large.flops > small.flops);
        assert!(large.param_bytes > small.param_bytes);
    }
}
