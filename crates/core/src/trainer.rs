//! Training loop for the VARADE model.

use varade_tensor::{loss, optim::Adam, Layer, Tensor};
use varade_timeseries::ForecastWindow;

use crate::{VaradeConfig, VaradeError, VaradeModel};

/// Per-epoch loss curves collected during training.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingReport {
    /// Mean total loss (reconstruction + λ·KL) per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean reconstruction (Gaussian NLL) loss per epoch.
    pub reconstruction_losses: Vec<f32>,
    /// Mean KL-divergence per epoch.
    pub kl_losses: Vec<f32>,
}

impl TrainingReport {
    /// Final total loss, if at least one epoch ran.
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }

    /// Whether the total loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last <= first,
            _ => false,
        }
    }
}

/// Trains a [`VaradeModel`] with the ELBO objective of paper §3.2.
#[derive(Debug, Clone)]
pub struct VaradeTrainer {
    config: VaradeConfig,
}

impl VaradeTrainer {
    /// Creates a trainer for the given configuration.
    pub fn new(config: VaradeConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VaradeConfig {
        &self.config
    }

    /// Converts a batch of forecasting windows into `(input, target)` tensors.
    fn batch_tensors(
        &self,
        windows: &[&ForecastWindow],
        n_channels: usize,
    ) -> Result<(Tensor, Tensor), VaradeError> {
        let window = self.config.window;
        let mut input = Vec::with_capacity(windows.len() * n_channels * window);
        let mut target = Vec::with_capacity(windows.len() * n_channels);
        for w in windows {
            if w.context.len() != n_channels * window || w.target.len() != n_channels {
                return Err(VaradeError::InvalidData(format!(
                    "window has context length {} and target length {}, expected {} and {}",
                    w.context.len(),
                    w.target.len(),
                    n_channels * window,
                    n_channels
                )));
            }
            input.extend_from_slice(&w.context);
            target.extend_from_slice(&w.target);
        }
        let input = Tensor::from_vec(input, &[windows.len(), n_channels, window])?;
        let target = Tensor::from_vec(target, &[windows.len(), n_channels])?;
        Ok((input, target))
    }

    /// Runs the training loop over the provided windows.
    ///
    /// # Errors
    ///
    /// Returns [`VaradeError::InvalidData`] if `windows` is empty or any
    /// window does not match the model's channel count and window length.
    pub fn train(
        &self,
        model: &mut VaradeModel,
        windows: &[ForecastWindow],
    ) -> Result<TrainingReport, VaradeError> {
        if windows.is_empty() {
            return Err(VaradeError::InvalidData(
                "no training windows provided".into(),
            ));
        }
        let n_channels = model.n_channels();
        let mut optimizer = Adam::new(self.config.learning_rate).with_clip_norm(5.0);
        let mut report = TrainingReport::default();
        for _epoch in 0..self.config.epochs {
            let mut total = 0.0f32;
            let mut total_recon = 0.0f32;
            let mut total_kl = 0.0f32;
            let mut batches = 0usize;
            for chunk in windows.chunks(self.config.batch_size) {
                let refs: Vec<&ForecastWindow> = chunk.iter().collect();
                let (input, target) = self.batch_tensors(&refs, n_channels)?;
                model.zero_grad();
                let (mu, log_var) = model.forward_variational(&input)?;
                let (recon, grad_mu_recon, grad_lv_recon) =
                    loss::gaussian_nll_loss(&mu, &log_var, &target)?;
                let (kl, grad_mu_kl, grad_lv_kl) = loss::kl_divergence_loss(&mu, &log_var)?;
                let mut grad_mu = grad_mu_recon;
                let mut grad_lv = grad_lv_recon;
                grad_mu.axpy(self.config.kl_weight, &grad_mu_kl)?;
                grad_lv.axpy(self.config.kl_weight, &grad_lv_kl)?;
                model.backward_variational_params(&grad_mu, &grad_lv)?;
                optimizer.step(model);
                total += recon + self.config.kl_weight * kl;
                total_recon += recon;
                total_kl += kl;
                batches += 1;
            }
            let n = batches.max(1) as f32;
            report.epoch_losses.push(total / n);
            report.reconstruction_losses.push(total_recon / n);
            report.kl_losses.push(total_kl / n);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade_timeseries::{MultivariateSeries, WindowIter};

    fn tiny_config() -> VaradeConfig {
        VaradeConfig {
            window: 8,
            base_feature_maps: 8,
            epochs: 4,
            batch_size: 8,
            learning_rate: 2e-3,
            max_train_windows: 64,
            ..VaradeConfig::default()
        }
    }

    fn wave_windows(n: usize, channels: usize, window: usize) -> Vec<ForecastWindow> {
        let names: Vec<String> = (0..channels).map(|c| format!("c{c}")).collect();
        let mut s = MultivariateSeries::new(names, 10.0).unwrap();
        for t in 0..n {
            let row: Vec<f32> = (0..channels)
                .map(|c| ((t as f32 * 0.4) + c as f32).sin() * 0.6)
                .collect();
            s.push_row(&row).unwrap();
        }
        WindowIter::forecasting(&s, window, 1).unwrap().collect()
    }

    #[test]
    fn training_reduces_the_loss() {
        let cfg = tiny_config();
        let mut model = VaradeModel::from_config(cfg, 2).unwrap();
        let windows = wave_windows(120, 2, cfg.window);
        let report = VaradeTrainer::new(cfg).train(&mut model, &windows).unwrap();
        assert_eq!(report.epoch_losses.len(), cfg.epochs);
        assert!(
            report.improved(),
            "loss did not improve: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss().unwrap().is_finite());
    }

    #[test]
    fn kl_term_is_tracked_separately() {
        let cfg = tiny_config();
        let mut model = VaradeModel::from_config(cfg, 2).unwrap();
        let windows = wave_windows(60, 2, cfg.window);
        let report = VaradeTrainer::new(cfg).train(&mut model, &windows).unwrap();
        assert_eq!(report.kl_losses.len(), cfg.epochs);
        assert!(report
            .kl_losses
            .iter()
            .all(|l| l.is_finite() && *l >= -1e-4));
    }

    #[test]
    fn empty_window_list_is_rejected() {
        let cfg = tiny_config();
        let mut model = VaradeModel::from_config(cfg, 2).unwrap();
        assert!(VaradeTrainer::new(cfg).train(&mut model, &[]).is_err());
    }

    #[test]
    fn mismatched_window_shape_is_rejected() {
        let cfg = tiny_config();
        let mut model = VaradeModel::from_config(cfg, 2).unwrap();
        let windows = wave_windows(60, 3, cfg.window);
        assert!(VaradeTrainer::new(cfg).train(&mut model, &windows).is_err());
    }

    #[test]
    fn empty_report_has_no_final_loss() {
        let r = TrainingReport::default();
        assert!(r.final_loss().is_none());
        assert!(!r.improved());
    }
}
