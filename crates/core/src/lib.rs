//! # varade
//!
//! The core contribution of the paper *"VARADE: a Variational-based
//! AutoRegressive model for Anomaly Detection on the Edge"* (Mascolini et
//! al., DAC 2024), reimplemented in Rust.
//!
//! VARADE is a light forecasting-based anomaly detector for multivariate time
//! series:
//!
//! * an **autoregressive convolutional backbone** — a cascade of 1-D
//!   convolutions with kernel size 2 and stride 2 that halves the time axis at
//!   every layer while doubling the number of feature maps every two layers
//!   (paper §3.1, Figure 1);
//! * a **variational head** — a linear projection producing the mean and
//!   log-variance of a Gaussian distribution over the next sample;
//! * an **ELBO-style loss** — the Gaussian negative log-likelihood plus a
//!   weighted KL divergence against a standard-normal prior (paper §3.2,
//!   Eq. 5–7);
//! * a **variance anomaly score** — at inference the predicted mean is
//!   discarded and the predicted variance is used directly as the anomaly
//!   score: the model is confident (low variance) on normal data and
//!   uncertain (high variance) on anomalies.
//!
//! # Examples
//!
//! Train VARADE on a normal series and score a test stream:
//!
//! ```
//! use varade::{VaradeConfig, VaradeDetector};
//! use varade_detectors::AnomalyDetector;
//! use varade_timeseries::MultivariateSeries;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut train = MultivariateSeries::new(vec!["x".into(), "y".into()], 20.0)?;
//! for t in 0..200 {
//!     let v = (t as f32 * 0.2).sin();
//!     train.push_row(&[v, v * 0.5])?;
//! }
//! let config = VaradeConfig { window: 16, epochs: 2, ..VaradeConfig::default() };
//! let mut detector = VaradeDetector::new(config);
//! detector.fit(&train)?;
//! let scores = detector.score_series(&train)?;
//! assert_eq!(scores.len(), train.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ablation;
mod config;
mod detector;
mod incremental;
mod model;
pub mod persist;
mod streaming;
mod trainer;

pub use config::VaradeConfig;
pub use detector::{ScoringRule, VaradeDetector};
pub use incremental::{incremental_default, EncoderCache};
pub use model::{LayerSummary, VaradeModel, VariationalHead};
pub use persist::{ModelArtifact, PersistError, ThresholdCalibration};
pub use streaming::{PushStats, ScoreRequest, StreamState, StreamingVarade, TimedPush};
pub use trainer::{TrainingReport, VaradeTrainer};
/// Re-export of the tensor crate's one-variant kernel label. It stays until
/// ROADMAP item 6(c)'s benchmark-tagged change removes perfbench's calls.
pub use varade_tensor::BackendKind;

use std::fmt;

/// Errors produced by the VARADE model and detector.
#[derive(Debug, Clone, PartialEq)]
pub enum VaradeError {
    /// A configuration value is out of range (e.g. a window that is not a
    /// power of two).
    InvalidConfig(String),
    /// The training or test data is unusable for the configured model.
    InvalidData(String),
    /// The detector was used before being fitted.
    NotFitted,
    /// An underlying tensor operation failed.
    Tensor(varade_tensor::TensorError),
    /// An underlying time-series operation failed.
    Series(varade_timeseries::SeriesError),
}

impl fmt::Display for VaradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaradeError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            VaradeError::InvalidData(reason) => write!(f, "invalid data: {reason}"),
            VaradeError::NotFitted => write!(f, "detector must be fitted before use"),
            VaradeError::Tensor(err) => write!(f, "tensor error: {err}"),
            VaradeError::Series(err) => write!(f, "series error: {err}"),
        }
    }
}

impl std::error::Error for VaradeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VaradeError::Tensor(err) => Some(err),
            VaradeError::Series(err) => Some(err),
            _ => None,
        }
    }
}

impl From<varade_tensor::TensorError> for VaradeError {
    fn from(err: varade_tensor::TensorError) -> Self {
        VaradeError::Tensor(err)
    }
}

impl From<varade_timeseries::SeriesError> for VaradeError {
    fn from(err: varade_timeseries::SeriesError) -> Self {
        VaradeError::Series(err)
    }
}

impl From<VaradeError> for varade_detectors::DetectorError {
    fn from(err: VaradeError) -> Self {
        match err {
            VaradeError::InvalidConfig(reason) => {
                varade_detectors::DetectorError::InvalidConfig(reason)
            }
            VaradeError::InvalidData(reason) => {
                varade_detectors::DetectorError::InvalidData(reason)
            }
            VaradeError::NotFitted => {
                varade_detectors::DetectorError::NotFitted { detector: "VARADE" }
            }
            VaradeError::Tensor(e) => varade_detectors::DetectorError::Tensor(e),
            VaradeError::Series(e) => varade_detectors::DetectorError::Series(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn error_display_and_conversion() {
        let e = VaradeError::InvalidConfig("window".into());
        assert!(e.to_string().contains("window"));
        assert!(e.source().is_none());
        let e: VaradeError =
            varade_tensor::TensorError::BackwardBeforeForward { layer: "x" }.into();
        assert!(e.source().is_some());
        let det: varade_detectors::DetectorError = VaradeError::NotFitted.into();
        assert!(matches!(
            det,
            varade_detectors::DetectorError::NotFitted { .. }
        ));
    }
}
