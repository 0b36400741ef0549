//! Kernel-backend sweep: the single-stream scoring throughput of one fitted
//! detector on every `varade-tensor` kernel backend.
//!
//! This extends the streaming-throughput experiment along the ROADMAP
//! "multi-backend tensor substrate" axis: the same fitted model is re-routed
//! onto each [`BackendKind`] (no refitting — backends only change how the
//! kernels compute, not what they compute) and pushed through the identical
//! per-sample scoring path. Besides throughput, every cell records the
//! maximum relative deviation of its scores from the scalar reference, so a
//! baseline documents both how much faster and how close a backend is.

use serde::{Deserialize, Serialize};

use varade::{BackendKind, VaradeDetector};
use varade_robot::dataset::RobotDataset;

use crate::experiments::time_single_stream;
use crate::timing::LatencyStats;
use crate::BenchError;

/// One backend's row of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendCell {
    /// Backend label (`"scalar"` | `"vector"`).
    pub backend: String,
    /// End-to-end push throughput in samples per second.
    pub samples_per_sec: f64,
    /// Per-push latency distribution.
    pub push_latency: LatencyStats,
    /// Mean latency of the model's scoring forward pass alone, microseconds.
    pub model_scoring_mean_us: f64,
    /// Maximum relative deviation of this backend's scores from the scalar
    /// reference cell: `max |s − s_ref| / max(|s_ref|, 1)`. Zero for the
    /// scalar cell itself; bounded by [`BackendKind::score_tolerance`].
    pub max_rel_deviation_vs_scalar: f64,
}

/// Serializable outcome of the backend sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSweepResult {
    /// Channels per sample (86 for the robot stream).
    pub n_channels: usize,
    /// Context window of the swept detector.
    pub window: usize,
    /// Test samples pushed through each backend's stream.
    pub streamed_samples: usize,
    /// One row per backend, scalar (the reference) first.
    pub cells: Vec<BackendCell>,
    /// Vector-cell samples/sec divided by scalar-cell samples/sec — the
    /// headline single-stream speedup of the vectorized kernels.
    pub vector_over_scalar_speedup: f64,
}

impl BackendSweepResult {
    /// The cell measured for `kind`, if present.
    pub fn cell(&self, kind: BackendKind) -> Option<&BackendCell> {
        self.cells.iter().find(|c| c.backend == kind.label())
    }
}

/// Streams the dataset's collision split through the fitted detector once per
/// backend, timing every push. The detector's backend is switched in place
/// (scoring-only — the fitted weights are shared by construction) and
/// restored before returning.
///
/// # Errors
///
/// Returns [`BenchError`] if the detector is unfitted or any push fails.
pub fn run_fitted(
    detector: &mut VaradeDetector,
    dataset: &RobotDataset,
    sample_cap: usize,
) -> Result<BackendSweepResult, BenchError> {
    let n_channels = dataset.test.n_channels();
    let window = detector.config().window;
    let to_stream = dataset.test.len().min(sample_cap);
    let original = detector.backend_kind();

    // Every cell streams through a fresh state, so it plans a fresh cache:
    // a re-routed backend never reuses columns computed under another.
    let mut cells = Vec::new();
    let mut reference_scores: Vec<f32> = Vec::new();
    for kind in BackendKind::ALL {
        detector.set_backend(kind);
        let timed = time_single_stream(detector, dataset, to_stream, window)?;
        let max_rel_deviation_vs_scalar = if kind == BackendKind::Scalar {
            reference_scores = timed.scores;
            0.0
        } else {
            timed
                .scores
                .iter()
                .zip(&reference_scores)
                .map(|(&s, &r)| f64::from((s - r).abs()) / f64::from(r.abs().max(1.0)))
                .fold(0.0f64, f64::max)
        };
        cells.push(BackendCell {
            backend: kind.label().to_string(),
            samples_per_sec: timed.samples_per_sec,
            push_latency: timed.push_latency,
            model_scoring_mean_us: timed.model_scoring_mean_us,
            max_rel_deviation_vs_scalar,
        });
    }
    detector.set_backend(original);

    let per_sec = |cells: &[BackendCell], kind: BackendKind| {
        cells
            .iter()
            .find(|c| c.backend == kind.label())
            .map_or(0.0, |c| c.samples_per_sec)
    };
    let scalar = per_sec(&cells, BackendKind::Scalar);
    let vector = per_sec(&cells, BackendKind::Vector);
    Ok(BackendSweepResult {
        n_channels,
        window,
        streamed_samples: to_stream,
        cells,
        vector_over_scalar_speedup: if scalar > 0.0 { vector / scalar } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;
    use varade_detectors::AnomalyDetector;
    use varade_robot::dataset::DatasetBuilder;

    #[test]
    fn quick_backend_sweep_covers_every_backend_and_round_trips() {
        let scale = ExperimentScale::Quick;
        let dataset = DatasetBuilder::new(scale.dataset_config()).build().unwrap();
        let mut detector = VaradeDetector::new(scale.varade_config());
        detector.fit(&dataset.train).unwrap();
        let original = detector.backend_kind();

        let r = run_fitted(&mut detector, &dataset, 200).unwrap();
        assert_eq!(detector.backend_kind(), original, "backend not restored");
        assert_eq!(r.n_channels, 86);
        assert_eq!(r.cells.len(), BackendKind::ALL.len());
        assert_eq!(r.cells[0].backend, "scalar");
        assert_eq!(r.cells[0].max_rel_deviation_vs_scalar, 0.0);
        for cell in &r.cells {
            assert!(cell.samples_per_sec > 0.0);
            assert!(cell.model_scoring_mean_us > 0.0);
            let kind: BackendKind = cell.backend.parse().unwrap();
            let tolerance = kind.score_tolerance().expect("every backend has one");
            assert!(
                cell.max_rel_deviation_vs_scalar <= tolerance,
                "{} deviates by {}",
                cell.backend,
                cell.max_rel_deviation_vs_scalar
            );
        }
        let vector = r.cell(BackendKind::Vector).unwrap();
        assert!(vector.max_rel_deviation_vs_scalar > 0.0 || vector.samples_per_sec > 0.0);
        assert!(r.vector_over_scalar_speedup > 0.0);

        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: BackendSweepResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
