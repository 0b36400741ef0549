//! Post-training int8 quantization audit: footprint, throughput and accuracy
//! of the quant backend against the scalar reference.
//!
//! The quant backend re-encodes every fitted conv/linear weight as a
//! per-row affine int8 plane (one byte per tap, f32 scale + i8 zero point
//! per row) and scores through f32-accumulator int8 kernels — no refitting.
//! Its contract is different from the vector backend's per-score tolerance:
//! individual scores may drift, but the *decision quality* must hold. This
//! experiment pins both sides of that bargain per baseline:
//!
//! * **footprint** — the int8 payload must be exactly ¼ of the f32 weight
//!   bytes it replaces, with the affine metadata accounted separately so the
//!   claim stays honest, and the v2 model file must undercut the v1 file;
//! * **throughput** — the quant single-stream rate alongside scalar's, the
//!   edge trade the paper's Jetson deployment would actually make;
//! * **accuracy** — for every scoring rule the collision-split AUC-ROC under
//!   quant must stay within **0.01** of the scalar AUC on the same fitted
//!   weights (the run fails otherwise, mirroring the persistence audit's
//!   hard error).

use serde::{Deserialize, Serialize};

use varade::{BackendKind, ScoringRule, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_metrics::ScoreSummary;
use varade_robot::dataset::RobotDataset;
use varade_tensor::Layer;

use crate::experiments::{time_single_stream, ExperimentScale};
use crate::BenchError;

/// Hard ceiling on the per-cell AUC deviation; [`run`] errors beyond it.
pub const MAX_AUC_DEVIATION: f64 = 0.01;

/// One scoring rule's accuracy comparison, scalar vs quant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizationCell {
    /// Scoring-rule label (`"variance"` | `"prediction-error"`).
    pub scoring: String,
    /// Collision-split AUC-ROC of the fitted detector on the scalar backend.
    pub scalar_auc: f64,
    /// AUC-ROC of the *same fitted weights* re-routed to the quant backend.
    pub quant_auc: f64,
    /// `|scalar_auc − quant_auc|`, gated at [`MAX_AUC_DEVIATION`].
    pub auc_deviation: f64,
    /// Test windows scored by both backends.
    pub scored_windows: usize,
}

/// Serializable outcome of the quantization experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizationResult {
    /// Channels per sample (86 for the robot stream).
    pub n_channels: usize,
    /// Context window of the audited detectors.
    pub window: usize,
    /// f32 weight elements covered by quantized planes (conv kernels and
    /// linear weights; biases stay f32).
    pub weight_elements: u64,
    /// Bytes those elements occupy as f32 (`4 · weight_elements`).
    pub f32_weight_bytes: u64,
    /// Bytes of the packed int8 codes replacing them (1 per element).
    pub int8_payload_bytes: u64,
    /// Bytes of the per-row affine metadata (f32 scale + i8 zero point).
    pub quant_metadata_bytes: u64,
    /// `int8_payload_bytes / f32_weight_bytes` — 0.25 by construction, gated
    /// by the committed floor.
    pub footprint_ratio: f64,
    /// On-disk size of the fitted model persisted on the scalar backend
    /// (format v1, all-f32).
    pub file_bytes_f32: u64,
    /// On-disk size of the same model persisted on the quant backend
    /// (format v2: f32 tensors + scale tensors + int8 tail).
    pub file_bytes_quant: u64,
    /// Single-stream push throughput on the scalar backend, samples/sec.
    pub scalar_samples_per_sec: f64,
    /// Single-stream push throughput on the quant backend, samples/sec.
    pub quant_samples_per_sec: f64,
    /// `quant_samples_per_sec / scalar_samples_per_sec`.
    pub quant_over_scalar_throughput: f64,
    /// One accuracy cell per scoring rule.
    pub cells: Vec<QuantizationCell>,
    /// Largest `auc_deviation` across the cells (≤ [`MAX_AUC_DEVIATION`]).
    pub max_auc_deviation: f64,
}

/// Scores every test window up to `last` through `detector.score_window`,
/// returning one score per window ending at `window..last`.
fn score_split(
    detector: &VaradeDetector,
    dataset: &RobotDataset,
    last: usize,
    window: usize,
    n_channels: usize,
) -> Result<Vec<f32>, BenchError> {
    let mut scores = Vec::with_capacity(last.saturating_sub(window));
    let mut ctx = vec![0.0f32; n_channels * window];
    for t in window..last {
        for c in 0..n_channels {
            for (i, u) in (t - window..t).enumerate() {
                ctx[c * window + i] = dataset.test.value(u, c);
            }
        }
        scores.push(detector.score_window(&ctx, dataset.test.row(t))?);
    }
    Ok(scores)
}

fn auc(scores: &[f32], labels: &[bool]) -> Result<f64, BenchError> {
    Ok(ScoreSummary::compute(scores, labels)
        .map_err(|e| BenchError::Report(format!("quantization AUC: {e}")))?
        .auc_roc)
}

/// Sums the quantized planes of a fitted quant-backend detector into the
/// footprint triple (f32 elements covered, int8 payload bytes, metadata
/// bytes).
fn footprint(detector: &VaradeDetector) -> Result<(u64, u64, u64), BenchError> {
    let model = detector
        .model()
        .ok_or_else(|| BenchError::Report("quantization: detector is unfitted".into()))?;
    let (mut elements, mut payload, mut metadata) = (0u64, 0u64, 0u64);
    model.visit_quant_planes("model", &mut |_, plane| {
        elements += (plane.rows() * plane.row_len()) as u64;
        payload += plane.int8_payload_bytes();
        metadata += plane.metadata_bytes();
    });
    if elements == 0 {
        return Err(BenchError::Report(
            "quantization: the quant backend produced no planes".into(),
        ));
    }
    Ok((elements, payload, metadata))
}

/// Fits one detector per scoring rule, measures footprint and throughput
/// under the quant backend, and compares AUC against the scalar reference.
///
/// # Errors
///
/// Returns [`BenchError`] if training or scoring fails, the footprint ratio
/// exceeds ¼, or any cell's AUC deviation exceeds [`MAX_AUC_DEVIATION`].
pub fn run(
    scale: ExperimentScale,
    dataset: &RobotDataset,
) -> Result<QuantizationResult, BenchError> {
    let config = scale.varade_config();
    let window = config.window;
    let n_channels = dataset.test.n_channels();
    let last = dataset.test.len().min(scale.streaming_sample_cap());
    if last <= window {
        return Err(BenchError::Report(
            "quantization: test split shorter than one window".into(),
        ));
    }

    let mut cells = Vec::new();
    let mut sizes = None;
    for rule in [ScoringRule::Variance, ScoringRule::PredictionError] {
        let mut detector = VaradeDetector::with_scoring(config, rule);
        detector.fit(&dataset.train)?;

        let scalar_scores = score_split(&detector, dataset, last, window, n_channels)?;
        let scalar_auc = auc(&scalar_scores, &dataset.labels[window..last])?;

        // Post-training quantization: same fitted weights, int8 kernels.
        detector.set_backend(BackendKind::Quant);
        let quant_scores = score_split(&detector, dataset, last, window, n_channels)?;
        let quant_auc = auc(&quant_scores, &dataset.labels[window..last])?;

        let auc_deviation = (scalar_auc - quant_auc).abs();
        if auc_deviation > MAX_AUC_DEVIATION {
            return Err(BenchError::Report(format!(
                "quantization: {rule} AUC deviates by {auc_deviation:.4} \
                 (scalar {scalar_auc:.4} vs quant {quant_auc:.4}, ceiling {MAX_AUC_DEVIATION})"
            )));
        }
        cells.push(QuantizationCell {
            scoring: rule.label().to_string(),
            scalar_auc,
            quant_auc,
            auc_deviation,
            scored_windows: scalar_scores.len(),
        });

        // Footprint and throughput once, on the first fitted model — the
        // planes depend on the weights, not the scoring rule, and the second
        // fit differs only in its score head.
        if sizes.is_none() {
            let (weight_elements, int8_payload_bytes, quant_metadata_bytes) = footprint(&detector)?;
            let f32_weight_bytes = weight_elements * 4;
            let footprint_ratio = int8_payload_bytes as f64 / f32_weight_bytes as f64;
            if footprint_ratio > 0.25 {
                return Err(BenchError::Report(format!(
                    "quantization: int8 payload is {footprint_ratio:.4}x the f32 weights \
                     (contract: ≤ 0.25x)"
                )));
            }
            let file_bytes_quant = detector
                .to_persist_bytes()
                .map_err(|e| BenchError::Report(format!("quant persist: {e}")))?
                .len() as u64;

            let timed = |det: &VaradeDetector| time_single_stream(det, dataset, last, window);
            let quant_timed = timed(&detector)?;
            detector.set_backend(BackendKind::Scalar);
            let file_bytes_f32 = detector
                .to_persist_bytes()
                .map_err(|e| BenchError::Report(format!("scalar persist: {e}")))?
                .len() as u64;
            let scalar_timed = timed(&detector)?;
            detector.set_backend(BackendKind::Quant);
            sizes = Some((
                weight_elements,
                f32_weight_bytes,
                int8_payload_bytes,
                quant_metadata_bytes,
                footprint_ratio,
                file_bytes_f32,
                file_bytes_quant,
                scalar_timed.samples_per_sec,
                quant_timed.samples_per_sec,
            ));
        }
    }
    let (
        weight_elements,
        f32_weight_bytes,
        int8_payload_bytes,
        quant_metadata_bytes,
        footprint_ratio,
        file_bytes_f32,
        file_bytes_quant,
        scalar_samples_per_sec,
        quant_samples_per_sec,
    ) = sizes.expect("at least one scoring rule ran");
    let max_auc_deviation = cells.iter().map(|c| c.auc_deviation).fold(0.0f64, f64::max);
    Ok(QuantizationResult {
        n_channels,
        window,
        weight_elements,
        f32_weight_bytes,
        int8_payload_bytes,
        quant_metadata_bytes,
        footprint_ratio,
        file_bytes_f32,
        file_bytes_quant,
        scalar_samples_per_sec,
        quant_samples_per_sec,
        quant_over_scalar_throughput: if scalar_samples_per_sec > 0.0 {
            quant_samples_per_sec / scalar_samples_per_sec
        } else {
            0.0
        },
        cells,
        max_auc_deviation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade_robot::dataset::DatasetBuilder;

    #[test]
    fn quick_quantization_meets_footprint_and_auc_contracts_and_round_trips() {
        let scale = ExperimentScale::Quick;
        let dataset = DatasetBuilder::new(scale.dataset_config()).build().unwrap();
        let r = run(scale, &dataset).unwrap();

        assert_eq!(r.n_channels, 86);
        assert_eq!(r.window, scale.varade_config().window);
        assert!(r.weight_elements > 0);
        assert_eq!(r.f32_weight_bytes, r.weight_elements * 4);
        assert_eq!(r.int8_payload_bytes, r.weight_elements);
        assert!(r.quant_metadata_bytes > 0);
        assert!(r.footprint_ratio <= 0.25);
        // The v2 file carries the int8 tail *and* every f32 tensor, so it is
        // larger than v1 — the footprint win is the plane-vs-weights ratio,
        // not the artifact size (v2 keeps f32 for training continuity).
        assert!(r.file_bytes_quant > r.file_bytes_f32);
        assert!(r.scalar_samples_per_sec > 0.0 && r.quant_samples_per_sec > 0.0);
        assert!(r.quant_over_scalar_throughput > 0.0);
        assert_eq!(r.cells.len(), 2);
        for cell in &r.cells {
            assert!(cell.scored_windows > 0);
            assert!(cell.auc_deviation <= MAX_AUC_DEVIATION);
            assert!((0.0..=1.0).contains(&cell.scalar_auc));
            assert!((0.0..=1.0).contains(&cell.quant_auc));
        }
        assert!(r.max_auc_deviation <= MAX_AUC_DEVIATION);

        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: QuantizationResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
