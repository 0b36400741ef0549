//! Streaming throughput (paper §3.1/§4.3): how fast `StreamingVarade::push`
//! scores one sample at a time, the way the inference script on the Jetson
//! boards consumes the sensor stream.
//!
//! The checked-in `BENCH_*.json` records samples/sec and latency
//! percentiles of the incremental push path.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use varade::{StreamingVarade, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_metrics::ScoreSummary;
use varade_robot::dataset::RobotDataset;

use crate::experiments::ExperimentScale;
use crate::timing::LatencyStats;
use crate::BenchError;

/// Serializable outcome of the streaming-throughput experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingResult {
    /// Channels per sample (86 for the robot stream).
    pub n_channels: usize,
    /// Context window of the streamed detector.
    pub window: usize,
    /// Training samples the detector was fitted on.
    pub train_samples: usize,
    /// Test samples pushed through the stream.
    pub streamed_samples: usize,
    /// Scores produced (pushes after warm-up).
    pub scores_emitted: u64,
    /// End-to-end push throughput in samples per second.
    pub samples_per_sec: f64,
    /// Per-push latency distribution (normalization + buffering + scoring).
    pub push_latency: LatencyStats,
    /// Mean latency of the model's scoring forward pass alone, from the
    /// [`varade::PushStats`] hook, in microseconds.
    pub model_scoring_mean_us: f64,
    /// Ranking quality of the streamed scores against the collision labels
    /// (`None` when the streamed slice contains a single class, which can
    /// happen on very short quick runs).
    pub score_summary: Option<ScoreSummary>,
}

/// Trains the Table 2 VARADE configuration on the dataset's normal split and
/// pushes the collision split through [`StreamingVarade`], timing every push.
///
/// When a fitted detector is already at hand (the Table 2 run produces one),
/// prefer [`run_fitted`] — same seeds and data mean retraining here would
/// reproduce the identical model at full training cost.
///
/// # Errors
///
/// Returns [`BenchError`] if training or any push fails.
pub fn run(scale: ExperimentScale, dataset: &RobotDataset) -> Result<StreamingResult, BenchError> {
    let mut detector = VaradeDetector::new(scale.varade_config());
    detector.fit(&dataset.train)?;
    run_fitted(detector, dataset, scale.streaming_sample_cap())
}

/// Streams the dataset's collision split through an already-fitted detector,
/// timing every push (see [`run`]).
///
/// # Errors
///
/// Returns [`BenchError`] if the detector is unfitted or any push fails.
pub fn run_fitted(
    detector: VaradeDetector,
    dataset: &RobotDataset,
    sample_cap: usize,
) -> Result<StreamingResult, BenchError> {
    let config = *detector.config();
    let n_channels = dataset.train.n_channels();
    // The dataset splits are already normalized with the training normalizer
    // (paper §4.3), so the stream needs no normalizer of its own.
    let mut stream = StreamingVarade::new(detector, n_channels, None)?;

    let to_stream = dataset.test.len().min(sample_cap);
    let mut latencies: Vec<Duration> = Vec::with_capacity(to_stream);
    let mut scores: Vec<f32> = Vec::with_capacity(to_stream);
    for t in 0..to_stream {
        let (score, elapsed) = {
            let row = dataset.test.row(t);
            let before = stream.stats().total_time;
            let score = stream.push(row)?;
            (score, stream.stats().total_time - before)
        };
        latencies.push(elapsed);
        if let Some(s) = score {
            scores.push(s);
        }
    }
    let stats = stream.stats();
    let push_latency =
        LatencyStats::from_durations(&latencies).expect("at least one sample streamed");
    // 0.0 (not a non-finite sentinel) when no time accumulated: the shim
    // serializes non-finite floats as null, which would break the report's
    // JSON round-trip invariant.
    let samples_per_sec = stats.samples_per_sec().unwrap_or(0.0);
    // Scores align with labels[window..]: push t scores the window that ends
    // right before sample t, starting once the buffer is full.
    let score_summary = (scores.len() + config.window == to_stream)
        .then(|| ScoreSummary::compute(&scores, &dataset.labels[config.window..to_stream]).ok())
        .flatten();
    Ok(StreamingResult {
        n_channels,
        window: config.window,
        train_samples: dataset.train.len(),
        streamed_samples: to_stream,
        scores_emitted: stats.scores,
        samples_per_sec,
        push_latency,
        model_scoring_mean_us: stats
            .mean_scoring_latency()
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        score_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade_robot::dataset::DatasetBuilder;

    #[test]
    fn quick_streaming_run_produces_consistent_numbers() {
        let dataset = DatasetBuilder::new(ExperimentScale::Quick.dataset_config())
            .build()
            .unwrap();
        let r = run(ExperimentScale::Quick, &dataset).unwrap();
        assert_eq!(r.n_channels, 86);
        assert_eq!(
            r.streamed_samples,
            dataset
                .test
                .len()
                .min(ExperimentScale::Quick.streaming_sample_cap())
        );
        assert_eq!(r.scores_emitted as usize, r.streamed_samples - r.window);
        assert!(r.samples_per_sec > 0.0);
        assert_eq!(r.push_latency.samples, r.streamed_samples);
        assert!(r.push_latency.p50_us <= r.push_latency.p99_us);
        assert!(r.model_scoring_mean_us > 0.0);
        if let Some(summary) = &r.score_summary {
            assert!((0.0..=1.0).contains(&summary.auc_roc));
        }
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: StreamingResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
