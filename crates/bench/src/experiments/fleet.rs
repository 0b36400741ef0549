//! Fleet throughput: how many samples per second a node serves when many
//! logical streams share one fitted VARADE detector through the
//! `varade-fleet` sharded engine.
//!
//! This extends the single-stream streaming experiment (the ROADMAP
//! "streaming throughput" trajectory) into the many-workload regime that
//! edge deployments actually run: the sweep scores 1…N phase-shifted robot
//! streams across 1…M shards and records, per cell, the aggregate wall-clock
//! throughput and the per-sample latency percentiles. The experiment also *proves* the serving layer is numerically
//! transparent each run: a one-stream one-shard fleet is checked
//! bit-for-bit against [`varade::StreamingVarade`] before any cell is timed.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use varade::VaradeDetector;
use varade_fleet::{Fleet, FleetConfig, OverloadPolicy};
use varade_robot::dataset::RobotDataset;

use crate::experiments::ExperimentScale;
use crate::timing::LatencyStats;
use crate::BenchError;

/// One cell of the streams × shards sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweepCell {
    /// Logical streams served.
    pub streams: usize,
    /// Worker shards (threads).
    pub shards: usize,
    /// Samples pushed per stream.
    pub samples_per_stream: usize,
    /// Samples admitted across all streams.
    pub total_pushes: u64,
    /// Scores produced (pushes after each stream's warm-up).
    pub total_scores: u64,
    /// Samples dropped by the overload policy (0 under `Block`).
    pub dropped: u64,
    /// Aggregate wall-clock throughput over the serve window, in samples per
    /// second — the headline number of the cell. Counts every admitted
    /// sample, warm-up included, so read it together with
    /// [`FleetSweepCell::scores_per_sec`]: warm-up pushes skip the model
    /// forward and are much cheaper.
    pub samples_per_sec: f64,
    /// Scores produced per second of serve window — the conservative
    /// throughput figure (model forwards only, warm-up excluded).
    pub scores_per_sec: f64,
    /// Per-scored-sample latency distribution (admit + frontier
    /// recompute).
    pub sample_latency: LatencyStats,
}

/// Serializable outcome of the fleet-throughput experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Channels per sample (86 for the robot stream).
    pub n_channels: usize,
    /// Context window of the shared detector.
    pub window: usize,
    /// Capacity of each shard's ingress queue during the sweep.
    pub queue_capacity: usize,
    /// Overload policy used by the sweep (always `Block`: throughput cells
    /// must not shed load or the numbers would lie).
    pub overload_policy: String,
    /// Whether the one-stream one-shard fleet produced bit-identical scores
    /// to [`varade::StreamingVarade`] on this run. A `false` here means the serving
    /// layer changed numerics and the cells below should not be trusted.
    pub one_stream_bit_identical: bool,
    /// Samples used by the bit-identity check.
    pub equivalence_samples: usize,
    /// The streams × shards sweep, in execution order.
    pub cells: Vec<FleetSweepCell>,
    /// Highest aggregate samples/sec across the cells.
    pub peak_samples_per_sec: f64,
}

impl FleetResult {
    /// The best aggregate throughput among cells with at least `min_shards`
    /// shards, `None` if no such cell exists.
    pub fn peak_at_shards(&self, min_shards: usize) -> Option<f64> {
        self.cells
            .iter()
            .filter(|c| c.shards >= min_shards)
            .map(|c| c.samples_per_sec)
            .fold(None, |best, v| Some(best.map_or(v, |b: f64| b.max(v))))
    }
}

/// Stream populations swept at each scale.
fn stream_counts(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Quick => vec![1, 4],
        ExperimentScale::Full => vec![1, 8, 64, 256],
    }
}

/// Shard counts swept at each scale.
fn shard_counts(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Quick => vec![1, 2],
        ExperimentScale::Full => vec![1, 2, 4],
    }
}

/// Total push budget per sweep cell: split across the cell's streams so every
/// cell costs roughly the same wall clock regardless of population.
fn push_budget(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Quick => 600,
        ExperimentScale::Full => 8192,
    }
}

/// Runs the sweep against an already-fitted detector shared behind an `Arc`
/// (the Table 2 run produces one; retraining here would reproduce the same
/// model at full cost).
///
/// # Errors
///
/// Returns [`BenchError`] if the detector is unfitted, a fleet run fails, or
/// the bit-identity check cannot score.
pub fn run_fitted(
    detector: &Arc<VaradeDetector>,
    dataset: &RobotDataset,
    scale: ExperimentScale,
) -> Result<FleetResult, BenchError> {
    let n_channels = dataset.test.n_channels();
    let window = detector.config().window;
    let queue_capacity = 512;

    let equivalence_samples = (dataset.test.len()).min(window + 64);
    let one_stream_bit_identical = check_equivalence(detector, dataset, equivalence_samples)?;

    let mut cells = Vec::new();
    for &shards in &shard_counts(scale) {
        for &streams in &stream_counts(scale) {
            cells.push(run_cell(
                detector,
                dataset,
                streams,
                shards,
                queue_capacity,
                push_budget(scale),
            )?);
        }
    }
    let peak_samples_per_sec = cells
        .iter()
        .map(|c| c.samples_per_sec)
        .fold(0.0f64, f64::max);
    Ok(FleetResult {
        n_channels,
        window,
        queue_capacity,
        overload_policy: "Block".to_string(),
        one_stream_bit_identical,
        equivalence_samples,
        cells,
        peak_samples_per_sec,
    })
}

/// Scores the first `samples` test rows through a one-stream one-shard fleet
/// and through [`varade::StreamingVarade`], returning whether every score matched
/// bit for bit.
fn check_equivalence(
    detector: &Arc<VaradeDetector>,
    dataset: &RobotDataset,
    samples: usize,
) -> Result<bool, BenchError> {
    let n_channels = dataset.test.n_channels();
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        queue_capacity: 512,
        overload: OverloadPolicy::Block,
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(detector))
        .map_err(fleet_err)?;
    let stream = fleet.register_stream(group, None).map_err(fleet_err)?;
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..samples {
                handle.push(stream, dataset.test.row(t))?;
            }
            Ok(())
        })
        .map_err(fleet_err)?;

    // Reference: the exact single-stream push path. [`StreamingVarade::push`]
    // is by construction `StreamState::push_against` on an owned detector;
    // driving that same pair against the shared `Arc` scores through
    // identical code without retraining a second detector (the
    // literal `StreamingVarade` comparison, training included, lives in
    // `varade-fleet/tests/equivalence.rs` at a trainable scale).
    let window = detector.config().window;
    let mut reference = varade::StreamState::new(n_channels, window, None)?;
    let mut expected = Vec::new();
    for t in 0..samples {
        let score = reference.push_against(dataset.test.row(t), detector)?;
        if let Some(s) = score {
            expected.push(s);
        }
    }
    let got = &outcome.scores[stream.index()];
    Ok(got.len() == expected.len()
        && got
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits()))
}

/// Times one streams × shards cell.
fn run_cell(
    detector: &Arc<VaradeDetector>,
    dataset: &RobotDataset,
    streams: usize,
    shards: usize,
    queue_capacity: usize,
    push_budget: usize,
) -> Result<FleetSweepCell, BenchError> {
    let window = detector.config().window;
    // Give every stream enough samples to warm up and score, but keep the
    // cell's total push count near the budget so the sweep's wall clock stays
    // flat as the population grows.
    // At least 2x the window per stream, so warm-up (which skips the model
    // forward) never dominates a cell's throughput figure.
    let samples_per_stream = (push_budget / streams).max(2 * window + 16);
    let test_len = dataset.test.len();

    let mut fleet = Fleet::new(FleetConfig {
        n_shards: shards,
        queue_capacity,
        overload: OverloadPolicy::Block,
        record_latencies: true,
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(detector))
        .map_err(fleet_err)?;
    let ids: Vec<_> = (0..streams)
        .map(|_| fleet.register_stream(group, None))
        .collect::<Result<_, _>>()
        .map_err(fleet_err)?;

    let (_, outcome) = fleet
        .run(|handle| {
            // Interleave the streams (each phase-shifted into the test split)
            // so shard rounds genuinely mix streams, as live traffic would.
            for t in 0..samples_per_stream {
                for (i, &id) in ids.iter().enumerate() {
                    let row = dataset.test.row((t + i * 37) % test_len);
                    handle.push(id, row)?;
                }
            }
            Ok(())
        })
        .map_err(fleet_err)?;

    let stats = &outcome.stats;
    let latencies = stats.all_sample_latencies();
    let sample_latency = LatencyStats::from_durations(&latencies)
        .ok_or_else(|| BenchError::Report("fleet cell produced no scores".into()))?;
    Ok(FleetSweepCell {
        streams,
        shards,
        samples_per_stream,
        total_pushes: stats.global.pushes,
        total_scores: stats.global.scores,
        dropped: stats.dropped,
        samples_per_sec: stats.samples_per_sec().unwrap_or(0.0),
        scores_per_sec: stats.scores_per_sec().unwrap_or(0.0),
        sample_latency,
    })
}

fn fleet_err(err: varade_fleet::FleetError) -> BenchError {
    BenchError::Report(format!("fleet: {err}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade_detectors::AnomalyDetector;
    use varade_robot::dataset::DatasetBuilder;

    #[test]
    fn quick_fleet_sweep_is_consistent_and_round_trips() {
        let scale = ExperimentScale::Quick;
        let dataset = DatasetBuilder::new(scale.dataset_config()).build().unwrap();
        let mut detector = VaradeDetector::new(scale.varade_config());
        detector.fit(&dataset.train).unwrap();
        let detector = Arc::new(detector);
        let r = run_fitted(&detector, &dataset, scale).unwrap();

        assert_eq!(r.n_channels, 86);
        assert!(r.one_stream_bit_identical, "fleet changed numerics");
        assert_eq!(r.cells.len(), 4);
        for cell in &r.cells {
            assert_eq!(
                cell.total_pushes,
                (cell.streams * cell.samples_per_stream) as u64
            );
            assert_eq!(
                cell.total_scores,
                (cell.streams * (cell.samples_per_stream - r.window)) as u64
            );
            assert_eq!(cell.dropped, 0);
            assert!(cell.samples_per_sec > 0.0);
            assert!(cell.scores_per_sec > 0.0);
            assert!(cell.scores_per_sec <= cell.samples_per_sec);
            assert!(cell.sample_latency.p50_us <= cell.sample_latency.p99_us);
        }
        assert!(r.peak_samples_per_sec > 0.0);
        assert_eq!(
            r.peak_at_shards(1),
            Some(r.peak_samples_per_sec),
            "peak must be over all cells"
        );
        assert!(r.peak_at_shards(2).is_some());
        assert!(r.peak_at_shards(64).is_none());

        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: FleetResult = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
