//! Library implementations of the paper's experiments.
//!
//! Each submodule reproduces one artifact of the paper and returns a typed,
//! serde-round-trippable result struct — the building blocks of the
//! `BENCH_*.json` schema assembled by [`crate::report`]:
//!
//! | Module | Paper artifact | Result struct |
//! |---|---|---|
//! | [`architecture`] | §3.1, Figure 1 — model summary at paper full size | [`architecture::ArchitectureResult`] |
//! | [`channels`] | §4.2, Table 1 — the 86-channel data schema | [`channels::ChannelsResult`] |
//! | [`table2`] | §4.3–4.4, Table 2 — six detectors × two Jetson boards | [`table2::Table2Result`] |
//! | [`figure3`] | §4.4, Figure 3 — inference frequency vs. accuracy | [`figure3::Figure3Result`] |
//! | [`ablation`] | §4.5 — scoring rule, KL weight λ, window T | [`ablation::AblationResultSet`] |
//! | [`streaming`] | §3.1/§4.3 — real-time push throughput and latency | [`streaming::StreamingResult`] |
//! | [`backend`] | beyond the paper — kernel-backend (scalar vs vector) throughput sweep | [`backend::BackendSweepResult`] |
//! | [`fleet`] | beyond the paper — multi-stream serving throughput (streams × shards sweep) | [`fleet::FleetResult`] |
//! | [`load`] | beyond the paper — Zipf many-stream multi-core load harness with exact sample accounting | [`load::MulticoreResult`] |
//! | [`persist`] | beyond the paper — model save/load round-trip (footprint, wall time, bit-identity audit) | [`persist::PersistenceResult`] |
//! | [`telemetry`] | beyond the paper — `varade-obs` substrate overhead (enabled vs disabled fleet throughput) | [`telemetry::TelemetryResult`] |
//!
//! Every experiment runs at one of two [`ExperimentScale`]s sharing a single
//! code path: `Full` is the laptop-scale stand-in for the paper run (the
//! checked-in `BENCH_*.json` baselines), `Quick` is the deterministic
//! reduced configuration used by `--quick`, CI and the test suite.

pub mod ablation;
pub mod architecture;
pub mod backend;
pub mod channels;
pub mod figure3;
pub mod fleet;
pub mod load;
pub mod persist;
pub mod streaming;
pub mod table2;
pub mod telemetry;

use std::time::Duration;

use varade::{StreamState, VaradeConfig, VaradeDetector};
use varade_edge::table::ExperimentConfig;
use varade_robot::dataset::{DatasetConfig, RobotDataset};

use crate::timing::LatencyStats;
use crate::BenchError;

/// One timed single-stream pass, as produced by [`time_single_stream`] — the
/// measurement core of the backend experiment.
pub(crate) struct TimedStream {
    pub samples_per_sec: f64,
    pub push_latency: LatencyStats,
    pub model_scoring_mean_us: f64,
    pub scores: Vec<f32>,
}

/// Streams `to_stream` samples of the dataset's collision split through a
/// fresh [`StreamState`] (no normalizer: the dataset splits are already
/// normalized), timing every push — after an un-timed warm-up pass (its own
/// fresh state) that pages in the code path and the model weights, so
/// successive cells measured this way stay comparable and the first never
/// pays the process' cold-start noise.
pub(crate) fn time_single_stream(
    detector: &VaradeDetector,
    dataset: &RobotDataset,
    to_stream: usize,
    window: usize,
) -> Result<TimedStream, BenchError> {
    let make_state = || StreamState::new(dataset.test.n_channels(), window, None);
    let mut warmup = make_state()?;
    for t in 0..to_stream.min(window + 64) {
        warmup.push_against(dataset.test.row(t), detector)?;
    }
    let mut state = make_state()?;
    let mut latencies: Vec<Duration> = Vec::with_capacity(to_stream);
    let mut scores: Vec<f32> = Vec::with_capacity(to_stream);
    for t in 0..to_stream {
        let before = state.stats().total_time;
        let score = state.push_against(dataset.test.row(t), detector)?;
        latencies.push(state.stats().total_time - before);
        if let Some(s) = score {
            scores.push(s);
        }
    }
    let stats = state.stats();
    Ok(TimedStream {
        samples_per_sec: stats.samples_per_sec().unwrap_or(0.0),
        push_latency: LatencyStats::from_durations(&latencies)
            .ok_or_else(|| BenchError::Report("timed cell streamed no samples".into()))?,
        model_scoring_mean_us: stats
            .mean_scoring_latency()
            .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        scores,
    })
}

/// Scale of an experiment run.
///
/// Both scales use fixed seeds (dataset, weight initialization, collision
/// schedule), so accuracy numbers are reproducible bit-for-bit on one
/// toolchain; only the wall-clock timing sections of a report vary between
/// machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Reduced epochs/series for CI and smoke tests (`--quick`): seconds, not
    /// minutes, with the same code path as [`ExperimentScale::Full`].
    Quick,
    /// The repository's paper-scale stand-in (the `scaled()` configurations):
    /// all 30 robot actions, full detector suite, minutes of runtime.
    Full,
}

impl ExperimentScale {
    /// Maps the `--quick` CLI flag to a scale.
    pub fn from_quick_flag(quick: bool) -> Self {
        if quick {
            ExperimentScale::Quick
        } else {
            ExperimentScale::Full
        }
    }

    /// Lower-case label used in `BENCH_*.json` and log output.
    pub fn label(self) -> &'static str {
        match self {
            ExperimentScale::Quick => "quick",
            ExperimentScale::Full => "full",
        }
    }

    /// Robot dataset configuration for this scale.
    pub fn dataset_config(self) -> DatasetConfig {
        match self {
            ExperimentScale::Quick => DatasetConfig::smoke_test(),
            ExperimentScale::Full => DatasetConfig::scaled(),
        }
    }

    /// Table 2 experiment configuration (dataset + detector suite + boards).
    pub fn experiment_config(self) -> ExperimentConfig {
        match self {
            ExperimentScale::Quick => ExperimentConfig::smoke_test(),
            ExperimentScale::Full => ExperimentConfig::scaled(),
        }
    }

    /// VARADE configuration shared by the ablation base variant and the
    /// streaming-throughput experiment (the same model the Table 2 accuracy
    /// column trains).
    pub fn varade_config(self) -> VaradeConfig {
        self.experiment_config().detectors.varade
    }

    /// KL-weight sweep of ablation A2.
    pub fn kl_lambdas(self) -> Vec<f32> {
        match self {
            ExperimentScale::Quick => vec![0.0, 0.1],
            ExperimentScale::Full => vec![0.0, 0.01, 0.1, 1.0],
        }
    }

    /// Context-window sweep of ablation A3.
    pub fn window_sweep(self) -> Vec<usize> {
        match self {
            ExperimentScale::Quick => vec![8, 16],
            ExperimentScale::Full => vec![16, 32, 64, 128],
        }
    }

    /// Cap on the number of test samples pushed through the streaming
    /// front-end (the quick scale keeps CI fast).
    pub fn streaming_sample_cap(self) -> usize {
        match self {
            ExperimentScale::Quick => 400,
            ExperimentScale::Full => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_strictly_smaller_than_full() {
        let quick = ExperimentScale::Quick;
        let full = ExperimentScale::Full;
        assert!(quick.varade_config().window <= full.varade_config().window);
        assert!(quick.kl_lambdas().len() < full.kl_lambdas().len());
        assert!(quick.window_sweep().len() < full.window_sweep().len());
        assert!(quick.streaming_sample_cap() < full.streaming_sample_cap());
        assert!(quick.dataset_config().train_duration_s < full.dataset_config().train_duration_s);
    }

    #[test]
    fn scales_are_deterministically_seeded() {
        for scale in [ExperimentScale::Quick, ExperimentScale::Full] {
            assert_eq!(scale.dataset_config(), scale.dataset_config());
            assert_eq!(scale.varade_config().seed, scale.varade_config().seed);
        }
        assert_eq!(ExperimentScale::from_quick_flag(true).label(), "quick");
        assert_eq!(ExperimentScale::from_quick_flag(false).label(), "full");
    }
}
