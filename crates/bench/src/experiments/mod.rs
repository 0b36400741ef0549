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
//! | [`persist`] | beyond the paper — model save/load round-trip (footprint, wall time, bit-identity audit) | [`persist::PersistenceResult`] |
//! | [`telemetry`] | beyond the paper — `varade-obs` substrate overhead (enabled vs disabled fleet throughput) | [`telemetry::TelemetryResult`] |
//!
//! Every experiment runs at one of two [`ExperimentScale`]s sharing a single
//! code path: `Full` is the laptop-scale stand-in for the paper run (the
//! checked-in `BENCH_*.json` baselines), `Quick` is the deterministic
//! reduced configuration used by `--quick`, CI and the test suite.

pub mod ablation;
pub mod architecture;
pub mod channels;
pub mod figure3;
pub mod persist;
pub mod table2;
pub mod telemetry;

use varade::VaradeConfig;
use varade_edge::table::ExperimentConfig;
use varade_robot::dataset::DatasetConfig;

/// Scale of an experiment run.
///
/// Both scales use fixed seeds (dataset, weight initialization, collision
/// schedule), so accuracy numbers are reproducible bit-for-bit on one
/// toolchain; only the wall-clock sections of a report (telemetry overhead,
/// persistence save/load time) vary between machines.
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

    /// VARADE configuration of the ablation base variant (the same model the
    /// Table 2 accuracy column trains).
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

    /// Cap on the number of test samples the persistence audit scores (the
    /// quick scale keeps CI fast).
    pub fn audit_sample_cap(self) -> usize {
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
        assert!(quick.audit_sample_cap() < full.audit_sample_cap());
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
