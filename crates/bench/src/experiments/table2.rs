//! Table 2 (paper §4.3–4.4): the six detectors on the two Jetson boards.
//!
//! The heavy lifting lives in [`varade_edge::table::ExperimentRunner`]; this
//! module runs it at a chosen [`ExperimentScale`] and repackages the outcome
//! into the serde-round-trippable [`Table2Result`] embedded in
//! `BENCH_*.json`.

use serde::{Deserialize, Serialize};

use varade_edge::table::{DetectorAccuracy, ExperimentOutcome, ExperimentRunner, Table2};

use crate::experiments::ExperimentScale;
use crate::BenchError;

/// Serializable outcome of the Table 2 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// The regenerated table (both boards, idle rows included).
    pub table: Table2,
    /// Per-detector AUC-ROC on the collision split, shared by both boards.
    pub accuracies: Vec<DetectorAccuracy>,
}

impl From<&ExperimentOutcome> for Table2Result {
    fn from(outcome: &ExperimentOutcome) -> Self {
        Table2Result {
            table: outcome.table.clone(),
            accuracies: outcome.accuracies.clone(),
        }
    }
}

impl Table2Result {
    /// AUC-ROC of one detector, if it was evaluated.
    pub fn auc_of(&self, detector: &str) -> Option<f64> {
        self.accuracies
            .iter()
            .find(|a| a.name == detector)
            .map(|a| a.auc_roc)
    }

    /// Inference frequency of one detector on one board, if present.
    pub fn frequency_of(&self, board: &str, detector: &str) -> Option<f64> {
        self.table
            .row(board, detector)
            .and_then(|r| r.inference_frequency_hz)
    }
}

/// Runs the Table 2 experiment: trains all six detectors on the simulated
/// robot dataset and estimates their behaviour on both boards.
///
/// Returns the full [`ExperimentOutcome`] so callers can reuse the generated
/// dataset (the ablation, telemetry and persistence experiments run on the
/// same splits); convert with [`Table2Result::from`] for serialization.
///
/// # Errors
///
/// Returns [`BenchError`] if dataset generation, training or scoring fails.
pub fn run(scale: ExperimentScale) -> Result<ExperimentOutcome, BenchError> {
    Ok(ExperimentRunner::new(scale.experiment_config()).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade_edge::table::Table2Row;

    fn sample_result() -> Table2Result {
        Table2Result {
            table: Table2 {
                rows: vec![Table2Row {
                    board: "B".into(),
                    detector: "VARADE".into(),
                    cpu_percent: 1.0,
                    gpu_percent: 2.0,
                    ram_mb: 3.0,
                    gpu_ram_mb: 4.0,
                    power_w: 5.0,
                    auc_roc: Some(0.9),
                    inference_frequency_hz: Some(15.0),
                }],
            },
            accuracies: vec![DetectorAccuracy {
                name: "VARADE".into(),
                auc_roc: 0.9,
            }],
        }
    }

    #[test]
    fn accessors_find_rows() {
        let r = sample_result();
        assert_eq!(r.auc_of("VARADE"), Some(0.9));
        assert_eq!(r.auc_of("kNN"), None);
        assert_eq!(r.frequency_of("B", "VARADE"), Some(15.0));
        assert_eq!(r.frequency_of("B", "GBRF"), None);
    }

    #[test]
    fn result_round_trips_through_json() {
        let r = sample_result();
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: Table2Result = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }
}
