//! # varade-bench
//!
//! The experiment harness of the VARADE reproduction.
//!
//! The [`experiments`] module holds the library implementations of the
//! paper's experiments; each `exp_*` binary is a thin CLI wrapper over one of
//! them, and `exp_report` runs them all plus the telemetry-overhead and
//! persistence audits, and emits the `BENCH_<date>.json` / `EXPERIMENTS.md`
//! artifacts via the [`report`] module:
//!
//! * `exp_architecture` — Figure 1 (model summary of the paper-scale VARADE);
//! * `exp_channels` — Table 1 (the 86-channel data schema);
//! * `exp_table2` — Table 2 (six detectors × two boards);
//! * `exp_figure3` — Figure 3 (inference frequency vs. accuracy);
//! * `exp_ablation` — the ablation study over VARADE's design choices;
//! * `exp_report` — all of the above plus the telemetry-overhead and
//!   persistence audits, serialized to a schema-versioned `BENCH_*.json`
//!   baseline.
//!
//! Throughput and latency are measured by the outside-in benchmark in
//! `perfbench/`, not by this crate.
//!
//! All experiment binaries accept `--quick` for a reduced-scale run with
//! deterministic seeds — the exact code path CI exercises — so paper-scale
//! runs and smoke runs cannot drift apart.
//!
//! The Criterion benches under `benches/` measure the micro-level costs
//! (per-window inference, individual layers, dataset generation, metric
//! computation) that back the analytical edge model.
//!
//! This library also exposes the reference numbers reported in the paper so
//! that harness output and EXPERIMENTS.md can show paper-vs-measured side by
//! side.

pub mod experiments;
pub mod report;
pub mod timing;

use std::fmt;

use serde::Serialize;

/// Errors produced by the experiment harness.
#[derive(Debug)]
pub enum BenchError {
    /// The Table 2 experiment runner failed.
    Edge(varade_edge::EdgeError),
    /// A detector failed to train or score.
    Detector(varade_detectors::DetectorError),
    /// The robot simulator failed to build a dataset.
    Robot(varade_robot::RobotError),
    /// The VARADE model or streaming front-end failed.
    Varade(varade::VaradeError),
    /// Reading or writing a report artifact failed.
    Io(std::io::Error),
    /// A `BENCH_*.json` document could not be parsed, or its schema version
    /// is not the one this binary writes.
    Report(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Edge(e) => write!(f, "experiment failed: {e}"),
            BenchError::Detector(e) => write!(f, "detector failed: {e}"),
            BenchError::Robot(e) => write!(f, "dataset generation failed: {e}"),
            BenchError::Varade(e) => write!(f, "VARADE failed: {e}"),
            BenchError::Io(e) => write!(f, "I/O error: {e}"),
            BenchError::Report(reason) => write!(f, "invalid benchmark report: {reason}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Edge(e) => Some(e),
            BenchError::Detector(e) => Some(e),
            BenchError::Robot(e) => Some(e),
            BenchError::Varade(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::Report(_) => None,
        }
    }
}

impl From<varade_edge::EdgeError> for BenchError {
    fn from(e: varade_edge::EdgeError) -> Self {
        BenchError::Edge(e)
    }
}

impl From<varade_detectors::DetectorError> for BenchError {
    fn from(e: varade_detectors::DetectorError) -> Self {
        BenchError::Detector(e)
    }
}

impl From<varade_robot::RobotError> for BenchError {
    fn from(e: varade_robot::RobotError) -> Self {
        BenchError::Robot(e)
    }
}

impl From<varade::VaradeError> for BenchError {
    fn from(e: varade::VaradeError) -> Self {
        BenchError::Varade(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<serde_json::Error> for BenchError {
    fn from(e: serde_json::Error) -> Self {
        BenchError::Report(e.to_string())
    }
}

/// One reference row of the paper's Table 2 (values transcribed verbatim).
///
/// Serialize-only: the `&'static str` fields cannot be deserialized, and the
/// reference numbers ship compiled into the binary anyway.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaperTable2Row {
    /// Board name.
    pub board: &'static str,
    /// Detector name (or "Idle").
    pub detector: &'static str,
    /// CPU usage in percent.
    pub cpu_percent: f64,
    /// GPU usage in percent.
    pub gpu_percent: f64,
    /// RAM usage in MB.
    pub ram_mb: f64,
    /// GPU RAM usage in MB.
    pub gpu_ram_mb: f64,
    /// Power consumption in watts.
    pub power_w: f64,
    /// AUC-ROC (None for the Idle rows).
    pub auc_roc: Option<f64>,
    /// Inference frequency in Hz (None for the Idle rows).
    pub inference_frequency_hz: Option<f64>,
}

/// The paper's Table 2, used as the reference for EXPERIMENTS.md.
pub fn paper_table2() -> Vec<PaperTable2Row> {
    const XAVIER: &str = "Jetson Xavier NX";
    const ORIN: &str = "Jetson AGX Orin";
    vec![
        PaperTable2Row {
            board: XAVIER,
            detector: "Idle",
            cpu_percent: 36.465,
            gpu_percent: 52.100,
            ram_mb: 5130.219,
            gpu_ram_mb: 537.235,
            power_w: 5.851,
            auc_roc: None,
            inference_frequency_hz: None,
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "AR-LSTM",
            cpu_percent: 62.311,
            gpu_percent: 97.700,
            ram_mb: 5669.830,
            gpu_ram_mb: 872.374,
            power_w: 11.288,
            auc_roc: Some(0.719),
            inference_frequency_hz: Some(5.200),
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "GBRF",
            cpu_percent: 61.499,
            gpu_percent: 53.000,
            ram_mb: 5518.050,
            gpu_ram_mb: 528.416,
            power_w: 6.108,
            auc_roc: Some(0.655),
            inference_frequency_hz: Some(20.575),
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "AE",
            cpu_percent: 53.023,
            gpu_percent: 79.400,
            ram_mb: 5276.139,
            gpu_ram_mb: 807.528,
            power_w: 6.010,
            auc_roc: Some(0.810),
            inference_frequency_hz: Some(2.247),
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "kNN",
            cpu_percent: 92.547,
            gpu_percent: 55.700,
            ram_mb: 5076.605,
            gpu_ram_mb: 526.844,
            power_w: 7.208,
            auc_roc: Some(0.718),
            inference_frequency_hz: Some(1.116),
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "Isolation Forest",
            cpu_percent: 51.122,
            gpu_percent: 64.700,
            ram_mb: 4859.356,
            gpu_ram_mb: 526.673,
            power_w: 5.777,
            auc_roc: Some(0.629),
            inference_frequency_hz: Some(4.568),
        },
        PaperTable2Row {
            board: XAVIER,
            detector: "VARADE",
            cpu_percent: 52.420,
            gpu_percent: 70.600,
            ram_mb: 5488.874,
            gpu_ram_mb: 1005.369,
            power_w: 6.333,
            auc_roc: Some(0.844),
            inference_frequency_hz: Some(14.937),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "Idle",
            cpu_percent: 4.875,
            gpu_percent: 0.000,
            ram_mb: 3916.715,
            gpu_ram_mb: 243.289,
            power_w: 7.522,
            auc_roc: None,
            inference_frequency_hz: None,
        },
        PaperTable2Row {
            board: ORIN,
            detector: "AR-LSTM",
            cpu_percent: 10.744,
            gpu_percent: 87.200,
            ram_mb: 4741.666,
            gpu_ram_mb: 761.107,
            power_w: 11.139,
            auc_roc: Some(0.719),
            inference_frequency_hz: Some(8.687),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "GBRF",
            cpu_percent: 10.475,
            gpu_percent: 15.900,
            ram_mb: 4279.286,
            gpu_ram_mb: 245.287,
            power_w: 9.741,
            auc_roc: Some(0.655),
            inference_frequency_hz: Some(44.128),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "AE",
            cpu_percent: 10.548,
            gpu_percent: 51.800,
            ram_mb: 4882.850,
            gpu_ram_mb: 699.010,
            power_w: 10.168,
            auc_roc: Some(0.810),
            inference_frequency_hz: Some(4.284),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "kNN",
            cpu_percent: 91.506,
            gpu_percent: 0.000,
            ram_mb: 4201.195,
            gpu_ram_mb: 243.289,
            power_w: 16.887,
            auc_roc: Some(0.718),
            inference_frequency_hz: Some(4.754),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "Isolation Forest",
            cpu_percent: 10.648,
            gpu_percent: 0.000,
            ram_mb: 3990.171,
            gpu_ram_mb: 243.289,
            power_w: 9.169,
            auc_roc: Some(0.629),
            inference_frequency_hz: Some(10.732),
        },
        PaperTable2Row {
            board: ORIN,
            detector: "VARADE",
            cpu_percent: 10.399,
            gpu_percent: 70.100,
            ram_mb: 5167.490,
            gpu_ram_mb: 954.701,
            power_w: 10.220,
            auc_roc: Some(0.844),
            inference_frequency_hz: Some(26.461),
        },
    ]
}

/// Looks up one reference row by board and detector.
pub fn paper_row(board: &str, detector: &str) -> Option<PaperTable2Row> {
    paper_table2()
        .into_iter()
        .find(|r| r.board == board && r.detector == detector)
}

/// Formats a paper-vs-measured comparison line for one quantity.
pub fn compare_line(label: &str, paper: f64, measured: f64) -> String {
    let ratio = if paper.abs() > 1e-12 {
        measured / paper
    } else {
        f64::NAN
    };
    format!("{label:<28} paper {paper:>10.3}   measured {measured:>10.3}   ratio {ratio:>6.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_fourteen_rows() {
        let t = paper_table2();
        assert_eq!(t.len(), 14);
        assert_eq!(t.iter().filter(|r| r.detector == "Idle").count(), 2);
        assert_eq!(t.iter().filter(|r| r.detector == "VARADE").count(), 2);
    }

    #[test]
    fn headline_numbers_match_the_paper() {
        let varade = paper_row("Jetson Xavier NX", "VARADE").unwrap();
        assert_eq!(varade.auc_roc, Some(0.844));
        assert_eq!(varade.inference_frequency_hz, Some(14.937));
        let gbrf = paper_row("Jetson AGX Orin", "GBRF").unwrap();
        assert_eq!(gbrf.inference_frequency_hz, Some(44.128));
        assert!(paper_row("Jetson AGX Orin", "nope").is_none());
    }

    #[test]
    fn auc_is_board_independent_in_the_paper() {
        for detector in ["AR-LSTM", "GBRF", "AE", "kNN", "Isolation Forest", "VARADE"] {
            let x = paper_row("Jetson Xavier NX", detector).unwrap();
            let o = paper_row("Jetson AGX Orin", detector).unwrap();
            assert_eq!(x.auc_roc, o.auc_roc, "{detector}");
        }
    }

    #[test]
    fn compare_line_formats_ratio() {
        let line = compare_line("AUC-ROC", 0.8, 0.72);
        assert!(line.contains("0.800"));
        assert!(line.contains("0.720"));
        assert!(line.contains("0.90"));
    }
}
