//! Quickstart: train VARADE on a small synthetic multivariate stream and flag
//! an injected anomaly.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Two scoring rules are demonstrated:
//!
//! * the paper's **variance score** (§3.2): the predicted variance of the
//!   next sample is the anomaly score. It needs the full-scale model and a
//!   genuinely hard-to-forecast stream to be competitive, so on this tiny
//!   synthetic cycle it mostly shows the mechanics;
//! * the **prediction-error** ablation (DESIGN.md §4.1): same backbone,
//!   scored by forecast error — the strong configuration at toy scale, and
//!   the one whose AUC is asserted by `tests/quickstart_smoke.rs`.

use varade::{ScoringRule, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_metrics::auc_roc;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

// `pub(crate)` so tests/quickstart_smoke.rs, which includes this file as a
// module via `#[path]`, can exercise the exact code the example runs.

/// Builds a two-channel quasi-periodic stream resembling a machine cycle.
pub(crate) fn machine_cycle(n: usize, anomaly_at: Option<usize>) -> MultivariateSeries {
    let mut series = MultivariateSeries::new(vec!["vibration".into(), "power".into()], 50.0)
        .expect("valid schema");
    for t in 0..n {
        let phase = t as f32 * 0.12;
        let mut vibration = phase.sin() * 0.8 + (phase * 3.0).sin() * 0.1;
        let mut power = 0.5 + 0.3 * (phase * 0.5).cos();
        if let Some(start) = anomaly_at {
            if t >= start && t < start + 10 {
                vibration += 2.5;
                power += 1.5;
            }
        }
        series
            .push_row(&[vibration, power])
            .expect("row width matches");
    }
    series
}

/// Sample index where the test stream's transient is injected.
pub(crate) const ANOMALY_START: usize = 600;

/// The scaled-down configuration the quickstart trains (see
/// `VaradeConfig::paper_full_size` for the exact paper model).
pub(crate) fn quickstart_config() -> VaradeConfig {
    VaradeConfig {
        window: 32,
        base_feature_maps: 16,
        epochs: 3,
        ..VaradeConfig::default()
    }
}

pub(crate) fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record normal behaviour and normalize it to [-1, 1] (paper §4.3).
    let train_raw = machine_cycle(2_000, None);
    let normalizer = MinMaxNormalizer::fit(&train_raw)?;
    let train = normalizer.transform(&train_raw)?;

    // 2. Prepare a test recording containing one collision-like transient.
    let anomaly_start = ANOMALY_START;
    let test_raw = machine_cycle(1_000, Some(anomaly_start));
    let test = normalizer.transform(&test_raw)?;
    let labels: Vec<bool> = (0..test.len())
        .map(|t| t >= anomaly_start && t < anomaly_start + 10)
        .collect();

    // 3. Train VARADE and score with both rules.
    let config = quickstart_config();
    for rule in [ScoringRule::Variance, ScoringRule::PredictionError] {
        let mut detector = VaradeDetector::with_scoring(config, rule);
        let report = detector.fit_with_report(&train)?;
        let scores = detector.score_series(&test)?;
        let auc = auc_roc(&scores, &labels)?;
        let peak = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .expect("non-empty scores");
        println!("{rule:?}:");
        println!("  training loss per epoch: {:?}", report.epoch_losses);
        println!("  AUC-ROC on the synthetic collision: {auc:.3}");
        println!("  highest-score sample at t = {peak} (anomaly injected at t = {anomaly_start})");
    }
    Ok(())
}
