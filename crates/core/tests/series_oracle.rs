//! `score_series` against an independent oracle at the paper's shape.
//!
//! `score_series` scores a series as one stream: a single incremental
//! cache computes one new column per layer per row. Every other in-repo
//! consumer of that path (streaming, the fleet) shares its arithmetic, so
//! comparing them with each other cannot catch a fault common to all.
//! `score_window` recomputes a whole window through `forward_infer`
//! instead, with the tiled full-window kernels. This suite fits a detector
//! at window 64 with 86 channels (the robot schema's width, above every
//! SIMD lane width the kernels block by) and checks `score_series` against
//! `score_window` on the first scored window, the last one, and a stride
//! in between, bit for bit: both paths keep the same per-output summation
//! order. CI also runs the suite under release codegen.

use varade::{ScoringRule, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::MultivariateSeries;

const WINDOW: usize = 64;
const CHANNELS: usize = 86;
/// Scored windows between checked ones (coprime with the backbone's
/// power-of-two strides, so the checks visit every cache parity).
const STRIDE: usize = 37;

fn config() -> VaradeConfig {
    VaradeConfig {
        window: WINDOW,
        epochs: 1,
        max_train_windows: 24,
        ..VaradeConfig::default()
    }
}

fn series(n: usize, phase: f32) -> MultivariateSeries {
    let names: Vec<String> = (0..CHANNELS).map(|c| format!("ch{c}")).collect();
    let mut s = MultivariateSeries::new(names, 200.0).unwrap();
    for t in 0..n {
        let row: Vec<f32> = (0..CHANNELS)
            .map(|c| {
                let x = t as f32 * 0.11 + c as f32 * 0.37 + phase;
                0.6 * x.sin() + 0.2 * (2.3 * x).cos()
            })
            .collect();
        s.push_row(&row).unwrap();
    }
    s
}

/// The channel-major `[channels * window]` context ending before row `t`.
fn context(s: &MultivariateSeries, t: usize) -> Vec<f32> {
    (0..CHANNELS)
        .flat_map(|c| (t - WINDOW..t).map(move |k| s.value(k, c)))
        .collect()
}

fn check(scoring: ScoringRule) {
    let mut det = VaradeDetector::with_scoring(config(), scoring);
    det.fit(&series(WINDOW + 120, 0.0)).unwrap();
    let test = series(WINDOW + 160, 1.3);
    let scores = det.score_series(&test).unwrap();
    assert_eq!(scores.len(), test.len());

    let last = test.len() - 1;
    let mut steps: Vec<usize> = (WINDOW..last).step_by(STRIDE).collect();
    steps.push(last);
    for t in steps {
        let oracle = det.score_window(&context(&test, t), test.row(t)).unwrap();
        let got = scores[t];
        assert!(got.is_finite(), "{scoring} t={t}: non-finite score {got}");
        assert_eq!(
            got.to_bits(),
            oracle.to_bits(),
            "{scoring} t={t}: score_series {got} vs score_window {oracle}"
        );
    }
}

#[test]
fn variance_scores_match_the_full_window_oracle() {
    check(ScoringRule::Variance);
}

#[test]
fn prediction_error_scores_match_the_full_window_oracle() {
    check(ScoringRule::PredictionError);
}
