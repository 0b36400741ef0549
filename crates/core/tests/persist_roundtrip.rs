//! Save/load round-trip contract for the persistence format.
//!
//! Two properties pin the format:
//!
//! 1. **Byte identity**: save → load → save reproduces the file byte for
//!    byte, across window sizes {4, 8, 16, 32} × channel counts {1, 2, 3, 5}.
//!    Weights travel as raw little-endian bits and the header serializer is
//!    deterministic, so nothing may drift.
//! 2. **Score identity**: a loaded detector scores **bit-identically** to
//!    the original across the same matrix, every window of a test stream.

use varade::persist::PRELUDE_LEN;
use varade::persist::{ModelArtifact, PersistError};
use varade::{ThresholdCalibration, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

const WINDOWS: [usize; 4] = [4, 8, 16, 32];
const CHANNELS: [usize; 4] = [1, 2, 3, 5];

fn tiny_config(window: usize) -> VaradeConfig {
    VaradeConfig {
        window,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        kl_weight: 0.05,
        seed: 7,
    }
}

fn wave_series(n: usize, channels: usize) -> MultivariateSeries {
    let names: Vec<String> = (0..channels).map(|c| format!("ch{c}")).collect();
    let mut s = MultivariateSeries::new(names, 10.0).unwrap();
    for t in 0..n {
        let row: Vec<f32> = (0..channels)
            .map(|c| ((t as f32 * 0.31) + c as f32 * 0.6).sin() * 0.7)
            .collect();
        s.push_row(&row).unwrap();
    }
    s
}

fn fitted(window: usize, channels: usize) -> VaradeDetector {
    let mut det = VaradeDetector::new(tiny_config(window));
    det.fit(&wave_series(window * 4 + 60, channels)).unwrap();
    det
}

/// `bytes` with the header's backend label rewritten to `label`, a
/// six-letter label so no length or offset moves (the header has no CRC).
fn with_backend_label(bytes: &[u8], label: &str) -> Vec<u8> {
    let from = br#""backend":"scalar""#;
    let pos = bytes[PRELUDE_LEN..]
        .windows(from.len())
        .position(|w| w == from)
        .expect("the header names its backend")
        + PRELUDE_LEN;
    let mut out = bytes.to_vec();
    out[pos..pos + from.len()].copy_from_slice(format!(r#""backend":"{label}""#).as_bytes());
    out
}

/// Channel-major context windows + targets covering a few positions of a
/// test stream.
fn score_jobs(
    test: &MultivariateSeries,
    window: usize,
    channels: usize,
) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut jobs = Vec::new();
    for end in [window, window + 3, window + 11] {
        let mut ctx = Vec::with_capacity(channels * window);
        for c in 0..channels {
            for t in end - window..end {
                ctx.push(test.value(t, c));
            }
        }
        jobs.push((ctx, test.row(end).to_vec()));
    }
    jobs
}

#[test]
fn save_load_save_is_byte_identical_across_the_matrix() {
    for &window in &WINDOWS {
        for &channels in &CHANNELS {
            let det = fitted(window, channels);
            let first = det.to_persist_bytes().unwrap();
            let loaded = ModelArtifact::from_bytes(&first).unwrap();
            let second = loaded.to_bytes().unwrap();
            assert_eq!(
                first, second,
                "w={window} c={channels}: round-trip changed the bytes"
            );
        }
    }
}

#[test]
fn loaded_detectors_score_bit_identically_across_the_matrix() {
    for &window in &WINDOWS {
        for &channels in &CHANNELS {
            let det = fitted(window, channels);
            let loaded = ModelArtifact::from_bytes(&det.to_persist_bytes().unwrap())
                .unwrap()
                .detector;
            assert_eq!(loaded.n_channels(), Some(channels));
            assert_eq!(loaded.scoring_rule(), det.scoring_rule());
            assert_eq!(loaded.config(), det.config());
            let test = wave_series(window * 2 + 20, channels);
            for (i, (ctx, target)) in score_jobs(&test, window, channels).iter().enumerate() {
                let original = det.score_window(ctx, target).unwrap();
                let reloaded = loaded.score_window(ctx, target).unwrap();
                assert_eq!(
                    original.to_bits(),
                    reloaded.to_bits(),
                    "w={window} c={channels} job {i}: {original} vs {reloaded}"
                );
            }
        }
    }
}

#[test]
fn artifact_round_trips_normalizer_and_threshold() {
    let channels = 2;
    let raw = {
        let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
        for t in 0..120 {
            let v = (t as f32 * 0.3).sin() * 50.0 + 120.0;
            s.push_row(&[v, -v]).unwrap();
        }
        s
    };
    let normalizer = MinMaxNormalizer::fit(&raw).unwrap();
    let train = normalizer.transform(&raw).unwrap();
    let mut det = VaradeDetector::new(tiny_config(8));
    det.fit(&train).unwrap();
    let artifact = ModelArtifact::new(det)
        .with_normalizer(normalizer.clone())
        .with_threshold(ThresholdCalibration {
            threshold: 1.25,
            best_f1: 0.91,
        });
    let bytes = artifact.to_bytes().unwrap();
    let loaded = ModelArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.normalizer.as_ref(), Some(&normalizer));
    let threshold = loaded.threshold.unwrap();
    assert_eq!(threshold.threshold.to_bits(), 1.25f32.to_bits());
    assert_eq!(threshold.best_f1.to_bits(), 0.91f32.to_bits());
    // And the bundle re-serializes byte-identically too.
    assert_eq!(loaded.to_bytes().unwrap(), bytes);
    // A detector-only load drops the extras but keeps the model.
    assert_eq!(loaded.detector.n_channels(), Some(channels));
}

#[test]
fn non_finite_threshold_is_refused_on_save() {
    // A NaN threshold would serialize as `null` and reload as NaN, a
    // calibration that can never raise an alarm; an infinite one never
    // reloads as what was meant either. Both are refused before writing.
    for (calibration, field) in [
        (
            ThresholdCalibration {
                threshold: f32::NAN,
                best_f1: 0.9,
            },
            "threshold.threshold",
        ),
        (
            ThresholdCalibration {
                threshold: 1.0,
                best_f1: f32::INFINITY,
            },
            "threshold.best_f1",
        ),
    ] {
        let artifact = ModelArtifact::new(fitted(8, 2)).with_threshold(calibration);
        assert_eq!(
            artifact.to_bytes(),
            Err(PersistError::NonFinite {
                name: field.into(),
                index: 0
            })
        );
    }
}

#[test]
fn inverted_normalizer_range_is_refused_on_save() {
    // min > max would map every sample of the channel to one constant. The
    // constructor refuses it, so no artifact can carry one into `to_bytes`.
    let err = MinMaxNormalizer::from_ranges(&[(0.0, 2.0), (1.0, -1.0)]).unwrap_err();
    assert!(
        err.to_string().contains("normalizer channel 1"),
        "reason must name the channel: {err}"
    );
    // A constant channel (min == max) is a valid, degenerate range.
    let constant = ModelArtifact::new(fitted(8, 2))
        .with_normalizer(MinMaxNormalizer::from_ranges(&[(0.0, 2.0), (3.0, 3.0)]).unwrap());
    let loaded = ModelArtifact::from_bytes(&constant.to_bytes().unwrap()).unwrap();
    assert_eq!(loaded.normalizer, constant.normalizer);
}

#[test]
fn save_and_load_round_trip_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("varade-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.varade");
    let det = fitted(8, 2);
    det.save(&path).unwrap();
    let loaded = VaradeDetector::load(&path).unwrap();
    let test = wave_series(40, 2);
    for (ctx, target) in score_jobs(&test, 8, 2) {
        assert_eq!(
            det.score_window(&ctx, &target).unwrap().to_bits(),
            loaded.score_window(&ctx, &target).unwrap().to_bits()
        );
    }
    // Loading through the artifact API sees no normalizer and no threshold.
    let artifact = ModelArtifact::load(&path).unwrap();
    assert!(artifact.normalizer.is_none());
    assert!(artifact.threshold.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loaded_detector_scores_streams_and_series_like_the_original() {
    // Beyond single windows: the full score_series path and the incremental
    // streaming path both agree with the original. Files saved when a vector
    // kernel set existed carry `"backend":"vector"` over the same weight
    // format: they load, score the same bits and re-save as `scalar`.
    let mut det = fitted(8, 2);
    let saved = det.to_persist_bytes().unwrap();
    for label in ["scalar", "vector"] {
        let bytes = with_backend_label(&saved, label);
        let artifact = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(artifact.to_bytes().unwrap(), saved, "{label} re-save");
        let mut loaded = artifact.detector;
        let test = wave_series(60, 2);
        let a = det.score_series(&test).unwrap();
        let b = loaded.score_series(&test).unwrap();
        for (t, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label} series score {t}");
        }
        let mut cache_a = det.incremental_cache().unwrap();
        let mut cache_b = loaded.incremental_cache().unwrap();
        for (ctx, target) in score_jobs(&test, 8, 2) {
            let x = det
                .score_window_incremental(&mut cache_a, &ctx, &target)
                .unwrap();
            let y = loaded
                .score_window_incremental(&mut cache_b, &ctx, &target)
                .unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{label} incremental score");
        }
    }
}
