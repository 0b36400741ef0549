//! The fleet must not change numerics: a stream scored through a fleet —
//! alone on one shard, or interleaved with neighbours across shards — produces
//! **bit-identical** scores to the same samples pushed through
//! [`StreamingVarade`] directly. This is the contract that makes the serving
//! layer transparent: operators can consolidate single-stream deployments
//! onto a fleet node without re-validating a single threshold.

use std::sync::Arc;

use varade::{StreamingVarade, VaradeConfig, VaradeDetector};
use varade_fleet::{Fleet, FleetConfig, FleetError, OverloadPolicy};
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

fn tiny_config() -> VaradeConfig {
    VaradeConfig {
        window: 8,
        base_feature_maps: 8,
        epochs: 3,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 96,
        ..VaradeConfig::default()
    }
}

fn wave_series(n: usize, phase: f32) -> MultivariateSeries {
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..n {
        let v = (t as f32 * 0.3 + phase).sin();
        s.push_row(&[v, -v * 0.5]).unwrap();
    }
    s
}

fn fitted_detector() -> VaradeDetector {
    let mut det = VaradeDetector::new(tiny_config());
    det.fit_with_report(&wave_series(200, 0.0)).unwrap();
    det
}

/// Scores `test` through a plain `StreamingVarade` — the reference.
fn reference_scores(detector: VaradeDetector, test: &MultivariateSeries) -> Vec<f32> {
    let mut stream = StreamingVarade::new(detector, 2, None).unwrap();
    let mut scores = Vec::new();
    for t in 0..test.len() {
        if let Some(s) = stream.push(test.row(t)).unwrap() {
            scores.push(s);
        }
    }
    scores
}

/// Golden scores of the pre-backend-refactor crate (PR 3 state), captured as
/// raw `f32` bits: the detector below, trained and streamed exactly like
/// `reference_scores` does, produced these 32 scores. The kernels commit to
/// reproducing them **bit for bit** — if this test fails, a change
/// reassociated or otherwise altered the scalar kernels, which silently
/// invalidates every calibrated threshold downstream.
const GOLDEN_SCALAR_BITS: [u32; 32] = [
    1065462350, 1065474405, 1065247046, 1064302227, 1062580342, 1061311242, 1059940651, 1059245890,
    1058609120, 1058439876, 1058492148, 1058834112, 1059339609, 1059316586, 1060658719, 1063069786,
    1064709795, 1064780914, 1064868334, 1065263808, 1065452242, 1065460481, 1065462243, 1065233640,
    1064205292, 1062500560, 1061223013, 1059891938, 1059218526, 1058588563, 1058441558, 1058502336,
];

#[test]
fn scalar_backend_reproduces_the_pre_refactor_golden_scores_bit_for_bit() {
    let mut det = VaradeDetector::new(tiny_config());
    det.fit_with_report(&wave_series(200, 0.0)).unwrap();
    let test = wave_series(40, 1.0);
    let scores = reference_scores(det, &test);
    let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, GOLDEN_SCALAR_BITS);
}

#[test]
fn one_stream_one_shard_fleet_is_bit_identical_to_streaming_varade() {
    let detector = fitted_detector();
    let test = wave_series(60, 1.0);
    let expected = reference_scores(fitted_detector(), &test);

    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        overload: OverloadPolicy::Block,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(detector)).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..test.len() {
                handle.push(stream, test.row(t))?;
            }
            Ok(())
        })
        .unwrap();

    let fleet_scores = &outcome.scores[stream.index()];
    assert_eq!(fleet_scores.len(), expected.len());
    for (t, (a, b)) in fleet_scores.iter().zip(&expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {t} differs: fleet {a} vs streaming {b}"
        );
    }
}

#[test]
fn non_finite_samples_are_rejected_at_the_push_and_leave_no_trace() {
    let test = wave_series(60, 1.0);
    let expected = reference_scores(fitted_detector(), &test);

    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        overload: OverloadPolicy::Block,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(fitted_detector())).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let bad = [
        [f32::NAN, 0.0],
        [0.0, f32::INFINITY],
        [f32::NEG_INFINITY, 1.0],
    ];
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..test.len() {
                // During the warm-up and once the cache is primed.
                if t == 3 || t == 30 {
                    let queued = handle.queue_len(0);
                    for (i, sample) in bad.iter().enumerate() {
                        let err = handle.push(stream, sample).unwrap_err();
                        let channel = usize::from(i > 0 && i < 2);
                        assert!(
                            matches!(
                                err,
                                FleetError::NonFiniteSample { stream: s, channel: c }
                                    if s == stream && c == channel
                            ),
                            "{err:?}"
                        );
                    }
                    // The worker may drain meanwhile; nothing may be added.
                    assert!(
                        handle.queue_len(0) <= queued,
                        "a rejected sample was queued"
                    );
                }
                handle.push(stream, test.row(t))?;
            }
            Ok(())
        })
        .unwrap();

    // The ledger counts only the finite samples...
    assert_eq!(outcome.stats.global.pushes, test.len() as u64);
    assert_eq!(outcome.stats.dropped, 0);
    // ...and the stream scores as if it never saw the others.
    let fleet_scores = &outcome.scores[stream.index()];
    assert_eq!(fleet_scores.len(), expected.len());
    for (t, (a, b)) in fleet_scores.iter().zip(&expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {t}: fleet {a} vs clean {b}"
        );
    }
}

#[test]
fn batched_multi_stream_fleet_still_matches_the_single_stream_reference() {
    // Four phase-shifted streams share one detector across two shards: every
    // stream's scores must still equal its own single-stream reference
    // bit-for-bit, because each stream's window and cache are its own.
    let phases = [0.0f32, 0.7, 1.4, 2.1];
    let tests: Vec<MultivariateSeries> = phases.iter().map(|&p| wave_series(50, p)).collect();
    let expected: Vec<Vec<f32>> = tests
        .iter()
        .map(|t| reference_scores(fitted_detector(), t))
        .collect();

    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 2,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(fitted_detector())).unwrap();
    let streams: Vec<_> = phases
        .iter()
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let (_, outcome) = fleet
        .run(|handle| {
            // Interleave pushes so shard rounds really mix streams.
            for t in 0..50 {
                for (stream, test) in streams.iter().zip(&tests) {
                    handle.push(*stream, test.row(t))?;
                }
            }
            Ok(())
        })
        .unwrap();

    for (i, stream) in streams.iter().enumerate() {
        let got = &outcome.scores[stream.index()];
        assert_eq!(got.len(), expected[i].len());
        for (t, (a, b)) in got.iter().zip(&expected[i]).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "stream {i} score {t}: fleet {a} vs streaming {b}"
            );
        }
    }
}

#[test]
fn fleet_scores_start_exactly_at_the_window_boundary_and_match_batch_scoring() {
    // Mirror of the core `streaming_scores_match_batch_scores` boundary
    // check: with window W, the first score is emitted for the (W+1)-th
    // sample and must already agree with batch `score_series` — comparing
    // from the boundary, not one past it, so a first-window-only bug cannot
    // hide.
    use varade_detectors::AnomalyDetector;
    let window = tiny_config().window;
    let mut batch_det = fitted_detector();
    let test = wave_series(40, 1.0);
    let batch_scores = batch_det.score_series(&test).unwrap();

    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        overload: OverloadPolicy::Block,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(fitted_detector())).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..test.len() {
                handle.push(stream, test.row(t))?;
            }
            Ok(())
        })
        .unwrap();
    let fleet_scores = &outcome.scores[stream.index()];
    // Exactly one score per post-warm-up sample: the boundary is `window`.
    assert_eq!(fleet_scores.len(), test.len() - window);
    for (i, (streamed, batch)) in fleet_scores.iter().zip(&batch_scores[window..]).enumerate() {
        assert!(
            (streamed - batch).abs() < 1e-5,
            "sample {}: fleet {streamed} vs batch {batch}",
            i + window
        );
    }
}

#[test]
fn per_stream_normalizers_match_the_streaming_wrapper() {
    // A raw (unnormalized) stream with its own MinMaxNormalizer must score
    // like a StreamingVarade built with the same normalizer.
    let raw_train = {
        let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
        for t in 0..200 {
            let v = (t as f32 * 0.3).sin() * 50.0 + 100.0;
            s.push_row(&[v, -v]).unwrap();
        }
        s
    };
    let normalizer = MinMaxNormalizer::fit(&raw_train).unwrap();
    let train = normalizer.transform(&raw_train).unwrap();
    let mut detector = VaradeDetector::new(tiny_config());
    detector.fit_with_report(&train).unwrap();
    let detector = Arc::new(detector);

    let raw_rows: Vec<[f32; 2]> = (0..40)
        .map(|t| {
            let v = (t as f32 * 0.3 + 0.5).sin() * 50.0 + 100.0;
            [v, -v]
        })
        .collect();

    let mut fitted_again = VaradeDetector::new(tiny_config());
    fitted_again.fit_with_report(&train).unwrap();
    let mut reference = StreamingVarade::new(fitted_again, 2, Some(normalizer.clone())).unwrap();
    let mut expected = Vec::new();
    for row in &raw_rows {
        if let Some(s) = reference.push(row).unwrap() {
            expected.push(s);
        }
    }

    let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
    let group = fleet.register_model(Arc::clone(&detector)).unwrap();
    let stream = fleet.register_stream(group, Some(normalizer)).unwrap();
    let (_, outcome) = fleet
        .run(|handle| {
            for row in &raw_rows {
                handle.push(stream, row)?;
            }
            Ok(())
        })
        .unwrap();
    let got = &outcome.scores[stream.index()];
    assert_eq!(got.len(), expected.len());
    for (a, b) in got.iter().zip(&expected) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
