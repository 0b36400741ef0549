//! Regression battery for the **single shared cache-invalidation helper**
//! ([`StreamState::invalidate_cache`]).
//!
//! Every path that changes what a stream's incremental cache would have
//! produced — a model hot swap ([`StreamingVarade::swap_detector`], the same
//! mechanics the fleet's `publish_model` pickup uses) — must funnel through
//! that one helper. These tests fail if any of those paths ever bypasses
//! it: a stale cache leaves columns computed under the old model in the
//! frontier recompute, and the bit-exact comparisons below catch the first
//! polluted score.

use varade::{StreamState, StreamingVarade, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::MultivariateSeries;

const WINDOW: usize = 8;
const CHANNELS: usize = 2;

fn fitted(seed: u64) -> VaradeDetector {
    let config = VaradeConfig {
        window: WINDOW,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        kl_weight: 0.05,
        seed,
    };
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..100 {
        let v = (t as f32 * 0.29 + seed as f32).sin();
        s.push_row(&[v, -v * 0.4]).unwrap();
    }
    let mut det = VaradeDetector::new(config);
    det.fit(&s).unwrap();
    det
}

fn rows(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|t| {
            let v = (t as f32 * 0.31).sin() * 0.7;
            vec![v, v * -0.5 + 0.1]
        })
        .collect()
}

/// `det`'s full-recompute score for the push at index `t` of `rows` — the
/// ground truth a healthy (invalidated, replayed) cache must reproduce
/// bit-for-bit.
fn full_recompute(det: &VaradeDetector, rows: &[Vec<f32>], t: usize) -> f32 {
    let mut ctx = Vec::with_capacity(CHANNELS * WINDOW);
    for c in 0..CHANNELS {
        for row in &rows[t - WINDOW..t] {
            ctx.push(row[c]);
        }
    }
    det.score_window(&ctx, &rows[t]).unwrap()
}

#[test]
fn swap_detector_scores_only_the_new_model_after_a_primed_cache() {
    let old = fitted(5);
    let new = fitted(17);
    let data = rows(30);

    let mut stream = StreamingVarade::new(old, CHANNELS, None).unwrap();
    // Prime the cache under the old model: several scored pushes, so its
    // columns are warm — exactly the state a bypassed invalidation would
    // leak into post-swap scores.
    for row in &data[..14] {
        stream.push(row).unwrap();
    }
    assert!(stream.scores_emitted() > 0, "cache must be primed");

    let returned = stream.swap_detector(fitted(17)).unwrap();
    // The displaced detector comes back intact (same weights as `old`).
    assert_eq!(
        returned.to_persist_bytes().unwrap(),
        fitted(5).to_persist_bytes().unwrap()
    );

    // Every post-swap score must bit-match the new model's full recompute
    // over the *shared* window history: the cache replayed under the new
    // weights, with no column left from the old ones and no push dropped.
    for (t, row) in data.iter().enumerate().skip(14) {
        let got = stream.push(row).unwrap().expect("warm stream scores");
        let want = full_recompute(&new, &data, t);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "push {t}: stale cache columns survived the swap ({got} vs {want})"
        );
    }
}

#[test]
fn swap_detector_validates_and_leaves_the_stream_untouched_on_error() {
    let data = rows(16);
    let mut stream = StreamingVarade::new(fitted(5), CHANNELS, None).unwrap();
    for row in &data[..12] {
        stream.push(row).unwrap();
    }

    // Unfitted replacement.
    let unfitted = VaradeDetector::new(*stream.detector().config());
    assert!(stream.swap_detector(unfitted).is_err());
    // Window mismatch.
    let mut wide_cfg = *stream.detector().config();
    wide_cfg.window = 16;
    let mut wide = VaradeDetector::new(wide_cfg);
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..80 {
        let v = (t as f32 * 0.3).sin();
        s.push_row(&[v, -v]).unwrap();
    }
    wide.fit(&s).unwrap();
    assert!(stream.swap_detector(wide).is_err());
    // Channel mismatch.
    let mut narrow = VaradeDetector::new(*stream.detector().config());
    let mut one = MultivariateSeries::new(vec!["x".into()], 10.0).unwrap();
    for t in 0..80 {
        one.push_row(&[(t as f32 * 0.3).sin()]).unwrap();
    }
    narrow.fit(&one).unwrap();
    assert!(stream.swap_detector(narrow).is_err());

    // After all three refusals the stream still scores like the original
    // model — nothing was invalidated, nothing swapped.
    let reference = fitted(5);
    for (t, row) in data.iter().enumerate().skip(12) {
        let got = stream.push(row).unwrap().expect("warm stream scores");
        assert_eq!(
            got.to_bits(),
            full_recompute(&reference, &data, t).to_bits()
        );
    }
}

#[test]
fn sync_model_version_funnels_through_the_shared_helper() {
    // The fleet-facing entry point: version churn invalidates exactly once
    // per change and reports changes truthfully — the signal the shards
    // trace as a cache invalidation at round boundaries.
    let mut state = StreamState::new(CHANNELS, WINDOW, None).unwrap();
    assert_eq!(state.model_version(), 0);
    assert!(state.sync_model_version(1));
    assert!(!state.sync_model_version(1), "same version must be a no-op");
    assert!(state.sync_model_version(2));
    assert_eq!(state.model_version(), 2);

    // And on a live stream, a version change mid-serve forces a replay that
    // matches full recompute bit-for-bit (the invalidation actually bites).
    let det = fitted(5);
    let data = rows(26);
    let mut state = StreamState::new(CHANNELS, WINDOW, None).unwrap();
    state.sync_model_version(1);
    for row in &data[..14] {
        state.push_against(row, &det).unwrap();
    }
    assert!(state.cache().is_some_and(|cache| cache.is_primed()));
    // Pretend a publish happened (same weights, new epoch): the cache is
    // dropped, the next push re-plans and cold-starts it, and cold-start
    // replay is bit-identical on scalar.
    assert!(state.sync_model_version(2));
    assert!(state.cache().is_none());
    for (t, row) in data.iter().enumerate().skip(14) {
        let got = state
            .push_against(row, &det)
            .unwrap()
            .expect("warm stream scores");
        assert_eq!(got.to_bits(), full_recompute(&det, &data, t).to_bits());
    }
}
