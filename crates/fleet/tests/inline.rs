//! Both paths of [`varade_fleet::FleetHandle::push_from`]: a push that finds
//! its shard idle scores on the producer's thread, any other push hands the
//! sample to the shard worker. Which path a push takes depends on timing, so
//! every property here holds whichever path each sample took:
//!
//! 1. **Paced** — a producer that sleeps between pushes scores inline, and
//!    every stream's scores are bit-identical to `score_series` over the
//!    same rows.
//! 2. **Flat out** — a producer that never sleeps gets the same scores and
//!    hands most samples off: an inline push needs the lane to have been
//!    idle for as long as its last inline score took.
//! 3. **Hot swap** — two lanes push one stream while a model is published
//!    mid-serve, and every sample pushed after `publish_model` returns is
//!    scored by the new model, inline or not.
//!
//! No scoring error can be provoked through the public API, so the error
//! contract of an inline push (its shard closes and `Fleet::run` returns the
//! error) has no test here: `push_from` refuses misshapen and non-finite
//! samples before either path, `publish_model` refuses a model whose window
//! or channel count differs, and every fitted detector plans its cache.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{Fleet, FleetConfig, FleetOutcome, StreamId};
use varade_timeseries::MultivariateSeries;

const WINDOW: usize = 8;
const STREAMS: usize = 3;

fn fitted(seed: u64) -> VaradeDetector {
    let config = VaradeConfig {
        window: WINDOW,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        seed,
        ..VaradeConfig::default()
    };
    let mut det = VaradeDetector::new(config);
    det.fit(&wave(100, seed as f32)).unwrap();
    det
}

fn wave(n: usize, phase: f32) -> MultivariateSeries {
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..n {
        let v = (t as f32 * 0.29 + phase).sin();
        s.push_row(&[v, -v * 0.4]).unwrap();
    }
    s
}

fn assert_bits_eq(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: score count");
    for (t, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}: score {t}: {a} vs {e}");
    }
}

/// Serves `STREAMS` streams, stream `i` pushing the rows of `wave(rows, i)`
/// round-robin from lane 0, sleeping `gap` (if any) before each push, and
/// checks every stream's scores against `score_series`.
fn serve_round_robin(rows: usize, gap: Option<Duration>) -> FleetOutcome {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 2,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(fitted(1))).unwrap();
    let streams: Vec<StreamId> = (0..STREAMS)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let series: Vec<MultivariateSeries> = (0..STREAMS).map(|i| wave(rows, i as f32)).collect();
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..rows {
                for (stream, s) in streams.iter().zip(&series) {
                    if let Some(gap) = gap {
                        std::thread::sleep(gap);
                    }
                    handle.push_from(0, *stream, s.row(t))?;
                }
            }
            Ok(())
        })
        .unwrap();
    let mut reference = fitted(1);
    for (i, (stream, s)) in streams.iter().zip(&series).enumerate() {
        let expected = reference.score_series(s).unwrap();
        assert_bits_eq(
            &outcome.scores[stream.index()],
            &expected[WINDOW..],
            &format!("stream {i}"),
        );
    }
    assert_eq!(outcome.stats.global.pushes, (STREAMS * rows) as u64);
    assert_eq!(
        outcome.stats.inline_scores,
        outcome
            .stats
            .shards
            .iter()
            .map(|s| s.inline_scores)
            .sum::<u64>()
    );
    outcome
}

#[test]
fn paced_pushes_score_inline_and_match_score_series() {
    let outcome = serve_round_robin(24, Some(Duration::from_micros(250)));
    // Between pushes both workers park, so pushes find their shard idle.
    assert!(
        outcome.stats.inline_scores > 0,
        "no paced push scored inline: {:?}",
        outcome.stats
    );
}

#[test]
fn flat_out_pushes_hand_off_most_samples_and_match_score_series() {
    let outcome = serve_round_robin(300, None);
    let pushes = outcome.stats.global.pushes;
    // A push arriving right after the previous one finds its lane busier
    // than its last inline score took, so it hands off.
    assert!(
        2 * outcome.stats.inline_scores < pushes,
        "{} of {pushes} flat-out pushes scored inline",
        outcome.stats.inline_scores
    );
}

/// Two lanes push one stream of constant rows, so every score depends only
/// on the model that produced it, not on how the lanes' samples interleave.
/// A model published mid-serve splits the scores into the old model's
/// followed by the new model's, and the new model scores at least every
/// sample pushed after `publish_model` returned.
#[test]
fn samples_pushed_after_a_mid_serve_publish_score_on_the_new_model() {
    const PER_LANE: usize = 40;
    let row = [0.3f32, -0.2];
    let constant = |det: &VaradeDetector| {
        let context: Vec<f32> = row.iter().flat_map(|&v| [v; WINDOW]).collect();
        det.score_window(&context, &row).unwrap()
    };
    let (old, new) = (fitted(3), fitted(4));
    let (old_score, new_score) = (constant(&old), constant(&new));
    assert_ne!(old_score.to_bits(), new_score.to_bits());

    let mut fleet = Fleet::new(FleetConfig {
        producer_lanes: 2,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::new(old)).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    // Warm-up window: fill the stream's context, so every push of the next
    // window scores.
    fleet
        .run(|handle| {
            for _ in 0..WINDOW {
                handle.push(stream, &row)?;
            }
            Ok(())
        })
        .unwrap();

    let new = Arc::new(new);
    let published = AtomicBool::new(false);
    let after_publish = AtomicUsize::new(0);
    let (_, outcome) = fleet
        .run(|handle| {
            std::thread::scope(|scope| {
                let lanes: Vec<_> = (0..2)
                    .map(|lane| {
                        let (published, after_publish) = (&published, &after_publish);
                        scope.spawn(move || {
                            for _ in 0..PER_LANE {
                                std::thread::sleep(Duration::from_micros(200));
                                let post = published.load(Ordering::Acquire);
                                handle.push_from(lane, stream, &row).unwrap();
                                if post {
                                    after_publish.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        })
                    })
                    .collect();
                std::thread::sleep(Duration::from_millis(4));
                assert_eq!(handle.publish_model(group, Arc::clone(&new)).unwrap(), 2);
                published.store(true, Ordering::Release);
                for lane in lanes {
                    lane.join().unwrap();
                }
            });
            Ok(())
        })
        .unwrap();

    let scores = &outcome.scores[stream.index()];
    assert_eq!(scores.len(), 2 * PER_LANE);
    let n_old = scores
        .iter()
        .take_while(|s| s.to_bits() == old_score.to_bits())
        .count();
    assert!(
        scores[n_old..]
            .iter()
            .all(|s| s.to_bits() == new_score.to_bits()),
        "scores are not the old model's followed by the new model's: {scores:?}"
    );
    let post = after_publish.load(Ordering::Relaxed);
    assert!(post > 0, "no push came after the publish");
    assert!(
        scores.len() - n_old >= post,
        "{post} pushes followed the publish but only {} scores are the new model's",
        scores.len() - n_old
    );
    assert!(
        outcome.stats.inline_scores > 0,
        "no push scored inline: {:?}",
        outcome.stats
    );
}
