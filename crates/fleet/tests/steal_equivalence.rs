//! Work-stealing equivalence and exact-counter contract.
//!
//! Stealing migrates *whole streams* (with their incremental caches) between
//! shard workers at round boundaries, so it must be invisible in the scores:
//! a skewed fleet where one worker does all the ingest and its idle peer
//! steals must produce **bit-identical** scores to a single-shard control
//! that never steals. Steal counters are exact — one count per winning
//! ownership compare-exchange — so the fleet total equals the per-shard sum,
//! is positive when stealing demonstrably happened, and is exactly zero when
//! stealing is disabled or impossible (one shard).
//!
//! Like the hot-swap battery, everything runs on the bit-exact scalar
//! backend pinned per fleet, so assertions hold under every CI backend lane.

use std::sync::Arc;
use std::time::Duration;

use varade::{BackendKind, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{Fleet, FleetConfig, FleetOutcome, StreamId};
use varade_timeseries::MultivariateSeries;

const WINDOW: usize = 8;
const STREAMS: usize = 8;
const ROWS: usize = 160;

fn fitted() -> Arc<VaradeDetector> {
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..100 {
        let v = (t as f32 * 0.29).sin();
        s.push_row(&[v, -v * 0.4]).unwrap();
    }
    let mut det = VaradeDetector::new(VaradeConfig {
        window: WINDOW,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        ..VaradeConfig::default()
    })
    .with_backend(BackendKind::Scalar);
    det.fit(&s).unwrap();
    Arc::new(det)
}

/// Per-stream rows: distinct per stream so a cross-stream mixup cannot
/// silently bit-match.
fn row(stream: usize, t: usize) -> Vec<f32> {
    let v = (t as f32 * 0.31 + stream as f32 * 0.77).sin() * 0.7;
    vec![v, v * -0.5 + 0.1]
}

/// Runs `config` with the shared model and [`STREAMS`] registered streams,
/// pushing [`ROWS`] rows to exactly the streams in `targets` (by dense
/// index). Returns the outcome; every push uses `Block` so nothing drops.
fn run_skewed(config: FleetConfig, targets: &[usize]) -> FleetOutcome {
    let mut fleet = Fleet::new(config).unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let streams: Vec<StreamId> = (0..STREAMS)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let targets: Vec<StreamId> = targets.iter().map(|&i| streams[i]).collect();
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..ROWS {
                for &s in &targets {
                    handle.push(s, &row(s.index(), t))?;
                }
            }
            Ok(())
        })
        .unwrap();
    outcome
}

/// The dense indices of the streams homed on shard 0 of a `n_shards`-shard
/// fleet with [`STREAMS`] streams — the skew target set.
fn shard0_streams(n_shards: usize) -> Vec<usize> {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards,
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let streams: Vec<StreamId> = (0..STREAMS)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    streams
        .into_iter()
        .filter(|&s| fleet.shard_of_stream(s).unwrap() == 0)
        .map(StreamId::index)
        .collect()
}

fn assert_scores_bits_eq(actual: &FleetOutcome, control: &FleetOutcome, what: &str) {
    assert_eq!(actual.scores.len(), control.scores.len(), "{what}");
    for (i, (a, c)) in actual.scores.iter().zip(&control.scores).enumerate() {
        assert_eq!(a.len(), c.len(), "{what}: stream {i} score count");
        for (t, (x, y)) in a.iter().zip(c).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: stream {i} score {t}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn stolen_streams_score_bit_identically_to_a_single_shard_control() {
    let targets = shard0_streams(2);
    assert!(
        targets.len() >= 2,
        "need at least two shard-0 streams to skew"
    );
    // Control: one shard, one worker, no stealing possible.
    let control = run_skewed(
        FleetConfig {
            n_shards: 1,
            ..FleetConfig::default()
        },
        &targets,
    );
    assert_eq!(control.stats.steals, 0, "one shard can never steal");

    // Skewed: all load lands on shard 0 while worker 0 is throttled, so
    // the idle worker 1 must steal streams to make progress.
    let skewed = run_skewed(
        FleetConfig {
            n_shards: 2,
            chaos_round_delay: Some(Duration::from_millis(1)),
            ..FleetConfig::default()
        },
        &targets,
    );
    assert!(
        skewed.stats.steals >= 1,
        "a throttled skewed fleet must have stolen"
    );
    // Migration is invisible in the output: every stream's score
    // sequence bit-matches the never-stolen control.
    assert_scores_bits_eq(&skewed, &control, "skewed");
    assert_eq!(skewed.stats.dropped, 0);
    assert_eq!(
        skewed.stats.global.pushes,
        (targets.len() * ROWS) as u64,
        "Block conserves every push"
    );

    // The counter is exact: the fleet total is the per-shard sum, and
    // only the thief side counts (shard 0 owns the streams, so its own
    // round reclaims are not steals).
    let per_shard: u64 = skewed.stats.shards.iter().map(|s| s.steals).sum();
    assert_eq!(skewed.stats.steals, per_shard);
}

#[test]
fn disabling_work_stealing_pins_the_counter_at_zero() {
    let targets = shard0_streams(2);
    let control = run_skewed(
        FleetConfig {
            n_shards: 1,
            ..FleetConfig::default()
        },
        &targets,
    );
    // Same skew, same throttle, stealing off: the idle worker must sit
    // on its hands and the scores still come out identical (just later).
    let pinned = run_skewed(
        FleetConfig {
            n_shards: 2,
            work_stealing: false,
            chaos_round_delay: Some(Duration::from_millis(1)),
            ..FleetConfig::default()
        },
        &targets,
    );
    assert_eq!(pinned.stats.steals, 0, "stealing was disabled");
    assert!(pinned.stats.shards.iter().all(|s| s.steals == 0));
    assert_scores_bits_eq(&pinned, &control, "no steal");
    assert_eq!(pinned.stats.dropped, 0);
}

#[test]
fn balanced_load_without_contention_still_scores_identically() {
    // All eight streams active on a 2-shard fleet with stealing on and no
    // throttle: whether or not steals happen (they may, on an idle moment),
    // the scores must bit-match the single-shard control and the ledger
    // must balance.
    let all: Vec<usize> = (0..STREAMS).collect();
    let control = run_skewed(
        FleetConfig {
            n_shards: 1,
            ..FleetConfig::default()
        },
        &all,
    );
    let sharded = run_skewed(
        FleetConfig {
            n_shards: 2,
            ..FleetConfig::default()
        },
        &all,
    );
    assert_scores_bits_eq(&sharded, &control, "balanced");
    assert_eq!(sharded.stats.dropped, 0);
    assert_eq!(
        sharded.stats.steals,
        sharded.stats.shards.iter().map(|s| s.steals).sum::<u64>()
    );
}
