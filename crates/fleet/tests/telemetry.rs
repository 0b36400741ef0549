//! Telemetry contract of the fleet engine.
//!
//! Pins the observability tentpole end to end:
//!
//! 1. **Non-interference** — scores are bit-identical with telemetry on or
//!    off.
//! 2. **Stage decomposition** — an enabled run populates every pipeline
//!    stage histogram with exact per-stage counts (queue-wait once per
//!    admitted sample, forward/emit once per score), and the end-to-end
//!    distribution dominates its forward component.
//! 3. **Event accounting** — control-plane events (swap, rollback, steal,
//!    drop, cache invalidation) land in the snapshot with counts that match
//!    the engine's own exact counters.
//! 4. **Disabled is empty** — a disabled fleet produces no snapshot in its
//!    outcome and an empty one on demand, while the queue-depth high-water
//!    satellite in [`ShardStats`] keeps working regardless.
//! 5. **Worker waits** — the doorbell park and inline-score counters agree
//!    exactly between [`ShardStats`] and the exposition, a paced window
//!    scores on the producer's thread, and an idle window parks each worker
//!    until the close (the doorbell has no timeout to wake it sooner).
//! 6. **Cumulative histograms** — a serve window's snapshot counts every
//!    span since [`Fleet::new`], earlier windows included, so a figure read
//!    from it describes all windows, not the last one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use varade::{VaradeConfig, VaradeDetector};
use varade_fleet::{Fleet, FleetConfig, OverloadPolicy, TelemetryConfig, TelemetrySnapshot};
use varade_obs::Stage;
use varade_timeseries::MultivariateSeries;

const WINDOW: usize = 8;

fn fitted() -> Arc<VaradeDetector> {
    let config = VaradeConfig {
        window: WINDOW,
        base_feature_maps: 8,
        epochs: 2,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        ..VaradeConfig::default()
    };
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..100 {
        let v = (t as f32 * 0.29).sin();
        s.push_row(&[v, -v * 0.4]).unwrap();
    }
    let mut det = VaradeDetector::new(config);
    det.fit_with_report(&s).unwrap();
    Arc::new(det)
}

fn rows(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|t| {
            let v = (t as f32 * 0.31).cos();
            vec![v, v * 0.6]
        })
        .collect()
}

fn serve(
    config: FleetConfig,
    n_streams: usize,
    n_rows: usize,
) -> (Fleet, varade_fleet::FleetOutcome) {
    let mut fleet = Fleet::new(config).unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let streams: Vec<_> = (0..n_streams)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let samples = rows(n_rows);
    let (_, outcome) = fleet
        .run(|handle| {
            for row in &samples {
                for &s in &streams {
                    handle.push(s, row)?;
                }
            }
            Ok(())
        })
        .unwrap();
    (fleet, outcome)
}

#[test]
fn telemetry_does_not_change_scores_on_either_path() {
    let base = FleetConfig {
        n_shards: 2,
        ..FleetConfig::default()
    };
    let (_, off) = serve(base.clone(), 4, 24);
    let (_, on) = serve(
        FleetConfig {
            telemetry: TelemetryConfig::enabled(),
            ..base
        },
        4,
        24,
    );
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(off.scores, on.scores);
}

#[test]
fn enabled_run_decomposes_every_stage_with_exact_counts() {
    let (fleet, outcome) = serve(
        FleetConfig {
            n_shards: 2,
            telemetry: TelemetryConfig::enabled(),
            ..FleetConfig::default()
        },
        6,
        20,
    );
    let snap = outcome.telemetry.expect("telemetry was enabled");
    assert!(snap.enabled);
    assert_eq!(snap.n_shards, fleet.n_shards());
    assert_eq!(snap.n_groups, 1);

    let pushes = outcome.stats.global.pushes;
    let scores = outcome.stats.global.scores;
    assert_eq!(pushes, 6 * 20);
    assert_eq!(scores, 6 * (20 - WINDOW as u64));

    // Exactly one queue-wait/assembly/normalize span per admitted sample,
    // one forward/emit span per produced score.
    assert_eq!(snap.merged_stage(Stage::QueueWait).count, pushes);
    assert_eq!(snap.merged_stage(Stage::Assembly).count, pushes);
    assert_eq!(snap.merged_stage(Stage::Normalize).count, pushes);
    assert_eq!(snap.merged_stage(Stage::Forward).count, scores);
    assert_eq!(snap.merged_stage(Stage::Emit).count, scores);

    // The end-to-end distribution covers every score and dominates its own
    // forward component (it includes queue wait and admission).
    let end_to_end = snap.merged_end_to_end();
    assert_eq!(end_to_end.count, scores);
    assert!(end_to_end.mean_ns() >= snap.merged_stage(Stage::Forward).mean_ns());
    assert!(end_to_end.max_ns > 0);

    // The sum of mean stage spans reconstructs the mean end-to-end latency:
    // it can undershoot (warm-up samples have no forward/emit span) but a
    // scored sample's stages partition its life, so the sum must never
    // exceed the mean end-to-end by more than timer-read noise.
    let stage_sum: f64 = Stage::ALL
        .iter()
        .map(|&s| snap.merged_stage(s).mean_ns())
        .sum();
    assert!(
        stage_sum <= end_to_end.mean_ns() * 1.5 + 20_000.0,
        "stage sum {stage_sum} vs end-to-end mean {}",
        end_to_end.mean_ns()
    );

    // The ingest path observed its backlog on both accounting surfaces.
    assert!(outcome.stats.queue_depth_high_water > 0);
    assert_eq!(
        snap.max_queue_depth_high_water() > 0,
        outcome.stats.queue_depth_high_water > 0
    );
}

#[test]
fn swap_rollback_and_invalidation_events_are_exact() {
    let mut fleet = Fleet::new(FleetConfig {
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let samples = rows(30);
    let (_, outcome) = fleet
        .run(|handle| {
            for (t, row) in samples.iter().enumerate() {
                if t == 15 {
                    handle.publish_model(group, fitted())?;
                }
                handle.push(stream, row)?;
            }
            Ok(())
        })
        .unwrap();
    fleet.rollback_model(group).unwrap();
    let snap = fleet.telemetry();
    let count = |kind: &str| {
        snap.events
            .counts
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0, |c| c.count)
    };
    assert_eq!(count("model_swap"), 1);
    assert_eq!(count("model_rollback"), 1);
    // The mid-serve publish invalidated the stream's incremental cache
    // exactly once (the rollback happened after the window closed, so no
    // worker round observed it).
    assert_eq!(count("cache_invalidation"), 1);
    assert_eq!(outcome.stats.groups[0].swap_count, 1);
    // Event-ring lifetime accounting balances at quiescence.
    let recorded = snap.events.recorded;
    assert_eq!(snap.events.drained + snap.events.overwritten, recorded);
}

#[test]
fn steal_and_drop_events_match_engine_counters() {
    // A tiny ring with DropOldest under a throttled worker forces evictions;
    // two shards with stealing enabled give thieves a chance to win.
    let (_, outcome) = serve(
        FleetConfig {
            n_shards: 2,
            queue_capacity: 4,
            overload: OverloadPolicy::DropOldest,
            work_stealing: true,
            chaos_round_delay: Some(Duration::from_micros(200)),
            telemetry: TelemetryConfig::enabled(),
            ..FleetConfig::default()
        },
        6,
        60,
    );
    let snap = outcome.telemetry.expect("telemetry was enabled");
    let count = |kind: &str| {
        snap.events
            .counts
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0, |c| c.count)
    };
    // Both counters are exact by construction, so they must agree exactly.
    assert_eq!(count("stream_steal"), outcome.stats.steals);
    assert_eq!(count("sample_drop"), outcome.stats.dropped);
    assert!(outcome.stats.dropped > 0, "tiny ring never overflowed");
}

#[test]
fn disabled_fleet_reports_nothing_but_high_water_still_works() {
    let (fleet, outcome) = serve(
        FleetConfig {
            n_shards: 2,
            ..FleetConfig::default()
        },
        4,
        20,
    );
    assert!(outcome.telemetry.is_none());
    assert_eq!(fleet.telemetry(), TelemetrySnapshot::disabled());
    // The ShardStats queue-depth satellite is engine accounting, not
    // telemetry: it works with the substrate disabled.
    assert!(outcome.stats.queue_depth_high_water > 0);
    assert_eq!(
        outcome.stats.queue_depth_high_water,
        outcome
            .stats
            .shards
            .iter()
            .map(|s| s.queue_depth_high_water)
            .max()
            .unwrap()
    );
}

#[test]
fn mid_serve_handle_snapshot_splits_events_without_losing_any() {
    let mut fleet = Fleet::new(FleetConfig {
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let samples = rows(16);
    let (mid, outcome) = fleet
        .run(|handle| {
            handle.publish_model(group, fitted())?;
            for row in &samples {
                handle.push(stream, row)?;
            }
            Ok(handle.telemetry())
        })
        .unwrap();
    let last = outcome.telemetry.expect("telemetry was enabled");
    // The swap event was drained by exactly one of the two snapshots, and
    // the cumulative totals agree across both.
    let seen = |s: &TelemetrySnapshot| {
        s.events
            .recent
            .iter()
            .filter(|e| e.kind == "model_swap")
            .count()
    };
    assert_eq!(seen(&mid) + seen(&last), 1);
    assert!(last.events.drained + last.events.overwritten == last.events.recorded);
}

#[test]
fn a_window_snapshot_counts_every_earlier_window() {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 2,
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let streams: Vec<_> = (0..3)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let mut serve = |samples: Vec<Vec<f32>>| {
        let (_, outcome) = fleet
            .run(|handle| {
                for row in &samples {
                    for &s in &streams {
                        handle.push(s, row)?;
                    }
                }
                Ok(())
            })
            .unwrap();
        outcome.telemetry.expect("telemetry was enabled")
    };
    let first = serve(rows(20));
    let second = serve(rows(30));
    // The first window warms each stream up (WINDOW samples score
    // nothing); the second is all scores.
    let (pushes, scores) = (3 * 20, 3 * (20 - WINDOW as u64));
    assert_eq!(first.merged_stage(Stage::QueueWait).count, pushes);
    assert_eq!(first.merged_stage(Stage::Forward).count, scores);
    assert_eq!(second.merged_stage(Stage::QueueWait).count, pushes + 3 * 30);
    assert_eq!(second.merged_stage(Stage::Forward).count, scores + 3 * 30);
    assert_eq!(second.merged_end_to_end().count, scores + 3 * 30);
}

/// Serves one window with telemetry on and the given driver; returns the
/// outcome, its snapshot and the window's wall time.
fn serve_window(
    n_streams: usize,
    driver: impl FnOnce(&varade_fleet::FleetHandle<'_>, &[varade_fleet::StreamId]),
) -> (varade_fleet::FleetOutcome, TelemetrySnapshot, Duration) {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 2,
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted()).unwrap();
    let streams: Vec<_> = (0..n_streams)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let started = Instant::now();
    let (_, outcome) = fleet
        .run(|handle| {
            driver(handle, &streams);
            Ok(())
        })
        .unwrap();
    let elapsed = started.elapsed();
    let snap = outcome.telemetry.clone().expect("telemetry was enabled");
    (outcome, snap, elapsed)
}

/// Both accounting surfaces of the worker waits carry the same exact counts.
fn assert_waits_agree(outcome: &varade_fleet::FleetOutcome, snap: &TelemetrySnapshot) {
    let stats = &outcome.stats;
    assert_eq!(snap.worker_waits.len(), stats.shards.len());
    let prom = varade_obs::prometheus_text(snap);
    for (cell, shard) in snap.worker_waits.iter().zip(&stats.shards) {
        assert_eq!(cell.shard, shard.shard);
        assert_eq!(cell.parks, shard.parks, "shard {}", shard.shard);
        assert_eq!(
            cell.inline_scores, shard.inline_scores,
            "shard {}",
            shard.shard
        );
        assert!(shard.inline_scores <= shard.push.pushes);
        assert!(prom.contains(&format!(
            "varade_worker_parks_total{{shard=\"{}\"}} {}",
            shard.shard, shard.parks
        )));
        assert!(prom.contains(&format!(
            "varade_worker_inline_scores_total{{shard=\"{}\"}} {}",
            shard.shard, shard.inline_scores
        )));
    }
    assert_eq!(
        stats.parks,
        stats.shards.iter().map(|s| s.parks).sum::<u64>()
    );
    assert_eq!(
        stats.inline_scores,
        stats.shards.iter().map(|s| s.inline_scores).sum::<u64>()
    );
}

#[test]
fn paced_window_parks_between_samples_and_counts_agree() {
    // One sample every 2 ms: far below capacity, so the workers park and
    // the pushes that find their shard parked score on the driver's thread
    // instead of waking it.
    let samples = rows(12);
    let (outcome, snap, _) = serve_window(4, |handle, streams| {
        for row in &samples {
            for &s in streams {
                handle.push(s, row).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    assert_eq!(outcome.stats.global.pushes, 4 * 12);
    assert_waits_agree(&outcome, &snap);
    for shard in &outcome.stats.shards {
        assert!(shard.parks > 0, "shard {} never parked", shard.shard);
    }
    assert!(
        outcome.stats.inline_scores > 0,
        "no push scored inline: {:?}",
        outcome.stats
    );
    // Inline pushes record the same stage spans a worker does.
    assert_eq!(snap.merged_stage(Stage::QueueWait).count, 4 * 12);
    assert_eq!(
        snap.merged_stage(Stage::Forward).count,
        outcome.stats.global.scores
    );
    assert_eq!(snap.merged_end_to_end().count, outcome.stats.global.scores);
}

#[test]
fn idle_window_parks_until_the_close() {
    let (outcome, snap, _) = serve_window(4, |_, _| {
        std::thread::sleep(Duration::from_millis(200));
    });
    assert_eq!(outcome.stats.global.pushes, 0);
    assert_eq!(outcome.stats.inline_scores, 0);
    assert_waits_agree(&outcome, &snap);
    // The doorbell has no timeout: each worker sleeps through the idle
    // 200 ms and wakes for the close, then at most once more for the
    // endgame ring — where a polling worker would wake thousands of times.
    for shard in &outcome.stats.shards {
        assert!(
            (1..=2).contains(&shard.parks),
            "shard {}: {} parks",
            shard.shard,
            shard.parks
        );
    }
}
