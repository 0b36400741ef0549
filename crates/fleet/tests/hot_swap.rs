//! Zero-downtime hot-swap contract of the fleet engine.
//!
//! Four properties pin the publish/rollback path, each bit-exact:
//!
//! 1. Publishing a **bit-identical** model (a persistence round-trip clone)
//!    mid-serve changes no score, drops no push.
//! 2. A **different** model published between rounds takes effect at the
//!    next round boundary: every subsequent score bit-matches what the new
//!    detector produces on the same windows.
//! 3. [`Fleet::rollback_model`] restores the prior model's scores.
//! 4. Version/swap counters stay exact under repeated mid-serve publishes
//!    interleaved with pushes.

use std::sync::Arc;

use varade::persist::ModelArtifact;
use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{Fleet, FleetConfig, FleetError};
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

/// A bit-identical copy of `det`, produced the way a real deployment would:
/// through the on-disk persistence format.
fn persistence_clone(det: &VaradeDetector) -> VaradeDetector {
    ModelArtifact::from_bytes(&det.to_persist_bytes().unwrap())
        .unwrap()
        .detector
}

/// The raw sample rows the tests drive through the fleet.
fn rows(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|t| {
            let v = (t as f32 * 0.31).sin() * 0.7;
            vec![v, v * -0.5 + 0.1]
        })
        .collect()
}

/// What `det` scores for pushes `from..to` of `rows` (pushes below `WINDOW`
/// never score): the channel-major context window ending at each push, per
/// the engine's admission contract. The fleet's incremental path, cache
/// replays included, matches it bit for bit.
fn expected_scores(det: &VaradeDetector, rows: &[Vec<f32>], from: usize, to: usize) -> Vec<f32> {
    (from.max(WINDOW)..to)
        .map(|t| {
            let mut ctx = Vec::with_capacity(CHANNELS * WINDOW);
            for c in 0..CHANNELS {
                for row in &rows[t - WINDOW..t] {
                    ctx.push(row[c]);
                }
            }
            det.score_window(&ctx, &rows[t]).unwrap()
        })
        .collect()
}

fn assert_bits_eq(actual: &[f32], expected: &[f32], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: score count");
    for (t, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}: score {t}: {a} vs {e}");
    }
}

#[test]
fn identical_weights_publish_changes_no_scores_and_drops_no_pushes() {
    let data = rows(40);
    let config = FleetConfig {
        n_shards: 2,
        ..FleetConfig::default()
    };
    let build = |publish: bool| {
        let mut fleet = Fleet::new(config.clone()).unwrap();
        let group = fleet.register_model(Arc::new(fitted(5))).unwrap();
        let streams: Vec<_> = (0..3)
            .map(|_| fleet.register_stream(group, None).unwrap())
            .collect();
        let (_, outcome) = fleet
            .run(|handle| {
                for (t, row) in data.iter().enumerate() {
                    if publish && t == 13 {
                        // Mid-serve swap to a persistence round-trip of
                        // the very same weights.
                        let clone = Arc::new(persistence_clone(&fitted(5)));
                        assert_eq!(handle.publish_model(group, clone)?, 2);
                    }
                    for &s in &streams {
                        handle.push(s, row)?;
                    }
                }
                Ok(streams.clone())
            })
            .unwrap();
        outcome
    };
    let control = build(false);
    let swapped = build(true);
    // Bit-for-bit identical scores on every stream, no drops, all pushes
    // admitted in both worlds.
    assert_eq!(swapped.scores, control.scores);
    assert_eq!(swapped.stats.dropped, 0);
    assert_eq!(swapped.stats.global.pushes, control.stats.global.pushes);
    assert_eq!(swapped.stats.global.scores, control.stats.global.scores);
    // The swap is visible in the stats even though the scores are not.
    assert_eq!(swapped.stats.groups.len(), 1);
    assert_eq!(swapped.stats.groups[0].model_version, 2);
    assert_eq!(swapped.stats.groups[0].swap_count, 1);
    assert_eq!(control.stats.groups[0].model_version, 1);
    assert_eq!(control.stats.groups[0].swap_count, 0);
}

#[test]
fn published_model_takes_effect_at_the_next_round_boundary() {
    let old = fitted(5);
    let new = fitted(17);
    let data = rows(28);
    let mut fleet = Fleet::new(FleetConfig {
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet
        .register_model(Arc::new(persistence_clone(&old)))
        .unwrap();
    let stream = fleet.register_stream(group, None).unwrap();

    // Serve window 1 entirely under the old model.
    let (_, first) = fleet
        .run(|handle| {
            for row in &data[..16] {
                handle.push(stream, row)?;
            }
            Ok(())
        })
        .unwrap();
    assert_bits_eq(
        &first.scores[stream.index()],
        &expected_scores(&old, &data, 0, 16),
        "window 1 under v1",
    );

    // Publish between windows: the very first round of the next window
    // must already serve the new model — scores switch with no dead time
    // and no dropped pushes.
    assert_eq!(
        fleet
            .publish_model(group, Arc::new(persistence_clone(&new)))
            .unwrap(),
        2
    );
    assert_eq!(fleet.model_version(group).unwrap(), 2);
    let (_, second) = fleet
        .run(|handle| {
            for row in &data[16..] {
                handle.push(stream, row)?;
            }
            Ok(())
        })
        .unwrap();
    assert_bits_eq(
        &second.scores[stream.index()],
        &expected_scores(&new, &data, 16, 28),
        "window 2 under v2",
    );
    assert_eq!(second.stats.dropped, 0);
    assert_eq!(second.stats.groups[0].model_version, 2);
}

#[test]
fn mid_serve_publish_governs_every_push_that_follows_it() {
    // The handle contract: once `publish_model` returns, any sample pushed
    // afterwards is scored by the new model. Pushing only warm-up samples
    // (which never score) before the publish makes the assertion exact.
    let old = fitted(5);
    let new = fitted(17);
    let data = rows(20);
    let mut fleet = Fleet::new(FleetConfig {
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet
        .register_model(Arc::new(persistence_clone(&old)))
        .unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let (_, outcome) = fleet
        .run(|handle| {
            for row in &data[..WINDOW] {
                handle.push(stream, row)?;
            }
            handle.publish_model(group, Arc::new(persistence_clone(&new)))?;
            for row in &data[WINDOW..] {
                handle.push(stream, row)?;
            }
            Ok(())
        })
        .unwrap();
    assert_bits_eq(
        &outcome.scores[stream.index()],
        &expected_scores(&new, &data, WINDOW, 20),
        "post-publish pushes",
    );
    assert_eq!(outcome.stats.dropped, 0);
    assert_eq!(outcome.stats.global.pushes, 20);
}

#[test]
fn rollback_restores_the_prior_models_scores() {
    let old = fitted(5);
    let new = fitted(17);
    let data = rows(32);
    let mut fleet = Fleet::new(FleetConfig {
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet
        .register_model(Arc::new(persistence_clone(&old)))
        .unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    let serve = |fleet: &mut Fleet, from: usize, to: usize| {
        let (_, outcome) = fleet
            .run(|handle| {
                for row in &data[from..to] {
                    handle.push(stream, row)?;
                }
                Ok(())
            })
            .unwrap();
        outcome
    };

    serve(&mut fleet, 0, 12);
    fleet
        .publish_model(group, Arc::new(persistence_clone(&new)))
        .unwrap();
    let under_new = serve(&mut fleet, 12, 20);
    assert_bits_eq(
        &under_new.scores[stream.index()],
        &expected_scores(&new, &data, 12, 20),
        "after publish",
    );

    // Roll back: the old model's scores return, under a *new* version
    // (epochs are monotonic — a rollback is still a publication event).
    assert_eq!(fleet.rollback_model(group).unwrap(), 3);
    let rolled = serve(&mut fleet, 20, 32);
    assert_bits_eq(
        &rolled.scores[stream.index()],
        &expected_scores(&old, &data, 20, 32),
        "after rollback",
    );
    assert_eq!(rolled.stats.groups[0].model_version, 3);
    assert_eq!(rolled.stats.groups[0].swap_count, 2);

    // A second rollback flips back to the published model.
    assert_eq!(fleet.rollback_model(group).unwrap(), 4);
}

#[test]
fn version_and_swap_counters_stay_exact_under_repeated_mid_serve_publishes() {
    let data = rows(60);
    let config = FleetConfig {
        n_shards: 2,
        ..FleetConfig::default()
    };
    let mut control = Fleet::new(config.clone()).unwrap();
    let cg = control.register_model(Arc::new(fitted(5))).unwrap();
    let control_streams: Vec<_> = (0..2)
        .map(|_| control.register_stream(cg, None).unwrap())
        .collect();
    let (_, quiet) = control
        .run(|handle| {
            for row in &data {
                for &s in &control_streams {
                    handle.push(s, row)?;
                }
            }
            Ok(())
        })
        .unwrap();

    let mut fleet = Fleet::new(config).unwrap();
    let group = fleet.register_model(Arc::new(fitted(5))).unwrap();
    let streams: Vec<_> = (0..2)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let (_, churned) = fleet
        .run(|handle| {
            for (t, row) in data.iter().enumerate() {
                // An identical-weights publish every 10 pushes, racing
                // the shard workers mid-drain.
                if t % 10 == 5 {
                    let version =
                        handle.publish_model(group, Arc::new(persistence_clone(&fitted(5))))?;
                    assert_eq!(version as usize, 2 + t / 10);
                    assert_eq!(handle.model_version(group)?, version);
                }
                for &s in &streams {
                    handle.push(s, row)?;
                }
            }
            Ok(())
        })
        .unwrap();
    // Six identical publishes: versions counted exactly, nothing dropped,
    // every push admitted and every score bit-identical to the untouched
    // control fleet.
    assert_eq!(churned.stats.groups[0].model_version, 7);
    assert_eq!(churned.stats.groups[0].swap_count, 6);
    assert_eq!(churned.stats.dropped, 0);
    assert_eq!(churned.stats.global.pushes, quiet.stats.global.pushes);
    assert_eq!(churned.scores, quiet.scores);
}

#[test]
fn publish_validates_like_registration() {
    let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
    let group = fleet.register_model(Arc::new(fitted(5))).unwrap();

    // Unfitted replacements are refused.
    let unfitted = Arc::new(VaradeDetector::new(*fitted(5).config()));
    assert!(matches!(
        fleet.publish_model(group, unfitted),
        Err(FleetError::NotFitted)
    ));

    // A different window would orphan every stream buffer.
    let mut wide = VaradeDetector::new(VaradeConfig {
        window: 16,
        base_feature_maps: 8,
        epochs: 1,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        ..VaradeConfig::default()
    });
    let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
    for t in 0..80 {
        let v = (t as f32 * 0.3).sin();
        s.push_row(&[v, -v]).unwrap();
    }
    wide.fit(&s).unwrap();
    assert!(matches!(
        fleet.publish_model(group, Arc::new(wide)),
        Err(FleetError::InvalidConfig(_))
    ));

    // A different channel count would orphan every stream's sample width.
    let mut narrow = VaradeDetector::new(*fitted(5).config());
    let mut one = MultivariateSeries::new(vec!["x".into()], 10.0).unwrap();
    for t in 0..80 {
        one.push_row(&[(t as f32 * 0.3).sin()]).unwrap();
    }
    narrow.fit(&one).unwrap();
    assert!(matches!(
        fleet.publish_model(group, Arc::new(narrow)),
        Err(FleetError::InvalidConfig(_))
    ));

    // Rollback needs a prior publish.
    assert_eq!(
        fleet.rollback_model(group),
        Err(FleetError::NoRollback { group: 0 })
    );

    // A foreign group id is refused everywhere.
    let mut other = Fleet::new(FleetConfig::default()).unwrap();
    other.register_model(Arc::new(fitted(5))).unwrap();
    let foreign = other.register_model(Arc::new(fitted(5))).unwrap();
    assert!(matches!(
        fleet.publish_model(foreign, Arc::new(fitted(5))),
        Err(FleetError::UnknownId(_))
    ));
    assert!(matches!(
        fleet.rollback_model(foreign),
        Err(FleetError::UnknownId(_))
    ));
    assert!(matches!(
        fleet.model_version(foreign),
        Err(FleetError::UnknownId(_))
    ));

    // Failed publishes never bump the version.
    assert_eq!(fleet.model_version(group).unwrap(), 1);
}
