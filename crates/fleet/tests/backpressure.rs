//! Fleet-level backpressure contracts under a deliberately saturated shard.
//!
//! The `chaos_round_delay` throttle slows the worker so a fast driver
//! reliably fills the bounded queue, making each [`OverloadPolicy`]'s
//! behavior observable without racing: `Block` conserves every sample,
//! `DropOldest` sheds load and accounts for it, `Reject` hands the decision
//! back to the producer as a typed error. (The exact *which sample is
//! evicted* semantics are pinned down by the deterministic unit tests in
//! `varade_fleet::queue`.)

use std::sync::Arc;
use std::time::Duration;

use varade::{VaradeConfig, VaradeDetector};
use varade_fleet::{Fleet, FleetConfig, FleetError, OverloadPolicy, StreamId};
use varade_timeseries::MultivariateSeries;

const SAMPLES: usize = 120;

fn fitted_detector() -> Arc<VaradeDetector> {
    let mut train = MultivariateSeries::new(vec!["x".into()], 10.0).unwrap();
    for t in 0..120 {
        train.push_row(&[(t as f32 * 0.4).sin()]).unwrap();
    }
    let mut det = VaradeDetector::new(VaradeConfig {
        window: 8,
        base_feature_maps: 4,
        epochs: 1,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 48,
        ..VaradeConfig::default()
    });
    det.fit_with_report(&train).unwrap();
    Arc::new(det)
}

fn saturated_fleet(policy: OverloadPolicy) -> (Fleet, StreamId) {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        queue_capacity: 4,
        overload: policy,
        chaos_round_delay: Some(Duration::from_millis(2)),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(fitted_detector()).unwrap();
    let stream = fleet.register_stream(group, None).unwrap();
    (fleet, stream)
}

#[test]
fn block_never_loses_data_under_saturation() {
    let (mut fleet, stream) = saturated_fleet(OverloadPolicy::Block);
    let (sent, outcome) = fleet
        .run(|handle| {
            let mut sent = 0u64;
            for t in 0..SAMPLES {
                handle.push(stream, &[t as f32 * 0.01])?;
                sent += 1;
            }
            Ok(sent)
        })
        .unwrap();
    // Every accepted sample was scored or used for warm-up; none vanished.
    assert_eq!(sent, SAMPLES as u64);
    assert_eq!(outcome.stats.global.pushes, SAMPLES as u64);
    assert_eq!(outcome.stats.dropped, 0);
    assert_eq!(outcome.stats.global.scores, (SAMPLES - 8) as u64);
}

#[test]
fn drop_oldest_sheds_load_and_reports_the_count() {
    let (mut fleet, stream) = saturated_fleet(OverloadPolicy::DropOldest);
    let (sent, outcome) = fleet
        .run(|handle| {
            let mut sent = 0u64;
            for t in 0..SAMPLES {
                handle.push(stream, &[t as f32 * 0.01])?;
                sent += 1;
            }
            Ok(sent)
        })
        .unwrap();
    // The throttled worker cannot keep up with a burst of 120 into a
    // 4-deep queue: some samples must be shed, and the ledger must balance —
    // processed + dropped == sent.
    assert_eq!(sent, SAMPLES as u64);
    assert!(
        outcome.stats.dropped > 0,
        "saturation did not drop anything"
    );
    assert_eq!(
        outcome.stats.global.pushes + outcome.stats.dropped,
        SAMPLES as u64
    );
}

#[test]
fn reject_surfaces_a_typed_error_to_the_producer() {
    let (mut fleet, stream) = saturated_fleet(OverloadPolicy::Reject);
    let err = fleet
        .run(|handle| -> Result<(), FleetError> {
            for t in 0..SAMPLES {
                handle.push(stream, &[t as f32 * 0.01])?;
            }
            Ok(())
        })
        .unwrap_err();
    match err {
        FleetError::QueueFull {
            stream: refused,
            shard,
        } => {
            assert_eq!(refused, stream);
            assert_eq!(shard, 0);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Nothing was dropped silently: Reject leaves the queue intact, and the
    // samples accepted before the refusal were all processed.
    assert!(fleet.stream_stats(stream).unwrap().pushes > 0);
}
