//! Smoke test running `examples/fleet.rs` end-to-end on the synthetic robot
//! dataset.
//!
//! As with `tests/quickstart_smoke.rs`, the example source is included as a
//! module (not copied), so the test exercises literally the code a user runs
//! — example binaries are only compiled, never executed, by the default test
//! profile.

#[path = "../examples/fleet.rs"]
mod fleet_example;

use fleet_example::{
    serve_streams, serving_config, train_shared_detector, N_STREAMS, SAMPLES_PER_STREAM,
};

/// The example's own entry point must run cleanly start to finish.
#[test]
fn fleet_example_runs() {
    fleet_example::main().expect("fleet example completes");
}

/// Re-runs the serving flow with assertions at every stage.
#[test]
fn fleet_example_serves_all_streams_losslessly() {
    let (dataset, detector) = train_shared_detector().expect("training succeeds");
    let (stats, score_counts) = serve_streams(&dataset, &detector).expect("serving succeeds");

    // Block policy + drain-on-close: every push is accounted for.
    let expected_pushes = (N_STREAMS * SAMPLES_PER_STREAM) as u64;
    assert_eq!(stats.global.pushes, expected_pushes);
    assert_eq!(stats.dropped, 0);

    // Every stream warmed up (window samples) then scored the rest.
    let window = detector.config().window;
    assert_eq!(score_counts.len(), N_STREAMS);
    for &count in &score_counts {
        assert_eq!(count, SAMPLES_PER_STREAM - window);
    }
    assert_eq!(
        stats.global.scores,
        (N_STREAMS * (SAMPLES_PER_STREAM - window)) as u64
    );

    // All configured shards exist and the stream partition covers everything.
    assert_eq!(stats.shards.len(), serving_config().n_shards);
    let streams_covered: usize = stats.shards.iter().map(|s| s.streams).sum();
    assert_eq!(streams_covered, N_STREAMS);

    // Every scored window is accounted to exactly one shard, and came
    // through that stream's incremental cache.
    let shard_scores: u64 = stats.shards.iter().map(|s| s.push.scores).sum();
    assert_eq!(shard_scores, stats.global.scores);

    // Throughput is a positive, finite number.
    let throughput = stats.samples_per_sec().expect("time elapsed");
    assert!(throughput.is_finite() && throughput > 0.0);
}
