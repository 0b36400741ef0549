//! Multi-stream serving: train VARADE once, then score 16 synthetic robot
//! streams concurrently through the sharded `varade-fleet` engine.
//!
//! The single-stream story (`examples/quickstart.rs`, paper §4.3) wraps one
//! fitted detector in a `StreamingVarade`. Real edge nodes watch many
//! devices at once; this example shows the serving path:
//!
//! 1. build the synthetic 86-channel robot dataset and train one detector;
//! 2. register the detector as a shared model group (one `Arc`, no copies)
//!    and admit 16 logical streams, hash-partitioned across 4 shards;
//! 3. feed every stream a phase-shifted slice of the collision recording
//!    while the shard workers score each push incrementally;
//! 4. print the aggregate `FleetStats` — wall-clock samples/sec and a
//!    per-shard breakdown with the mean forward latency and the pushes that
//!    found their shard idle and scored on the producer's thread.
//!
//! Run with: `cargo run --release --example fleet`
//! (asserted end-to-end by `tests/fleet_smoke.rs`).

use std::error::Error;
use std::sync::Arc;

use varade::{VaradeConfig, VaradeDetector};
use varade_fleet::{Fleet, FleetConfig, FleetStats, OverloadPolicy, StreamId};
use varade_robot::dataset::{DatasetBuilder, DatasetConfig, RobotDataset};

/// Streams served concurrently.
pub const N_STREAMS: usize = 16;

/// Samples pushed per stream.
pub const SAMPLES_PER_STREAM: usize = 200;

/// A reduced-scale VARADE that trains in about a second and still exercises
/// the full backbone (window 16 → 3 conv layers at 86 channels).
pub fn fleet_example_config() -> VaradeConfig {
    VaradeConfig {
        window: 16,
        base_feature_maps: 8,
        epochs: 2,
        learning_rate: 3e-3,
        kl_weight: 0.02,
        max_train_windows: 128,
        ..VaradeConfig::default()
    }
}

/// The serving configuration: 4 shards, bounded queues, lossless overload.
pub fn serving_config() -> FleetConfig {
    FleetConfig {
        n_shards: 4,
        queue_capacity: 256,
        overload: OverloadPolicy::Block,
        ..FleetConfig::default()
    }
}

/// Builds the dataset and trains the one detector every stream will share.
pub fn train_shared_detector() -> Result<(RobotDataset, Arc<VaradeDetector>), Box<dyn Error>> {
    let dataset = DatasetBuilder::new(DatasetConfig::smoke_test()).build()?;
    let mut detector = VaradeDetector::new(fleet_example_config());
    detector.fit_with_report(&dataset.train)?;
    Ok((dataset, Arc::new(detector)))
}

/// Serves [`N_STREAMS`] phase-shifted robot streams and returns the stats
/// plus per-stream score counts.
pub fn serve_streams(
    dataset: &RobotDataset,
    detector: &Arc<VaradeDetector>,
) -> Result<(FleetStats, Vec<usize>), Box<dyn Error>> {
    let mut fleet = Fleet::new(serving_config())?;
    let group = fleet.register_model(Arc::clone(detector))?;
    let streams: Vec<StreamId> = (0..N_STREAMS)
        .map(|_| fleet.register_stream(group, None))
        .collect::<Result<_, _>>()?;

    let test_len = dataset.test.len();
    let (_, outcome) = fleet.run(|handle| {
        for t in 0..SAMPLES_PER_STREAM {
            for (i, &stream) in streams.iter().enumerate() {
                // Each stream reads the collision split at its own phase, as
                // 16 independent robots would.
                let row = dataset.test.row((t + i * 31) % test_len);
                handle.push(stream, row)?;
            }
        }
        Ok(())
    })?;

    let score_counts = streams
        .iter()
        .map(|s| outcome.scores[s.index()].len())
        .collect();
    Ok((outcome.stats, score_counts))
}

pub(crate) fn main() -> Result<(), Box<dyn Error>> {
    println!("== varade-fleet: one detector, {N_STREAMS} streams ==\n");
    let (dataset, detector) = train_shared_detector()?;
    println!(
        "trained on {} samples x {} channels (window {})",
        dataset.train.len(),
        dataset.train.n_channels(),
        detector.config().window,
    );

    let (stats, score_counts) = serve_streams(&dataset, &detector)?;
    println!(
        "\nserved {} pushes -> {} scores in {:.1} ms",
        stats.global.pushes,
        stats.global.scores,
        stats.elapsed.as_secs_f64() * 1e3,
    );
    println!(
        "aggregate throughput: {:.0} samples/sec (dropped: {})",
        stats.samples_per_sec().unwrap_or(0.0),
        stats.dropped,
    );
    for shard in &stats.shards {
        println!(
            "  shard {}: {} streams, {} pushes ({} scored on the producer's thread), \
             mean forward {:.1} us",
            shard.shard,
            shard.streams,
            shard.push.pushes,
            shard.inline_scores,
            shard
                .push
                .mean_scoring_latency()
                .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        );
    }
    println!(
        "\nper-stream scores: {:?} (each = {} pushes - {} warm-up)",
        &score_counts[..4.min(score_counts.len())],
        SAMPLES_PER_STREAM,
        detector.config().window,
    );
    println!("\nThe fleet path is bit-identical to StreamingVarade: see");
    println!("crates/fleet/tests/equivalence.rs.");
    Ok(())
}
