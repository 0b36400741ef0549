//! Exact sample ledger under Zipf-skewed, many-stream, multi-producer load.
//!
//! 10⁴ streams whose popularity follows a Zipf(1.1) law — a few hot
//! streams, a long mostly-idle tail — are pushed by two producer threads
//! (one lane each) into two work-stealing shard workers with telemetry
//! enabled, once per [`OverloadPolicy`]. Every cell must balance its ledger
//! to the last sample:
//!
//! * `attempted == accepted + rejected` (producer side);
//! * `accepted == admitted + dropped` (nothing vanishes in the queues);
//! * `admitted == scored + warmup` (per stream and in aggregate);
//! * one queue-wait/assembly/normalize span per admitted sample, one
//!   forward/emit/end-to-end span per score, and one `sample_drop` /
//!   `stream_steal` event per drop / steal the engine counted.
//!
//! Streams use a deliberately tiny one-channel detector so the population
//! fits in memory and the test stresses the serving machinery — queues,
//! stealing, termination — rather than the model forward.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{
    Fleet, FleetConfig, FleetError, FleetOutcome, OverloadPolicy, StreamId, TelemetryConfig,
    TelemetrySnapshot,
};
use varade_obs::Stage;
use varade_timeseries::MultivariateSeries;

/// Zipf exponent of the stream-popularity law.
const ZIPF_S: f64 = 1.1;
/// Context window of the tiny detector: each stream's first `WINDOW`
/// admitted samples warm it up and score nothing.
const WINDOW: usize = 8;
const STREAMS: usize = 10_000;
const TOTAL_PUSHES: u64 = 30_000;
const WORKERS: usize = 2;
const LANES: usize = 2;
const QUEUE_CAPACITY: usize = 512;

/// Single channel, window 8, a few hundred parameters.
fn tiny_detector() -> Arc<VaradeDetector> {
    let mut train = MultivariateSeries::new(vec!["load".into()], 10.0).unwrap();
    for t in 0..160 {
        train.push_row(&[(t as f32 * 0.37).sin()]).unwrap();
    }
    let mut det = VaradeDetector::new(VaradeConfig {
        window: WINDOW,
        base_feature_maps: 4,
        epochs: 1,
        batch_size: 8,
        learning_rate: 2e-3,
        max_train_windows: 64,
        ..VaradeConfig::default()
    });
    det.fit(&train).unwrap();
    Arc::new(det)
}

/// The `t`-th sample of a stream: a per-stream phase-shifted sine.
fn sample_value(stream: usize, t: u32) -> f32 {
    ((t as f32) * 0.37 + (stream % 97) as f32 * 0.61).sin()
}

/// One producer lane's share of the workload: the streams pinned to it
/// (per-stream order requires each stream to stick to one lane) with their
/// cumulative popularity weights for inverse-CDF sampling.
struct Lane {
    lane: usize,
    streams: Vec<StreamId>,
    cumulative: Vec<f64>,
    pushes: u64,
    seed: u64,
}

impl Lane {
    /// Splits `streams` round-robin across `lanes` lanes; a stream's weight
    /// comes from its *global* popularity rank `1/(i+1)^s`, so the hottest
    /// streams land on different lanes instead of all on lane 0.
    fn build(streams: &[StreamId], lanes: usize, total_pushes: u64) -> Vec<Lane> {
        (0..lanes)
            .map(|lane| {
                let mine: Vec<StreamId> =
                    streams.iter().copied().skip(lane).step_by(lanes).collect();
                let mut cumulative = Vec::with_capacity(mine.len());
                let mut total = 0.0f64;
                for k in 0..mine.len() {
                    let global_rank = lane + k * lanes;
                    total += 1.0 / ((global_rank + 1) as f64).powf(ZIPF_S);
                    cumulative.push(total);
                }
                let share = total_pushes / lanes as u64
                    + u64::from((total_pushes % lanes as u64) > lane as u64);
                Lane {
                    lane,
                    streams: mine,
                    cumulative,
                    pushes: share,
                    seed: 0x10AD ^ ((lane as u64) << 32),
                }
            })
            .collect()
    }

    /// Draws one stream by inverse CDF over the cumulative weights.
    fn sample(&self, rng: &mut StdRng) -> (usize, StreamId) {
        let total = *self.cumulative.last().expect("lane owns streams");
        let u = rng.gen_range(0.0..total);
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.streams.len() - 1);
        (idx, self.streams[idx])
    }
}

/// What one producer thread observed.
struct LaneOutcome {
    attempted: u64,
    rejected: u64,
    /// Accepted pushes per lane-local stream index.
    counts: Vec<u32>,
}

/// One served policy cell: the fleet (for its per-stream counters), the
/// producers' view and the engine's outcome.
struct Cell {
    policy: OverloadPolicy,
    fleet: Fleet,
    streams: Vec<StreamId>,
    lanes: Vec<Lane>,
    lane_outcomes: Vec<LaneOutcome>,
    outcome: FleetOutcome,
}

/// Serves one policy cell on a fresh fleet.
fn run_cell(detector: &Arc<VaradeDetector>, policy: OverloadPolicy) -> Cell {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        overload: policy,
        producer_lanes: LANES,
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .unwrap();
    let group = fleet.register_model(Arc::clone(detector)).unwrap();
    let streams: Vec<StreamId> = (0..STREAMS)
        .map(|_| fleet.register_stream(group, None).unwrap())
        .collect();
    let lanes = Lane::build(&streams, LANES, TOTAL_PUSHES);

    let (lane_outcomes, outcome) = fleet
        .run(|handle| {
            std::thread::scope(|scope| {
                let producers: Vec<_> = lanes
                    .iter()
                    .map(|lane| {
                        scope.spawn(move || -> Result<LaneOutcome, FleetError> {
                            let mut rng = StdRng::seed_from_u64(lane.seed);
                            let mut counts = vec![0u32; lane.streams.len()];
                            let mut attempted = 0u64;
                            let mut rejected = 0u64;
                            for _ in 0..lane.pushes {
                                let (local, id) = lane.sample(&mut rng);
                                let t = counts[local];
                                attempted += 1;
                                match handle.push_from(
                                    lane.lane,
                                    id,
                                    &[sample_value(id.index(), t)],
                                ) {
                                    Ok(()) => counts[local] = t + 1,
                                    Err(FleetError::QueueFull { .. }) => rejected += 1,
                                    Err(e) => return Err(e),
                                }
                            }
                            Ok(LaneOutcome {
                                attempted,
                                rejected,
                                counts,
                            })
                        })
                    })
                    .collect();
                producers
                    .into_iter()
                    .map(|p| p.join().expect("producer panicked"))
                    .collect::<Result<Vec<LaneOutcome>, FleetError>>()
            })
        })
        .unwrap();
    Cell {
        policy,
        fleet,
        streams,
        lanes,
        lane_outcomes,
        outcome,
    }
}

/// The exact-accounting audit: every identity must hold to the last sample.
fn audit_cell(cell: &Cell) {
    let Cell {
        policy,
        fleet,
        streams,
        lanes,
        lane_outcomes,
        outcome,
    } = cell;
    let policy = *policy;
    let attempted: u64 = lane_outcomes.iter().map(|l| l.attempted).sum();
    let rejected: u64 = lane_outcomes.iter().map(|l| l.rejected).sum();
    let accepted = attempted - rejected;
    let admitted = outcome.stats.global.pushes;
    let dropped = outcome.stats.dropped;
    let scored = outcome.stats.global.scores;

    assert_eq!(attempted, TOTAL_PUSHES, "{policy:?}: producers lost a push");
    // Producer-side counts per stream (each stream belongs to exactly one
    // lane, so this is a plain scatter, no summing across lanes).
    let mut accepted_per_stream = vec![0u32; streams.len()];
    for (lane, lo) in lanes.iter().zip(lane_outcomes) {
        for (local, &count) in lo.counts.iter().enumerate() {
            accepted_per_stream[lane.streams[local].index()] = count;
        }
    }
    let accepted_from_counts: u64 = accepted_per_stream.iter().map(|&c| u64::from(c)).sum();
    assert_eq!(
        accepted_from_counts, accepted,
        "{policy:?}: per-stream producer counts vs attempted - rejected"
    );

    // Identity 1: what the queues accepted either reached a stream or was
    // dropped by DropOldest — nothing else may happen to a sample.
    assert_eq!(
        accepted,
        admitted + dropped,
        "{policy:?}: accepted != admitted + dropped"
    );
    // Policy contracts: only Reject refuses, only DropOldest sheds.
    if policy != OverloadPolicy::Reject {
        assert_eq!(rejected, 0, "{policy:?}: rejected");
    }
    if policy != OverloadPolicy::DropOldest {
        assert_eq!(dropped, 0, "{policy:?}: dropped");
    }

    // Identity 2: every admitted sample either scored or warmed up its
    // stream's window — per stream against the engine's own counters, then
    // in aggregate.
    let mut warmup = 0u64;
    let mut scored_from_streams = 0u64;
    for &id in streams {
        let pushes = fleet.stream_stats(id).unwrap().pushes;
        warmup += pushes.min(WINDOW as u64);
        let stream_scored = outcome.scores[id.index()].len() as u64;
        scored_from_streams += stream_scored;
        assert_eq!(
            stream_scored,
            pushes.saturating_sub(WINDOW as u64),
            "{policy:?}: {id} scored {stream_scored} of {pushes} admitted"
        );
        if policy == OverloadPolicy::Block {
            // Nothing is shed under Block, so the engine's per-stream admit
            // count equals the producer's accepted count exactly.
            assert_eq!(
                pushes,
                u64::from(accepted_per_stream[id.index()]),
                "{policy:?}: {id} admitted vs produced"
            );
        }
    }
    assert_eq!(
        scored_from_streams, scored,
        "{policy:?}: stream scores vs stats"
    );
    assert_eq!(
        admitted,
        scored + warmup,
        "{policy:?}: admitted != scored + warmup"
    );

    let snap = outcome
        .telemetry
        .as_ref()
        .expect("telemetry was enabled, so the outcome carries a snapshot");
    audit_telemetry(
        snap,
        policy,
        admitted,
        scored,
        dropped,
        outcome.stats.steals,
    );
}

/// Identity 3: the telemetry substrate's per-stage span counts and event
/// counters agree exactly with the engine's own ledger.
fn audit_telemetry(
    snap: &TelemetrySnapshot,
    policy: OverloadPolicy,
    admitted: u64,
    scored: u64,
    dropped: u64,
    steals: u64,
) {
    for &stage in Stage::ALL.iter() {
        let expected = match stage {
            Stage::QueueWait | Stage::Assembly | Stage::Normalize => admitted,
            Stage::Forward | Stage::Emit => scored,
        };
        assert_eq!(
            snap.merged_stage(stage).count,
            expected,
            "{policy:?}: {} spans vs ledger",
            stage.label()
        );
    }
    let event_count = |kind: &str| {
        snap.events
            .counts
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0, |c| c.count)
    };
    assert_eq!(
        event_count("sample_drop"),
        dropped,
        "{policy:?}: sample_drop events vs ledger"
    );
    assert_eq!(
        event_count("stream_steal"),
        steals,
        "{policy:?}: stream_steal events vs engine steals"
    );
    let e2e = snap.merged_end_to_end();
    assert_eq!(e2e.count, scored, "{policy:?}: end-to-end spans vs scored");
    // Every scored sample's end-to-end span contains its forward span, and
    // both populations are the scored samples.
    assert!(
        e2e.sum_ns >= snap.merged_stage(Stage::Forward).sum_ns,
        "{policy:?}: end-to-end time below forward time"
    );
}

#[test]
fn zipf_load_balances_the_ledger_under_every_overload_policy() {
    let detector = tiny_detector();
    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::DropOldest,
        OverloadPolicy::Reject,
    ] {
        let cell = run_cell(&detector, policy);
        assert!(
            cell.outcome.stats.global.scores > 0,
            "{policy:?}: nothing scored"
        );
        audit_cell(&cell);
    }
}

#[test]
fn lanes_partition_streams_and_pushes_exactly() {
    let streams: Vec<StreamId> = (0..101).map(StreamId::from_index).collect();
    let lanes = Lane::build(&streams, 3, 1000);
    let total_streams: usize = lanes.iter().map(|l| l.streams.len()).sum();
    let total_pushes: u64 = lanes.iter().map(|l| l.pushes).sum();
    assert_eq!(total_streams, 101);
    assert_eq!(total_pushes, 1000);
    // No stream appears on two lanes.
    let mut seen = [false; 101];
    for lane in &lanes {
        for s in &lane.streams {
            assert!(!seen[s.index()], "stream on two lanes");
            seen[s.index()] = true;
        }
    }
    // Sampling is in-bounds and heavily favors the head of the law.
    let mut rng = StdRng::seed_from_u64(1);
    let mut head = 0u32;
    for _ in 0..2_000 {
        let (idx, id) = lanes[0].sample(&mut rng);
        assert_eq!(lanes[0].streams[idx], id);
        if idx == 0 {
            head += 1;
        }
    }
    assert!(head > 100, "Zipf head undersampled: {head}/2000");
}
