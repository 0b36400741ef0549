//! Multi-core load harness: Zipf-skewed traffic over very many streams.
//!
//! The fleet sweep (`experiments::fleet`) measures throughput at modest,
//! uniform stream populations. This harness asks the opposite question —
//! what happens when a node serves 10⁴–10⁶ *mostly idle* streams whose
//! request rates follow a Zipf law (a few hot streams, a long cold tail),
//! the regime a real sensor fleet lives in. Concurrent producer threads
//! (one per [`varade_fleet::FleetConfig::producer_lanes`] lane) push
//! through the lock-free ingress rings into a multi-worker fleet with work
//! stealing, and the harness records:
//!
//! * **Exact sample accounting per overload policy** — every cell
//!   hard-errors unless `attempted == accepted + rejected` and
//!   `accepted == admitted + dropped` and `admitted == scored + warmup`
//!   hold *exactly* (no sample may ever be unaccounted for);
//! * **per-stream p99 end-to-end latency** (push call → score recorded)
//!   and the fraction of scored streams meeting the SLO;
//! * **steal counts** — exact, one per winning ownership CAS.
//!
//! Streams use a deliberately tiny single-channel detector so the full
//! scale fits in memory (10⁵ streams × an 86-channel window would be
//! gigabytes of buffers) and the harness stresses the *serving machinery* —
//! queues, stealing, termination — rather than the model forward.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use varade::{VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_fleet::{
    Fleet, FleetConfig, FleetError, FleetOutcome, OverloadPolicy, StreamId, TelemetryConfig,
    TelemetrySnapshot,
};
use varade_obs::Stage;
use varade_timeseries::MultivariateSeries;

use crate::experiments::ExperimentScale;
use crate::timing::LatencyStats;
use crate::BenchError;

/// Zipf exponent of the stream-popularity law (s ≈ 1 is the classic
/// web/sensor skew: the hottest stream sees ~2^s× the traffic of the
/// second-hottest).
pub const ZIPF_S: f64 = 1.1;

/// End-to-end latency SLO a scored stream must meet at its p99.
pub const SLO_US: f64 = 1_000.0;

/// Context window of the tiny load-harness detector.
const WINDOW: usize = 8;

/// Geometry of one load run.
struct LoadSpec {
    streams: usize,
    total_pushes: u64,
    workers: usize,
    lanes: usize,
    queue_capacity: usize,
}

fn spec(scale: ExperimentScale) -> LoadSpec {
    match scale {
        // CI shape: 10^4 streams through 2 workers, seconds of wall clock.
        ExperimentScale::Quick => LoadSpec {
            streams: 10_000,
            total_pushes: 30_000,
            workers: 2,
            lanes: 2,
            queue_capacity: 512,
        },
        // Baseline shape: 10^5 streams, 10^6 pushes, 4 workers.
        ExperimentScale::Full => LoadSpec {
            streams: 100_000,
            total_pushes: 1_000_000,
            workers: 4,
            lanes: 2,
            queue_capacity: 1024,
        },
    }
}

/// One overload-policy cell of the load run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadCell {
    /// Overload policy the cell ran under.
    pub policy: String,
    /// Push calls issued by the producers.
    pub attempted: u64,
    /// Pushes the queues accepted (`attempted - rejected`).
    pub accepted: u64,
    /// Pushes refused with `QueueFull` (non-zero only under `Reject`).
    pub rejected: u64,
    /// Accepted samples that reached their stream (`accepted - dropped`).
    pub admitted: u64,
    /// Accepted samples evicted by `DropOldest` before scoring.
    pub dropped: u64,
    /// Admitted samples that produced a score.
    pub scored: u64,
    /// Admitted samples consumed by per-stream window warm-up
    /// (`admitted - scored`, exactly).
    pub warmup: u64,
    /// Streams a worker stole from a peer (exact CAS-win count).
    pub steals: u64,
    /// Wall clock of the serve window, in seconds.
    pub elapsed_secs: f64,
    /// Admitted samples per second of serve window.
    pub samples_per_sec: f64,
    /// Scores per second of serve window.
    pub scores_per_sec: f64,
    /// Streams that admitted at least one sample.
    pub active_streams: usize,
    /// Streams that produced at least one score (the Zipf tail mostly never
    /// fills its warm-up window).
    pub scored_streams: usize,
    /// End-to-end (push call → score recorded) latency over every scored
    /// sample.
    pub end_to_end_latency: LatencyStats,
    /// Distribution of *per-stream p99* end-to-end latencies across scored
    /// streams (its `p50_us` is the median stream's p99).
    pub stream_p99: LatencyStats,
    /// The SLO the fraction below refers to, in microseconds.
    pub slo_us: f64,
    /// Fraction of scored streams whose p99 end-to-end latency meets
    /// [`LoadCell::slo_us`].
    pub slo_met_fraction: f64,
    /// Per-stage latency decomposition from the telemetry substrate, merged
    /// across shards, in pipeline order (`None` in pre-v7 baselines).
    pub stages: Option<Vec<StageLatencyCell>>,
    /// The stage with the largest share of summed pipeline time — where a
    /// latency SLO miss under this policy is actually being spent (`None` in
    /// pre-v7 baselines).
    pub dominant_stage: Option<String>,
    /// Sum of the per-stage mean spans, in microseconds. Consistent with the
    /// telemetry end-to-end mean by construction: a scored sample's five
    /// stages partition its enqueue-to-score life (`None` in pre-v7
    /// baselines).
    pub stage_sum_mean_us: Option<f64>,
    /// End-to-end distribution as recorded by the telemetry substrate.
    /// Unlike [`LoadCell::end_to_end_latency`] (producer push call → score,
    /// exact timestamps), this span starts at ingress enqueue and is
    /// reconstructed from log2 histogram buckets (`None` in pre-v7
    /// baselines).
    pub telemetry_end_to_end: Option<LatencyStats>,
}

/// One pipeline stage's latency summary within a [`LoadCell`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatencyCell {
    /// Stage label in pipeline order (see [`varade_obs::Stage::label`]).
    pub stage: String,
    /// Latency summary of every span recorded for this stage.
    pub latency: LatencyStats,
    /// This stage's share of the summed pipeline time, in percent.
    pub share_pct: f64,
}

/// Serializable outcome of the multi-core load harness — the `multicore`
/// section of the `BENCH_*.json` schema since v6 (v7 added the per-cell
/// telemetry stage decomposition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticoreResult {
    /// CPU cores available to the run (`std::thread::available_parallelism`;
    /// 0 if unknown). Worker threads beyond this count time-share.
    pub cpu_cores: usize,
    /// Ingress queue implementation label. Always `"lock-free-ring"`, the
    /// fleet's only queue; kept so older reports still load.
    pub queue_impl: String,
    /// Shard worker threads per cell.
    pub workers: usize,
    /// Concurrent producer threads (one lane each).
    pub producer_lanes: usize,
    /// Registered streams per cell.
    pub streams: usize,
    /// Push calls each cell's producers issue in total.
    pub total_pushes_per_cell: u64,
    /// Zipf exponent of the stream-popularity law.
    pub zipf_s: f64,
    /// Context window of the tiny load detector.
    pub window: usize,
    /// Capacity of each producer→shard ingress ring.
    pub queue_capacity: usize,
    /// Whether a 1-stream/1-shard fleet reproduced the direct
    /// `StreamState::push_against` scores bit-for-bit before any cell ran.
    pub one_stream_bit_identical: bool,
    /// One cell per overload policy, in `Block`, `DropOldest`, `Reject`
    /// order.
    pub cells: Vec<LoadCell>,
    /// Highest admitted-samples/sec across the cells.
    pub peak_samples_per_sec: f64,
}

impl MulticoreResult {
    /// The cell for `policy` (by label), if present.
    pub fn cell(&self, policy: &str) -> Option<&LoadCell> {
        self.cells.iter().find(|c| c.policy == policy)
    }
}

/// The tiny shared detector: single channel, window 8, a few hundred
/// parameters — large enough to exercise the real scoring path, small
/// enough that 10⁵ stream states fit comfortably in memory.
pub(crate) fn tiny_detector() -> Result<Arc<VaradeDetector>, BenchError> {
    let mut train = MultivariateSeries::new(vec!["load".into()], 10.0)
        .map_err(|e| BenchError::Report(format!("load harness series: {e}")))?;
    for t in 0..160 {
        train
            .push_row(&[(t as f32 * 0.37).sin()])
            .map_err(|e| BenchError::Report(format!("load harness series: {e}")))?;
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
    det.fit(&train)
        .map_err(|e| BenchError::Report(format!("load harness fit: {e}")))?;
    Ok(Arc::new(det))
}

/// The `t`-th sample of a stream: a per-stream phase-shifted sine, so
/// every stream's series is deterministic given its own push count.
fn sample_value(stream: usize, t: u32) -> f32 {
    ((t as f32) * 0.37 + (stream % 97) as f32 * 0.61).sin()
}

/// One producer lane's share of the Zipf workload: the streams pinned to
/// this lane (per-stream order requires each stream to stick to one lane)
/// with their cumulative popularity weights for inverse-CDF sampling.
struct Lane {
    lane: usize,
    streams: Vec<StreamId>,
    cumulative: Vec<f64>,
    pushes: u64,
    seed: u64,
}

impl Lane {
    /// Splits `streams` round-robin across `lanes` lanes; a stream's Zipf
    /// weight comes from its *global* popularity rank `1/(i+1)^s`, so the
    /// hottest streams land on different lanes instead of all on lane 0.
    fn build(streams: &[StreamId], lanes: usize, total_pushes: u64) -> Vec<Lane> {
        (0..lanes)
            .map(|lane| {
                let mine: Vec<StreamId> =
                    streams.iter().copied().skip(lane).step_by(lanes).collect();
                let mut cumulative = Vec::with_capacity(mine.len());
                let mut total = 0.0f64;
                for (k, _) in mine.iter().enumerate() {
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

fn fleet_err(err: FleetError) -> BenchError {
    BenchError::Report(format!("load fleet: {err}"))
}

fn ensure(cond: bool, what: &str) -> Result<(), BenchError> {
    if cond {
        Ok(())
    } else {
        Err(BenchError::Report(format!(
            "load harness accounting violated: {what}"
        )))
    }
}

/// Runs the full harness: a bit-identity check, then one fresh fleet per
/// overload policy.
///
/// # Errors
///
/// Returns [`BenchError`] if a fleet run fails or — the point of the
/// harness — any cell's exact sample accounting does not balance.
pub fn run(scale: ExperimentScale) -> Result<MulticoreResult, BenchError> {
    let spec = spec(scale);
    let detector = tiny_detector()?;
    let one_stream_bit_identical = check_equivalence(&detector)?;

    let mut cells = Vec::with_capacity(3);
    for policy in [
        OverloadPolicy::Block,
        OverloadPolicy::DropOldest,
        OverloadPolicy::Reject,
    ] {
        cells.push(run_cell(&detector, policy, &spec)?);
    }
    let peak_samples_per_sec = cells
        .iter()
        .map(|c| c.samples_per_sec)
        .fold(0.0f64, f64::max);
    Ok(MulticoreResult {
        cpu_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
        queue_impl: "lock-free-ring".to_string(),
        workers: spec.workers,
        producer_lanes: spec.lanes,
        streams: spec.streams,
        total_pushes_per_cell: spec.total_pushes,
        zipf_s: ZIPF_S,
        window: WINDOW,
        queue_capacity: spec.queue_capacity,
        one_stream_bit_identical,
        cells,
        peak_samples_per_sec,
    })
}

/// Scores a deterministic series through a 1-stream/1-shard fleet and
/// directly through [`varade::StreamState::push_against`], returning whether
/// every score matched bit for bit.
fn check_equivalence(detector: &Arc<VaradeDetector>) -> Result<bool, BenchError> {
    const SAMPLES: u32 = 200;
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: 1,
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(detector))
        .map_err(fleet_err)?;
    let stream = fleet.register_stream(group, None).map_err(fleet_err)?;
    let (_, outcome) = fleet
        .run(|handle| {
            for t in 0..SAMPLES {
                handle.push(stream, &[sample_value(0, t)])?;
            }
            Ok(())
        })
        .map_err(fleet_err)?;

    let mut reference = varade::StreamState::new(1, WINDOW, None)?;
    let mut expected = Vec::new();
    for t in 0..SAMPLES {
        if let Some(s) = reference.push_against(&[sample_value(0, t)], detector)? {
            expected.push(s);
        }
    }
    let got = &outcome.scores[stream.index()];
    Ok(got.len() == expected.len()
        && got
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits()))
}

/// Runs one overload-policy cell on a fresh fleet and audits its ledger.
fn run_cell(
    detector: &Arc<VaradeDetector>,
    policy: OverloadPolicy,
    spec: &LoadSpec,
) -> Result<LoadCell, BenchError> {
    let mut fleet = Fleet::new(FleetConfig {
        n_shards: spec.workers,
        queue_capacity: spec.queue_capacity,
        overload: policy,
        producer_lanes: spec.lanes,
        record_latencies: true,
        telemetry: TelemetryConfig::enabled(),
        ..FleetConfig::default()
    })
    .map_err(fleet_err)?;
    let group = fleet
        .register_model(Arc::clone(detector))
        .map_err(fleet_err)?;
    let streams: Vec<StreamId> = (0..spec.streams)
        .map(|_| fleet.register_stream(group, None))
        .collect::<Result<_, _>>()
        .map_err(fleet_err)?;
    let lanes = Lane::build(&streams, spec.lanes, spec.total_pushes);

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
                    .map(|p| p.join().expect("load producer panicked"))
                    .collect::<Result<Vec<LaneOutcome>, FleetError>>()
            })
        })
        .map_err(fleet_err)?;

    audit_cell(&fleet, &streams, &lanes, &lane_outcomes, &outcome, policy)
}

/// The exact-accounting audit: every identity below must hold to the last
/// sample or the harness (and with it the whole report run) fails.
fn audit_cell(
    fleet: &Fleet,
    streams: &[StreamId],
    lanes: &[Lane],
    lane_outcomes: &[LaneOutcome],
    outcome: &FleetOutcome,
    policy: OverloadPolicy,
) -> Result<LoadCell, BenchError> {
    let attempted: u64 = lane_outcomes.iter().map(|l| l.attempted).sum();
    let rejected: u64 = lane_outcomes.iter().map(|l| l.rejected).sum();
    let accepted = attempted - rejected;
    let admitted = outcome.stats.global.pushes;
    let dropped = outcome.stats.dropped;
    let scored = outcome.stats.global.scores;
    let policy_label = format!("{policy:?}");

    // Producer-side counts per stream (each stream belongs to exactly one
    // lane, so this is a plain scatter, no summing across lanes).
    let mut accepted_per_stream = vec![0u32; streams.len()];
    for (lane, lo) in lanes.iter().zip(lane_outcomes) {
        for (local, &count) in lo.counts.iter().enumerate() {
            accepted_per_stream[lane.streams[local].index()] = count;
        }
    }
    let accepted_from_counts: u64 = accepted_per_stream.iter().map(|&c| u64::from(c)).sum();
    ensure(
        accepted_from_counts == accepted,
        &format!(
            "{policy_label}: per-stream producer counts sum to {accepted_from_counts}, \
             expected accepted = {accepted}"
        ),
    )?;

    // Ledger identity 1: what the queues accepted either reached a stream or
    // was dropped by DropOldest — nothing else may happen to a sample.
    ensure(
        accepted == admitted + dropped,
        &format!("{policy_label}: accepted {accepted} != admitted {admitted} + dropped {dropped}"),
    )?;
    // Policy contracts: only Reject refuses, only DropOldest sheds.
    match policy {
        OverloadPolicy::Block => {
            ensure(
                rejected == 0,
                &format!("{policy_label}: rejected {rejected}"),
            )?;
            ensure(dropped == 0, &format!("{policy_label}: dropped {dropped}"))?;
        }
        OverloadPolicy::DropOldest => ensure(
            rejected == 0,
            &format!("{policy_label}: rejected {rejected}"),
        )?,
        OverloadPolicy::Reject => {
            ensure(dropped == 0, &format!("{policy_label}: dropped {dropped}"))?
        }
    }

    // Ledger identity 2: every admitted sample either scored or warmed up
    // its stream's window — checked per stream against the engine's own
    // per-stream counters, then in aggregate.
    let mut warmup = 0u64;
    let mut active_streams = 0usize;
    let mut scored_from_streams = 0u64;
    for &id in streams {
        let pushes = fleet.stream_stats(id).map_err(fleet_err)?.pushes;
        if pushes > 0 {
            active_streams += 1;
        }
        warmup += pushes.min(WINDOW as u64);
        let stream_scored = outcome.scores[id.index()].len() as u64;
        scored_from_streams += stream_scored;
        ensure(
            stream_scored == pushes.saturating_sub(WINDOW as u64),
            &format!(
                "{policy_label}: {id} scored {stream_scored} of {pushes} admitted \
                 (window {WINDOW})"
            ),
        )?;
        if policy == OverloadPolicy::Block {
            // Under Block nothing is shed, so the engine's per-stream admit
            // count must equal the producer's accepted count exactly.
            let produced = u64::from(accepted_per_stream[id.index()]);
            ensure(
                pushes == produced,
                &format!("{policy_label}: {id} admitted {pushes}, producer sent {produced}"),
            )?;
        }
    }
    ensure(
        scored_from_streams == scored,
        &format!("{policy_label}: stream scores sum to {scored_from_streams}, stats say {scored}"),
    )?;
    ensure(
        admitted == scored + warmup,
        &format!("{policy_label}: admitted {admitted} != scored {scored} + warmup {warmup}"),
    )?;

    // Ledger identity 3: the telemetry substrate's per-stage span counts and
    // event counters must agree exactly with the engine's own ledger.
    let snap = outcome.telemetry.as_ref().ok_or_else(|| {
        BenchError::Report(format!(
            "{policy_label}: telemetry was enabled but the outcome carries no snapshot"
        ))
    })?;
    let (stages, dominant_stage, stage_sum_mean_us, telemetry_end_to_end) = audit_telemetry(
        snap,
        &policy_label,
        admitted,
        scored,
        dropped,
        outcome.stats.steals,
    )?;

    // Latency: end-to-end per scored sample, then per-stream p99s and the
    // SLO fraction over scored streams.
    let mut all: Vec<Duration> = outcome.latencies.iter().flatten().copied().collect();
    all.sort_unstable();
    let end_to_end_latency = LatencyStats::from_durations(&all)
        .ok_or_else(|| BenchError::Report(format!("{policy_label}: no sample was ever scored")))?;
    let mut stream_p99s: Vec<Duration> = Vec::new();
    for lats in &outcome.latencies {
        if lats.is_empty() {
            continue;
        }
        let mut sorted = lats.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * 0.99).ceil() as usize;
        stream_p99s.push(sorted[idx]);
    }
    let scored_streams = stream_p99s.len();
    let slo_met = stream_p99s
        .iter()
        .filter(|d| d.as_secs_f64() * 1e6 <= SLO_US)
        .count();
    let stream_p99 = LatencyStats::from_durations(&stream_p99s)
        .ok_or_else(|| BenchError::Report(format!("{policy_label}: no stream ever scored")))?;

    Ok(LoadCell {
        policy: policy_label,
        attempted,
        accepted,
        rejected,
        admitted,
        dropped,
        scored,
        warmup,
        steals: outcome.stats.steals,
        elapsed_secs: outcome.stats.elapsed.as_secs_f64(),
        samples_per_sec: outcome.stats.samples_per_sec().unwrap_or(0.0),
        scores_per_sec: outcome.stats.scores_per_sec().unwrap_or(0.0),
        active_streams,
        scored_streams,
        end_to_end_latency,
        stream_p99,
        slo_us: SLO_US,
        slo_met_fraction: slo_met as f64 / scored_streams as f64,
        stages: Some(stages),
        dominant_stage: Some(dominant_stage),
        stage_sum_mean_us: Some(stage_sum_mean_us),
        telemetry_end_to_end: Some(telemetry_end_to_end),
    })
}

/// Audits the telemetry substrate's view of one cell against the engine's
/// exact ledger and folds the per-shard histograms into the per-stage
/// breakdown: exactly one queue-wait/assembly/normalize span per admitted
/// sample, one forward/emit span per score, drop/steal event counts equal to
/// the engine's own counters, and summed stage means consistent with the
/// end-to-end mean.
fn audit_telemetry(
    snap: &TelemetrySnapshot,
    policy_label: &str,
    admitted: u64,
    scored: u64,
    dropped: u64,
    steals: u64,
) -> Result<(Vec<StageLatencyCell>, String, f64, LatencyStats), BenchError> {
    let expected = |stage: Stage| match stage {
        Stage::QueueWait | Stage::Assembly | Stage::Normalize => admitted,
        Stage::Forward | Stage::Emit => scored,
    };
    let merged: Vec<_> = Stage::ALL
        .iter()
        .map(|&s| (s, snap.merged_stage(s)))
        .collect();
    for (stage, hist) in &merged {
        ensure(
            hist.count == expected(*stage),
            &format!(
                "{policy_label}: telemetry recorded {} {} spans, ledger expects {}",
                hist.count,
                stage.label(),
                expected(*stage)
            ),
        )?;
    }
    let event_count = |kind: &str| {
        snap.events
            .counts
            .iter()
            .find(|c| c.kind == kind)
            .map_or(0, |c| c.count)
    };
    ensure(
        event_count("sample_drop") == dropped,
        &format!(
            "{policy_label}: {} sample_drop events, ledger dropped {dropped}",
            event_count("sample_drop")
        ),
    )?;
    ensure(
        event_count("stream_steal") == steals,
        &format!(
            "{policy_label}: {} stream_steal events, engine counted {steals} steals",
            event_count("stream_steal")
        ),
    )?;
    let e2e = snap.merged_end_to_end();
    ensure(
        e2e.count == scored,
        &format!(
            "{policy_label}: telemetry end-to-end count {} != scored {scored}",
            e2e.count
        ),
    )?;

    let total_ns: u64 = merged.iter().map(|(_, h)| h.sum_ns).sum();
    let stages: Vec<StageLatencyCell> = merged
        .iter()
        .map(|(stage, hist)| {
            LatencyStats::from_histogram(hist)
                .map(|latency| StageLatencyCell {
                    stage: stage.label().to_string(),
                    latency,
                    share_pct: if total_ns > 0 {
                        hist.sum_ns as f64 / total_ns as f64 * 100.0
                    } else {
                        0.0
                    },
                })
                .ok_or_else(|| {
                    BenchError::Report(format!(
                        "{policy_label}: stage {} recorded no spans",
                        stage.label()
                    ))
                })
        })
        .collect::<Result<_, _>>()?;
    let dominant_stage = merged
        .iter()
        .max_by_key(|(_, h)| h.sum_ns)
        .map(|(s, _)| s.label().to_string())
        .expect("five stages are always present");
    let stage_sum_mean_us: f64 = stages.iter().map(|c| c.latency.mean_us).sum();
    let telemetry_end_to_end = LatencyStats::from_histogram(&e2e).ok_or_else(|| {
        BenchError::Report(format!("{policy_label}: telemetry end-to-end is empty"))
    })?;
    // Consistency: every scored sample's end-to-end span contains its forward
    // share, so the means (exact sums over the same population) must order;
    // and the five stages partition a scored sample's enqueue-to-score life,
    // so their summed means reconstruct the end-to-end mean up to population
    // differences (queue-wait/assembly/normalize also average over warm-up
    // samples) and timer-read noise.
    let forward_mean = stages
        .iter()
        .find(|c| c.stage == "forward")
        .map_or(0.0, |c| c.latency.mean_us);
    ensure(
        telemetry_end_to_end.mean_us >= forward_mean,
        &format!(
            "{policy_label}: end-to-end mean {:.1} us below forward mean {forward_mean:.1} us",
            telemetry_end_to_end.mean_us
        ),
    )?;
    ensure(
        stage_sum_mean_us <= telemetry_end_to_end.mean_us * 2.0 + 500.0,
        &format!(
            "{policy_label}: stage-mean sum {stage_sum_mean_us:.1} us inconsistent with \
             end-to-end mean {:.1} us",
            telemetry_end_to_end.mean_us
        ),
    )?;
    Ok((
        stages,
        dominant_stage,
        stage_sum_mean_us,
        telemetry_end_to_end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature spec so the unit test stays fast; the audit logic is the
    /// same one the Quick/Full runs go through.
    fn mini_spec() -> LoadSpec {
        LoadSpec {
            streams: 500,
            total_pushes: 6_000,
            workers: 2,
            lanes: 2,
            queue_capacity: 128,
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

    #[test]
    fn mini_load_run_balances_all_three_policies() {
        let spec = mini_spec();
        let detector = tiny_detector().unwrap();
        assert!(check_equivalence(&detector).unwrap(), "numerics changed");
        for policy in [
            OverloadPolicy::Block,
            OverloadPolicy::DropOldest,
            OverloadPolicy::Reject,
        ] {
            // `run_cell` hard-errors on any ledger imbalance, so the
            // assertions here only pin the derived fields.
            let cell = run_cell(&detector, policy, &spec).unwrap();
            assert_eq!(cell.attempted, spec.total_pushes);
            assert!(cell.scored > 0);
            assert!(cell.active_streams > 0);
            assert!(cell.scored_streams <= cell.active_streams);
            assert!(cell.samples_per_sec > 0.0);
            assert!((0.0..=1.0).contains(&cell.slo_met_fraction));
            assert!(cell.end_to_end_latency.p50_us <= cell.end_to_end_latency.p99_us);

            // Telemetry stage decomposition: all five stages in pipeline
            // order, span counts tied to the ledger, shares summing to 100%.
            let stages = cell.stages.as_ref().unwrap();
            assert_eq!(stages.len(), 5);
            assert_eq!(stages[0].stage, "queue_wait");
            assert_eq!(stages[0].latency.samples as u64, cell.admitted);
            assert_eq!(stages[3].stage, "forward");
            assert_eq!(stages[3].latency.samples as u64, cell.scored);
            let share: f64 = stages.iter().map(|s| s.share_pct).sum();
            assert!((share - 100.0).abs() < 1e-6, "shares sum to {share}");
            let dominant = cell.dominant_stage.as_deref().unwrap();
            assert!(stages.iter().any(|s| s.stage == dominant));
            assert!(cell.stage_sum_mean_us.unwrap() > 0.0);
            let tel_e2e = cell.telemetry_end_to_end.as_ref().unwrap();
            assert_eq!(tel_e2e.samples as u64, cell.scored);

            let text = serde_json::to_string(&cell).unwrap();
            let back: LoadCell = serde_json::from_str(&text).unwrap();
            assert_eq!(back, cell);
        }
    }
}
