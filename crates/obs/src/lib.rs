//! `varade-obs` — lock-free telemetry substrate for the VARADE serving stack.
//!
//! The crate answers one question the end-to-end latency number cannot:
//! *where do a push's microseconds go?* It provides:
//!
//! * **Metric primitives** ([`Counter`], [`Gauge`], [`AtomicHistogram`]) —
//!   wait-free relaxed atomics, designed to live in per-shard registries so
//!   the serving hot path records without any cross-core contention;
//! * **Per-stage latency decomposition** ([`Stage`], [`ShardTelemetry`]) —
//!   one log2-bucketed histogram per (shard, model group, pipeline stage)
//!   covering queue wait, window assembly, normalization, model forward and
//!   score emission, plus the end-to-end reference distribution;
//! * **Structured event tracing** ([`EventRing`], [`FleetEvent`]) — a
//!   fixed-capacity overwrite MPSC ring of typed events (model swaps,
//!   steals, drops, queue parks, cache invalidations) with monotonic
//!   sequence numbers and exact overwrite accounting;
//! * **Exposition** ([`TelemetrySnapshot`], [`prometheus_text`]) — a
//!   serde-round-trippable JSON snapshot that merges the per-shard
//!   registries with exact count conservation, and a Prometheus text
//!   rendering of the same data.
//!
//! Everything is gated by [`TelemetryConfig`]: the
//! [`disabled`](TelemetryConfig::disabled) configuration allocates no
//! per-shard state and reduces every record call to one predictable branch,
//! so a fleet that does not ask for telemetry pays effectively nothing.

mod events;
mod expo;
mod hist;
mod metrics;
pub mod spanclock;
pub(crate) mod sync;

pub use events::{EventDrain, EventRing, FleetEvent, SequencedEvent, EVENT_KINDS};
pub use expo::prometheus_text;
pub use hist::{
    bucket_of, bucket_upper_bound, AtomicHistogram, HistogramSnapshot, LocalHistogram, BUCKETS,
};
pub use metrics::{Counter, Gauge, GaugeSnapshot};

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One stage of the serving pipeline, in hot-path order.
///
/// The five spans partition a push's life from queue admission to score
/// emission; summing a sample's five stage durations reconstructs (within
/// timer-read overhead) its end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time between ingress enqueue and the worker popping the sample.
    QueueWait,
    /// The rest of admission: sample checks and the context-window ring
    /// write. On the fleet it also covers the group-model load.
    Assembly,
    /// Per-channel normalizer transform of the incoming row.
    Normalize,
    /// Model inference (backbone + variational head scoring).
    Forward,
    /// Post-forward bookkeeping: score push, latency recording, counters.
    Emit,
}

/// Number of pipeline stages.
pub const N_STAGES: usize = 5;

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; N_STAGES] = [
        Stage::QueueWait,
        Stage::Assembly,
        Stage::Normalize,
        Stage::Forward,
        Stage::Emit,
    ];

    /// Stable snake_case label used in snapshots and Prometheus output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Assembly => "assembly",
            Stage::Normalize => "normalize",
            Stage::Forward => "forward",
            Stage::Emit => "emit",
        }
    }

    /// Dense index of the stage (its position in [`Stage::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Assembly => 1,
            Stage::Normalize => 2,
            Stage::Forward => 3,
            Stage::Emit => 4,
        }
    }
}

/// Telemetry enablement and sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: when false, no per-shard state is allocated and every
    /// record call is a single predictable branch.
    pub enabled: bool,
    /// Capacity of the structured event ring (rounded up to at least 1).
    pub event_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry fully on, with a 1024-event ring.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            event_capacity: 1024,
        }
    }

    /// Telemetry off: the near-zero-cost default.
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            event_capacity: 0,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::disabled()
    }
}

/// Per-shard telemetry registry: the hot-path recording surface.
///
/// Each worker shard owns one instance and records into it without ever
/// touching another shard's cache lines; [`Telemetry::snapshot`] merges the
/// registries with exact count conservation.
#[derive(Debug)]
pub struct ShardTelemetry {
    n_groups: usize,
    /// Histograms indexed `group * N_STAGES + stage.index()`.
    stage_hists: Vec<AtomicHistogram>,
    end_to_end: AtomicHistogram,
    queue_depth: Gauge,
    parks: Counter,
    inline_scores: Counter,
}

impl ShardTelemetry {
    fn new(n_groups: usize) -> Self {
        ShardTelemetry {
            n_groups,
            stage_hists: (0..n_groups * N_STAGES)
                .map(|_| AtomicHistogram::new())
                .collect(),
            end_to_end: AtomicHistogram::new(),
            queue_depth: Gauge::new(),
            parks: Counter::new(),
            inline_scores: Counter::new(),
        }
    }

    /// Records one stage span for a sample of the given model group.
    #[inline]
    pub fn record_stage(&self, group: usize, stage: Stage, d: Duration) {
        debug_assert!(group < self.n_groups);
        self.stage_hists[group * N_STAGES + stage.index()].record(d);
    }

    /// [`record_stage`](Self::record_stage) with a raw nanosecond span.
    #[inline]
    pub fn record_stage_ns(&self, group: usize, stage: Stage, ns: u64) {
        debug_assert!(group < self.n_groups);
        self.stage_hists[group * N_STAGES + stage.index()].record_ns(ns);
    }

    /// Records one end-to-end (enqueue → score) latency.
    #[inline]
    pub fn record_end_to_end(&self, d: Duration) {
        self.end_to_end.record(d);
    }

    /// [`record_end_to_end`](Self::record_end_to_end) with a raw
    /// nanosecond span.
    #[inline]
    pub fn record_end_to_end_ns(&self, ns: u64) {
        self.end_to_end.record_ns(ns);
    }

    /// Records an observed ingress queue depth (updates the high-water mark).
    #[inline]
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.set(depth);
    }

    /// Records one worker wait on the shard's doorbell.
    #[inline]
    pub fn record_park(&self) {
        self.parks.inc();
    }

    /// Records one push of this shard's streams scored on the producer's
    /// thread instead of being handed to the worker.
    #[inline]
    pub fn record_inline(&self) {
        self.inline_scores.inc();
    }

    /// The shard's queue-depth gauge.
    pub fn queue_depth(&self) -> &Gauge {
        &self.queue_depth
    }

    /// The histogram backing one (group, stage) cell.
    pub fn stage_histogram(&self, group: usize, stage: Stage) -> &AtomicHistogram {
        &self.stage_hists[group * N_STAGES + stage.index()]
    }

    /// A write-local span buffer over this registry for the shard's single
    /// worker thread (see [`StageRecorder`]).
    pub fn recorder(&self) -> StageRecorder<'_> {
        StageRecorder {
            shard: self,
            cells: vec![LocalHistogram::new(); self.n_groups * N_STAGES],
            end_to_end: LocalHistogram::new(),
            buffered: 0,
        }
    }
}

/// How many spans a [`StageRecorder`] buffers before it publishes them to
/// the shared registry on its own (it also publishes on
/// [`flush`](StageRecorder::flush) and on drop). The threshold is checked once per
/// end-to-end record — i.e. once per scored sample — so a burst can
/// overshoot it by the handful of stage spans in between; the buffer is
/// fixed-size histograms either way, the constant only bounds staleness.
pub const RECORDER_FLUSH_EVERY: u32 = 1024;

/// Write-local span buffer: the cheapest way to record stage spans from the
/// one worker thread that owns a shard.
///
/// Recording into the shared [`ShardTelemetry`] costs a few uncontended
/// atomic RMWs per span; at six spans per sample that is real money on a
/// hot path. A `StageRecorder` buffers spans in plain (non-atomic) memory —
/// a handful of L1 stores each — and folds the buffer into the shared
/// atomic histograms every [`RECORDER_FLUSH_EVERY`] spans, on an explicit
/// [`flush`](StageRecorder::flush), and on drop, conserving counts exactly.
///
/// The trade: a *live* [`Telemetry::snapshot`] taken while workers are
/// mid-burst can trail each worker by up to one buffer of spans. Totals are
/// exact whenever writers are quiescent — in particular after a serve
/// window closes, because each worker drops (and therefore flushes) its
/// recorder on exit.
#[derive(Debug)]
pub struct StageRecorder<'a> {
    shard: &'a ShardTelemetry,
    /// Buffers indexed `group * N_STAGES + stage.index()`, mirroring the
    /// shared registry's layout.
    cells: Vec<LocalHistogram>,
    end_to_end: LocalHistogram,
    buffered: u32,
}

impl StageRecorder<'_> {
    /// Buffers one stage span for a sample of the given model group.
    #[inline]
    pub fn record_stage(&mut self, group: usize, stage: Stage, d: Duration) {
        self.record_stage_ns(group, stage, duration_ns(d));
    }

    /// [`record_stage`](Self::record_stage) with a raw nanosecond span (the
    /// cheapest path — pairs with
    /// [`SpanStamp::nanos_since`](spanclock::SpanStamp::nanos_since)).
    #[inline]
    pub fn record_stage_ns(&mut self, group: usize, stage: Stage, ns: u64) {
        self.cells[group * N_STAGES + stage.index()].record_ns(ns);
        self.buffered += 1;
    }

    /// Buffers one end-to-end (enqueue → score) latency.
    #[inline]
    pub fn record_end_to_end(&mut self, d: Duration) {
        self.record_end_to_end_ns(duration_ns(d));
    }

    /// [`record_end_to_end`](Self::record_end_to_end) with a raw nanosecond
    /// span. This is also where the auto-flush threshold is checked — once
    /// per scored sample rather than once per span, so the five-or-so stage
    /// records a sample makes pay a plain increment and nothing else.
    #[inline]
    pub fn record_end_to_end_ns(&mut self, ns: u64) {
        self.end_to_end.record_ns(ns);
        self.buffered += 1;
        if self.buffered >= RECORDER_FLUSH_EVERY {
            self.flush();
        }
    }

    /// The underlying shared registry (for gauges and non-buffered metrics).
    pub fn shard(&self) -> &ShardTelemetry {
        self.shard
    }

    /// Publishes every buffered span to the shared registry and empties the
    /// buffer. Cheap when nothing is buffered.
    pub fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        for (cell, hist) in self.cells.iter_mut().zip(self.shard.stage_hists.iter()) {
            hist.absorb(cell);
        }
        self.shard.end_to_end.absorb(&mut self.end_to_end);
        self.buffered = 0;
    }
}

impl Drop for StageRecorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// `Duration` → saturating nanoseconds (the histograms' native key).
#[inline]
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The shared telemetry substrate: per-shard registries plus the event ring.
///
/// A fleet constructs one `Telemetry` (wrapped in an `Arc`), hands each
/// worker its [`ShardTelemetry`] via [`shard`](Self::shard), routes control-
/// plane events through [`record_event`](Self::record_event), and exposes
/// the merged state with [`snapshot`](Self::snapshot). When built from
/// [`TelemetryConfig::disabled`], no shard state exists, [`shard`](Self::shard)
/// returns `None`, and recording degenerates to a branch.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    n_groups: usize,
    shards: Vec<ShardTelemetry>,
    events: EventRing,
    kind_counts: Vec<Counter>,
}

impl Telemetry {
    /// Builds the substrate for `n_shards` workers serving `n_groups` model
    /// groups. A disabled config allocates no per-shard state.
    pub fn new(config: &TelemetryConfig, n_shards: usize, n_groups: usize) -> Self {
        let enabled = config.enabled;
        if enabled {
            // Pay the span-clock tick-rate calibration here, not inside the
            // first recorded span.
            spanclock::warm();
        }
        Telemetry {
            enabled,
            n_groups: if enabled { n_groups } else { 0 },
            shards: if enabled {
                (0..n_shards)
                    .map(|_| ShardTelemetry::new(n_groups))
                    .collect()
            } else {
                Vec::new()
            },
            events: EventRing::new(if enabled { config.event_capacity } else { 1 }),
            kind_counts: (0..EVENT_KINDS).map(|_| Counter::new()).collect(),
        }
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of model groups the stage histograms are partitioned by.
    pub fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// The registry for one shard, or `None` when telemetry is disabled —
    /// workers hoist this lookup out of their serve loop so the disabled
    /// path never re-checks.
    pub fn shard(&self, shard: usize) -> Option<&ShardTelemetry> {
        self.shards.get(shard)
    }

    /// Records a control-plane event into the ring (no-op when disabled).
    pub fn record_event(&self, event: FleetEvent) {
        if self.enabled {
            let kind = event.encode_kind();
            self.kind_counts[kind].inc();
            self.events.record(event);
        }
    }

    /// Direct access to the event ring (for tests and custom drains).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Merges every shard registry and drains the event ring into an owned,
    /// serializable snapshot.
    ///
    /// Draining is consuming: events returned by one snapshot are not
    /// returned by the next, but the lifetime totals (`recorded`, `drained`,
    /// `overwritten`) and per-kind counts are cumulative and exact.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut stages = Vec::new();
        let mut end_to_end = Vec::new();
        let mut queue_depth = Vec::new();
        let mut worker_waits = Vec::new();
        for (shard, reg) in self.shards.iter().enumerate() {
            for group in 0..self.n_groups {
                for stage in Stage::ALL {
                    let hist = reg.stage_histogram(group, stage).snapshot();
                    if hist.count > 0 {
                        stages.push(StageCell {
                            shard,
                            group,
                            stage: stage.label().to_string(),
                            hist,
                        });
                    }
                }
            }
            end_to_end.push(EndToEndCell {
                shard,
                hist: reg.end_to_end.snapshot(),
            });
            let g = reg.queue_depth.snapshot();
            queue_depth.push(QueueDepthCell {
                shard,
                depth: g.value,
                high_water: g.high_water,
            });
            worker_waits.push(WorkerWaitCell {
                shard,
                parks: reg.parks.get(),
                inline_scores: reg.inline_scores.get(),
            });
        }
        let drain = self.events.drain();
        let counts = FleetEvent::KIND_LABELS
            .iter()
            .enumerate()
            .filter(|(k, _)| self.kind_counts[*k].get() > 0)
            .map(|(k, label)| EventKindCount {
                kind: (*label).to_string(),
                count: self.kind_counts[k].get(),
            })
            .collect();
        let recent = drain
            .events
            .iter()
            .rev()
            .take(RECENT_EVENTS)
            .rev()
            .map(|e| EventEntry {
                seq: e.seq,
                kind: e.event.kind_label().to_string(),
                detail: e.event.detail(),
            })
            .collect();
        TelemetrySnapshot {
            enabled: self.enabled,
            n_shards: self.shards.len(),
            n_groups: self.n_groups,
            stages,
            end_to_end,
            queue_depth,
            worker_waits,
            events: EventsSnapshot {
                recorded: drain.recorded,
                drained: drain.drained,
                overwritten: drain.overwritten,
                counts,
                recent,
            },
        }
    }
}

/// Cap on verbatim events embedded in a snapshot (totals stay exact).
const RECENT_EVENTS: usize = 32;

impl FleetEvent {
    /// Dense kind index matching [`FleetEvent::KIND_LABELS`].
    fn encode_kind(&self) -> usize {
        match self {
            FleetEvent::ModelSwap { .. } => 0,
            FleetEvent::ModelRollback { .. } => 1,
            FleetEvent::StreamSteal { .. } => 2,
            FleetEvent::SampleDrop { .. } => 3,
            FleetEvent::QueuePark { .. } => 4,
            FleetEvent::QueueUnpark { .. } => 5,
            FleetEvent::CacheInvalidation { .. } => 6,
        }
    }

    /// Stable labels for every event kind, indexed like the internal kind
    /// discriminant.
    pub const KIND_LABELS: [&'static str; EVENT_KINDS] = [
        "model_swap",
        "model_rollback",
        "stream_steal",
        "sample_drop",
        "queue_park",
        "queue_unpark",
        "cache_invalidation",
    ];
}

/// One (shard, model group, stage) histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCell {
    /// Worker shard that recorded the samples.
    pub shard: usize,
    /// Model group the samples belonged to.
    pub group: usize,
    /// Stage label (see [`Stage::label`]).
    pub stage: String,
    /// The recorded latency distribution.
    pub hist: HistogramSnapshot,
}

/// Per-shard end-to-end (enqueue → score) latency distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndCell {
    /// Worker shard.
    pub shard: usize,
    /// The recorded latency distribution.
    pub hist: HistogramSnapshot,
}

/// Per-shard ingress queue depth gauge reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueDepthCell {
    /// Worker shard.
    pub shard: usize,
    /// Last observed depth.
    pub depth: u64,
    /// All-time high-water mark.
    pub high_water: u64,
}

/// Per-shard worker wait counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerWaitCell {
    /// Worker shard.
    pub shard: usize,
    /// Times the worker slept on its doorbell.
    pub parks: u64,
    /// Pushes of the shard's streams scored on the producer's thread: each
    /// one a sample that reached the idle shard without waking its worker.
    pub inline_scores: u64,
}

/// Cumulative count of one event kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventKindCount {
    /// Event kind label.
    pub kind: String,
    /// Lifetime occurrences (exact, unaffected by ring overwrites).
    pub count: u64,
}

/// One verbatim event preserved in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventEntry {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Event kind label.
    pub kind: String,
    /// Human-readable payload.
    pub detail: String,
}

/// Event-ring accounting plus a bounded sample of recent events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventsSnapshot {
    /// Lifetime recorded events.
    pub recorded: u64,
    /// Lifetime drained events.
    pub drained: u64,
    /// Lifetime overwritten (lost) events; `drained + overwritten ==
    /// recorded` once producers are quiescent.
    pub overwritten: u64,
    /// Exact cumulative per-kind counts.
    pub counts: Vec<EventKindCount>,
    /// Up to the most recent 32 events from this drain, in order.
    pub recent: Vec<EventEntry>,
}

/// Owned, serializable view of the full telemetry state.
///
/// Produced by [`Telemetry::snapshot`]; renders to Prometheus text via
/// [`prometheus_text`] and to JSON via its serde impls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Whether telemetry was live when the snapshot was taken.
    pub enabled: bool,
    /// Number of worker shards with registries.
    pub n_shards: usize,
    /// Number of model groups.
    pub n_groups: usize,
    /// Every non-empty (shard, group, stage) histogram.
    pub stages: Vec<StageCell>,
    /// Per-shard end-to-end latency distributions.
    pub end_to_end: Vec<EndToEndCell>,
    /// Per-shard queue depth gauges.
    pub queue_depth: Vec<QueueDepthCell>,
    /// Per-shard worker wait counters.
    pub worker_waits: Vec<WorkerWaitCell>,
    /// Event ring accounting and recent events.
    pub events: EventsSnapshot,
}

impl TelemetrySnapshot {
    /// The snapshot a disabled substrate produces: everything empty.
    pub fn disabled() -> Self {
        TelemetrySnapshot {
            enabled: false,
            n_shards: 0,
            n_groups: 0,
            stages: Vec::new(),
            end_to_end: Vec::new(),
            queue_depth: Vec::new(),
            worker_waits: Vec::new(),
            events: EventsSnapshot {
                recorded: 0,
                drained: 0,
                overwritten: 0,
                counts: Vec::new(),
                recent: Vec::new(),
            },
        }
    }

    /// Merges one stage's histograms across every shard and model group.
    pub fn merged_stage(&self, stage: Stage) -> HistogramSnapshot {
        self.stages
            .iter()
            .filter(|c| c.stage == stage.label())
            .fold(HistogramSnapshot::empty(), |acc, c| acc.merge(&c.hist))
    }

    /// Merges the end-to-end distribution across every shard.
    pub fn merged_end_to_end(&self) -> HistogramSnapshot {
        self.end_to_end
            .iter()
            .fold(HistogramSnapshot::empty(), |acc, c| acc.merge(&c.hist))
    }

    /// Largest queue-depth high-water mark across shards.
    pub fn max_queue_depth_high_water(&self) -> u64 {
        self.queue_depth
            .iter()
            .map(|c| c.high_water)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_allocates_nothing_and_records_nothing() {
        let t = Telemetry::new(&TelemetryConfig::disabled(), 4, 2);
        assert!(!t.is_enabled());
        assert!(t.shard(0).is_none());
        t.record_event(FleetEvent::ModelSwap {
            group: 0,
            version: 2,
        });
        let snap = t.snapshot();
        assert_eq!(snap, TelemetrySnapshot::disabled());
    }

    #[test]
    fn enabled_telemetry_merges_shards_with_count_conservation() {
        let t = Telemetry::new(&TelemetryConfig::enabled(), 2, 1);
        let d = Duration::from_micros(10);
        t.shard(0).unwrap().record_stage(0, Stage::Forward, d);
        t.shard(0).unwrap().record_stage(0, Stage::Forward, 3 * d);
        t.shard(1).unwrap().record_stage(0, Stage::Forward, 7 * d);
        t.shard(1).unwrap().record_end_to_end(11 * d);
        t.shard(0).unwrap().observe_queue_depth(5);
        t.shard(0).unwrap().observe_queue_depth(2);
        let snap = t.snapshot();
        assert_eq!(snap.merged_stage(Stage::Forward).count, 3);
        assert_eq!(snap.merged_stage(Stage::Normalize).count, 0);
        assert_eq!(snap.merged_end_to_end().count, 1);
        assert_eq!(snap.max_queue_depth_high_water(), 5);
        assert_eq!(snap.queue_depth[0].depth, 2);
    }

    #[test]
    fn recorder_publishes_exactly_what_direct_recording_does() {
        // The same spans through a shard's recorder and straight into a
        // second registry's atomic histograms must produce identical
        // snapshots — across auto-flushes, an explicit flush and the drop
        // flush, and at the extremes of the nanosecond range.
        let buffered = Telemetry::new(&TelemetryConfig::enabled(), 1, 2);
        let direct = Telemetry::new(&TelemetryConfig::enabled(), 1, 2);
        let reference = direct.shard(0).unwrap();
        let span = |i: u64| match i % 97 {
            0 => u64::MAX,
            1 => 1 << 48,
            2 => 0,
            _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (20 + i % 24),
        };
        let mut recorder = buffered.shard(0).unwrap().recorder();
        let n = 3 * u64::from(RECORDER_FLUSH_EVERY) + 17;
        for i in 0..n {
            let group = (i % 2) as usize;
            let stage = Stage::ALL[(i % N_STAGES as u64) as usize];
            recorder.record_stage_ns(group, stage, span(i));
            reference.record_stage(group, stage, Duration::from_nanos(span(i)));
            if i % 3 == 0 {
                recorder.record_end_to_end_ns(span(i + 1));
                reference.record_end_to_end(Duration::from_nanos(span(i + 1)));
            }
            if i == n / 2 {
                recorder.flush();
                assert_eq!(buffered.snapshot().stages, direct.snapshot().stages);
            }
        }
        drop(recorder);
        let (got, want) = (buffered.snapshot(), direct.snapshot());
        assert_eq!(got.stages, want.stages);
        assert_eq!(got.end_to_end, want.end_to_end);
        let forward = (0..n).filter(|i| Stage::ALL[(i % 5) as usize] == Stage::Forward);
        assert_eq!(
            got.merged_stage(Stage::Forward).count,
            forward.count() as u64
        );
    }

    #[test]
    fn events_flow_into_snapshot_with_exact_counts() {
        let t = Telemetry::new(&TelemetryConfig::enabled(), 1, 1);
        for i in 0..3 {
            t.record_event(FleetEvent::StreamSteal {
                stream: i,
                from_shard: 0,
                to_shard: 1,
            });
        }
        t.record_event(FleetEvent::ModelSwap {
            group: 0,
            version: 2,
        });
        let snap = t.snapshot();
        assert_eq!(snap.events.recorded, 4);
        assert_eq!(snap.events.drained + snap.events.overwritten, 4);
        let steal = snap
            .events
            .counts
            .iter()
            .find(|c| c.kind == "stream_steal")
            .unwrap();
        assert_eq!(steal.count, 3);
        assert_eq!(snap.events.recent.len(), 4);
    }

    #[test]
    fn stage_labels_and_indices_are_consistent() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["queue_wait", "assembly", "normalize", "forward", "emit"]
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let t = Telemetry::new(&TelemetryConfig::enabled(), 2, 1);
        t.shard(0)
            .unwrap()
            .record_stage(0, Stage::QueueWait, Duration::from_micros(3));
        t.record_event(FleetEvent::SampleDrop { lane: 0, stream: 1 });
        let snap = t.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
