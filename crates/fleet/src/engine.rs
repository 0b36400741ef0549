//! The fleet engine: registry, scoped shard workers, work stealing and the
//! serve loop.
//!
//! # Serving architecture
//!
//! Every registered stream lives in one shared [`StreamCell`]: its mutable
//! scoring half (state + scores) behind a per-stream mutex, a pending-sample
//! deque behind a second mutex, and an atomic *owner* word naming the worker
//! currently scoring it. The driver pushes into per-`(producer lane, shard)`
//! ingress rings; each shard's worker drains its own rings and delivers
//! samples to the target stream's pending deque (wherever the stream is
//! currently owned). Owners pop pending samples *under the stream's scoring
//! lock*, which serializes pops with scoring — per-stream order, and
//! therefore bit-identical scores, survive any ownership migration.
//!
//! **Work stealing** moves whole streams: an idle worker scans for a peer's
//! stream with backlog and claims it with one compare-exchange on the owner
//! word. The stream's `StreamState` — window buffer, normalizer, stats and
//! incremental `EncoderCache` — never moves or resets; only the thread doing
//! the arithmetic changes, so a stolen stream's scores are bit-identical to
//! an unstolen run (pinned by `tests/steal_equivalence.rs`).
//!
//! **Idle workers park on a doorbell.** A worker whose pass drained nothing,
//! scored nothing and stole nothing parks on its shard's [`Doorbell`]: it
//! raises the doorbell's flag, re-checks its rings, an uncounted close, the
//! backlog of every stream it owns and the endgame, and sleeps only if all
//! four are idle. Whatever can give it work rings the doorbell after
//! publishing that work: [`FleetHandle::push_from`], a ring close, a delivery
//! to a stream a peer stole, and the last worker to finish its ingest. A
//! delivery that makes a backlog stealable rings one parked peer. The 1 ms
//! backstop bounds every wait; no wait depends on it for correctness (see
//! docs/CONCURRENCY.md), so an idle worker costs about one wake per
//! millisecond, and a sample at a parked worker one futex wake.
//!
//! **Hot-swap ordering**: a worker loads a group's published
//! `(detector, version)` *after* popping the samples of the current round,
//! so a sample pushed after [`FleetHandle::publish_model`] returns is always
//! scored by the new model (pop happens after push happens after publish;
//! model load happens after pop). A version change drops the stream's
//! cache, and its next push re-plans it against the new model.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use varade::{StreamState, VaradeDetector};
use varade_obs::spanclock::SpanStamp;
use varade_obs::{FleetEvent, ShardTelemetry, Stage, StageRecorder, Telemetry, TelemetrySnapshot};
use varade_timeseries::MinMaxNormalizer;

use crate::queue::{Doorbell, Envelope, RingQueue, Wake};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::{shard_of, FleetConfig, FleetError, FleetStats, GroupModelStats, ShardStats, StreamId};

/// Identifier of one model group — a fitted detector shared by any number of
/// streams — handed out by [`Fleet::register_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelGroupId(usize);

/// One model group's publication slot: the detector currently being served,
/// the previous one (kept for [`Fleet::rollback_model`]) and an epoch
/// counter. Shard workers load `(current, version)` once per scoring round,
/// so a publish lands atomically at the next round boundary — never in the
/// middle of a push, and never dropping a queued push.
///
/// A single mutex guards the whole record; it is held only for pointer-sized
/// copies (an `Arc` clone and two integers), never across a forward pass.
pub(crate) struct ModelSlot {
    inner: Mutex<SlotInner>,
}

struct SlotInner {
    current: Arc<VaradeDetector>,
    previous: Option<Arc<VaradeDetector>>,
    /// Monotonic publication epoch, starting at 1 for the registered model.
    /// A rollback gets a *new* version too — streams resynchronize their
    /// caches on any version change, whichever direction the weights moved.
    version: u64,
    /// Number of publish/rollback events since registration.
    swaps: u64,
}

impl ModelSlot {
    fn new(detector: Arc<VaradeDetector>) -> Self {
        Self {
            inner: Mutex::new(SlotInner {
                current: detector,
                previous: None,
                version: 1,
                swaps: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The served detector and its publication version, as one atomic read.
    pub(crate) fn load(&self) -> (Arc<VaradeDetector>, u64) {
        let inner = self.lock();
        (Arc::clone(&inner.current), inner.version)
    }

    fn stats(&self, group: usize) -> GroupModelStats {
        let inner = self.lock();
        GroupModelStats {
            group,
            model_version: inner.version,
            swap_count: inner.swaps,
        }
    }

    /// Swaps in `detector`, retiring the served model to the rollback slot.
    /// Validation runs against the *currently served* detector under the same
    /// lock, so two racing publishes cannot both validate against a model
    /// that neither ends up replacing.
    fn publish(&self, group: usize, detector: Arc<VaradeDetector>) -> Result<u64, FleetError> {
        let Some(new_channels) = detector.n_channels() else {
            return Err(FleetError::NotFitted);
        };
        let mut inner = self.lock();
        let serving = inner.current.as_ref();
        if detector.config().window != serving.config().window {
            return Err(FleetError::InvalidConfig(format!(
                "hot swap window mismatch: group {group} streams buffer {} samples, \
                 replacement wants {}",
                serving.config().window,
                detector.config().window
            )));
        }
        let serving_channels = serving.n_channels().expect("served models are fitted");
        if new_channels != serving_channels {
            return Err(FleetError::InvalidConfig(format!(
                "hot swap channel mismatch: group {group} serves {serving_channels} channels, \
                 replacement wants {new_channels}"
            )));
        }
        inner.previous = Some(std::mem::replace(&mut inner.current, detector));
        inner.version += 1;
        inner.swaps += 1;
        Ok(inner.version)
    }

    /// Swaps the previous model back in. Current and previous trade places,
    /// so an operator can flip between the last two published models; only a
    /// group that never saw a publish has nothing to roll back to.
    fn rollback(&self, group: usize) -> Result<u64, FleetError> {
        let mut inner = self.lock();
        let Some(previous) = inner.previous.take() else {
            return Err(FleetError::NoRollback { group });
        };
        inner.previous = Some(std::mem::replace(&mut inner.current, previous));
        inner.version += 1;
        inner.swaps += 1;
        Ok(inner.version)
    }
}

/// Immutable per-stream registration data (the mutable half is the
/// [`StreamState`], which moves into a shared [`StreamCell`] during a serve
/// window).
struct StreamMeta {
    group: usize,
    shard: usize,
    n_channels: usize,
}

/// Everything a serve window produced besides the driver's own return value.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Aggregate and per-shard throughput accounting.
    pub stats: FleetStats,
    /// Anomaly scores per stream, indexed by [`StreamId::index`], in push
    /// order. Streams still warming up have empty score vectors.
    pub scores: Vec<Vec<f32>>,
    /// Per-stream, per-score latencies, indexed like
    /// [`FleetOutcome::scores`]; empty unless
    /// [`FleetConfig::record_latencies`] is on. Each entry is the sample's
    /// *end-to-end* latency — from the producer's push to the score landing,
    /// including queue wait — which is what a per-stream p99 SLO should
    /// measure.
    pub latencies: Vec<Vec<Duration>>,
    /// Merged telemetry snapshot taken when the serve window closes; `None`
    /// unless [`FleetConfig::telemetry`] is enabled. Like
    /// [`Fleet::telemetry`], its histograms and counters are cumulative:
    /// they cover every serve window since [`Fleet::new`] (or since the last
    /// [`Fleet::register_model`] re-partitioned them), not this window
    /// alone. One window's own distribution is the bucket-wise difference
    /// from a snapshot taken before it.
    /// Taking it drains the event ring, so events appear either here or in
    /// an earlier [`FleetHandle::telemetry`] snapshot, never both (totals
    /// stay exact).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// A sharded multi-stream scoring engine (see the crate docs for the model).
///
/// Build one with [`Fleet::new`], register model groups and streams, then
/// call [`Fleet::run`] with a driver closure that feeds samples through the
/// provided [`FleetHandle`]. `run` may be called repeatedly: stream windows
/// and stats persist across serve windows, so a fleet can alternate between
/// bursts of traffic and idle periods without losing warm-up.
pub struct Fleet {
    config: FleetConfig,
    groups: Vec<ModelSlot>,
    meta: Vec<StreamMeta>,
    states: Vec<StreamState>,
    /// The shared telemetry substrate (per-shard stage histograms plus the
    /// event ring). Built disabled-and-empty unless
    /// [`FleetConfig::telemetry`] asks for it; persists across serve windows
    /// so histograms accumulate, and is re-partitioned (resetting history)
    /// only when [`Fleet::register_model`] adds a model group.
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("config", &self.config)
            .field("groups", &self.groups.len())
            .field("streams", &self.meta.len())
            .finish()
    }
}

impl Fleet {
    /// Creates an empty fleet.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for zero shards, zero queue
    /// capacity or zero producer lanes.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        config.validate()?;
        let telemetry = Arc::new(Telemetry::new(&config.telemetry, config.n_shards, 0));
        Ok(Self {
            config,
            groups: Vec::new(),
            meta: Vec::new(),
            states: Vec::new(),
            telemetry,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Registers a fitted detector as a model group. The `Arc` is shared by
    /// every stream in the group and across all shard workers — scoring runs
    /// through the detector's immutable inference path, so no copies are
    /// made. The group starts at model version 1; later
    /// [`Fleet::publish_model`] calls swap the served detector without
    /// stopping the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NotFitted`] for an unfitted detector.
    pub fn register_model(
        &mut self,
        detector: Arc<VaradeDetector>,
    ) -> Result<ModelGroupId, FleetError> {
        if detector.n_channels().is_none() {
            return Err(FleetError::NotFitted);
        }
        self.groups.push(ModelSlot::new(detector));
        if self.telemetry.is_enabled() && self.telemetry.n_groups() != self.groups.len() {
            // Stage histograms are partitioned by model group, so adding a
            // group re-partitions (and resets) the substrate. Groups are
            // normally all registered before the first serve window, where
            // there is no history to lose.
            self.telemetry = Arc::new(Telemetry::new(
                &self.config.telemetry,
                self.config.n_shards,
                self.groups.len(),
            ));
        }
        Ok(ModelGroupId(self.groups.len() - 1))
    }

    /// Publishes a new detector to a model group — the zero-downtime hot
    /// swap. The previous model is retired to a rollback slot and the group's
    /// version is bumped; shard workers pick the new model up at their next
    /// scoring round boundary, dropping each affected stream's incremental
    /// cache (its columns were computed under the old weights; the stream's
    /// next push re-plans it) while keeping every queued push. Streams
    /// buffered mid-window simply have their context re-scored under the new
    /// model — no push is ever dropped by a swap.
    ///
    /// Callable between serve windows; for publishing *during* one, see
    /// [`FleetHandle::publish_model`]. Returns the group's new version.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`ModelGroupId`],
    /// [`FleetError::NotFitted`] for an unfitted replacement, and
    /// [`FleetError::InvalidConfig`] if the replacement's window or channel
    /// count differs from the served model's (stream buffers are sized for
    /// them; everything else — weights, feature-map widths and scoring rule
    /// — may change).
    pub fn publish_model(
        &self,
        group: ModelGroupId,
        detector: Arc<VaradeDetector>,
    ) -> Result<u64, FleetError> {
        let version = self.slot(group)?.publish(group.0, detector)?;
        self.telemetry.record_event(FleetEvent::ModelSwap {
            group: group.0 as u64,
            version,
        });
        Ok(version)
    }

    /// Rolls a model group back to its previously served detector (current
    /// and previous trade places, so a second rollback re-applies the
    /// publish). The version is bumped again — versions are publication
    /// epochs, not weight identities — so workers resynchronize exactly as
    /// for a forward publish. Returns the new version.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`ModelGroupId`] and
    /// [`FleetError::NoRollback`] if the group was never published to.
    pub fn rollback_model(&self, group: ModelGroupId) -> Result<u64, FleetError> {
        let version = self.slot(group)?.rollback(group.0)?;
        self.telemetry.record_event(FleetEvent::ModelRollback {
            group: group.0 as u64,
            version,
        });
        Ok(version)
    }

    /// Merged telemetry snapshot of the whole substrate (see
    /// [`Telemetry::snapshot`]): per-(shard, group, stage) latency
    /// histograms, end-to-end distributions, queue-depth gauges and the
    /// event-ring drain. Cheap and empty when [`FleetConfig::telemetry`] is
    /// disabled. Draining is consuming for the verbatim recent events;
    /// histogram and counter totals are cumulative across serve windows.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The current publication version of a model group (1 after
    /// registration, +1 per publish or rollback).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`ModelGroupId`].
    pub fn model_version(&self, group: ModelGroupId) -> Result<u64, FleetError> {
        Ok(self.slot(group)?.load().1)
    }

    fn slot(&self, group: ModelGroupId) -> Result<&ModelSlot, FleetError> {
        self.groups
            .get(group.0)
            .ok_or_else(|| FleetError::UnknownId(format!("model group {}", group.0)))
    }

    fn group_stats(&self) -> Vec<GroupModelStats> {
        self.groups
            .iter()
            .enumerate()
            .map(|(group, slot)| slot.stats(group))
            .collect()
    }

    /// Admits one logical stream to a model group. Pass the stream's own
    /// [`MinMaxNormalizer`] (usually the training normalizer of its sensor)
    /// to normalize raw samples on the fly, or `None` for pre-normalized
    /// streams. The stream is assigned to shard
    /// `shard_of(id, config.n_shards)`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`ModelGroupId`] and
    /// [`FleetError::InvalidConfig`] if the normalizer's channel count does
    /// not match the model group's — caught here, where the caller can
    /// handle it, not at serve time inside a worker.
    pub fn register_stream(
        &mut self,
        group: ModelGroupId,
        normalizer: Option<MinMaxNormalizer>,
    ) -> Result<StreamId, FleetError> {
        let (detector, version) = self.slot(group)?.load();
        let n_channels = detector.n_channels().expect("registered groups are fitted");
        if let Some(norm) = &normalizer {
            if norm.n_channels() != n_channels {
                return Err(FleetError::InvalidConfig(format!(
                    "normalizer covers {} channels, model group {} expects {}",
                    norm.n_channels(),
                    group.0,
                    n_channels
                )));
            }
        }
        let window = detector.config().window;
        let id = StreamId(self.meta.len());
        self.meta.push(StreamMeta {
            group: group.0,
            shard: shard_of(id.index(), self.config.n_shards),
            n_channels,
        });
        let mut state = StreamState::new(n_channels, window, normalizer)?;
        // Telemetry's assembly/normalize spans come from the stream's own
        // admission stage timing.
        state.set_stage_timing(self.telemetry.is_enabled());
        // Stamp the stream with the version it registered under, so the
        // first serve round doesn't mistake registration for a swap and
        // trace a spurious cache invalidation. The stream plans its
        // incremental cache on its first scored push; the cache travels
        // with the state into the shard workers and persists across serve
        // windows.
        state.sync_model_version(version);
        self.states.push(state);
        Ok(id)
    }

    /// Number of registered streams.
    pub fn n_streams(&self) -> usize {
        self.meta.len()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// The shard a stream is assigned to.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`StreamId`].
    pub fn shard_of_stream(&self, stream: StreamId) -> Result<usize, FleetError> {
        self.meta
            .get(stream.index())
            .map(|m| m.shard)
            .ok_or_else(|| FleetError::UnknownId(stream.to_string()))
    }

    /// Cumulative [`varade::PushStats`] of one stream (across serve windows).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`StreamId`].
    pub fn stream_stats(&self, stream: StreamId) -> Result<varade::PushStats, FleetError> {
        self.states
            .get(stream.index())
            .map(|s| s.stats())
            .ok_or_else(|| FleetError::UnknownId(stream.to_string()))
    }

    /// Opens a serve window: spawns one scoped worker thread per shard, hands
    /// the driver a [`FleetHandle`] to push samples through, and — once the
    /// driver returns — closes the ingress queues, drains every backlog and
    /// joins the workers. Returns the driver's value and the window's
    /// [`FleetOutcome`].
    ///
    /// A driver error aborts the window but still drains and joins cleanly;
    /// the error is returned after the workers are down.
    ///
    /// # Errors
    ///
    /// Returns the driver's error, a worker's scoring error
    /// ([`FleetError::Varade`]), or [`FleetError::WorkerPanicked`].
    pub fn run<R>(
        &mut self,
        driver: impl FnOnce(&FleetHandle<'_>) -> Result<R, FleetError>,
    ) -> Result<(R, FleetOutcome), FleetError> {
        let n_shards = self.config.n_shards;
        let lanes = self.config.producer_lanes;
        let telemetry = &self.telemetry;
        // One ingress ring per producer→shard edge, indexed shard-major.
        let queues: Vec<RingQueue> = (0..n_shards * lanes)
            .map(|edge| {
                let mut queue = RingQueue::new(self.config.queue_capacity);
                if telemetry.is_enabled() {
                    queue.attach_events(Arc::clone(telemetry), (edge % lanes) as u64);
                }
                queue
            })
            .collect();

        // Stream stats are cumulative across serve windows; the shard report
        // covers only this window, so remember where each stream started.
        let baselines: Vec<varade::PushStats> = self.states.iter().map(|s| s.stats()).collect();

        // Move each stream's state into a shared cell for the duration of
        // the window; they come back (with updated buffers and stats) after
        // the workers join.
        let cells: Vec<StreamCell> = self
            .states
            .drain(..)
            .enumerate()
            .map(|(index, state)| {
                let meta = &self.meta[index];
                StreamCell::new(meta.group, meta.shard, state)
            })
            .collect();
        let shared = SharedState {
            ingest_done: AtomicUsize::new(0),
            bells: (0..n_shards).map(|_| Doorbell::new()).collect(),
            work_stealing: self.config.work_stealing && cells.len() > 1,
        };

        // LINT-ALLOW: instant-hot-path — once-per-serve-window wall clock for the outcome's elapsed field, not per-sample timing.
        let started = Instant::now();
        let (driver_result, worker_results) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..n_shards)
                .map(|shard| {
                    let my_queues = &queues[shard * lanes..(shard + 1) * lanes];
                    let cells = &cells;
                    let groups = &self.groups;
                    let config = &self.config;
                    let shared = &shared;
                    let telemetry = telemetry.as_ref();
                    scope.spawn(move || {
                        run_worker(shard, cells, my_queues, groups, config, shared, telemetry)
                    })
                })
                .collect();
            let handle = FleetHandle {
                queues: &queues,
                bells: &shared.bells,
                lanes,
                meta: &self.meta,
                groups: &self.groups,
                policy: self.config.overload,
                // Telemetry needs the ingress timestamp for the queue-wait
                // and end-to-end histograms even when the driver did not ask
                // for per-stream latency vectors.
                stamp_ingress: self.config.record_latencies || telemetry.is_enabled(),
                telemetry: telemetry.as_ref(),
            };
            // Close the queues when the driver is done — including by
            // panicking. Catching the unwind (and re-raising it only after
            // the workers have handed the stream states back) keeps a driver
            // panic from deadlocking `thread::scope` on workers blocked on
            // ingest, and from corrupting the fleet's registry. The guard
            // backstops the close even if the catch machinery itself unwinds.
            let closer = CloseOnDrop {
                queues: &queues,
                lanes,
                bells: &shared.bells,
            };
            let driver_result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver(&handle)));
            drop(closer);
            let worker_results: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(shard, worker)| {
                    worker
                        .join()
                        .map_err(|_| FleetError::WorkerPanicked { shard })
                })
                .collect();
            (driver_result, worker_results)
        });
        let elapsed = started.elapsed();

        // Pull every stream's state and scores back out of the shared cells
        // (this happens on every path, so neither a driver nor a worker
        // error leaks the fleet's streams), then attribute each stream's
        // PushStats delta to its *home* shard — a steal moves the labor, not
        // the accounting, so per-shard numbers stay comparable across runs.
        let mut scores: Vec<Vec<f32>> = vec![Vec::new(); self.meta.len()];
        let mut latencies: Vec<Vec<Duration>> = vec![Vec::new(); self.meta.len()];
        let mut home_push: Vec<varade::PushStats> = vec![varade::PushStats::default(); n_shards];
        let mut home_streams: Vec<usize> = vec![0; n_shards];
        self.states = Vec::with_capacity(self.meta.len());
        for (index, cell) in cells.into_iter().enumerate() {
            let slot = cell.into_score_slot();
            let baseline = &baselines[index];
            let current = slot.state.stats();
            home_push[self.meta[index].shard].merge(&varade::PushStats {
                pushes: current.pushes - baseline.pushes,
                scores: current.scores - baseline.scores,
                total_time: current.total_time - baseline.total_time,
                scoring_time: current.scoring_time - baseline.scoring_time,
                normalize_time: current.normalize_time - baseline.normalize_time,
                assembly_time: current.assembly_time - baseline.assembly_time,
            });
            home_streams[self.meta[index].shard] += 1;
            scores[index] = slot.scores;
            latencies[index] = slot.latencies;
            self.states.push(slot.state);
        }

        let mut shard_stats = Vec::with_capacity(n_shards);
        let mut first_error = None;
        for joined in worker_results {
            match joined {
                Ok(output) => {
                    let shard = output.shard;
                    shard_stats.push(ShardStats {
                        shard,
                        streams: home_streams[shard],
                        push: std::mem::take(&mut home_push[shard]),
                        dropped: output.dropped,
                        steals: output.counters.steals,
                        parks: output.counters.parks,
                        park_timeouts: output.counters.park_timeouts,
                        sample_latencies: output.counters.sample_latencies,
                        queue_depth_high_water: output.counters.queue_depth_high_water,
                    });
                    first_error = first_error.or(output.error);
                }
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        // Everything is restored; a panicking driver can now unwind without
        // taking the fleet's streams with it.
        let driver_result = match driver_result {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        if let Some(e) = first_error {
            return Err(e);
        }
        let value = driver_result?;
        let mut stats = FleetStats::from_shards(shard_stats, elapsed);
        stats.groups = self.group_stats();
        Ok((
            value,
            FleetOutcome {
                stats,
                scores,
                latencies,
                telemetry: self
                    .telemetry
                    .is_enabled()
                    .then(|| self.telemetry.snapshot()),
            },
        ))
    }
}

/// Closes every queue when dropped — normally or during a panic unwind — so
/// shard workers always see end-of-stream and [`Fleet::run`] can join them.
struct CloseOnDrop<'a> {
    /// Every ingress ring, shard-major (`lanes` per shard).
    queues: &'a [RingQueue],
    lanes: usize,
    bells: &'a [Doorbell],
}

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        for (shard, bell) in self.bells.iter().enumerate() {
            close_shard(
                &self.queues[shard * self.lanes..(shard + 1) * self.lanes],
                bell,
            );
        }
    }
}

/// Closes one shard's ingress rings, then rings its doorbell: the SeqCst
/// `closed` stores come first, so a worker that parked before them is woken
/// and one that parks after them sees the close in its re-check.
fn close_shard(queues: &[RingQueue], bell: &Doorbell) {
    for queue in queues {
        queue.close();
    }
    bell.ring();
}

/// The driver's view of a serving fleet: push samples, observe backpressure,
/// publish models mid-serve.
///
/// The handle is `Sync`: a multi-threaded driver may share it across its own
/// producer threads, giving each thread its own lane via
/// [`FleetHandle::push_from`] so every producer→shard edge stays
/// single-producer (the Zipf ledger test in `tests/zipf_ledger.rs` does
/// exactly this).
pub struct FleetHandle<'a> {
    queues: &'a [RingQueue],
    /// One doorbell per shard, rung after every push into its rings.
    bells: &'a [Doorbell],
    lanes: usize,
    meta: &'a [StreamMeta],
    groups: &'a [ModelSlot],
    policy: crate::OverloadPolicy,
    /// Whether pushes stamp an ingress timestamp: on when per-stream latency
    /// vectors were requested *or* telemetry needs queue-wait spans.
    stamp_ingress: bool,
    telemetry: &'a Telemetry,
}

impl FleetHandle<'_> {
    /// Pushes one raw sample onto `stream`'s shard queue (lane 0), applying
    /// the fleet's [`crate::OverloadPolicy`] if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign stream,
    /// [`FleetError::SampleWidth`] for a misshapen sample,
    /// [`FleetError::NonFiniteSample`] for a sample carrying a NaN or an
    /// infinity (rejected here, so it never reaches the queue, the stream's
    /// window or its cache, and the sample ledger never counts it), and
    /// [`FleetError::QueueFull`] under [`crate::OverloadPolicy::Reject`] on
    /// a saturated shard.
    pub fn push(&self, stream: StreamId, sample: &[f32]) -> Result<(), FleetError> {
        self.push_from(0, stream, sample)
    }

    /// Pushes one raw sample through producer lane `lane` — each lane has
    /// its own ingress ring per shard, so concurrent producer threads never
    /// share an edge. Per-stream ordering is guaranteed only if a given
    /// stream is always pushed from the same lane.
    ///
    /// # Errors
    ///
    /// As [`FleetHandle::push`], plus [`FleetError::UnknownId`] for a lane
    /// outside `0..producer_lanes`.
    pub fn push_from(
        &self,
        lane: usize,
        stream: StreamId,
        sample: &[f32],
    ) -> Result<(), FleetError> {
        if lane >= self.lanes {
            return Err(FleetError::UnknownId(format!("producer lane {lane}")));
        }
        let meta = self
            .meta
            .get(stream.index())
            .ok_or_else(|| FleetError::UnknownId(stream.to_string()))?;
        if sample.len() != meta.n_channels {
            return Err(FleetError::SampleWidth {
                stream,
                expected: meta.n_channels,
                got: sample.len(),
            });
        }
        if let Some(channel) = sample.iter().position(|v| !v.is_finite()) {
            return Err(FleetError::NonFiniteSample { stream, channel });
        }
        let envelope = Envelope {
            stream,
            sample: sample.to_vec(),
            // Stamped before any blocking, so a `Block`-policy wait shows up
            // in the end-to-end latency — as it should.
            enqueued_at: self.stamp_ingress.then(SpanStamp::now),
        };
        let pushed =
            self.queues[meta.shard * self.lanes + lane].push(envelope, self.policy, meta.shard);
        // After the push's SeqCst `in_flight` decrement: a worker parked
        // before it wakes, one that parks after it sees the sample.
        self.bells[meta.shard].ring();
        pushed
    }

    /// Publishes a new detector to a model group **while the fleet is
    /// serving** — the mid-serve counterpart of [`Fleet::publish_model`],
    /// with the same validation and version semantics. When this returns,
    /// every sample pushed *afterwards* is guaranteed to be scored by the
    /// new model (or a newer one): workers load each group's slot after
    /// popping a round's samples, and a pop necessarily happens after the
    /// sample's push. Samples already queued or in flight finish under
    /// whichever model their round loaded; none are dropped.
    ///
    /// # Errors
    ///
    /// Same contract as [`Fleet::publish_model`].
    pub fn publish_model(
        &self,
        group: ModelGroupId,
        detector: Arc<VaradeDetector>,
    ) -> Result<u64, FleetError> {
        let version = self.slot(group)?.publish(group.0, detector)?;
        self.telemetry.record_event(FleetEvent::ModelSwap {
            group: group.0 as u64,
            version,
        });
        Ok(version)
    }

    /// Rolls a model group back mid-serve (see [`Fleet::rollback_model`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Fleet::rollback_model`].
    pub fn rollback_model(&self, group: ModelGroupId) -> Result<u64, FleetError> {
        let version = self.slot(group)?.rollback(group.0)?;
        self.telemetry.record_event(FleetEvent::ModelRollback {
            group: group.0 as u64,
            version,
        });
        Ok(version)
    }

    /// Live telemetry snapshot taken *mid-serve* — the operator's "what is
    /// the fleet doing right now" probe (see [`Fleet::telemetry`] for the
    /// between-windows counterpart). Stage and end-to-end histograms are
    /// cumulative; the verbatim recent events are drained, so an event shows
    /// up in exactly one snapshot while the per-kind totals remain exact.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The current publication version of a model group (see
    /// [`Fleet::model_version`]).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownId`] for a foreign [`ModelGroupId`].
    pub fn model_version(&self, group: ModelGroupId) -> Result<u64, FleetError> {
        Ok(self.slot(group)?.load().1)
    }

    fn slot(&self, group: ModelGroupId) -> Result<&ModelSlot, FleetError> {
        self.groups
            .get(group.0)
            .ok_or_else(|| FleetError::UnknownId(format!("model group {}", group.0)))
    }

    /// Number of samples currently queued on a shard, summed over its
    /// producer lanes (a congestion probe for load-shedding drivers).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards`. (A panicking driver is safe: the serve
    /// window shuts down cleanly and the panic propagates out of
    /// [`Fleet::run`].)
    pub fn queue_len(&self, shard: usize) -> usize {
        self.queues[shard * self.lanes..(shard + 1) * self.lanes]
            .iter()
            .map(RingQueue::len)
            .sum()
    }
}

/// One sample delivered to a stream's pending deque, carrying its original
/// enqueue timestamp for end-to-end latency accounting.
struct PendingSample {
    sample: Vec<f32>,
    enqueued_at: Option<SpanStamp>,
}

/// The mutable scoring half of one stream, guarded by the cell's slot mutex.
struct ScoreSlot {
    state: StreamState,
    scores: Vec<f32>,
    latencies: Vec<Duration>,
}

/// One registered stream's shared serve-window record (see the module docs
/// for the ownership/steal protocol).
///
/// Lock order is `slot` → `pending`: scorers take the slot lock first and
/// pop pending under it; the delivering worker takes only `pending`. A
/// round holds one slot lock at a time and takes it with `try_lock`, so a
/// worker with a stale ownership list skips a slot a peer holds instead of
/// waiting on it.
struct StreamCell {
    group: usize,
    /// The shard whose ingress rings feed this stream (and the shard its
    /// stats are attributed to). Never changes.
    home: usize,
    /// The worker currently scoring this stream. Starts at `home`; a thief
    /// claims the stream with one compare-exchange here.
    owner: AtomicUsize,
    /// `pending.len()`, maintained so steal scans and the termination check
    /// read an atomic instead of locking every deque. Incremented *before*
    /// the push and decremented *after* the pop, so it never undercounts.
    queued: AtomicUsize,
    pending: Mutex<std::collections::VecDeque<PendingSample>>,
    slot: Mutex<ScoreSlot>,
}

impl StreamCell {
    fn new(group: usize, home: usize, state: StreamState) -> Self {
        Self {
            group,
            home,
            owner: AtomicUsize::new(home),
            queued: AtomicUsize::new(0),
            pending: Mutex::new(std::collections::VecDeque::new()),
            slot: Mutex::new(ScoreSlot {
                state,
                scores: Vec::new(),
                latencies: Vec::new(),
            }),
        }
    }

    /// Queues one sample for whichever worker owns the stream, then rings
    /// the worker that should act on it: the owner when a peer stole the
    /// stream, or one parked peer when this delivery makes the backlog
    /// stealable. `shard` is the delivering worker, awake by definition.
    fn deliver(&self, sample: PendingSample, shard: usize, shared: &SharedState) {
        // ORDERING: SeqCst — `queued` is the cross-worker work-visibility
        // signal: the endgame emptiness sweep and the owner's doorbell
        // re-check must totally order against every deliver/pop, so a worker
        // can neither terminate nor sleep while a sample it cannot see is
        // pending (see docs/CONCURRENCY.md).
        let backlog = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(sample);
        // ORDERING: SeqCst — read after the `queued` increment and ordered
        // with the SeqCst steal CAS, so a thief that parks after stealing
        // this stream is either seen here (and rung) or sees the increment
        // in its re-check.
        let owner = self.owner.load(Ordering::SeqCst);
        if owner != shard {
            shared.bells[owner].ring();
        } else if shared.work_stealing && backlog == STEAL_MIN_PENDING {
            // Best effort, for prompt stealing: the peers' re-checks do not
            // scan for steal candidates, so a peer that parks after this
            // ring waits for its next wake.
            let _ = shared
                .bells
                .iter()
                .enumerate()
                .any(|(peer, bell)| peer != shard && bell.ring());
        }
    }

    /// Pops one pending sample. Callers must hold the cell's slot lock —
    /// that is what serializes pop+score and keeps per-stream order across
    /// ownership migrations.
    fn pop_pending(&self) -> Option<PendingSample> {
        let popped = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front();
        if popped.is_some() {
            // ORDERING: SeqCst — mirror of `deliver` (see there).
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        popped
    }

    /// Discards every pending sample (the error path's backlog flush).
    fn clear_pending(&self) {
        let mut pending = self
            .pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = pending.len();
        pending.clear();
        drop(pending);
        if n > 0 {
            // ORDERING: SeqCst — mirror of `deliver` (see there).
            self.queued.fetch_sub(n, Ordering::SeqCst);
        }
    }

    fn into_score_slot(self) -> ScoreSlot {
        self.slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Cross-worker coordination for one serve window.
struct SharedState {
    /// Workers whose ingress rings are closed and fully drained. Once this
    /// reaches the worker count, no new pending sample can appear anywhere,
    /// so "every pending deque empty" becomes a stable termination condition.
    ingest_done: AtomicUsize,
    /// One doorbell per shard worker (see [`Doorbell`]).
    bells: Vec<Doorbell>,
    /// Whether idle workers steal: on in the config and more than one
    /// stream to steal from.
    work_stealing: bool,
}

impl SharedState {
    /// Whether every worker has finished its ingest.
    fn endgame(&self) -> bool {
        // ORDERING: SeqCst — the endgame read must order after every
        // worker's `ingest_done` increment and before the `queued` sweep
        // that follows it; any deliver racing this pair is seen by one of
        // the two.
        self.ingest_done.load(Ordering::SeqCst) == self.bells.len()
    }

    /// Counts one worker's ingest as finished. The last count starts the
    /// endgame, so it rings every doorbell: parked workers must wake to
    /// steal the leftovers or to exit.
    fn finish_ingest(&self) {
        // ORDERING: SeqCst — `ingest_done` anchors the endgame total order
        // with `queued` (see `StreamCell::deliver`), and precedes the
        // doorbells' flag loads (see `Doorbell::ring`).
        if self.ingest_done.fetch_add(1, Ordering::SeqCst) + 1 == self.bells.len() {
            for bell in &self.bells {
                bell.ring();
            }
        }
    }
}

/// A thief only bothers with streams whose backlog is at least this deep
/// while ingest is still open (stealing a single sample rarely pays for the
/// cache-line traffic). During the endgame — all ingest done — the threshold
/// drops to 1 so no accepted sample is ever stranded on a slow or dead
/// worker.
const STEAL_MIN_PENDING: usize = 2;

struct WorkerOutput {
    shard: usize,
    counters: WorkerCounters,
    /// Samples evicted from this shard's ingress rings (`DropOldest`).
    dropped: u64,
    /// First scoring/admission error the worker hit, if any. Stream states
    /// live in the shared cells and are recovered even on error.
    error: Option<FleetError>,
}

/// Mutable scoring counters threaded through one worker's serve window.
/// Steal and latency numbers are attributed to the worker that did the
/// arithmetic (which, under stealing, may not be a stream's home shard).
#[derive(Default)]
struct WorkerCounters {
    steals: u64,
    /// Doorbell waits: parks whose re-check found nothing to do.
    parks: u64,
    /// The parks that ran the whole backstop without a ring.
    park_timeouts: u64,
    sample_latencies: Vec<Duration>,
    /// Largest ingress backlog seen at any of this worker's drain points
    /// (summed across its lanes) — feeds
    /// [`ShardStats::queue_depth_high_water`], and is maintained whether or
    /// not telemetry is enabled.
    queue_depth_high_water: u64,
}

/// The shard worker: drain this shard's ingress rings, deliver to the target
/// streams' pending deques, then process one *round* — one pending sample
/// per owned stream, scored through the stream's incremental cache. Idle
/// workers steal backlogged streams from peers, and park on their shard's
/// doorbell when there is nothing to steal; all workers exit once every
/// ring is closed-and-drained and every pending deque is empty.
///
/// Never loses the stream states (they live in the shared cells): on a
/// scoring/admission error the worker closes its own rings (so a
/// `Block`-policy driver wakes with [`FleetError::Closed`] instead of
/// waiting forever on a dead shard), flushes its backlog, and returns the
/// error.
fn run_worker(
    shard: usize,
    cells: &[StreamCell],
    my_queues: &[RingQueue],
    groups: &[ModelSlot],
    config: &FleetConfig,
    shared: &SharedState,
    telemetry: &Telemetry,
) -> WorkerOutput {
    let mut counters = WorkerCounters::default();
    let mut owned: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter(|(_, cell)| cell.home == shard)
        .map(|(index, _)| index)
        .collect();
    let mut ingest_counted = false;
    let error = serve_loop(
        shard,
        cells,
        my_queues,
        groups,
        config,
        shared,
        telemetry,
        &mut owned,
        &mut counters,
        &mut ingest_counted,
    )
    .err();
    if error.is_some() {
        // Match the legacy error contract: close our ingress edges (waking
        // any blocked producer), discard the backlog, and let the window
        // shut down. Other live workers may still steal and finish streams
        // we owned; anything we clear here is simply abandoned, exactly as
        // the old single-queue engine abandoned its backlog.
        close_shard(my_queues, &shared.bells[shard]);
        for queue in my_queues {
            while !queue.try_drain(usize::MAX).is_empty() {}
        }
        for &index in &owned {
            // ORDERING: Acquire — pairs with the SeqCst owner CAS in
            // `try_steal`; seeing ourselves as owner orders us after the
            // last completed steal of this cell.
            if cells[index].owner.load(Ordering::Acquire) == shard {
                cells[index].clear_pending();
            }
        }
        if !ingest_counted {
            // Without this the surviving workers would wait forever for our
            // rings to drain.
            shared.finish_ingest();
        }
    }
    WorkerOutput {
        shard,
        counters,
        dropped: my_queues.iter().map(RingQueue::dropped).sum(),
        error,
    }
}

/// The worker's serve loop proper (see [`run_worker`] for the error
/// contract).
///
/// Each pass drains the shard's rings, scores one round, and — when both
/// were empty — tries one steal and the termination check. A pass that did
/// none of these parks on the shard's doorbell (see the module docs); there
/// is no spin or poll phase, so an idle worker sleeps until a ring or the
/// 1 ms backstop.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    shard: usize,
    cells: &[StreamCell],
    my_queues: &[RingQueue],
    groups: &[ModelSlot],
    config: &FleetConfig,
    shared: &SharedState,
    telemetry: &Telemetry,
    owned: &mut Vec<usize>,
    counters: &mut WorkerCounters,
    ingest_counted: &mut bool,
) -> Result<(), FleetError> {
    // Hoisted once per worker: the disabled path never re-checks telemetry
    // inside the serve loop (`shard()` returns `None` when disabled). Stage
    // spans go through a write-local recorder that batches them into the
    // shared registry; dropping it at worker exit flushes the tail, so
    // post-window snapshots are exact.
    let shard_telemetry = telemetry.shard(shard);
    let mut recorder = shard_telemetry.map(ShardTelemetry::recorder);
    let mut steal_cursor = shard % cells.len().max(1);
    let bell = &shared.bells[shard];
    loop {
        // --- Ingest: drain up to one capacity's worth per lane, deliver to
        // the target streams (wherever they are currently owned).
        let mut drained_any = false;
        if !*ingest_counted {
            let mut all_done = true;
            let mut drained_total = 0u64;
            for queue in my_queues {
                let batch = queue.try_drain(config.queue_capacity);
                if !batch.is_empty() {
                    drained_any = true;
                    drained_total += batch.len() as u64;
                    for envelope in batch {
                        cells[envelope.stream.index()].deliver(
                            PendingSample {
                                sample: envelope.sample,
                                enqueued_at: envelope.enqueued_at,
                            },
                            shard,
                            shared,
                        );
                    }
                }
                if !queue.is_quiescent() {
                    all_done = false;
                }
            }
            if drained_total > 0 {
                // The backlog that had accumulated by this drain point,
                // summed across the shard's lanes.
                if drained_total > counters.queue_depth_high_water {
                    counters.queue_depth_high_water = drained_total;
                }
                if let Some(tel) = shard_telemetry {
                    tel.observe_queue_depth(drained_total);
                }
            }
            if all_done {
                shared.finish_ingest();
                *ingest_counted = true;
            }
        }
        if drained_any {
            if let Some(delay) = config.chaos_round_delay {
                // Test-only throttle: give the driver time to saturate the
                // bounded rings so overload policies actually trigger.
                std::thread::sleep(delay);
            }
        }

        // --- One scoring round over the streams this worker owns.
        let processed = run_round(
            shard,
            cells,
            owned,
            groups,
            config,
            counters,
            telemetry,
            recorder.as_mut(),
        )?;
        if processed > 0 || drained_any {
            continue;
        }

        // Idle moment: publish buffered spans so a live snapshot taken
        // while the fleet is quiescent sees exact totals.
        if let Some(rec) = recorder.as_mut() {
            rec.flush();
        }

        // --- Idle: steal backlog, or terminate once nothing can arrive.
        let endgame = shared.endgame();
        if shared.work_stealing {
            let min_pending = if endgame { 1 } else { STEAL_MIN_PENDING };
            if try_steal(
                shard,
                cells,
                owned,
                &mut steal_cursor,
                min_pending,
                counters,
                telemetry,
            ) {
                continue;
            }
        }
        // ORDERING: SeqCst — emptiness sweep; pairs with the SeqCst
        // `queued` RMWs so no pending sample can hide from a terminating
        // worker (see `deliver`).
        if endgame
            && !cells
                .iter()
                .any(|cell| cell.queued.load(Ordering::SeqCst) > 0)
        {
            return Ok(());
        }

        // --- Park until something rings. The re-check covers every source
        // that rings this doorbell (a stealable backlog at a peer is best
        // effort, see `StreamCell::deliver`).
        let woke = bell.park(|| {
            my_queues.iter().any(RingQueue::has_pending)
                || (!*ingest_counted && my_queues.iter().all(RingQueue::is_quiescent))
                // ORDERING: SeqCst — backlog gauge read after the doorbell
                // flag store; pairs with the SeqCst RMW in `deliver`.
                || owned.iter().any(|&index| cells[index].queued.load(Ordering::SeqCst) > 0)
                || (!endgame && shared.endgame())
        });
        if woke != Wake::Busy {
            counters.parks += 1;
            counters.park_timeouts += u64::from(woke == Wake::TimedOut);
            if let Some(tel) = shard_telemetry {
                tel.record_park(woke == Wake::TimedOut);
            }
        }
    }
}

/// An idle worker's steal scan: claim the first stream (from a rotating
/// cursor) owned by a peer with at least `min_pending` queued samples. The
/// claim is one compare-exchange on the owner word; winning it is what
/// [`WorkerCounters::steals`] counts, so the counter is exact by
/// construction.
#[allow(clippy::too_many_arguments)]
fn try_steal(
    shard: usize,
    cells: &[StreamCell],
    owned: &mut Vec<usize>,
    cursor: &mut usize,
    min_pending: usize,
    counters: &mut WorkerCounters,
    telemetry: &Telemetry,
) -> bool {
    let n = cells.len();
    for step in 0..n {
        let index = (*cursor + step) % n;
        let cell = &cells[index];
        // ORDERING: SeqCst — consistent view of the backlog gauge with the
        // endgame sweep (see `CellState::deliver`).
        if cell.queued.load(Ordering::SeqCst) < min_pending {
            continue;
        }
        // ORDERING: Acquire — pairs with the SeqCst CAS below so the read
        // sits in the cell's ownership chain.
        let owner = cell.owner.load(Ordering::Acquire);
        if owner == shard {
            continue;
        }
        // ORDERING: SeqCst success — the steal is a link in the ownership
        // release chain (the loser's prior writes happen-before the
        // winner's first slot access), and it precedes the thief's doorbell
        // flag store in the total order, so a delivery's SeqCst owner load
        // that misses the thief's re-check names the thief; Relaxed failure
        // — a lost race needs no ordering, we just move on.
        if cell
            .owner
            .compare_exchange(owner, shard, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            *cursor = (index + 1) % n;
            counters.steals += 1;
            telemetry.record_event(FleetEvent::StreamSteal {
                stream: index as u64,
                from_shard: owner as u64,
                to_shard: shard as u64,
            });
            owned.push(index);
            return true;
        }
    }
    false
}

/// One scoring round: pop at most one pending sample per owned stream (under
/// the stream's slot lock), load the stream's group model *after* that pop
/// (the publish-then-push guarantee, see the module docs), and push it
/// through [`StreamState::push_timed`] — the path `StreamingVarade::push`
/// takes. Returns the number of samples processed.
///
/// A sample is timed from its pop stamp, so its admission covers the
/// group-model load and version check as well as the stream's own
/// admission; adding its forward makes the served time that
/// [`varade::PushStats::total_time`] and the latency samples record.
///
/// When telemetry is enabled (`recorder` is `Some`), each admitted
/// sample's life is decomposed into per-stage spans: queue wait (enqueue →
/// pop), window assembly and normalization (timed inside the stream's
/// admission), model forward, and score emission — all buffered through the
/// worker's write-local [`StageRecorder`]. All per-sample timers here use
/// [`SpanStamp`] (same-thread spans, the span clock's cheap case), and
/// adjacent spans share one stamp per boundary: the pop stamp ends the
/// queue wait and opens the push, and the push's closing stamp opens the
/// emit. A sample's emit (and so its end-to-end span) stays open until the
/// worker's next stamp — the next sample's pop stamp, or one read at the
/// end of the loop — so it also carries the hand-off to that sample, and
/// with telemetry on a round reads the clock only once more than with it
/// off, beside the producer's enqueue stamps. [`varade::PushStats`] counts
/// and totals and the shard accounting are measured the same way with
/// telemetry on or off; only the stage split fields fill in when it is on.
#[allow(clippy::too_many_arguments)]
fn run_round(
    shard: usize,
    cells: &[StreamCell],
    owned: &mut Vec<usize>,
    groups: &[ModelSlot],
    config: &FleetConfig,
    counters: &mut WorkerCounters,
    telemetry: &Telemetry,
    mut recorder: Option<&mut StageRecorder<'_>>,
) -> Result<usize, FleetError> {
    // Cheap pruning of streams stolen from us; the authoritative check is
    // the owner re-read under the slot lock below.
    // ORDERING: Acquire — pairs with the SeqCst owner CAS in `try_steal`.
    owned.retain(|&index| cells[index].owner.load(Ordering::Acquire) == shard);
    let mut processed = 0usize;
    let mut open_emit: Option<OpenEmit> = None;
    for &index in owned.iter() {
        let cell = &cells[index];
        // ORDERING: SeqCst — backlog gauge read; pairs with the SeqCst
        // RMWs in `deliver`/`pop_pending`.
        if cell.queued.load(Ordering::SeqCst) == 0 {
            continue;
        }
        // try_lock, not lock: a stale owner on the other side of a steal may
        // still be mid-push on this slot; skipping it keeps this worker
        // moving instead of waiting on a stream it no longer owns.
        let Ok(mut slot) = cell.slot.try_lock() else {
            continue;
        };
        // ORDERING: Acquire — authoritative ownership re-check under the
        // slot lock; pairs with the SeqCst owner CAS in `try_steal`.
        if cell.owner.load(Ordering::Acquire) != shard {
            continue;
        }
        let Some(pending) = cell.pop_pending() else {
            continue;
        };
        processed += 1;
        // One stamp ends the queue-wait span and starts the admission span
        // (a cross-thread read: the producer stamped `enqueued_at`;
        // `duration_since` saturates to zero under stamp skew).
        let admit_started = SpanStamp::now();
        if let Some(tel) = recorder.as_deref_mut() {
            // The same stamp closes the previous sample's emit.
            if let Some(open) = open_emit.take() {
                open.close(tel, admit_started);
            }
            if let Some(enqueued) = pending.enqueued_at {
                tel.record_stage_ns(
                    cell.group,
                    Stage::QueueWait,
                    admit_started.nanos_since(enqueued),
                );
            }
        }
        let (detector, version) = groups[cell.group].load();
        if slot.state.sync_model_version(version) {
            // The stream's cache columns were computed under the old model;
            // `sync_model_version` dropped them, and the push below re-plans
            // the cache against the new detector (its layer geometry may
            // differ) and re-primes it by replaying its context.
            telemetry.record_event(FleetEvent::CacheInvalidation {
                stream: index as u64,
                model_version: version,
            });
        }
        // The pop stamp opens the push span, so admission covers the model
        // load above.
        let pushed = slot
            .state
            .push_timed(&pending.sample, &detector, admit_started)?;
        if let Some(tel) = recorder.as_deref_mut() {
            tel.record_stage(
                cell.group,
                Stage::Assembly,
                pushed.admit_time.saturating_sub(pushed.normalize_time),
            );
            tel.record_stage(cell.group, Stage::Normalize, pushed.normalize_time);
        }
        let Some(score) = pushed.score else {
            slot.state.record(false, pushed.admit_time, Duration::ZERO);
            continue;
        };
        let spent = pushed.scoring_time;
        let served = pushed.admit_time + spent;
        slot.scores.push(score);
        slot.state.record(true, served, spent);
        if config.record_latencies {
            counters.sample_latencies.push(served);
            let end_to_end = pending
                .enqueued_at
                .map_or(served, |t| SpanStamp::now().duration_since(t));
            slot.latencies.push(end_to_end);
        }
        if let Some(tel) = recorder.as_deref_mut() {
            tel.record_stage(cell.group, Stage::Forward, spent);
            open_emit = Some(OpenEmit {
                group: cell.group,
                started: pushed.finished,
                enqueued_at: pending.enqueued_at,
                served,
            });
        }
    }
    if let (Some(tel), Some(open)) = (recorder, open_emit) {
        open.close(tel, SpanStamp::now());
    }
    Ok(processed)
}

/// A sample's emit span, opened by its push-end stamp and left open until
/// the worker's next boundary stamp (see [`run_round`]).
struct OpenEmit {
    group: usize,
    started: SpanStamp,
    enqueued_at: Option<SpanStamp>,
    served: Duration,
}

impl OpenEmit {
    /// Records the emit span and the end-to-end span, both ending at `end`.
    fn close(self, tel: &mut StageRecorder<'_>, end: SpanStamp) {
        tel.record_stage_ns(self.group, Stage::Emit, end.nanos_since(self.started));
        match self.enqueued_at {
            Some(t) => tel.record_end_to_end_ns(end.nanos_since(t)),
            None => tel.record_end_to_end(self.served),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varade::VaradeConfig;
    use varade_timeseries::MultivariateSeries;

    fn tiny_config() -> VaradeConfig {
        VaradeConfig {
            window: 8,
            base_feature_maps: 8,
            epochs: 2,
            batch_size: 8,
            learning_rate: 2e-3,
            max_train_windows: 64,
            ..VaradeConfig::default()
        }
    }

    fn wave_series(n: usize) -> MultivariateSeries {
        let mut s = MultivariateSeries::new(vec!["a".into(), "b".into()], 10.0).unwrap();
        for t in 0..n {
            let v = (t as f32 * 0.3).sin();
            s.push_row(&[v, -v * 0.5]).unwrap();
        }
        s
    }

    fn fitted() -> Arc<VaradeDetector> {
        let mut det = VaradeDetector::new(tiny_config());
        det.fit_with_report(&wave_series(120)).unwrap();
        Arc::new(det)
    }

    #[test]
    fn registration_validates_ids_and_fitting() {
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        assert!(matches!(
            fleet.register_model(Arc::new(VaradeDetector::new(tiny_config()))),
            Err(FleetError::NotFitted)
        ));
        let group = fleet.register_model(fitted()).unwrap();
        assert!(fleet.register_stream(ModelGroupId(9), None).is_err());
        let stream = fleet.register_stream(group, None).unwrap();
        assert_eq!(fleet.n_streams(), 1);
        assert_eq!(fleet.shard_of_stream(stream).unwrap(), 0);
        assert!(fleet.shard_of_stream(StreamId(5)).is_err());
        assert!(fleet.stream_stats(StreamId(5)).is_err());
        assert_eq!(fleet.stream_stats(stream).unwrap().pushes, 0);
    }

    #[test]
    fn serves_many_streams_and_keeps_state_across_windows() {
        let mut fleet = Fleet::new(FleetConfig {
            n_shards: 2,
            ..FleetConfig::default()
        })
        .unwrap();
        let group = fleet.register_model(fitted()).unwrap();
        let streams: Vec<StreamId> = (0..6)
            .map(|_| fleet.register_stream(group, None).unwrap())
            .collect();
        let test = wave_series(20);
        let (pushed, outcome) = fleet
            .run(|handle| {
                let mut pushed = 0u64;
                for t in 0..test.len() {
                    for &s in &streams {
                        handle.push(s, test.row(t))?;
                        pushed += 1;
                    }
                }
                Ok(pushed)
            })
            .unwrap();
        assert_eq!(pushed, 120);
        assert_eq!(outcome.stats.global.pushes, 120);
        // Window 8: each stream produces 12 scores.
        assert_eq!(outcome.stats.global.scores, 6 * 12);
        for s in &streams {
            assert_eq!(outcome.scores[s.index()].len(), 12);
            assert_eq!(fleet.stream_stats(*s).unwrap().pushes, 20);
        }
        assert!(outcome.stats.samples_per_sec().unwrap() > 0.0);
        assert_eq!(outcome.stats.dropped, 0);

        // A second window continues the warm windows: scores arrive from the
        // first push.
        let (_, second) = fleet
            .run(|handle| {
                for &s in &streams {
                    handle.push(s, test.row(0))?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(second.stats.global.scores, 6);
        assert_eq!(fleet.stream_stats(streams[0]).unwrap().pushes, 21);
    }

    #[test]
    fn handle_validates_streams_and_sample_width() {
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        let group = fleet.register_model(fitted()).unwrap();
        let stream = fleet.register_stream(group, None).unwrap();
        let result = fleet.run(|handle| {
            assert!(matches!(
                handle.push(StreamId(7), &[0.0, 0.0]),
                Err(FleetError::UnknownId(_))
            ));
            assert!(matches!(
                handle.push(stream, &[0.0]),
                Err(FleetError::SampleWidth {
                    expected: 2,
                    got: 1,
                    ..
                })
            ));
            assert!(matches!(
                handle.push_from(3, stream, &[0.0, 0.0]),
                Err(FleetError::UnknownId(_))
            ));
            assert_eq!(handle.queue_len(0), 0);
            handle.push(stream, &[0.0, 0.0])
        });
        assert!(result.is_ok());
    }

    #[test]
    fn driver_panics_propagate_instead_of_deadlocking() {
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        let group = fleet.register_model(fitted()).unwrap();
        let stream = fleet.register_stream(group, None).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fleet.run(|handle| {
                handle.push(stream, &[0.5, 0.5])?;
                // Also the documented panic path: an out-of-range shard.
                let _ = handle.queue_len(99);
                Ok(())
            });
        }));
        // Without the catch/close shutdown path this would hang in
        // thread::scope instead of reaching here.
        assert!(caught.is_err());
        // The fleet survives intact: the sample pushed before the panic was
        // processed and the stream state restored, so the next window
        // continues from it.
        assert_eq!(fleet.stream_stats(stream).unwrap().pushes, 1);
        let (_, outcome) = fleet
            .run(|handle| handle.push(stream, &[0.1, 0.1]))
            .unwrap();
        assert_eq!(outcome.stats.global.pushes, 1);
        assert_eq!(fleet.stream_stats(stream).unwrap().pushes, 2);
    }

    #[test]
    fn mismatched_normalizer_is_rejected_at_registration() {
        use varade_timeseries::MultivariateSeries;
        let mut one_channel = MultivariateSeries::new(vec!["x".into()], 10.0).unwrap();
        for t in 0..20 {
            one_channel.push_row(&[t as f32]).unwrap();
        }
        let narrow = MinMaxNormalizer::fit(&one_channel).unwrap();
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        // The fitted detector expects 2 channels; a 1-channel normalizer must
        // fail here, not inside a shard worker at serve time.
        let group = fleet.register_model(fitted()).unwrap();
        assert!(matches!(
            fleet.register_stream(group, Some(narrow)),
            Err(FleetError::InvalidConfig(_))
        ));
    }

    #[test]
    fn driver_errors_still_drain_and_join_cleanly() {
        let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
        let group = fleet.register_model(fitted()).unwrap();
        let stream = fleet.register_stream(group, None).unwrap();
        let err = fleet
            .run(|handle| -> Result<(), FleetError> {
                handle.push(stream, &[0.5, 0.5])?;
                Err(FleetError::InvalidConfig("driver bailed".into()))
            })
            .unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)));
        // The pushed sample was still processed and the state restored.
        assert_eq!(fleet.stream_stats(stream).unwrap().pushes, 1);
        // The fleet remains serviceable.
        let (_, outcome) = fleet
            .run(|handle| handle.push(stream, &[0.1, 0.1]))
            .unwrap();
        assert_eq!(outcome.stats.global.pushes, 1);
        assert_eq!(fleet.stream_stats(stream).unwrap().pushes, 2);
    }

    #[test]
    fn one_and_three_producer_lanes_serve_identically() {
        let test = wave_series(20);
        let mut score_sets = Vec::new();
        for lanes in [1, 3] {
            let mut fleet = Fleet::new(FleetConfig {
                producer_lanes: lanes,
                ..FleetConfig::default()
            })
            .unwrap();
            let group = fleet.register_model(fitted()).unwrap();
            let stream = fleet.register_stream(group, None).unwrap();
            let (_, outcome) = fleet
                .run(|handle| {
                    for t in 0..test.len() {
                        // One stream sticks to one lane; which lane is free.
                        handle.push_from(lanes - 1, stream, test.row(t))?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(outcome.stats.global.pushes, 20);
            score_sets.push(outcome.scores[stream.index()].clone());
        }
        // Lane choice changes plumbing, not math.
        assert_eq!(score_sets[0], score_sets[1]);
    }

    #[test]
    fn latencies_record_per_stream_end_to_end_times() {
        let mut fleet = Fleet::new(FleetConfig {
            record_latencies: true,
            ..FleetConfig::default()
        })
        .unwrap();
        let group = fleet.register_model(fitted()).unwrap();
        let stream = fleet.register_stream(group, None).unwrap();
        let test = wave_series(20);
        let (_, outcome) = fleet
            .run(|handle| {
                for t in 0..test.len() {
                    handle.push(stream, test.row(t))?;
                }
                Ok(())
            })
            .unwrap();
        // One end-to-end latency per score, and it can never undercut the
        // processing-side share recorded in the shard stats.
        assert_eq!(
            outcome.latencies[stream.index()].len(),
            outcome.scores[stream.index()].len()
        );
        assert!(outcome.latencies[stream.index()]
            .iter()
            .all(|d| *d > Duration::ZERO));
    }
}
