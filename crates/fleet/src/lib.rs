//! # varade-fleet
//!
//! A sharded multi-stream serving engine for the VARADE reproduction.
//!
//! The paper's deployment story (§3.1, §4.3) is one inference script scoring
//! one sensor stream; real edge nodes multiplex *many* independent streams —
//! one per robot joint cluster, machine, or device — against a handful of
//! fitted models. This crate turns the single-stream [`varade::StreamingVarade`]
//! path into a serving engine:
//!
//! * **Registry** — [`Fleet`] admits model groups (one shared
//!   `Arc<`[`varade::VaradeDetector`]`>` each) and logical streams
//!   ([`StreamId`]), where a stream is just a [`varade::StreamState`]: window
//!   buffer + normalizer + stats, a few KB. A thousand streams cost buffer
//!   memory, not model copies.
//! * **Shards** — streams are partitioned across worker threads by a
//!   deterministic hash of their id ([`shard_of`]). Each shard owns one
//!   bounded lock-free ingress ring ([`RingQueue`]) per producer lane; the
//!   producer threads feed samples through a [`FleetHandle`].
//! * **Backpressure** — queue overflow behavior is an explicit, tested
//!   contract ([`OverloadPolicy`]): `Block` the producer, `DropOldest` with a
//!   drop counter, or `Reject` with a typed error. Overload is never an
//!   accident.
//! * **Incremental scoring** — each round, a shard pops one pending sample
//!   per stream it owns and pushes it through the stream's own
//!   [`varade::StreamState::push_timed`], the path
//!   [`varade::StreamingVarade::push`] takes: one column per layer against
//!   the stream's activation cache. A stream scored through the fleet so
//!   produces **bit-identical** values to the same samples pushed through
//!   `StreamingVarade` directly (see `tests/equivalence.rs`).
//! * **Hot swap** — [`Fleet::publish_model`] (and its mid-serve twin on
//!   [`FleetHandle`]) atomically replaces a group's served detector — e.g.
//!   one loaded via [`varade::VaradeDetector::load`] from a retraining job —
//!   with zero downtime: workers pick the new model up at their next scoring
//!   round boundary, incremental caches are dropped and re-planned by replay,
//!   and no queued push is ever dropped. [`Fleet::rollback_model`] swaps the
//!   previous model back; [`FleetStats::groups`] reports each group's
//!   publication version and swap count.
//! * **Stats** — per-stream [`varade::PushStats`] merge into per-shard
//!   [`ShardStats`] and a global [`FleetStats`] with wall-clock aggregate
//!   throughput, the number the `varade-bench` fleet experiment sweeps.
//!
//! # Examples
//!
//! Serve two synthetic streams against one shared detector:
//!
//! ```
//! use std::sync::Arc;
//! use varade::{VaradeConfig, VaradeDetector};
//! use varade_fleet::{Fleet, FleetConfig};
//! use varade_timeseries::MultivariateSeries;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut train = MultivariateSeries::new(vec!["x".into()], 10.0)?;
//! for t in 0..80 {
//!     train.push_row(&[(t as f32 * 0.4).sin()])?;
//! }
//! let mut detector = VaradeDetector::new(VaradeConfig {
//!     window: 8,
//!     base_feature_maps: 4,
//!     epochs: 1,
//!     ..VaradeConfig::default()
//! });
//! detector.fit_with_report(&train)?;
//!
//! let mut fleet = Fleet::new(FleetConfig::default())?;
//! let group = fleet.register_model(Arc::new(detector))?;
//! let a = fleet.register_stream(group, None)?;
//! let b = fleet.register_stream(group, None)?;
//! let (_, outcome) = fleet.run(|handle| {
//!     for t in 0..20 {
//!         let v = (t as f32 * 0.4).sin();
//!         handle.push(a, &[v])?;
//!         handle.push(b, &[-v])?;
//!     }
//!     Ok(())
//! })?;
//! assert_eq!(outcome.stats.global.pushes, 40);
//! assert_eq!(outcome.scores[a.index()].len(), 20 - 8);
//! # Ok(())
//! # }
//! ```

mod engine;
pub mod queue;
mod stats;
pub(crate) mod sync;

pub use engine::{Fleet, FleetHandle, FleetOutcome, ModelGroupId};
pub use queue::{Envelope, RingQueue};
pub use stats::{FleetStats, GroupModelStats, ShardStats};
/// Re-export of the telemetry substrate's configuration and snapshot types,
/// so fleet consumers can enable and consume telemetry without depending on
/// `varade-obs` directly.
pub use varade_obs::{TelemetryConfig, TelemetrySnapshot};

use std::fmt;
use std::time::Duration;

/// Identifier of one logical stream admitted to a [`Fleet`].
///
/// Ids are dense indices handed out by [`Fleet::register_stream`]; the
/// stream→shard assignment is a deterministic hash of the id ([`shard_of`]),
/// so a given fleet layout always partitions the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(usize);

impl StreamId {
    /// The dense index of this stream (also its position in
    /// [`FleetOutcome::scores`]).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw dense index, for driving the ingress queues
    /// directly (tests, stress harnesses). Ids are only meaningful inside
    /// the fleet that issued them — the engine rejects foreign ids with
    /// [`FleetError::UnknownId`].
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// What a shard's ingress queue does when it is full — the overload contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Block the producer until the shard catches up. Lossless: every pushed
    /// sample is eventually scored (the serve loop drains queues to empty
    /// before shutting down).
    #[default]
    Block,
    /// Evict the oldest queued sample to make room, counting the eviction in
    /// [`ShardStats::dropped`]. The producer never stalls; the freshest data
    /// wins — the usual choice for live sensor feeds where a stale sample is
    /// worthless anyway.
    DropOldest,
    /// Refuse the sample with [`FleetError::QueueFull`] and leave the queue
    /// untouched, so the producer decides (retry, skip, shed load upstream).
    Reject,
}

/// Configuration of a [`Fleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of worker shards (threads). Streams are hash-partitioned across
    /// them; must be at least 1.
    pub n_shards: usize,
    /// Bounded capacity of each ingress ring ([`RingQueue`]), in samples.
    /// A shard has one ring per producer lane, so it can hold up to
    /// `queue_capacity * producer_lanes` samples. Must be at least 1; what
    /// happens on overflow is [`FleetConfig::overload`]'s call.
    pub queue_capacity: usize,
    /// Overflow behavior of the ingress rings.
    pub overload: OverloadPolicy,
    /// Number of producer lanes: each shard gets one ingress ring *per
    /// lane*, so a multi-threaded driver can give every producer thread its
    /// own single-producer edge ([`FleetHandle::push_from`]). Per-stream
    /// ordering is preserved as long as each stream sticks to one lane.
    /// Must be at least 1; [`FleetHandle::push`] uses lane 0.
    pub producer_lanes: usize,
    /// When `true` (the default), an idle shard worker steals *whole
    /// streams* from busy peers at round boundaries: ownership moves by a
    /// single atomic compare-exchange, the stream's state and incremental
    /// cache migrate intact, and scores stay bit-identical — only the
    /// thread doing the arithmetic changes. [`ShardStats::steals`] counts
    /// successful steals per worker.
    pub work_stealing: bool,
    /// When `true`, every scored sample's latency (its admit time plus its
    /// incremental forward) is kept in
    /// [`ShardStats::sample_latencies`] for percentile reporting. Costs one
    /// `Duration` of memory per score; leave off outside benchmarks.
    pub record_latencies: bool,
    /// Test-only throttle: sleep this long before each processing round so a
    /// test driver can saturate a bounded queue deterministically and observe
    /// the overload policy. `None` (the default) in production.
    pub chaos_round_delay: Option<Duration>,
    /// Telemetry substrate configuration (see [`varade_obs::TelemetryConfig`]).
    /// Disabled by default: the serve loop then allocates no per-shard
    /// registries and every record point reduces to one predictable branch.
    /// When enabled, workers decompose each push into per-stage latency
    /// histograms (queue-wait / assembly / normalize / forward / emit, per
    /// model group and per shard) and trace structured events (swaps,
    /// steals, drops, parks, cache invalidations) into an overwrite ring —
    /// all exposed through [`FleetHandle::telemetry`] and
    /// [`FleetOutcome::telemetry`].
    pub telemetry: varade_obs::TelemetryConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            n_shards: 1,
            queue_capacity: 1024,
            overload: OverloadPolicy::Block,
            producer_lanes: 1,
            work_stealing: true,
            record_latencies: false,
            chaos_round_delay: None,
            telemetry: varade_obs::TelemetryConfig::disabled(),
        }
    }
}

impl FleetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] if `n_shards`,
    /// `queue_capacity` or `producer_lanes` is zero.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.n_shards == 0 {
            return Err(FleetError::InvalidConfig(
                "a fleet needs at least one shard".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(FleetError::InvalidConfig(
                "shard queues need capacity for at least one sample".into(),
            ));
        }
        if self.producer_lanes == 0 {
            return Err(FleetError::InvalidConfig(
                "a fleet needs at least one producer lane".into(),
            ));
        }
        Ok(())
    }
}

/// Deterministic stream→shard assignment: a splitmix64 finalizer over the
/// stream index, reduced modulo the shard count. Pure function of its inputs,
/// so a fleet layout is reproducible across runs and machines.
///
/// # Examples
///
/// ```
/// use varade_fleet::shard_of;
/// // Stable across calls ...
/// assert_eq!(shard_of(7, 4), shard_of(7, 4));
/// // ... and always in range.
/// for id in 0..100 {
///     assert!(shard_of(id, 3) < 3);
/// }
/// assert_eq!(shard_of(42, 1), 0);
/// ```
pub fn shard_of(stream_index: usize, n_shards: usize) -> usize {
    assert!(n_shards > 0, "shard count must be positive");
    let mut z = (stream_index as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n_shards as u64) as usize
}

/// Errors produced by the fleet engine.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A configuration value is out of range.
    InvalidConfig(String),
    /// A [`StreamId`] or [`ModelGroupId`] does not belong to this fleet.
    UnknownId(String),
    /// A detector was registered before being fitted.
    NotFitted,
    /// A sample's width does not match the stream's channel count.
    SampleWidth {
        /// The stream the sample was pushed to.
        stream: StreamId,
        /// Channels the stream expects.
        expected: usize,
        /// Values the sample carried.
        got: usize,
    },
    /// A sample carried a NaN or an infinity. Rejected at the push, before
    /// it reaches the queue, so it poisons neither the stream's window nor
    /// its incremental cache.
    NonFiniteSample {
        /// The stream the sample was pushed to.
        stream: StreamId,
        /// The first channel whose value is not finite.
        channel: usize,
    },
    /// The shard queue was full under [`OverloadPolicy::Reject`].
    QueueFull {
        /// The stream whose sample was refused.
        stream: StreamId,
        /// The shard whose queue was full.
        shard: usize,
    },
    /// A sample was pushed after the serve window closed.
    Closed,
    /// [`Fleet::rollback_model`] on a group that was never published to.
    NoRollback {
        /// The group with no previous model.
        group: usize,
    },
    /// A scoring call failed inside a shard worker.
    Varade(varade::VaradeError),
    /// A shard worker panicked (a bug in the engine, not a data error).
    WorkerPanicked {
        /// The shard whose worker died.
        shard: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidConfig(reason) => write!(f, "invalid fleet config: {reason}"),
            FleetError::UnknownId(what) => write!(f, "unknown id: {what}"),
            FleetError::NotFitted => write!(f, "detector must be fitted before registration"),
            FleetError::SampleWidth {
                stream,
                expected,
                got,
            } => write!(
                f,
                "{stream} expects {expected}-channel samples, got {got} values"
            ),
            FleetError::NonFiniteSample { stream, channel } => write!(
                f,
                "{stream} sample has a non-finite value in channel {channel}"
            ),
            FleetError::QueueFull { stream, shard } => write!(
                f,
                "shard {shard} queue full, sample for {stream} rejected (OverloadPolicy::Reject)"
            ),
            FleetError::Closed => write!(f, "fleet is not serving (push outside run)"),
            FleetError::NoRollback { group } => write!(
                f,
                "model group {group} has no previous model to roll back to"
            ),
            FleetError::Varade(err) => write!(f, "scoring error: {err}"),
            FleetError::WorkerPanicked { shard } => write!(f, "worker for shard {shard} panicked"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Varade(err) => Some(err),
            _ => None,
        }
    }
}

impl From<varade::VaradeError> for FleetError {
    fn from(err: varade::VaradeError) -> Self {
        FleetError::Varade(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn config_validation_rejects_zero_sizes() {
        assert!(FleetConfig::default().validate().is_ok());
        assert!(FleetConfig {
            n_shards: 0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
        assert!(FleetConfig {
            queue_capacity: 0,
            ..FleetConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn shard_assignment_is_deterministic_and_spreads() {
        let assignments: Vec<usize> = (0..256).map(|id| shard_of(id, 4)).collect();
        assert_eq!(
            assignments,
            (0..256).map(|id| shard_of(id, 4)).collect::<Vec<_>>()
        );
        // All shards get work for any reasonable stream population.
        for shard in 0..4 {
            let n = assignments.iter().filter(|&&s| s == shard).count();
            assert!(n > 256 / 8, "shard {shard} got only {n} of 256 streams");
        }
    }

    #[test]
    fn error_display_and_source() {
        let e = FleetError::QueueFull {
            stream: StreamId(3),
            shard: 1,
        };
        assert!(e.to_string().contains("stream#3"));
        assert!(e.source().is_none());
        let e: FleetError = varade::VaradeError::NotFitted.into();
        assert!(e.source().is_some());
        assert!(StreamId(2) < StreamId(10));
    }
}
