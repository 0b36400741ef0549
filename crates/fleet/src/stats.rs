//! Fleet-level throughput accounting built on [`varade::PushStats`].
//!
//! Every stream keeps its own `PushStats`; [`ShardStats`] merges the streams
//! of one shard via [`PushStats::merge`], and [`FleetStats`] merges the
//! shards plus the wall-clock of the serve window. The distinction matters
//! on purpose: merged `PushStats` times are *summed CPU time across streams*
//! (per-core throughput), while the fleet's headline number —
//! [`FleetStats::samples_per_sec`] — divides by *elapsed wall time*, which is
//! what an operator sizing an edge node actually observes.

use std::time::Duration;

use varade::PushStats;

/// Throughput accounting for one shard after a serve window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Streams assigned to this shard.
    pub streams: usize,
    /// Per-stream [`PushStats`] merged over the shard's streams.
    pub push: PushStats,
    /// Samples evicted by [`crate::OverloadPolicy::DropOldest`].
    pub dropped: u64,
    /// Streams this worker successfully stole from a peer (one count per
    /// winning ownership compare-exchange; exact, never sampled). Zero when
    /// [`crate::FleetConfig::work_stealing`] is off or the fleet has one
    /// shard.
    pub steals: u64,
    /// Times this shard's worker slept on its doorbell: parks whose re-check
    /// found no work. Each ended by a ring (the doorbell has no timeout).
    /// Exact.
    pub parks: u64,
    /// Pushes to this shard's streams that [`crate::FleetHandle::push_from`]
    /// scored on the producer's thread because the shard was idle, instead
    /// of waking the worker (warm-up pushes, which produce no score, count
    /// too). Exact.
    pub inline_scores: u64,
    /// Largest ingress backlog this shard ever observed at a drain point
    /// (summed across its lanes) — a sustained-backlog signal a briefly-full
    /// ring cannot fake. Exact, maintained every round.
    pub queue_depth_high_water: u64,
}

/// Model publication state of one group at the close of a serve window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupModelStats {
    /// The group's dense index (the same one inside its
    /// [`crate::ModelGroupId`]).
    pub group: usize,
    /// Publication epoch of the served model: 1 after registration, +1 per
    /// publish or rollback.
    pub model_version: u64,
    /// Publish/rollback events since registration.
    pub swap_count: u64,
}

/// Aggregate accounting for one serve window of a [`crate::Fleet`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Wall-clock duration of the serve window (driver plus drain).
    pub elapsed: Duration,
    /// Per-shard breakdowns, sorted by shard index.
    pub shards: Vec<ShardStats>,
    /// All shards' [`PushStats`] merged (summed CPU time — see the module
    /// docs for why this is not wall-clock throughput).
    pub global: PushStats,
    /// Total samples dropped across shards.
    pub dropped: u64,
    /// Total stream steals across shards (the sum of
    /// [`ShardStats::steals`]).
    pub steals: u64,
    /// Total doorbell parks across shards (the sum of [`ShardStats::parks`]).
    pub parks: u64,
    /// Total pushes scored on a producer's thread (the sum of
    /// [`ShardStats::inline_scores`]).
    pub inline_scores: u64,
    /// Per-group model version and swap counters, sorted by group index
    /// (filled in by the engine after the shard merge).
    pub groups: Vec<GroupModelStats>,
    /// Largest per-shard ingress backlog observed anywhere in the fleet (the
    /// max of [`ShardStats::queue_depth_high_water`]).
    pub queue_depth_high_water: u64,
}

impl FleetStats {
    /// Assembles the aggregate from per-shard results and the measured wall
    /// clock of the serve window.
    pub fn from_shards(mut shards: Vec<ShardStats>, elapsed: Duration) -> Self {
        shards.sort_by_key(|s| s.shard);
        let mut global = PushStats::default();
        let mut dropped = 0;
        let mut steals = 0;
        let mut parks = 0;
        let mut inline_scores = 0;
        let mut queue_depth_high_water = 0;
        for shard in &shards {
            global.merge(&shard.push);
            dropped += shard.dropped;
            steals += shard.steals;
            parks += shard.parks;
            inline_scores += shard.inline_scores;
            queue_depth_high_water = queue_depth_high_water.max(shard.queue_depth_high_water);
        }
        Self {
            elapsed,
            shards,
            global,
            dropped,
            steals,
            parks,
            inline_scores,
            groups: Vec::new(),
            queue_depth_high_water,
        }
    }

    /// Aggregate wall-clock throughput: samples admitted per second of serve
    /// window. `None` if no time elapsed.
    pub fn samples_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.global.pushes as f64 / secs)
    }

    /// Aggregate wall-clock scoring rate: scores produced per second of serve
    /// window (excludes warm-up pushes). `None` if no time elapsed.
    pub fn scores_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.global.scores as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(index: usize, pushes: u64, scores: u64, micros: u64, dropped: u64) -> ShardStats {
        ShardStats {
            shard: index,
            streams: 2,
            push: PushStats {
                pushes,
                scores,
                total_time: Duration::from_micros(micros),
                scoring_time: Duration::from_micros(micros / 2),
                ..PushStats::default()
            },
            dropped,
            steals: index as u64,
            parks: 10 + index as u64,
            inline_scores: 100 * index as u64,
            queue_depth_high_water: 3 * index as u64,
        }
    }

    #[test]
    fn from_shards_merges_and_sorts() {
        let stats = FleetStats::from_shards(
            vec![shard(1, 10, 8, 100, 2), shard(0, 20, 15, 300, 1)],
            Duration::from_millis(2),
        );
        assert_eq!(stats.shards[0].shard, 0);
        assert_eq!(stats.shards[1].shard, 1);
        assert_eq!(stats.global.pushes, 30);
        assert_eq!(stats.global.scores, 23);
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.parks, 21);
        assert_eq!(stats.inline_scores, 100);
        // Shard high-water marks fold by max, not by sum.
        assert_eq!(stats.queue_depth_high_water, 3);
        // 30 pushes over 2 ms of wall clock.
        assert!((stats.samples_per_sec().unwrap() - 15_000.0).abs() < 1e-6);
        assert!((stats.scores_per_sec().unwrap() - 11_500.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_stats_return_none() {
        let empty = FleetStats::default();
        assert!(empty.samples_per_sec().is_none());
        assert!(empty.scores_per_sec().is_none());
    }
}
