//! Lock-free scalar metrics: monotonic counters and gauges with exact
//! high-water marks.
//!
//! Both types are plain relaxed atomics — recording is wait-free, and
//! per-shard instances folded at snapshot time keep even the relaxed
//! `fetch_add` off the contended path.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Monotonic event counter. `add` is wait-free; `get` is a relaxed load.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — a lone monotone counter carries no payload for
        // other memory; readers only need eventual visibility of the total.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — see `add`; the read is a statistical sample.
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous gauge that also tracks its exact all-time maximum.
///
/// `set` stores the level and folds it into the high-water mark with one
/// `fetch_max` — under concurrent writers the high-water mark is still exact
/// (it is the max over every value ever passed to `set`), even though the
/// instantaneous `get` is only the latest store in some interleaving.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge {
            value: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Records the current level and updates the high-water mark.
    #[inline]
    pub fn set(&self, v: u64) {
        // ORDERING: Relaxed — the level and its high-water mark are read
        // independently; fetch_max keeps the mark exact without any
        // happens-before edge to the plain store.
        self.value.store(v, Ordering::Relaxed);
        // Load-then-max: once the mark has settled, most levels stay under
        // it, and a plain load skips the read-modify-write.
        if v > self.high_water.load(Ordering::Relaxed) {
            self.high_water.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Latest recorded level.
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — latest-store-wins sample; see `set`.
        self.value.load(Ordering::Relaxed)
    }

    /// Largest level ever recorded.
    pub fn high_water(&self) -> u64 {
        // ORDERING: Relaxed — monotone max; see `set`.
        self.high_water.load(Ordering::Relaxed)
    }

    /// Copies the gauge into an owned snapshot.
    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            value: self.get(),
            high_water: self.high_water(),
        }
    }
}

/// Owned copy of a [`Gauge`]: latest level plus exact high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Latest recorded level.
    pub value: u64,
    /// Largest level ever recorded.
    pub high_water: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_is_exact_under_threads() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn gauge_high_water_is_max_of_all_sets() {
        let g = Gauge::new();
        for v in [3u64, 17, 5, 11] {
            g.set(v);
        }
        assert_eq!(g.get(), 11);
        assert_eq!(g.high_water(), 17);
        let snap = g.snapshot();
        assert_eq!(snap.value, 11);
        assert_eq!(snap.high_water, 17);
    }
}
