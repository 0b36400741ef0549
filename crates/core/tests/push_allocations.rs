//! Heap allocations on the served push path, counted by a global allocator
//! that tallies every allocation this test binary makes.
//!
//! Every incremental cache node owns the buffers its layer writes, so once
//! a stream is primed a push moves its sample through the network without
//! touching the heap, and `score_series` allocates the same handful of
//! buffers whatever the series length. The tests run one at a time (one
//! lock) so another test's allocations never land in a counted span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use varade::{StreamingVarade, VaradeConfig, VaradeDetector};
use varade_detectors::AnomalyDetector;
use varade_timeseries::{MinMaxNormalizer, MultivariateSeries};

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is the only addition.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Serializes the tests: the counter is process-wide.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocations made while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

const CHANNELS: usize = 5;
/// The default window: five k2/s2 convolutions down to a time length of 2,
/// so every node kind of the served pipeline runs.
const WINDOW: usize = 64;

fn series(len: usize, phase: f32) -> MultivariateSeries {
    let names = (0..CHANNELS).map(|c| format!("c{c}")).collect();
    let mut s = MultivariateSeries::new(names, 10.0).unwrap();
    for t in 0..len {
        let row: Vec<f32> = (0..CHANNELS)
            .map(|c| ((t as f32 * 0.23 + phase) * (1.0 + c as f32 * 0.3)).sin() * 40.0)
            .collect();
        s.push_row(&row).unwrap();
    }
    s
}

fn fitted() -> (VaradeDetector, MinMaxNormalizer) {
    let config = VaradeConfig {
        window: WINDOW,
        base_feature_maps: 8,
        epochs: 1,
        batch_size: 8,
        max_train_windows: 16,
        ..VaradeConfig::default()
    };
    let train = series(200, 0.0);
    let normalizer = MinMaxNormalizer::fit(&train).unwrap();
    let mut det = VaradeDetector::new(config);
    det.fit(&normalizer.transform(&train).unwrap()).unwrap();
    (det, normalizer)
}

#[test]
fn a_primed_push_allocates_nothing() {
    let _serial = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (det, normalizer) = fitted();
    let mut stream = StreamingVarade::new(det, CHANNELS, Some(normalizer)).unwrap();
    let rows = series(3 * WINDOW + 1000, 1.7);
    let rows: Vec<&[f32]> = (0..rows.len()).map(|t| rows.row(t)).collect();
    // Two windows of scored pushes prime the cache and see every phase
    // stream of every layer.
    let (warm, split) = rows.split_at(3 * WINDOW);
    for row in warm {
        stream.push(row).unwrap();
    }
    let (scores, count) = allocations(|| {
        split
            .iter()
            .map(|row| stream.push(row).unwrap().is_some())
            .filter(|&scored| scored)
            .count()
    });
    assert_eq!(scores, 1000, "every primed push scores");
    assert_eq!(count, 0, "1000 primed pushes allocated {count} times");
}

#[test]
fn score_series_allocations_do_not_grow_with_the_series() {
    let _serial = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (mut det, normalizer) = fitted();
    // The first pass also packs each layer's weights for its column
    // kernel, once per model.
    det.score_series(&normalizer.transform(&series(2 * WINDOW, 0.1)).unwrap())
        .unwrap();
    let mut counts = Vec::new();
    for len in [2 * WINDOW, 20 * WINDOW] {
        let test = normalizer.transform(&series(len, 0.4)).unwrap();
        let (scores, count) = allocations(|| det.score_series(&test).unwrap());
        assert_eq!(scores.len(), len);
        counts.push(count);
    }
    assert_eq!(
        counts[0], counts[1],
        "score_series allocations grew with the series: {counts:?}"
    );
}
