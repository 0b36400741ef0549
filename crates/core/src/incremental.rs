//! Per-stream encoder cache for incremental streaming inference.
//!
//! [`EncoderCache`] owns the parity-phased activation state of one logical
//! stream (see [`varade_tensor::layers::incremental`] for the cache design)
//! plus the bookkeeping the detector needs to trust it: the newest head
//! output, the last ingested sample and a running sample count. The cache is
//! fed by [`crate::VaradeDetector::score_window_incremental`]; when it is
//! cold or does not match the context being scored (fresh stream, backend
//! re-route, an out-of-band reset), the detector rebuilds it by replaying
//! the context window — the cold-start fallback that keeps every push's
//! score equal to a full `forward_infer` recompute.

use varade_tensor::layers::IncrementalCache;
use varade_timeseries::StreamingWindow;

/// Parity-phased activation cache of one stream against one fitted detector.
///
/// A [`crate::StreamState`] plans its own from the detector it scores
/// against; [`crate::VaradeDetector::incremental_cache`] plans one by hand,
/// for [`crate::VaradeDetector::score_window_incremental`] or
/// [`crate::StreamState::attach_cache`]. Either way every push recomputes
/// only the backbone's receptive-field frontier instead of the whole window. A cache is tied to the detector that planned
/// it: same channel count, window and weights. Feeding it through a
/// *different* detector is detected only as far as shapes go — re-plan
/// instead of sharing caches across detectors.
#[derive(Debug, Clone)]
pub struct EncoderCache {
    pub(crate) net: IncrementalCache,
    /// The newest head output, in the raw `[mean..., log_variance...]`
    /// layout (`2 * n_channels` values) — kept combined so the hot path
    /// slices instead of allocating per push.
    pub(crate) head: Option<Vec<f32>>,
    pub(crate) last_row: Option<Vec<f32>>,
    pub(crate) ingested: u64,
    pub(crate) n_channels: usize,
    pub(crate) window: usize,
}

impl EncoderCache {
    pub(crate) fn new(net: IncrementalCache, n_channels: usize, window: usize) -> Self {
        Self {
            net,
            head: None,
            last_row: None,
            ingested: 0,
            n_channels,
            window,
        }
    }

    /// Samples ingested since construction or the last [`EncoderCache::reset`].
    pub fn samples_ingested(&self) -> u64 {
        self.ingested
    }

    /// Whether the cache holds a head output for a full window — i.e. the
    /// next matching score request can be served without a replay.
    pub fn is_primed(&self) -> bool {
        self.head.is_some() && self.ingested >= self.window as u64
    }

    /// Invalidates the cache: all phase state, the head output and the
    /// ingestion counter are dropped. The next score request replays its
    /// context window to re-prime — used after anything that changes what
    /// the history would have produced (a backend re-route, a recycled
    /// stream slot).
    pub fn reset(&mut self) {
        self.net.clear();
        self.head = None;
        self.last_row = None;
        self.ingested = 0;
    }

    /// Whether the last ingested sample is bit-identical to the final column
    /// of `context` (`[channels * window]`, channel-major) — the cheap
    /// tripwire against a desynchronized caller. It cannot prove the whole
    /// history matches; the contract is that the owner feeds every sample of
    /// the stream in order.
    pub(crate) fn matches_context(&self, context: &[f32]) -> bool {
        let Some(last) = &self.last_row else {
            return false;
        };
        if context.len() != self.n_channels * self.window {
            return false;
        }
        (0..self.n_channels)
            .all(|c| last[c].to_bits() == context[c * self.window + self.window - 1].to_bits())
    }

    /// [`EncoderCache::matches_context`] against a stream's window buffer:
    /// whether the last ingested sample is bit-identical to the buffer's
    /// newest one. Reads one value per channel.
    pub(crate) fn matches_newest(&self, window: &StreamingWindow) -> bool {
        self.last_row
            .as_deref()
            .is_some_and(|last| window.newest_equals(last))
    }
}

/// Whether streams score through the incremental path: always `true`, as
/// every stream now does.
///
/// This exists only for the host facts the outside-in benchmark
/// (`perfbench/`) prints; a change to that benchmark can drop the fact and
/// then this function.
pub fn incremental_default() -> bool {
    true
}
