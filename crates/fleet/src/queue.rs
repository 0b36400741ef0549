//! Bounded per-shard ingress queues with explicit overload policies.
//!
//! [`RingQueue`] is a lock-free bounded ring with per-slot sequence stamps
//! (Vyukov-style), atomic head/tail counters and a producer-side cached head
//! index. The engine gives every shard one ring per producer lane. The hot
//! push/drain path never takes a lock; a `Mutex`+`Condvar` pair exists only
//! as the *parking lot* for the two blocking slow paths
//! ([`OverloadPolicy::Block`] producers on a full ring, consumers on an empty
//! one), with a timed backstop so a missed wakeup can never hang a thread.
//! Its interleavings are explored exhaustively by `tests/model_check.rs`.
//!
//! Every full-queue outcome is decided by the caller's [`OverloadPolicy`],
//! never by accident, and drop accounting is exact: a sample is counted in
//! `dropped` if and only if it was accepted and later evicted by
//! [`OverloadPolicy::DropOldest`].

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Duration;

// All synchronization goes through the `crate::sync` alias (std in normal
// builds, varade-check's instrumented facade under `--cfg varade_check`) so
// tests/model_check.rs explores this exact code, not a test-only fork.
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};

use varade_obs::{FleetEvent, Telemetry};

use crate::{FleetError, OverloadPolicy, StreamId};

/// A queue's connection to the fleet's telemetry substrate: the producer
/// lane this queue serves and the shared event ring. Attached only when
/// telemetry is enabled, so the `None` path costs one branch per slow-path
/// site (never on the lock-free fast path).
#[derive(Debug, Clone)]
struct QueueEvents {
    telemetry: Arc<Telemetry>,
    lane: u64,
}

impl QueueEvents {
    fn drop_sample(&self, stream: StreamId) {
        self.telemetry.record_event(FleetEvent::SampleDrop {
            lane: self.lane,
            stream: stream.index() as u64,
        });
    }

    fn park(&self, producer: bool) {
        self.telemetry.record_event(FleetEvent::QueuePark {
            lane: self.lane,
            producer,
        });
    }

    fn unpark(&self, producer: bool) {
        self.telemetry.record_event(FleetEvent::QueueUnpark {
            lane: self.lane,
            producer,
        });
    }
}

/// One queued sample: the stream it belongs to and its raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The stream the sample was pushed to.
    pub stream: StreamId,
    /// The raw (not yet normalized) sample, one value per channel.
    pub sample: Vec<f32>,
    /// When the producer handed the sample to the fleet, for end-to-end
    /// (push-to-score) latency accounting. `None` unless
    /// [`crate::FleetConfig::record_latencies`] or telemetry is on. A
    /// [`SpanStamp`](varade_obs::spanclock::SpanStamp) rather than an
    /// `Instant` because the producer stamps every sample on the ingress
    /// fast path, where the TSC read is ~4x cheaper.
    pub enqueued_at: Option<varade_obs::spanclock::SpanStamp>,
}

impl Envelope {
    /// An envelope without an enqueue timestamp.
    pub fn new(stream: StreamId, sample: Vec<f32>) -> Self {
        Self {
            stream,
            sample,
            enqueued_at: None,
        }
    }
}

/// One ring slot: a sequence stamp gating all access to the value cell.
///
/// The stamp encodes the slot's lifecycle against monotonically increasing
/// logical positions: `seq == pos` means "free for the enqueue claiming
/// position `pos`", `seq == pos + 1` means "holds the value enqueued at
/// `pos`, free for the dequeue claiming it", and after that dequeue the
/// stamp jumps to `pos + slots` — the enqueue position of the *next* lap.
/// A thread only ever touches `value` between a successful claim CAS on the
/// shared counter and its own release store of the next stamp, so the cell
/// needs no lock even with concurrent dequeuers (the consumer draining and a
/// `DropOldest` producer evicting are two dequeuers on one ring).
struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Envelope>>,
}

/// How long a parked thread sleeps at most before re-checking the ring: the
/// liveness backstop that makes a lost wakeup cost a millisecond instead of a
/// hang. Wakeups are normally delivered explicitly via the condvars.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Spins on the hot path before parking; each iteration hints the CPU and
/// yields to the scheduler every few rounds. Shrunk under model checking so
/// bounded exploration reaches the parking slow path within a few decisions
/// instead of burning the schedule budget on spin iterations.
const SPIN_LIMIT: u32 = if cfg!(varade_check) { 2 } else { 64 };

/// A lock-free bounded ring of [`Envelope`]s for one producer→shard edge.
///
/// Layout: `slots` physical cells (the logical capacity rounded up to a
/// power of two, minimum 2, so indexing is a mask), each carrying its own
/// sequence stamp, plus monotonically increasing `head` (next dequeue
/// position) and `tail` (next enqueue position) counters. The producer keeps
/// a *cached* copy of `head` and only re-reads the shared counter when the
/// cache says the ring looks full — the classic SPSC cached-index
/// optimization that keeps the common enqueue to one shared atomic
/// (the slot stamp) beyond its own `tail`.
///
/// Fullness is decided by the counters (`tail - head == capacity`), not by
/// the slot stamps, which keeps a logical capacity of 1 exact and lets the
/// physical slot count exceed the logical bound. Claims go through
/// compare-exchange on `head`/`tail`, so the ring stays correct even with
/// two dequeuers — which [`OverloadPolicy::DropOldest`] needs, because the
/// producer evicts the head concurrently with the draining consumer.
///
/// Blocking ([`OverloadPolicy::Block`] on full, [`RingQueue::drain`] on
/// empty) parks on a `Mutex<()>`+`Condvar` pair that the fast path never
/// touches: waiters raise an atomic "parked" flag, the other side notifies
/// only when it sees the flag, and every wait carries a `PARK_TIMEOUT`
/// backstop. [`RingQueue::close`] wakes both sides promptly, so a producer
/// parked on a full ring returns [`FleetError::Closed`] instead of hanging —
/// the shutdown-liveness contract pinned by `tests/queue_stress.rs`.
pub struct RingQueue {
    slots: Box<[Slot]>,
    mask: usize,
    capacity: usize,
    /// Next position to dequeue. Monotonic; wraps modulo `usize`.
    head: AtomicUsize,
    /// Next position to enqueue. Monotonic; wraps modulo `usize`.
    tail: AtomicUsize,
    /// Producer-side cache of `head`, refreshed only when the ring looks
    /// full — the "cached index" half of the SPSC design.
    head_cache: AtomicUsize,
    dropped: AtomicU64,
    closed: AtomicBool,
    /// Pushes currently between entry and completion. Consumers deciding
    /// "closed and nothing can still arrive" must see this at zero: a racing
    /// push either completed its enqueue before the counter read (so the
    /// final sweep sees the sample) or will observe `closed` after its
    /// increment and bail without enqueueing (SeqCst totally orders the two
    /// flag accesses).
    in_flight: AtomicUsize,
    park: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    consumer_parked: AtomicBool,
    producer_parked: AtomicBool,
    events: Option<QueueEvents>,
}

// SAFETY: the sequence-stamp protocol gives each value cell exactly one
// accessor at a time (see `Slot`); `Envelope` is `Send`, so moving envelopes
// across threads through the ring is sound.
unsafe impl Send for RingQueue {}
unsafe impl Sync for RingQueue {}

impl std::fmt::Debug for RingQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            // ORDERING: Relaxed — debug snapshot, no synchronization intent.
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}

enum TryEnqueue {
    Done,
    Full(Envelope),
}

impl RingQueue {
    /// Creates a ring holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a [`crate::FleetConfig`] validates this
    /// before any queue is built).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let physical = capacity.next_power_of_two().max(2);
        let slots: Box<[Slot]> = (0..physical)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: physical - 1,
            capacity,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            head_cache: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            park: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            consumer_parked: AtomicBool::new(false),
            producer_parked: AtomicBool::new(false),
            events: None,
        }
    }

    /// Number of samples currently queued (a racy snapshot under concurrency).
    pub fn len(&self) -> usize {
        // ORDERING: Acquire on both counters so the snapshot is no staler
        // than the caller's last synchronization point; the value is still
        // racy by nature and used only for reporting.
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.capacity)
    }

    /// Whether the queue is currently empty (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted so far by [`OverloadPolicy::DropOldest`].
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic counter with no ordering contract;
        // exactness comes from fetch_add, not from ordering.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Whether [`RingQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        // ORDERING: SeqCst — participates in the close/`in_flight` total
        // order (see `in_flight`): a pusher that misses `closed` here must
        // have its in-flight increment visible to the quiescence check.
        self.closed.load(Ordering::SeqCst)
    }

    /// Connects the ring's slow-path events (drops, park/unpark) to the
    /// fleet's telemetry substrate. `lane` labels which producer lane this
    /// ring serves. The lock-free fast path is untouched: events fire only
    /// from the overload/parking slow paths.
    pub fn attach_events(&mut self, telemetry: Arc<Telemetry>, lane: u64) {
        self.events = Some(QueueEvents { telemetry, lane });
    }

    /// Whether the ring is closed, empty, *and* no push is in flight — the
    /// stable "nothing can ever arrive here again" verdict a worker needs
    /// before declaring its ingest finished.
    pub fn is_quiescent(&self) -> bool {
        // ORDERING: SeqCst — the "closed and no push in flight" verdict
        // relies on the total order between the pusher's in-flight increment
        // and its `closed` check (see the `in_flight` field docs).
        self.is_closed() && self.in_flight.load(Ordering::SeqCst) == 0 && self.is_empty()
    }

    /// One lock-free enqueue attempt: claims the tail position when the ring
    /// is not at logical capacity, otherwise hands the envelope back.
    fn try_enqueue(&self, envelope: Envelope) -> TryEnqueue {
        // ORDERING: Relaxed — a stale tail read only costs a failed CAS.
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            // Counter-based fullness: exact at any logical capacity
            // (including 1), checked against the cached head first so the
            // common case never touches the consumer's cache line.
            // ORDERING: Relaxed on the cache — it is this producer's private
            // conservative copy; a stale value only forces the refresh below.
            if pos.wrapping_sub(self.head_cache.load(Ordering::Relaxed)) >= self.capacity {
                // ORDERING: Acquire pairs with the dequeuer's Release stamp
                // store: a freed position implies its value was fully read.
                let fresh = self.head.load(Ordering::Acquire);
                // ORDERING: Relaxed — private cache refresh (see above).
                self.head_cache.store(fresh, Ordering::Relaxed);
                if pos.wrapping_sub(fresh) >= self.capacity {
                    return TryEnqueue::Full(envelope);
                }
            }
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with the Release stamp store of the
            // dequeue that freed this slot, so the cell is ours to write.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // ORDERING: Relaxed on the tail CAS — claiming the position
                // needs atomicity, not ordering; publication happens via the
                // slot stamp's Release below.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS above made this thread the unique
                        // owner of `pos`; the stamp check says the slot is
                        // free for this lap.
                        unsafe { (*slot.value.get()).write(envelope) };
                        // ORDERING: Release publishes the value write above
                        // to the dequeuer's Acquire stamp load.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.wake_consumer();
                        return TryEnqueue::Done;
                    }
                    Err(current) => pos = current,
                }
            } else {
                // A dequeue at this position has claimed its counter but not
                // yet released the slot stamp (or our tail read is stale):
                // spin briefly and re-read.
                crate::sync::hint::spin_loop();
                // ORDERING: Relaxed — fresh tail read for the retry.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// One lock-free dequeue attempt. Safe under concurrent dequeuers (the
    /// consumer and a `DropOldest`-evicting producer).
    fn try_dequeue(&self) -> Option<Envelope> {
        // ORDERING: Relaxed — a stale head read only costs a failed CAS.
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ORDERING: Acquire pairs with the enqueuer's Release stamp
            // store, so a stamp of `pos + 1` implies the value is written.
            let seq = slot.seq.load(Ordering::Acquire);
            let expected = pos.wrapping_add(1);
            if seq == expected {
                // ORDERING: Relaxed on the head CAS — claiming needs
                // atomicity only; the value read is ordered by the Acquire
                // stamp load above, and the free is published by the Release
                // stamp store below.
                match self.head.compare_exchange_weak(
                    pos,
                    expected,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this thread the unique owner
                        // of `pos`, and the stamp says the value is fully
                        // written.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // ORDERING: Release publishes the value *read* (the
                        // cell is clear) to the next lap's enqueuer Acquire.
                        slot.seq
                            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
                        self.wake_producer();
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            // ORDERING: Acquire — an up-to-date emptiness check against the
            // enqueuer's tail updates before reporting the ring empty.
            } else if self.tail.load(Ordering::Acquire) == pos {
                return None;
            } else if seq == pos {
                // An enqueue claimed this position but has not finished its
                // write yet: it will complete in a bounded number of steps.
                crate::sync::hint::spin_loop();
            } else {
                // ORDERING: Relaxed — fresh head read for the retry.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    fn wake_consumer(&self) {
        // ORDERING: SeqCst — totally ordered against the consumer's
        // flag-store/ring-recheck sequence in `drain`, so either we see the
        // parked flag here or the consumer's recheck sees our enqueue (the
        // timed backstop covers the remaining machine-level window).
        if self.consumer_parked.load(Ordering::SeqCst) {
            let _guard = self.park.lock().expect("park lock");
            self.not_empty.notify_all();
        }
    }

    fn wake_producer(&self) {
        // ORDERING: SeqCst — mirror of `wake_consumer` for the producer-side
        // parked flag in `push_inner`.
        if self.producer_parked.load(Ordering::SeqCst) {
            let _guard = self.park.lock().expect("park lock");
            self.not_full.notify_all();
        }
    }

    /// Enqueues one sample, resolving a full ring according to `policy`:
    /// `Block` parks until space or close, `DropOldest` evicts the head
    /// (counting it), `Reject` returns [`FleetError::QueueFull`]. `shard`
    /// only labels the error.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::QueueFull`] under `Reject` on a full ring, and
    /// [`FleetError::Closed`] if the ring has been closed — including when
    /// the close lands *while* a `Block` push is parked, which must wake
    /// promptly rather than hang.
    pub fn push(
        &self,
        envelope: Envelope,
        policy: OverloadPolicy,
        shard: usize,
    ) -> Result<(), FleetError> {
        // Guard the whole push with the in-flight counter so a consumer's
        // "closed and drained" verdict can never race a push past it.
        // ORDERING: SeqCst on both — the increment must be totally ordered
        // before this push's `closed` check (in `push_inner`) and the
        // decrement after its enqueue, so `is_quiescent`'s SeqCst reads see
        // either the in-flight push or its completed effect.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let result = self.push_inner(envelope, policy, shard);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn push_inner(
        &self,
        envelope: Envelope,
        policy: OverloadPolicy,
        shard: usize,
    ) -> Result<(), FleetError> {
        if self.is_closed() {
            return Err(FleetError::Closed);
        }
        let mut envelope = match self.try_enqueue(envelope) {
            TryEnqueue::Done => return Ok(()),
            TryEnqueue::Full(envelope) => envelope,
        };
        match policy {
            OverloadPolicy::Reject => Err(FleetError::QueueFull {
                stream: envelope.stream,
                shard,
            }),
            OverloadPolicy::DropOldest => loop {
                if let Some(evicted) = self.try_dequeue() {
                    // ORDERING: Relaxed — exactness of the drop ledger comes
                    // from the atomic RMW; no ordering contract with the
                    // ring counters is needed.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(events) = &self.events {
                        events.drop_sample(evicted.stream);
                    }
                }
                match self.try_enqueue(envelope) {
                    TryEnqueue::Done => return Ok(()),
                    TryEnqueue::Full(e) => envelope = e,
                }
            },
            OverloadPolicy::Block => {
                let mut spins = 0u32;
                // One park/unpark event pair per blocked push (not per
                // 1 ms timeout lap), so event volume tracks backpressure
                // episodes rather than wall time.
                let mut park_reported = false;
                loop {
                    if self.is_closed() {
                        if park_reported {
                            if let Some(events) = &self.events {
                                events.unpark(true);
                            }
                        }
                        return Err(FleetError::Closed);
                    }
                    envelope = match self.try_enqueue(envelope) {
                        TryEnqueue::Done => {
                            if park_reported {
                                if let Some(events) = &self.events {
                                    events.unpark(true);
                                }
                            }
                            return Ok(());
                        }
                        TryEnqueue::Full(e) => e,
                    };
                    if spins < SPIN_LIMIT {
                        spins += 1;
                        if spins.is_multiple_of(8) {
                            crate::sync::thread::yield_now();
                        } else {
                            crate::sync::hint::spin_loop();
                        }
                        continue;
                    }
                    let guard = self.park.lock().expect("park lock");
                    // ORDERING: SeqCst — flag store totally ordered before
                    // the fullness re-check below; pairs with the SeqCst
                    // flag load in `wake_producer` (see `wake_consumer`).
                    self.producer_parked.store(true, Ordering::SeqCst);
                    // Re-check under the flag: a dequeue or close between our
                    // last attempt and the flag store would otherwise be
                    // missed (the timeout would still save us, but this keeps
                    // the wakeup prompt).
                    // ORDERING: Acquire on both counters — the freshest
                    // fullness view available before committing to the wait.
                    let full = self
                        .tail
                        .load(Ordering::Acquire)
                        .wrapping_sub(self.head.load(Ordering::Acquire))
                        >= self.capacity;
                    if full && !park_reported {
                        park_reported = true;
                        if let Some(events) = &self.events {
                            events.park(true);
                        }
                    }
                    if full && !self.is_closed() {
                        let (_guard, _timeout) = self
                            .not_full
                            .wait_timeout(guard, PARK_TIMEOUT)
                            .expect("park lock");
                    }
                    // ORDERING: SeqCst — symmetric clear of the parked flag.
                    self.producer_parked.store(false, Ordering::SeqCst);
                }
            }
        }
    }

    /// Non-blocking drain: removes and returns up to `max` samples in
    /// arrival order, returning an empty vector when the ring is currently
    /// empty.
    pub fn try_drain(&self, max: usize) -> Vec<Envelope> {
        let mut batch = Vec::new();
        while batch.len() < max {
            match self.try_dequeue() {
                Some(envelope) => batch.push(envelope),
                None => break,
            }
        }
        batch
    }

    /// Removes and returns up to `max` samples in arrival order, parking
    /// while the ring is empty and open. Returns `None` only once the ring
    /// is closed *and* fully drained — the worker's signal to exit without
    /// ever abandoning accepted samples.
    pub fn drain(&self, max: usize) -> Option<Vec<Envelope>> {
        let mut spins = 0u32;
        // One park/unpark pair per empty-wait episode (see `push_inner`).
        let mut park_reported = false;
        loop {
            let batch = self.try_drain(max);
            if !batch.is_empty() {
                if park_reported {
                    if let Some(events) = &self.events {
                        events.unpark(false);
                    }
                }
                return Some(batch);
            }
            // ORDERING: SeqCst — the close/`in_flight` quiescence protocol
            // (see the `in_flight` field docs): a racing push either landed
            // before this read or will observe `closed` and bail.
            if self.is_closed() && self.in_flight.load(Ordering::SeqCst) == 0 {
                // Closed with no push in flight: one final sweep for
                // stragglers enqueued before the close became visible, then
                // end-of-stream. (A push still in flight either lands before
                // the sweep or observes the close and bails — see
                // `in_flight` — so nothing accepted is ever abandoned.)
                if park_reported {
                    if let Some(events) = &self.events {
                        events.unpark(false);
                    }
                }
                let batch = self.try_drain(max);
                return if batch.is_empty() { None } else { Some(batch) };
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                if spins.is_multiple_of(8) {
                    crate::sync::thread::yield_now();
                } else {
                    crate::sync::hint::spin_loop();
                }
                continue;
            }
            let guard = self.park.lock().expect("park lock");
            // ORDERING: SeqCst — flag store totally ordered before the
            // emptiness re-check; pairs with `wake_consumer`'s SeqCst load.
            self.consumer_parked.store(true, Ordering::SeqCst);
            if !park_reported && self.is_empty() && !self.is_closed() {
                park_reported = true;
                if let Some(events) = &self.events {
                    events.park(false);
                }
            }
            if self.is_empty() && !self.is_closed() {
                let (_guard, _timeout) = self
                    .not_empty
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .expect("park lock");
            } else if self.is_empty() {
                // Closed but a push is still in flight (the quiescence check
                // above saw `in_flight != 0`): it will land or bail within a
                // few instructions, and it never notifies, so don't park —
                // but don't busy-spin against it either; on a loaded core
                // that starves the very push we are waiting out. (Found by
                // the model checker as a schedule where this loop spins
                // forever while the pusher never runs.)
                drop(guard);
                crate::sync::thread::yield_now();
            }
            // ORDERING: SeqCst — symmetric clear of the parked flag.
            self.consumer_parked.store(false, Ordering::SeqCst);
        }
    }

    /// Closes the ring: subsequent pushes fail with [`FleetError::Closed`],
    /// parked producers and consumers wake promptly, and
    /// [`RingQueue::drain`] returns the backlog until empty, then `None`.
    pub fn close(&self) {
        // ORDERING: SeqCst — anchors the close/`in_flight` total order: any
        // push whose SeqCst increment follows this store must also see
        // `closed` in `push_inner` and bail (see the `in_flight` docs).
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.park.lock().expect("park lock");
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl Drop for RingQueue {
    fn drop(&mut self) {
        // Envelopes still in flight own heap memory; release them.
        while self.try_dequeue().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    // The cross-thread interleaving battery lives in tests/queue_stress.rs
    // and the exhaustive one in tests/model_check.rs; these are the
    // single-threaded semantics plus the two blocking slow paths.
    use super::*;
    use std::sync::Arc;

    fn envelope(stream: usize, value: f32) -> Envelope {
        Envelope::new(StreamId(stream), vec![value])
    }

    fn values(queue: &RingQueue) -> Vec<f32> {
        queue
            .try_drain(usize::MAX)
            .iter()
            .map(|e| e.sample[0])
            .collect()
    }

    #[test]
    fn ring_preserves_fifo_order_across_wraparound() {
        let queue = RingQueue::new(3);
        let mut out = Vec::new();
        for v in 0..20 {
            queue
                .push(envelope(0, v as f32), OverloadPolicy::Reject, 0)
                .unwrap();
            if v % 3 == 2 {
                out.extend(values(&queue));
            }
        }
        out.extend(values(&queue));
        assert_eq!(out, (0..20).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn ring_drop_oldest_evicts_the_head_and_counts_it() {
        let queue = RingQueue::new(3);
        for v in 0..5 {
            queue
                .push(envelope(0, v as f32), OverloadPolicy::DropOldest, 0)
                .unwrap();
        }
        assert_eq!(queue.dropped(), 2);
        assert_eq!(values(&queue), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_reject_surfaces_a_typed_error_at_capacity_one() {
        let queue = RingQueue::new(1);
        queue
            .push(envelope(1, 1.0), OverloadPolicy::Reject, 7)
            .unwrap();
        let err = queue
            .push(envelope(9, 2.0), OverloadPolicy::Reject, 7)
            .unwrap_err();
        assert_eq!(
            err,
            FleetError::QueueFull {
                stream: StreamId(9),
                shard: 7
            }
        );
        assert_eq!(queue.len(), 1);
        assert_eq!(values(&queue), vec![1.0]);
    }

    #[test]
    fn ring_close_flushes_backlog_then_signals_end_of_stream() {
        let queue = RingQueue::new(4);
        queue
            .push(envelope(0, 1.0), OverloadPolicy::Block, 0)
            .unwrap();
        queue.close();
        assert_eq!(
            queue.drain(usize::MAX).unwrap()[0].sample,
            vec![1.0],
            "backlog survives the close"
        );
        assert!(queue.drain(usize::MAX).is_none());
        assert_eq!(
            queue.push(envelope(0, 2.0), OverloadPolicy::Block, 0),
            Err(FleetError::Closed)
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_zero_capacity_panics() {
        let _ = RingQueue::new(0);
    }

    #[test]
    fn block_waits_for_space_and_never_loses_data() {
        let queue = Arc::new(RingQueue::new(2));
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                for v in 0..50 {
                    queue
                        .push(envelope(0, v as f32), OverloadPolicy::Block, 0)
                        .unwrap();
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < 50 {
            // Consume slowly so the producer actually hits the full ring.
            std::thread::sleep(Duration::from_micros(200));
            if let Some(batch) = queue.drain(3) {
                seen.extend(batch.iter().map(|e| e.sample[0]));
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..50).map(|v| v as f32).collect::<Vec<_>>());
        assert_eq!(queue.dropped(), 0);
    }

    #[test]
    fn close_unblocks_a_waiting_producer() {
        let queue = Arc::new(RingQueue::new(1));
        queue
            .push(envelope(0, 1.0), OverloadPolicy::Block, 0)
            .unwrap();
        let blocked = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(envelope(0, 2.0), OverloadPolicy::Block, 0))
        };
        std::thread::sleep(Duration::from_millis(10));
        queue.close();
        assert_eq!(blocked.join().unwrap(), Err(FleetError::Closed));
    }
}
