//! Bounded per-shard ingress queues with explicit overload policies.
//!
//! [`RingQueue`] is a lock-free bounded ring with per-slot sequence stamps
//! (Vyukov-style), atomic head/tail counters and a producer-side cached head
//! index. The engine gives every shard one ring per producer lane. The hot
//! push/drain path never takes a lock; a `Mutex`+`Condvar` pair exists only
//! as the *parking lot* for [`OverloadPolicy::Block`] producers on a full
//! ring, with a timed backstop so a missed wakeup can never hang a thread.
//!
//! The consumer side never blocks inside a ring: it drains with
//! [`RingQueue::try_drain`] and, when every ring it serves is empty, waits on
//! the shard's [`Doorbell`] — one flag plus one parking lot per shard, rung by
//! whatever can give the worker work (a push, a close, a delivery). The
//! doorbell has no backstop: a worker sleeps until it is rung.
//!
//! [`HandOffSlot`] is the claim that lets a producer skip the ring and the
//! doorbell altogether: a stream's scoring slot plus the count of its
//! samples still on the hand-off path. All three protocols are explored
//! exhaustively by `tests/model_check.rs`.
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
use crate::sync::{Condvar, Mutex, MutexGuard};

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

    fn park(&self) {
        self.telemetry.record_event(FleetEvent::QueuePark {
            lane: self.lane,
            producer: true,
        });
    }

    fn unpark(&self) {
        self.telemetry.record_event(FleetEvent::QueueUnpark {
            lane: self.lane,
            producer: true,
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

/// How long a [`OverloadPolicy::Block`] producer parked on a full ring
/// sleeps at most before re-checking: the liveness backstop that makes a
/// lost wakeup cost a millisecond instead of a hang. Wakeups are normally
/// delivered explicitly via the condvar. (The [`Doorbell`] has no backstop.)
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Spins a `Block` producer makes on a full ring before parking; each
/// iteration hints the CPU and yields to the scheduler every few rounds.
/// Shrunk under model checking so bounded exploration reaches the parking
/// slow path within a few decisions instead of burning the schedule budget
/// on spin iterations.
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
/// [`OverloadPolicy::Block`] on a full ring parks on a `Mutex<()>`+`Condvar`
/// pair that the fast path never touches: the producer raises an atomic
/// "parked" flag, a dequeue notifies only when it sees the flag, and every
/// wait carries a `PARK_TIMEOUT` backstop. [`RingQueue::close`] wakes it
/// promptly, so a producer parked on a full ring returns
/// [`FleetError::Closed`] instead of hanging — the shutdown-liveness
/// contract pinned by `tests/queue_stress.rs`. The ring never blocks its
/// consumer; an empty ring's consumer waits on a [`Doorbell`].
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
    not_full: Condvar,
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
            not_full: Condvar::new(),
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

    /// Whether a sample is queued, read the way a consumer re-checks after
    /// raising its [`Doorbell`] flag. A push rings the doorbell after its
    /// SeqCst `in_flight` decrement; if that ring found the flag clear, the
    /// decrement precedes this read in the total order, the read
    /// synchronizes with it, and the emptiness check sees the sample. A push
    /// still in flight needs no answer here: it rings when it completes.
    pub fn has_pending(&self) -> bool {
        // ORDERING: SeqCst — the value is not needed, only the order: this
        // read comes after the consumer's SeqCst flag store and
        // synchronizes with every `in_flight` decrement before it (see
        // docs/CONCURRENCY.md).
        let _ = self.in_flight.load(Ordering::SeqCst);
        !self.is_empty()
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

    fn wake_producer(&self) {
        // ORDERING: SeqCst — totally ordered against the producer's
        // flag-store/fullness-recheck sequence in `push_inner`, so either we
        // see the parked flag here or the producer's recheck sees our
        // dequeue (the timed backstop covers the remaining machine-level
        // window).
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
        self.push_evicting(envelope, policy, shard, |_| {})
    }

    /// [`RingQueue::push`], handing every sample a `DropOldest` push evicts
    /// to `evicted` (after counting it in [`RingQueue::dropped`]), so the
    /// caller can settle its own accounting for that sample.
    ///
    /// # Errors
    ///
    /// As [`RingQueue::push`].
    pub fn push_evicting(
        &self,
        envelope: Envelope,
        policy: OverloadPolicy,
        shard: usize,
        evicted: impl FnMut(Envelope),
    ) -> Result<(), FleetError> {
        // Guard the whole push with the in-flight counter so a consumer's
        // "closed and drained" verdict can never race a push past it.
        // ORDERING: SeqCst on both — the increment must be totally ordered
        // before this push's `closed` check (in `push_inner`) and the
        // decrement after its enqueue, so `is_quiescent`'s SeqCst reads see
        // either the in-flight push or its completed effect.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let result = self.push_inner(envelope, policy, shard, evicted);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn push_inner(
        &self,
        envelope: Envelope,
        policy: OverloadPolicy,
        shard: usize,
        mut evicted: impl FnMut(Envelope),
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
                if let Some(oldest) = self.try_dequeue() {
                    // ORDERING: Relaxed — exactness of the drop ledger comes
                    // from the atomic RMW; no ordering contract with the
                    // ring counters is needed.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    if let Some(events) = &self.events {
                        events.drop_sample(oldest.stream);
                    }
                    evicted(oldest);
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
                                events.unpark();
                            }
                        }
                        return Err(FleetError::Closed);
                    }
                    envelope = match self.try_enqueue(envelope) {
                        TryEnqueue::Done => {
                            if park_reported {
                                if let Some(events) = &self.events {
                                    events.unpark();
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
                    // flag load in `wake_producer`.
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
                            events.park();
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

    /// Closes the ring: subsequent pushes fail with [`FleetError::Closed`],
    /// parked producers wake promptly, and [`RingQueue::try_drain`] keeps
    /// returning the backlog until [`RingQueue::is_quiescent`]. The caller
    /// rings the consumer's [`Doorbell`] afterwards.
    pub fn close(&self) {
        // ORDERING: SeqCst — anchors the close/`in_flight` total order: any
        // push whose SeqCst increment follows this store must also see
        // `closed` in `push_inner` and bail (see the `in_flight` docs).
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.park.lock().expect("park lock");
        self.not_full.notify_all();
    }
}

impl Drop for RingQueue {
    fn drop(&mut self) {
        // Envelopes still in flight own heap memory; release them.
        while self.try_dequeue().is_some() {}
    }
}

/// How one [`Doorbell::park`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The re-check after raising the flag found work: no wait happened.
    Busy,
    /// A [`Doorbell::ring`] ended the wait (or landed between the re-check
    /// and the wait, which then never slept).
    Rung,
}

/// One consumer's wait point: a parked flag plus a `Mutex`+`Condvar` parking
/// lot, the idiom [`RingQueue`] uses for `Block` producers.
///
/// The engine gives each shard worker one doorbell. Anything that can hand
/// the worker work rings it after making that work visible: a push into one
/// of its rings, a ring close, a delivery to a stream it owns, the last
/// worker finishing its ingest. A ring costs one SeqCst load while the
/// worker is busy, and takes the lock to notify only once the worker has
/// raised its flag.
///
/// No wakeup is lost: the consumer stores the flag (SeqCst) *before* its
/// re-check, and every ringer loads it (SeqCst) *after* the SeqCst write
/// that published its work, so either the ringer sees the flag or the
/// re-check sees the work (the argument is written out in
/// docs/CONCURRENCY.md and explored by `tests/model_check.rs`). A ring
/// between the re-check and the wait leaves a token under the lock, so the
/// wait does not start. The wait has no timeout: a parked worker costs
/// nothing until it is rung, and a lost wakeup would be a hang, which the
/// model checker reports (as its step limit: a model condvar wait returns
/// at once, so the untimed wait becomes a loop on the token).
pub struct Doorbell {
    parked: AtomicBool,
    /// Whether a ring landed since the consumer last woke.
    rung: Mutex<bool>,
    wake: Condvar,
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("parked", &self.is_parked())
            .finish()
    }
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    /// A doorbell with no consumer parked.
    pub fn new() -> Self {
        Self {
            parked: AtomicBool::new(false),
            rung: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Whether the consumer has raised its flag: it is re-checking or
    /// asleep.
    pub fn is_parked(&self) -> bool {
        // ORDERING: SeqCst — in `ring`, read after the caller's SeqCst
        // publication (`in_flight` decrement, `closed` store, `queued`
        // increment, `ingest_done` increment); with `park`'s SeqCst flag
        // store before its re-check this is a Dekker pair: either this load
        // sees the flag or the re-check sees the work.
        self.parked.load(Ordering::SeqCst)
    }

    /// Wakes the consumer if it has raised its flag, returning whether it
    /// had. Call it after the SeqCst write that makes the work visible.
    pub fn ring(&self) -> bool {
        if !self.is_parked() {
            return false;
        }
        let mut rung = self.rung.lock().expect("doorbell lock");
        *rung = true;
        self.wake.notify_one();
        true
    }

    /// Raises the flag, runs `has_work` (the consumer's re-check of every
    /// source that rings this doorbell), and sleeps until a ring unless the
    /// re-check found work.
    pub fn park(&self, has_work: impl FnOnce() -> bool) -> Wake {
        // ORDERING: SeqCst — the flag store precedes every read of the
        // re-check in the total order (see `ring`).
        self.parked.store(true, Ordering::SeqCst);
        let woke = if has_work() {
            Wake::Busy
        } else {
            let mut rung = self.rung.lock().expect("doorbell lock");
            while !*rung {
                rung = self.wake.wait(rung).expect("doorbell lock");
            }
            *rung = false;
            Wake::Rung
        };
        // ORDERING: SeqCst — symmetric clear. A ring that loaded the flag
        // before this store leaves a token, and the next park returns
        // without sleeping.
        self.parked.store(false, Ordering::SeqCst);
        woke
    }
}

/// A stream's scoring slot plus the count of its samples on the hand-off
/// path: the claim a producer needs before it may score a sample on its own
/// thread instead of handing it to a worker.
///
/// A producer counts a sample with [`HandOffSlot::hand_off`] *before* it
/// pushes the sample into a ring. The sample is uncounted with
/// [`HandOffSlot::retire`] when a worker pops it under the slot lock to
/// score it, or when it leaves without a pop: a failed push, a `DropOldest`
/// eviction, a discarded backlog. So the count covers every sample of the
/// stream that sits in a ring, that a worker drained but has not delivered
/// yet, or that waits in the stream's pending deque.
///
/// [`HandOffSlot::try_claim`] locks the slot without waiting and keeps the
/// lock only if the count is zero. A zero count read under the lock means
/// every earlier hand-off of this stream was popped, and so scored, because
/// a worker pops and scores under one lock hold. A sample scored under the
/// claim therefore lands after all of them: per-stream order holds whichever
/// path each sample takes (explored by `tests/model_check.rs`).
pub struct HandOffSlot<T> {
    handed_off: AtomicUsize,
    value: Mutex<T>,
}

impl<T> std::fmt::Debug for HandOffSlot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandOffSlot")
            .field("handed_off", &self.handed_off())
            .finish_non_exhaustive()
    }
}

impl<T> HandOffSlot<T> {
    /// A slot holding `value`, with nothing handed off.
    pub fn new(value: T) -> Self {
        Self {
            handed_off: AtomicUsize::new(0),
            value: Mutex::new(value),
        }
    }

    /// Counts one sample entering the hand-off path. Call it before the
    /// sample's ring push.
    pub fn hand_off(&self) {
        // ORDERING: Relaxed — the count orders nothing by itself: a lane's
        // claim reads it after the lane's own increments (program order),
        // and after a worker's decrement through the slot mutex (see
        // `try_claim`).
        self.handed_off.fetch_add(1, Ordering::Relaxed);
    }

    /// Uncounts `n` handed-off samples: popped to be scored (under the slot
    /// lock), or gone without a pop.
    pub fn retire(&self, n: usize) {
        // ORDERING: Relaxed — a pop's decrement sits under the slot lock,
        // whose unlock orders it before the next claim (see `hand_off`).
        self.handed_off.fetch_sub(n, Ordering::Relaxed);
    }

    /// Samples currently on the hand-off path (a racy snapshot).
    pub fn handed_off(&self) -> usize {
        // ORDERING: Relaxed — a reporting read.
        self.handed_off.load(Ordering::Relaxed)
    }

    /// Locks the slot without waiting: `None` while another thread holds
    /// it. A poisoned lock is taken over.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.value.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Claims the slot for scoring on the calling thread: locks it without
    /// waiting, and keeps the lock only if no sample of the stream is on the
    /// hand-off path.
    pub fn try_claim(&self) -> Option<MutexGuard<'_, T>> {
        let guard = self.try_lock()?;
        // ORDERING: Relaxed — read under the lock: the mutex acquire orders
        // it after every decrement a popping worker made before unlocking.
        (self.handed_off.load(Ordering::Relaxed) == 0).then_some(guard)
    }

    /// Consumes the slot, returning its value.
    pub fn into_inner(self) -> T {
        self.value
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        assert!(!queue.is_quiescent(), "the backlog outlives the close");
        assert_eq!(values(&queue), vec![1.0], "backlog survives the close");
        assert!(queue.is_quiescent());
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
        let bell = Arc::new(Doorbell::new());
        let producer = {
            let (queue, bell) = (Arc::clone(&queue), Arc::clone(&bell));
            std::thread::spawn(move || {
                for v in 0..50 {
                    queue
                        .push(envelope(0, v as f32), OverloadPolicy::Block, 0)
                        .unwrap();
                    bell.ring();
                }
            })
        };
        let mut seen = Vec::new();
        while seen.len() < 50 {
            // Consume slowly so the producer actually hits the full ring.
            std::thread::sleep(Duration::from_micros(200));
            let batch = queue.try_drain(3);
            if batch.is_empty() {
                bell.park(|| queue.has_pending());
            }
            seen.extend(batch.iter().map(|e| e.sample[0]));
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

    #[test]
    fn doorbell_park_reports_how_it_ended() {
        let bell = Doorbell::new();
        assert!(!bell.ring(), "nobody is parked");
        assert_eq!(bell.park(|| true), Wake::Busy);
        // A ring that lands while the flag is up but before the wait leaves
        // a token: the park returns without sleeping.
        assert_eq!(
            bell.park(|| {
                assert!(bell.ring(), "the flag is up during the re-check");
                false
            }),
            Wake::Rung
        );
        assert!(!bell.ring(), "the flag is down again after the park");
    }

    #[test]
    fn doorbell_ring_wakes_a_parked_consumer() {
        let bell = Arc::new(Doorbell::new());
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                // Keep ringing until a ring finds the consumer parked.
                while !bell.ring() {
                    std::thread::yield_now();
                }
            })
        };
        // The park has no timeout: it returns only once a ring lands.
        let woke = bell.park(|| false);
        ringer.join().unwrap();
        assert_eq!(woke, Wake::Rung);
    }

    #[test]
    fn hand_off_slot_claims_only_with_nothing_handed_off() {
        let slot = HandOffSlot::new(Vec::<u32>::new());
        slot.try_claim()
            .expect("free and nothing handed off")
            .push(0);
        slot.hand_off();
        assert!(
            slot.try_claim().is_none(),
            "a sample is on the hand-off path"
        );
        {
            let mut guard = slot.try_lock().expect("a worker's pop locks it");
            slot.retire(1);
            guard.push(1);
            assert!(slot.try_claim().is_none(), "the worker holds the lock");
        }
        slot.try_claim().expect("popped and scored").push(2);
        assert_eq!(slot.handed_off(), 0);
        assert_eq!(slot.into_inner(), vec![0, 1, 2]);
    }
}
