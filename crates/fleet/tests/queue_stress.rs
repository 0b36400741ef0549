//! Cross-thread stress battery for the shard ingress ring ([`RingQueue`]).
//!
//! The contract pinned here:
//!
//! * **Count-and-order exactness**: a producer/consumer pair with seeded
//!   randomized `yield_now` interleavings delivers every sample exactly
//!   once, in push order.
//! * **Conservation**: at any quiescent point,
//!   `accepted == drained + dropped` holds exactly for all three
//!   [`OverloadPolicy`] variants (with `in_flight == 0` implied by joined
//!   producers).
//! * **Shutdown liveness**: a `Block` producer parked on a full queue wakes
//!   *promptly* with a typed [`FleetError::Closed`] when the queue closes —
//!   the regression that motivated the timed-backstop parking design — and a
//!   consumer parked on its [`Doorbell`] wakes promptly when the close rings.
//!
//! Consumers here are shard workers reduced to one ring (see [`consume`]):
//! they drain with `try_drain` and park on a doorbell that every push and
//! close rings, the way `FleetHandle::push_from` and the engine's close do.
//!
//! Edge geometry (capacity 1, wraparound at tiny capacities) gets dedicated
//! coverage because the ring's counter-based fullness and slot-stamp laps
//! are most fragile exactly there.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use varade_fleet::{Doorbell, Envelope, FleetError, OverloadPolicy, RingQueue, StreamId};

fn envelope(value: u32) -> Envelope {
    Envelope::new(StreamId::from_index(0), vec![f32::from_bits(value)])
}

fn value_of(envelope: &Envelope) -> u32 {
    envelope.sample[0].to_bits()
}

/// Sprinkles scheduler noise: yields with probability ~1/4, spins otherwise.
fn jitter(rng: &mut StdRng) {
    if rng.gen_range(0..4) == 0 {
        thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// A shard worker's consumer side for one ring: drain batches of `max()`
/// samples into `take`, park on `bell` while the ring is open and empty, and
/// return once it is closed and quiescent.
fn consume(
    queue: &RingQueue,
    bell: &Doorbell,
    mut max: impl FnMut() -> usize,
    mut take: impl FnMut(Vec<Envelope>),
) {
    loop {
        let batch = queue.try_drain(max());
        if !batch.is_empty() {
            take(batch);
        } else if queue.is_quiescent() {
            return;
        } else {
            bell.park(|| queue.has_pending() || queue.is_quiescent());
        }
    }
}

// ---- Edge geometry ------------------------------------------------------

#[test]
fn capacity_one_alternates_exactly() {
    let queue = RingQueue::new(1);
    for v in 0..200u32 {
        queue.push(envelope(v), OverloadPolicy::Reject, 0).unwrap();
        // The single slot is now occupied: one more push must be refused
        // without disturbing the queued sample.
        let err = queue
            .push(envelope(v + 1_000_000), OverloadPolicy::Reject, 3)
            .unwrap_err();
        assert!(
            matches!(err, FleetError::QueueFull { shard: 3, .. }),
            "expected QueueFull, got {err:?}"
        );
        let drained = queue.try_drain(usize::MAX);
        assert_eq!(drained.len(), 1, "lost the queued sample");
        assert_eq!(value_of(&drained[0]), v, "wrong sample");
    }
    assert_eq!(queue.dropped(), 0);
}

#[test]
fn tiny_capacities_preserve_order_across_many_wraparounds() {
    // Capacities around the ring's power-of-two rounding (1→2 slots, 3→4,
    // 5→8) cycle the slot stamps through many laps; order must survive.
    for capacity in [1usize, 2, 3, 5] {
        let queue = RingQueue::new(capacity);
        let mut out = Vec::new();
        let mut next = 0u32;
        while out.len() < 1_000 {
            for _ in 0..capacity {
                queue
                    .push(envelope(next), OverloadPolicy::Reject, 0)
                    .unwrap();
                next += 1;
            }
            out.extend(queue.try_drain(usize::MAX).iter().map(value_of));
        }
        assert_eq!(
            out,
            (0..out.len() as u32).collect::<Vec<_>>(),
            "capacity {capacity}: order broke across wraparound"
        );
    }
}

// ---- Cross-thread exactness under randomized interleavings --------------

#[test]
fn cross_thread_block_delivers_every_sample_exactly_once_in_order() {
    const N: u32 = 20_000;
    for seed in [7u64, 1312, 90210] {
        let queue = Arc::new(RingQueue::new(8));
        let bell = Arc::new(Doorbell::new());
        let producer = {
            let (queue, bell) = (Arc::clone(&queue), Arc::clone(&bell));
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for v in 0..N {
                    queue.push(envelope(v), OverloadPolicy::Block, 0).unwrap();
                    bell.ring();
                    jitter(&mut rng);
                }
                queue.close();
                bell.ring();
            })
        };
        let rng = std::cell::RefCell::new(StdRng::seed_from_u64(seed ^ 0xD00D));
        let mut seen = Vec::with_capacity(N as usize);
        // Randomize batch sizes too, so drains split the stream at
        // arbitrary points.
        consume(
            &queue,
            &bell,
            || rng.borrow_mut().gen_range(1..17),
            |batch| {
                seen.extend(batch.iter().map(value_of));
                jitter(&mut rng.borrow_mut());
            },
        );
        producer.join().unwrap();
        assert_eq!(
            seen,
            (0..N).collect::<Vec<_>>(),
            "seed {seed}: samples lost, duplicated or reordered"
        );
        assert_eq!(queue.dropped(), 0);
    }
}

#[test]
fn drop_oldest_under_contention_balances_the_ledger_and_keeps_order() {
    // DropOldest makes the producer a second dequeuer on the same ring — the
    // hardest concurrency case. Exactness contract: every pushed sample is
    // either drained or counted dropped (never both, never neither), and the
    // drained subsequence stays in push order.
    const N: u32 = 20_000;
    for seed in [11u64, 2024] {
        let queue = Arc::new(RingQueue::new(4));
        let bell = Arc::new(Doorbell::new());
        let producer = {
            let (queue, bell) = (Arc::clone(&queue), Arc::clone(&bell));
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for v in 0..N {
                    queue
                        .push(envelope(v), OverloadPolicy::DropOldest, 0)
                        .unwrap();
                    bell.ring();
                    if rng.gen_range(0..8) == 0 {
                        jitter(&mut rng);
                    }
                }
                queue.close();
                bell.ring();
            })
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut seen = Vec::new();
        consume(
            &queue,
            &bell,
            || 16,
            |batch| {
                seen.extend(batch.iter().map(value_of));
                jitter(&mut rng);
            },
        );
        producer.join().unwrap();
        // Conservation at quiescence: producer joined (in_flight == 0),
        // the consumer returned (queue closed and empty).
        assert_eq!(
            seen.len() as u64 + queue.dropped(),
            u64::from(N),
            "seed {seed}: drained + dropped != pushed"
        );
        // The survivors must be a strictly increasing subsequence of the
        // push order — DropOldest may shed samples but never reorders or
        // duplicates.
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: drained samples out of order"
        );
    }
}

#[test]
fn reject_under_contention_conserves_accepted_samples_exactly() {
    const N: u32 = 20_000;
    let queue = Arc::new(RingQueue::new(4));
    let bell = Arc::new(Doorbell::new());
    let accepted = Arc::new(AtomicU64::new(0));
    let producer = {
        let (queue, bell) = (Arc::clone(&queue), Arc::clone(&bell));
        let accepted = Arc::clone(&accepted);
        thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            for v in 0..N {
                match queue.push(envelope(v), OverloadPolicy::Reject, 0) {
                    Ok(()) => {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(FleetError::QueueFull { .. }) => {}
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
                bell.ring();
                if rng.gen_range(0..16) == 0 {
                    jitter(&mut rng);
                }
            }
            queue.close();
            bell.ring();
        })
    };
    let mut drained = 0u64;
    let mut last = None;
    consume(
        &queue,
        &bell,
        || 8,
        |batch| {
            for envelope in &batch {
                let v = value_of(envelope);
                // Accepted samples keep their relative order even when some
                // pushes in between were refused.
                assert!(last.is_none_or(|prev| prev < v), "reordered");
                last = Some(v);
            }
            drained += batch.len() as u64;
        },
    );
    producer.join().unwrap();
    assert_eq!(
        drained,
        accepted.load(Ordering::Relaxed),
        "accepted samples lost or duplicated"
    );
    assert_eq!(queue.dropped(), 0, "Reject must never count drops");
}

// ---- Shutdown liveness (timed) ------------------------------------------

/// Generous on a loaded CI box; the actual wake should be microseconds
/// (explicit notify + 1 ms park backstop).
const WAKE_BUDGET: Duration = Duration::from_secs(2);

#[test]
fn close_wakes_a_block_producer_promptly() {
    let queue = Arc::new(RingQueue::new(1));
    queue.push(envelope(0), OverloadPolicy::Block, 0).unwrap();
    let blocked = {
        let queue = Arc::clone(&queue);
        thread::spawn(move || {
            // The queue is full: this parks until the close.
            let result = queue.push(envelope(1), OverloadPolicy::Block, 0);
            (result, Instant::now())
        })
    };
    // Give the producer real time to pass its spin phase and park.
    thread::sleep(Duration::from_millis(30));
    let closed_at = Instant::now();
    queue.close();
    let (result, woke_at) = blocked.join().unwrap();
    assert_eq!(
        result,
        Err(FleetError::Closed),
        "parked producer did not get the typed close error"
    );
    assert!(
        woke_at.duration_since(closed_at) < WAKE_BUDGET,
        "close-to-wake took {:?}",
        woke_at.duration_since(closed_at)
    );
    // The sample accepted before the close is still there.
    assert_eq!(queue.try_drain(usize::MAX).len(), 1);
}

#[test]
fn close_wakes_an_empty_queue_consumer_promptly() {
    let queue = Arc::new(RingQueue::new(4));
    let bell = Arc::new(Doorbell::new());
    let consumer = {
        let (queue, bell) = (Arc::clone(&queue), Arc::clone(&bell));
        thread::spawn(move || {
            let mut drained = 0usize;
            consume(&queue, &bell, || usize::MAX, |batch| drained += batch.len());
            (drained, Instant::now())
        })
    };
    thread::sleep(Duration::from_millis(30));
    let closed_at = Instant::now();
    queue.close();
    bell.ring();
    let (drained, woke_at) = consumer.join().unwrap();
    assert_eq!(drained, 0, "consumer should see end-of-stream");
    assert!(
        woke_at.duration_since(closed_at) < WAKE_BUDGET,
        "close-to-wake took {:?}",
        woke_at.duration_since(closed_at)
    );
}

#[test]
fn close_during_a_block_burst_never_strands_an_accepted_sample() {
    // The race this pins: a push passes the closed check, the close and a
    // final drain complete, then the push lands in a dead queue. The ring's
    // in-flight counter must make that impossible: every Ok(()) push is drained, every refused push errors.
    for seed in [5u64, 77] {
        let queue = Arc::new(RingQueue::new(4));
        let accepted = Arc::new(AtomicU64::new(0));
        let producer = {
            let queue = Arc::clone(&queue);
            let accepted = Arc::clone(&accepted);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                for v in 0..100_000u32 {
                    match queue.push(envelope(v), OverloadPolicy::Block, 0) {
                        Ok(()) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(FleetError::Closed) => break,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                    if rng.gen_range(0..32) == 0 {
                        thread::yield_now();
                    }
                }
            })
        };
        // Let the burst run, then close mid-flight from a third thread.
        thread::sleep(Duration::from_millis(5));
        queue.close();
        // Consumer pattern mirrors a shard worker's shutdown: drain until
        // quiescent, then one final sweep.
        let mut drained = 0u64;
        while !queue.is_quiescent() {
            drained += queue.try_drain(64).len() as u64;
            thread::yield_now();
        }
        drained += queue.try_drain(usize::MAX).len() as u64;
        producer.join().unwrap();
        assert_eq!(
            drained,
            accepted.load(Ordering::Relaxed),
            "seed {seed}: accepted samples stranded by the close"
        );
    }
}
