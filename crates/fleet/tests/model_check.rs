//! Exhaustive interleaving verification of the lock-free ingress ring, the
//! shard worker's doorbell and the inline-scoring claim on a stream's slot.
//!
//! These tests only compile under `--cfg varade_check`, which swaps the
//! `crate::sync` alias inside `varade-fleet` from `std` to varade-check's
//! instrumented facade. Every atomic load/store/RMW, mutex acquire, and
//! condvar wait in [`varade_fleet::RingQueue`], [`varade_fleet::Doorbell`] and
//! [`varade_fleet::HandOffSlot`] then becomes a scheduling point, and [`varade_check::model`] runs the closure under every distinct
//! interleaving within the preemption bound (default 2, override with
//! `VARADE_CHECK_PREEMPTIONS`, `unbounded` for full DFS).
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg varade_check" cargo test -p varade-fleet --test model_check --release
//! ```
//!
//! On a violation the harness panics with a numbered operation trace and a
//! `VARADE_CHECK_REPLAY=<seed>` seed that deterministically reproduces the
//! failing schedule; the same trace is written under `target/varade-check/`.
#![cfg(varade_check)]

use std::sync::Arc;

use varade_check::sync::atomic::{AtomicBool, Ordering};
use varade_check::sync::MutexGuard;
use varade_check::thread;
use varade_fleet::{
    Doorbell, Envelope, FleetError, HandOffSlot, OverloadPolicy, RingQueue, StreamId,
};

fn env(stream: usize) -> Envelope {
    Envelope::new(StreamId::from_index(stream), vec![stream as f32])
}

/// Options for the open-ended models whose schedule space dwarfs the default
/// 10^6 budget: cap at `cap` schedules unless the environment explicitly
/// tunes the bounds (CI quick lanes tighten, the multicore lane loosens).
/// Returns whether the env took over, so callers skip volume assertions
/// under a tightened run.
fn bounded(cap: u64) -> (varade_check::Options, bool) {
    let tuned = std::env::var_os("VARADE_CHECK_MAX_SCHEDULES").is_some()
        || std::env::var_os("VARADE_CHECK_PREEMPTIONS").is_some();
    let mut opts = varade_check::Options::from_env();
    if !tuned {
        opts.max_schedules = cap;
    }
    (opts, tuned)
}

/// A capacity-1 ring forces strict push/pop alternation: the consumer must
/// observe every sample, in exact producer order, and the ring must be empty
/// once producer and consumer agree they are done.
#[test]
fn capacity1_ring_exact_alternation() {
    let report = varade_check::model("fleet_capacity1_alternation", || {
        let q = Arc::new(RingQueue::new(1));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..3 {
                    q.push(env(i), OverloadPolicy::Block, 0)
                        .expect("ring is never closed in this model");
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 3 {
            for e in q.try_drain(4) {
                got.push(e.stream.index());
            }
            if got.len() < 3 {
                thread::yield_now();
            }
        }
        producer.join().expect("producer panicked");
        assert_eq!(
            got,
            vec![0, 1, 2],
            "capacity-1 ring must hand samples over in exact push order"
        );
        assert!(q.is_empty(), "ring must be empty after full handover");
        assert_eq!(q.dropped(), 0, "Block policy never drops");
    });
    assert!(report.schedules > 0);
}

/// Two producers racing one consumer through a capacity-2 ring: every
/// accepted sample is drained exactly once, each producer's samples arrive
/// in that producer's program order, and nothing is dropped or duplicated.
#[test]
fn two_producer_one_consumer_conservation() {
    let (opts, tuned) = bounded(25_000);
    let report = varade_check::model_with(opts, "fleet_2p1c_conservation", || {
        let q = Arc::new(RingQueue::new(2));
        let spawn_producer = |base: usize| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..2 {
                    q.push(env(base + i), OverloadPolicy::Block, 0)
                        .expect("ring is never closed in this model");
                }
            })
        };
        let p1 = spawn_producer(0);
        let p2 = spawn_producer(10);
        let mut got = Vec::new();
        while got.len() < 4 {
            for e in q.try_drain(4) {
                got.push(e.stream.index());
            }
            if got.len() < 4 {
                thread::yield_now();
            }
        }
        p1.join().expect("producer 1 panicked");
        p2.join().expect("producer 2 panicked");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 10, 11],
            "conservation: each accepted sample drained exactly once"
        );
        let pos = |s: usize| got.iter().position(|&g| g == s).expect("present");
        assert!(pos(0) < pos(1), "producer 1's samples must stay in order");
        assert!(pos(10) < pos(11), "producer 2's samples must stay in order");
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 0);
    });
    if !tuned {
        assert!(
            report.schedules >= 10_000,
            "expected at least 10^4 distinct schedules, explored {}",
            report.schedules
        );
    }
}

/// Regression for the close-burst stranding bug: a `close` racing an
/// in-flight push must never strand a sample the push reported as accepted.
/// The consumer — `try_drain` plus a doorbell park, the shard worker's
/// loop — must take every `Ok` push before it sees the ring quiescent.
#[test]
fn close_never_strands_accepted_samples() {
    let report = varade_check::model("fleet_close_quiescence", || {
        let q = Arc::new(RingQueue::new(2));
        let bell = Arc::new(Doorbell::new());
        let producer = {
            let (q, bell) = (Arc::clone(&q), Arc::clone(&bell));
            thread::spawn(move || {
                let mut accepted = 0usize;
                for i in 0..2 {
                    let pushed = q.push(env(i), OverloadPolicy::Reject, 0);
                    bell.ring();
                    match pushed {
                        Ok(()) => accepted += 1,
                        Err(FleetError::Closed) => break,
                        Err(e) => panic!("unexpected push error: {e:?}"),
                    }
                }
                accepted
            })
        };
        let closer = {
            let (q, bell) = (Arc::clone(&q), Arc::clone(&bell));
            thread::spawn(move || {
                q.close();
                bell.ring();
            })
        };
        let mut popped = 0usize;
        loop {
            let batch = q.try_drain(4);
            if !batch.is_empty() {
                popped += batch.len();
            } else if q.is_quiescent() {
                break;
            } else {
                bell.park(|| q.has_pending() || q.is_quiescent());
            }
        }
        let accepted = producer.join().expect("producer panicked");
        closer.join().expect("closer panicked");
        assert_eq!(
            popped, accepted,
            "close-burst stranding: {accepted} pushes accepted but only {popped} drained"
        );
        assert!(q.is_quiescent(), "the ring left quiescence after the close");
    });
    assert!(report.schedules > 0);
}

/// The shard worker's wait protocol on the production ring and doorbell:
/// two producers on two lanes each push one sample and ring (as
/// `FleetHandle::push_from` does), a closer closes both lanes and rings (as
/// the engine's `close_shard` does), and one worker drains with `try_drain`
/// and parks with the engine's ring re-check. In every schedule:
///
/// - every accepted sample is drained exactly once;
/// - the worker exits only once both rings are closed and empty;
/// - no wakeup is lost: no producer finds the flag clear while the worker
///   sleeps on a re-check that missed its sample.
///
/// The last property is checked by the producer, after its ring, against
/// two ghost flags: `committed` (the worker's re-check found nothing and its
/// park has not returned) and `taken[lane]` (the worker has drained the
/// sample). While the worker's flag is up and `committed` holds, a ring that
/// found the flag clear must have loaded it before the park raised it, so
/// its sample was queued before the re-check: the re-check can only have
/// found nothing if the sample was already taken.
#[test]
fn doorbell_never_loses_a_wakeup() {
    let (opts, _) = bounded(100_000);
    let report = varade_check::model_with(opts, "fleet_doorbell_wakeup", || {
        let lanes = Arc::new([RingQueue::new(2), RingQueue::new(2)]);
        let bell = Arc::new(Doorbell::new());
        let committed = Arc::new(AtomicBool::new(false));
        let taken = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let producers: Vec<_> = (0..2)
            .map(|lane| {
                let (lanes, bell) = (Arc::clone(&lanes), Arc::clone(&bell));
                let (committed, taken) = (Arc::clone(&committed), Arc::clone(&taken));
                thread::spawn(move || {
                    let pushed = lanes[lane].push(env(lane), OverloadPolicy::Reject, 0);
                    let rang = bell.ring();
                    // ORDERING: SeqCst — ghost reads; the model executes
                    // sequentially consistently anyway.
                    let asleep = committed.load(Ordering::SeqCst) && bell.is_parked();
                    match pushed {
                        Ok(()) => {
                            assert!(
                                rang || !asleep || taken[lane].load(Ordering::SeqCst),
                                "lost wakeup: lane {lane}'s ring found the flag clear \
                                 while the worker sleeps on a re-check that missed it"
                            );
                            true
                        }
                        Err(FleetError::Closed) => false,
                        Err(e) => panic!("unexpected push error: {e:?}"),
                    }
                })
            })
            .collect();
        let closer = {
            let (lanes, bell) = (Arc::clone(&lanes), Arc::clone(&bell));
            thread::spawn(move || {
                for q in lanes.iter() {
                    q.close();
                }
                bell.ring();
            })
        };

        let mut drained = Vec::new();
        loop {
            for q in lanes.iter() {
                for e in q.try_drain(4) {
                    let lane = e.stream.index();
                    // ORDERING: SeqCst — ghost state (see above).
                    taken[lane].store(true, Ordering::SeqCst);
                    drained.push(lane);
                }
            }
            if lanes.iter().all(RingQueue::is_quiescent) {
                break;
            }
            bell.park(|| {
                let busy = lanes.iter().any(RingQueue::has_pending)
                    || lanes.iter().all(RingQueue::is_quiescent);
                // ORDERING: SeqCst — ghost state (see above).
                committed.store(!busy, Ordering::SeqCst);
                busy
            });
            // ORDERING: SeqCst — ghost state (see above).
            committed.store(false, Ordering::SeqCst);
        }

        let accepted: Vec<usize> = producers
            .into_iter()
            .enumerate()
            .filter_map(|(lane, p)| p.join().expect("producer panicked").then_some(lane))
            .collect();
        closer.join().expect("closer panicked");
        drained.sort_unstable();
        assert_eq!(
            drained, accepted,
            "every accepted sample is drained exactly once"
        );
        assert!(
            lanes.iter().all(|q| q.is_closed() && q.is_empty()),
            "the worker exited before both rings were closed and empty"
        );
    });
    assert!(report.schedules > 0);
}

/// DropOldest drop accounting is exact: with concurrent producers evicting
/// each other on a capacity-1 ring, `remaining + dropped` must equal the
/// number of accepted pushes — no eviction is ever double-counted or lost.
#[test]
fn drop_oldest_accounting_is_exact() {
    let report = varade_check::model("fleet_dropoldest_exact", || {
        let q = Arc::new(RingQueue::new(1));
        let p1 = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..2 {
                    q.push(env(i), OverloadPolicy::DropOldest, 0)
                        .expect("DropOldest never fails while open");
                }
            })
        };
        let p2 = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.push(env(10), OverloadPolicy::DropOldest, 0)
                    .expect("DropOldest never fails while open");
            })
        };
        p1.join().expect("producer 1 panicked");
        p2.join().expect("producer 2 panicked");
        let remaining = q.try_drain(8).len() as u64;
        assert_eq!(
            remaining + q.dropped(),
            3,
            "drop ledger must account for every accepted push exactly once \
             (remaining={remaining}, dropped={})",
            q.dropped()
        );
    });
    assert!(report.schedules > 0);
}

/// Regression for the capacity-1 fullness bug: the counter-based fullness
/// test must report full if and only if the ring actually holds `capacity`
/// samples. Sequentially, push/reject/pop/push must behave exactly; under a
/// racing consumer, accepted and rejected pushes must still conserve.
#[test]
fn capacity1_fullness_is_exact() {
    let report = varade_check::model("fleet_capacity1_fullness", || {
        let q = Arc::new(RingQueue::new(1));
        // Deterministic prefix: exact fullness at capacity 1.
        q.push(env(0), OverloadPolicy::Reject, 0)
            .expect("empty ring");
        match q.push(env(1), OverloadPolicy::Reject, 0) {
            Err(FleetError::QueueFull { .. }) => {}
            other => panic!("full capacity-1 ring must reject, got {other:?}"),
        }
        assert_eq!(q.try_drain(1).len(), 1, "one sample must be present");
        q.push(env(2), OverloadPolicy::Reject, 0)
            .expect("freed slot must accept again");
        assert_eq!(q.try_drain(1).len(), 1);

        // Racy suffix: conservation of accept/reject against a consumer.
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut accepted = 0usize;
                for i in 0..2 {
                    match q.push(env(20 + i), OverloadPolicy::Reject, 0) {
                        Ok(()) => accepted += 1,
                        Err(FleetError::QueueFull { .. }) => {}
                        Err(e) => panic!("unexpected push error: {e:?}"),
                    }
                }
                accepted
            })
        };
        let popped = q.try_drain(1).len();
        let accepted = producer.join().expect("producer panicked");
        let remaining = q.try_drain(2).len();
        assert_eq!(
            accepted,
            popped + remaining,
            "every accepted push is drained exactly once"
        );
    });
    assert!(report.schedules > 0);
}

/// One lane pushing samples 0, 1, 2 of one stream, trying to score the even
/// ones on its own thread (as `FleetHandle::push_from` does when the shard is
/// idle) and handing the rest to a worker through the ring and the doorbell;
/// the worker drains the ring into a pending deque and scores it under the
/// stream's slot lock, retiring each sample as it pops it. `claim` is how the
/// lane takes the slot for an inline score. Returns the samples in the order
/// they were scored.
fn inline_and_hand_off(
    claim: fn(&HandOffSlot<Vec<usize>>) -> Option<MutexGuard<'_, Vec<usize>>>,
) -> Vec<usize> {
    let q = Arc::new(RingQueue::new(4));
    let bell = Arc::new(Doorbell::new());
    let slot = Arc::new(HandOffSlot::new(Vec::new()));
    let lane = {
        let (q, bell, slot) = (Arc::clone(&q), Arc::clone(&bell), Arc::clone(&slot));
        thread::spawn(move || {
            for i in 0..3 {
                if i % 2 == 0 {
                    if let Some(mut scored) = claim(&slot) {
                        scored.push(i);
                        continue;
                    }
                }
                slot.hand_off();
                q.push(env(i), OverloadPolicy::Block, 0)
                    .expect("the ring is closed only by this lane");
                bell.ring();
            }
            q.close();
            bell.ring();
        })
    };
    let mut pending = std::collections::VecDeque::new();
    loop {
        for e in q.try_drain(4) {
            pending.push_back(e.stream.index());
        }
        if let Some(&next) = pending.front() {
            match slot.try_lock() {
                Some(mut scored) => {
                    pending.pop_front();
                    slot.retire(1);
                    scored.push(next);
                }
                None => thread::yield_now(),
            }
            continue;
        }
        if q.is_quiescent() {
            break;
        }
        bell.park(|| q.has_pending() || q.is_quiescent());
    }
    lane.join().expect("lane panicked");
    assert_eq!(
        slot.handed_off(),
        0,
        "a handed-off sample was never retired"
    );
    let scored = slot.try_lock().expect("both threads are done").clone();
    scored
}

/// The inline-scoring claim keeps per-stream order: whichever of the two
/// paths each sample takes, every sample is scored exactly once, in push
/// order. A claim that finds a sample still handed off falls back to the
/// ring, so an inline score never overtakes one.
#[test]
fn inline_claims_score_every_sample_once_in_push_order() {
    let report = varade_check::model("fleet_inline_claim", || {
        assert_eq!(inline_and_hand_off(HandOffSlot::try_claim), vec![0, 1, 2]);
    });
    assert!(report.schedules > 0);
}

/// The hand-off count is what orders the paths: a lane that takes the slot
/// lock alone scores sample 2 before the worker pops sample 1 in some
/// schedule, and the checker must find it.
#[test]
fn a_claim_that_ignores_the_hand_off_count_is_caught() {
    let found = std::panic::catch_unwind(|| {
        varade_check::model("fleet_inline_claim_seeded_bug", || {
            assert_eq!(inline_and_hand_off(HandOffSlot::try_lock), vec![0, 1, 2]);
        });
    });
    assert!(
        found.is_err(),
        "the checker missed an inline score overtaking a hand-off"
    );
}
