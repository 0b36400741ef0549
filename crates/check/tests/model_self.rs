//! Self-tests for the model checker: known-racy programs must produce
//! counterexamples (with working replay seeds), known-correct programs must
//! verify exhaustively.
//!
//! These tests need no `--cfg varade_check` — they drive `varade_check`'s
//! own instrumented types directly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use varade_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use varade_check::sync::Mutex;
use varade_check::{model_with, parse_seed, thread, Options};

fn opts() -> Options {
    // Hermetic: ignore the VARADE_CHECK_* environment in self-tests.
    Options::default()
}

/// Extracts the replay seed from a counterexample panic message.
fn seed_from_panic(payload: &(dyn std::any::Any + Send)) -> Vec<usize> {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("counterexample panic should carry a message");
    let marker = "VARADE_CHECK_REPLAY=";
    let at = msg
        .find(marker)
        .expect("panic message should carry a replay seed");
    let rest = &msg[at + marker.len()..];
    let seed: String = rest.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    parse_seed(&seed).expect("seed should parse")
}

#[test]
fn lost_update_is_found() {
    // Two threads each do a non-atomic read-modify-write (load; store).
    // Some interleaving loses an update, and the explorer must find it.
    let err = catch_unwind(AssertUnwindSafe(|| {
        model_with(opts(), "lost-update", || {
            let n = Arc::new(AtomicUsize::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || {
                        let v = n.load(Ordering::SeqCst);
                        n.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(n.load(Ordering::SeqCst), 2, "an update was lost");
        });
    }))
    .expect_err("the lost-update race must be detected");
    let seed = seed_from_panic(&*err);
    assert!(!seed.is_empty());
}

#[test]
fn atomic_rmw_conservation_verifies() {
    // The same counter with a real fetch_add has no race: exhaustive pass.
    let report = model_with(opts(), "rmw-conservation", || {
        let n = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..3)
            .map(|_| {
                let n = Arc::clone(&n);
                thread::spawn(move || {
                    // ORDERING: the model is sequentially consistent; Relaxed
                    // suffices for a pure counter in the real build too.
                    n.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(n.load(Ordering::Relaxed), 3);
    });
    assert!(report.exhausted, "bounded space should be fully explored");
    assert!(report.schedules > 1, "must explore more than one schedule");
}

/// The ISSUE acceptance case: a deliberately-broken publication ordering —
/// the flag is raised *before* the data it publishes is written — must be
/// caught, and the reported seed must replay to the same violation.
#[test]
fn broken_publish_ordering_caught_with_replayable_trace() {
    fn publish(broken: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
            let writer = thread::spawn(move || {
                if broken {
                    // Bug under test: publish before initializing.
                    f.store(true, Ordering::Release);
                    d.store(42, Ordering::Relaxed);
                } else {
                    // ORDERING: data must be written before the Release
                    // store that publishes it.
                    d.store(42, Ordering::Relaxed);
                    f.store(true, Ordering::Release);
                }
            });
            // ORDERING: Acquire pairs with the writer's Release.
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.load(Ordering::Relaxed), 42, "saw flag before data");
            }
            writer.join().unwrap();
        }
    }

    // The broken version must yield a counterexample...
    let err = catch_unwind(AssertUnwindSafe(|| {
        model_with(opts(), "publish-broken", publish(true));
    }))
    .expect_err("the reversed publication order must be detected");
    let seed = seed_from_panic(&*err);

    // ...whose seed replays deterministically to the same violation.
    let mut replay_opts = opts();
    replay_opts.replay = Some(seed);
    catch_unwind(AssertUnwindSafe(|| {
        model_with(replay_opts, "publish-broken-replay", publish(true));
    }))
    .expect_err("replaying the seed must reproduce the violation");

    // The correct version verifies exhaustively.
    let report = model_with(opts(), "publish-fixed", publish(false));
    assert!(report.exhausted);
}

#[test]
fn mutex_increments_verify_and_spin_wait_terminates() {
    let report = model_with(opts(), "mutex-counter", || {
        let n = Arc::new(Mutex::new(0u32));
        let done = Arc::new(AtomicBool::new(false));
        let (n2, d2) = (Arc::clone(&n), Arc::clone(&done));
        let h = thread::spawn(move || {
            *n2.lock().unwrap() += 1;
            // ORDERING: model is sequentially consistent.
            d2.store(true, Ordering::Release);
        });
        *n.lock().unwrap() += 1;
        // Spin-wait: must terminate under the explorer's yield semantics
        // instead of generating unbounded schedules.
        // ORDERING: Acquire pairs with the Release above.
        while !done.load(Ordering::Acquire) {
            varade_check::sync::hint::spin_loop();
        }
        h.join().unwrap();
        assert_eq!(*n.lock().unwrap(), 2);
    });
    assert!(report.exhausted);
}

#[test]
fn ab_ba_deadlock_is_detected() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        model_with(opts(), "ab-ba-deadlock", || {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            h.join().unwrap();
        });
    }))
    .expect_err("AB-BA lock order inversion must deadlock in some schedule");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

#[test]
fn preemption_bound_zero_misses_the_race_bound_one_finds_it() {
    // Sanity-check the bound semantics: with zero preemptions only
    // round-robin-at-block schedules run, which never interleave the two
    // store pairs; with one preemption the race appears.
    fn racy() -> impl Fn() + Send + Sync + 'static {
        || {
            let x = Arc::new(AtomicUsize::new(0));
            let x2 = Arc::clone(&x);
            let h = thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            h.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 2);
        }
    }
    let mut zero = opts();
    zero.preemptions = Some(0);
    let report = model_with(zero, "race-bound0", racy());
    assert!(report.exhausted);

    let mut one = opts();
    one.preemptions = Some(1);
    catch_unwind(AssertUnwindSafe(|| {
        model_with(one, "race-bound1", racy());
    }))
    .expect_err("one preemption suffices to expose the lost update");
}

/// Seeded bug: code that assumes `try_lock` always succeeds. Some schedule
/// runs it while the helper thread holds the mutex, so the explorer must try
/// the would-block outcome and report it with a replayable seed; falling
/// back to `lock` on that outcome verifies exhaustively.
#[test]
fn try_lock_would_block_outcome_is_explored() {
    fn claim(fall_back: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let h = thread::spawn(move || {
                *m2.lock().unwrap() += 1;
            });
            let mut guard = match m.try_lock() {
                Ok(guard) => guard,
                Err(_) if fall_back => m.lock().unwrap(),
                Err(_) => panic!("try_lock found the mutex held"),
            };
            *guard += 1;
            drop(guard);
            h.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 2);
        }
    }

    let err = catch_unwind(AssertUnwindSafe(|| {
        model_with(opts(), "try-lock-assumed", claim(false));
    }))
    .expect_err("a held mutex must make try_lock fail in some schedule");
    let seed = seed_from_panic(&*err);
    let mut replay_opts = opts();
    replay_opts.replay = Some(seed);
    catch_unwind(AssertUnwindSafe(|| {
        model_with(replay_opts, "try-lock-assumed-replay", claim(false));
    }))
    .expect_err("replaying the seed must reproduce the would-block outcome");

    let report = model_with(opts(), "try-lock-fallback", claim(true));
    assert!(report.exhausted);
}

/// Claims taken with `try_lock` are exclusive: two threads that each enter
/// a critical section only on a successful `try_lock` never overlap, and at
/// least one of them gets in.
#[test]
fn try_lock_claims_are_exclusive() {
    let report = model_with(opts(), "try-lock-exclusive", || {
        let m = Arc::new(Mutex::new(()));
        let inside = Arc::new(AtomicBool::new(false));
        let claims = Arc::new(AtomicUsize::new(0));
        let hs: Vec<_> = (0..2)
            .map(|_| {
                let (m, inside, claims) =
                    (Arc::clone(&m), Arc::clone(&inside), Arc::clone(&claims));
                thread::spawn(move || {
                    if let Ok(_guard) = m.try_lock() {
                        // ORDERING: model is sequentially consistent.
                        assert!(!inside.swap(true, Ordering::SeqCst), "two claims overlap");
                        inside.store(false, Ordering::SeqCst);
                        claims.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // ORDERING: model is sequentially consistent.
        let n = claims.load(Ordering::SeqCst);
        assert!((1..=2).contains(&n), "{n} claims");
    });
    assert!(report.exhausted);
    assert!(report.schedules > 1);
}
