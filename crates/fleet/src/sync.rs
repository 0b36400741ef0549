//! Synchronization-primitive alias for the lock-free hot path.
//!
//! Normal builds re-export `std::sync` (and `std::hint`/`std::thread`)
//! directly — a zero-cost alias with bit-identical codegen, pinned by the
//! existing golden/equivalence suites. Under `RUSTFLAGS="--cfg
//! varade_check"` the same names resolve to `varade_check::sync`'s
//! instrumented facade, so `tests/model_check.rs` can exhaustively explore
//! every bounded interleaving of [`crate::queue`]'s ring and doorbell
//! atomics through the *production* code path (no test-only forks of the
//! queue logic).
//!
//! Every atomic in the crate routes through this module: the ring, the
//! doorbell and the hand-off slot in `queue.rs`, and the engine's `owner`,
//! `queued`, `ingest_done` and lane-clock words in `engine.rs`. A stream's
//! scoring slot is a [`crate::queue::HandOffSlot`], so its mutex (taken
//! with `try_lock` by rounds and inline pushes alike) is model-visible too;
//! the engine's pending-deque and model-slot mutexes stay on `std::sync`.

pub(crate) mod atomic {
    #[cfg(not(varade_check))]
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(varade_check)]
    pub(crate) use varade_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(not(varade_check))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(varade_check)]
pub(crate) use varade_check::sync::{Condvar, Mutex, MutexGuard};

pub(crate) mod hint {
    #[cfg(not(varade_check))]
    pub(crate) use std::hint::spin_loop;
    #[cfg(varade_check)]
    pub(crate) use varade_check::sync::hint::spin_loop;
}

pub(crate) mod thread {
    #[cfg(not(varade_check))]
    pub(crate) use std::thread::yield_now;
    #[cfg(varade_check)]
    pub(crate) use varade_check::sync::thread::yield_now;
}
