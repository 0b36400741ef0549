//! Instrumented drop-in replacements for the `std::sync` surface the
//! workspace hot path uses.
//!
//! Inside a [`crate::model`] execution every operation on these types is a
//! schedule point: the calling thread traps into the deterministic
//! scheduler, which decides (exploring all alternatives across runs) which
//! thread steps next. Outside a model execution — e.g. in a crate's normal
//! unit tests compiled with `--cfg varade_check` — every type passes
//! straight through to its `std` counterpart, so the same binary can run
//! both instrumented and ordinary tests.
//!
//! Production builds never see these types at all: `varade-fleet` and
//! `varade-obs` route their imports through a `crate::sync` alias module
//! that re-exports `std::sync` unless `--cfg varade_check` is set, so the
//! normal-build codegen is bit-identical to using `std` directly.
//!
//! Modeling notes (each is a *sound* simplification for the invariants the
//! suites check):
//!
//! * all atomic orderings execute sequentially consistently (see the
//!   [`crate::explore`] module docs for why, and what covers the weak-memory
//!   axis instead);
//! * `compare_exchange_weak` never fails spuriously (callers must already
//!   tolerate the strong behavior; the surrounding retry loop is still
//!   explored);
//! * `Condvar::wait`/`wait_timeout` are modeled as unlock → yield → relock,
//!   i.e. an immediate spurious wakeup, and `notify_*` are no-ops. The std
//!   contract requires tolerating exactly this, so any invariant that holds
//!   in the model holds under real condvars too. A missed wakeup is not a
//!   blocked thread here: an untimed wait loop (the fleet's doorbell)
//!   re-checks its condition forever instead, which the step limit reports
//!   as a livelock;
//! * `Mutex` poisoning is not modeled (a panicking model thread aborts the
//!   whole execution as a counterexample instead).

use crate::explore::{current_ctx, Execution, OpDesc, ThreadCtx};

/// Instrumented atomics plus a re-export of [`std::sync::atomic::Ordering`].
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::super::explore::{current_ctx, Execution, OpDesc};

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ty, $prim:ty, to_u64 = $to:expr, from_u64 = $from:expr) => {
            /// Instrumented counterpart of the same-named `std` atomic: a
            /// schedule point per operation inside a model execution,
            /// pass-through to `std` outside one.
            pub struct $name {
                v: $std,
                /// Model-execution value id, assigned on first use inside an
                /// execution (registration order is deterministic per
                /// schedule, so ids are stable across replays).
                id: std::sync::OnceLock<u32>,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self {
                        v: <$std>::new(v),
                        id: std::sync::OnceLock::new(),
                    }
                }

                fn id_for(&self, exec: &Execution) -> u32 {
                    // ORDERING: SeqCst — the facade executes every
                    // instrumented operation sequentially consistently; the
                    // caller's requested ordering is recorded in the trace
                    // instead (see the module docs).
                    *self
                        .id
                        .get_or_init(|| exec.register_value(($to)(self.v.load(Ordering::SeqCst))))
                }

                pub fn load(&self, ord: Ordering) -> $prim {
                    match current_ctx() {
                        None => self.v.load(ord),
                        Some(ctx) => {
                            let id = self.id_for(&ctx.exec);
                            ctx.exec.schedule(ctx.tid, |_st| {
                                // ORDERING: SeqCst — model executes SC; the
                                // requested `ord` goes into the trace only.
                                let val = self.v.load(Ordering::SeqCst);
                                (
                                    val,
                                    OpDesc::Load {
                                        id: Some(id),
                                        val: ($to)(val),
                                        ord,
                                    },
                                )
                            })
                        }
                    }
                }

                pub fn store(&self, val: $prim, ord: Ordering) {
                    match current_ctx() {
                        None => self.v.store(val, ord),
                        Some(ctx) => {
                            let id = self.id_for(&ctx.exec);
                            ctx.exec.schedule(ctx.tid, |st| {
                                // ORDERING: SeqCst — model executes SC; the
                                // requested `ord` goes into the trace only.
                                self.v.store(val, Ordering::SeqCst);
                                Execution::set_value(st, Some(id), ($to)(val));
                                (
                                    (),
                                    OpDesc::Store {
                                        id: Some(id),
                                        val: ($to)(val),
                                        ord,
                                    },
                                )
                            })
                        }
                    }
                }

                pub fn swap(&self, val: $prim, ord: Ordering) -> $prim {
                    self.rmw("swap", ord, |_| val)
                }

                fn rmw(
                    &self,
                    op: &'static str,
                    ord: Ordering,
                    f: impl Fn($prim) -> $prim,
                ) -> $prim {
                    match current_ctx() {
                        None => {
                            // Pass-through RMW via a CAS loop on the std
                            // atomic (covers every op uniformly).
                            // ORDERING: SeqCst load/failure — conservative
                            // blanket for the uninstrumented path; success
                            // honors the caller's `ord`.
                            let mut prev = self.v.load(Ordering::SeqCst);
                            loop {
                                match self.v.compare_exchange_weak(
                                    prev,
                                    f(prev),
                                    ord,
                                    // ORDERING: SeqCst failure — see above.
                                    Ordering::SeqCst,
                                ) {
                                    Ok(p) => return p,
                                    Err(p) => prev = p,
                                }
                            }
                        }
                        Some(ctx) => {
                            let id = self.id_for(&ctx.exec);
                            ctx.exec.schedule(ctx.tid, |st| {
                                // ORDERING: SeqCst — model executes SC; the
                                // requested `ord` goes into the trace only.
                                let prev = self.v.load(Ordering::SeqCst);
                                let new = f(prev);
                                self.v.store(new, Ordering::SeqCst);
                                Execution::set_value(st, Some(id), ($to)(new));
                                (
                                    prev,
                                    OpDesc::Rmw {
                                        id: Some(id),
                                        prev: ($to)(prev),
                                        new: ($to)(new),
                                        op,
                                    },
                                )
                            })
                        }
                    }
                }

                pub fn compare_exchange(
                    &self,
                    expected: $prim,
                    new: $prim,
                    ok_ord: Ordering,
                    err_ord: Ordering,
                ) -> Result<$prim, $prim> {
                    match current_ctx() {
                        None => self.v.compare_exchange(expected, new, ok_ord, err_ord),
                        Some(ctx) => {
                            let id = self.id_for(&ctx.exec);
                            ctx.exec.schedule(ctx.tid, |st| {
                                // ORDERING: SeqCst — model executes SC; the
                                // requested orderings go into the trace only.
                                let r = self.v.compare_exchange(
                                    expected,
                                    new,
                                    Ordering::SeqCst,
                                    Ordering::SeqCst,
                                );
                                if r.is_ok() {
                                    Execution::set_value(st, Some(id), ($to)(new));
                                }
                                let prev = match r {
                                    Ok(p) | Err(p) => p,
                                };
                                (
                                    r,
                                    OpDesc::Cas {
                                        id: Some(id),
                                        prev: ($to)(prev),
                                        new: ($to)(new),
                                        ok: r.is_ok(),
                                    },
                                )
                            })
                        }
                    }
                }

                /// Modeled as the strong variant: no spurious failures (the
                /// caller's retry loop is explored regardless).
                pub fn compare_exchange_weak(
                    &self,
                    expected: $prim,
                    new: $prim,
                    ok_ord: Ordering,
                    err_ord: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(expected, new, ok_ord, err_ord)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // ORDERING: SeqCst — debug snapshot, strongest ordering
                    // for a diagnostic read outside any protocol.
                    f.debug_tuple(stringify!($name))
                        .field(&self.v.load(Ordering::SeqCst))
                        .finish()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }
        };
    }

    /// Adds the numeric fetch-ops (absent on `AtomicBool`, matching std).
    macro_rules! instrumented_numeric_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                pub fn fetch_add(&self, delta: $prim, ord: Ordering) -> $prim {
                    self.rmw("fetch_add", ord, |p| p.wrapping_add(delta))
                }

                pub fn fetch_sub(&self, delta: $prim, ord: Ordering) -> $prim {
                    self.rmw("fetch_sub", ord, |p| p.wrapping_sub(delta))
                }

                pub fn fetch_max(&self, val: $prim, ord: Ordering) -> $prim {
                    self.rmw("fetch_max", ord, |p| p.max(val))
                }

                pub fn fetch_min(&self, val: $prim, ord: Ordering) -> $prim {
                    self.rmw("fetch_min", ord, |p| p.min(val))
                }
            }
        };
    }

    instrumented_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        to_u64 = |v: usize| v as u64,
        from_u64 = |v: u64| v as usize
    );
    instrumented_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        to_u64 = |v: u64| v,
        from_u64 = |v: u64| v
    );
    instrumented_atomic!(
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool,
        to_u64 = |v: bool| v as u64,
        from_u64 = |v: u64| v != 0
    );
    instrumented_numeric_ops!(AtomicUsize, usize);
    instrumented_numeric_ops!(AtomicU64, u64);
}

/// `std`-compatible `LockResult`: the model never poisons, so lock
/// operations always return `Ok`.
pub type LockResult<T> = Result<T, std::sync::PoisonError<T>>;

/// `std`-compatible `TryLockResult`: inside a model a `try_lock` fails only
/// with [`std::sync::TryLockError::WouldBlock`].
pub type TryLockResult<T> = Result<T, std::sync::TryLockError<T>>;

/// Instrumented mutex: lock/unlock are schedule points; contention parks the
/// model thread until a scheduling decision after the owner's unlock picks
/// it again. `try_lock` is one schedule point that never parks: on a held
/// mutex it returns `WouldBlock`.
pub struct Mutex<T> {
    id: std::sync::OnceLock<u32>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            id: std::sync::OnceLock::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    fn id_for(&self, exec: &Execution) -> u32 {
        *self.id.get_or_init(|| exec.register_mutex())
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match current_ctx() {
            None => {
                let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    mutex: self,
                    inner: Some(g),
                    ctx: None,
                })
            }
            Some(ctx) => {
                let id = self.id_for(&ctx.exec);
                ctx.exec.schedule_blocking(
                    ctx.tid,
                    || OpDesc::MutexLock { id },
                    |st, me| Execution::mutex_try_acquire(st, id, me).then_some(()),
                );
                // The model granted us the lock; the std mutex must be free
                // (only the model owner ever holds it).
                let g = self
                    .inner
                    .try_lock()
                    .expect("model mutex granted but std mutex contended");
                Ok(MutexGuard {
                    mutex: self,
                    inner: Some(g),
                    ctx: Some(ctx),
                })
            }
        }
    }

    /// Acquires the mutex only if it is free. Inside a model the attempt is
    /// one schedule point whose outcome (acquired or would-block) is
    /// explored like a load's value; it never blocks the model thread.
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match current_ctx() {
            None => {
                let g = match self.inner.try_lock() {
                    Ok(g) => g,
                    Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        return Err(std::sync::TryLockError::WouldBlock)
                    }
                };
                Ok(MutexGuard {
                    mutex: self,
                    inner: Some(g),
                    ctx: None,
                })
            }
            Some(ctx) => {
                let id = self.id_for(&ctx.exec);
                let acquired = ctx.exec.schedule(ctx.tid, |st| {
                    let acquired = Execution::mutex_try_lock(st, id, ctx.tid);
                    (acquired, OpDesc::MutexTryLock { id, acquired })
                });
                if !acquired {
                    return Err(std::sync::TryLockError::WouldBlock);
                }
                let g = self
                    .inner
                    .try_lock()
                    .expect("model mutex granted but std mutex contended");
                Ok(MutexGuard {
                    mutex: self,
                    inner: Some(g),
                    ctx: Some(ctx),
                })
            }
        }
    }

    /// Consumes the mutex, returning its value (no schedule point: the
    /// caller owns the mutex, so no other thread can reach it).
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.inner.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; dropping it is the unlock schedule point.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<ThreadCtx>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std mutex before the model unlock so the next model
        // owner's try_lock succeeds.
        drop(self.inner.take());
        if let Some(ctx) = &self.ctx {
            let id = self.mutex.id_for(&ctx.exec);
            if std::thread::panicking() {
                // Unwinding (assertion counterexample or abort teardown):
                // release without a schedule point — a panic here would be a
                // fatal double panic in a destructor.
                ctx.exec.release_mutex_raw(id, ctx.tid);
            } else {
                ctx.exec.schedule(ctx.tid, |st| {
                    Execution::mutex_release(st, id, ctx.tid);
                    ((), OpDesc::MutexUnlock { id })
                });
            }
        }
    }
}

/// Result of [`Condvar::wait_timeout`]; the model always reports a timeout
/// (the wakeup it models is the spurious/timed one).
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented condvar. `wait`/`wait_timeout` are modeled as unlock →
/// yield → relock (an immediate spurious wakeup — permitted by the std
/// contract, so invariants proven here transfer); `notify_*` are no-ops in
/// the model because every waiter wakes spuriously anyway.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match current_ctx() {
            None => {
                let mut guard = guard;
                let mutex = guard.mutex;
                let std_guard = guard.inner.take().expect("guard taken");
                drop(guard); // inner taken + no model ctx: a no-op Drop
                let g = self
                    .inner
                    .wait(std_guard)
                    .unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    mutex,
                    inner: Some(g),
                    ctx: None,
                })
            }
            Some(ctx) => {
                let mutex = guard.mutex;
                drop(guard); // model unlock schedule point
                ctx.exec
                    .schedule(ctx.tid, |_st| ((), OpDesc::CondWait { timed: false }));
                ctx.exec.yield_point(ctx.tid, false);
                mutex.lock() // model relock schedule point
            }
        }
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match current_ctx() {
            None => {
                let mut guard = guard;
                let mutex = guard.mutex;
                let std_guard = guard.inner.take().expect("guard taken");
                drop(guard); // inner taken + no model ctx: a no-op Drop
                let (g, to) = self
                    .inner
                    .wait_timeout(std_guard, dur)
                    .unwrap_or_else(|e| e.into_inner());
                Ok((
                    MutexGuard {
                        mutex,
                        inner: Some(g),
                        ctx: None,
                    },
                    WaitTimeoutResult(to.timed_out()),
                ))
            }
            Some(ctx) => {
                let mutex = guard.mutex;
                drop(guard);
                ctx.exec
                    .schedule(ctx.tid, |_st| ((), OpDesc::CondWait { timed: true }));
                ctx.exec.yield_point(ctx.tid, false);
                let g = mutex.lock().expect("model mutex never poisons");
                Ok((g, WaitTimeoutResult(true)))
            }
        }
    }

    /// No-op inside the model (all waiters wake spuriously); real notify
    /// outside it.
    pub fn notify_one(&self) {
        if current_ctx().is_none() {
            self.inner.notify_one();
        }
    }

    /// See [`Condvar::notify_one`].
    pub fn notify_all(&self) {
        if current_ctx().is_none() {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// Instrumented `std::hint` subset: `spin_loop` is a yield point so
/// spin-wait loops deschedule instead of monopolizing the explorer.
pub mod hint {
    use super::current_ctx;

    pub fn spin_loop() {
        match current_ctx() {
            None => std::hint::spin_loop(),
            Some(ctx) => ctx.exec.yield_point(ctx.tid, true),
        }
    }
}

/// Instrumented `std::thread` subset: spawn/join/yield trap into the model
/// scheduler inside an execution, pass through to `std::thread` outside.
pub mod thread {
    use std::sync::Arc;

    use super::super::explore::{current_ctx, AbortToken, Execution, OpDesc};

    pub fn yield_now() {
        match current_ctx() {
            None => std::thread::yield_now(),
            Some(ctx) => ctx.exec.yield_point(ctx.tid, false),
        }
    }

    enum HandleImpl<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            tid: usize,
            // The model wrapper stores the closure's result here; join()
            // takes it after the scheduler reports the thread finished.
            slot: Arc<std::sync::Mutex<Option<std::thread::Result<T>>>>,
        },
    }

    /// Join handle matching `std::thread::JoinHandle`'s `join` surface.
    pub struct JoinHandle<T>(HandleImpl<T>);

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                HandleImpl::Std(h) => h.join(),
                HandleImpl::Model { tid, slot } => {
                    let ctx = current_ctx().expect("model JoinHandle joined outside an execution");
                    ctx.exec.schedule_blocking(
                        ctx.tid,
                        || OpDesc::Join { target: tid },
                        |st, me| {
                            if Execution::thread_finished(st, tid) {
                                Some(())
                            } else {
                                Execution::block_on_join(st, me, tid);
                                None
                            }
                        },
                    );
                    slot.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("joined model thread left no result")
                }
            }
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match current_ctx() {
            None => JoinHandle(HandleImpl::Std(std::thread::spawn(f))),
            Some(ctx) => {
                let slot: Arc<std::sync::Mutex<Option<std::thread::Result<T>>>> =
                    Arc::new(std::sync::Mutex::new(None));
                let slot2 = Arc::clone(&slot);
                let body = Box::new(move || {
                    // Catch the closure's own panic so join() can report it
                    // like std does; AbortToken unwinds must keep going so
                    // the execution tears down, and real panics re-unwind so
                    // the scheduler records the failure.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                        Ok(v) => {
                            *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(v));
                        }
                        Err(p) => {
                            if p.is::<AbortToken>() {
                                std::panic::panic_any(AbortToken);
                            }
                            std::panic::resume_unwind(p);
                        }
                    }
                });
                let tid = ctx.exec.spawn_model_thread(ctx.tid, body);
                JoinHandle(HandleImpl::Model { tid, slot })
            }
        }
    }
}
