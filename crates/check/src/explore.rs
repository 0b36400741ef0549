//! Deterministic bounded-interleaving explorer: the engine behind
//! [`model`].
//!
//! # Execution model
//!
//! A *model* is a closure that builds the data structure under test and
//! spawns model threads via [`crate::sync::thread::spawn`]. Every
//! instrumented synchronization operation ([`crate::sync::atomic`] loads,
//! stores, RMWs, mutex lock/unlock, yields) is a **schedule point**: the
//! arriving thread traps into the scheduler, which decides — depth-first
//! over *all* alternatives within a preemption bound — which thread performs
//! its pending operation next. Only one model thread ever runs at a time
//! (each is a real OS thread parked on a condvar until granted), so every
//! operation is naturally atomic and an execution is a *sequentially
//! consistent* interleaving of the instrumented operations.
//!
//! What this checks and what it cannot: the explorer proves an invariant
//! over every SC interleaving within the bound — lost updates, ABA windows,
//! publish-before-initialize statement orderings, close/in-flight races and
//! stranded-element bugs are all in scope. It does **not** simulate weaker
//! memory orders (an `Ordering::Relaxed` store behaves like `SeqCst` here);
//! the workspace covers that axis with the ThreadSanitizer CI lane and the
//! `// ORDERING:` justification discipline enforced by `varade-lint`.
//!
//! # Exploration strategy
//!
//! Stateless replay DFS in the style of loom/CHESS:
//!
//! * every decision records the set of enabled threads; after an execution
//!   completes, the deepest decision with an untried alternative is flipped
//!   and the run is replayed from scratch with that choice prefix;
//! * **bounded preemptions**: switching away from a thread that could have
//!   continued costs one unit from the budget
//!   (`VARADE_CHECK_PREEMPTIONS`, default 2); voluntary switches (yields,
//!   blocking, thread exit) are free — the CHESS result is that almost all
//!   real schedule bugs surface within a bound of 2;
//! * **state-hash dedup**: after each operation the scheduler hashes the
//!   shared state (every registered atomic and mutex), each thread's
//!   position and the exact history of values it has observed, plus the
//!   preemption count. A state reached beyond the replay prefix that was
//!   already fully expanded by an earlier default-schedule continuation
//!   registers no new branches — a sound prune, because the continuation of
//!   a deterministic model is a function of that captured state;
//! * **yield semantics**: a thread at a `spin_loop`/`yield_now` point is
//!   descheduled in favor of any runnable non-yielded thread, which makes
//!   spin-wait loops terminate under exploration instead of generating
//!   unbounded schedules (livelocks are caught by the per-execution step
//!   limit instead).
//!
//! # Counterexamples
//!
//! An assertion failure, panic, deadlock, or step-limit hit aborts the
//! exploration and panics with a full trace of the failing schedule — every
//! decision and operation, in order — plus a compact **replay seed**.
//! Re-running the same test with `VARADE_CHECK_REPLAY=<seed>` replays
//! exactly that interleaving (and prints its trace), which turns a
//! one-in-ten-thousand schedule into a deterministic unit test. On failure
//! the trace is also written to `target/varade-check/<model>.trace.txt` so
//! CI can upload it as an artifact.

use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Hard cap on model threads per execution (replay seeds encode a thread
/// choice as one hex digit).
pub const MAX_THREADS: usize = 16;

/// Panic payload used to unwind model threads when an execution aborts
/// (failure found, or exploration shutting down). Never user-visible.
pub(crate) struct AbortToken;

/// Exploration limits and replay controls.
///
/// [`Options::from_env`] is what [`model`] uses; the environment knobs keep
/// the CI quick lane and the full lane on the same test code:
///
/// | variable | meaning | default |
/// |---|---|---|
/// | `VARADE_CHECK_PREEMPTIONS` | preemption bound (`unbounded` allowed) | 2 |
/// | `VARADE_CHECK_MAX_SCHEDULES` | stop after this many schedules | 1_000_000 |
/// | `VARADE_CHECK_MAX_STEPS` | per-execution step (livelock) limit | 50_000 |
/// | `VARADE_CHECK_REPLAY` | replay seed from a failure report | — |
#[derive(Debug, Clone)]
pub struct Options {
    /// Maximum forced preemptions per execution; `None` = unbounded.
    pub preemptions: Option<usize>,
    /// Maximum number of schedules to explore before giving up on
    /// exhaustiveness (the [`Report`] then has `exhausted == false`).
    pub max_schedules: u64,
    /// Per-execution schedule-point budget; exceeding it is reported as a
    /// livelock counterexample.
    pub max_steps: u64,
    /// When set, run exactly this one schedule and print its trace.
    pub replay: Option<Vec<usize>>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemptions: Some(2),
            max_schedules: 1_000_000,
            max_steps: 50_000,
            replay: None,
        }
    }
}

impl Options {
    /// Builds options from the `VARADE_CHECK_*` environment variables.
    pub fn from_env() -> Self {
        let mut opts = Options::default();
        if let Ok(v) = std::env::var("VARADE_CHECK_PREEMPTIONS") {
            opts.preemptions = if v == "unbounded" {
                None
            } else {
                Some(v.parse().unwrap_or(2))
            };
        }
        if let Ok(v) = std::env::var("VARADE_CHECK_MAX_SCHEDULES") {
            if let Ok(n) = v.parse() {
                opts.max_schedules = n;
            }
        }
        if let Ok(v) = std::env::var("VARADE_CHECK_MAX_STEPS") {
            if let Ok(n) = v.parse() {
                opts.max_steps = n;
            }
        }
        if let Ok(v) = std::env::var("VARADE_CHECK_REPLAY") {
            opts.replay = decode_seed(&v);
        }
        opts
    }
}

/// Summary of one completed exploration, returned by [`model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Number of distinct schedules (full executions) explored.
    pub schedules: u64,
    /// Number of distinct post-operation states encountered (the dedup set).
    pub distinct_states: u64,
    /// Whether the bounded schedule space was explored to completion
    /// (`false` means `max_schedules` was hit first).
    pub exhausted: bool,
    /// Deepest schedule (in decisions) seen.
    pub max_depth: usize,
}

// ---------------------------------------------------------------------------
// Per-execution scheduler state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Runnable,
    Yielded,
    BlockedMutex(usize),
    BlockedJoin(usize),
    Finished,
}

#[derive(Debug)]
struct Th {
    phase: Phase,
    /// Schedule points this thread has executed (its position proxy).
    ops: u64,
    /// Rolling hash of every value this thread has observed; together with
    /// `ops` it captures the thread's local state for dedup purposes, since
    /// a deterministic thread's continuation is a function of what it read.
    obs: u64,
}

impl Th {
    fn new() -> Self {
        Th {
            phase: Phase::Runnable,
            ops: 0,
            obs: 0,
        }
    }
}

/// One scheduling decision: who was runnable, who ran.
#[derive(Debug, Clone)]
struct Decision {
    enabled: Vec<usize>,
    chosen: usize,
    /// The thread that would have continued without a preemption (`None`
    /// when the arriving thread yielded, blocked, or finished).
    natural: Option<usize>,
    preemptions_before: usize,
    /// Whether this decision sits past a deduplicated state: its
    /// alternatives were already registered by an earlier execution.
    pruned: bool,
}

/// Operation descriptor, recorded per schedule point for the failure trace.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpDesc {
    Start,
    Load {
        id: Option<u32>,
        val: u64,
        ord: Ordering,
    },
    Store {
        id: Option<u32>,
        val: u64,
        ord: Ordering,
    },
    Rmw {
        id: Option<u32>,
        prev: u64,
        new: u64,
        op: &'static str,
    },
    Cas {
        id: Option<u32>,
        prev: u64,
        new: u64,
        ok: bool,
    },
    MutexLock {
        id: u32,
    },
    MutexTryLock {
        id: u32,
        acquired: bool,
    },
    MutexUnlock {
        id: u32,
    },
    CondWait {
        timed: bool,
    },
    Yield {
        spin: bool,
    },
    Spawn {
        tid: usize,
    },
    Join {
        target: usize,
    },
}

impl OpDesc {
    /// The value this operation observed, folded into the thread's local
    /// state hash (loads and RMWs read; stores observe nothing).
    fn observed(&self) -> Option<u64> {
        match *self {
            OpDesc::Load { val, .. } => Some(val),
            OpDesc::Rmw { prev, .. } => Some(prev),
            OpDesc::Cas { prev, ok, .. } => Some(prev ^ u64::from(ok) << 63),
            // The outcome steers the caller's continuation, like a load.
            OpDesc::MutexTryLock { acquired, .. } => Some(u64::from(acquired)),
            _ => None,
        }
    }

    fn describe(&self) -> String {
        fn obj(id: Option<u32>) -> String {
            match id {
                Some(i) => format!("atomic#{i}"),
                None => "atomic#?".into(),
            }
        }
        match *self {
            OpDesc::Start => "start".into(),
            OpDesc::Load { id, val, ord } => format!("{}.load({ord:?}) -> {val}", obj(id)),
            OpDesc::Store { id, val, ord } => format!("{}.store({val}, {ord:?})", obj(id)),
            OpDesc::Rmw { id, prev, new, op } => {
                format!("{}.{op} {prev} -> {new}", obj(id))
            }
            OpDesc::Cas { id, prev, new, ok } => {
                if ok {
                    format!("{}.compare_exchange {prev} -> {new} (ok)", obj(id))
                } else {
                    format!("{}.compare_exchange failed, saw {prev}", obj(id))
                }
            }
            OpDesc::MutexLock { id } => format!("mutex#{id}.lock"),
            OpDesc::MutexTryLock { id, acquired } => {
                if acquired {
                    format!("mutex#{id}.try_lock (acquired)")
                } else {
                    format!("mutex#{id}.try_lock (would block)")
                }
            }
            OpDesc::MutexUnlock { id } => format!("mutex#{id}.unlock"),
            OpDesc::CondWait { timed } => {
                if timed {
                    "condvar.wait_timeout (modeled as spurious wakeup)".into()
                } else {
                    "condvar.wait (modeled as spurious wakeup)".into()
                }
            }
            OpDesc::Yield { spin } => {
                if spin {
                    "spin_loop (yield)".into()
                } else {
                    "yield_now".into()
                }
            }
            OpDesc::Spawn { tid } => format!("spawn thread T{tid}"),
            OpDesc::Join { target } => format!("join T{target}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpRecord {
    thread: usize,
    desc: OpDesc,
}

#[derive(Debug, Default)]
struct Seen {
    set: HashSet<u64>,
    distinct: u64,
}

pub(crate) struct ExecState {
    current: usize,
    threads: Vec<Th>,
    live: usize,
    decisions: Vec<Decision>,
    depth: usize,
    prefix: Vec<usize>,
    preemptions: usize,
    steps: u64,
    abort: bool,
    done: bool,
    failed: Option<String>,
    pruned: bool,
    /// Registered atomic values, indexed by registration order (which is
    /// deterministic per schedule, so ids are stable across replays).
    values: Vec<u64>,
    /// Registered mutexes: which thread holds each, if any.
    mutexes: Vec<Option<usize>>,
    ops_log: Vec<OpRecord>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
    seen: Arc<Mutex<Seen>>,
    max_steps: u64,
}

/// The per-OS-thread binding to the execution it belongs to.
#[derive(Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// The calling OS thread's model-execution binding, if it is a model thread.
///
/// Returns `None` while the thread is unwinding (an [`AbortToken`] teardown
/// or a violation panic): destructors that run instrumented operations
/// during cleanup — e.g. a ring queue draining itself on `Drop` — must pass
/// through to the raw primitives rather than re-enter the scheduler, which
/// would panic inside a destructor and abort the process. Skipping schedule
/// points there is sound: the execution outcome is already decided.
pub(crate) fn current_ctx() -> Option<ThreadCtx> {
    if std::thread::panicking() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer — cheap, well-distributed fold.
    let mut z = h ^ v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Execution {
    fn fail(&self, st: &mut ExecState, msg: String) {
        if st.failed.is_none() {
            st.failed = Some(msg);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    fn enabled_set(st: &ExecState) -> Vec<usize> {
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.phase == Phase::Runnable)
            .map(|(i, _)| i)
            .collect();
        if !runnable.is_empty() {
            runnable
        } else {
            // Everyone else is blocked or finished: yielded threads are the
            // only way forward.
            st.threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.phase == Phase::Yielded)
                .map(|(i, _)| i)
                .collect()
        }
    }

    /// One scheduling decision, made by `arriving` at its schedule point
    /// (or at thread exit). Chooses who performs the next operation.
    fn decide(&self, st: &mut ExecState, arriving: usize) {
        if st.abort {
            return;
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            self.fail(
                st,
                format!(
                    "step limit ({}) exceeded — possible livelock or a model too large \
                     for exhaustive exploration",
                    self.max_steps
                ),
            );
            return;
        }
        let enabled = Self::enabled_set(st);
        if enabled.is_empty() {
            self.fail(
                st,
                format!(
                    "deadlock: no runnable thread ({} unfinished, all blocked)",
                    st.live
                ),
            );
            return;
        }
        let natural = (st.threads[arriving].phase == Phase::Runnable
            && enabled.contains(&arriving))
        .then_some(arriving);
        let d = st.depth;
        st.depth += 1;
        let chosen = if d < st.prefix.len() {
            let c = st.prefix[d];
            if !enabled.contains(&c) {
                self.fail(
                    st,
                    format!("replay diverged at decision {d}: T{c} is not enabled"),
                );
                return;
            }
            c
        } else {
            match natural {
                Some(n) => n,
                // A yielded/blocked/finished arrival hands off: prefer any
                // other enabled thread so spin loops make progress.
                None => *enabled
                    .iter()
                    .find(|&&t| t != arriving)
                    .unwrap_or(&enabled[0]),
            }
        };
        st.decisions.push(Decision {
            enabled,
            chosen,
            natural,
            preemptions_before: st.preemptions,
            pruned: st.pruned,
        });
        if natural == Some(arriving) && chosen != arriving {
            st.preemptions += 1;
        }
        if chosen != st.current {
            st.current = chosen;
            self.cv.notify_all();
        }
    }

    fn wait_for_grant<'a>(
        &self,
        mut g: MutexGuard<'a, ExecState>,
        me: usize,
    ) -> MutexGuard<'a, ExecState> {
        while g.current != me && !g.abort {
            g = self.cv.wait(g).expect("scheduler lock");
        }
        g
    }

    /// Bookkeeping after an operation executed: trace log, thread position,
    /// observed-value fold, and the state-hash dedup check.
    fn after_op(&self, st: &mut ExecState, me: usize, desc: OpDesc) {
        st.ops_log.push(OpRecord { thread: me, desc });
        st.threads[me].ops += 1;
        if let Some(v) = desc.observed() {
            st.threads[me].obs = mix(st.threads[me].obs, v);
        }
        // Fairness: an executed operation re-arms every other yielded
        // thread. A spinner that keeps itself runnable with loads between
        // its yields (a polling consumer, say) therefore cannot starve
        // yielded peers forever: at its next yield they are Runnable again
        // and the enabled-set rule forces a handoff. This is what makes
        // bounded exploration of spin/park loops terminate.
        for (i, t) in st.threads.iter_mut().enumerate() {
            if i != me && t.phase == Phase::Yielded {
                t.phase = Phase::Runnable;
            }
        }
        // Dedup applies only past the replay prefix: earlier decisions are
        // retracing territory whose branches are already on the DFS stack.
        if st.depth > st.prefix.len() && !st.pruned {
            let mut h = DefaultHasher::new();
            st.values.hash(&mut h);
            for m in &st.mutexes {
                m.unwrap_or(usize::MAX).hash(&mut h);
            }
            for t in &st.threads {
                (discriminant_key(t.phase), t.ops, t.obs).hash(&mut h);
            }
            st.preemptions.hash(&mut h);
            let key = h.finish();
            let mut seen = self.seen.lock().expect("seen-set lock");
            if seen.set.insert(key) {
                seen.distinct += 1;
            } else {
                // Already expanded from this state by an earlier execution:
                // register no new branches downstream of here.
                st.pruned = true;
            }
        }
    }

    /// Schedule point for a non-blocking operation: decide, wait for the
    /// grant, execute `op` atomically, record it.
    pub(crate) fn schedule<R>(
        &self,
        me: usize,
        op: impl FnOnce(&mut ExecState) -> (R, OpDesc),
    ) -> R {
        let mut g = self.state.lock().expect("scheduler lock");
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        self.decide(&mut g, me);
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g = self.wait_for_grant(g, me);
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g.threads[me].phase = Phase::Runnable;
        let (r, desc) = op(&mut g);
        self.after_op(&mut g, me, desc);
        r
    }

    /// Schedule point for a potentially blocking operation. `attempt` either
    /// completes the operation (`Some`) or marks the thread blocked (setting
    /// its phase) and returns `None`; the scheduler then runs other threads
    /// until something unblocks it and a decision picks it again.
    pub(crate) fn schedule_blocking<R>(
        &self,
        me: usize,
        desc: impl Fn() -> OpDesc,
        mut attempt: impl FnMut(&mut ExecState, usize) -> Option<R>,
    ) -> R {
        let mut g = self.state.lock().expect("scheduler lock");
        loop {
            if g.abort {
                drop(g);
                panic::panic_any(AbortToken);
            }
            self.decide(&mut g, me);
            if g.abort {
                drop(g);
                panic::panic_any(AbortToken);
            }
            g = self.wait_for_grant(g, me);
            if g.abort {
                drop(g);
                panic::panic_any(AbortToken);
            }
            g.threads[me].phase = Phase::Runnable;
            if let Some(r) = attempt(&mut g, me) {
                self.after_op(&mut g, me, desc());
                return r;
            }
            // `attempt` marked us blocked; loop for a handoff decision.
        }
    }

    /// Yield point: deschedule in favor of any runnable non-yielded thread.
    pub(crate) fn yield_point(&self, me: usize, spin: bool) {
        let mut g = self.state.lock().expect("scheduler lock");
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g.threads[me].phase = Phase::Yielded;
        self.decide(&mut g, me);
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g = self.wait_for_grant(g, me);
        if g.abort {
            drop(g);
            panic::panic_any(AbortToken);
        }
        g.threads[me].phase = Phase::Runnable;
        self.after_op(&mut g, me, OpDesc::Yield { spin });
    }

    /// Registers a fresh atomic with its initial value; returns its id.
    pub(crate) fn register_value(&self, init: u64) -> u32 {
        let mut g = self.state.lock().expect("scheduler lock");
        g.values.push(init);
        (g.values.len() - 1) as u32
    }

    pub(crate) fn set_value(st: &mut ExecState, id: Option<u32>, v: u64) {
        if let Some(id) = id {
            st.values[id as usize] = v;
        }
    }

    /// Registers a fresh mutex; returns its id.
    pub(crate) fn register_mutex(&self) -> u32 {
        let mut g = self.state.lock().expect("scheduler lock");
        g.mutexes.push(None);
        (g.mutexes.len() - 1) as u32
    }

    pub(crate) fn mutex_try_acquire(st: &mut ExecState, id: u32, me: usize) -> bool {
        let held = &mut st.mutexes[id as usize];
        if held.is_none() {
            *held = Some(me);
            true
        } else {
            st.threads[me].phase = Phase::BlockedMutex(id as usize);
            false
        }
    }

    /// The non-blocking acquire behind `try_lock`: takes a free mutex, and
    /// leaves a held one (and the caller's phase) alone.
    pub(crate) fn mutex_try_lock(st: &mut ExecState, id: u32, me: usize) -> bool {
        let held = &mut st.mutexes[id as usize];
        if held.is_none() {
            *held = Some(me);
            true
        } else {
            false
        }
    }

    /// Non-panicking mutex release for guard drops during unwinding: clears
    /// ownership and wakes waiters without a schedule point, so a panicking
    /// model thread (assertion counterexample or abort teardown) never
    /// double-panics in a destructor.
    pub(crate) fn release_mutex_raw(&self, id: u32, me: usize) {
        let mut g = match self.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        if g.mutexes.get(id as usize).copied().flatten() == Some(me) {
            Self::mutex_release(&mut g, id, me);
        }
        self.cv.notify_all();
    }

    pub(crate) fn mutex_release(st: &mut ExecState, id: u32, me: usize) {
        debug_assert_eq!(st.mutexes[id as usize], Some(me), "unlock by non-owner");
        st.mutexes[id as usize] = None;
        for t in st.threads.iter_mut() {
            if t.phase == Phase::BlockedMutex(id as usize) {
                t.phase = Phase::Runnable;
            }
        }
    }

    pub(crate) fn thread_finished(st: &mut ExecState, target: usize) -> bool {
        st.threads[target].phase == Phase::Finished
    }

    pub(crate) fn block_on_join(st: &mut ExecState, me: usize, target: usize) {
        st.threads[me].phase = Phase::BlockedJoin(target);
    }

    /// Spawns a model thread running `body` on a dedicated OS thread that
    /// waits for its first scheduling grant before touching the model.
    pub(crate) fn spawn_model_thread(
        self: &Arc<Self>,
        me: usize,
        body: Box<dyn FnOnce() + Send + 'static>,
    ) -> usize {
        let exec = Arc::clone(self);
        self.schedule(me, move |st| {
            let tid = st.threads.len();
            assert!(tid < MAX_THREADS, "model exceeds {MAX_THREADS} threads");
            st.threads.push(Th::new());
            st.live += 1;
            let inner = Arc::clone(&exec);
            let handle = std::thread::Builder::new()
                .name(format!("varade-check-T{tid}"))
                .spawn(move || {
                    CURRENT.with(|c| {
                        *c.borrow_mut() = Some(ThreadCtx {
                            exec: Arc::clone(&inner),
                            tid,
                        })
                    });
                    // Start gate: wait until a decision grants this thread
                    // its first step.
                    {
                        let mut g = inner.state.lock().expect("scheduler lock");
                        g = inner.wait_for_grant(g, tid);
                        if !g.abort {
                            g.threads[tid].phase = Phase::Runnable;
                            inner.after_op(&mut g, tid, OpDesc::Start);
                        }
                    }
                    let result = panic::catch_unwind(AssertUnwindSafe(body));
                    inner.finish_thread(tid, result.err());
                })
                .expect("spawn model thread");
            st.handles.push(handle);
            (tid, OpDesc::Spawn { tid })
        })
    }

    /// Marks a thread finished: wakes joiners, hands the schedule off, and
    /// records a failure if the thread panicked with a real (non-abort)
    /// payload.
    pub(crate) fn finish_thread(&self, me: usize, err: Option<Box<dyn Any + Send>>) {
        let mut g = self.state.lock().expect("scheduler lock");
        if let Some(payload) = err {
            if !payload.is::<AbortToken>() {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "model thread panicked".into());
                self.fail(&mut g, format!("thread T{me} panicked: {msg}"));
            }
        }
        g.threads[me].phase = Phase::Finished;
        g.live -= 1;
        for t in g.threads.iter_mut() {
            if t.phase == Phase::BlockedJoin(me) {
                t.phase = Phase::Runnable;
            }
        }
        if g.live == 0 {
            g.done = true;
            self.cv.notify_all();
            return;
        }
        if g.abort {
            self.cv.notify_all();
            return;
        }
        self.decide(&mut g, me);
        if g.abort {
            self.cv.notify_all();
        }
    }
}

fn discriminant_key(p: Phase) -> u64 {
    match p {
        Phase::Runnable => 0,
        Phase::Yielded => 1,
        Phase::BlockedMutex(i) => 2 | ((i as u64) << 8),
        Phase::BlockedJoin(i) => 3 | ((i as u64) << 8),
        Phase::Finished => 4,
    }
}

// ---------------------------------------------------------------------------
// DFS driver
// ---------------------------------------------------------------------------

struct RunOutcome {
    decisions: Vec<Decision>,
    failed: Option<String>,
    ops_log: Vec<OpRecord>,
}

fn run_one<F>(opts: &Options, f: &Arc<F>, prefix: Vec<usize>, seen: &Arc<Mutex<Seen>>) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let exec = Arc::new(Execution {
        state: Mutex::new(ExecState {
            current: 0,
            threads: vec![Th::new()],
            live: 1,
            decisions: Vec::new(),
            depth: 0,
            prefix,
            preemptions: 0,
            steps: 0,
            abort: false,
            done: false,
            failed: None,
            pruned: false,
            values: Vec::new(),
            mutexes: Vec::new(),
            ops_log: Vec::new(),
            handles: Vec::new(),
        }),
        cv: Condvar::new(),
        seen: Arc::clone(seen),
        max_steps: opts.max_steps,
    });
    let root_exec = Arc::clone(&exec);
    let root_f = Arc::clone(f);
    let root = std::thread::Builder::new()
        .name("varade-check-T0".into())
        .spawn(move || {
            CURRENT.with(|c| {
                *c.borrow_mut() = Some(ThreadCtx {
                    exec: Arc::clone(&root_exec),
                    tid: 0,
                })
            });
            let result = panic::catch_unwind(AssertUnwindSafe(|| root_f()));
            root_exec.finish_thread(0, result.err());
        })
        .expect("spawn model root thread");
    let (decisions, failed, ops_log, handles) = {
        let mut g = exec.state.lock().expect("scheduler lock");
        while !g.done {
            g = exec.cv.wait(g).expect("scheduler lock");
        }
        (
            std::mem::take(&mut g.decisions),
            g.failed.take(),
            std::mem::take(&mut g.ops_log),
            std::mem::take(&mut g.handles),
        )
    };
    let _ = root.join();
    for h in handles {
        let _ = h.join();
    }
    RunOutcome {
        decisions,
        failed,
        ops_log,
    }
}

/// One entry of the DFS stack: a decision and its not-yet-tried alternatives.
struct BranchPoint {
    chosen: usize,
    alts: Vec<usize>,
}

impl BranchPoint {
    fn from_decision(d: &Decision, bound: Option<usize>) -> Self {
        let alts = if d.pruned {
            Vec::new()
        } else {
            d.enabled
                .iter()
                .copied()
                .filter(|&t| {
                    if t == d.chosen {
                        return false;
                    }
                    let cost = usize::from(d.natural.is_some() && Some(t) != d.natural);
                    match bound {
                        Some(b) => d.preemptions_before + cost <= b,
                        None => true,
                    }
                })
                .collect()
        };
        BranchPoint {
            chosen: d.chosen,
            alts,
        }
    }
}

fn encode_seed(choices: &[usize]) -> String {
    choices
        .iter()
        .map(|&c| char::from_digit(c as u32, 16).expect("thread id fits a hex digit"))
        .collect()
}

/// Parses a replay seed string (as printed in a counterexample report) into
/// the choice list for [`Options::replay`].
pub fn parse_seed(s: &str) -> Option<Vec<usize>> {
    decode_seed(s)
}

fn decode_seed(s: &str) -> Option<Vec<usize>> {
    s.trim()
        .chars()
        .map(|c| c.to_digit(16).map(|d| d as usize))
        .collect()
}

fn format_trace(name: &str, seed: &str, ops: &[OpRecord], failure: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "varade-check counterexample for model \"{name}\"");
    let _ = writeln!(out, "replay: VARADE_CHECK_REPLAY={seed}");
    let _ = writeln!(out, "schedule ({} operations):", ops.len());
    for (i, op) in ops.iter().enumerate() {
        let _ = writeln!(out, "  {i:>5}  T{}  {}", op.thread, op.desc.describe());
    }
    let _ = writeln!(out, "violation: {failure}");
    out
}

fn trace_dir() -> std::path::PathBuf {
    if let Ok(d) = std::env::var("VARADE_CHECK_TRACE_DIR") {
        return d.into();
    }
    // Tests run with the package directory as cwd; the workspace target/
    // directory is two levels up for crates/*. Fall back to ./target.
    let ws = std::path::Path::new("../../target");
    if ws.is_dir() {
        ws.join("varade-check")
    } else {
        std::path::Path::new("target").join("varade-check")
    }
}

fn write_trace_file(name: &str, trace: &str) -> Option<std::path::PathBuf> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}.trace.txt", name.replace(['/', ' '], "_")));
    std::fs::write(&path, trace).ok()?;
    Some(path)
}

/// Silences the scheduler's internal [`AbortToken`] unwinds in the global
/// panic hook so a counterexample prints one failure, not one line per
/// parked thread.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<AbortToken>() {
                return;
            }
            default(info);
        }));
    });
}

/// Explores every schedule of `f` within the environment-configured bounds;
/// panics with a replayable counterexample trace on the first violation.
///
/// `f` runs once per schedule and must be self-contained: build the
/// structure under test, spawn threads with [`crate::sync::thread::spawn`],
/// join them, assert invariants.
pub fn model<F>(name: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    model_with(Options::from_env(), name, f)
}

/// [`model`] with explicit [`Options`] (still honoring a replay seed if the
/// caller put one in `opts.replay`).
pub fn model_with<F>(opts: Options, name: &str, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let f = Arc::new(f);
    let seen = Arc::new(Mutex::new(Seen::default()));

    if let Some(seed) = &opts.replay {
        let outcome = run_one(&opts, &f, seed.clone(), &seen);
        let seed_str = encode_seed(seed);
        let failure = outcome.failed.clone().unwrap_or_else(|| {
            "replayed schedule completed without violation (did the code change?)".into()
        });
        let trace = format_trace(name, &seed_str, &outcome.ops_log, &failure);
        eprintln!("{trace}");
        if let Some(fail) = outcome.failed {
            panic!("model \"{name}\" failed under replay seed {seed_str}: {fail}");
        }
        return Report {
            schedules: 1,
            distinct_states: seen.lock().expect("seen-set lock").distinct,
            exhausted: false,
            max_depth: outcome.decisions.len(),
        };
    }

    let mut stack: Vec<BranchPoint> = Vec::new();
    let mut schedules: u64 = 0;
    let mut max_depth = 0usize;
    let exhausted;
    loop {
        let prefix: Vec<usize> = stack.iter().map(|b| b.chosen).collect();
        let outcome = run_one(&opts, &f, prefix, &seen);
        schedules += 1;
        max_depth = max_depth.max(outcome.decisions.len());
        if let Some(fail) = outcome.failed {
            let choices: Vec<usize> = outcome.decisions.iter().map(|d| d.chosen).collect();
            let seed = encode_seed(&choices);
            let trace = format_trace(name, &seed, &outcome.ops_log, &fail);
            let path = write_trace_file(name, &trace);
            eprintln!("{trace}");
            if let Some(p) = path {
                eprintln!("trace written to {}", p.display());
            }
            panic!(
                "varade-check: model \"{name}\" violated after {schedules} schedules: {fail} \
                 (replay with VARADE_CHECK_REPLAY={seed})"
            );
        }
        for d in &outcome.decisions[stack.len()..] {
            stack.push(BranchPoint::from_decision(d, opts.preemptions));
        }
        loop {
            match stack.last_mut() {
                None => break,
                Some(top) => {
                    if let Some(alt) = top.alts.pop() {
                        top.chosen = alt;
                        break;
                    }
                    stack.pop();
                }
            }
        }
        if stack.is_empty() {
            exhausted = true;
            break;
        }
        if schedules >= opts.max_schedules {
            exhausted = false;
            break;
        }
    }
    let distinct_states = seen.lock().expect("seen-set lock").distinct;
    let report = Report {
        schedules,
        distinct_states,
        exhausted,
        max_depth,
    };
    eprintln!(
        "varade-check: model \"{name}\": {schedules} schedules, {distinct_states} distinct \
         states, max depth {max_depth}, preemption bound {:?}, exhausted={exhausted}",
        opts.preemptions
    );
    report
}
