//! The deterministic interleaving explorer (CHESS/loom-style).
//!
//! [`check`] runs a closure over and over, each time under a different
//! thread interleaving, until every schedule reachable within the
//! configured preemption bound has been explored. Inside a run,
//! exactly one managed thread executes at a time; every
//! [`Mutex`](crate::Mutex) acquire, [`Condvar`](crate::Condvar)
//! wait/notify, atomic access, and thread spawn/join is a *schedule
//! point* where the scheduler may switch threads. The explorer walks
//! the tree of scheduling decisions depth-first, replaying a recorded
//! choice prefix and flipping the deepest unexplored alternative each
//! iteration.
//!
//! What a clean pass proves, within the preemption bound:
//!
//! * no assertion in the closure can fail under any interleaving;
//! * no interleaving deadlocks (including lost condvar wakeups — a
//!   missed `notify` leaves every thread blocked, which the explorer
//!   reports as a deadlock with each thread's last operation);
//! * combined with the rank auditor, no interleaving acquires locks
//!   out of order.
//!
//! # Bounds and caveats
//!
//! * **Bounded preemption** ([`Config::max_preemptions`]): schedules
//!   with more than N involuntary context switches are not explored.
//!   Voluntary switches (a thread blocking) are always explored
//!   exhaustively. Empirically most concurrency bugs need ≤ 2
//!   preemptions (the CHESS result).
//! * **Sequential consistency**: interleavings are explored at
//!   sequentially consistent granularity; `Ordering::Relaxed` reorderings
//!   are *not* modeled (pair the model tests with the CI TSan/Miri
//!   jobs for that).
//! * **Determinism**: the closure must behave deterministically given
//!   the schedule — no wall-clock control flow, no `RandomState`
//!   hash-order dependence. Divergence between a replay and its
//!   recording is detected and reported.
//! * **State hashing** ([`Config::state_hashing`]): optional pruning
//!   that skips a subtree when the (lock states, atomic values,
//!   per-thread progress, next choice) signature has been fully
//!   explored before. Sound only when thread behavior is a function
//!   of the observed synchronization state, which the checker cannot
//!   verify — hence off by default; exhaustive runs keep it off.
//!
//! Shared state must be created *inside* the closure (each execution
//! starts fresh); an `lgr-sync` primitive created outside the run and
//! used inside panics with a diagnostic rather than stalling the
//! scheduler.

use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Exploration knobs for [`check_with`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum involuntary context switches per schedule (CHESS
    /// preemption bounding). Voluntary switches at blocking points are
    /// unlimited. Default 2.
    pub max_preemptions: usize,
    /// Hard cap on explored schedules; exceeding it panics (the
    /// promise is exhaustiveness, so silently truncating would be a
    /// lie). Default 1,000,000.
    pub max_executions: u64,
    /// Enable visited-state subtree pruning (see the module docs for
    /// the soundness caveat). Default off.
    pub state_hashing: bool,
    /// Managed-thread cap per execution (runaway-spawn backstop).
    pub max_threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 2,
            max_executions: 1_000_000,
            state_hashing: false,
            max_threads: 16,
        }
    }
}

impl Config {
    /// The default configuration with a different preemption bound.
    pub fn with_preemptions(max_preemptions: usize) -> Self {
        Config {
            max_preemptions,
            ..Config::default()
        }
    }

    /// This configuration with state-hash pruning enabled.
    pub fn hashed(mut self) -> Self {
        self.state_hashing = true;
        self
    }
}

/// What a completed [`check`] explored.
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Schedules executed to completion.
    pub executions: u64,
    /// Schedules cut short by state-hash pruning.
    pub pruned: u64,
    /// Total schedule points across all executions.
    pub schedule_points: u64,
    /// Deepest scheduling-decision stack seen.
    pub peak_decisions: usize,
    /// The preemption bound the exploration ran under.
    pub preemption_bound: usize,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "explored {} interleavings ({} pruned) · {} schedule points · \
             peak decision depth {} · preemption bound {}",
            self.executions,
            self.pruned,
            self.schedule_points,
            self.peak_decisions,
            self.preemption_bound
        )
    }
}

/// Identifies a model-managed resource within one execution.
/// Construction outside a run yields no id (the primitive stays on
/// its std path); the generation check catches a primitive leaking
/// from one execution into a later one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResourceId {
    gen: u64,
    idx: usize,
}

enum Resource {
    Mutex {
        holder: Option<usize>,
    },
    Cv {
        waiters: VecDeque<usize>,
    },
    Atomic {
        /// Kernel-side mirror of the wrapped atomic's value, kept for
        /// state-hash signatures only.
        mirror: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    BlockedMutex(usize),
    WaitingCv(usize),
    BlockedJoin(usize),
    Finished,
}

struct ThreadInfo {
    status: Status,
    /// Schedule points this thread has executed (part of the state
    /// signature: interleavings that performed the same multiset of
    /// per-thread steps converge).
    steps: u64,
    last_label: &'static str,
}

enum Abort {
    /// A managed thread's panic reached its top frame (an assertion
    /// failure in the closure, or an auditor panic).
    Failure(String),
    /// Every unfinished thread is blocked.
    Deadlock(String),
    /// A replay did not match its recording.
    Divergence(String),
    /// State-hash subtree pruning cut this schedule short.
    Pruned,
}

struct ExecState {
    threads: Vec<ThreadInfo>,
    resources: Vec<Resource>,
    active: usize,
    live: usize,
    /// Choices replayed from previous executions: `(chosen, options)`.
    prefix: Vec<(usize, usize)>,
    /// Choices made this execution (replayed + fresh).
    decisions: Vec<(usize, usize)>,
    preemptions: usize,
    points: u64,
    abort: Option<Abort>,
    /// Every schedule point as `(thread, label)`, for failure reports.
    trace: Vec<(usize, &'static str)>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// One execution's shared kernel. Managed threads serialize through
/// `active`: a thread runs only while `active` equals its id, and
/// every handoff goes through `cv`.
pub(crate) struct Execution {
    kernel: StdMutex<ExecState>,
    cv: StdCondvar,
    gen: u64,
    cfg: Config,
    visited: Arc<StdMutex<HashSet<u64>>>,
}

/// The payload used to unwind managed threads when an execution
/// aborts (deadlock, divergence, prune). Raised with `resume_unwind`
/// so the global panic hook never fires for routine aborts.
struct ModelAbort;

fn abort_unwind() -> ! {
    resume_unwind(Box::new(ModelAbort))
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The current managed-thread context, if this thread is inside a
/// model run.
fn current() -> Option<(Arc<Execution>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// True when the calling thread is a managed thread of an active run.
pub(crate) fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

fn register(resource: Resource) -> Option<ResourceId> {
    let (exec, _) = current()?;
    let mut k = exec.lock_kernel();
    let idx = k.resources.len();
    k.resources.push(resource);
    Some(ResourceId { gen: exec.gen, idx })
}

pub(crate) fn register_mutex() -> Option<ResourceId> {
    register(Resource::Mutex { holder: None })
}

pub(crate) fn register_condvar() -> Option<ResourceId> {
    register(Resource::Cv {
        waiters: VecDeque::new(),
    })
}

pub(crate) fn register_atomic(initial: u64) -> Option<ResourceId> {
    register(Resource::Atomic { mirror: initial })
}

/// Resolves a primitive's registration against the active run,
/// panicking with a diagnostic when the primitive was created outside
/// it (using it would stall the cooperative scheduler on a real
/// blocking call).
fn resolve(id: Option<ResourceId>, what: &str) -> Option<(Arc<Execution>, usize, usize)> {
    let (exec, me) = current()?;
    match id {
        Some(rid) if rid.gen == exec.gen => Some((exec, me, rid.idx)),
        _ => panic!(
            "model run error: this {what} was created outside the active `model::check` \
             execution; create all shared sync state inside the checked closure"
        ),
    }
}

pub(crate) fn op_acquire_mutex(id: Option<ResourceId>, label: &'static str) {
    if let Some((exec, me, rid)) = resolve(id, "Mutex") {
        exec.acquire_mutex(me, rid, label);
    }
}

pub(crate) fn op_release_mutex(id: Option<ResourceId>) {
    if let Some((exec, me, rid)) = resolve(id, "Mutex") {
        exec.release_mutex(me, rid);
    }
}

/// Releases `mutex`, waits for a notify on `cv`, and reacquires
/// `mutex` before returning. Does nothing outside a model run.
pub(crate) fn op_condvar_wait(
    cv: Option<ResourceId>,
    mutex: Option<ResourceId>,
    label: &'static str,
) {
    if let Some((exec, me, cv_rid)) = resolve(cv, "Condvar") {
        if let Some((_, _, mutex_rid)) = resolve(mutex, "Mutex") {
            exec.condvar_wait(me, cv_rid, mutex_rid, label);
        }
    }
}

pub(crate) fn op_condvar_notify(id: Option<ResourceId>, all: bool) {
    if let Some((exec, me, rid)) = resolve(id, "Condvar") {
        exec.condvar_notify(me, rid, all);
    }
}

/// Runs `op` as a schedule point and mirrors the atomic's new value
/// into the kernel. Returns `None` when not in a model run (the
/// caller performs the op directly).
pub(crate) fn op_atomic<R>(
    id: Option<ResourceId>,
    label: &'static str,
    op: impl FnOnce() -> (R, u64),
) -> Option<R> {
    let (exec, me, rid) = resolve(id, "atomic")?;
    exec.schedule_point(me, label);
    // Only this thread runs between the schedule point and the next
    // one, so performing the op outside the kernel lock is race-free.
    let (r, value) = op();
    let mut k = exec.lock_kernel();
    if let Resource::Atomic { mirror } = &mut k.resources[rid] {
        *mirror = value;
    }
    Some(r)
}

/// Spawns a managed thread running `payload`. `None` outside a run.
pub(crate) fn op_spawn(payload: Box<dyn FnOnce() + Send>) -> Option<usize> {
    let (exec, me) = current()?;
    Some(Execution::spawn_thread(&exec, me, payload))
}

pub(crate) fn op_join(tid: usize) {
    let (exec, me) = current().expect("model join outside a run");
    exec.join_thread(me, tid);
}

impl Execution {
    fn new(
        gen: u64,
        cfg: Config,
        prefix: Vec<(usize, usize)>,
        visited: Arc<StdMutex<HashSet<u64>>>,
    ) -> Self {
        Execution {
            kernel: StdMutex::new(ExecState {
                threads: Vec::new(),
                resources: Vec::new(),
                active: 0,
                live: 0,
                prefix,
                decisions: Vec::new(),
                preemptions: 0,
                points: 0,
                abort: None,
                trace: Vec::new(),
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            gen,
            cfg,
            visited,
        }
    }

    fn lock_kernel(&self) -> StdMutexGuard<'_, ExecState> {
        self.kernel
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn enabled(k: &ExecState) -> Vec<usize> {
        k.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    /// Records (or replays) a scheduling choice among `options`.
    /// `Err` means the execution aborted (divergence or prune); the
    /// kernel abort is already set.
    fn choose(&self, k: &mut ExecState, options: &[usize]) -> Result<usize, ()> {
        debug_assert!(!options.is_empty());
        if options.len() == 1 {
            return Ok(options[0]);
        }
        let di = k.decisions.len();
        let (idx, fresh) = if di < k.prefix.len() {
            let (chosen, n) = k.prefix[di];
            if n != options.len() || chosen >= options.len() {
                k.abort = Some(Abort::Divergence(format!(
                    "decision {di}: recorded {n} options, replay found {} — the checked \
                     closure is not deterministic under a fixed schedule",
                    options.len()
                )));
                return Err(());
            }
            (chosen, false)
        } else {
            (0, true)
        };
        k.decisions.push((idx, options.len()));
        if self.cfg.state_hashing {
            let sig = Self::signature(k, idx);
            let mut visited = self
                .visited
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if !visited.insert(sig) && fresh {
                k.abort = Some(Abort::Pruned);
                return Err(());
            }
        }
        Ok(options[idx])
    }

    /// Hash of the schedulable state plus the choice about to be
    /// taken: per-thread (status, steps), every resource's state, and
    /// the chosen option index.
    fn signature(k: &ExecState, choice: usize) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        choice.hash(&mut h);
        for t in &k.threads {
            std::mem::discriminant(&t.status).hash(&mut h);
            match t.status {
                Status::BlockedMutex(r) | Status::WaitingCv(r) | Status::BlockedJoin(r) => {
                    r.hash(&mut h)
                }
                Status::Runnable | Status::Finished => {}
            }
            t.steps.hash(&mut h);
        }
        for r in &k.resources {
            match r {
                Resource::Mutex { holder } => holder.hash(&mut h),
                Resource::Cv { waiters } => waiters.hash(&mut h),
                Resource::Atomic { mirror } => mirror.hash(&mut h),
            }
        }
        h.finish()
    }

    /// The per-op scheduling decision: count the point, then decide
    /// whether the active thread keeps running or is preempted.
    fn schedule_point(&self, me: usize, label: &'static str) {
        let mut k = self.lock_kernel();
        if k.abort.is_some() {
            drop(k);
            abort_unwind();
        }
        k.points += 1;
        k.threads[me].steps += 1;
        k.threads[me].last_label = label;
        k.trace.push((me, label));
        let enabled = Self::enabled(&k);
        if enabled.len() <= 1 || k.preemptions >= self.cfg.max_preemptions {
            return;
        }
        // Option 0 is "keep running" (no preemption); the rest are
        // preemptive switches, each charged against the bound.
        let mut options = Vec::with_capacity(enabled.len());
        options.push(me);
        options.extend(enabled.iter().copied().filter(|&t| t != me));
        let chosen = match self.choose(&mut k, &options) {
            Ok(c) => c,
            Err(()) => {
                self.cv.notify_all();
                drop(k);
                abort_unwind();
            }
        };
        if chosen != me {
            k.preemptions += 1;
            self.pass_and_wait(k, me, chosen);
        }
    }

    /// Hands the token to `chosen` and blocks until this thread is
    /// scheduled again (or the execution aborts).
    fn pass_and_wait(&self, mut k: StdMutexGuard<'_, ExecState>, me: usize, chosen: usize) {
        k.active = chosen;
        self.cv.notify_all();
        loop {
            if k.abort.is_some() {
                drop(k);
                abort_unwind();
            }
            if k.active == me && k.threads[me].status == Status::Runnable {
                return;
            }
            k = self
                .cv
                .wait(k)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Voluntary switch: the caller has already marked itself blocked.
    /// Chooses among the other enabled threads (a forced switch costs
    /// no preemption) and waits to be unblocked and rescheduled.
    fn block_and_switch(&self, mut k: StdMutexGuard<'_, ExecState>, me: usize) {
        let enabled = Self::enabled(&k);
        if enabled.is_empty() {
            let msg = Self::describe_deadlock(&k);
            k.abort = Some(Abort::Deadlock(msg));
            self.cv.notify_all();
            drop(k);
            abort_unwind();
        }
        let chosen = match self.choose(&mut k, &enabled) {
            Ok(c) => c,
            Err(()) => {
                self.cv.notify_all();
                drop(k);
                abort_unwind();
            }
        };
        self.pass_and_wait(k, me, chosen);
    }

    fn describe_deadlock(k: &ExecState) -> String {
        let mut parts = Vec::new();
        for (i, t) in k.threads.iter().enumerate() {
            if t.status == Status::Finished {
                continue;
            }
            parts.push(format!(
                "thread {i} {} (last op `{}`)",
                match t.status {
                    Status::BlockedMutex(r) => format!("blocked on mutex #{r}"),
                    Status::WaitingCv(r) =>
                        format!("waiting on condvar #{r} — likely a lost wakeup"),
                    Status::BlockedJoin(t) => format!("joining thread {t}"),
                    Status::Runnable | Status::Finished => "runnable?".to_owned(),
                },
                t.last_label
            ));
        }
        format!(
            "deadlock: every live thread is blocked: {}",
            parts.join("; ")
        )
    }

    fn acquire_mutex(&self, me: usize, rid: usize, label: &'static str) {
        self.schedule_point(me, label);
        loop {
            let mut k = self.lock_kernel();
            if k.abort.is_some() {
                drop(k);
                abort_unwind();
            }
            match &mut k.resources[rid] {
                Resource::Mutex { holder } => {
                    if holder.is_none() {
                        *holder = Some(me);
                        return;
                    }
                }
                _ => unreachable!("resource {rid} is not a mutex"),
            }
            k.threads[me].status = Status::BlockedMutex(rid);
            self.block_and_switch(k, me);
        }
    }

    /// Releases are not schedule points: the next acquire/atomic
    /// decision of this thread (or its exit handoff) dominates them,
    /// and the status updates below happen eagerly so newly unblocked
    /// threads are schedulable at that decision.
    fn release_mutex(&self, _me: usize, rid: usize) {
        let mut k = self.lock_kernel();
        if k.abort.is_some() {
            return; // releases run on unwind paths; never re-panic here
        }
        match &mut k.resources[rid] {
            Resource::Mutex { holder } => *holder = None,
            _ => unreachable!("resource {rid} is not a mutex"),
        }
        for t in k.threads.iter_mut() {
            if t.status == Status::BlockedMutex(rid) {
                t.status = Status::Runnable;
            }
        }
    }

    fn condvar_wait(&self, me: usize, cv_rid: usize, mutex_rid: usize, label: &'static str) {
        self.schedule_point(me, label);
        {
            let mut k = self.lock_kernel();
            if k.abort.is_some() {
                drop(k);
                abort_unwind();
            }
            match &mut k.resources[cv_rid] {
                Resource::Cv { waiters } => waiters.push_back(me),
                _ => unreachable!("resource {cv_rid} is not a condvar"),
            }
            match &mut k.resources[mutex_rid] {
                Resource::Mutex { holder } => *holder = None,
                _ => unreachable!("resource {mutex_rid} is not a mutex"),
            }
            for t in k.threads.iter_mut() {
                if t.status == Status::BlockedMutex(mutex_rid) {
                    t.status = Status::Runnable;
                }
            }
            k.threads[me].status = Status::WaitingCv(cv_rid);
            self.block_and_switch(k, me);
        }
        // Notified and rescheduled: reacquire before returning, as a
        // real condvar wait does.
        self.acquire_mutex(me, mutex_rid, "condvar.reacquire");
    }

    /// Wakes waiters FIFO. Not a schedule point (see `release_mutex`);
    /// `notify_one` deterministically wakes the longest waiter.
    fn condvar_notify(&self, me: usize, rid: usize, all: bool) {
        let mut k = self.lock_kernel();
        if k.abort.is_some() {
            return; // notify runs on unwind/cleanup paths too
        }
        k.trace
            .push((me, if all { "notify_all" } else { "notify_one" }));
        let woken: Vec<usize> = match &mut k.resources[rid] {
            Resource::Cv { waiters } => {
                if all {
                    waiters.drain(..).collect()
                } else {
                    waiters.pop_front().into_iter().collect()
                }
            }
            _ => unreachable!("resource {rid} is not a condvar"),
        };
        for t in woken {
            k.threads[t].status = Status::Runnable;
        }
    }

    fn spawn_thread(exec: &Arc<Execution>, me: usize, payload: Box<dyn FnOnce() + Send>) -> usize {
        exec.schedule_point(me, "thread.spawn");
        let mut k = exec.lock_kernel();
        if k.abort.is_some() {
            drop(k);
            abort_unwind();
        }
        let tid = k.threads.len();
        assert!(
            tid < exec.cfg.max_threads,
            "model run spawned more than max_threads ({}) threads",
            exec.cfg.max_threads
        );
        k.threads.push(ThreadInfo {
            status: Status::Runnable,
            steps: 0,
            last_label: "spawned",
        });
        k.live += 1;
        let child = Arc::clone(exec);
        let handle = std::thread::Builder::new()
            .name(format!("lgr-model-{tid}"))
            .spawn(move || child.child_main(tid, payload))
            .expect("spawning model-managed thread");
        k.os_handles.push(handle);
        tid
    }

    fn join_thread(&self, me: usize, tid: usize) {
        self.schedule_point(me, "thread.join");
        loop {
            let mut k = self.lock_kernel();
            if k.abort.is_some() {
                drop(k);
                abort_unwind();
            }
            if k.threads[tid].status == Status::Finished {
                return;
            }
            k.threads[me].status = Status::BlockedJoin(tid);
            self.block_and_switch(k, me);
        }
    }

    /// Body of every managed OS thread: wait to be scheduled, run the
    /// payload, record a top-level panic as the execution's failure,
    /// and hand the token onward.
    fn child_main(self: Arc<Self>, tid: usize, payload: Box<dyn FnOnce() + Send>) {
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&self), tid)));
        let scheduled = {
            let mut k = self.lock_kernel();
            loop {
                if k.abort.is_some() {
                    break false;
                }
                if k.active == tid {
                    break true;
                }
                k = self
                    .cv
                    .wait(k)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        if scheduled {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(payload)) {
                // Explicit as_ref: coercing `&payload` would unsize the
                // Box itself into `dyn Any` and every downcast would miss.
                let inner: &(dyn std::any::Any + Send) = payload.as_ref();
                if !inner.is::<ModelAbort>() {
                    let msg = panic_message(inner);
                    let mut k = self.lock_kernel();
                    if k.abort.is_none() {
                        k.abort = Some(Abort::Failure(msg));
                    }
                    self.cv.notify_all();
                }
            }
        }
        self.thread_finished(tid);
        CTX.with(|c| *c.borrow_mut() = None);
    }

    fn thread_finished(&self, tid: usize) {
        let mut k = self.lock_kernel();
        k.threads[tid].status = Status::Finished;
        k.live -= 1;
        for t in k.threads.iter_mut() {
            if t.status == Status::BlockedJoin(tid) {
                t.status = Status::Runnable;
            }
        }
        if k.abort.is_some() || k.live == 0 {
            self.cv.notify_all();
            return;
        }
        let enabled = Self::enabled(&k);
        if enabled.is_empty() {
            let msg = Self::describe_deadlock(&k);
            k.abort = Some(Abort::Deadlock(msg));
            self.cv.notify_all();
            return;
        }
        // Exit handoff is a forced switch: every enabled thread is an
        // alternative, none charges the preemption budget.
        match self.choose(&mut k, &enabled) {
            Ok(chosen) => {
                k.active = chosen;
                self.cv.notify_all();
            }
            Err(()) => {
                self.cv.notify_all();
            }
        }
    }

    /// Runs one execution to completion and returns what happened.
    fn run(exec: &Arc<Execution>, payload: Box<dyn FnOnce() + Send>) -> Outcome {
        {
            let mut k = exec.lock_kernel();
            k.threads.push(ThreadInfo {
                status: Status::Runnable,
                steps: 0,
                last_label: "start",
            });
            k.live = 1;
            k.active = 0;
        }
        let child = Arc::clone(exec);
        let root = std::thread::Builder::new()
            .name("lgr-model-0".to_owned())
            .spawn(move || child.child_main(0, payload))
            .expect("spawning model root thread");
        let (decisions, abort, points, trace, handles) = {
            let mut k = exec.lock_kernel();
            while k.live > 0 {
                k = exec
                    .cv
                    .wait(k)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            (
                std::mem::take(&mut k.decisions),
                k.abort.take(),
                k.points,
                std::mem::take(&mut k.trace),
                std::mem::take(&mut k.os_handles),
            )
        };
        let _ = root.join();
        for h in handles {
            let _ = h.join();
        }
        Outcome {
            decisions,
            abort,
            points,
            trace,
        }
    }
}

struct Outcome {
    decisions: Vec<(usize, usize)>,
    abort: Option<Abort>,
    points: u64,
    trace: Vec<(usize, &'static str)>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn format_trace(trace: &[(usize, &'static str)]) -> String {
    const TAIL: usize = 120;
    let skipped = trace.len().saturating_sub(TAIL);
    let mut out = String::new();
    if skipped > 0 {
        out.push_str(&format!("  … {skipped} earlier ops elided …\n"));
    }
    let mut run: Option<(usize, &'static str, usize)> = None;
    let flush = |run: &mut Option<(usize, &'static str, usize)>, out: &mut String| {
        if let Some((tid, label, n)) = run.take() {
            if n > 1 {
                out.push_str(&format!("  t{tid}: {label} ×{n}\n"));
            } else {
                out.push_str(&format!("  t{tid}: {label}\n"));
            }
        }
    };
    for &(tid, label) in &trace[skipped..] {
        match &mut run {
            Some((t, l, n)) if *t == tid && *l == label => *n += 1,
            _ => {
                flush(&mut run, &mut out);
                run = Some((tid, label, 1));
            }
        }
    }
    flush(&mut run, &mut out);
    out
}

/// Exhaustively explores `f` under the default [`Config`], panicking
/// on the first failing interleaving with the schedule that produced
/// it. Returns a [`Report`] of what was explored.
pub fn check(f: impl Fn() + Send + Sync + 'static) -> Report {
    check_with(Config::default(), f)
}

/// [`check`] with explicit exploration bounds.
///
/// # Panics
///
/// * when any interleaving fails (assertion, deadlock, lost wakeup,
///   lock-order violation) — the panic message includes the failing
///   schedule's operation trace;
/// * when the state space exceeds [`Config::max_executions`];
/// * when called from inside a model run.
pub fn check_with(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Report {
    assert!(
        !active(),
        "model::check cannot be nested inside a model run"
    );
    let f = Arc::new(f);
    let visited: Arc<StdMutex<HashSet<u64>>> = Arc::new(StdMutex::new(HashSet::new()));
    let mut prefix: Vec<(usize, usize)> = Vec::new();
    let mut report = Report {
        preemption_bound: cfg.max_preemptions,
        ..Report::default()
    };
    let mut gen = 0u64;
    loop {
        gen += 1;
        assert!(
            report.executions + report.pruned < cfg.max_executions,
            "model::check exceeded max_executions ({}) — raise the cap or tighten the \
             preemption bound",
            cfg.max_executions
        );
        let exec = Arc::new(Execution::new(
            gen,
            cfg,
            prefix.clone(),
            Arc::clone(&visited),
        ));
        let payload = {
            let f = Arc::clone(&f);
            Box::new(move || f()) as Box<dyn FnOnce() + Send>
        };
        let outcome = Execution::run(&exec, payload);
        report.schedule_points += outcome.points;
        report.peak_decisions = report.peak_decisions.max(outcome.decisions.len());
        match outcome.abort {
            Some(Abort::Pruned) => report.pruned += 1,
            Some(Abort::Failure(msg)) => {
                panic!(
                    "model check failed after {} interleavings: {msg}\nschedule:\n{}",
                    report.executions + 1,
                    format_trace(&outcome.trace)
                );
            }
            Some(Abort::Deadlock(msg)) => {
                panic!(
                    "model check found a deadlock after {} interleavings: {msg}\nschedule:\n{}",
                    report.executions + 1,
                    format_trace(&outcome.trace)
                );
            }
            Some(Abort::Divergence(msg)) => {
                panic!("model replay divergence: {msg}");
            }
            None => report.executions += 1,
        }
        // Backtrack: flip the deepest decision with an unexplored
        // alternative; drop everything below it.
        let mut d = outcome.decisions;
        loop {
            match d.last().copied() {
                None => return report,
                Some((chosen, options)) if chosen + 1 < options => {
                    let last = d.len() - 1;
                    d[last] = (chosen + 1, options);
                    prefix = d;
                    break;
                }
                Some(_) => {
                    d.pop();
                }
            }
        }
    }
}
