//! The persistent worker pool.
//!
//! All synchronization goes through `lgr-sync` wrappers: the pool's
//! locks carry ranks in the workspace's global lock order (`pool.gate`
//! = 300, `pool.state` = 310, both above the engine's cache locks), and
//! under the `model` feature the whole broadcast handshake runs inside
//! the deterministic interleaving explorer (see `tests/model.rs`).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use lgr_sync::thread::JoinHandle;
use lgr_sync::{rank, Condvar, Mutex, Rank};

/// Broadcast serialization comes before epoch bookkeeping.
const GATE_RANK: Rank = rank(300, "pool.gate");
/// Epoch/job handshake state; acquired while holding `pool.gate`.
const STATE_RANK: Rank = rank(310, "pool.state");

/// A type-erased pointer to the closure of the broadcast in flight.
///
/// `data` points at a caller-stack `F: Fn(usize) + Sync`; `call`
/// downcasts and invokes it.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    // SAFETY: contract of `call` — it must only be invoked with the
    // `data` pointer above, which is the `&F` it was monomorphized
    // for (upheld by construction in `Pool::broadcast`).
    call: unsafe fn(*const (), usize),
}

// SAFETY: the closure behind `data` is `Sync` (enforced by the bounds
// on `Pool::broadcast`) and outlives every worker's use of it, because
// `broadcast` blocks until all workers have signalled completion
// before the stack frame owning the closure can unwind or return.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per broadcast; workers run one job per new epoch.
    epoch: u64,
    /// The job of the current epoch, cleared once the epoch completes.
    job: Option<Job>,
    /// Spawned workers that have not yet finished the current epoch.
    remaining: usize,
    /// The first panic payload a spawned worker produced this epoch —
    /// preserved so `broadcast` can resume it with the original
    /// message instead of a generic "a worker panicked".
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Set by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new epoch starts (or at shutdown).
    work: Condvar,
    /// Signalled when the last worker finishes an epoch.
    done: Condvar,
}

/// A pool of persistent worker threads for scoped data parallelism.
///
/// Workers are spawned once at construction and reused across every
/// subsequent operation, so iterative algorithms (PageRank rounds,
/// SSSP relaxation waves) pay the thread-spawn cost zero times instead
/// of once per iteration. The calling thread participates as worker 0,
/// so `Pool::new(t)` spawns only `t - 1` OS threads, and `Pool::new(1)`
/// runs every broadcast inline with no threads and no synchronization:
/// a pooled operation on a pool of one is the sequential code.
///
/// A pool is `Send + Sync`: one pool can back many concurrent jobs
/// (the shared-`Session` serving path hands a single pool to every
/// connection handler). Broadcasts from different threads serialize
/// through an internal gate, so concurrent jobs interleave safely at
/// data-parallel-section granularity rather than oversubscribing the
/// machine with per-job worker sets.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use lgr_parallel::Pool;
///
/// let pool = Pool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.broadcast(|worker| {
///     assert!(worker < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.into_inner(), 4);
/// ```
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes broadcasts so concurrent callers cannot interleave
    /// epoch bookkeeping.
    gate: Mutex<()>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

// The serving tier shares one pool across every connection thread; a
// regression that makes `Pool` thread-local fails to compile here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pool>();
};

impl Pool {
    /// A pool with `threads` total workers (the calling thread counts
    /// as one; `threads - 1` OS threads are spawned). `threads` is
    /// clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::ranked(
                STATE_RANK,
                State {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    panic_payload: None,
                    shutdown: false,
                },
            ),
            work: Condvar::with_label("pool.work"),
            done: Condvar::with_label("pool.done"),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                lgr_sync::thread::Builder::new()
                    .name(format!("lgr-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning pool worker thread")
            })
            .collect();
        Pool {
            shared,
            workers,
            gate: Mutex::ranked(GATE_RANK, ()),
            threads,
        }
    }

    /// A pool sized by [`Pool::default_threads`].
    pub fn with_default_threads() -> Self {
        Pool::new(Self::default_threads())
    }

    /// The workspace-wide thread-count knob: the `LGR_THREADS`
    /// environment variable if set to a positive integer, otherwise
    /// the machine's available parallelism.
    pub fn default_threads() -> usize {
        std::env::var("LGR_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    }

    /// Total worker count, including the calling thread.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(worker_index)` once on every worker (indices
    /// `0..threads`), blocking until all invocations complete. The
    /// calling thread runs `f(0)` itself.
    ///
    /// `f` may borrow from the caller's stack: the borrow cannot
    /// dangle because `broadcast` does not return (or unwind) until
    /// every worker has finished with it.
    ///
    /// Concurrent `broadcast` calls from different threads are
    /// serialized. Do **not** call `broadcast` from inside a job on
    /// the same pool — it deadlocks (workers cannot make progress on a
    /// nested epoch).
    ///
    /// # Panics
    ///
    /// If `f` panics on the calling thread the panic resumes here once
    /// all workers finish; if `f` panics on a spawned worker, the
    /// first worker's original payload is re-raised here after the
    /// epoch completes (as a scoped spawn's `join` would).
    ///
    /// # Safety argument for the internal `unsafe`
    ///
    /// The job handed to workers is a type-erased `*const F` into this
    /// frame; it cannot outlive `f` because `broadcast` blocks until
    /// every worker has signalled completion of this epoch, and the
    /// `gate` lock serializes epochs so no stale pointer is ever
    /// re-dispatched.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        if self.workers.is_empty() {
            f(0);
            return;
        }
        /// Downcasts `data` back to the concrete closure and calls it.
        ///
        /// # Safety
        /// `data` must be the `&F` installed by the enclosing
        /// `broadcast`, still alive for the duration of the call.
        unsafe fn call<F: Fn(usize)>(data: *const (), index: usize) {
            // SAFETY (of the deref): `data` is the `&F` installed by
            // the enclosing `broadcast`, which is still alive because
            // `broadcast` blocks until every worker is done with it.
            (*(data as *const F))(index)
        }
        let _serialize = self.gate.lock();
        let job = Job {
            data: (&f as *const F).cast::<()>(),
            call: call::<F>,
        };
        {
            let mut s = self.shared.state.lock();
            s.job = Some(job);
            s.epoch = s.epoch.wrapping_add(1);
            s.remaining = self.workers.len();
            s.panic_payload = None;
            self.shared.work.notify_all();
        }
        // The calling thread is worker 0. Catch a panic so we still
        // wait for the spawned workers (their job reference must not
        // outlive this frame).
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panic = {
            let mut s = self.shared.state.lock();
            while s.remaining > 0 {
                s = self.shared.done.wait(s);
            }
            s.job = None;
            s.panic_payload.take()
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            // Re-raise the worker's original panic so the message and
            // location reach the caller, as a scoped spawn would.
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The spawned workers' run loop: wait for an epoch bump, run the
/// installed job, signal completion.
///
/// # Safety argument for the internal `unsafe`
///
/// The type-erased job pointer is dereferenced only between observing
/// the epoch bump and decrementing `remaining` — the window in which
/// the installing `broadcast` is still blocked, so the closure the
/// pointer aliases is guaranteed alive (it cannot outlive its frame
/// unobserved).
fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut s = shared.state.lock();
            loop {
                if s.shutdown {
                    return;
                }
                if s.epoch != seen_epoch {
                    seen_epoch = s.epoch;
                    break s.job.expect("epoch bumped without a job");
                }
                s = shared.work.wait(s);
            }
        };
        // SAFETY: `job` was installed by a `broadcast` that is still
        // blocked waiting for this worker's completion signal below,
        // so the closure it points to is alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, index) }));
        let mut s = shared.state.lock();
        if let Err(payload) = result {
            // Keep the first payload; later ones are usually cascades.
            s.panic_payload.get_or_insert(payload);
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::new(threads);
            let counts: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(|w| {
                counts[w].fetch_add(1, Ordering::Relaxed);
            });
            for (w, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "worker {w} of {threads}");
            }
        }
    }

    #[test]
    fn workers_persist_across_broadcasts() {
        let pool = Pool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 400);
    }

    #[test]
    fn borrows_caller_stack() {
        let pool = Pool::new(3);
        let data = [1u64, 2, 3, 4, 5, 6];
        let partials: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|w| {
            let sum: u64 = data[w * 2..w * 2 + 2].iter().sum();
            partials[w].store(sum as usize, Ordering::Relaxed);
        });
        let total: usize = partials.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicUsize::new(0);
        pool.broadcast(|w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|w| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("worker panic must surface");
        // The original payload is preserved, not a generic message.
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool stays usable afterwards.
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 4);
    }

    #[test]
    fn caller_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|w| {
                if w == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(result.is_err());
        let ok = AtomicUsize::new(0);
        pool.broadcast(|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.into_inner(), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(Pool::default_threads() >= 1);
    }

    #[test]
    fn concurrent_broadcasts_from_many_threads_serialize_correctly() {
        // The shared-session serving path: several job threads drive
        // one pool at once. Every broadcast must still run exactly
        // once per worker, with no interleaved epoch bookkeeping.
        for pool_threads in [1usize, 3] {
            let pool = Pool::new(pool_threads);
            let total = AtomicUsize::new(0);
            const CALLERS: usize = 4;
            const ROUNDS: usize = 50;
            std::thread::scope(|scope| {
                for _ in 0..CALLERS {
                    let (pool, total) = (&pool, &total);
                    scope.spawn(move || {
                        for _ in 0..ROUNDS {
                            pool.broadcast(|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(
                total.into_inner(),
                CALLERS * ROUNDS * pool_threads,
                "{pool_threads} pool threads"
            );
        }
    }

    #[test]
    fn a_panic_under_contention_does_not_poison_other_callers() {
        let pool = Pool::new(2);
        std::thread::scope(|scope| {
            let ok = scope.spawn(|| {
                for _ in 0..100 {
                    pool.broadcast(|_| {});
                }
            });
            let panicky = scope.spawn(|| {
                for _ in 0..10 {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        pool.broadcast(|w| {
                            if w == 1 {
                                panic!("boom");
                            }
                        });
                    }));
                    assert!(r.is_err());
                }
            });
            ok.join().expect("clean caller must stay clean");
            panicky.join().expect("panics were caught");
        });
    }
}
