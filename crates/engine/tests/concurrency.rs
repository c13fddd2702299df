//! The shared-session contract under contention: N threads hammering
//! one `Session` with duplicate and distinct specs must (a) produce
//! reports byte-identical to a sequential run and (b) build each
//! cache key exactly once — coalescing observed through a counting
//! custom technique and a counting custom dataset source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use lgr_core::{Dbg, ReorderingTechnique};
use lgr_engine::{Job, Session, SessionConfig, TechniqueRegistry, DEFAULT_DBG_HOT_GROUPS};
use lgr_graph::{Csr, DegreeKind, EdgeList, Permutation};
use lgr_parallel::Pool;

const THREADS: usize = 8;

/// A session whose registries count every *actual* build: the
/// `counted` technique increments once per reorder computation, the
/// `ring` dataset once per materialization. Cache hits and coalesced
/// waiters must not move either counter.
fn counting_session() -> (Session, Arc<AtomicUsize>, Arc<AtomicUsize>) {
    let reorder_runs = Arc::new(AtomicUsize::new(0));
    let dataset_builds = Arc::new(AtomicUsize::new(0));

    let mut reg = TechniqueRegistry::new();
    let runs = Arc::clone(&reorder_runs);
    reg.register(
        "counted",
        "DBG that counts reorder invocations",
        move |_args| {
            #[derive(Debug)]
            struct Counted(Arc<AtomicUsize>);
            impl ReorderingTechnique for Counted {
                fn reorder_with(&self, graph: &Csr, kind: DegreeKind, _pool: &Pool) -> Permutation {
                    self.0.fetch_add(1, Ordering::SeqCst);
                    Dbg::with_hot_groups(DEFAULT_DBG_HOT_GROUPS).reorder(graph, kind)
                }
            }
            Ok(Box::new(Counted(Arc::clone(&runs))))
        },
    );

    let mut session = Session::with_registry(SessionConfig::quick().with_scale_exp(10), reg);
    let builds = Arc::clone(&dataset_builds);
    session.dataset_registry_mut().register(
        "ring",
        "deterministic chorded ring; ring:<n>",
        move |args, _scale| {
            builds.fetch_add(1, Ordering::SeqCst);
            let n: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(512);
            let mut el = EdgeList::new(n as usize);
            for v in 0..n {
                el.push(v, (v + 1) % n);
                el.push(v, (v * 7 + 3) % n);
            }
            Ok(el)
        },
    );
    (session, reorder_runs, dataset_builds)
}

/// Duplicate and distinct jobs, resolved through the session's
/// registries (plain `FromStr` does not know the custom names).
fn job_list(session: &Session) -> Vec<Job> {
    [
        ("pr:iters=2", "ring:400", Some("counted")),
        ("pr:iters=2", "ring:400", Some("counted")), // duplicate
        ("pr:iters=2", "ring:400", None),            // baseline
        ("pr:iters=2", "lj", Some("counted")),
        ("sssp", "ring:400", Some("dbg")),
        ("pr:iters=2", "lj", Some("dbg")),
        ("pr:iters=2", "ring:400", Some("counted")), // duplicate again
    ]
    .into_iter()
    .map(|(app, ds, tech)| {
        let mut job = Job::new(
            app.parse().expect("valid app spec"),
            session.dataset_registry().parse(ds).expect("valid dataset"),
        );
        if let Some(t) = tech {
            job = job.with_technique(session.registry().parse(t).expect("valid technique"));
        }
        job
    })
    .collect()
}

/// Distinct cache keys in the list above: `counted` runs on
/// (ring:400, Out) and (lj, Out) — PR is pull-based, so both jobs
/// canonicalize to out-degrees.
const EXPECTED_COUNTED_RUNS: usize = 2;
/// `ring:400` is the only custom-source dataset.
const EXPECTED_RING_BUILDS: usize = 1;

fn canonical_lines(session: &Session, jobs: &[Job]) -> Vec<String> {
    jobs.iter()
        .map(|j| session.report(j).canonicalized().to_json())
        .collect()
}

#[test]
fn sequential_runs_build_each_key_once() {
    let (session, reorder_runs, dataset_builds) = counting_session();
    let jobs = job_list(&session);
    let first = canonical_lines(&session, &jobs);
    let second = canonical_lines(&session, &jobs);
    assert_eq!(first, second, "rerunning cached jobs must not drift");
    assert_eq!(reorder_runs.load(Ordering::SeqCst), EXPECTED_COUNTED_RUNS);
    assert_eq!(dataset_builds.load(Ordering::SeqCst), EXPECTED_RING_BUILDS);
}

#[test]
fn hammered_session_coalesces_and_matches_the_sequential_run() {
    // The reference: a fresh session run sequentially.
    let (sequential_session, _, _) = counting_session();
    let sequential = canonical_lines(&sequential_session, &job_list(&sequential_session));

    // The contended run: one shared session, THREADS threads, each
    // walking the whole job list from a rotated starting point so
    // duplicate requests genuinely collide mid-build.
    let (session, reorder_runs, dataset_builds) = counting_session();
    let session = Arc::new(session);
    let jobs = job_list(&session);
    let barrier = Barrier::new(THREADS);
    let mut per_thread: Vec<Vec<String>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (session, jobs, barrier) = (Arc::clone(&session), &jobs, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let mut out = vec![String::new(); jobs.len()];
                    for i in 0..jobs.len() {
                        let idx = (i + t) % jobs.len();
                        // Full fidelity (reorder_ms included): within
                        // one session the measurement is taken once
                        // and shared, so even the wall-clock field
                        // must agree across threads.
                        out[idx] = session.report(&jobs[idx]).to_json();
                    }
                    out
                })
            })
            .collect();
        per_thread.extend(handles.into_iter().map(|h| h.join().expect("no panics")));
    });

    // (b) exactly one build per cache key, despite 8x the requests.
    assert_eq!(
        reorder_runs.load(Ordering::SeqCst),
        EXPECTED_COUNTED_RUNS,
        "duplicate reorder requests must coalesce"
    );
    assert_eq!(
        dataset_builds.load(Ordering::SeqCst),
        EXPECTED_RING_BUILDS,
        "duplicate dataset requests must coalesce"
    );

    // Within the shared session every thread saw identical bytes,
    // wall-clock field included (one measurement, shared by all).
    for (t, lines) in per_thread.iter().enumerate() {
        assert_eq!(lines, &per_thread[0], "thread {t} diverged");
    }

    // (a) against the sequential reference, reports are byte-identical
    // once the single wall-clock measurement field is cleared.
    let concurrent: Vec<String> = jobs
        .iter()
        .map(|j| session.report(j).canonicalized().to_json())
        .collect();
    assert_eq!(concurrent, sequential, "concurrent != sequential");
}

/// A session with the `ring` dataset source and an optional per-cache
/// byte budget — no counting; eviction legitimately rebuilds keys.
fn budgeted_session(cache_bytes: Option<u64>) -> Session {
    let mut cfg = SessionConfig::quick().with_scale_exp(10);
    cfg.cache_bytes = cache_bytes;
    let mut session = Session::with_registry(cfg, TechniqueRegistry::new());
    session.dataset_registry_mut().register(
        "ring",
        "deterministic chorded ring; ring:<n>",
        move |args, _scale| {
            let n: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(512);
            let mut el = EdgeList::new(n as usize);
            for v in 0..n {
                el.push(v, (v + 1) % n);
                el.push(v, (v * 7 + 3) % n);
            }
            Ok(el)
        },
    );
    session
}

/// More distinct graphs than a 24 KiB budget holds (a `ring:300` CSR
/// alone weighs ~9 KiB), with duplicates sprinkled in so hits and
/// rebuilds interleave.
fn eviction_job_list(session: &Session) -> Vec<Job> {
    let mut jobs = Vec::new();
    for i in 0..12u32 {
        let ds = format!("ring:{}", 200 + i * 40);
        jobs.push(
            Job::new(
                "pr:iters=2".parse().expect("valid app spec"),
                session
                    .dataset_registry()
                    .parse(&ds)
                    .expect("valid dataset"),
            )
            .with_technique(session.registry().parse("dbg").expect("valid technique")),
        );
        if i % 3 == 0 {
            jobs.push(jobs.last().expect("just pushed").clone());
        }
    }
    jobs
}

#[test]
fn a_budgeted_session_evicts_under_contention_without_changing_reports() {
    const BUDGET: u64 = 24 * 1024;

    // The reference: an unbounded fresh session run sequentially —
    // eviction and rebuild must never change report content.
    let reference_session = budgeted_session(None);
    let reference = canonical_lines(&reference_session, &eviction_job_list(&reference_session));

    let session = Arc::new(budgeted_session(Some(BUDGET)));
    let jobs = eviction_job_list(&session);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (session, jobs, barrier) = (Arc::clone(&session), &jobs, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for i in 0..jobs.len() {
                    // Rotated starting points: some threads re-request
                    // keys others' misses are evicting right now.
                    let _ = session.report(&jobs[(i + t) % jobs.len()]);
                }
            });
        }
    });

    let stats = session.cache_stats();
    for (name, s) in stats.named() {
        let budget = s
            .budget_bytes
            .expect("every cache of a budgeted session carries the budget");
        assert!(
            s.resident_bytes <= budget,
            "{name}: resident {} exceeds budget {budget}",
            s.resident_bytes
        );
    }
    let total = stats.total();
    assert!(
        total.evictions > 0,
        "a working set larger than the budget must evict: {total:?}"
    );
    assert!(total.hits > 0, "duplicates must still hit: {total:?}");

    // Rebuilt-after-eviction entries answer with the same canonical
    // bytes a never-evicting session produces.
    let concurrent = canonical_lines(&session, &jobs);
    assert_eq!(
        concurrent, reference,
        "eviction must be invisible in canonical report content"
    );
}

#[test]
fn the_session_itself_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Arc<Session>>();
}
