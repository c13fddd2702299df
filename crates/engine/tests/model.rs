//! Exhaustive model checks of the coalescing cache's concurrency
//! invariants (compiled only with `--features model`).
//!
//! Each test wraps a tiny cache scenario in [`model::check`], which
//! re-runs the closure under every interleaving of its lock/condvar/
//! atomic operations (within the preemption bound) on a deterministic
//! cooperative scheduler. Assertion failures print the exact schedule
//! that produced them; a schedule where every thread blocks is
//! reported as a deadlock — the missed-wakeup oracle.
//!
//! Eviction follows the cache's logical clock alone (least recently
//! used, the only policy), so a budgeted scenario's victim choice is
//! a pure function of the schedule and replays exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lgr_engine::coalesce::CoalescingCache;
use lgr_sync::model;

/// Weight of a cached `Vec<u8>` under `CacheWeight` (header + len),
/// for sizing byte budgets exactly.
fn vec_weight(len: usize) -> u64 {
    (std::mem::size_of::<Vec<u8>>() + len) as u64
}

/// Invariant 1: N concurrent requesters of one missing key run
/// the builder exactly once in every interleaving, and all N get the
/// same `Arc`.
#[test]
fn concurrent_requesters_build_exactly_once() {
    let report = model::check(|| {
        let cache: Arc<CoalescingCache<u8, u32>> = Arc::new(CoalescingCache::new(None));
        let builds = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (cache, builds) = (Arc::clone(&cache), Arc::clone(&builds));
                lgr_sync::thread::spawn(move || {
                    let v = cache.get_or_try_build::<()>(&1, || {
                        // ordering: Relaxed — read only after joins.
                        builds.fetch_add(1, Ordering::Relaxed);
                        Ok(42)
                    });
                    *v.expect("the build cannot fail")
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().expect("requester"), 42);
        }
        // ordering: Relaxed — joins already synchronized.
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!(stats.misses + stats.hits, 2);
    });
    println!("concurrent_requesters_build_exactly_once: {report}");
    assert!(report.executions >= 2, "explorer must branch: {report}");
}

/// Invariant 2 (the abandoned-slot leak, exhaustively): a
/// build that fails with no counted waiter always removes the
/// abandoned slot from the map — under every interleaving of a
/// failing builder and a concurrent requester of the same key,
/// `tracked_slots()` ends at 0 when *both* requests fail.
#[test]
fn abandoned_waiterless_slots_are_always_removed() {
    let report = model::check(|| {
        let cache: Arc<CoalescingCache<u8, u32>> = Arc::new(CoalescingCache::new(None));
        let t = {
            let cache = Arc::clone(&cache);
            lgr_sync::thread::spawn(move || {
                cache
                    .get_or_try_build(&1, || Err::<u32, &str>("nope"))
                    .is_err()
            })
        };
        // This call may run the builder itself, join the other
        // thread's in-flight build and retry, or miss it entirely —
        // every interleaving must fail (no value is ever published)
        // and must clean up.
        let r = cache.get_or_try_build(&1, || Err::<u32, &str>("nope"));
        assert!(r.is_err());
        assert!(t.join().expect("builder thread"));
        assert_eq!(
            cache.tracked_slots(),
            0,
            "abandoned waiterless slot must leave the map"
        );
    });
    println!("abandoned_waiterless_slots_are_always_removed: {report}");
    assert!(report.executions >= 2, "explorer must branch: {report}");
}

/// Invariant 3: resident-byte accounting never underflows (or
/// exceeds the budget at rest) when a publisher races an evictor.
/// Underflow would panic the subtraction (tests build with overflow
/// checks) or, unchecked, wrap the counter to ~u64::MAX, which the
/// final exact-accounting assertion catches in any schedule.
#[test]
fn publish_vs_evict_accounting_never_underflows() {
    let report = model::check(|| {
        // Budget fits exactly one value: every publish after the
        // first forces an eviction concurrent with the other thread's
        // publish path.
        let cache: Arc<CoalescingCache<u8, Vec<u8>>> =
            Arc::new(CoalescingCache::new(Some(vec_weight(8))));
        let t = {
            let cache = Arc::clone(&cache);
            lgr_sync::thread::spawn(move || {
                let v = cache.get_or_try_build::<()>(&1, || Ok(vec![1u8; 8]));
                v.expect("the build cannot fail");
            })
        };
        let v = cache.get_or_try_build::<()>(&2, || Ok(vec![2u8; 8]));
        v.expect("the build cannot fail");
        t.join().expect("publisher");
        let resident = cache.stats().resident_bytes;
        assert!(
            resident == 0 || resident == vec_weight(8),
            "resident bytes corrupted: {resident}"
        );
        assert!(resident <= vec_weight(8), "budget exceeded at rest");
    });
    println!("publish_vs_evict_accounting_never_underflows: {report}");
    assert!(report.executions >= 2, "explorer must branch: {report}");
}

/// Invariant 4: a thread that resolved a slot just before the
/// entry is evicted still reads a valid, correct `Arc` — eviction
/// detaches the map entry but never invalidates a held value.
#[test]
fn evicted_entrys_holder_still_reads_a_valid_arc() {
    let report = model::check(|| {
        let cache: Arc<CoalescingCache<u8, Vec<u8>>> =
            Arc::new(CoalescingCache::new(Some(vec_weight(8))));
        // Publish key 1, then race: one thread re-reads 1 while the
        // other publishes 2, whose budget enforcement evicts 1.
        let held = cache.get_or_try_build::<()>(&1, || Ok(vec![1u8; 8]));
        let held = held.expect("the build cannot fail");
        let reader = {
            let cache = Arc::clone(&cache);
            lgr_sync::thread::spawn(move || cache.get(&1))
        };
        let v = cache.get_or_try_build::<()>(&2, || Ok(vec![2u8; 8]));
        v.expect("the build cannot fail");
        // The pre-eviction Arc is untouched by the eviction.
        assert_eq!(*held, vec![1u8; 8]);
        // The racing reader saw either the still-resident value or a
        // clean miss — never a torn or wrong value.
        if let Some(v) = reader.join().expect("reader") {
            assert_eq!(*v, vec![1u8; 8]);
        }
    });
    println!("evicted_entrys_holder_still_reads_a_valid_arc: {report}");
    assert!(report.executions >= 2, "explorer must branch: {report}");
}

/// Invariant 5: no missed condvar wakeup. A waiter blocked on
/// an in-flight build whose builder *fails* must always wake, retry,
/// and complete. A lost notification would leave the waiter blocked
/// forever, which the explorer reports as a deadlock (the test then
/// fails with the stuck schedule) rather than hanging.
#[test]
fn failed_build_never_strands_a_waiter() {
    let report = model::check(|| {
        let cache: Arc<CoalescingCache<u8, u32>> = Arc::new(CoalescingCache::new(None));
        let attempts = Arc::new(AtomicUsize::new(0));
        let t = {
            let (cache, attempts) = (Arc::clone(&cache), Arc::clone(&attempts));
            lgr_sync::thread::spawn(move || {
                cache.get_or_try_build(&1, || {
                    // ordering: Relaxed — attempt tally, read after joins.
                    if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                        Err("first build fails")
                    } else {
                        Ok(7u32)
                    }
                })
            })
        };
        let mine = cache.get_or_try_build(&1, || {
            // ordering: Relaxed — attempt tally, read after joins.
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                Err("first build fails")
            } else {
                Ok(7u32)
            }
        });
        let theirs = t.join().expect("other requester");
        // Exactly one request eats the seeded failure; the other —
        // whether it built first, retried after waiting, or arrived
        // late — always completes with the value.
        assert!(
            mine.is_ok() || theirs.is_ok(),
            "someone must succeed: {mine:?} vs {theirs:?}"
        );
        // ordering: Relaxed — read after join.
        assert!(attempts.load(Ordering::Relaxed) >= 1);
    });
    println!("failed_build_never_strands_a_waiter: {report}");
    assert!(report.executions >= 2, "explorer must branch: {report}");
}
