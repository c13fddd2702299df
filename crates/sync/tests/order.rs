//! Lock-order auditor and poison-recovery tests (no `model` feature
//! needed: auditing is active under `debug_assertions`).

use lgr_sync::{held_locks, poison_recoveries, rank, Condvar, Mutex};

#[test]
fn increasing_ranks_are_accepted() {
    let low = Mutex::ranked(rank(10, "test.low"), 0u32);
    let high = Mutex::ranked(rank(20, "test.high"), 0u32);
    let g1 = low.lock();
    let g2 = high.lock();
    assert_eq!(held_locks(), 2);
    drop(g2);
    drop(g1);
    assert_eq!(held_locks(), 0);
}

/// The deliberately seeded inversion: taking `test.low` while holding
/// `test.high` must panic, and the message must name both locks and
/// both acquisition sites.
#[test]
fn seeded_inversion_is_caught_with_both_sites() {
    let low = Mutex::ranked(rank(10, "test.low"), 0u32);
    let high = Mutex::ranked(rank(20, "test.high"), 0u32);

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g_high = high.lock(); // site A: the held lock
        let _g_low = low.lock(); // site B: the violating acquisition
    }))
    .expect_err("rank inversion must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".into());

    assert!(msg.contains("lock-order violation"), "got: {msg}");
    assert!(msg.contains("test.low"), "violating lock named: {msg}");
    assert!(msg.contains("test.high"), "held lock named: {msg}");
    // Both sites point into this file (the held site appears both
    // inline and in the held-locks list).
    assert!(msg.matches("tests/order.rs").count() >= 2, "got: {msg}");
    // The unwind released everything.
    assert_eq!(held_locks(), 0);
}

#[test]
fn equal_rank_is_a_violation_too() {
    let a = Mutex::ranked(rank(30, "test.eq.a"), ());
    let b = Mutex::ranked(rank(30, "test.eq.b"), ());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }))
    .expect_err("equal ranks must not nest");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(String::new);
    assert!(msg.contains("strictly increasing"), "got: {msg}");
}

#[test]
fn non_lifo_guard_drops_release_the_right_entry() {
    let a = Mutex::ranked(rank(40, "test.a"), ());
    let b = Mutex::ranked(rank(50, "test.b"), ());
    let ga = a.lock();
    let gb = b.lock();
    drop(ga); // out of LIFO order
    assert_eq!(held_locks(), 1);
    // `test.b` (50) must still be the constraint: 45 violates…
    let c = Mutex::ranked(rank(45, "test.c"), ());
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _gc = c.lock();
    }))
    .is_err());
    // …and 55 is fine.
    let d = Mutex::ranked(rank(55, "test.d"), ());
    let gd = d.lock();
    drop(gd);
    drop(gb);
    assert_eq!(held_locks(), 0);
}

#[test]
fn unranked_locks_do_not_constrain() {
    let high = Mutex::ranked(rank(70, "test.outer"), ());
    let plain = Mutex::new(());
    let _g = high.lock();
    let _p = plain.lock(); // no rank, no check
    assert_eq!(held_locks(), 1); // only the ranked lock is tracked
}

/// A lock poisoned by a panicking holder recovers on the next acquire
/// instead of propagating the panic, and the recovery is counted.
#[test]
fn poisoned_lock_recovers_with_counter_bump() {
    let m = std::sync::Arc::new(Mutex::new(7u32));
    let before = poison_recoveries();
    let m2 = std::sync::Arc::clone(&m);
    let _ = std::thread::spawn(move || {
        let _g = m2.lock();
        panic!("poison the lock");
    })
    .join();
    // The next lock() succeeds and sees consistent data.
    assert_eq!(*m.lock(), 7);
    assert!(poison_recoveries() > before, "recovery must be counted");
}

/// Condvar wait releases the audit entry while parked: another thread
/// can acquire the same rank during the wait without a false positive.
#[test]
fn condvar_wait_releases_audit_entry() {
    use std::sync::Arc;
    let pair = Arc::new((Mutex::ranked(rank(60, "test.cv"), false), Condvar::new()));
    let pair2 = Arc::clone(&pair);
    let waiter = std::thread::spawn(move || {
        let (m, cv) = &*pair2;
        let mut g = m.lock();
        while !*g {
            g = cv.wait(g);
        }
        assert_eq!(held_locks(), 1); // reacquired and re-audited
    });
    let (m, cv) = &*pair;
    loop {
        let mut g = m.lock();
        *g = true;
        cv.notify_one();
        drop(g);
        if waiter.is_finished() {
            break;
        }
        std::thread::yield_now();
    }
    waiter.join().expect("waiter must finish cleanly");
}
