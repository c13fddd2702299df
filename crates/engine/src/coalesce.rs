//! Build-coalescing concurrent caches with byte budgets.
//!
//! [`CoalescingCache`] is the storage behind every
//! [`Session`](crate::Session) cache: one `Mutex`-guarded hash map
//! whose values are `Arc`-shared, plus a per-key *in-flight slot*
//! that coalesces concurrent builds. When N threads ask for the same
//! missing key at once, exactly one runs the (typically expensive — a
//! graph build, a reordering, a traced simulation) builder; the
//! others block on the slot and wake to the shared result. Builders
//! run with no map lock held, so a builder may recursively consult
//! *other* caches (a reorder build fetching its base graph, say)
//! without lock-ordering concerns.
//!
//! One plain mutex per cache is enough: a job makes a handful of cache
//! calls from the thread that drives it, each holding the map for one
//! hash probe and one `Arc` clone, against milliseconds to seconds of
//! graph work, and pool workers never touch a cache. The model tests
//! in `tests/model.rs` therefore explore exactly the structure that
//! runs.
//!
//! Failed builds are not cached: the error returns to the thread that
//! built, waiters retry, and — when nobody is waiting — the abandoned
//! slot is removed from the map entirely, so a client iterating
//! erroring keys (`file:` specs for missing paths, say) cannot grow
//! the map without bound.
//!
//! # Memory governance
//!
//! A cache built with a byte budget charges every published value
//! against it using its [`CacheWeight`] and evicts the
//! least-recently-used published entries while the total exceeds it
//! ([`EvictionPolicy::Lru`]). Recency is a logical clock stamped on
//! every hit and publish, never a wall-clock reading, so the same
//! request sequence evicts the same entries on every run. Eviction
//! composes with coalescing:
//!
//! * it runs under the same map-lock hold that publishes, so
//!   picking a victim and removing it is one step no other thread
//!   can interleave with;
//! * an in-flight `Building` slot is **never** evictable (only
//!   published values are candidates), and a running builder holds
//!   no lock, so eviction never blocks on (or deadlocks with) a
//!   build;
//! * evicting removes the map entry but leaves the detached slot's
//!   value readable, so a thread that resolved the slot just before
//!   the eviction still completes with the shared `Arc`;
//! * a value larger than the whole budget still builds and is served
//!   to its requesters — it just doesn't stay resident.
//!
//! Hit/miss/eviction/resident-bytes counters are exposed as a
//! [`CacheStats`] snapshot via [`CoalescingCache::stats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};
use std::sync::Arc;

use lgr_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use lgr_sync::{rank, Condvar, Mutex, MutexGuard, Rank};

use crate::weight::CacheWeight;

/// Cache maps are the first locks in the workspace's global order.
const MAP_RANK: Rank = rank(100, "engine.cache.map");
/// Per-key slot mutexes nest strictly inside the map lock.
const SLOT_RANK: Rank = rank(200, "engine.cache.slot");

/// How a budgeted cache picks eviction victims. There is one policy:
/// evict the least-recently-used published entry. Victims follow
/// only the cache's logical clock, so the same request sequence
/// evicts the same entries on every run, and the model checker
/// explores exactly the policy that runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used published entry.
    #[default]
    Lru,
}

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a published value.
    pub hits: u64,
    /// Requests that ran (or joined) a build.
    pub misses: u64,
    /// Published entries removed by budget pressure.
    pub evictions: u64,
    /// Bytes currently charged against the budget (published,
    /// in-map values only).
    pub resident_bytes: u64,
    /// Published entries currently resident.
    pub entries: usize,
    /// The configured budget, if any.
    pub budget_bytes: Option<u64>,
}

impl CacheStats {
    /// Accumulates another cache's counters into this one (budget
    /// fields sum when both are set).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_bytes += other.resident_bytes;
        self.entries += other.entries;
        self.budget_bytes = match (self.budget_bytes, other.budget_bytes) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
    }
}

/// One key's slot: either empty, being built by exactly one thread,
/// or holding the shared result.
enum SlotState<V> {
    /// No value and nobody building.
    Empty,
    /// One thread is running the builder; others wait on the condvar.
    Building,
    /// The published result, its byte weight, and the logical tick of
    /// its last hit or publish (the LRU ordering).
    Ready {
        value: Arc<V>,
        bytes: u64,
        last_used: u64,
    },
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    /// Signalled when a build publishes or is abandoned.
    changed: Condvar,
    /// Threads currently blocked waiting for this slot's build. A
    /// failed build only removes the slot from the map when this is
    /// zero — a counted waiter is about to retry on this very slot
    /// and must still find it addressable.
    waiters: AtomicUsize,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::ranked(SLOT_RANK, SlotState::Empty),
            changed: Condvar::with_label("engine.cache.slot.changed"),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Slot locks recover from poison inside `lgr_sync::Mutex::lock`
    /// (counted in [`lgr_sync::poison_recoveries`]): a builder panic
    /// must not cascade into every coalescing waiter.
    #[track_caller]
    fn lock(&self) -> MutexGuard<'_, SlotState<V>> {
        self.state.lock()
    }
}

/// Everything the map lock guards. The hasher is the fixed-seed
/// [`DefaultHasher`] (not std's per-map `RandomState`), so iteration
/// order is a pure function of the operation history and
/// model-checked executions replay deterministically.
struct Entries<K, V> {
    slots: HashMap<K, Arc<Slot<V>>, BuildHasherDefault<DefaultHasher>>,
    /// Bytes of published values reachable through `slots` (detached
    /// slots are not counted).
    resident: u64,
    /// Published entries removed by budget pressure.
    evictions: u64,
}

impl<K, V> Entries<K, V> {
    /// Number of published slots (in-flight builds don't count).
    fn published(&self) -> usize {
        self.slots
            .values()
            .filter(|slot| matches!(&*slot.lock(), SlotState::Ready { .. }))
            .count()
    }
}

/// A concurrent map from `K` to `Arc<V>` with per-key build
/// coalescing and an optional byte budget.
///
/// # Example
///
/// ```
/// use lgr_engine::coalesce::CoalescingCache;
///
/// let cache: CoalescingCache<String, usize> = CoalescingCache::new(None);
/// let v = cache.get_or_try_build::<()>(&"answer".to_owned(), || Ok(42)).unwrap();
/// assert_eq!(*v, 42);
/// // A second request is a hit: the builder does not run again.
/// let w = cache
///     .get_or_try_build::<()>(&"answer".to_owned(), || unreachable!())
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&v, &w));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct CoalescingCache<K, V> {
    map: Mutex<Entries<K, V>>,
    /// Byte budget for published values; `None` = unbounded.
    budget_bytes: Option<u64>,
    /// Monotone logical clock stamped onto slots on hit/publish.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> std::fmt::Debug for CoalescingCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalescingCache")
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

/// Lock-ordering contract (deadlock freedom): a thread holding a
/// *slot* mutex never acquires the *map* lock. Map → slot is the only
/// permitted nesting, and builders run holding neither.
impl<K, V> CoalescingCache<K, V>
where
    K: Eq + Hash + Clone,
{
    /// An empty cache that keeps at most `budget_bytes` of published
    /// values resident (`None` = unbounded).
    pub fn new(budget_bytes: Option<u64>) -> Self {
        CoalescingCache {
            map: Mutex::ranked(
                MAP_RANK,
                Entries {
                    slots: HashMap::default(),
                    resident: 0,
                    evictions: 0,
                },
            ),
            budget_bytes,
            clock: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A snapshot of the cache's counters. `entries` and
    /// `resident_bytes` are instantaneous; the rest are cumulative.
    pub fn stats(&self) -> CacheStats {
        let map = self.map.lock();
        CacheStats {
            // ordering: Relaxed — monotone counters read for a
            // statistical snapshot; no other memory is published
            // through them, so cross-counter skew is acceptable.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: Relaxed — see `hits` above.
            misses: self.misses.load(Ordering::Relaxed),
            evictions: map.evictions,
            resident_bytes: map.resident,
            entries: map.published(),
            budget_bytes: self.budget_bytes,
        }
    }

    fn tick(&self) -> u64 {
        // ordering: Relaxed — the clock only needs per-instance
        // uniqueness/monotonicity, which fetch_add gives at any
        // ordering; recency stamps are heuristic inputs, not
        // synchronization.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The key's slot, looked up or inserted empty under one hold of
    /// the map lock. Only a miss clones the key.
    fn slot(&self, key: &K) -> Arc<Slot<V>> {
        let mut map = self.map.lock();
        if let Some(s) = map.slots.get(key) {
            return Arc::clone(s);
        }
        let slot = Arc::new(Slot::new());
        map.slots.insert(key.clone(), Arc::clone(&slot));
        slot
    }

    /// The cached value, if already published. Refreshes the entry's
    /// recency but moves no hit/miss counter (peeks are not
    /// requests).
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let map = self.map.lock();
        let slot = map.slots.get(key)?;
        let value = match &mut *slot.lock() {
            SlotState::Ready {
                value, last_used, ..
            } => {
                *last_used = self.tick();
                Some(Arc::clone(value))
            }
            _ => None,
        };
        value
    }

    /// [`CoalescingCache::get`] as a request: a published value counts
    /// a hit, and an absent one counts nothing. For a caller whose
    /// request another key's value can answer (a relabelled graph's
    /// full form standing in for one of its directions), before it
    /// asks for its own key.
    pub fn hit(&self, key: &K) -> Option<Arc<V>> {
        let value = self.get(key)?;
        // ordering: Relaxed — statistics counter only.
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Number of published entries (in-flight builds don't count).
    pub fn len(&self) -> usize {
        self.map.lock().published()
    }

    /// `true` if no entry has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot-map entries, *including* empty and in-flight slots —
    /// the leak-detection companion to [`CoalescingCache::len`]: after
    /// a failed build with no waiters the abandoned slot must not
    /// remain here.
    pub fn tracked_slots(&self) -> usize {
        self.map.lock().slots.len()
    }

    /// The value for `key`, running `build` at most once per key no
    /// matter how many threads ask concurrently: the first caller
    /// builds (with no lock held beyond the key's in-flight marker),
    /// the rest block until the result is published and then share it.
    ///
    /// A builder error is returned to the building caller and **not**
    /// cached — waiting threads wake and one of them retries the
    /// build, and a slot abandoned with no waiters is removed from the
    /// map.
    ///
    /// `build` must not re-enter the cache under the *same* key (that
    /// would self-deadlock); consulting other keys or other caches is
    /// fine.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E>
    where
        V: CacheWeight,
    {
        let slot = self.slot(key);
        {
            let mut state = slot.lock();
            loop {
                match &mut *state {
                    SlotState::Ready {
                        value, last_used, ..
                    } => {
                        *last_used = self.tick();
                        // ordering: Relaxed — statistics counter only.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(value));
                    }
                    SlotState::Building => {
                        // Counted waiters keep a failing build from
                        // dropping the map entry out from under their
                        // retry (see AbandonGuard).
                        // ordering: Relaxed — every access to `waiters`
                        // (this add/sub pair and AbandonGuard's read)
                        // happens while holding the slot mutex, which
                        // already orders them; the atomic only spares a
                        // second field under the same lock.
                        slot.waiters.fetch_add(1, Ordering::Relaxed);
                        state = slot.changed.wait(state);
                        // ordering: Relaxed — see fetch_add above.
                        slot.waiters.fetch_sub(1, Ordering::Relaxed);
                    }
                    SlotState::Empty => {
                        *state = SlotState::Building;
                        break;
                    }
                }
            }
        }
        // ordering: Relaxed — statistics counter only.
        self.misses.fetch_add(1, Ordering::Relaxed);
        // This thread owns the build. The guard rolls the slot back to
        // Empty if the builder panics or errors, so waiters never
        // hang — and removes the waiterless abandoned slot from the
        // map, so erroring keys don't accumulate.
        let mut guard = AbandonGuard {
            cache: self,
            key,
            slot: &slot,
            armed: true,
        };
        // No map or slot lock is held here (both guards dropped
        // above): the builder runs unlocked.
        match build() {
            Ok(v) => {
                let v = Arc::new(v);
                let bytes = v.weight_bytes() as u64;
                guard.armed = false;
                self.publish(key, &slot, Arc::clone(&v), bytes);
                Ok(v)
            }
            Err(e) => Err(e), // guard drops: Empty + notify (+ removal)
        }
    }

    /// Publishes a built value into its slot, charges the budget, and
    /// evicts down to it, all under one hold of the map lock.
    ///
    /// The common case is trivial: the slot is still this key's map
    /// entry, so flip it to `Ready` and account the bytes. The rare
    /// case is a slot that was *detached* while we built (its map
    /// entry removed by an abandoned-build cleanup racing a waiter —
    /// eviction never detaches `Building` slots): the value is still
    /// published so waiters on the detached slot wake and share it,
    /// and if the key has no map entry at all the slot is re-linked;
    /// but if another (newer) slot owns the map entry, ours stays
    /// detached and unaccounted — the newer build owns the residency.
    fn publish(&self, key: &K, slot: &Arc<Slot<V>>, value: Arc<V>, bytes: u64) {
        let mut map = self.map.lock();
        let accounted = match map.slots.get(key) {
            Some(s) if Arc::ptr_eq(s, slot) => true,
            Some(_) => false,
            None => {
                map.slots.insert(key.clone(), Arc::clone(slot));
                true
            }
        };
        *slot.lock() = SlotState::Ready {
            value,
            bytes: if accounted { bytes } else { 0 },
            last_used: self.tick(),
        };
        slot.changed.notify_all();
        if accounted {
            map.resident += bytes;
        }
        let Some(budget) = self.budget_bytes else {
            return;
        };
        // Evict the least recently used published entries until the
        // rest fit. Every `Ready` slot in the map has its bytes
        // charged, so the subtraction cannot underflow; a `Building`
        // slot is never a victim, and when nothing is left to evict
        // the resident bytes are already zero.
        while map.resident > budget {
            let Some((_, bytes, victim)) = map
                .slots
                .iter()
                .filter_map(|(k, s)| match &*s.lock() {
                    SlotState::Ready {
                        bytes, last_used, ..
                    } => Some((*last_used, *bytes, k)),
                    _ => None,
                })
                .min_by_key(|&(last_used, ..)| last_used)
            else {
                return;
            };
            let victim = victim.clone();
            // The detached slot stays `Ready`, so a thread that
            // resolved it just before the removal still completes;
            // the value's memory is freed when the last Arc drops.
            map.slots.remove(&victim);
            map.resident -= bytes;
            map.evictions += 1;
        }
    }
}

/// Rolls a slot from `Building` back to `Empty` (waking waiters so
/// one of them retries) unless the build published — keeps a panicking
/// builder from wedging every waiter forever — and, when no waiter is
/// counted, removes the abandoned slot from the map so repeated
/// failures (a missing `file:` path requested over and over with
/// distinct specs) cannot grow the map without bound.
struct AbandonGuard<'a, K, V>
where
    K: Eq + Hash + Clone,
{
    cache: &'a CoalescingCache<K, V>,
    key: &'a K,
    slot: &'a Arc<Slot<V>>,
    armed: bool,
}

impl<K, V> Drop for AbandonGuard<'_, K, V>
where
    K: Eq + Hash + Clone,
{
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Map lock before slot lock (the global ordering). Holding
        // the map lock across the rollback keeps a new waiter
        // from resolving the map entry between the state reset and
        // the removal decision.
        let mut map = self.cache.map.lock();
        *self.slot.lock() = SlotState::Empty;
        self.slot.changed.notify_all();
        // ordering: Relaxed — `waiters` is only mutated under the slot
        // mutex, which this thread just released inside the map lock
        // section; a waiter that could still increment it must first
        // reacquire the slot mutex, ordered after our store.
        if self.slot.waiters.load(Ordering::Relaxed) == 0
            && map
                .slots
                .get(self.key)
                .is_some_and(|s| Arc::ptr_eq(s, self.slot))
        {
            map.slots.remove(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn hit_after_build_shares_one_arc() {
        let cache: CoalescingCache<u32, String> = CoalescingCache::new(None);
        assert!(cache.get(&7).is_none());
        assert!(cache.is_empty());
        let a = cache.get_or_try_build::<()>(&7, || Ok("seven".to_owned()));
        let b = cache.get_or_try_build::<()>(&7, || panic!("must not rebuild"));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get(&7).unwrap(), "seven");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!(stats.resident_bytes >= "seven".len() as u64);
    }

    #[test]
    fn concurrent_requests_coalesce_to_one_build_per_key() {
        const THREADS: usize = 8;
        const KEYS: u32 = 3;
        let cache: CoalescingCache<u32, u32> = CoalescingCache::new(None);
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, builds, barrier) = (&cache, &builds, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..32u32 {
                        // Rotate the key order per thread so lookups
                        // and builds genuinely interleave.
                        let key = (i + t as u32) % KEYS;
                        let v = cache.get_or_try_build::<()>(&key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the build window so waiters pile up.
                            std::thread::sleep(Duration::from_millis(10));
                            Ok(key * 100)
                        });
                        let v = v.unwrap();
                        assert_eq!(*v, key * 100);
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), KEYS as usize);
        assert_eq!(cache.len(), KEYS as usize);
        let stats = cache.stats();
        assert_eq!(stats.misses, KEYS as u64);
        assert_eq!(stats.hits + stats.misses, (THREADS * 32) as u64);
    }

    #[test]
    fn errors_are_not_cached_and_waiters_retry() {
        let cache: CoalescingCache<u8, u8> = CoalescingCache::new(None);
        let attempts = AtomicUsize::new(0);
        let r: Result<_, &str> = cache.get_or_try_build(&1, || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err("nope")
        });
        assert_eq!(r.unwrap_err(), "nope");
        assert!(cache.get(&1).is_none());
        // The slot is reusable after a failure.
        let v = cache
            .get_or_try_build::<&str>(&1, || {
                attempts.fetch_add(1, Ordering::SeqCst);
                Ok(9)
            })
            .unwrap();
        assert_eq!(*v, 9);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn failed_builds_do_not_leak_slot_map_entries() {
        let cache: CoalescingCache<u32, u32> = CoalescingCache::new(None);
        for k in 0..200u32 {
            let r: Result<_, String> =
                cache.get_or_try_build(&k, || Err(format!("missing dataset {k}")));
            assert!(r.is_err());
        }
        assert_eq!(
            cache.tracked_slots(),
            0,
            "every abandoned waiterless slot must leave the map"
        );
        assert_eq!(cache.len(), 0);
        // The keys remain perfectly usable afterwards.
        assert_eq!(*cache.get_or_try_build::<()>(&17, || Ok(99)).unwrap(), 99);
        assert_eq!(cache.tracked_slots(), 1);
    }

    #[test]
    fn a_panicking_builder_does_not_wedge_the_slot() {
        let cache: CoalescingCache<u8, u8> = CoalescingCache::new(None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_try_build::<()>(&3, || panic!("builder exploded"));
        }));
        assert!(r.is_err());
        // The slot was rolled back (and the map entry removed); a
        // later build succeeds.
        assert_eq!(cache.tracked_slots(), 0);
        assert_eq!(*cache.get_or_try_build::<()>(&3, || Ok(5)).unwrap(), 5);
    }

    #[test]
    fn a_builder_may_call_its_own_cache() {
        // Builders run with no map lock held. Were the map still
        // locked here, the nested calls would self-deadlock (or, in
        // debug builds, trip the auditor's same-rank check).
        let cache: CoalescingCache<u32, u32> = CoalescingCache::new(None);
        let v = cache.get_or_try_build::<()>(&1, || {
            let inner = cache.get_or_try_build::<()>(&2, || Ok(20))?;
            assert_eq!(cache.get(&2).as_deref(), Some(&20));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (0, 2));
            // Key 2 is published; key 1 is still building.
            assert_eq!(cache.len(), 1);
            Ok(*inner + 1)
        });
        assert_eq!(*v.unwrap(), 21);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_keys_build_independently() {
        let cache: CoalescingCache<u64, u64> = CoalescingCache::new(None);
        for k in 0..100u64 {
            assert_eq!(
                *cache.get_or_try_build::<()>(&k, || Ok(k * k)).unwrap(),
                k * k
            );
        }
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn budget_bounds_resident_bytes_and_counts_evictions() {
        // Values weigh exactly their Vec buffer + header; budget holds
        // roughly 4 of the 16 values.
        let value_bytes = std::mem::size_of::<Vec<u8>>() + 1024;
        let budget = (4 * value_bytes) as u64;
        let cache: CoalescingCache<u32, Vec<u8>> = CoalescingCache::new(Some(budget));
        for k in 0..16u32 {
            let v = cache.get_or_try_build::<()>(&k, || Ok(vec![k as u8; 1024]));
            let v = v.unwrap();
            assert_eq!(v.len(), 1024);
            assert!(
                cache.stats().resident_bytes <= budget,
                "resident must never exceed the budget"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 12, "evictions: {}", stats.evictions);
        assert!(stats.entries <= 4);
        // Evicted keys rebuild on demand, correctly.
        let rebuilt = cache.get_or_try_build::<()>(&0, || Ok(vec![0u8; 1024]));
        let rebuilt = rebuilt.unwrap();
        assert_eq!(rebuilt.len(), 1024);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_served_but_not_retained() {
        let cache: CoalescingCache<u8, Vec<u8>> = CoalescingCache::new(Some(64));
        let v = cache.get_or_try_build::<()>(&1, || Ok(vec![7u8; 4096]));
        let v = v.unwrap();
        assert_eq!(v.len(), 4096, "oversized values still build and serve");
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let value_bytes = (std::mem::size_of::<Vec<u8>>() + 512) as u64;
        let cache: CoalescingCache<u8, Vec<u8>> = CoalescingCache::new(Some(3 * value_bytes));
        for k in 0..3u8 {
            cache
                .get_or_try_build::<()>(&k, || Ok(vec![k; 512]))
                .unwrap();
        }
        // Touch 0 and 1; inserting 3 must evict 2.
        cache.get_or_try_build::<()>(&0, || unreachable!()).unwrap();
        cache.get_or_try_build::<()>(&1, || unreachable!()).unwrap();
        cache
            .get_or_try_build::<()>(&3, || Ok(vec![3; 512]))
            .unwrap();
        assert!(cache.get(&2).is_none(), "coldest entry evicted");
        assert!(cache.get(&0).is_some() && cache.get(&1).is_some() && cache.get(&3).is_some());
    }

    #[test]
    fn building_slots_are_never_evicted() {
        // A tiny budget and a slow build racing cheap inserts: the
        // in-flight slot must survive to publish, and its waiters all
        // get the value.
        let cache: Arc<CoalescingCache<u32, Vec<u8>>> = Arc::new(CoalescingCache::new(Some(2048)));
        let barrier = Arc::new(Barrier::new(2));
        let slow = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_try_build::<()>(&1000, || {
                    std::thread::sleep(Duration::from_millis(60));
                    Ok(vec![9u8; 512])
                })
            })
        };
        barrier.wait();
        // Hammer the budget while the slow build is in flight.
        for k in 0..64u32 {
            cache
                .get_or_try_build::<()>(&k, || Ok(vec![k as u8; 256]))
                .unwrap();
        }
        let v = slow.join().unwrap().unwrap();
        assert_eq!(*v, vec![9u8; 512]);
    }
}
