//! Sharded, build-coalescing concurrent caches with byte budgets.
//!
//! [`ShardedCache`] is the storage behind every
//! [`Session`](crate::Session) cache: a fixed set of `RwLock`-guarded hash-map
//! shards whose values are `Arc`-shared, plus a per-key *in-flight
//! slot* that coalesces concurrent builds. When N threads ask for the
//! same missing key at once, exactly one runs the (typically
//! expensive — a graph build, a reordering, a traced simulation)
//! builder; the others block on the slot and wake to the shared
//! result. Builders run with no shard lock held, so a builder may
//! recursively consult *other* caches (a reorder build fetching its
//! base graph, say) without lock-ordering concerns.
//!
//! Failed builds are not cached: the error returns to the thread that
//! built, waiters retry, and — when nobody is waiting — the abandoned
//! slot is removed from its shard map entirely, so a client iterating
//! erroring keys (`file:` specs for missing paths, say) cannot grow
//! the map without bound.
//!
//! # Memory governance
//!
//! A cache built with [`CacheConfig::budget_bytes`] set charges every
//! published value against the budget using its
//! [`CacheWeight`] and evicts the least-recently-used published
//! entries when the total exceeds it ([`EvictionPolicy::Lru`]).
//! Recency is a logical clock stamped on every hit and publish, never
//! a wall-clock reading, so the same request sequence evicts the same
//! entries on every run. Eviction composes with coalescing:
//!
//! * an in-flight `Building` slot is **never** evictable (only
//!   published values are candidates);
//! * eviction takes shard and slot locks only — a running builder
//!   holds neither, so eviction never blocks on (or deadlocks with) a
//!   build;
//! * evicting removes the shard-map entry but leaves the detached
//!   slot's value readable, so a thread that resolved the slot just
//!   before the eviction still completes with the shared `Arc`;
//! * a value larger than the whole budget still builds and is served
//!   to its requesters — it just doesn't stay resident.
//!
//! Hit/miss/eviction/resident-bytes counters are exposed as a
//! [`CacheStats`] snapshot via [`ShardedCache::stats`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use lgr_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use lgr_sync::{rank, Condvar, Mutex, MutexGuard, Rank, RwLock};

use crate::weight::CacheWeight;

/// Shard maps are the first locks in the workspace's global order.
const SHARD_RANK: Rank = rank(100, "engine.cache.shard");
/// Per-key slot mutexes nest strictly inside shard locks.
const SLOT_RANK: Rank = rank(200, "engine.cache.slot");

/// Default number of independently locked shards. A small power of
/// two keeps the memory overhead negligible while making same-instant
/// lookups and inserts of distinct keys contention-free in the common
/// case. The `cache` benchmark in `lgr-bench` measures 1/4/16/64
/// shards at 8 threads under both a skewed hit-dominated mix and a
/// distinct-key insert churn: on the single-core CI runner every
/// count is throughput-equivalent within noise (hits serialize on the
/// per-key slot lock, not the shard lock), so 16 is kept as the
/// zero-measured-cost choice that bounds writer contention on
/// multi-core hosts, and 64 showed no benefit that would justify the
/// extra lock tables.
pub const DEFAULT_SHARDS: usize = 16;

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

/// Construction-time knobs for a [`ShardedCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Byte budget for published values; `None` = unbounded (the
    /// historical behavior).
    pub budget_bytes: Option<u64>,
    /// Shard count (clamped to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            budget_bytes: None,
            shards: DEFAULT_SHARDS,
        }
    }
}

impl CacheConfig {
    /// An unbounded configuration (no budget, default shards).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A budgeted configuration with the default shard count.
    pub fn budgeted(bytes: u64) -> Self {
        CacheConfig {
            budget_bytes: Some(bytes),
            ..Self::default()
        }
    }

    /// This configuration with the given shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
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
    /// The published result plus its byte weight.
    Ready { value: Arc<V>, bytes: u64 },
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    /// Signalled when a build publishes or is abandoned.
    changed: Condvar,
    /// Threads currently blocked waiting for this slot's build. A
    /// failed build only removes the slot from its shard map when
    /// this is zero — a counted waiter is about to retry on this very
    /// slot and must still find it addressable.
    waiters: AtomicUsize,
    /// Logical timestamp of the last hit or publish, from the cache's
    /// shared clock (the LRU ordering).
    last_used: AtomicU64,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::ranked(SLOT_RANK, SlotState::Empty),
            changed: Condvar::with_label("engine.cache.slot.changed"),
            waiters: AtomicUsize::new(0),
            last_used: AtomicU64::new(0),
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

/// A concurrent map from `K` to `Arc<V>` with per-key build
/// coalescing and an optional byte budget.
///
/// # Example
///
/// ```
/// use lgr_engine::coalesce::ShardedCache;
///
/// let cache: ShardedCache<String, usize> = ShardedCache::new();
/// let v = cache.get_or_build(&"answer".to_owned(), || 42);
/// assert_eq!(*v, 42);
/// // A second request is a hit: the builder does not run again.
/// let w = cache.get_or_build(&"answer".to_owned(), || unreachable!());
/// assert!(std::sync::Arc::ptr_eq(&v, &w));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct ShardedCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    cfg: CacheConfig,
    /// Monotone logical clock stamped onto slots on hit/publish.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Bytes of published values currently reachable through the
    /// shard maps (detached slots are not counted).
    resident: AtomicU64,
}

/// One independently locked map shard. The hasher is the fixed-seed
/// [`DefaultHasher`] (not std's per-map `RandomState`): map iteration
/// order in [`ShardedCache::pick_victim`] must be a pure function of
/// the operation history so model-checked executions replay
/// deterministically.
type Shard<K, V> = RwLock<ShardMap<K, V>>;
type ShardMap<K, V> = HashMap<K, Arc<Slot<V>>, BuildHasherDefault<DefaultHasher>>;

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<K, V> Default for ShardedCache<K, V>
where
    K: Eq + Hash + Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

/// Lock-ordering contract (deadlock freedom): a thread holding a
/// *slot* mutex never acquires a *shard* lock. Shard → slot is the
/// only permitted nesting, and builders run holding neither.
impl<K, V> ShardedCache<K, V>
where
    K: Eq + Hash + Clone,
{
    /// An unbounded cache with the default shard count.
    pub fn new() -> Self {
        Self::with_config(CacheConfig::default())
    }

    /// A cache with explicit budget and shard configuration.
    pub fn with_config(cfg: CacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| RwLock::ranked(SHARD_RANK, ShardMap::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            cfg,
            clock: AtomicU64::new(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// A snapshot of the cache's counters. `entries` and
    /// `resident_bytes` are instantaneous; the rest are cumulative.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ordering: Relaxed — monotone counters read for a
            // statistical snapshot; no other memory is published
            // through them, so cross-counter skew is acceptable.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: Relaxed — see `hits` above.
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: Relaxed — see `hits` above.
            evictions: self.evictions.load(Ordering::Relaxed),
            // ordering: Relaxed — a snapshot read; writers use SeqCst
            // for their own add/sub pairing, but an observer needs no
            // ordering against the maps it doesn't read.
            resident_bytes: self.resident.load(Ordering::Relaxed),
            entries: self.len(),
            budget_bytes: self.cfg.budget_bytes,
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[self.shard_index(key)]
    }

    fn tick(&self) -> u64 {
        // ordering: Relaxed — the clock only needs per-instance
        // uniqueness/monotonicity, which fetch_add gives at any
        // ordering; recency stamps are heuristic inputs, not
        // synchronization.
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The key's slot, inserting an empty one under the shard's write
    /// lock if needed. Most calls take only the read lock.
    fn slot(&self, key: &K) -> Arc<Slot<V>> {
        let shard = self.shard(key);
        // The read guard is a temporary in the `if let` scrutinee, so
        // it is dropped before the `write()` below — no read→write
        // self-deadlock, and no same-rank reacquire for the auditor.
        if let Some(s) = shard.read().get(key) {
            return Arc::clone(s);
        }
        Arc::clone(
            shard
                .write()
                .entry(key.clone())
                .or_insert_with(|| Arc::new(Slot::new())),
        )
    }

    /// The cached value, if already published. Refreshes the entry's
    /// recency but moves no hit/miss counter (peeks are not
    /// requests).
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let shard = self.shard(key);
        let guard = shard.read();
        let slot = guard.get(key)?;
        let value = match &*slot.lock() {
            SlotState::Ready { value, .. } => {
                // ordering: Relaxed — a heuristic recency stamp read
                // only by the (lock-holding) victim scan.
                slot.last_used.store(self.tick(), Ordering::Relaxed);
                Some(Arc::clone(value))
            }
            _ => None,
        };
        value
    }

    /// Number of published entries (in-flight builds don't count).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|slot| matches!(&*slot.lock(), SlotState::Ready { .. }))
                    .count()
            })
            .sum()
    }

    /// `true` if no entry has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot-map entries, *including* empty and in-flight slots —
    /// the leak-detection companion to [`ShardedCache::len`]: after a
    /// failed build with no waiters the abandoned slot must not remain
    /// here.
    pub fn tracked_slots(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// The value for `key`, running `build` at most once per key no
    /// matter how many threads ask concurrently: the first caller
    /// builds (with no lock held beyond the key's in-flight marker),
    /// the rest block until the result is published and then share it.
    ///
    /// `build` must not re-enter the cache under the *same* key (that
    /// would self-deadlock); consulting other keys or other caches is
    /// fine.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> Arc<V>
    where
        V: CacheWeight,
    {
        match self.get_or_try_build(key, || Ok::<V, std::convert::Infallible>(build())) {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Fallible [`ShardedCache::get_or_build`]: a builder error is
    /// returned to the building caller and **not** cached — waiting
    /// threads wake and one of them retries the build, and a slot
    /// abandoned with no waiters is removed from its shard map.
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
                match &*state {
                    SlotState::Ready { value, .. } => {
                        // ordering: Relaxed — heuristic recency stamp.
                        slot.last_used.store(self.tick(), Ordering::Relaxed);
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
        // No shard or slot lock is held here (both guards dropped
        // above): the builder runs unlocked.
        match build() {
            Ok(v) => {
                let v = Arc::new(v);
                let bytes = v.weight_bytes() as u64;
                guard.armed = false;
                self.publish(key, &slot, Arc::clone(&v), bytes);
                self.enforce_budget();
                Ok(v)
            }
            Err(e) => Err(e), // guard drops: Empty + notify (+ removal)
        }
    }

    /// Publishes a built value into its slot and charges the budget.
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
        let shard = self.shard(key);
        let mut map = shard.write();
        let accounted = match map.get(key) {
            Some(s) if Arc::ptr_eq(s, slot) => true,
            Some(_) => false,
            None => {
                map.insert(key.clone(), Arc::clone(slot));
                true
            }
        };
        // ordering: Relaxed — heuristic recency stamp.
        slot.last_used.store(self.tick(), Ordering::Relaxed);
        *slot.lock() = SlotState::Ready {
            value,
            bytes: if accounted { bytes } else { 0 },
        };
        slot.changed.notify_all();
        if accounted {
            // Charge while still holding the shard write lock: an
            // evictor needs that lock to remove this entry, so it
            // cannot subtract the bytes before they were added (which
            // would transiently underflow the unsigned counter).
            // ordering: SeqCst — pairs with the lock-free budget check
            // in enforce_budget's loop condition; the strongest
            // ordering keeps the add totally ordered with every
            // racing evictor's load and fetch_sub.
            self.resident.fetch_add(bytes, Ordering::SeqCst);
        }
        drop(map);
    }

    /// Evicts published entries until resident bytes fit the budget
    /// (no-op for unbounded caches). Victims are the least recently
    /// used *published, in-map* entries; a `Building` slot is never a
    /// candidate, and since builders hold no lock while building, this
    /// never contends with a build.
    fn enforce_budget(&self) {
        let Some(budget) = self.cfg.budget_bytes else {
            return;
        };
        // ordering: SeqCst — this lock-free check races publishers'
        // fetch_add and other evictors' fetch_sub; total ordering
        // guarantees an over-budget add is visible to some evictor.
        while self.resident.load(Ordering::SeqCst) > budget {
            let Some((shard_idx, key)) = self.pick_victim() else {
                // Nothing evictable (everything in flight, or racing
                // evictors emptied the cache): stop rather than spin.
                return;
            };
            let shard = &self.shards[shard_idx];
            let mut map = shard.write();
            // Re-validate under the write lock: the entry may have
            // been evicted by a racing thread since we picked it.
            let Some(slot) = map.get(&key) else { continue };
            let bytes = match &*slot.lock() {
                SlotState::Ready { bytes, .. } => *bytes,
                // In-flight again (evicted + re-requested): skip.
                _ => continue,
            };
            map.remove(&key);
            drop(map);
            // The detached slot stays `Ready`, so a thread that
            // resolved it just before the removal still completes;
            // the value's memory is freed when the last Arc drops.
            // ordering: SeqCst — pairs with publish's fetch_add; the
            // entry was removed under the shard write lock after its
            // bytes were charged, so this sub never underflows.
            self.resident.fetch_sub(bytes, Ordering::SeqCst);
            // ordering: Relaxed — statistics counter only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The least-recently-used victim: `(shard, key)` of the
    /// published entry with the smallest `last_used` tick.
    fn pick_victim(&self) -> Option<(usize, K)> {
        let mut best: Option<(u64, usize, K)> = None;
        for (idx, shard) in self.shards.iter().enumerate() {
            let map = shard.read();
            for (key, slot) in map.iter() {
                if !matches!(&*slot.lock(), SlotState::Ready { .. }) {
                    continue;
                }
                // ordering: Relaxed — heuristic recency stamp; a
                // slightly stale tick only shifts the victim choice.
                let tick = slot.last_used.load(Ordering::Relaxed);
                if best.as_ref().is_none_or(|(t, _, _)| tick < *t) {
                    best = Some((tick, idx, key.clone()));
                }
            }
        }
        best.map(|(_, idx, key)| (idx, key))
    }
}

/// Rolls a slot from `Building` back to `Empty` (waking waiters so
/// one of them retries) unless the build published — keeps a panicking
/// builder from wedging every waiter forever — and, when no waiter is
/// counted, removes the abandoned slot from its shard map so repeated
/// failures (a missing `file:` path requested over and over with
/// distinct specs) cannot grow the map without bound.
struct AbandonGuard<'a, K, V>
where
    K: Eq + Hash + Clone,
{
    cache: &'a ShardedCache<K, V>,
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
        // Shard lock before slot lock (the global ordering). Holding
        // the shard write lock across the rollback keeps a new waiter
        // from resolving the map entry between the state reset and
        // the removal decision.
        let shard = self.cache.shard(self.key);
        let mut map = shard.write();
        *self.slot.lock() = SlotState::Empty;
        self.slot.changed.notify_all();
        // ordering: Relaxed — `waiters` is only mutated under the slot
        // mutex, which this thread just released inside the shard
        // write section; a waiter that could still increment it must
        // first reacquire the slot mutex, ordered after our store.
        if self.slot.waiters.load(Ordering::Relaxed) == 0 {
            if let Some(s) = map.get(self.key) {
                if Arc::ptr_eq(s, self.slot) {
                    map.remove(self.key);
                }
            }
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
        let cache: ShardedCache<u32, String> = ShardedCache::new();
        assert!(cache.get(&7).is_none());
        assert!(cache.is_empty());
        let a = cache.get_or_build(&7, || "seven".to_owned());
        let b = cache.get_or_build(&7, || panic!("must not rebuild"));
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
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
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
                        let v = cache.get_or_build(&key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the build window so waiters pile up.
                            std::thread::sleep(Duration::from_millis(10));
                            key * 100
                        });
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
        let cache: ShardedCache<u8, u8> = ShardedCache::new();
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
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
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
        assert_eq!(*cache.get_or_build(&17, || 99), 99);
        assert_eq!(cache.tracked_slots(), 1);
    }

    #[test]
    fn a_panicking_builder_does_not_wedge_the_slot() {
        let cache: ShardedCache<u8, u8> = ShardedCache::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&3, || panic!("builder exploded"));
        }));
        assert!(r.is_err());
        // The slot was rolled back (and the map entry removed); a
        // later build succeeds.
        assert_eq!(cache.tracked_slots(), 0);
        assert_eq!(*cache.get_or_build(&3, || 5), 5);
    }

    #[test]
    fn distinct_keys_build_independently() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new();
        for k in 0..100u64 {
            assert_eq!(*cache.get_or_build(&k, || k * k), k * k);
        }
        assert_eq!(cache.len(), 100);
    }

    #[test]
    fn budget_bounds_resident_bytes_and_counts_evictions() {
        // Values weigh exactly their Vec buffer + header; budget holds
        // roughly 4 of the 16 values.
        let value_bytes = std::mem::size_of::<Vec<u8>>() + 1024;
        let budget = (4 * value_bytes) as u64;
        let cache: ShardedCache<u32, Vec<u8>> =
            ShardedCache::with_config(CacheConfig::budgeted(budget));
        for k in 0..16u32 {
            let v = cache.get_or_build(&k, || vec![k as u8; 1024]);
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
        let rebuilt = cache.get_or_build(&0, || vec![0u8; 1024]);
        assert_eq!(rebuilt.len(), 1024);
    }

    #[test]
    fn an_entry_larger_than_the_budget_is_served_but_not_retained() {
        let cache: ShardedCache<u8, Vec<u8>> = ShardedCache::with_config(CacheConfig::budgeted(64));
        let v = cache.get_or_build(&1, || vec![7u8; 4096]);
        assert_eq!(v.len(), 4096, "oversized values still build and serve");
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let value_bytes = (std::mem::size_of::<Vec<u8>>() + 512) as u64;
        let cache: ShardedCache<u8, Vec<u8>> =
            ShardedCache::with_config(CacheConfig::budgeted(3 * value_bytes));
        for k in 0..3u8 {
            cache.get_or_build(&k, || vec![k; 512]);
        }
        // Touch 0 and 1; inserting 3 must evict 2.
        cache.get_or_build(&0, || unreachable!());
        cache.get_or_build(&1, || unreachable!());
        cache.get_or_build(&3, || vec![3; 512]);
        assert!(cache.get(&2).is_none(), "coldest entry evicted");
        assert!(cache.get(&0).is_some() && cache.get(&1).is_some() && cache.get(&3).is_some());
    }

    #[test]
    fn building_slots_are_never_evicted() {
        // A tiny budget and a slow build racing cheap inserts: the
        // in-flight slot must survive to publish, and its waiters all
        // get the value.
        let cache: Arc<ShardedCache<u32, Vec<u8>>> =
            Arc::new(ShardedCache::with_config(CacheConfig::budgeted(2048)));
        let barrier = Arc::new(Barrier::new(2));
        let slow = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                cache.get_or_build(&1000, || {
                    std::thread::sleep(Duration::from_millis(60));
                    vec![9u8; 512]
                })
            })
        };
        barrier.wait();
        // Hammer the budget while the slow build is in flight.
        for k in 0..64u32 {
            cache.get_or_build(&k, || vec![k as u8; 256]);
        }
        let v = slow.join().unwrap();
        assert_eq!(*v, vec![9u8; 512]);
    }
}
