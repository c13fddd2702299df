//! An LRU set-associative cache over 64-byte blocks.
//!
//! # Set layout
//!
//! Each set is one contiguous run of `ways` packed words,
//! `block << 1 | dirty`, kept in recency order: the most recently
//! used block first, the least recently used last, and empty ways at
//! the tail. The order is the whole LRU state, so there are no
//! timestamps to keep:
//!
//! * a hit moves its word to the front;
//! * a miss shifts the set down one way and writes the front, so in a
//!   full set the LRU victim is the word that falls off the end (a
//!   fill of an absent block does the same; of a resident one, it only
//!   merges the dirty bit);
//! * an invalidate closes the gap, keeping the empty ways at the tail.
//!
//! Which physical way holds a block is never observable: every method
//! answers exactly as a timestamp-ordered LRU cache does.
//!
//! # Set partitions
//!
//! A block's set is the top `k` bits of one fixed hash of its number,
//! for a cache of `2^k` sets (`partition(block, 2^k)`). A coarser cut
//! of the same hash, `partition(block, 2^m)` with `m <= k`, is
//! therefore a prefix of the set index: every set lies wholly inside
//! one partition, at every level. [`crate::MemorySim::partial`] relies
//! on this nesting to simulate partitions independently, so any change
//! to set indexing must keep it: every level's set index must refine
//! the partitions `partition` defines.

use crate::BLOCK_BYTES;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Block evicted to make room, with its dirty flag (only on miss
    /// insertion into a full set).
    pub evicted: Option<(u64, bool)>,
}

/// An empty way. It never matches a block: block numbers stay below
/// `u64::MAX >> 1` (byte addresses divided by 64 are far below).
const EMPTY: u64 = u64::MAX;

/// The dirty bit of a packed word.
const DIRTY: u64 = 1;

/// Way of `block` in `set`, if present.
fn way_of(set: &[u64], block: u64) -> Option<usize> {
    set.iter().position(|&w| w >> 1 == block)
}

/// The block and dirty flag of a word pushed off the end of a set,
/// unless it was an empty way.
fn evicted(word: u64) -> Option<(u64, bool)> {
    (word != EMPTY).then_some((word >> 1, word & DIRTY != 0))
}

/// Which of `parts` equal parts of the hash space `block` falls in,
/// for a power-of-two `parts`: the top `log2(parts)` bits of the
/// block's hash, 0 when `parts` is 1. A cache's set index is this
/// function with `parts` = its set count (see the module docs).
pub(crate) fn partition(block: u64, parts: usize) -> usize {
    // Hashed set indexing (Fibonacci multiplicative hash) rather than
    // low-order bits. This models what a real machine does to regular
    // address patterns: virtual-to-physical translation scatters
    // page-granularity bits, and Intel LLCs hash the set index
    // outright. Without it, synthetic graphs whose hot vertices sit at
    // structured IDs (e.g. R-MAT's low-popcount hubs) collide into a
    // handful of sets and the simulator reports conflict pathologies no
    // real run would see.
    //
    // With `parts = 2^k` the high half of the 128-bit product is the
    // hash's top `k` bits.
    let hashed = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(hashed) * parts as u128) >> 64) as usize
}

/// An LRU set-associative cache. Stores block addresses only (trace
/// simulation needs no data).
///
/// Every method panics on a block number of `u64::MAX >> 1` or more,
/// which does not fit a packed word (no byte address divides down to
/// one).
///
/// # Example
///
/// ```
/// use lgr_cachesim::cache::SetAssocCache;
///
/// let mut c = SetAssocCache::new(4096, 4); // 4 KiB, 4-way
/// assert!(!c.access(0x40, false).hit);
/// assert!(c.access(0x40, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// `num_sets` recency-ordered runs of `ways` packed words.
    words: Vec<u64>,
    ways: usize,
    num_sets: usize,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways` lines per set.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * 64`, or if the resulting set count is not a power of
    /// two.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways >= 1, "need at least one way");
        let block = BLOCK_BYTES as usize;
        assert!(
            capacity_bytes >= ways * block && capacity_bytes.is_multiple_of(ways * block),
            "capacity {capacity_bytes} not a multiple of {} (ways * block)",
            ways * block
        );
        let num_sets = capacity_bytes / (ways * block);
        assert!(
            num_sets.is_power_of_two(),
            "set count {num_sets} must be a power of two"
        );
        SetAssocCache {
            words: vec![EMPTY; num_sets * ways],
            ways,
            num_sets,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.words.len() * BLOCK_BYTES as usize
    }

    /// Set that `block` maps to: its partition among `num_sets` parts.
    pub(crate) fn set_index(&self, block: u64) -> usize {
        partition(block, self.num_sets)
    }

    /// Index of the first way of `block`'s set.
    fn set_start(&self, block: u64) -> usize {
        assert!(
            block < EMPTY >> 1,
            "block {block} does not fit a packed word"
        );
        self.set_index(block) * self.ways
    }

    fn set(&self, block: u64) -> &[u64] {
        let start = self.set_start(block);
        &self.words[start..start + self.ways]
    }

    fn set_mut(&mut self, block: u64) -> &mut [u64] {
        let start = self.set_start(block);
        &mut self.words[start..start + self.ways]
    }

    /// Accesses the block containing byte address `addr`, allocating on
    /// miss. `write` marks the block dirty on hit or fill.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        let block = addr / BLOCK_BYTES;
        self.access_block(block, write)
    }

    /// Accesses a pre-shifted block address.
    pub fn access_block(&mut self, block: u64, write: bool) -> AccessResult {
        let set = self.set_mut(block);
        // One pass: shift each word down a way until the block turns
        // up (a hit); the front takes the accessed block. A miss shifts
        // the whole set and carries out its last word: the LRU victim,
        // or an empty way while the set has room.
        let mut carry = block << 1 | u64::from(write);
        for i in 0..set.len() {
            let word = std::mem::replace(&mut set[i], carry);
            if word >> 1 == block {
                set[0] |= word & DIRTY;
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }
            carry = word;
        }
        AccessResult {
            hit: false,
            evicted: evicted(carry),
        }
    }

    /// `true` if block number `block` is present (no LRU update).
    pub fn contains_block(&self, block: u64) -> bool {
        // Compares every way instead of stopping at the first match:
        // the branch-free scan is cheaper than an early exit whose
        // position the CPU cannot predict.
        self.set(block)
            .iter()
            .fold(false, |found, &w| found | (w >> 1 == block))
    }

    /// Removes a block if present, returning whether it was dirty.
    pub fn invalidate_block(&mut self, block: u64) -> Option<bool> {
        let set = self.set_mut(block);
        let way = way_of(set, block)?;
        let dirty = set[way] & DIRTY != 0;
        set.copy_within(way + 1.., way);
        set[set.len() - 1] = EMPTY;
        Some(dirty)
    }

    /// Inserts a block without counting an access (used for fills from
    /// write-backs), returning any eviction. A block already present
    /// only merges the dirty flag and keeps its recency.
    pub fn fill_block(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
        let set = self.set_mut(block);
        if let Some(way) = way_of(set, block) {
            set[way] |= u64::from(dirty);
            return None;
        }
        let mut carry = block << 1 | u64::from(dirty);
        for slot in set.iter_mut() {
            carry = std::mem::replace(slot, carry);
        }
        evicted(carry)
    }

    /// Number of valid blocks currently resident.
    pub fn occupancy(&self) -> usize {
        self.words.iter().filter(|&&w| w != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c = SetAssocCache::new(4096, 4);
        assert!(!c.access(0, false).hit);
        assert!(c.access(8, false).hit, "same 64B block");
        assert!(!c.access(64, false).hit, "next block");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = SetAssocCache::new(3 * 64 * 4, 4);
    }

    /// First `count` block addresses that map to the same set as block
    /// `0` (set indexing is hashed, so collisions are found by probing).
    fn colliding_blocks(c: &SetAssocCache, count: usize) -> Vec<u64> {
        let target = c.set_index(0);
        let mut out = vec![0u64];
        let mut b = 1u64;
        while out.len() < count {
            if c.set_index(b) == target {
                out.push(b);
            }
            b += 1;
        }
        out
    }

    #[test]
    fn set_indices_nest_inside_coarser_partitions() {
        // L1, L2 and LLC of the default machine (8, 32 and 128 sets)
        // plus a single-set cache: a block's set in a finer cache
        // determines its set (or partition) in every coarser one.
        let caches = [1, 8, 32, 128].map(|sets| SetAssocCache::new(sets * 64, 1));
        for block in (0..4096).chain((0..64).map(|i| (1u64 << 40) + i * 977)) {
            for fine in &caches {
                let set = fine.set_index(block);
                assert!(set < fine.num_sets);
                for coarse in caches.iter().filter(|c| c.num_sets <= fine.num_sets) {
                    let ratio = fine.num_sets / coarse.num_sets;
                    assert_eq!(coarse.set_index(block), set / ratio, "block {block}");
                    assert_eq!(partition(block, coarse.num_sets), set / ratio);
                }
            }
        }
        // Pinned values: changing the hash moves every simulated count.
        assert_eq!(
            [1u64, 2, 3, 1 << 40].map(|b| caches[3].set_index(b)),
            [79, 30, 109, 37]
        );
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Tiny cache: 2 sets x 2 ways; pick three same-set blocks.
        let mut c = SetAssocCache::new(2 * 2 * 64, 2);
        let blocks = colliding_blocks(&c, 3);
        let (b0, b1, b2) = (blocks[0], blocks[1], blocks[2]);
        c.access_block(b0, false);
        c.access_block(b1, false);
        c.access_block(b0, false); // b0 more recent than b1
        let r = c.access_block(b2, false);
        assert_eq!(r.evicted, Some((b1, false)), "LRU ({b1}) evicted");
        assert!(c.contains_block(b0));
        assert!(!c.contains_block(b1));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = SetAssocCache::new(2 * 64, 1); // 2 sets x 1 way
        let blocks = colliding_blocks(&c, 2);
        c.access_block(blocks[0], true); // dirty
        let r = c.access_block(blocks[1], false); // same set, evicts
        assert_eq!(r.evicted, Some((blocks[0], true)));
    }

    #[test]
    fn write_on_hit_sets_dirty() {
        let mut c = SetAssocCache::new(2 * 64, 1);
        let blocks = colliding_blocks(&c, 2);
        c.access_block(blocks[0], false);
        c.access_block(blocks[0], true); // now dirty
        let r = c.access_block(blocks[1], false);
        assert_eq!(r.evicted, Some((blocks[0], true)));
    }

    #[test]
    fn single_set_cache_works() {
        let mut c = SetAssocCache::new(2 * 64, 2); // 1 set x 2 ways
        assert!(!c.access_block(0, false).hit);
        assert!(!c.access_block(1, false).hit);
        assert!(c.access_block(0, false).hit);
        let r = c.access_block(2, false);
        assert_eq!(r.evicted, Some((1, false)));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = SetAssocCache::new(4096, 4);
        c.access_block(5, true);
        assert_eq!(c.invalidate_block(5), Some(true));
        assert_eq!(c.invalidate_block(5), None);
        assert!(!c.contains_block(5));
    }

    #[test]
    fn fill_merges_dirtiness() {
        let mut c = SetAssocCache::new(4096, 4);
        c.access_block(9, false);
        assert!(c.fill_block(9, true).is_none());
        assert_eq!(c.invalidate_block(9), Some(true));
    }

    #[test]
    fn invalidate_and_fill_keep_recency_order() {
        let mut c = SetAssocCache::new(3 * 64, 3); // 1 set x 3 ways
        for b in [1, 2, 3] {
            c.access_block(b, false);
        }
        // Closing the gap left by 2 keeps 1 least recent.
        assert_eq!(c.invalidate_block(2), Some(false));
        assert_eq!(c.access_block(4, false).evicted, None, "a way was free");
        assert_eq!(c.access_block(5, false).evicted, Some((1, false)));
        // A fill of a resident block merges dirtiness without making
        // it more recent: 3 is still the LRU victim.
        assert_eq!(c.fill_block(3, true), None);
        assert_eq!(c.fill_block(6, false), Some((3, true)));
        assert_eq!(c.occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit a packed word")]
    fn rejects_blocks_beyond_the_packed_range() {
        let mut c = SetAssocCache::new(4096, 4);
        c.access_block(u64::MAX >> 1, false);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = SetAssocCache::new(8 * 64, 2); // 8 blocks
        for b in 0..100 {
            c.access_block(b, false);
        }
        assert!(c.occupancy() <= 8);
    }

    #[test]
    fn capacity_reported() {
        let c = SetAssocCache::new(4096, 4);
        assert_eq!(c.capacity_bytes(), 4096);
    }
}
