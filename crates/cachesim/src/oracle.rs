//! Test-only reference model for [`SetAssocCache`]: the LRU
//! stack-distance property of Mattson et al. (IBM Systems Journal,
//! 1970), computed from the access history alone.
//!
//! The model keeps no cache state — no lines, no recency order, no
//! dirty bits. Every answer is derived by walking back through the
//! accesses made so far to the same set:
//!
//! * an access hits when its block was seen before and fewer than
//!   `ways` distinct blocks of the same set were touched since;
//! * a miss into a full set evicts the least recently used of the
//!   set's `ways` most recent distinct blocks;
//! * the victim is dirty when that block was written since its last
//!   fill (its most recent miss).
//!
//! The differential proptests below drive the model and
//! [`SetAssocCache::access_block`] with the same random traces and
//! require identical hit/miss sequences, victims and dirty flags.

use crate::cache::{AccessResult, SetAssocCache};

/// One past access to a set, as the model answered it.
#[derive(Debug, Clone, Copy)]
struct Past {
    block: u64,
    write: bool,
    hit: bool,
}

/// Stack-distance LRU model over per-set access histories.
#[derive(Debug)]
pub(crate) struct ReuseOracle {
    ways: usize,
    history: Vec<Vec<Past>>,
}

impl ReuseOracle {
    pub(crate) fn new(num_sets: usize, ways: usize) -> Self {
        ReuseOracle {
            ways,
            history: vec![Vec::new(); num_sets],
        }
    }

    /// Answers an access to `block`, which the geometry maps to `set`.
    pub(crate) fn access(&mut self, set: usize, block: u64, write: bool) -> AccessResult {
        let past = &self.history[set];
        // Distinct blocks touched since the last access to `block`,
        // most recent first, stopping once `ways` have been seen.
        let mut since: Vec<u64> = Vec::new();
        let mut hit = false;
        for p in past.iter().rev() {
            if p.block == block {
                hit = true;
                break;
            }
            if !since.contains(&p.block) {
                since.push(p.block);
                if since.len() == self.ways {
                    break;
                }
            }
        }
        // On a miss, `since` holds the set's most recent distinct
        // blocks; when there are `ways` of them the set is full and
        // the oldest one goes.
        let evicted = (!hit && since.len() == self.ways).then(|| {
            let victim = since[self.ways - 1];
            let mut dirty = false;
            for p in past.iter().rev().filter(|p| p.block == victim) {
                dirty |= p.write;
                if !p.hit {
                    break;
                }
            }
            (victim, dirty)
        });
        self.history[set].push(Past { block, write, hit });
        AccessResult { hit, evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BLOCK_BYTES;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Replays `trace` through a `sets × ways` cache and the model,
    /// failing at the first access where they disagree.
    fn agree(sets: usize, ways: usize, trace: &[(u64, bool)]) -> Result<(), TestCaseError> {
        let mut cache = SetAssocCache::new(sets * ways * BLOCK_BYTES as usize, ways);
        let mut oracle = ReuseOracle::new(sets, ways);
        for (i, &(block, write)) in trace.iter().enumerate() {
            let want = oracle.access(cache.set_index(block), block, write);
            let got = cache.access_block(block, write);
            prop_assert_eq!(got, want, "access {} (block {}, write {})", i, block, write);
        }
        Ok(())
    }

    /// Random traces over a block universe a few times the cache's
    /// capacity, offset by a large base so the hashed set index sees
    /// high address bits. About one access in four is a write.
    fn trace(sets: usize, ways: usize, max_len: usize) -> impl Strategy<Value = Vec<(u64, bool)>> {
        let capacity = (sets * ways) as u64;
        (0u64..1 << 40, capacity + 1..4 * capacity + 2).prop_flat_map(move |(base, universe)| {
            vec((0..universe, 0u32..4), 0..max_len).prop_map(move |raw| {
                raw.into_iter()
                    .map(|(offset, w)| (base + offset, w == 0))
                    .collect()
            })
        })
    }

    proptest! {
        #[test]
        fn one_set_two_ways_matches_the_stack_distance_model(t in trace(1, 2, 200)) {
            agree(1, 2, &t)?;
        }

        #[test]
        fn four_sets_eight_ways_match_the_stack_distance_model(t in trace(4, 8, 800)) {
            agree(4, 8, &t)?;
        }

        #[test]
        fn sixty_four_sets_sixteen_ways_match_the_stack_distance_model(t in trace(64, 16, 4000)) {
            agree(64, 16, &t)?;
        }
    }

    #[test]
    fn model_follows_the_textbook_example() {
        // 1 set × 2 ways: a b a c -> c evicts b (a was reused).
        let mut m = ReuseOracle::new(1, 2);
        assert!(!m.access(0, 1, true).hit);
        assert!(!m.access(0, 2, false).hit);
        assert!(m.access(0, 1, false).hit);
        let r = m.access(0, 3, false);
        assert_eq!(r.evicted, Some((2, false)));
        // a is still dirty from its first (filling) write.
        let r = m.access(0, 2, false);
        assert_eq!(r.evicted, Some((1, true)));
        // a refilled clean: its old write no longer counts.
        assert!(!m.access(0, 1, false).hit);
        assert_eq!(m.access(0, 4, false).evicted, Some((2, false)));
        assert_eq!(m.access(0, 5, false).evicted, Some((1, false)));
    }
}
