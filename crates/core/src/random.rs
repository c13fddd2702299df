//! Random reordering probes (paper Sec. III-B, Fig. 3).
//!
//! These are not optimizations: they deliberately destroy structure to
//! *quantify* how much performance the original vertex ordering was
//! providing. [`RandomVertex`] scatters individual vertices (destroying
//! both structure and hot-vertex packing); [`RandomCacheBlock`]
//! scatters whole cache blocks (destroying structure while keeping
//! each block's contents, and thus the hot-vertex footprint, intact).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lgr_graph::{Csr, DegreeKind, Permutation, VertexId, CACHE_BLOCK_BYTES};
use lgr_parallel::Pool;

use crate::technique::ReorderingTechnique;

/// Random reordering at single-vertex granularity (RV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomVertex {
    seed: u64,
}

impl RandomVertex {
    /// Creates the RV probe with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomVertex { seed }
    }
}

impl ReorderingTechnique for RandomVertex {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ids: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        ids.shuffle(&mut rng);
        Permutation::from_new_ids(ids).expect("shuffle is a bijection")
    }
}

/// Random reordering at a granularity of `n` cache blocks (RCB-n).
///
/// Consecutive runs of `n * (64 / bytes_per_vertex)` vertices move as a
/// unit, so the footprint of hot vertices is unchanged while long-range
/// ordering structure is destroyed. Increasing `n` preserves
/// progressively more structure (paper Fig. 3: RCB-4 hurts less than
/// RCB-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomCacheBlock {
    blocks: usize,
    bytes_per_vertex: usize,
    seed: u64,
}

impl RandomCacheBlock {
    /// RCB-n with the paper's 8-byte properties (8 vertices per block).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is 0.
    pub fn new(blocks: usize, seed: u64) -> Self {
        assert!(blocks >= 1);
        RandomCacheBlock {
            blocks,
            bytes_per_vertex: 8,
            seed,
        }
    }

    /// Overrides the assumed per-vertex property size.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bytes <= 64`.
    pub fn with_bytes_per_vertex(mut self, bytes: usize) -> Self {
        assert!((1..=CACHE_BLOCK_BYTES).contains(&bytes));
        self.bytes_per_vertex = bytes;
        self
    }

    /// Vertices moved as one unit.
    pub fn granularity(&self) -> usize {
        self.blocks * (CACHE_BLOCK_BYTES / self.bytes_per_vertex)
    }
}

impl ReorderingTechnique for RandomCacheBlock {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        let n = graph.num_vertices();
        let g = self.granularity();
        let num_chunks = n.div_ceil(g.max(1));
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut chunk_order: Vec<usize> = (0..num_chunks).collect();
        chunk_order.shuffle(&mut rng);
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        for &c in &chunk_order {
            let start = c * g;
            let end = ((c + 1) * g).min(n);
            order.extend(start as VertexId..end as VertexId);
        }
        Permutation::from_order(&order).expect("chunk shuffle is a bijection")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    fn chain(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n - 1 {
            el.push(i as VertexId, i as VertexId + 1);
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn rv_is_seeded_and_not_identity() {
        let g = chain(128);
        let a = RandomVertex::new(1).reorder(&g, DegreeKind::Out);
        let b = RandomVertex::new(1).reorder(&g, DegreeKind::Out);
        let c = RandomVertex::new(2).reorder(&g, DegreeKind::Out);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_identity());
    }

    #[test]
    fn rcb_preserves_blocks() {
        let g = chain(64);
        let p = RandomCacheBlock::new(1, 3).reorder(&g, DegreeKind::Out);
        // Within every 8-vertex block, consecutive original vertices
        // stay consecutive in the new layout.
        let layout = p.inverse();
        for block in layout.chunks(8) {
            for w in block.windows(2) {
                assert_eq!(w[1], w[0] + 1, "block interior reordered: {block:?}");
            }
            assert_eq!(block[0] % 8, 0, "block start misaligned: {block:?}");
        }
    }

    #[test]
    fn rcb_granularity_scales_with_blocks_and_bytes() {
        assert_eq!(RandomCacheBlock::new(1, 0).granularity(), 8);
        assert_eq!(RandomCacheBlock::new(2, 0).granularity(), 16);
        assert_eq!(RandomCacheBlock::new(4, 0).granularity(), 32);
        assert_eq!(
            RandomCacheBlock::new(1, 0)
                .with_bytes_per_vertex(16)
                .granularity(),
            4
        );
    }

    #[test]
    fn rcb_handles_ragged_tail() {
        // 13 vertices with granularity 8: one full chunk + 5-vertex tail.
        let g = chain(13);
        let p = RandomCacheBlock::new(1, 9).reorder(&g, DegreeKind::Out);
        assert_eq!(p.len(), 13);
    }

    #[test]
    fn names() {
        // A technique's `Debug` form is its name in test messages: it
        // spells out the parameters that tell two probes apart.
        assert_eq!(
            format!("{:?}", RandomVertex::new(0)),
            "RandomVertex { seed: 0 }"
        );
        assert_eq!(
            format!("{:?}", RandomCacheBlock::new(2, 0)),
            "RandomCacheBlock { blocks: 2, bytes_per_vertex: 8, seed: 0 }"
        );
    }
}
