//! Byte-accounting for cached values.
//!
//! Every value a [`CoalescingCache`](crate::coalesce::CoalescingCache) can
//! hold reports its resident size through [`CacheWeight`], so a
//! budgeted cache can charge each entry against its byte budget and
//! know exactly how much it frees by evicting one. Weights are
//! *estimates of heap residency* (struct size plus owned heap
//! allocations), not allocator-exact numbers — the point is that a
//! 2^20-vertex CSR weighs ~megabytes and a `Duration` weighs ~nothing,
//! so eviction pressure lands where the memory actually is.

use std::time::Duration;

use lgr_core::TimedReorder;
use lgr_graph::{AdjacencyView, Csr};

use crate::session::RunStats;

/// The estimated resident bytes of a cacheable value.
///
/// Implementations should count the value itself
/// (`std::mem::size_of::<Self>()`) plus every heap allocation it
/// owns. Exactness is not required; consistency is — the same value
/// must report the same weight when inserted and when evicted, which
/// every implementation here guarantees by deriving the weight from
/// immutable structure (lengths, flags) rather than ambient state.
pub trait CacheWeight {
    /// Estimated resident size in bytes.
    fn weight_bytes(&self) -> usize;
}

/// Fixed-size values weigh exactly their `size_of`.
macro_rules! impl_weight_by_size {
    ($($t:ty),* $(,)?) => {
        $(impl CacheWeight for $t {
            fn weight_bytes(&self) -> usize {
                std::mem::size_of::<Self>()
            }
        })*
    };
}

impl_weight_by_size!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, Duration
);

impl CacheWeight for String {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity()
    }
}

/// Shallow: counts the vector's own buffer, not heap owned by the
/// elements — exact for the `Copy` element types the session caches
/// (`VertexId` root vectors).
impl<T> CacheWeight for Vec<T> {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.capacity() * std::mem::size_of::<T>()
    }
}

/// A CSR holds, per adjacency direction, a `V + 1` offset array
/// (`usize`) and, for each direction it was built with, `E` neighbor
/// IDs and (when weighted) `E` parallel weights. A direction a relabel
/// did not write holds only its offsets, so it weighs only those.
impl CacheWeight for Csr {
    fn weight_bytes(&self) -> usize {
        let held = |dir: AdjacencyView<'_>| {
            std::mem::size_of_val(dir.index)
                + std::mem::size_of_val(dir.neighbors)
                + dir.weights.map_or(0, std::mem::size_of_val)
        };
        std::mem::size_of::<Self>() + held(self.out_adjacency()) + held(self.in_adjacency())
    }
}

/// A timed permutation owns one `VertexId` per vertex.
impl CacheWeight for TimedReorder {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.permutation.len() * std::mem::size_of::<lgr_graph::VertexId>()
    }
}

impl CacheWeight for RunStats {
    fn weight_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    #[test]
    fn csr_weight_scales_with_edges_and_weights() {
        let mut el = EdgeList::new(100);
        for v in 0..100u32 {
            el.push(v, (v + 1) % 100);
        }
        let unweighted = Csr::from_edge_list(&el);
        el.randomize_weights(64, 1);
        let weighted = Csr::from_edge_list(&el);
        assert!(unweighted.weight_bytes() > 100 * std::mem::size_of::<usize>());
        assert!(weighted.weight_bytes() > unweighted.weight_bytes());
    }

    #[test]
    fn a_one_direction_csr_weighs_only_what_it_holds() {
        use lgr_graph::{Directions, Permutation};
        use lgr_parallel::Pool;

        let mut el = EdgeList::new(100);
        for v in 0..100u32 {
            el.push(v, (v + 1) % 100);
            el.push(v, (v + 7) % 100);
        }
        el.randomize_weights(64, 1);
        let g = Csr::from_edge_list(&el);
        let perm = Permutation::from_new_ids((0..100).rev().collect()).unwrap();
        let pool = Pool::new(1);
        let both = g.relabel_with(&perm, Directions::Both, &pool);
        assert_eq!(both.weight_bytes(), g.weight_bytes());
        // One direction drops 200 neighbor IDs and 200 weights.
        let dropped = 200 * std::mem::size_of::<(lgr_graph::VertexId, lgr_graph::Weight)>();
        for dirs in [Directions::Out, Directions::In] {
            let one = g.relabel_with(&perm, dirs, &pool);
            assert_eq!(
                one.weight_bytes(),
                both.weight_bytes() - dropped,
                "{dirs:?}"
            );
        }
    }

    #[test]
    fn small_values_weigh_little() {
        assert!(Duration::from_secs(1).weight_bytes() <= 16);
        assert_eq!(
            vec![0u32; 8].weight_bytes(),
            std::mem::size_of::<Vec<u32>>() + 32
        );
    }
}
