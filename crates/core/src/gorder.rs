//! Gorder (Wei et al., SIGMOD'16): structure-aware greedy reordering.
//!
//! Gorder maximizes a sliding-window locality score: vertices placed
//! within `w` positions of each other should be siblings (share an
//! in-neighbor) or direct neighbors. It is the quality yardstick of the
//! paper's evaluation — the best speedups excluding reordering time,
//! and catastrophic net slowdowns including it, because its analysis
//! is orders of magnitude more expensive than any skew-aware technique.
//!
//! This implementation follows the published greedy algorithm (GO-PQ):
//! a lazy max-heap keyed by each candidate's score against the current
//! window, with unit increments when a vertex enters the window and
//! unit decrements when one leaves. Sibling expansion through very
//! high-degree intermediates is capped (as practical Gorder
//! implementations do) to avoid quadratic blowup on hubs; the cap only
//! affects scores contributed by hub intermediates, which Wei et al.
//! note carry little locality signal.

use lgr_graph::{Csr, DegreeKind, Permutation, VertexId};
use lgr_parallel::Pool;

use crate::technique::ReorderingTechnique;

/// Lazy bucket priority queue over small non-negative integer scores.
///
/// Gorder performs hundreds of unit increments/decrements per placed
/// vertex; a binary heap's `O(log n)` per operation and per-entry
/// allocation dominate runtime. Scores here are bounded by
/// `window * max_expansion`, so a bucket array with a moving max
/// pointer gives O(1) pushes and amortized-cheap pops (stale entries
/// are dropped on pop by checking the live score array).
#[derive(Debug)]
struct BucketQueue {
    buckets: Vec<Vec<VertexId>>,
    max_score: usize,
}

impl BucketQueue {
    fn new() -> Self {
        BucketQueue {
            buckets: vec![Vec::new()],
            max_score: 0,
        }
    }

    #[inline]
    fn push(&mut self, v: VertexId, score: i64) {
        if score <= 0 {
            return;
        }
        let s = score as usize;
        if s >= self.buckets.len() {
            self.buckets.resize_with(s + 1, Vec::new);
        }
        self.buckets[s].push(v);
        self.max_score = self.max_score.max(s);
    }

    /// Pops the live vertex with the highest score, validating entries
    /// against `score` and `placed` (stale entries are discarded; ones
    /// whose live score dropped are re-filed).
    fn pop(&mut self, score: &[i64], placed: &[bool]) -> Option<VertexId> {
        loop {
            while self.max_score > 0 && self.buckets[self.max_score].is_empty() {
                self.max_score -= 1;
            }
            if self.max_score == 0 {
                return None;
            }
            let v = self.buckets[self.max_score]
                .pop()
                .expect("non-empty bucket");
            if placed[v as usize] {
                continue;
            }
            let live = score[v as usize];
            if live == self.max_score as i64 {
                return Some(v);
            }
            if live > 0 && (live as usize) < self.max_score {
                // Score decayed (window slid): re-file at the live score.
                self.buckets[live as usize].push(v);
            }
            // live score higher than the bucket can't happen: pushes
            // accompany every increment.
        }
    }
}

/// The Gorder reordering technique.
///
/// # Example
///
/// ```
/// use lgr_core::{Gorder, ReorderingTechnique};
/// use lgr_graph::{gen, Csr, DegreeKind};
///
/// let el = gen::community(gen::CommunityConfig::new(512, 4.0));
/// let g = Csr::from_edge_list(&el);
/// let p = Gorder::new().reorder(&g, DegreeKind::Out);
/// assert_eq!(p.len(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gorder {
    /// Sliding window size (Wei et al. recommend 5).
    window: usize,
    /// Skip sibling expansion through intermediates with out-degree
    /// above this cap.
    hub_cap: u32,
}

impl Gorder {
    /// Gorder with the recommended window of 5.
    pub fn new() -> Self {
        Gorder {
            window: 5,
            hub_cap: 512,
        }
    }
}

impl Default for Gorder {
    fn default() -> Self {
        Gorder::new()
    }
}

impl ReorderingTechnique for Gorder {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        let n = graph.num_vertices();
        if n == 0 {
            return Permutation::identity(0);
        }
        let mut placed = vec![false; n];
        let mut score = vec![0i64; n];
        let mut queue = BucketQueue::new();
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        let mut window: Vec<VertexId> = Vec::with_capacity(self.window);
        // Cursor for seeding new connected components in original order
        // (preserves a little original structure for isolated regions,
        // like the reference implementation).
        let mut seed_cursor: usize = 0;

        // Applies +-1 to the Gorder score of every vertex related to
        // `v`: out-neighbors and in-neighbors (neighbor score), and
        // out-neighbors of v's in-neighbors (sibling score).
        let adjust = |v: VertexId,
                      delta: i64,
                      score: &mut [i64],
                      queue: &mut BucketQueue,
                      placed: &[bool]| {
            let mut bump = |u: VertexId| {
                if !placed[u as usize] {
                    score[u as usize] += delta;
                    if delta > 0 {
                        queue.push(u, score[u as usize]);
                    }
                }
            };
            for &u in graph.out_neighbors(v) {
                bump(u);
            }
            for &u in graph.in_neighbors(v) {
                bump(u);
            }
            for &w in graph.in_neighbors(v) {
                if graph.out_degree(w) > self.hub_cap {
                    continue;
                }
                for &u in graph.out_neighbors(w) {
                    if u != v {
                        bump(u);
                    }
                }
            }
        };

        while order.len() < n {
            // Pick the unplaced vertex with the highest current score,
            // or seed the next component in original order.
            let v = match queue.pop(&score, &placed) {
                Some(v) => v,
                None => {
                    while placed[seed_cursor] {
                        seed_cursor += 1;
                    }
                    seed_cursor as VertexId
                }
            };

            placed[v as usize] = true;
            order.push(v);
            // Slide the window: retire the oldest member if full.
            if window.len() == self.window {
                let old = window.remove(0);
                adjust(old, -1, &mut score, &mut queue, &placed);
            }
            adjust(v, 1, &mut score, &mut queue, &placed);
            window.push(v);
        }

        Permutation::from_order(&order).expect("greedy placement covers every vertex once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::gen::{community, CommunityConfig};
    use lgr_graph::EdgeList;

    #[test]
    fn covers_all_vertices_including_isolated() {
        let mut el = EdgeList::new(10);
        el.push(0, 1);
        el.push(1, 2);
        // Vertices 3..10 are isolated.
        let g = Csr::from_edge_list(&el);
        let p = Gorder::new().reorder(&g, DegreeKind::Out);
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn clusters_siblings_together() {
        // Two disjoint stars: hub 0 -> {1,2,3}, hub 4 -> {5,6,7}.
        // Siblings (children of the same hub) share an in-neighbor, so
        // Gorder should place each star's children contiguously.
        let mut el = EdgeList::new(8);
        for c in 1..4 {
            el.push(0, c);
        }
        for c in 5..8 {
            el.push(4, c);
        }
        let g = Csr::from_edge_list(&el);
        let p = Gorder::new().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        // Find positions of the two sibling sets; each set should span
        // a compact range (width <= 4 including the hub).
        let pos = |v: u32| layout.iter().position(|&x| x == v).unwrap() as i64;
        for group in [[1u32, 2, 3], [5, 6, 7]] {
            let positions: Vec<i64> = group.iter().map(|&v| pos(v)).collect();
            let width = positions.iter().max().unwrap() - positions.iter().min().unwrap();
            assert!(width <= 3, "siblings scattered: {positions:?}");
        }
    }

    #[test]
    fn improves_window_locality_on_scrambled_community_graph() {
        // On a scrambled community graph, Gorder should recover far
        // more neighbor locality than the original (scrambled) order.
        let el = community(CommunityConfig::new(512, 6.0).with_seed(11).scrambled());
        let g = Csr::from_edge_list(&el);
        let p = Gorder::new().reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let window = 16i64;
        let local = |c: &Csr| {
            let mut hits = 0usize;
            let mut total = 0usize;
            for v in 0..c.num_vertices() as VertexId {
                for &u in c.out_neighbors(v) {
                    total += 1;
                    if (u as i64 - v as i64).abs() <= window {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total.max(1) as f64
        };
        let before = local(&g);
        let after = local(&h);
        assert!(
            after > before * 1.5,
            "gorder did not improve locality: {before} -> {after}"
        );
    }

    #[test]
    fn deterministic() {
        let el = community(CommunityConfig::new(256, 4.0).with_seed(3));
        let g = Csr::from_edge_list(&el);
        let a = Gorder::new().reorder(&g, DegreeKind::Out);
        let b = Gorder::new().reorder(&g, DegreeKind::Out);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let p = Gorder::new().reorder(&g, DegreeKind::Out);
        assert!(p.is_empty());
    }
}
