//! Classic traversal-based reorderings, for context beyond the
//! paper's main evaluation.
//!
//! The paper's related work (Sec. II-E, refs \[22\]–\[24\]) situates
//! skew-aware reordering against older locality-oriented orderings.
//! Two cheap representatives are provided:
//!
//! * [`BfsOrder`] — relabel in breadth-first discovery order from the
//!   highest-degree vertex; a common "children together" layout.
//! * [`CuthillMcKee`] — the classic bandwidth-reduction ordering:
//!   BFS that visits each vertex's neighbors in ascending-degree
//!   order, seeded from a minimum-degree vertex.
//!
//! Both preserve neighborhoods (good for structure) but ignore skew
//! (no hot-vertex packing), so on power-law graphs they underperform
//! the skew-aware family — a useful contrast in ablations.

use std::collections::VecDeque;

use lgr_graph::{Csr, DegreeKind, Permutation, VertexId};
use lgr_parallel::Pool;

use crate::technique::ReorderingTechnique;

/// Shared traversal: BFS over the union of in/out adjacency, visiting
/// neighbors in the order produced by `rank_neighbors`, seeding
/// components from `seed_order`.
fn traversal_order(
    graph: &Csr,
    seed_order: &[VertexId],
    ascending_neighbors: bool,
) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let degree = |v: VertexId| graph.out_degree(v) as u64 + graph.in_degree(v) as u64;

    for &seed in seed_order {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            // Union of both directions, deduplicated per step by the
            // visited bitmap.
            let mut neighbors: Vec<VertexId> = graph
                .out_neighbors(u)
                .iter()
                .chain(graph.in_neighbors(u))
                .copied()
                .filter(|&v| !visited[v as usize])
                .collect();
            neighbors.sort_unstable_by_key(|&v| {
                let d = degree(v);
                if ascending_neighbors {
                    (d, v)
                } else {
                    (u64::MAX - d, v)
                }
            });
            neighbors.dedup();
            for v in neighbors {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    order
}

/// BFS discovery order seeded from the highest-degree vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BfsOrder;

impl BfsOrder {
    /// Creates the BFS-order technique.
    pub fn new() -> Self {
        BfsOrder
    }
}

impl ReorderingTechnique for BfsOrder {
    fn name(&self) -> &'static str {
        "BFS-Order"
    }

    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, _pool: &Pool) -> Permutation {
        let degrees = kind.degrees(graph);
        // Seed from hubs downward so big components come first.
        let mut seeds: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        seeds.sort_unstable_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        let order = traversal_order(graph, &seeds, false);
        Permutation::from_order(&order).expect("traversal covers every vertex once")
    }
}

/// Cuthill–McKee ordering: BFS from a minimum-degree seed, visiting
/// neighbors in ascending-degree order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CuthillMcKee {
    /// Reverse the final order (RCM), the variant used in practice.
    reversed: bool,
}

impl CuthillMcKee {
    /// Plain Cuthill–McKee.
    pub fn new() -> Self {
        CuthillMcKee { reversed: false }
    }

    /// Reverse Cuthill–McKee (RCM).
    pub fn reversed() -> Self {
        CuthillMcKee { reversed: true }
    }
}

impl ReorderingTechnique for CuthillMcKee {
    fn name(&self) -> &'static str {
        if self.reversed {
            "RCM"
        } else {
            "CM"
        }
    }

    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, _pool: &Pool) -> Permutation {
        let degrees = kind.degrees(graph);
        let mut seeds: Vec<VertexId> = (0..graph.num_vertices() as VertexId).collect();
        seeds.sort_unstable_by_key(|&v| degrees[v as usize]);
        let mut order = traversal_order(graph, &seeds, true);
        if self.reversed {
            order.reverse();
        }
        Permutation::from_order(&order).expect("traversal covers every vertex once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    fn bipath(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n - 1 {
            el.push(i as VertexId, (i + 1) as VertexId);
            el.push((i + 1) as VertexId, i as VertexId);
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn bfs_order_covers_disconnected_graphs() {
        let mut el = EdgeList::new(6);
        el.push(0, 1);
        el.push(3, 4); // component 2; vertex 5 isolated
        let g = Csr::from_edge_list(&el);
        let p = BfsOrder::new().reorder(&g, DegreeKind::Both);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn cm_on_path_preserves_bandwidth() {
        // On a path graph, CM discovers vertices in path order from an
        // endpoint, so the relabeled graph's edges all have |u - v| = 1.
        let g = bipath(16);
        let p = CuthillMcKee::new().reorder(&g, DegreeKind::Both);
        let h = g.apply_permutation(&p);
        for v in 0..16u32 {
            for &u in h.out_neighbors(v) {
                assert_eq!(
                    (u as i64 - v as i64).abs(),
                    1,
                    "bandwidth not minimal: edge {v}->{u}"
                );
            }
        }
    }

    #[test]
    fn rcm_is_reverse_of_cm() {
        let g = bipath(8);
        let cm = CuthillMcKee::new().reorder(&g, DegreeKind::Both);
        let rcm = CuthillMcKee::reversed().reorder(&g, DegreeKind::Both);
        let cm_layout = cm.inverse();
        let mut rcm_layout = rcm.inverse();
        rcm_layout.reverse();
        assert_eq!(cm_layout, rcm_layout);
    }

    #[test]
    fn names() {
        assert_eq!(BfsOrder::new().name(), "BFS-Order");
        assert_eq!(CuthillMcKee::new().name(), "CM");
        assert_eq!(CuthillMcKee::reversed().name(), "RCM");
    }

    #[test]
    fn bfs_order_clusters_neighborhoods() {
        // Star-of-cliques: BFS order should put each clique's members
        // near each other.
        let mut el = EdgeList::new(12);
        for c in 0..3u32 {
            let base = c * 4;
            for i in 0..4u32 {
                for j in 0..4u32 {
                    if i != j {
                        el.push(base + i, base + j);
                    }
                }
            }
        }
        // Random-ish scatter of IDs is absent here (already clustered),
        // so just verify validity + coverage.
        let g = Csr::from_edge_list(&el);
        let p = BfsOrder::new().reorder(&g, DegreeKind::Both);
        assert_eq!(p.len(), 12);
    }
}
