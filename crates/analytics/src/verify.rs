//! Reference implementations and permutation-invariance helpers.
//!
//! The engine implementations are frontier-driven and
//! direction-switching; the references here are deliberately naive
//! (queue-based BFS, Dijkstra with a binary heap, textbook Brandes) so
//! the two code paths validate each other. [`remap`] maps results
//! computed on a reordered graph back to original vertex IDs — the
//! bookkeeping the paper describes adding to Ligra so reordered runs
//! answer queries about the original vertices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use lgr_graph::{Csr, Permutation, VertexId};

use crate::apps::RADII_MASK_WIDTH;

/// Maps a per-vertex result vector computed on a reordered graph back
/// to original vertex IDs: `out[orig] = values[perm.new_id(orig)]`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn remap<T: Clone>(values: &[T], perm: &Permutation) -> Vec<T> {
    assert_eq!(values.len(), perm.len(), "length mismatch");
    (0..values.len())
        .map(|orig| values[perm.new_id(orig as VertexId) as usize].clone())
        .collect()
}

/// BFS depths from `root` (-1 for unreachable) using a plain queue.
pub fn bfs_reference(graph: &Csr, root: VertexId) -> Vec<i32> {
    let n = graph.num_vertices();
    let mut depth = vec![-1i32; n];
    if n == 0 {
        return depth;
    }
    depth[root as usize] = 0;
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        for &v in graph.out_neighbors(u) {
            if depth[v as usize] == -1 {
                depth[v as usize] = depth[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    depth
}

/// Dijkstra shortest distances from `root` (`u64::MAX` for
/// unreachable). Unweighted edges count as weight 1.
pub fn dijkstra_reference(graph: &Csr, root: VertexId) -> Vec<u64> {
    let n = graph.num_vertices();
    let mut dist = vec![u64::MAX; n];
    if n == 0 {
        return dist;
    }
    dist[root as usize] = 0;
    let mut heap = BinaryHeap::from([(Reverse(0u64), root)]);
    while let Some((Reverse(d), u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        let weights = graph.out_weights(u);
        for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
            let w = weights.map_or(1, |ws| ws[i]) as u64;
            let nd = d.saturating_add(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push((Reverse(nd), v));
            }
        }
    }
    dist
}

/// Textbook single-root Brandes dependency scores (sequential,
/// stack-based).
pub fn bc_reference(graph: &Csr, root: VertexId) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut delta = vec![0.0f64; n];
    if n == 0 {
        return delta;
    }
    let mut sigma = vec![0.0f64; n];
    let mut depth = vec![-1i32; n];
    sigma[root as usize] = 1.0;
    depth[root as usize] = 0;
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut q = VecDeque::from([root]);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in graph.out_neighbors(u) {
            if depth[v as usize] == -1 {
                depth[v as usize] = depth[u as usize] + 1;
                q.push_back(v);
            }
            if depth[v as usize] == depth[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    for &u in order.iter().rev() {
        for &v in graph.out_neighbors(u) {
            if depth[v as usize] == depth[u as usize] + 1 && sigma[v as usize] > 0.0 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta
}

/// Reference radii estimate: one BFS per source, the first
/// [`RADII_MASK_WIDTH`] of `sources` as in the engine's masks; each
/// vertex's radius is its maximum distance to any source that reaches
/// it.
pub fn radii_reference(graph: &Csr, sources: &[VertexId]) -> Vec<u32> {
    let mut radii = vec![0u32; graph.num_vertices()];
    for &src in sources.iter().take(RADII_MASK_WIDTH) {
        let depth = bfs_reference(graph, src);
        for (v, &d) in depth.iter().enumerate() {
            if d > 0 {
                radii[v] = radii[v].max(d as u32);
            }
        }
    }
    radii
}

/// Power-iteration PageRank with dangling redistribution — the fixed
/// point the engine's PR must converge to.
pub fn pagerank_reference(graph: &Csr, damping: f64, iters: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut prev = vec![1.0 / n as f64; n];
    let base = (1.0 - damping) / n as f64;
    for _ in 0..iters {
        let dangling: f64 = (0..n as VertexId)
            .filter(|&v| graph.out_degree(v) == 0)
            .map(|v| prev[v as usize])
            .sum();
        let share = damping * dangling / n as f64;
        let mut curr = vec![base + share; n];
        for u in 0..n as VertexId {
            let du = graph.out_degree(u);
            if du == 0 {
                continue;
            }
            let contrib = damping * prev[u as usize] / du as f64;
            for &v in graph.out_neighbors(u) {
                curr[v as usize] += contrib;
            }
        }
        prev = curr;
    }
    prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{bc, pagerank, radii, sssp};
    use crate::apps::{BcConfig, PrConfig, RadiiConfig, SsspConfig};
    use lgr_cachesim::NullTracer;
    use lgr_graph::gen::{community, rmat, CommunityConfig, RmatConfig};
    use lgr_graph::EdgeList;

    fn test_graph() -> Csr {
        let el = rmat(RmatConfig::new(8, 4).with_seed(5));
        Csr::from_edge_list(&el)
    }

    fn weighted_test_graph() -> Csr {
        let mut el = community(CommunityConfig::new(300, 5.0).with_seed(9));
        el.randomize_weights(16, 7);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn engine_bc_matches_reference() {
        let g = test_graph();
        let engine = bc(&g, &BcConfig::from_root(3), &mut NullTracer);
        let depths_ref = bfs_reference(&g, 3);
        assert_eq!(engine.depths, depths_ref, "BFS depths");
        let scores_ref = bc_reference(&g, 3);
        for (a, b) in engine.scores.iter().zip(scores_ref.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn engine_sssp_matches_dijkstra() {
        let g = weighted_test_graph();
        let engine = sssp(&g, &SsspConfig::from_root(1), &mut NullTracer);
        let expect = dijkstra_reference(&g, 1);
        assert_eq!(engine.distances, expect);
    }

    #[test]
    fn engine_radii_matches_reference() {
        let g = test_graph();
        let sources: Vec<VertexId> = (0..8).map(|i| i * 13).collect();
        let cfg = RadiiConfig::from_sources(sources.clone());
        let engine = radii(&g, &cfg, &mut NullTracer);
        let expect = radii_reference(&g, &sources);
        assert_eq!(engine.radii, expect);
    }

    #[test]
    fn engine_pagerank_matches_reference() {
        let g = test_graph();
        let cfg = PrConfig {
            max_iters: 30,
            tolerance: 0.0,
            ..Default::default()
        };
        let engine = pagerank(&g, &cfg, &mut NullTracer);
        let expect = pagerank_reference(&g, 0.85, 30);
        for (a, b) in engine.ranks.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn remap_round_trips() {
        let perm = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        // values indexed by NEW id; vertex 0's value lives at slot 2.
        let values = vec!["at0", "at1", "at2"];
        let back = remap(&values, &perm);
        assert_eq!(back, vec!["at2", "at0", "at1"]);
    }

    #[test]
    fn results_invariant_under_reordering() {
        use lgr_core::{Dbg, ReorderingTechnique, Sort};
        use lgr_graph::DegreeKind;

        let g = weighted_test_graph();
        let base = sssp(&g, &SsspConfig::from_root(5), &mut NullTracer);
        for tech in [&Dbg::default() as &dyn ReorderingTechnique, &Sort::new()] {
            let perm = tech.reorder(&g, DegreeKind::In);
            let rg = g.apply_permutation(&perm);
            let cfg = SsspConfig::from_root(perm.new_id(5));
            let res = sssp(&rg, &cfg, &mut NullTracer);
            let mapped = remap(&res.distances, &perm);
            assert_eq!(mapped, base.distances, "{tech:?} changed results");
        }
    }

    #[test]
    fn references_on_empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert!(dijkstra_reference(&g, 0).is_empty());
        assert!(bc_reference(&g, 0).is_empty());
        assert!(pagerank_reference(&g, 0.85, 5).is_empty());
    }
}
