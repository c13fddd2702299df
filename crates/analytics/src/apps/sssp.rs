//! Single-Source Shortest Path — Bellman–Ford, push-only, weighted.
//!
//! Frontier-driven relaxation: active vertices push tentative
//! distances through their out-edges; a vertex joins the next frontier
//! when its distance improves. Unlike PRD, writes are *conditional*
//! (only on improvement), so SSSP generates far less coherence traffic
//! — the contrast the paper draws in Fig. 9.

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, Tracer};
use lgr_graph::{Csr, VertexId};

use crate::arrays::{register_property, CsrArrays};
use crate::frontier::Frontier;
use crate::schedule::Schedule;

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// SSSP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsspConfig {
    /// Source vertex.
    pub root: VertexId,
    /// Round cap (defaults to |V|, the Bellman–Ford bound).
    pub max_rounds: usize,
    /// Simulated cores.
    pub cores: usize,
}

impl SsspConfig {
    /// SSSP from `root` with default bounds.
    pub fn from_root(root: VertexId) -> Self {
        SsspConfig {
            root,
            max_rounds: usize::MAX,
            cores: 8,
        }
    }
}

/// SSSP output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsspResult {
    /// Shortest distance per vertex ([`UNREACHABLE`] if unreached).
    pub distances: Vec<u64>,
    /// Relaxation rounds executed.
    pub rounds: usize,
}

/// Layout handles for the arrays SSSP touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SsspArrays {
    /// Out-edge CSR with 8-byte weighted edge entries.
    pub csr_out: CsrArrays,
    /// Tentative distances (8 B, irregular read-modify-write).
    pub dist: ArrayId,
}

impl SsspArrays {
    /// Registers SSSP's arrays for `graph` in `layout`.
    pub fn register(layout: &mut MemoryLayout, graph: &Csr) -> Self {
        SsspArrays {
            csr_out: CsrArrays::register_out(layout, graph),
            dist: register_property(layout, "sssp_dist", graph, 8, AccessPattern::Irregular),
        }
    }
}

/// Runs SSSP with a private array registration.
///
/// # Panics
///
/// Panics if the root is out of range for a non-empty graph.
pub fn sssp<T: Tracer>(graph: &Csr, cfg: &SsspConfig, tracer: &mut T) -> SsspResult {
    let mut layout = MemoryLayout::new();
    let arrays = SsspArrays::register(&mut layout, graph);
    sssp_with_arrays(graph, cfg, &arrays, tracer)
}

/// Runs SSSP charging accesses against pre-registered arrays.
///
/// Unweighted graphs are treated as having unit weights.
///
/// # Panics
///
/// Panics if the root is out of range for a non-empty graph.
pub(crate) fn sssp_with_arrays<T: Tracer>(
    graph: &Csr,
    cfg: &SsspConfig,
    arrays: &SsspArrays,
    tracer: &mut T,
) -> SsspResult {
    let n = graph.num_vertices();
    if n == 0 {
        return SsspResult {
            distances: Vec::new(),
            rounds: 0,
        };
    }
    assert!((cfg.root as usize) < n, "root {} out of range", cfg.root);
    let schedule = Schedule::new(n, cfg.cores);
    let mut dist = vec![UNREACHABLE; n];
    dist[cfg.root as usize] = 0;
    let mut frontier = Frontier::single(n, cfg.root);
    let mut next = Frontier::empty(n);
    let mut rounds = 0usize;

    while !frontier.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        // Push phase, partitioned by owner core. Frontier members are
        // visited grouped by owning core to mirror chunked parallelism.
        let mut by_core: Vec<Vec<VertexId>> = vec![Vec::new(); schedule.cores()];
        for &u in frontier.members() {
            by_core[schedule.owner(u as usize)].push(u);
        }
        for (core, members) in by_core.iter().enumerate() {
            for &u in members {
                tracer.read(core, arrays.dist, u as usize);
                tracer.read(core, arrays.csr_out.vtx, u as usize);
                let du = dist[u as usize];
                let off = graph.out_edge_offset(u);
                let weights = graph.out_weights(u);
                for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
                    tracer.read(core, arrays.csr_out.edge, off + i);
                    let w = weights.map_or(1, |ws| ws[i]) as u64;
                    let nd = du.saturating_add(w);
                    tracer.read(core, arrays.dist, v as usize);
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        tracer.write(core, arrays.dist, v as usize);
                        next.add(v);
                    }
                }
                tracer.instr(8 + 6 * graph.out_degree(u) as u64);
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    SsspResult {
        distances: dist,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_cachesim::NullTracer;
    use lgr_graph::EdgeList;

    #[test]
    fn weighted_shortest_paths() {
        // 0 -> 1 (w 10), 0 -> 2 (w 1), 2 -> 1 (w 2): best 0->1 is 3.
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 10);
        el.push_weighted(0, 2, 1);
        el.push_weighted(2, 1, 2);
        let g = Csr::from_edge_list(&el);
        let r = sssp(&g, &SsspConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.distances, vec![0, 3, 1]);
    }

    #[test]
    fn unreachable_vertices() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 1);
        let g = Csr::from_edge_list(&el);
        let r = sssp(&g, &SsspConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.distances[2], UNREACHABLE);
    }

    #[test]
    fn unit_weights_give_bfs_distances() {
        // Unweighted path 0 -> 1 -> 2 -> 3.
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 3);
        let g = Csr::from_edge_list(&el);
        let r = sssp(&g, &SsspConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.distances, vec![0, 1, 2, 3]);
    }

    #[test]
    fn handles_relaxation_through_later_rounds() {
        // A longer path that is cheaper: 0->3 direct w=10;
        // 0->1->2->3 each w=1 (total 3).
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 3, 10);
        el.push_weighted(0, 1, 1);
        el.push_weighted(1, 2, 1);
        el.push_weighted(2, 3, 1);
        let g = Csr::from_edge_list(&el);
        let r = sssp(&g, &SsspConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.distances[3], 3);
        assert!(r.rounds >= 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_root_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        let _ = sssp(&g, &SsspConfig::from_root(9), &mut NullTracer);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let r = sssp(&g, &SsspConfig::from_root(0), &mut NullTracer);
        assert!(r.distances.is_empty());
    }
}
