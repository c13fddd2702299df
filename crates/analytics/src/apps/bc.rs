//! Betweenness Centrality — Brandes' algorithm with a
//! direction-optimizing BFS kernel (pull-push, Table VIII).
//!
//! Forward phase: level-synchronous BFS from the root counting the
//! number of shortest paths (`sigma`) through each vertex, switching
//! between sparse push and dense pull with Ligra's heuristic. Backward
//! phase: dependency accumulation over the recorded levels.
//!
//! Per Table VIII the per-vertex state is 17 bytes: 8-byte `sigma`,
//! 8-byte `delta`, 1-byte depth; the irregular accesses touch the
//! 8-byte entries.

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, Tracer};
use lgr_graph::{Csr, VertexId};

use crate::arrays::{register_property, CsrArrays};
use crate::frontier::Frontier;
use crate::schedule::Schedule;

/// BC parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcConfig {
    /// BFS root.
    pub root: VertexId,
    /// Simulated cores.
    pub cores: usize,
}

impl BcConfig {
    /// BC from `root`.
    pub fn from_root(root: VertexId) -> Self {
        BcConfig { root, cores: 8 }
    }
}

/// BC output.
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// Dependency score per vertex (single-root Brandes contribution).
    pub scores: Vec<f64>,
    /// BFS depth per vertex (-1 = unreached).
    pub depths: Vec<i32>,
    /// Number of shortest paths from the root per vertex.
    pub sigmas: Vec<f64>,
}

/// Layout handles for the arrays BC touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BcArrays {
    /// Out-edge CSR (push traversal).
    pub csr_out: CsrArrays,
    /// In-edge CSR (pull traversal).
    pub csr_in: CsrArrays,
    /// Shortest-path counts (8 B, irregular).
    pub sigma: ArrayId,
    /// Dependency accumulators (8 B, irregular).
    pub delta: ArrayId,
    /// BFS depths (1 B, irregular).
    pub depth: ArrayId,
}

impl BcArrays {
    /// Registers BC's arrays for `graph` in `layout`.
    pub fn register(layout: &mut MemoryLayout, graph: &Csr) -> Self {
        BcArrays {
            csr_out: CsrArrays::register_out(layout, graph),
            csr_in: CsrArrays::register_in(layout, graph),
            sigma: register_property(layout, "bc_sigma", graph, 8, AccessPattern::Irregular),
            delta: register_property(layout, "bc_delta", graph, 8, AccessPattern::Irregular),
            depth: register_property(layout, "bc_depth", graph, 1, AccessPattern::Irregular),
        }
    }
}

/// Runs single-root BC with a private array registration.
///
/// # Panics
///
/// Panics if the root is out of range for a non-empty graph.
pub fn bc<T: Tracer>(graph: &Csr, cfg: &BcConfig, tracer: &mut T) -> BcResult {
    let mut layout = MemoryLayout::new();
    let arrays = BcArrays::register(&mut layout, graph);
    bc_with_arrays(graph, cfg, &arrays, tracer)
}

/// Runs single-root BC charging accesses against pre-registered arrays.
///
/// # Panics
///
/// Panics if the root is out of range for a non-empty graph.
pub(crate) fn bc_with_arrays<T: Tracer>(
    graph: &Csr,
    cfg: &BcConfig,
    arrays: &BcArrays,
    tracer: &mut T,
) -> BcResult {
    let n = graph.num_vertices();
    if n == 0 {
        return BcResult {
            scores: Vec::new(),
            depths: Vec::new(),
            sigmas: Vec::new(),
        };
    }
    assert!((cfg.root as usize) < n, "root {} out of range", cfg.root);
    let schedule = Schedule::new(n, cfg.cores);
    let mut depth = vec![-1i32; n];
    let mut sigma = vec![0.0f64; n];
    depth[cfg.root as usize] = 0;
    sigma[cfg.root as usize] = 1.0;
    let mut frontier = Frontier::single(n, cfg.root);
    let mut levels: Vec<Vec<VertexId>> = vec![vec![cfg.root]];

    // ---- Forward: direction-optimizing BFS with sigma counting ----
    let mut d = 0i32;
    while !frontier.is_empty() {
        let mut next = Frontier::empty(n);
        if frontier.should_pull(graph) {
            // Dense pull: every unreached vertex scans its in-edges.
            for (core, range) in schedule.interleaved() {
                for v in range {
                    let vid = v as VertexId;
                    tracer.read(core, arrays.depth, v);
                    if depth[v] != -1 {
                        continue;
                    }
                    tracer.read(core, arrays.csr_in.vtx, v);
                    let off = graph.in_edge_offset(vid);
                    let mut acc = 0.0f64;
                    let mut reached = false;
                    for (i, &u) in graph.in_neighbors(vid).iter().enumerate() {
                        tracer.read(core, arrays.csr_in.edge, off + i);
                        tracer.read(core, arrays.depth, u as usize);
                        if depth[u as usize] == d {
                            tracer.read(core, arrays.sigma, u as usize);
                            acc += sigma[u as usize];
                            reached = true;
                        }
                    }
                    if reached {
                        depth[v] = d + 1;
                        sigma[v] = acc;
                        tracer.write(core, arrays.depth, v);
                        tracer.write(core, arrays.sigma, v);
                        next.add(vid);
                    }
                    tracer.instr(8 + 5 * graph.in_degree(vid) as u64);
                }
            }
        } else {
            // Sparse push: frontier members scatter to out-neighbors.
            let mut by_core: Vec<Vec<VertexId>> = vec![Vec::new(); schedule.cores()];
            for &u in frontier.members() {
                by_core[schedule.owner(u as usize)].push(u);
            }
            for (core, members) in by_core.iter().enumerate() {
                for &u in members {
                    tracer.read(core, arrays.sigma, u as usize);
                    tracer.read(core, arrays.csr_out.vtx, u as usize);
                    let su = sigma[u as usize];
                    let off = graph.out_edge_offset(u);
                    for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
                        tracer.read(core, arrays.csr_out.edge, off + i);
                        tracer.read(core, arrays.depth, v as usize);
                        if depth[v as usize] == -1 {
                            depth[v as usize] = d + 1;
                            tracer.write(core, arrays.depth, v as usize);
                            next.add(v);
                        }
                        if depth[v as usize] == d + 1 {
                            sigma[v as usize] += su;
                            tracer.read(core, arrays.sigma, v as usize);
                            tracer.write(core, arrays.sigma, v as usize);
                        }
                    }
                    tracer.instr(8 + 6 * graph.out_degree(u) as u64);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next.members().to_vec());
        frontier = next;
        d += 1;
    }

    // ---- Backward: dependency accumulation, deepest level first ----
    let mut delta = vec![0.0f64; n];
    for level in levels.iter().rev().skip(1) {
        let mut by_core: Vec<Vec<VertexId>> = vec![Vec::new(); schedule.cores()];
        for &u in level {
            by_core[schedule.owner(u as usize)].push(u);
        }
        for (core, members) in by_core.iter().enumerate() {
            for &u in members {
                let du = depth[u as usize];
                tracer.read(core, arrays.csr_out.vtx, u as usize);
                let off = graph.out_edge_offset(u);
                let mut acc = 0.0f64;
                for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
                    tracer.read(core, arrays.csr_out.edge, off + i);
                    tracer.read(core, arrays.depth, v as usize);
                    if depth[v as usize] == du + 1 && sigma[v as usize] > 0.0 {
                        tracer.read(core, arrays.sigma, v as usize);
                        tracer.read(core, arrays.delta, v as usize);
                        acc += sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                    }
                }
                delta[u as usize] = acc;
                tracer.write(core, arrays.delta, u as usize);
                tracer.instr(8 + 6 * graph.out_degree(u) as u64);
            }
        }
    }

    BcResult {
        scores: delta,
        depths: depth,
        sigmas: sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_cachesim::NullTracer;
    use lgr_graph::EdgeList;

    /// Path 0 -> 1 -> 2 -> 3.
    fn path4() -> Csr {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        el.push(2, 3);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn path_depths_and_sigmas() {
        let r = bc(&path4(), &BcConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.depths, vec![0, 1, 2, 3]);
        assert_eq!(r.sigmas, vec![1.0, 1.0, 1.0, 1.0]);
        // Brandes deltas on a path: delta[1] = 2 (paths to 2 and 3 pass
        // through), delta[2] = 1, delta[3] = 0.
        assert_eq!(r.scores[1], 2.0);
        assert_eq!(r.scores[2], 1.0);
        assert_eq!(r.scores[3], 0.0);
    }

    #[test]
    fn diamond_counts_two_paths() {
        // 0 -> {1, 2} -> 3: two shortest paths to 3.
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(0, 2);
        el.push(1, 3);
        el.push(2, 3);
        let g = Csr::from_edge_list(&el);
        let r = bc(&g, &BcConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.sigmas[3], 2.0);
        assert_eq!(r.depths[3], 2);
        // Each middle vertex carries half the dependency of vertex 3.
        assert!((r.scores[1] - 0.5).abs() < 1e-12);
        assert!((r.scores[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unreachable_marked_minus_one() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        let r = bc(&g, &BcConfig::from_root(0), &mut NullTracer);
        assert_eq!(r.depths[2], -1);
        assert_eq!(r.sigmas[2], 0.0);
    }

    #[test]
    fn pull_and_push_agree() {
        // A graph large/dense enough to trigger pull in some levels:
        // two-level tree with high fanout.
        let mut el = EdgeList::new(111);
        for i in 1..11 {
            el.push(0, i);
        }
        for i in 1..11u32 {
            for j in 0..10u32 {
                el.push(i, 11 + (i - 1) * 10 + j);
            }
        }
        let g = Csr::from_edge_list(&el);
        let r = bc(&g, &BcConfig::from_root(0), &mut NullTracer);
        // Every leaf at depth 2, each middle vertex covers 10 leaves.
        for leaf in 11..111 {
            assert_eq!(r.depths[leaf], 2);
            assert_eq!(r.sigmas[leaf], 1.0);
        }
        for mid in 1..11 {
            assert_eq!(r.scores[mid], 10.0);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let r = bc(&g, &BcConfig::from_root(0), &mut NullTracer);
        assert!(r.scores.is_empty());
    }
}
