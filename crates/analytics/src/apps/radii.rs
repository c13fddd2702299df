//! Radii estimation — multiple parallel BFS's with bitmask merging
//! (Magnien et al.; paper Table VII).
//!
//! Up to [`RADII_MASK_WIDTH`] sample sources each seed one bit of a
//! vertex's visitation mask. Each round, every active vertex merges
//! its neighbors' masks; a vertex's radius estimate is the last round
//! its mask grew, i.e. the eccentricity bound to the farthest sample
//! it can reach.
//! Direction-optimizing like BC: sparse rounds push, dense rounds
//! pull. Per Table VIII: 20 bytes of per-vertex state (two 8-byte
//! masks + 4-byte radius), 8 bytes accessed irregularly.

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, Tracer};
use lgr_graph::{Csr, VertexId};

use crate::arrays::{register_property, CsrArrays};
use crate::frontier::Frontier;
use crate::schedule::Schedule;

/// Bits in one vertex's visitation mask: a run samples at most this
/// many sources, one bit each.
pub const RADII_MASK_WIDTH: usize = u64::BITS as usize;

/// Radii parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadiiConfig {
    /// Sample sources; only the first [`RADII_MASK_WIDTH`] are used.
    /// To compare runs across reorderings, map them through the
    /// permutation so every ordering samples the same logical
    /// vertices.
    pub sources: Vec<VertexId>,
    /// Round cap (the algorithm naturally stops at the effective
    /// diameter).
    pub max_rounds: usize,
    /// Simulated cores.
    pub cores: usize,
}

impl RadiiConfig {
    /// Radii from `sources` with default bounds.
    pub fn from_sources(sources: Vec<VertexId>) -> Self {
        RadiiConfig {
            sources,
            max_rounds: 4096,
            cores: 8,
        }
    }
}

/// Radii output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadiiResult {
    /// Radius estimate per vertex (0 if never reached by any sample).
    pub radii: Vec<u32>,
    /// Rounds executed.
    pub rounds: usize,
}

/// Layout handles for the arrays Radii touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RadiiArrays {
    /// Out-edge CSR (push rounds).
    pub csr_out: CsrArrays,
    /// In-edge CSR (pull rounds).
    pub csr_in: CsrArrays,
    /// Current visitation masks (8 B, irregular).
    pub visited: ArrayId,
    /// Next-round visitation masks (8 B, irregular writes).
    pub next_visited: ArrayId,
    /// Radius estimates (4 B).
    pub radii: ArrayId,
}

impl RadiiArrays {
    /// Registers Radii's arrays for `graph` in `layout`.
    pub fn register(layout: &mut MemoryLayout, graph: &Csr) -> Self {
        RadiiArrays {
            csr_out: CsrArrays::register_out(layout, graph),
            csr_in: CsrArrays::register_in(layout, graph),
            visited: register_property(layout, "radii_visited", graph, 8, AccessPattern::Irregular),
            next_visited: register_property(
                layout,
                "radii_next",
                graph,
                8,
                AccessPattern::Irregular,
            ),
            radii: register_property(layout, "radii_r", graph, 4, AccessPattern::Streaming),
        }
    }
}

/// Runs Radii estimation with a private array registration.
pub fn radii<T: Tracer>(graph: &Csr, cfg: &RadiiConfig, tracer: &mut T) -> RadiiResult {
    let mut layout = MemoryLayout::new();
    let arrays = RadiiArrays::register(&mut layout, graph);
    radii_with_arrays(graph, cfg, &arrays, tracer)
}

/// Runs Radii estimation charging accesses against pre-registered
/// arrays.
pub(crate) fn radii_with_arrays<T: Tracer>(
    graph: &Csr,
    cfg: &RadiiConfig,
    arrays: &RadiiArrays,
    tracer: &mut T,
) -> RadiiResult {
    let n = graph.num_vertices();
    if n == 0 {
        return RadiiResult {
            radii: Vec::new(),
            rounds: 0,
        };
    }
    let schedule = Schedule::new(n, cfg.cores);
    let mut visited = vec![0u64; n];
    let mut next_visited = vec![0u64; n];
    let mut radii_est = vec![0u32; n];
    let mut frontier = Frontier::empty(n);
    for (i, &v) in cfg.sources.iter().take(RADII_MASK_WIDTH).enumerate() {
        assert!((v as usize) < n, "radii source {v} out of range");
        visited[v as usize] |= 1u64 << i;
        frontier.add(v);
    }

    let mut rounds = 0usize;
    while !frontier.is_empty() && rounds < cfg.max_rounds {
        rounds += 1;
        let mut next = Frontier::empty(n);
        if frontier.should_pull(graph) {
            // Dense pull: every vertex merges in-neighbor masks.
            for (core, range) in schedule.interleaved() {
                for v in range {
                    let vid = v as VertexId;
                    tracer.read(core, arrays.visited, v);
                    let mut m = visited[v];
                    tracer.read(core, arrays.csr_in.vtx, v);
                    let off = graph.in_edge_offset(vid);
                    for (i, &u) in graph.in_neighbors(vid).iter().enumerate() {
                        tracer.read(core, arrays.csr_in.edge, off + i);
                        tracer.read(core, arrays.visited, u as usize);
                        m |= visited[u as usize];
                    }
                    if m != visited[v] {
                        next_visited[v] = m;
                        radii_est[v] = rounds as u32;
                        tracer.write(core, arrays.next_visited, v);
                        tracer.write(core, arrays.radii, v);
                        next.add(vid);
                    } else {
                        next_visited[v] = m;
                    }
                    tracer.instr(8 + 5 * graph.in_degree(vid) as u64);
                }
            }
        } else {
            // Sparse push: changed vertices scatter their masks.
            next_visited.copy_from_slice(&visited);
            let mut by_core: Vec<Vec<VertexId>> = vec![Vec::new(); schedule.cores()];
            for &u in frontier.members() {
                by_core[schedule.owner(u as usize)].push(u);
            }
            for (core, members) in by_core.iter().enumerate() {
                for &u in members {
                    tracer.read(core, arrays.visited, u as usize);
                    let mu = visited[u as usize];
                    tracer.read(core, arrays.csr_out.vtx, u as usize);
                    let off = graph.out_edge_offset(u);
                    for (i, &v) in graph.out_neighbors(u).iter().enumerate() {
                        tracer.read(core, arrays.csr_out.edge, off + i);
                        tracer.read(core, arrays.next_visited, v as usize);
                        let merged = next_visited[v as usize] | mu;
                        if merged != next_visited[v as usize] {
                            next_visited[v as usize] = merged;
                            tracer.write(core, arrays.next_visited, v as usize);
                            if next.add(v) {
                                radii_est[v as usize] = rounds as u32;
                                tracer.write(core, arrays.radii, v as usize);
                            }
                        }
                    }
                    tracer.instr(8 + 6 * graph.out_degree(u) as u64);
                }
            }
        }
        std::mem::swap(&mut visited, &mut next_visited);
        frontier = next;
    }

    RadiiResult {
        radii: radii_est,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_cachesim::NullTracer;
    use lgr_graph::EdgeList;

    /// Bidirectional path of `n` vertices.
    fn bipath(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n - 1 {
            el.push(i as VertexId, (i + 1) as VertexId);
            el.push((i + 1) as VertexId, i as VertexId);
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn single_sample_radius_is_bfs_eccentricity() {
        // Path of 8 vertices, sample only vertex 0: radius[v] =
        // distance from 0.
        let g = bipath(8);
        let r = radii(&g, &RadiiConfig::from_sources(vec![0]), &mut NullTracer);
        assert_eq!(r.radii, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(r.rounds, 8, "7 propagation rounds + 1 fixpoint check");
    }

    #[test]
    fn rounds_bounded_by_diameter() {
        let g = bipath(16);
        let cfg = RadiiConfig::from_sources((0..16).collect());
        let r = radii(&g, &cfg, &mut NullTracer);
        assert!(r.rounds <= 17, "rounds {}", r.rounds);
        // With samples spread along the path, every vertex's estimate
        // is at most the diameter.
        assert!(r.radii.iter().all(|&x| x <= 15));
    }

    #[test]
    fn disconnected_parts_get_zero() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 0);
        // 2, 3 isolated.
        let g = Csr::from_edge_list(&el);
        let r = radii(&g, &RadiiConfig::from_sources(vec![0]), &mut NullTracer);
        assert_eq!(r.radii[2], 0);
        assert_eq!(r.radii[3], 0);
    }

    #[test]
    fn max_rounds_caps_execution() {
        let g = bipath(64);
        let cfg = RadiiConfig {
            max_rounds: 3,
            ..RadiiConfig::from_sources(vec![0])
        };
        let r = radii(&g, &cfg, &mut NullTracer);
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let r = radii(&g, &RadiiConfig::from_sources(Vec::new()), &mut NullTracer);
        assert!(r.radii.is_empty());
    }
}
