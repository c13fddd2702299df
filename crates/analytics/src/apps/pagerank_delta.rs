//! PageRank-Delta — push-only, frontier-driven PageRank.
//!
//! The faster PageRank variant (Table VII): a vertex participates in an
//! iteration only if its rank changed enough since it last pushed.
//! Active vertices *unconditionally push* their delta to every
//! out-neighbor, producing the scattered irregular writes — and the
//! resulting true/false cache-line sharing — that make PRD the
//! coherence-heavy workload of the paper's Fig. 9.

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, Tracer};
use lgr_graph::{Csr, VertexId};

use crate::arrays::{register_property, CsrArrays};
use crate::frontier::Frontier;
use crate::schedule::Schedule;

/// PageRank-Delta parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrdConfig {
    /// Damping factor.
    pub damping: f64,
    /// A vertex re-activates when its accumulated delta exceeds this
    /// fraction of its rank.
    pub epsilon: f64,
    /// First-iteration activation floor (all vertices start active).
    pub epsilon2: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Simulated cores.
    pub cores: usize,
}

impl Default for PrdConfig {
    fn default() -> Self {
        PrdConfig {
            damping: 0.85,
            epsilon: 0.01,
            epsilon2: 1e-9,
            max_iters: 20,
            cores: 8,
        }
    }
}

/// PageRank-Delta output.
#[derive(Debug, Clone, PartialEq)]
pub struct PrdResult {
    /// Approximate rank per vertex.
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Total vertex activations across all iterations.
    pub activations: u64,
}

/// Layout handles for the arrays PageRank-Delta touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrdArrays {
    /// Out-edge CSR (push traversal).
    pub csr_out: CsrArrays,
    /// Accumulated rank (8 B).
    pub rank: ArrayId,
    /// Delta being pushed this iteration (8 B).
    pub delta: ArrayId,
    /// Neighbor-sum accumulator — the irregular *write* target whose
    /// sharing generates coherence traffic (8 B).
    pub ngh_sum: ArrayId,
}

impl PrdArrays {
    /// Registers PRD's arrays for `graph` in `layout`.
    pub fn register(layout: &mut MemoryLayout, graph: &Csr) -> Self {
        PrdArrays {
            csr_out: CsrArrays::register_out(layout, graph),
            rank: register_property(layout, "prd_rank", graph, 8, AccessPattern::Streaming),
            delta: register_property(layout, "prd_delta", graph, 8, AccessPattern::Irregular),
            ngh_sum: register_property(layout, "prd_nghsum", graph, 8, AccessPattern::Irregular),
        }
    }
}

/// Runs PageRank-Delta with a private array registration.
pub fn pagerank_delta<T: Tracer>(graph: &Csr, cfg: &PrdConfig, tracer: &mut T) -> PrdResult {
    let mut layout = MemoryLayout::new();
    let arrays = PrdArrays::register(&mut layout, graph);
    pagerank_delta_with_arrays(graph, cfg, &arrays, tracer)
}

/// Runs PageRank-Delta charging accesses against pre-registered arrays.
pub(crate) fn pagerank_delta_with_arrays<T: Tracer>(
    graph: &Csr,
    cfg: &PrdConfig,
    arrays: &PrdArrays,
    tracer: &mut T,
) -> PrdResult {
    let n = graph.num_vertices();
    if n == 0 {
        return PrdResult {
            ranks: Vec::new(),
            iterations: 0,
            activations: 0,
        };
    }
    let schedule = Schedule::new(n, cfg.cores);
    let one_over_n = 1.0 / n as f64;
    let mut rank = vec![0.0f64; n];
    // With rank starting at 0 and the initial delta equal to the base
    // rank term, every subsequent delta is pure propagation:
    // delta'[v] = damping * sum(delta[u] / outdeg[u]), and rank
    // converges to PageRank.
    let mut delta = vec![(1.0 - cfg.damping) * one_over_n; n];
    let mut ngh_sum = vec![0.0f64; n];
    let mut frontier = Frontier::full(n);
    let mut activations = 0u64;
    let mut iterations = 0usize;

    for iter in 0..cfg.max_iters {
        if frontier.is_empty() {
            break;
        }
        iterations += 1;
        activations += frontier.len() as u64;

        // Phase 1 (push): active vertices commit their delta and push
        // the scaled delta through every out-edge.
        for (core, range) in schedule.interleaved() {
            for v in range {
                let vid = v as VertexId;
                if !frontier.contains(vid) {
                    continue;
                }
                rank[v] += delta[v];
                tracer.read(core, arrays.delta, v);
                tracer.write(core, arrays.rank, v);
                tracer.read(core, arrays.csr_out.vtx, v);
                let deg = graph.out_degree(vid);
                if deg == 0 {
                    tracer.instr(8);
                    continue;
                }
                let share = delta[v] / deg as f64;
                let off = graph.out_edge_offset(vid);
                for (i, &u) in graph.out_neighbors(vid).iter().enumerate() {
                    tracer.read(core, arrays.csr_out.edge, off + i);
                    // Unconditional scattered read-modify-write: the
                    // source of PRD's coherence traffic.
                    tracer.read(core, arrays.ngh_sum, u as usize);
                    tracer.write(core, arrays.ngh_sum, u as usize);
                    ngh_sum[u as usize] += share;
                }
                tracer.instr(10 + 7 * deg as u64);
            }
        }

        // Phase 2 (vertex map): fold neighbor sums into new deltas and
        // decide the next frontier.
        frontier.clear();
        for (core, range) in schedule.interleaved() {
            for v in range {
                tracer.read(core, arrays.ngh_sum, v);
                let nd = cfg.damping * ngh_sum[v];
                let threshold = if iter == 0 {
                    cfg.epsilon2
                } else {
                    cfg.epsilon * rank[v].max(one_over_n)
                };
                delta[v] = nd;
                tracer.write(core, arrays.delta, v);
                if nd.abs() > threshold {
                    frontier.add(v as VertexId);
                }
                ngh_sum[v] = 0.0;
                tracer.write(core, arrays.ngh_sum, v);
                tracer.instr(12);
            }
        }
    }

    PrdResult {
        ranks: rank,
        iterations,
        activations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_cachesim::NullTracer;
    use lgr_graph::EdgeList;

    fn cycle(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n {
            el.push(i as VertexId, ((i + 1) % n) as VertexId);
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn approximates_pagerank_on_cycle() {
        let g = cycle(10);
        let r = pagerank_delta(
            &g,
            &PrdConfig {
                max_iters: 100,
                epsilon: 1e-4,
                ..Default::default()
            },
            &mut NullTracer,
        );
        // On a symmetric cycle all ranks are equal (0.1 in the limit).
        for &x in &r.ranks {
            assert!((x - 0.1).abs() < 0.01, "rank {x}");
        }
    }

    #[test]
    fn frontier_shrinks_over_time() {
        let g = cycle(64);
        let r = pagerank_delta(
            &g,
            &PrdConfig {
                max_iters: 50,
                ..Default::default()
            },
            &mut NullTracer,
        );
        // With epsilon filtering, the run stops well before processing
        // every vertex every iteration.
        assert!(
            r.activations < 50 * 64,
            "activations {} should be filtered",
            r.activations
        );
        assert!(r.iterations >= 2);
    }

    #[test]
    fn agrees_with_full_pagerank_ordering() {
        // Hub graph: PRD should rank the hub highest, like PR.
        let mut el = EdgeList::new(6);
        for i in 1..6 {
            el.push(i, 0);
            el.push(0, i);
        }
        let g = Csr::from_edge_list(&el);
        let r = pagerank_delta(
            &g,
            &PrdConfig {
                max_iters: 60,
                epsilon: 1e-5,
                ..Default::default()
            },
            &mut NullTracer,
        );
        for i in 1..6 {
            assert!(r.ranks[0] > r.ranks[i]);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let r = pagerank_delta(&g, &PrdConfig::default(), &mut NullTracer);
        assert!(r.ranks.is_empty());
    }
}
