//! PageRank — pull-only, all vertices active every iteration.
//!
//! The canonical iterative rank computation [Page et al.]: each
//! iteration, every vertex pulls the scaled ranks of its in-neighbors.
//! Per Table VIII the irregular working set is 12 bytes per vertex:
//! the 8-byte previous-rank entry and the 4-byte out-degree, both
//! indexed by in-neighbor ID.
//!
//! One per-vertex pull body serves two entry points: the traced kernel
//! visits vertices in the simulated cores' interleaved order, and the
//! untraced [`pagerank_pooled`] fills edge-balanced vertex ranges on a
//! [`Pool`].

use lgr_cachesim::{AccessPattern, ArrayId, MemoryLayout, NullTracer, Tracer};
use lgr_graph::{Csr, VertexId};
use lgr_parallel::{edge_balanced_ranges, par_fill_ranges, Pool};

use crate::arrays::{register_property, CsrArrays};
use crate::schedule::Schedule;

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrConfig {
    /// Damping factor (0.85 as standard).
    pub damping: f64,
    /// Stop when the L1 rank delta falls below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Simulated cores for work partitioning.
    pub cores: usize,
}

impl Default for PrConfig {
    fn default() -> Self {
        PrConfig {
            damping: 0.85,
            tolerance: 1e-7,
            max_iters: 20,
            cores: 8,
        }
    }
}

/// PageRank output.
#[derive(Debug, Clone, PartialEq)]
pub struct PrResult {
    /// Final rank per vertex; sums to 1.
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Layout handles for the arrays PageRank touches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrArrays {
    /// In-edge CSR (pull traversal).
    pub csr_in: CsrArrays,
    /// Previous-iteration ranks (8 B, irregular reads by neighbor ID).
    pub prev: ArrayId,
    /// Current-iteration ranks (8 B, sequential writes).
    pub curr: ArrayId,
    /// Out-degrees (4 B, irregular reads by neighbor ID).
    pub out_deg: ArrayId,
}

impl PrArrays {
    /// Registers PageRank's arrays for `graph` in `layout`.
    pub fn register(layout: &mut MemoryLayout, graph: &Csr) -> Self {
        PrArrays {
            csr_in: CsrArrays::register_in(layout, graph),
            prev: register_property(layout, "pr_prev", graph, 8, AccessPattern::Irregular),
            curr: register_property(layout, "pr_curr", graph, 8, AccessPattern::Streaming),
            out_deg: register_property(layout, "pr_outdeg", graph, 4, AccessPattern::Irregular),
        }
    }
}

/// Runs PageRank with a private array registration.
pub fn pagerank<T: Tracer>(graph: &Csr, cfg: &PrConfig, tracer: &mut T) -> PrResult {
    let mut layout = MemoryLayout::new();
    let arrays = PrArrays::register(&mut layout, graph);
    pagerank_with_arrays(graph, cfg, &arrays, tracer)
}

/// Runs PageRank charging accesses against pre-registered arrays.
///
/// Vertices are visited in [`Schedule::interleaved`] order, the
/// model of concurrent cores the simulator sees.
pub(crate) fn pagerank_with_arrays<T: Tracer>(
    graph: &Csr,
    cfg: &PrConfig,
    arrays: &PrArrays,
    tracer: &mut T,
) -> PrResult {
    iterate(graph, cfg, arrays, |sweep, curr| {
        for (core, range) in Schedule::new(curr.len(), cfg.cores).interleaved() {
            for v in range {
                curr[v] = sweep.pull(v, core, tracer);
            }
        }
    })
}

/// Runs PageRank untraced on `pool`: each iteration's pull is split
/// into contiguous vertex ranges of near-equal in-edge mass
/// ([`edge_balanced_ranges`]), one per worker, so hub-first orderings
/// do not load one worker with every hub. The dangling sum and the
/// convergence delta stay sequential, and every rank comes from the
/// same per-vertex body as the traced kernel's, so the ranks are
/// bitwise identical to [`pagerank`]'s for any pool size.
pub fn pagerank_pooled(graph: &Csr, cfg: &PrConfig, pool: &Pool) -> PrResult {
    let arrays = PrArrays::register(&mut MemoryLayout::new(), graph);
    let ranges = edge_balanced_ranges(graph.in_offsets(), pool.threads());
    iterate(graph, cfg, &arrays, |sweep, curr| {
        par_fill_ranges(pool, curr, &ranges, |v| sweep.pull(v, 0, &mut NullTracer));
    })
}

/// One iteration's read-only inputs to the per-vertex pull.
struct Sweep<'a> {
    graph: &'a Csr,
    arrays: &'a PrArrays,
    prev: &'a [f64],
    /// Every vertex's out-degree: the 4-byte `pr_outdeg` array the
    /// trace charges, read instead of two 8-byte CSR offsets per edge.
    out_deg: &'a [u32],
    damping: f64,
    /// Teleport plus dangling share, added to every vertex.
    shift: f64,
}

impl Sweep<'_> {
    /// Vertex `v`'s new rank, charging its accesses to `core`.
    #[inline]
    fn pull<T: Tracer>(&self, v: usize, core: usize, tracer: &mut T) -> f64 {
        let (graph, arrays) = (self.graph, self.arrays);
        let vid = v as VertexId;
        let off = graph.in_edge_offset(vid);
        tracer.read(core, arrays.csr_in.vtx, v);
        let mut sum = 0.0f64;
        for (i, &u) in graph.in_neighbors(vid).iter().enumerate() {
            tracer.read(core, arrays.csr_in.edge, off + i);
            tracer.read(core, arrays.prev, u as usize);
            tracer.read(core, arrays.out_deg, u as usize);
            sum += self.prev[u as usize] / self.out_deg[u as usize].max(1) as f64;
        }
        tracer.write(core, arrays.curr, v);
        tracer.instr(10 + 6 * graph.in_degree(vid) as u64);
        self.shift + self.damping * sum
    }
}

/// The iteration loop both entry points share; `sweep_into` fills
/// every entry of `curr` from the iteration's [`Sweep`].
fn iterate(
    graph: &Csr,
    cfg: &PrConfig,
    arrays: &PrArrays,
    mut sweep_into: impl FnMut(&Sweep<'_>, &mut [f64]),
) -> PrResult {
    let n = graph.num_vertices();
    if n == 0 {
        return PrResult {
            ranks: Vec::new(),
            iterations: 0,
        };
    }
    let mut prev = vec![1.0 / n as f64; n];
    let mut curr = vec![0.0f64; n];
    let out_deg = graph.out_degrees();
    let base = (1.0 - cfg.damping) / n as f64;

    let mut iterations = 0;
    for _ in 0..cfg.max_iters {
        iterations += 1;
        // Dangling mass is redistributed uniformly so ranks stay a
        // distribution.
        let dangling: f64 = out_deg
            .iter()
            .zip(&prev)
            .filter(|&(&d, _)| d == 0)
            .map(|(_, &p)| p)
            .sum();
        let dangling_share = cfg.damping * dangling / n as f64;
        let sweep = Sweep {
            graph,
            arrays,
            prev: &prev,
            out_deg: &out_deg,
            damping: cfg.damping,
            shift: base + dangling_share,
        };
        sweep_into(&sweep, &mut curr);

        let delta: f64 = curr
            .iter()
            .zip(prev.iter())
            .map(|(c, p)| (c - p).abs())
            .sum();
        std::mem::swap(&mut prev, &mut curr);
        if delta < cfg.tolerance {
            break;
        }
    }
    PrResult {
        ranks: prev,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_cachesim::{CountingTracer, NullTracer};
    use lgr_graph::EdgeList;

    fn cycle(n: usize) -> Csr {
        let mut el = EdgeList::new(n);
        for i in 0..n {
            el.push(i as VertexId, ((i + 1) % n) as VertexId);
        }
        Csr::from_edge_list(&el)
    }

    #[test]
    fn uniform_on_cycle() {
        // On a directed cycle every vertex has identical rank.
        let g = cycle(10);
        let r = pagerank(&g, &PrConfig::default(), &mut NullTracer);
        for &x in &r.ranks {
            assert!((x - 0.1).abs() < 1e-9, "rank {x}");
        }
    }

    #[test]
    fn ranks_sum_to_one_with_dangling() {
        // Vertex 2 is dangling (no out-edges).
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push(1, 2);
        let g = Csr::from_edge_list(&el);
        let r = pagerank(&g, &PrConfig::default(), &mut NullTracer);
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn hub_outranks_leaves() {
        // Everyone points at vertex 0.
        let mut el = EdgeList::new(5);
        for i in 1..5 {
            el.push(i, 0);
        }
        let g = Csr::from_edge_list(&el);
        let r = pagerank(&g, &PrConfig::default(), &mut NullTracer);
        for i in 1..5 {
            assert!(r.ranks[0] > r.ranks[i], "hub should dominate");
        }
    }

    #[test]
    fn converges_before_cap() {
        let g = cycle(16);
        let r = pagerank(
            &g,
            &PrConfig {
                max_iters: 100,
                ..Default::default()
            },
            &mut NullTracer,
        );
        assert!(r.iterations < 100, "cycle converges fast: {}", r.iterations);
    }

    #[test]
    fn traces_expected_access_counts() {
        let g = cycle(8); // 8 vertices, 8 edges
        let mut t = CountingTracer::default();
        let cfg = PrConfig {
            max_iters: 1,
            ..Default::default()
        };
        pagerank(&g, &cfg, &mut t);
        // Per iteration: per vertex 1 vtx read + 1 curr write; per edge
        // 1 edge read + 1 prev read + 1 deg read.
        assert_eq!(t.writes, 8);
        assert_eq!(t.reads, 8 + 3 * 8);
        assert!(t.instructions > 0);
    }

    /// The traced run and the untraced run produce identical results
    /// (the tracer must be purely observational).
    #[test]
    fn tracing_does_not_change_results() {
        use lgr_cachesim::{MemorySim, SimConfig};
        use lgr_graph::datasets::{build, DatasetId, DatasetScale};

        let g = Csr::from_edge_list(&build(DatasetId::Pl, DatasetScale::tiny()));
        let cfg = PrConfig {
            max_iters: 5,
            tolerance: 0.0,
            ..Default::default()
        };
        let untraced = pagerank(&g, &cfg, &mut NullTracer);

        let mut layout = MemoryLayout::new();
        let arrays = PrArrays::register(&mut layout, &g);
        let mut sim = MemorySim::new(SimConfig::default(), layout);
        let traced = pagerank_with_arrays(&g, &cfg, &arrays, &mut sim);

        assert_eq!(untraced.ranks, traced.ranks);
        assert!(sim.stats().l1.accesses > 0, "tracer observed the run");
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        let r = pagerank(&g, &PrConfig::default(), &mut NullTracer);
        assert!(r.ranks.is_empty());
        assert_eq!(pagerank_pooled(&g, &PrConfig::default(), &Pool::new(2)), r);
    }

    #[test]
    fn pooled_ranks_are_bitwise_the_traced_kernels() {
        use lgr_core::{Dbg, ReorderingTechnique};
        use lgr_graph::{gen, DegreeKind};

        let g = Csr::from_edge_list(&gen::rmat(gen::RmatConfig::new(10, 8).with_seed(3)));
        // Under DBG the hubs sit first, so the in-edge-mass split
        // gives the first worker far fewer vertices than the rest.
        let dbg = g.apply_permutation(&Dbg::default().reorder(&g, DegreeKind::Out));
        let cfg = PrConfig {
            max_iters: 6,
            ..Default::default()
        };
        let bits = |r: &PrResult| r.ranks.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for graph in [&g, &dbg] {
            let traced = pagerank(graph, &cfg, &mut NullTracer);
            for threads in [1, 2, 3] {
                let pooled = pagerank_pooled(graph, &cfg, &Pool::new(threads));
                assert_eq!(pooled.iterations, traced.iterations, "{threads} threads");
                assert_eq!(bits(&pooled), bits(&traced), "{threads} threads");
            }
        }
    }
}
