//! The five graph applications of the paper's Table VII.
//!
//! Every application is generic over a [`lgr_cachesim::Tracer`] and
//! charges the simulator with the same access stream the algorithm
//! performs: streaming reads of the CSR vertex/edge arrays plus the
//! irregular property-array accesses whose locality reordering
//! manipulates. Instruction counts are charged alongside so MPKI is
//! meaningful.

pub mod bc;
pub mod pagerank;
pub mod pagerank_delta;
pub mod radii;
pub mod sssp;

pub use bc::{bc, BcConfig, BcResult};
pub use pagerank::{pagerank, pagerank_pooled, PrConfig, PrResult};
pub use pagerank_delta::{pagerank_delta, PrdConfig, PrdResult};
pub use radii::{radii, RadiiConfig, RadiiResult, RADII_MASK_WIDTH};
pub use sssp::{sssp, SsspConfig, SsspResult};

use lgr_cachesim::{MemoryLayout, NullTracer, Tracer};
use lgr_graph::{Csr, DegreeKind, Directions, VertexId};
use lgr_parallel::Pool;

use bc::{bc_with_arrays, BcArrays};
use pagerank::{pagerank_with_arrays, PrArrays};
use pagerank_delta::{pagerank_delta_with_arrays, PrdArrays};
use radii::{radii_with_arrays, RadiiArrays};
use sssp::{sssp_with_arrays, SsspArrays};

/// The fixed amount of work one run of an application does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// PR's and PRD's iteration cap, Radii's round cap. SSSP and BC
    /// run each traversal to the end and ignore it.
    pub iters: usize,
    /// Simulated cores the kernel splits its vertices among.
    pub cores: usize,
}

impl Work {
    /// PageRank for `iters` iterations, never stopping early.
    fn pr(self) -> PrConfig {
        PrConfig {
            max_iters: self.iters,
            tolerance: 0.0,
            cores: self.cores,
            ..Default::default()
        }
    }
}

/// Identifier for one of the five evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Betweenness Centrality (pull-push BFS kernel).
    Bc,
    /// Single-Source Shortest Path, Bellman–Ford (push-only).
    Sssp,
    /// PageRank (pull-only).
    Pr,
    /// PageRank-Delta (push-only).
    Prd,
    /// Radii estimation via multi-source BFS (pull-push).
    Radii,
}

impl AppId {
    /// The five applications in the paper's display order.
    pub const ALL: [AppId; 5] = [AppId::Bc, AppId::Sssp, AppId::Pr, AppId::Prd, AppId::Radii];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Bc => "BC",
            AppId::Sssp => "SSSP",
            AppId::Pr => "PR",
            AppId::Prd => "PRD",
            AppId::Radii => "Radii",
        }
    }

    /// Which degree the reordering techniques should use for this
    /// application (paper Table VIII): out-degree for pull-dominated
    /// apps, in-degree for push-dominated ones.
    pub fn reorder_degree(self) -> DegreeKind {
        match self {
            AppId::Bc | AppId::Pr | AppId::Radii => DegreeKind::Out,
            AppId::Sssp | AppId::Prd => DegreeKind::In,
        }
    }

    /// Which CSR directions this application's kernels read, traced
    /// or pooled: PR pulls along in-edges (its out-degrees come from
    /// the out-index, which every relabel keeps), PRD and SSSP push
    /// along out-edges, and BC and Radii pull and push.
    pub fn reads(self) -> Directions {
        match self {
            AppId::Pr => Directions::In,
            AppId::Prd | AppId::Sssp => Directions::Out,
            AppId::Bc | AppId::Radii => Directions::Both,
        }
    }

    /// Looks an application up by display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Registers this app's arrays in a fresh layout, builds the
    /// tracer from that layout, runs `work` into it and returns it.
    /// SSSP and BC traverse once from each root, all into the one
    /// tracer; Radii takes `roots` as its sources; PR and PRD ignore
    /// them.
    ///
    /// Takes no [`Pool`]: a traced run may be one worker's share of a
    /// pool broadcast, and the pool's gate is not reentrant.
    pub fn trace<T: Tracer>(
        self,
        graph: &Csr,
        work: Work,
        roots: &[VertexId],
        tracer: impl FnOnce(MemoryLayout) -> T,
    ) -> T {
        let cores = work.cores;
        let mut layout = MemoryLayout::new();
        match self {
            AppId::Pr => {
                let arrays = PrArrays::register(&mut layout, graph);
                let mut t = tracer(layout);
                pagerank_with_arrays(graph, &work.pr(), &arrays, &mut t);
                t
            }
            AppId::Prd => {
                let arrays = PrdArrays::register(&mut layout, graph);
                let mut t = tracer(layout);
                let cfg = PrdConfig {
                    max_iters: work.iters,
                    cores,
                    ..Default::default()
                };
                pagerank_delta_with_arrays(graph, &cfg, &arrays, &mut t);
                t
            }
            AppId::Sssp => {
                let arrays = SsspArrays::register(&mut layout, graph);
                let mut t = tracer(layout);
                for &root in roots {
                    let cfg = SsspConfig {
                        cores,
                        ..SsspConfig::from_root(root)
                    };
                    sssp_with_arrays(graph, &cfg, &arrays, &mut t);
                }
                t
            }
            AppId::Bc => {
                let arrays = BcArrays::register(&mut layout, graph);
                let mut t = tracer(layout);
                for &root in roots {
                    bc_with_arrays(graph, &BcConfig { root, cores }, &arrays, &mut t);
                }
                t
            }
            AppId::Radii => {
                let arrays = RadiiArrays::register(&mut layout, graph);
                let mut t = tracer(layout);
                let cfg = RadiiConfig {
                    max_rounds: work.iters,
                    cores,
                    ..RadiiConfig::from_sources(roots.to_vec())
                };
                radii_with_arrays(graph, &cfg, &arrays, &mut t);
                t
            }
        }
    }

    /// Runs the work of [`AppId::trace`] untraced, on `pool`:
    ///
    /// * PageRank splits each iteration's pull by in-edge mass
    ///   ([`pagerank_pooled`]); its ranks are bitwise those of the
    ///   traced kernel.
    /// * SSSP and BC run their roots in parallel, worker `w` of `t`
    ///   taking roots `w, w + t, …`, each traversal with its own
    ///   state.
    /// * PageRank-Delta stays sequential: it pushes float deltas into
    ///   shared sums, so parallel pushes would make its ranks depend
    ///   on thread timing. So does Radii, which is one multi-source
    ///   traversal rather than independent ones.
    ///
    /// With one pool thread every app runs the sequential kernel
    /// [`AppId::trace`] runs.
    pub fn run_pooled(self, graph: &Csr, work: Work, roots: &[VertexId], pool: &Pool) {
        let threads = pool.threads();
        match self {
            AppId::Pr if threads > 1 => {
                pagerank_pooled(graph, &work.pr(), pool);
            }
            AppId::Sssp | AppId::Bc if threads > 1 => for_each_root(pool, roots, |root| {
                self.trace(graph, work, &[root], |_| NullTracer);
            }),
            _ => {
                self.trace(graph, work, roots, |_| NullTracer);
            }
        }
    }
}

/// Runs `traverse(root)` for every root on `pool`, worker `w` of `t`
/// taking roots `w, w + t, …`.
fn for_each_root(pool: &Pool, roots: &[VertexId], traverse: impl Fn(VertexId) + Sync) {
    let threads = pool.threads();
    pool.broadcast(|worker| {
        for &root in roots.iter().skip(worker).step_by(threads) {
            traverse(root);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_viii_degree_kinds() {
        assert_eq!(AppId::Bc.reorder_degree(), DegreeKind::Out);
        assert_eq!(AppId::Sssp.reorder_degree(), DegreeKind::In);
        assert_eq!(AppId::Pr.reorder_degree(), DegreeKind::Out);
        assert_eq!(AppId::Prd.reorder_degree(), DegreeKind::In);
        assert_eq!(AppId::Radii.reorder_degree(), DegreeKind::Out);
    }

    #[test]
    fn read_sets() {
        assert_eq!(AppId::Bc.reads(), Directions::Both);
        assert_eq!(AppId::Sssp.reads(), Directions::Out);
        assert_eq!(AppId::Pr.reads(), Directions::In);
        assert_eq!(AppId::Prd.reads(), Directions::Out);
        assert_eq!(AppId::Radii.reads(), Directions::Both);
    }

    #[test]
    fn each_app_runs_on_a_graph_relabelled_with_only_what_it_reads() {
        use lgr_cachesim::{MemorySim, SimConfig};
        use lgr_graph::datasets::{build, DatasetId, DatasetScale};

        // Weighted, so SSSP reads its weights; a random order, so no
        // relabelled list is the original's.
        let mut el = build(DatasetId::Sd, DatasetScale::with_sd_vertices(1 << 9));
        el.randomize_weights(64, 1);
        let g = Csr::from_edge_list(&el);
        let perm = lgr_graph::gen::random_permutation(g.num_vertices(), 5);
        let seq = Pool::new(1);
        let full = g.relabel_with(&perm, Directions::Both, &seq);
        let roots: Vec<VertexId> = (0..full.num_vertices() as VertexId)
            .filter(|&v| full.out_degree(v) > 0 && full.in_degree(v) > 0)
            .step_by(31)
            .take(4)
            .collect();
        let work = Work { iters: 3, cores: 2 };
        let sim = |graph: &Csr, app: AppId| {
            let t = app.trace(graph, work, &roots, |layout| {
                MemorySim::new(SimConfig::default(), layout)
            });
            *t.stats()
        };
        for app in AppId::ALL {
            let read = g.relabel_with(&perm, app.reads(), &seq);
            assert_eq!(sim(&read, app), sim(&full, app), "{}", app.name());
            for threads in [1, 2, 3] {
                app.run_pooled(&read, work, &roots, &Pool::new(threads));
            }
        }
    }

    #[test]
    fn pooled_roots_match_the_sequential_root_loop() {
        use lgr_graph::datasets::{build, DatasetId, DatasetScale};
        use std::sync::Mutex;

        let mut el = build(DatasetId::Sd, DatasetScale::with_sd_vertices(1 << 11));
        el.randomize_weights(64, 1);
        let g = Csr::from_edge_list(&el);
        let traverse = |root| {
            let dist = sssp(&g, &SsspConfig::from_root(root), &mut NullTracer).distances;
            let scores = bc(&g, &BcConfig::from_root(root), &mut NullTracer).scores;
            (root, dist, scores)
        };
        // Five roots: neither two nor three workers divide them.
        let roots: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| g.out_degree(v) > 0 && g.in_degree(v) > 0)
            .step_by(97)
            .take(5)
            .collect();
        assert_eq!(roots.len(), 5);
        let sequential: Vec<_> = roots.iter().map(|&r| traverse(r)).collect();
        for threads in [1, 2, 3] {
            let results = Mutex::new(Vec::new());
            for_each_root(&Pool::new(threads), &roots, |root| {
                results.lock().unwrap().push(traverse(root));
            });
            let mut pooled = results.into_inner().unwrap();
            pooled.sort_by_key(|(root, ..)| roots.iter().position(|r| r == root));
            assert_eq!(pooled, sequential, "{threads} threads");
        }
    }

    #[test]
    fn names_round_trip() {
        for a in AppId::ALL {
            assert_eq!(AppId::from_name(a.name()), Some(a));
        }
        assert_eq!(AppId::from_name("pr"), Some(AppId::Pr));
        assert_eq!(AppId::from_name("nope"), None);
    }
}
