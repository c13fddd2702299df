//! The reordering technique abstraction.

use std::time::{Duration, Instant};

use lgr_graph::{Csr, DegreeKind, Permutation};
use lgr_parallel::Pool;

/// A vertex reordering technique.
///
/// A technique inspects a graph and produces a [`Permutation`] mapping
/// original vertex IDs to new IDs. Reordering never changes the graph
/// itself — only where each vertex's data lives in memory.
///
/// Implementations write one body,
/// [`reorder_with`](ReorderingTechnique::reorder_with);
/// [`reorder`](ReorderingTechnique::reorder) runs it on a pool of one.
/// A technique carries no display name: its `Debug` form identifies it
/// in test messages, and reports take their labels from the spec that
/// built it (`lgr_engine::TechniqueSpec::label`).
pub trait ReorderingTechnique: std::fmt::Debug {
    /// Computes the relabeling for `graph` on `pool`.
    ///
    /// `kind` selects which degree drives hot/cold decisions; the
    /// paper's methodology picks it per application (Table VIII:
    /// out-degree for pull-dominated apps, in-degree for push-dominated
    /// ones). Techniques that don't use degrees may ignore it.
    ///
    /// Techniques built on the grouping framework run degree
    /// extraction and stable binning on the pool; inherently
    /// sequential ones (Gorder, the random probes) ignore it.
    /// Every implementation must return the same permutation for every
    /// pool size: the pool only changes *how fast* a relabeling is
    /// computed, never *which*.
    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, pool: &Pool) -> Permutation;

    /// [`ReorderingTechnique::reorder_with`] on a pool of one: the same
    /// code, inline on the calling thread.
    fn reorder(&self, graph: &Csr, kind: DegreeKind) -> Permutation {
        self.reorder_with(graph, kind, &Pool::new(1))
    }
}

/// The do-nothing baseline: every vertex keeps its ID.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl ReorderingTechnique for Identity {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        Permutation::identity(graph.num_vertices())
    }
}

/// A permutation together with how long it took to compute — the raw
/// material of the paper's net-speedup analysis (Figs. 10–11,
/// Tables XI–XII).
#[derive(Debug, Clone)]
pub struct TimedReorder {
    /// The computed relabeling.
    pub permutation: Permutation,
    /// Wall-clock time spent computing it.
    pub elapsed: Duration,
}

impl TimedReorder {
    /// Runs `technique` on the pool and records the elapsed wall time
    /// (the paper's reordering implementations are themselves
    /// parallel, so pooled timings are the fair input to the
    /// net-speedup analysis).
    pub fn run_with<T: ReorderingTechnique + ?Sized>(
        technique: &T,
        graph: &Csr,
        kind: DegreeKind,
        pool: &Pool,
    ) -> TimedReorder {
        let start = Instant::now();
        let permutation = technique.reorder_with(graph, kind, pool);
        TimedReorder {
            permutation,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    #[test]
    fn identity_is_identity() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        let g = Csr::from_edge_list(&el);
        let p = Identity.reorder(&g, DegreeKind::Out);
        assert!(p.is_identity());
    }

    #[test]
    fn timed_reorder_measures() {
        let mut el = EdgeList::new(64);
        for i in 0..63 {
            el.push(i, i + 1);
        }
        let g = Csr::from_edge_list(&el);
        let t = TimedReorder::run_with(&Identity, &g, DegreeKind::Out, &Pool::new(1));
        assert!(t.permutation.is_identity());
    }
}
