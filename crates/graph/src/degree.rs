//! Degree selection and the hot/cold threshold.
//!
//! The paper's skew-aware techniques reorder by in-degree or out-degree
//! depending on the application's computation model (Table VIII): pull
//! apps reuse the properties of *out*-neighbors' sources, push apps the
//! *in*-degree side. [`DegreeKind`] selects which degree drives a
//! reordering; the hot/cold threshold is the dataset's average degree
//! unless stated otherwise, exactly as in the paper.

use std::ops::Range;

use lgr_parallel::{even_ranges, par_chunks_mut, Pool};

use crate::Csr;

/// Which degree of a vertex a reordering technique should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DegreeKind {
    /// In-degree (used by push-dominated applications: SSSP, PRD).
    In,
    /// Out-degree (used by pull-dominated applications: BC, PR, Radii).
    #[default]
    Out,
}

impl DegreeKind {
    /// Extracts the selected degree for every vertex of `graph`:
    /// [`DegreeKind::degrees_with`] on a pool of one.
    pub fn degrees(self, graph: &Csr) -> Vec<u32> {
        self.degrees_with(graph, &Pool::new(1))
    }

    /// Extracts the selected degree of every vertex on the pool. The
    /// output is the same for every pool size (degree reads are pure).
    pub fn degrees_with(self, graph: &Csr, pool: &Pool) -> Vec<u32> {
        let offsets = match self {
            DegreeKind::In => graph.in_offsets(),
            DegreeKind::Out => graph.out_offsets(),
        };
        let mut d = vec![0u32; graph.num_vertices()];
        let ranges = even_ranges(d.len(), pool.threads());
        par_chunks_mut(pool, &mut d, &ranges, |_, range, chunk| {
            fill(chunk, offset_gaps(offsets, range))
        });
        d
    }
}

/// The degrees of the vertices in `range`: gaps between adjacent CSR
/// offsets, read as windows so the walk needs no bounds checks.
fn offset_gaps(offsets: &[usize], range: Range<usize>) -> impl Iterator<Item = u32> + '_ {
    offsets[range.start..=range.end]
        .windows(2)
        .map(|w| (w[1] - w[0]) as u32)
}

fn fill(chunk: &mut [u32], values: impl Iterator<Item = u32>) {
    for (slot, v) in chunk.iter_mut().zip(values) {
        *slot = v;
    }
}

/// Average of a degree vector (0.0 if empty). The hot/cold threshold of
/// the paper: a vertex is *hot* when `degree >= average`.
pub fn average_degree(degrees: &[u32]) -> f64 {
    if degrees.is_empty() {
        0.0
    } else {
        degrees.iter().map(|&d| d as u64).sum::<u64>() as f64 / degrees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn star() -> Csr {
        // 1,2,3 all point at 0; 0 points at 1.
        let mut el = EdgeList::new(4);
        el.push(1, 0);
        el.push(2, 0);
        el.push(3, 0);
        el.push(0, 1);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn degree_kinds() {
        let g = star();
        assert_eq!(DegreeKind::In.degrees(&g), vec![3, 1, 0, 0]);
        assert_eq!(DegreeKind::Out.degrees(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn average_and_hot_mask() {
        let d = vec![3, 1, 0, 0];
        assert_eq!(average_degree(&d), 1.0);
    }

    #[test]
    fn average_of_empty_is_zero() {
        assert_eq!(average_degree(&[]), 0.0);
    }

    #[test]
    fn default_is_out() {
        assert_eq!(DegreeKind::default(), DegreeKind::Out);
    }
}
