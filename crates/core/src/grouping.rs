//! The skew-aware reordering techniques, all built on the
//! [`framework`](crate::framework) grouping algorithm.

use lgr_graph::{Csr, DegreeKind, Permutation};
use lgr_parallel::Pool;

use crate::framework::{group_reorder_with, GroupingSpec};
use crate::technique::ReorderingTechnique;

fn max_degree(degrees: &[u32]) -> u32 {
    degrees.iter().copied().max().unwrap_or(0)
}

fn avg_degree(degrees: &[u32]) -> f64 {
    lgr_graph::average_degree(degrees)
}

/// The one body of every framework technique: degrees on the pool,
/// then the technique's spec for them, then stable binning.
fn bin_by_degree(
    graph: &Csr,
    kind: DegreeKind,
    pool: &Pool,
    spec_for: impl FnOnce(&[u32]) -> GroupingSpec,
) -> Permutation {
    let degrees = kind.degrees_with(graph, pool);
    let spec = spec_for(&degrees);
    group_reorder_with(&degrees, &spec, pool)
}

/// **Sort**: relabels vertices in descending order of degree.
///
/// Minimizes the cache footprint of hot vertices but completely
/// destroys any structure in the original ordering (Sec. III-C).
///
/// # Example
///
/// ```
/// use lgr_core::{ReorderingTechnique, Sort};
/// use lgr_graph::{Csr, DegreeKind, EdgeList};
///
/// let mut el = EdgeList::new(3);
/// el.push(0, 2);
/// el.push(1, 2);
/// let g = Csr::from_edge_list(&el);
/// let p = Sort::new().reorder(&g, DegreeKind::In);
/// assert_eq!(p.new_id(2), 0); // highest in-degree vertex goes first
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sort;

impl Sort {
    /// Creates the Sort technique.
    pub fn new() -> Self {
        Sort
    }
}

impl ReorderingTechnique for Sort {
    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, pool: &Pool) -> Permutation {
        bin_by_degree(graph, kind, pool, |d| GroupingSpec::sort(max_degree(d)))
    }
}

/// **Hub Sorting** (Zhang et al., a.k.a. frequency-based clustering):
/// sorts hot vertices by descending degree, preserves the relative
/// order of cold vertices.
///
/// Implemented, as in the paper's evaluation (Sec. V-C), through the
/// grouping framework: one group per distinct hot degree plus a single
/// cold group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubSort;

impl HubSort {
    /// Creates the HubSort technique.
    pub fn new() -> Self {
        HubSort
    }
}

impl ReorderingTechnique for HubSort {
    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, pool: &Pool) -> Permutation {
        bin_by_degree(graph, kind, pool, |d| {
            GroupingSpec::hub_sorting(avg_degree(d), max_degree(d))
        })
    }
}

/// **Hub Clustering** (Balaji & Lucia): segregates hot vertices from
/// cold ones without sorting either side, preserving relative order in
/// both partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubCluster;

impl HubCluster {
    /// Creates the HubCluster technique.
    pub fn new() -> Self {
        HubCluster
    }
}

impl ReorderingTechnique for HubCluster {
    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, pool: &Pool) -> Permutation {
        bin_by_degree(graph, kind, pool, |d| {
            GroupingSpec::hub_clustering(avg_degree(d))
        })
    }
}

/// **Degree-Based Grouping** — the paper's contribution (Sec. IV).
///
/// Partitions vertices into a small number of groups with
/// geometrically spaced degree ranges (`[32A, inf), [16A, 32A), ...,
/// [A, 2A), [A/2, A), [0, A/2)` by default) and preserves the original
/// relative order within every group. Coarse grouping keeps hot
/// vertices dense in memory *and* preserves community structure, and
/// the absence of sorting keeps reordering time minimal.
///
/// # Example
///
/// ```
/// use lgr_core::{Dbg, ReorderingTechnique};
/// use lgr_graph::{gen, Csr, DegreeKind};
///
/// let el = gen::community(gen::CommunityConfig::new(1 << 10, 8.0));
/// let g = Csr::from_edge_list(&el);
/// let p = Dbg::default().reorder(&g, DegreeKind::Out);
/// // DBG's coarse grouping preserves far more of the original layout
/// // than a full sort would.
/// use lgr_core::Sort;
/// let sorted = Sort::new().reorder(&g, DegreeKind::Out);
/// assert!(p.adjacency_preservation() > 2.0 * sorted.adjacency_preservation());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dbg {
    /// Number of geometric hot groups above the average degree
    /// (the paper uses 6, giving 8 groups total with the two cold
    /// groups).
    num_hot_groups: u32,
}

impl Dbg {
    /// DBG with the paper's 8-group configuration.
    pub fn new() -> Self {
        Dbg { num_hot_groups: 6 }
    }

    /// DBG with a custom number of geometric hot groups (for the
    /// group-count ablation).
    ///
    /// # Panics
    ///
    /// Panics if `num_hot_groups` is 0.
    pub fn with_hot_groups(num_hot_groups: u32) -> Self {
        assert!(num_hot_groups >= 1);
        Dbg { num_hot_groups }
    }

    /// The grouping spec DBG would use for a graph with the given
    /// average degree.
    pub fn spec_for(self, avg_degree: f64) -> GroupingSpec {
        GroupingSpec::dbg(avg_degree, self.num_hot_groups)
    }
}

impl Default for Dbg {
    fn default() -> Self {
        Dbg::new()
    }
}

impl ReorderingTechnique for Dbg {
    fn reorder_with(&self, graph: &Csr, kind: DegreeKind, pool: &Pool) -> Permutation {
        bin_by_degree(graph, kind, pool, |d| self.spec_for(avg_degree(d)))
    }
}

/// **HubSort-O**: the original authors' implementation variant of Hub
/// Sorting, as evaluated in the paper's Fig. 5 / Table XI.
///
/// Behavioral differences from the framework reimplementation, modeled
/// after the published reference code:
///
/// 1. It always classifies and sorts by **out-degree**, regardless of
///    the application's computation direction (the paper's framework
///    version picks the degree kind per application, Table VIII).
/// 2. Ties between equal-degree hot vertices are broken **unstably**
///    (the reference uses an unstable parallel sort), scrambling
///    original order among ties instead of preserving it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubSortOriginal;

impl HubSortOriginal {
    /// Creates the HubSort-O technique.
    pub fn new() -> Self {
        HubSortOriginal
    }
}

impl ReorderingTechnique for HubSortOriginal {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        let degrees = DegreeKind::Out.degrees(graph);
        let avg = avg_degree(&degrees);
        let threshold = crate::framework::hot_threshold(avg);
        // Hot vertices sorted by (degree desc, scrambled tie-break);
        // cold vertices keep original order.
        let mut hot: Vec<u32> = (0..degrees.len() as u32)
            .filter(|&v| degrees[v as usize] >= threshold)
            .collect();
        hot.sort_unstable_by_key(|&v| {
            (
                std::cmp::Reverse(degrees[v as usize]),
                // Deterministic hash stands in for the nondeterministic
                // tie order of an unstable parallel sort.
                v.wrapping_mul(0x9e37_79b9),
            )
        });
        let mut order = hot;
        order.extend((0..degrees.len() as u32).filter(|&v| degrees[v as usize] < threshold));
        Permutation::from_order(&order).expect("partition of vertex set is a bijection")
    }
}

/// **HubCluster-O**: the original authors' implementation variant of
/// Hub Clustering (paper Fig. 5 / Table XI).
///
/// Like [`HubSortOriginal`], it always classifies by **out-degree**.
/// In addition the reference implementation partitions vertices into
/// per-thread chunks and concatenates per-chunk hot/cold runs, so hot
/// vertices are only contiguous *within* a chunk rather than globally;
/// we model that with 8 chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubClusterOriginal {
    chunks: usize,
}

impl HubClusterOriginal {
    /// Creates the HubCluster-O technique with the default 8 chunks.
    pub fn new() -> Self {
        HubClusterOriginal { chunks: 8 }
    }
}

impl Default for HubClusterOriginal {
    fn default() -> Self {
        HubClusterOriginal::new()
    }
}

impl ReorderingTechnique for HubClusterOriginal {
    fn reorder_with(&self, graph: &Csr, _kind: DegreeKind, _pool: &Pool) -> Permutation {
        let degrees = DegreeKind::Out.degrees(graph);
        let avg = avg_degree(&degrees);
        let threshold = crate::framework::hot_threshold(avg);
        let n = degrees.len();
        let chunk = n.div_ceil(self.chunks.max(1)).max(1);
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            order.extend((start as u32..end as u32).filter(|&v| degrees[v as usize] >= threshold));
            order.extend((start as u32..end as u32).filter(|&v| degrees[v as usize] < threshold));
            start = end;
        }
        Permutation::from_order(&order).expect("partition of vertex set is a bijection")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    /// A graph where vertex 3 has out-degree 4, vertex 1 has 2, the
    /// rest have 1 or 0 out-edges.
    fn skewed() -> Csr {
        let mut el = EdgeList::new(6);
        for d in [0, 1, 2, 4] {
            el.push(3, d);
        }
        el.push(1, 0);
        el.push(1, 5);
        el.push(0, 5);
        el.push(2, 4);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn sort_orders_by_descending_degree() {
        let g = skewed();
        let p = Sort::new().reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let d: Vec<u32> = (0..6).map(|v| h.out_degree(v)).collect();
        let mut sorted = d.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(d, sorted, "degrees not descending: {d:?}");
    }

    #[test]
    fn hubcluster_puts_hot_first_preserving_order() {
        let g = skewed();
        // out degrees: [1, 2, 1, 4, 0, 0], avg = 8/6 = 1.33 -> threshold 2.
        let p = HubCluster::new().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        assert_eq!(
            &layout[..2],
            &[1, 3],
            "hot vertices in original order first"
        );
        assert_eq!(&layout[2..], &[0, 2, 4, 5], "cold order preserved");
    }

    #[test]
    fn hubsort_sorts_hot_only() {
        let g = skewed();
        let p = HubSort::new().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        assert_eq!(&layout[..2], &[3, 1], "hot sorted by degree desc");
        assert_eq!(&layout[2..], &[0, 2, 4, 5], "cold order preserved");
    }

    #[test]
    fn dbg_group_membership_is_degree_monotonic() {
        let g = skewed();
        let p = Dbg::default().reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        // After DBG, group boundaries mean degree can only drop between
        // groups; verify coarse monotonicity: every later vertex is in
        // an equal-or-colder group.
        let degrees = DegreeKind::Out.degrees(&g);
        let spec = Dbg::default().spec_for(lgr_graph::average_degree(&degrees));
        let layout = p.inverse();
        let groups: Vec<usize> = layout
            .iter()
            .map(|&v| spec.group_of(degrees[v as usize]))
            .collect();
        assert!(
            groups.windows(2).all(|w| w[0] <= w[1]),
            "groups: {groups:?}"
        );
        let _ = h;
    }

    #[test]
    fn dbg_preserves_order_within_groups() {
        let g = skewed();
        let degrees = DegreeKind::Out.degrees(&g);
        let spec = Dbg::default().spec_for(lgr_graph::average_degree(&degrees));
        let p = Dbg::default().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        // Within each group, original IDs must be ascending.
        let mut last_in_group: Vec<Option<u32>> = vec![None; spec.num_groups()];
        for &v in &layout {
            let gid = spec.group_of(degrees[v as usize]);
            if let Some(prev) = last_in_group[gid] {
                assert!(prev < v, "group {gid} order violated: {prev} before {v}");
            }
            last_in_group[gid] = Some(v);
        }
    }

    #[test]
    fn original_variants_ignore_degree_kind() {
        let g = skewed();
        let a = HubSortOriginal::new().reorder(&g, DegreeKind::In);
        let b = HubSortOriginal::new().reorder(&g, DegreeKind::Out);
        assert_eq!(a, b);
        let c = HubClusterOriginal::new().reorder(&g, DegreeKind::In);
        let d = HubClusterOriginal::new().reorder(&g, DegreeKind::Out);
        assert_eq!(c, d);
    }

    #[test]
    fn hubcluster_original_is_chunked() {
        // 16 vertices, alternate hot/cold; with 8 chunks of 2, each
        // chunk keeps its own hot-then-cold run so hot vertices are NOT
        // globally contiguous.
        let mut el = EdgeList::new(16);
        for v in (0..16).step_by(2) {
            // Hot vertices get out-degree 3.
            for t in 0..3 {
                el.push(v, (v + t + 1) % 16);
            }
        }
        let g = Csr::from_edge_list(&el);
        let p = HubClusterOriginal::new().reorder(&g, DegreeKind::Out);
        let layout = p.inverse();
        assert_eq!(
            layout,
            (0..16).collect::<Vec<u32>>().as_slice(),
            "alternating hot/cold with chunk size 2 keeps original layout"
        );

        // The framework HubCluster, by contrast, makes hot globally
        // contiguous.
        let pf = HubCluster::new().reorder(&g, DegreeKind::Out);
        let lf = pf.inverse();
        assert_eq!(&lf[..8], &[0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn all_techniques_produce_valid_permutations() {
        let g = skewed();
        let techniques: Vec<Box<dyn ReorderingTechnique>> = vec![
            Box::new(Sort::new()),
            Box::new(HubSort::new()),
            Box::new(HubCluster::new()),
            Box::new(Dbg::default()),
            Box::new(HubSortOriginal::new()),
            Box::new(HubClusterOriginal::new()),
        ];
        for t in &techniques {
            let p = t.reorder(&g, DegreeKind::Out);
            assert_eq!(p.len(), g.num_vertices(), "{t:?}");
            // Applying it preserves edge count and degree multiset.
            let h = g.apply_permutation(&p);
            assert_eq!(h.num_edges(), g.num_edges(), "{t:?}");
        }
    }

    #[test]
    fn techniques_on_empty_and_single_vertex_graphs() {
        for n in [0usize, 1] {
            let g = Csr::from_edge_list(&EdgeList::new(n));
            for t in [
                &Sort::new() as &dyn ReorderingTechnique,
                &HubSort::new(),
                &HubCluster::new(),
                &Dbg::default(),
                &Dbg::with_hot_groups(u32::MAX),
            ] {
                let p = t.reorder(&g, DegreeKind::Out);
                assert_eq!(p.len(), n, "{t:?} on n={n}");
            }
        }
    }
}
