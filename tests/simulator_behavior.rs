//! Cross-crate behavioral tests of the simulator: the qualitative
//! claims of the paper must hold on the simulated hierarchy.

use graph_reorder::prelude::*;
use lgr_analytics::apps::Work;
use lgr_cachesim::SimStats;
use lgr_graph::datasets::{build, DatasetId, DatasetScale};

fn scale() -> DatasetScale {
    DatasetScale::with_sd_vertices(1 << 14)
}

/// `app`'s statistics on the default machine after `iters`
/// iterations (rounds), traversing from `roots`.
fn stats(app: AppId, graph: &Csr, iters: usize, roots: &[u32]) -> SimStats {
    let machine = SimConfig::default();
    let work = Work {
        iters,
        cores: machine.cores,
    };
    let sim = app.trace(graph, work, roots, |layout| MemorySim::new(machine, layout));
    *sim.stats()
}

fn pr_stats(graph: &Csr) -> SimStats {
    stats(AppId::Pr, graph, 2, &[])
}

/// Miss counts are monotone down the hierarchy: everything that missed
/// L2 first missed L1, and L3 misses can't exceed L2 misses.
#[test]
fn miss_hierarchy_is_monotone() {
    let el = build(DatasetId::Sd, scale());
    let g = Csr::from_edge_list(&el);
    let s = pr_stats(&g);
    assert!(s.l1.misses >= s.l2.misses);
    assert!(s.l2.misses >= s.l3.misses);
    assert_eq!(
        s.l2_breakdown.total(),
        s.l2.misses,
        "every L2 miss is classified exactly once"
    );
}

/// The paper's central claim: on a skewed graph with no ordering
/// locality, skew-aware reordering reduces LLC misses.
///
/// Uses a fully scrambled community graph large enough that the
/// property array exceeds the simulated LLC (the paper's regime; the
/// named `sd` analogue retains partial crawl locality by design).
#[test]
fn reordering_cuts_llc_misses_on_unstructured_skewed_graph() {
    let el = gen::community(
        gen::CommunityConfig::new(1 << 16, 16.0)
            .with_seed(21)
            .scrambled(),
    );
    let g = Csr::from_edge_list(&el);
    let base = pr_stats(&g);
    for tech in [
        &Sort::new() as &dyn ReorderingTechnique,
        &HubSort::new(),
        &Dbg::default(),
    ] {
        let p = tech.reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let s = pr_stats(&h);
        assert!(
            s.l3.misses < base.l3.misses,
            "{tech:?} did not cut L3 misses: {} vs {}",
            s.l3.misses,
            base.l3.misses
        );
    }
}

/// Fig. 3's mechanism: random vertex reordering hurts a structured
/// graph's cycle count.
#[test]
fn random_reordering_hurts_structured_graph() {
    use graph_reorder::reorder::RandomVertex;
    let el = build(DatasetId::Mp, scale());
    let g = Csr::from_edge_list(&el);
    let base = pr_stats(&g);
    let p = RandomVertex::new(3).reorder(&g, DegreeKind::Out);
    let h = g.apply_permutation(&p);
    let s = pr_stats(&h);
    assert!(
        s.cycles > base.cycles,
        "RV should slow a structured graph: {} vs {}",
        s.cycles,
        base.cycles
    );
}

/// Fig. 9's mechanism: PRD (unconditional pushes) generates more
/// snoop traffic than SSSP (conditional writes) on the same dataset.
#[test]
fn prd_snoops_more_than_sssp() {
    let mut el = build(DatasetId::Pl, scale());
    el.randomize_weights(32, 9);
    let g = Csr::from_edge_list(&el);

    let prd_stats = stats(AppId::Prd, &g, 3, &[]);
    let sssp_stats = stats(AppId::Sssp, &g, usize::MAX, &[1]);
    let snoop_frac = |s: &SimStats| {
        let f = s.l2_breakdown.fractions();
        f[1] + f[2]
    };
    assert!(
        snoop_frac(&prd_stats) > snoop_frac(&sssp_stats),
        "PRD {:.3} should snoop more than SSSP {:.3}",
        snoop_frac(&prd_stats),
        snoop_frac(&sssp_stats)
    );
}

/// Small datasets whose hot set fits in the LLC have little reordering
/// headroom (the paper's lj/wl observation).
#[test]
fn small_dataset_has_less_headroom_than_large() {
    let lj = Csr::from_edge_list(&build(DatasetId::Lj, scale()));
    let sd = Csr::from_edge_list(&build(DatasetId::Sd, scale()));
    let gain = |g: &Csr| {
        let base = pr_stats(g).cycles as f64;
        let p = Dbg::default().reorder(g, DegreeKind::Out);
        let s = pr_stats(&g.apply_permutation(&p)).cycles as f64;
        base / s
    };
    let lj_gain = gain(&lj);
    let sd_gain = gain(&sd);
    assert!(
        sd_gain > lj_gain,
        "large dataset should gain more: sd {sd_gain:.3} vs lj {lj_gain:.3}"
    );
}
