//! End-to-end pipeline tests: generate -> reorder -> run -> verify,
//! across crates.

use graph_reorder::prelude::*;
use lgr_analytics::verify;
use lgr_graph::datasets::{build, DatasetId, DatasetScale};

fn test_graph(ds: DatasetId) -> Csr {
    let mut el = build(ds, DatasetScale::tiny());
    el.randomize_weights(32, 5);
    Csr::from_edge_list(&el)
}

/// Every technique produces a valid permutation on every dataset, and
/// applying it preserves the graph's degree multiset and edge count.
#[test]
fn all_techniques_on_all_datasets_preserve_graph() {
    let techniques: Vec<Box<dyn ReorderingTechnique>> = vec![
        Box::new(Sort::new()),
        Box::new(HubSort::new()),
        Box::new(HubCluster::new()),
        Box::new(Dbg::default()),
    ];
    for ds in DatasetId::ALL {
        let g = test_graph(ds);
        for t in &techniques {
            let p = t.reorder(&g, DegreeKind::Out);
            assert_eq!(p.len(), g.num_vertices(), "{t:?} on {}", ds.name());
            let h = g.apply_permutation(&p);
            assert_eq!(h.num_edges(), g.num_edges());
            let mut dg = g.out_degrees();
            let mut dh = h.out_degrees();
            dg.sort_unstable();
            dh.sort_unstable();
            assert_eq!(dg, dh, "{t:?} on {} changed degrees", ds.name());
        }
    }
}

/// PageRank results are invariant under every reordering technique.
#[test]
fn pagerank_invariant_under_reordering() {
    let g = test_graph(DatasetId::Lj);
    let cfg = PrConfig {
        max_iters: 10,
        tolerance: 0.0,
        ..Default::default()
    };
    let base = pagerank(&g, &cfg, &mut NullTracer);
    let techniques: Vec<Box<dyn ReorderingTechnique>> = vec![
        Box::new(Sort::new()),
        Box::new(HubSort::new()),
        Box::new(HubCluster::new()),
        Box::new(Dbg::default()),
        Box::new(Gorder::new()),
    ];
    for t in &techniques {
        let p = t.reorder(&g, DegreeKind::Out);
        let h = g.apply_permutation(&p);
        let res = pagerank(&h, &cfg, &mut NullTracer);
        let mapped = verify::remap(&res.ranks, &p);
        for (v, (a, b)) in base.ranks.iter().zip(mapped.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "{t:?}: rank of vertex {v} changed: {a} vs {b}"
            );
        }
    }
}

/// SSSP distances are invariant under reordering (with roots mapped
/// through the permutation), on a weighted dataset.
#[test]
fn sssp_invariant_under_reordering() {
    let g = test_graph(DatasetId::Fr);
    let root = (0..g.num_vertices() as u32)
        .find(|&v| g.out_degree(v) > 2)
        .expect("graph has a connected vertex");
    let base = sssp(&g, &SsspConfig::from_root(root), &mut NullTracer);
    for t in [
        &Dbg::default() as &dyn ReorderingTechnique,
        &Sort::new(),
        &HubCluster::new(),
    ] {
        let p = t.reorder(&g, DegreeKind::In);
        let h = g.apply_permutation(&p);
        let res = sssp(&h, &SsspConfig::from_root(p.new_id(root)), &mut NullTracer);
        let mapped = verify::remap(&res.distances, &p);
        assert_eq!(mapped, base.distances, "{t:?} changed distances");
    }
}

/// BC scores and Radii estimates are invariant under DBG.
#[test]
fn bc_and_radii_invariant_under_dbg() {
    let g = test_graph(DatasetId::Wl);
    let root = (0..g.num_vertices() as u32)
        .find(|&v| g.out_degree(v) > 2)
        .unwrap();
    let p = Dbg::default().reorder(&g, DegreeKind::Out);
    let h = g.apply_permutation(&p);

    let bc_base = bc(&g, &BcConfig::from_root(root), &mut NullTracer);
    let bc_re = bc(&h, &BcConfig::from_root(p.new_id(root)), &mut NullTracer);
    let mapped = verify::remap(&bc_re.scores, &p);
    for (a, b) in bc_base.scores.iter().zip(mapped.iter()) {
        assert!((a - b).abs() < 1e-9, "BC changed: {a} vs {b}");
    }

    // Radii's sources are fixed in logical terms and mapped through
    // the permutation, as the session maps them: each ordering matches
    // the reference, and the remapped estimates are the original's.
    let sources: Vec<u32> = (0..16)
        .map(|i| (i * 37 % g.num_vertices()) as u32)
        .collect();
    let mapped: Vec<u32> = sources.iter().map(|&s| p.new_id(s)).collect();
    let estimate = |graph: &Csr, sources: &[u32]| {
        let cfg = RadiiConfig::from_sources(sources.to_vec());
        let r = radii(graph, &cfg, &mut NullTracer);
        assert_eq!(r.radii, verify::radii_reference(graph, sources));
        r
    };
    let radii_base = estimate(&g, &sources);
    let radii_re = estimate(&h, &mapped);
    assert_eq!(radii_re.rounds, radii_base.rounds);
    assert_eq!(
        verify::remap(&radii_re.radii, &p),
        radii_base.radii,
        "Radii changed under DBG"
    );
}

/// Gorder+DBG composition (paper Sec. VII): applying DBG after Gorder
/// yields a valid permutation that still segregates hot vertices.
#[test]
fn gorder_then_dbg_composition() {
    let g = test_graph(DatasetId::Lj);
    let gorder = Gorder::new().reorder(&g, DegreeKind::Out);
    let after_gorder = g.apply_permutation(&gorder);
    let dbg = Dbg::default().reorder(&after_gorder, DegreeKind::Out);
    let combined = gorder.then(&dbg);

    let final_graph = g.apply_permutation(&combined);
    assert_eq!(final_graph.num_edges(), g.num_edges());

    // Hot vertices are contiguous at the front after the composition.
    let degrees = final_graph.out_degrees();
    let avg = lgr_graph::average_degree(&degrees);
    let hot_count = degrees.iter().filter(|&&d| d as f64 >= avg).count();
    // Among the first hot_count slots, most should be hot (DBG packs
    // hot groups first; boundaries are fuzzy because DBG's groups split
    // at ceil(avg) and A/2, not exactly avg).
    let hot_in_front = degrees[..hot_count]
        .iter()
        .filter(|&&d| d as f64 >= avg)
        .count();
    assert!(
        hot_in_front as f64 > 0.9 * hot_count as f64,
        "hot vertices not front-packed: {hot_in_front}/{hot_count}"
    );
}
