//! Sec. VIII-B extension: amortizing reordering on an evolving graph.
//!
//! A stream of update batches is interleaved with PageRank queries.
//! Three policies are compared end to end (query cycles + reordering
//! cost): never reorder, reorder with DBG once up front, and
//! re-apply DBG every `R` batches. The hot-set overlap column
//! quantifies the paper's claim that churn barely moves the hot set.

use lgr_analytics::apps::AppId;
use lgr_engine::{DatasetSpec, Session, TechniqueSpec};
use lgr_graph::datasets::DatasetId;
use lgr_graph::evolve::{hot_set_overlap, ChurnConfig, EvolvingGraph};

use crate::TextTable;

/// Runs the evolving-graph amortization study on the `sd` analogue.
pub fn run(h: &Session) -> String {
    // This is a DBG/PR study: honor the session filters like every
    // other experiment.
    let selected = h.selected_datasets(&[DatasetSpec::from(DatasetId::Sd)]);
    let Some(ds) = selected.first() else {
        return super::skipped("Sec. VIII-B (dynamic)");
    };
    if h.selected_techniques(&[TechniqueSpec::dbg()]).is_empty()
        || h.selected_apps(&[lgr_engine::AppSpec::new(AppId::Pr)])
            .is_empty()
    {
        return super::skipped("Sec. VIII-B (dynamic)");
    }
    let base_graph = h.graph(ds);
    let base_el = base_graph.to_edge_list();
    let num_batches = 8usize;
    let queries_per_batch = 1usize;
    let kind = AppId::Pr.reorder_degree();

    let mut t = TextTable::new(
        &format!(
            "Sec. VIII-B: reordering policies on an evolving graph ({}, 8 update batches)",
            ds.label()
        ),
        vec![
            "policy",
            "query cycles (G)",
            "reorder cycles (G)",
            "total (G)",
            "net speedup (%)",
        ],
    );

    // Churn ~2% of edges per batch.
    let churn = ChurnConfig {
        additions: base_graph.num_edges() / 50,
        removals: base_graph.num_edges() / 50,
        preferential: true,
    };

    let mut never = 0u64;
    let mut once = 0u64;
    let mut once_reorder = 0u64;
    let mut periodic = 0u64;
    let mut periodic_reorder = 0u64;
    let mut overlap_acc = 0.0f64;

    // Policy "once": reorder the initial snapshot, keep the (stale)
    // permutation as batches land. Policy "periodic": re-reorder every
    // 4 batches.
    let mut evolving = EvolvingGraph::from_edge_list(&base_el, 99);
    let initial_degrees = evolving.out_degrees();
    let dbg = TechniqueSpec::dbg();
    let first = h.reorder_with_kind(&base_graph, &dbg, kind);
    once_reorder += h.wall_to_cycles(ds, first.elapsed);
    periodic_reorder += h.wall_to_cycles(ds, first.elapsed);
    let once_perm = first.permutation.clone();
    let mut periodic_perm = first.permutation;

    for batch_idx in 0..num_batches {
        let batch = evolving.synthesize_batch(churn);
        evolving.apply(&batch);
        let snapshot = evolving.snapshot();
        overlap_acc += hot_set_overlap(&initial_degrees, &evolving.out_degrees());

        if batch_idx % 4 == 3 {
            let re = h.reorder_with_kind(&snapshot, &dbg, kind);
            periodic_reorder += h.wall_to_cycles(ds, re.elapsed);
            periodic_perm = re.permutation;
        }

        for _ in 0..queries_per_batch {
            never += h.simulate_pr(&snapshot);
            once += h.simulate_pr(&snapshot.apply_permutation_with(&once_perm, h.pool()));
            periodic += h.simulate_pr(&snapshot.apply_permutation_with(&periodic_perm, h.pool()));
        }
    }

    let giga = |c: u64| format!("{:.2}", c as f64 / 1e9);
    let net = |q: u64, r: u64| format!("{:+.1}", (never as f64 / (q + r) as f64 - 1.0) * 100.0);
    t.row(vec![
        "never reorder".into(),
        giga(never),
        "0.00".into(),
        giga(never),
        "+0.0".into(),
    ]);
    t.row(vec![
        "DBG once (stale)".into(),
        giga(once),
        giga(once_reorder),
        giga(once + once_reorder),
        net(once, once_reorder),
    ]);
    t.row(vec![
        "DBG every 4 batches".into(),
        giga(periodic),
        giga(periodic_reorder),
        giga(periodic + periodic_reorder),
        net(periodic, periodic_reorder),
    ]);
    t.note(&format!(
        "mean hot-set overlap with the initial snapshot across batches: {:.2} (paper's stability claim)",
        overlap_acc / num_batches as f64
    ));
    t.note("a stale DBG permutation keeps paying off because churn barely moves the hot set; periodic refresh recovers the residual at modest cost");
    t.to_string()
}
