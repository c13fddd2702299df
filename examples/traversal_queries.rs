//! Amortizing reordering cost over repeated traversal queries — the
//! scenario of the paper's Fig. 11: SSSP served from many different
//! roots on one (possibly reordered) graph.
//!
//! ```text
//! cargo run --release --example traversal_queries [num_queries]
//! ```

mod common;

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use graph_reorder::graph::datasets::{build, DatasetId, DatasetScale};
use graph_reorder::prelude::*;

fn main() -> ExitCode {
    let queries: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    common::exit_code(run(queries, &mut io::stdout().lock()))
}

fn run(queries: usize, out: &mut impl Write) -> io::Result<()> {
    let scale = DatasetScale::with_sd_vertices(1 << 16);
    writeln!(out, "building 'fr' (structured social-network analogue)...")?;
    let mut el = build(DatasetId::Fr, scale);
    el.randomize_weights(64, 11);
    let graph = Csr::from_edge_list(&el);
    writeln!(
        out,
        "  {} vertices, {} edges; serving {queries} SSSP queries\n",
        graph.num_vertices(),
        graph.num_edges()
    )?;

    // Deterministic query roots (spread over well-connected vertices).
    let roots: Vec<u32> = (0..graph.num_vertices() as u32)
        .filter(|&v| graph.out_degree(v) > 0 && graph.in_degree(v) > 0)
        .step_by(997)
        .take(queries)
        .collect();

    // Baseline: original ordering.
    let t0 = Instant::now();
    let mut checksum_base = 0u64;
    for &r in &roots {
        let res = sssp(&graph, &SsspConfig::from_root(r), &mut NullTracer);
        checksum_base = checksum_base.wrapping_add(
            res.distances
                .iter()
                .filter(|&&d| d != u64::MAX)
                .sum::<u64>(),
        );
    }
    let base_time = t0.elapsed();

    // DBG: pay the reordering once, then serve all queries.
    let t1 = Instant::now();
    let perm = Dbg::default().reorder(&graph, DegreeKind::In);
    let reorder_time = t1.elapsed();
    let reordered = graph.apply_permutation(&perm);
    let t2 = Instant::now();
    let mut checksum_dbg = 0u64;
    for &r in &roots {
        let res = sssp(
            &reordered,
            &SsspConfig::from_root(perm.new_id(r)),
            &mut NullTracer,
        );
        checksum_dbg = checksum_dbg.wrapping_add(
            res.distances
                .iter()
                .filter(|&&d| d != u64::MAX)
                .sum::<u64>(),
        );
    }
    let query_time = t2.elapsed();

    assert_eq!(checksum_base, checksum_dbg, "reordering changed answers!");
    writeln!(out, "original ordering: {queries} queries in {base_time:?}")?;
    writeln!(
        out,
        "DBG:               reorder {:?} + {queries} queries in {:?}",
        reorder_time, query_time
    )?;
    let net = base_time.as_secs_f64() / (reorder_time + query_time).as_secs_f64();
    writeln!(
        out,
        "net speedup including reordering cost: {:+.1}%",
        (net - 1.0) * 100.0
    )?;
    writeln!(out, "(distances verified identical under both orderings)")
}
