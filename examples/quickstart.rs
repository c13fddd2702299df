//! Quickstart: generate a skewed graph, reorder it with DBG, and
//! measure the cache-behavior difference with the simulator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

mod common;

use std::io::{self, Write};
use std::process::ExitCode;

use graph_reorder::prelude::*;
use lgr_analytics::apps::Work;

fn simulate_pagerank(graph: &Csr, label: &str, out: &mut impl Write) -> io::Result<u64> {
    let machine = SimConfig::default();
    let work = Work {
        iters: 3,
        cores: machine.cores,
    };
    let sim = AppId::Pr.trace(graph, work, &[], |layout| MemorySim::new(machine, layout));
    let stats = sim.stats();
    let [l1, l2, l3] = stats.mpki();
    writeln!(
        out,
        "{label:<10} L1 MPKI {l1:6.1}  L2 MPKI {l2:6.1}  L3 MPKI {l3:6.1}  cycles {:>12}",
        stats.cycles
    )?;
    Ok(stats.cycles)
}

fn main() -> ExitCode {
    common::exit_code(run(&mut io::stdout().lock()))
}

fn run(out: &mut impl Write) -> io::Result<()> {
    // A community-structured power-law graph: 64K vertices, avg degree 16.
    writeln!(out, "generating a 64K-vertex community power-law graph...")?;
    let el = gen::community(gen::CommunityConfig::new(1 << 16, 16.0).with_seed(42));
    let graph = Csr::from_edge_list(&el);
    writeln!(
        out,
        "graph: {} vertices, {} edges, avg degree {:.1}\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    )?;

    // Reorder with Degree-Based Grouping (the paper's contribution).
    let perm = Dbg::default().reorder(&graph, DegreeKind::Out);
    let reordered = graph.apply_permutation(&perm);
    writeln!(
        out,
        "DBG moved {:.0}% of vertices, preserving {:.0}% of local adjacencies\n",
        (1.0 - perm.adjacency_preservation()) * 100.0,
        perm.adjacency_preservation() * 100.0
    )?;

    // Compare simulated PageRank cache behavior.
    writeln!(out, "simulated PageRank (3 iterations):")?;
    let base = simulate_pagerank(&graph, "original", out)?;
    let with = simulate_pagerank(&reordered, "DBG", out)?;
    writeln!(
        out,
        "\nDBG speedup (cycle model): {:+.1}%",
        (base as f64 / with as f64 - 1.0) * 100.0
    )?;

    // Results are identical either way — reordering never changes the
    // answer, only the memory layout.
    let r1 = pagerank(&graph, &PrConfig::default(), &mut NullTracer);
    let r2 = pagerank(&reordered, &PrConfig::default(), &mut NullTracer);
    let remapped = lgr_analytics::verify::remap(&r2.ranks, &perm);
    let max_diff = r1
        .ranks
        .iter()
        .zip(remapped.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    writeln!(
        out,
        "max rank difference after remapping: {max_diff:.2e} (expected ~0)"
    )
}
