//! Cache-footprint analysis of a graph dataset: the statistics behind
//! the paper's Tables I–IV, on any generated dataset.
//!
//! ```text
//! cargo run --release --example cache_analysis [dataset]
//! ```
//!
//! `dataset` is one of the paper's short names (kr, pl, tw, sd, lj,
//! wl, fr, mp, uni, road); default `sd`.

mod common;

use std::io::{self, Write};
use std::process::ExitCode;

use graph_reorder::graph::datasets::{build, DatasetId, DatasetScale};
use graph_reorder::graph::stats::{
    hot_footprint_mib, hot_vertices_per_block, DegreeRangeDist, SkewStats,
};
use graph_reorder::prelude::*;

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_else(|| "sd".to_owned());
    let Some(id) = DatasetId::from_name(&name) else {
        let _ = writeln!(
            io::stderr().lock(),
            "unknown dataset {name}; pick one of kr pl tw sd lj wl fr mp uni road"
        );
        return ExitCode::FAILURE;
    };
    common::exit_code(run(id, &mut io::stdout().lock()))
}

fn run(id: DatasetId, out: &mut impl Write) -> io::Result<()> {
    let scale = DatasetScale::with_sd_vertices(1 << 17);
    writeln!(
        out,
        "building dataset '{}' (structured: {})...",
        id.name(),
        id.is_structured()
    )?;
    let el = build(id, scale);
    let graph = Csr::from_edge_list(&el);
    writeln!(
        out,
        "  {} vertices, {} edges, avg degree {:.1}\n",
        graph.num_vertices(),
        graph.num_edges(),
        graph.average_degree()
    )?;

    // Table I: skew.
    for (label, degrees) in [("in", graph.in_degrees()), ("out", graph.out_degrees())] {
        let s = SkewStats::from_degrees(&degrees);
        writeln!(
            out,
            "{label:>3}-degree skew: {:.1}% hot vertices own {:.1}% of edges (threshold {:.1})",
            s.hot_vertex_fraction * 100.0,
            s.edge_coverage * 100.0,
            s.threshold
        )?;
    }

    // Table II: packing in the original ordering.
    let degrees = graph.out_degrees();
    writeln!(
        out,
        "\nhot vertices per 64B cache block (original ordering): {:.2} (8 = perfect)",
        hot_vertices_per_block(&degrees, 8)
    )?;

    // Table III: hot footprint.
    writeln!(
        out,
        "hot-vertex footprint: {:.1} KiB at 8 B/vertex, {:.1} KiB at 16 B/vertex",
        hot_footprint_mib(&degrees, 8) * 1024.0,
        hot_footprint_mib(&degrees, 16) * 1024.0
    )?;

    // Table IV: degree ranges among the hot vertices.
    let dist = DegreeRangeDist::compute(&degrees, 6, 8);
    writeln!(
        out,
        "\nhot-vertex degree distribution (A = {:.1}):",
        dist.average_degree
    )?;
    for b in &dist.buckets {
        let range = match b.upper_multiple {
            Some(u) => format!("[{}A, {}A)", b.lower_multiple, u),
            None => format!("[{}A, inf)", b.lower_multiple),
        };
        writeln!(
            out,
            "  {range:>12}: {:5.1}% of hot vertices, {:8.1} KiB",
            b.hot_fraction * 100.0,
            b.footprint_mib * 1024.0
        )?;
    }

    // How much does each technique disturb the layout?
    writeln!(
        out,
        "\nlayout disturbance per technique (lower = more structure preserved):"
    )?;
    let techniques: Vec<(&str, Box<dyn ReorderingTechnique>)> = vec![
        ("Sort", Box::new(Sort::new())),
        ("HubSort", Box::new(HubSort::new())),
        ("HubCluster", Box::new(HubCluster::new())),
        ("DBG", Box::new(Dbg::default())),
    ];
    for (name, t) in &techniques {
        let p = t.reorder(&graph, DegreeKind::Out);
        writeln!(
            out,
            "  {name:>10}: {:5.1}% of local adjacencies broken",
            (1.0 - p.adjacency_preservation()) * 100.0
        )?;
    }
    Ok(())
}
