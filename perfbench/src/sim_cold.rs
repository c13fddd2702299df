//! sim-cold: the `repro` path behind Figs. 6/8/9 on a fresh session,
//! so every cache misses and every job builds its graph, reordering,
//! relabelled graph and simulated run.
//!
//! Roster: {`sd:seed=S`, `fr:seed=S`} at sd = 2^14 vertices × {orig,
//! sort, hubsort, hubcluster, dbg, gorder} × {pr, prd, sssp, bc,
//! radii} = 60 jobs, each `Session::report` + `Report::to_json` on the
//! default simulated machine. `sd` is scrambled and `fr` community
//! ordered: skew-aware reordering helps the first and disrupts the
//! second. The traced pass also answers the same jobs through the
//! serve protocol in process and probes the wire against the release
//! `lgr-serve`, which is where the gated workloads measure the serve
//! layer.

use std::time::Instant;

use lgr_engine::{DatasetGraph, DatasetRegistry, DatasetSpec, Job, Report, Session, SessionConfig};
use lgr_graph::{Csr, DegreeKind};
use lgr_parallel::Pool;
use lgr_serve::{handle_line, JobRequest, RequestPolicy};

use crate::serve_warm;
use crate::stats;
use crate::trace::Trace;
use crate::{ms, Options, Outcome, Window, DATASETS, SKEW_AWARE};

/// `sd` gets 2^14 vertices.
pub const SCALE_EXP: u32 = 14;
const TECHNIQUES: [&str; 6] = ["orig", "sort", "hubsort", "hubcluster", "dbg", "gorder"];
const APPS: [&str; 5] = ["pr", "prd", "sssp", "bc", "radii"];
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The session every sim-cold pass starts from.
pub fn config() -> SessionConfig {
    SessionConfig::default().with_scale_exp(SCALE_EXP)
}

/// `sd:seed=S` and `fr:seed=S`.
pub fn datasets(seed: u64) -> Vec<DatasetSpec> {
    DATASETS
        .iter()
        .map(|d| {
            format!("{d}:seed={seed}")
                .parse()
                .expect("built-in dataset spec")
        })
        .collect()
}

/// One roster job; `orig` is the original ordering.
pub fn job(app: &str, ds: &DatasetSpec, technique: &str) -> Job {
    let job = Job::new(app.parse().expect("roster app spec"), ds.clone());
    if technique == "orig" {
        job
    } else {
        job.with_technique(technique.parse().expect("roster technique spec"))
    }
}

/// Generates a dataset and builds its weighted CSR the way a session
/// does, outside any session: the `graph` layer's set-up work.
pub fn materialize(
    registry: &DatasetRegistry,
    ds: &DatasetSpec,
    cfg: &SessionConfig,
    pool: &Pool,
    mut trace: Option<(&mut Trace, usize)>,
) -> Result<(lgr_graph::EdgeList, Csr), String> {
    let t0 = Instant::now();
    let mut el = match registry.build(ds, cfg.scale, pool) {
        Ok(DatasetGraph::Edges(el)) => el,
        Ok(DatasetGraph::Graph(_)) => return Err(format!("{ds}: expected an edge list")),
        Err(e) => return Err(e.to_string()),
    };
    el.randomize_weights(64, ds.weight_seed());
    let t1 = Instant::now();
    let csr = Csr::from_edge_list_with(&el, pool);
    if let Some((trace, parent)) = trace.as_mut() {
        trace.push("graph.generate", Some(*parent), 0, t0, t1);
        trace.push("graph.csr_build", Some(*parent), 0, t1, Instant::now());
    }
    Ok((el, csr))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cfg = config();
    let datasets = datasets(opts.seed);
    let jobs: Vec<Job> = datasets
        .iter()
        .flat_map(|ds| {
            APPS.iter()
                .flat_map(move |app| TECHNIQUES.iter().map(move |t| job(app, ds, t)))
        })
        .collect();
    let mut out = Outcome {
        guaranteed_ops: jobs.len(),
        scale: format!(
            "sd=2^{SCALE_EXP} vertices; {} jobs per pass ({} datasets x {} techniques x {} apps)",
            jobs.len(),
            datasets.len(),
            TECHNIQUES.len(),
            APPS.len()
        ),
        ..Outcome::default()
    };

    // Set-up: materialize both inputs, several times.
    let pool = Pool::with_default_threads();
    let registry = DatasetRegistry::new();
    let mut references = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        references = datasets
            .iter()
            .map(|ds| materialize(&registry, ds, &cfg, &pool, None).map(|(_, csr)| csr))
            .collect::<Result<_, _>>()?;
        out.setups_s.push(t0.elapsed().as_secs_f64());
    }
    drop(pool);
    for (ds, g) in datasets.iter().zip(&references) {
        out.scale += &format!(
            "; {ds}: {} vertices, {} edges",
            g.num_vertices(),
            g.num_edges()
        );
    }

    // Timed passes, each on a fresh session, until the run length is
    // reached.
    let started = Instant::now();
    let mut passes: Vec<(Vec<String>, Vec<f64>)> = Vec::new();
    let mut untraced_first_ns = 0;
    loop {
        let session = Session::new(cfg.clone());
        let pass_start = Instant::now();
        let mut lines = Vec::with_capacity(jobs.len());
        let mut latencies = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let t0 = Instant::now();
            let report = session.report(job);
            std::hint::black_box(report.to_json());
            latencies.push(ms(t0.elapsed()));
            lines.push(report.canonicalized().to_json());
        }
        if passes.is_empty() {
            untraced_first_ns = pass_start.elapsed().as_nanos() as u64;
            out.peak_rss_kb = crate::peak_rss_kb("self");
            let total = session.cache_stats().total();
            out.layer("engine.hits", total.hits as f64);
            out.layer("engine.misses", total.misses as f64);
            for (ds, reference) in datasets.iter().zip(&references) {
                if *session.graph(ds) != *reference {
                    out.fail(format!(
                        "{ds}: session graph differs from the registry build"
                    ));
                }
            }
        }
        passes.push((lines, latencies));
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    // Traced pass: the same work, staged so each call's inputs are
    // already cached and its span is that layer's own time.
    let session = Session::new(cfg.clone());
    let pool = Pool::with_default_threads();
    let mut setup = Trace::default();
    let root = setup.open("bench.setup", None, 0);
    for ds in &datasets {
        materialize(&registry, ds, &cfg, &pool, Some((&mut setup, root)))?;
    }
    setup.close(root);
    drop(pool);

    let mut trace = Trace::default();
    let pass = trace.open("bench.pass", None, 0);
    for (i, ds) in datasets.iter().enumerate() {
        trace.span("graph.materialize", Some(pass), i as u64, || {
            session.graph(ds)
        });
        trace.span("graph.roots", Some(pass), i as u64, || session.roots(ds, 1));
        for t in &TECHNIQUES[1..] {
            let spec = t.parse().expect("roster technique spec");
            for kind in [DegreeKind::Out, DegreeKind::In] {
                trace.span(format!("core.reorder.{t}"), Some(pass), i as u64, || {
                    session.dataset_reorder(ds, &spec, kind)
                });
                trace.span("graph.permute", Some(pass), i as u64, || {
                    session.reordered_graph(ds, &spec, kind)
                });
            }
        }
    }
    let mut accesses = 0u64;
    for (j, job) in jobs.iter().enumerate() {
        let run = trace.span("cachesim.run", Some(pass), j as u64, || session.run(job));
        accesses += run.stats.l1.accesses;
    }
    let mut reports: Vec<Report> = Vec::with_capacity(jobs.len());
    let mut traced_lines = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let report = trace.span("engine.report", Some(pass), j as u64, || {
            session.report(job)
        });
        std::hint::black_box(
            trace.span("engine.to_json", Some(pass), j as u64, || report.to_json()),
        );
        traced_lines.push(report.clone().canonicalized().to_json());
        reports.push(report);
    }
    trace.close(pass);

    // Checks: every timed pass must match the traced pass byte for
    // byte; a job whose line differs is a failed operation.
    for (lines, latencies) in &passes {
        let mut window = Window::default();
        for ((line, traced), &latency) in lines.iter().zip(&traced_lines).zip(latencies) {
            let ok = line == traced;
            if !ok {
                out.fail(format!("report differs between passes: {line} vs {traced}"));
            }
            window.latencies_ms.push(out.tally.record(ok, latency));
            window.seconds += latency / 1e3;
        }
        out.windows.push(window);
    }
    let digest = lgr_io::fnv1a64(traced_lines.join("\n").as_bytes());
    let pass_s: Vec<String> = passes
        .iter()
        .map(|(_, l)| format!("{:.3}", l.iter().sum::<f64>() / 1e3))
        .collect();
    println!(
        "digest sim-cold reports_fnv={digest:016x} reports={} cachesim.accesses={accesses} \
         engine.misses={} untraced_pass_s=[{}]",
        traced_lines.len(),
        out.layers.get("engine.misses").copied().unwrap_or(0.0),
        pass_s.join(",")
    );

    let sim_ms = trace.self_ms("cachesim.run");
    out.layer("cachesim.sim_ms", sim_ms);
    out.layer("cachesim.accesses", accesses as f64);
    out.layer(
        "cachesim.ns_per_access",
        sim_ms * 1e6 / accesses.max(1) as f64,
    );
    for t in crate::REORDERED {
        out.layer(
            format!("core.reorder_ms.{t}"),
            trace.self_ms(&format!("core.reorder.{t}")),
        );
    }
    out.layer("graph.generate_ms", setup.self_ms("graph.generate"));
    out.layer("graph.csr_build_ms", setup.self_ms("graph.csr_build"));
    out.layer("graph.permute_ms", trace.self_ms("graph.permute"));
    out.layer("engine.report_us", trace.mean_self_us("engine.report"));
    out.layer("engine.to_json_us", trace.mean_self_us("engine.to_json"));
    for (t, ds, speedup) in sim_speedups(&jobs, &reports, &crate::HOST_APPS) {
        out.layer(format!("cachesim.speedup.{t}.{ds}"), speedup);
    }
    for (t, ds, speedup) in sim_speedups(&jobs, &reports, &APPS) {
        println!("sim-speedup sim-cold {t} {ds} geomean-over-5-apps={speedup:.4}x");
    }
    // The serve layer on the same jobs, in process (the path of
    // `lgr-serve local`): each job's request line must answer with the
    // traced report. The wire comes from a stats probe against the
    // release server.
    let policy = RequestPolicy::trusted();
    let mut serve = Trace::default();
    let root = serve.open("bench.serve", None, 0);
    for (j, (job, traced)) in jobs.iter().zip(&traced_lines).enumerate() {
        let line = serve_warm::request_line(job);
        serve.span("serve.parse", Some(root), j as u64, || {
            JobRequest::parse(&line)
        })?;
        let answer = serve.span("serve.handle_line", Some(root), j as u64, || {
            handle_line(&session, &line, false, policy)
        });
        if answer != *traced {
            out.fail(format!("{line} answered {answer}, not {traced}"));
        }
    }
    serve.close(root);
    let (round_trip_us, stats_us) = serve_warm::wire_probe(&opts.server)?;
    out.layer("serve.parse_us", serve.mean_self_us("serve.parse"));
    out.layer(
        "serve.handle_line_us",
        serve.mean_self_us("serve.handle_line"),
    );
    out.layer("serve.stats_us", stats_us);
    out.layer("serve.wire_us", round_trip_us - stats_us);

    let traced_ns = trace.duration(pass);
    out.layer(
        "trace_overhead_pct",
        crate::overhead_pct(traced_ns, untraced_first_ns),
    );
    crate::print_accounting("sim-cold", &trace.self_by_layer(), untraced_first_ns);
    let spans = opts.work_dir.join("spans-sim-cold.jsonl");
    trace
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(out)
}

/// Geometric-mean simulated cycle speedup over the original ordering,
/// across `apps`, per skew-aware technique and dataset.
pub fn sim_speedups(jobs: &[Job], reports: &[Report], apps: &[&str]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for t in SKEW_AWARE {
        for ds in DATASETS {
            let speedups: Vec<f64> = jobs
                .iter()
                .zip(reports)
                .filter(|(job, r)| {
                    r.spec == t
                        && job.dataset.dataset_id().map(|id| id.name()) == Some(ds)
                        && apps.contains(&job.app.token())
                })
                .map(|(_, r)| r.speedup)
                .collect();
            if let Some(g) = stats::geomean(&speedups) {
                out.push((t.to_owned(), ds.to_owned(), g));
            }
        }
    }
    out
}
