//! host-pipeline: the paper's end-to-end question on real hardware,
//! with no simulator. Reorder + permute + untraced kernels for
//! {`pr:iters=10`, `sssp:roots=4`} × {orig, dbg, sort, hubsort,
//! hubcluster} on two graphs at sd = 2^18 vertices, where sd's 2 MiB
//! property array equals one host core's L2.
//!
//! Before timing, `sd:seed=S` is written as a weighted SNAP edge list
//! and `fr:seed=S` as a `.lgr` snapshot; set-up loads them through
//! `file:` and `lgr:` specs. PageRank pulls by out-degree and SSSP
//! pushes by in-degree, so both degree kinds and both kernel styles
//! run. Gorder is left out: at this size it alone takes tens of
//! seconds, and sim-cold covers it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lgr_analytics::apps::{sssp, SsspConfig};
use lgr_cachesim::NullTracer;
use lgr_engine::{DatasetRegistry, DatasetSpec, EvictionPolicy, Job, Session, SessionConfig};
use lgr_graph::{Csr, EdgeList, VertexId};
use lgr_parallel::Pool;

use crate::sim_cold::{self, job, materialize};
use crate::trace::Trace;
use crate::{ms, Options, Outcome, Window, DATASETS, HOST_TECHNIQUES, SKEW_AWARE};

/// `sd` gets 2^18 vertices.
pub const SCALE_EXP: u32 = 18;
const APPS: [&str; 2] = ["pr:iters=10", "sssp:roots=4"];
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-cache resident budget. Both original graphs fit; each
/// relabelled graph is used by one job and is evicted later, which
/// keeps the run's memory near 0.6 GB instead of ~1.6 GB. Eviction is
/// LRU so the newest relabelled graph stays cached: the traced pass
/// builds it in one call and runs the kernel on it in the next.
const CACHE_BYTES: u64 = 256 << 20;

fn config() -> SessionConfig {
    let mut cfg = SessionConfig::default().with_scale_exp(SCALE_EXP);
    cfg.cache_bytes = Some(CACHE_BYTES);
    cfg.cache_policy = EvictionPolicy::Lru;
    cfg
}

/// Removes the generated input files when the run ends.
struct Inputs(Vec<PathBuf>);

impl Drop for Inputs {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn write_edge_list(path: &Path, el: &EdgeList) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# src dst weight")?;
    for (src, dst, w) in el.iter_weighted() {
        writeln!(out, "{src} {dst} {w}")?;
    }
    out.flush()
}

/// SSSP distances from `root` on `graph`, as a session would run them.
fn distances(graph: &Csr, root: VertexId, cores: usize) -> Vec<u64> {
    let cfg = SsspConfig {
        cores,
        ..SsspConfig::from_root(root)
    };
    sssp(graph, &cfg, &mut NullTracer).distances
}

/// Loads both inputs through their specs on a fresh session.
fn load(cfg: &SessionConfig, specs: &[DatasetSpec]) -> Result<(Session, f64), String> {
    let session = Session::new(cfg.clone());
    let t0 = Instant::now();
    for spec in specs {
        session.try_graph(spec).map_err(|e| e.to_string())?;
    }
    Ok((session, t0.elapsed().as_secs_f64()))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cfg = config();
    let seed = opts.seed;
    let sd_path = opts.work_dir.join(format!("sd-{seed}.el"));
    let fr_path = opts.work_dir.join(format!("fr-{seed}.lgr"));
    let _inputs = Inputs(vec![sd_path.clone(), fr_path.clone()]);

    // Inputs, written before anything is timed.
    let registry = DatasetRegistry::new();
    let pool = Pool::with_default_threads();
    let sources = sim_cold::datasets(seed);
    let mut inputs = Trace::default();
    let root = inputs.open("bench.inputs", None, 0);
    let (sd_el, _) = materialize(
        &registry,
        &sources[0],
        &cfg,
        &pool,
        Some((&mut inputs, root)),
    )?;
    write_edge_list(&sd_path, &sd_el).map_err(|e| format!("{}: {e}", sd_path.display()))?;
    drop(sd_el);
    let (_, fr) = materialize(
        &registry,
        &sources[1],
        &cfg,
        &pool,
        Some((&mut inputs, root)),
    )?;
    lgr_io::save_lgr(&fr_path, &fr).map_err(|e| e.to_string())?;
    drop(fr);
    inputs.close(root);
    drop(pool);
    let specs: Vec<DatasetSpec> = [
        format!("file:{}:weighted", sd_path.display()),
        format!("lgr:{}", fr_path.display()),
    ]
    .iter()
    .map(|s| s.parse().map_err(|e| format!("{s}: {e}")))
    .collect::<Result<_, _>>()?;

    let jobs: Vec<(usize, &str, &str, Job)> = specs
        .iter()
        .enumerate()
        .flat_map(|(d, ds)| {
            APPS.iter().flat_map(move |app| {
                HOST_TECHNIQUES
                    .iter()
                    .map(move |t| (d, *app, *t, job(app, ds, t)))
            })
        })
        .collect();
    let mut out = Outcome {
        guaranteed_ops: jobs.len(),
        scale: format!(
            "sd=2^{SCALE_EXP} vertices; {} jobs per pass ({} datasets x {} apps x {} techniques); \
             session cache budget {} MiB",
            jobs.len(),
            specs.len(),
            APPS.len(),
            HOST_TECHNIQUES.len(),
            CACHE_BYTES >> 20
        ),
        ..Outcome::default()
    };

    // Set-up: load both inputs, several times, each on a fresh session.
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let (s, secs) = load(&cfg, &specs)?;
        out.setups_s.push(secs);
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;

    // The check's reference: SSSP distances on each original graph
    // from its first vertex with both in- and out-edges.
    let mut references = Vec::new();
    for spec in &specs {
        let g = session.graph(spec);
        let root = (0..g.num_vertices() as VertexId)
            .find(|&v| g.out_degree(v) > 0 && g.in_degree(v) > 0)
            .unwrap_or(0);
        references.push((root, distances(&g, root, cfg.sim.cores)));
    }
    let mut digest_bytes = Vec::new();
    for (_, d) in &references {
        digest_bytes.extend(d.iter().flat_map(|x| x.to_le_bytes()));
    }

    // Timed passes; the first also checks every relabelled graph.
    let started = Instant::now();
    let mut checked: Vec<bool> = Vec::new();
    let mut untraced_first_ns = 0;
    loop {
        let first = checked.is_empty();
        let mut window = Window::default();
        for (j, (d, app, t, job)) in jobs.iter().enumerate() {
            let t0 = Instant::now();
            session.wall(job);
            let latency = ms(t0.elapsed());
            let ok = if first {
                let ok = check(&session, job, &references[*d], cfg.sim.cores);
                if !ok {
                    out.fail(format!(
                        "{app} under {t} on {}: remapped SSSP distances differ",
                        job.dataset
                    ));
                }
                checked.push(ok);
                ok
            } else {
                checked[j]
            };
            window.latencies_ms.push(out.tally.record(ok, latency));
            window.seconds += latency / 1e3;
            if first {
                println!(
                    "job host-pipeline {} {app} {t} ms={latency:.3}",
                    DATASETS[*d]
                );
            }
        }
        if first {
            untraced_first_ns = (window.seconds * 1e9) as u64;
            out.peak_rss_kb = crate::peak_rss_kb("self");
            let total = session.cache_stats().total();
            out.layer("engine.hits", total.hits as f64);
            out.layer("engine.misses", total.misses as f64);
        }
        out.windows.push(window);
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        drop(session);
        let (s, secs) = load(&cfg, &specs)?;
        out.setups_s.push(secs);
        session = s;
    }
    drop(session);
    println!(
        "digest host-pipeline sssp_fnv={:016x} vertices={} checked_graphs={} engine.misses={} \
         untraced_pass_s=[{}]",
        lgr_io::fnv1a64(&digest_bytes),
        references.iter().map(|(_, d)| d.len()).sum::<usize>(),
        jobs.iter().filter(|j| j.3.technique.is_some()).count(),
        out.layers.get("engine.misses").copied().unwrap_or(0.0),
        out.windows
            .iter()
            .map(|w| format!("{:.3}", w.seconds))
            .collect::<Vec<_>>()
            .join(","),
    );

    if opts.trace {
        traced_pass(
            opts,
            &cfg,
            &specs,
            &jobs,
            &inputs,
            untraced_first_ns,
            &mut out,
        )?;
    }
    Ok(out)
}

/// The same work, traced: load, then per job the reorder, permute and
/// kernel as separate calls, each on cached inputs. Run only for the
/// per-layer figures, since the checks do not depend on it.
fn traced_pass(
    opts: &Options,
    cfg: &SessionConfig,
    specs: &[DatasetSpec],
    jobs: &[(usize, &str, &str, Job)],
    inputs: &Trace,
    untraced_ns: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let session = Session::new(cfg.clone());
    let mut load = Trace::default();
    let root = load.open("bench.setup", None, 0);
    for (d, (name, spec)) in ["io.parse_el", "io.load_lgr"].iter().zip(specs).enumerate() {
        load.span(*name, Some(root), d as u64, || session.try_graph(spec))
            .map_err(|e| e.to_string())?;
    }
    load.close(root);
    let mut trace = Trace::default();
    let pass = trace.open("bench.pass", None, 0);
    for (d, spec) in specs.iter().enumerate() {
        trace.span("graph.roots", Some(pass), d as u64, || {
            session.roots(spec, 1)
        });
    }
    for (j, (_, _, t, job)) in jobs.iter().enumerate() {
        let j = j as u64;
        if let Some(spec) = &job.technique {
            let kind = job.app.id().reorder_degree();
            trace.span(format!("core.reorder.{t}"), Some(pass), j, || {
                session.dataset_reorder(&job.dataset, spec, kind)
            });
            trace.span("graph.permute", Some(pass), j, || {
                session.reordered_graph(&job.dataset, spec, kind)
            });
        }
        trace.span(
            format!("analytics.kernel.{}.{t}", job.app.token()),
            Some(pass),
            j,
            || session.wall(job),
        );
    }
    trace.close(pass);
    drop(session);

    for name in ["graph.generate", "graph.csr_build"] {
        out.layer(format!("{name}_ms"), inputs.self_ms(name));
    }
    out.layer("io.parse_el_ms", load.self_ms("io.parse_el"));
    out.layer("io.load_lgr_ms", load.self_ms("io.load_lgr"));
    for t in crate::REORDERED {
        out.layer(
            format!("core.reorder_ms.{t}"),
            trace.self_ms(&format!("core.reorder.{t}")),
        );
    }
    out.layer("graph.permute_ms", trace.self_ms("graph.permute"));
    for app in crate::HOST_APPS {
        for t in HOST_TECHNIQUES {
            out.layer(
                format!("analytics.kernel_ms.{app}.{t}"),
                trace.self_ms(&format!("analytics.kernel.{app}.{t}")),
            );
        }
    }
    out.layer(
        "trace_overhead_pct",
        crate::overhead_pct(trace.duration(pass), untraced_ns),
    );
    crate::print_accounting("host-pipeline", &trace.self_by_layer(), untraced_ns);
    let break_even = break_even(&trace, jobs);
    for ((t, ds), traversals) in &break_even {
        out.layer(format!("analytics.break_even.{t}.{ds}"), *traversals);
    }
    compare_with_simulation(out, &break_even, opts.seed);
    let spans = opts.work_dir.join("spans-host-pipeline.jsonl");
    trace
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))
}

/// Whether SSSP on the job's relabelled graph, remapped through its
/// permutation, gives exactly the original graph's distances.
fn check(session: &Session, job: &Job, reference: &(VertexId, Vec<u64>), cores: usize) -> bool {
    let Some(spec) = &job.technique else {
        return true;
    };
    let kind = job.app.id().reorder_degree();
    let timed = session.dataset_reorder(&job.dataset, spec, kind);
    let graph = session.reordered_graph(&job.dataset, spec, kind);
    let (root, expected) = reference;
    let got = distances(&graph, timed.permutation.new_id(*root), cores);
    lgr_analytics::verify::remap(&got, &timed.permutation) == *expected
}

/// Host break-even per (technique, dataset), in traversals of the
/// roster's two apps: (reorder + permute ms for both degree kinds) ÷
/// (kernel ms saved against the original ordering). Negative when the
/// reordered kernels are slower, so the cost is never paid back.
fn break_even(trace: &Trace, jobs: &[(usize, &str, &str, Job)]) -> BTreeMap<(String, String), f64> {
    let mut cost: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    let mut kernel: BTreeMap<(usize, &str), f64> = BTreeMap::new();
    for (span, own) in trace.spans().iter().zip(trace.self_times()) {
        let Some((d, _, t, _)) = usize::try_from(span.job).ok().and_then(|j| jobs.get(j)) else {
            continue;
        };
        let own = own as f64 / 1e6;
        if span.name.starts_with("core.reorder.") || span.name == "graph.permute" {
            *cost.entry((*d, t)).or_default() += own;
        } else if span.name.starts_with("analytics.kernel.") {
            *kernel.entry((*d, t)).or_default() += own;
        }
    }
    let mut out = BTreeMap::new();
    for (d, ds) in DATASETS.iter().enumerate() {
        let base = kernel.get(&(d, "orig")).copied().unwrap_or(0.0);
        for t in SKEW_AWARE {
            let saved = base - kernel.get(&(d, t)).copied().unwrap_or(0.0);
            let spent = cost.get(&(d, t)).copied().unwrap_or(0.0);
            let traversals = if saved == 0.0 {
                f64::INFINITY
            } else {
                spent / saved
            };
            out.insert((t.to_owned(), (*ds).to_owned()), traversals);
        }
    }
    out
}

/// Simulated cycle speedups for the same apps, seeds and techniques
/// at sim-cold's scale and machine, reported beside the host
/// break-even; techniques whose host and simulated verdicts disagree
/// in sign are flagged.
fn compare_with_simulation(
    out: &mut Outcome,
    break_even: &BTreeMap<(String, String), f64>,
    seed: u64,
) {
    let session = Session::new(sim_cold::config());
    let mut jobs = Vec::new();
    for ds in sim_cold::datasets(seed) {
        for app in crate::HOST_APPS {
            jobs.push(job(app, &ds, "orig"));
            for t in SKEW_AWARE {
                jobs.push(job(app, &ds, t));
            }
        }
    }
    let reports: Vec<_> = jobs.iter().map(|j| session.report(j)).collect();
    for (t, ds, speedup) in sim_cold::sim_speedups(&jobs, &reports, &crate::HOST_APPS) {
        out.layer(format!("cachesim.speedup.{t}.{ds}"), speedup);
        let host = break_even
            .get(&(t.clone(), ds.clone()))
            .copied()
            .unwrap_or(0.0);
        let host_gain = host > 0.0;
        let sim_gain = speedup > 1.0;
        println!(
            "net-speedup {t} {ds}: host break-even {host:.2} traversals ({}), simulated \
             speedup {speedup:.4}x ({}){}",
            if host_gain {
                "pays back"
            } else {
                "never pays back"
            },
            if sim_gain { "gain" } else { "loss" },
            if host_gain == sim_gain {
                ""
            } else {
                "  <-- host and simulation disagree"
            }
        );
    }
}
