//! The repository benchmark: one workload per process, end-to-end
//! metrics from an untraced pass and per-layer self times from a
//! traced pass of the same work, with correctness checks in the same
//! command.
//!
//! ```text
//! perfbench --workload <sim-cold|host-pipeline|serve-warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--server <lgr-serve binary>]
//!           [--work-dir <dir>]
//! ```
//!
//! `perfbench/run.sh` builds this binary and `lgr-serve` from source
//! and runs it from the repository root. Human-readable lines (run
//! metadata, digests, layer accounting) go to stdout first; the last
//! stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. sim-cold and serve-warm run
//! their traced pass in every run because their checks compare against
//! it; host-pipeline's checks do not, so it traces only with
//! `--trace 1`.

mod affinity;
mod host_pipeline;
mod serve_warm;
mod sim_cold;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::Tally;

/// Worker threads of every session pool (`LGR_THREADS`): the 2-core
/// host the bounds were set on.
const THREADS: &str = "2";

/// Techniques every workload's host comparison covers, in roster order.
pub const SKEW_AWARE: [&str; 4] = ["dbg", "sort", "hubsort", "hubcluster"];
/// Techniques whose reorder time is reported per layer.
pub const REORDERED: [&str; 5] = ["dbg", "sort", "hubsort", "hubcluster", "gorder"];
/// The two synthetic datasets: scrambled (unstructured) and
/// community-ordered (structured).
pub const DATASETS: [&str; 2] = ["sd", "fr"];
/// Host-pipeline apps and the technique roster their kernels run under.
pub const HOST_APPS: [&str; 2] = ["pr", "sssp"];
pub const HOST_TECHNIQUES: [&str; 5] = ["orig", "dbg", "sort", "hubsort", "hubcluster"];

/// Workloads BENCHMARK.json gates. serve-warm still runs on request,
/// but its request rate moved by up to 43% between runs of the same
/// code on a shared 2-CPU host, more than any bound allows; sim-cold
/// measures the serve layer in its stead.
pub const GATED: [&str; 2] = ["sim-cold", "host-pipeline"];

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`. A
/// layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("cachesim.sim_ms".into(), "ms"),
        ("cachesim.ns_per_access".into(), "ns"),
        ("cachesim.accesses".into(), "count"),
    ];
    for t in SKEW_AWARE {
        for ds in DATASETS {
            out.push((format!("cachesim.speedup.{t}.{ds}"), "x"));
        }
    }
    for t in REORDERED {
        out.push((format!("core.reorder_ms.{t}"), "ms"));
    }
    for name in [
        "graph.generate_ms",
        "graph.csr_build_ms",
        "graph.permute_ms",
    ] {
        out.push((name.into(), "ms"));
    }
    for app in HOST_APPS {
        for t in HOST_TECHNIQUES {
            out.push((format!("analytics.kernel_ms.{app}.{t}"), "ms"));
        }
    }
    for t in SKEW_AWARE {
        for ds in DATASETS {
            out.push((format!("analytics.break_even.{t}.{ds}"), "traversals"));
        }
    }
    out.push(("io.parse_el_ms".into(), "ms"));
    out.push(("io.load_lgr_ms".into(), "ms"));
    out.push(("engine.report_us".into(), "us"));
    out.push(("engine.to_json_us".into(), "us"));
    out.push(("engine.hits".into(), "count"));
    out.push(("engine.misses".into(), "count"));
    for name in [
        "serve.parse_us",
        "serve.handle_line_us",
        "serve.stats_us",
        "serve.wire_us",
    ] {
        out.push((name.into(), "us"));
    }
    out.push(("trace_overhead_pct".into(), "%"));
    out
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations (jobs or requests) attempted and failed.
    pub tally: Tally,
    /// Correctness checks that failed, one line each.
    pub check_failures: Vec<String>,
    /// Every set-up repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// VmHWM of the process doing the work, in kB.
    pub peak_rss_kb: u64,
    /// Timed operations grouped into measurement windows: one pass of
    /// a batch roster, or a fixed slice of a closed loop. Each
    /// end-to-end rate and percentile is the median over windows.
    pub windows: Vec<Window>,
    /// Operations every window holds at least, which fixes the tail
    /// percentile reported for the workload.
    pub guaranteed_ops: usize,
    /// Per-layer metrics this workload measured.
    pub layers: BTreeMap<String, f64>,
    /// Sizes of the workload's inputs, for the run metadata.
    pub scale: String,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        println!("CHECK FAILED: {why}");
        self.check_failures.push(why);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// One measurement window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Seconds the window's operations took.
    pub seconds: f64,
    /// Per-operation latency in ms; failed operations are infinite.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    fn completed(&self) -> usize {
        self.latencies_ms.iter().filter(|l| l.is_finite()).count()
    }
}

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed work per run.
    pub seconds: f64,
    /// Print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `lgr-serve` binary (serve-warm only).
    pub server: PathBuf,
    /// Scratch directory for generated inputs and span files.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = PathBuf::from(".bench_build/release/lgr-serve");
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--server" => server = PathBuf::from(value),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Options {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            server,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-cold|host-pipeline|serve-warm> --seed <n> \
                 --seconds <s> --trace <0|1> [--server <path>] [--work-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    // Every session pool in this process (and the server it starts)
    // sizes itself from LGR_THREADS; pin it before any pool exists.
    std::env::set_var("LGR_THREADS", THREADS);
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("error: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match workload.as_str() {
        "sim-cold" => sim_cold::run(&opts),
        "host-pipeline" => host_pipeline::run(&opts),
        "serve-warm" => serve_warm::run(&opts),
        other => {
            eprintln!("error: unknown workload `{other}` (sim-cold, host-pipeline, serve-warm)");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            print_meta(&workload, &opts, &outcome);
            println!("{}", result_line(&outcome, opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end figures of an outcome, in [`END_TO_END`] order.
fn end_to_end(o: &Outcome) -> [f64; 3] {
    let rates: Vec<f64> = o
        .windows
        .iter()
        .map(|w| w.completed() as f64 / w.seconds.max(1e-9))
        .collect();
    [
        stats::median(&o.setups_s).unwrap_or(0.0),
        o.peak_rss_kb as f64 / 1024.0,
        stats::median(&rates).unwrap_or(0.0),
    ]
}

/// Formats a measured value with all its digits. JSON has no
/// infinity, so a break-even whose kernels saved exactly nothing
/// prints as 1e308.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_owned()
    }
}

/// The final stdout line.
fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, &str, f64)> = if trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = o.layers.get(&name).copied().unwrap_or(0.0);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end(o))
            .map(|(&(name, unit), v)| (name.to_owned(), unit, v))
            .collect()
    };
    let correct = o.check_failures.is_empty() && o.tally.failed == 0 && o.tally.attempted > 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.tally.attempted.max(1),
        o.tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    line.push_str("}}");
    line
}

/// Prints the run metadata and the end-to-end figures with their
/// sample counts (stdout, before the result line).
fn print_meta(workload: &str, opts: &Options, o: &Outcome) {
    let sim = lgr_cachesim::SimConfig::default();
    println!(
        "meta workload={workload} seed={} seconds={} trace={} commit={} source_fnv={:016x} \
         nproc={} LGR_THREADS={} rustc=\"{}\" scale=\"{}\" sim=\"cores={} sockets={} \
         l1={}KiB/{}w l2={}KiB/{}w per core, llc={}KiB/{}w per socket\"",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        commit(),
        source_digest(),
        std::thread::available_parallelism().map_or(0, usize::from),
        std::env::var("LGR_THREADS").unwrap_or_default(),
        rustc_version(),
        o.scale,
        sim.cores,
        sim.sockets,
        sim.l1_bytes >> 10,
        sim.l1_ways,
        sim.l2_bytes >> 10,
        sim.l2_ways,
        sim.llc_bytes >> 10,
        sim.llc_ways,
    );
    let level = stats::tail_level(o.guaranteed_ops).unwrap_or(50.0);
    let all: Vec<f64> = o
        .windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    let latency = |p| stats::percentile(&all, p).unwrap_or(f64::INFINITY);
    let [setup, rss, rate] = end_to_end(o);
    let reps: Vec<String> = o.setups_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "end-to-end setup_s={setup:.4} (median of [{}]) peak_rss_mb={rss:.1} jobs_per_s={rate:.3} \
         (median over {} windows); job latency p50={:.4}ms p{level}={:.4}ms over {} samples \
         in {:.3}s; {} ok of {} attempted",
        reps.join(","),
        o.windows.len(),
        latency(50.0),
        latency(level),
        all.len(),
        o.windows.iter().map(|w| w.seconds).sum::<f64>(),
        o.tally.attempted - o.tally.failed,
        o.tally.attempted,
    );
}

/// The checked-out commit, or `none` outside a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a over the sources the benchmark builds (paths and bytes), so
/// runs from a checkout without git history still name their code.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
        .map(PathBuf::from)
        .into();
    for dir in ["src", "crates", "shims", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    lgr_io::fnv1a64(&bytes)
}

/// VmHWM (peak resident set) of process `pid` in kB, `self` for this
/// process.
pub fn peak_rss_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints every layer's self time in a pass, its share of the pass,
/// and the slowest layer (the benchmark's own `bench` layer excluded).
pub fn print_accounting(workload: &str, layers: &BTreeMap<String, u64>, untraced_ns: u64) {
    let traced: u64 = layers.values().sum();
    for (layer, &ns) in layers {
        println!(
            "layer {workload} {layer:<10} self_ms={:>12.3} share={:>6.2}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / traced.max(1) as f64
        );
    }
    if let Some((layer, ns)) = layers
        .iter()
        .filter(|(l, _)| l.as_str() != "bench")
        .max_by_key(|(_, &ns)| ns)
    {
        println!(
            "slowest-layer {workload} {layer} ({:.1}% of the traced pass)",
            100.0 * *ns as f64 / traced.max(1) as f64
        );
    }
    println!(
        "accounting {workload} traced_ms={:.3} untraced_ms={:.3} overhead_pct={:.3}",
        traced as f64 / 1e6,
        untraced_ns as f64 / 1e6,
        overhead_pct(traced, untraced_ns)
    );
}

/// Traced wall time against untraced wall time, in percent.
pub fn overhead_pct(traced_ns: u64, untraced_ns: u64) -> f64 {
    100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must name exactly the metrics this binary prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\":").count();
        let printed: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in GATED {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
        assert_eq!(
            declared,
            printed.len() + GATED.len(),
            "BENCHMARK.json declares extra names"
        );
    }

    #[test]
    fn result_line_prints_every_metric_of_the_mode() {
        let mut o = Outcome {
            tally: Tally {
                attempted: 120,
                failed: 0,
            },
            setups_s: vec![0.5, 0.25, 0.75],
            peak_rss_kb: 2048,
            // Three windows of 40 operations; the middle rate is the
            // median.
            windows: [1.0, 2.0, 4.0]
                .iter()
                .map(|&scale| Window {
                    seconds: 2.0 * scale,
                    latencies_ms: (1..=40).map(|i| f64::from(i) * scale).collect(),
                })
                .collect(),
            guaranteed_ops: 40,
            ..Outcome::default()
        };
        o.layer("graph.permute_ms", 1.5);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 120, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 2, \"unit\": \"MB\"}"));
        assert!(line.contains("\"jobs_per_s\": {\"value\": 10, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = result_line(&o, true);
        assert!(traced.contains("\"graph.permute_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert_eq!(traced.matches("\"value\"").count(), per_layer().len());

        // A failed operation makes the run incorrect and drops out of
        // its window's rate.
        o.tally.failed = 1;
        o.windows[1].latencies_ms[0] = f64::INFINITY;
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 120, \"failed\": 1,"));
        assert!(line.contains("\"jobs_per_s\": {\"value\": 9.75, \"unit\": \"1/s\"}"));
    }
}
