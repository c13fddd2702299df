//! `repro` — regenerates the tables and figures of *A Closer Look at
//! Lightweight Graph Reordering* (IISWC'19) on synthetic dataset
//! analogues (or external graphs) and a simulated memory hierarchy.
//!
//! Usage:
//!
//! ```text
//! repro [OPTIONS] <experiment>... | all | list
//!
//! Options:
//!   --quick              tiny graphs (CI smoke test)
//!   --scale <exp>        sd dataset gets 2^exp vertices (default 17)
//!   --roots <n>          roots per root-dependent app run (default 2)
//!   --techniques <list>  comma-separated technique specs (dbg,sort,rcb:4,...)
//!   --apps <list>        comma-separated app specs (pr,sssp,...)
//!   --datasets <list>    comma-separated dataset specs
//!                        (sd,kr:sd=15,file:/g.el,lgr:/g.lgr,...)
//!   --dataset-cache <dir> persist/reload built graphs as binary CSRs
//!   --sim <knobs>        simulator geometry (cores=8,sockets=2,...)
//!   --cache-bytes <n>    per-cache resident budget (k/m/g suffixes);
//!                        omit for unbounded in-memory caches
//!   --cache-stats        print per-cache hit/miss/eviction/resident
//!                        counters to stderr after the run
//!   --list               print every experiment/technique/app/dataset
//!                        name and spec grammar, then exit
//!   --verbose            progress logging to stderr
//! ```
//!
//! Unknown experiment, technique, app, or dataset names exit with
//! code 2 and list the valid names; malformed spec values (e.g.
//! `kr:sd=abc`) exit 1 like other bad flags. A reader that closes
//! stdout early (`repro fig6 | head -1`) ends the run with exit 0.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::time::Instant;

use lgr_bench::experiments::{self, Experiment};
use lgr_engine::{
    AppSpec, DatasetSpec, Session, SessionConfig, SessionFlags, SpecError, TechniqueSpec,
    BUILTIN_DATASETS, BUILTIN_TECHNIQUES, DATASET_SPEC_FORMS,
};

/// Exit code for unknown experiment/technique/app/dataset names
/// (distinct from 1, which covers malformed flags).
const EXIT_UNKNOWN_NAME: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Collect flags first, then build the config, so the outcome does
    // not depend on argument order (`--roots 4 --quick` must not have
    // `--quick` clobber the roots override).
    let mut session_flags = SessionFlags::default();
    let mut list = false;
    let mut techniques: Option<Vec<TechniqueSpec>> = None;
    let mut apps: Option<Vec<AppSpec>> = None;
    let mut datasets: Option<Vec<DatasetSpec>> = None;
    let mut dataset_cache: Option<std::path::PathBuf> = None;
    let mut cache_stats = false;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--techniques" => match iter.next() {
                Some(list) => match parse_list::<TechniqueSpec>(&list) {
                    Ok(specs) => techniques = Some(specs),
                    Err(e) => return spec_error(e),
                },
                None => return usage("--techniques needs a comma-separated list"),
            },
            "--apps" => match iter.next() {
                Some(list) => match parse_list::<AppSpec>(&list) {
                    Ok(specs) => apps = Some(specs),
                    Err(e) => return spec_error(e),
                },
                None => return usage("--apps needs a comma-separated list"),
            },
            "--datasets" => match iter.next() {
                Some(list) => match parse_list::<DatasetSpec>(&list) {
                    Ok(specs) => datasets = Some(specs),
                    Err(e) => return spec_error(e),
                },
                None => return usage("--datasets needs a comma-separated list"),
            },
            "--dataset-cache" => match iter.next() {
                Some(dir) if !dir.is_empty() => dataset_cache = Some(dir.into()),
                _ => return usage("--dataset-cache needs a directory"),
            },
            "--cache-stats" => cache_stats = true,
            "--help" | "-h" => return usage(""),
            other => match session_flags.parse(other, &mut iter) {
                Ok(Some(_)) => {}
                Ok(None) if other.starts_with('-') => {
                    return usage(&format!("unknown option {other}"))
                }
                Ok(None) => names.push(other.to_owned()),
                Err(e) => return usage(&e),
            },
        }
    }
    let mut cfg = session_flags.config();
    cfg.techniques = techniques;
    cfg.apps = apps;
    cfg.datasets = datasets;
    cfg.dataset_cache = dataset_cache;
    let mut out = std::io::stdout().lock();
    match run(cfg, &names, list, cache_stats, &mut out) {
        Ok(code) => code,
        // The reader stopped early (`repro fig6 | head -1`): it has
        // what it asked for, so stop there and report success.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            stderr(format_args!("error: writing stdout: {e}\n"));
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected experiments (or prints a listing), writing
/// stdout through `out` and stopping at the first write error.
fn run(
    cfg: SessionConfig,
    names: &[String],
    list: bool,
    cache_stats: bool,
    out: &mut impl Write,
) -> std::io::Result<ExitCode> {
    if list {
        print_catalog(out)?;
        return Ok(ExitCode::SUCCESS);
    }
    if names.iter().any(|n| n == "list") {
        for e in experiments::ALL {
            writeln!(out, "{:<8} {}", e.name, e.description)?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let selected: Vec<&'static Experiment> = if names.is_empty() || names.iter().any(|n| n == "all")
    {
        experiments::ALL.iter().collect()
    } else {
        let mut v = Vec::new();
        for n in names {
            match experiments::by_name(n) {
                Some(e) => v.push(e),
                None => {
                    let valid: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
                    return Ok(unknown_name(&format!(
                        "unknown experiment `{n}`; valid: {}",
                        valid.join(", ")
                    )));
                }
            }
        }
        v
    };

    writeln!(
        out,
        "# graph-reorder reproduction | sd = {} vertices | {} cores / {} sockets | {} root(s)\n",
        cfg.scale.sd_vertices, cfg.sim.cores, cfg.sim.sockets, cfg.roots
    )?;
    let session = Session::new(cfg);
    // Materialize the file-backed datasets up front so a missing or
    // malformed file is one clean CLI error, not a mid-experiment
    // panic. Synthetic specs cannot fail and are built lazily by
    // whichever experiments actually use them.
    if let Some(selection) = session.config().datasets.clone() {
        for ds in selection.iter().filter(|d| d.is_file_backed()) {
            if let Err(e) = session.try_graph(ds) {
                stderr(format_args!("error: {e}\n"));
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    for e in selected {
        let start = Instant::now();
        let report = (e.run)(&session);
        writeln!(out, "{report}")?;
        stderr(format_args!(
            "[repro] {} done in {:.1}s\n",
            e.name,
            start.elapsed().as_secs_f64()
        ));
    }
    if cache_stats {
        // Stderr, like the progress lines: stdout stays the
        // experiment tables and nothing else.
        stderr(session.cache_stats());
    }
    Ok(ExitCode::SUCCESS)
}

/// `--list`: every name and spec grammar in one place (they otherwise
/// only appear in error paths).
fn print_catalog(out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "experiments:")?;
    for e in experiments::ALL {
        writeln!(out, "  {:<8} {}", e.name, e.description)?;
    }
    writeln!(
        out,
        "  all      every experiment, in paper order

techniques (--techniques, `+` composes stages):
  names:   {}
  grammar: dbg[:groups=<n>]  rv[:seed=<n>]  rcb:<blocks>[:seed=<n>]
  e.g.:    --techniques dbg:groups=4,rcb:3,gorder+dbg

apps (--apps):
  names:   bc, sssp, pr, prd, radii
  grammar: pr[:iters=<n>]  prd[:iters=<n>]  sssp[:roots=<n>]  bc[:roots=<n>]
           radii[:rounds=<n>][:sources=<n>]

datasets (--datasets):
  names:   {} (aliases: kron=kr, uniform=uni)
  grammar: <name>[:sd=<exp>][:seed=<n>]   (sd gets 2^exp vertices)",
        BUILTIN_TECHNIQUES.join(", "),
        BUILTIN_DATASETS.join(", ")
    )?;
    for form in DATASET_SPEC_FORMS {
        writeln!(out, "           {form}")?;
    }
    writeln!(
        out,
        "  e.g.:    --datasets sd,kr:sd=15,file:/data/web.el,lgr:/data/web.lgr

cache:     --dataset-cache <dir> persists built graphs as .lgr binary CSRs
           keyed by spec + scale; later runs reload instead of regenerating"
    )
}

/// Parses a comma-separated spec list, surfacing the spec layer's
/// error (which names the offending token and the valid names).
fn parse_list<T: std::str::FromStr<Err = SpecError>>(list: &str) -> Result<Vec<T>, SpecError> {
    list.split(',').map(|s| s.trim().parse::<T>()).collect()
}

/// Unknown *names* exit 2; malformed values/parameters are flag
/// errors and exit 1 like every other bad flag.
fn spec_error(err: SpecError) -> ExitCode {
    match err {
        SpecError::UnknownTechnique { .. }
        | SpecError::UnknownApp { .. }
        | SpecError::UnknownDataset { .. } => unknown_name(&err.to_string()),
        _ => usage(&err.to_string()),
    }
}

fn unknown_name(err: &str) -> ExitCode {
    stderr(format_args!("error: {err}\n"));
    ExitCode::from(EXIT_UNKNOWN_NAME)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        stderr(format_args!("error: {err}\n"));
    }
    stderr(
        "usage: repro [--quick] [--scale <exp>] [--roots <n>] [--techniques <list>] [--apps <list>] [--datasets <list>] [--dataset-cache <dir>] [--sim <knobs>] [--cache-bytes <n[k|m|g]>] [--cache-stats] [--list] [--verbose] <experiment>... | all | list\n",
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `text` to stderr and ignores failure: `eprint!` panics when
/// stderr is a closed pipe, which would turn exit code 1 into 101.
fn stderr(text: impl std::fmt::Display) {
    let _ = write!(std::io::stderr().lock(), "{text}");
}
