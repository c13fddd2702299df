//! `lgr-serve` — the JSON-lines job service and its batch client.
//!
//! ```text
//! lgr-serve serve  [--addr <host:port>] [--workers <n>] [--allow-files] [session flags]
//! lgr-serve client --addr <host:port> --jobs <file|-> [--concurrency <m>] [--canonical]
//! lgr-serve local  --jobs <file|-> [--canonical] [session flags]
//!
//! `--allow-files` lets network clients name `file:`/`lgr:` dataset
//! specs, which make the server read server-side paths; off by
//! default. (`local` always allows them: it runs with the invoker's
//! own filesystem access.)
//!
//! Session flags (serve/local):
//!   --quick              tiny graphs (CI smoke scale)
//!   --scale <exp>        sd dataset gets 2^exp vertices
//!   --roots <n>          roots per root-dependent app run
//!   --sim <knobs>        simulator geometry (cores=8,sockets=2,...)
//!   --cache-bytes <n>    per-cache resident budget (accepts k/m/g
//!                        suffixes); omit for unbounded caches
//!   --cache-policy <p>   eviction policy under a budget: `cost`
//!                        (default, cost-aware) or `lru`
//!   --verbose            progress logging to stderr
//! ```
//!
//! A long-lived `serve` process without `--cache-bytes` caches every
//! distinct job forever; give it a budget and ask the server for its
//! counters by sending the request line `{"stats":"true"}`.
//!
//! `serve` binds (port 0 picks an ephemeral port), prints one
//! `listening on <addr>` line to stdout, and serves forever: each of
//! `--workers` threads owns one connection at a time, all sharing a
//! single `Session` whose caches coalesce duplicate jobs into one
//! build. `client` fans a job file out over `--concurrency`
//! connections and prints responses in input order. `local` runs the
//! same job lines sequentially in-process — the reference output a
//! concurrent batch is diffed against. With `--canonical` both modes
//! clear the report's only wall-clock field so the outputs compare
//! byte-for-byte.

use std::io::Read;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use lgr_cachesim::SimConfig;
use lgr_engine::{parse_bytes, EvictionPolicy, Session, SessionConfig};
use lgr_serve::{run_batch, run_local, serve};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = match args.next() {
        Some(m) if ["serve", "client", "local"].contains(&m.as_str()) => m,
        Some(h) if h == "--help" || h == "-h" => return usage(""),
        other => {
            return usage(&format!(
                "expected a mode (serve | client | local), got {}",
                other.as_deref().unwrap_or("nothing")
            ))
        }
    };

    let mut addr: Option<String> = None;
    let mut workers = 4usize;
    let mut allow_files = false;
    let mut concurrency = 4usize;
    let mut jobs_path: Option<String> = None;
    let mut canonical = false;
    let mut quick = false;
    let mut verbose = false;
    let mut scale_exp: Option<u32> = None;
    let mut roots: Option<usize> = None;
    let mut sim: Option<SimConfig> = None;
    let mut cache_bytes: Option<u64> = None;
    let mut cache_policy: Option<EvictionPolicy> = None;
    // Flags seen, checked against the mode's allowlist below —
    // silently ignoring a mode-irrelevant flag (say `client --quick`)
    // would let the user believe it took effect.
    let mut seen: Vec<&'static str> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) if !a.is_empty() => {
                    addr = Some(a);
                    seen.push("--addr");
                }
                _ => return usage("--addr needs host:port"),
            },
            "--workers" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => {
                    workers = n;
                    seen.push("--workers");
                }
                _ => return usage("--workers needs a positive integer"),
            },
            "--allow-files" => {
                allow_files = true;
                seen.push("--allow-files");
            }
            "--concurrency" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => {
                    concurrency = n;
                    seen.push("--concurrency");
                }
                _ => return usage("--concurrency needs a positive integer"),
            },
            "--jobs" => match args.next() {
                Some(p) if !p.is_empty() => {
                    jobs_path = Some(p);
                    seen.push("--jobs");
                }
                _ => return usage("--jobs needs a file path (or `-` for stdin)"),
            },
            "--canonical" => {
                canonical = true;
                seen.push("--canonical");
            }
            "--quick" => {
                quick = true;
                seen.push("--quick");
            }
            "--verbose" | "-v" => {
                verbose = true;
                seen.push("--verbose");
            }
            "--scale" => match args.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(exp) if (8..=24).contains(&exp) => {
                    scale_exp = Some(exp);
                    seen.push("--scale");
                }
                _ => return usage("--scale needs an exponent in 8..=24"),
            },
            "--roots" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    roots = Some(n);
                    seen.push("--roots");
                }
                _ => return usage("--roots needs a positive integer"),
            },
            "--sim" => match args.next().map(|s| s.parse::<SimConfig>()) {
                Some(Ok(parsed)) => {
                    sim = Some(parsed);
                    seen.push("--sim");
                }
                Some(Err(e)) => return usage(&e.to_string()),
                None => return usage("--sim needs a knob list (cores=8,sockets=2,...)"),
            },
            "--cache-bytes" => match args.next().as_deref().map(parse_bytes) {
                Some(Ok(n)) if n >= 1 => {
                    cache_bytes = Some(n);
                    seen.push("--cache-bytes");
                }
                _ => return usage("--cache-bytes needs a positive size (e.g. 16m, 4096k, 1g)"),
            },
            "--cache-policy" => match args.next().and_then(|s| s.parse().ok()) {
                Some(p) => {
                    cache_policy = Some(p);
                    seen.push("--cache-policy");
                }
                None => return usage("--cache-policy needs `lru` or `cost`"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown option {other}")),
        }
    }

    // Each mode accepts only the flags its usage line documents; a
    // flag that would be silently ignored is an error instead.
    const SESSION_FLAGS: [&str; 7] = [
        "--quick",
        "--scale",
        "--roots",
        "--sim",
        "--cache-bytes",
        "--cache-policy",
        "--verbose",
    ];
    let allowed: Vec<&str> = match mode.as_str() {
        "serve" => ["--addr", "--workers", "--allow-files"]
            .into_iter()
            .chain(SESSION_FLAGS)
            .collect(),
        "client" => vec!["--addr", "--jobs", "--concurrency", "--canonical"],
        // `local` runs with the invoker's own filesystem access, so
        // file-backed specs are always allowed there (no flag).
        _ => ["--jobs", "--canonical"]
            .into_iter()
            .chain(SESSION_FLAGS)
            .collect(),
    };
    if let Some(bad) = seen.iter().find(|f| !allowed.contains(f)) {
        return usage(&format!("{bad} is not valid in {mode} mode"));
    }

    let mut cfg = if quick {
        SessionConfig::quick()
    } else {
        SessionConfig::default()
    };
    if let Some(exp) = scale_exp {
        cfg = cfg.with_scale_exp(exp);
    }
    if let Some(n) = roots {
        cfg.roots = n;
    }
    if let Some(s) = sim {
        cfg.sim = s;
    }
    cfg.cache_bytes = cache_bytes;
    if let Some(p) = cache_policy {
        cfg.cache_policy = p;
    }
    cfg.verbose = verbose;

    match mode.as_str() {
        "serve" => {
            let bind = addr.unwrap_or_else(|| "127.0.0.1:0".to_owned());
            let listener = match TcpListener::bind(&bind) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: cannot bind {bind}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let local = match listener.local_addr() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: cannot resolve listener address: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let session = Arc::new(Session::new(cfg));
            println!(
                "lgr-serve listening on {local} ({workers} connection workers, {} pool threads)",
                session.pool().threads()
            );
            // Scripts scrape the line above; make sure it is visible
            // before the first blocking accept.
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let options = lgr_serve::ServeOptions {
                workers,
                allow_files,
            };
            let handles = match serve(listener, session, options) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: cannot spawn connection workers: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for handle in handles {
                let _ = handle.join();
            }
            ExitCode::SUCCESS
        }
        "client" => {
            let Some(addr) = addr else {
                return usage("client mode needs --addr");
            };
            let jobs = match read_jobs(jobs_path.as_deref()) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run_batch(&addr, &jobs, concurrency, canonical) {
                Ok(responses) => {
                    for r in responses {
                        println!("{r}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "local" => {
            let jobs = match read_jobs(jobs_path.as_deref()) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let session = Session::new(cfg);
            for r in run_local(&session, &jobs, canonical) {
                println!("{r}");
            }
            ExitCode::SUCCESS
        }
        // Modes are validated during argument parsing; keep the
        // fallback an orderly exit rather than a panic site anyway.
        other => {
            eprintln!("error: unknown mode `{other}`");
            ExitCode::FAILURE
        }
    }
}

/// Reads non-empty job lines from a file or stdin (`-`).
fn read_jobs(path: Option<&str>) -> Result<Vec<String>, String> {
    let text = match path {
        None => return Err("--jobs <file|-> is required".to_owned()),
        Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?,
    };
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect())
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: lgr-serve serve  [--addr <host:port>] [--workers <n>] [--allow-files] [--quick] [--scale <exp>] [--roots <n>] [--sim <knobs>] [--cache-bytes <n[k|m|g]>] [--cache-policy <lru|cost>] [--verbose]\n\
         \x20      lgr-serve client --addr <host:port> --jobs <file|-> [--concurrency <m>] [--canonical]\n\
         \x20      lgr-serve local  --jobs <file|-> [--canonical] [--quick] [--scale <exp>] [--roots <n>] [--sim <knobs>] [--cache-bytes <n[k|m|g]>] [--cache-policy <lru|cost>] [--verbose]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
