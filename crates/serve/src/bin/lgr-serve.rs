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
//! Session flags (serve/local; parsed by `lgr_engine::SessionFlags`,
//! so they take the same operands and print the same errors as in
//! `repro`):
//!   --quick              tiny graphs (CI smoke scale)
//!   --scale <exp>        sd dataset gets 2^exp vertices
//!   --roots <n>          roots per root-dependent app run
//!   --sim <knobs>        simulator geometry (cores=8,sockets=2,...)
//!   --cache-bytes <n>    per-cache resident budget (accepts k/m/g
//!                        suffixes); omit for unbounded caches
//!   --verbose            progress logging to stderr
//! ```
//!
//! A long-lived `serve` process without `--cache-bytes` caches every
//! distinct job forever; give it a budget and ask the server for its
//! counters by sending the request line `{"stats":"true"}`. A budgeted
//! cache evicts its least-recently-used entries, so a `local` run of
//! the same job lines, stats line included, prints the same bytes
//! every time.
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

use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use lgr_engine::{Session, SessionFlags};
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
    let mut session_flags = SessionFlags::default();
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
            "--help" | "-h" => return usage(""),
            other => match session_flags.parse(other, &mut args) {
                Ok(Some(name)) => seen.push(name),
                Ok(None) => return usage(&format!("unknown option {other}")),
                Err(e) => return usage(&e),
            },
        }
    }

    // Each mode accepts only the flags its usage line documents; a
    // flag that would be silently ignored is an error instead.
    let allowed: Vec<&str> = match mode.as_str() {
        "serve" => ["--addr", "--workers", "--allow-files"]
            .into_iter()
            .chain(SessionFlags::NAMES)
            .collect(),
        "client" => vec!["--addr", "--jobs", "--concurrency", "--canonical"],
        // `local` runs with the invoker's own filesystem access, so
        // file-backed specs are always allowed there (no flag).
        _ => ["--jobs", "--canonical"]
            .into_iter()
            .chain(SessionFlags::NAMES)
            .collect(),
    };
    if let Some(bad) = seen.iter().find(|f| !allowed.contains(f)) {
        return usage(&format!("{bad} is not valid in {mode} mode"));
    }

    let cfg = session_flags.config();

    match mode.as_str() {
        "serve" => {
            let bind = addr.unwrap_or_else(|| "127.0.0.1:0".to_owned());
            let listener = match TcpListener::bind(&bind) {
                Ok(l) => l,
                Err(e) => {
                    stderr(format_args!("error: cannot bind {bind}: {e}\n"));
                    return ExitCode::FAILURE;
                }
            };
            let local = match listener.local_addr() {
                Ok(a) => a,
                Err(e) => {
                    stderr(format_args!(
                        "error: cannot resolve listener address: {e}\n"
                    ));
                    return ExitCode::FAILURE;
                }
            };
            let session = Arc::new(Session::new(cfg));
            // Scripts scrape this line, so flush it before the first
            // blocking accept. Nobody reading it is no reason to stop
            // serving: a write error is ignored.
            {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "lgr-serve listening on {local} ({workers} connection workers, {} pool threads)",
                    session.pool().threads()
                )
                .and_then(|()| out.flush());
            }
            let options = lgr_serve::ServeOptions {
                workers,
                allow_files,
            };
            let handles = match serve(listener, session, options) {
                Ok(h) => h,
                Err(e) => {
                    stderr(format_args!(
                        "error: cannot spawn connection workers: {e}\n"
                    ));
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
                    stderr(format_args!("error: {e}\n"));
                    return ExitCode::FAILURE;
                }
            };
            match run_batch(&addr, &jobs, concurrency, canonical) {
                Ok(responses) => print_lines(&responses),
                Err(e) => {
                    stderr(format_args!("error: {e}\n"));
                    ExitCode::FAILURE
                }
            }
        }
        "local" => {
            let jobs = match read_jobs(jobs_path.as_deref()) {
                Ok(j) => j,
                Err(e) => {
                    stderr(format_args!("error: {e}\n"));
                    return ExitCode::FAILURE;
                }
            };
            let session = Session::new(cfg);
            print_lines(&run_local(&session, &jobs, canonical))
        }
        // Modes are validated during argument parsing; keep the
        // fallback an orderly exit rather than a panic site anyway.
        other => {
            stderr(format_args!("error: unknown mode `{other}`\n"));
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
        stderr(format_args!("error: {err}\n"));
    }
    stderr(
        "usage: lgr-serve serve  [--addr <host:port>] [--workers <n>] [--allow-files] [--quick] [--scale <exp>] [--roots <n>] [--sim <knobs>] [--cache-bytes <n[k|m|g]>] [--verbose]\n\
         \x20      lgr-serve client --addr <host:port> --jobs <file|-> [--concurrency <m>] [--canonical]\n\
         \x20      lgr-serve local  --jobs <file|-> [--canonical] [--quick] [--scale <exp>] [--roots <n>] [--sim <knobs>] [--cache-bytes <n[k|m|g]>] [--verbose]\n",
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints response lines to stdout. A reader that stops early
/// (`lgr-serve local ... | head -1`) has what it asked for: the output
/// stops there and the exit code is 0. Any other write error exits 1.
fn print_lines(lines: &[String]) -> ExitCode {
    let mut out = std::io::stdout().lock();
    let written = lines
        .iter()
        .try_for_each(|line| writeln!(out, "{line}"))
        .and_then(|()| out.flush());
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            stderr(format_args!("error: writing stdout: {e}\n"));
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` to stderr and ignores failure: `eprint!` panics when
/// stderr is a closed pipe, which would turn exit code 1 into 101.
fn stderr(text: impl std::fmt::Display) {
    let _ = write!(std::io::stderr().lock(), "{text}");
}
