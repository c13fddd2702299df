//! The connection-pool server and the concurrent batch client.
//!
//! The server shares **one** [`Session`] (and therefore one
//! `lgr-parallel` worker pool and one set of coalescing caches)
//! across a fixed pool of connection-handler threads: N clients
//! asking for the same (dataset, technique, app) trigger exactly one
//! build, and everyone gets the same cached report bytes. The client
//! side drives M concurrent jobs over M connections and reassembles
//! the responses in input order, so a concurrent batch is directly
//! `diff`-able against a sequential run of the same job list.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use lgr_engine::Session;
use lgr_sync::{rank, Mutex, Rank};

use crate::protocol::{handle_line, RequestPolicy};

/// Batch-client locks are leaves in the workspace's global lock
/// order (map=100 < slot=200 < pool=300/310 < serve=400+): a batch
/// worker never calls back into the engine while holding one.
const BATCH_RESULTS_RANK: Rank = rank(400, "serve.batch.results");
const BATCH_ERROR_RANK: Rank = rank(410, "serve.batch.first_error");

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Connection-handler threads (each owns one connection at a
    /// time).
    pub workers: usize,
    /// Let clients name `file:`/`lgr:` dataset specs, which make the
    /// server open server-side paths. Off by default: loader errors
    /// can echo file fragments back to the client, so only enable
    /// this when every client is trusted with the server's
    /// filesystem.
    pub allow_files: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            allow_files: false,
        }
    }
}

/// Runs the accept/serve loop on `options.workers` threads sharing
/// one session, returning their join handles (the listener never
/// stops accepting; callers typically park on the handles or let the
/// process own them).
///
/// Each worker owns one connection at a time and answers its requests
/// line by line; a batch of up to `workers` clients is served fully
/// concurrently, and further connections queue in the OS accept
/// backlog.
///
/// # Errors
///
/// The OS refusing to spawn a worker thread (resource exhaustion) is
/// returned rather than panicking; already-spawned workers keep
/// running on the shared listener.
pub fn serve(
    listener: TcpListener,
    session: Arc<Session>,
    options: ServeOptions,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    let listener = Arc::new(listener);
    (0..options.workers.max(1))
        .map(|i| {
            let listener = Arc::clone(&listener);
            let session = Arc::clone(&session);
            std::thread::Builder::new()
                .name(format!("lgr-serve-{i}"))
                .spawn(move || {
                    let policy = RequestPolicy {
                        allow_files: options.allow_files,
                        // Clients may scale *down* but never above the
                        // session's configured scale: each distinct
                        // spec is cached forever, so one oversized
                        // `kr:sd=28` request would pin gigabytes.
                        max_sd_vertices: Some(session.config().scale.sd_vertices),
                        // Well above every roster knob (radii uses
                        // 1024 rounds) yet far below the iteration
                        // counts that would pin a worker for hours.
                        max_app_knob: Some(MAX_APP_KNOB),
                        // Seeds are the unbounded spec dimension —
                        // each distinct one pins another graph.
                        allow_seed_overrides: false,
                    };
                    // Accept failures (a client resetting while
                    // queued, fd exhaustion, EINTR) are retried
                    // forever with exponential backoff: transient
                    // bursts — which EMFILE is, lasting as long as
                    // in-flight handlers hold their sockets — must
                    // not kill the worker, and a worker must never
                    // silently give up while the process reports
                    // success. A permanently dead listener degrades
                    // to one log line and one retry per second.
                    let mut backoff = std::time::Duration::from_millis(10);
                    const MAX_BACKOFF: std::time::Duration = std::time::Duration::from_secs(1);
                    loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                backoff = std::time::Duration::from_millis(10);
                                // A dropped connection is the client's
                                // business; the worker moves on.
                                let _ = handle_connection(stream, &session, policy);
                            }
                            Err(e) => {
                                // A closed stderr must not panic the
                                // worker: that would end it for good.
                                if backoff >= MAX_BACKOFF {
                                    let _ = writeln!(
                                        std::io::stderr().lock(),
                                        "[lgr-serve] worker {i}: accept failing: {e}"
                                    );
                                }
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(MAX_BACKOFF);
                            }
                        }
                    }
                })
        })
        .collect()
}

/// Largest accepted request line. Far beyond any real spec string,
/// and small enough that a client streaming garbage with no newline
/// cannot balloon the server's memory.
pub const MAX_REQUEST_BYTES: u64 = 64 * 1024;

/// Per-request cap the server places on explicit app work knobs
/// (`pr:iters=`, `radii:rounds=`, ...) — generous against every
/// roster default, stingy against `pr:iters=1000000000`.
pub const MAX_APP_KNOB: usize = 4096;

/// Serves one connection: one `Report` (or error) line per request
/// line, flushed after each so clients can pipeline synchronously.
/// A request longer than [`MAX_REQUEST_BYTES`] gets an error response
/// and the connection is dropped (there is no way to resynchronize on
/// a line protocol mid-line); a complete line that is not valid UTF-8
/// gets an error response and the connection continues.
fn handle_connection(
    stream: TcpStream,
    session: &Session,
    policy: RequestPolicy,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let respond = |writer: &mut BufWriter<TcpStream>, line: &str| -> std::io::Result<()> {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    };
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read raw bytes, bounded: `take` makes an unterminated flood
        // look like EOF at the cap instead of growing the buffer until
        // the process is OOM-killed, and byte-wise reading keeps a
        // multi-byte UTF-8 character straddling the cap (or plain
        // invalid UTF-8) an orderly protocol error rather than an
        // abrupt connection drop.
        if (&mut reader)
            .take(MAX_REQUEST_BYTES)
            .read_until(b'\n', &mut buf)?
            == 0
        {
            return Ok(()); // client closed
        }
        if buf.len() as u64 >= MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            respond(
                &mut writer,
                &crate::protocol::error_line(&format!(
                    "request line exceeds {MAX_REQUEST_BYTES} bytes"
                )),
            )?;
            // Closing with unread bytes pending makes the kernel RST
            // the connection and discard the error line we just
            // flushed. Send FIN so the client sees clean EOF after
            // the response, then drain (bounded) what it already sent
            // before dropping the socket.
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Write);
            let mut sink = [0u8; 8192];
            let mut drained: u64 = 0;
            const DRAIN_LIMIT: u64 = 16 * 1024 * 1024;
            while let Ok(n) = reader.read(&mut sink) {
                if n == 0 {
                    break;
                }
                drained += n as u64;
                if drained > DRAIN_LIMIT {
                    break;
                }
            }
            return Ok(());
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            respond(
                &mut writer,
                &crate::protocol::error_line("request line is not valid UTF-8"),
            )?;
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        respond(
            &mut writer,
            &handle_line(session, line.trim(), false, policy),
        )?;
    }
}

/// Drives `jobs` (request lines) through a running server with
/// `concurrency` connections, returning the response lines **in input
/// order** regardless of completion order.
///
/// With `canonical` set, every parseable request is re-serialized
/// with `"canonical":"true"` so the server clears the wall-clock
/// field; unparseable lines are sent as-is and come back as the
/// server's error response.
///
/// # Errors
///
/// An [`std::io::Error`] if a connection cannot be established or
/// drops mid-job.
pub fn run_batch(
    addr: &str,
    jobs: &[String],
    concurrency: usize,
    canonical: bool,
) -> std::io::Result<Vec<String>> {
    if jobs.is_empty() {
        // A fully filtered batch has nothing to send; don't open a
        // connection (or require a reachable server) just to learn
        // that.
        return Ok(Vec::new());
    }
    let next = AtomicUsize::new(0);
    // lgr_sync Mutexes recover from poison internally (counted in
    // `lgr_sync::poison_recoveries`): a panicking batch worker must
    // not cascade its panic into every sibling's result write.
    let results: Mutex<Vec<Option<String>>> =
        Mutex::ranked(BATCH_RESULTS_RANK, vec![None; jobs.len()]);
    let first_error: Mutex<Option<std::io::Error>> = Mutex::ranked(BATCH_ERROR_RANK, None);
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1).min(jobs.len()) {
            scope.spawn(|| {
                let worker = || -> std::io::Result<()> {
                    let stream = TcpStream::connect(addr)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut writer = BufWriter::new(stream);
                    loop {
                        // ordering: Relaxed — job claiming only needs
                        // the fetch_add's atomicity for unique indices;
                        // result writes are ordered by their mutex.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            return Ok(());
                        };
                        // Guard the line protocol's framing: a blank
                        // job would get no response (the server skips
                        // blank lines — read_line would hang forever)
                        // and an embedded newline would send two
                        // requests for one expected response,
                        // misattributing every later response.
                        if job.trim().is_empty() || job.trim().contains('\n') {
                            if let Some(slot) = results.lock().get_mut(i) {
                                *slot = Some(crate::protocol::error_line(
                                    "job must be a single non-empty line",
                                ));
                            }
                            continue;
                        }
                        let line = prepare(job, canonical);
                        writer.write_all(line.as_bytes())?;
                        writer.write_all(b"\n")?;
                        writer.flush()?;
                        let mut response = String::new();
                        if reader.read_line(&mut response)? == 0 {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::UnexpectedEof,
                                "server closed mid-batch",
                            ));
                        }
                        if let Some(slot) = results.lock().get_mut(i) {
                            *slot = Some(response.trim_end().to_owned());
                        }
                    }
                };
                if let Err(e) = worker() {
                    first_error.lock().get_or_insert(e);
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    Ok(results
        .into_inner()
        .into_iter()
        .map(|r| {
            // Workers claim indices exhaustively, so every slot is
            // filled on the success path; a hole (a worker died after
            // claiming) still yields a well-formed error line.
            r.unwrap_or_else(|| crate::protocol::error_line("worker abandoned job"))
        })
        .collect())
}

/// Runs the same job lines sequentially, in-process, against a fresh
/// or shared session — the reference a concurrent batch is diffed
/// against (and a server-free way to smoke the protocol). Runs under
/// [`RequestPolicy::trusted`]: the caller already has this filesystem
/// and this machine's memory.
pub fn run_local(session: &Session, jobs: &[String], canonical: bool) -> Vec<String> {
    jobs.iter()
        .map(|line| handle_line(session, line.trim(), canonical, RequestPolicy::trusted()))
        .collect()
}

/// Rewrites a request line with the canonical flag when asked (and
/// possible); malformed lines pass through untouched for the server
/// to reject.
fn prepare(job: &str, canonical: bool) -> String {
    if !canonical {
        return job.to_owned();
    }
    match crate::protocol::JobRequest::parse(job.trim()) {
        Ok(mut req) => {
            req.canonical = true;
            req.to_json()
        }
        Err(_) => job.to_owned(),
    }
}
