//! serve-warm: the release `lgr-serve serve --quick --workers 2` as a
//! child process, every job a cache hit. Time goes to protocol
//! parsing, session cache lookups, report serialization and the socket
//! round trip.
//!
//! Set-up starts the server and sends each of 240 keys (8 skewed
//! datasets × 6 techniques × 5 apps) once. The run is then a closed
//! loop of 2 connections, each sending its next `"canonical":"true"`
//! request line (drawn by seed from those keys) only after the reply
//! to the previous one, because `lgr-serve client`, the only client
//! today, waits for each reply. One line in 100 is `{"stats":"true"}`.
//! The client threads run on one CPU and the warm server on the
//! others, and every figure is the median over half-second windows, so
//! a burst of interference from outside moves a few windows, not the
//! result. Even so, on a shared 2-CPU host its request rate moved by
//! up to 43% between runs of the same code, so BENCHMARK.json does not
//! gate it; run it with `--workload serve-warm`.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lgr_engine::{DatasetSpec, Job, Session, SessionConfig};
use lgr_serve::{handle_line, JobRequest, RequestPolicy, MAX_APP_KNOB};

use crate::stats::Tally;
use crate::trace::Trace;
use crate::{affinity, Options, Outcome, Window};

const TECHNIQUES: [&str; 6] = ["orig", "sort", "hubsort", "hubcluster", "dbg", "gorder"];
const APPS: [&str; 5] = ["pr", "prd", "sssp", "bc", "radii"];
const CONNECTIONS: u64 = 2;
/// Every this-many-th request on a connection is a stats request.
const STATS_EVERY: u64 = 100;
const STATS_LINE: &str = "{\"stats\":\"true\"}";
/// Set-up repetitions per run (each a fresh server); `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
/// Requests replayed in process for the per-layer times.
const REPLAY: u64 = 10_000;
/// Length of one measurement window of the closed loop.
const WINDOW_S: f64 = 0.5;

/// A running `lgr-serve`, killed and reaped when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args([
                "serve",
                "--quick",
                "--workers",
                "2",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut line = String::new();
        if let Some(stdout) = child.stdout.take() {
            let _ = BufReader::new(stdout).read_line(&mut line);
        }
        // `lgr-serve listening on 127.0.0.1:PORT (...)`
        let addr = line
            .strip_prefix("lgr-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let server = Server {
            child,
            addr: addr.unwrap_or_default(),
        };
        if server.addr.is_empty() {
            return Err(format!("server did not report its address: {line:?}"));
        }
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `line` (newline included) and reads the reply into `buf`
    /// without its newline.
    fn call(&mut self, line: &str, buf: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        buf.clear();
        if self.reader.read_line(buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.truncate(buf.trim_end().len());
        Ok(())
    }
}

/// SplitMix64: the request stream of one connection.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, connection: u64) -> Self {
        Stream(seed ^ (connection + 1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The key index of request `i` (1-based), or `None` for a stats
    /// request.
    fn request(&mut self, i: u64, keys: usize) -> Option<usize> {
        if i.is_multiple_of(STATS_EVERY) {
            None
        } else {
            Some((self.next() % keys as u64) as usize)
        }
    }
}

/// The canonical request line of a job.
pub fn request_line(job: &Job) -> String {
    JobRequest {
        app: job.app.to_string(),
        dataset: job.dataset.to_string(),
        technique: job.technique.as_ref().map(ToString::to_string),
        canonical: true,
    }
    .to_json()
}

/// Median round trip of a stats request against a fresh release
/// server, and median time of the same request handled in process on
/// an equally fresh session, both in µs. Their difference is the wire
/// cost (socket, framing and wake-ups) of one request.
pub fn wire_probe(binary: &Path) -> Result<(f64, f64), String> {
    const PROBES: usize = 2000;
    let server = Server::start(binary)?;
    let mut conn = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let line = format!("{STATS_LINE}\n");
    let mut buf = String::new();
    let mut round_trips = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t0 = Instant::now();
        conn.call(&line, &mut buf)
            .map_err(|e| format!("stats probe: {e}"))?;
        round_trips.push(t0.elapsed().as_secs_f64() * 1e6);
        if !buf.starts_with("{\"stats\":{") {
            return Err(format!("stats probe: unexpected reply {buf}"));
        }
    }
    drop(server);
    let session = Session::new(SessionConfig::quick());
    let policy = server_policy(&session);
    let local: Vec<f64> = (0..PROBES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(handle_line(&session, STATS_LINE, false, policy));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    Ok((median(&round_trips), median(&local)))
}

/// The 240 canonical request lines.
fn keys() -> Vec<String> {
    let mut keys = Vec::new();
    for ds in DatasetSpec::skewed() {
        for t in TECHNIQUES {
            for app in APPS {
                keys.push(request_line(&crate::sim_cold::job(app, &ds, t)));
            }
        }
    }
    keys
}

/// The policy `lgr-serve serve` applies to network clients.
fn server_policy(session: &Session) -> RequestPolicy {
    RequestPolicy {
        allow_files: false,
        max_sd_vertices: Some(session.config().scale.sd_vertices),
        max_app_knob: Some(MAX_APP_KNOB),
        allow_seed_overrides: false,
    }
}

/// Starts a server and sends every key once over one connection.
fn warm(binary: &Path, keys: &[String]) -> Result<(Server, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(binary)?;
    let mut conn = Conn::open(&server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut answers = Vec::with_capacity(keys.len());
    let mut buf = String::new();
    for key in keys {
        conn.call(&format!("{key}\n"), &mut buf)
            .map_err(|e| format!("warm-up: {e}"))?;
        answers.push(buf.clone());
    }
    Ok((server, answers, t0.elapsed().as_secs_f64()))
}

/// What one closed-loop connection saw.
#[derive(Default)]
struct Client {
    tally: Tally,
    /// Latencies in ms by the window each request started in.
    windows: Vec<Vec<f64>>,
    /// Round trips of job requests that succeeded, in µs.
    job_rtts_us: Vec<f64>,
    last_stats: Option<String>,
    errors: Vec<String>,
}

fn closed_loop(
    addr: &str,
    keys: &[String],
    answers: &[String],
    seed: u64,
    c: u64,
    started: Instant,
    windows: usize,
) -> Client {
    let mut out = Client {
        windows: vec![Vec::new(); windows],
        ..Client::default()
    };
    let deadline = started + Duration::from_secs_f64(WINDOW_S * windows as f64);
    let lines: Vec<String> = keys.iter().map(|k| format!("{k}\n")).collect();
    let stats_line = format!("{STATS_LINE}\n");
    let mut stream = Stream::new(seed, c);
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.windows[0].push(out.tally.record(false, 0.0));
            out.errors.push(format!("connection {c}: {e}"));
            return out;
        }
    };
    let mut buf = String::new();
    let mut i = 0;
    while Instant::now() < deadline {
        i += 1;
        let key = stream.request(i, keys.len());
        let line = key.map_or(&stats_line, |k| &lines[k]);
        let t0 = Instant::now();
        let sent = conn.call(line, &mut buf);
        let rtt = t0.elapsed().as_secs_f64();
        let ok = match (&sent, key) {
            (Err(_), _) => false,
            (Ok(()), Some(k)) => buf == answers[k],
            (Ok(()), None) => buf.starts_with("{\"stats\":{"),
        };
        let w = ((t0 - started).as_secs_f64() / WINDOW_S) as usize;
        out.windows[w.min(windows - 1)].push(out.tally.record(ok, rtt * 1e3));
        if ok {
            match key {
                Some(_) => out.job_rtts_us.push(rtt * 1e6),
                None => out.last_stats = Some(buf.clone()),
            }
        } else if out.errors.len() < 5 {
            out.errors.push(match &sent {
                Err(e) => format!("connection {c} request {i}: {e}"),
                Ok(()) => format!("connection {c} request {i}: unexpected reply {buf}"),
            });
        }
        if sent.is_err() {
            break;
        }
    }
    out
}

/// The number after `"total":{"<field>":` in a stats reply.
fn total_field(stats: &str, field: &str) -> Option<f64> {
    let total = &stats[stats.find("\"total\":{")?..];
    let rest = &total[total.find(&format!("\"{field}\":"))? + field.len() + 3..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Resolves a parsed request into a job the way the server does.
fn resolve(session: &Session, req: &JobRequest) -> Result<Job, String> {
    let app = req.app.parse().map_err(|e| format!("app: {e}"))?;
    let dataset = session
        .dataset_registry()
        .parse(&req.dataset)
        .map_err(|e| format!("dataset: {e}"))?;
    let mut job = Job::new(app, dataset);
    if let Some(t) = &req.technique {
        job = job.with_technique(
            session
                .registry()
                .parse(t)
                .map_err(|e| format!("technique: {e}"))?,
        );
    }
    session.try_graph(&job.dataset).map_err(|e| e.to_string())?;
    Ok(job)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let keys = keys();
    let mut out = Outcome {
        // Every half-second window of the closed loop completes well
        // over a hundred requests, so the tail is p90.
        guaranteed_ops: 100,
        scale: format!(
            "lgr-serve --quick (sd=2^11 vertices), {} keys, {CONNECTIONS} connections, \
             1 stats request in {STATS_EVERY}",
            keys.len()
        ),
        ..Outcome::default()
    };

    // Set-up: a fresh server warmed with every key, several times; the
    // last one serves the run.
    let mut warmed = None;
    for _ in 0..SETUP_REPS {
        drop(warmed.take());
        let (server, answers, secs) = warm(&opts.server, &keys)?;
        out.setups_s.push(secs);
        warmed = Some((server, answers));
    }
    let (server, answers) = warmed.ok_or("no set-up ran")?;
    for (key, answer) in keys.iter().zip(&answers) {
        if answer.starts_with("{\"error\"") {
            out.fail(format!("warm-up {key}: {answer}"));
        }
    }

    // The closed loop, measured in windows of WINDOW_S, with the
    // client threads on the first allowed CPU and the warm server on
    // the others (the client threads inherit this thread's CPUs).
    let allowed = affinity::get(0);
    let pinned = allowed.len() >= 2
        && affinity::set_process(server.child.id(), &allowed[1..])
        && affinity::set(0, &allowed[..1]);
    let windows = ((opts.seconds / WINDOW_S).round() as usize).max(1);
    let started = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (addr, keys, answers) = (&server.addr, &keys, &answers);
                s.spawn(move || closed_loop(addr, keys, answers, opts.seed, c, started, windows))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut lost = Client {
                        windows: vec![Vec::new(); windows],
                        ..Client::default()
                    };
                    lost.windows[0].push(lost.tally.record(false, 0.0));
                    lost.errors.push("client thread panicked".to_owned());
                    lost
                })
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    if !allowed.is_empty() {
        affinity::set(0, &allowed);
    }
    out.windows = vec![
        Window {
            seconds: WINDOW_S,
            latencies_ms: Vec::new(),
        };
        windows
    ];
    out.peak_rss_kb = crate::peak_rss_kb(&server.child.id().to_string());
    drop(server);
    let mut job_rtts_us = Vec::new();
    let mut last_stats = None;
    for client in clients {
        out.tally.absorb(client.tally);
        for (window, latencies) in out.windows.iter_mut().zip(client.windows) {
            window.latencies_ms.extend(latencies);
        }
        job_rtts_us.extend(client.job_rtts_us);
        last_stats = client.last_stats.or(last_stats);
        for e in client.errors {
            out.fail(e);
        }
    }
    if let Some(stats) = &last_stats {
        out.layer("engine.hits", total_field(stats, "hits").unwrap_or(0.0));
        out.layer("engine.misses", total_field(stats, "misses").unwrap_or(0.0));
    }
    let per_window = |f: &dyn Fn(&Window) -> f64| {
        out.windows
            .iter()
            .map(|w| format!("{:.1}", f(w)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let pct =
        |w: &Window, q| crate::stats::percentile(&w.latencies_ms, q).unwrap_or(f64::INFINITY) * 1e3;
    println!(
        "windows serve-warm krps=[{}]",
        per_window(&|w| w.latencies_ms.len() as f64 / w.seconds / 1e3)
    );
    println!(
        "windows serve-warm p50_us=[{}]",
        per_window(&|w| pct(w, 50.0))
    );
    println!(
        "windows serve-warm p90_us=[{}]",
        per_window(&|w| pct(w, 90.0))
    );
    let all: Vec<f64> = out
        .windows
        .iter()
        .flat_map(|w| w.latencies_ms.clone())
        .collect();
    let p = |q| crate::stats::percentile(&all, q).unwrap_or(f64::INFINITY) * 1e3;
    println!(
        "serve-warm whole-run serve_rps={:.1} serve_p50_us={:.2} serve_p99_us={:.2} samples={} \
         engine.misses={} client_cpus={:?} server_cpus={:?}",
        (out.tally.attempted - out.tally.failed) as f64 / elapsed,
        p(50.0),
        p(99.0),
        all.len(),
        out.layers.get("engine.misses").copied().unwrap_or(0.0),
        if pinned { &allowed[..1] } else { &allowed[..] },
        if pinned { &allowed[1..] } else { &allowed[..] },
    );

    // Traced pass, in process: the load phase staged per layer, then
    // the request stream replayed against the warm session.
    let session = Session::new(SessionConfig::quick());
    let policy = server_policy(&session);
    let mut load = Trace::default();
    let root = load.open("bench.load", None, 0);
    let mut accesses = 0u64;
    for (k, key) in keys.iter().enumerate() {
        let j = k as u64;
        let req = JobRequest::parse(key)?;
        let job = load.span("graph.materialize", Some(root), j, || {
            resolve(&session, &req)
        })?;
        load.span("graph.roots", Some(root), j, || {
            session.roots(&job.dataset, 1)
        });
        if let (Some(spec), Some(t)) = (&job.technique, &req.technique) {
            let kind = job.app.id().reorder_degree();
            load.span(format!("core.reorder.{t}"), Some(root), j, || {
                session.dataset_reorder(&job.dataset, spec, kind)
            });
            load.span("graph.permute", Some(root), j, || {
                session.reordered_graph(&job.dataset, spec, kind)
            });
        }
        let run = load.span("cachesim.run", Some(root), j, || session.run(&job));
        accesses += run.stats.l1.accesses;
        let answer = handle_line(&session, key, false, policy);
        if answer != answers[k] {
            out.fail(format!(
                "in-process {key}: {answer} differs from the server's {}",
                answers[k]
            ));
        }
    }
    load.close(root);

    let mut trace = Trace::default();
    let pass = trace.open("bench.pass", None, 0);
    let mut stream = Stream::new(opts.seed, 0);
    for i in 1..=REPLAY {
        let Some(k) = stream.request(i, keys.len()) else {
            trace.span("serve.stats", Some(pass), i, || {
                handle_line(&session, STATS_LINE, false, policy)
            });
            continue;
        };
        let request = trace.open("bench.request", Some(pass), i);
        let req = trace.span("serve.parse", Some(request), i, || {
            JobRequest::parse(&keys[k])
        })?;
        let job = trace.span("serve.resolve", Some(request), i, || {
            resolve(&session, &req)
        })?;
        let report = trace.span("engine.report", Some(request), i, || session.report(&job));
        let line = trace.span("engine.to_json", Some(request), i, || {
            report.canonicalized().to_json()
        });
        trace.close(request);
        if line != answers[k] {
            out.fail(format!(
                "replayed {}: {line} differs from the server's {}",
                keys[k], answers[k]
            ));
        }
    }
    trace.close(pass);

    let mut handle_us = Vec::new();
    let mut stream = Stream::new(opts.seed, 0);
    for i in 1..=REPLAY {
        let Some(k) = stream.request(i, keys.len()) else {
            continue;
        };
        let t0 = Instant::now();
        let answer = handle_line(&session, &keys[k], false, policy);
        handle_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if answer != answers[k] {
            out.fail(format!(
                "in-process {}: {answer} differs from the server's {}",
                keys[k], answers[k]
            ));
        }
    }

    let sim_ms = load.self_ms("cachesim.run");
    out.layer("cachesim.sim_ms", sim_ms);
    out.layer("cachesim.accesses", accesses as f64);
    out.layer(
        "cachesim.ns_per_access",
        sim_ms * 1e6 / accesses.max(1) as f64,
    );
    for t in crate::REORDERED {
        out.layer(
            format!("core.reorder_ms.{t}"),
            load.self_ms(&format!("core.reorder.{t}")),
        );
    }
    out.layer("graph.permute_ms", load.self_ms("graph.permute"));
    let handle_line_us = mean(&handle_us);
    let wire_us = mean(&job_rtts_us) - handle_line_us;
    out.layer("serve.parse_us", trace.mean_self_us("serve.parse"));
    out.layer("serve.stats_us", trace.mean_self_us("serve.stats"));
    out.layer("serve.handle_line_us", handle_line_us);
    out.layer("serve.wire_us", wire_us);
    out.layer("engine.report_us", trace.mean_self_us("engine.report"));
    out.layer("engine.to_json_us", trace.mean_self_us("engine.to_json"));
    let requests: Vec<u64> = trace
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "bench.request")
        .map(|(id, _)| trace.duration(id))
        .collect();
    let traced_per_request_ns = requests.iter().sum::<u64>() / requests.len().max(1) as u64;
    out.layer(
        "trace_overhead_pct",
        crate::overhead_pct(traced_per_request_ns, (handle_line_us * 1e3) as u64),
    );
    // Per-request accounting: the socket round trip is the wire plus
    // the in-process work the traced replay splits into layers.
    let mut layers = trace.self_by_layer();
    layers.insert(
        "wire".to_owned(),
        (wire_us.max(0.0) * 1e3 * requests.len() as f64) as u64,
    );
    crate::print_accounting(
        "serve-warm",
        &layers,
        ((mean(&job_rtts_us)) * 1e3 * requests.len() as f64) as u64,
    );
    let spans = opts.work_dir.join("spans-serve-warm.jsonl");
    trace
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_streams_repeat_per_seed_and_mix_in_stats() {
        let draw = |seed| {
            let mut s = Stream::new(seed, 0);
            (1..=300).map(|i| s.request(i, 240)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let stream = draw(7);
        assert_eq!(stream.iter().filter(|k| k.is_none()).count(), 3);
        assert!(stream.iter().flatten().all(|&k| k < 240));
    }

    #[test]
    fn stats_totals_are_scraped_from_the_total_object() {
        let stats = "{\"stats\":{\"graphs\":{\"hits\":3,\"misses\":1},\"total\":{\"hits\":120,\"misses\":45,\"evictions\":0}}}";
        assert_eq!(total_field(stats, "hits"), Some(120.0));
        assert_eq!(total_field(stats, "misses"), Some(45.0));
        assert_eq!(total_field("{\"error\":\"x\"}", "hits"), None);
    }

    #[test]
    fn keys_cover_every_dataset_technique_and_app() {
        let keys = keys();
        assert_eq!(keys.len(), 240);
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 240);
        assert!(keys.iter().all(|k| k.contains("\"canonical\":\"true\"")));
    }
}
