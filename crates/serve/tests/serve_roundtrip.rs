//! End-to-end service tests: a real TCP server sharing one session,
//! a concurrent batch client, and the sequential reference — the
//! concurrent output must be byte-identical to the sequential one.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::sync::Arc;

use lgr_engine::{Session, SessionConfig};
use lgr_serve::{run_batch, run_local, serve, JobRequest, ServeOptions};

fn tiny_cfg() -> SessionConfig {
    SessionConfig::quick().with_scale_exp(10)
}

fn serve_ok(
    listener: TcpListener,
    session: Arc<Session>,
    options: ServeOptions,
) -> Vec<std::thread::JoinHandle<()>> {
    serve(listener, session, options).expect("spawn serve workers")
}

fn job_lines() -> Vec<String> {
    [
        // Duplicates on purpose: the shared caches must coalesce them.
        r#"{"app":"pr:iters=2","dataset":"lj","technique":"dbg"}"#,
        r#"{"app":"pr:iters=2","dataset":"lj","technique":"dbg"}"#,
        r#"{"app":"pr:iters=2","dataset":"lj"}"#,
        r#"{"app":"sssp","dataset":"kr:sd=10","technique":"sort"}"#,
        r#"{"app":"pr:iters=2","dataset":"kr:sd=10","technique":"hubsort"}"#,
        r#"{"app":"pr:iters=2","dataset":"lj","technique":"dbg"}"#,
        // Protocol errors ride along and must be stable too.
        r#"{"app":"pr:iters=2","dataset":"walrus"}"#,
        r#"not json at all"#,
    ]
    .into_iter()
    .map(str::to_owned)
    .collect()
}

#[test]
fn concurrent_batch_matches_the_sequential_reference_byte_for_byte() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 3,
            ..Default::default()
        },
    );

    let jobs = job_lines();
    let concurrent = run_batch(&addr, &jobs, 4, true).expect("batch against live server");

    let sequential = run_local(&Session::new(tiny_cfg()), &jobs, true);
    assert_eq!(
        concurrent, sequential,
        "a concurrent batch must be byte-identical to the sequential run"
    );

    // Spot-check the content: reports are JSON lines with the spec
    // fields; the error lines carry the engine's message.
    assert!(
        concurrent[0].contains("\"spec\":\"dbg\""),
        "{}",
        concurrent[0]
    );
    assert_eq!(concurrent[0], concurrent[1], "duplicate jobs share bytes");
    assert!(concurrent[2].contains("\"technique\":\"Original\""));
    assert!(concurrent[6].contains("\"error\""), "{}", concurrent[6]);
    assert!(concurrent[6].contains("walrus"), "{}", concurrent[6]);
    assert!(concurrent[7].contains("\"error\""), "{}", concurrent[7]);
    // Canonical responses never carry a measured reordering time.
    for line in concurrent.iter().filter(|l| l.contains("reorder_ms")) {
        assert!(line.contains("\"reorder_ms\":null"), "{line}");
    }
}

#[test]
fn one_connection_can_pipeline_many_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 1,
            ..Default::default()
        },
    );

    // concurrency 1 = a single connection sending the whole batch.
    let jobs = job_lines();
    let a = run_batch(&addr, &jobs, 1, true).expect("single-connection batch");
    let b = run_batch(&addr, &jobs, 3, true).expect("repeat batch");
    assert_eq!(a, b, "same server, same jobs, same bytes");
}

#[test]
fn overlong_request_lines_get_an_error_not_unbounded_memory() {
    use std::io::{BufRead, BufReader, Write};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 1,
            ..Default::default()
        },
    );

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // A "request" longer than the cap, with no newline in sight.
    let flood = vec![b'x'; lgr_serve::MAX_REQUEST_BYTES as usize + 4096];
    stream.write_all(&flood).expect("send flood");
    stream.flush().unwrap();
    let mut response = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut response)
        .expect("server answers before the line ever terminates");
    assert!(response.contains("\"error\""), "{response}");
    assert!(response.contains("exceeds"), "{response}");
    // The connection is closed afterwards (no resync on a line
    // protocol): the next read sees EOF once the server drops it.
    let mut rest = String::new();
    let n = BufReader::new(stream).read_line(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed, got {rest:?}");
}

#[test]
fn file_backed_specs_are_rejected_over_the_network_by_default() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 1,
            ..Default::default()
        },
    );
    let jobs = vec![
        r#"{"app":"pr","dataset":"file:/etc/hostname"}"#.to_owned(),
        r#"{"app":"pr","dataset":"lgr:/etc/hostname"}"#.to_owned(),
    ];
    for line in run_batch(&addr, &jobs, 1, false).expect("batch") {
        assert!(line.contains("\"error\""), "{line}");
        assert!(line.contains("disabled"), "{line}");
        // The server must not have opened the file at all, so no
        // loader message (which could echo file content) appears.
        assert!(!line.contains("failed to load"), "{line}");
    }
    // The in-process local mode keeps its own filesystem access: the
    // same spec reaches the loader (and errors only because the file
    // is not a graph / may not exist).
    let local = run_local(&Session::new(tiny_cfg()), &jobs[..1], false);
    assert!(!local[0].contains("disabled"), "{}", local[0]);
}

#[test]
fn scale_overrides_above_the_server_config_are_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    // Server configured for 2^10 sd-vertices.
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 1,
            ..Default::default()
        },
    );
    let jobs = vec![
        // Above the server's scale: must be refused before any build.
        r#"{"app":"pr","dataset":"kr:sd=20"}"#.to_owned(),
        // At/below the server's scale: runs normally.
        r#"{"app":"pr","dataset":"kr:sd=9"}"#.to_owned(),
    ];
    let out = run_batch(&addr, &jobs, 1, true).expect("batch");
    assert!(out[0].contains("\"error\""), "{}", out[0]);
    assert!(out[0].contains("restart it with --scale"), "{}", out[0]);
    assert!(out[1].contains("\"cycles\""), "{}", out[1]);

    // The compute side of the same policy: absurd app work knobs are
    // refused, and malformed batch entries (blank / embedded newline)
    // become error responses instead of desynchronizing the protocol.
    let jobs = vec![
        r#"{"app":"pr:iters=1000000000","dataset":"lj"}"#.to_owned(),
        String::new(),
        "{\"app\":\"pr\",\n\"dataset\":\"lj\"}".to_owned(),
        r#"{"app":"pr","dataset":"lj"}"#.to_owned(),
    ];
    let out = run_batch(&addr, &jobs, 2, true).expect("batch with bad entries");
    assert!(out[0].contains("per-request cap"), "{}", out[0]);
    assert!(out[1].contains("single non-empty line"), "{}", out[1]);
    assert!(out[2].contains("single non-empty line"), "{}", out[2]);
    assert!(out[3].contains("\"cycles\""), "{}", out[3]);

    // Seed overrides are the unbounded spec dimension (each distinct
    // seed pins another graph or permutation forever); the server
    // refuses them on datasets and on randomized techniques alike,
    // and bounds technique parameters/compositions like app knobs.
    let jobs = vec![
        r#"{"app":"pr","dataset":"kr:seed=7"}"#.to_owned(),
        r#"{"app":"pr","dataset":"lj","technique":"rv:seed=9"}"#.to_owned(),
        r#"{"app":"pr","dataset":"lj","technique":"dbg:groups=100000"}"#.to_owned(),
        r#"{"app":"pr","dataset":"lj","technique":"sort+dbg+sort+dbg+sort"}"#.to_owned(),
        // A plain parameterized spec stays allowed.
        r#"{"app":"pr","dataset":"lj","technique":"rcb:3"}"#.to_owned(),
    ];
    let out = run_batch(&addr, &jobs, 2, true).expect("policy batch");
    assert!(out[0].contains("seed overrides are disabled"), "{}", out[0]);
    assert!(out[1].contains("seed overrides are disabled"), "{}", out[1]);
    assert!(out[2].contains("per-request"), "{}", out[2]);
    assert!(out[3].contains("caps compositions"), "{}", out[3]);
    assert!(out[4].contains("\"cycles\""), "{}", out[4]);
}

#[test]
fn invalid_utf8_requests_error_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let session = Arc::new(Session::new(tiny_cfg()));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 1,
            ..Default::default()
        },
    );

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"{\"app\":\"\xff\xfe\"}\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).expect("error response");
    assert!(response.contains("not valid UTF-8"), "{response}");
    // Same connection, next request still works.
    stream
        .write_all(b"{\"app\":\"pr\",\"dataset\":\"walrus\"}\n")
        .unwrap();
    stream.flush().unwrap();
    response.clear();
    reader.read_line(&mut response).expect("second response");
    assert!(response.contains("walrus"), "{response}");
}

#[test]
fn an_empty_batch_never_opens_a_connection() {
    // 127.0.0.1:1 is a guaranteed-dead address; if run_batch tried to
    // connect for an empty job list this would be a refused-connection
    // error rather than an empty Ok.
    let out = run_batch("127.0.0.1:1", &[], 4, false).expect("empty batch needs no server");
    assert!(out.is_empty());
}

#[test]
fn a_stats_request_returns_the_cache_counters() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let mut cfg = tiny_cfg();
    cfg.cache_bytes = Some(64 * 1024);
    let session = Arc::new(Session::new(cfg));
    let _workers = serve_ok(
        listener,
        session,
        ServeOptions {
            workers: 2,
            ..Default::default()
        },
    );

    // A fresh server reports all-zero counters with the budget echoed.
    let out = run_batch(&addr, &[r#"{"stats":"true"}"#.to_owned()], 1, false).expect("stats");
    assert!(out[0].starts_with(r#"{"stats":{"#), "{}", out[0]);
    assert!(out[0].contains(r#""budget_bytes":65536"#), "{}", out[0]);
    assert!(out[0].contains(r#""total":{"hits":0"#), "{}", out[0]);

    // After some jobs (with duplicates) the counters move: misses for
    // the first builds, hits for the coalesced/cached repeats.
    let jobs = vec![
        r#"{"app":"pr:iters=2","dataset":"lj","technique":"dbg"}"#.to_owned(),
        r#"{"app":"pr:iters=2","dataset":"lj","technique":"dbg"}"#.to_owned(),
        r#"{"stats":"true"}"#.to_owned(),
    ];
    let out = run_batch(&addr, &jobs, 1, false).expect("jobs then stats");
    assert!(out[0].contains("\"cycles\""), "{}", out[0]);
    assert_eq!(out[0], out[1], "duplicate jobs share cached report content");
    let stats = &out[2];
    assert!(stats.contains(r#""graphs":{"hits":"#), "{stats}");
    assert!(
        !stats.contains(r#""total":{"hits":0,"misses":0"#),
        "{stats}"
    );

    // Malformed stats requests are protocol errors, not jobs.
    let bad = vec![
        r#"{"stats":"false"}"#.to_owned(),
        r#"{"stats":"true","app":"pr"}"#.to_owned(),
    ];
    let out = run_batch(&addr, &bad, 1, false).expect("bad stats lines");
    assert!(out[0].contains("\"error\""), "{}", out[0]);
    assert!(out[1].contains("no other keys"), "{}", out[1]);
}

#[test]
fn client_injects_the_canonical_flag() {
    let mut req = JobRequest::parse(r#"{"app":"pr","dataset":"lj"}"#).unwrap();
    req.canonical = true;
    let line = req.to_json();
    let rt = JobRequest::parse(&line).unwrap();
    assert!(rt.canonical);
}

#[test]
fn flag_errors_exit_1_when_stderr_is_closed() {
    // The reader goes away before the child writes its error line; a
    // panicking write would exit 101.
    for _ in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lgr-serve"))
            .args(["local", "--bogus"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lgr-serve");
        drop(child.stderr.take());
        let status = child.wait().expect("wait for lgr-serve");
        assert_eq!(status.code(), Some(1));
    }
}

#[test]
fn a_closed_stdout_ends_a_local_run_with_exit_0() {
    // 200 stats lines overflow a pipe buffer, so the reader leaving
    // after one line leaves the rest to meet a closed pipe.
    let jobs = "{\"stats\":\"true\"}\n".repeat(200);
    for _ in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lgr-serve"))
            .args(["local", "--quick", "--jobs", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lgr-serve");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(jobs.as_bytes()).expect("write job lines");
        drop(stdin);
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the first response");
        assert!(line.starts_with(r#"{"stats":"#), "{line}");
        let status = child.wait().expect("wait for lgr-serve");
        assert_eq!(status.code(), Some(0));
    }
}
