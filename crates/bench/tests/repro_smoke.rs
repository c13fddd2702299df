//! Smoke tests for the `repro` binary: the full experiment suite must
//! run to completion at the CI scale, and the CLI must reject
//! malformed invocations.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A unique scratch directory for tests that touch the filesystem.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-smoke-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes a small deterministic edge list and returns its path.
fn write_edge_list(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("tiny.el");
    let mut text = String::from("# tiny deterministic graph\n");
    for i in 0u32..900 {
        text.push_str(&format!("{} {}\n", i % 150, (i * 13 + 7) % 150));
    }
    std::fs::write(&path, text).expect("write edge list");
    path
}

#[test]
fn quick_all_exits_zero() {
    let out = repro()
        .args(["--quick", "all"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro --quick all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every experiment prints a report header; spot-check the span of
    // the suite from the first table to the last figure.
    for needle in ["Table I", "Fig. 6", "Fig. 11", "Table XII"] {
        assert!(stdout.contains(needle), "missing {needle} in output");
    }
}

#[test]
fn list_names_every_experiment() {
    let out = repro().arg("list").output().expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["table1", "fig6", "fig8", "fig11", "composed"] {
        assert!(stdout.contains(name), "missing experiment {name}");
    }
}

#[test]
fn unknown_experiment_is_an_error() {
    let out = repro()
        .arg("no_such_experiment")
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
}

#[test]
fn unknown_experiment_exits_2_and_lists_valid_names() {
    let out = repro()
        .arg("no_such_experiment")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr}");
    for name in ["fig6", "table1", "dynamic"] {
        assert!(stderr.contains(name), "valid list missing {name}: {stderr}");
    }
}

#[test]
fn unknown_technique_exits_2_and_lists_valid_names() {
    let out = repro()
        .args(["--quick", "--techniques", "dbg,grail", "fig6"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("grail"), "{stderr}");
    for name in ["dbg", "sort", "rcb"] {
        assert!(stderr.contains(name), "valid list missing {name}: {stderr}");
    }
}

#[test]
fn unknown_app_exits_2_and_lists_valid_names() {
    let out = repro()
        .args(["--quick", "--apps", "walrus", "fig6"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("walrus"), "{stderr}");
    assert!(stderr.contains("sssp"), "{stderr}");
}

#[test]
fn malformed_spec_values_are_flag_errors_not_unknown_names() {
    // `dbg` is a valid name with a bad parameter value: that's a
    // malformed flag (exit 1), not an unknown name (exit 2).
    let out = repro()
        .args(["--quick", "--techniques", "dbg:groups=zero", "fig6"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("groups=zero"), "{stderr}");
}

#[test]
fn technique_and_app_filters_shrink_the_report() {
    let out = repro()
        .args([
            "--quick",
            "--techniques",
            "dbg,sort",
            "--apps",
            "pr",
            "fig6",
        ])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "filtered fig6 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The paper-quote notes mention every technique, so assert on the
    // table header rows instead of the whole output.
    let header = stdout
        .lines()
        .find(|l| l.contains("app") && l.contains("dataset"))
        .expect("fig6 panel header");
    assert!(
        header.contains("DBG") && header.contains("Sort"),
        "{header}"
    );
    assert!(!header.contains("HubCluster"), "filter leaked: {header}");
    assert!(!stdout.contains("SSSP"), "app filter leaked: {stdout}");
}

#[test]
fn fully_filtered_experiment_reports_skip_not_panic() {
    // fig3's roster is the random probes; selecting only dbg leaves
    // nothing to run.
    let out = repro()
        .args(["--quick", "--techniques", "dbg", "fig3"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("skipped"), "{stdout}");
}

#[test]
fn parameterized_specs_run_end_to_end() {
    // rcb:3 is unreachable through the legacy enum's honest names —
    // naming it in --techniques must make the main evaluation run it
    // and label it correctly.
    let out = repro()
        .args([
            "--quick",
            "--techniques",
            "rv,rcb:3",
            "--apps",
            "pr",
            "fig6",
        ])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RCB-3"), "{stdout}");
    assert!(
        !stdout.contains("RCB-n"),
        "placeholder label leaked: {stdout}"
    );
}

#[test]
fn unknown_dataset_exits_2_and_lists_names_and_spec_forms() {
    let out = repro()
        .args(["--quick", "--datasets", "walrus", "fig6"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("walrus"), "{stderr}");
    for needle in ["kr", "sd", "file:", "lgr:"] {
        assert!(
            stderr.contains(needle),
            "valid list missing {needle}: {stderr}"
        );
    }
}

#[test]
fn malformed_dataset_values_exit_1() {
    // `kron` is a valid name (alias of kr) with a bad parameter
    // value: a malformed flag (exit 1), not an unknown name (exit 2).
    let out = repro()
        .args(["--quick", "--datasets", "kron:sd=abc", "fig6"])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("sd=abc"), "{stderr}");
}

#[test]
fn missing_dataset_file_exits_1_with_a_clean_error() {
    let out = repro()
        .args([
            "--quick",
            "--datasets",
            "file:/nonexistent/missing.el",
            "fig6",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing.el"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn list_flag_prints_every_name_and_grammar_in_one_place() {
    let out = repro().arg("--list").output().expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "experiments:",
        "fig6",
        "techniques",
        "dbg[:groups=<n>]",
        "apps",
        "radii",
        "datasets",
        "file:<path>",
        "lgr:<path>",
        "dataset-cache",
    ] {
        assert!(
            stdout.contains(needle),
            "--list missing {needle}:\n{stdout}"
        );
    }
}

#[test]
fn dataset_filter_runs_selection_verbatim() {
    let out = repro()
        .args(["--quick", "--datasets", "lj,sd", "--apps", "pr", "fig6"])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("selected datasets"), "{stdout}");
    assert!(stdout.contains("lj"), "{stdout}");
    // The unstructured/structured class panels collapse into one.
    assert!(!stdout.contains("Fig. 6a"), "{stdout}");
}

#[test]
fn file_dataset_runs_the_full_pipeline_from_the_cli() {
    let dir = scratch("file-pipeline");
    let el = write_edge_list(&dir);
    let out = repro()
        .args([
            "--quick",
            "--datasets",
            &format!("file:{}", el.display()),
            "fig6",
            "table1",
        ])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The file's stem is the dataset label in every table.
    assert!(stdout.contains("tiny"), "{stdout}");
    assert!(stdout.contains("Fig. 6"), "{stdout}");
    assert!(stdout.contains("Table I"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_cache_reloads_byte_identically() {
    let dir = scratch("cache-reuse");
    let el = write_edge_list(&dir);
    let cache = dir.join("cache");
    let spec = format!("file:{}", el.display());
    let run = |extra_verbose: bool| {
        let mut cmd = repro();
        cmd.args([
            "--quick",
            "--dataset-cache",
            &cache.display().to_string(),
            "--datasets",
            &spec,
        ]);
        if extra_verbose {
            cmd.arg("--verbose");
        }
        cmd.args(["fig6", "fig8"]);
        cmd.output().expect("spawn repro")
    };
    // First run builds from text and populates the cache...
    let first = run(true);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let stderr1 = String::from_utf8_lossy(&first.stderr);
    assert!(stderr1.contains("building dataset"), "{stderr1}");
    let entries: Vec<_> = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "one .lgr entry: {entries:?}");
    assert_eq!(entries[0].extension().unwrap(), "lgr");
    // ...second run reloads the binary CSR: no regeneration, and the
    // deterministic report is byte-identical.
    let second = run(true);
    assert!(second.status.success());
    let stderr2 = String::from_utf8_lossy(&second.stderr);
    assert!(stderr2.contains("from cache"), "{stderr2}");
    assert!(!stderr2.contains("building dataset"), "{stderr2}");
    assert_eq!(
        first.stdout, second.stdout,
        "cached rerun must be byte-identical"
    );
    // The persisted .lgr is itself a first-class dataset spec.
    let third = repro()
        .args([
            "--quick",
            "--datasets",
            &format!("lgr:{}", entries[0].display()),
            "fig6",
        ])
        .output()
        .expect("spawn repro");
    assert!(
        third.status.success(),
        "{}",
        String::from_utf8_lossy(&third.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sim_knobs_parse_and_apply() {
    let out = repro()
        .args(["--quick", "--sim", "cores=2,sockets=1", "table2"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 cores / 1 sockets"), "{stdout}");
    let bad = repro()
        .args(["--quick", "--sim", "turbo=9", "table2"])
        .output()
        .expect("spawn repro");
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("turbo=9"));
}

#[test]
fn sim_cores_beyond_the_directory_bound_exit_1_not_panic() {
    // Regression: `--sim cores=32` used to pass the parser and then
    // panic via the `MemorySim::new` assert mid-run, and `l1kb=3`
    // (6 sets, not a power of two) in `SetAssocCache::new`. Both
    // bounds now live in SimConfig validation, so they are ordinary
    // malformed-flag errors (exit 1) raised before any work starts.
    for (knobs, token, expected) in [
        ("cores=32,sockets=2", "cores=32", "1..=16"),
        ("l1kb=3", "l1kb=3", "power-of-two"),
    ] {
        let out = repro()
            .args(["--quick", "--sim", knobs, "table2"])
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(1), "{knobs}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{stderr}");
        assert!(stderr.contains(token), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn bad_scale_is_an_error() {
    let out = repro()
        .args(["--scale", "99", "fig6"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
}

#[test]
fn flag_errors_exit_1_when_stderr_is_closed() {
    // The reader goes away before the child writes its error line; a
    // panicking write would exit 101.
    for _ in 0..20 {
        let mut child = repro()
            .arg("--bogus")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro");
        drop(child.stderr.take());
        let status = child.wait().expect("wait for repro");
        assert_eq!(status.code(), Some(1));
    }
}

#[test]
fn a_closed_stdout_ends_the_run_with_exit_0() {
    // The reader takes the header line and goes away while table1 is
    // still being computed; the table's write then meets a closed pipe.
    for _ in 0..20 {
        let mut child = repro()
            .args(["--quick", "table1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn repro");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the header line");
        assert!(line.starts_with("# graph-reorder reproduction"), "{line}");
        let status = child.wait().expect("wait for repro");
        assert_eq!(status.code(), Some(0));
    }
}

#[test]
fn a_closed_stderr_does_not_end_a_verbose_run() {
    // Progress lines nobody reads are dropped; the run completes.
    for _ in 0..20 {
        let mut child = repro()
            .args(["--quick", "--verbose", "table1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro");
        let mut line = String::new();
        BufReader::new(child.stderr.take().expect("piped stderr"))
            .read_line(&mut line)
            .expect("read the first progress line");
        assert!(line.starts_with("[repro] "), "{line}");
        let status = child.wait().expect("wait for repro");
        assert_eq!(status.code(), Some(0));
    }
}
