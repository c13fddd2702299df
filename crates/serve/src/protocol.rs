//! The JSON-lines job protocol.
//!
//! One request per line, one response per line. A request is a flat
//! JSON object with string values:
//!
//! ```json
//! {"technique":"dbg","app":"pr:iters=4","dataset":"kr:sd=14"}
//! ```
//!
//! `app` and `dataset` are required; `technique` is optional (absent =
//! the original ordering, the baseline every speedup is measured
//! against); `canonical` (`"true"`/`"1"`) asks for the report with its
//! wall-clock field cleared, so responses diff byte-for-byte across
//! runs. The response is either the job's [`Report`] serialized by
//! [`Report::to_json`] or `{"error":"..."}`; either way the
//! connection stays open for the next request.
//!
//! The parser is deliberately tiny (flat objects, string values,
//! standard escapes) — the whole service sticks to `std`.

use lgr_engine::report::write_json_pair;
use lgr_engine::{DatasetSource, Job, Report, Session};

/// A parsed job request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobRequest {
    /// Application spec string (`"pr:iters=4"`).
    pub app: String,
    /// Dataset spec string (`"kr:sd=14"`, `"file:/data/web.el"`).
    pub dataset: String,
    /// Technique spec string; `None` runs the original ordering.
    pub technique: Option<String>,
    /// Clear the wall-clock `reorder_ms` field in the response so
    /// outputs are byte-comparable across runs.
    pub canonical: bool,
}

/// Keys a request may carry, listed in "unknown key" errors.
pub const REQUEST_KEYS: [&str; 4] = ["app", "dataset", "technique", "canonical"];

impl JobRequest {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed construct or the
    /// missing/unknown key.
    pub fn parse(line: &str) -> Result<JobRequest, String> {
        let pairs = parse_flat_object(line)?;
        let mut req = JobRequest::default();
        for (key, value) in pairs {
            match key.as_str() {
                "app" => req.app = value,
                "dataset" => req.dataset = value,
                "technique" => req.technique = Some(value),
                "canonical" => {
                    req.canonical = match value.to_ascii_lowercase().as_str() {
                        "true" | "1" | "yes" => true,
                        "false" | "0" | "no" => false,
                        // A typo silently running non-canonical would
                        // break the byte-for-byte diff the caller
                        // asked for; reject it instead.
                        other => {
                            return Err(format!("canonical must be true/false, got `{other}`"))
                        }
                    };
                }
                other => {
                    return Err(format!(
                        "unknown request key `{other}`; valid: {}",
                        REQUEST_KEYS.join(", ")
                    ))
                }
            }
        }
        if req.app.is_empty() {
            return Err("request is missing the `app` key".to_owned());
        }
        if req.dataset.is_empty() {
            return Err("request is missing the `dataset` key".to_owned());
        }
        Ok(req)
    }

    /// Serializes back to one request line (the canonical client
    /// form).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        write_json_pair(&mut s, "app", &self.app);
        s.push(',');
        write_json_pair(&mut s, "dataset", &self.dataset);
        if let Some(t) = &self.technique {
            s.push(',');
            write_json_pair(&mut s, "technique", t);
        }
        if self.canonical {
            s.push(',');
            write_json_pair(&mut s, "canonical", "true");
        }
        s.push('}');
        s
    }
}

/// An error response line: `{"error":"..."}`.
pub fn error_line(message: &str) -> String {
    let mut s = String::from("{");
    write_json_pair(&mut s, "error", message);
    s.push('}');
    s
}

/// What a request is allowed to ask of the serving session. The
/// network server runs with the restrictive default; the in-process
/// `local` mode runs [`RequestPolicy::trusted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestPolicy {
    /// Permit `file:`/`lgr:` dataset specs (which open server-side
    /// paths, and whose loader errors can echo file fragments back to
    /// the client).
    pub allow_files: bool,
    /// Cap on the effective `sd` vertex count a dataset spec may
    /// request via `sd=` scale overrides; `None` = unlimited. The
    /// server pins this to its configured session scale so a remote
    /// client cannot ask a `--quick` server to build a 2^28-vertex
    /// graph (each distinct spec is also cached forever, so oversized
    /// requests would pin memory permanently).
    pub max_sd_vertices: Option<usize>,
    /// Cap on any explicit app-spec work knob (`pr:iters=`,
    /// `bc:roots=`, `radii:rounds=`, ...); `None` = unlimited. Bounds
    /// the same resource-pinning class as `max_sd_vertices` from the
    /// compute side: `pr:iters=1000000000` would otherwise occupy a
    /// connection worker (and the shared pool) indefinitely.
    pub max_app_knob: Option<usize>,
    /// Permit `seed=` overrides on synthetic dataset specs and on
    /// randomized technique specs (`rv`, `rcb`). Off for network
    /// clients: seeds are the unbounded spec dimension (`kr:seed=1`,
    /// `kr:seed=2`, ... and `rv:seed=1`, `rv:seed=2`, ... are all
    /// distinct keys, each pinning a full graph or permutation in the
    /// session's caches for the process lifetime), so iterating them
    /// would grow server memory without limit even under the scale
    /// cap.
    pub allow_seed_overrides: bool,
}

/// Longest `+`-composition an untrusted technique spec may use —
/// compositions multiply the distinct-key space, and no paper
/// experiment chains more than two stages.
pub const MAX_TECHNIQUE_STAGES: usize = 4;

impl RequestPolicy {
    /// No restrictions — for callers in the same trust domain as the
    /// process (the `local` mode, tests).
    pub fn trusted() -> Self {
        RequestPolicy {
            allow_files: true,
            max_sd_vertices: None,
            max_app_knob: None,
            allow_seed_overrides: true,
        }
    }
}

/// Handles one request line against a shared session: parse, resolve
/// the specs through the session's registries, run the job, serialize
/// the report. Any failure becomes an `{"error":...}` line; the
/// protocol never panics on malformed input. `force_canonical` clears
/// the wall-clock field regardless of what the request asked
/// (`lgr-serve local --canonical` uses it); `policy` bounds what the
/// request may ask of the server (filesystem access, scale).
///
/// A request line of `{"stats":"true"}` is not a job: it answers with
/// the session's cache-counter snapshot
/// ([`Session::cache_stats`](lgr_engine::Session::cache_stats)
/// serialized to one JSON line) — the observability hook a budgeted
/// long-lived server is monitored through.
pub fn handle_line(
    session: &Session,
    line: &str,
    force_canonical: bool,
    policy: RequestPolicy,
) -> String {
    match stats_request(line) {
        Some(Ok(())) => return session.cache_stats().to_json(),
        Some(Err(message)) => return error_line(&message),
        None => {}
    }
    match run_line(session, line, force_canonical, policy) {
        Ok(report) => report.to_json(),
        Err(message) => error_line(&message),
    }
}

/// Classifies a line as a stats request: `None` = not one (parse it
/// as a job), `Some(Ok(()))` = valid, `Some(Err(_))` = a malformed
/// stats request (the `stats` key is present but wrong).
fn stats_request(line: &str) -> Option<Result<(), String>> {
    let pairs = parse_flat_object(line).ok()?;
    let (_, value) = pairs.iter().find(|(k, _)| k == "stats")?;
    if pairs.len() > 1 {
        return Some(Err("a stats request takes no other keys".to_owned()));
    }
    Some(match value.to_ascii_lowercase().as_str() {
        "true" | "1" | "yes" => Ok(()),
        other => Err(format!("stats must be true, got `{other}`")),
    })
}

fn run_line(
    session: &Session,
    line: &str,
    force_canonical: bool,
    policy: RequestPolicy,
) -> Result<Report, String> {
    let req = JobRequest::parse(line)?;
    let app: lgr_engine::AppSpec = req.app.parse().map_err(|e| format!("app: {e}"))?;
    let dataset = session
        .dataset_registry()
        .parse(&req.dataset)
        .map_err(|e| format!("dataset: {e}"))?;
    if dataset.is_file_backed() && !policy.allow_files {
        return Err(format!(
            "dataset `{dataset}`: file-backed dataset specs are disabled on this server \
             (start lgr-serve with --allow-files to enable them)"
        ));
    }
    if !policy.allow_seed_overrides {
        if let DatasetSource::Synthetic { seed: Some(_), .. } = dataset.source() {
            return Err(format!(
                "dataset `{dataset}`: seed overrides are disabled on this server \
                 (every distinct seed pins another graph in the shared caches)"
            ));
        }
    }
    if let Some(cap) = policy.max_sd_vertices {
        let effective = dataset.effective_scale(session.config().scale).sd_vertices;
        if effective > cap {
            return Err(format!(
                "dataset `{dataset}`: scale override requests {effective} sd-vertices but \
                 this server is configured for {cap}; restart it with --scale to raise the cap"
            ));
        }
    }
    if let Some(cap) = policy.max_app_knob {
        // `None` orders below every `Some`: the larger knob set, if any.
        let biggest = app.iters().max(app.roots());
        if let Some(knob) = biggest.filter(|&k| k > cap) {
            return Err(format!(
                "app `{app}`: work knob {knob} exceeds this server's per-request cap of {cap}"
            ));
        }
    }
    let mut job = Job::new(app, dataset);
    if let Some(t) = &req.technique {
        let spec = session
            .registry()
            .parse(t)
            .map_err(|e| format!("technique: {e}"))?;
        check_technique_policy(&spec, policy)?;
        job = job.with_technique(spec);
    }
    // The fallible path, so a missing or corrupt file dataset is a
    // clean error response, not a worker panic.
    let report = session.try_report(&job).map_err(|e| e.to_string())?;
    Ok(if req.canonical || force_canonical {
        report.canonicalized()
    } else {
        report
    })
}

/// Applies the policy's unbounded-dimension gates to a technique
/// spec: every distinct spec pins a permutation *and* a reordered
/// graph in the session's caches forever, so the same seed / numeric
/// / combinatorial bounds that protect datasets apply here.
fn check_technique_policy(
    spec: &lgr_engine::TechniqueSpec,
    policy: RequestPolicy,
) -> Result<(), String> {
    use lgr_engine::{TechniqueAtom, DEFAULT_SEED};
    let atoms = spec.atoms();
    if policy.max_app_knob.is_some() && atoms.len() > MAX_TECHNIQUE_STAGES {
        return Err(format!(
            "technique `{spec}`: composes {} stages; this server caps compositions at \
             {MAX_TECHNIQUE_STAGES}",
            atoms.len()
        ));
    }
    for atom in atoms {
        let seed = match atom {
            TechniqueAtom::RandomVertex { seed } => Some(*seed),
            TechniqueAtom::RandomCacheBlock { seed, .. } => Some(*seed),
            _ => None,
        };
        if !policy.allow_seed_overrides && seed.is_some_and(|s| s != DEFAULT_SEED) {
            return Err(format!(
                "technique `{spec}`: seed overrides are disabled on this server \
                 (every distinct seed pins another permutation in the shared caches)"
            ));
        }
        let knob = match atom {
            TechniqueAtom::Dbg { hot_groups } => Some(*hot_groups as usize),
            TechniqueAtom::RandomCacheBlock { blocks, .. } => Some(*blocks as usize),
            _ => None,
        };
        if let (Some(cap), Some(k)) = (policy.max_app_knob, knob) {
            if k > cap {
                return Err(format!(
                    "technique `{spec}`: parameter {k} exceeds this server's per-request \
                     cap of {cap}"
                ));
            }
        }
    }
    Ok(())
}

/// Parses a flat JSON object whose values are strings, returning the
/// key/value pairs in source order.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let mut chars = line.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("request must be a JSON object: {\"app\":...,\"dataset\":...}".to_owned());
    }
    let mut pairs = Vec::new();
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected `:` after key \"{key}\""));
            }
            skip_ws(&mut chars);
            let value = parse_string(&mut chars)?;
            pairs.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected `,` or `}` after a value".to_owned()),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after the closing `}`".to_owned());
    }
    Ok(pairs)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\r' | '\n')) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected a JSON string (all request values are strings)".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape `\\u{hex}`"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?,
                    );
                }
                other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let line = r#"{"technique":"dbg","app":"pr:iters=4","dataset":"kr:sd=14"}"#;
        let req = JobRequest::parse(line).unwrap();
        assert_eq!(req.app, "pr:iters=4");
        assert_eq!(req.dataset, "kr:sd=14");
        assert_eq!(req.technique.as_deref(), Some("dbg"));
        assert!(!req.canonical);
        let rt = JobRequest::parse(&req.to_json()).unwrap();
        assert_eq!(rt, req);
    }

    #[test]
    fn baseline_requests_omit_the_technique() {
        let req = JobRequest::parse(r#"{"app":"pr","dataset":"lj"}"#).unwrap();
        assert_eq!(req.technique, None);
        assert_eq!(req.to_json(), r#"{"app":"pr","dataset":"lj"}"#);
    }

    #[test]
    fn canonical_flag_parses_and_reserializes() {
        let req = JobRequest::parse(r#"{"app":"pr","dataset":"lj","canonical":"true"}"#).unwrap();
        assert!(req.canonical);
        assert!(req.to_json().contains("\"canonical\":\"true\""));
        // Case-insensitive, and an explicit false round-trips too.
        for (value, expect) in [
            ("TRUE", true),
            ("Yes", true),
            ("false", false),
            ("0", false),
        ] {
            let line = format!(r#"{{"app":"pr","dataset":"lj","canonical":"{value}"}}"#);
            assert_eq!(
                JobRequest::parse(&line).unwrap().canonical,
                expect,
                "{value}"
            );
        }
    }

    #[test]
    fn whitespace_and_escapes_are_tolerated() {
        let req =
            JobRequest::parse(" { \"app\" : \"pr\" , \"dataset\" : \"file:/tmp/a b\\t.el\" } ")
                .unwrap();
        assert_eq!(req.dataset, "file:/tmp/a b\t.el");
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        for bad in [
            "",
            "pr lj",
            "{",
            "{\"app\"}",
            "{\"app\":1}",
            r#"{"app":"pr"}"#,
            r#"{"dataset":"lj"}"#,
            r#"{"app":"pr","dataset":"lj"} extra"#,
            r#"{"app":"pr","dataset":"lj","flavor":"hot"}"#,
            // A canonical typo must not silently run non-canonical.
            r#"{"app":"pr","dataset":"lj","canonical":"ture"}"#,
        ] {
            let err = JobRequest::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn error_lines_escape_their_message() {
        let line = error_line("bad \"spec\"\n");
        assert_eq!(line, r#"{"error":"bad \"spec\"\n"}"#);
    }
}
