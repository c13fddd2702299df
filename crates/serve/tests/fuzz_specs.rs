//! Fuzz-style property tests for every parser the server exposes to
//! untrusted bytes: [`JobRequest::parse`] and the four spec `FromStr`
//! impls behind it (plus simulator construction from every accepted
//! `SimConfig`). The property is the no-panic contract the audit
//! (`cargo xtask audit`) proves statically, re-checked dynamically:
//! arbitrary input yields `Ok` or a non-empty `Err` message — never a
//! panic — and the catch-unwind harness reports the offending input
//! when it does not hold.

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use proptest::collection::vec;
use proptest::prelude::*;

use lgr_cachesim::{MemoryLayout, MemorySim, SimConfig, SIM_KNOBS};
use lgr_engine::{AppSpec, DatasetSpec, TechniqueSpec};
use lgr_serve::JobRequest;

/// Runs one parser on one input, converting a panic into a test
/// failure that names the parser and echoes the input. The default
/// panic hook is silenced around the call so the only report is ours.
fn no_panic<T, E: Display>(
    what: &str,
    input: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<(), TestCaseError> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| match parse(input) {
        Ok(_) => None,
        Err(e) => Some(e.to_string()),
    }));
    std::panic::set_hook(prev);
    match outcome {
        Err(_) => Err(TestCaseError::fail(format!(
            "{what} PANICKED on input {input:?}"
        ))),
        Ok(Some(msg)) if msg.trim().is_empty() => Err(TestCaseError::fail(format!(
            "{what} returned an empty error message on input {input:?}"
        ))),
        Ok(_) => Ok(()),
    }
}

/// Every parser a request line can reach, driven on the same input.
fn all_parsers(input: &str) -> Result<(), TestCaseError> {
    no_panic("JobRequest::parse", input, JobRequest::parse)?;
    no_panic("TechniqueSpec::from_str", input, TechniqueSpec::from_str)?;
    no_panic("AppSpec::from_str", input, AppSpec::from_str)?;
    no_panic("DatasetSpec::from_str", input, DatasetSpec::from_str)?;
    sim_from_knobs(input)?;
    Ok(())
}

/// Every config the `SimConfig` parser accepts must also build a
/// simulator.
fn sim_from_knobs(input: &str) -> Result<(), TestCaseError> {
    no_panic("SimConfig::from_str + MemorySim::new", input, |s| {
        SimConfig::from_str(s).map(|cfg| MemorySim::new(cfg, MemoryLayout::new()))
    })
}

/// `--sim` knob lists: each value a power of two up to 4096 or a raw
/// count below 6000, so ragged and zero geometries sit beside accepted
/// ones (and no accepted simulator holds more than 24 MiB of cache
/// state: 16 cores and 16 sockets at 4 MiB per level).
fn sim_knobs() -> impl Strategy<Value = String> {
    vec(
        (0usize..SIM_KNOBS.len(), 0u32..2, 0u32..13, 0u32..6000),
        0..4,
    )
    .prop_map(|knobs| {
        knobs
            .iter()
            .map(|&(k, pow, exp, raw)| {
                let value = if pow == 1 { 1 << exp } else { raw };
                format!("{}={value}", SIM_KNOBS[k])
            })
            .collect::<Vec<_>>()
            .join(",")
    })
}

/// Arbitrary bytes, lossily decoded — exercises invalid UTF-8
/// replacement, control characters, embedded NULs, and the empty
/// string.
fn arbitrary_text() -> impl Strategy<Value = String> {
    vec(0u32..256, 0..160).prop_map(|bytes| {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&raw).into_owned()
    })
}

/// Near-valid JSON: plausible keys and spec-shaped values assembled
/// into an object, then randomly mangled (truncation, quote loss,
/// duplicate keys, trailing commas) so inputs sit right on the
/// parser's accept/reject boundary.
fn near_valid_json() -> impl Strategy<Value = String> {
    const KEYS: &[&str] = &["app", "dataset", "technique", "config", "stats", "", "APP"];
    const VALUES: &[&str] = &[
        "pr:iters=2",
        "pr:iters=999999999999999999999999",
        "kr:sd=10",
        "kr:sd=-1",
        "lj",
        "dbg:groups=0",
        "hubsort,sort",
        "rcb",
        "rcb:4:seed=7",
        "l2=",
        "l2=1k:cores=0",
        "file:/etc/passwd",
        "true",
        "\\u0000",
        "a\\\"b",
        "",
        ":::",
    ];
    (
        vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..5),
        0u32..8,
    )
        .prop_map(|(pairs, mangle)| {
            let body: Vec<String> = pairs
                .iter()
                .map(|&(k, v)| format!("\"{}\":\"{}\"", KEYS[k], VALUES[v]))
                .collect();
            let mut line = format!("{{{}}}", body.join(","));
            match mangle {
                1 => line = line.replace('{', ""),
                2 => line = line.replace('"', ""),
                3 => line.truncate(line.len() / 2),
                4 => line = format!("{line},"),
                5 => line = line.replace(':', "::"),
                6 => line = line.to_uppercase(),
                7 => line = format!(" {line} \n"),
                _ => {}
            }
            line
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics any request-path parser and
    /// never yields an empty error message.
    #[test]
    fn arbitrary_bytes_never_panic_any_parser(input in arbitrary_text()) {
        all_parsers(&input)?;
    }

    /// Near-valid JSON — the adversarial boundary — never panics and
    /// always explains a rejection.
    #[test]
    fn near_valid_json_never_panics_any_parser(input in near_valid_json()) {
        all_parsers(&input)?;
    }

    /// Simulator knob lists either fail to parse or build a simulator.
    #[test]
    fn sim_knobs_parse_to_buildable_simulators(input in sim_knobs()) {
        sim_from_knobs(&input)?;
    }
}

/// Fixed regression inputs for the sites this PR converted from
/// panics to typed errors; each stays a non-panicking `Err`/`Ok`.
#[test]
fn converted_sites_regression_inputs() {
    // engine spec.rs `parse_atom` indexed `segments[0]` — a bare `:`
    // atom makes the head segment empty.
    assert!(TechniqueSpec::from_str(":").is_err());
    assert!(TechniqueSpec::from_str("sort,:,dbg").is_err());
    // engine app.rs `from_str` indexed `segments[0]`/`segments[1..]`.
    assert!(AppSpec::from_str(":").is_err());
    assert!(AppSpec::from_str("pr:").is_err());
    assert!(AppSpec::from_str("pr:iters=2:rounds=3").is_err());
    // serve protocol.rs `stats_request` indexed `pairs[0]`; a stats
    // key in any position must flow to an error, not a panic (the
    // full handle_line path is covered in serve_roundtrip.rs).
    assert!(JobRequest::parse(r#"{"stats":"maybe"}"#).is_err());
    assert!(JobRequest::parse(r#"{"app":"pr","stats":"true"}"#).is_err());
    // cachesim config.rs accepted geometries `MemorySim::new` then
    // panicked on (6 and 96 sets), and `l1kb=` wrapped on `n << 10`.
    for knobs in ["l1kb=3", "llckb=96", "l1kb=18014398509481985"] {
        assert!(SimConfig::from_str(knobs).is_err(), "{knobs}");
    }
}
