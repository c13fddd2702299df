//! Property tests for the spec layer's parse/display contract:
//! every representable spec survives `Display` → `FromStr`, canonical
//! strings are parse fixpoints, and parse errors carry the offending
//! token.

use proptest::collection::vec;
use proptest::prelude::*;

use lgr_engine::{
    AppSpec, DatasetSource, DatasetSpec, SpecError, TechniqueAtom, TechniqueSpec, BUILTIN_DATASETS,
    DEFAULT_SEED,
};
use lgr_graph::datasets::DatasetId;

/// Strategy over every registered technique atom, sweeping the
/// parameterized ones through non-default values too.
fn atom_strategy() -> impl Strategy<Value = TechniqueAtom> {
    (0u32..10, 1u32..40, 0u64..3).prop_map(|(kind, n, seed_sel)| {
        let seed = match seed_sel {
            0 => DEFAULT_SEED,
            1 => 7,
            _ => u64::MAX,
        };
        match kind {
            0 => TechniqueAtom::Original,
            1 => TechniqueAtom::Sort,
            2 => TechniqueAtom::HubSort,
            3 => TechniqueAtom::HubCluster,
            4 => TechniqueAtom::HubSortO,
            5 => TechniqueAtom::HubClusterO,
            6 => TechniqueAtom::Gorder,
            7 => TechniqueAtom::Dbg { hot_groups: n },
            8 => TechniqueAtom::RandomVertex { seed },
            _ => TechniqueAtom::RandomCacheBlock { blocks: n, seed },
        }
    })
}

proptest! {
    /// `spec.to_string().parse()` is the identity for every
    /// registered technique, including `+`-compositions.
    #[test]
    fn display_parse_round_trips(atoms in vec(atom_strategy(), 1..4)) {
        let spec = TechniqueSpec::from_atoms(atoms);
        let printed = spec.to_string();
        let reparsed: TechniqueSpec = printed
            .parse()
            .unwrap_or_else(|e| panic!("`{printed}` failed to reparse: {e}"));
        prop_assert_eq!(&reparsed, &spec);
        // Canonical strings are fixpoints: printing the reparse
        // changes nothing.
        prop_assert_eq!(reparsed.to_string(), printed);
        // Labels are non-empty and never the lying "RCB-n" placeholder.
        let label = spec.label();
        prop_assert!(!label.is_empty());
        prop_assert!(!label.contains("RCB-n"), "placeholder label for {}", spec);
    }

    /// Unknown technique names surface the offending token and the
    /// valid names.
    #[test]
    fn unknown_names_carry_their_token(suffix in 0u32..100_000) {
        let bogus = format!("zz{suffix}");
        match bogus.parse::<TechniqueSpec>() {
            Err(SpecError::UnknownTechnique { token, valid }) => {
                prop_assert_eq!(token, bogus.clone());
                prop_assert!(valid.contains(&"dbg".to_owned()));
            }
            other => prop_assert!(false, "expected UnknownTechnique, got {:?}", other),
        }
        // The rendered message names the token too (what the CLI
        // prints).
        let msg = bogus.parse::<TechniqueSpec>().unwrap_err().to_string();
        prop_assert!(msg.contains(&bogus), "message `{}` lacks token", msg);
    }

    /// Malformed parameter values surface their full `key=value`
    /// token.
    #[test]
    fn bad_values_carry_their_token(garbage in 0u32..100_000) {
        let token = format!("groups=x{garbage}");
        let s = format!("dbg:{token}");
        match s.parse::<TechniqueSpec>() {
            Err(SpecError::InvalidValue { token: t, .. }) => prop_assert_eq!(t, token),
            other => prop_assert!(false, "expected InvalidValue, got {:?}", other),
        }
    }

    /// The app-spec contract mirrors the technique one, for every
    /// app bare and with each of its knobs.
    #[test]
    fn app_specs_round_trip(
        app_sel in 0usize..5,
        knob in 1usize..1000,
        sources in 1usize..1000,
        with_knob in 0u32..4,
    ) {
        let token = AppSpec::all()[app_sel].token();
        let written = match (token, with_knob) {
            (_, 0) => token.to_owned(),
            ("pr" | "prd", _) => format!("{token}:iters={knob}"),
            ("sssp" | "bc", _) => format!("{token}:roots={knob}"),
            (_, 1) => format!("{token}:rounds={knob}"),
            (_, 2) => format!("{token}:sources={sources}"),
            _ => format!("{token}:rounds={knob}:sources={sources}"),
        };
        let app: AppSpec = written
            .parse()
            .unwrap_or_else(|e| panic!("`{written}` failed to parse: {e}"));
        // `written` is canonical, so printing the parse gives it back.
        let printed = app.to_string();
        prop_assert_eq!(&printed, &written);
        let reparsed: AppSpec = printed
            .parse()
            .unwrap_or_else(|e| panic!("`{printed}` failed to reparse: {e}"));
        prop_assert_eq!(&reparsed, &app);
    }

    /// The dataset-spec contract mirrors the technique one: every
    /// representable source survives Display → FromStr, and canonical
    /// strings are fixpoints.
    #[test]
    fn dataset_specs_round_trip(
        kind in 0u32..4,
        id_sel in 0usize..10,
        exp in 4u32..29,
        seed in 0u64..1_000_000,
        with_exp in 0u32..2,
        with_seed in 0u32..2,
        weighted in 0u32..2,
        name_sel in 0usize..4,
    ) {
        let paths = ["/data/web.el", "/data/web.mtx", "/tmp/a b/c.snap", "rel/graph.lgr"];
        let spec = match kind {
            0 => DatasetSpec::from_source(DatasetSource::Synthetic {
                id: DatasetId::ALL[id_sel],
                sd_exp: (with_exp == 1).then_some(exp),
                seed: (with_seed == 1).then_some(seed),
            }),
            1 => DatasetSpec::from_source(DatasetSource::File {
                path: paths[name_sel].to_owned(),
                format: None,
                weighted: weighted == 1,
            }),
            2 => DatasetSpec::from_source(DatasetSource::File {
                path: paths[name_sel].to_owned(),
                format: Some(if weighted == 1 {
                    lgr_engine::TextFormat::MatrixMarket
                } else {
                    lgr_engine::TextFormat::EdgeList
                }),
                weighted: weighted == 1,
            }),
            _ => DatasetSpec::lgr(paths[name_sel]),
        };
        let printed = spec.to_string();
        let reparsed: DatasetSpec = printed
            .parse()
            .unwrap_or_else(|e| panic!("`{printed}` failed to reparse: {e}"));
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_string(), printed);
        prop_assert!(!spec.label().is_empty());
    }

    /// Unknown dataset names surface the offending token plus the
    /// valid names and spec forms — the `repro` exit-2 contract.
    #[test]
    fn unknown_dataset_names_carry_their_token(suffix in 0u32..100_000) {
        let bogus = format!("zz{suffix}");
        match bogus.parse::<DatasetSpec>() {
            Err(SpecError::UnknownDataset { token, valid }) => {
                prop_assert_eq!(token, bogus.clone());
                for name in BUILTIN_DATASETS {
                    prop_assert!(valid.contains(&name.to_owned()));
                }
                prop_assert!(valid.iter().any(|v| v.starts_with("file:")));
            }
            other => prop_assert!(false, "expected UnknownDataset, got {:?}", other),
        }
        let msg = bogus.parse::<DatasetSpec>().unwrap_err().to_string();
        prop_assert!(msg.contains(&bogus), "message `{}` lacks token", msg);
    }

    /// Malformed dataset parameter values surface their full token
    /// (the `repro` exit-1 contract).
    #[test]
    fn bad_dataset_values_carry_their_token(garbage in 0u32..100_000) {
        let token = format!("sd=x{garbage}");
        let s = format!("kron:{token}");
        match s.parse::<DatasetSpec>() {
            Err(SpecError::InvalidValue { token: t, .. }) => prop_assert_eq!(t, token),
            other => prop_assert!(false, "expected InvalidValue, got {:?}", other),
        }
    }
}

/// One row per corner of the grammar: an input and its exact outcome,
/// `Ok(canonical)` or `Err(message)` as the CLIs and the serve
/// protocol print it. All three grammars trim keys and values and
/// match a key before they parse its value; technique and app errors
/// quote the trimmed segment, dataset errors the token as written; a
/// block-less `rcb` names the parameter it lacks.
type Corners = &'static [(&'static str, Result<&'static str, &'static str>)];

#[rustfmt::skip]
const TECHNIQUE_CORNERS: Corners = &[
    ("dbg:groups =4", Ok("dbg:groups=4")),
    ("dbg: groups=4", Ok("dbg:groups=4")),
    ("dbg: groups=x", Err("invalid value `groups=x` for `dbg`: expected a positive group count")),
    ("dbg:0", Err("invalid value `0` for `dbg`: expected a positive group count")),
    ("dbg:seed=3", Err("`dbg` does not accept parameter `seed=3`")),
    ("dbg:groups=", Err("invalid value `groups=` for `dbg`: expected a positive group count")),
    ("dbg:=4", Err("`dbg` does not accept parameter `=4`")),
    ("dbg:groups=4:groups=2", Ok("dbg:groups=2")),
    ("rv:-1", Err("invalid value `-1` for `rv`: expected a u64 seed")),
    ("rv:seed= 5", Ok("rv:seed=5")),
    ("rv:18446744073709551616", Err("invalid value `18446744073709551616` for `rv`: expected a u64 seed")),
    ("rcb", Err("`rcb` needs a block count, e.g. `rcb:4`")),
    ("rcb:seed=3", Err("`rcb` needs a block count, e.g. `rcb:4`")),
    ("RCB:seed=3", Err("`rcb` needs a block count, e.g. `rcb:4`")),
    (" rcb:seed=3 +sort", Err("`rcb` needs a block count, e.g. `rcb:4`")),
    ("rcb:0", Err("invalid value `0` for `rcb`: expected a positive block count")),
    ("rcb:4294967296", Err("invalid value `4294967296` for `rcb`: expected a positive block count")),
    ("rcb:2:blocks=3", Ok("rcb:3")),
    ("gorder+rcb:2:seed=1", Ok("gorder+rcb:2:seed=1")),
    ("orig:x", Err("`orig` does not accept parameter `x`")),
    ("sort:", Err("`sort` does not accept parameter ``")),
    ("HC", Ok("hubcluster")),
    ("hubsorto", Ok("hubsort-o")),
    ("+dbg", Err("empty spec")),
];

#[rustfmt::skip]
const APP_CORNERS: Corners = &[
    ("pr:roots=abc", Err("`pr` does not accept parameter `roots=abc`")),
    ("pr:roots=4", Err("`pr` does not accept parameter `roots=4`")),
    ("pr:iters =4", Ok("pr:iters=4")),
    ("PR:Iters=3", Err("`pr` does not accept parameter `Iters=3`")),
    ("prd:iters= 2", Ok("prd:iters=2")),
    ("pr:iters=4:iters=5", Ok("pr:iters=5")),
    ("pr:", Err("invalid value `` for `pr`: expected a positive integer")),
    ("radii:sources=9:rounds=5", Ok("radii:rounds=5:sources=9")),
    ("radii:rounds=3:sources=2", Ok("radii:rounds=3:sources=2")),
    ("radii:9", Ok("radii:rounds=9")),
    ("radii:sources=0", Err("invalid value `sources=0` for `radii`: expected a positive integer")),
    ("radii:sources=x", Err("invalid value `sources=x` for `radii`: expected a positive integer")),
    ("sssp:5", Ok("sssp:roots=5")),
    ("bc:roots=0", Err("invalid value `roots=0` for `bc`: expected a positive integer")),
    ("bc:roots=-1", Err("invalid value `roots=-1` for `bc`: expected a positive integer")),
    (":iters=3", Err("unknown app ``; valid: bc, sssp, pr, prd, radii")),
];

#[rustfmt::skip]
const DATASET_CORNERS: Corners = &[
    ("kr:sd =15", Ok("kr:sd=15")),
    ("kr:sd= 15", Ok("kr:sd=15")),
    ("kr: seed = 4 ", Ok("kr:seed=4")),
    ("kr: sd=x", Err("invalid value ` sd=x` for `kr`: expected a scale exponent in 4..=28 (sd gets 2^exp vertices)")),
    ("kr:sd=29", Err("invalid value `sd=29` for `kr`: expected a scale exponent in 4..=28 (sd gets 2^exp vertices)")),
    ("kr:seed=x", Err("invalid value `seed=x` for `kr`: expected a u64 seed")),
    ("kr:", Err("invalid value `` for `kr`: expected a scale exponent in 4..=28 (sd gets 2^exp vertices)")),
    ("kr:sd=4:flavor", Err("invalid value `flavor` for `kr`: expected a scale exponent in 4..=28 (sd gets 2^exp vertices)")),
    ("kron:15:seed=2", Ok("kr:sd=15:seed=2")),
    ("sd:sd=10:sd=12", Ok("sd:sd=12")),
    ("uni:sd=3", Err("invalid value `sd=3` for `uni`: expected a scale exponent in 4..=28 (sd gets 2^exp vertices)")),
    ("kr:flavor=hot", Err("`kr` does not accept parameter `flavor=hot`")),
    ("file::weighted", Err("invalid value `:weighted` for `file`: expected a file path, e.g. `file:/data/web.el`")),
    ("file:", Err("invalid value `` for `file`: expected a file path, e.g. `file:/data/web.el`")),
    ("file:/x.mtx:fmt=xml", Err("invalid value `fmt=xml` for `file`: expected fmt=el or fmt=mtx")),
    ("file:/a.el:FMT=MTX", Ok("file:/a.el:fmt=mtx")),
    ("file:/a.el: weighted", Ok("file:/a.el:weighted")),
    ("lgr:", Err("invalid value `lgr:` for `lgr`: expected a file path, e.g. `lgr:/data/web.lgr`")),
    ("LGR: /a.lgr", Ok("lgr:/a.lgr")),
    (":sd=3", Err("empty spec")),
];

/// Checks each row of `corners` parsed as `T`.
fn check_corners<T>(corners: Corners)
where
    T: std::str::FromStr<Err = SpecError> + std::fmt::Display,
{
    for &(input, expected) in corners {
        let got = input.parse::<T>().map(|v| v.to_string());
        let got = got.as_deref().map_err(|e| e.to_string());
        assert_eq!(got, expected.map_err(str::to_owned), "{input:?}");
    }
}

#[test]
fn corner_cases_keep_their_results() {
    check_corners::<TechniqueSpec>(TECHNIQUE_CORNERS);
    check_corners::<AppSpec>(APP_CORNERS);
    check_corners::<DatasetSpec>(DATASET_CORNERS);
}
