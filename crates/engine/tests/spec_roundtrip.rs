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
