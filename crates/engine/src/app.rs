//! String-addressable application specifications.
//!
//! An [`AppSpec`] names one of the five evaluated applications plus
//! optional per-app knobs, with the same parse/display contract as
//! [`TechniqueSpec`](crate::TechniqueSpec): `"pr"`, `"pr:iters=4"`,
//! `"bc:roots=8"`, `"radii:rounds=512:sources=32"`. A knob left unset
//! falls back to the owning [`Session`](crate::Session)'s configured
//! default, so a bare `"pr"` runs exactly like the legacy
//! `AppId::Pr`-keyed path.

use std::fmt;
use std::str::FromStr;

use lgr_analytics::apps::AppId;

use crate::spec::{Param, SpecError};

/// One of the five applications plus optional per-app configuration.
///
/// # Examples
///
/// ```
/// use lgr_engine::AppSpec;
/// use lgr_analytics::apps::AppId;
///
/// let app: AppSpec = "pr:iters=4".parse().unwrap();
/// assert_eq!(app.id(), AppId::Pr);
/// assert_eq!(app.to_string(), "pr:iters=4");
/// assert_eq!(app.iters(), Some(4));
///
/// let err = "pr:roots=4".parse::<AppSpec>().unwrap_err();
/// assert!(err.to_string().contains("roots=4"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppSpec {
    id: AppId,
    /// Iteration-cap override: PR / PRD iterations, Radii rounds.
    iters: Option<usize>,
    /// Root-count override: SSSP / BC roots, Radii BFS sources.
    roots: Option<usize>,
}

impl AppSpec {
    /// The app with every knob at the session default.
    pub fn new(id: AppId) -> Self {
        AppSpec {
            id,
            iters: None,
            roots: None,
        }
    }

    /// All five applications in paper display order, knobs at session
    /// defaults.
    pub fn all() -> Vec<AppSpec> {
        AppId::ALL.into_iter().map(AppSpec::new).collect()
    }

    /// Which application this runs.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// Display label matching the paper's figures (`"PR"`, `"SSSP"`).
    pub fn label(&self) -> &'static str {
        self.id.name()
    }

    /// The canonical lowercase spec token (`"pr"`, `"sssp"`).
    pub fn token(&self) -> &'static str {
        match self.id {
            AppId::Bc => "bc",
            AppId::Sssp => "sssp",
            AppId::Pr => "pr",
            AppId::Prd => "prd",
            AppId::Radii => "radii",
        }
    }

    /// Iteration-cap override: PR / PRD iterations (`iters=`), Radii
    /// rounds (`rounds=`).
    pub fn iters(&self) -> Option<usize> {
        self.iters
    }

    /// Root-count override: SSSP / BC roots (`roots=`), Radii BFS
    /// sources (`sources=`).
    pub fn roots(&self) -> Option<usize> {
        self.roots
    }

    /// The spec keys of the app's [`iters`](AppSpec::iters) and
    /// [`roots`](AppSpec::roots) knobs, `None` where it has no such
    /// knob. A bare value sets the first knob the app has.
    fn knob_keys(&self) -> (Option<&'static str>, Option<&'static str>) {
        match self.id {
            AppId::Pr | AppId::Prd => (Some("iters"), None),
            AppId::Sssp | AppId::Bc => (None, Some("roots")),
            AppId::Radii => (Some("rounds"), Some("sources")),
        }
    }
}

impl From<AppId> for AppSpec {
    fn from(id: AppId) -> Self {
        AppSpec::new(id)
    }
}

/// `Display` writes the canonical token plus any overridden knob, in a
/// fixed key order so equal specs print identically.
impl fmt::Display for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())?;
        let (iters_key, roots_key) = self.knob_keys();
        for (key, knob) in [(iters_key, self.iters), (roots_key, self.roots)] {
            if let (Some(key), Some(v)) = (key, knob) {
                write!(f, ":{key}={v}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for AppSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut segments = s.split(':').map(str::trim);
        let head = segments.next().unwrap_or_default();
        let id = AppId::from_name(head).ok_or_else(|| SpecError::UnknownApp {
            token: head.to_owned(),
            valid: AppSpec::all()
                .iter()
                .map(|a| a.token().to_owned())
                .collect(),
        })?;
        let mut spec = AppSpec::new(id);
        let (owner, (iters_key, roots_key)) = (spec.token(), spec.knob_keys());
        for p in segments.map(Param::trimmed) {
            let field = match p.key.or(iters_key).or(roots_key) {
                key if key == iters_key => &mut spec.iters,
                key if key == roots_key => &mut spec.roots,
                _ => return Err(p.unknown(owner)),
            };
            // Zero iterations/roots would either be silently clamped or
            // produce a degenerate run the report then misstates; reject
            // it like the technique params do.
            *field = Some(p.value(owner, "a positive integer", |&v| v >= 1)?);
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_names_round_trip() {
        for app in AppSpec::all() {
            let reparsed: AppSpec = app.to_string().parse().unwrap();
            assert_eq!(reparsed, app);
            assert_eq!(app.to_string(), app.token());
        }
    }

    #[test]
    fn knobs_parse_and_round_trip() {
        for s in [
            "pr:iters=4",
            "prd:iters=2",
            "sssp:roots=8",
            "bc:roots=1",
            "radii:rounds=512",
            "radii:rounds=512:sources=32",
        ] {
            let app: AppSpec = s.parse().unwrap();
            assert_eq!(app.to_string(), s, "canonical form of {s}");
        }
        let app: AppSpec = "pr:3".parse().unwrap();
        assert_eq!(app.iters(), Some(3));
        assert_eq!(app.to_string(), "pr:iters=3");
    }

    #[test]
    fn wrong_knob_for_app_is_rejected_with_token() {
        match "pr:roots=4".parse::<AppSpec>() {
            Err(SpecError::UnknownParam { technique, token }) => {
                assert_eq!(technique, "pr");
                assert_eq!(token, "roots=4");
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        match "walrus".parse::<AppSpec>() {
            Err(SpecError::UnknownApp { token, valid }) => {
                assert_eq!(token, "walrus");
                assert_eq!(valid, vec!["bc", "sssp", "pr", "prd", "radii"]);
            }
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn zero_knob_values_are_rejected() {
        for s in ["pr:iters=0", "sssp:roots=0", "radii:rounds=0"] {
            match s.parse::<AppSpec>() {
                Err(SpecError::InvalidValue { token, .. }) => {
                    assert!(s.ends_with(&token), "{s}: {token}")
                }
                other => panic!("expected InvalidValue for {s}, got {other:?}"),
            }
        }
    }

    #[test]
    fn case_insensitive_heads() {
        assert_eq!("PR".parse::<AppSpec>().unwrap().id(), AppId::Pr);
        assert_eq!("Radii".parse::<AppSpec>().unwrap().id(), AppId::Radii);
    }
}
