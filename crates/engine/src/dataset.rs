//! String-addressable dataset specifications and the extensible
//! dataset registry.
//!
//! A [`DatasetSpec`] names where a graph comes from, with the same
//! parse/display contract as [`TechniqueSpec`](crate::TechniqueSpec):
//!
//! * the built-in synthetic analogues by paper short name —
//!   `"sd"`, `"kr"` (alias `"kron"`), ... — with optional scale
//!   overrides (`"kr:sd=15"` builds at the scale where `sd` has
//!   2^15 vertices, `"kr:seed=7"` reseeds the generator);
//! * external text files — `"file:/data/web.el"` (SNAP/TSV edge
//!   list), `"file:/data/web.mtx:weighted"` (Matrix Market), with the
//!   format inferred from the extension or forced via `:fmt=el` /
//!   `:fmt=mtx`;
//! * binary CSR snapshots — `"lgr:/data/web.lgr"` — which reload
//!   without any parsing or graph rebuild;
//! * custom sources registered on a [`DatasetRegistry`], which parse
//!   and build like the built-ins.
//!
//! Every spec round-trips through `Display`/`FromStr`, and parse
//! errors carry the offending token plus the valid names and spec
//! forms — the same error contract as techniques and apps.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use lgr_graph::datasets::{self, DatasetId, DatasetScale};
use lgr_graph::{Csr, EdgeList};
use lgr_parallel::Pool;

use crate::spec::{Param, SpecError};

/// Canonical names of the ten built-in dataset analogues, in paper
/// order. `file:` and `lgr:` specs (see [`DATASET_SPEC_FORMS`]) and
/// custom registrations extend the addressable set.
pub const BUILTIN_DATASETS: [&str; 10] = [
    "kr", "pl", "tw", "sd", "lj", "wl", "fr", "mp", "uni", "road",
];

/// The non-name spec forms, shown alongside [`BUILTIN_DATASETS`] in
/// "unknown dataset" errors and `repro --list`.
pub const DATASET_SPEC_FORMS: [&str; 2] = ["file:<path>[:fmt=el|mtx][:weighted]", "lgr:<path>"];

/// Valid scale-exponent range for `sd=<exp>` overrides (`sd` gets
/// `2^exp` vertices).
pub const SCALE_EXP_RANGE: std::ops::RangeInclusive<u32> = 4..=28;

/// Text file formats a `file:` spec can load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TextFormat {
    /// SNAP/TSV edge list: one `src dst [weight]` line per edge.
    EdgeList,
    /// Matrix Market coordinate format.
    MatrixMarket,
}

impl TextFormat {
    /// The `fmt=` token (`"el"` / `"mtx"`).
    pub fn token(self) -> &'static str {
        match self {
            TextFormat::EdgeList => "el",
            TextFormat::MatrixMarket => "mtx",
        }
    }
}

/// Where a [`DatasetSpec`]'s graph comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetSource {
    /// One of the paper's synthetic analogues, with optional scale
    /// overrides.
    Synthetic {
        /// Which analogue.
        id: DatasetId,
        /// Overrides the session scale: `sd` gets `2^sd_exp` vertices
        /// and this dataset keeps its Table IX ratio to it.
        sd_exp: Option<u32>,
        /// Overrides the generator seed.
        seed: Option<u64>,
    },
    /// A text file (SNAP/TSV edge list or Matrix Market).
    File {
        /// Path as written in the spec.
        path: String,
        /// Explicit format; `None` infers from the extension.
        format: Option<TextFormat>,
        /// Read the weight/value column as edge weights.
        weighted: bool,
    },
    /// A binary `.lgr` CSR snapshot.
    Lgr {
        /// Path as written in the spec.
        path: String,
    },
    /// A source registered on a [`DatasetRegistry`] beyond the
    /// built-in set. Parameters are passed through verbatim.
    Custom {
        /// Registered name.
        name: String,
        /// Raw `:`-separated parameter tokens.
        args: Vec<String>,
    },
}

/// A parsed, string-addressable dataset source.
///
/// # Examples
///
/// ```
/// use lgr_engine::DatasetSpec;
///
/// let spec: DatasetSpec = "kron:sd=15".parse().unwrap();
/// assert_eq!(spec.to_string(), "kr:sd=15"); // aliases normalize
///
/// let file: DatasetSpec = "file:/data/web.mtx:weighted".parse().unwrap();
/// assert_eq!(file.to_string(), "file:/data/web.mtx:weighted");
/// assert_eq!(file.label(), "web");
///
/// let err = "walrus".parse::<DatasetSpec>().unwrap_err();
/// assert!(err.to_string().contains("walrus"));
/// assert!(err.to_string().contains("lgr:<path>"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatasetSpec {
    source: DatasetSource,
}

impl DatasetSpec {
    /// A spec from an explicit source.
    pub fn from_source(source: DatasetSource) -> Self {
        DatasetSpec { source }
    }

    /// The built-in analogue `id` at the session scale.
    pub fn builtin(id: DatasetId) -> Self {
        DatasetSpec {
            source: DatasetSource::Synthetic {
                id,
                sd_exp: None,
                seed: None,
            },
        }
    }

    /// A text-file dataset (format inferred from the extension).
    pub fn file(path: impl Into<String>) -> Self {
        DatasetSpec {
            source: DatasetSource::File {
                path: path.into(),
                format: None,
                weighted: false,
            },
        }
    }

    /// A binary `.lgr` dataset.
    pub fn lgr(path: impl Into<String>) -> Self {
        DatasetSpec {
            source: DatasetSource::Lgr { path: path.into() },
        }
    }

    /// The source this spec describes.
    pub fn source(&self) -> &DatasetSource {
        &self.source
    }

    /// The eight skewed datasets of Table IX, in paper order.
    pub fn skewed() -> Vec<DatasetSpec> {
        DatasetId::SKEWED.into_iter().map(Self::builtin).collect()
    }

    /// The four datasets whose original ordering has no locality.
    pub fn unstructured() -> Vec<DatasetSpec> {
        DatasetId::UNSTRUCTURED
            .into_iter()
            .map(Self::builtin)
            .collect()
    }

    /// The four datasets with community structure in their ordering.
    pub fn structured() -> Vec<DatasetSpec> {
        DatasetId::STRUCTURED
            .into_iter()
            .map(Self::builtin)
            .collect()
    }

    /// The two no-skew datasets of Table X.
    pub fn no_skew() -> Vec<DatasetSpec> {
        DatasetId::NO_SKEW.into_iter().map(Self::builtin).collect()
    }

    /// The built-in analogue this spec names, if any.
    pub fn dataset_id(&self) -> Option<DatasetId> {
        match &self.source {
            DatasetSource::Synthetic { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// Whether the original ordering carries community structure —
    /// `None` for external sources, whose class is unknown a priori.
    pub fn is_structured(&self) -> Option<bool> {
        self.dataset_id().map(DatasetId::is_structured)
    }

    /// Whether the degree distribution is skewed — `None` for
    /// external sources.
    pub fn is_skewed(&self) -> Option<bool> {
        self.dataset_id().map(DatasetId::is_skewed)
    }

    /// Compact display label for table columns and reports: the paper
    /// short name for built-ins (the full spec when scale overrides
    /// make two variants distinguishable), the file stem for external
    /// sources.
    pub fn label(&self) -> String {
        match &self.source {
            DatasetSource::Synthetic {
                id,
                sd_exp: None,
                seed: None,
            } => id.name().to_owned(),
            DatasetSource::Synthetic { .. } => self.to_string(),
            DatasetSource::File { path, .. } | DatasetSource::Lgr { path } => {
                let base = path.rsplit(['/', '\\']).next().unwrap_or(path);
                let stem = base.rsplit_once('.').map_or(base, |(s, _)| s);
                if stem.is_empty() {
                    base.to_owned()
                } else {
                    stem.to_owned()
                }
            }
            DatasetSource::Custom { name, .. } => name.clone(),
        }
    }

    /// The scale this spec builds at: `base` with the spec's `sd=` /
    /// `seed=` overrides applied (external sources ignore scale).
    pub fn effective_scale(&self, base: DatasetScale) -> DatasetScale {
        match &self.source {
            DatasetSource::Synthetic { sd_exp, seed, .. } => DatasetScale {
                sd_vertices: sd_exp.map_or(base.sd_vertices, |e| 1usize << e),
                seed: seed.unwrap_or(base.seed),
            },
            _ => base,
        }
    }

    /// The dataset-cache key: the canonical spec string plus the
    /// effective scale, so the same spec at two scales never collides.
    /// File-backed specs also fold in the backing file's size and
    /// mtime, so editing or regenerating the source file invalidates
    /// the cached `.lgr` instead of silently serving the old graph.
    pub fn cache_key(&self, base: DatasetScale) -> String {
        let eff = self.effective_scale(base);
        let mut key = format!("{self}|sd={}|seed={}", eff.sd_vertices, eff.seed);
        if let DatasetSource::File { path, .. } | DatasetSource::Lgr { path } = &self.source {
            if let Ok(meta) = std::fs::metadata(path) {
                let mtime = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos());
                use std::fmt::Write as _;
                let _ = write!(key, "|len={}|mtime={mtime}", meta.len());
            }
        }
        key
    }

    /// Whether materializing this spec reads the filesystem (and can
    /// therefore fail at runtime); synthetic analogues always build.
    pub fn is_file_backed(&self) -> bool {
        matches!(
            self.source,
            DatasetSource::File { .. } | DatasetSource::Lgr { .. }
        )
    }

    /// Seed for the deterministic SSSP weights attached to sources
    /// that carry none. Matches the historical per-`DatasetId` stream
    /// for built-ins so reproduction numbers are unchanged.
    pub fn weight_seed(&self) -> u64 {
        match &self.source {
            DatasetSource::Synthetic { id, .. } => 0xC0FFEE ^ *id as u64,
            _ => 0xC0FFEE ^ lgr_io::fnv1a64(self.to_string().as_bytes()),
        }
    }
}

impl From<DatasetId> for DatasetSpec {
    fn from(id: DatasetId) -> Self {
        DatasetSpec::builtin(id)
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            DatasetSource::Synthetic { id, sd_exp, seed } => {
                f.write_str(id.name())?;
                if let Some(e) = sd_exp {
                    write!(f, ":sd={e}")?;
                }
                if let Some(s) = seed {
                    write!(f, ":seed={s}")?;
                }
                Ok(())
            }
            DatasetSource::File {
                path,
                format,
                weighted,
            } => {
                write!(f, "file:{path}")?;
                if let Some(fmt_) = format {
                    write!(f, ":fmt={}", fmt_.token())?;
                }
                if *weighted {
                    f.write_str(":weighted")?;
                }
                Ok(())
            }
            DatasetSource::Lgr { path } => write!(f, "lgr:{path}"),
            DatasetSource::Custom { name, args } => {
                f.write_str(name)?;
                for a in args {
                    write!(f, ":{a}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for DatasetSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        parse_dataset_spec(s, &[])
    }
}

fn unknown_dataset(token: &str, custom_names: &[&str]) -> SpecError {
    let mut valid: Vec<String> = BUILTIN_DATASETS.iter().map(|s| s.to_string()).collect();
    valid.extend(custom_names.iter().map(|s| s.to_string()));
    valid.extend(DATASET_SPEC_FORMS.iter().map(|s| s.to_string()));
    SpecError::UnknownDataset {
        token: token.to_owned(),
        valid,
    }
}

/// Parses `file:`'s tail: a path with optional trailing `:fmt=` /
/// `:weighted` modifiers (consumed from the end so paths containing
/// `:` still work).
fn parse_file_spec(tail: &str) -> Result<DatasetSpec, SpecError> {
    let mut path = tail;
    let mut format: Option<TextFormat> = None;
    let mut weighted = false;
    while let Some((head, last)) = path.rsplit_once(':') {
        let last_trimmed = last.trim();
        if last_trimmed.eq_ignore_ascii_case("weighted") {
            weighted = true;
            path = head;
        } else if let Some(value) = last_trimmed
            .strip_prefix("fmt=")
            .or_else(|| last_trimmed.strip_prefix("FMT="))
        {
            format = Some(match value.to_ascii_lowercase().as_str() {
                "el" | "edgelist" | "tsv" | "snap" => TextFormat::EdgeList,
                "mtx" | "mm" => TextFormat::MatrixMarket,
                _ => {
                    return Err(SpecError::InvalidValue {
                        technique: "file".to_owned(),
                        token: last_trimmed.to_owned(),
                        expected: "fmt=el or fmt=mtx",
                    })
                }
            });
            path = head;
        } else {
            break;
        }
    }
    let path = path.trim();
    if path.is_empty() {
        return Err(SpecError::InvalidValue {
            technique: "file".to_owned(),
            token: tail.to_owned(),
            expected: "a file path, e.g. `file:/data/web.el`",
        });
    }
    Ok(DatasetSpec {
        source: DatasetSource::File {
            path: path.to_owned(),
            format,
            weighted,
        },
    })
}

/// Parses a built-in analogue's `sd=` / `seed=` overrides. Keys and
/// values are trimmed, and a key is matched before its value is parsed.
fn parse_synthetic(id: DatasetId, params: &[&str]) -> Result<DatasetSpec, SpecError> {
    let (mut sd_exp, mut seed) = (None, None);
    for p in params.iter().map(|token| Param::trimmed(token)) {
        match p.key {
            None | Some("sd") => {
                sd_exp = Some(p.value(
                    id.name(),
                    "a scale exponent in 4..=28 (sd gets 2^exp vertices)",
                    |e| SCALE_EXP_RANGE.contains(e),
                )?);
            }
            Some("seed") => seed = Some(p.value(id.name(), "a u64 seed", |_| true)?),
            Some(_) => return Err(p.unknown(id.name())),
        }
    }
    Ok(DatasetSpec {
        source: DatasetSource::Synthetic { id, sd_exp, seed },
    })
}

/// Shared parser behind [`DatasetSpec::from_str`] and
/// [`DatasetRegistry::parse`].
pub(crate) fn parse_dataset_spec(s: &str, custom_names: &[&str]) -> Result<DatasetSpec, SpecError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(SpecError::Empty);
    }
    let (head, tail) = match s.split_once(':') {
        Some((h, t)) => (h.trim(), Some(t)),
        None => (s, None),
    };
    if head.is_empty() {
        return Err(SpecError::Empty);
    }
    let lower = head.to_ascii_lowercase();
    match lower.as_str() {
        "file" => parse_file_spec(tail.unwrap_or("")),
        "lgr" => {
            let path = tail.unwrap_or("").trim();
            if path.is_empty() {
                return Err(SpecError::InvalidValue {
                    technique: "lgr".to_owned(),
                    token: s.to_owned(),
                    expected: "a file path, e.g. `lgr:/data/web.lgr`",
                });
            }
            Ok(DatasetSpec::lgr(path))
        }
        _ => {
            let params: Vec<&str> = match tail {
                Some(t) => t.split(':').collect(),
                None => Vec::new(),
            };
            if let Some(id) = DatasetId::from_name(&lower) {
                return parse_synthetic(id, &params);
            }
            if custom_names.contains(&lower.as_str()) {
                return Ok(DatasetSpec {
                    source: DatasetSource::Custom {
                        name: lower,
                        args: params.iter().map(|p| p.trim().to_owned()).collect(),
                    },
                });
            }
            Err(unknown_dataset(head, custom_names))
        }
    }
}

/// Why a dataset could not be materialized.
#[derive(Debug)]
pub enum DatasetError {
    /// The spec failed to parse or resolve against the registry.
    Spec(SpecError),
    /// The spec parsed but its backing source failed to load.
    Load {
        /// Canonical spec string of the failing dataset.
        spec: String,
        /// What went wrong (includes the path for file sources).
        message: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Spec(e) => e.fmt(f),
            DatasetError::Load { spec, message } => {
                write!(f, "dataset `{spec}` failed to load: {message}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<SpecError> for DatasetError {
    fn from(e: SpecError) -> Self {
        DatasetError::Spec(e)
    }
}

/// What a dataset source materializes into: most sources produce an
/// edge list the session turns into a CSR on its pool; binary `.lgr`
/// snapshots already are CSRs.
#[derive(Debug)]
pub enum DatasetGraph {
    /// An edge list still needing CSR construction.
    Edges(EdgeList),
    /// A ready CSR (no rebuild needed).
    Graph(Csr),
}

/// Constructor for a custom dataset source: receives the raw
/// `:`-separated parameter tokens and the effective scale.
pub type DatasetBuilder =
    Box<dyn Fn(&[String], DatasetScale) -> Result<EdgeList, SpecError> + Send + Sync>;

struct DatasetEntry {
    summary: String,
    build: DatasetBuilder,
}

/// Maps dataset names to sources, mirroring
/// [`TechniqueRegistry`](crate::TechniqueRegistry): the built-in
/// names, `file:`/`lgr:` forms, and any custom registrations resolve
/// through one namespace.
///
/// # Example
///
/// ```
/// use lgr_engine::DatasetRegistry;
/// use lgr_graph::datasets::DatasetScale;
/// use lgr_graph::EdgeList;
/// use lgr_parallel::Pool;
///
/// let mut reg = DatasetRegistry::new();
/// reg.register("ring", "cycle graph; ring:<n>", |args, _scale| {
///     let n: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(8);
///     let mut el = EdgeList::new(n as usize);
///     for v in 0..n {
///         el.push(v, (v + 1) % n);
///     }
///     Ok(el)
/// });
/// let spec = reg.parse("ring:12").unwrap();
/// let graph = reg.build(&spec, DatasetScale::tiny(), &Pool::new(1)).unwrap();
/// ```
#[derive(Default)]
pub struct DatasetRegistry {
    custom: BTreeMap<String, DatasetEntry>,
}

impl fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DatasetRegistry")
            .field("custom", &self.custom.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl DatasetRegistry {
    /// A registry holding only the built-in sources.
    pub fn new() -> Self {
        DatasetRegistry::default()
    }

    /// Registers a custom dataset source under `name` (lowercased).
    ///
    /// # Panics
    ///
    /// Panics if `name` collides with a built-in dataset name or the
    /// reserved `file`/`lgr` heads.
    pub fn register<F>(&mut self, name: &str, summary: &str, build: F)
    where
        F: Fn(&[String], DatasetScale) -> Result<EdgeList, SpecError> + Send + Sync + 'static,
    {
        let name = name.to_ascii_lowercase();
        assert!(
            !BUILTIN_DATASETS.contains(&name.as_str())
                && DatasetId::from_name(&name).is_none()
                && name != "file"
                && name != "lgr",
            "`{name}` is a built-in dataset name"
        );
        self.custom.insert(
            name,
            DatasetEntry {
                summary: summary.to_owned(),
                build: Box::new(build),
            },
        );
    }

    /// Every addressable name: built-ins first, then custom entries.
    /// (`file:`/`lgr:` forms are listed in [`DATASET_SPEC_FORMS`].)
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = BUILTIN_DATASETS.iter().map(|s| s.to_string()).collect();
        v.extend(self.custom.keys().cloned());
        v
    }

    /// One-line description of a custom entry, if registered.
    pub fn summary(&self, name: &str) -> Option<&str> {
        self.custom.get(name).map(|e| e.summary.as_str())
    }

    /// Parses a spec string, accepting this registry's custom names in
    /// addition to the built-ins and `file:`/`lgr:` forms.
    pub fn parse(&self, s: &str) -> Result<DatasetSpec, SpecError> {
        let names: Vec<&str> = self.custom.keys().map(String::as_str).collect();
        parse_dataset_spec(s, &names)
    }

    /// Materializes the graph a spec describes: synthesizes built-in
    /// analogues at the effective scale, loads text files on the pool,
    /// and reads `.lgr` snapshots directly into CSR form.
    pub fn build(
        &self,
        spec: &DatasetSpec,
        scale: DatasetScale,
        pool: &Pool,
    ) -> Result<DatasetGraph, DatasetError> {
        let load_err = |e: lgr_io::IoError| DatasetError::Load {
            spec: spec.to_string(),
            message: e.to_string(),
        };
        match spec.source() {
            DatasetSource::Synthetic { id, .. } => Ok(DatasetGraph::Edges(datasets::build(
                *id,
                spec.effective_scale(scale),
            ))),
            DatasetSource::File {
                path,
                format,
                weighted,
            } => {
                let fmt = match format {
                    Some(f) => *f,
                    None => infer_format(path).ok_or_else(|| DatasetError::Load {
                        spec: spec.to_string(),
                        message: format!(
                            "cannot infer the format of `{path}` from its extension; \
                             add :fmt=el or :fmt=mtx"
                        ),
                    })?,
                };
                let el = match fmt {
                    TextFormat::EdgeList => lgr_io::load_edge_list(path, *weighted, pool),
                    TextFormat::MatrixMarket => lgr_io::load_matrix_market(path, *weighted, pool),
                }
                .map_err(load_err)?;
                Ok(DatasetGraph::Edges(el))
            }
            DatasetSource::Lgr { path } => Ok(DatasetGraph::Graph(
                lgr_io::load_lgr(path, pool).map_err(load_err)?,
            )),
            DatasetSource::Custom { name, args } => {
                let entry = self
                    .custom
                    .get(name)
                    .ok_or_else(|| unknown_dataset(name, &[]))?;
                let el = (entry.build)(args, spec.effective_scale(scale))?;
                Ok(DatasetGraph::Edges(el))
            }
        }
    }
}

fn infer_format(path: &str) -> Option<TextFormat> {
    let ext = path.rsplit_once('.')?.1.to_ascii_lowercase();
    match ext.as_str() {
        "el" | "txt" | "tsv" | "snap" | "edges" | "edgelist" => Some(TextFormat::EdgeList),
        "mtx" | "mm" => Some(TextFormat::MatrixMarket),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_are_parse_fixpoints() {
        for s in [
            "kr",
            "sd",
            "road",
            "kr:sd=15",
            "kr:seed=7",
            "kr:sd=15:seed=7",
            "file:/data/web.el",
            "file:/data/web.mtx:weighted",
            "file:/data/raw:fmt=el",
            "file:/data/raw:fmt=mtx:weighted",
            "lgr:/data/web.lgr",
        ] {
            let spec: DatasetSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "canonical form of {s}");
            assert_eq!(spec.to_string().parse::<DatasetSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn aliases_normalize() {
        for (alias, canonical) in [
            ("kron", "kr"),
            ("KRON:sd=15", "kr:sd=15"),
            ("uniform", "uni"),
            ("SD", "sd"),
            ("kr:15", "kr:sd=15"),
            ("file:/x.mtx:WEIGHTED", "file:/x.mtx:weighted"),
        ] {
            let spec: DatasetSpec = alias.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{alias}");
        }
    }

    #[test]
    fn every_builtin_name_parses_and_agrees_with_from_name() {
        for name in BUILTIN_DATASETS {
            let spec: DatasetSpec = name.parse().unwrap();
            assert_eq!(spec.dataset_id(), DatasetId::from_name(name), "{name}");
            assert_eq!(spec.to_string(), name);
        }
    }

    #[test]
    fn unknown_names_list_names_and_spec_forms() {
        match "walrus".parse::<DatasetSpec>() {
            Err(SpecError::UnknownDataset { token, valid }) => {
                assert_eq!(token, "walrus");
                assert!(valid.contains(&"kr".to_owned()));
                assert!(valid.iter().any(|v| v.starts_with("file:")), "{valid:?}");
                assert!(valid.iter().any(|v| v.starts_with("lgr:")), "{valid:?}");
            }
            other => panic!("expected UnknownDataset, got {other:?}"),
        }
    }

    #[test]
    fn malformed_values_are_invalid_not_unknown() {
        for s in [
            "kr:sd=abc",
            "kron:sd=abc",
            "kr:sd=99",
            "kr:seed=-3",
            "kr:sd=",
        ] {
            match s.parse::<DatasetSpec>() {
                Err(SpecError::InvalidValue { .. }) => {}
                other => panic!("expected InvalidValue for {s}, got {other:?}"),
            }
        }
        match "kr:flavor=hot".parse::<DatasetSpec>() {
            Err(SpecError::UnknownParam { technique, token }) => {
                assert_eq!(technique, "kr");
                assert_eq!(token, "flavor=hot");
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        for s in ["file:", "lgr:", "file::weighted"] {
            match s.parse::<DatasetSpec>() {
                Err(SpecError::InvalidValue { .. }) => {}
                other => panic!("expected InvalidValue for {s}, got {other:?}"),
            }
        }
        assert_eq!("".parse::<DatasetSpec>(), Err(SpecError::Empty));
    }

    #[test]
    fn file_paths_with_colons_survive() {
        let spec: DatasetSpec = "file:C:/data/web.el:weighted".parse().unwrap();
        match spec.source() {
            DatasetSource::File { path, weighted, .. } => {
                assert_eq!(path, "C:/data/web.el");
                assert!(*weighted);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!("kr".parse::<DatasetSpec>().unwrap().label(), "kr");
        assert_eq!(
            "kr:sd=15".parse::<DatasetSpec>().unwrap().label(),
            "kr:sd=15"
        );
        assert_eq!(
            "file:/data/web.el".parse::<DatasetSpec>().unwrap().label(),
            "web"
        );
        assert_eq!(
            "lgr:/d/sub.dir/snap.lgr"
                .parse::<DatasetSpec>()
                .unwrap()
                .label(),
            "snap"
        );
    }

    #[test]
    fn effective_scale_and_cache_key_incorporate_overrides() {
        let base = DatasetScale::with_sd_vertices(1 << 17);
        let plain: DatasetSpec = "kr".parse().unwrap();
        assert_eq!(plain.effective_scale(base), base);
        let scaled: DatasetSpec = "kr:sd=10:seed=9".parse().unwrap();
        let eff = scaled.effective_scale(base);
        assert_eq!(eff.sd_vertices, 1 << 10);
        assert_eq!(eff.seed, 9);
        assert_ne!(plain.cache_key(base), scaled.cache_key(base));
        assert_ne!(
            plain.cache_key(base),
            plain.cache_key(DatasetScale::with_sd_vertices(1 << 11))
        );
    }

    #[test]
    fn builtin_weight_seed_matches_the_historical_stream() {
        for id in DatasetId::ALL {
            assert_eq!(DatasetSpec::builtin(id).weight_seed(), 0xC0FFEE ^ id as u64);
        }
    }

    #[test]
    fn registry_builds_builtins_and_customs() {
        let mut reg = DatasetRegistry::new();
        reg.register("path", "path graph; path:<n>", |args, _| {
            let n: u32 = args.first().and_then(|a| a.parse().ok()).unwrap_or(4);
            let mut el = EdgeList::new(n.max(1) as usize);
            for v in 1..n {
                el.push(v - 1, v);
            }
            Ok(el)
        });
        let pool = Pool::new(1);
        let scale = DatasetScale::tiny();
        let spec = reg.parse("path:5").unwrap();
        assert_eq!(spec.to_string(), "path:5");
        match reg.build(&spec, scale, &pool).unwrap() {
            DatasetGraph::Edges(el) => assert_eq!(el.num_edges(), 4),
            other => panic!("{other:?}"),
        }
        match reg.build(&reg.parse("lj").unwrap(), scale, &pool).unwrap() {
            DatasetGraph::Edges(el) => assert!(el.num_edges() > 0),
            other => panic!("{other:?}"),
        }
        // Unregistered names list the customs too.
        match reg.parse("nope") {
            Err(SpecError::UnknownDataset { valid, .. }) => {
                assert!(valid.contains(&"path".to_owned()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "built-in")]
    fn registering_over_a_builtin_panics() {
        let mut reg = DatasetRegistry::new();
        reg.register("kron", "clash", |_, _| Ok(EdgeList::new(0)));
    }

    #[test]
    fn missing_files_are_load_errors() {
        let reg = DatasetRegistry::new();
        let pool = Pool::new(1);
        for s in [
            "file:/nonexistent/x.el",
            "file:/nonexistent/x.mtx",
            "lgr:/nonexistent/x.lgr",
        ] {
            let spec: DatasetSpec = s.parse().unwrap();
            match reg.build(&spec, DatasetScale::tiny(), &pool) {
                Err(DatasetError::Load { spec: fspec, .. }) => assert_eq!(fspec, s),
                other => panic!("expected Load error for {s}, got {other:?}"),
            }
        }
        // Unknown extension without fmt= is a load error naming the fix.
        let spec: DatasetSpec = "file:/data/blob.bin".parse().unwrap();
        match reg.build(&spec, DatasetScale::tiny(), &pool) {
            Err(DatasetError::Load { message, .. }) => {
                assert!(message.contains("fmt="), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }
}
