//! The [`Session`]: pool ownership, dataset/permutation/run caching,
//! and the paper's measurement methodology, addressable by spec.
//!
//! A session is the library-level engine the `repro` harness (and any
//! future service) drives: it owns the worker [`Pool`], lazily
//! materializes datasets (synthetic analogues, text files, or binary
//! `.lgr` snapshots), caches timed permutations and reordered CSRs
//! under canonicalized keys, and runs traced/untraced application
//! jobs. Everything is addressed by [`DatasetSpec`] /
//! [`TechniqueSpec`] / [`AppSpec`], so a string from a CLI flag,
//! config file, or RPC payload reaches the same cached machinery as a
//! typed call.
//!
//! With [`SessionConfig::dataset_cache`] set, every materialized
//! graph is persisted as a checksummed `.lgr` file keyed by spec
//! string + scale; later sessions reload the binary CSR instead of
//! regenerating and rebuilding it.
//!
//! # Threading model
//!
//! A `Session` is `Send + Sync`: wrap it in an [`Arc`] and hand
//! clones to as many threads (or server connections) as you like.
//! Every cache is one lock-guarded map ([`CoalescingCache`]) with per-key
//! build coalescing — N concurrent requests for the same
//! (dataset, technique, app) key trigger exactly **one** graph build,
//! reordering, or traced run; the other N-1 threads block on the
//! in-flight slot and wake to the shared `Arc`'d result. Reports are
//! therefore byte-identical whether a job batch runs sequentially or
//! hammered from many threads (the only wall-clock field,
//! `reorder_ms`, is measured once per key and then shared). All
//! threads share the session's single worker [`Pool`]; its broadcasts
//! serialize internally, so concurrent jobs interleave safely at
//! data-parallel-section granularity. A traced run is one such
//! section: every worker replays the kernel into a simulator of its
//! share of the cache-set partitions
//! ([`MemorySim::partial`](lgr_cachesim::MemorySim::partial)), and the
//! shares' statistics sum to the same counts for any pool size. An
//! untraced run ([`Session::wall`]) pools the kernel itself.

use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lgr_analytics::apps::{AppId, Work, RADII_MASK_WIDTH};
use lgr_cachesim::{MemorySim, SimConfig, SimStats};
use lgr_core::TimedReorder;
use lgr_graph::datasets::DatasetScale;
use lgr_graph::{Csr, DegreeKind, Directions, VertexId};
use lgr_io::DatasetCache;
use lgr_parallel::{par_fill, Pool};

use crate::app::AppSpec;
use crate::coalesce::{CacheStats, CoalescingCache, EvictionPolicy};
use crate::dataset::{DatasetError, DatasetGraph, DatasetRegistry, DatasetSpec};
use crate::registry::TechniqueRegistry;
use crate::report::Report;
use crate::spec::TechniqueSpec;

/// Session-wide knobs.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Dataset scale (vertex count of `sd`; others keep Table IX
    /// ratios). Per-spec `sd=`/`seed=` overrides take precedence.
    pub scale: DatasetScale,
    /// Simulated machine.
    pub sim: SimConfig,
    /// Roots aggregated per root-dependent app run (the paper uses 8).
    pub roots: usize,
    /// Fixed PageRank iterations per traced run.
    pub pr_iters: usize,
    /// PageRank-Delta iteration cap.
    pub prd_iters: usize,
    /// Radii round cap.
    pub radii_rounds: usize,
    /// Print progress lines to stderr.
    pub verbose: bool,
    /// Restrict experiments to these techniques (`None` = all). Rosters
    /// pass through [`Session::selected_techniques`], so a `--techniques
    /// dbg,sort` CLI filter reaches every experiment uniformly.
    pub techniques: Option<Vec<TechniqueSpec>>,
    /// Restrict experiments to these applications (`None` = all),
    /// matched by app identity; a knobbed selection entry
    /// (`pr:iters=10`) overrides the roster's knobs.
    pub apps: Option<Vec<AppSpec>>,
    /// Restrict experiments to these datasets (`None` = the paper's
    /// rosters). Like `--techniques`, the main evaluation runs the
    /// selection verbatim — naming `file:/data/web.el` here routes an
    /// external graph through every spec-driven experiment.
    pub datasets: Option<Vec<DatasetSpec>>,
    /// Directory of persisted `.lgr` graphs keyed by spec + scale
    /// (`None` = rebuild every session). Misses populate the cache;
    /// hits skip generation, parsing, and CSR construction entirely.
    pub dataset_cache: Option<PathBuf>,
    /// Byte budget applied to **each** in-memory session cache
    /// (graphs, permutations, reordered CSRs, roots, run stats, wall
    /// times); `None` = unbounded, the historical behavior. When set,
    /// the least-recently-used published entries are evicted
    /// whenever a cache's resident bytes exceed the budget, and
    /// evicted keys rebuild deterministically on their next request
    /// (only the re-measured `reorder_ms` wall-clock field can
    /// differ; [`Report::canonicalized`](crate::Report::canonicalized)
    /// output is byte-identical).
    pub cache_bytes: Option<u64>,
    /// Replacement policy for budgeted caches. [`EvictionPolicy::Lru`]
    /// is its only value, so every budgeted cache evicts by recency.
    pub cache_policy: EvictionPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scale: DatasetScale::with_sd_vertices(1 << 17),
            sim: SimConfig::default(),
            roots: 2,
            pr_iters: 3,
            prd_iters: 5,
            radii_rounds: 1024,
            verbose: false,
            techniques: None,
            apps: None,
            datasets: None,
            dataset_cache: None,
            cache_bytes: None,
            cache_policy: EvictionPolicy::default(),
        }
    }
}

impl SessionConfig {
    /// A tiny configuration for smoke tests and CI. The scale is
    /// chosen so `repro --quick all` finishes in well under a minute
    /// even in debug builds (the full suite simulates every app on
    /// every dataset).
    pub fn quick() -> Self {
        SessionConfig {
            scale: DatasetScale::with_sd_vertices(1 << 11),
            roots: 1,
            pr_iters: 2,
            prd_iters: 3,
            radii_rounds: 256,
            ..Default::default()
        }
    }

    /// Overrides the scale exponent: `sd` gets `2^exp` vertices.
    pub fn with_scale_exp(mut self, exp: u32) -> Self {
        self.scale = DatasetScale::with_sd_vertices(1usize << exp);
        self
    }

    /// The [`Work`] one run of `app` does on this config's machine,
    /// and how many roots the session picks for it: each knob `app`
    /// sets, else this config's default. Radii's roots are its
    /// sources, [`RADII_MASK_WIDTH`] by default; like every app's
    /// roots they are picked on the original graph, so each ordering
    /// computes the same problem. PR and PRD get none: neither kernel
    /// reads a root.
    pub fn work(&self, app: &AppSpec) -> (Work, usize) {
        let (iters, roots) = match app.id() {
            AppId::Pr => (self.pr_iters, 0),
            AppId::Prd => (self.prd_iters, 0),
            AppId::Radii => (self.radii_rounds, RADII_MASK_WIDTH),
            AppId::Sssp | AppId::Bc => (usize::MAX, self.roots),
        };
        let work = Work {
            iters: app.iters().unwrap_or(iters),
            cores: self.sim.cores,
        };
        (work, app.roots().unwrap_or(roots))
    }
}

/// Parses a byte size with an optional binary suffix: `4096`,
/// `4096k`, `16m`, `1g` (case-insensitive), the grammar of the CLIs'
/// `--cache-bytes` flag ([`SessionConfig::cache_bytes`]).
///
/// # Errors
///
/// A message naming the input when it is not a size or overflows
/// `u64`.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix(['k', 'K']) {
        (d, 1u64 << 10)
    } else if let Some(d) = s.strip_suffix(['m', 'M']) {
        (d, 1 << 20)
    } else if let Some(d) = s.strip_suffix(['g', 'G']) {
        (d, 1 << 30)
    } else {
        (s, 1)
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("not a byte size: `{s}`"))
}

/// The command-line flags that select a [`SessionConfig`], shared by
/// `repro` and `lgr-serve serve|local`. Flags are collected first and
/// applied together by [`SessionFlags::config`], so the outcome does
/// not depend on argument order (`--roots 4 --quick` keeps the roots
/// override).
#[derive(Debug, Default)]
pub struct SessionFlags {
    quick: bool,
    verbose: bool,
    scale_exp: Option<u32>,
    roots: Option<usize>,
    sim: Option<SimConfig>,
    cache_bytes: Option<u64>,
}

impl SessionFlags {
    /// Every flag [`SessionFlags::parse`] accepts, by the name it
    /// returns (`-v` is `--verbose`).
    pub const NAMES: [&'static str; 6] = [
        "--quick",
        "--scale",
        "--roots",
        "--sim",
        "--cache-bytes",
        "--verbose",
    ];

    /// Consumes `arg`, and its operand from `rest`, if it is a session
    /// flag: `Ok(Some(name))` names the flag, `Ok(None)` leaves any
    /// other argument to the caller.
    ///
    /// # Errors
    ///
    /// The usage message for a missing or malformed operand.
    pub fn parse(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<Option<&'static str>, String> {
        let name = match arg {
            "--quick" => {
                self.quick = true;
                "--quick"
            }
            "--verbose" | "-v" => {
                self.verbose = true;
                "--verbose"
            }
            "--scale" => match rest.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(exp) if (8..=24).contains(&exp) => {
                    self.scale_exp = Some(exp);
                    "--scale"
                }
                _ => return Err("--scale needs an exponent in 8..=24".to_owned()),
            },
            "--roots" => match rest.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    self.roots = Some(n);
                    "--roots"
                }
                _ => return Err("--roots needs a positive integer".to_owned()),
            },
            "--sim" => match rest.next().map(|s| s.parse::<SimConfig>()) {
                Some(Ok(parsed)) => {
                    self.sim = Some(parsed);
                    "--sim"
                }
                Some(Err(e)) => return Err(e.to_string()),
                None => return Err("--sim needs a knob list (cores=8,sockets=2,...)".to_owned()),
            },
            "--cache-bytes" => match rest.next().as_deref().map(parse_bytes) {
                Some(Ok(n)) if n >= 1 => {
                    self.cache_bytes = Some(n);
                    "--cache-bytes"
                }
                _ => {
                    return Err(
                        "--cache-bytes needs a positive size (e.g. 16m, 4096k, 1g)".to_owned()
                    )
                }
            },
            _ => return Ok(None),
        };
        Ok(Some(name))
    }

    /// The configuration these flags select: [`SessionConfig::quick`]
    /// under `--quick`, else the default, with each override applied.
    pub fn config(&self) -> SessionConfig {
        let mut cfg = if self.quick {
            SessionConfig::quick()
        } else {
            SessionConfig::default()
        };
        if let Some(exp) = self.scale_exp {
            cfg = cfg.with_scale_exp(exp);
        }
        if let Some(n) = self.roots {
            cfg.roots = n;
        }
        if let Some(s) = self.sim {
            cfg.sim = s;
        }
        cfg.cache_bytes = self.cache_bytes;
        cfg.verbose = self.verbose;
        cfg
    }
}

/// One traced run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Simulator statistics (MPKI, breakdowns, cycles).
    pub stats: SimStats,
}

impl RunStats {
    /// Estimated execution cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// A point-in-time snapshot of every session cache's counters — the
/// observability surface behind `repro --cache-stats` and the serve
/// protocol's `{"stats":"true"}` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Original-ordering graphs keyed by dataset spec.
    pub graphs: CacheStats,
    /// Timed permutations keyed by (dataset, technique, degree kind).
    pub reorders: CacheStats,
    /// Reordered CSRs under the same canonicalized keys.
    pub reordered: CacheStats,
    /// Per-dataset root-candidate vectors.
    pub roots: CacheStats,
    /// Traced run statistics keyed by job.
    pub runs: CacheStats,
    /// Untraced wall-clock measurements keyed by job.
    pub walls: CacheStats,
}

impl SessionCacheStats {
    /// Every cache's `(name, stats)` pair, in a fixed order.
    pub fn named(&self) -> [(&'static str, CacheStats); 6] {
        [
            ("graphs", self.graphs),
            ("reorders", self.reorders),
            ("reordered", self.reordered),
            ("roots", self.roots),
            ("runs", self.runs),
            ("walls", self.walls),
        ]
    }

    /// The sum over every cache (budgets sum when configured).
    pub fn total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, stats) in self.named() {
            total.absorb(&stats);
        }
        total
    }

    /// Serializes to one JSON object on a single line, one nested
    /// object per cache plus a `"total"` rollup:
    /// `{"stats":{"graphs":{"hits":3,...},...,"total":{...}}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn write_cache(out: &mut String, name: &str, s: &CacheStats) {
            let _ = write!(
                out,
                "\"{name}\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
                 \"resident_bytes\":{},\"entries\":{},\"budget_bytes\":{}}}",
                s.hits,
                s.misses,
                s.evictions,
                s.resident_bytes,
                s.entries,
                s.budget_bytes
                    .map_or_else(|| "null".to_owned(), |b| b.to_string()),
            );
        }
        let mut out = String::from("{\"stats\":{");
        for (name, stats) in self.named() {
            write_cache(&mut out, name, &stats);
            out.push(',');
        }
        write_cache(&mut out, "total", &self.total());
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for SessionCacheStats {
    /// A fixed-width table, one row per cache plus the total row.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<10} {:>8} {:>8} {:>10} {:>9} {:>15} {:>15}",
            "cache", "hits", "misses", "evictions", "entries", "resident_bytes", "budget_bytes"
        )?;
        let total = self.total();
        for (name, s) in self.named().iter().chain([&("total", total)]) {
            writeln!(
                f,
                "{:<10} {:>8} {:>8} {:>10} {:>9} {:>15} {:>15}",
                name,
                s.hits,
                s.misses,
                s.evictions,
                s.entries,
                s.resident_bytes,
                s.budget_bytes
                    .map_or_else(|| "unbounded".to_owned(), |b| b.to_string()),
            )?;
        }
        Ok(())
    }
}

/// One unit of work: an application on a dataset under an (optional)
/// reordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Job {
    /// What to run.
    pub app: AppSpec,
    /// Which dataset to run it on.
    pub dataset: DatasetSpec,
    /// How to reorder first (`None` = original ordering).
    pub technique: Option<TechniqueSpec>,
}

impl Job {
    /// A job on the original ordering. Accepts anything convertible to
    /// a [`DatasetSpec`], including a bare
    /// [`DatasetId`](lgr_graph::datasets::DatasetId).
    pub fn new(app: AppSpec, dataset: impl Into<DatasetSpec>) -> Self {
        Job {
            app,
            dataset: dataset.into(),
            technique: None,
        }
    }

    /// The same job under `spec`'s reordering.
    pub fn with_technique(mut self, spec: TechniqueSpec) -> Self {
        self.technique = Some(spec);
        self
    }
}

/// Writes one `[repro]` line to stderr and ignores failure:
/// `eprintln!` panics when stderr is a closed pipe, and a progress
/// line nobody reads must not end the run.
fn log_line(msg: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr().lock(), "[repro] {msg}");
}

/// The speedup of a run costing `with` cycles over one costing
/// `base`. Two runs that cost nothing are equally fast: 1.0, not the
/// 0 or NaN a plain division gives.
fn speedup_ratio(base: f64, with: f64) -> f64 {
    if base == 0.0 && with == 0.0 {
        1.0
    } else {
        base / with.max(1.0)
    }
}

type ReorderKey = (DatasetSpec, TechniqueSpec, DegreeKind);
/// A relabelled graph's key: its permutation's key and the directions
/// the relabel wrote.
type RelabelKey = (ReorderKey, Directions);

/// Caching engine shared by every experiment, CLI invocation, server
/// connection, and library embedding. `Send + Sync`: share one
/// session across threads via [`Arc`]; every cache coalesces
/// concurrent builds of the same key into a single execution.
pub struct Session {
    cfg: SessionConfig,
    registry: TechniqueRegistry,
    dataset_registry: DatasetRegistry,
    /// Worker pool shared by every CSR build, permutation apply, file
    /// parse, framework reordering and traced simulation the session
    /// performs — across all threads driving the session concurrently.
    /// Sized by the `LGR_THREADS` knob (default: available
    /// parallelism).
    pool: Pool,
    graphs: CoalescingCache<DatasetSpec, Csr>,
    reorders: CoalescingCache<ReorderKey, TimedReorder>,
    /// Reordered CSRs, cached under the same canonicalized key as the
    /// permutations that produced them plus the directions written —
    /// rebuilding the graph per `run`/`wall` call was the single
    /// biggest repeated cost of the repro pipeline.
    reordered: CoalescingCache<RelabelKey, Csr>,
    /// Per-dataset root candidates (vertices with both edge
    /// directions), so the O(V) scan runs once per dataset rather than
    /// once per prepared run.
    root_candidates: CoalescingCache<DatasetSpec, Vec<VertexId>>,
    runs: CoalescingCache<Job, RunStats>,
    walls: CoalescingCache<Job, Duration>,
}

// The whole point of the coalescing caches: one engine, many threads. A
// regression that reintroduces a non-Sync cell fails to compile here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("cfg", &self.cfg).finish()
    }
}

impl Session {
    /// A session with the given configuration and the built-in
    /// technique and dataset registries.
    pub fn new(cfg: SessionConfig) -> Self {
        Self::with_registry(cfg, TechniqueRegistry::new())
    }

    /// A session whose technique specs also resolve against
    /// `registry`'s custom techniques.
    pub fn with_registry(cfg: SessionConfig, registry: TechniqueRegistry) -> Self {
        Self::with_pool(cfg, registry, Pool::with_default_threads())
    }

    fn with_pool(cfg: SessionConfig, registry: TechniqueRegistry, pool: Pool) -> Self {
        let budget = cfg.cache_bytes;
        Session {
            registry,
            dataset_registry: DatasetRegistry::new(),
            pool,
            graphs: CoalescingCache::new(budget),
            reorders: CoalescingCache::new(budget),
            reordered: CoalescingCache::new(budget),
            root_candidates: CoalescingCache::new(budget),
            runs: CoalescingCache::new(budget),
            walls: CoalescingCache::new(budget),
            cfg,
        }
    }

    /// The worker pool shared by the session's graph-construction and
    /// reordering work.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The active configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The technique registry specs resolve against.
    pub fn registry(&self) -> &TechniqueRegistry {
        &self.registry
    }

    /// The dataset registry specs resolve against.
    pub fn dataset_registry(&self) -> &DatasetRegistry {
        &self.dataset_registry
    }

    /// Mutable dataset-registry access, for registering custom
    /// sources.
    pub fn dataset_registry_mut(&mut self) -> &mut DatasetRegistry {
        &mut self.dataset_registry
    }

    fn log(&self, msg: &str) {
        if self.cfg.verbose {
            log_line(msg);
        }
    }

    /// A snapshot of every cache's hit/miss/eviction/resident-bytes
    /// counters. Cheap enough to call per request (`entries` walks
    /// each cache's map; everything else is a field or atomic load).
    pub fn cache_stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            graphs: self.graphs.stats(),
            reorders: self.reorders.stats(),
            reordered: self.reordered.stats(),
            roots: self.root_candidates.stats(),
            runs: self.runs.stats(),
            walls: self.walls.stats(),
        }
    }

    /// The dataset's graph in its original ordering, materialized (or
    /// loaded from the dataset cache) on first use. Weights are always
    /// attached (SSSP uses them; other apps ignore them): sources that
    /// carry none get the deterministic per-spec weight stream.
    /// Concurrent requests coalesce: one thread builds, the rest wait
    /// and share the result.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] when the spec names a file that is missing or
    /// malformed, or a custom source whose builder fails. Errors are
    /// not cached; a later call retries.
    pub fn try_graph(&self, ds: &DatasetSpec) -> Result<Arc<Csr>, DatasetError> {
        self.graphs.get_or_try_build(ds, || self.build_graph(ds))
    }

    /// The uncached graph materialization behind [`Session::try_graph`]
    /// (runs at most once per spec thanks to the coalescing cache).
    fn build_graph(&self, ds: &DatasetSpec) -> Result<Csr, DatasetError> {
        let cache = self.cfg.dataset_cache.as_ref().map(DatasetCache::new);
        let key = ds.cache_key(self.cfg.scale);
        if let Some(cache) = &cache {
            if let Some(g) = cache.load(&key, &self.pool) {
                self.log(&format!("loading dataset {ds} from cache ({key})"));
                return Ok(self.ensure_weighted(ds, g));
            }
        }
        self.log(&format!("building dataset {ds}"));
        let g = match self
            .dataset_registry
            .build(ds, self.cfg.scale, &self.pool)?
        {
            DatasetGraph::Edges(mut el) => {
                if !el.is_weighted() {
                    el.randomize_weights(64, ds.weight_seed());
                }
                Csr::from_edge_list_with(&el, &self.pool)
            }
            DatasetGraph::Graph(csr) => self.ensure_weighted(ds, csr),
        };
        if let Some(cache) = &cache {
            match cache.store(&key, &g) {
                Ok(path) => self.log(&format!("cached dataset {ds} at {}", path.display())),
                Err(e) => log_line(&format!("warning: could not cache dataset {ds}: {e}")),
            }
        }
        Ok(g)
    }

    /// [`Session::try_graph`], panicking on load failure — the
    /// ergonomic accessor for specs already validated (the `repro`
    /// binary validates every `--datasets` entry up front).
    ///
    /// # Panics
    ///
    /// Panics if the dataset fails to materialize.
    pub fn graph(&self, ds: &DatasetSpec) -> Arc<Csr> {
        self.stage(ds, JobCx::graph)
    }

    /// Attaches the spec's deterministic weight stream when a loaded
    /// graph carries none (a hand-made `.lgr` file, say), so every
    /// dataset is runnable under SSSP.
    fn ensure_weighted(&self, ds: &DatasetSpec, csr: Csr) -> Csr {
        if csr.is_weighted() {
            return csr;
        }
        self.log(&format!(
            "dataset {ds} carries no weights; attaching the deterministic stream"
        ));
        let mut el = csr.to_edge_list();
        el.randomize_weights(64, ds.weight_seed());
        Csr::from_edge_list_with(&el, &self.pool)
    }

    /// Times `spec`'s reordering of an arbitrary graph on the pool
    /// (uncached; out-degrees drive hot/cold decisions).
    pub fn reorder(&self, graph: &Csr, spec: &TechniqueSpec) -> TimedReorder {
        self.reorder_with_kind(graph, spec, DegreeKind::Out)
    }

    /// [`Session::reorder`] with an explicit degree kind.
    ///
    /// # Panics
    ///
    /// Panics if the spec names a custom technique this session's
    /// registry does not hold (parse specs through
    /// [`TechniqueRegistry::parse`](crate::TechniqueRegistry::parse)
    /// to catch that early).
    pub fn reorder_with_kind(
        &self,
        graph: &Csr,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> TimedReorder {
        let t = self
            .registry
            .build(spec)
            .unwrap_or_else(|e| panic!("unresolvable spec `{spec}`: {e}"));
        TimedReorder::run_with(t.as_ref(), graph, kind, &self.pool)
    }

    /// The (timed) permutation for `spec` on `ds` using `kind`
    /// degrees, cached; concurrent requests coalesce into one
    /// reordering run.
    pub fn dataset_reorder(
        &self,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> Arc<TimedReorder> {
        self.stage(ds, |cx| JobCx::reorder(cx, spec, kind))
    }

    /// The reordered CSR for `spec` on `ds` using `kind` degrees, both
    /// directions written, cached under the same canonicalized key as
    /// the permutation. A `run`/`wall` call relabels only the
    /// directions its app reads ([`AppId::reads`]), and reuses this
    /// graph when it is already cached.
    pub fn reordered_graph(
        &self,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> Arc<Csr> {
        self.stage(ds, |cx| JobCx::reordered(cx, spec, kind, Directions::Both))
    }

    /// Deterministic roots on the ORIGINAL graph: vertices with both
    /// in- and out-edges, evenly spaced through the ID range. Returns
    /// at most one root per candidate — when `count` exceeds the
    /// candidate pool the result is the whole pool, never duplicated
    /// roots (a duplicate would double-charge its traversal in the
    /// aggregated simulation). A graph without candidates is rooted at
    /// vertex 0; an empty graph has no roots.
    pub fn roots(&self, ds: &DatasetSpec, count: usize) -> Vec<VertexId> {
        self.stage(ds, |cx| JobCx::roots(cx, count))
    }

    /// Traced run of a job, cached. Root-dependent apps aggregate the
    /// configured number of traversals into one simulation, mirroring
    /// the paper's methodology. Concurrent requests for the same job
    /// coalesce into one traced execution.
    pub fn run(&self, job: &Job) -> Arc<RunStats> {
        self.stage(&job.dataset, |cx| JobCx::run(cx, job))
    }

    /// Untraced wall-clock run (same work as [`Session::run`]), cached.
    /// The kernel runs on the session pool, the pool the reorderings
    /// and permutation applies it is weighed against run on; see
    /// [`AppId::run_pooled`] for which apps split their work.
    pub fn wall(&self, job: &Job) -> Duration {
        self.stage(&job.dataset, |cx| JobCx::wall(cx, job))
    }

    /// [`Session::try_report`], panicking where it errors.
    ///
    /// # Panics
    ///
    /// Panics if the dataset fails to materialize.
    pub fn report(&self, job: &Job) -> Report {
        self.stage(&job.dataset, |cx| JobCx::report(cx, job))
    }

    /// Runs a job and flattens the outcome (plus its baseline
    /// comparison and reorder timing) into a machine-readable
    /// [`Report`]. The dataset's graph is fetched at most once, and
    /// only if something must be built from it, so a job whose runs
    /// and permutation are all cached reads no graph.
    ///
    /// # Errors
    ///
    /// [`DatasetError`] when the dataset is needed and fails to
    /// materialize (a missing or malformed file, say).
    pub fn try_report(&self, job: &Job) -> Result<Report, DatasetError> {
        JobCx::report(&JobCx::new(self, &job.dataset), job)
    }

    /// Runs `stage` on a fresh [`JobCx`] for `ds`, panicking if the
    /// dataset fails to materialize: the one panic of every accessor
    /// that takes its dataset as valid. Callers name the stage by path
    /// (`JobCx::run(cx, job)`), which `cargo xtask audit`'s call graph
    /// resolves to that one method; `cx.run(job)` on the untyped
    /// closure parameter would resolve to every `run` in the workspace.
    fn stage<'s, T>(
        &'s self,
        ds: &'s DatasetSpec,
        stage: impl FnOnce(&JobCx<'s>) -> Result<T, DatasetError>,
    ) -> T {
        stage(&JobCx::new(self, ds)).unwrap_or_else(|e| panic!("dataset `{ds}`: {e}"))
    }

    /// Runs an app on the simulator. The traced kernel runs once per
    /// share of the set partitions, one share per pool worker, each
    /// feeding a [`MemorySim::partial`]; the shares' statistics, added
    /// in share order, sum to exactly what one whole simulator reports,
    /// whatever the thread count.
    fn run_traced(&self, app: &AppSpec, graph: &Csr, roots: &[VertexId]) -> SimStats {
        let machine = self.cfg.sim;
        let (work, _) = self.cfg.work(app);
        let mut partials = vec![SimStats::default(); self.pool.threads().min(machine.partitions())];
        let shares = partials.len();
        // The closure must not touch the pool: the broadcast holds its
        // gate, which is not reentrant.
        par_fill(&self.pool, &mut partials, |share| {
            let sim = app.id().trace(graph, work, roots, |layout| {
                MemorySim::partial(machine, layout, share, shares)
            });
            *sim.stats()
        });
        let mut total = SimStats::default();
        for share in partials {
            total += share;
        }
        total
    }

    /// Traced PageRank cycles on an arbitrary (already reordered)
    /// graph — used by ablations that sweep technique parameters
    /// outside the cached dataset registry.
    pub fn simulate_pr(&self, graph: &Csr) -> u64 {
        self.run_traced(&AppSpec::new(AppId::Pr), graph, &[]).cycles
    }

    /// Speedup factor of `spec` over the original ordering for
    /// `app` x `ds`, excluding reordering time (Fig. 6's metric); 1.0
    /// when both runs cost zero cycles.
    pub fn speedup(&self, app: &AppSpec, ds: &DatasetSpec, spec: &TechniqueSpec) -> f64 {
        let base = self.run(&Job::new(app.clone(), ds.clone())).cycles() as f64;
        let with = self
            .run(&Job::new(app.clone(), ds.clone()).with_technique(spec.clone()))
            .cycles() as f64;
        speedup_ratio(base, with)
    }

    /// Converts a wall-clock duration into simulated cycles using the
    /// dataset's PageRank calibration: the same PR work is both
    /// simulated (cycles) and executed on the host (seconds); their
    /// ratio is the exchange rate. This lets measured reordering times
    /// be charged against simulated application cycles (Figs. 10–11,
    /// Table XII).
    ///
    /// The host side is [`Session::wall`], so the rate is measured on
    /// the same pool as the reorder times it converts. With more than
    /// one pool thread that PageRank run is pooled: its host seconds
    /// fall, so the rate, and the reorder cycles that Figs. 10–11 and
    /// Table XII charge, are higher than a single-threaded kernel
    /// would give.
    pub fn wall_to_cycles(&self, ds: &DatasetSpec, wall: Duration) -> u64 {
        let pr = Job::new(AppSpec::new(AppId::Pr), ds.clone());
        let sim_cycles = self.run(&pr).cycles() as f64;
        let host_secs = self.wall(&pr).as_secs_f64().max(1e-9);
        let rate = sim_cycles / host_secs;
        (wall.as_secs_f64() * rate) as u64
    }

    /// Net speedup including reordering time, amortized over
    /// `traversals` repetitions of the app run (Figs. 10–11):
    /// `base * T / (reorder + with * T)`, or 1.0 when both sides are
    /// zero.
    pub fn net_speedup(
        &self,
        app: &AppSpec,
        ds: &DatasetSpec,
        spec: &TechniqueSpec,
        traversals: u64,
    ) -> f64 {
        let base = self.run(&Job::new(app.clone(), ds.clone())).cycles() as f64;
        let with = self
            .run(&Job::new(app.clone(), ds.clone()).with_technique(spec.clone()))
            .cycles() as f64;
        let reorder = self.dataset_reorder(ds, spec, app.id().reorder_degree());
        let reorder_cycles = self.wall_to_cycles(ds, reorder.elapsed) as f64;
        speedup_ratio(
            base * traversals as f64,
            reorder_cycles + with * traversals as f64,
        )
    }

    /// Filters a fixed-comparison roster (the random probes of Fig. 3,
    /// the `-O` variants of Fig. 5, ...) through the session's
    /// `--techniques` selection, preserving roster order. `None`
    /// selects everything. Unlike [`Session::main_eval`], this can
    /// only subset: those experiments compare specific techniques.
    pub fn selected_techniques(&self, roster: &[TechniqueSpec]) -> Vec<TechniqueSpec> {
        match &self.cfg.techniques {
            None => roster.to_vec(),
            Some(sel) => roster.iter().filter(|t| sel.contains(t)).cloned().collect(),
        }
    }

    /// Filters an app roster through the session's `--apps` selection
    /// (matched by app identity, so `pr` selects `pr:iters=4` rosters
    /// too), preserving roster order. `None` selects everything. A
    /// selection entry carrying knobs (`pr:iters=10`) replaces the
    /// matching roster entry, so `--apps pr:iters=10` actually runs
    /// ten iterations rather than silently dropping the override.
    pub fn selected_apps(&self, roster: &[AppSpec]) -> Vec<AppSpec> {
        match &self.cfg.apps {
            None => roster.to_vec(),
            Some(sel) => roster
                .iter()
                .filter_map(|a| {
                    let matched = sel.iter().find(|s| s.id() == a.id())?;
                    Some(if *matched == AppSpec::new(matched.id()) {
                        a.clone()
                    } else {
                        matched.clone()
                    })
                })
                .collect(),
        }
    }

    /// Filters a fixed dataset roster (Fig. 7's no-skew pair, Fig.
    /// 10's four largest, ...) through the session's `--datasets`
    /// selection, preserving roster order. `None` selects everything.
    /// Like [`Session::selected_techniques`], this can only subset:
    /// those experiments are defined over specific datasets.
    pub fn selected_datasets(&self, roster: &[DatasetSpec]) -> Vec<DatasetSpec> {
        match &self.cfg.datasets {
            None => roster.to_vec(),
            Some(sel) => roster.iter().filter(|d| sel.contains(d)).cloned().collect(),
        }
    }

    /// The dataset roster of the main evaluation: the `--datasets`
    /// selection verbatim when one is set (evaluate exactly what was
    /// named, including external `file:`/`lgr:` sources no built-in
    /// roster contains), else the paper's eight skewed datasets.
    pub fn main_datasets(&self) -> Vec<DatasetSpec> {
        match &self.cfg.datasets {
            None => DatasetSpec::skewed(),
            Some(sel) => sel.clone(),
        }
    }

    /// The technique roster of the main evaluation: the `--techniques`
    /// selection verbatim when one is set (evaluate exactly what was
    /// named, including parameterizations like `rcb:3` or
    /// `dbg:groups=2` that no default roster contains), else the
    /// paper's five (Fig. 6).
    pub fn main_eval(&self) -> Vec<TechniqueSpec> {
        match &self.cfg.techniques {
            None => TechniqueSpec::main_eval(),
            Some(sel) => sel.clone(),
        }
    }

    /// The five applications, after selection.
    pub fn eval_apps(&self) -> Vec<AppSpec> {
        self.selected_apps(&AppSpec::all())
    }
}

/// One public call's context for a job: the session, the dataset, and
/// the dataset's graph, fetched through [`Session::try_graph`] at most
/// once and only when a build needs it. Each stage looks its result up
/// in a session cache and on a miss builds it from the stages before
/// it; a dataset error is returned, not cached.
struct JobCx<'s> {
    session: &'s Session,
    ds: &'s DatasetSpec,
    graph: OnceCell<Arc<Csr>>,
}

impl<'s> JobCx<'s> {
    fn new(session: &'s Session, ds: &'s DatasetSpec) -> Self {
        JobCx {
            session,
            ds,
            graph: OnceCell::new(),
        }
    }

    /// The dataset's graph in its original ordering, fetched on first
    /// use and shared by every later stage of this context.
    fn graph(&self) -> Result<Arc<Csr>, DatasetError> {
        if let Some(g) = self.graph.get() {
            return Ok(Arc::clone(g));
        }
        let g = self.session.try_graph(self.ds)?;
        Ok(Arc::clone(self.graph.get_or_init(|| g)))
    }

    /// The cache key of `spec`'s permutation under `kind` degrees:
    /// techniques whose permutation ignores the degree kind share one
    /// entry.
    fn reorder_key(&self, spec: &TechniqueSpec, kind: DegreeKind) -> ReorderKey {
        let kind = if spec.uses_degree_kind() {
            kind
        } else {
            DegreeKind::Out
        };
        (self.ds.clone(), spec.clone(), kind)
    }

    /// [`Session::dataset_reorder`].
    fn reorder(
        &self,
        spec: &TechniqueSpec,
        kind: DegreeKind,
    ) -> Result<Arc<TimedReorder>, DatasetError> {
        let (s, ds, key) = (self.session, self.ds, self.reorder_key(spec, kind));
        s.reorders.get_or_try_build(&key, || {
            let graph = self.graph()?;
            s.log(&format!("reordering {} with {}", ds.label(), spec.label()));
            Ok(s.reorder_with_kind(&graph, spec, key.2))
        })
    }

    /// [`Session::reordered_graph`], writing only `dirs`. A graph with
    /// both directions already cached under the same permutation
    /// answers a one-direction request, as a hit.
    fn reordered(
        &self,
        spec: &TechniqueSpec,
        kind: DegreeKind,
        dirs: Directions,
    ) -> Result<Arc<Csr>, DatasetError> {
        let (s, ds, key) = (self.session, self.ds, self.reorder_key(spec, kind));
        if dirs != Directions::Both {
            if let Some(full) = s.reordered.hit(&(key.clone(), Directions::Both)) {
                return Ok(full);
            }
        }
        s.reordered.get_or_try_build(&(key, dirs), || {
            let graph = self.graph()?;
            let timed = self.reorder(spec, kind)?;
            s.log(&format!("rebuilding {} under {}", ds.label(), spec.label()));
            Ok(graph.relabel_with(&timed.permutation, dirs, &s.pool))
        })
    }

    /// [`Session::roots`].
    fn roots(&self, count: usize) -> Result<Vec<VertexId>, DatasetError> {
        // The root candidates: vertices with both in- and out-edges.
        let candidates = self.session.root_candidates.get_or_try_build(self.ds, || {
            self.graph().map(|g| {
                (0..g.num_vertices() as VertexId)
                    .filter(|&v| g.out_degree(v) > 0 && g.in_degree(v) > 0)
                    .collect()
            })
        })?;
        if candidates.is_empty() {
            return Ok(if self.graph()?.num_vertices() == 0 {
                Vec::new()
            } else {
                vec![0]
            });
        }
        let k = count.max(1).min(candidates.len());
        Ok((0..k)
            .map(|i| {
                let idx = (i * candidates.len() / k + candidates.len() / (2 * k))
                    .min(candidates.len() - 1);
                candidates[idx]
            })
            .collect())
    }

    /// The (possibly reordered) graph `job` runs on and its roots,
    /// mapped through the permutation. Reads the graph first, then the
    /// roots (unless the app takes none), the permutation and the
    /// graph relabelled in the directions the app reads.
    fn prepared(&self, job: &Job) -> Result<(Arc<Csr>, Vec<VertexId>), DatasetError> {
        let graph = self.graph()?;
        let roots = match self.session.cfg.work(&job.app) {
            (_, 0) => Vec::new(),
            (_, count) => self.roots(count)?,
        };
        let Some(spec) = &job.technique else {
            return Ok((graph, roots));
        };
        let (kind, dirs) = (job.app.id().reorder_degree(), job.app.id().reads());
        let timed = self.reorder(spec, kind)?;
        let mapped = roots.iter().map(|&r| timed.permutation.new_id(r)).collect();
        Ok((self.reordered(spec, kind, dirs)?, mapped))
    }

    /// [`Session::run`] of a job on this context's dataset.
    fn run(&self, job: &Job) -> Result<Arc<RunStats>, DatasetError> {
        let s = self.session;
        s.runs.get_or_try_build(job, || {
            s.log(&format!(
                "tracing {} on {} / {}",
                job.app.label(),
                job.dataset.label(),
                job.technique
                    .as_ref()
                    .map_or_else(|| "Original".to_owned(), TechniqueSpec::label)
            ));
            let (graph, roots) = self.prepared(job)?;
            let stats = s.run_traced(&job.app, &graph, &roots);
            Ok(RunStats { stats })
        })
    }

    /// [`Session::wall`] of a job on this context's dataset.
    fn wall(&self, job: &Job) -> Result<Duration, DatasetError> {
        let s = self.session;
        let wall = s.walls.get_or_try_build(job, || {
            let (graph, roots) = self.prepared(job)?;
            let (work, _) = s.cfg.work(&job.app);
            let start = Instant::now();
            job.app.id().run_pooled(&graph, work, &roots, &s.pool);
            Ok(start.elapsed())
        });
        wall.map(|w| *w)
    }

    /// [`Session::try_report`] of a job on this context's dataset.
    fn report(&self, job: &Job) -> Result<Report, DatasetError> {
        let stats = self.run(job)?;
        let base_stats = self.run(&Job::new(job.app.clone(), job.dataset.clone()))?;
        let (spec, reorder_ms) = match &job.technique {
            None => (TechniqueSpec::original(), None),
            Some(spec) => {
                let timed = self.reorder(spec, job.app.id().reorder_degree())?;
                (spec.clone(), Some(timed.elapsed.as_secs_f64() * 1e3))
            }
        };
        Ok(Report {
            app: job.app.label().to_owned(),
            app_spec: job.app.to_string(),
            dataset: job.dataset.label(),
            dataset_spec: job.dataset.to_string(),
            technique: spec.label(),
            spec: spec.to_string(),
            cycles: stats.cycles(),
            instructions: stats.stats.instructions,
            mpki: stats.stats.mpki(),
            reorder_ms,
            speedup: speedup_ratio(base_stats.cycles() as f64, stats.cycles() as f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::datasets::DatasetId;

    fn tiny() -> Session {
        let mut cfg = SessionConfig::quick();
        cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
        Session::new(cfg)
    }

    fn lj() -> DatasetSpec {
        DatasetSpec::builtin(DatasetId::Lj)
    }

    #[test]
    fn run_statistics_do_not_depend_on_the_thread_count() {
        // Three threads do not divide the default machine's 8 set
        // partitions.
        let stats = |threads| {
            let cfg = SessionConfig::quick();
            let s = Session::with_pool(cfg, TechniqueRegistry::new(), Pool::new(threads));
            let jobs = AppSpec::all()
                .into_iter()
                .map(|app| Job::new(app, DatasetId::Sd));
            jobs.map(|job| s.run(&job).stats).collect::<Vec<_>>()
        };
        let one = stats(1);
        assert_eq!(one.len(), 5);
        assert_eq!(stats(2), one);
        assert_eq!(stats(3), one);
    }

    #[test]
    fn pooled_walls_run_every_app_at_any_pool_size() {
        for threads in [1, 2, 3] {
            // More roots than workers, so SSSP and BC split them.
            let cfg = SessionConfig {
                roots: 5,
                ..SessionConfig::quick()
            };
            let s = Session::with_pool(cfg, TechniqueRegistry::new(), Pool::new(threads));
            for app in AppSpec::all() {
                for technique in [None, Some(TechniqueSpec::dbg())] {
                    let job = Job {
                        app: app.clone(),
                        dataset: DatasetSpec::builtin(DatasetId::Sd),
                        technique,
                    };
                    let first = s.wall(&job);
                    let hits = s.cache_stats().walls.hits;
                    assert_eq!(s.wall(&job), first, "{threads} threads: {job:?}");
                    assert_eq!(s.cache_stats().walls.hits, hits + 1, "repeat must hit");
                }
            }
            assert_eq!(s.cache_stats().walls.misses, 10, "{threads} threads");
        }
    }

    #[test]
    fn caches_are_keyed_by_spec_and_canonicalized() {
        let s = tiny();
        // Parsed and constructed specs hit the same entry.
        let parsed: TechniqueSpec = "rv".parse().unwrap();
        let a = s.dataset_reorder(&lj(), &parsed, DegreeKind::In);
        let b = s.dataset_reorder(
            &"lj".parse().unwrap(),
            &TechniqueSpec::rv(),
            DegreeKind::Out,
        );
        assert!(Arc::ptr_eq(&a, &b), "RV ignores degree kind");
        let c = s.dataset_reorder(&lj(), &TechniqueSpec::dbg(), DegreeKind::In);
        let d = s.dataset_reorder(&lj(), &TechniqueSpec::dbg(), DegreeKind::Out);
        assert!(!Arc::ptr_eq(&c, &d), "DBG is degree-kind sensitive");
    }

    #[test]
    fn reorder_is_cached_and_canonicalized() {
        let s = tiny();
        for name in [
            "sort",
            "dbg",
            "gorder",
            "hubsort-o",
            "rv",
            "rcb:2",
            "gorder+dbg",
        ] {
            let spec: TechniqueSpec = name.parse().unwrap();
            let out = s.dataset_reorder(&lj(), &spec, DegreeKind::Out);
            let again = s.dataset_reorder(&lj(), &spec, DegreeKind::Out);
            assert!(Arc::ptr_eq(&out, &again), "{name}: same key must hit");
            let inn = s.dataset_reorder(&lj(), &spec, DegreeKind::In);
            assert_eq!(
                Arc::ptr_eq(&out, &inn),
                !spec.uses_degree_kind(),
                "{name}: one entry per kind only if the kind matters"
            );
        }
    }

    #[test]
    fn reordered_graph_is_cached_across_runs() {
        let s = tiny();
        let dbg = TechniqueSpec::dbg();
        let a = s.reordered_graph(&lj(), &dbg, DegreeKind::Out);
        let b = s.reordered_graph(&lj(), &dbg, DegreeKind::Out);
        assert!(Arc::ptr_eq(&a, &b), "same key must reuse the CSR");
        // Degree-kind canonicalization applies to the graph cache too.
        let c = s.reordered_graph(&lj(), &TechniqueSpec::rv(), DegreeKind::In);
        let d = s.reordered_graph(&lj(), &TechniqueSpec::rv(), DegreeKind::Out);
        assert!(Arc::ptr_eq(&c, &d), "RV ignores degree kind");
        // And the cached graph matches a fresh sequential apply.
        let timed = s.dataset_reorder(&lj(), &dbg, DegreeKind::Out);
        assert_eq!(*a, s.graph(&lj()).apply_permutation(&timed.permutation));
    }

    #[test]
    fn roots_are_deterministic_and_valid() {
        let s = tiny();
        let sd = DatasetSpec::builtin(DatasetId::Sd);
        let roots = s.roots(&sd, 4);
        assert_eq!(roots, s.roots(&sd, 4));
        assert_eq!(roots.len(), 4);
        let g = s.graph(&sd);
        for &r in &roots {
            assert!(g.out_degree(r) > 0);
        }
    }

    #[test]
    fn roots_never_duplicate_when_count_exceeds_pool() {
        let s = tiny();
        // Far more roots than any 2^10-vertex dataset has candidates:
        // the result must be capped and duplicate-free.
        let roots = s.roots(&lj(), 10_000_000);
        let mut unique = roots.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), roots.len(), "duplicate roots returned");
        assert!(roots.len() <= s.graph(&lj()).num_vertices());
    }

    #[test]
    fn net_speedup_increases_with_traversals() {
        let s = tiny();
        let (app, dbg) = (AppSpec::new(AppId::Sssp), TechniqueSpec::dbg());
        let one = s.net_speedup(&app, &lj(), &dbg, 1);
        let many = s.net_speedup(&app, &lj(), &dbg, 64);
        assert!(many >= one, "amortization should help: {one} vs {many}");
    }

    #[test]
    fn empty_datasets_run_every_app_under_every_ordering() {
        let dir = std::env::temp_dir().join(format!("lgr-session-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.el");
        std::fs::write(&path, "# nothing\n").unwrap();
        let spec: DatasetSpec = format!("file:{}", path.display()).parse().unwrap();
        let s = tiny();
        for app in AppSpec::all() {
            for technique in [None, Some(TechniqueSpec::dbg())] {
                let job = Job {
                    app: app.clone(),
                    dataset: spec.clone(),
                    technique,
                };
                let report = s.report(&job);
                assert_eq!(report.cycles, 0, "{job:?}");
                // Nothing ran either way: no speedup, no slowdown.
                assert_eq!(report.speedup, 1.0, "{job:?}");
            }
            let dbg = TechniqueSpec::dbg();
            assert_eq!(s.speedup(&app, &spec, &dbg), 1.0, "{app}");
            for traversals in [0, 1, 64] {
                let net = s.net_speedup(&app, &spec, &dbg, traversals);
                assert!(net.is_finite(), "{app} x{traversals}: {net}");
            }
        }
        assert!(s.roots(&spec, 4).is_empty(), "an empty graph has no roots");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_sizes_parse_with_optional_suffix() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("4k"), Ok(4 << 10));
        assert_eq!(parse_bytes("4K"), Ok(4 << 10));
        assert_eq!(parse_bytes(" 16m "), Ok(16 << 20));
        assert_eq!(parse_bytes("1G"), Ok(1 << 30));
    }

    /// Inputs that would index out of a short string under a
    /// `&s[..s.len() - 1]` suffix strip are clean errors.
    #[test]
    fn degenerate_byte_sizes_are_errors_not_panics() {
        for bad in ["", "k", "K", "g", "-1k", "9x", "999999999999999999g"] {
            assert!(parse_bytes(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn session_flags_apply_in_any_order() {
        let mut flags = SessionFlags::default();
        let mut args = [
            "--roots",
            "4",
            "-v",
            "--cache-bytes",
            "64k",
            "--quick",
            "fig6",
        ]
        .map(str::to_owned)
        .into_iter();
        let mut names = Vec::new();
        while let Some(arg) = args.next() {
            match flags.parse(&arg, &mut args) {
                Ok(Some(name)) => names.push(name),
                Ok(None) => assert_eq!(arg, "fig6"),
                Err(e) => panic!("{arg}: {e}"),
            }
        }
        assert_eq!(names, ["--roots", "--verbose", "--cache-bytes", "--quick"]);
        assert!(names.iter().all(|n| SessionFlags::NAMES.contains(n)));
        let cfg = flags.config();
        let quick = SessionConfig::quick();
        assert_eq!((cfg.roots, cfg.verbose), (4, true));
        assert_eq!(cfg.cache_bytes, Some(64 << 10));
        assert_eq!(cfg.scale.sd_vertices, quick.scale.sd_vertices);

        for (flag, operand, message) in [
            ("--scale", Some("99"), "--scale needs an exponent in 8..=24"),
            ("--roots", Some("0"), "--roots needs a positive integer"),
            (
                "--sim",
                None,
                "--sim needs a knob list (cores=8,sockets=2,...)",
            ),
            (
                "--cache-bytes",
                Some("0"),
                "--cache-bytes needs a positive size (e.g. 16m, 4096k, 1g)",
            ),
        ] {
            let mut rest = operand.map(str::to_owned).into_iter();
            let err = SessionFlags::default().parse(flag, &mut rest);
            assert_eq!(err, Err(message.to_owned()));
        }
    }

    #[test]
    fn budgeted_sessions_evict_the_same_entries_every_run() {
        // The job list of CI's cache-budget smoke, run in sequence the
        // way `lgr-serve local` runs it: 64 KiB per cache holds fewer
        // graphs than the list touches.
        const JOBS: [(&str, &str, &str); 10] = [
            ("dbg", "pr:iters=2", "kr:sd=8"),
            ("dbg", "pr:iters=2", "kr:sd=9"),
            ("dbg", "pr:iters=2", "kr:sd=10"),
            ("dbg", "pr:iters=2", "uni:sd=8"),
            ("dbg", "pr:iters=2", "uni:sd=9"),
            ("dbg", "pr:iters=2", "uni:sd=10"),
            ("dbg", "pr:iters=2", "kr:sd=8"),
            ("dbg", "pr:iters=2", "uni:sd=9"),
            ("sort", "sssp", "kr:sd=10"),
            ("dbg", "pr:iters=2", "kr:sd=10"),
        ];
        let run = || {
            let mut cfg = SessionConfig::quick();
            cfg.cache_bytes = Some(64 << 10);
            let s = Session::new(cfg);
            for (technique, app, dataset) in JOBS {
                let ds: DatasetSpec = dataset.parse().unwrap();
                let job =
                    Job::new(app.parse().unwrap(), ds).with_technique(technique.parse().unwrap());
                s.try_report(&job).unwrap();
            }
            s.cache_stats()
        };
        let lru = |hits, misses, evictions, resident_bytes, entries| CacheStats {
            hits,
            misses,
            evictions,
            resident_bytes,
            entries,
            budget_bytes: Some(64 << 10),
        };
        let first = run();
        // A job fetches its graph only when it misses a run or the
        // permutation, and then once: jobs 7, 8 and 10 read none.
        // Both graph caches end empty: every graph built is evicted.
        // Only the SSSP job reads roots; its baseline run hits them.
        let expected = SessionCacheStats {
            graphs: lru(0, 7, 7, 0, 0),
            reorders: lru(17, 7, 0, 9496, 7),
            reordered: lru(0, 7, 7, 0, 0),
            roots: lru(1, 1, 0, 2072, 1),
            runs: lru(6, 14, 0, 1344, 14),
            walls: lru(0, 0, 0, 0, 0),
        };
        assert_eq!(first, expected, "{first}");
        assert_eq!(first, run());
    }

    #[test]
    fn dataset_specs_with_different_scales_are_distinct_graphs() {
        let s = tiny();
        let base = s.graph(&lj());
        let scaled = s.graph(&"lj:sd=11".parse().unwrap());
        assert!(scaled.num_vertices() > base.num_vertices());
        let reseeded = s.graph(&"lj:seed=7".parse().unwrap());
        assert_eq!(reseeded.num_vertices(), base.num_vertices());
        assert_ne!(*reseeded, *base, "different seed must differ");
    }

    #[test]
    fn out_of_enum_parameterizations_are_first_class() {
        let s = tiny();
        // `RandomCacheBlock::name` can only say "RCB-n" for three
        // blocks; the spec layer runs rcb:3 and labels it exactly.
        let spec: TechniqueSpec = "rcb:3".parse().unwrap();
        let job = Job::new(AppSpec::new(AppId::Pr), DatasetId::Lj).with_technique(spec.clone());
        let report = s.report(&job);
        assert_eq!(report.technique, "RCB-3");
        assert_eq!(report.spec, "rcb:3");
        assert!(report.cycles > 0);
        assert!(report.reorder_ms.is_some());
    }

    #[test]
    fn report_baseline_speedup_is_one() {
        let s = tiny();
        let r = s.report(&Job::new(AppSpec::new(AppId::Pr), DatasetId::Lj));
        assert_eq!(r.technique, "Original");
        assert_eq!(r.spec, "orig");
        assert_eq!(r.dataset_spec, "lj");
        assert!((r.speedup - 1.0).abs() < 1e-12);
        assert_eq!(r.reorder_ms, None);
        let line = r.to_json();
        assert!(line.contains("\"dataset\":\"lj\""), "{line}");
    }

    #[test]
    fn app_knobs_change_the_run_and_its_cache_key() {
        let s = tiny();
        let short: AppSpec = "pr:iters=1".parse().unwrap();
        let long: AppSpec = "pr:iters=4".parse().unwrap();
        let a = s.run(&Job::new(short, DatasetId::Lj));
        let b = s.run(&Job::new(long, DatasetId::Lj));
        assert!(
            b.stats.instructions > a.stats.instructions,
            "more iterations must execute more instructions"
        );
    }

    #[test]
    fn selection_filters_rosters() {
        let mut cfg = SessionConfig::quick();
        cfg.techniques = Some(vec![TechniqueSpec::dbg(), TechniqueSpec::sort()]);
        cfg.apps = Some(vec![AppSpec::new(AppId::Pr)]);
        cfg.datasets = Some(vec![lj(), DatasetSpec::file("/data/web.el")]);
        let s = Session::new(cfg);
        // main_eval / main_datasets are the selection verbatim.
        let techs = s.main_eval();
        assert_eq!(techs, vec![TechniqueSpec::dbg(), TechniqueSpec::sort()]);
        assert_eq!(
            s.main_datasets(),
            vec![lj(), DatasetSpec::file("/data/web.el")]
        );
        // Fixed rosters intersect with it, keeping roster order.
        assert_eq!(
            s.selected_techniques(&TechniqueSpec::main_eval()),
            vec![TechniqueSpec::sort(), TechniqueSpec::dbg()]
        );
        assert_eq!(s.selected_datasets(&DatasetSpec::skewed()), vec![lj()]);
        assert!(s.selected_datasets(&DatasetSpec::no_skew()).is_empty());
        let apps = s.eval_apps();
        assert_eq!(apps, vec![AppSpec::new(AppId::Pr)]);
        // Rosters outside the selection filter to empty.
        assert!(s.selected_techniques(&[TechniqueSpec::rv()]).is_empty());
        // The `pr` filter also selects knobbed pr rosters.
        let knobbed: AppSpec = "pr:iters=4".parse().unwrap();
        assert_eq!(
            s.selected_apps(std::slice::from_ref(&knobbed)),
            vec![knobbed]
        );
    }

    #[test]
    fn no_selection_defaults_to_paper_rosters() {
        let s = tiny();
        assert_eq!(s.main_datasets(), DatasetSpec::skewed());
        assert_eq!(
            s.selected_datasets(&DatasetSpec::no_skew()),
            DatasetSpec::no_skew()
        );
    }

    #[test]
    fn knobbed_app_selection_overrides_the_roster() {
        let mut cfg = SessionConfig::quick();
        let knobbed: AppSpec = "pr:iters=10".parse().unwrap();
        cfg.apps = Some(vec![knobbed.clone()]);
        let s = Session::new(cfg);
        // A bare `pr` roster entry picks up the selection's knobs...
        assert_eq!(s.eval_apps(), vec![knobbed]);
        // ...while a bare selection leaves roster knobs untouched.
        let mut cfg = SessionConfig::quick();
        cfg.apps = Some(vec![AppSpec::new(AppId::Pr)]);
        let s = Session::new(cfg);
        let roster: AppSpec = "pr:iters=7".parse().unwrap();
        assert_eq!(s.selected_apps(std::slice::from_ref(&roster)), vec![roster]);
    }

    #[test]
    fn composition_runs_through_the_session() {
        let s = tiny();
        let spec: TechniqueSpec = "sort+dbg".parse().unwrap();
        let timed = s.dataset_reorder(&lj(), &spec, DegreeKind::Out);
        assert_eq!(timed.permutation.len(), s.graph(&lj()).num_vertices());
        let speedup = s.speedup(&AppSpec::new(AppId::Pr), &lj(), &spec);
        assert!(speedup > 0.1 && speedup < 10.0);
    }

    #[test]
    fn file_datasets_run_the_full_pipeline() {
        let dir = std::env::temp_dir().join(format!("lgr-session-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.el");
        let mut text = String::from("# tiny community graph\n");
        for i in 0u32..120 {
            text.push_str(&format!("{} {}\n", i % 40, (i * 7 + 1) % 40));
        }
        std::fs::write(&path, text).unwrap();
        let s = tiny();
        let spec: DatasetSpec = format!("file:{}", path.display()).parse().unwrap();
        let g = s.try_graph(&spec).unwrap();
        assert_eq!(g.num_vertices(), 40);
        assert!(g.is_weighted(), "weights attached for SSSP");
        // Full job pipeline: reorder + analytics + cachesim.
        let report = s.report(
            &Job::new(AppSpec::new(AppId::Pr), spec.clone()).with_technique(TechniqueSpec::dbg()),
        );
        assert_eq!(report.dataset, "tiny");
        assert!(report.cycles > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_datasets_error_without_panicking() {
        let s = tiny();
        let spec: DatasetSpec = "file:/nonexistent/missing.el".parse().unwrap();
        assert!(matches!(s.try_graph(&spec), Err(DatasetError::Load { .. })));
    }

    #[test]
    fn a_failed_job_caches_nothing_and_its_session_recovers() {
        let dir = std::env::temp_dir().join(format!("lgr-session-late-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.el");
        let spec: DatasetSpec = format!("file:{}", path.display()).parse().unwrap();
        let job = Job::new(AppSpec::new(AppId::Pr), spec).with_technique(TechniqueSpec::dbg());
        let s = tiny();
        assert!(matches!(s.try_report(&job), Err(DatasetError::Load { .. })));
        let slots = [
            s.graphs.tracked_slots(),
            s.reorders.tracked_slots(),
            s.reordered.tracked_slots(),
            s.root_candidates.tracked_slots(),
            s.runs.tracked_slots(),
            s.walls.tracked_slots(),
        ];
        assert_eq!(slots, [0; 6], "an abandoned build leaves no slot");
        for (name, stats) in s.cache_stats().named() {
            assert_eq!(stats.entries, 0, "{name}");
        }
        // The error was not cached: once the file exists, the same
        // session reports the job.
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let report = s.try_report(&job).unwrap();
        assert_eq!(
            (report.dataset.as_str(), report.technique.as_str()),
            ("late", "DBG")
        );
        assert!(report.cycles > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_call_per_accessor_moves_the_pinned_counters() {
        let s = tiny();
        let (pr, dbg) = (AppSpec::new(AppId::Pr), TechniqueSpec::dbg());
        let job = Job::new(pr.clone(), lj()).with_technique(dbg.clone());
        s.dataset_reorder(&lj(), &dbg, DegreeKind::Out);
        s.reordered_graph(&lj(), &dbg, DegreeKind::Out);
        s.roots(&lj(), 4);
        s.run(&job);
        s.wall(&job);
        s.report(&job);
        s.speedup(&pr, &lj(), &dbg);
        let unbounded = |hits, misses, resident_bytes, entries| CacheStats {
            hits,
            misses,
            evictions: 0,
            resident_bytes,
            entries,
            budget_bytes: None,
        };
        let stats = s.cache_stats();
        // Each build reads the graph once, first; a prepared run then
        // looks up the permutation and the relabelled graph, and no
        // roots, which PR does not read: the one `roots` lookup is the
        // direct call. The report's baseline run is the second `runs`
        // miss.
        let expected = SessionCacheStats {
            graphs: unbounded(5, 1, 15584, 1),
            reorders: unbounded(4, 1, 296, 1),
            reordered: unbounded(2, 1, 15584, 1),
            roots: unbounded(0, 1, 280, 1),
            runs: unbounded(3, 2, 192, 2),
            walls: unbounded(0, 1, 16, 1),
        };
        assert_eq!(stats, expected, "{stats}");
    }

    #[test]
    fn editing_a_file_dataset_invalidates_the_cache() {
        let dir = std::env::temp_dir().join(format!("lgr-session-stale-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let el = dir.join("g.el");
        std::fs::write(&el, "0 1\n1 2\n2 0\n").unwrap();
        let mut cfg = SessionConfig::quick();
        cfg.dataset_cache = Some(dir.join("cache"));
        let spec: DatasetSpec = format!("file:{}", el.display()).parse().unwrap();
        let first = Session::new(cfg.clone())
            .try_graph(&spec)
            .unwrap()
            .num_edges();
        // Regenerate the source with different content (length change
        // alone must miss the cache — mtime granularity is coarse).
        std::fs::write(&el, "0 1\n1 2\n2 0\n0 2\n2 1\n").unwrap();
        let second = Session::new(cfg).try_graph(&spec).unwrap().num_edges();
        assert_eq!(first, 3);
        assert_eq!(second, 5, "edited file must not be served stale");
        assert_eq!(
            std::fs::read_dir(dir.join("cache")).unwrap().count(),
            2,
            "two distinct cache entries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_cache_round_trips_identically() {
        let dir = std::env::temp_dir().join(format!("lgr-session-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = SessionConfig::quick();
        cfg.scale = DatasetScale::with_sd_vertices(1 << 10);
        cfg.dataset_cache = Some(dir.clone());
        // First session builds and persists...
        let first = Session::new(cfg.clone());
        let built = first.try_graph(&lj()).unwrap();
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 1, "one .lgr entry stored");
        // ...second session reloads the identical graph from disk.
        let second = Session::new(cfg);
        let loaded = second.try_graph(&lj()).unwrap();
        assert_eq!(*loaded, *built, "cache reload must be exact");
        std::fs::remove_dir_all(&dir).ok();
    }
}
