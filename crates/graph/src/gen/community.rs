//! Power-law graphs with planted community structure.
//!
//! This generator is the stand-in for the paper's real-world datasets.
//! Real social/web graphs combine two properties the paper's analysis
//! hinges on (Sec. II-A):
//!
//! 1. **Power-law degree skew** — a few hot vertices own most edges.
//! 2. **Community structure captured by the vertex ordering** — vertices
//!    of the same community sit at nearby IDs, so the original ordering
//!    already has spatio-temporal locality.
//!
//! The generator plants contiguous communities in the ID space, draws
//! Pareto-distributed out-degrees and vertex attractiveness, and routes
//! each edge inside its source's community with probability
//! [`CommunityConfig::intra_prob`] (degree-weighted endpoint choice in
//! both cases). Setting [`CommunityConfig::scrambled`] relabels the
//! result with a random permutation, producing a graph with identical
//! topology but no ordering locality — the "unstructured real-world"
//! analogue (pl/tw/sd).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{scramble_ids, AliasTable};
use crate::{EdgeList, VertexId};

/// Configuration for the community power-law generator.
///
/// # Example
///
/// ```
/// use lgr_graph::gen::{community, CommunityConfig};
///
/// let el = community(CommunityConfig::new(1 << 10, 8.0).with_seed(1));
/// assert_eq!(el.num_vertices(), 1 << 10);
/// let avg = el.num_edges() as f64 / el.num_vertices() as f64;
/// assert!((avg - 8.0).abs() < 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target average out-degree.
    pub avg_degree: f64,
    /// Pareto shape `alpha` of the *hub tail*. Controls how fast hub
    /// counts fall off as degree doubles (paper Table IV shows roughly
    /// halving per doubling, i.e. `alpha ~ 1`).
    pub degree_exponent: f64,
    /// Fraction of vertices drawn from the hub tail. Sets the
    /// hot-vertex fraction (paper Table I: 9%–26%).
    pub hub_fraction: f64,
    /// Fraction of total edge endpoints owned by the hub tail. Sets
    /// the hot edge coverage (paper Table I: 80%–94%).
    pub hub_mass: f64,
    /// Hard cap on any single out-degree, as a fraction of V.
    pub max_degree_frac: f64,
    /// Mean community size in vertices.
    pub avg_community_size: usize,
    /// Probability an edge's destination is drawn from the source's own
    /// community (vs. the whole graph).
    pub intra_prob: f64,
    /// If `true`, randomly relabels vertex IDs after generation,
    /// removing ordering locality while keeping topology.
    pub scrambled: bool,
    /// RNG seed.
    pub seed: u64,
}

impl CommunityConfig {
    /// Defaults modeled on the paper's structured datasets: ~13% of
    /// vertices own ~85% of edges, communities of ~256 vertices, 80%
    /// intra-community edges, community-contiguous ordering.
    pub fn new(num_vertices: usize, avg_degree: f64) -> Self {
        CommunityConfig {
            num_vertices,
            avg_degree,
            degree_exponent: 1.1,
            hub_fraction: 0.13,
            hub_mass: 0.85,
            max_degree_frac: 0.05,
            avg_community_size: 256,
            intra_prob: 0.8,
            scrambled: false,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the skew targets: `fraction` of vertices forming the hub
    /// tail, owning `mass` of all edge endpoints.
    ///
    /// # Panics
    ///
    /// Panics unless both are in `(0, 1)`.
    pub fn with_hubs(mut self, fraction: f64, mass: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction) && fraction > 0.0);
        assert!((0.0..1.0).contains(&mass) && mass > 0.0);
        self.hub_fraction = fraction;
        self.hub_mass = mass;
        self
    }

    /// Requests a scrambled (unstructured) ID assignment.
    pub fn scrambled(mut self) -> Self {
        self.scrambled = true;
        self
    }
}

/// Generates a community power-law graph. See the module docs.
pub fn community(cfg: CommunityConfig) -> EdgeList {
    assert!(cfg.num_vertices > 0, "graph must have at least one vertex");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.num_vertices;

    let bounds = community_bounds(n, cfg.avg_community_size, &mut rng);
    let attract = mixture_weights(
        n,
        cfg.hub_fraction,
        cfg.hub_mass,
        cfg.degree_exponent,
        &mut rng,
    );
    // Cap hub degrees at a fraction of V, but never below 32x the
    // average: small test graphs must still have genuine hubs.
    let cap = (cfg.max_degree_frac * n as f64)
        .max(32.0 * cfg.avg_degree)
        .min((n - 1) as f64)
        .max(4.0) as u32;
    let degrees = scaled_degrees(&attract, cfg.avg_degree, cap, &mut rng);

    // Global and per-community degree-weighted endpoint samplers.
    let global = AliasTable::new(&attract).expect("attractiveness weights are positive");
    let locals: Vec<(usize, AliasTable)> = bounds
        .windows(2)
        .map(|w| {
            let (start, end) = (w[0], w[1]);
            let t = AliasTable::new(&attract[start..end]).expect("community weights are positive");
            (start, t)
        })
        .collect();
    // community_of[v] = index into `locals`.
    let mut community_of = vec![0u32; n];
    for (ci, w) in bounds.windows(2).enumerate() {
        community_of[w[0]..w[1]].fill(ci as u32);
    }

    let total_edges: usize = degrees.iter().map(|&d| d as usize).sum();
    let mut el = EdgeList::with_capacity(n, total_edges);
    for u in 0..n {
        let ci = community_of[u] as usize;
        let (start, local) = &locals[ci];
        for _ in 0..degrees[u] {
            let dst = if rng.gen::<f64>() < cfg.intra_prob {
                (start + local.sample(&mut rng)) as VertexId
            } else {
                global.sample(&mut rng) as VertexId
            };
            // Avoid self-loops with a single retry; a rare residual
            // self-loop is harmless (real crawls contain them too).
            let dst = if dst as usize == u {
                global.sample(&mut rng) as VertexId
            } else {
                dst
            };
            el.push(u as VertexId, dst);
        }
    }

    if cfg.scrambled {
        // Derive a distinct seed so scrambling is independent of edge
        // sampling but still reproducible.
        scramble_ids(&el, cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1))
    } else {
        el
    }
}

/// Contiguous community boundaries covering `0..n`:
/// `[0, b1, b2, ..., n]`. Sizes are drawn from a shifted geometric-ish
/// power mixture around `avg_size` (real community sizes are heavy
/// tailed).
fn community_bounds(n: usize, avg_size: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut bounds = vec![0usize];
    let mut pos = 0usize;
    let avg = avg_size.max(1) as f64;
    while pos < n {
        // Pareto(shape 1.5) scaled to mean ~avg, clamped to [avg/8, avg*16].
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let raw = avg / 3.0 * u.powf(-1.0 / 1.5);
        let size = raw.clamp(avg / 8.0, avg * 16.0).round() as usize;
        pos = (pos + size.max(1)).min(n);
        bounds.push(pos);
    }
    bounds
}

/// Body+tail degree/attractiveness weights.
///
/// A `hub_fraction` of vertices draw from a Pareto(`alpha`) tail, the
/// rest from an exponential body; the tail is rescaled so it owns
/// exactly `hub_mass` of the total weight. This is what lets the
/// generator hit the paper's Table I simultaneously on both axes
/// (few hot vertices AND high edge coverage), which no single-family
/// distribution can.
fn mixture_weights(
    n: usize,
    hub_fraction: f64,
    hub_mass: f64,
    alpha: f64,
    rng: &mut SmallRng,
) -> Vec<f64> {
    let mut weights = vec![0.0f64; n];
    let mut tail_idx: Vec<usize> = Vec::new();
    let mut body_sum = 0.0f64;
    let mut tail_sum = 0.0f64;
    for (v, w) in weights.iter_mut().enumerate() {
        if rng.gen::<f64>() < hub_fraction {
            // Pareto(alpha, xm = 1), softly capped to keep the empirical
            // mean stable at small n.
            let u: f64 = rng.gen::<f64>().max(1e-9);
            let x = u.powf(-1.0 / alpha).min(n as f64);
            *w = x;
            tail_sum += x;
            tail_idx.push(v);
        } else {
            // Exponential body, mean 1 (plus a floor so no vertex has
            // literally zero attractiveness).
            let u: f64 = rng.gen::<f64>().max(1e-12);
            let x = (-u.ln()).max(0.05);
            *w = x;
            body_sum += x;
        }
    }
    if tail_idx.is_empty() || body_sum == 0.0 {
        return weights;
    }
    // Rescale the tail so tail_mass / total_mass == hub_mass.
    let target_tail = hub_mass / (1.0 - hub_mass) * body_sum;
    let scale = target_tail / tail_sum;
    for &v in &tail_idx {
        weights[v] *= scale;
    }
    weights
}

/// Scales raw weights into integer out-degrees with mean `avg_degree`,
/// capped at `max_degree`, using probabilistic rounding so the mean is
/// preserved in expectation.
fn scaled_degrees(
    weights: &[f64],
    avg_degree: f64,
    max_degree: u32,
    rng: &mut SmallRng,
) -> Vec<u32> {
    let mean_w: f64 = weights.iter().sum::<f64>() / weights.len() as f64;
    let mut scale = avg_degree / mean_w;
    // The degree cap truncates hub mass; iterate the scale so the
    // post-cap mean still hits the target.
    for _ in 0..6 {
        let capped_mean: f64 = weights
            .iter()
            .map(|&w| (w * scale).min(max_degree as f64))
            .sum::<f64>()
            / weights.len() as f64;
        if capped_mean <= 0.0 {
            break;
        }
        scale *= avg_degree / capped_mean;
    }
    weights
        .iter()
        .map(|&w| {
            let x = (w * scale).min(max_degree as f64);
            let base = x.floor();
            let frac = x - base;

            base as u32 + u32::from(rng.gen::<f64>() < frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::average_degree;

    fn skew_of(el: &EdgeList) -> (f64, f64) {
        let degrees = el.out_degrees();
        let avg = average_degree(&degrees);
        let hot: Vec<usize> = degrees
            .iter()
            .enumerate()
            .filter(|(_, &d)| d as f64 >= avg)
            .map(|(i, _)| i)
            .collect();
        let hot_frac = hot.len() as f64 / degrees.len() as f64;
        let hot_edges: u64 = hot.iter().map(|&v| degrees[v] as u64).sum();
        (hot_frac, hot_edges as f64 / el.num_edges() as f64)
    }

    #[test]
    fn hits_target_average_degree() {
        let el = community(CommunityConfig::new(1 << 12, 10.0).with_seed(3));
        let avg = el.num_edges() as f64 / el.num_vertices() as f64;
        assert!(
            (avg - 10.0).abs() < 1.0,
            "average degree {avg} too far from 10"
        );
    }

    #[test]
    fn is_skewed_like_the_paper() {
        // Paper Table I: 9-26% hot vertices covering 80-94% of edges.
        let el = community(CommunityConfig::new(1 << 13, 16.0).with_seed(4));
        let (hot_frac, edge_cov) = skew_of(&el);
        assert!(hot_frac < 0.35, "hot fraction {hot_frac} too high");
        assert!(edge_cov > 0.55, "edge coverage {edge_cov} too low");
    }

    #[test]
    fn structured_ordering_has_local_edges() {
        // Most edges should connect nearby IDs when not scrambled.
        let cfg = CommunityConfig::new(1 << 12, 8.0).with_seed(5);
        let el = community(cfg);
        let local = el
            .edges()
            .iter()
            .filter(|&&(u, v)| (u as i64 - v as i64).unsigned_abs() < 2 * 256)
            .count() as f64
            / el.num_edges() as f64;
        assert!(local > 0.5, "only {local} of edges are ID-local");

        // Scrambling the same topology destroys that locality.
        let els = community(cfg.scrambled());
        let local_s = els
            .edges()
            .iter()
            .filter(|&&(u, v)| (u as i64 - v as i64).unsigned_abs() < 2 * 256)
            .count() as f64
            / els.num_edges() as f64;
        assert!(
            local_s < local / 2.0,
            "scrambled locality {local_s} vs {local}"
        );
    }

    #[test]
    fn scrambling_preserves_degree_multiset() {
        let cfg = CommunityConfig::new(1 << 10, 6.0).with_seed(6);
        let a = community(cfg);
        let b = community(cfg.scrambled());
        let mut da = a.out_degrees();
        let mut db = b.out_degrees();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = CommunityConfig::new(1 << 9, 4.0).with_seed(8);
        assert_eq!(community(cfg), community(cfg));
        assert_ne!(community(cfg), community(cfg.with_seed(9)));
    }

    #[test]
    fn community_bounds_cover_everything() {
        let mut rng = SmallRng::seed_from_u64(1);
        let b = community_bounds(10_000, 100, &mut rng);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 10_000);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // Mean size in the right ballpark.
        let mean = 10_000.0 / (b.len() - 1) as f64;
        assert!(mean > 20.0 && mean < 500.0, "mean community size {mean}");
    }

    #[test]
    fn max_degree_cap_is_respected() {
        let cfg = CommunityConfig {
            max_degree_frac: 0.001,
            ..CommunityConfig::new(1 << 12, 8.0).with_seed(10)
        };
        let el = community(cfg);
        // The cap floor is 32x the average degree.
        let cap = (0.001f64 * (1 << 12) as f64).max(32.0 * 8.0) as u32;
        assert!(el.out_degrees().iter().all(|&d| d <= cap));
    }
}
