//! Scaled-down analogues of the paper's evaluation datasets (Tables IX
//! and X).
//!
//! The paper evaluates on eight skewed graphs — four whose original
//! vertex ordering has no locality ("unstructured": kr, pl, tw, sd) and
//! four whose ordering captures community structure ("structured": lj,
//! wl, fr, mp) — plus two no-skew graphs (uni, road). Each analogue
//! preserves the *relative* vertex count, average degree, structure
//! class, and skew level of its original; absolute sizes scale with
//! [`DatasetScale`] so experiments run on a laptop. The simulated
//! machine does not scale with them: `lgr_cachesim::SimConfig`'s
//! default geometry is fixed, so the hot footprint : LLC ratio comes
//! near the paper's regime only around the default scale (2^17 `sd`
//! vertices) and falls far below it at smaller scales.

use crate::gen::{community, rmat, road_grid, CommunityConfig, RmatConfig, RoadConfig};
use crate::EdgeList;

/// Identifier of one of the paper's datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// Kron: synthetic Graph500-style Kronecker graph, unstructured.
    Kr,
    /// PLD: pay-level-domain web graph, unstructured ordering.
    Pl,
    /// Twitter (Kwak et al.), unstructured ordering.
    Tw,
    /// SD: subdomain web graph, the largest dataset, unstructured.
    Sd,
    /// LiveJournal social network, structured ordering.
    Lj,
    /// WikiLinks, structured ordering.
    Wl,
    /// Friendster social network, structured ordering.
    Fr,
    /// MPI Twitter crawl, structured ordering.
    Mp,
    /// Uniform R-MAT: no skew (Table X).
    Uni,
    /// USA road network analogue: no skew, tiny degree (Table X).
    Road,
}

impl DatasetId {
    /// The eight skewed datasets of Table IX, in paper order.
    pub const SKEWED: [DatasetId; 8] = [
        DatasetId::Kr,
        DatasetId::Pl,
        DatasetId::Tw,
        DatasetId::Sd,
        DatasetId::Lj,
        DatasetId::Wl,
        DatasetId::Fr,
        DatasetId::Mp,
    ];

    /// The four datasets whose original ordering has no locality.
    pub const UNSTRUCTURED: [DatasetId; 4] =
        [DatasetId::Kr, DatasetId::Pl, DatasetId::Tw, DatasetId::Sd];

    /// The four datasets with community structure in their ordering.
    pub const STRUCTURED: [DatasetId; 4] =
        [DatasetId::Lj, DatasetId::Wl, DatasetId::Fr, DatasetId::Mp];

    /// The two no-skew datasets of Table X.
    pub const NO_SKEW: [DatasetId; 2] = [DatasetId::Uni, DatasetId::Road];

    /// All ten datasets.
    pub const ALL: [DatasetId; 10] = [
        DatasetId::Kr,
        DatasetId::Pl,
        DatasetId::Tw,
        DatasetId::Sd,
        DatasetId::Lj,
        DatasetId::Wl,
        DatasetId::Fr,
        DatasetId::Mp,
        DatasetId::Uni,
        DatasetId::Road,
    ];

    /// The paper's short name (kr, pl, ...).
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Kr => "kr",
            DatasetId::Pl => "pl",
            DatasetId::Tw => "tw",
            DatasetId::Sd => "sd",
            DatasetId::Lj => "lj",
            DatasetId::Wl => "wl",
            DatasetId::Fr => "fr",
            DatasetId::Mp => "mp",
            DatasetId::Uni => "uni",
            DatasetId::Road => "road",
        }
    }

    /// `true` for the four datasets whose original ordering carries
    /// community locality (the paper's empirical label from Fig. 3).
    pub fn is_structured(self) -> bool {
        matches!(
            self,
            DatasetId::Lj | DatasetId::Wl | DatasetId::Fr | DatasetId::Mp
        )
    }

    /// `true` for the skewed (power-law) datasets.
    pub fn is_skewed(self) -> bool {
        !matches!(self, DatasetId::Uni | DatasetId::Road)
    }

    /// Looks a dataset up by its paper short name (case-insensitive),
    /// accepting the long-form aliases (`kron` for `kr`, `uniform` for
    /// `uni`) so CLI dataset specs and this lookup agree on one name
    /// set.
    pub fn from_name(name: &str) -> Option<DatasetId> {
        let lower = name.to_ascii_lowercase();
        let canonical = match lower.as_str() {
            "kron" => "kr",
            "uniform" => "uni",
            other => other,
        };
        DatasetId::ALL
            .iter()
            .copied()
            .find(|d| d.name() == canonical)
    }

    /// Vertex count relative to `sd` (Table IX: sd has 95M vertices,
    /// lj 5M, ...).
    fn vertex_ratio(self) -> f64 {
        match self {
            DatasetId::Kr => 0.70,
            DatasetId::Pl => 0.45,
            DatasetId::Tw => 0.65,
            DatasetId::Sd => 1.00,
            DatasetId::Lj => 0.05,
            DatasetId::Wl => 0.19,
            DatasetId::Fr => 0.67,
            DatasetId::Mp => 0.56,
            DatasetId::Uni => 0.53,
            DatasetId::Road => 0.25,
        }
    }

    /// Average degree from Table IX / X.
    pub fn avg_degree(self) -> f64 {
        match self {
            DatasetId::Kr => 20.0,
            DatasetId::Pl => 15.0,
            DatasetId::Tw => 24.0,
            DatasetId::Sd => 20.0,
            DatasetId::Lj => 14.0,
            DatasetId::Wl => 9.0,
            DatasetId::Fr => 33.0,
            DatasetId::Mp => 37.0,
            DatasetId::Uni => 20.0,
            DatasetId::Road => 1.2,
        }
    }

    /// Skew targets for the community-generated datasets:
    /// `(hub_fraction, hub_mass)` tuned to Table I's per-dataset
    /// hot-vertex fraction and edge coverage.
    fn hub_targets(self) -> (f64, f64) {
        match self {
            DatasetId::Pl => (0.15, 0.86), // paper: 13-16% hot, 83-88% edges
            DatasetId::Tw => (0.11, 0.83), // paper: 10-12% hot, 83-84%
            DatasetId::Sd => (0.12, 0.88), // paper: 11-13% hot, 88%
            DatasetId::Lj => (0.26, 0.81), // paper: 25-26% hot, 81-82%
            DatasetId::Wl => (0.17, 0.91), // paper: 12-20% hot, 88-94%
            DatasetId::Fr => (0.21, 0.89), // paper: 18-24% hot, 86-92%
            DatasetId::Mp => (0.11, 0.80), // paper: 10-12% hot, 80-81%
            // R-MAT / road datasets don't use the community generator.
            _ => (0.13, 0.85),
        }
    }

    /// How much of the community-contiguous layout is destroyed for
    /// the dataset's *original* ordering. The paper's "unstructured"
    /// real graphs (pl/tw/sd) still retain partial crawl-order
    /// locality (RCB-1 slows them 9.6%+ in Fig. 3), so they scramble
    /// most but not all vertices; structured datasets keep the layout.
    fn scramble_fraction(self) -> f64 {
        match self {
            DatasetId::Pl | DatasetId::Tw | DatasetId::Sd => 0.7,
            _ => 0.0,
        }
    }
}

/// Global scale knob for the dataset suite.
///
/// `sd_vertices` is the vertex count of the largest dataset (`sd`);
/// every other dataset keeps its Table IX ratio to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetScale {
    /// Vertex count of the `sd` dataset; others scale by their ratio.
    pub sd_vertices: usize,
    /// Base RNG seed; each dataset derives its own stream from it.
    pub seed: u64,
}

impl DatasetScale {
    /// A scale suitable for unit tests (sd = 2^13 vertices).
    pub fn tiny() -> Self {
        Self::with_sd_vertices(1 << 13)
    }

    /// A scale with `sd_vertices` vertices for the largest dataset
    /// and the base seed 42.
    pub fn with_sd_vertices(sd_vertices: usize) -> Self {
        DatasetScale {
            sd_vertices,
            seed: 42,
        }
    }

    /// Vertex count for `id` at this scale (minimum 64).
    pub fn vertices(self, id: DatasetId) -> usize {
        ((self.sd_vertices as f64 * id.vertex_ratio()) as usize).max(64)
    }
}

/// Builds the edge list for dataset `id` at scale `scale`.
///
/// Unstructured analogues (kr via R-MAT; pl/tw/sd via the scrambled
/// community generator) have no ordering locality; structured analogues
/// (lj/wl/fr/mp) keep community-contiguous IDs.
pub fn build(id: DatasetId, scale: DatasetScale) -> EdgeList {
    let n = scale.vertices(id);
    let seed = scale.seed ^ (id as u64).wrapping_mul(0x0100_0000_01b3);
    match id {
        DatasetId::Kr => {
            // R-MAT wants a power-of-two vertex count. Graph500-style
            // Kronecker generation randomizes vertex labels afterwards,
            // which is why the paper's kr has both no ordering
            // structure AND scattered hot vertices (Table II: 1.3 hot
            // vertices per block, the lowest of all datasets).
            let log2 = (n as f64).log2().round() as u32;
            let el = rmat(RmatConfig::new(log2, id.avg_degree() as usize).with_seed(seed));
            crate::gen::scramble_ids(&el, seed ^ 0x6b72)
        }
        DatasetId::Uni => {
            let log2 = (n as f64).log2().round() as u32;
            rmat(RmatConfig::uniform(log2, id.avg_degree() as usize).with_seed(seed))
        }
        DatasetId::Road => {
            let side = (n as f64).sqrt().round() as usize;
            road_grid(RoadConfig::new(side, side).with_seed(seed))
        }
        _ => {
            let (hub_fraction, hub_mass) = id.hub_targets();
            let cfg = CommunityConfig::new(n, id.avg_degree())
                .with_seed(seed)
                .with_hubs(hub_fraction, hub_mass);
            let el = community(cfg);
            let frac = id.scramble_fraction();
            if frac > 0.0 {
                crate::gen::partial_scramble_ids(&el, frac, seed ^ 0x5eed)
            } else {
                el
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SkewStats;

    #[test]
    fn names_round_trip() {
        for id in DatasetId::ALL {
            assert_eq!(DatasetId::from_name(id.name()), Some(id));
        }
        assert_eq!(DatasetId::from_name("nope"), None);
        // Long-form aliases and case-folding resolve too.
        assert_eq!(DatasetId::from_name("kron"), Some(DatasetId::Kr));
        assert_eq!(DatasetId::from_name("uniform"), Some(DatasetId::Uni));
        assert_eq!(DatasetId::from_name("SD"), Some(DatasetId::Sd));
    }

    #[test]
    fn classification_is_consistent() {
        for id in DatasetId::STRUCTURED {
            assert!(id.is_structured() && id.is_skewed());
        }
        for id in DatasetId::UNSTRUCTURED {
            assert!(!id.is_structured() && id.is_skewed());
        }
        for id in DatasetId::NO_SKEW {
            assert!(!id.is_skewed());
        }
    }

    #[test]
    fn scale_ratios_follow_table_ix() {
        let s = DatasetScale::with_sd_vertices(100_000);
        assert_eq!(s.vertices(DatasetId::Sd), 100_000);
        assert_eq!(s.vertices(DatasetId::Lj), 5_000);
        assert!(s.vertices(DatasetId::Kr) > s.vertices(DatasetId::Pl));
    }

    #[test]
    fn skewed_datasets_are_skewed_no_skew_are_not() {
        let scale = DatasetScale::tiny();
        for id in [DatasetId::Sd, DatasetId::Mp] {
            let el = build(id, scale);
            let s = SkewStats::from_degrees(&el.out_degrees());
            assert!(
                s.hot_vertex_fraction < 0.35,
                "{}: hot fraction {}",
                id.name(),
                s.hot_vertex_fraction
            );
            assert!(
                s.edge_coverage > 0.5,
                "{}: edge coverage {}",
                id.name(),
                s.edge_coverage
            );
        }
        let uni = build(DatasetId::Uni, scale);
        let s = SkewStats::from_degrees(&uni.out_degrees());
        assert!(
            s.hot_vertex_fraction > 0.3,
            "uni skewed: {}",
            s.hot_vertex_fraction
        );
    }

    #[test]
    fn structured_datasets_have_local_edges_unstructured_do_not() {
        let scale = DatasetScale::tiny();
        let window = 512i64;
        let locality = |el: &EdgeList| {
            el.edges()
                .iter()
                .filter(|&&(u, v)| (u as i64 - v as i64).abs() < window)
                .count() as f64
                / el.num_edges() as f64
        };
        let lj = build(DatasetId::Lj, scale);
        let sd = build(DatasetId::Sd, scale);
        // lj is 20x smaller so window locality numbers aren't directly
        // comparable, but structured should clearly dominate.
        assert!(
            locality(&lj) > 2.0 * locality(&sd),
            "lj {} vs sd {}",
            locality(&lj),
            locality(&sd)
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let scale = DatasetScale::tiny();
        assert_eq!(build(DatasetId::Tw, scale), build(DatasetId::Tw, scale));
    }

    #[test]
    fn road_has_tiny_degree() {
        let el = build(DatasetId::Road, DatasetScale::tiny());
        let avg = el.num_edges() as f64 / el.num_vertices() as f64;
        assert!(avg < 2.0, "road average degree {avg}");
    }
}
