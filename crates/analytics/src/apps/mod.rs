//! The five graph applications of the paper's Table VII.
//!
//! Every application is generic over a [`lgr_cachesim::Tracer`] and
//! charges the simulator with the same access stream the algorithm
//! performs: streaming reads of the CSR vertex/edge arrays plus the
//! irregular property-array accesses whose locality reordering
//! manipulates. Instruction counts are charged alongside so MPKI is
//! meaningful.

pub mod bc;
pub mod pagerank;
pub mod pagerank_delta;
pub mod radii;
pub mod sssp;

pub use bc::{bc, BcConfig, BcResult};
pub use pagerank::{pagerank, pagerank_pooled, PrConfig, PrResult};
pub use pagerank_delta::{pagerank_delta, PrdConfig, PrdResult};
pub use radii::{radii, RadiiConfig, RadiiResult};
pub use sssp::{sssp, SsspConfig, SsspResult};

use lgr_graph::DegreeKind;

/// Identifier for one of the five evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Betweenness Centrality (pull-push BFS kernel).
    Bc,
    /// Single-Source Shortest Path, Bellman–Ford (push-only).
    Sssp,
    /// PageRank (pull-only).
    Pr,
    /// PageRank-Delta (push-only).
    Prd,
    /// Radii estimation via multi-source BFS (pull-push).
    Radii,
}

impl AppId {
    /// The five applications in the paper's display order.
    pub const ALL: [AppId; 5] = [AppId::Bc, AppId::Sssp, AppId::Pr, AppId::Prd, AppId::Radii];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Bc => "BC",
            AppId::Sssp => "SSSP",
            AppId::Pr => "PR",
            AppId::Prd => "PRD",
            AppId::Radii => "Radii",
        }
    }

    /// Which degree the reordering techniques should use for this
    /// application (paper Table VIII): out-degree for pull-dominated
    /// apps, in-degree for push-dominated ones.
    pub fn reorder_degree(self) -> DegreeKind {
        match self {
            AppId::Bc | AppId::Pr | AppId::Radii => DegreeKind::Out,
            AppId::Sssp | AppId::Prd => DegreeKind::In,
        }
    }

    /// `true` for the push-dominated applications analyzed in Fig. 9.
    pub fn is_push_dominated(self) -> bool {
        matches!(self, AppId::Sssp | AppId::Prd)
    }

    /// Looks an application up by display name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AppId> {
        AppId::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_viii_degree_kinds() {
        assert_eq!(AppId::Bc.reorder_degree(), DegreeKind::Out);
        assert_eq!(AppId::Sssp.reorder_degree(), DegreeKind::In);
        assert_eq!(AppId::Pr.reorder_degree(), DegreeKind::Out);
        assert_eq!(AppId::Prd.reorder_degree(), DegreeKind::In);
        assert_eq!(AppId::Radii.reorder_degree(), DegreeKind::Out);
    }

    #[test]
    fn push_classification() {
        assert!(AppId::Sssp.is_push_dominated());
        assert!(AppId::Prd.is_push_dominated());
        assert!(!AppId::Pr.is_push_dominated());
    }

    #[test]
    fn names_round_trip() {
        for a in AppId::ALL {
            assert_eq!(AppId::from_name(a.name()), Some(a));
        }
        assert_eq!(AppId::from_name("pr"), Some(AppId::Pr));
        assert_eq!(AppId::from_name("nope"), None);
    }
}
