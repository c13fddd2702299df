//! Graph substrate for the lightweight-graph-reordering study.
//!
//! This crate provides everything the reordering techniques and the
//! analytics engine need from a graph library:
//!
//! * [`EdgeList`] — a mutable, order-preserving edge list with optional
//!   per-edge weights, the interchange format between generators and CSR.
//! * [`Csr`] — a Compressed Sparse Row representation storing both in- and
//!   out-edges (as Ligra does), the format all applications traverse.
//! * [`Permutation`] — a relabeling of vertex IDs, produced by the
//!   reordering techniques in `lgr-core` and applied here.
//! * [`gen`] — synthetic graph generators (R-MAT, community power-law,
//!   road lattice) standing in for the paper's real-world datasets.
//! * [`datasets`] — the scaled-down analogues of the paper's 10 datasets
//!   (kr, pl, tw, sd, lj, wl, fr, mp, uni, road).
//! * [`stats`] — the skew/footprint statistics behind Tables I–IV.
//!
//! # Example
//!
//! ```
//! use lgr_graph::{gen, Csr};
//!
//! // A small scale-free graph (2^10 vertices, avg degree 8).
//! let edges = gen::rmat(gen::RmatConfig::new(10, 8).with_seed(42));
//! let graph = Csr::from_edge_list(&edges);
//! assert_eq!(graph.num_vertices(), 1 << 10);
//! assert!(graph.num_edges() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csr;
pub mod datasets;
pub mod degree;
pub mod edgelist;
pub mod evolve;
pub mod gen;
pub mod permutation;
pub mod stats;

pub use csr::{AdjacencyView, Csr, CsrPartsError, Directions};
pub use degree::{average_degree, DegreeKind};
pub use edgelist::EdgeList;
pub use permutation::Permutation;

/// Vertex identifier. 32 bits suffice for every graph in the study
/// (the paper's largest dataset has 95M vertices).
pub type VertexId = u32;

/// Per-edge weight used by weighted applications (SSSP).
pub type Weight = u32;

/// Number of bytes in a cache block, fixed at 64 as in the paper's
/// evaluation platform (Broadwell Xeon).
pub const CACHE_BLOCK_BYTES: usize = 64;
