//! Lightweight skew-aware graph reordering.
//!
//! This crate implements the contribution of *Faldu, Diamond & Grot,
//! "A Closer Look at Lightweight Graph Reordering" (IISWC 2019)*:
//! **Degree-Based Grouping (DBG)** — plus every technique the paper
//! characterizes against it.
//!
//! Graph applications suffer poor cache efficiency because hot
//! (high-degree) vertices are scattered across memory and share cache
//! blocks with cold vertices. *Skew-aware reordering* relabels vertices
//! so hot vertices are contiguous, shrinking their cache footprint; but
//! fine-grain reordering destroys the community locality present in
//! many real-world vertex orderings. DBG resolves the tension with
//! coarse-grain, order-preserving grouping by geometric degree ranges.
//!
//! # Techniques
//!
//! | Type | Paper section | Grain |
//! |---|---|---|
//! | [`Dbg`] | Sec. IV | coarse groups, order-preserving (the contribution) |
//! | [`Sort`] | Sec. III-C | full descending-degree sort |
//! | [`HubSort`] | Zhang et al. | sorts hot vertices, preserves cold |
//! | [`HubCluster`] | Balaji & Lucia | segregates hot, preserves both |
//! | [`HubSortOriginal`], [`HubClusterOriginal`] | Sec. V-C ("-O") | authors' original variants |
//! | [`Gorder`] | Wei et al. | structure-aware, very expensive |
//! | [`RandomVertex`], [`RandomCacheBlock`] | Sec. III-B | structure-destruction probes |
//! | [`Identity`] | baseline | no reordering |
//!
//! All grouping-style techniques are instances of one generalized
//! binning algorithm ([`framework::GroupingSpec`]) exactly as the
//! paper's Table V observes.
//!
//! The technique types carry no display names. The labels reports
//! print (`DBG(4)`, `RCB-3`, `Gorder+DBG`) come from the spec that
//! names a technique, `lgr_engine::TechniqueSpec::label`, and a
//! technique's `Debug` form identifies it in test messages.
//!
//! # Example
//!
//! ```
//! use lgr_core::{Dbg, ReorderingTechnique};
//! use lgr_graph::{gen, Csr, DegreeKind};
//!
//! let el = gen::rmat(gen::RmatConfig::new(10, 8).with_seed(7));
//! let graph = Csr::from_edge_list(&el);
//! let perm = Dbg::default().reorder(&graph, DegreeKind::Out);
//! let reordered = graph.apply_permutation(&perm);
//! assert_eq!(reordered.num_edges(), graph.num_edges());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod composed;
pub mod framework;
pub mod gorder;
pub mod grouping;
pub mod random;
pub mod technique;

pub use composed::Pipeline;
pub use framework::GroupingSpec;
pub use gorder::Gorder;
pub use grouping::{Dbg, HubCluster, HubClusterOriginal, HubSort, HubSortOriginal, Sort};
pub use random::{RandomCacheBlock, RandomVertex};
pub use technique::{Identity, ReorderingTechnique, TimedReorder};
