//! Vertex-centric graph analytics, Ligra-style.
//!
//! This crate implements the evaluation workload of the paper: a
//! shared-memory vertex-centric engine supporting pull- and push-based
//! edge traversal with Ligra's direction switching, and the five
//! applications of Table VII:
//!
//! * [`apps::pagerank()`] — PageRank (pull-only).
//! * [`apps::pagerank_delta()`] — PageRank-Delta (push-only).
//! * [`apps::bc()`] — Betweenness Centrality via a BFS kernel (pull-push).
//! * [`apps::sssp()`] — Bellman–Ford SSSP (push-only, weighted).
//! * [`apps::radii()`] — Radii estimation via 64 parallel BFS's
//!   (pull-push).
//!
//! Every application is generic over a [`lgr_cachesim::Tracer`] and
//! charges it the exact access stream the algorithm generates
//! (vertex/edge array streaming plus the irregular property accesses
//! whose locality graph reordering manipulates). The functions above
//! register their arrays in a layout of their own, so pass them
//! [`lgr_cachesim::NullTracer`] for a full-speed run. To drive the
//! cache-hierarchy simulator, call [`AppId::trace`]: it registers the
//! app's arrays, builds the [`lgr_cachesim::MemorySim`] on that layout
//! and runs the kernel into it. [`AppId::run_pooled`] runs the same
//! work untraced on a [`lgr_parallel::Pool`]; its PageRank,
//! [`apps::pagerank_pooled`], gives ranks bitwise equal to the traced
//! kernel's.
//!
//! # Example
//!
//! ```
//! use lgr_analytics::apps::{pagerank, PrConfig};
//! use lgr_cachesim::NullTracer;
//! use lgr_graph::{gen, Csr};
//!
//! let el = gen::rmat(gen::RmatConfig::new(8, 4).with_seed(1));
//! let g = Csr::from_edge_list(&el);
//! let pr = pagerank(&g, &PrConfig::default(), &mut NullTracer);
//! let total: f64 = pr.ranks.iter().sum();
//! assert!((total - 1.0).abs() < 1e-6); // ranks form a distribution
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
mod arrays;
pub mod frontier;
pub mod schedule;
pub mod verify;

pub use apps::AppId;
