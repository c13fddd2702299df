//! Trace-driven multi-core cache hierarchy simulator.
//!
//! The paper's evaluation reads hardware performance counters on a
//! dual-socket Broadwell Xeon: per-level MPKI (Fig. 8) and a
//! classification of L2 misses into L3 hits, intra-socket snoops,
//! cross-socket snoops, and off-chip accesses (Fig. 9). This crate
//! reproduces those measurements in software:
//!
//! * [`cache::SetAssocCache`] — an LRU set-associative cache.
//! * [`layout::MemoryLayout`] — maps logical array elements (vertex
//!   array, edge array, property arrays...) to byte addresses.
//! * [`MemorySim`] — the full hierarchy: per-core private L1/L2, one
//!   shared LLC per socket, and a directory that classifies every L2
//!   miss the way the paper's Fig. 9 does.
//! * [`stats::SimStats`] — MPKI per level, miss breakdowns, and a
//!   cycle estimate from a configurable latency model.
//! * [`tracer::Tracer`] — the instrumentation interface the analytics
//!   engine drives; [`tracer::NullTracer`] compiles to nothing so the
//!   same algorithm code also runs untraced at full speed.
//!
//! # Example
//!
//! ```
//! use lgr_cachesim::{AccessPattern, MemorySim, SimConfig};
//! use lgr_cachesim::layout::MemoryLayout;
//! use lgr_cachesim::tracer::Tracer;
//!
//! let mut layout = MemoryLayout::new();
//! let prop = layout.register("prop", 1024, 8, AccessPattern::Irregular);
//! let mut sim = MemorySim::new(SimConfig::default(), layout);
//! sim.read(0, prop, 7);
//! sim.read(0, prop, 7); // second access hits in L1
//! let stats = sim.stats();
//! assert_eq!(stats.l1.accesses, 2);
//! assert_eq!(stats.l1.misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod layout;
#[cfg(test)]
mod oracle;
pub mod sim;
pub mod stats;
pub mod tracer;

pub use config::{LatencyModel, SimConfig, SimConfigParseError, MAX_CORES, SIM_KNOBS};
pub use layout::{AccessPattern, ArrayId, MemoryLayout};
pub use sim::MemorySim;
pub use stats::{L2MissBreakdown, LevelStats, SimStats};
pub use tracer::{CountingTracer, NullTracer, Tracer};

/// Cache block size in bytes (64, as on the paper's Broadwell Xeon).
pub const BLOCK_BYTES: u64 = 64;
