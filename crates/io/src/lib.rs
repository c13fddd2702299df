//! On-disk graph formats and the dataset cache.
//!
//! Real-dataset evaluation needs graphs that come from files, not
//! generators. This crate provides the three ways a graph enters or
//! leaves the system on disk:
//!
//! * [`lgr`] — the `.lgr` binary CSR format: versioned, checksummed,
//!   and exact. Saving serializes a [`Csr`](lgr_graph::Csr)'s raw
//!   arrays (offsets, both adjacency directions, optional weights);
//!   loading decodes each section in place into its final array,
//!   through one fixed-size buffer, and validates the two directions
//!   on a [`Pool`](lgr_parallel::Pool) — no per-edge parsing and no
//!   counting sort, so a reload is bounded by disk bandwidth rather
//!   than graph-build time. The loaded graph is structurally equal
//!   (`==`) to the saved one.
//! * [`text`] — loaders for SNAP/TSV edge lists and Matrix Market
//!   coordinate files, parsed in parallel on a
//!   [`Pool`](lgr_parallel::Pool) (each worker scans a
//!   newline-aligned chunk once, decoding integers straight from its
//!   bytes; chunks merge in file order, so the result is
//!   deterministic for every thread count). Malformed input returns
//!   [`IoError`], never panics.
//! * [`cache`] — [`DatasetCache`], a directory of `.lgr` files keyed
//!   by dataset-spec string + scale, giving "generate once, reload
//!   forever" semantics to any dataset source.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod lgr;
pub mod text;

pub use cache::DatasetCache;
pub use lgr::{lgr_from_bytes, lgr_to_bytes, load_lgr, save_lgr};
pub use text::{load_edge_list, load_matrix_market, parse_edge_list, parse_matrix_market};

/// FNV-1a over `bytes`: the stable 64-bit hash used for cache file
/// names and other content-addressed keying across the workspace
/// (one definition, so keys never silently diverge between layers).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a load or save failed.
#[derive(Debug)]
pub enum IoError {
    /// The operating system refused the read or write.
    Io(std::io::Error),
    /// The bytes do not describe a valid graph; the message names the
    /// file (when known) and the offending location.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "{e}"),
            IoError::Format(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl IoError {
    /// Prefixes a format error with the path it came from.
    fn at_path(self, path: &std::path::Path) -> IoError {
        match self {
            IoError::Format(msg) => IoError::Format(format!("{}: {msg}", path.display())),
            other => other,
        }
    }
}
