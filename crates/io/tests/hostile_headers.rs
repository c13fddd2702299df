//! Hostile-header regression tests: declared metadata (Matrix Market
//! size lines, SNAP vertex IDs, `.lgr` header counts) is attacker-
//! controlled, and a few dozen bytes must never drive an allocation
//! proportional to the numbers they *name*. Every case here must
//! return `Err` quickly — if one of these OOMs or hangs, the loader
//! boundary has regressed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use lgr_graph::{Csr, EdgeList};
use lgr_io::{
    lgr_from_bytes, lgr_to_bytes, load_lgr, parse_edge_list, parse_matrix_market, IoError,
};
use lgr_parallel::Pool;

/// The system allocator, recording the largest single request each
/// thread makes, so a test can bound what a load allocated.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is a thread-local `Cell` update, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
        // SAFETY: the caller's contract for `realloc` is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// `f`'s result and the largest allocation it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn pool() -> Pool {
    Pool::new(2)
}

#[test]
fn matrix_market_declared_dimension_bomb_is_rejected() {
    // ~60 bytes declaring a ~4-billion-row matrix: pre-fix this
    // passed every check and flowed into a ~32 GB `vec![0usize; n+1]`
    // CSR build downstream.
    let text = b"%%MatrixMarket matrix coordinate pattern general\n4000000000 1 1\n1 1\n";
    let err = parse_matrix_market(text, false, &pool()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("allocation bomb"),
        "expected the input-size bound to reject the declared dims, got: {msg}"
    );
}

#[test]
fn matrix_market_declared_nnz_bomb_is_rejected() {
    // Dimensions are modest but the declared entry count is absurd
    // for the file's size.
    let text = b"%%MatrixMarket matrix coordinate pattern general\n4 4 4000000000\n1 1\n";
    let err = parse_matrix_market(text, false, &pool()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("truncated or hostile"),
        "expected the entry-count bound to fire, got: {msg}"
    );
}

#[test]
fn matrix_market_honest_small_files_still_parse() {
    let text = b"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n";
    let el = parse_matrix_market(text, false, &pool()).unwrap();
    assert_eq!(el.num_vertices(), 3);
    // Symmetric: both off-diagonals mirrored.
    assert_eq!(el.num_edges(), 4);
}

#[test]
fn snap_vertex_id_bomb_is_rejected() {
    // A 13-byte edge list naming vertex 4000000000: `max ID + 1`
    // would size every per-vertex array in the workspace.
    let text = b"4000000000 1\n";
    let err = parse_edge_list(text, false, &pool()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("allocation bomb"),
        "expected the vertex-ID bound to reject the huge ID, got: {msg}"
    );
}

#[test]
fn snap_honest_ids_near_the_bound_still_parse() {
    // num_vertices == 101 with a 400-byte input is far under the
    // 8-vertices-per-byte policy bound.
    let mut text = String::new();
    for i in 0..100 {
        text.push_str(&format!("{i} 100\n"));
    }
    let el = parse_edge_list(text.as_bytes(), false, &pool()).unwrap();
    assert_eq!(el.num_vertices(), 101);
    assert_eq!(el.num_edges(), 100);
}

/// Builds a 40-byte `.lgr` header (magic + flags + reserved + vertex
/// count + edge count + checksum) over an empty payload.
fn lgr_header(v: u64, e: u64, flags: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"LGRCSR01");
    bytes.extend_from_slice(&flags.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&v.to_le_bytes());
    bytes.extend_from_slice(&e.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes
}

#[test]
fn lgr_header_count_bombs_are_rejected_without_allocation() {
    // Huge-but-representable counts: the payload length check must
    // reject them before any `vec![0; n]` materializes.
    for (v, e) in [
        (4_000_000_000u64, 1u64),
        (1, 4_000_000_000),
        (u64::MAX / 16, u64::MAX / 16),
        (u64::MAX, u64::MAX),
    ] {
        for flags in [0u32, 1] {
            let bytes = lgr_header(v, e, flags);
            assert!(
                lgr_from_bytes(&bytes, &pool()).is_err(),
                "header v={v} e={e} flags={flags} must be rejected"
            );
        }
    }
}

/// A file in the temp directory holding `bytes`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str, bytes: &[u8]) -> Self {
        let path =
            std::env::temp_dir().join(format!("lgr-hostile-{tag}-{}.lgr", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn hostile_lgr_files_are_format_errors_without_allocation() {
    let mut el = EdgeList::new(64);
    for i in 0..500u32 {
        el.push_weighted(i % 64, (i * 7) % 64, i);
    }
    let good = lgr_to_bytes(&Csr::from_edge_list(&el));
    let mut truncated = good.clone();
    truncated.truncate(good.len() - 5);
    let mut padded = good.clone();
    padded.extend_from_slice(b"garbage");
    let mut flipped = good.clone();
    let mid = 40 + (good.len() - 40) / 2;
    flipped[mid] ^= 0x10;
    for (tag, bytes, needle) in [
        ("truncated", truncated, "truncated or corrupt"),
        ("padded", padded, "truncated or corrupt"),
        ("flipped", flipped, "checksum mismatch"),
    ] {
        let file = TempFile::new(tag, &bytes);
        let (result, largest) = largest_allocation(|| load_lgr(&file.0, &pool()));
        match result {
            Err(IoError::Format(msg)) => assert!(msg.contains(needle), "{tag}: {msg}"),
            other => panic!("{tag}: expected a format error, got {other:?}"),
        }
        // Only a flipped byte passes the length check and is read (the
        // checksum needs every byte); the others fail before the
        // decoder allocates its buffer or any array.
        let bound = if tag == "flipped" {
            bytes.len() + (64 << 10)
        } else {
            4096
        };
        assert!(largest <= bound, "{tag}: allocated {largest} bytes at once");
    }
}

/// Header counts far larger than the file: the file-length check must
/// reject them before anything is sized by them.
#[test]
fn lgr_header_bombs_in_files_are_rejected_without_allocation() {
    for (v, e) in [
        (4_000_000_000u64, 1u64),
        (1, 4_000_000_000),
        (u64::MAX / 16, u64::MAX / 16),
        (u64::MAX, u64::MAX),
    ] {
        let file = TempFile::new("header-bomb", &lgr_header(v, e, 1));
        let (result, largest) = largest_allocation(|| load_lgr(&file.0, &pool()));
        assert!(
            matches!(result, Err(IoError::Format(_))),
            "v={v} e={e}: {result:?}"
        );
        assert!(
            largest <= 4096,
            "v={v} e={e}: allocated {largest} bytes at once"
        );
    }
}
