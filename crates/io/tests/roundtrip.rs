//! Property tests for the `.lgr` binary format: every CSR — weighted
//! or not, empty, single-vertex, with self-loops and parallel edges —
//! survives `Csr -> .lgr bytes -> Csr` with structural equality,
//! mutated bytes never produce a silently-wrong graph, and a file
//! loads exactly as its bytes decode.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;

use lgr_graph::{Csr, EdgeList};
use lgr_io::{lgr_from_bytes, lgr_to_bytes, load_lgr, save_lgr};
use lgr_parallel::Pool;

fn pool() -> Pool {
    Pool::new(2)
}

/// Random graphs over 0..=40 vertices, 0..120 edges, optionally
/// weighted, including the empty and single-vertex corners.
fn graph_strategy() -> impl Strategy<Value = Csr> {
    (0usize..40, 0u32..2).prop_flat_map(|(extra_vertices, weighted)| {
        // 0, 1, or extra+1 vertices; edges only when there is a vertex.
        let n = extra_vertices;
        let edge_bound = if n == 0 { 1 } else { n as u32 };
        (
            Just(n),
            Just(weighted == 1),
            vec(
                (0u32..edge_bound.max(1), 0u32..edge_bound.max(1), 1u32..100),
                0..120,
            ),
        )
            .prop_map(|(n, weighted, triples)| {
                let mut el = EdgeList::new(n);
                if n > 0 {
                    for (u, v, w) in triples {
                        if weighted {
                            el.push_weighted(u % n as u32, v % n as u32, w);
                        } else {
                            el.push(u % n as u32, v % n as u32);
                        }
                    }
                }
                Csr::from_edge_list(&el)
            })
    })
}

proptest! {
    /// `Csr -> bytes -> Csr` is the identity under structural
    /// equality, for weighted and unweighted graphs alike.
    #[test]
    fn lgr_round_trip_is_exact(g in graph_strategy()) {
        let bytes = lgr_to_bytes(&g);
        let back = lgr_from_bytes(&bytes, &pool());
        prop_assert!(back.is_ok(), "round trip failed: {:?}", back.err());
        prop_assert_eq!(back.unwrap(), g);
    }

    /// Serialization is deterministic: equal graphs produce equal
    /// bytes (the property the byte-identical cache reuse relies on).
    #[test]
    fn serialization_is_deterministic(g in graph_strategy()) {
        prop_assert_eq!(lgr_to_bytes(&g), lgr_to_bytes(&g.clone()));
    }

    /// Truncating the byte stream anywhere yields an error, never a
    /// panic or a silently short graph.
    #[test]
    fn truncations_error_cleanly(g in graph_strategy(), cut in 0f64..1f64) {
        let bytes = lgr_to_bytes(&g);
        let keep = ((bytes.len() as f64) * cut) as usize;
        prop_assume!(keep < bytes.len());
        prop_assert!(lgr_from_bytes(&bytes[..keep], &pool()).is_err());
    }

    /// Flipping any single payload byte is caught by the checksum (or
    /// downstream validation) — corrupt caches read as misses, not as
    /// wrong graphs.
    #[test]
    fn single_byte_corruption_is_detected(g in graph_strategy(), pos in 0f64..1f64, bit in 0u32..8) {
        let mut bytes = lgr_to_bytes(&g);
        // Only corrupt the payload: header fields like num_vertices
        // are covered by the size cross-check instead.
        prop_assume!(bytes.len() > 40);
        let idx = 40 + (((bytes.len() - 40) as f64) * pos) as usize;
        prop_assume!(idx < bytes.len());
        bytes[idx] ^= 1 << bit;
        prop_assert!(lgr_from_bytes(&bytes, &pool()).is_err());
    }

    /// `load_lgr` on a file agrees with `lgr_from_bytes` on its bytes
    /// (the same graph, or the same error behind the file's path), for
    /// intact, truncated, padded and bit-flipped images, and `save_lgr`
    /// writes exactly `lgr_to_bytes`.
    #[test]
    fn files_load_as_their_bytes_decode(
        g in graph_strategy(),
        damage in 0u32..4,
        pos in 0f64..1f64,
        bit in 0u32..8,
    ) {
        static FILES: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "lgr-roundtrip-{}-{}.lgr",
            std::process::id(),
            // ordering: Relaxed — only uniqueness of the file name matters.
            FILES.fetch_add(1, Ordering::Relaxed)
        ));
        save_lgr(&path, &g).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        prop_assert_eq!(&bytes, &lgr_to_bytes(&g));
        let at = ((bytes.len() as f64) * pos) as usize;
        match damage {
            1 => bytes.truncate(at),
            2 => bytes.extend_from_slice(&[bit as u8; 3]),
            3 => {
                let last = bytes.len() - 1;
                bytes[at.min(last)] ^= 1 << bit;
            }
            _ => {}
        }
        std::fs::write(&path, &bytes).unwrap();
        let from_file = load_lgr(&path, &pool()).map_err(|e| e.to_string());
        let from_bytes = lgr_from_bytes(&bytes, &pool())
            .map_err(|e| format!("{}: {e}", path.display()));
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(from_file, from_bytes);
    }

    /// Fully arbitrary bytes — including ones wearing a valid magic,
    /// so the header/length-field logic runs — either parse or error;
    /// they never panic. This is the dynamic half of the no-panic
    /// contract `cargo xtask audit` proves statically for this file.
    #[test]
    fn arbitrary_bytes_never_panic(words in vec(0u32..256, 0..200), magic in 0u32..2) {
        let mut raw: Vec<u8> = Vec::new();
        if magic == 1 {
            raw.extend_from_slice(b"LGRCSR01");
        }
        raw.extend(words.into_iter().map(|b| b as u8));
        let _ = lgr_from_bytes(&raw, &pool());
    }
}

#[test]
fn empty_and_single_vertex_graphs_round_trip() {
    for el in [EdgeList::new(0), EdgeList::new(1)] {
        let g = Csr::from_edge_list(&el);
        assert_eq!(lgr_from_bytes(&lgr_to_bytes(&g), &pool()).unwrap(), g);
    }
    let mut one = EdgeList::new(1);
    one.push_weighted(0, 0, 7); // single vertex, weighted self-loop
    let g = Csr::from_edge_list(&one);
    assert_eq!(lgr_from_bytes(&lgr_to_bytes(&g), &pool()).unwrap(), g);
}
