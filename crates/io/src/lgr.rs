//! The `.lgr` binary CSR format.
//!
//! An `.lgr` file is a [`Csr`] serialized exactly: the cumulative
//! offset arrays and neighbor arrays of **both** adjacency directions,
//! plus the per-edge weights when present. Reloading therefore skips
//! edge parsing, counting sort, and canonical re-sorting entirely:
//! each section is decoded in place into its final array, through one
//! fixed-size buffer, and validated once.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size         field
//! 0       8            magic b"LGRCSR01" (format version is the
//!                      trailing two bytes)
//! 8       4            flags (bit 0: weighted; other bits reserved,
//!                      must be zero)
//! 12      4            reserved (zero)
//! 16      8            num_vertices (u64)
//! 24      8            num_edges (u64)
//! 32      8            FNV-1a-style checksum of the payload
//! 40      -            payload:
//!                        out index      (V + 1) x u64
//!                        out neighbors  E x u32
//!                        out weights    E x u32   (weighted only)
//!                        in index       (V + 1) x u64
//!                        in neighbors   E x u32
//!                        in weights     E x u32   (weighted only)
//! ```
//!
//! The payload length is fully determined by the header, so
//! truncation and trailing garbage are detected from the input's
//! length before anything is allocated or read past the header. A
//! checksum or structural-validation failure yields
//! [`IoError::Format`]; loaders never panic on bad bytes.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use lgr_graph::{Csr, VertexId, Weight};
use lgr_parallel::Pool;

use crate::IoError;

/// File magic; the trailing `01` is the format version.
pub const LGR_MAGIC: [u8; 8] = *b"LGRCSR01";

const FLAG_WEIGHTED: u32 = 1;
const HEADER_BYTES: usize = 40;

/// The buffer every section streams through, in both directions. A
/// multiple of 8, so a fill never splits a `u32` or a `u64`.
const BUF_BYTES: usize = 64 << 10;

/// Little-endian `u64` from an 8-byte slice (0 from any other length,
/// so the hostile-input path has no panic site at all).
fn le_u64(c: &[u8]) -> u64 {
    u64::from_le_bytes(c.try_into().unwrap_or_default())
}

/// Little-endian `u32` from a 4-byte slice (see [`le_u64`]).
fn le_u32(c: &[u8]) -> u32 {
    u32::from_le_bytes(c.try_into().unwrap_or_default())
}

/// The payload's digest, FNV-1a-style over whole `u64` words with a
/// byte-wise tail (so it runs at memory bandwidth rather than
/// byte-at-a-time speed), fed the payload in pieces of any length.
#[derive(Debug, Clone, Copy)]
struct Checksum {
    hash: u64,
    /// The bytes of a word that is not complete yet, low byte first.
    partial: u64,
    partial_len: u32,
}

impl Checksum {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Checksum {
            hash: Self::OFFSET,
            partial: 0,
            partial_len: 0,
        }
    }

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(Self::PRIME);
    }

    fn push_byte(&mut self, b: u8) {
        self.partial |= u64::from(b) << (8 * self.partial_len);
        self.partial_len += 1;
        if self.partial_len == 8 {
            self.mix(self.partial);
            (self.partial, self.partial_len) = (0, 0);
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while self.partial_len > 0 {
            let Some((&b, tail)) = rest.split_first() else {
                return;
            };
            self.push_byte(b);
            rest = tail;
        }
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            self.mix(le_u64(w));
        }
        for &b in words.remainder() {
            self.push_byte(b);
        }
    }

    fn finish(self) -> u64 {
        let mut h = self.hash;
        for k in 0..self.partial_len {
            h = (h ^ ((self.partial >> (8 * k)) & 0xff)).wrapping_mul(Self::PRIME);
        }
        h
    }
}

/// Encodes `vals` little-endian through `buf`, handing each fill to
/// `put`.
fn put_le<T, const N: usize>(
    vals: &[T],
    to_le: impl Fn(&T) -> [u8; N],
    buf: &mut [u8],
    put: &mut impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for chunk in vals.chunks((buf.len() / N).max(1)) {
        let bytes = buf.get_mut(..chunk.len() * N).unwrap_or_default();
        for (dst, v) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&to_le(v));
        }
        put(bytes)?;
    }
    Ok(())
}

/// Streams `csr`'s payload, section by section, through `buf` into
/// `put`.
fn put_payload(
    csr: &Csr,
    buf: &mut [u8],
    mut put: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for side in [csr.out_adjacency(), csr.in_adjacency()] {
        put_le(side.index, |&o| (o as u64).to_le_bytes(), buf, &mut put)?;
        put_le(side.neighbors, |v| v.to_le_bytes(), buf, &mut put)?;
        if let Some(ws) = side.weights {
            put_le(ws, |w| w.to_le_bytes(), buf, &mut put)?;
        }
    }
    Ok(())
}

/// Writes `csr` to `out` in `.lgr` format: one pass over the sections
/// for the checksum, then the header and the sections.
fn write_lgr(out: &mut impl Write, csr: &Csr) -> std::io::Result<()> {
    let mut buf = vec![0u8; BUF_BYTES];
    let mut sum = Checksum::new();
    put_payload(csr, &mut buf, |bytes| {
        sum.update(bytes);
        Ok(())
    })?;
    let flags = if csr.is_weighted() { FLAG_WEIGHTED } else { 0 };
    out.write_all(&LGR_MAGIC)?;
    out.write_all(&flags.to_le_bytes())?;
    out.write_all(&0u32.to_le_bytes())?;
    out.write_all(&(csr.num_vertices() as u64).to_le_bytes())?;
    out.write_all(&(csr.num_edges() as u64).to_le_bytes())?;
    out.write_all(&sum.finish().to_le_bytes())?;
    put_payload(csr, &mut buf, |bytes| out.write_all(bytes))
}

/// Serializes a graph into `.lgr` bytes. The inverse of
/// [`lgr_from_bytes`]: the deserialized graph is structurally equal
/// (`==`) to `csr`.
pub fn lgr_to_bytes(csr: &Csr) -> Vec<u8> {
    // Sized from the slices actually serialized, not from the vertex/
    // edge counters, so the capacity is bounded by materialized data
    // by construction (and the taint audit can see that it is).
    let (out, inn) = (csr.out_adjacency(), csr.in_adjacency());
    let mut payload_len =
        (out.index.len() + inn.index.len()) * 8 + (out.neighbors.len() + inn.neighbors.len()) * 4;
    if let (Some(out_ws), Some(in_ws)) = (out.weights, inn.weights) {
        payload_len += (out_ws.len() + in_ws.len()) * 4;
    }
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload_len);
    // Writing into a `Vec` cannot fail.
    let _ = write_lgr(&mut bytes, csr);
    bytes
}

/// A `u64` header field; a short slice (impossible after the length
/// check, but provable only locally) reads as zero.
fn header_u64(bytes: &[u8], offset: usize) -> u64 {
    le_u64(bytes.get(offset..offset + 8).unwrap_or_default())
}

/// The payload a header describes: its counts, and the byte length
/// they promise.
struct Layout {
    vertices: usize,
    edges: usize,
    weighted: bool,
    bytes: usize,
}

impl Layout {
    /// `None` when the byte length overflows `usize`. Checked
    /// arithmetic: a crafted header with counts near `usize::MAX` must
    /// surface as a format error, not an overflow panic (the no-panic
    /// contract `DatasetCache`'s corrupt-entry-as-miss relies on).
    fn new(vertices: usize, edges: usize, weighted: bool) -> Option<Layout> {
        let index_bytes = vertices.checked_add(1)?.checked_mul(8)?;
        let edge_bytes = edges.checked_mul(4)?;
        let side_bytes = index_bytes
            .checked_add(edge_bytes)?
            .checked_add(if weighted { edge_bytes } else { 0 })?;
        Some(Layout {
            vertices,
            edges,
            weighted,
            bytes: side_bytes.checked_mul(2)?,
        })
    }
}

/// Reads the next `len` payload bytes from `r` through `buf`, feeding
/// every fill to the checksum and to `decode`.
fn read_section(
    r: &mut impl Read,
    len: usize,
    buf: &mut [u8],
    sum: &mut Checksum,
    mut decode: impl FnMut(&[u8]) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut left = len;
    while left > 0 {
        let Some(fill) = buf.get_mut(..left.min(BUF_BYTES)) else {
            return Err(IoError::Format("section buffer too small".to_owned()));
        };
        r.read_exact(fill)?;
        sum.update(fill);
        decode(fill)?;
        left -= fill.len();
    }
    Ok(())
}

/// The next section as `count` offsets, erroring if any value
/// overflows the target's `usize`.
fn decode_offsets(
    r: &mut impl Read,
    count: usize,
    buf: &mut [u8],
    sum: &mut Checksum,
) -> Result<Vec<usize>, IoError> {
    let mut out = Vec::with_capacity(count);
    read_section(r, count * 8, buf, sum, |bytes| {
        for c in bytes.chunks_exact(8) {
            let v = le_u64(c);
            out.push(
                usize::try_from(v)
                    .map_err(|_| IoError::Format(format!("offset {v} overflows this platform")))?,
            );
        }
        Ok(())
    })?;
    Ok(out)
}

/// The next section as `count` `u32`s.
fn decode_u32s(
    r: &mut impl Read,
    count: usize,
    buf: &mut [u8],
    sum: &mut Checksum,
) -> Result<Vec<u32>, IoError> {
    let mut out = Vec::with_capacity(count);
    read_section(r, count * 4, buf, sum, |bytes| {
        out.extend(bytes.chunks_exact(4).map(le_u32));
        Ok(())
    })?;
    Ok(out)
}

/// Decodes an `.lgr` image of `len` bytes from `r`. The header and the
/// payload length are checked against `len` before anything is
/// allocated; each section is then decoded into its final array and
/// checksummed as it passes through one buffer, and both directions
/// are validated on `pool`.
fn read_lgr(r: &mut impl Read, len: u64, pool: &Pool) -> Result<Csr, IoError> {
    if len < HEADER_BYTES as u64 {
        return Err(IoError::Format(format!(
            "truncated header: {len} bytes, need {HEADER_BYTES}"
        )));
    }
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    if !header.starts_with(&LGR_MAGIC) {
        return Err(IoError::Format(
            "not an .lgr file (bad magic or unsupported version)".to_owned(),
        ));
    }
    let flags = le_u32(header.get(8..12).unwrap_or_default());
    if flags & !FLAG_WEIGHTED != 0 {
        return Err(IoError::Format(format!("unknown flag bits {flags:#x}")));
    }
    let weighted = flags & FLAG_WEIGHTED != 0;
    let v64 = header_u64(&header, 16);
    let e64 = header_u64(&header, 24);
    let stored_checksum = header_u64(&header, 32);
    let (v, e) = match (usize::try_from(v64), usize::try_from(e64)) {
        (Ok(v), Ok(e)) => (v, e),
        _ => {
            return Err(IoError::Format(format!(
                "graph too large for this platform ({v64} vertices, {e64} edges)"
            )))
        }
    };
    let Some(layout) = Layout::new(v, e, weighted) else {
        return Err(IoError::Format(format!(
            "header promises an impossible size ({v} vertices, {e} edges)"
        )));
    };
    // Every allocation below is sized by the layout, so it must
    // describe exactly the payload the input holds.
    let payload_len = len - HEADER_BYTES as u64;
    if usize::try_from(payload_len).ok() != Some(layout.bytes) {
        return Err(IoError::Format(format!(
            "payload is {payload_len} bytes but the header promises {} \
             ({v} vertices, {e} edges, weighted={weighted}) — truncated or corrupt",
            layout.bytes
        )));
    }
    // One adjacency direction's owned arrays, in
    // `Csr::from_adjacency_parts` order.
    type SideParts = (Vec<usize>, Vec<VertexId>, Option<Vec<Weight>>);
    let mut buf = vec![0u8; BUF_BYTES];
    let mut sum = Checksum::new();
    let mut side = || -> Result<SideParts, IoError> {
        let index = decode_offsets(r, layout.vertices + 1, &mut buf, &mut sum)?;
        let neighbors = decode_u32s(r, layout.edges, &mut buf, &mut sum)?;
        let weights = if layout.weighted {
            Some(decode_u32s(r, layout.edges, &mut buf, &mut sum)?)
        } else {
            None
        };
        Ok((index, neighbors, weights))
    };
    let out = side()?;
    let inn = side()?;
    if sum.finish() != stored_checksum {
        return Err(IoError::Format("checksum mismatch".to_owned()));
    }
    Csr::from_adjacency_parts_with(v, out, inn, pool).map_err(|e| IoError::Format(e.to_string()))
}

/// Deserializes `.lgr` bytes into a graph, validating its two
/// directions on `pool`.
///
/// # Errors
///
/// [`IoError::Format`] on a bad magic/version, unknown flags, a
/// payload whose length disagrees with the header (truncated or
/// oversized file), a checksum mismatch, or arrays that violate the
/// CSR invariants.
pub fn lgr_from_bytes(bytes: &[u8], pool: &Pool) -> Result<Csr, IoError> {
    let mut reader = bytes;
    read_lgr(&mut reader, bytes.len() as u64, pool)
}

/// Writes `csr` to `path` in `.lgr` format.
pub fn save_lgr(path: impl AsRef<Path>, csr: &Csr) -> Result<(), IoError> {
    let mut out = BufWriter::new(File::create(path.as_ref())?);
    write_lgr(&mut out, csr)?;
    out.flush()?;
    Ok(())
}

/// Loads a graph from an `.lgr` file: [`lgr_from_bytes`] over the open
/// file, whose length comes from its metadata, so the file is read
/// once, straight into the graph's arrays.
pub fn load_lgr(path: impl AsRef<Path>, pool: &Pool) -> Result<Csr, IoError> {
    let path = path.as_ref();
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    read_lgr(&mut file, len, pool).map_err(|e| e.at_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    fn pool() -> Pool {
        Pool::new(2)
    }

    fn weighted_graph() -> Csr {
        let mut el = EdgeList::new(5);
        el.push_weighted(0, 1, 3);
        el.push_weighted(0, 1, 3); // parallel edge
        el.push_weighted(1, 1, 9); // self-loop
        el.push_weighted(4, 0, 7);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn bytes_round_trip_exactly() {
        for g in [
            weighted_graph(),
            Csr::from_edge_list(&EdgeList::new(0)),
            Csr::from_edge_list(&EdgeList::new(1)),
        ] {
            let bytes = lgr_to_bytes(&g);
            let back = lgr_from_bytes(&bytes, &pool()).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn files_round_trip() {
        let g = weighted_graph();
        let path = std::env::temp_dir().join(format!("lgr-io-test-{}.lgr", std::process::id()));
        save_lgr(&path, &g).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let back = load_lgr(&path, &pool()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(saved, lgr_to_bytes(&g));
        assert_eq!(back, g);
    }

    #[test]
    fn checksum_fed_in_pieces_is_the_whole_checksum() {
        let bytes: Vec<u8> = (0..45u8).map(|b| b.wrapping_mul(37)).collect();
        let mut whole = Checksum::new();
        whole.update(&bytes);
        for cut in [0, 1, 3, 4, 8, 13, 44, 45] {
            let mut pieces = Checksum::new();
            pieces.update(&bytes[..cut]);
            pieces.update(&bytes[cut..]);
            assert_eq!(pieces.finish(), whole.finish(), "cut at {cut}");
        }
        // Words, then the byte-wise tail, as the format defines it.
        let mut h = Checksum::OFFSET;
        for c in bytes.chunks(8) {
            if c.len() == 8 {
                h = (h ^ le_u64(c)).wrapping_mul(Checksum::PRIME);
            } else {
                for &b in c {
                    h = (h ^ u64::from(b)).wrapping_mul(Checksum::PRIME);
                }
            }
        }
        assert_eq!(whole.finish(), h);
    }

    #[test]
    fn sections_longer_than_the_buffer_round_trip() {
        // Over 2 * BUF_BYTES of neighbors per direction, and an odd
        // edge count, so a u64 checksum word spans two sections.
        let n = 3 * BUF_BYTES / 4 + 1;
        let mut el = EdgeList::new(7);
        for i in 0..n as u32 {
            el.push_weighted(i % 7, (i * 3) % 7, i);
        }
        let g = Csr::from_edge_list(&el);
        assert_eq!(lgr_from_bytes(&lgr_to_bytes(&g), &pool()).unwrap(), g);
    }

    #[test]
    fn corrupt_bytes_are_errors_not_panics() {
        let good = lgr_to_bytes(&weighted_graph());
        // Too short for a header.
        assert!(matches!(
            lgr_from_bytes(&good[..10], &pool()),
            Err(IoError::Format(_))
        ));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(lgr_from_bytes(&bad, &pool()).is_err());
        // Unknown flag bits.
        let mut bad = good.clone();
        bad[8] |= 0x80;
        assert!(lgr_from_bytes(&bad, &pool()).is_err());
        // Truncated payload.
        assert!(lgr_from_bytes(&good[..good.len() - 3], &pool()).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.extend_from_slice(&[0, 1, 2]);
        assert!(lgr_from_bytes(&bad, &pool()).is_err());
        // Flipped payload byte: checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let err = lgr_from_bytes(&bad, &pool()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn absurd_header_counts_error_instead_of_overflowing() {
        // num_vertices near usize::MAX passes the platform check but
        // must fail size arithmetic cleanly, not panic.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&LGR_MAGIC);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // vertices
        bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes()); // edges
        bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum
        let err = lgr_from_bytes(&bytes, &pool()).unwrap_err();
        assert!(
            err.to_string().contains("impossible size") || err.to_string().contains("too large"),
            "{err}"
        );
    }

    #[test]
    fn valid_checksum_but_invalid_structure_is_an_error() {
        // Forge a file whose first out-neighbor ID is out of range and
        // whose checksum is honest, so structural validation must
        // catch it.
        let g = weighted_graph();
        let mut forged = lgr_to_bytes(&g);
        let at = HEADER_BYTES + (g.num_vertices() + 1) * 8;
        forged[at..at + 4].copy_from_slice(&1000u32.to_le_bytes());
        let mut sum = Checksum::new();
        sum.update(&forged[HEADER_BYTES..]);
        forged[32..40].copy_from_slice(&sum.finish().to_le_bytes());
        let err = lgr_from_bytes(&forged, &pool()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_lgr("/nonexistent/definitely/missing.lgr", &pool()).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }
}
