//! Text graph loaders: SNAP/TSV edge lists and Matrix Market files.
//!
//! Both loaders parse on a worker [`Pool`]: the byte buffer is split
//! into newline-aligned chunks, and each worker scans its chunk once,
//! finding line ends, skipping blank and comment lines, and decoding
//! integer columns straight from the bytes into edge vectors reserved
//! once from the chunk's length. The chunks concatenate in file order,
//! so the resulting [`EdgeList`] is identical for every thread count
//! (the same determinism contract as the pooled CSR builders).
//!
//! Malformed input returns [`IoError::Format`] with the offending
//! line number; loaders never panic on bad bytes.

use std::ops::Range;
use std::path::Path;

use lgr_graph::{EdgeList, VertexId, Weight};
use lgr_parallel::{par_fill, Pool};

use crate::IoError;

/// One worker's share of parsed lines.
#[derive(Debug, Default)]
struct Chunk {
    edges: Vec<(VertexId, VertexId)>,
    /// Parallel to `edges` when the load is weighted, empty otherwise.
    weights: Vec<Weight>,
    max_id: VertexId,
    /// Lines started in the chunk (or up to and including the error
    /// line), used to turn a chunk-local error line into a global one.
    lines: usize,
    /// Data entries (non-comment, non-empty lines) parsed.
    entries: usize,
    /// First malformed line, as `(chunk-local line index, message)`.
    error: Option<(usize, String)>,
}

/// Splits `text` into up to `parts` ranges whose boundaries fall just
/// after a newline, so no line straddles two chunks.
fn newline_chunks(text: &[u8], parts: usize) -> Vec<Range<usize>> {
    let n = text.len();
    let parts = parts.max(1).min(n.max(1));
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0);
    for p in 1..parts {
        let target = (n * p / parts).max(*bounds.last().expect("non-empty"));
        let next = match text[target..].iter().position(|&b| b == b'\n') {
            Some(i) => target + i + 1,
            None => n,
        };
        if next > *bounds.last().expect("non-empty") {
            bounds.push(next);
        }
    }
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The shortest possible data entry (`"a b\n"` with one-digit IDs)
/// can yield two edges (a mirrored symmetric Matrix Market
/// off-diagonal), so an honest file never produces more than
/// `len / 2` edges. Declared entry counts are checked against this.
const MIN_BYTES_PER_EDGE: usize = 2;

/// Declared or implied vertex counts are bounded by a small multiple
/// of the input's own length: every vertex a text graph names costs
/// at least one byte somewhere, so a 60-byte file declaring 4 billion
/// rows is an allocation bomb, not a dataset. (Graphs with sparse,
/// astronomically-large ID spaces are rejected by policy — they would
/// need ID remapping before CSR construction anyway.)
const MAX_VERTICES_PER_INPUT_BYTE: usize = 8;

/// Rejects a vertex count that would let downstream `O(num_vertices)`
/// CSR/degree allocations dwarf the input that declared it.
fn check_vertex_bound(num_vertices: usize, input_len: usize, what: &str) -> Result<(), IoError> {
    let cap = input_len.saturating_mul(MAX_VERTICES_PER_INPUT_BYTE);
    if num_vertices > cap {
        return Err(IoError::Format(format!(
            "{what} implies {num_vertices} vertices but the input is only {input_len} bytes — \
             refusing an allocation bomb (limit: {MAX_VERTICES_PER_INPUT_BYTE} vertices per \
             input byte)"
        )));
    }
    Ok(())
}

/// The fewest bytes a data line takes, newline included: `a b\n`, or
/// `a b c\n` when a third column is required.
fn min_line_bytes(weighted: bool) -> usize {
    if weighted {
        6
    } else {
        4
    }
}

/// Any run of this many decimal digits fits a `u64`.
const MAX_U64_DIGITS: usize = 19;

/// A token that is not what its column needs.
fn expected(what: &str, token: &[u8]) -> String {
    format!("expected {what}, got `{}`", String::from_utf8_lossy(token))
}

/// Decodes an unsigned integer from exactly the tokens `str::parse`
/// accepts for one: an optional `+`, then one or more ASCII digits,
/// with a value that fits `T`.
fn decode_uint<T: TryFrom<u64>>(token: &[u8]) -> Option<T> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    T::try_from(value).ok()
}

/// A byte cursor over one chunk. A token is a run of bytes that are
/// not ASCII whitespace, and a line ends at `\n` (so a `\r` before it
/// is one more blank): the tokens of a line are the ones
/// `split_ascii_whitespace` would yield.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Skips ASCII whitespace other than `\n` and returns the byte it
    /// stops at (`None` at the end of the chunk).
    fn skip_blanks(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\n' || !b.is_ascii_whitespace() {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// The line's next token, or `None` at its end.
    fn token(&mut self) -> Option<&'a [u8]> {
        self.skip_blanks();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        self.bytes.get(start..self.pos).filter(|t| !t.is_empty())
    }

    /// The line's next token as an unsigned integer: `missing` if the
    /// line has no more tokens, `expected {what}` if the token is not
    /// one.
    fn integer<T: TryFrom<u64>>(&mut self, missing: &str, what: &str) -> Result<T, String> {
        // Fast path, one pass over the token: digits up to a blank, few
        // enough that the value cannot overflow a `u64`.
        self.skip_blanks();
        let mut end = self.pos + usize::from(self.bytes.get(self.pos) == Some(&b'+'));
        let digits = end;
        let mut value = 0u64;
        while let Some(digit) = self.bytes.get(end).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
            end += 1;
        }
        let ended = self.bytes.get(end).is_none_or(u8::is_ascii_whitespace);
        if ended && (1..=MAX_U64_DIGITS).contains(&(end - digits)) {
            if let Ok(v) = T::try_from(value) {
                self.pos = end;
                return Ok(v);
            }
        }
        let token = self.token().ok_or_else(|| missing.to_owned())?;
        decode_uint(token).ok_or_else(|| expected(what, token))
    }

    /// Moves past the end of the current line.
    fn next_line(&mut self) {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| i + 1);
    }
}

/// What one data line yields: up to two weighted edges (Matrix Market
/// symmetric entries mirror off-diagonals), or the line's error.
type LineEdges = Result<[Option<(VertexId, VertexId, Weight)>; 2], String>;

/// Parses one chunk in a single pass over its bytes: blank lines and
/// lines whose first non-blank byte is `#` or `%` are skipped, and
/// `line_to_edges` reads every other line from the cursor. No line
/// yields more than one edge per `min_edge_bytes` bytes, so the edge
/// vectors are reserved once from the chunk's length.
fn parse_chunk<F>(
    text: &[u8],
    range: Range<usize>,
    weighted: bool,
    min_edge_bytes: usize,
    line_to_edges: F,
) -> Chunk
where
    F: Fn(&mut Cursor<'_>) -> LineEdges,
{
    let bytes = text.get(range).unwrap_or_default();
    let bound = (bytes.len() + 1) / min_edge_bytes.max(1);
    let mut chunk = Chunk {
        edges: Vec::with_capacity(bound),
        weights: Vec::with_capacity(if weighted { bound } else { 0 }),
        ..Chunk::default()
    };
    let mut cur = Cursor { bytes, pos: 0 };
    while cur.pos < bytes.len() {
        chunk.lines += 1;
        if !matches!(cur.skip_blanks(), None | Some(b'\n' | b'#' | b'%')) {
            match line_to_edges(&mut cur) {
                Ok(emitted) => {
                    chunk.entries += 1;
                    for (u, v, w) in emitted.into_iter().flatten() {
                        chunk.max_id = chunk.max_id.max(u).max(v);
                        chunk.edges.push((u, v));
                        if weighted {
                            chunk.weights.push(w);
                        }
                    }
                }
                Err(msg) => {
                    chunk.error = Some((chunk.lines, msg));
                    return chunk;
                }
            }
        }
        cur.next_line();
    }
    chunk
}

/// Runs the chunked parallel parse and merges the chunks in file
/// order. `first_line` offsets reported line numbers (for bodies that
/// start after a header).
fn parse_lines<F>(
    text: &[u8],
    pool: &Pool,
    first_line: usize,
    weighted: bool,
    min_edge_bytes: usize,
    line_to_edges: F,
) -> Result<(EdgeList, usize), IoError>
where
    F: Fn(&mut Cursor<'_>) -> LineEdges + Sync,
{
    let ranges = newline_chunks(text, pool.threads());
    let mut chunks: Vec<Chunk> = Vec::new();
    chunks.resize_with(ranges.len(), Chunk::default);
    par_fill(pool, &mut chunks, |j| {
        let range = ranges.get(j).cloned().unwrap_or_default();
        parse_chunk(text, range, weighted, min_edge_bytes, &line_to_edges)
    });
    // Surface the first error in file order, with its global line.
    let mut lines_before = first_line;
    for chunk in &chunks {
        if let Some((local, msg)) = &chunk.error {
            return Err(IoError::Format(format!(
                "line {}: {msg}",
                lines_before + local
            )));
        }
        lines_before += chunk.lines;
    }
    let total_edges: usize = chunks.iter().map(|c| c.edges.len()).sum();
    let entries: usize = chunks.iter().map(|c| c.entries).sum();
    let num_vertices = chunks
        .iter()
        .filter(|c| !c.edges.is_empty())
        .map(|c| c.max_id as usize + 1)
        .max()
        .unwrap_or(0);
    check_vertex_bound(num_vertices, text.len(), "the largest vertex ID")?;
    // The first chunk's vectors become the graph's; the rest append.
    let mut chunks = chunks.into_iter();
    let Chunk {
        mut edges,
        mut weights,
        ..
    } = chunks.next().unwrap_or_default();
    edges.reserve_exact(total_edges - edges.len());
    if weighted {
        weights.reserve_exact(total_edges - weights.len());
    }
    for chunk in chunks {
        edges.extend_from_slice(&chunk.edges);
        weights.extend_from_slice(&chunk.weights);
    }
    edges.shrink_to_fit();
    weights.shrink_to_fit();
    let weights = weighted.then_some(weights);
    Ok((EdgeList::from_parts(num_vertices, edges, weights), entries))
}

/// Parses a SNAP/TSV-style edge list: one `src dst` pair per line
/// (whitespace-separated), `#`/`%` comments and blank lines skipped.
/// Vertex IDs are the integers in the file; the vertex count is
/// `max ID + 1`.
///
/// With `weighted`, a third integer column is required and becomes the
/// edge weight; without it, any extra columns are ignored.
pub fn parse_edge_list(text: &[u8], weighted: bool, pool: &Pool) -> Result<EdgeList, IoError> {
    let (el, _) = parse_lines(text, pool, 0, weighted, min_line_bytes(weighted), |cur| {
        let src: VertexId = cur.integer("missing source vertex", "a vertex ID")?;
        let dst: VertexId = cur.integer("missing destination vertex", "a vertex ID")?;
        let w: Weight = if weighted {
            cur.integer(
                "missing weight column (spec says :weighted)",
                "an integer weight",
            )?
        } else {
            1
        };
        Ok([Some((src, dst, w)), None])
    })?;
    Ok(el)
}

/// [`parse_edge_list`] over a file's bytes.
pub fn load_edge_list(
    path: impl AsRef<Path>,
    weighted: bool,
    pool: &Pool,
) -> Result<EdgeList, IoError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    parse_edge_list(&bytes, weighted, pool).map_err(|e| e.at_path(path))
}

/// Parses a Matrix Market coordinate file
/// (`%%MatrixMarket matrix coordinate <field> <symmetry>`).
///
/// Supported fields: `pattern`, `integer`, `real`; symmetries:
/// `general`, `symmetric` (symmetric mirrors every off-diagonal
/// entry). Entries are 1-indexed; the vertex count is
/// `max(rows, cols)`. With `weighted`, the value column becomes the
/// edge weight (rounded, must be a finite non-negative number), so the
/// field must not be `pattern`; without it, values are ignored.
pub fn parse_matrix_market(text: &[u8], weighted: bool, pool: &Pool) -> Result<EdgeList, IoError> {
    let mut lines = 0usize;
    let mut rest = text;
    let mut next_line = |what: &str| -> Result<&[u8], IoError> {
        loop {
            if rest.is_empty() {
                return Err(IoError::Format(format!(
                    "line {}: missing {what}",
                    lines + 1
                )));
            }
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |i| i + 1);
            let (line, tail) = rest.split_at(end);
            rest = tail;
            lines += 1;
            let line = line.strip_suffix(b"\n").unwrap_or(line);
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if lines == 1 {
                return Ok(line); // the %%MatrixMarket banner
            }
            if line.is_empty() || matches!(line.first(), Some(b'#' | b'%')) {
                continue;
            }
            return Ok(line);
        }
    };

    let banner = next_line("%%MatrixMarket banner")?;
    let banner_str = String::from_utf8_lossy(banner);
    let fields: Vec<String> = banner_str
        .split_ascii_whitespace()
        .map(str::to_ascii_lowercase)
        .collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(IoError::Format(format!(
            "line 1: not a MatrixMarket banner: `{banner_str}`"
        )));
    }
    if fields[2] != "coordinate" {
        return Err(IoError::Format(format!(
            "line 1: only `coordinate` matrices are supported, got `{}`",
            fields[2]
        )));
    }
    let value_field = fields[3].clone();
    if !matches!(value_field.as_str(), "pattern" | "integer" | "real") {
        return Err(IoError::Format(format!(
            "line 1: unsupported field `{value_field}` (expected pattern, integer, or real)"
        )));
    }
    if weighted && value_field == "pattern" {
        return Err(IoError::Format(
            "weighted load requested but the matrix field is `pattern` (no values)".to_owned(),
        ));
    }
    let symmetric = match fields[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(IoError::Format(format!(
                "line 1: unsupported symmetry `{other}` (expected general or symmetric)"
            )))
        }
    };

    let dims = next_line("size line `rows cols nnz`")?;
    let dims_line = lines;
    let parse_dim = |t: Option<&[u8]>| -> Result<usize, IoError> {
        t.and_then(decode_uint).ok_or_else(|| {
            IoError::Format(format!(
                "line {dims_line}: malformed size line `{}` (expected `rows cols nnz`)",
                String::from_utf8_lossy(dims)
            ))
        })
    };
    let mut dtok = Cursor {
        bytes: dims,
        pos: 0,
    };
    let rows = parse_dim(dtok.token())?;
    let cols = parse_dim(dtok.token())?;
    let nnz = parse_dim(dtok.token())?;
    let num_vertices = rows.max(cols);
    if num_vertices > VertexId::MAX as usize {
        return Err(IoError::Format(format!(
            "line {dims_line}: {num_vertices} vertices overflow 32-bit vertex IDs"
        )));
    }
    // Declared metadata is attacker-controlled: bound it against the
    // input's own size before it can drive any allocation. A header
    // declaring dimensions (or an entry count) far beyond what the
    // file could possibly contain is hostile, not sparse.
    check_vertex_bound(num_vertices, text.len(), "the declared size line")?;
    if nnz > text.len() / MIN_BYTES_PER_EDGE + 1 {
        return Err(IoError::Format(format!(
            "line {dims_line}: declared {nnz} entries but the input is only {} bytes — \
             truncated or hostile file",
            text.len()
        )));
    }

    let min_edge_bytes = min_line_bytes(weighted) / if symmetric { 2 } else { 1 };
    let (mut el, entries) = parse_lines(rest, pool, lines, weighted, min_edge_bytes, |cur| {
        let i: usize = cur.integer("missing row index", "a row index")?;
        let j: usize = cur.integer("missing column index", "a column index")?;
        if i < 1 || i > rows || j < 1 || j > cols {
            return Err(format!(
                "entry ({i}, {j}) outside the declared {rows}x{cols} matrix"
            ));
        }
        // Without `weighted`, any value column is left unread.
        let w: Weight = if weighted {
            let token = cur
                .token()
                .ok_or_else(|| "missing value column".to_owned())?;
            let v: f64 = std::str::from_utf8(token)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| expected("a numeric value", token))?;
            if !v.is_finite() || v < 0.0 || v > u32::MAX as f64 {
                return Err(format!(
                    "value `{}` is not a usable edge weight",
                    String::from_utf8_lossy(token)
                ));
            }
            v.round() as Weight
        } else {
            1
        };
        let (u, v) = ((i - 1) as VertexId, (j - 1) as VertexId);
        let mirror = if symmetric && u != v {
            Some((v, u, w))
        } else {
            None
        };
        Ok([Some((u, v, w)), mirror])
    })?;
    if entries != nnz {
        return Err(IoError::Format(format!(
            "expected {nnz} entries, found {entries} — truncated or padded file"
        )));
    }
    // A symmetric matrix can have fewer distinct IDs than declared
    // rows; honor the declared dimensions like real loaders do.
    if el.num_vertices() < num_vertices {
        let (_, edges, weights) = el.into_parts();
        el = EdgeList::from_parts(num_vertices, edges, weights);
    }
    Ok(el)
}

/// [`parse_matrix_market`] over a file's bytes.
pub fn load_matrix_market(
    path: impl AsRef<Path>,
    weighted: bool,
    pool: &Pool,
) -> Result<EdgeList, IoError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    parse_matrix_market(&bytes, weighted, pool).map_err(|e| e.at_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(3)
    }

    #[test]
    fn edge_list_parses_comments_blanks_and_extra_columns() {
        let text = b"# SNAP-style comment\n% mtx-style comment\n\n0 1\n1 2 ignored\n 2 0 \n";
        let el = parse_edge_list(text, false, &pool()).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.edges(), &[(0, 1), (1, 2), (2, 0)]);
        assert!(!el.is_weighted());
    }

    #[test]
    fn edge_list_weighted_requires_third_column() {
        let ok = parse_edge_list(b"0 1 5\n1 0 2\n", true, &pool()).unwrap();
        assert_eq!(ok.weights().unwrap(), &[5, 2]);
        let err = parse_edge_list(b"0 1 5\n1 0\n", true, &pool()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn edge_list_bad_tokens_carry_line_numbers() {
        let err = parse_edge_list(b"0 1\n1 2\nnope 3\n", false, &pool()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn edge_list_is_thread_count_independent() {
        let mut text = Vec::new();
        for i in 0u32..500 {
            text.extend_from_slice(format!("{} {}\n", i % 37, (i * 7) % 37).as_bytes());
        }
        let sequential = parse_edge_list(&text, false, &Pool::new(1)).unwrap();
        for threads in [2, 3, 8] {
            let pooled = parse_edge_list(&text, false, &Pool::new(threads)).unwrap();
            assert_eq!(pooled, sequential, "{threads} threads");
        }
    }

    #[test]
    fn empty_input_is_an_empty_graph() {
        let el = parse_edge_list(b"", false, &pool()).unwrap();
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn matrix_market_general_and_symmetric() {
        let general =
            b"%%MatrixMarket matrix coordinate pattern general\n% comment\n3 3 2\n1 2\n3 1\n";
        let el = parse_matrix_market(general, false, &pool()).unwrap();
        assert_eq!(el.num_vertices(), 3);
        assert_eq!(el.edges(), &[(0, 1), (2, 0)]);

        let symmetric =
            b"%%MatrixMarket matrix coordinate integer symmetric\n3 3 3\n1 2 9\n2 2 4\n3 1 7\n";
        let el = parse_matrix_market(symmetric, true, &pool()).unwrap();
        // Off-diagonals mirrored, diagonal not.
        assert_eq!(el.num_edges(), 5);
        assert!(el.edges().contains(&(1, 0)) && el.edges().contains(&(0, 2)));
        assert_eq!(el.weights().unwrap().iter().sum::<u32>(), 9 + 9 + 4 + 7 + 7);
    }

    #[test]
    fn matrix_market_rejects_malformed_headers() {
        for (text, needle) in [
            (&b"3 3 1\n1 2\n"[..], "banner"),
            (
                &b"%%MatrixMarket matrix array real general\n3 3 1\n"[..],
                "coordinate",
            ),
            (
                &b"%%MatrixMarket matrix coordinate complex general\n3 3 1\n"[..],
                "complex",
            ),
            (
                &b"%%MatrixMarket matrix coordinate real hermitian\n3 3 1\n"[..],
                "hermitian",
            ),
            (
                &b"%%MatrixMarket matrix coordinate real general\nnot a size line\n"[..],
                "size",
            ),
            (
                &b"%%MatrixMarket matrix coordinate real general\n"[..],
                "size",
            ),
        ] {
            let err = parse_matrix_market(text, false, &pool()).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn matrix_market_detects_truncation_and_range_errors() {
        let truncated = b"%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n2 3\n";
        let err = parse_matrix_market(truncated, false, &pool()).unwrap_err();
        assert!(err.to_string().contains("expected 5 entries"), "{err}");

        let out_of_range = b"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n";
        let err = parse_matrix_market(out_of_range, false, &pool()).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");

        let zero_indexed = b"%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 1\n";
        assert!(parse_matrix_market(zero_indexed, false, &pool()).is_err());
    }

    #[test]
    fn matrix_market_weighted_needs_values() {
        let pattern = b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n";
        let err = parse_matrix_market(pattern, true, &pool()).unwrap_err();
        assert!(err.to_string().contains("pattern"), "{err}");

        let real = b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 2.49\n";
        let el = parse_matrix_market(real, true, &pool()).unwrap();
        assert_eq!(el.weights().unwrap(), &[2, 2]);

        let negative = b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -4.0\n";
        assert!(parse_matrix_market(negative, true, &pool()).is_err());
    }

    #[test]
    fn declared_dimensions_win_over_observed_ids() {
        let text = b"%%MatrixMarket matrix coordinate pattern general\n9 9 1\n1 2\n";
        let el = parse_matrix_market(text, false, &pool()).unwrap();
        assert_eq!(el.num_vertices(), 9);
    }
}
