//! Differential test of the text loaders: on generated edge-list and
//! Matrix Market texts, valid and malformed, the pooled byte-scanning
//! loaders must return exactly what a sequential `split` + `str::parse`
//! reference returns, the same [`EdgeList`] or the same error text
//! with the same line number, at every pool size.

use proptest::prelude::*;

use lgr_graph::EdgeList;
use lgr_io::{parse_edge_list, parse_matrix_market};
use lgr_parallel::Pool;

/// The loaders as they were before the byte scanner: one line at a
/// time through `split` iterators, every token through
/// `str::from_utf8` and `str::parse`, on one thread.
mod reference {
    use std::str::FromStr;

    use lgr_graph::{EdgeList, VertexId, Weight};

    type LineEdges = Result<[Option<(VertexId, VertexId, Weight)>; 2], String>;

    fn is_comment(line: &[u8]) -> bool {
        matches!(line.first(), Some(b'#') | Some(b'%'))
    }

    fn check_vertex_bound(num_vertices: usize, input_len: usize, what: &str) -> Result<(), String> {
        let cap = input_len.saturating_mul(8);
        if num_vertices > cap {
            return Err(format!(
                "{what} implies {num_vertices} vertices but the input is only {input_len} bytes — \
                 refusing an allocation bomb (limit: 8 vertices per input byte)"
            ));
        }
        Ok(())
    }

    fn parse_token<T: FromStr>(token: &[u8], what: &str) -> Result<T, String> {
        std::str::from_utf8(token)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("expected {what}, got `{}`", String::from_utf8_lossy(token)))
    }

    fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
        line.split(|b| b.is_ascii_whitespace())
            .filter(|t| !t.is_empty())
    }

    fn parse_lines(
        text: &[u8],
        first_line: usize,
        weighted: bool,
        line_to_edges: impl Fn(&[u8]) -> LineEdges,
    ) -> Result<(EdgeList, usize), String> {
        let (mut edges, mut weights) = (Vec::new(), Vec::new());
        let (mut max_id, mut entries) = (0, 0);
        for (k, line) in text.split(|&b| b == b'\n').enumerate() {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let trimmed = line
                .iter()
                .position(|b| !b.is_ascii_whitespace())
                .map_or(&b""[..], |s| &line[s..]);
            if trimmed.is_empty() || is_comment(trimmed) {
                continue;
            }
            let emitted = line_to_edges(trimmed)
                .map_err(|msg| format!("line {}: {msg}", first_line + k + 1))?;
            entries += 1;
            for (u, v, w) in emitted.into_iter().flatten() {
                max_id = max_id.max(u).max(v);
                edges.push((u, v));
                weights.push(w);
            }
        }
        let num_vertices = if edges.is_empty() {
            0
        } else {
            max_id as usize + 1
        };
        check_vertex_bound(num_vertices, text.len(), "the largest vertex ID")?;
        let weights = weighted.then_some(weights);
        Ok((EdgeList::from_parts(num_vertices, edges, weights), entries))
    }

    pub fn edge_list(text: &[u8], weighted: bool) -> Result<EdgeList, String> {
        let (el, _) = parse_lines(text, 0, weighted, |line| {
            let mut tokens = tokens(line);
            let src: VertexId =
                parse_token(tokens.next().ok_or("missing source vertex")?, "a vertex ID")?;
            let dst: VertexId = parse_token(
                tokens.next().ok_or("missing destination vertex")?,
                "a vertex ID",
            )?;
            let w: Weight = if weighted {
                parse_token(
                    tokens
                        .next()
                        .ok_or("missing weight column (spec says :weighted)")?,
                    "an integer weight",
                )?
            } else {
                1
            };
            Ok([Some((src, dst, w)), None])
        })?;
        Ok(el)
    }

    pub fn matrix_market(text: &[u8], weighted: bool) -> Result<EdgeList, String> {
        let mut lines = 0usize;
        let mut rest = text;
        let mut next_line = |what: &str| -> Result<&[u8], String> {
            loop {
                if rest.is_empty() {
                    return Err(format!("line {}: missing {what}", lines + 1));
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
                    return Ok(line);
                }
                if line.is_empty() || is_comment(line) {
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
            return Err(format!("line 1: not a MatrixMarket banner: `{banner_str}`"));
        }
        if fields[2] != "coordinate" {
            return Err(format!(
                "line 1: only `coordinate` matrices are supported, got `{}`",
                fields[2]
            ));
        }
        let value_field = fields[3].clone();
        if !matches!(value_field.as_str(), "pattern" | "integer" | "real") {
            return Err(format!(
                "line 1: unsupported field `{value_field}` (expected pattern, integer, or real)"
            ));
        }
        if weighted && value_field == "pattern" {
            return Err(
                "weighted load requested but the matrix field is `pattern` (no values)".to_owned(),
            );
        }
        let symmetric = match fields[4].as_str() {
            "general" => false,
            "symmetric" => true,
            other => {
                return Err(format!(
                    "line 1: unsupported symmetry `{other}` (expected general or symmetric)"
                ))
            }
        };
        let dims = next_line("size line `rows cols nnz`")?;
        let dims_line = lines;
        let parse_dim = |t: Option<&[u8]>| -> Result<usize, String> {
            t.and_then(|t| std::str::from_utf8(t).ok())
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    format!(
                        "line {dims_line}: malformed size line `{}` (expected `rows cols nnz`)",
                        String::from_utf8_lossy(dims)
                    )
                })
        };
        let mut dtok = tokens(dims);
        let rows = parse_dim(dtok.next())?;
        let cols = parse_dim(dtok.next())?;
        let nnz = parse_dim(dtok.next())?;
        let num_vertices = rows.max(cols);
        if num_vertices > VertexId::MAX as usize {
            return Err(format!(
                "line {dims_line}: {num_vertices} vertices overflow 32-bit vertex IDs"
            ));
        }
        check_vertex_bound(num_vertices, text.len(), "the declared size line")?;
        if nnz > text.len() / 2 + 1 {
            return Err(format!(
                "line {dims_line}: declared {nnz} entries but the input is only {} bytes — \
                 truncated or hostile file",
                text.len()
            ));
        }
        let has_values = value_field != "pattern";
        let (mut el, entries) = parse_lines(rest, lines, weighted, |line| {
            let mut tokens = tokens(line);
            let i: usize = parse_token(tokens.next().ok_or("missing row index")?, "a row index")?;
            let j: usize = parse_token(
                tokens.next().ok_or("missing column index")?,
                "a column index",
            )?;
            if i < 1 || i > rows || j < 1 || j > cols {
                return Err(format!(
                    "entry ({i}, {j}) outside the declared {rows}x{cols} matrix"
                ));
            }
            let w: Weight = if weighted {
                let token = tokens.next().ok_or("missing value column")?;
                let v: f64 = parse_token(token, "a numeric value")?;
                if !v.is_finite() || v < 0.0 || v > u32::MAX as f64 {
                    return Err(format!(
                        "value `{}` is not a usable edge weight",
                        String::from_utf8_lossy(token)
                    ));
                }
                v.round() as Weight
            } else {
                if has_values {
                    tokens.next();
                }
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
            return Err(format!(
                "expected {nnz} entries, found {entries} — truncated or padded file"
            ));
        }
        if el.num_vertices() < num_vertices {
            let (_, edges, weights) = el.into_parts();
            el = EdgeList::from_parts(num_vertices, edges, weights);
        }
        Ok(el)
    }
}

/// A splitmix64 stream that a case's text is drawn from.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a [u8]]) -> &'a [u8] {
        items[self.below(items.len())]
    }
}

/// Blanks before a line's first token: `\x0c` is a form feed.
const LEADS: &[&[u8]] = &[b"", b"", b"", b" ", b"\t", b" \x0c "];
/// Separators between tokens. A vertical tab is not ASCII whitespace,
/// so it glues two tokens into one bad token.
const SEPS: &[&[u8]] = &[b" ", b" ", b"\t", b"  ", b" \t ", b"\x0c", b"\r"];
const TRAILS: &[&[u8]] = &[b"", b"", b"", b" ", b"\t", b" \r"];
const EOLS: &[&[u8]] = &[b"\n", b"\n", b"\r\n"];
/// Tokens no integer column accepts, and a few that only some do.
const GARBAGE: &[&[u8]] = &[
    b"-1",
    b"-0",
    b"+",
    b"++1",
    b"+-1",
    b"4294967295",
    b"4294967296",
    b"18446744073709551615",
    b"18446744073709551616",
    b"99999999999999999999999",
    b"1.5",
    b"1e3",
    b"0x10",
    b"abc",
    "\u{e9}".as_bytes(),
    b"\xff7",
    b"7\x0b8",
    b"#",
    b"%",
];
/// Matrix Market values: usable weights first, then ones that are not
/// (negative, not finite, too large, not numbers).
const VALUES: &[&[u8]] = &[
    b"1", b"2.5", b"0", b"7", b"3e0", b"0.49", b"+4", b"-0.0", b"-1", b"nan", b"inf", b"1e20",
    b"abc", b"1,5",
];

/// An integer column's token: mostly small IDs, written plainly or with
/// a `+` or leading zeros, and garbage at a rate set by `spice`.
fn int_token(d: &mut Dice, spice: usize, lo: usize) -> Vec<u8> {
    if spice > 0 && d.one_in([0, 16, 4][spice]) {
        return d.pick(GARBAGE).to_vec();
    }
    let n = lo + d.below(12);
    match d.below(10) {
        0 => format!("+{n}"),
        1 => format!("00{n}"),
        _ => n.to_string(),
    }
    .into_bytes()
}

/// Appends one line: `fields` (joined by random blanks) or, now and
/// then, a blank or comment line instead.
fn push_line(d: &mut Dice, text: &mut Vec<u8>, fields: Vec<Vec<u8>>) {
    text.extend_from_slice(d.pick(LEADS));
    match d.below(12) {
        0 => {}
        1 => {
            text.extend_from_slice(d.pick(&[b"#", b"%"]));
            text.extend_from_slice(b" comment 1 2");
        }
        _ => {
            for (k, field) in fields.iter().enumerate() {
                if k > 0 {
                    text.extend_from_slice(d.pick(SEPS));
                }
                text.extend_from_slice(field);
            }
        }
    }
    text.extend_from_slice(d.pick(TRAILS));
    text.extend_from_slice(d.pick(EOLS));
}

/// Drops the final newline now and then.
fn maybe_unterminate(d: &mut Dice, text: &mut Vec<u8>) {
    if d.one_in(3) {
        while matches!(text.last(), Some(b'\n' | b'\r')) {
            text.pop();
        }
    }
}

/// The number of fields on one line: `cols`, or, on ragged texts, one
/// fewer or one more now and then.
fn line_width(d: &mut Dice, cols: usize, ragged: bool) -> usize {
    if ragged && d.one_in(4) {
        cols + 2 * d.below(2) - 1
    } else {
        cols
    }
}

fn edge_list_text(seed: u64) -> Vec<u8> {
    let d = &mut Dice(seed);
    let (spice, cols, ragged) = (d.below(3), 2 + d.below(2), d.one_in(3));
    let mut text = Vec::new();
    if d.one_in(2) {
        text.extend_from_slice(b"# src dst weight");
        text.extend_from_slice(d.pick(EOLS));
    }
    for _ in 0..d.below(40) {
        let width = line_width(d, cols, ragged);
        let fields = (0..width).map(|_| int_token(d, spice, 0)).collect();
        push_line(d, &mut text, fields);
    }
    maybe_unterminate(d, &mut text);
    text
}

fn matrix_market_text(seed: u64) -> Vec<u8> {
    let d = &mut Dice(seed);
    let spice = [0, 0, 1, 2][d.below(4)];
    let ragged = spice > 0 && d.one_in(3);
    let field = ["pattern", "integer", "real"][d.below(3)];
    let symmetry = ["general", "symmetric"][d.below(2)];
    let mut banner = format!("%%MatrixMarket matrix coordinate {field} {symmetry}");
    if d.one_in(4) {
        banner = banner.to_ascii_uppercase();
    }
    if spice == 2 && d.one_in(4) {
        banner = [
            "%%MatrixMarket matrix array real general",
            "%%MatrixMarket matrix coordinate complex general",
            "%%MatrixMarket matrix coordinate real hermitian",
            "%%MatrixMarket matrix coordinate real",
            "%MatrixMarket matrix coordinate real general",
            "",
        ][d.below(6)]
        .to_owned();
    }
    let (rows, cols) = (1 + d.below(12), 1 + d.below(12));
    let mut body = Vec::new();
    let mut entries = 0;
    for _ in 0..d.below(30) {
        let mut fields = vec![
            index_token(d, spice, rows),
            index_token(d, spice, cols),
            d.pick(&VALUES[..if spice > 0 { VALUES.len() } else { 7 }])
                .to_vec(),
        ];
        fields.truncate(line_width(d, 2 + usize::from(field != "pattern"), ragged));
        // A data line counts as an entry unless it comes out blank or
        // a comment (`push_line` decides; count every non-empty one).
        let before = body.len();
        push_line(d, &mut body, fields);
        let line = &body[before..];
        let first = line.iter().find(|b| !b.is_ascii_whitespace());
        if !matches!(first, None | Some(b'#' | b'%')) {
            entries += 1;
        }
    }
    let nnz = match spice {
        0 => entries,
        _ => entries + d.below(3) - usize::from(entries > 0),
    };
    let mut text = banner.into_bytes();
    text.extend_from_slice(d.pick(EOLS));
    for _ in 0..d.below(3) {
        text.extend_from_slice(d.pick(&[b"% comment", b"", b"%%", b"  % indented"]));
        text.extend_from_slice(d.pick(EOLS));
    }
    let dims = [rows, cols, nnz]
        .map(|n| n.to_string().into_bytes())
        .to_vec();
    push_line(d, &mut text, dims);
    text.extend_from_slice(&body);
    maybe_unterminate(d, &mut text);
    text
}

/// A 1-based index column: mostly in `1..=bound`, sometimes 0 or past
/// the bound, and garbage at a rate set by `spice`.
fn index_token(d: &mut Dice, spice: usize, bound: usize) -> Vec<u8> {
    if spice > 0 && d.one_in(8) {
        return int_token(d, spice, 0);
    }
    (1 + d.below(bound)).to_string().into_bytes()
}

fn shown(text: &[u8]) -> String {
    text.escape_ascii().to_string()
}

/// Checks one loader against its reference at pools of 1, 2 and 3.
fn agree(
    text: &[u8],
    load: impl Fn(&[u8], bool, &Pool) -> Result<EdgeList, lgr_io::IoError>,
    reference: impl Fn(&[u8], bool) -> Result<EdgeList, String>,
) -> Result<(), TestCaseError> {
    for weighted in [false, true] {
        let want = reference(text, weighted);
        for threads in 1..=3 {
            let got = load(text, weighted, &Pool::new(threads)).map_err(|e| e.to_string());
            prop_assert_eq!(
                &got,
                &want,
                "weighted={} threads={} text=\"{}\"",
                weighted,
                threads,
                shown(text)
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn edge_lists_match_the_reference(seed in 0u64..u64::MAX) {
        agree(&edge_list_text(seed), parse_edge_list, reference::edge_list)?;
    }

    #[test]
    fn matrix_market_matches_the_reference(seed in 0u64..u64::MAX) {
        agree(&matrix_market_text(seed), parse_matrix_market, reference::matrix_market)?;
    }
}

/// The generators reach both outcomes often: a differential test whose
/// every case is an error (or every case a graph) compares little.
#[test]
fn generated_texts_mix_graphs_and_errors() {
    for (name, text, reference) in [
        (
            "edge list",
            edge_list_text as fn(u64) -> Vec<u8>,
            reference::edge_list as fn(&[u8], bool) -> Result<EdgeList, String>,
        ),
        (
            "matrix market",
            matrix_market_text,
            reference::matrix_market,
        ),
    ] {
        let (mut ok, mut err) = (0, 0);
        for seed in 0..400 {
            for weighted in [false, true] {
                match reference(&text(seed), weighted) {
                    Ok(el) if el.num_edges() > 0 => ok += 1,
                    Ok(_) => {}
                    Err(_) => err += 1,
                }
            }
        }
        assert!(ok >= 160 && err >= 160, "{name}: {ok} graphs, {err} errors");
    }
}

/// Fixed texts for the corners the generators aim at, so a regression
/// on one of them fails on a named text as well as on a seed.
#[test]
fn named_corners_match_the_reference() {
    let edge_lists: [&[u8]; 12] = [
        b"0 4294967295\n",
        b"0 4294967296\n",
        b"-0 1\n",
        b"+0 +1\n",
        b"0 -1\n",
        b"007\t\x0c008 \r\n",
        b"1 2 3",
        b"1 2\n3\n",
        b"1 \xc3\xa9\n",
        b"  # comment\n\n\t\n% c\n1 2\r\n",
        b"1 2 18446744073709551616\n",
        b"1 2 +\n",
    ];
    for text in edge_lists {
        agree(text, parse_edge_list, reference::edge_list).unwrap();
    }
    let matrices: [&[u8]; 6] = [
        b"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 2 2.5\n3 3 1e0",
        b"%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 1\r\n1 2 -0.0\r\n",
        b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2\n",
        b"%%MatrixMarket matrix coordinate pattern general\n+2 02 1\n\n1 2 9\n",
        b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
        b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 18446744073709551616\n",
    ];
    for text in matrices {
        agree(text, parse_matrix_market, reference::matrix_market).unwrap();
    }
}
