//! Instance I/O: parse and serialize graphs in the two formats the `dclab`
//! CLI accepts.
//!
//! * **Edge list** — one `u v` pair per line, optional first line `n <N>`
//!   to pin the vertex count (isolated tail vertices are otherwise
//!   unrepresentable); `#` starts a comment. Vertices are 0-based.
//! * **DIMACS** — the classic `c` / `p edge <n> <m>` / `e <u> <v>` format
//!   with 1-based vertices.
//!
//! Parsing is strict about shape (every edge line must have exactly two
//! endpoints in range) but forgiving about redundancy: duplicate edges and
//! self-loops are rejected rather than silently dropped, so a round-trip
//! through [`write_edge_list`] / [`parse_edge_list`] is exact.
//!
//! # How the edge list is read
//!
//! [`parse_edge_list`] scans `text.as_bytes()` once. A line of ASCII
//! whitespace and two plain decimal ids (at most 19 digits), optionally
//! followed by a `#` comment, is parsed in place. Any other line — an `n`
//! header, a `+` sign, a longer or malformed token, a third token, a byte
//! ≥ 0x80 (Unicode whitespace such as U+00A0 is a separator) — is re-read
//! by the `str` token rules: `#` strips a comment, `str::trim` and
//! `split_whitespace` split on Unicode whitespace, `str::parse` reads ids.
//! Both paths accept exactly the same lines, so the byte scanner is an
//! optimization, not a second grammar. Edges are staged as `(u32, u32)`
//! pairs and handed to the graph's bulk builder, which counts degrees,
//! fills exact-capacity rows and sorts only rows that arrive unsorted.
//!
//! # Error contract
//!
//! Errors carry the 1-based source line and quote offending tokens as
//! written. The first line-level error wins (bad token, missing or extra
//! token, misplaced header, self-loop, id out of the declared range).
//! After the whole text is read (and, for DIMACS, the `p` line's missing
//! or mismatched edge count is reported), a vertex count that does not fit `u32`
//! (the width of [`Graph`]'s neighbour ids) is reported on the header or
//! `p` line that declared it, or on the first edge whose endpoint needs
//! it. Last comes the duplicate check: it reports the line of the first
//! edge that repeats an earlier one, in either orientation.

use crate::graph::Graph;

/// On-disk instance formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    EdgeList,
    Dimacs,
}

impl Format {
    /// Guess from a file name: `.col`/`.dimacs` → DIMACS, else edge list.
    pub fn from_path(path: &str) -> Format {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".col") || lower.ends_with(".dimacs") {
            Format::Dimacs
        } else {
            Format::EdgeList
        }
    }
}

/// Accepts `edgelist`/`edge-list` and `dimacs`/`col`.
impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "edgelist" | "edge-list" => Ok(Format::EdgeList),
            "dimacs" | "col" => Ok(Format::Dimacs),
            other => Err(format!("unknown format '{other}'")),
        }
    }
}

/// Parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse `text` as `format`.
pub fn parse(text: &str, format: Format) -> Result<Graph, ParseError> {
    match format {
        Format::EdgeList => parse_edge_list(text),
        Format::Dimacs => parse_dimacs(text),
    }
}

/// Serialize `g` as `format`.
pub fn serialize(g: &Graph, format: Format) -> String {
    match format {
        Format::EdgeList => write_edge_list(g),
        Format::Dimacs => write_dimacs(g),
    }
}

/// Largest vertex count a parsed instance may have: [`Graph`] stores
/// neighbour ids as `u32`.
const MAX_VERTICES: u64 = u32::MAX as u64;

/// Parse the edge-list format (0-based, optional `n <N>` header, `#`
/// comments). The vertex count is `max endpoint + 1` unless pinned higher
/// by the header.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    // Sized for ~6-byte lines: longer lines over-reserve a little, the
    // shortest ("0 1\n") grow the vector once.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(text.len() / 6);
    let n = scan_edge_list(text, |_, u, v| edges.push((u, v)))?;
    Graph::from_simple_edges(n, &edges).map_err(|i| {
        let (u, v) = edges[i];
        err(
            nth_edge_line(i, |emit| scan_edge_list(text, emit)),
            format!("duplicate edge {u}-{v}"),
        )
    })
}

/// One edge-list line, as the token rules read it.
enum EdgeLine {
    Blank,
    Header(u64),
    Edge(u64, u64),
}

/// Scan an edge list, passing every edge to `emit(line, u, v)` in order, and
/// return the vertex count. Every line- and token-level check happens here;
/// duplicates are left to the builder.
fn scan_edge_list(text: &str, mut emit: impl FnMut(usize, u32, u32)) -> Result<usize, ParseError> {
    let bytes = text.as_bytes();
    let mut n: Option<(u64, usize)> = None; // (count, header line)
    let mut saw_edge = false;
    let mut max_v = 0u64;
    // First edge whose endpoint needs a vertex count above MAX_VERTICES.
    let mut oversize: Option<(usize, u64)> = None;
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        lineno += 1;
        let start = pos;
        let line = match scan_edge_line_fast(bytes, &mut pos) {
            Some(line) => line,
            None => {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |k| start + k);
                pos = end + 1;
                let header_allowed = !saw_edge && n.is_none();
                edge_line_tokens(&text[start..end], lineno, header_allowed)?
            }
        };
        match line {
            EdgeLine::Blank => {}
            EdgeLine::Header(count) => n = Some((count, lineno)),
            EdgeLine::Edge(u, v) => {
                saw_edge = true;
                if u == v {
                    return Err(err(lineno, format!("self-loop at vertex {u}")));
                }
                let hi = u.max(v);
                if let Some((n, _)) = n {
                    // Header came first (enforced by the token rules).
                    if hi >= n {
                        return Err(err(
                            lineno,
                            format!("endpoint {hi} out of range for declared n = {n}"),
                        ));
                    }
                }
                max_v = max_v.max(hi);
                if hi < MAX_VERTICES {
                    emit(lineno, u as u32, v as u32);
                } else if oversize.is_none() {
                    oversize = Some((lineno, hi));
                }
            }
        }
    }
    // Size errors come last, so every line-level error still wins.
    match n {
        Some((count, line)) if count > MAX_VERTICES => Err(err(
            line,
            format!("vertex count {count} exceeds the u32 limit {MAX_VERTICES}"),
        )),
        Some((count, _)) => Ok(count as usize),
        None => match oversize {
            Some((line, id)) => Err(err(
                line,
                format!("endpoint {id} needs a vertex count above the u32 limit {MAX_VERTICES}"),
            )),
            None if saw_edge => Ok(max_v as usize + 1),
            None => Ok(0),
        },
    }
}

/// The byte-level fast path for one line starting at `*pos`: ASCII
/// whitespace, then either nothing or a `#` comment (blank), or two
/// unsigned decimal ids of at most 19 digits (an edge). On success `*pos`
/// moves past the line's `\n`. Anything else (a header, `+`, a longer or
/// malformed token, a third token, a non-ASCII byte) returns `None` and
/// leaves `*pos` alone, and the line goes through [`edge_line_tokens`].
#[inline]
fn scan_edge_line_fast(bytes: &[u8], pos: &mut usize) -> Option<EdgeLine> {
    let mut i = *pos;
    skip_ascii_space(bytes, &mut i);
    let line = if i == bytes.len() || matches!(bytes[i], b'\n' | b'#') {
        EdgeLine::Blank
    } else {
        let u = ascii_id(bytes, &mut i)?;
        if !bytes.get(i).is_some_and(|&b| is_ascii_space(b)) {
            return None;
        }
        skip_ascii_space(bytes, &mut i);
        let v = ascii_id(bytes, &mut i)?;
        skip_ascii_space(bytes, &mut i);
        if i < bytes.len() && !matches!(bytes[i], b'\n' | b'#') {
            return None;
        }
        EdgeLine::Edge(u, v)
    };
    // Past the comment, if any, and the newline.
    while i < bytes.len() && bytes[i] != b'\n' {
        i += 1;
    }
    *pos = i + 1;
    Some(line)
}

/// The ASCII bytes `char::is_whitespace` accepts, bar `\n` (a line end).
#[inline]
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

#[inline]
fn skip_ascii_space(bytes: &[u8], i: &mut usize) {
    while *i < bytes.len() && is_ascii_space(bytes[*i]) {
        *i += 1;
    }
}

/// Up to 19 ASCII digits at `*i` (so the value cannot overflow `u64`).
#[inline]
fn ascii_id(bytes: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut x = 0u64;
    while *i < bytes.len() && bytes[*i].is_ascii_digit() {
        x = x.wrapping_mul(10).wrapping_add((bytes[*i] - b'0') as u64);
        *i += 1;
    }
    (1..=19).contains(&(*i - start)).then_some(x)
}

/// The token rules for one edge-list line: strip a `#` comment, trim and
/// split on Unicode whitespace, and read ids with `str::parse`, so error
/// messages quote the token as written.
fn edge_line_tokens(
    raw: &str,
    lineno: usize,
    header_allowed: bool,
) -> Result<EdgeLine, ParseError> {
    let line = match raw.find('#') {
        Some(i) => raw[..i].trim(),
        None => raw.trim(),
    };
    if line.is_empty() {
        return Ok(EdgeLine::Blank);
    }
    let mut it = line.split_whitespace();
    let first = it.next().unwrap();
    if first == "n" {
        if !header_allowed {
            return Err(err(lineno, "n header must be the first directive"));
        }
        let v = it
            .next()
            .ok_or_else(|| err(lineno, "n header missing count"))?;
        if it.next().is_some() {
            return Err(err(lineno, "trailing tokens after n header"));
        }
        let count = v
            .parse()
            .map_err(|_| err(lineno, format!("bad vertex count '{v}'")))?;
        return Ok(EdgeLine::Header(count));
    }
    let u = first
        .parse()
        .map_err(|_| err(lineno, format!("bad endpoint '{first}'")))?;
    let v_tok = it
        .next()
        .ok_or_else(|| err(lineno, "edge line needs two endpoints"))?;
    let v = v_tok
        .parse()
        .map_err(|_| err(lineno, format!("bad endpoint '{v_tok}'")))?;
    if it.next().is_some() {
        return Err(err(lineno, "trailing tokens after edge"));
    }
    Ok(EdgeLine::Edge(u, v))
}

/// Source line of the `i`-th emitted edge: re-runs a scan that already
/// succeeded once (the duplicate-edge error path only).
fn nth_edge_line(
    i: usize,
    scan: impl FnOnce(&mut dyn FnMut(usize, u32, u32)) -> Result<usize, ParseError>,
) -> usize {
    let (mut k, mut line) = (0usize, 0usize);
    let _ = scan(&mut |l, _, _| {
        if k == i {
            line = l;
        }
        k += 1;
    });
    line
}

/// Parse the DIMACS `.col` format (1-based `e u v` lines).
///
/// Tolerant of the formatting noise found in real `.col` files: leading and
/// trailing whitespace (including CR from CRLF line endings), blank lines,
/// and `c` comment lines anywhere — before the `p` line, interleaved with
/// `e` lines, or after them — including the glued `cComment text` form.
/// Malformed directives still fail with the exact 1-based source line.
pub fn parse_dimacs(text: &str) -> Result<Graph, ParseError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let n = scan_dimacs(text, |_, u, v| edges.push((u, v)))?;
    Graph::from_simple_edges(n, &edges).map_err(|i| {
        let (u, v) = edges[i];
        err(
            nth_edge_line(i, |emit| scan_dimacs(text, emit)),
            format!("duplicate edge {u}-{v}"),
        )
    })
}

/// Scan a DIMACS file, passing every edge (0-based) to `emit(line, u, v)`
/// in order, and return the vertex count.
fn scan_dimacs(text: &str, mut emit: impl FnMut(usize, u32, u32)) -> Result<usize, ParseError> {
    let mut n: Option<u64> = None;
    let mut declared_m: Option<usize> = None;
    let mut p_line = 1usize;
    let mut listed = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        // Comment lines: `c` as its own token, or glued (`cGraph from ...`).
        if line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next().unwrap() {
            "p" => {
                if n.is_some() {
                    return Err(err(lineno, "duplicate p line"));
                }
                match it.next() {
                    Some("edge") | Some("edges") | Some("col") => {}
                    other => {
                        return Err(err(
                            lineno,
                            format!("expected 'p edge', got 'p {}'", other.unwrap_or("")),
                        ))
                    }
                }
                let nv = it.next().ok_or_else(|| err(lineno, "p line missing n"))?;
                let nm = it.next().ok_or_else(|| err(lineno, "p line missing m"))?;
                n = Some(
                    nv.parse()
                        .map_err(|_| err(lineno, format!("bad n '{nv}'")))?,
                );
                declared_m = Some(
                    nm.parse()
                        .map_err(|_| err(lineno, format!("bad m '{nm}'")))?,
                );
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after p line"));
                }
                p_line = lineno;
            }
            "e" => {
                let n = n.ok_or_else(|| err(lineno, "e line before p line"))?;
                let ut = it.next().ok_or_else(|| err(lineno, "e line missing u"))?;
                let vt = it.next().ok_or_else(|| err(lineno, "e line missing v"))?;
                let u: u64 = ut
                    .parse()
                    .map_err(|_| err(lineno, format!("bad endpoint '{ut}'")))?;
                let v: u64 = vt
                    .parse()
                    .map_err(|_| err(lineno, format!("bad endpoint '{vt}'")))?;
                if u == 0 || v == 0 || u > n || v > n {
                    return Err(err(
                        lineno,
                        format!("endpoint out of range 1..={n}: e {u} {v}"),
                    ));
                }
                if u == v {
                    return Err(err(lineno, format!("self-loop at vertex {u}")));
                }
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after e line"));
                }
                listed += 1;
                // An oversized n fails below; its edges need not be kept.
                if n <= MAX_VERTICES {
                    emit(lineno, (u - 1) as u32, (v - 1) as u32);
                }
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    let n = n.ok_or_else(|| err(text.lines().count().max(1), "missing p line"))?;
    if let Some(m) = declared_m {
        if m != listed {
            return Err(err(
                p_line,
                format!("p line declares {m} edges but {listed} were listed"),
            ));
        }
    }
    if n > MAX_VERTICES {
        return Err(err(
            p_line,
            format!("vertex count {n} exceeds the u32 limit {MAX_VERTICES}"),
        ));
    }
    Ok(n as usize)
}

/// Serialize as the edge-list format (with `n` header, sorted edges).
pub fn write_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.m() * 8);
    out.push_str(&format!("n {}\n", g.n()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Serialize as DIMACS (1-based).
pub fn write_dimacs(g: &Graph) -> String {
    let mut out = String::with_capacity(32 + g.m() * 10);
    out.push_str(&format!("p edge {} {}\n", g.n(), g.m()));
    for (u, v) in g.edges() {
        out.push_str(&format!("e {} {}\n", u + 1, v + 1));
    }
    out
}

/// Read a graph from a file, guessing the format from the extension.
pub fn read_file(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text, Format::from_path(path)).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn edge_list_round_trip() {
        let g = classic::petersen();
        let text = write_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dimacs_round_trip() {
        let g = classic::petersen();
        let text = write_dimacs(&g);
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_without_header_infers_n() {
        let g = parse_edge_list("0 1\n1 2\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
    }

    #[test]
    fn edge_list_header_pins_isolated_vertices() {
        let g = parse_edge_list("n 5\n0 1\n").unwrap();
        assert_eq!((g.n(), g.m()), (5, 1));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_edge_list("# a triangle\nn 3\n\n0 1 # first\n1 2\n0 2\n").unwrap();
        assert!(g.is_complete());
    }

    #[test]
    fn malformed_lines_rejected_with_position() {
        assert_eq!(parse_edge_list("0 1\nx 2\n").unwrap_err().line, 2);
        assert_eq!(parse_edge_list("0\n").unwrap_err().line, 1);
        assert!(parse_edge_list("3 3\n")
            .unwrap_err()
            .message
            .contains("self-loop"));
        let dup = parse_edge_list("0 1\n1 2\n1 0\n").unwrap_err();
        assert!(dup.message.contains("duplicate"));
        assert_eq!(dup.line, 3);
        let range = parse_edge_list("n 2\n0 1\n0 5\n").unwrap_err();
        assert!(range.message.contains("out of range"));
        assert_eq!(range.line, 3);
        // The first repeat is reported, in its own orientation, but a
        // later self-loop or range error still wins over a duplicate.
        let dup = parse_edge_list("n 4\n0 1\n# c\n1 0\n0 1\n").unwrap_err();
        assert_eq!((dup.line, dup.message.as_str()), (4, "duplicate edge 1-0"));
        assert!(parse_edge_list("0 1\n1 0\n2 2\n")
            .unwrap_err()
            .message
            .contains("self-loop"));
        assert_eq!(parse_edge_list("n 3\n0 1\n0 1\n0 7\n").unwrap_err().line, 4);
    }

    #[test]
    fn dimacs_requires_p_line_and_checks_m() {
        assert!(parse_dimacs("e 1 2\n").is_err());
        assert!(parse_dimacs("p edge 3 2\ne 1 2\n").is_err()); // m mismatch
        let g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn dimacs_tolerates_real_world_noise() {
        // Trailing whitespace (spaces, tabs, CR), blank lines, and comment
        // lines — plain and glued — interleaved with the e lines.
        let text = "c generated by dclab \r\n\
                    \n\
                    p edge 4 4   \t\r\n\
                    e 1 2\t\n\
                    cInterleaved glued comment\n\
                    e 2 3   \n\
                    \n\
                    c another one\n\
                    e 3 4\r\n\
                    e 4 1\n\
                    c trailing comment\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!((g.n(), g.m()), (4, 4));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 3) && g.has_edge(3, 0));
    }

    #[test]
    fn dimacs_errors_stay_line_accurate() {
        // Noise lines still count toward the reported line number.
        let bad_e = parse_dimacs("c head\n\np edge 3 2\nc mid\ne 1 2\ne 2 9\n").unwrap_err();
        assert_eq!(bad_e.line, 6);
        assert!(bad_e.message.contains("out of range"));
        let trailing = parse_dimacs("p edge 3 1\ne 1 2 7\n").unwrap_err();
        assert_eq!(trailing.line, 2);
        assert!(trailing.message.contains("trailing tokens"));
        let trailing_p = parse_dimacs("p edge 3 1 extra\n").unwrap_err();
        assert_eq!(trailing_p.line, 1);
        assert!(trailing_p.message.contains("trailing tokens"));
        let dup = parse_dimacs("p edge 3 3\nc x\ne 1 2\ne 2 3\ne 2 1\n").unwrap_err();
        assert_eq!((dup.line, dup.message.as_str()), (5, "duplicate edge 1-0"));
    }

    #[test]
    fn vertex_ids_beyond_u32_are_parse_errors() {
        // Graph stores u32 neighbour ids; these used to ask for >100 GB.
        let e = parse_edge_list("0 1\n0 4294967296\n1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("u32"), "{e}");
        // u32::MAX itself would need 2^32 vertices.
        assert_eq!(parse_edge_list("4294967295 0\n").unwrap_err().line, 1);
        let h = parse_edge_list("# big\nn 4294967296\n0 1\n").unwrap_err();
        assert_eq!(h.line, 2);
        assert!(h.message.contains("u32"), "{h}");
        // Line-level errors later in the file still win, as before.
        let later = parse_edge_list("0 4294967296\nx 1\n").unwrap_err();
        assert_eq!(
            (later.line, later.message.as_str()),
            (2, "bad endpoint 'x'")
        );
        let p = parse_dimacs("c big\np edge 4294967296 1\ne 1 2\n").unwrap_err();
        assert_eq!(p.line, 2);
        assert!(p.message.contains("u32"), "{p}");
        let p = parse_dimacs("p edge 18446744073709551615 0\n").unwrap_err();
        assert_eq!(p.line, 1);
        assert!(p.message.contains("u32"), "{p}");
        // A largest-id endpoint under an oversized header is still checked.
        let range = parse_dimacs("p edge 5000000000 1\ne 1 5000000001\n").unwrap_err();
        assert!(range.message.contains("out of range"), "{range}");
    }

    #[test]
    fn format_names_parse() {
        for (name, want) in [
            ("edgelist", Format::EdgeList),
            ("edge-list", Format::EdgeList),
            ("dimacs", Format::Dimacs),
            ("col", Format::Dimacs),
        ] {
            assert_eq!(name.parse::<Format>(), Ok(want));
        }
        assert_eq!(
            "graphml".parse::<Format>(),
            Err("unknown format 'graphml'".to_string())
        );
        assert!("auto".parse::<Format>().is_err());
    }

    #[test]
    fn format_guess_from_extension() {
        assert_eq!(Format::from_path("foo.col"), Format::Dimacs);
        assert_eq!(Format::from_path("FOO.DIMACS"), Format::Dimacs);
        assert_eq!(Format::from_path("foo.edges"), Format::EdgeList);
        assert_eq!(Format::from_path("foo.txt"), Format::EdgeList);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_edge_list("").unwrap().n(), 0);
        assert_eq!(parse_edge_list("n 4\n").unwrap().n(), 4);
        assert_eq!(parse_dimacs("p edge 0 0\n").unwrap().n(), 0);
    }
}
