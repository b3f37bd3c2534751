//! A tiny text format for authoring query graphs (and small data graphs) in
//! examples and tests.
//!
//! ```text
//! # Fraud-ring pattern
//! v 0 Account
//! v 1 Account
//! v 2 Card
//! e 0 1 transfer
//! e 1 2 uses
//! e 0 2 uses
//! ```
//!
//! * `v <id> [label ...]` — declares vertex `<id>` with zero or more labels.
//!   Ids must be dense `0..n` but may appear in any order.
//! * `e <src> <dst> [label]` — a directed edge; omitting the label produces
//!   a wildcard query edge.
//! * `#` starts a comment; blank lines are ignored.
//!
//! Both formats here and the stream format (`tfx_stream::FileSource`) are
//! read by one byte-level tokenizer: [`Tokens`] splits a line at ASCII
//! whitespace up to its first `#`, [`parse_u32`] / [`parse_u64`] read ids
//! and timestamps as `u32::from_str` / `u64::from_str` would, and a
//! [`LabelCache`] turns a label token into a [`LabelId`].

use crate::qgraph::{QVertexId, QueryGraph};
use tfx_graph::{DynamicGraph, EdgeRef, LabelId, LabelInterner, LabelLimit, LabelSet, VertexId};

/// A parse failure, with a 1-based line number.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// What each byte is to [`Tokens`]: `BLANK` separates tokens on a line
/// (the ASCII characters `char::is_whitespace` accepts, but `\n`), `STOP`
/// ends a line's tokens (`\n`, and `#`, which starts a comment), anything
/// else is part of a token.
const CLASS: [u8; 256] = {
    let mut class = [0; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b' ' | b'\t' | 0x0B | 0x0C | b'\r' => BLANK,
            b'\n' | b'#' => STOP,
            _ => 0,
        };
        b += 1;
    }
    class
};
const BLANK: u8 = 1;
const STOP: u8 = 2;

/// The tokens of one line of text: its bytes up to the first `\n`, cut at
/// the first `#` and split at the other ASCII whitespace (space, `\t`,
/// `\x0B`, `\x0C`, `\r`). A token is never empty and is not checked for
/// UTF-8.
#[derive(Clone)]
pub struct Tokens<'a>(&'a [u8]);

impl<'a> Tokens<'a> {
    /// The tokens of the line `text` starts with.
    pub fn new(text: &'a [u8]) -> Self {
        Tokens(text)
    }

    /// The text after the line: past its `\n`, empty if it has none. Cheap
    /// once the tokens are drained, which leaves nothing but a comment
    /// before the `\n`.
    pub fn next_line(&self) -> &'a [u8] {
        self.0.iter().position(|&b| b == b'\n').map_or(&[], |i| &self.0[i + 1..])
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        let class = |b: &u8| CLASS[usize::from(*b)];
        let start = self.0.iter().position(|b| class(b) != BLANK).unwrap_or(self.0.len());
        self.0 = &self.0[start..];
        let len = self.0.iter().position(|b| class(b) != 0).unwrap_or(self.0.len());
        if len == 0 {
            // The end of the line, or a comment: stay there.
            return None;
        }
        let (token, rest) = self.0.split_at(len);
        self.0 = rest;
        Some(token)
    }
}

/// A decimal token as `u64::from_str` reads it — an optional `+`, then one
/// or more ASCII digits — or `None`, which includes values past `u64::MAX`.
#[inline]
pub fn parse_u64(token: &[u8]) -> Option<u64> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(n)
}

/// [`parse_u64`] for a `u32` id: `None` past `u32::MAX`.
#[inline]
pub fn parse_u32(token: &[u8]) -> Option<u32> {
    parse_u64(token).and_then(|n| u32::try_from(n).ok())
}

/// Slots of a [`LabelCache`].
const CACHE_SLOTS: usize = 32;

/// Why a token names no label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelError {
    /// The token is not UTF-8.
    NotUtf8,
    /// The token is a new name and the interner holds its limit of names.
    Limit(LabelLimit),
}

impl std::fmt::Display for LabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelError::NotUtf8 => f.write_str("labels must be UTF-8"),
            LabelError::Limit(limit) => limit.fmt(f),
        }
    }
}

/// A token → [`LabelId`] memo in front of a [`LabelInterner`]. A text file
/// names a handful of labels over and over: a hit compares the token with
/// one stored copy where the interner would hash it, and only a miss checks
/// the token for UTF-8, interns it and takes the slot. Direct-mapped on the
/// token's length and end bytes. Use one cache with one interner only.
#[derive(Default)]
pub struct LabelCache([(Vec<u8>, LabelId); CACHE_SLOTS]);

impl LabelCache {
    /// The id of the label `token` spells, interned into `interner` on a
    /// miss; an error if it is not UTF-8 or a name past the interner's
    /// limit.
    #[inline]
    pub fn intern(
        &mut self,
        interner: &mut LabelInterner,
        token: &[u8],
    ) -> Result<LabelId, LabelError> {
        let ends =
            token.first().zip(token.last()).map_or(0, |(&a, &z)| 5 * a as usize + z as usize);
        let slot = &mut self.0[(token.len() + ends) % CACHE_SLOTS];
        if slot.0 == token && !token.is_empty() {
            return Ok(slot.1);
        }
        let name = std::str::from_utf8(token).map_err(|_| LabelError::NotUtf8)?;
        let id = interner.try_intern(name).map_err(LabelError::Limit)?;
        slot.0.clear();
        slot.0.extend_from_slice(token);
        slot.1 = id;
        Ok(id)
    }
}

/// The label an unlabeled `e` line carries through [`RawGraph::edges`].
const NO_LABEL: LabelId = LabelId(u32::MAX);

struct RawGraph {
    /// Label sets by vertex id (ids are validated dense `0..n`).
    vertices: Vec<LabelSet>,
    /// In file order; an unlabeled edge carries [`NO_LABEL`].
    edges: Vec<EdgeRef>,
    /// The declaring line of each edge, when asked for.
    lines: Vec<usize>,
}

/// One pass over `text`: each line's errors in file order, then the
/// smallest id declared twice (at its second declaration), the smallest id
/// missing, and the first edge naming an undeclared vertex.
fn parse_raw(
    text: &str,
    interner: &mut LabelInterner,
    keep_lines: bool,
) -> Result<RawGraph, ParseError> {
    let text = text.as_bytes();
    // At most one edge a line. The newlines are counted per chunk in a `u8`,
    // which cannot overflow there: that count vectorizes.
    let newline = |n: u8, &b: &u8| n + u8::from(b == b'\n');
    let line_count =
        text.chunks(255).map(|c| usize::from(c.iter().fold(0, newline))).sum::<usize>() + 1;
    let mut edges = Vec::with_capacity(line_count);
    // `(id, declaring line, labels)`.
    let mut vertices: Vec<(u32, usize, LabelSet)> = Vec::new();
    let mut lines = Vec::new();
    let mut cache = LabelCache::default();
    let (mut rest, mut lineno) = (text, 0);
    while !rest.is_empty() {
        lineno += 1;
        let mut tokens = Tokens::new(rest);
        let mut label =
            |token: &[u8]| cache.intern(interner, token).map_err(|e| err(lineno, e.to_string()));
        match tokens.next() {
            None => {}
            Some(b"v") => {
                let id = tokens.next().ok_or_else(|| err(lineno, "v needs an id"))?;
                let id = parse_u32(id).ok_or_else(|| err(lineno, "v id must be an integer"))?;
                let mut labels = Vec::new();
                for token in tokens.by_ref() {
                    labels.push(label(token)?);
                }
                vertices.push((id, lineno, LabelSet::from_labels(labels)));
            }
            Some(b"e") => {
                let src = tokens.next().ok_or_else(|| err(lineno, "e needs a source id"))?;
                let src =
                    parse_u32(src).ok_or_else(|| err(lineno, "e source must be an integer"))?;
                let dst = tokens.next().ok_or_else(|| err(lineno, "e needs a destination id"))?;
                let dst = parse_u32(dst)
                    .ok_or_else(|| err(lineno, "e destination must be an integer"))?;
                let label = tokens.next().map(label).transpose()?;
                if tokens.next().is_some() {
                    return Err(err(lineno, "trailing tokens after edge"));
                }
                edges.push(EdgeRef::new(VertexId(src), label.unwrap_or(NO_LABEL), VertexId(dst)));
                if keep_lines {
                    lines.push(lineno);
                }
            }
            Some(other) => {
                let other = String::from_utf8_lossy(other);
                return Err(err(lineno, format!("unknown directive `{other}`")));
            }
        }
        rest = tokens.next_line();
    }
    // Stable, so of two declarations of one id the later line sorts second.
    vertices.sort_by_key(|&(id, ..)| id);
    if let Some(dup) = vertices.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(err(dup[1].1, format!("vertex {} declared twice", dup[1].0)));
    }
    for (expect, &(id, ..)) in vertices.iter().enumerate() {
        if id as usize != expect {
            return Err(err(0, format!("vertex ids must be dense 0..n, missing {expect}")));
        }
    }
    let n = vertices.len() as u32;
    if let Some(e) = edges.iter().find(|e| e.src.0 >= n || e.dst.0 >= n) {
        let (s, d) = (e.src.0, e.dst.0);
        return Err(err(0, format!("edge ({s},{d}) references undeclared vertex")));
    }
    let vertices = vertices.into_iter().map(|(.., labels)| labels).collect();
    Ok(RawGraph { vertices, edges, lines })
}

/// Parses a [`QueryGraph`], interning labels into `interner`.
pub fn parse_query(text: &str, interner: &mut LabelInterner) -> Result<QueryGraph, ParseError> {
    let raw = parse_raw(text, interner, true)?;
    let mut q = QueryGraph::new();
    for labels in raw.vertices {
        q.add_vertex(labels);
    }
    // `QueryGraph::add_edge` asserts on a repeated `(src, dst, label)`; a
    // query file must not be able to reach that (queries are tiny: a scan).
    for (i, (e, &line)) in raw.edges.iter().zip(&raw.lines).enumerate() {
        let (s, d, l) = (e.src.0, e.dst.0, (e.label != NO_LABEL).then_some(e.label));
        if raw.edges[..i].contains(e) {
            let label = l.map_or("*", |l| interner.name(l).unwrap_or("?"));
            return Err(err(line, format!("edge ({s}, {d}, {label}) declared twice")));
        }
        q.add_edge(QVertexId(s), QVertexId(d), l);
    }
    Ok(q)
}

/// Parses a [`DynamicGraph`] from the same format (every edge needs a
/// concrete label here, so unlabeled edges get a synthetic `"_"` label,
/// interned after every label the file names).
pub fn parse_data_graph(
    text: &str,
    interner: &mut LabelInterner,
) -> Result<DynamicGraph, ParseError> {
    let RawGraph { vertices, mut edges, .. } = parse_raw(text, interner, false)?;
    // The list was sized from the line count; what the `v` lines, comments
    // and blank lines reserved goes back before the bulk build's scratch.
    edges.shrink_to_fit();
    if edges.iter().any(|e| e.label == NO_LABEL) {
        let any = interner.try_intern("_").map_err(|e| err(0, format!("label `_`: {e}")))?;
        edges.iter_mut().filter(|e| e.label == NO_LABEL).for_each(|e| e.label = any);
    }
    Ok(DynamicGraph::from_edges(vertices, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_with_labels_and_comments() {
        let mut it = LabelInterner::new();
        let q = parse_query(
            "# fraud ring\n v 0 Account\n v 1 Account Vip\n e 0 1 transfer\n e 1 0\n",
            &mut it,
        )
        .unwrap();
        assert_eq!(q.vertex_count(), 2);
        assert_eq!(q.edge_count(), 2);
        let acct = it.get("Account").unwrap();
        assert!(q.labels(QVertexId(0)).contains(acct));
        assert_eq!(q.labels(QVertexId(1)).len(), 2);
        assert_eq!(q.edge(crate::qgraph::EdgeId(0)).label, it.get("transfer"));
        assert_eq!(q.edge(crate::qgraph::EdgeId(1)).label, None, "wildcard edge");
    }

    #[test]
    fn out_of_order_vertex_ids_ok() {
        let mut it = LabelInterner::new();
        let q = parse_query("v 1 B\nv 0 A\ne 0 1 x\n", &mut it).unwrap();
        assert!(q.labels(QVertexId(0)).contains(it.get("A").unwrap()));
    }

    #[test]
    fn sparse_ids_rejected() {
        let mut it = LabelInterner::new();
        let e = parse_query("v 0 A\nv 2 B\n", &mut it).unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn duplicate_vertex_rejected() {
        let mut it = LabelInterner::new();
        let e = parse_query("v 0 A\nv 0 B\n", &mut it).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn duplicate_vertex_reports_the_second_declaration() {
        // The two declarations of vertex 1 are not adjacent in the file and
        // sit among out-of-order ids; the error names the later line.
        let mut it = LabelInterner::new();
        let e = parse_query("v 2 C\nv 1 B\n# gap\nv 0 A\nv 3 D\nv 1 E\ne 0 1 x\n", &mut it)
            .unwrap_err();
        assert_eq!(e, err(6, "vertex 1 declared twice"));
    }

    #[test]
    fn duplicate_edge_reports_the_second_declaration() {
        let mut it = LabelInterner::new();
        let head = "v 0 A\nv 1 B\n";
        let e = parse_query(&format!("{head}e 0 1 knows\n# gap\ne 0 1 knows\n"), &mut it);
        assert_eq!(e.unwrap_err(), err(5, "edge (0, 1, knows) declared twice"));
        let e = parse_query(&format!("{head}e 0 1\ne 1 0 x\ne 0 1\n"), &mut it);
        assert_eq!(e.unwrap_err(), err(5, "edge (0, 1, *) declared twice"));
        // Parallel edges that differ in label or direction are a query.
        for ok in ["e 0 1 a\ne 0 1 b\n", "e 0 1\ne 1 0\n", "e 0 1\ne 0 1 a\n"] {
            assert_eq!(parse_query(&format!("{head}{ok}"), &mut it).unwrap().edge_count(), 2);
        }
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut it = LabelInterner::new();
        assert!(parse_query("v 0 A\ne 0 3 x\n", &mut it).is_err());
    }

    #[test]
    fn unknown_directive_rejected() {
        let mut it = LabelInterner::new();
        let e = parse_query("q 0\n", &mut it).unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn parses_data_graph() {
        let mut it = LabelInterner::new();
        let g = parse_data_graph("v 0 A\nv 1 B\ne 0 1 rel\ne 1 0\n", &mut it).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(VertexId(0), it.get("rel").unwrap(), VertexId(1)));
        assert!(g.has_edge(VertexId(1), it.get("_").unwrap(), VertexId(0)));
    }

    #[test]
    fn tokens_split_at_ascii_whitespace_up_to_a_comment() {
        fn split(line: &[u8]) -> Vec<&[u8]> {
            Tokens::new(line).collect()
        }
        assert_eq!(split(b"  e\t0 \x0b1\x0cab\r\n"), [&b"e"[..], b"0", b"1", b"ab"]);
        assert_eq!(split(b"v 0 A#B C"), [&b"v"[..], b"0", b"A"]);
        assert_eq!(split(b"# v 0 \xff"), Vec::<&[u8]>::new());
        assert_eq!(split(b"v \xc3\xa9 \xff"), [&b"v"[..], "é".as_bytes(), b"\xff"]);
        assert!(split(b" \t\r\n").is_empty() && split(b"").is_empty());
    }

    #[test]
    fn ids_parse_as_from_str_does() {
        use std::str::FromStr;
        for token in ["0", "+7", "007", "4294967295", "00000000001", "4294967296", "+", ""] {
            assert_eq!(parse_u32(token.as_bytes()), u32::from_str(token).ok(), "{token:?}");
        }
        for token in ["-0", "++1", "1 ", "1e3", "18446744073709551615", "18446744073709551616"] {
            assert_eq!(parse_u64(token.as_bytes()), u64::from_str(token).ok(), "{token:?}");
        }
    }

    #[test]
    fn the_label_cache_agrees_with_the_interner() {
        let (mut it, mut cache) = (LabelInterner::new(), LabelCache::default());
        let names = ["tcp", "udp", "knows", "hasCreator", "a", "b", "ab", "ba", "é"];
        for round in 0..3 {
            for name in names.iter().cycle().skip(round).take(40) {
                let id = cache.intern(&mut it, name.as_bytes()).unwrap();
                assert_eq!(it.name(id), Some(*name));
            }
        }
        assert_eq!(it.len(), names.len());
        assert!(cache.intern(&mut it, b"caf\xe9").is_err());
        assert_eq!(it.len(), names.len(), "a non-UTF-8 token interns nothing");
    }

    #[test]
    fn a_label_past_the_interner_limit_is_a_line_error() {
        let mut it = LabelInterner::with_limit(2);
        let e = parse_data_graph("v 0 A\nv 1 A\ne 0 1 x\ne 1 0 y\n", &mut it);
        assert_eq!(e.unwrap_err(), err(4, "more than 2 distinct labels"));
        let mut it = LabelInterner::with_limit(2);
        let e = parse_data_graph("v 0 A\nv 1 A\ne 0 1 x\ne 1 0\n", &mut it);
        assert_eq!(e.unwrap_err(), err(0, "label `_`: more than 2 distinct labels"));
        let mut it = LabelInterner::with_limit(1);
        let e = parse_query("v 0 A\nv 1 B\ne 0 1\n", &mut it);
        assert_eq!(e.unwrap_err(), err(2, "more than 1 distinct labels"));
    }

    #[test]
    fn whole_file_checks_keep_their_order() {
        let mut it = LabelInterner::new();
        let e = parse_data_graph("v 0\ne 0 9 x\ne 7 0 x\n", &mut it).unwrap_err();
        assert_eq!(e, err(0, "edge (0,9) references undeclared vertex"));
        // A line error anywhere beats every whole-file check, and an id far
        // past the others neither allocates nor hides a duplicate.
        let e = parse_data_graph("v 4294967295\nv 4294967295\nv 0\nq\n", &mut it);
        assert_eq!(e.unwrap_err(), err(4, "unknown directive `q`"));
        let e = parse_data_graph("v 4294967295\nv 0\nv 4294967295\nv 0\n", &mut it);
        assert_eq!(e.unwrap_err(), err(4, "vertex 0 declared twice"));
        let e = parse_data_graph("v 4294967295\nv 1\nv 4294967295\n", &mut it);
        assert_eq!(e.unwrap_err(), err(3, "vertex 4294967295 declared twice"));
        let e = parse_data_graph("v 4294967295\nv 1\nv 0\n", &mut it);
        assert_eq!(e.unwrap_err(), err(0, "vertex ids must be dense 0..n, missing 2"));
    }
}
