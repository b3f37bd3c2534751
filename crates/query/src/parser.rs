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
//! read by one line scanner: [`scan`] reads a line's `@ts` prefix,
//! directive, ids and labels left to right in one pass over its bytes —
//! tokens split at ASCII whitespace up to the first `#`, ids and timestamps
//! summed eight digits a step as `u32::from_str` / `u64::from_str` would
//! read them — and a [`LabelCache`] turns a label token into a [`LabelId`].

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
/// UTF-8. Also the cursor [`scan`] reads a line with.
#[derive(Clone)]
pub struct Tokens<'a>(&'a [u8]);

/// The length of the token `text` starts with: its bytes up to the first
/// that is not of class 0 in [`CLASS`], or the end.
#[inline(always)]
fn token_len(text: &[u8]) -> usize {
    text.iter().take_while(|&&b| CLASS[usize::from(b)] == 0).count()
}

/// `10^k` for the digits one step of [`Tokens::int`] reads.
const POW10: [u64; 9] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// `0x01` in every byte of a word.
const ONES: u64 = 0x0101_0101_0101_0101;

/// The eight bytes of `text` from `at` as a little-endian word — the byte at
/// `at` lowest — padded with zero bytes past the end.
#[inline(always)]
fn word_at(text: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    match text.get(at..at + 8) {
        Some(eight) => word.copy_from_slice(eight),
        None => {
            let rest = &text[at.min(text.len())..];
            word[..rest.len()].copy_from_slice(rest);
        }
    }
    u64::from_le_bytes(word)
}

/// How many bytes `word` ([`word_at`]) starts with that are ASCII digits,
/// and the number they spell: a byte is a digit unless `b - '0'` borrows
/// (below `'0'`) or `b + 0x46` reaches `0x80` (above `'9'`), and a borrow
/// or carry only ever reaches the bytes after one that is no digit. The
/// digits are then moved to the top of the word, so the bytes below read
/// as leading zeros, and summed in pairs, fours and eights.
#[inline(always)]
fn leading_digits(word: u64) -> (usize, u64) {
    let values = word.wrapping_sub(ONES * u64::from(b'0'));
    let no_digit = (values | word.wrapping_add(ONES * 0x46)) & (ONES * 0x80);
    let k = no_digit.trailing_zeros() as usize / 8;
    if k == 0 {
        return (0, 0);
    }
    let v = values << (8 * (8 - k));
    let v = v * 10 + (v >> 8);
    let pairs = 0x0000_00FF_0000_00FF;
    let high = (v & pairs).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((v >> 16) & pairs).wrapping_mul(1 + (10_000 << 32));
    let v = high.wrapping_add(low) >> 32;
    (k, v)
}

impl<'a> Tokens<'a> {
    /// The tokens of the line `text` starts with.
    pub fn new(text: &'a [u8]) -> Self {
        Tokens(text)
    }

    /// The text after the line, past its `\n`; `None` if it has none. Cheap
    /// once the tokens are drained, which leaves nothing but a comment
    /// before the `\n`.
    fn next_line(&self) -> Option<&'a [u8]> {
        self.0.iter().position(|&b| b == b'\n').map(|i| &self.0[i + 1..])
    }

    /// Moves past the blanks before the next token, and says whether the
    /// line has one.
    #[inline(always)]
    fn at_token(&mut self) -> bool {
        // Fields are most often one space apart.
        if let [b' ', b, ..] = *self.0 {
            if CLASS[usize::from(b)] == 0 {
                self.0 = &self.0[1..];
                return true;
            }
        }
        while let Some((&b, rest)) = self.0.split_first() {
            match CLASS[usize::from(b)] {
                BLANK => self.0 = rest,
                class => return class == 0,
            }
        }
        false
    }

    /// The token at the cursor, maybe empty, read as `u64::from_str` reads
    /// it — an optional `+`, then one or more ASCII digits, at most
    /// `u64::MAX` — in the one walk that finds its end, eight bytes a step:
    /// `Err` holds the token when it is not such a number.
    #[inline(always)]
    fn int(&mut self) -> Result<u64, &'a [u8]> {
        let text = self.0;
        let sign = usize::from(text.first() == Some(&b'+'));
        let (mut k, mut n) = leading_digits(word_at(text, sign));
        let (mut at, mut fits) = (sign + k, true);
        while k == 8 {
            let (more, digits) = leading_digits(word_at(text, at));
            match n.checked_mul(POW10[more]).and_then(|n| n.checked_add(digits)) {
                Some(m) => n = m,
                None => fits = false,
            }
            (k, at) = (more, at + more);
        }
        // The digits must end the token.
        let ends = text.get(at).is_none_or(|&b| CLASS[usize::from(b)] != 0);
        if fits && at > sign && ends {
            self.0 = &text[at..];
            return Ok(n);
        }
        let (token, rest) = text.split_at(at + token_len(&text[at..]));
        self.0 = rest;
        Err(token)
    }

    /// The next token as a vertex id.
    #[inline(always)]
    fn id(&mut self) -> Id {
        if !self.at_token() {
            return Id::Missing;
        }
        match self.int().map(u32::try_from) {
            Ok(Ok(id)) => Id::Valid(id),
            _ => Id::Invalid,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if !self.at_token() {
            // The end of the line, or a comment: stay there.
            return None;
        }
        let (token, rest) = self.0.split_at(token_len(self.0));
        self.0 = rest;
        Some(token)
    }
}

/// A decimal token as `u64::from_str` reads it — an optional `+`, then one
/// or more ASCII digits — or `None`, which includes values past `u64::MAX`.
pub fn parse_u64(token: &[u8]) -> Option<u64> {
    let mut cursor = Tokens(token);
    cursor.int().ok().filter(|_| cursor.0.is_empty())
}

/// [`parse_u64`] for a `u32` id: `None` past `u32::MAX`.
pub fn parse_u32(token: &[u8]) -> Option<u32> {
    parse_u64(token).and_then(|n| u32::try_from(n).ok())
}

/// An id field of a [`Line`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Id {
    /// The line ends before it.
    Missing,
    /// A token that is not a `u32` as `u32::from_str` reads one.
    Invalid,
    /// The id.
    Valid(u32),
}

/// One line of a graph, query or stream file as [`scan`] reads it. Which
/// forms a file may use, and what a field missing or malformed means, is
/// the caller's to say.
#[derive(Clone)]
pub struct Line<'a> {
    /// The first token, with its timestamp, when it starts with `@`: a
    /// stream line's explicit time.
    pub stamp: Option<(&'a [u8], Option<u64>)>,
    /// The directive: the first token after the stamp (`v`, `e`, `+`, `-`
    /// or anything else), `None` on a line with no other token.
    pub op: Option<&'a [u8]>,
    /// The ids the directive takes: one after `v`, two after `e`, `+` and
    /// `-`, none after anything else (`Missing`).
    pub ids: [Id; 2],
    /// The tokens after the ids: a `v` line's labels.
    pub labels: Tokens<'a>,
    /// The first of them: an edge line's label.
    pub label: Option<&'a [u8]>,
    /// True if another token follows `label`.
    pub trailing: bool,
    /// The text after the line's `\n`; `None` if it has none.
    pub next: Option<&'a [u8]>,
}

/// Reads the line `text` starts with: every form of graph, query and stream
/// line — `v id labels…`, `e src dst [label]`, `[@ts] (+|-) src dst label`,
/// comments and blank lines — in one pass over its bytes, left to right.
/// Reads nothing past the line and interns nothing: it has no effects, so a
/// caller may scan a line it cannot take yet and scan it again later.
pub fn scan(text: &[u8]) -> Line<'_> {
    let mut cursor = Tokens(text);
    let mut op = cursor.next();
    let stamp = op.filter(|t| t[0] == b'@').map(|t| (t, Tokens(&t[1..]).int().ok()));
    if stamp.is_some() {
        op = cursor.next();
    }
    let mut ids = [Id::Missing; 2];
    let fields = match op {
        Some(b"v") => 1,
        Some(b"e" | b"+" | b"-") => 2,
        _ => 0,
    };
    for id in &mut ids[..fields] {
        *id = cursor.id();
    }
    let labels = cursor.clone();
    let label = cursor.next();
    let trailing = cursor.at_token();
    if trailing {
        cursor.by_ref().for_each(drop);
    }
    Line { stamp, op, ids, labels, label, trailing, next: cursor.next_line() }
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
        // A byte loop, not `==`: a label is a few bytes, and `==` on bytes
        // calls `memcmp`.
        let same = slot.0.len() == token.len() && slot.0.iter().zip(token).all(|(a, b)| a == b);
        if same && !token.is_empty() {
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
    /// True if some edge is unlabeled.
    unlabeled: bool,
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
    // The highest id an edge names, and whether one is unlabeled: what the
    // whole-file checks and `parse_data_graph` would walk the edges for.
    let (mut top, mut unlabeled) = (None, false);
    let (mut rest, mut lineno) = (text, 0);
    while !rest.is_empty() {
        lineno += 1;
        let line = scan(rest);
        rest = line.next.unwrap_or_default();
        let label =
            |token: &[u8]| cache.intern(interner, token).map_err(|e| err(lineno, e.to_string()));
        let id = |id: Id, missing: &str, invalid: &str| match id {
            Id::Valid(id) => Ok(id),
            Id::Missing => Err(err(lineno, missing)),
            Id::Invalid => Err(err(lineno, invalid)),
        };
        // A stamp is no directive of these formats.
        let directive = line.stamp.map(|(token, _)| token).or(line.op);
        match directive {
            None => {}
            Some(b"v") => {
                let id = id(line.ids[0], "v needs an id", "v id must be an integer")?;
                let labels = line.labels.map(label).collect::<Result<Vec<_>, _>>()?;
                vertices.push((id, lineno, LabelSet::from_labels(labels)));
            }
            Some(b"e") => {
                let src = id(line.ids[0], "e needs a source id", "e source must be an integer")?;
                let bad_dst = "e destination must be an integer";
                let dst = id(line.ids[1], "e needs a destination id", bad_dst)?;
                let label = line.label.map(label).transpose()?;
                if line.trailing {
                    return Err(err(lineno, "trailing tokens after edge"));
                }
                edges.push(EdgeRef::new(VertexId(src), label.unwrap_or(NO_LABEL), VertexId(dst)));
                top = top.max(Some(src.max(dst)));
                unlabeled |= label.is_none();
                if keep_lines {
                    lines.push(lineno);
                }
            }
            Some(other) => {
                let other = String::from_utf8_lossy(other);
                return Err(err(lineno, format!("unknown directive `{other}`")));
            }
        }
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
    let dangling = |_| edges.iter().find(|e| e.src.0 >= n || e.dst.0 >= n);
    if let Some(e) = top.filter(|&top| top >= n).and_then(dangling) {
        let (s, d) = (e.src.0, e.dst.0);
        return Err(err(0, format!("edge ({s},{d}) references undeclared vertex")));
    }
    let vertices = vertices.into_iter().map(|(.., labels)| labels).collect();
    Ok(RawGraph { vertices, edges, lines, unlabeled })
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
    let RawGraph { vertices, mut edges, unlabeled, .. } = parse_raw(text, interner, false)?;
    // The list was sized from the line count; what the `v` lines, comments
    // and blank lines reserved goes back before the bulk build's scratch.
    edges.shrink_to_fit();
    if unlabeled {
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

    /// The scanner sums ids and timestamps eight bytes a step: at every
    /// length up to 24 digits, signed or not, with every kind of byte after
    /// the digits, near the end of the text or not, it reads what
    /// `from_str` reads.
    #[test]
    fn the_scanner_reads_numbers_as_from_str_does_at_every_length() {
        use std::str::FromStr;
        let digits = "98765432109876543210987654321";
        for len in 0..=24 {
            for sign in ["", "+"] {
                for tail in ["", " A", "#", "\n", "x", "\r\n", "5"] {
                    let token = format!("{sign}{}", &digits[digits.len() - len..]);
                    let want_u32 = u32::from_str(&format!("{token}{}", tail.trim_end())).ok();
                    let want_u64 = u64::from_str(&format!("{token}{}", tail.trim_end())).ok();
                    let full = format!("{token}{tail}");
                    let id = match scan(format!("v {full}").as_bytes()).ids[0] {
                        Id::Valid(id) => Some(id),
                        Id::Missing => {
                            assert!(full.trim_end().is_empty() || full.starts_with('#'));
                            None
                        }
                        Id::Invalid => None,
                    };
                    let tail_ends = tail.is_empty() || !tail.starts_with(['x', '5']);
                    let want = if tail_ends { u32::from_str(&token).ok() } else { want_u32 };
                    assert_eq!(id, want, "v {full:?}");
                    let stamp = scan(format!("@{full}").as_bytes()).stamp.and_then(|(_, ts)| ts);
                    let want = if tail_ends { u64::from_str(&token).ok() } else { want_u64 };
                    assert_eq!(stamp, want, "@{full:?}");
                    assert_eq!(parse_u64(full.as_bytes()), u64::from_str(&full).ok(), "{full:?}");
                }
            }
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
