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

use crate::qgraph::{QVertexId, QueryGraph};
use tfx_graph::{DynamicGraph, EdgeRef, LabelInterner, LabelSet, VertexId};

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

struct RawGraph {
    /// Label sets by vertex id (ids are validated dense `0..n`).
    vertices: Vec<LabelSet>,
    /// `(src, dst, label, declaring line)`.
    edges: Vec<(u32, u32, Option<tfx_graph::LabelId>, usize)>,
}

fn parse_raw(text: &str, interner: &mut LabelInterner) -> Result<RawGraph, ParseError> {
    // `(id, declaring line, labels)`.
    let mut vertices: Vec<(u32, usize, LabelSet)> = Vec::new();
    let mut edges = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("v") => {
                let id: u32 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "v needs an id"))?
                    .parse()
                    .map_err(|_| err(lineno, "v id must be an integer"))?;
                let labels: LabelSet = parts.map(|s| interner.intern(s)).collect();
                vertices.push((id, lineno, labels));
            }
            Some("e") => {
                let src: u32 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "e needs a source id"))?
                    .parse()
                    .map_err(|_| err(lineno, "e source must be an integer"))?;
                let dst: u32 = parts
                    .next()
                    .ok_or_else(|| err(lineno, "e needs a destination id"))?
                    .parse()
                    .map_err(|_| err(lineno, "e destination must be an integer"))?;
                let label = parts.next().map(|s| interner.intern(s));
                if parts.next().is_some() {
                    return Err(err(lineno, "trailing tokens after edge"));
                }
                edges.push((src, dst, label, lineno));
            }
            Some(other) => return Err(err(lineno, format!("unknown directive `{other}`"))),
            None => unreachable!(),
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
    for &(s, d, ..) in &edges {
        let n = vertices.len() as u32;
        if s >= n || d >= n {
            return Err(err(0, format!("edge ({s},{d}) references undeclared vertex")));
        }
    }
    Ok(RawGraph { vertices: vertices.into_iter().map(|(.., labels)| labels).collect(), edges })
}

/// Parses a [`QueryGraph`], interning labels into `interner`.
pub fn parse_query(text: &str, interner: &mut LabelInterner) -> Result<QueryGraph, ParseError> {
    let raw = parse_raw(text, interner)?;
    let mut q = QueryGraph::new();
    for labels in raw.vertices {
        q.add_vertex(labels);
    }
    // `QueryGraph::add_edge` asserts on a repeated `(src, dst, label)`; a
    // query file must not be able to reach that (queries are tiny: a scan).
    for (i, &(s, d, l, line)) in raw.edges.iter().enumerate() {
        if raw.edges[..i].iter().any(|&(s0, d0, l0, _)| (s0, d0, l0) == (s, d, l)) {
            let label = l.map_or("*", |l| interner.name(l).unwrap_or("?"));
            return Err(err(line, format!("edge ({s}, {d}, {label}) declared twice")));
        }
        q.add_edge(QVertexId(s), QVertexId(d), l);
    }
    Ok(q)
}

/// Parses a [`DynamicGraph`] from the same format (every edge needs a
/// concrete label here, so unlabeled edges get a synthetic `"_"` label).
pub fn parse_data_graph(
    text: &str,
    interner: &mut LabelInterner,
) -> Result<DynamicGraph, ParseError> {
    let raw = parse_raw(text, interner)?;
    let edges = raw.edges.into_iter().map(|(s, d, l, _)| {
        let label = l.unwrap_or_else(|| interner.intern("_"));
        EdgeRef::new(VertexId(s), label, VertexId(d))
    });
    let edges = edges.collect();
    Ok(DynamicGraph::from_edges(raw.vertices, edges))
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
}
