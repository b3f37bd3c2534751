//! The query (pattern) graph.

use tfx_graph::{DynamicGraph, LabelId, LabelSet, VertexId};

/// Identifier of a query vertex (`u` in the paper). Dense `0..|V(q)|`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QVertexId(pub u32);

/// Identifier of a query edge. Dense `0..|E(q)|`; doubles as the paper's
/// total order `<` over query edges used for duplicate-free reporting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct EdgeId(pub u32);

impl QVertexId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for QVertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl std::fmt::Display for QVertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A directed query edge with an optional label (`None` matches any data
/// edge label).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QEdge {
    /// Source query vertex.
    pub src: QVertexId,
    /// Destination query vertex.
    pub dst: QVertexId,
    /// Edge label; `None` is a wildcard.
    pub label: Option<LabelId>,
}

impl QEdge {
    /// The endpoint opposite to `u`; `None` if `u` is not an endpoint.
    pub fn other(&self, u: QVertexId) -> Option<QVertexId> {
        if self.src == u {
            Some(self.dst)
        } else if self.dst == u {
            Some(self.src)
        } else {
            None
        }
    }
}

/// A small directed, labeled pattern graph.
///
/// Self-loops are allowed; duplicate edges (same `src`, `dst`, `label`) are
/// rejected by [`QueryGraph::add_edge`].
#[derive(Clone, Default, Debug)]
pub struct QueryGraph {
    labels: Vec<LabelSet>,
    edges: Vec<QEdge>,
    out_adj: Vec<Vec<(QVertexId, EdgeId)>>,
    in_adj: Vec<Vec<(QVertexId, EdgeId)>>,
}

impl QueryGraph {
    /// An empty query graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a query vertex with the given label set.
    pub fn add_vertex(&mut self, labels: LabelSet) -> QVertexId {
        let id = QVertexId(self.labels.len() as u32);
        self.labels.push(labels);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge. Panics on duplicate `(src, dst, label)`.
    pub fn add_edge(&mut self, src: QVertexId, dst: QVertexId, label: Option<LabelId>) -> EdgeId {
        assert!(src.index() < self.labels.len() && dst.index() < self.labels.len());
        let e = QEdge { src, dst, label };
        assert!(!self.edges.contains(&e), "duplicate query edge {e:?}");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(e);
        self.out_adj[src.index()].push((dst, id));
        self.in_adj[dst.index()].push((src, id));
        id
    }

    /// Number of query vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of query edges (the paper's query *size*, counted in triples).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The label set of query vertex `u`.
    #[inline]
    pub fn labels(&self, u: QVertexId) -> &LabelSet {
        &self.labels[u.index()]
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &QEdge {
        &self.edges[e.index()]
    }

    /// All edges in id order.
    #[inline]
    pub fn edges(&self) -> &[QEdge] {
        &self.edges
    }

    /// Out-adjacency of `u`: `(neighbor, edge id)` pairs.
    #[inline]
    pub fn out_adj(&self, u: QVertexId) -> &[(QVertexId, EdgeId)] {
        &self.out_adj[u.index()]
    }

    /// In-adjacency of `u`: `(neighbor, edge id)` pairs.
    #[inline]
    pub fn in_adj(&self, u: QVertexId) -> &[(QVertexId, EdgeId)] {
        &self.in_adj[u.index()]
    }

    /// Undirected degree of `u` (self-loops count twice).
    pub fn degree(&self, u: QVertexId) -> usize {
        self.out_adj[u.index()].len() + self.in_adj[u.index()].len()
    }

    /// Iterates over all query vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = QVertexId> + '_ {
        (0..self.labels.len() as u32).map(QVertexId)
    }

    /// True iff the query graph is weakly connected (required by every
    /// engine; disconnected patterns would need a Cartesian product).
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![QVertexId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(w, _) in self.out_adj(u).iter().chain(self.in_adj(u).iter()) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Def. 1 edge match: does the data edge `(v, l, v')` match the query
    /// edge `e = (u, u')`? Checks the edge label and both endpoint label
    /// sets; a self-loop query edge only matches a data self-loop (both
    /// endpoints are images of the same query vertex).
    pub fn edge_matches(
        &self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
    ) -> bool {
        let qe = self.edge(e);
        (qe.src != qe.dst || src == dst)
            && qe.label.is_none_or(|ql| ql == label)
            && self.labels(qe.src).is_subset_of(g.labels(src))
            && self.labels(qe.dst).is_subset_of(g.labels(dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelId;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// Builds the paper's Figure 1a query: u0:A with children u1:B, u2:C,
    /// u3:C; u3 -> u4:E; plus vertex u5:D hanging off u2 (tree query used in
    /// Fig. 4 has a similar shape).
    fn fig1_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0))); // A
        let u1 = q.add_vertex(LabelSet::single(l(1))); // B
        let u2 = q.add_vertex(LabelSet::single(l(2))); // C
        let u3 = q.add_vertex(LabelSet::single(l(2))); // C
        let u4 = q.add_vertex(LabelSet::single(l(4))); // E
        q.add_edge(u0, u1, None);
        q.add_edge(u0, u2, None);
        q.add_edge(u0, u3, None);
        q.add_edge(u3, u4, None);
        q
    }

    #[test]
    fn build_and_accessors() {
        let q = fig1_query();
        assert_eq!(q.vertex_count(), 5);
        assert_eq!(q.edge_count(), 4);
        assert_eq!(q.degree(QVertexId(0)), 3);
        assert_eq!(q.degree(QVertexId(3)), 2);
        assert_eq!(q.out_adj(QVertexId(0)).len(), 3);
        assert_eq!(q.in_adj(QVertexId(4)).len(), 1);
        assert!(q.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let mut q = QueryGraph::new();
        q.add_vertex(LabelSet::empty());
        q.add_vertex(LabelSet::empty());
        assert!(!q.is_connected());
    }

    #[test]
    fn edge_other_endpoint() {
        let q = fig1_query();
        let e = q.edge(EdgeId(3));
        assert_eq!(e.other(QVertexId(3)), Some(QVertexId(4)));
        assert_eq!(e.other(QVertexId(4)), Some(QVertexId(3)));
        assert_eq!(e.other(QVertexId(0)), None);
    }

    #[test]
    fn edge_matches_checks_labels() {
        let q = fig1_query();
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        let c = g.add_vertex(LabelSet::single(l(2)));
        // edge 0 = (u0:A, u1:B)
        assert!(q.edge_matches(&g, EdgeId(0), a, l(9), b));
        assert!(!q.edge_matches(&g, EdgeId(0), a, l(9), c), "dst label mismatch");
        assert!(!q.edge_matches(&g, EdgeId(0), b, l(9), a), "src label mismatch");
    }

    #[test]
    #[should_panic(expected = "duplicate query edge")]
    fn duplicate_edge_rejected() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        q.add_edge(a, b, None);
        q.add_edge(a, b, None);
    }
}
