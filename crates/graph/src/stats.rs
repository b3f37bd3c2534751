//! Cardinality statistics over a data graph.
//!
//! `ChooseStartQVertex` (§4.1) needs, for a query edge `(u, u')`, the number
//! of data edges matching it, and for a query vertex `u` the number of data
//! vertices matching it. The counts stay **exact** — they feed the start-
//! vertex and spanning-tree choices, which in turn fix delta ordering, so
//! estimates would silently change output — but they are now sourced from
//! the graph's maintained counters and label-partitioned adjacency index
//! instead of full edge-set rescans:
//!
//! * wildcard / single-label vertex counts come from the per-label vertex
//!   counters (O(1)),
//! * label-only edge counts come from the per-label edge counters (O(1)),
//! * endpoint-constrained edge counts walk only the matching side's label
//!   group per vertex instead of filtering every edge in the graph,
//! * whether a vertex's label set contains the query vertex's is decided
//!   once per distinct set the graph stores, not once per vertex and
//!   neighbour: every registration of a fleet asks again over the same
//!   graph, and a graph has a handful of distinct sets.

use crate::dynamic_graph::{Dir, DynamicGraph};
use crate::ids::LabelId;
use crate::labels::LabelSet;

/// Exact matching-cardinality statistics computed from a graph snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats<'g> {
    graph: Option<&'g DynamicGraph>,
}

impl<'g> GraphStats<'g> {
    /// Builds statistics over `graph`.
    pub fn new(graph: &'g DynamicGraph) -> Self {
        GraphStats { graph: Some(graph) }
    }

    fn g(&self) -> &'g DynamicGraph {
        self.graph.expect("GraphStats::default has no graph")
    }

    /// Number of data vertices `v` with `labels ⊆ L(v)`.
    pub fn matching_vertex_count(&self, labels: &LabelSet) -> usize {
        let g = self.g();
        match labels.as_slice() {
            [] => g.vertex_count(),
            [l] => g.vertex_label_count(*l),
            _ => {
                let matches = g.containing(labels);
                g.vertices().filter(|&v| matches(v)).count()
            }
        }
    }

    /// Number of data edges matching a query edge
    /// `(src_labels) -qlabel-> (dst_labels)`; `None` label is a wildcard.
    pub fn matching_edge_count(
        &self,
        src_labels: &LabelSet,
        qlabel: Option<LabelId>,
        dst_labels: &LabelSet,
    ) -> usize {
        let g = self.g();
        let (src_ok, dst_ok) = (g.containing(src_labels), g.containing(dst_labels));
        let (src_free, dst_free) = (src_labels.is_empty(), dst_labels.is_empty());
        match (qlabel, src_free, dst_free) {
            (Some(l), true, true) => g.edge_label_count(l),
            (None, true, true) => g.edge_count(),
            // One end unconstrained: per matching vertex at the other, its
            // whole label group (or degree) toward the free end counts — no
            // per-neighbor test needed.
            (ql, false, true) | (ql, true, false) => {
                let (ok, dir) = if dst_free { (&src_ok, Dir::Out) } else { (&dst_ok, Dir::In) };
                g.vertices()
                    .filter(|&v| ok(v))
                    .map(|v| match ql {
                        Some(l) => g.group(v, dir, l).len(),
                        None => g.degree(v, dir),
                    })
                    .sum()
            }
            // Both ends constrained: walk the source's label group and test
            // each neighbor's labels.
            (Some(l), false, false) => g
                .vertices()
                .filter(|&v| src_ok(v))
                .map(|v| g.group(v, Dir::Out, l).iter().filter(|&&w| dst_ok(w)).count())
                .sum(),
            (None, false, false) => g
                .vertices()
                .filter(|&v| src_ok(v))
                .map(|v| g.neighbors(v, Dir::Out).filter(|&(w, _)| dst_ok(w)).count())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VertexId;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn setup() -> DynamicGraph {
        // v0:A v1:A v2:B v3:(empty)
        let mut g = DynamicGraph::new();
        g.add_vertex(LabelSet::single(l(0)));
        g.add_vertex(LabelSet::single(l(0)));
        g.add_vertex(LabelSet::single(l(1)));
        g.add_vertex(LabelSet::empty());
        g.insert_edge(VertexId(0), l(10), VertexId(2)); // A -10-> B
        g.insert_edge(VertexId(1), l(10), VertexId(2)); // A -10-> B
        g.insert_edge(VertexId(1), l(11), VertexId(3)); // A -11-> ()
        g
    }

    #[test]
    fn vertex_counts() {
        let g = setup();
        let s = GraphStats::new(&g);
        assert_eq!(s.matching_vertex_count(&LabelSet::single(l(0))), 2);
        assert_eq!(s.matching_vertex_count(&LabelSet::single(l(1))), 1);
        assert_eq!(s.matching_vertex_count(&LabelSet::empty()), 4, "wildcard matches all");
        assert_eq!(s.matching_vertex_count(&LabelSet::single(l(9))), 0);
    }

    #[test]
    fn edge_counts() {
        let g = setup();
        let s = GraphStats::new(&g);
        let a = LabelSet::single(l(0));
        let b = LabelSet::single(l(1));
        assert_eq!(s.matching_edge_count(&a, Some(l(10)), &b), 2);
        assert_eq!(s.matching_edge_count(&a, None, &b), 2, "wildcard edge label");
        assert_eq!(s.matching_edge_count(&a, Some(l(11)), &LabelSet::empty()), 1);
        assert_eq!(s.matching_edge_count(&b, Some(l(10)), &a), 0, "direction matters");
        assert_eq!(s.matching_edge_count(&LabelSet::empty(), Some(l(10)), &LabelSet::empty()), 2);
        assert_eq!(s.matching_edge_count(&LabelSet::empty(), None, &LabelSet::empty()), 3);
        assert_eq!(s.matching_edge_count(&LabelSet::empty(), Some(l(10)), &b), 2);
        assert_eq!(s.matching_edge_count(&LabelSet::empty(), None, &b), 2);
        assert_eq!(s.matching_edge_count(&a, None, &LabelSet::empty()), 3);
    }

    #[test]
    fn counts_agree_with_naive_scan_after_updates() {
        let mut g = setup();
        g.delete_edge(VertexId(1), l(10), VertexId(2));
        g.insert_edge(VertexId(2), l(11), VertexId(0));
        let s = GraphStats::new(&g);
        let sets = [LabelSet::empty(), LabelSet::single(l(0)), LabelSet::single(l(1))];
        for src in &sets {
            for dst in &sets {
                for ql in [None, Some(l(10)), Some(l(11))] {
                    let naive = g
                        .edges()
                        .filter(|e| {
                            ql.is_none_or(|q| q == e.label)
                                && src.is_subset_of(g.labels(e.src))
                                && dst.is_subset_of(g.labels(e.dst))
                        })
                        .count();
                    assert_eq!(
                        s.matching_edge_count(src, ql, dst),
                        naive,
                        "src {src:?} ql {ql:?} dst {dst:?}"
                    );
                }
            }
        }
    }
}
