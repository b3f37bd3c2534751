//! `ChooseStartQVertex` (§4.1).
//!
//! To minimize the number of data vertices matching the starting query
//! vertex, the paper first selects the query edge with the smallest number
//! of matching data edges; between its two endpoints it picks the one with
//! fewer matching data vertices, breaking ties by larger degree.

use crate::qgraph::{QVertexId, QueryGraph};
use tfx_graph::DynamicGraph;

/// The number of data edges of `g` matching each query edge, in edge-id
/// order: the one statistic [`choose_start_vertex`] and
/// [`crate::QueryTree::build`] plan from. A count with both endpoints
/// label-constrained is a sweep over every data vertex, so a registration
/// takes the counts once and hands the slice to both.
pub fn matching_edge_counts(q: &QueryGraph, g: &DynamicGraph) -> Vec<usize> {
    q.edges()
        .iter()
        .map(|e| g.matching_edge_count(q.labels(e.src), e.label, q.labels(e.dst)))
        .collect()
}

/// The most selective of `edges` (indices into `counts`, a
/// [`matching_edge_counts`] slice); ties go to the lowest id, for
/// determinism. `None` when `edges` is empty.
///
/// A zero count sorts last, not first: in a continuous setting an edge type
/// with no matches *yet* carries no selectivity information, and rooting the
/// DCG there would leave it empty until the first such edge streams in,
/// forcing full rebuilds (the paper's running example accordingly roots at
/// `u0`, not at the empty `(u3, u4)`).
pub fn most_selective_edge(
    counts: &[usize],
    edges: impl IntoIterator<Item = usize>,
) -> Option<usize> {
    edges.into_iter().min_by_key(|&i| match counts[i] {
        0 => (usize::MAX, i),
        n => (n, i),
    })
}

/// Picks the starting query vertex `u_s` for `q` over the initial data graph
/// `g`, whose [`matching_edge_counts`] are `counts`.
///
/// Panics if the query has no edges.
pub fn choose_start_vertex(q: &QueryGraph, g: &DynamicGraph, counts: &[usize]) -> QVertexId {
    assert!(q.edge_count() > 0, "query must have at least one edge");
    assert_eq!(counts.len(), q.edge_count(), "one count per query edge");

    let best_edge = most_selective_edge(counts, 0..counts.len()).expect("non-empty edge list");
    let e = &q.edges()[best_edge];

    let cnt_src = g.matching_vertex_count(q.labels(e.src));
    let cnt_dst = g.matching_vertex_count(q.labels(e.dst));
    match cnt_src.cmp(&cnt_dst) {
        std::cmp::Ordering::Less => e.src,
        std::cmp::Ordering::Greater => e.dst,
        std::cmp::Ordering::Equal => {
            // Tie: the vertex with the larger degree.
            if q.degree(e.src) >= q.degree(e.dst) {
                e.src
            } else {
                e.dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{LabelId, LabelSet};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn start(q: &QueryGraph, g: &DynamicGraph) -> QVertexId {
        choose_start_vertex(q, g, &matching_edge_counts(q, g))
    }

    /// Figure 1's setup, condensed: (u0,u1) is the most selective query edge
    /// and u0 has larger degree than u1, so u0 is chosen.
    #[test]
    fn picks_selective_edge_then_larger_degree() {
        let mut g = DynamicGraph::new();
        let a0 = g.add_vertex(LabelSet::single(l(0))); // A
        let a1 = g.add_vertex(LabelSet::single(l(0))); // A
        let b = g.add_vertex(LabelSet::single(l(1))); // B
        for _ in 0..10 {
            let c = g.add_vertex(LabelSet::single(l(2))); // C
            g.insert_edge(a0, l(9), c);
        }
        g.insert_edge(a0, l(9), b); // one A->B edge
        g.insert_edge(a1, l(9), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0))); // A, degree 2
        let u1 = q.add_vertex(LabelSet::single(l(1))); // B, degree 1
        let u2 = q.add_vertex(LabelSet::single(l(2))); // C, degree 1
        q.add_edge(u0, u1, None); // 2 matching data edges
        q.add_edge(u0, u2, None); // 10 matching data edges
        let _ = u1;

        // Most selective edge is (u0,u1). A-vertices: 2, B-vertices: 1, so
        // u1 has strictly fewer matches and wins despite lower degree.
        assert_eq!(start(&q, &g), u1);
    }

    #[test]
    fn zero_match_edges_sort_last() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(5), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        let u2 = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(u0, u1, Some(l(5)));
        q.add_edge(u0, u2, Some(l(6)));
        // Edge (u0,u2) has 0 matches but carries no selectivity information
        // in a continuous setting, so the start vertex comes from (u0,u1):
        // u0 and u1 both match one data vertex; the tie goes to u0 (larger
        // query degree).
        assert_eq!(start(&q, &g), u0);
    }

    #[test]
    fn tie_broken_by_degree() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(5), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        let u2 = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(u0, u1, Some(l(5)));
        q.add_edge(u2, u0, Some(l(6)));
        // Counts tie at 1 apiece on (u0,u1); u0 (degree 2) beats u1
        // (degree 1).
        assert_eq!(start(&q, &g), u0);
    }
}
