//! Shared helpers for the baseline engines.

use rustc_hash::FxHashSet;
use tfx_graph::{DynamicGraph, LabelId, VertexId};
use tfx_query::{Deadline, EdgeId, MatchRecord, MatchSemantics, QueryGraph};

/// Ids of the query edges matching the data edge `(src, label, dst)`
/// (labels of endpoints + edge label, self-loop rule included).
pub fn matching_query_edges(
    g: &DynamicGraph,
    q: &QueryGraph,
    src: VertexId,
    label: LabelId,
    dst: VertexId,
) -> Vec<EdgeId> {
    (0..q.edge_count() as u32)
        .map(EdgeId)
        .filter(|&e| q.edge_matches(g, e, src, label, dst))
        .collect()
}

/// Every match of `q` in `g`, as a set, or `None` once `deadline` cut the
/// enumeration short (probed once per match). The engines that match a
/// whole graph per update (IncIsoMat, the naive recompute) enumerate
/// through it.
pub fn match_set_within(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
    deadline: &Deadline,
) -> Option<FxHashSet<MatchRecord>> {
    let mut out = FxHashSet::default();
    let res = tfx_match::enumerate_matches(g, q, semantics, &mut |m| {
        out.insert(m.clone());
        !deadline.exceeded()
    });
    res.completed.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;
    use tfx_query::QVertexId;

    #[test]
    fn matching_edges_respect_all_filters() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(LabelId(0)));
        let b = g.add_vertex(LabelSet::single(LabelId(1)));
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(LabelId(0)));
        let u1 = q.add_vertex(LabelSet::single(LabelId(1)));
        q.add_edge(u0, u1, Some(LabelId(5))); // e0
        q.add_edge(u0, u1, None); // e1 wildcard
        q.add_edge(u1, u0, Some(LabelId(5))); // e2 wrong direction
        q.add_edge(u0, u0, Some(LabelId(5))); // e3 self loop
        let _ = (u0, u1);
        let es = matching_query_edges(&g, &q, a, LabelId(5), b);
        assert_eq!(es, vec![EdgeId(0), EdgeId(1)]);
        let es = matching_query_edges(&g, &q, a, LabelId(6), b);
        assert_eq!(es, vec![EdgeId(1)], "only the wildcard edge");
        let _ = QVertexId(0);
    }
}
