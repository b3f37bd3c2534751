//! Orientation-aware navigation between the query tree and the data graph.
//!
//! A query-tree edge from parent `P(u)` to child `u` corresponds to a query
//! edge that may be directed either way ([`QueryTree::child_is_target`]).
//! These helpers hide that: the DCG always thinks in terms of
//! (tree-parent data vertex, child query vertex, child data vertex), while
//! the data graph stores directed edges.
//!
//! All candidate enumeration goes through the graph's label-partitioned
//! adjacency index: with a concrete query-edge label and
//! [`AdjacencyMode::Indexed`] only that label's neighbor group is walked
//! (O(log + |group|) instead of O(deg)). [`AdjacencyMode::FlatScan`] forces
//! the pre-index full-list filter — the path `crate::spec` reads through;
//! the engine passes `Indexed` — and both modes yield the same candidates
//! in the same `(label, neighbor)` order.

use tfx_graph::{AdjacencyMode, DynamicGraph, VertexId};
use tfx_query::{QVertexId, QueryGraph, QueryTree};

/// The directed data pair `(src, dst)` backing DCG edge `(pv, u, cv)`.
#[inline]
pub fn data_pair(
    tree: &QueryTree,
    u: QVertexId,
    pv: VertexId,
    cv: VertexId,
) -> (VertexId, VertexId) {
    if tree.child_is_target(u) {
        (pv, cv)
    } else {
        (cv, pv)
    }
}

/// Calls `f` with every data vertex `cv` such that the DCG edge
/// `(pv, u, cv)` is backed by a live data edge. May report a `cv` more than
/// once if parallel data edges match (callers tolerate or dedup).
pub fn for_each_child_candidate(
    g: &DynamicGraph,
    q: &QueryGraph,
    tree: &QueryTree,
    u: QVertexId,
    pv: VertexId,
    mode: AdjacencyMode,
    f: &mut dyn FnMut(VertexId),
) {
    let e = tree.parent_edge(u).expect("non-root vertex has a parent edge");
    let qe = q.edge(e);
    if tree.child_is_target(u) {
        if !q.labels(qe.src).is_subset_of(g.labels(pv)) {
            return;
        }
        let child_labels = q.labels(qe.dst);
        for cv in g.out_neighbors_matching(pv, qe.label, mode) {
            if child_labels.is_subset_of(g.labels(cv)) {
                f(cv);
            }
        }
    } else {
        if !q.labels(qe.dst).is_subset_of(g.labels(pv)) {
            return;
        }
        let child_labels = q.labels(qe.src);
        for cv in g.in_neighbors_matching(pv, qe.label, mode) {
            if child_labels.is_subset_of(g.labels(cv)) {
                f(cv);
            }
        }
    }
}

/// Appends every child candidate of `(u, pv)` (see
/// [`for_each_child_candidate`]) to `buf`, then sorts and dedups the
/// appended tail segment in place. Returns the segment's start index.
///
/// `buf` is a segmented scratch stack: callers iterate `buf[start..]` by
/// index and truncate back to `start` when done, so recursive use never
/// allocates once the stack's high-water capacity is reached.
pub fn collect_child_candidates(
    g: &DynamicGraph,
    q: &QueryGraph,
    tree: &QueryTree,
    u: QVertexId,
    pv: VertexId,
    mode: AdjacencyMode,
    buf: &mut Vec<VertexId>,
) -> usize {
    let start = buf.len();
    let e = tree.parent_edge(u).expect("non-root vertex has a parent edge");
    let qe = q.edge(e);
    if let (Some(label), AdjacencyMode::Indexed) = (qe.label, mode) {
        // Fast path: a concrete-label Indexed lookup yields one adjacency
        // run, which is already sorted and duplicate-free — label-filtering
        // preserves both, so the sort/dedup pass below is skipped entirely.
        let (parent_q, child_q, run) = if tree.child_is_target(u) {
            (qe.src, qe.dst, g.out_neighbors_labeled(pv, label))
        } else {
            (qe.dst, qe.src, g.in_neighbors_labeled(pv, label))
        };
        if !q.labels(parent_q).is_subset_of(g.labels(pv)) {
            return start;
        }
        let child_labels = q.labels(child_q);
        if child_labels.is_empty() {
            buf.extend_from_slice(run.as_id_slice());
        } else {
            for cv in run {
                if child_labels.is_subset_of(g.labels(cv)) {
                    buf.push(cv);
                }
            }
        }
        return start;
    }
    for_each_child_candidate(g, q, tree, u, pv, mode, &mut |w| buf.push(w));
    buf[start..].sort_unstable();
    dedup_tail(buf, start);
    start
}

/// Drops repeats from the sorted segment `buf[start..]` in place
/// (`Vec::dedup` would scan the prefix too).
pub(crate) fn dedup_tail(buf: &mut Vec<VertexId>, start: usize) {
    let mut write = start;
    for read in start..buf.len() {
        if write == start || buf[write - 1] != buf[read] {
            buf[write] = buf[read];
            write += 1;
        }
    }
    buf.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{GraphStats, LabelId, LabelSet};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// Query u0:A -> u1:B and u2:C -> u0:A (u0 is the root, so u2's tree
    /// edge runs against its direction).
    fn setup() -> (DynamicGraph, QueryGraph, QueryTree) {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        let c = g.add_vertex(LabelSet::single(l(2)));
        g.insert_edge(a, l(9), b);
        g.insert_edge(c, l(9), a);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        let u2 = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(u0, u1, Some(l(9)));
        q.add_edge(u2, u0, Some(l(9)));
        let tree = QueryTree::build(&q, u0, &GraphStats::new(&g));
        (g, q, tree)
    }

    #[test]
    fn forward_tree_edge() {
        let (g, q, tree) = setup();
        let u1 = QVertexId(1);
        assert!(tree.child_is_target(u1));
        assert_eq!(data_pair(&tree, u1, VertexId(0), VertexId(1)), (VertexId(0), VertexId(1)));
        for mode in [AdjacencyMode::Indexed, AdjacencyMode::FlatScan] {
            let mut kids = Vec::new();
            for_each_child_candidate(&g, &q, &tree, u1, VertexId(0), mode, &mut |v| kids.push(v));
            assert_eq!(kids, vec![VertexId(1)], "{mode:?}");
        }
    }

    #[test]
    fn reversed_tree_edge() {
        let (g, q, tree) = setup();
        let u2 = QVertexId(2);
        assert!(!tree.child_is_target(u2), "query edge is u2 -> u0");
        // DCG edge (a, u2, c): parent side is a (matches u0), child c.
        assert_eq!(data_pair(&tree, u2, VertexId(0), VertexId(2)), (VertexId(2), VertexId(0)));
        for mode in [AdjacencyMode::Indexed, AdjacencyMode::FlatScan] {
            let mut kids = Vec::new();
            for_each_child_candidate(&g, &q, &tree, u2, VertexId(0), mode, &mut |v| kids.push(v));
            assert_eq!(kids, vec![VertexId(2)], "{mode:?}");
        }
    }

    #[test]
    fn collect_candidates_dedups_tail_segment_only() {
        let (mut g, q, tree) = setup();
        // Add a parallel edge so vertex 1 is reported twice by the
        // callback-based enumeration.
        g.insert_edge(VertexId(0), l(9), VertexId(1));
        let u1 = QVertexId(1);
        let mut buf = vec![VertexId(77)]; // pre-existing segment below
        let start = collect_child_candidates(
            &g,
            &q,
            &tree,
            u1,
            VertexId(0),
            AdjacencyMode::Indexed,
            &mut buf,
        );
        assert_eq!(start, 1);
        assert_eq!(&buf[start..], &[VertexId(1)], "parallel edges deduped");
        assert_eq!(buf[0], VertexId(77), "prefix untouched");
        buf.truncate(start);
        assert_eq!(buf, vec![VertexId(77)]);
    }

    #[test]
    fn label_mismatch_yields_nothing() {
        let (g, q, tree) = setup();
        let u1 = QVertexId(1);
        let mut kids = Vec::new();
        // pv = c (labeled C, not A): parent-side label check fails.
        for_each_child_candidate(
            &g,
            &q,
            &tree,
            u1,
            VertexId(2),
            AdjacencyMode::Indexed,
            &mut |v| kids.push(v),
        );
        assert!(kids.is_empty());
    }

    #[test]
    fn wildcard_query_edge_enumerates_all_labels() {
        // Query u0 -> u1 with no edge label: both access modes must walk
        // every label group.
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        let c = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(8), b);
        g.insert_edge(a, l(9), c);
        g.insert_edge(a, l(9), b); // parallel to the l(8) edge

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(u0, u1, None);
        let tree = QueryTree::build(&q, u0, &GraphStats::new(&g));
        for mode in [AdjacencyMode::Indexed, AdjacencyMode::FlatScan] {
            let mut kids = Vec::new();
            for_each_child_candidate(&g, &q, &tree, QVertexId(1), a, mode, &mut |v| kids.push(v));
            assert_eq!(kids, vec![b, b, c], "{mode:?}: per-entry reporting, (label, id) order");
        }
    }
}
