//! A declarative reference implementation of the DCG (§3.1–3.2).
//!
//! The edge transition model (Transitions 0–5 evaluated to a fixpoint by
//! `EL`, Algorithm 1) maintains exactly the edge set characterized by
//! Definitions 4 and 5. This module computes that characterization from
//! scratch:
//!
//! * an edge `(v, u', v')` is **stored** (non-NULL) iff a live data edge
//!   backs it *and* `v` can be reached from a start vertex along backed
//!   edges (`∃ v_s → v.v'` matching `u_s → P(u').u'`);
//! * it is **explicit** iff additionally every child `u''` of `u'` has some
//!   explicit edge `(v', u'', w)` (computed leaf-up; children are strictly
//!   deeper in the query tree, so one reverse-depth pass reaches the
//!   fixpoint).
//!
//! The optimized engine must produce a DCG equal to this reference after
//! every update — the property is exercised by the core test-suite and the
//! cross-crate property tests.

use std::collections::{BTreeMap, HashSet};
use tfx_graph::{Dir, DynamicGraph, VertexId};
use tfx_query::{QVertexId, QueryGraph, QueryTree};

use crate::dcg::EdgeState;

/// A canonical DCG image: `(parent, query vertex, child) → state`, with
/// `None` as the artificial start vertex `v_s*`.
pub type DcgImage = BTreeMap<(Option<VertexId>, u32, VertexId), EdgeState>;

/// Computes the reference DCG of `g` for the query tree `tree` of `q`.
pub fn reference_dcg(g: &DynamicGraph, q: &QueryGraph, tree: &QueryTree) -> DcgImage {
    let nq = q.vertex_count();
    let root = tree.root();

    // Phase 1 (downward): candidate sets = vertices with ≥1 non-NULL
    // incoming edge per query vertex, and the non-NULL edge list.
    let mut cand: Vec<HashSet<VertexId>> = vec![HashSet::new(); nq];
    for v in g.vertices() {
        if q.labels(root).is_subset_of(g.labels(v)) {
            cand[root.index()].insert(v);
        }
    }
    let mut edges: Vec<(Option<VertexId>, u32, VertexId)> =
        cand[root.index()].iter().map(|&v| (None, root.0, v)).collect();
    // Candidates are read apart from the engine's reader (`Dcg::run`), through
    // the flat-scan access path, so checking the engine cross-validates the
    // label-partitioned index against an independent enumeration.
    for &u in &tree.bfs_order()[1..] {
        let parent = tree.parent(u).expect("non-root");
        let parents: Vec<VertexId> = cand[parent.index()].iter().copied().collect();
        for pv in parents {
            let mut seen = HashSet::new();
            for_each_child_candidate(g, q, tree, u, pv, &mut |cv| {
                if seen.insert(cv) {
                    edges.push((Some(pv), u.0, cv));
                    cand[u.index()].insert(cv);
                }
            });
        }
    }

    // Phase 2 (upward): explicit iff every child query vertex has an
    // explicit out-edge from the child data vertex. Children are deeper, so
    // processing edges by descending child depth suffices.
    let mut image = DcgImage::new();
    let mut has_expl_out: HashSet<(VertexId, u32)> = HashSet::new();
    let mut by_depth: Vec<Vec<(Option<VertexId>, u32, VertexId)>> = Vec::new();
    for e in edges {
        let d = tree.depth(QVertexId(e.1)) as usize;
        if by_depth.len() <= d {
            by_depth.resize(d + 1, Vec::new());
        }
        by_depth[d].push(e);
    }
    for level in by_depth.iter().rev() {
        for &(pv, u, cv) in level {
            let uq = QVertexId(u);
            let all_children_explicit =
                tree.children(uq).iter().all(|&uc| has_expl_out.contains(&(cv, uc.0)));
            let st = if all_children_explicit {
                if let Some(p) = pv {
                    has_expl_out.insert((p, u));
                }
                EdgeState::Explicit
            } else {
                EdgeState::Implicit
            };
            image.insert((pv, u, cv), st);
        }
    }
    image
}

/// Calls `f` with every data vertex `cv` such that a live data edge matching
/// the tree edge into `u` joins `pv` and `cv`, both endpoints' labels
/// matching, in `(label, id)` order: once per parallel edge. It walks every
/// neighbor and tests the label itself, so it never reads the label lookup
/// (the engine's `DynamicGraph::group`) it cross-validates.
fn for_each_child_candidate(
    g: &DynamicGraph,
    q: &QueryGraph,
    tree: &QueryTree,
    u: QVertexId,
    pv: VertexId,
    f: &mut dyn FnMut(VertexId),
) {
    let qe = q.edge(tree.parent_edge(u).expect("non-root vertex has a parent edge"));
    let (parent, child, dir) = if tree.child_is_target(u) {
        (qe.src, qe.dst, Dir::Out)
    } else {
        (qe.dst, qe.src, Dir::In)
    };
    if !q.labels(parent).is_subset_of(g.labels(pv)) {
        return;
    }
    for (cv, label) in g.neighbors(pv, dir) {
        if qe.label.is_none_or(|l| l == label) && q.labels(child).is_subset_of(g.labels(cv)) {
            f(cv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{GraphStats, LabelId, LabelSet};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// The paper's Figure 4 query: u0:A -> u1:B -> u4:E, u0 -> u2:C -> u5:D,
    /// u0 -> u3:C. Data (Fig. 4a, g0): v0:A -> v2:C -> v6:D, v0 -> v3:C,
    /// v1:A -> v4:E... simplified to the initial snapshot (Fig. 4c):
    /// v0:A, v1:B, v2:C, v3:C, v4:E, v6:D with edges v0->v2, v2->v6, v0->v3,
    /// v1->v4 (v0->v1 is the edge inserted later).
    fn fig4() -> (DynamicGraph, QueryGraph, QueryTree) {
        let mut g = DynamicGraph::new();
        let v0 = g.add_vertex(LabelSet::single(l(0))); // A
        let v1 = g.add_vertex(LabelSet::single(l(1))); // B
        let v2 = g.add_vertex(LabelSet::single(l(2))); // C
        let v3 = g.add_vertex(LabelSet::single(l(2))); // C
        let v4 = g.add_vertex(LabelSet::single(l(4))); // E
        let _v5 = g.add_vertex(LabelSet::empty());
        let v6 = g.add_vertex(LabelSet::single(l(3))); // D
        g.insert_edge(v0, l(9), v2);
        g.insert_edge(v2, l(9), v6);
        g.insert_edge(v0, l(9), v3);
        g.insert_edge(v1, l(9), v4);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0))); // A
        let u1 = q.add_vertex(LabelSet::single(l(1))); // B
        let u2 = q.add_vertex(LabelSet::single(l(2))); // C
        let u3 = q.add_vertex(LabelSet::single(l(2))); // C
        let u4 = q.add_vertex(LabelSet::single(l(4))); // E
        let u5 = q.add_vertex(LabelSet::single(l(3))); // D
        q.add_edge(u0, u1, Some(l(9)));
        q.add_edge(u0, u2, Some(l(9)));
        q.add_edge(u0, u3, Some(l(9)));
        q.add_edge(u1, u4, Some(l(9)));
        q.add_edge(u2, u5, Some(l(9)));
        let stats = GraphStats::new(&g);
        let tree = QueryTree::build(&q, u0, &stats);
        (g, q, tree)
    }

    #[test]
    fn fig4_initial_dcg_states() {
        let (g, q, tree) = fig4();
        let image = reference_dcg(&g, &q, &tree);
        let v = VertexId;
        // v0 is a start candidate: root edge implicit (u1 branch unmatched).
        assert_eq!(image.get(&(None, 0, v(0))), Some(&EdgeState::Implicit));
        // (v0, u2, v2) explicit: subtree u5 matched by v6.
        assert_eq!(image.get(&(Some(v(0)), 2, v(2))), Some(&EdgeState::Explicit));
        assert_eq!(image.get(&(Some(v(2)), 5, v(6))), Some(&EdgeState::Explicit));
        // (v0, u3, v3) explicit (u3 is a leaf), and v3 also matches u2 but
        // has no D child so (v0, u2, v3) is implicit.
        assert_eq!(image.get(&(Some(v(0)), 3, v(3))), Some(&EdgeState::Explicit));
        assert_eq!(image.get(&(Some(v(0)), 2, v(3))), Some(&EdgeState::Implicit));
        assert_eq!(image.get(&(Some(v(0)), 3, v(2))), Some(&EdgeState::Explicit));
        // v1 matches B but is not reachable from a start vertex: no edge
        // (v1, u4, v4) and no root edge for v1.
        assert_eq!(image.get(&(Some(v(1)), 4, v(4))), None);
        assert_eq!(image.get(&(None, 0, v(1))), None);
    }

    #[test]
    fn fig4_after_insertion_becomes_explicit() {
        let (mut g, q, tree) = fig4();
        // Insert (v0, v1): the Figure 4b update.
        g.insert_edge(VertexId(0), l(9), VertexId(1));
        let image = reference_dcg(&g, &q, &tree);
        let v = VertexId;
        assert_eq!(image.get(&(Some(v(0)), 1, v(1))), Some(&EdgeState::Explicit));
        assert_eq!(image.get(&(Some(v(1)), 4, v(4))), Some(&EdgeState::Explicit));
        // Root edge of v0 is now explicit: all three branches matched.
        assert_eq!(image.get(&(None, 0, v(0))), Some(&EdgeState::Explicit));
    }

    #[test]
    fn empty_graph_empty_dcg() {
        let (_, q, _) = fig4();
        let g = DynamicGraph::new();
        let stats = GraphStats::new(&g);
        let tree = QueryTree::build(&q, QVertexId(0), &stats);
        assert!(reference_dcg(&g, &q, &tree).is_empty());
    }
}
