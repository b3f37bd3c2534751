//! `DeleteEdgeAndEval` and `ClearUpwardsAndEval` (Algorithms 8 and 9).
//!
//! Deletion is evaluated *before* the edge leaves the data graph: negative
//! matches are enumerated over the still-intact explicit DCG, and the
//! downgrades (Transition 4) and removals (Transitions 3/5) are applied
//! after the affected traversal — `ClearUpwardsAndEval` downgrades each
//! climbed edge only after its recursion returns, and `ClearDCG` runs after
//! the negatives of its triggering edge were reported.

use tfx_graph::{DynamicGraph, LabelId, VertexId};
use tfx_query::{EdgeId, MatchRecord, Positiveness, QVertexId};

use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::scratch::SearchScratch;
use crate::search::SearchCtx;

impl TurboFlux {
    /// Evaluates one edge deletion. The edge must still be present in `g`;
    /// the caller removes it from the graph *after* this returns
    /// (externally driven mode; [`TurboFlux::apply_op`] goes through here
    /// too, against the engine-owned graph).
    ///
    /// Tree-edge invocations run in ascending edge order; combined with the
    /// "minimal triggering edge wins" rule every vanished solution is
    /// reported exactly once, before the DCG region it needs is cleared.
    pub fn eval_deleting_edge(
        &mut self,
        g: &DynamicGraph,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.matching_query_edges(g, src, label, dst, &mut scratch);
        scratch.assert_unbound();

        for i in 0..scratch.tree_edges.len() {
            let e = scratch.tree_edges[i];
            self.delete_tree_invocation(g, e, src, label, dst, &mut scratch, sink);
        }

        for i in 0..scratch.non_tree.len() {
            let e = scratch.non_tree[i];
            self.delete_non_tree_invocation(g, e, src, label, dst, &mut scratch, sink);
        }
        self.scratch = scratch;
        self.maybe_adjust_order();
    }

    /// One tree-edge invocation of `DeleteEdgeAndEval` (factored out for
    /// the sharded runtime, matching
    /// [`TurboFlux::insert_tree_invocation`]). Reports the negatives that
    /// need the still-intact DCG region, then cascade-clears it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delete_tree_invocation(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        // Surviving parallel support: the mapping set does not change
        // via this query edge and the DCG edge stays backed.
        if g.count_edges_matching(src, dst, self.q.edge(e).label) > 1 {
            return;
        }
        let (uc, pv, cv) = self.orient_tree_edge(e, src, dst);
        let up = self.tree.parent(uc).expect("tree edge child has a parent");
        // Case 2 of Transition 0 — or an earlier tree-edge invocation
        // of this same update already cascade-cleared the edge.
        if self.dcg.in_count_total(pv, up) == 0 {
            return;
        }
        let Some(state) = self.dcg.state(pv, uc, cv) else { return };
        if state == EdgeState::Explicit && self.match_all_children_via(pv, up, uc) {
            let ctx = SearchCtx::update(e, src, label, dst, Positiveness::Negative);
            scratch.bind(uc, cv);
            scratch.trust(uc); // the state test just above
            self.clear_upwards(g, up, pv, Some(uc), &ctx, true, scratch, sink);
            scratch.trusted = 0;
            scratch.unbind(uc);
        }
        // Transitions 3/5 downward.
        self.clear_dcg(Some(pv), uc, cv, scratch);
    }

    /// One non-tree invocation of `DeleteEdgeAndEval`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delete_non_tree_invocation(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        if g.count_edges_matching(src, dst, self.q.edge(e).label) > 1 {
            return;
        }
        let qe = *self.q.edge(e);
        if self.dcg.in_count_total(src, qe.src) == 0
            || self.dcg.in_count_total(dst, qe.dst) == 0
            || !self.match_all_children(src, qe.src)
            || !self.match_all_children(dst, qe.dst)
        {
            return;
        }
        let ctx = SearchCtx::update(e, src, label, dst, Positiveness::Negative);
        let looped = qe.src == qe.dst;
        if !looped {
            scratch.bind(qe.dst, dst);
        }
        self.clear_upwards(g, qe.src, src, None, &ctx, false, scratch, sink);
        if !looped {
            scratch.unbind(qe.dst);
        }
    }

    /// `ClearUpwardsAndEval`: climbs toward the start vertices along
    /// *explicit* incoming DCG edges, reports negative matches at every
    /// start vertex, and afterwards applies Case 1 of Transition 4 (E → I)
    /// when `v` is about to lose its last explicit outgoing edge labeled
    /// `expiring_child`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn clear_upwards(
        &mut self,
        g: &DynamicGraph,
        u: QVertexId,
        v: VertexId,
        expiring_child: Option<QVertexId>,
        ctx: &SearchCtx,
        ft: bool,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        if let Some(w) = scratch.m[u.index()] {
            if w != v {
                debug_assert!(!ft);
                return;
            }
        }
        // Precondition for Transition 4: after this deletion `v` has no
        // explicit outgoing edge labeled `expiring_child` left.
        let precondition =
            ft && expiring_child.is_some_and(|uc| self.dcg.out_expl_count(v, uc) == 1);
        let prev = scratch.rebind(u, Some(v));
        let trusted = scratch.trusted;
        let us = self.tree.root();
        if u == us {
            if self.dcg.root_state(v) == Some(EdgeState::Explicit) {
                scratch.trust(u);
                self.subgraph_search(g, 0, ctx, scratch, sink);
                if precondition {
                    self.dcg.transit(None, u, v, Some(EdgeState::Implicit));
                }
            }
        } else {
            let up = self.tree.parent(u).expect("non-root");
            // Only explicit edges into `v` are climbed, and each is
            // downgraded only after the recursion over it returned.
            scratch.trust(u);
            // Snapshot the explicit in-edges: the downgrades below mutate
            // the run.
            let start = scratch.climb.len();
            scratch.snapshot_climb(self.dcg.in_edges(v, u).0, &[]);
            let end = scratch.climb.len();
            let mut i = start;
            while i < end {
                let (vp, _) = scratch.climb[i];
                i += 1;
                if self.match_all_children_via(vp, up, u) {
                    self.clear_upwards(g, up, vp, Some(u), ctx, precondition, scratch, sink);
                }
                if precondition {
                    self.dcg.transit(Some(vp), u, v, Some(EdgeState::Implicit));
                }
            }
            scratch.climb.truncate(start);
        }
        scratch.trusted = trusted;
        scratch.rebind(u, prev);
    }
}
