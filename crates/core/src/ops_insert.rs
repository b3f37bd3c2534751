//! `InsertEdgeAndEval` and `BuildUpwardsAndEval` (Algorithms 5 and 6).

use tfx_graph::{DynamicGraph, LabelId, VertexId};
use tfx_query::{EdgeId, MatchRecord, Positiveness, QVertexId};

use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::scratch::SearchScratch;
use crate::search::SearchCtx;

impl TurboFlux {
    /// Evaluates one edge insertion already applied to `g` by the caller
    /// (externally driven mode; [`TurboFlux::apply_op`] goes through here
    /// too, against the engine-owned graph).
    ///
    /// Tree-edge invocations run first in ascending edge order so the DCG
    /// is fully maintained before non-tree invocations enumerate it; paired
    /// with the "maximal triggering edge wins" rule this reports every new
    /// solution exactly once.
    pub fn eval_inserted_edge(
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
            self.insert_tree_invocation(g, e, src, label, dst, &mut scratch, sink);
        }

        for i in 0..scratch.non_tree.len() {
            let e = scratch.non_tree[i];
            self.insert_non_tree_invocation(g, e, src, label, dst, &mut scratch, sink);
        }
        self.scratch = scratch;
        self.maybe_adjust_order();
    }

    /// One tree-edge invocation of `InsertEdgeAndEval`: maintain the DCG
    /// under the matched tree edge `e` and climb/search when the paper's
    /// preconditions hold. Factored out so the sharded runtime can replay
    /// individual invocations from its per-shard inbox in the same order
    /// the unsharded loop runs them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_tree_invocation(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        // Pre-existing parallel support means the vertex-mapping set is
        // unchanged via this query edge (Transition 0 analogue for
        // multigraphs).
        if g.count_edges_matching(src, dst, self.q.edge(e).label) > 1 {
            return;
        }
        let (uc, pv, cv) = self.orient_tree_edge(e, src, dst);
        let up = self.tree.parent(uc).expect("tree edge child has a parent");
        // Case 2 of Transition 0: no path from a start vertex to pv.
        if self.dcg.in_count_total(pv, up) == 0 {
            return;
        }
        // An earlier tree-edge invocation of this same update may have
        // already built this DCG edge (the inserted edge can match several
        // tree edges whose builds overlap).
        let state = match self.dcg.state(pv, uc, cv) {
            Some(st) => st,
            None => self.build_dcg(g, Some(pv), uc, cv, scratch),
        };
        if state == EdgeState::Explicit && self.match_all_children_via(pv, up, uc) {
            let ctx = SearchCtx::update(e, src, label, dst, Positiveness::Positive);
            scratch.bind(uc, cv);
            scratch.trust(uc); // the state test just above
            self.build_upwards(g, up, pv, &ctx, true, scratch, sink);
            scratch.trusted = 0;
            scratch.unbind(uc);
        }
    }

    /// One non-tree invocation of `InsertEdgeAndEval` (see
    /// [`TurboFlux::insert_tree_invocation`] for why this is factored out).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_non_tree_invocation(
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
        // m(qe.src) = src, m(qe.dst) = dst; both endpoints need the
        // path condition and fully matched subtrees.
        if self.dcg.in_count_total(src, qe.src) == 0
            || self.dcg.in_count_total(dst, qe.dst) == 0
            || !self.match_all_children(src, qe.src)
            || !self.match_all_children(dst, qe.dst)
        {
            return;
        }
        let ctx = SearchCtx::update(e, src, label, dst, Positiveness::Positive);
        let looped = qe.src == qe.dst;
        if !looped {
            scratch.bind(qe.dst, dst);
        }
        // Traverse upward from qe.src without modifying the DCG: a
        // non-tree edge never changes intermediate results.
        self.build_upwards(g, qe.src, src, &ctx, false, scratch, sink);
        if !looped {
            scratch.unbind(qe.dst);
        }
    }

    /// `BuildUpwardsAndEval`: climbs toward the start vertices along stored
    /// incoming DCG edges, applying Case 2 of Transition 2 when `ft` is
    /// set, and runs `SubgraphSearch` at every start vertex reached.
    ///
    /// Precondition (established by every caller): all children of `u` have
    /// explicit outgoing edges from `v`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_upwards(
        &mut self,
        g: &DynamicGraph,
        u: QVertexId,
        v: VertexId,
        ctx: &SearchCtx,
        ft: bool,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        debug_assert!(self.match_all_children(v, u));
        // A non-tree invocation pre-binds the other endpoint of the
        // triggering edge; if the climb reaches that query vertex with a
        // different data vertex the two constraints contradict and no
        // solution exists along this path. (Transitions are never needed
        // here: the contradiction can only arise with `ft == false`.)
        if let Some(w) = scratch.m[u.index()] {
            if w != v {
                debug_assert!(!ft);
                return;
            }
        }
        let prev = scratch.rebind(u, Some(v));
        let trusted = scratch.trusted;
        let us = self.tree.root();
        if u == us {
            // The single incoming edge is the artificial start edge.
            let explicit = match self.dcg.root_state(v) {
                Some(EdgeState::Implicit) if ft => {
                    self.dcg.transit(None, u, v, Some(EdgeState::Explicit));
                    true
                }
                st => st == Some(EdgeState::Explicit),
            };
            if explicit {
                scratch.trust(u);
                self.subgraph_search(g, 0, ctx, scratch, sink);
            }
        } else {
            let up = self.tree.parent(u).expect("non-root");
            // Every recursion below climbs an edge into `v` that is explicit
            // — the snapshot says so, or Transition 2 just made it so — and
            // stays explicit while the searches under it run.
            scratch.trust(u);
            // Snapshot the in-list into the segmented stack: transitions
            // during the climb mutate the list being iterated. Without
            // transitions only explicit paths matter.
            let start = scratch.climb.len();
            let (explicit, implicit) = self.dcg.in_edges(v, u);
            scratch.snapshot_climb(explicit, if ft { implicit } else { &[] });
            let end = scratch.climb.len();
            let mut i = start;
            while i < end {
                let (vp, st) = scratch.climb[i];
                i += 1;
                if st == EdgeState::Implicit {
                    self.dcg.transit(Some(vp), u, v, Some(EdgeState::Explicit));
                }
                if self.match_all_children_via(vp, up, u) {
                    self.build_upwards(g, up, vp, ctx, ft, scratch, sink);
                }
            }
            scratch.climb.truncate(start);
        }
        scratch.trusted = trusted;
        scratch.rebind(u, prev);
    }
}
