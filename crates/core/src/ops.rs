//! `InsertEdgeAndEval` / `DeleteEdgeAndEval` and the upward climb they share
//! (`BuildUpwardsAndEval` / `ClearUpwardsAndEval`; Algorithms 5, 6, 8, 9).
//!
//! The two algorithms are one walk read in two directions. An insertion is
//! evaluated *after* the edge entered the data graph: the DCG is built below
//! it, each climbed edge is promoted (Transition 2, I → E) before the
//! recursion over it, and the positives are enumerated over the DCG as it
//! stands then. A deletion is evaluated *before* the edge leaves: the
//! negatives are enumerated over the still-intact DCG, each climbed edge is
//! demoted (Transition 4, E → I) only after its recursion returned, and
//! `ClearDCG` (Transitions 3/5) runs after the negatives of its triggering
//! edge were reported. What is promoted on the way in is what is demoted on
//! the way out — the edges into a vertex whose matched-ness the update
//! changes — so one climb asks that question once and the sign of the update
//! says on which side of the recursion the write goes.
//!
//! The DCG's edges are derived from the graph ([`crate::dcg`]), which holds
//! the updated edge from stage to finalize — before the plan's invocations
//! have built its images, and after they have cleared them. Whether the
//! bits account for an image is recorded per operation in
//! `SearchScratch::uncounted`, and every walk and scan over stored edges
//! skips the images they do not; the search needs no such test, because the
//! order rule (`violates_order`) already rejects the updated edge under any
//! tree edge the trigger does not outrank.

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
    pub fn eval_inserted_edge<S>(
        &mut self,
        g: &DynamicGraph,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        self.eval_edge(g, src, label, dst, Positiveness::Positive, sink);
    }

    /// Evaluates one edge deletion. The edge must still be present in `g`;
    /// the caller removes it from the graph *after* this returns
    /// (externally driven mode; [`TurboFlux::apply_op`] goes through here
    /// too, against the engine-owned graph).
    ///
    /// Invocations run in the insertion's order; combined with the "minimal
    /// triggering edge wins" rule every vanished solution is reported exactly
    /// once, before the DCG region it needs is cleared.
    pub fn eval_deleting_edge<S>(
        &mut self,
        g: &DynamicGraph,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        self.eval_edge(g, src, label, dst, Positiveness::Negative, sink);
    }

    fn eval_edge<S>(
        &mut self,
        g: &DynamicGraph,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        p: Positiveness,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.matching_query_edges(g, src, label, dst, &mut scratch.plan);
        scratch.assert_unbound();
        // The update's images under the tree edges it matches without a
        // parallel edge backing the same pair: none is counted before an
        // insertion builds it, each is until a deletion clears it.
        let under = scratch.plan.iter().filter(|&&e| {
            self.tree.is_tree_edge(e) && g.count_edges_matching(src, dst, self.q.edge(e).label) == 1
        });
        let under = under.fold(0, |m, &e| m | 1 << self.orient_tree_edge(e, src, dst).0 .0);
        scratch.image = (src, dst);
        scratch.image_under = under;
        scratch.uncounted = if p == Positiveness::Positive { under } else { 0 };
        for i in 0..scratch.plan.len() {
            let e = scratch.plan[i];
            self.invoke(g, e, src, label, dst, p, &mut scratch, sink);
        }
        (scratch.image_under, scratch.uncounted) = (0, 0);
        self.scratch = scratch;
        self.maybe_adjust_order();
    }

    /// One invocation of `InsertEdgeAndEval` (`p` positive) or
    /// `DeleteEdgeAndEval` (negative) for the matching query edge `e` — an
    /// entry of the plan [`TurboFlux::matching_query_edges`] lays out, in the
    /// order the loop above walks it.
    #[allow(clippy::too_many_arguments)]
    fn invoke<S>(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        p: Positiveness,
        scratch: &mut SearchScratch,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        // Parallel support beyond the updated edge: the vertex-mapping set
        // does not change via this query edge (Transition 0 analogue for
        // multigraphs), and a tree edge's DCG edge stays backed — it is an
        // image of the update only without one (`image_under`).
        let ctx = SearchCtx::update(e, src, label, dst, p);
        if self.tree.is_tree_edge(e) {
            let uc = self.orient_tree_edge(e, src, dst).0;
            if scratch.image_under >> uc.0 & 1 == 1 {
                self.tree_invocation(g, e, src, dst, &ctx, scratch, sink);
            }
        } else if g.count_edges_matching(src, dst, self.q.edge(e).label) == 1 {
            self.non_tree_invocation(g, e, src, dst, &ctx, scratch, sink);
        }
    }

    /// A tree-edge invocation: maintain the DCG under the matched tree edge
    /// `e`, and climb/search when the paper's preconditions hold.
    #[allow(clippy::too_many_arguments)]
    fn tree_invocation<S>(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
        ctx: &SearchCtx,
        scratch: &mut SearchScratch,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        let positive = ctx.p == Positiveness::Positive;
        let (uc, pv, cv) = self.orient_tree_edge(e, src, dst);
        let up = self.tree.parent(uc).expect("tree edge child has a parent");
        // Case 2 of Transition 0: no path from a start vertex to pv — or an
        // earlier invocation of this same deletion cascade-cleared it.
        if !self.dcg.is_reached(up, pv) {
            return;
        }
        // An earlier tree-edge invocation of this same update may have
        // already built (cleared) this DCG edge: the updated edge can match
        // several tree edges whose builds (clears) overlap. The graph shows
        // the edge either way; the per-operation record says whether the
        // bits account for it.
        let state = if scratch.uncounted >> uc.0 & 1 == 0 {
            EdgeState::of(self.dcg.is_explicit(uc, cv))
        } else if positive {
            self.build_dcg(g, Some(pv), uc, cv, scratch)
        } else {
            return;
        };
        if state == EdgeState::Explicit && self.dcg.match_all_children_via(pv, up, uc) {
            scratch.bind(uc, cv);
            scratch.trust(uc); // the state test just above
            self.climb(g, up, pv, Some(uc), ctx, scratch, sink);
            scratch.trusted = 0;
            scratch.unbind(uc);
        }
        if !positive {
            // Transitions 3/5 downward, once the negatives that needed the
            // region are out.
            self.clear_dcg(g, Some(pv), uc, cv, scratch);
        }
    }

    /// A non-tree invocation: `m(qe.src) = src`, `m(qe.dst) = dst`, both
    /// endpoints need the path condition and fully matched subtrees. A
    /// non-tree edge never changes intermediate results, so the climb from
    /// `qe.src` only traverses.
    #[allow(clippy::too_many_arguments)]
    fn non_tree_invocation<S>(
        &mut self,
        g: &DynamicGraph,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
        ctx: &SearchCtx,
        scratch: &mut SearchScratch,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        let qe = *self.q.edge(e);
        if !self.dcg.is_reached(qe.src, src)
            || !self.dcg.is_reached(qe.dst, dst)
            || !self.dcg.match_all_children(src, qe.src)
            || !self.dcg.match_all_children(dst, qe.dst)
        {
            return;
        }
        let looped = qe.src == qe.dst;
        if !looped {
            scratch.bind(qe.dst, dst);
        }
        self.climb(g, qe.src, src, None, ctx, scratch, sink);
        if !looped {
            scratch.unbind(qe.dst);
        }
    }

    /// `BuildUpwardsAndEval` / `ClearUpwardsAndEval`: climbs from `m(u) = v`
    /// toward the start vertices along the stored DCG edges into `v` and runs
    /// `SubgraphSearch` at every start vertex reached.
    ///
    /// `via` is the child of `u` whose edge out of `v` this update flips —
    /// made explicit before this call on a positive `ctx`, about to stop
    /// being so after it on a negative one; `None` when nothing below `v`
    /// changes state (a non-tree invocation, or a vertex further down kept
    /// its matched-ness). If that edge is `v`'s only explicit one labeled
    /// `via`, `v`'s own matched-ness changes with it, and so does the state
    /// of every edge into `v`: Case 2 of Transition 2 (I → E) applied to each
    /// before the recursion over it, Case 1 of Transition 4 (E → I) after.
    ///
    /// Precondition (established by every caller): all children of `u` have
    /// explicit outgoing edges from `v`.
    #[allow(clippy::too_many_arguments)]
    fn climb<S>(
        &mut self,
        g: &DynamicGraph,
        u: QVertexId,
        v: VertexId,
        via: Option<QVertexId>,
        ctx: &SearchCtx,
        scratch: &mut SearchScratch,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        debug_assert!(self.dcg.match_all_children(v, u));
        // A non-tree invocation pre-binds the other endpoint of the
        // triggering edge; if the climb reaches that query vertex with a
        // different data vertex the two constraints contradict and no
        // solution exists along this path. (No transition is skipped: a
        // tree invocation binds nothing above where it starts.)
        if scratch.m[u.index()].is_some_and(|w| w != v) {
            debug_assert!(via.is_none());
            return;
        }
        let flips = via.is_some_and(|uc| {
            let cv = scratch.m[uc.index()].expect("the climbed edge's child is bound");
            !self.dcg.other_explicit_child(g, v, uc, cv, scratch.uncounted_image(uc))
        });
        // An earlier invocation of the same insertion may have built `v`'s
        // subtree whole, its edges explicit already: nothing to promote.
        let (promote, demote) = match ctx.p {
            Positiveness::Positive => (flips && !self.dcg.is_explicit(u, v), false),
            Positiveness::Negative => (false, flips),
        };
        let prev = scratch.rebind(u, Some(v));
        let trusted = scratch.trusted;
        if u == self.tree.root() {
            // The single incoming edge is the artificial start edge.
            if promote {
                self.dcg.promote(None, u, v);
            }
            if self.dcg.is_explicit(u, v) {
                scratch.trust(u);
                self.subgraph_search(g, 0, ctx, scratch, sink);
                if demote {
                    self.dcg.demote(g, None, u, v, None);
                }
            }
        } else {
            let up = self.tree.parent(u).expect("non-root");
            // The edges into `v` carry one state: explicit iff `v`'s subtrees
            // are matched (Definition 4), whoever the parent is. They are
            // (the precondition), so every edge is explicit — or, where `v`
            // only just became matched, implicit and promoted below. Their
            // parents are gathered on the segmented stack, ascending.
            debug_assert!(promote || self.dcg.is_explicit(u, v), "a stale state into (u, v)");
            let start = scratch.climb.len();
            let image = scratch.uncounted_image(u);
            self.dcg.stored_far_ends(g, v, u, false, image, &mut scratch.climb);
            let end = scratch.climb.len();
            // So every recursion below climbs an explicit edge into `v`, and
            // it stays explicit while the searches under it run.
            scratch.trust(u);
            for i in start..end {
                let vp = scratch.climb[i];
                if promote {
                    self.dcg.promote(Some(vp), u, v);
                }
                if self.dcg.match_all_children_via(vp, up, u) {
                    self.climb(g, up, vp, flips.then_some(u), ctx, scratch, sink);
                }
                if demote {
                    self.dcg.demote(g, Some(vp), u, v, image);
                }
            }
            scratch.climb.truncate(start);
        }
        scratch.trusted = trusted;
        scratch.rebind(u, prev);
    }
}
