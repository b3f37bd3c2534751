//! `SubgraphSearch` and `IsJoinable` (Algorithm 7).
//!
//! The search enumerates complete solutions by walking *explicit* DCG edges
//! in matching order — a parent's label group in the data graph, under the
//! DCG's `expl` bits ([`crate::dcg`]) — verifying non-tree query edges
//! against the data graph as query vertices are bound. Vertices pre-bound by
//! the upward traversal (or by a non-tree-edge invocation) are re-validated
//! instead of enumerated — unless the climb already proved them: it reached
//! the binding over an explicit DCG edge and says so in
//! `SearchScratch::trusted`, and nothing downgrades that edge while the
//! search under it runs (DESIGN.md, "Enumeration path"). Unbound vertices are
//! enumerated by one frontier loop that computes once per `(depth, parent
//! binding)` whatever is the same for every candidate, and reports straight
//! from the loop at the last level.
//!
//! The data graph is passed in explicitly (instead of read from the engine)
//! so the same search serves standalone engines and fleet engines sharing
//! one graph; all mutable temporaries live in the caller-provided
//! [`SearchScratch`], keeping the recursion allocation-free.
//!
//! Duplicate-free reporting: under homomorphism the updated data edge can be
//! the image of several query edges of one solution, so the same solution
//! would be reported once per matching query edge. A total order over query
//! edges (tree edges below non-tree edges, then by id — see
//! `TurboFlux::edge_order_key`) makes exactly one invocation keep it: the
//! *maximal* mapped query edge for an insertion, the *minimal* for a
//! deletion. The paper states the check for non-tree edges inside
//! `IsJoinable`; we apply the same rule to tree edges inside the search,
//! which is required for correctness when the updated edge matches several
//! tree edges.

use tfx_graph::{intersect_into, Dir, DynamicGraph, LabelId, VertexId};
use tfx_query::{EdgeId, MatchRecord, MatchSemantics, Positiveness, QVertexId};

use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::scratch::SearchScratch;

/// Minimum frontier size (the label group the explicit candidates are read
/// from) before enumeration intersects it with bound non-tree neighbors'
/// adjacency runs instead of probing per candidate inside `IsJoinable`.
/// Below this, the kernel setup costs more than the probes it saves.
/// Public so tests sizing a frontier to cross it reference the real value.
pub const INTERSECT_MIN_FRONTIER: usize = 8;

/// Per-invocation search context.
#[derive(Clone, Copy)]
pub(crate) struct SearchCtx {
    /// The triggering query edge `e_q`, `None` for initial-graph reporting.
    pub eq: Option<EdgeId>,
    /// The updated data edge.
    pub updated: Option<(VertexId, LabelId, VertexId)>,
    /// Positive for insertion, negative for deletion.
    pub p: Positiveness,
}

impl SearchCtx {
    /// Context for reporting the initial graph's matches.
    pub fn initial() -> Self {
        SearchCtx { eq: None, updated: None, p: Positiveness::Positive }
    }

    /// Context for an update-triggered invocation.
    pub fn update(
        eq: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        p: Positiveness,
    ) -> Self {
        SearchCtx { eq: Some(eq), updated: Some((src, label, dst)), p }
    }
}

impl TurboFlux {
    /// True iff mapping query edge `e` onto the data pair `(src, dst)`
    /// violates the duplicate-prevention total order: the pair is the
    /// updated data edge, `e` actually *uses* it (label match, no surviving
    /// parallel support), and `e` outranks / underranks the triggering edge
    /// `e_q` for an insertion / deletion respectively.
    pub(crate) fn violates_order(
        &self,
        g: &DynamicGraph,
        ctx: &SearchCtx,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
    ) -> bool {
        let (Some((usrc, ulbl, udst)), Some(eq)) = (ctx.updated, ctx.eq) else {
            return false;
        };
        if e == eq || src != usrc || dst != udst {
            return false;
        }
        let qe = self.q.edge(e);
        if qe.label.is_some_and(|ql| ql != ulbl) {
            return false;
        }
        // With parallel support beyond the updated edge, `e` does not
        // depend on the update and imposes no ordering constraint.
        if g.count_edges_matching(src, dst, qe.label) != 1 {
            return false;
        }
        let (ke, kq) = (self.edge_order_key(e), self.edge_order_key(eq));
        match ctx.p {
            Positiveness::Positive => ke > kq,
            Positiveness::Negative => ke < kq,
        }
    }

    /// `IsJoinable`: checks injectivity (isomorphism only; one scan of the
    /// embedding, `SearchScratch::bound_elsewhere`) and every non-tree query
    /// edge between `u` and already-mapped query vertices, including the
    /// order rule above.
    fn is_joinable(
        &self,
        g: &DynamicGraph,
        ctx: &SearchCtx,
        u: QVertexId,
        v: VertexId,
        scratch: &SearchScratch,
    ) -> bool {
        if self.cfg.semantics == MatchSemantics::Isomorphism && scratch.bound_elsewhere(u, v) {
            return false;
        }
        let m = &scratch.m;
        for &e in &self.non_tree_incident[u.index()] {
            let qe = self.q.edge(e);
            let (src, dst) = if qe.src == u && qe.dst == u {
                (v, v) // self-loop
            } else if qe.src == u {
                match m[qe.dst.index()] {
                    Some(w) => (v, w),
                    None => continue, // other endpoint not bound yet
                }
            } else {
                match m[qe.src.index()] {
                    Some(w) => (w, v),
                    None => continue,
                }
            };
            if !g.has_edge_matching(src, dst, qe.label) {
                return false;
            }
            if self.violates_order(g, ctx, e, src, dst) {
                return false;
            }
        }
        true
    }

    /// Validates the tree edge binding `u → v` (given `m(P(u)) = vp`):
    /// explicit DCG state — probed unless the climb already `proved` it —
    /// plus the duplicate-prevention order rule. Should the probed edge be
    /// the update's image while the bits do not account for it, the order rule
    /// rejects it.
    fn tree_binding_ok(
        &self,
        g: &DynamicGraph,
        ctx: &SearchCtx,
        u: QVertexId,
        vp: VertexId,
        v: VertexId,
        proved: bool,
    ) -> bool {
        if !proved && self.dcg.state(g, vp, u, v) != Some(EdgeState::Explicit) {
            return false;
        }
        let e = self.tree.parent_edge(u).expect("non-root");
        let (src, dst) = self.dcg.pair(u, vp, v);
        !self.violates_order(g, ctx, e, src, dst)
    }

    /// `SubgraphSearch` (Algorithm 7). `scratch.m` must have the starting
    /// query vertex bound; every report goes through `scratch.rec`, which
    /// mirrors the bindings. Reports `(ctx.p, record)` for every complete
    /// solution. The sink is a type parameter all the way from the public
    /// entry points down, so a caller's closure is called directly — and
    /// inlined — at the last level; a `&mut dyn` sink costs one indirect
    /// call per match.
    pub(crate) fn subgraph_search<S>(
        &self,
        g: &DynamicGraph,
        depth: usize,
        ctx: &SearchCtx,
        scratch: &mut SearchScratch,
        sink: &mut S,
    ) where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        if self.deadline.exceeded() {
            return;
        }
        if depth == self.mo.len() {
            sink(ctx.p, &scratch.rec);
            return;
        }
        let u = self.mo[depth];
        let us = self.tree.root();
        // Whether `IsJoinable` can reject any binding of `u` at all.
        let non_tree = !self.non_tree_incident[u.index()].is_empty();
        let joins = non_tree || self.cfg.semantics == MatchSemantics::Isomorphism;
        if let Some(v) = scratch.m[u.index()] {
            // Pre-bound vertex (upward traversal / non-tree invocation):
            // re-validate instead of enumerating. The edge into a binding
            // the climb made is explicit for the whole search (`trusted`);
            // the endpoint a non-tree invocation pre-binds is not.
            let proved = scratch.trusts(u);
            let ok = if u == us {
                proved || self.dcg.is_explicit(us, v)
            } else {
                let vp = scratch.m[self.tree.parent(u).expect("non-root").index()]
                    .expect("parent precedes child in matching order");
                self.tree_binding_ok(g, ctx, u, vp, v, proved)
            };
            if ok && (!joins || self.is_joinable(g, ctx, u, v, scratch)) {
                self.subgraph_search(g, depth + 1, ctx, scratch, sink);
            }
            return;
        }
        debug_assert_ne!(u, us, "the starting vertex is always pre-bound");
        let vp = scratch.m[self.tree.parent(u).expect("non-root").index()]
            .expect("parent precedes child in matching order");
        // The frontier is `vp`'s label group under `u`'s tree edge, borrowed
        // from the graph; a candidate is on it iff its edges labeled `u` are
        // explicit, one bit test each. A wildcard tree edge's group is
        // gathered from every label group into `scratch.isect` instead.
        let run = self.dcg.run(g, vp, u, true);
        let base = scratch.isect.len();
        if run.is_none() {
            self.dcg.collect(g, vp, u, true, |w| self.dcg.is_explicit(u, w), &mut scratch.isect);
        }
        // What is fixed for the whole frontier of `(depth, vp)`. The order
        // rule can only reject the candidate that maps the tree edge `e`
        // onto the updated data edge: its far endpoint, and only when `vp`
        // is its near endpoint and `e` is not the triggering edge itself.
        let e = self.tree.parent_edge(u).expect("non-root");
        let suspect = match (ctx.updated, ctx.eq) {
            (Some((usrc, _, udst)), Some(eq)) if e != eq => {
                let (near, far) = self.dcg.pair(u, usrc, udst);
                (near == vp).then_some(far)
            }
            _ => None,
        };
        // A wide frontier under bound non-tree neighbors is intersected
        // with their adjacency runs first; the survivors sit in
        // `scratch.isect[base..]`, as a gathered frontier does.
        let width = run.map_or(scratch.isect.len() - base, <[VertexId]>::len);
        let fold =
            non_tree && width >= INTERSECT_MIN_FRONTIER && self.has_bound_non_tree_run(u, scratch);
        if fold {
            self.intersect_frontier(g, u, run, base, scratch);
        }
        let isect = fold || run.is_none();
        let group = run.unwrap_or_default();
        let expl = self.dcg.explicit_set(u);
        // The candidate tests every level makes: on the frontier, not the
        // updated edge under a tree edge the trigger does not outrank, and
        // `IsJoinable` where it can reject anything.
        let passes = |v: VertexId, scratch: &SearchScratch| {
            expl.has(v)
                && (suspect != Some(v) || {
                    let (src, dst) = self.dcg.pair(u, vp, v);
                    !self.violates_order(g, ctx, e, src, dst)
                })
                && (!joins || self.is_joinable(g, ctx, u, v, scratch))
        };
        if depth + 1 == self.mo.len() {
            // The last level: a candidate that passes is a complete
            // solution, reported straight from the loop — no bind, no
            // recursion, and no deadline probe unless a deadline is armed
            // (none can be armed during a search: `set_deadline` takes
            // `&mut self`). Nothing deeper appends to `scratch.isect`, so
            // the candidates are one slice for the whole loop, read beside
            // the record taken out of the scratch.
            let armed = self.deadline.is_armed();
            let mut rec = std::mem::take(&mut scratch.rec);
            let cands = if isect { &scratch.isect[base..] } else { group };
            for &v in cands {
                if !passes(v, scratch) {
                    continue;
                }
                if armed && self.deadline.exceeded() {
                    break;
                }
                rec.set(u, v);
                sink(ctx.p, &rec);
            }
            scratch.rec = rec;
        } else {
            // Deeper levels append past this frontier's segment of
            // `scratch.isect` and truncate back — the vector may move — so
            // a gathered frontier is read by index. Where the next level
            // enumerates under each candidate — a child of `u` not bound
            // yet — its label group is a cold read: a handle, then the slot
            // it names. Hinted two candidates ahead, in two stages.
            let next = self
                .mo
                .get(depth + 1)
                .copied()
                .filter(|&w| self.tree.parent(w) == Some(u) && scratch.m[w.index()].is_none());
            let n = if isect { scratch.isect.len() - base } else { group.len() };
            for i in 0..n {
                let at = |i: usize| if isect { scratch.isect.get(base + i) } else { group.get(i) };
                if let Some(w) = next {
                    for (ahead, stage) in [(2, 0), (1, 1)] {
                        if let Some(&c) = at(i + ahead) {
                            self.dcg.prefetch_run(g, c, w, stage);
                        }
                    }
                }
                let v = if isect { scratch.isect[base + i] } else { group[i] };
                if passes(v, scratch) {
                    scratch.bind(u, v);
                    self.subgraph_search(g, depth + 1, ctx, scratch, sink);
                    scratch.unbind(u);
                }
            }
        }
        scratch.isect.truncate(base);
    }

    /// True iff some non-tree query edge incident to `u` has a concrete
    /// label and its other endpoint already bound — i.e. the intersection
    /// prefilter below has at least one adjacency run to fold in.
    fn has_bound_non_tree_run(&self, u: QVertexId, scratch: &SearchScratch) -> bool {
        self.non_tree_incident[u.index()].iter().any(|&e| {
            let qe = self.q.edge(e);
            qe.label.is_some()
                && (qe.src == u) != (qe.dst == u) // skip self-loops
                && scratch.m[if qe.src == u { qe.dst } else { qe.src }.index()].is_some()
        })
    }

    /// The intersection prefilter: intersects the frontier of
    /// `(m(P(u)), u)` — the borrowed label group `frontier`, or, when that is
    /// `None`, the gathered one at `scratch.isect[base..]` — with the
    /// adjacency run of every bound non-tree neighbor (via the `tfx-graph`
    /// kernels), leaving the survivors at `scratch.isect[base..]`.
    ///
    /// Behavior-preserving: a candidate `v` missing from the run of a bound
    /// neighbor `m(w)` fails exactly the `has_edge_matching` probe that
    /// `IsJoinable` would apply to the same non-tree edge, so the prefilter
    /// only removes candidates the frontier loop would reject. Both the
    /// frontier and the adjacency runs are sorted and duplicate-free, so
    /// survivors keep the enumeration order of the plain frontier.
    fn intersect_frontier(
        &self,
        g: &DynamicGraph,
        u: QVertexId,
        mut frontier: Option<&[VertexId]>,
        base: usize,
        scratch: &mut SearchScratch,
    ) {
        for &e in &self.non_tree_incident[u.index()] {
            let qe = self.q.edge(e);
            let Some(label) = qe.label else { continue };
            // Query edge u → w maps to data edge v → m(w), so candidates
            // lie in m(w)'s *in*-run; w → u symmetrically in its out-run.
            let (w, dir) = if qe.src == u && qe.dst != u {
                (qe.dst, Dir::In)
            } else if qe.dst == u && qe.src != u {
                (qe.src, Dir::Out)
            } else {
                continue; // self-loop: left to IsJoinable
            };
            let Some(mw) = scratch.m[w.index()] else { continue };
            let run = g.group(mw, dir, label);
            if let Some(frontier) = frontier.take() {
                intersect_into(frontier, run, &mut scratch.isect);
            } else {
                let tmp_base = scratch.isect_tmp.len();
                let SearchScratch { isect, isect_tmp, .. } = scratch;
                intersect_into(&isect[base..], run, isect_tmp);
                scratch.isect.truncate(base);
                let (lo, hi) = (tmp_base, scratch.isect_tmp.len());
                scratch.isect.extend_from_slice(&scratch.isect_tmp[lo..hi]);
                scratch.isect_tmp.truncate(tmp_base);
            }
            if scratch.isect.len() == base {
                break; // empty; folding more runs cannot revive it
            }
        }
        debug_assert!(frontier.is_none(), "the caller checked `has_bound_non_tree_run`");
    }
}
