//! The TurboFlux engine (§4, Algorithm 2).
//!
//! Construction transforms the query into a tree rooted at the starting
//! query vertex, builds the initial DCG (`crate::bulk`), and derives a
//! matching order from DCG statistics. Each update operation then runs
//! `InsertEdgeAndEval` / `DeleteEdgeAndEval`, which maintain the DCG
//! incrementally and stream positive / negative matches into the caller's
//! sink.
//!
//! The engine can run in two ownership modes over the data graph:
//!
//! * **standalone** ([`TurboFlux::new`] + [`TurboFlux::apply_op`]): the
//!   engine owns the graph and applies each op to it as one round — stage,
//!   evaluate, finalize (`crate::round`);
//! * **externally driven** ([`TurboFlux::register`] +
//!   [`TurboFlux::eval_inserted_edge`] / [`TurboFlux::eval_deleting_edge`]
//!   / [`TurboFlux::register_new_vertices`]): the caller owns the graph,
//!   mutates it itself, and passes it in read-only for evaluation. This is
//!   what a [`crate::fleet::Fleet`] does for its engines (many engines over
//!   one graph). Both runtimes apply a batch with the one round loop,
//!   `crate::round::apply`.

use tfx_graph::{DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_query::{
    choose_start_vertex, matching_edge_counts, ContinuousMatcher, Deadline, EdgeId, MatchRecord,
    Positiveness, QVertexId, QueryGraph, QueryTree,
};

use crate::config::TurboFluxConfig;
use crate::dcg::{Dcg, DcgView, EdgeState};
use crate::round::{self, Round};
use crate::scratch::SearchScratch;

/// A continuous subgraph matching engine maintaining a data-centric graph.
pub struct TurboFlux {
    /// The engine's own data graph. Empty (and unused) when the engine was
    /// created with [`TurboFlux::register`] and the caller owns the graph.
    pub(crate) g: DynamicGraph,
    pub(crate) q: QueryGraph,
    pub(crate) tree: QueryTree,
    pub(crate) cfg: TurboFluxConfig,
    pub(crate) dcg: Dcg,
    /// Matching order over all query vertices, parents before children.
    pub(crate) mo: Vec<QVertexId>,
    /// Non-tree query edges incident to each query vertex.
    pub(crate) non_tree_incident: Vec<Vec<EdgeId>>,
    /// Query edges bucketed by their concrete edge label (indexed by
    /// `label.index()`; a label past the table is in no bucket), so
    /// `matching_query_edges` only inspects edges whose label can match
    /// the updated data edge instead of scanning all of `E(q)`. Endpoint
    /// label-set containment is a per-update predicate (data vertices
    /// carry label *sets*), so it stays a per-candidate check.
    pub(crate) qedge_by_label: Vec<Vec<EdgeId>>,
    /// Query edges with no label constraint (match any data label).
    pub(crate) qedge_wildcard: Vec<EdgeId>,
    /// The explicit counts the matching order was computed from
    /// (`AdjustMatchingOrder`'s drift check, `crate::order`).
    pub(crate) order_snapshot: Vec<u64>,
    /// Reusable buffers for the per-update hot path (embedding, candidate
    /// stacks, edge snapshots); steady-state updates allocate nothing.
    pub(crate) scratch: SearchScratch,
    /// The benchmark's per-query timeout, probed inside the search; once
    /// it latches the engine stops enumerating.
    pub(crate) deadline: Deadline,
    /// Edge ops [`Self::apply_batch`] refused for a label out of range.
    pub(crate) refused_ops: u64,
}

impl TurboFlux {
    /// Registers `q` against the initial data graph `g0` and builds the
    /// initial DCG (Algorithm 2, lines 1–6). The engine owns `g0` and
    /// maintains it through [`TurboFlux::apply_op`].
    ///
    /// The query is fixed from here on, so the engine keeps only what it can
    /// see: `g0` projected onto the edge labels `q` names (all of them if `q`
    /// has a wildcard edge), and ops on the other labels never reach its
    /// graph (`round::apply`). The plan's statistics read only those labels
    /// and the vertex labels, so they come out the same on either graph.
    ///
    /// Panics if `q` is empty, disconnected, or has more than 64 vertices.
    pub fn new(q: QueryGraph, g0: DynamicGraph, cfg: TurboFluxConfig) -> Self {
        let mut engine = Self::plan(q, &g0, cfg);
        let g = g0.project(|label| engine.sees(label));
        engine.build_initial_dcg(&g);
        engine.recompute_matching_order();
        engine.g = g;
        engine
    }

    /// Edge ops this engine's [`Self::apply_batch`] refused because their
    /// label is not below [`tfx_graph::LabelId::LIMIT`]: no graph stores
    /// such a label, so the op changed nothing and emitted nothing.
    pub fn refused_ops(&self) -> u64 {
        self.refused_ops
    }

    /// Registers `q` against a *borrowed* initial data graph and builds the
    /// initial DCG, without taking ownership of the graph. The caller must
    /// keep the graph in sync with the evaluation calls
    /// ([`TurboFlux::eval_inserted_edge`], [`TurboFlux::eval_deleting_edge`],
    /// [`TurboFlux::register_new_vertices`]); this is how a
    /// [`crate::fleet::Fleet`] shares one graph across many engines.
    ///
    /// Panics if `q` is empty, disconnected, or has more than 64 vertices.
    pub fn register(q: QueryGraph, g0: &DynamicGraph, cfg: TurboFluxConfig) -> Self {
        let mut engine = Self::plan(q, g0, cfg);
        engine.build_initial_dcg(g0);
        engine.recompute_matching_order();
        engine
    }

    /// Query analysis (Algorithm 2, lines 1–3): start vertex, query tree and
    /// the per-query lookup tables, around a DCG that is still empty.
    pub(crate) fn plan(q: QueryGraph, g0: &DynamicGraph, cfg: TurboFluxConfig) -> Self {
        assert!(q.edge_count() > 0, "query must have at least one edge");
        assert!(q.is_connected(), "query must be connected");
        // Before any per-vertex bit mask is built (the DCG's child masks, the
        // scratch's trust bits): `1 << u.0` wraps past bit 63 in release
        // builds.
        assert!(q.vertex_count() <= 64, "queries are limited to 64 vertices");
        // One pass of the statistics for both planners.
        let counts = matching_edge_counts(&q, g0);
        let us = choose_start_vertex(&q, g0, &counts);
        let tree = QueryTree::build(&q, us, &counts);
        let nq = q.vertex_count();

        let mut non_tree_incident = vec![Vec::new(); nq];
        for &e in tree.non_tree_edges() {
            let qe = q.edge(e);
            non_tree_incident[qe.src.index()].push(e);
            if qe.dst != qe.src {
                non_tree_incident[qe.dst.index()].push(e);
            }
        }
        let mut qedge_by_label: Vec<Vec<EdgeId>> = Vec::new();
        let mut qedge_wildcard = Vec::new();
        for i in 0..q.edge_count() as u32 {
            let e = EdgeId(i);
            match q.edge(e).label {
                Some(l) => {
                    if qedge_by_label.len() <= l.index() {
                        qedge_by_label.resize_with(l.index() + 1, Vec::new);
                    }
                    qedge_by_label[l.index()].push(e);
                }
                None => qedge_wildcard.push(e),
            }
        }

        TurboFlux {
            dcg: Dcg::new(&q, &tree),
            mo: Vec::new(),
            non_tree_incident,
            qedge_by_label,
            qedge_wildcard,
            order_snapshot: Vec::new(),
            scratch: SearchScratch::for_query(nq),
            deadline: Deadline::default(),
            refused_ops: 0,
            g: DynamicGraph::default(),
            q,
            tree,
            cfg,
        }
    }

    /// The data graph as maintained by the engine: the stream's graph
    /// projected onto the query's edge labels — every vertex, and the edges
    /// whose label some query edge can match ([`DynamicGraph::project`]).
    /// Empty for engines created with [`TurboFlux::register`] (the caller
    /// owns the graph).
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// The registered query.
    pub fn query(&self) -> &QueryGraph {
        &self.q
    }

    /// The query tree `q'`.
    pub fn query_tree(&self) -> &QueryTree {
        &self.tree
    }

    /// The maintained DCG, read against the engine's graph: empty for
    /// engines created with [`TurboFlux::register`], whose DCG derives from
    /// the caller's graph ([`crate::Fleet::dcg`]).
    pub fn dcg(&self) -> DcgView<'_> {
        DcgView::new(&self.dcg, &self.g)
    }

    /// The current matching order.
    pub fn matching_order(&self) -> &[QVertexId] {
        &self.mo
    }

    /// `BuildDCG` (Algorithm 3): depth-first construction of the DCG below
    /// the edge `(parent, u, cv)`, applying Transitions 1 and 2; returns the
    /// state it left that edge in. Update time only (`crate::ops`); the
    /// initial DCG is `crate::bulk`'s.
    pub(crate) fn build_dcg(
        &mut self,
        g: &DynamicGraph,
        parent: Option<VertexId>,
        u: QVertexId,
        cv: VertexId,
        scratch: &mut SearchScratch,
    ) -> EdgeState {
        // Case 1/2 of Transition 1 — and of Transition 2 in the same write
        // when there is no subtree to wait for: `u` is childless, or `cv`'s
        // subtrees were matched under another parent.
        let first = !self.dcg.is_reached(u, cv);
        let state = self.dcg.add(parent, u, cv);
        if let Some(pv) = parent {
            scratch.note(u, self.dcg.pair(u, pv, cv), true);
        }
        if state == EdgeState::Explicit {
            return EdgeState::Explicit;
        }
        // Check-and-avoid: recurse only if this is the first incoming edge
        // of cv labeled u — otherwise the subtrees are already built.
        if first {
            for ci in 0..self.tree.children(u).len() {
                let uc = self.tree.children(u)[ci];
                let start = scratch.kids.len();
                self.dcg.candidates(g, cv, uc, self.q.labels(uc), &mut scratch.kids);
                let end = scratch.kids.len();
                let mut i = start;
                while i < end {
                    let w = scratch.kids[i];
                    i += 1;
                    self.build_dcg(g, Some(cv), uc, w, scratch);
                }
                scratch.kids.truncate(start);
            }
        }
        // Case 1/2 of Transition 2.
        if !self.dcg.match_all_children(cv, u) {
            return EdgeState::Implicit;
        }
        debug_assert!(first, "(u, cv) matched behind a parent");
        self.dcg.promote(parent, u, cv);
        EdgeState::Explicit
    }

    /// `ClearDCG` (Algorithm 10): removes the edge `(parent, u, cv)` and
    /// cascades Transitions 3/5 into the subtree when `cv` loses its last
    /// incoming edge labeled `u`.
    pub(crate) fn clear_dcg(
        &mut self,
        g: &DynamicGraph,
        parent: Option<VertexId>,
        u: QVertexId,
        cv: VertexId,
        scratch: &mut SearchScratch,
    ) {
        let last = self.dcg.remove(g, parent, u, cv, scratch.uncounted_image(u));
        if let Some(pv) = parent {
            scratch.note(u, self.dcg.pair(u, pv, cv), false);
        }
        if last {
            for ci in 0..self.tree.children(u).len() {
                let uc = self.tree.children(u)[ci];
                // Snapshot the stored out-edges into the segmented stack:
                // the recursion clears the bits they are read under.
                let start = scratch.kids.len();
                let image = scratch.uncounted_image(uc);
                self.dcg.stored_far_ends(g, cv, uc, true, image, &mut scratch.kids);
                let end = scratch.kids.len();
                let mut i = start;
                while i < end {
                    let w = scratch.kids[i];
                    i += 1;
                    self.clear_dcg(g, Some(cv), uc, w, scratch);
                }
                scratch.kids.truncate(start);
            }
        }
    }

    /// Reports all matches of the initial data graph (Algorithm 2, lines
    /// 7–11), standalone mode.
    pub fn report_initial<S>(&mut self, sink: &mut S)
    where
        S: FnMut(&MatchRecord) + ?Sized,
    {
        let g = std::mem::take(&mut self.g);
        self.initial_matches_in(&g, sink);
        self.g = g;
    }

    /// Reports all matches of the initial data graph against a borrowed
    /// graph (externally driven mode; `g` must be the graph the DCG was
    /// built from). Emission order is the root-candidate (= vertex id) order.
    pub fn initial_matches_in<S>(&mut self, g: &DynamicGraph, sink: &mut S)
    where
        S: FnMut(&MatchRecord) + ?Sized,
    {
        let us = self.tree.root();
        let ctx = crate::search::SearchCtx::initial();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.kids.clear();
        scratch.kids.extend(
            (0..g.vertex_count() as u32).map(VertexId).filter(|&vs| self.dcg.is_explicit(us, vs)),
        );
        for i in 0..scratch.kids.len() {
            let vs = scratch.kids[i];
            scratch.bind(us, vs);
            self.subgraph_search(g, 0, &ctx, &mut scratch, &mut |_p, r| sink(r));
            scratch.unbind(us);
        }
        scratch.kids.clear();
        self.scratch = scratch;
    }

    /// Applies `ops` in order to the engine-owned graph, reporting every
    /// match as `sink(op index, positiveness, record)` (Algorithm 2, lines
    /// 12–20): one round of `round::apply` per op on this engine alone —
    /// stage, register the vertices the op created and evaluate its edge,
    /// finalize — with the batch lookahead pulling the graph groups of the
    /// ops a few rounds ahead into cache meanwhile. Batching changes when an
    /// op's memory is fetched, never what it emits. Standalone mode only —
    /// with [`TurboFlux::register`] the caller drives the `eval_*` methods
    /// directly.
    pub fn apply_batch<S>(&mut self, ops: &[UpdateOp], sink: &mut S)
    where
        S: FnMut(usize, Positiveness, &MatchRecord) + ?Sized,
    {
        // Evaluation borrows the engine mutably and the graph shared: the
        // graph steps out of the engine for the batch.
        let mut g = std::mem::take(&mut self.g);
        round::apply(self, &mut g, ops, Self::sees, |engine, i, g, round| {
            engine.refused_ops += u64::from(*round == Round::Refused);
            if let Some(from) = round.new_vertices() {
                engine.register_new_vertices(g, from);
            }
            engine.eval_round(g, round, &mut |p, r| sink(i, p, r));
        });
        self.g = g;
    }

    /// Evaluates the edge of one round over the staged graph `g`: an
    /// `Insert` or a `Delete`; every other round has none.
    pub(crate) fn eval_round<S>(&mut self, g: &DynamicGraph, round: &Round, sink: &mut S)
    where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        match *round {
            Round::Insert { src, label, dst, .. } => {
                self.eval_inserted_edge(g, src, label, dst, sink)
            }
            Round::Delete { src, label, dst } => self.eval_deleting_edge(g, src, label, dst, sink),
            Round::Skip | Round::Refused | Round::Register { .. } => {}
        }
    }

    /// [`Self::apply_batch`] of the one op.
    pub fn apply_op<S>(&mut self, op: &UpdateOp, sink: &mut S)
    where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized,
    {
        self.apply_batch(std::slice::from_ref(op), &mut |_, p, r| sink(p, r));
    }

    /// Registers start candidates for every data vertex with id ≥ `from`
    /// (externally driven mode: the caller grew the graph). A freshly
    /// created vertex matching `u_s` gets a start edge, implicit unless the
    /// root has no tree children — a new vertex has no edges.
    pub fn register_new_vertices(&mut self, g: &DynamicGraph, from: VertexId) {
        let us = self.tree.root();
        for i in from.0..g.vertex_count() as u32 {
            let v = VertexId(i);
            if self.q.labels(us).is_subset_of(g.labels(v)) && !self.dcg.is_reached(us, v) {
                self.dcg.add(None, us, v);
            }
        }
    }

    /// Total order over query edges used for duplicate-free reporting and
    /// invocation sequencing: tree edges rank by the depth of their child
    /// endpoint (shallow first — a deep edge's path condition can only be
    /// created by builds of shallower edges), ties by id; all non-tree
    /// edges rank above all tree edges.
    #[inline]
    pub(crate) fn edge_order_key(&self, e: EdgeId) -> u32 {
        if self.tree.is_tree_edge(e) {
            let qe = self.q.edge(e);
            let uc = if self.tree.parent_edge(qe.dst) == Some(e) { qe.dst } else { qe.src };
            (self.tree.depth(uc) << 16) | e.0
        } else {
            (1 << 24) | e.0
        }
    }

    /// The query edges a data edge labeled `label` can match: its bucket,
    /// then the label-wildcard edges.
    #[inline]
    pub(crate) fn qedges_for(&self, label: LabelId) -> impl Iterator<Item = EdgeId> + '_ {
        let bucket = self.qedge_by_label.get(label.index()).map_or(&[][..], Vec::as_slice);
        bucket.iter().chain(&self.qedge_wildcard).copied()
    }

    /// True iff some query edge can match a data edge labeled `label`: the
    /// labels of the edges a standalone engine stores.
    #[inline]
    pub(crate) fn sees(&self, label: LabelId) -> bool {
        self.qedges_for(label).next().is_some()
    }

    /// The invocation plan of the data edge `(src, label, dst)`: the query
    /// edges matching it, into the cleared `plan` in processing order — by
    /// [`Self::edge_order_key`], i.e. tree edges shallow first, then non-tree
    /// edges by ascending id; an entry's position is its invocation index.
    /// Only the label bucket built at registration (plus the label-wildcard
    /// edges) is inspected, not all of `E(q)`.
    pub(crate) fn matching_query_edges(
        &self,
        g: &DynamicGraph,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        plan: &mut Vec<EdgeId>,
    ) {
        plan.clear();
        plan.extend(self.qedges_for(label).filter(|&e| self.q.edge_matches(g, e, src, label, dst)));
        // Order keys are unique per edge, so the unstable (allocation-free)
        // sort is deterministic.
        plan.sort_unstable_by_key(|&e| self.edge_order_key(e));
    }

    /// For a matching *tree* edge, the (tree-parent-side, child-side) data
    /// vertices and the child query vertex.
    pub(crate) fn orient_tree_edge(
        &self,
        e: EdgeId,
        src: VertexId,
        dst: VertexId,
    ) -> (QVertexId, VertexId, VertexId) {
        let qe = self.q.edge(e);
        // The child endpoint is the one whose parent edge is `e`.
        let (uc, pv, cv) = if self.tree.parent_edge(qe.dst) == Some(e) {
            (qe.dst, src, dst)
        } else {
            debug_assert_eq!(self.tree.parent_edge(qe.src), Some(e));
            (qe.src, dst, src)
        };
        debug_assert_eq!(self.tree.child_is_target(uc), uc == qe.dst);
        (uc, pv, cv)
    }
}

impl ContinuousMatcher for TurboFlux {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        self.report_initial(sink);
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        self.apply_op(op, sink);
    }

    fn intermediate_result_bytes(&self) -> usize {
        self.dcg.resident_bytes()
    }

    fn set_deadline(&mut self, at: Option<std::time::Instant>) {
        self.deadline = Deadline::new(at);
    }

    fn timed_out(&self) -> bool {
        self.deadline.hit()
    }

    fn name(&self) -> &'static str {
        "TurboFlux"
    }
}
