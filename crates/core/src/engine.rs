//! The TurboFlux engine (§4, Algorithm 2).
//!
//! Construction transforms the query into a tree rooted at the starting
//! query vertex, builds the initial DCG with `BuildDCG`, and derives a
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
//!   what the round driver does with the cells of a [`crate::fleet::Fleet`]
//!   (many engines over one graph) and a [`crate::shard::ShardedEngine`]
//!   (many engines over one partitioned graph); standalone mode is the same
//!   round on the engine's own graph.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use rustc_hash::FxHashMap;
use tfx_graph::{shard_of, DynamicGraph, GraphStats, GraphView, LabelId, UpdateOp, VertexId};
use tfx_query::{
    choose_start_vertex, ContinuousMatcher, EdgeId, MatchRecord, MatchSemantics, Positiveness,
    QVertexId, QueryGraph, QueryTree,
};

use crate::config::TurboFluxConfig;
use crate::dcg::{Dcg, EdgeState};
use crate::order::OrderMaintenance;
use crate::parallel::ScratchPool;
use crate::round::{self, Round};
use crate::scratch::SearchScratch;
use crate::shared_index::SigKey;
use crate::shared_subtree::{BoundBranch, FleetCtx};
use crate::tree_nav::{collect_child_candidates, collect_shared_child_candidates};

/// How many search steps between wall-clock deadline checks (power of two:
/// the shared step counter is masked, not reset, so concurrent search
/// workers can bump it without coordination).
const DEADLINE_CHECK_INTERVAL: u32 = 4096;

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
    /// Bit `c` set in `child_mask[u]` iff `c ∈ Children(u)`.
    pub(crate) child_mask: Vec<u64>,
    /// Non-tree query edges incident to each query vertex.
    pub(crate) non_tree_incident: Vec<Vec<EdgeId>>,
    /// Query edges bucketed by their concrete edge label, so
    /// `matching_query_edges` only inspects edges whose label can match
    /// the updated data edge instead of scanning all of `E(q)`. Endpoint
    /// label-set containment is a per-update predicate (data vertices
    /// carry label *sets*), so it stays a per-candidate check.
    pub(crate) qedge_by_label: FxHashMap<LabelId, Vec<EdgeId>>,
    /// Query edges with no label constraint (match any data label).
    pub(crate) qedge_wildcard: Vec<EdgeId>,
    /// Per query vertex: the fleet-shared candidate signature bound to its
    /// tree edge, if the owning [`crate::fleet::Fleet`] shares it (root and
    /// wildcard-labeled edges are never shareable). Empty-slotted (`None`)
    /// for standalone engines and flag-off fleet engines.
    pub(crate) shared_sigs: Vec<Option<u32>>,
    /// Candidate collections served from the shared index.
    pub(crate) shared_hits: u64,
    /// Candidate collections that fell back to a private scan while a
    /// shared index was available (unshareable tree edge).
    pub(crate) shared_misses: u64,
    /// Per query vertex: the fleet-shared subtree instance and instance
    /// vertex this engine reads the vertex's DCG state from, when the
    /// vertex lies in a branch bound by [`TurboFlux::bind_branch`].
    /// All-`None` for standalone engines and flag-off fleet engines.
    pub(crate) branch_nodes: Vec<Option<(u32, QVertexId)>>,
    /// The bound branches (complete root-child subtrees served by shared
    /// instances).
    pub(crate) branches: Vec<BoundBranch>,
    /// Bit `c` set iff root child `c` is the root of a bound branch.
    pub(crate) shared_root_mask: u64,
    /// Derived explicit start-edge count for engines with bound branches
    /// (their own root map stores presence only; explicitness is derived
    /// from child state at read time). Refreshed by the order-maintenance
    /// path whenever a root child's explicit count was dirtied.
    pub(crate) root_expl_cache: u64,
    /// Effective per-vertex explicit counts (own counts with bound-branch
    /// vertices and the root patched in), reused by drift detection.
    pub(crate) counts_buf: Vec<u64>,
    /// DCG build/clear regions skipped because a shared instance already
    /// maintains them.
    pub(crate) subtree_hits: u64,
    /// Evaluations this engine ran against its private suffix while bound
    /// branches were served by shared instances.
    pub(crate) suffix_evals: u64,
    /// Maintenance-only engines (shared subtree instances) keep the DCG
    /// but never enumerate matches: `search_from_root` returns without
    /// searching, so climbs apply their transitions at zero search cost.
    pub(crate) maintenance_only: bool,
    /// Drift detection for `AdjustMatchingOrder`.
    pub(crate) order_maint: OrderMaintenance,
    /// Reusable buffers for the per-update hot path (embedding, candidate
    /// stacks, edge snapshots); steady-state updates allocate nothing.
    pub(crate) scratch: SearchScratch,
    /// Per-worker scratches and delta buffers for intra-update parallel
    /// enumeration, checked out under `&self` from scoped worker threads.
    pub(crate) pool: ScratchPool,
    /// `available_parallelism()` resolved once at registration (the `0 =
    /// auto` meaning of [`TurboFluxConfig::parallel_workers`]).
    pub(crate) auto_workers: usize,
    /// External cap on intra-update workers, set by a
    /// [`crate::fleet::Fleet`] so nested parallelism cannot oversubscribe
    /// its thread budget.
    pub(crate) worker_budget: usize,
    /// Optional wall-clock deadline (benchmark timeouts); checked
    /// periodically inside the search.
    pub(crate) deadline: Option<std::time::Instant>,
    /// Search steps since the deadline was set, bumped from every search
    /// worker; a wall-clock probe runs every `DEADLINE_CHECK_INTERVAL`
    /// steps.
    pub(crate) deadline_tick: AtomicU32,
    /// Latched once the deadline passed; the engine stops enumerating.
    pub(crate) deadline_hit: AtomicBool,
    /// `(shard, shards)` when this engine is one slice of a
    /// [`crate::shard::ShardedEngine`]: root candidates are registered only
    /// for data vertices this shard owns, so the engine maintains exactly
    /// the restriction of the global DCG to the downward closure of its
    /// owned roots. `None` for unsharded engines (own everything).
    pub(crate) partition: Option<(u32, u32)>,
}

impl TurboFlux {
    /// Registers `q` against the initial data graph `g0` and builds the
    /// initial DCG (Algorithm 2, lines 1–6). The engine owns `g0` and
    /// maintains it through [`TurboFlux::apply_op`].
    ///
    /// Panics if `q` is empty, disconnected, or has more than 64 vertices.
    pub fn new(q: QueryGraph, g0: DynamicGraph, cfg: TurboFluxConfig) -> Self {
        let mut engine = Self::register(q, &g0, cfg);
        engine.g = g0;
        engine
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
        Self::register_inner(q, g0, cfg, None)
    }

    /// [`TurboFlux::register`] for one shard slice of a
    /// [`crate::shard::ShardedEngine`]: query analysis (start vertex, tree,
    /// matching order inputs) runs against the *full* initial graph — so
    /// every shard derives the identical plan — but only root candidates
    /// with `shard_of(v, shards) == shard` are registered, giving this
    /// engine the partition-local DCG slice.
    pub(crate) fn register_partitioned(
        q: QueryGraph,
        g0: &DynamicGraph,
        cfg: TurboFluxConfig,
        shard: u32,
        shards: u32,
    ) -> Self {
        Self::register_inner(q, g0, cfg, Some((shard, shards)))
    }

    fn register_inner(
        q: QueryGraph,
        g0: &DynamicGraph,
        cfg: TurboFluxConfig,
        partition: Option<(u32, u32)>,
    ) -> Self {
        let mut engine = Self::analyze(q, g0, cfg, partition, None);
        engine.finish_registration(g0, FleetCtx::NONE);
        engine
    }

    /// [`TurboFlux::register`] for a shared subtree instance
    /// ([`crate::shared_subtree`]): the start vertex is forced to `root`
    /// (the synthetic prefix root, so the execution tree reproduces the
    /// sharing engines' branch exactly) and enumeration is disabled — the
    /// instance exists purely to maintain DCG state.
    pub(crate) fn register_rooted(
        q: QueryGraph,
        g0: &DynamicGraph,
        cfg: TurboFluxConfig,
        root: QVertexId,
    ) -> Self {
        let mut engine = Self::analyze(q, g0, cfg, None, Some(root));
        engine.maintenance_only = true;
        engine.finish_registration(g0, FleetCtx::NONE);
        engine
    }

    /// Query analysis and engine construction without the initial DCG
    /// build: everything a [`crate::fleet::Fleet`] needs to decide branch
    /// sharing (the execution tree) before any DCG state exists. Callers
    /// must follow up with [`TurboFlux::finish_registration`].
    pub(crate) fn analyze(
        q: QueryGraph,
        g0: &DynamicGraph,
        cfg: TurboFluxConfig,
        partition: Option<(u32, u32)>,
        forced_root: Option<QVertexId>,
    ) -> Self {
        assert!(q.edge_count() > 0, "query must have at least one edge");
        assert!(q.is_connected(), "query must be connected");
        let stats = GraphStats::new(g0);
        let us = forced_root.unwrap_or_else(|| choose_start_vertex(&q, &stats));
        let tree = QueryTree::build(&q, us, &stats);
        let nq = q.vertex_count();

        let mut child_mask = vec![0u64; nq];
        for u in q.vertices() {
            for &c in tree.children(u) {
                child_mask[u.index()] |= 1 << c.0;
            }
        }
        let mut non_tree_incident = vec![Vec::new(); nq];
        for &e in tree.non_tree_edges() {
            let qe = q.edge(e);
            non_tree_incident[qe.src.index()].push(e);
            if qe.dst != qe.src {
                non_tree_incident[qe.dst.index()].push(e);
            }
        }
        let mut qedge_by_label: FxHashMap<LabelId, Vec<EdgeId>> = FxHashMap::default();
        let mut qedge_wildcard = Vec::new();
        for i in 0..q.edge_count() as u32 {
            let e = EdgeId(i);
            match q.edge(e).label {
                Some(l) => qedge_by_label.entry(l).or_default().push(e),
                None => qedge_wildcard.push(e),
            }
        }

        let track_bound = cfg.semantics == MatchSemantics::Isomorphism;
        TurboFlux {
            dcg: Dcg::new(nq, us),
            mo: Vec::new(),
            child_mask,
            non_tree_incident,
            qedge_by_label,
            qedge_wildcard,
            shared_sigs: vec![None; nq],
            shared_hits: 0,
            shared_misses: 0,
            branch_nodes: vec![None; nq],
            branches: Vec::new(),
            shared_root_mask: 0,
            root_expl_cache: 0,
            counts_buf: Vec::new(),
            subtree_hits: 0,
            suffix_evals: 0,
            maintenance_only: false,
            order_maint: OrderMaintenance::default(),
            scratch: SearchScratch::for_query(nq, track_bound),
            pool: ScratchPool::default(),
            auto_workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            worker_budget: usize::MAX,
            deadline: None,
            deadline_tick: AtomicU32::new(0),
            deadline_hit: AtomicBool::new(false),
            partition,
            g: DynamicGraph::default(),
            q,
            tree,
            cfg,
        }
    }

    /// Binds the complete root-child branch rooted at `branch_root` to
    /// shared instance `inst`; `mapping` is the engine-vertex →
    /// instance-vertex binding from
    /// [`crate::shared_subtree::canonical_branch`]. Must run after
    /// [`TurboFlux::analyze`] and before [`TurboFlux::finish_registration`]
    /// (the initial build skips bound regions).
    pub(crate) fn bind_branch(
        &mut self,
        branch_root: QVertexId,
        inst: u32,
        mapping: &[(QVertexId, QVertexId)],
    ) {
        for &(u, iu) in mapping {
            debug_assert!(self.branch_nodes[u.index()].is_none(), "vertex bound twice");
            self.branch_nodes[u.index()] = Some((inst, iu));
        }
        let inst_root_u = mapping[0].1;
        self.branches.push(BoundBranch { inst, inst_root_u });
        self.shared_root_mask |= 1 << branch_root.0;
    }

    /// Builds the initial DCG (a hypothetical start-edge insertion for
    /// every matching data vertex — Algorithm 2, lines 4–5, restricted to
    /// unbound regions when branches are shared) and derives the matching
    /// order. Completes a [`TurboFlux::analyze`] into a usable engine.
    pub(crate) fn finish_registration(&mut self, g0: &DynamicGraph, fleet: FleetCtx<'_>) {
        let us = self.tree.root();
        let mut scratch = std::mem::take(&mut self.scratch);
        for v in g0.vertices() {
            if self.owns_root(v) && self.q.labels(us).is_subset_of(g0.labels(v)) {
                self.build_dcg(g0, fleet, None, us, v, &mut scratch);
            }
        }
        self.scratch = scratch;
        self.recompute_matching_order(fleet);
    }

    /// The data graph as maintained by the engine. Empty for engines
    /// created with [`TurboFlux::register`] (the caller owns the graph).
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

    /// The maintained DCG.
    pub fn dcg(&self) -> &Dcg {
        &self.dcg
    }

    /// The current matching order.
    pub fn matching_order(&self) -> &[QVertexId] {
        &self.mo
    }

    /// Sets (or clears) a wall-clock deadline. Once it passes, the engine
    /// stops enumerating matches and [`ContinuousMatcher::timed_out`]
    /// latches true; results are incomplete from then on. Used by the
    /// benchmark harness to bound single explosive updates.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        // 0 makes the very next probe's `fetch_add` return a masked zero,
        // i.e. the clock is consulted immediately after (re)arming.
        self.deadline_tick.store(0, Ordering::Relaxed);
        self.deadline_hit.store(false, Ordering::Relaxed);
    }

    /// Caps intra-update parallelism regardless of the configured
    /// [`TurboFluxConfig::parallel_workers`]. A [`crate::fleet::Fleet`]
    /// sets this before fanning a batch out over its own workers so the
    /// two parallelism layers multiply to at most its thread budget.
    pub fn set_worker_budget(&mut self, workers: usize) {
        self.worker_budget = workers.max(1);
    }

    /// Effective intra-update worker count: the config knob (0 = one per
    /// available core) clamped by the external budget.
    #[inline]
    pub(crate) fn intra_workers(&self) -> usize {
        let configured = match self.cfg.parallel_workers {
            0 => self.auto_workers,
            n => n,
        };
        configured.min(self.worker_budget).max(1)
    }

    /// Cheap periodic deadline probe (called from the search hot loop,
    /// possibly from several worker threads at once — the step counter is
    /// a shared atomic and the hit flag a monotonic latch, so probes never
    /// need coordination; the cadence just degrades to approximately every
    /// `DEADLINE_CHECK_INTERVAL` steps per worker group).
    #[inline]
    pub(crate) fn deadline_exceeded(&self) -> bool {
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.deadline_tick.fetch_add(1, Ordering::Relaxed) & (DEADLINE_CHECK_INTERVAL - 1) != 0 {
            return false;
        }
        if std::time::Instant::now() >= deadline {
            self.deadline_hit.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// `MatchAllChildren` (Algorithm 4), O(1) via the explicit-out bitmap.
    #[inline]
    pub(crate) fn match_all_children(&self, v: VertexId, u: QVertexId) -> bool {
        let mask = self.child_mask[u.index()];
        self.dcg.expl_out_bits(v) & mask == mask
    }

    /// Whether any branch of this engine's execution tree is served by a
    /// fleet-shared subtree instance.
    #[inline]
    pub(crate) fn has_shared_branches(&self) -> bool {
        !self.branches.is_empty()
    }

    /// The shared instance serving query vertex `u`, if any.
    #[inline]
    fn branch_of(&self, u: QVertexId) -> Option<(u32, QVertexId)> {
        self.branch_nodes[u.index()]
    }

    /// [`TurboFlux::match_all_children`] over the effective DCG: bound
    /// branch vertices read the instance's bitmap; the root combines its
    /// private children's own bits with each bound branch's instance bit.
    pub(crate) fn st_match_all_children(
        &self,
        fleet: FleetCtx<'_>,
        v: VertexId,
        u: QVertexId,
    ) -> bool {
        if let Some((inst, iu)) = self.branch_of(u) {
            return fleet.subtrees().eng(inst).match_all_children(v, iu);
        }
        if u == self.tree.root() && self.has_shared_branches() {
            let own_mask = self.child_mask[u.index()] & !self.shared_root_mask;
            if self.dcg.expl_out_bits(v) & own_mask != own_mask {
                return false;
            }
            let sub = fleet.subtrees();
            return self
                .branches
                .iter()
                .all(|b| sub.eng(b.inst).dcg.expl_out_bits(v) & (1 << b.inst_root_u.0) != 0);
        }
        self.match_all_children(v, u)
    }

    /// State of the artificial start edge over the effective DCG. Engines
    /// with bound branches store root presence only and derive
    /// explicitness (`MatchAllChildren` over the combined bitmap) at read
    /// time — their own map cannot see instance-side transitions.
    pub(crate) fn st_root_state(&self, fleet: FleetCtx<'_>, v: VertexId) -> Option<EdgeState> {
        let st = self.dcg.root_state(v)?;
        if !self.has_shared_branches() {
            return Some(st);
        }
        Some(if self.st_match_all_children(fleet, v, self.tree.root()) {
            EdgeState::Explicit
        } else {
            EdgeState::Implicit
        })
    }

    /// [`Dcg::state`] over the effective DCG.
    #[inline]
    pub(crate) fn st_state(
        &self,
        fleet: FleetCtx<'_>,
        pv: VertexId,
        u: QVertexId,
        cv: VertexId,
    ) -> Option<EdgeState> {
        match self.branch_of(u) {
            Some((inst, iu)) => fleet.subtrees().eng(inst).dcg.state(pv, iu, cv),
            None => self.dcg.state(pv, u, cv),
        }
    }

    /// [`Dcg::in_count_total`] over the effective DCG.
    #[inline]
    pub(crate) fn st_in_count_total(
        &self,
        fleet: FleetCtx<'_>,
        v: VertexId,
        u: QVertexId,
    ) -> usize {
        match self.branch_of(u) {
            Some((inst, iu)) => fleet.subtrees().eng(inst).dcg.in_count_total(v, iu),
            None => self.dcg.in_count_total(v, u),
        }
    }

    /// [`Dcg::out_expl_count`] over the effective DCG.
    #[inline]
    pub(crate) fn st_out_expl_count(
        &self,
        fleet: FleetCtx<'_>,
        pv: VertexId,
        u: QVertexId,
    ) -> usize {
        match self.branch_of(u) {
            Some((inst, iu)) => fleet.subtrees().eng(inst).dcg.out_expl_count(pv, iu),
            None => self.dcg.out_expl_count(pv, u),
        }
    }

    /// [`Dcg::out_edge_slice`] over the effective DCG.
    #[inline]
    pub(crate) fn st_out_edge_slice<'a>(
        &'a self,
        fleet: FleetCtx<'a>,
        pv: VertexId,
        u: QVertexId,
    ) -> &'a [(VertexId, EdgeState)] {
        match self.branch_of(u) {
            Some((inst, iu)) => fleet.subtrees().eng(inst).dcg.out_edge_slice(pv, iu),
            None => self.dcg.out_edge_slice(pv, u),
        }
    }

    /// [`Dcg::in_edge_slice`] over the effective DCG.
    #[inline]
    pub(crate) fn st_in_edge_slice<'a>(
        &'a self,
        fleet: FleetCtx<'a>,
        v: VertexId,
        u: QVertexId,
    ) -> &'a [(VertexId, EdgeState)] {
        match self.branch_of(u) {
            Some((inst, iu)) => fleet.subtrees().eng(inst).dcg.in_edge_slice(v, iu),
            None => self.dcg.in_edge_slice(v, u),
        }
    }

    /// Whether this engine registers root candidates for data vertex `v`
    /// (always, unless partitioned — then only for owned vertices).
    #[inline]
    pub(crate) fn owns_root(&self, v: VertexId) -> bool {
        match self.partition {
            None => true,
            Some((shard, shards)) => shard_of(v, shards) == shard,
        }
    }

    /// The shared-candidate signature of `u`'s tree edge, if that edge is
    /// shareable across queries: the edge label (`None` routes to the
    /// wildcard bucket) plus `u`'s label set and the edge's orientation pin
    /// down the exact candidate filter (the parent-side label check stays
    /// per-query at read time). Only root vertices (no tree edge) are not
    /// shareable.
    pub(crate) fn shared_sig_key(&self, u: QVertexId) -> Option<SigKey> {
        let e = self.tree.parent_edge(u)?;
        Some(SigKey {
            label: self.q.edge(e).label,
            child_labels: self.q.labels(u).clone(),
            out: self.tree.child_is_target(u),
        })
    }

    /// `BuildDCG` (Algorithm 3): depth-first construction of the DCG below
    /// the edge `(parent, u, cv)`, applying Transitions 1 and 2.
    ///
    /// With a fleet candidate index set, child candidates of tree edges
    /// bound to a shared signature are read from the fleet index instead
    /// of scanned privately — identical candidates in identical order.
    /// Children whose subtree is bound to a shared instance are never
    /// built privately at all: their state lives in the instance.
    pub(crate) fn build_dcg<G: GraphView>(
        &mut self,
        g: &G,
        fleet: FleetCtx<'_>,
        parent: Option<VertexId>,
        u: QVertexId,
        cv: VertexId,
        scratch: &mut SearchScratch,
    ) {
        // Case 1/2 of Transition 1.
        let prev = self.dcg.transit(parent, u, cv, Some(EdgeState::Implicit));
        debug_assert!(prev.is_none(), "build_dcg must start from a NULL edge");
        // Check-and-avoid: recurse only if this is the first incoming edge
        // of cv labeled u — otherwise the subtrees are already built.
        if self.dcg.in_count_total(cv, u) == 1 {
            let mode = self.cfg.adjacency_mode();
            for ci in 0..self.tree.children(u).len() {
                let uc = self.tree.children(u)[ci];
                if self.branch_nodes[uc.index()].is_some() {
                    self.subtree_hits += 1;
                    continue;
                }
                let start = match (fleet.idx, self.shared_sigs[uc.index()]) {
                    (Some(idx), Some(sig)) => {
                        self.shared_hits += 1;
                        collect_shared_child_candidates(
                            g,
                            &self.q,
                            &self.tree,
                            idx,
                            sig,
                            uc,
                            cv,
                            &mut scratch.kids,
                        )
                    }
                    _ => {
                        if fleet.idx.is_some() {
                            self.shared_misses += 1;
                        }
                        collect_child_candidates(
                            g,
                            &self.q,
                            &self.tree,
                            uc,
                            cv,
                            mode,
                            &mut scratch.kids,
                        )
                    }
                };
                let end = scratch.kids.len();
                let mut i = start;
                while i < end {
                    let w = scratch.kids[i];
                    i += 1;
                    self.build_dcg(g, fleet, Some(cv), uc, w, scratch);
                }
                scratch.kids.truncate(start);
            }
        }
        // Case 1/2 of Transition 2. Engines with bound branches keep their
        // root map presence-only (explicitness is derived at read time via
        // `st_root_state`), so the root upgrade is skipped for them.
        if (u != self.tree.root() || !self.has_shared_branches()) && self.match_all_children(cv, u)
        {
            self.dcg.transit(parent, u, cv, Some(EdgeState::Explicit));
        }
    }

    /// `ClearDCG` (Algorithm 10): removes the edge `(parent, u, cv)` and
    /// cascades Transitions 3/5 into the subtree when `cv` loses its last
    /// incoming edge labeled `u`.
    pub(crate) fn clear_dcg(
        &mut self,
        parent: Option<VertexId>,
        u: QVertexId,
        cv: VertexId,
        scratch: &mut SearchScratch,
    ) {
        let old = self.dcg.transit(parent, u, cv, None);
        debug_assert!(old.is_some(), "clear_dcg on a NULL edge");
        if self.dcg.in_count_total(cv, u) == 0 {
            for ci in 0..self.tree.children(u).len() {
                let uc = self.tree.children(u)[ci];
                // Snapshot the out-list into the segmented stack: the
                // recursion removes from the list being iterated.
                let start = scratch.kids.len();
                scratch.kids.extend(self.dcg.out_edge_slice(cv, uc).iter().map(|&(w, _)| w));
                let end = scratch.kids.len();
                let mut i = start;
                while i < end {
                    let w = scratch.kids[i];
                    i += 1;
                    self.clear_dcg(Some(cv), uc, w, scratch);
                }
                scratch.kids.truncate(start);
            }
        }
    }

    /// Reports all matches of the initial data graph (Algorithm 2, lines
    /// 7–11), standalone mode.
    pub fn report_initial(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        let g = std::mem::take(&mut self.g);
        self.initial_matches_in(&g, sink);
        self.g = g;
    }

    /// Reports all matches of the initial data graph against a borrowed
    /// graph (externally driven mode; `g` must be the graph the DCG was
    /// built from). When the explicit root-candidate set is wide enough
    /// the candidates are partitioned across worker threads ([`crate::parallel`]);
    /// emission order is the candidate (= vertex id) order either way.
    pub fn initial_matches_in<G: GraphView>(&mut self, g: &G, sink: &mut dyn FnMut(&MatchRecord)) {
        self.initial_matches_ctx(g, FleetCtx::NONE, sink);
    }

    /// [`TurboFlux::initial_matches_in`] with fleet-shared state (a
    /// [`crate::fleet::Fleet`] passes its candidate index and subtree
    /// store; everyone else goes through the plain wrapper).
    pub(crate) fn initial_matches_ctx<G: GraphView>(
        &mut self,
        g: &G,
        fleet: FleetCtx<'_>,
        sink: &mut dyn FnMut(&MatchRecord),
    ) {
        let us = self.tree.root();
        let ctx = crate::search::SearchCtx::initial(fleet);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.kids.clear();
        scratch.kids.extend(
            (0..g.vertex_count() as u32)
                .map(VertexId)
                .filter(|&vs| self.st_root_state(fleet, vs) == Some(EdgeState::Explicit)),
        );
        let workers = self.intra_workers();
        if workers > 1 && scratch.kids.len() >= self.cfg.parallel_min_frontier {
            let kids = std::mem::take(&mut scratch.kids);
            self.search_chunked_roots(g, &ctx, &kids, &mut scratch, workers, &mut |_p, r| sink(r));
            scratch.kids = kids;
        } else {
            for i in 0..scratch.kids.len() {
                let vs = scratch.kids[i];
                scratch.bind(us, vs);
                self.subgraph_search(g, 0, &ctx, &mut scratch, &mut |_p, r| sink(r));
                scratch.unbind(us);
            }
        }
        scratch.kids.clear();
        self.scratch = scratch;
    }

    /// Applies one update operation to the engine-owned graph, reporting
    /// positive / negative matches (Algorithm 2, lines 12–20): one round of
    /// [`crate::round`] on a single engine. Standalone mode only — with
    /// [`TurboFlux::register`] the caller drives the `eval_*` methods
    /// directly.
    pub fn apply_op(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        let (round, _) = round::stage(&mut self.g, op);
        if round == Round::Skip {
            return;
        }
        let g = std::mem::take(&mut self.g);
        if let Some(from) = round.new_vertices() {
            self.register_new_vertices(&g, from);
        }
        match round {
            Round::Insert { src, label, dst, .. } => {
                self.eval_inserted_edge(&g, src, label, dst, sink)
            }
            Round::Delete { src, label, dst } => self.eval_deleting_edge(&g, src, label, dst, sink),
            Round::Skip | Round::Register { .. } => {}
        }
        self.g = g;
        round::finalize(&mut self.g, &round);
    }

    /// Registers start candidates for every data vertex with id ≥ `from`
    /// (externally driven mode: the caller grew the graph). A freshly
    /// created vertex matching `u_s` gets an implicit start edge — it
    /// cannot be explicit, since the root of a non-trivial query has
    /// children and a new vertex has no edges.
    pub fn register_new_vertices<G: GraphView>(&mut self, g: &G, from: VertexId) {
        let us = self.tree.root();
        for i in from.0..g.vertex_count() as u32 {
            let v = VertexId(i);
            if self.owns_root(v)
                && self.q.labels(us).is_subset_of(g.labels(v))
                && self.dcg.root_state(v).is_none()
            {
                self.dcg.transit(None, us, v, Some(EdgeState::Implicit));
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

    /// Fills `scratch.tree_edges` / `scratch.non_tree` with the query edges
    /// matching the data edge `(src, label, dst)`, in processing order
    /// (tree edges by ascending order key, then non-tree edges by ascending
    /// id). Only the label bucket built at registration (plus the
    /// label-wildcard edges) is inspected, not all of `E(q)`.
    pub(crate) fn matching_query_edges<G: GraphView>(
        &self,
        g: &G,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        scratch: &mut SearchScratch,
    ) {
        scratch.tree_edges.clear();
        scratch.non_tree.clear();
        let bucket = self.qedge_by_label.get(&label).map_or(&[][..], Vec::as_slice);
        for &e in bucket.iter().chain(&self.qedge_wildcard) {
            if self.q.edge_matches(g, e, src, label, dst) {
                if self.tree.is_tree_edge(e) {
                    scratch.tree_edges.push(e);
                } else {
                    scratch.non_tree.push(e);
                }
            }
        }
        // Order keys are unique per edge, so the unstable (allocation-free)
        // sorts are deterministic. The non-tree sort restores ascending id
        // order across the bucket/wildcard interleave.
        scratch.tree_edges.sort_unstable_by_key(|&e| self.edge_order_key(e));
        scratch.non_tree.sort_unstable_by_key(|&e| e.0);
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

    fn timed_out(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "TurboFlux"
    }
}
