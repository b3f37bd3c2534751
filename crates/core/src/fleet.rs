//! Batched multi-query evaluation over one shared update stream.
//!
//! Real deployments register many continuous queries against the same
//! streaming graph. A [`Fleet`] owns the single [`DynamicGraph`] and `N`
//! independent [`TurboFlux`] engines (one DCG per query) and evaluates
//! update batches with [`Fleet::apply_batch`].
//!
//! # Multi-query optimization
//!
//! Engines are independent, but their *work* overlaps, and the fleet
//! exploits that in two layers:
//!
//! * **Op routing.** The per-engine `qedge_by_label` buckets are lifted
//!   into one fleet-wide `label → interested engines` table (rebuilt on
//!   [`Fleet::register`] / [`Fleet::deregister`]; engines with wildcard
//!   query edges are interested in every label). Each edge op is
//!   dispatched only to engines with a query edge that can match its label
//!   — an op whose label no query mentions costs O(1), not O(N engines).
//!   Skipping is exact: a non-interested engine would find zero matching
//!   query edges, change nothing, and emit nothing, so routing cannot
//!   change output. Vertex additions still visit every engine
//!   ([`crate::round::route`]).
//! * **Shared candidate index.** Distinct queries whose execution trees
//!   contain equal-signature edges (same edge label, child label set, and
//!   orientation) re-filter identical adjacency runs. The fleet maintains
//!   one [`SharedCandidateIndex`] — updated once per op, exactly in step
//!   with the graph — and engines read candidate runs from it during DCG
//!   builds instead of re-scanning (see [`crate::shared_index`]). The
//!   [`crate::TurboFluxConfig::fleet_shared_index`] flag is the per-engine
//!   ablation switch.
//!
//! [`Fleet::stats`] reports routing and sharing counters.
//!
//! # Execution
//!
//! A batch runs on the round driver ([`crate::round`]) with one cell per
//! engine: the fleet contributes only its [`Rounds`] hooks — keeping the
//! shared index and the shared subtree instances in step with the graph
//! around `stage` / `finalize`, the routing table as the target list, and
//! the post-finalize matching-order check of shared-branch engines. The
//! loop, the worker pool and the `(engine, op_index, emission)` output
//! order — independent of thread count, routing and candidate sourcing —
//! are the driver's.

use rustc_hash::FxHashMap;
use tfx_graph::{DynamicGraph, LabelId, UpdateOp};
use tfx_query::{MatchRecord, Positiveness, QueryGraph};

use crate::config::TurboFluxConfig;
use crate::engine::TurboFlux;
use crate::round::{self, Cells, Emit, Key, Round, Rounds, Target};
use crate::shared_index::SharedCandidateIndex;
use crate::shared_subtree::{canonical_branch, FleetCtx, SharedSubtrees};

/// A match delta reported by [`Fleet::apply_batch`].
#[derive(Clone, Copy, Debug)]
pub struct FleetDelta<'a> {
    /// The engine (stable registration id) the match belongs to.
    pub engine: usize,
    /// Index of the triggering op within the batch.
    pub op_index: usize,
    /// Positive (appeared) or negative (disappeared).
    pub positiveness: Positiveness,
    /// The complete mapping. Borrowed from the batch buffer; clone to keep.
    pub record: &'a MatchRecord,
}

/// Multi-query-optimization counters, cumulative over a [`Fleet`]'s
/// lifetime (deregistered engines' contributions are retained).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Engine-evaluations of edge ops that were dispatched (the engine had
    /// a query edge that could match the op's label).
    pub ops_routed: u64,
    /// Engine-evaluations of edge ops that were skipped by routing.
    pub ops_skipped: u64,
    /// DCG candidate collections served from the shared index.
    pub shared_hits: u64,
    /// DCG candidate collections that fell back to a private adjacency
    /// scan while the shared index was in use (unshareable tree edge).
    pub shared_misses: u64,
    /// Live shared subtree instances currently serving ≥ 2 engines (a
    /// gauge, not a cumulative counter).
    pub subtrees_shared: u64,
    /// DCG build/clear regions engines skipped because a shared subtree
    /// instance already maintains them.
    pub subtree_hits: u64,
    /// Edge evaluations engines ran against their private suffix while
    /// bound branches were served by shared instances.
    pub suffix_evals: u64,
}

impl FleetStats {
    /// Adds `engine`'s own sharing counters.
    fn absorb(&mut self, engine: &TurboFlux) {
        self.shared_hits += engine.shared_hits;
        self.shared_misses += engine.shared_misses;
        self.subtree_hits += engine.subtree_hits;
        self.suffix_evals += engine.suffix_evals;
    }
}

/// Everything the engines share, and the fleet's round hooks over it.
struct Shared {
    graph: DynamicGraph,
    index: SharedCandidateIndex,
    subtrees: SharedSubtrees,
    /// Edge label → engine positions with a query edge that label can
    /// match, wildcard engines included (ascending). Rebuilt on
    /// register/deregister.
    routing: FxHashMap<LabelId, Vec<usize>>,
    /// Engine positions with label-wildcard query edges (ascending): the
    /// routing entry of every label no query names.
    wildcard: Vec<usize>,
    ops_routed: u64,
    ops_skipped: u64,
}

impl Rounds for Shared {
    type Cell = TurboFlux;

    fn cells_per_query(&self) -> usize {
        1
    }

    /// Keeps the shared index and the subtree instances exactly in step
    /// with the graph. Insertion maintenance of the instances runs here —
    /// before any engine evaluates — so suffix climbs read post-op shared
    /// state (a superset of the naive mid-op state; the order filter
    /// discards the difference).
    fn stage(
        &mut self,
        op: &UpdateOp,
        engines: &mut Cells<'_, '_, TurboFlux>,
        targets: &mut Vec<Target>,
    ) -> Round {
        let (round, _) = round::stage(&mut self.graph, op);
        if let Some(from) = round.new_vertices() {
            self.subtrees.register_new_vertices(&self.graph, from);
        }
        if let Round::Insert { src, label, dst, .. } = round {
            self.index.insert_edge(&self.graph, src, label, dst);
            self.subtrees.maintain_insert(&self.graph, src, label, dst);
        }
        let interested = round
            .edge()
            .map_or(&[][..], |(_, label, _)| self.routing.get(&label).unwrap_or(&self.wildcard));
        round::route(&round, engines.len(), interested.iter().copied(), targets);
        if round.edge().is_some() {
            self.ops_routed += interested.len() as u64;
            self.ops_skipped += (engines.len() - interested.len()) as u64;
        }
        round
    }

    fn run(&self, engine: &mut TurboFlux, target: Target, round: &Round, emit: &mut Emit<'_>) {
        let g = &self.graph;
        if let Some(from) = round.new_vertices() {
            engine.register_new_vertices(g, from);
        }
        if !target.eval {
            return;
        }
        let fleet = FleetCtx {
            idx: engine.cfg.fleet_shared_index.then_some(&self.index),
            sub: Some(&self.subtrees),
        };
        let mut sink = |p, r: &MatchRecord| emit(Key::default(), p, r);
        match *round {
            Round::Insert { src, label, dst, .. } => {
                engine.eval_inserted_edge_in(g, fleet, src, label, dst, &mut sink)
            }
            Round::Delete { src, label, dst } => {
                engine.eval_deleting_edge_in(g, fleet, src, label, dst, &mut sink)
            }
            Round::Skip | Round::Register { .. } => {}
        }
    }

    /// Deletion maintenance of the subtree instances runs here — after
    /// every engine evaluated — so suffix climbs read frozen pre-op shared
    /// state (a superset of the naive mid-op state, discarded the same
    /// way). Then the matching-order check of shared-branch engines: their
    /// in-eval adjust is suppressed (effective counts fold in instance
    /// state, which for deletions settles only now), so it runs here, once
    /// per routed engine per edge op.
    fn finalize(
        &mut self,
        round: &Round,
        targets: &[Target],
        engines: &mut Cells<'_, '_, TurboFlux>,
    ) {
        if let Round::Delete { src, label, dst } = *round {
            self.subtrees.maintain_delete(&self.graph, src, label, dst);
            self.index.delete_edge(src, label, dst);
        }
        round::finalize(&mut self.graph, round);
        // Only edge rounds have evaluating targets.
        for t in targets.iter().filter(|t| t.eval) {
            let engine = engines.get(t.cell);
            if engine.has_shared_branches() {
                engine.maybe_adjust_order_in(FleetCtx { idx: None, sub: Some(&self.subtrees) });
            }
        }
    }
}

/// A set of continuous queries evaluated together over one streaming graph.
pub struct Fleet {
    shared: Shared,
    engines: Vec<TurboFlux>,
    /// Stable registration id per engine position; strictly ascending
    /// ([`Fleet::deregister`] removes, never renumbers), so position order
    /// is id order and [`FleetDelta`]s stay sorted by `(engine, op_index)`.
    ids: Vec<usize>,
    next_id: usize,
    /// Sharing counters drained from deregistered engines (live engines
    /// keep their own; [`Fleet::stats`] sums both).
    drained: FleetStats,
    threads: usize,
}

impl Fleet {
    /// A fleet over `g0` using all available parallelism.
    pub fn new(g0: DynamicGraph) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_threads(g0, threads)
    }

    /// A fleet over `g0` evaluating batches on up to `threads` worker
    /// threads (clamped to ≥ 1; `1` evaluates inline without spawning).
    pub fn with_threads(g0: DynamicGraph, threads: usize) -> Self {
        Fleet {
            shared: Shared {
                graph: g0,
                index: SharedCandidateIndex::new(),
                subtrees: SharedSubtrees::new(),
                routing: FxHashMap::default(),
                wildcard: Vec::new(),
                ops_routed: 0,
                ops_skipped: 0,
            },
            engines: Vec::new(),
            ids: Vec::new(),
            next_id: 0,
            drained: FleetStats::default(),
            threads: threads.max(1),
        }
    }

    /// Registers a query against the current graph state, building its DCG,
    /// entering it into the op-routing table, and binding its shareable
    /// tree edges to the shared candidate index (unless
    /// [`TurboFluxConfig::fleet_shared_index`] is off). Returns the
    /// engine's stable id, used in [`FleetDelta::engine`] and
    /// [`Fleet::deregister`]; ids are never reused.
    ///
    /// Fleet engines are capped to the fleet's thread budget for
    /// intra-update parallelism; [`Fleet::apply_batch`] tightens the cap
    /// further while several engines evaluate concurrently.
    pub fn register(&mut self, q: QueryGraph, cfg: TurboFluxConfig) -> usize {
        let Shared { graph, index, subtrees, .. } = &mut self.shared;
        let graph = &*graph;
        let mut engine = TurboFlux::analyze(q, graph, cfg, None, None);
        engine.set_worker_budget(self.threads);
        if cfg.fleet_shared_subtrees {
            // Bind every complete root-child subtree with at least one
            // grandchild to a (refcounted, possibly pre-existing) shared
            // instance; the initial build below then skips those regions.
            let root = engine.query_tree().root();
            let branch_roots: Vec<_> = engine
                .query_tree()
                .children(root)
                .iter()
                .copied()
                .filter(|&c| !engine.query_tree().children(c).is_empty())
                .collect();
            for c in branch_roots {
                let (key, mapping) = canonical_branch(engine.query(), engine.query_tree(), c);
                let inst = subtrees.acquire(graph, key);
                engine.bind_branch(c, inst, &mapping);
            }
        }
        if cfg.fleet_shared_index {
            let nq = engine.query().vertex_count();
            for ui in 0..nq as u32 {
                let u = tfx_query::QVertexId(ui);
                // Vertices inside bound branches are never built privately,
                // so a per-edge signature would be dead weight.
                if engine.branch_nodes[u.index()].is_some() {
                    continue;
                }
                if let Some(key) = engine.shared_sig_key(u) {
                    engine.shared_sigs[u.index()] = Some(index.acquire(graph, key));
                }
            }
        }
        let fleet =
            FleetCtx { idx: cfg.fleet_shared_index.then_some(&*index), sub: Some(&*subtrees) };
        engine.finish_registration(graph, fleet);
        self.engines.push(engine);
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.rebuild_routing();
        id
    }

    /// Removes the engine registered as `id`, releasing its shared-index
    /// signatures and rebuilding the routing table. Its counters fold into
    /// [`Fleet::stats`]. Returns `false` if `id` is unknown (already
    /// deregistered or never issued).
    pub fn deregister(&mut self, id: usize) -> bool {
        let Ok(pos) = self.ids.binary_search(&id) else {
            return false;
        };
        self.ids.remove(pos);
        let engine = self.engines.remove(pos);
        for sig in engine.shared_sigs.iter().flatten() {
            self.shared.index.release(*sig);
        }
        for b in &engine.branches {
            self.shared.subtrees.release(b.inst);
        }
        self.drained.absorb(&engine);
        self.rebuild_routing();
        true
    }

    /// Rebuilds the label → interested-positions table and the wildcard
    /// list from the engines' query-edge buckets. Every engine pushes its
    /// position at most once per list, in ascending position order, so
    /// every list stays sorted and duplicate-free.
    fn rebuild_routing(&mut self) {
        let Shared { routing, wildcard, .. } = &mut self.shared;
        routing.clear();
        wildcard.clear();
        for engine in &self.engines {
            for &label in engine.qedge_by_label.keys() {
                routing.entry(label).or_default();
            }
        }
        for (pos, engine) in self.engines.iter().enumerate() {
            if engine.qedge_wildcard.is_empty() {
                for label in engine.qedge_by_label.keys() {
                    routing.get_mut(label).expect("entered above").push(pos);
                }
            } else {
                wildcard.push(pos);
                routing.values_mut().for_each(|interested| interested.push(pos));
            }
        }
    }

    /// The shared data graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.shared.graph
    }

    /// The fleet-shared candidate index.
    pub fn shared_index(&self) -> &SharedCandidateIndex {
        &self.shared.index
    }

    /// Engine position for a stable registration id.
    fn pos_of(&self, id: usize) -> usize {
        self.ids.binary_search(&id).expect("unknown or deregistered engine id")
    }

    /// The engine registered as `id`.
    pub fn engine(&self, id: usize) -> &TurboFlux {
        &self.engines[self.pos_of(id)]
    }

    /// Number of registered engines.
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Stable ids of all registered engines, ascending.
    pub fn engine_ids(&self) -> &[usize] {
        &self.ids
    }

    /// Configured worker-thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The fleet-shared subtree store.
    pub fn shared_subtrees(&self) -> &SharedSubtrees {
        &self.shared.subtrees
    }

    /// Cumulative routing and sharing counters (`subtrees_shared` is a
    /// live gauge: instances currently serving ≥ 2 engines).
    pub fn stats(&self) -> FleetStats {
        let mut stats = FleetStats {
            ops_routed: self.shared.ops_routed,
            ops_skipped: self.shared.ops_skipped,
            subtrees_shared: self.shared.subtrees.shared_instance_count() as u64,
            ..self.drained
        };
        self.engines.iter().for_each(|engine| stats.absorb(engine));
        stats
    }

    /// Reports all matches of engine `id` against the current graph state.
    pub fn report_initial(&mut self, id: usize, sink: &mut dyn FnMut(&MatchRecord)) {
        let pos = self.pos_of(id);
        let fleet = FleetCtx { idx: None, sub: Some(&self.shared.subtrees) };
        self.engines[pos].initial_matches_ctx(&self.shared.graph, fleet, sink);
    }

    /// Applies a batch of updates to the shared graph, evaluating every
    /// routed engine — on up to [`Fleet::threads`] threads in rounds that
    /// route to several engines. Matches are delivered in deterministic
    /// `(engine, op_index, emission)` order, identical to
    /// [`Fleet::apply_batch_sequential`] regardless of thread count. A
    /// one-engine fleet streams them as they are found; otherwise they are
    /// buffered per batch.
    pub fn apply_batch(&mut self, ops: &[UpdateOp], sink: &mut dyn FnMut(FleetDelta<'_>)) {
        self.drive(ops, self.threads, sink);
    }

    /// [`Fleet::apply_batch`] on the calling thread only: the determinism
    /// oracle and the benchmark baseline of the threaded rounds.
    pub fn apply_batch_sequential(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(FleetDelta<'_>),
    ) {
        self.drive(ops, 0, sink);
    }

    fn drive(&mut self, ops: &[UpdateOp], workers: usize, sink: &mut dyn FnMut(FleetDelta<'_>)) {
        round::share_threads(&mut self.engines, self.threads, workers);
        let ids = &self.ids;
        round::drive(
            &mut self.shared,
            &mut self.engines,
            ops,
            workers,
            &mut |pos, op_index, p, r| {
                sink(FleetDelta { engine: ids[pos], op_index, positiveness: p, record: r })
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{LabelSet, VertexId};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// g0: a:A, b:B, c:A; q1 = A-7->B, q2 = A-7->B<-8-A.
    fn setup() -> (DynamicGraph, Vec<QueryGraph>) {
        let mut g = DynamicGraph::new();
        g.add_vertex(LabelSet::single(l(0)));
        g.add_vertex(LabelSet::single(l(1)));
        g.add_vertex(LabelSet::single(l(0)));

        let mut q1 = QueryGraph::new();
        let a = q1.add_vertex(LabelSet::single(l(0)));
        let b = q1.add_vertex(LabelSet::single(l(1)));
        q1.add_edge(a, b, Some(l(7)));

        let mut q2 = QueryGraph::new();
        let a = q2.add_vertex(LabelSet::single(l(0)));
        let b = q2.add_vertex(LabelSet::single(l(1)));
        let c = q2.add_vertex(LabelSet::single(l(0)));
        q2.add_edge(a, b, Some(l(7)));
        q2.add_edge(c, b, Some(l(8)));

        (g, vec![q1, q2])
    }

    fn ops() -> Vec<UpdateOp> {
        use UpdateOp::*;
        let v = VertexId;
        vec![
            InsertEdge { src: v(0), label: l(7), dst: v(1) },
            InsertEdge { src: v(2), label: l(8), dst: v(1) },
            InsertEdge { src: v(2), label: l(7), dst: v(1) },
            InsertEdge { src: v(0), label: l(7), dst: v(1) }, // duplicate: skip
            DeleteEdge { src: v(0), label: l(7), dst: v(1) },
            DeleteEdge { src: v(0), label: l(7), dst: v(1) }, // missing: skip
            AddVertex { id: v(3), labels: LabelSet::single(l(0)) },
            InsertEdge { src: v(3), label: l(7), dst: v(1) },
        ]
    }

    fn collect_batch(
        fleet: &mut Fleet,
        ops: &[UpdateOp],
        parallel: bool,
    ) -> Vec<(usize, usize, Positiveness, MatchRecord)> {
        let mut out = Vec::new();
        let mut sink = |d: FleetDelta<'_>| {
            out.push((d.engine, d.op_index, d.positiveness, d.record.clone()));
        };
        if parallel {
            fleet.apply_batch(ops, &mut sink);
        } else {
            fleet.apply_batch_sequential(ops, &mut sink);
        }
        out
    }

    #[test]
    fn parallel_equals_sequential_equals_standalone() {
        let (g0, queries) = setup();

        let mut par = Fleet::with_threads(g0.clone(), 4);
        let mut seq = Fleet::with_threads(g0.clone(), 1);
        for q in &queries {
            par.register(q.clone(), TurboFluxConfig::default());
            seq.register(q.clone(), TurboFluxConfig::default());
        }
        let got_par = collect_batch(&mut par, &ops(), true);
        let got_seq = collect_batch(&mut seq, &ops(), false);
        assert_eq!(got_par, got_seq);
        assert!(!got_par.is_empty());
        assert_eq!(par.graph().edge_count(), seq.graph().edge_count());

        // Standalone engines applying the ops one by one are the oracle.
        let mut want = Vec::new();
        for (id, q) in queries.iter().enumerate() {
            let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
            for (op_index, op) in ops().iter().enumerate() {
                engine.apply_op(op, &mut |p, r| want.push((id, op_index, p, r.clone())));
            }
        }
        assert_eq!(got_par, want);
    }

    #[test]
    fn deltas_are_ordered_and_graph_advances() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::with_threads(g0, 4);
        for q in queries {
            fleet.register(q, TurboFluxConfig::default());
        }
        let got = collect_batch(&mut fleet, &ops(), true);
        assert!(
            got.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "deltas must be sorted by (engine, op_index)"
        );
        // Final graph state: edges 2-8->1, 2-7->1, 3-7->1 and vertex 3.
        assert_eq!(fleet.graph().vertex_count(), 4);
        assert_eq!(fleet.graph().edge_count(), 3);
    }

    #[test]
    fn report_initial_sees_registration_time_state() {
        let (mut g0, queries) = setup();
        g0.insert_edge(VertexId(0), l(7), VertexId(1));
        let mut fleet = Fleet::new(g0);
        let id = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        let mut n = 0;
        fleet.report_initial(id, &mut |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn empty_batches_and_empty_fleets_are_fine() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::with_threads(g0, 8);
        assert_eq!(fleet.engine_count(), 0);
        // No engines: the graph still advances.
        fleet.apply_batch(&ops()[..3], &mut |_| panic!("no engines, no deltas"));
        assert_eq!(fleet.graph().edge_count(), 3);
        let id = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        fleet.apply_batch(&[], &mut |_| panic!("empty batch"));
        assert_eq!(id, 0);
    }

    #[test]
    fn routing_skips_uninterested_engines() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::with_threads(g0, 1);
        for q in &queries {
            fleet.register(q.clone(), TurboFluxConfig::default());
        }
        // Label 7 interests both engines; label 8 only q2; label 99 nobody.
        let v = VertexId;
        let batch = vec![
            UpdateOp::InsertEdge { src: v(0), label: l(7), dst: v(1) }, // routed: 2
            UpdateOp::InsertEdge { src: v(2), label: l(8), dst: v(1) }, // routed: 1
            UpdateOp::InsertEdge { src: v(2), label: l(99), dst: v(1) }, // routed: 0
            UpdateOp::DeleteEdge { src: v(2), label: l(99), dst: v(1) }, // routed: 0
        ];
        fleet.apply_batch(&batch, &mut |_| {});
        let stats = fleet.stats();
        assert_eq!(stats.ops_routed, 3);
        assert_eq!(stats.ops_skipped, 5);
    }

    #[test]
    fn wildcard_queries_are_always_interested() {
        let (g0, _) = setup();
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(a, b, None); // any edge label
        let mut fleet = Fleet::with_threads(g0, 1);
        fleet.register(q, TurboFluxConfig::default());
        let mut n = 0;
        fleet.apply_batch(
            &[UpdateOp::InsertEdge { src: VertexId(0), label: l(99), dst: VertexId(1) }],
            &mut |_| n += 1,
        );
        assert_eq!(n, 1, "wildcard engine must see the exotic-label edge");
        let stats = fleet.stats();
        assert_eq!(stats.ops_routed, 1);
        assert_eq!(stats.ops_skipped, 0);
    }

    #[test]
    fn register_deregister_register_churn() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::with_threads(g0.clone(), 2);
        let id1 = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        let id2 = fleet.register(queries[1].clone(), TurboFluxConfig::default());
        assert_eq!((id1, id2), (0, 1));
        assert!(fleet.shared_index().signature_count() > 0);

        assert!(fleet.deregister(id1));
        assert!(!fleet.deregister(id1), "double deregister is rejected");
        assert_eq!(fleet.engine_count(), 1);
        assert_eq!(fleet.engine_ids(), &[1]);

        // The survivor keeps matching under its stable id.
        let batch = ops();
        let got = collect_batch(&mut fleet, &batch, true);
        assert!(got.iter().all(|d| d.0 == id2), "only engine 1 is left");
        assert!(!got.is_empty());

        // Re-registration gets a fresh id and a routing entry.
        let id3 = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        assert_eq!(id3, 2, "ids are never reused");
        assert_eq!(fleet.engine_ids(), &[1, 2]);
        let mut n = 0;
        fleet.report_initial(id3, &mut |_| n += 1);
        assert_eq!(n, 2, "fresh engine sees the post-batch graph (2-7->1, 3-7->1)");

        // Deregistering everything releases every shared signature.
        assert!(fleet.deregister(id2));
        assert!(fleet.deregister(id3));
        assert_eq!(fleet.shared_index().signature_count(), 0);
        assert_eq!(fleet.engine_count(), 0);

        // An empty fleet still advances the graph.
        fleet.apply_batch(
            &[UpdateOp::DeleteEdge { src: VertexId(2), label: l(7), dst: VertexId(1) }],
            &mut |_| panic!("no engines"),
        );
    }

    #[test]
    fn shared_index_counters_are_nonvacuous_and_ablatable() {
        // Shared-index hits need depth: a path A-7->B-8->C rooted at A
        // collects C-candidates whenever a 7-edge builds a B below the
        // root. g0 makes the 7-edge the most selective (so the tree roots
        // at u0) and pre-seeds 8-edges for the candidate runs.
        let v = VertexId;
        let mut g0 = DynamicGraph::new();
        g0.add_vertex(LabelSet::single(l(0))); // v0: A
        g0.add_vertex(LabelSet::single(l(1))); // v1: B
        g0.add_vertex(LabelSet::single(l(2))); // v2: C
        g0.add_vertex(LabelSet::single(l(1))); // v3: B
        g0.add_vertex(LabelSet::single(l(2))); // v4: C
        g0.insert_edge(v(1), l(8), v(2));
        g0.insert_edge(v(3), l(8), v(4));
        g0.insert_edge(v(3), l(8), v(2));
        g0.insert_edge(v(0), l(7), v(1));

        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        let c = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(a, b, Some(l(7)));
        q.add_edge(b, c, Some(l(8)));

        // Subtree sharing off for both fleets: the B->C branch would
        // otherwise be served by a shared instance and never touch the
        // per-edge index this test exercises.
        let mut on = Fleet::with_threads(g0.clone(), 1);
        let mut off = Fleet::with_threads(g0, 1);
        for _ in 0..2 {
            on.register(
                q.clone(),
                TurboFluxConfig { fleet_shared_subtrees: false, ..TurboFluxConfig::default() },
            );
            off.register(
                q.clone(),
                TurboFluxConfig {
                    fleet_shared_index: false,
                    fleet_shared_subtrees: false,
                    ..TurboFluxConfig::default()
                },
            );
        }
        assert!(on.shared_index().signature_count() > 0);
        assert_eq!(
            on.shared_index().signature_count(),
            2,
            "identical queries share their (7,B)/(8,C) signatures"
        );
        assert_eq!(off.shared_index().signature_count(), 0);
        let batch = vec![
            UpdateOp::InsertEdge { src: v(0), label: l(7), dst: v(3) },
            UpdateOp::DeleteEdge { src: v(0), label: l(7), dst: v(3) },
            UpdateOp::InsertEdge { src: v(0), label: l(7), dst: v(3) },
        ];
        let got_on = collect_batch(&mut on, &batch, false);
        let got_off = collect_batch(&mut off, &batch, false);
        assert_eq!(got_on, got_off, "ablation must not change output");
        assert!(!got_on.is_empty());
        assert!(on.stats().shared_hits > 0, "shared runs actually served");
        assert_eq!(off.stats().shared_hits, 0);
        assert_eq!(off.stats().shared_misses, 0, "flag-off engines never consult the index");
    }
}
