//! Batched multi-query evaluation over one shared update stream.
//!
//! Real deployments register many continuous queries against the same
//! streaming graph. A [`Fleet`] owns the single [`DynamicGraph`] and `N`
//! independent [`TurboFlux`] engines (one DCG per query) and evaluates
//! update batches with [`Fleet::apply_batch`].
//!
//! # Op routing
//!
//! Engines are independent — one plain [`TurboFlux`] per query — and share
//! only the graph and the dispatch: the per-engine `qedge_by_label` buckets
//! are lifted into one fleet-wide `label → interested engines` table
//! (rebuilt on [`Fleet::register`] / [`Fleet::deregister`]; engines with
//! wildcard query edges are interested in every label). Each edge op is
//! dispatched only to engines with a query edge that can match its label —
//! an op whose label no query mentions costs O(1), not O(N engines).
//! Skipping is exact: a non-interested engine would find zero matching query
//! edges, change nothing, and emit nothing, so routing cannot change output.
//! Vertex additions still visit every engine: start-candidate registration
//! is root-*vertex*-label work, not edge-label work. [`Fleet::stats`]
//! reports the routing counters.
//!
//! # Execution
//!
//! A batch runs on the one round loop (`round::apply`) over the shared
//! graph. Each round registers the vertices the op created with every engine
//! and evaluates its edge on the label's routing entry, in ascending engine
//! order. The engine at position 0 comes first in that order, so its deltas
//! stream straight to the sink; every later engine buffers its own — in op
//! order, because it runs its rounds in order; flat, an entry of fixed size
//! plus the record's vertex ids in one run per engine — and the buffers drain
//! engine by engine after the last round. So the sink sees
//! `(engine, op_index, emission)` order, independent of routing, and nothing
//! is sorted.
//!
//! [`ShardedEngine`] and [`ShardStats`] are inert names the frozen `e2e`
//! benchmark still compiles against: a fleet, and four zeros.

use tfx_graph::{DynamicGraph, UpdateOp, VertexId};
use tfx_query::{MatchRecord, Positiveness, QueryGraph};

use crate::config::TurboFluxConfig;
use crate::dcg::DcgView;
use crate::engine::TurboFlux;
use crate::round::{self, Round};

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

/// Routing counters, cumulative over a [`Fleet`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Engine-evaluations of edge ops that were dispatched (the engine had
    /// a query edge that could match the op's label).
    pub ops_routed: u64,
    /// Engine-evaluations of edge ops that were skipped by routing.
    pub ops_skipped: u64,
    /// Edge ops refused for a label out of range (`round::Round::Refused`):
    /// they reached neither the graph nor any engine.
    pub ops_refused: u64,
    /// Always 0: the five cross-query sharing counters are kept only so the
    /// frozen `e2e` benchmark compiles, and leave with its five `fleet.*`
    /// per-layer rows in the next `benchmark` PR.
    pub shared_hits: u64,
    /// Always 0, see [`FleetStats::shared_hits`].
    pub shared_misses: u64,
    /// Always 0, see [`FleetStats::shared_hits`].
    pub subtrees_shared: u64,
    /// Always 0, see [`FleetStats::shared_hits`].
    pub subtree_hits: u64,
    /// Always 0, see [`FleetStats::shared_hits`].
    pub suffix_evals: u64,
}

/// A buffered delta: its record is the next `len` words of its engine's
/// buffer.
struct Pending {
    op: u32,
    p: Positiveness,
    len: u8,
}

/// One engine's buffered deltas, in emission order: fixed-size entries over
/// one flat run of vertex ids — no allocation per delta.
#[derive(Default)]
struct DeltaBuf {
    pend: Vec<Pending>,
    words: Vec<VertexId>,
}

/// A set of continuous queries evaluated together over one streaming graph.
pub struct Fleet {
    graph: DynamicGraph,
    engines: Vec<TurboFlux>,
    /// Edge label (by `label.index()`) → engine positions with a query edge
    /// that label can match, wildcard engines included (ascending). Rebuilt
    /// on register/deregister.
    routing: Vec<Vec<usize>>,
    /// Engine positions with label-wildcard query edges (ascending): the
    /// routing entry of every label past the table.
    wildcard: Vec<usize>,
    stats: FleetStats,
    /// Per-engine delta buffers, kept warm across batches: a batch allocates
    /// only where it outgrows every batch before it.
    bufs: Vec<DeltaBuf>,
    /// The record every buffered delta is delivered through.
    rec: MatchRecord,
    /// Stable registration id per engine position; strictly ascending
    /// ([`Fleet::deregister`] removes, never renumbers), so position order
    /// is id order and [`FleetDelta`]s stay sorted by `(engine, op_index)`.
    ids: Vec<usize>,
    next_id: usize,
}

impl Fleet {
    /// A fleet over `g0` with no query registered yet.
    pub fn new(g0: DynamicGraph) -> Self {
        Fleet {
            graph: g0,
            engines: Vec::new(),
            routing: Vec::new(),
            wildcard: Vec::new(),
            stats: FleetStats::default(),
            bufs: Vec::new(),
            rec: MatchRecord::default(),
            ids: Vec::new(),
            next_id: 0,
        }
    }

    /// Inert: `threads` is ignored, every fleet evaluates on the calling
    /// thread (DESIGN.md, "Tried, measured, removed").
    /// Kept only so the frozen `e2e` benchmark compiles; leaves with its
    /// `fleet.threads2_events_per_s` / `fleet.parallel_speedup_x` rows in the
    /// next `benchmark` PR.
    pub fn with_threads(g0: DynamicGraph, _threads: usize) -> Self {
        Self::new(g0)
    }

    /// Registers a query against the current graph state, building its DCG
    /// and entering it into the op-routing table. Returns the engine's
    /// stable id, used in [`FleetDelta::engine`] and [`Fleet::deregister`];
    /// ids are never reused.
    pub fn register(&mut self, q: QueryGraph, cfg: TurboFluxConfig) -> usize {
        self.engines.push(TurboFlux::register(q, &self.graph, cfg));
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.rebuild_routing();
        id
    }

    /// Removes the engine registered as `id` and rebuilds the routing
    /// table. Returns `false` if `id` is unknown (already deregistered or
    /// never issued).
    pub fn deregister(&mut self, id: usize) -> bool {
        let Ok(pos) = self.ids.binary_search(&id) else {
            return false;
        };
        self.ids.remove(pos);
        self.engines.remove(pos);
        self.rebuild_routing();
        true
    }

    /// Rebuilds the label → interested-positions table and the wildcard
    /// list from the engines' query-edge buckets. Every engine pushes its
    /// position at most once per list, in ascending position order, so
    /// every list stays sorted and duplicate-free.
    fn rebuild_routing(&mut self) {
        let Fleet { routing, wildcard, .. } = self;
        routing.clear();
        wildcard.clear();
        let labels = self.engines.iter().map(|e| e.qedge_by_label.len()).max().unwrap_or(0);
        routing.resize_with(labels, Vec::new);
        for (pos, engine) in self.engines.iter().enumerate() {
            if engine.qedge_wildcard.is_empty() {
                let named = engine.qedge_by_label.iter().zip(routing.iter_mut());
                named.filter(|(bucket, _)| !bucket.is_empty()).for_each(|(_, to)| to.push(pos));
            } else {
                wildcard.push(pos);
                routing.iter_mut().for_each(|interested| interested.push(pos));
            }
        }
    }

    /// The shared data graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Engine position for a stable registration id.
    fn pos_of(&self, id: usize) -> usize {
        self.ids.binary_search(&id).expect("unknown or deregistered engine id")
    }

    /// The engine registered as `id`.
    pub fn engine(&self, id: usize) -> &TurboFlux {
        &self.engines[self.pos_of(id)]
    }

    /// The DCG of the engine registered as `id`, read against the shared
    /// graph it derives from.
    pub fn dcg(&self, id: usize) -> DcgView<'_> {
        DcgView::new(&self.engine(id).dcg, &self.graph)
    }

    /// Number of registered engines.
    pub fn engine_count(&self) -> usize {
        self.engines.len()
    }

    /// Stable ids of all registered engines, ascending.
    pub fn engine_ids(&self) -> &[usize] {
        &self.ids
    }

    /// Cumulative routing counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Reports all matches of engine `id` against the current graph state.
    ///
    /// Takes a `dyn` sink, where [`TurboFlux::report_initial`] takes its
    /// sink as a type parameter: a fleet reports a query's initial matches
    /// once, off the stream path, and a generic sink here moved the frozen
    /// `e2e` benchmark's host-probe code (DESIGN.md, "One call per match").
    pub fn report_initial(&mut self, id: usize, sink: &mut dyn FnMut(&MatchRecord)) {
        let pos = self.pos_of(id);
        self.engines[pos].initial_matches_in(&self.graph, sink);
    }

    /// Applies a batch of updates to the shared graph, evaluating every
    /// routed engine. Matches are delivered in deterministic
    /// `(engine, op_index, emission)` order. Every delta of the engine at
    /// position 0 precedes every other engine's, so its deltas stream to the
    /// sink as they are found; the later engines' are buffered per batch.
    pub fn apply_batch<S>(&mut self, ops: &[UpdateOp], sink: &mut S)
    where
        S: FnMut(FleetDelta<'_>) + ?Sized,
    {
        let Fleet { graph, engines, routing, wildcard, stats, bufs, rec, ids, .. } = self;
        bufs.resize_with(engines.len(), DeltaBuf::default);
        // Cleared here, not after delivery: a batch that unwound leaves
        // nothing for the next one to deliver.
        for buf in bufs.iter_mut() {
            buf.pend.clear();
            buf.words.clear();
        }
        round::apply(
            engines,
            graph,
            ops,
            |_, _| true,
            |engines, op_index, graph, round| {
                stats.ops_refused += u64::from(*round == Round::Refused);
                if let Some(from) = round.new_vertices() {
                    engines.iter_mut().for_each(|engine| engine.register_new_vertices(graph, from));
                }
                let Some((_, label, _)) = round.edge() else { return };
                let interested = routing.get(label.index()).unwrap_or(wildcard);
                stats.ops_routed += interested.len() as u64;
                stats.ops_skipped += (engines.len() - interested.len()) as u64;
                for &pos in interested {
                    // Position 0 delivers first: op order is output order.
                    if pos == 0 {
                        let engine = ids[pos];
                        engines[pos].eval_round(graph, round, &mut |p, r| {
                            sink(FleetDelta { engine, op_index, positiveness: p, record: r })
                        });
                    } else {
                        let DeltaBuf { pend, words } = &mut bufs[pos];
                        engines[pos].eval_round(graph, round, &mut |p, r| {
                            let len =
                                u8::try_from(r.len()).expect("a query has at most 64 vertices");
                            words.extend_from_slice(r.as_slice());
                            pend.push(Pending { op: op_index as u32, p, len });
                        });
                    }
                }
            },
        );
        for (pos, buf) in bufs.iter().enumerate() {
            let mut words = &buf.words[..];
            for d in &buf.pend {
                let (record, rest) = words.split_at(d.len as usize);
                rec.fill_from_slice(record);
                sink(FleetDelta {
                    engine: ids[pos],
                    op_index: d.op as usize,
                    positiveness: d.p,
                    record: rec,
                });
                words = rest;
            }
        }
    }
}

/// Inert: a [`Fleet`] of the given queries under the frozen `e2e`
/// benchmark's name for the partitioned runtime, which is gone (DESIGN.md,
/// "Tried, measured, removed"). Kept only so that
/// benchmark compiles; leaves with its `netflow_shards2` workload in the next
/// `benchmark` PR.
pub struct ShardedEngine(Fleet);

/// Inert: every field is always 0, as nothing partitions anything. Kept only
/// so the frozen `e2e` benchmark compiles; leaves with its `shard.*` rows in
/// the next `benchmark` PR.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub ops_routed: u64,
    pub cross_shard_edges: u64,
    pub handoffs: u64,
    pub inbox_high_water: u64,
}

impl ShardedEngine {
    /// A [`Fleet`] over `g0` with every query registered under `cfg` as
    /// given, query `i` as engine `i`. `cfg.shards` and `_threads` are read
    /// by nothing.
    pub fn new(
        queries: Vec<QueryGraph>,
        g0: DynamicGraph,
        cfg: TurboFluxConfig,
        _threads: usize,
    ) -> Self {
        let mut fleet = Fleet::new(g0);
        for q in queries {
            fleet.register(q, cfg);
        }
        ShardedEngine(fleet)
    }

    /// Number of registered queries.
    pub fn queries(&self) -> usize {
        self.0.engine_count()
    }

    /// [`Fleet::report_initial`] of query `query`.
    pub fn report_initial(&mut self, query: usize, sink: &mut dyn FnMut(&MatchRecord)) {
        self.0.report_initial(query, sink);
    }

    /// [`Fleet::apply_batch`], each delta as `sink(query, op_index, sign,
    /// record)`.
    pub fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        self.0.apply_batch(ops, &mut |d| sink(d.engine, d.op_index, d.positiveness, d.record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::reference_dcg;
    use tfx_graph::{LabelId, LabelSet, VertexId};

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

    /// One delta as `(engine, op_index, positiveness, record)`.
    type Delta = (usize, usize, Positiveness, MatchRecord);

    fn collect_batch(fleet: &mut Fleet, ops: &[UpdateOp]) -> Vec<Delta> {
        let mut out = Vec::new();
        fleet.apply_batch(ops, &mut |d| {
            out.push((d.engine, d.op_index, d.positiveness, d.record.clone()));
        });
        out
    }

    fn fleet_of(g0: &DynamicGraph, queries: &[QueryGraph]) -> Fleet {
        let mut fleet = Fleet::new(g0.clone());
        for q in queries {
            fleet.register(q.clone(), TurboFluxConfig::default());
        }
        fleet
    }

    /// Standalone engines, query `i` as engine `i`, applying `ops` one by
    /// one: the oracle a fleet's deltas are held to.
    fn standalone(g0: &DynamicGraph, queries: &[QueryGraph], ops: &[UpdateOp]) -> Vec<Delta> {
        let mut want = Vec::new();
        for (id, q) in queries.iter().enumerate() {
            let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
            for (op_index, op) in ops.iter().enumerate() {
                engine.apply_op(op, &mut |p, r| want.push((id, op_index, p, r.clone())));
            }
        }
        want
    }

    /// One batch on a fresh fleet, the same ops as two batches on one warm
    /// fleet (the second delivers its own deltas and nothing the first
    /// buffered), each query alone (the one-engine fleet streams, unbuffered)
    /// and a third engine the label-8 op skips: all equal the standalone
    /// engines' deltas.
    #[test]
    fn fleet_equals_standalone() {
        let (g0, queries) = setup();
        let ops = ops();
        let want = standalone(&g0, &queries, &ops);
        assert!(!want.is_empty());
        assert_eq!(collect_batch(&mut fleet_of(&g0, &queries), &ops), want);

        let k = 3;
        let mut fleet = fleet_of(&g0, &queries);
        let first = collect_batch(&mut fleet, &ops[..k]);
        let second = collect_batch(&mut fleet, &ops[k..]);
        let (early, late): (Vec<Delta>, Vec<Delta>) = want.iter().cloned().partition(|d| d.1 < k);
        assert!(!early.is_empty() && !late.is_empty());
        assert_eq!(first, early);
        let late: Vec<Delta> = late.into_iter().map(|(e, op, p, r)| (e, op - k, p, r)).collect();
        assert_eq!(second, late);

        for (id, q) in queries.iter().enumerate() {
            let got = collect_batch(&mut fleet_of(&g0, std::slice::from_ref(q)), &ops);
            let alone: Vec<Delta> = want.iter().filter(|d| d.0 == id).cloned().collect();
            let alone: Vec<Delta> = alone.into_iter().map(|(_, op, p, r)| (0, op, p, r)).collect();
            assert!(!alone.is_empty());
            assert_eq!(got, alone, "query {id} alone");
        }

        let three = [queries[0].clone(), queries[1].clone(), queries[0].clone()];
        let mut fleet = fleet_of(&g0, &three);
        assert_eq!(collect_batch(&mut fleet, &ops), standalone(&g0, &three, &ops));
        let stats = fleet.stats();
        assert_eq!((stats.ops_routed, stats.ops_skipped), (13, 2), "q1 twice skips the label-8 op");
    }

    /// The routing counters of `ops()` plus one op on a label out of range:
    /// five edge rounds (two ops skip at stage, one is a vertex), of which
    /// the label-8 insert reaches q2 alone, and the refused op reaches none.
    #[test]
    fn stats_count_every_edge_round_once_per_engine() {
        let (g0, queries) = setup();
        let mut fleet = fleet_of(&g0, &queries);
        let mut batch = ops();
        let label = LabelId(LabelId::LIMIT);
        batch.push(UpdateOp::InsertEdge { src: VertexId(0), label, dst: VertexId(1) });
        fleet.apply_batch(&batch, &mut |_| {});
        let want =
            FleetStats { ops_routed: 9, ops_skipped: 1, ops_refused: 1, ..FleetStats::default() };
        assert_eq!(fleet.stats(), want);
    }

    /// The frozen benchmark's `ShardedEngine` is a fleet of its queries
    /// whatever shard and thread counts it is handed.
    #[test]
    fn the_sharded_shim_is_a_fleet_of_its_queries() {
        let (mut g0, queries) = setup();
        g0.insert_edge(VertexId(2), l(7), VertexId(1));
        let mut fleet = Fleet::new(g0.clone());
        for q in &queries {
            fleet.register(q.clone(), TurboFluxConfig::default());
        }
        let cfg = TurboFluxConfig { shards: 2, ..TurboFluxConfig::default() };
        let mut shim = ShardedEngine::new(queries.clone(), g0, cfg, 2);
        assert_eq!(shim.queries(), queries.len());
        for id in 0..queries.len() {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            fleet.report_initial(id, &mut |r| want.push(r.clone()));
            shim.report_initial(id, &mut |r| got.push(r.clone()));
            assert_eq!(got, want, "query {id}: initial matches");
            assert_eq!(got.len(), 1 - id, "query {id}: 2-7->1 is one match of q1, none of q2");
        }
        let want = collect_batch(&mut fleet, &ops());
        assert!(!want.is_empty());
        let mut got = Vec::new();
        shim.apply_batch(&ops(), &mut |q, op, p, r| got.push((q, op, p, r.clone())));
        assert_eq!(got, want);
    }

    /// A fleet engine's DCG derives from the graph the fleet shares, as a
    /// standalone engine's does from its own: after every batch it is the
    /// declarative reference over the shared graph.
    #[test]
    fn fleet_dcgs_derive_from_the_shared_graph() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::new(g0);
        for q in &queries {
            fleet.register(q.clone(), TurboFluxConfig::default());
        }
        for op in ops() {
            fleet.apply_batch(std::slice::from_ref(&op), &mut |_| {});
            for &id in fleet.engine_ids() {
                let (engine, dcg) = (fleet.engine(id), fleet.dcg(id));
                dcg.check_consistency();
                let want = reference_dcg(fleet.graph(), engine.query(), engine.query_tree());
                assert_eq!(dcg.snapshot(), want, "engine {id} after {op:?}");
            }
        }
        assert!(fleet.dcg(1).stored_edge_count() > 0);
    }

    #[test]
    fn deltas_are_ordered_and_graph_advances() {
        let (g0, queries) = setup();
        let mut fleet = Fleet::new(g0);
        for q in queries {
            fleet.register(q, TurboFluxConfig::default());
        }
        let got = collect_batch(&mut fleet, &ops());
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
        let mut fleet = Fleet::new(g0);
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
        let mut fleet = Fleet::new(g0);
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

    /// A library op on a label past `LabelId::LIMIT` is refused and
    /// counted, in a fleet and in a standalone engine alike, even by a
    /// wildcard query: no edge, no vertex, no delta. (Stored, its label
    /// would have grown the graph's per-label counter table to 2^32 entries.)
    #[test]
    fn out_of_range_labels_are_refused_and_counted() {
        let (g0, _) = setup();
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        q.add_edge(a, b, None);
        let (src, dst) = (VertexId(0), VertexId(50));
        let batch: Vec<UpdateOp> = [LabelId::LIMIT, u32::MAX]
            .into_iter()
            .flat_map(|label| {
                let label = LabelId(label);
                [UpdateOp::InsertEdge { src, label, dst }, UpdateOp::DeleteEdge { src, label, dst }]
            })
            .collect();
        let (vertices, edges) = (g0.vertex_count(), g0.edge_count());
        let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
        engine.apply_batch(&batch, &mut |_, _, _| panic!("a refused op emitted"));
        assert_eq!(engine.refused_ops(), 4);
        assert_eq!((engine.graph().vertex_count(), engine.graph().edge_count()), (vertices, edges));
        let mut fleet = Fleet::new(g0);
        fleet.register(q, TurboFluxConfig::default());
        fleet.apply_batch(&batch, &mut |_| panic!("a refused op emitted"));
        let stats = fleet.stats();
        assert_eq!((stats.ops_refused, stats.ops_routed, stats.ops_skipped), (4, 0, 0));
        assert_eq!((fleet.graph().vertex_count(), fleet.graph().edge_count()), (vertices, edges));
    }

    /// A library op naming a vertex `MAX_VERTEX_GAP` or more past the vertex
    /// table is refused and counted, in a fleet and in a standalone engine
    /// alike: no vertex table grown to the id, no edge, no delta.
    #[test]
    fn vertex_ids_far_past_the_table_are_refused_and_counted() {
        let (g0, queries) = setup();
        let (far, near) = (VertexId(3 + tfx_graph::MAX_VERTEX_GAP), VertexId(0));
        let label = l(7);
        let batch = [
            UpdateOp::InsertEdge { src: near, label, dst: far },
            UpdateOp::InsertEdge { src: far, label, dst: near },
            UpdateOp::DeleteEdge { src: far, label, dst: near },
            UpdateOp::AddVertex { id: far, labels: LabelSet::single(l(0)) },
            UpdateOp::AddVertex { id: VertexId(u32::MAX), labels: LabelSet::empty() },
        ];
        let (vertices, edges) = (g0.vertex_count(), g0.edge_count());
        let mut engine = TurboFlux::new(queries[0].clone(), g0.clone(), TurboFluxConfig::default());
        engine.apply_batch(&batch, &mut |_, _, _| panic!("a refused op emitted"));
        assert_eq!(engine.refused_ops(), 5);
        assert_eq!((engine.graph().vertex_count(), engine.graph().edge_count()), (vertices, edges));
        let mut fleet = Fleet::new(g0);
        for q in queries {
            fleet.register(q, TurboFluxConfig::default());
        }
        fleet.apply_batch(&batch, &mut |_| panic!("a refused op emitted"));
        let stats = fleet.stats();
        assert_eq!((stats.ops_refused, stats.ops_routed, stats.ops_skipped), (5, 0, 0));
        assert_eq!((fleet.graph().vertex_count(), fleet.graph().edge_count()), (vertices, edges));
    }

    #[test]
    fn wildcard_queries_are_always_interested() {
        let (g0, _) = setup();
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(a, b, None); // any edge label
        let mut fleet = Fleet::new(g0);
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
        let mut fleet = Fleet::new(g0.clone());
        let id1 = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        let id2 = fleet.register(queries[1].clone(), TurboFluxConfig::default());
        assert_eq!((id1, id2), (0, 1));

        assert!(fleet.deregister(id1));
        assert!(!fleet.deregister(id1), "double deregister is rejected");
        assert_eq!(fleet.engine_count(), 1);
        assert_eq!(fleet.engine_ids(), &[1]);

        // The survivor keeps matching under its stable id.
        let batch = ops();
        let got = collect_batch(&mut fleet, &batch);
        assert!(got.iter().all(|d| d.0 == id2), "only engine 1 is left");
        assert!(!got.is_empty());

        // Re-registration gets a fresh id and a routing entry.
        let id3 = fleet.register(queries[0].clone(), TurboFluxConfig::default());
        assert_eq!(id3, 2, "ids are never reused");
        assert_eq!(fleet.engine_ids(), &[1, 2]);
        let mut n = 0;
        fleet.report_initial(id3, &mut |_| n += 1);
        assert_eq!(n, 2, "fresh engine sees the post-batch graph (2-7->1, 3-7->1)");

        assert!(fleet.deregister(id2));
        assert!(fleet.deregister(id3));
        assert_eq!(fleet.engine_count(), 0);

        // An empty fleet still advances the graph.
        fleet.apply_batch(
            &[UpdateOp::DeleteEdge { src: VertexId(2), label: l(7), dst: VertexId(1) }],
            &mut |_| panic!("no engines"),
        );
    }
}
