//! Sharded execution runtime: one shared data graph, per-shard DCG
//! slices, and a deterministic cross-shard delta merge.
//!
//! # Architecture
//!
//! Data-graph vertices are hash-partitioned by [`tfx_graph::shard_of`]
//! across [`crate::TurboFluxConfig::shards`] shards. The partition governs
//! **root-candidate ownership**, not storage: there is one
//! [`DynamicGraph`], every slice reads all of it, and shard `s` registers
//! start candidates only for the data vertices it owns
//! ([`TurboFlux::register_partitioned`]). Since every DCG edge hangs off
//! exactly one root candidate's downward closure, the per-shard DCG slices
//! partition the global DCG's *emissions* — each complete match is
//! enumerated by exactly one shard, the owner of its root binding — while
//! interior DCG state below shared subtrees is replicated only where
//! closures overlap.
//!
//! # Per-op protocol
//!
//! A batch runs on the round driver ([`crate::round`]) with one cell per
//! `(shard, query)` slice. Staging an op mutates the graph, then lays out
//! each query's invocation plan — the engine's own
//! ([`TurboFlux::matching_query_edges`]), once for all of the query's slices
//! — and targets the cells of every query whose plan is non-empty. A cell
//! runs each planned invocation against the shared graph and its own DCG
//! slice through the routine the unsharded loop calls
//! ([`TurboFlux::invoke`]).
//!
//! # Determinism
//!
//! With several shards every emission carries the merge [`Key`]
//! `(invocation, climb-chain)`, where the climb-chain is the match's
//! binding sequence from the invocation's start query vertex up to the
//! tree root. Within one invocation a shard enumerates its chains in
//! lexicographic order (DCG runs are sorted, the climb is a DFS over
//! sorted parent lists), chains partition across shards by root owner, and
//! the driver's stable per-query merge sorts the per-cell buffers into the
//! exact global DFS order — so output is **byte-identical to the unsharded
//! engine for any shard count**. One shard needs no keys and no sort.
//! Matching-order adjustment is pinned off in sharded mode (per-slice DCG
//! statistics would drift apart); the equivalence target is the unsharded
//! engine with the same static order.

use tfx_graph::{shard_of, DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_query::{EdgeId, MatchRecord, Positiveness, QVertexId, QueryGraph};

use crate::config::TurboFluxConfig;
use crate::engine::TurboFlux;
use crate::round::{self, DeltaBufs, Emit, Key, Round, Rounds, Target};

/// Counters describing the sharded runtime's routing traffic, mirroring the
/// shape of [`crate::FleetStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Applied edge ops (inserts and deletes that changed the graph).
    pub ops_routed: u64,
    /// Applied edge ops whose endpoints hash to different shards.
    pub cross_shard_edges: u64,
    /// Deliveries nothing performs any more — there is one graph and no
    /// per-shard inbox: one per cross-shard edge op plus one per planned
    /// invocation and shard other than owner(src). Kept, with its
    /// arithmetic, only for the frozen `e2e` row `shard.handoffs`.
    pub handoffs: u64,
    /// The largest such per-op delivery count (all of an op's planned
    /// invocations, plus one when it crosses shards). Like
    /// [`Self::handoffs`] it describes no work done and stays only for the
    /// frozen `e2e` row `shard.inbox_high_water`.
    pub inbox_high_water: u64,
}

impl TurboFlux {
    /// The query vertex the upward climb of an invocation for `e` starts
    /// from; the emission chain is the match's bindings from here to the
    /// tree root.
    fn seed_start(&self, e: EdgeId, src: VertexId, dst: VertexId) -> QVertexId {
        if self.tree.is_tree_edge(e) {
            let (uc, _, _) = self.orient_tree_edge(e, src, dst);
            self.tree.parent(uc).expect("tree edge child has a parent")
        } else {
            self.q.edge(e).src
        }
    }

    /// Runs the plan's invocation number `inv`, for query edge `e`, against
    /// this engine's DCG slice. `keyed` (the query has other cells) tags every
    /// emission with its merge key.
    #[allow(clippy::too_many_arguments)]
    fn run_seed(
        &mut self,
        g: &DynamicGraph,
        inv: u32,
        e: EdgeId,
        p: Positiveness,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        keyed: bool,
        emit: &mut Emit<'_>,
    ) {
        // The climb path `start_u → root` as query vertices, precomputed so
        // the tagging sink captures two plain arrays, not the engine.
        const MAX_QUERY_VERTICES: usize = 64; // asserted at registration
        let mut path = [QVertexId(0); MAX_QUERY_VERTICES];
        let mut depth = 0;
        let start = keyed.then(|| self.seed_start(e, src, dst));
        for u in std::iter::successors(start, |&u| self.tree.parent(u)) {
            path[depth] = u;
            depth += 1;
        }
        // The chain — the match's bindings along the climb path — is
        // the merge key discriminator: within one invocation a shard
        // emits chains in ascending lexicographic order, and distinct
        // shards never produce the same chain (its last element is the
        // root binding, owned by exactly one shard). One buffer, refilled
        // per emission; the driver copies what it keeps.
        let mut chain = [VertexId(0); MAX_QUERY_VERTICES];
        let mut sink = |p: Positiveness, rec: &MatchRecord| {
            for (slot, &u) in chain.iter_mut().zip(&path[..depth]) {
                *slot = rec.get(u);
            }
            emit(Key { inv, chain: &chain[..depth] }, p, rec);
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        self.invoke(g, e, src, label, dst, p, &mut scratch, &mut sink);
        self.scratch = scratch;
    }
}

/// Everything the slices share, and the sharded runtime's round hooks.
struct Shared {
    graph: DynamicGraph,
    shards: usize,
    /// The staged op's invocation plan per query (empty outside edge
    /// rounds).
    seeds: Vec<Vec<EdgeId>>,
    stats: ShardStats,
}

impl Rounds for Shared {
    type Cell = TurboFlux;

    fn cells_per_query(&self) -> usize {
        self.shards
    }

    /// The shared graph only: hinting every slice's DCG buckets as well read
    /// ×1.03 on `netflow_shards2` where this reads ×1.07.
    fn hint(&self, src: VertexId, label: LabelId, dst: VertexId, stage: u8) {
        self.graph.prefetch_edge(src, label, dst, stage);
    }

    fn stage(&mut self, op: &UpdateOp, engines: &[TurboFlux], targets: &mut Vec<Target>) -> Round {
        let round = round::stage(&mut self.graph, op);
        let &mut Shared { ref graph, shards, ref mut seeds, ref mut stats } = self;
        // A query's slices share its structure and the graph, so shard 0's
        // engine plans for all of them.
        match round.edge() {
            Some((src, label, dst)) => {
                for (query, qseeds) in seeds.iter_mut().enumerate() {
                    engines[query * shards].matching_query_edges(graph, src, label, dst, qseeds);
                }
                let crossed = shard_of(src, shards as u32) != shard_of(dst, shards as u32);
                stats.count_op(shards, crossed, seeds);
            }
            None => seeds.iter_mut().for_each(Vec::clear),
        }
        let interested = (0..engines.len()).filter(|cell| !seeds[cell / shards].is_empty());
        round::route(&round, engines.len(), interested, targets);
        round
    }

    fn run(&self, engine: &mut TurboFlux, target: Target, round: &Round, emit: &mut Emit<'_>) {
        if let Some(from) = round.new_vertices() {
            engine.register_new_vertices(&self.graph, from);
        }
        let Some((src, label, dst)) = round.edge() else { return };
        let p = match round {
            Round::Insert { .. } => Positiveness::Positive,
            _ => Positiveness::Negative,
        };
        for (inv, &e) in self.seeds[target.cell / self.shards].iter().enumerate() {
            let keyed = self.shards > 1;
            engine.run_seed(&self.graph, inv as u32, e, p, src, label, dst, keyed, emit);
        }
    }

    fn finalize(&mut self, round: &Round) {
        round::finalize(&mut self.graph, round);
    }
}

impl ShardStats {
    /// Accumulates one applied edge op.
    fn count_op(&mut self, shards: usize, crossed: bool, seeds: &[Vec<EdgeId>]) {
        self.ops_routed += 1;
        self.cross_shard_edges += u64::from(crossed);
        let seed_count: u64 = seeds.iter().map(|s| s.len() as u64).sum();
        // One for a crossing op, plus every planned invocation once per
        // shard other than owner(src).
        self.handoffs += u64::from(crossed) + seed_count * (shards as u64 - 1);
        // All of the op's planned invocations, plus one if it crosses.
        self.inbox_high_water = self.inbox_high_water.max(seed_count + u64::from(crossed));
    }
}

/// The sharded execution runtime: one engine slice per `(shard, query)`
/// over one shared graph, and batches whose output is byte-identical to the
/// unsharded engine for any shard count.
pub struct ShardedEngine {
    shared: Shared,
    /// Query-major: slice `(shard, query)` is cell `query * shards + shard`.
    engines: Vec<TurboFlux>,
    /// The round driver's delta buffers, kept warm across batches.
    bufs: DeltaBufs,
}

impl ShardedEngine {
    /// Takes ownership of `g0` (never cloned or dealt out) and registers
    /// every query once per shard with partition-filtered root candidates.
    /// Query analysis (start vertex, spanning tree, matching order) is the
    /// same on every shard, so all shards execute the identical plan;
    /// `AdjustMatchingOrder` is pinned off (per-slice DCG statistics
    /// diverge, and the order must stay in lockstep across shards).
    ///
    /// `_threads` is inert: every slice evaluates on the calling thread
    /// (DESIGN.md, "Parallel execution: tried, measured, removed"). Kept only
    /// so the frozen `e2e` benchmark compiles; leaves with its
    /// `shard.threads2_events_per_s` / `shard.parallel_speedup_x` rows in the
    /// next `benchmark` PR.
    pub fn new(
        queries: Vec<QueryGraph>,
        g0: DynamicGraph,
        cfg: TurboFluxConfig,
        _threads: usize,
    ) -> Self {
        let shards = cfg.shards.max(1);
        let cfg = TurboFluxConfig { adjust_matching_order: false, ..cfg };
        let seeds = queries.iter().map(|_| Vec::new()).collect();
        let mut engines = Vec::with_capacity(queries.len() * shards);
        for q in queries {
            // An unpartitioned registration pins the matching order every
            // slice must share (slice-local DCG statistics would derive
            // divergent orders); with one shard it is the slice.
            let full = TurboFlux::register(q.clone(), &g0, cfg);
            if shards == 1 {
                engines.push(full);
                continue;
            }
            for s in 0..shards as u32 {
                let mut e = TurboFlux::register_partitioned(q.clone(), &g0, cfg, s, shards as u32);
                e.mo.clone_from(&full.mo);
                engines.push(e);
            }
        }
        let shared = Shared { graph: g0, shards, seeds, stats: ShardStats::default() };
        ShardedEngine { shared, engines, bufs: DeltaBufs::default() }
    }

    /// Number of partition slices.
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Number of registered queries.
    pub fn queries(&self) -> usize {
        self.shared.seeds.len()
    }

    /// Routing counters accumulated since construction.
    pub fn stats(&self) -> ShardStats {
        self.shared.stats
    }

    /// The data graph every slice reads.
    pub fn graph(&self) -> &DynamicGraph {
        &self.shared.graph
    }

    /// Reports all matches of the initial graph for `query`, in the exact
    /// order the unsharded engine reports them (root candidates ascend;
    /// each root candidate is enumerated by its owning shard).
    pub fn report_initial(&mut self, query: usize, sink: &mut dyn FnMut(&MatchRecord)) {
        let Shared { ref graph, shards, .. } = self.shared;
        let engines = &mut self.engines[query * shards..][..shards];
        let (nq, root) =
            (engines[0].query().vertex_count(), engines[0].query_tree().root().index());
        // Match `i` is `words[i * nq..][..nq]`: one flat buffer, no record
        // per match.
        let mut words = Vec::new();
        for engine in engines {
            engine.initial_matches_in(graph, &mut |rec| words.extend_from_slice(rec.as_slice()));
        }
        // Only indices move. Stable: one root candidate's matches keep
        // their shard's order.
        let found = u32::try_from(words.len() / nq).expect("initial matches fit u32 indices");
        let mut order: Vec<u32> = (0..found).collect();
        order.sort_by_key(|&i| words[i as usize * nq + root]);
        let mut rec = MatchRecord::default();
        for i in order {
            rec.fill_from_slice(&words[i as usize * nq..][..nq]);
            sink(&rec);
        }
    }

    /// Applies a batch of updates, evaluating every targeted
    /// `(shard, query)` slice, and delivers matches in deterministic
    /// `(query, op_index, emission)` order, byte-identical to the unsharded
    /// engine (and to this runtime at any other shard count). One slice in
    /// total streams them as they are found, untagged and unsorted, which
    /// keeps the one-shard runtime within noise of the unsharded engine.
    pub fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        round::drive(&mut self.shared, &mut self.engines, &mut self.bufs, ops, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    /// The counters follow *applied* edge ops: one that crosses shards counts
    /// one `cross_shard_edges` whether it inserts or deletes, a same-shard one
    /// counts none, and a skipped op (duplicate insert, missing delete) counts
    /// nothing at all.
    #[test]
    fn stats_count_applied_edge_ops_and_which_of_them_cross_shards() {
        const L: LabelId = LabelId(7);
        let v = VertexId;
        let mut g0 = DynamicGraph::new();
        for _ in 0..64 {
            g0.add_vertex(LabelSet::empty());
        }
        let mut q = QueryGraph::new();
        let (a, b) = (q.add_vertex(LabelSet::empty()), q.add_vertex(LabelSet::empty()));
        q.add_edge(a, b, Some(L));
        let cfg = TurboFluxConfig { shards: 2, ..Default::default() };
        let mut engine = ShardedEngine::new(vec![q], g0, cfg, 1);

        let apart = (1..64).find(|&d| shard_of(v(d), 2) != shard_of(v(0), 2)).unwrap();
        let together = (1..64).find(|&d| shard_of(v(d), 2) == shard_of(v(0), 2)).unwrap();
        let ins = |dst| UpdateOp::InsertEdge { src: v(0), label: L, dst: v(dst) };
        let del = |dst| UpdateOp::DeleteEdge { src: v(0), label: L, dst: v(dst) };
        let mut counts = |op: UpdateOp| {
            engine.apply_batch(&[op], &mut |_, _, _, _| {});
            (engine.stats().ops_routed, engine.stats().cross_shard_edges)
        };
        assert_eq!(counts(ins(apart)), (1, 1));
        assert_eq!(counts(ins(apart)), (1, 1), "a duplicate insert is skipped");
        assert_eq!(counts(ins(together)), (2, 1), "applied, but within one shard");
        assert_eq!(counts(del(apart)), (3, 2));
        assert_eq!(counts(del(apart)), (3, 2), "a missing delete is skipped");
        // Each applied op planned one invocation, for two shards.
        let want =
            ShardStats { ops_routed: 3, cross_shard_edges: 2, handoffs: 5, inbox_high_water: 2 };
        assert_eq!(engine.stats(), want);
    }
}
