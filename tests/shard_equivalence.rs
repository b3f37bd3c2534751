//! Randomized byte-equality oracle for the sharded execution runtime:
//! for arbitrary scenarios (K queries — one in three of them cyclic — over
//! one stream of inserts / deletes / vertex additions in uniform, hub, and
//! explosive shapes, always drained back to an empty edge set), the sharded
//! engine at shards ∈ {1, 2, 4, 8} — the stream as one batch or split in
//! two — must produce exactly the same delta sequence as the unsharded
//! standalone engines and as a fleet over the same queries, under both
//! homomorphism and isomorphism semantics, and must hold exactly the
//! standalone engine's data graph — one copy of each edge, at any shard
//! count — half-way through the stream and at its end. The standalone
//! engines themselves are held, per query and op, against
//! `NaiveRecompute`: the three runtimes share one search, so a fault in it
//! moves all three alike and only an independent matcher sees it.
//! Matching-order adjustment is pinned off everywhere: that is the static
//! plan the sharded runtime locks in (see `ShardedEngine::new`).
//!
//! One directed scenario goes through the same comparator first
//! ([`closing_edge_scenario`]): the shape the random generator reaches too
//! rarely to rely on — a non-tree invocation whose pre-bound endpoint has
//! no DCG edge from one of the parent bindings the search arrives with.

mod common;

use common::random_query;
use std::collections::HashSet;
use turboflux::baselines::NaiveRecompute;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;

type Delta = (usize, usize, Positiveness, MatchRecord);

#[derive(Clone, Copy, Debug)]
enum StreamShape {
    /// Endpoints uniform over the vertex set.
    Uniform,
    /// Half of all edges incident to the hub vertex 0.
    Hub,
    /// A small source core fanning out to everyone (dense match growth).
    Explosive,
}

struct Scenario {
    g0: DynamicGraph,
    queries: Vec<QueryGraph>,
    ops: Vec<UpdateOp>,
}

fn pick_endpoints(rng: &mut Pcg32, shape: StreamShape, vertices: u32) -> (VertexId, VertexId) {
    let uniform = |rng: &mut Pcg32| VertexId(rng.below(vertices as usize) as u32);
    match shape {
        StreamShape::Uniform => (uniform(rng), uniform(rng)),
        StreamShape::Hub => {
            let a = if rng.below(2) == 0 { VertexId(0) } else { uniform(rng) };
            let b = uniform(rng);
            if rng.below(2) == 0 {
                (a, b)
            } else {
                (b, a)
            }
        }
        StreamShape::Explosive => {
            (VertexId(rng.below(3.min(vertices as usize)) as u32), uniform(rng))
        }
    }
}

fn random_scenario(rng: &mut Pcg32, shape: StreamShape) -> Scenario {
    // Enough vertices that every shard count in {2, 4, 8} sees
    // cross-shard edges mid-stream.
    let nv = 10 + rng.below(8) as u32;
    let mut g = DynamicGraph::new();
    for i in 0..nv {
        g.add_vertex(LabelSet::single(LabelId(i % 2)));
    }
    for _ in 0..rng.below(8) {
        let (a, b) = pick_endpoints(rng, shape, nv);
        g.insert_edge(a, LabelId(10 + rng.below(2) as u32), b);
    }

    let nqueries = 1 + rng.below(3); // 1..=3 queries
    let queries: Vec<QueryGraph> = (0..nqueries)
        .map(|_| {
            let nq = 2 + rng.below(3) as u32;
            random_query(rng, nq, |_, i| i % 2, false, 2, 3)
        })
        .collect();

    // A mixed op sequence over a growing vertex set; `live` mirrors the
    // graph so deletes mostly hit real edges (misses are exercised too).
    let mut ops = Vec::new();
    let mut live: Vec<(VertexId, LabelId, VertexId)> =
        g.edges().map(|e| (e.src, e.label, e.dst)).collect();
    let mut vertices = nv;
    for _ in 0..(12 + rng.below(16)) {
        match rng.below(10) {
            0 => {
                ops.push(UpdateOp::AddVertex {
                    id: VertexId(vertices),
                    labels: LabelSet::single(LabelId(rng.below(2) as u32)),
                });
                vertices += 1;
            }
            1 => {
                // Insert touching a brand-new (implicitly created) vertex.
                let a = VertexId(rng.below(vertices as usize) as u32);
                let b = VertexId(vertices);
                vertices += 1;
                let l = LabelId(10 + rng.below(2) as u32);
                ops.push(UpdateOp::InsertEdge { src: a, label: l, dst: b });
                live.push((a, l, b));
            }
            2..=3 if !live.is_empty() => {
                let (a, l, b) = live.swap_remove(rng.below(live.len()));
                ops.push(UpdateOp::DeleteEdge { src: a, label: l, dst: b });
            }
            _ => {
                let (a, b) = pick_endpoints(rng, shape, vertices);
                let l = LabelId(10 + rng.below(2) as u32);
                ops.push(UpdateOp::InsertEdge { src: a, label: l, dst: b });
                live.push((a, l, b)); // duplicates allowed: exercises skips
            }
        }
    }
    // Drain to empty: every surviving edge is deleted, in random order, so
    // the full DCG teardown path runs in every scenario.
    rng.shuffle(&mut live);
    for (a, l, b) in live {
        ops.push(UpdateOp::DeleteEdge { src: a, label: l, dst: b });
    }
    Scenario { g0: g, queries, ops }
}

/// A triangle with a tail, `u0 -a-> u1 -b-> u2 -t-> u3` closed by
/// `u0 -c-> u2`, over two sources whose `u1` candidates are all explicit but
/// do not all reach the `u2` vertex `d`: `d` has three explicit parents
/// (`p1`, `p3` under `s`; `p4` under `s2`) and `p2`, a child of both
/// sources, has none of its edges into `d`. Everything but the closing
/// edges is in `g0`, so `c` is the costliest query edge and stays out of the
/// spanning tree; the two closing edges `s -c-> d`, `s2 -c-> d` arrive
/// last and leave first, each a non-tree invocation that pre-binds `u2 = d`
/// and must report through `p1`, `p3` (`p4`) and not through `p2`.
fn closing_edge_scenario() -> Scenario {
    let l = |i: u32| LabelSet::single(LabelId(i));
    let (a, b, c, t) = (LabelId(10), LabelId(11), LabelId(12), LabelId(13));
    let mut g = DynamicGraph::new();
    let [s, s2] = [0; 2].map(|_| g.add_vertex(l(0)));
    let [p1, p2, p3, p4] = [0; 4].map(|_| g.add_vertex(l(1)));
    let [d, d2, d3, d4] = [0; 4].map(|_| g.add_vertex(l(2)));
    let [x, x2] = [0; 2].map(|_| g.add_vertex(l(3)));
    let by_label = [
        (a, vec![(s, p1), (s, p2), (s, p3), (s2, p4), (s2, p2)]),
        (b, vec![(p1, d), (p3, d), (p4, d), (p2, d2), (p4, d2)]),
        (t, vec![(d, x), (d2, x2), (d3, x), (d4, x), (d3, x2)]),
        (c, vec![(s, d2), (s, d3), (s, d4), (s2, d2), (s2, d3), (s2, d4)]),
    ];
    let standing: Vec<_> = by_label
        .iter()
        .flat_map(|(label, pairs)| pairs.iter().map(|&(src, dst)| (src, *label, dst)))
        .collect();
    for &(src, label, dst) in &standing {
        g.insert_edge(src, label, dst);
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(l(i))).collect();
    q.add_edge(us[0], us[1], Some(a));
    q.add_edge(us[1], us[2], Some(b));
    let closing = q.add_edge(us[0], us[2], Some(c));
    q.add_edge(us[2], us[3], Some(t));
    // The plan the scenario is built for; a change to root or tree choice
    // that moves it must move the scenario too.
    let probe = TurboFlux::new(q.clone(), g.clone(), TurboFluxConfig::default());
    assert_eq!(probe.query_tree().root(), us[0]);
    assert_eq!(probe.query_tree().non_tree_edges(), [closing]);
    assert_eq!(probe.query_tree().parent(us[2]), Some(us[1]));

    let closers = [(s, c, d), (s2, c, d)];
    let insert = |&(src, label, dst): &(_, _, _)| UpdateOp::InsertEdge { src, label, dst };
    let delete = |&(src, label, dst): &(_, _, _)| UpdateOp::DeleteEdge { src, label, dst };
    let ops = closers
        .iter()
        .map(insert)
        .chain(closers.iter().map(delete))
        .chain(standing.iter().rev().map(delete))
        .collect();
    Scenario { g0: g, queries: vec![q], ops }
}

/// Unsharded reference: K standalone engines (static matching order)
/// applying ops one at a time. Also returns each query's initial matches.
fn standalone(s: &Scenario, cfg: &TurboFluxConfig) -> (Vec<Vec<MatchRecord>>, Vec<Delta>) {
    let mut out = Vec::new();
    let mut initial = Vec::new();
    for (id, q) in s.queries.iter().enumerate() {
        let mut engine = TurboFlux::new(q.clone(), s.g0.clone(), *cfg);
        let mut init = Vec::new();
        engine.report_initial(&mut |r| init.push(r.clone()));
        initial.push(init);
        for (op_index, op) in s.ops.iter().enumerate() {
            engine.apply_op(op, &mut |p, r| out.push((id, op_index, p, r.clone())));
        }
    }
    (initial, out)
}

/// Holds the standalone reference against full recomputation: the same
/// initial matches, and per query and op the same set of signed matches.
fn assert_naive_agrees(
    s: &Scenario,
    cfg: &TurboFluxConfig,
    init: &[Vec<MatchRecord>],
    got: &[Delta],
) {
    for (id, q) in s.queries.iter().enumerate() {
        let mut naive = NaiveRecompute::new(q.clone(), s.g0.clone(), cfg.semantics);
        let mut want_init = HashSet::new();
        naive.initial_matches(&mut |r| assert!(want_init.insert(r.clone())));
        assert_eq!(init[id].len(), want_init.len(), "query {id}: initial match count");
        assert_eq!(init[id].iter().cloned().collect::<HashSet<_>>(), want_init, "query {id}");
        for (op_index, op) in s.ops.iter().enumerate() {
            // The runtimes create an endpoint nobody announced, label-less
            // (`round::stage`); the bare graph under the recompute does not.
            if let UpdateOp::InsertEdge { src, dst, .. } = *op {
                let straggler = UpdateOp::AddVertex { id: src.max(dst), labels: LabelSet::empty() };
                naive.apply(&straggler, &mut |_, _| {});
            }
            let mut want = HashSet::new();
            naive.apply(op, &mut |p, r| assert!(want.insert((p, r.clone()))));
            let here: Vec<_> = got
                .iter()
                .filter(|d| (d.0, d.1) == (id, op_index))
                .map(|d| (d.2, d.3.clone()))
                .collect();
            assert_eq!(here.len(), want.len(), "query {id}, op {op_index} {op:?}: delta count");
            assert_eq!(here.into_iter().collect::<HashSet<_>>(), want, "query {id}, op {op_index}");
        }
    }
}

fn fleet_deltas(s: &Scenario, cfg: &TurboFluxConfig) -> Vec<Delta> {
    let mut fleet = Fleet::new(s.g0.clone());
    for q in &s.queries {
        fleet.register(q.clone(), *cfg);
    }
    let mut out: Vec<Delta> = Vec::new();
    fleet.apply_batch(&s.ops, &mut |d: FleetDelta<'_>| {
        out.push((d.engine, d.op_index, d.positiveness, d.record.clone()));
    });
    out
}

/// Runs the sharded engine and returns (initials per query, deltas, stats).
fn sharded(
    s: &Scenario,
    cfg: &TurboFluxConfig,
    shards: usize,
    split: bool,
) -> (Vec<Vec<MatchRecord>>, Vec<Delta>, ShardStats) {
    let cfg = TurboFluxConfig { shards, ..*cfg };
    let mut engine = ShardedEngine::new(s.queries.clone(), s.g0.clone(), cfg, 1);
    let mut initial = Vec::new();
    for q in 0..s.queries.len() {
        let mut init = Vec::new();
        engine.report_initial(q, &mut |r| init.push(r.clone()));
        initial.push(init);
    }
    let mut out: Vec<Delta> = Vec::new();
    if split {
        // Split the stream into two batches so mid-stream
        // construction state (not just end-to-end totals) is exercised;
        // op indices are batch-relative (the `Fleet` convention), so the
        // second batch is offset back to stream positions.
        let mid = s.ops.len() / 2;
        engine.apply_batch(&s.ops[..mid], &mut |q, op, p, r| out.push((q, op, p, r.clone())));
        engine.apply_batch(&s.ops[mid..], &mut |q, op, p, r| out.push((q, mid + op, p, r.clone())));
    } else {
        engine.apply_batch(&s.ops, &mut |q, op, p, r| out.push((q, op, p, r.clone())));
    }
    (initial, out, engine.stats())
}

/// "One copy of each edge": after `n` ops the runtime holds exactly the
/// standalone engine's graph, whatever the shard count. Returns how many
/// edges that is.
fn assert_one_graph(s: &Scenario, cfg: &TurboFluxConfig, shards: usize, n: usize) -> usize {
    let mut plain = TurboFlux::new(s.queries[0].clone(), s.g0.clone(), *cfg);
    s.ops[..n].iter().for_each(|op| plain.apply_op(op, &mut |_, _| {}));
    let cfg = TurboFluxConfig { shards, ..*cfg };
    let mut engine = ShardedEngine::new(s.queries.clone(), s.g0.clone(), cfg, 1);
    engine.apply_batch(&s.ops[..n], &mut |_, _, _, _| {});
    let (got, want) = (engine.graph(), plain.graph());
    got.validate();
    assert_eq!(got.vertex_count(), want.vertex_count(), "shards={shards}, {n} ops");
    assert!(got.edges().eq(want.edges()), "graphs diverge at shards={shards} after {n} ops");
    want.edge_count()
}

fn run(seed: u64, semantics: MatchSemantics) {
    let mut rng = Pcg32::new(seed);
    // The sharded runtime pins the matching order static; the honest
    // unsharded reference is the engine with the same static order.
    let cfg =
        TurboFluxConfig { semantics, adjust_matching_order: false, ..TurboFluxConfig::default() };
    let mut exercised = 0;
    let mut nonempty = 0;
    let mut agg = ShardStats::default();
    let mut edges_compared = 0;
    let mut cyclic = 0;
    let shapes = [StreamShape::Uniform, StreamShape::Hub, StreamShape::Explosive];
    let directed = std::iter::once((None, closing_edge_scenario()));
    let random = (0..36).map(|round| {
        let shape = shapes[round % shapes.len()];
        (Some(shape), random_scenario(&mut rng, shape))
    });
    for (shape, s) in directed.chain(random) {
        if s.queries.iter().any(|q| q.edge_count() == 0 || !q.is_connected()) {
            continue;
        }
        exercised += 1;
        cyclic += s.queries.iter().filter(|q| q.edge_count() >= q.vertex_count()).count();
        let (want_init, want) = standalone(&s, &cfg);
        assert_naive_agrees(&s, &cfg, &want_init, &want);
        if shape.is_none() {
            // The four closing ops: `p1`, `p3` under `s` and `p4` under `s2`,
            // once per sign.
            let closing = want.iter().filter(|d| d.1 < 4).count();
            assert_eq!(closing, 6, "closing-edge scenario: {want:?}");
        }
        assert_eq!(fleet_deltas(&s, &cfg), want, "fleet != standalone ({shape:?})");
        for shards in [1usize, 2, 4, 8] {
            let split = shards % 2 == 1; // alternate one batch and two
            let (init, got, stats) = sharded(&s, &cfg, shards, split);
            assert_eq!(init, want_init, "initial matches diverge at shards={shards} ({shape:?})");
            // Output is (query, op) ordered *per batch*; re-key the
            // whole-stream reference for the two-batch run.
            let want_here = if split {
                let mid = s.ops.len() / 2;
                let mut w = want.clone();
                w.sort_by_key(|&(q, op, _, _)| (op >= mid, q));
                w
            } else {
                want.clone()
            };
            assert_eq!(got, want_here, "deltas diverge at shards={shards} ({shape:?})");
            // Half-way (edges live) and at the scenario's drained end.
            for n in [s.ops.len() / 2, s.ops.len()] {
                edges_compared += assert_one_graph(&s, &cfg, shards, n);
            }
            if shards > 1 {
                agg.ops_routed += stats.ops_routed;
                agg.cross_shard_edges += stats.cross_shard_edges;
                agg.handoffs += stats.handoffs;
                agg.inbox_high_water = agg.inbox_high_water.max(stats.inbox_high_water);
            }
        }
        if !want.is_empty() {
            nonempty += 1;
        }
    }
    assert!(exercised >= 20, "only {exercised} scenarios exercised");
    assert!(nonempty >= 5, "only {nonempty} scenarios produced matches");
    assert!(cyclic >= 5, "only {cyclic} cyclic queries exercised");
    assert!(edges_compared > 0, "every compared graph was empty");
    // Non-vacuity: the sharded runs actually applied edge ops, some of them
    // across shards, and planned invocations for them.
    assert!(agg.ops_routed > 0, "no ops routed: {agg:?}");
    assert!(agg.cross_shard_edges > 0, "no cross-shard edges: {agg:?}");
    assert!(agg.handoffs > 0, "no handoffs: {agg:?}");
    assert!(agg.inbox_high_water > 0, "no op planned an invocation: {agg:?}");
}

#[test]
fn sharded_matches_unsharded_homomorphism() {
    run(0x05AA_D001, MatchSemantics::Homomorphism);
}

#[test]
fn sharded_matches_unsharded_isomorphism() {
    run(0x05AA_D002, MatchSemantics::Isomorphism);
}
