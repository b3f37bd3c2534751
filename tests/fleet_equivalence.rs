//! The randomized byte-equality oracle for the multi-query [`Fleet`].
//!
//! A scenario registers K queries over an initial graph, applies a first op
//! batch, optionally deregisters one engine and registers a fresh query
//! mid-stream, and applies a second batch. The emitted delta sequence —
//! under homomorphism and isomorphism — must be byte-identical to naive
//! per-engine replay:
//! standalone [`TurboFlux`] engines applying the same ops one at a time, the
//! deregistered engine silent in batch 2 and the late engine starting from
//! the registration-time graph state.
//!
//! Four scenario generators feed the one comparator:
//! * [`plain_scenario`] — small random queries, one batch, no churn;
//! * [`routed_scenario`] — deeper random queries with register →
//!   deregister → register churn, ops drawn from a label palette wider than
//!   any query's so routing provably skips engines (`ops_skipped > 0`);
//! * [`twin_scenario`] — two identical 4-chain queries (plus random ones)
//!   over a chain-aligned graph and stream; one twin is deregistered and the
//!   same query re-registered, so equal engines at different ages coexist;
//! * [`churned_scenario`] — batch 1 grows a hub past the flat adjacency
//!   layout and creates vertices, so the late query's initial DCG is built
//!   from a graph unlike the compact clone naive replay registers on.

mod common;

use common::random_query;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;
use turboflux::FleetDelta;

type Delta = (usize, usize, Positiveness, MatchRecord);
type Edge = (VertexId, LabelId, VertexId);

struct Scenario {
    g0: DynamicGraph,
    queries: Vec<QueryGraph>,
    /// `(victim, late query)`: the engine deregistered between the batches
    /// and the query registered against the post-batch-1 graph.
    churn: Option<(usize, QueryGraph)>,
    ops1: Vec<UpdateOp>,
    ops2: Vec<UpdateOp>,
}

/// A mixed op sequence over a growing vertex set (vertex labels `i % 2`,
/// edge labels `10..10 + edge_labels`). `live` mirrors the graph so deletes
/// mostly hit real edges; duplicate inserts are allowed (exercises skips).
fn random_ops(
    rng: &mut Pcg32,
    n: usize,
    edge_labels: usize,
    vertices: &mut u32,
    live: &mut Vec<Edge>,
) -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    for _ in 0..n {
        match rng.below(10) {
            0 => {
                ops.push(UpdateOp::AddVertex {
                    id: VertexId(*vertices),
                    labels: LabelSet::single(LabelId(rng.below(2) as u32)),
                });
                *vertices += 1;
            }
            2..=4 if !live.is_empty() => {
                let (a, l, b) = live.swap_remove(rng.below(live.len()));
                ops.push(UpdateOp::DeleteEdge { src: a, label: l, dst: b });
            }
            kind => {
                // `1`: the edge touches a brand-new, implicitly created vertex.
                let a = VertexId(rng.below(*vertices as usize) as u32);
                let b = if kind == 1 {
                    *vertices += 1;
                    VertexId(*vertices - 1)
                } else {
                    VertexId(rng.below(*vertices as usize) as u32)
                };
                let l = LabelId(10 + rng.below(edge_labels) as u32);
                ops.push(UpdateOp::InsertEdge { src: a, label: l, dst: b });
                live.push((a, l, b));
            }
        }
    }
    ops
}

/// A random graph on `nv` vertices labeled `i % 2` with up to `ne` edges.
fn random_graph(rng: &mut Pcg32, nv: u32, ne: usize, edge_labels: usize) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    for i in 0..nv {
        g.add_vertex(LabelSet::single(LabelId(i % 2)));
    }
    for _ in 0..ne {
        let a = VertexId(rng.below(nv as usize) as u32);
        let b = VertexId(rng.below(nv as usize) as u32);
        g.insert_edge(a, LabelId(10 + rng.below(edge_labels) as u32), b);
    }
    g
}

fn live_edges(g: &DynamicGraph) -> Vec<Edge> {
    g.edges().map(|e| (e.src, e.label, e.dst)).collect()
}

/// 2–4 small queries and one batch over a two-label palette, no churn.
fn plain_scenario(rng: &mut Pcg32) -> Scenario {
    let mut vertices = 3 + rng.below(4) as u32;
    let ne = rng.below(6);
    let g0 = random_graph(rng, vertices, ne, 2);
    let queries = (0..2 + rng.below(3))
        .map(|_| {
            let nq = 2 + rng.below(3) as u32;
            random_query(rng, nq, |_, i| i % 2, false, 2, 3)
        })
        .collect();
    let mut live = live_edges(&g0);
    let n = 6 + rng.below(10);
    let ops1 = random_ops(rng, n, 2, &mut vertices, &mut live);
    Scenario { g0, queries, churn: None, ops1, ops2: Vec::new() }
}

/// 2–4 deeper queries with churn. Ops use edge labels 10..=14 while queries
/// only mention 10..=12: labels 13/14 interest no engine (except wildcards),
/// so routing must skip.
fn routed_scenario(rng: &mut Pcg32) -> Scenario {
    let mut vertices = 4 + rng.below(4) as u32;
    let ne = 3 + rng.below(6);
    let g0 = random_graph(rng, vertices, ne, 3);
    let nqueries = 2 + rng.below(3);
    let queries = (0..nqueries)
        .map(|_| {
            let nq = 2 + rng.below(4) as u32;
            random_query(rng, nq, |_, i| i % 2, true, 3, 8)
        })
        .collect();
    let late_nq = 2 + rng.below(3) as u32;
    let late = random_query(rng, late_nq, |_, i| i % 2, true, 3, 8);
    let victim = rng.below(nqueries);
    let mut live = live_edges(&g0);
    let n1 = 5 + rng.below(8);
    let ops1 = random_ops(rng, n1, 5, &mut vertices, &mut live);
    let n2 = 5 + rng.below(8);
    let ops2 = random_ops(rng, n2, 5, &mut vertices, &mut live);
    Scenario { g0, queries, churn: Some((victim, late)), ops1, ops2 }
}

/// The 4-vertex chain `L0 -10-> L1 -11-> L2 -12-> L3`.
fn chain_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    for i in 0..4 {
        q.add_vertex(LabelSet::single(LabelId(i)));
    }
    for k in 0..3 {
        q.add_edge(QVertexId(k), QVertexId(k + 1), Some(LabelId(10 + k)));
    }
    q
}

/// An edge compatible with the chain query: `Lk -(10+k)-> Lk+1` for a
/// random layer `k`, both endpoints drawn among vertices of the right label
/// (a fully random edge when a layer is unpopulated).
fn chain_aligned_edge(rng: &mut Pcg32, vlabels: &[u32]) -> Edge {
    let k = rng.below(3) as u32;
    let layer = |l: u32| -> Vec<u32> {
        (0..vlabels.len() as u32).filter(|&v| vlabels[v as usize] == l).collect()
    };
    let (srcs, dsts) = (layer(k), layer(k + 1));
    if srcs.is_empty() || dsts.is_empty() {
        let a = VertexId(rng.below(vlabels.len()) as u32);
        let b = VertexId(rng.below(vlabels.len()) as u32);
        return (a, LabelId(10 + rng.below(4) as u32), b);
    }
    (VertexId(srcs[rng.below(srcs.len())]), LabelId(10 + k), VertexId(dsts[rng.below(dsts.len())]))
}

/// Chain-biased ops over four vertex labels and edge labels 10..=13.
fn chain_ops(
    rng: &mut Pcg32,
    n: usize,
    vlabels: &mut Vec<u32>,
    live: &mut Vec<Edge>,
) -> Vec<UpdateOp> {
    let mut ops = Vec::new();
    for _ in 0..n {
        match rng.below(10) {
            0 => {
                let l = rng.below(4) as u32;
                ops.push(UpdateOp::AddVertex {
                    id: VertexId(vlabels.len() as u32),
                    labels: LabelSet::single(LabelId(l)),
                });
                vlabels.push(l);
            }
            1..=3 if !live.is_empty() => {
                let (a, l, b) = live.swap_remove(rng.below(live.len()));
                ops.push(UpdateOp::DeleteEdge { src: a, label: l, dst: b });
            }
            kind => {
                let (a, l, b) = if (4..=5).contains(&kind) {
                    let a = VertexId(rng.below(vlabels.len()) as u32);
                    let b = VertexId(rng.below(vlabels.len()) as u32);
                    (a, LabelId(10 + rng.below(4) as u32), b)
                } else {
                    chain_aligned_edge(rng, vlabels)
                };
                ops.push(UpdateOp::InsertEdge { src: a, label: l, dst: b });
                live.push((a, l, b));
            }
        }
    }
    ops
}

/// Engines 0 and 1 run the identical chain query (they derive the identical
/// tree), the rest are random; one twin is deregistered between the batches
/// and another chain copy registered in its place.
fn twin_scenario(rng: &mut Pcg32) -> Scenario {
    let nv = 8 + rng.below(4) as u32;
    let mut g0 = DynamicGraph::new();
    let mut vlabels = Vec::new();
    for i in 0..nv {
        g0.add_vertex(LabelSet::single(LabelId(i % 4)));
        vlabels.push(i % 4);
    }
    // One guaranteed full chain embedding plus chain-biased noise.
    for k in 0..3u32 {
        g0.insert_edge(VertexId(k), LabelId(10 + k), VertexId(k + 1));
    }
    for _ in 0..4 + rng.below(8) {
        let (a, l, b) = chain_aligned_edge(rng, &vlabels);
        g0.insert_edge(a, l, b);
    }
    let mut queries = vec![chain_query(), chain_query()];
    for _ in 0..1 + rng.below(2) {
        let nq = 3 + rng.below(3) as u32;
        queries.push(random_query(rng, nq, |rng, _| rng.below(4) as u32, true, 3, 8));
    }
    let victim = rng.below(2); // always one of the twins
    let mut live = live_edges(&g0);
    let n1 = 8 + rng.below(8);
    let ops1 = chain_ops(rng, n1, &mut vlabels, &mut live);
    let n2 = 8 + rng.below(8);
    let ops2 = chain_ops(rng, n2, &mut vlabels, &mut live);
    Scenario { g0, queries, churn: Some((victim, chain_query())), ops1, ops2 }
}

/// Batch 1 hangs 80 spokes over three labels on one hub, two out of three
/// outgoing and every third ending on a vertex the edge itself creates, then
/// deletes and adds at random: by the time the late query registers through
/// `Fleet::register` the hub's out-run is a label directory, the size classes
/// it grew through sit on the arena's free lists and a third of the vertices
/// exist only because the stream named them — while naive replay registers
/// the same query on a clone, which is laid out compactly.
fn churned_scenario(rng: &mut Pcg32) -> Scenario {
    let mut vertices = 6 + rng.below(3) as u32;
    let g0 = random_graph(rng, vertices, 6, 3);
    let query = |rng: &mut Pcg32| {
        let nq = 2 + rng.below(3) as u32;
        random_query(rng, nq, |_, i| i % 2, true, 3, 4)
    };
    let queries = vec![query(rng), query(rng)];
    let late = query(rng);
    let mut live = live_edges(&g0);
    let hub = VertexId(rng.below(vertices as usize) as u32);
    let mut ops1 = Vec::new();
    for i in 0..80u32 {
        let far = if i % 3 == 0 {
            vertices += 1;
            VertexId(vertices - 1)
        } else {
            VertexId(rng.below(vertices as usize) as u32)
        };
        let (a, b) = if i % 3 == 2 { (far, hub) } else { (hub, far) };
        let l = LabelId(10 + rng.below(3) as u32);
        ops1.push(UpdateOp::InsertEdge { src: a, label: l, dst: b });
        live.push((a, l, b));
    }
    ops1.extend(random_ops(rng, 20, 3, &mut vertices, &mut live));
    let ops2 = random_ops(rng, 15, 3, &mut vertices, &mut live);
    Scenario { g0, queries, churn: Some((0, late)), ops1, ops2 }
}

/// Naive per-engine replay: one standalone engine per query applying ops
/// one at a time; the victim stops after batch 1, the late engine starts
/// from the post-batch-1 graph under the next stable id. Returns the two
/// per-batch delta sequences, each in `(engine id, op_index)` order.
fn naive_deltas(s: &Scenario, cfg: TurboFluxConfig) -> (Vec<Delta>, Vec<Delta>) {
    let (mut batch1, mut batch2) = (Vec::new(), Vec::new());
    let mut g_mid = None;
    for (id, q) in s.queries.iter().enumerate() {
        let mut engine = TurboFlux::new(q.clone(), s.g0.clone(), cfg);
        for (op_index, op) in s.ops1.iter().enumerate() {
            engine.apply_op(op, &mut |p, r| batch1.push((id, op_index, p, r.clone())));
        }
        g_mid.get_or_insert_with(|| engine.graph().clone());
        if s.churn.as_ref().is_some_and(|&(victim, _)| victim == id) {
            continue;
        }
        for (op_index, op) in s.ops2.iter().enumerate() {
            engine.apply_op(op, &mut |p, r| batch2.push((id, op_index, p, r.clone())));
        }
    }
    if let Some((_, late)) = &s.churn {
        let late_id = s.queries.len();
        let g_mid = g_mid.expect("at least one query");
        let mut engine = TurboFlux::new(late.clone(), g_mid, cfg);
        for (op_index, op) in s.ops2.iter().enumerate() {
            engine.apply_op(op, &mut |p, r| batch2.push((late_id, op_index, p, r.clone())));
        }
    }
    (batch1, batch2)
}

/// Runs the scenario on one fleet; returns the two batches' delta sequences
/// and the fleet's final stats.
fn fleet_deltas(s: &Scenario, cfg: TurboFluxConfig) -> (Vec<Delta>, Vec<Delta>, FleetStats) {
    let mut fleet = Fleet::new(s.g0.clone());
    let ids: Vec<usize> = s.queries.iter().map(|q| fleet.register(q.clone(), cfg)).collect();
    let collect = |fleet: &mut Fleet, ops: &[UpdateOp]| {
        let mut out: Vec<Delta> = Vec::new();
        fleet.apply_batch(ops, &mut |d: FleetDelta<'_>| {
            out.push((d.engine, d.op_index, d.positiveness, d.record.clone()));
        });
        out
    };
    let batch1 = collect(&mut fleet, &s.ops1);
    if let Some((victim, late)) = &s.churn {
        assert!(fleet.deregister(ids[*victim]));
        let late_id = fleet.register(late.clone(), cfg);
        assert_eq!(late_id, s.queries.len(), "stable ids continue past deregistration");
    }
    let batch2 = collect(&mut fleet, &s.ops2);
    (batch1, batch2, fleet.stats())
}

/// The one comparator: the fleet against naive replay. Returns
/// `(deltas, ops_skipped)` for the callers' non-vacuity checks.
fn assert_fleet_matches_naive(s: &Scenario, semantics: MatchSemantics) -> (usize, u64) {
    let cfg = TurboFluxConfig::with_semantics(semantics);
    let (want1, want2) = naive_deltas(s, cfg);
    let (b1, b2, stats) = fleet_deltas(s, cfg);
    assert_eq!(b1, want1, "fleet != naive replay (batch 1)");
    assert_eq!(b2, want2, "fleet != naive replay (batch 2)");
    (want1.len() + want2.len(), stats.ops_skipped)
}

/// Draws `rounds` scenarios and checks each; returns the total
/// `ops_skipped`.
fn run(
    generate: fn(&mut Pcg32) -> Scenario,
    seed: u64,
    semantics: MatchSemantics,
    rounds: usize,
    min_exercised: usize,
    min_nonempty: usize,
) -> u64 {
    let mut rng = Pcg32::new(seed);
    let (mut exercised, mut nonempty, mut skipped) = (0, 0, 0);
    for _ in 0..rounds {
        let s = generate(&mut rng);
        let valid = |q: &QueryGraph| q.edge_count() > 0 && q.is_connected();
        if !s.queries.iter().chain(s.churn.iter().map(|(_, late)| late)).all(valid) {
            continue;
        }
        exercised += 1;
        let (deltas, sk) = assert_fleet_matches_naive(&s, semantics);
        skipped += sk;
        nonempty += usize::from(deltas > 0);
    }
    assert!(exercised >= min_exercised, "only {exercised} scenarios exercised");
    assert!(nonempty >= min_nonempty, "only {nonempty} scenarios produced matches");
    skipped
}

#[test]
fn plain_fleet_matches_naive_replay_homomorphism() {
    run(plain_scenario, 0xF1EE7, MatchSemantics::Homomorphism, 60, 20, 5);
}

#[test]
fn plain_fleet_matches_naive_replay_isomorphism() {
    run(plain_scenario, 0x150_F1EE7, MatchSemantics::Isomorphism, 60, 20, 5);
}

#[test]
fn routed_fleet_matches_naive_replay_homomorphism() {
    let skipped = run(routed_scenario, 0x0007_F10C5, MatchSemantics::Homomorphism, 40, 15, 5);
    assert!(skipped > 0, "routing never skipped an engine (vacuous)");
}

#[test]
fn routed_fleet_matches_naive_replay_isomorphism() {
    let skipped = run(routed_scenario, 0x0150_F10C5, MatchSemantics::Isomorphism, 40, 15, 5);
    assert!(skipped > 0, "routing never skipped an engine (vacuous)");
}

#[test]
fn twin_fleet_matches_naive_replay_homomorphism() {
    run(twin_scenario, 0x51_B7EE5, MatchSemantics::Homomorphism, 25, 10, 3);
}

#[test]
fn twin_fleet_matches_naive_replay_isomorphism() {
    run(twin_scenario, 0x150_5B75, MatchSemantics::Isomorphism, 25, 10, 3);
}

#[test]
fn late_registration_on_a_churned_graph_matches_naive_replay() {
    run(churned_scenario, 0x00C4_0221, MatchSemantics::Homomorphism, 12, 8, 4);
    run(churned_scenario, 0x0015_0C40, MatchSemantics::Isomorphism, 12, 8, 4);
    // What the late registration reads, on the fleet's own graph.
    let s = churned_scenario(&mut Pcg32::new(0x00C4_0221));
    let mut fleet = Fleet::new(s.g0.clone());
    fleet.apply_batch(&s.ops1, &mut |_| {});
    let stats = fleet.graph().storage_stats();
    assert!(stats.directory_runs > 0, "no run outgrew the flat layout");
    assert!(stats.free_slots > 0, "nothing churned the arena");
    assert!(fleet.graph().vertex_count() > s.g0.vertex_count() + 20, "no vertex was created");
}
