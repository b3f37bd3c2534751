//! Randomized oracle for the streaming ingestion subsystem: a windowed,
//! batched driver run must produce deltas **byte-identical** to replaying
//! the window's emitted op sequence one op at a time on a fresh engine.
//!
//! The window is a pure op-sequence transformer (inserts in, inserts plus
//! expiry deletes out) and batching only changes *when* ops reach the
//! target, never *what* — so for any scenario, window spec, batch policy,
//! semantics, and target (single engine, fleet, sharded at 1/2/4 shards),
//! the recorded `(global_op, engine, sign, embedding)` stream must match the replay
//! exactly, in order.

mod common;

use common::random_query;
use std::collections::HashSet;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;
use turboflux::stream::VecSource;

/// `(global_op, engine, positiveness, record)` — the full identity of a
/// delta as far as a downstream consumer can observe it.
type Delta = (usize, usize, Positiveness, MatchRecord);

/// Records the window's emitted ops (via `on_ops`) and every delta.
#[derive(Default)]
struct RecordingSink {
    ops: Vec<UpdateOp>,
    deltas: Vec<Delta>,
}

impl DeltaSink for RecordingSink {
    fn on_ops(&mut self, _batch: usize, ops: &[UpdateOp]) {
        self.ops.extend_from_slice(ops);
    }
    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        self.deltas.push((d.global_op, d.engine, d.positiveness, d.record.clone()));
    }
}

struct Scenario {
    g0: DynamicGraph,
    queries: Vec<QueryGraph>,
    events: Vec<StreamEvent>,
}

/// A small random graph, 1–3 random queries, and a timestamped event
/// sequence biased toward inserts, with enough duplicate edges and
/// upstream deletes to exercise the window's multigraph bookkeeping.
fn random_scenario(rng: &mut Pcg32) -> Scenario {
    let nv = 3 + rng.below(4) as u32;
    let mut g = DynamicGraph::new();
    for i in 0..nv {
        g.add_vertex(LabelSet::single(LabelId(i % 2)));
    }
    for _ in 0..rng.below(5) {
        let a = VertexId(rng.below(nv as usize) as u32);
        let b = VertexId(rng.below(nv as usize) as u32);
        g.insert_edge(a, LabelId(10 + rng.below(2) as u32), b);
    }

    let nqueries = 1 + rng.below(3);
    let queries: Vec<QueryGraph> = (0..nqueries)
        .map(|_| {
            let nq = 2 + rng.below(3) as u32;
            random_query(rng, nq, |_, i| i % 2, false, 2, 3)
        })
        .collect();

    let mut events = Vec::new();
    let mut inserted: Vec<(VertexId, LabelId, VertexId)> = Vec::new();
    let mut vertices = nv;
    let mut ts = 0u64;
    for _ in 0..(10 + rng.below(20)) {
        ts += rng.below(3) as u64; // non-decreasing, frequent ties
        match rng.below(12) {
            0 => {
                events.push(StreamEvent::new(
                    ts,
                    UpdateOp::AddVertex {
                        id: VertexId(vertices),
                        labels: LabelSet::single(LabelId(rng.below(2) as u32)),
                    },
                ));
                vertices += 1;
            }
            1 | 2 if !inserted.is_empty() => {
                // Upstream delete of a still-windowed insert: the window
                // must cancel the pending expiry, not double-delete.
                let (s, l, d) = inserted[rng.below(inserted.len())];
                events
                    .push(StreamEvent::new(ts, UpdateOp::DeleteEdge { src: s, label: l, dst: d }));
            }
            _ => {
                let s = VertexId(rng.below(vertices as usize) as u32);
                let d = VertexId(rng.below(vertices as usize) as u32);
                let l = LabelId(10 + rng.below(2) as u32);
                // ~1 in 4 inserts duplicates an earlier edge key.
                let (s, l, d) = if !inserted.is_empty() && rng.below(4) == 0 {
                    inserted[rng.below(inserted.len())]
                } else {
                    (s, l, d)
                };
                events
                    .push(StreamEvent::new(ts, UpdateOp::InsertEdge { src: s, label: l, dst: d }));
                inserted.push((s, l, d));
            }
        }
    }
    Scenario { g0: g, queries, events }
}

fn random_window(rng: &mut Pcg32) -> WindowSpec {
    match rng.below(3) {
        0 => WindowSpec::Time { width: 1 + rng.below(8) as u64 },
        1 => WindowSpec::Count { capacity: 1 + rng.below(6) },
        _ => WindowSpec::Unbounded,
    }
}

fn random_policy(rng: &mut Pcg32) -> BatchPolicy {
    BatchPolicy {
        max_ops: 1 + rng.below(7),
        max_ticks: if rng.below(2) == 0 { Some(1 + rng.below(5) as u64) } else { None },
        drain_at_end: rng.below(2) == 0,
    }
}

/// Runs the windowed driver against `target`, returning the emitted op
/// sequence and the delta stream.
fn windowed_run(
    scenario: &Scenario,
    spec: WindowSpec,
    policy: BatchPolicy,
    target: &mut dyn turboflux::stream::BatchTarget,
) -> (Vec<UpdateOp>, Vec<Delta>) {
    let mut source = VecSource::new(scenario.events.clone());
    let mut driver = StreamDriver::new(SlidingWindow::new(spec), policy);
    let mut sink = RecordingSink::default();
    driver.run(&mut source, target, &mut sink).expect("vec sources never fail");
    (sink.ops, sink.deltas)
}

/// Replays `ops` one per batch on a fresh fleet — the ground truth.
fn replay(scenario: &Scenario, semantics: MatchSemantics, ops: &[UpdateOp]) -> Vec<Delta> {
    replay_with(scenario, TurboFluxConfig::with_semantics(semantics), ops)
}

fn replay_with(scenario: &Scenario, cfg: TurboFluxConfig, ops: &[UpdateOp]) -> Vec<Delta> {
    let mut fleet = Fleet::new(scenario.g0.clone());
    for q in &scenario.queries {
        fleet.register(q.clone(), cfg);
    }
    let mut deltas = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        fleet.apply_batch(std::slice::from_ref(op), &mut |d| {
            deltas.push((i, d.engine, d.positiveness, d.record.clone()));
        });
    }
    deltas
}

/// Stable-sorts by engine, preserving each engine's own delta order.
fn by_engine(mut deltas: Vec<Delta>) -> Vec<Delta> {
    deltas.sort_by_key(|d| d.1);
    deltas
}

fn check_seed(seed: u64, semantics: MatchSemantics) {
    let mut rng = Pcg32::new(seed);
    let scenario = random_scenario(&mut rng);
    let spec = random_window(&mut rng);
    let policy = random_policy(&mut rng);

    // Target 1: single engine (first query only).
    let mut engine = TurboFlux::new(
        scenario.queries[0].clone(),
        scenario.g0.clone(),
        TurboFluxConfig::with_semantics(semantics),
    );
    let (ops, got) = windowed_run(&scenario, spec, policy, &mut engine);
    let single = Scenario {
        g0: scenario.g0.clone(),
        queries: vec![scenario.queries[0].clone()],
        events: Vec::new(),
    };
    let want = replay(&single, semantics, &ops);
    assert_eq!(got, want, "single engine diverged from replay (seed {seed}, {spec:?}, {policy:?})");

    // Target 2: fleet over all queries.
    let mut fleet = Fleet::new(scenario.g0.clone());
    for q in &scenario.queries {
        fleet.register(q.clone(), TurboFluxConfig::with_semantics(semantics));
    }
    let (fleet_ops, fleet_got) = windowed_run(&scenario, spec, policy, &mut fleet);
    assert_eq!(ops, fleet_ops, "window output must not depend on the target (seed {seed})");
    // The fleet's contract orders deltas (engine, op, emission) *within a
    // batch*, so the cross-engine interleave depends on batch granularity;
    // each engine's own delta stream must match the replay exactly.
    let fleet_want = replay(&scenario, semantics, &ops);
    assert_eq!(
        by_engine(fleet_got),
        by_engine(fleet_want),
        "fleet diverged from replay (seed {seed}, {spec:?}, {policy:?})"
    );

    // Targets 3–5: the sharded runtime over all queries.
    // It pins the matching order static, so its ground truth is the
    // static-order replay; within a batch it orders (query, op, emission)
    // like the fleet.
    let static_cfg = TurboFluxConfig {
        adjust_matching_order: false,
        ..TurboFluxConfig::with_semantics(semantics)
    };
    let sharded_want = by_engine(replay_with(&scenario, static_cfg, &ops));
    for shards in [1, 2, 4] {
        let mut sharded = ShardedEngine::new(
            scenario.queries.clone(),
            scenario.g0.clone(),
            TurboFluxConfig { shards, ..static_cfg },
            1,
        );
        let (sharded_ops, sharded_got) = windowed_run(&scenario, spec, policy, &mut sharded);
        assert_eq!(ops, sharded_ops, "window output must not depend on the target");
        assert_eq!(
            by_engine(sharded_got),
            sharded_want,
            "{shards} shards diverged from replay (seed {seed}, {spec:?}, {policy:?})"
        );
    }

    // Batching invariance: a different policy over the same window spec
    // yields the identical delta stream.
    let mut engine2 = TurboFlux::new(
        scenario.queries[0].clone(),
        scenario.g0.clone(),
        TurboFluxConfig::with_semantics(semantics),
    );
    let other = BatchPolicy { max_ops: 1, max_ticks: None, drain_at_end: policy.drain_at_end };
    let (ops2, got2) = windowed_run(&scenario, spec, other, &mut engine2);
    assert_eq!(ops, ops2, "op sequence must not depend on batching (seed {seed})");
    assert_eq!(got, got2, "deltas must not depend on batching (seed {seed})");
}

#[test]
fn windowed_runs_match_replay_homomorphism() {
    for seed in 0..40 {
        check_seed(seed, MatchSemantics::Homomorphism);
    }
}

#[test]
fn windowed_runs_match_replay_isomorphism() {
    for seed in 100..140 {
        check_seed(seed, MatchSemantics::Isomorphism);
    }
}

/// A drained window leaves the engine back at its initial-graph state:
/// every positive delta is paired with a negative one.
#[test]
fn drain_restores_zero_sum() {
    for seed in 300..320 {
        let mut rng = Pcg32::new(seed);
        let scenario = random_scenario(&mut rng);
        // Insert-only variant so drain teardown is the only delete source,
        // and no streamed insert shadows a pre-existing g0 edge (expiring
        // such an insert would tear down state the stream never created).
        let g0_edges: HashSet<(VertexId, LabelId, VertexId)> =
            scenario.g0.edges().map(|e| (e.src, e.label, e.dst)).collect();
        let events: Vec<StreamEvent> = scenario
            .events
            .iter()
            .filter(|e| match e.op {
                UpdateOp::DeleteEdge { .. } => false,
                UpdateOp::InsertEdge { src, label, dst } => !g0_edges.contains(&(src, label, dst)),
                _ => true,
            })
            .cloned()
            .collect();
        // An unbounded window under a draining policy retains what it
        // forwards (it is forward-only only when nothing drains it).
        for spec in [WindowSpec::Count { capacity: 3 }, WindowSpec::Unbounded] {
            let mut engine = TurboFlux::new(
                scenario.queries[0].clone(),
                scenario.g0.clone(),
                TurboFluxConfig::default(),
            );
            let mut source = VecSource::new(events.clone());
            let mut driver = StreamDriver::new(
                SlidingWindow::new(spec),
                BatchPolicy { drain_at_end: true, ..BatchPolicy::default() },
            );
            let mut sink = CountingSink::default();
            let summary = driver.run(&mut source, &mut engine, &mut sink).unwrap();
            assert_eq!(sink.positive, sink.negative, "drain must cancel every match (seed {seed})");
            assert_eq!(driver.window().live_len(), 0);
            assert_eq!(summary.positive, sink.positive);
            assert_eq!(engine.graph().edge_count(), scenario.g0.edge_count(), "{spec:?}");
        }
    }
}

/// A stream built to put every hazard of the batch lookahead (`round::drive`
/// and `TurboFlux::apply_batch` hint the ops 2, 4 and 8 rounds ahead) inside
/// one batch, within that distance of each other: an `AddVertex` and the
/// insert that uses it; straggler inserts that grow the vertex table, one by
/// a gap; deletes naming ids no line ever created; a duplicate insert; a
/// label no query names; and a hub grown edge by edge from an empty graph —
/// so the graph arena, the hub's flat run (it unfolds into a directory and
/// folds back) and the DCG pool all move between an op's hints and its round
/// — then torn down again.
fn lookahead_hazards() -> Scenario {
    let (a, b) = (LabelId(0), LabelId(1));
    let (r, s) = (LabelId(10), LabelId(11));
    let v = VertexId;
    let mut g0 = DynamicGraph::new();
    for label in [a, b, a, b] {
        g0.add_vertex(LabelSet::single(label));
    }
    let path = |second: Option<LabelId>| {
        let mut q = QueryGraph::new();
        let us: Vec<_> = [a, b, a].iter().map(|&l| q.add_vertex(LabelSet::single(l))).collect();
        q.add_edge(us[0], us[1], Some(r));
        q.add_edge(us[1], us[2], second);
        q
    };
    let add = |id, label| UpdateOp::AddVertex { id: v(id), labels: LabelSet::single(label) };
    let ins = |src, label, dst| UpdateOp::InsertEdge { src: v(src), label, dst: v(dst) };
    let del = |src, label, dst| UpdateOp::DeleteEdge { src: v(src), label, dst: v(dst) };
    let mut ops = vec![
        add(4, a),
        ins(4, r, 1),     // the vertex of the line before
        ins(1, s, 2),     // completes 4 -r-> 1 -s-> 2
        ins(0, r, 9),     // straggler: creates 5..=9 label-less
        ins(7, s, 0),     // uses a vertex of the gap
        del(500, r, 501), // ids past the table, three ways
        del(0, r, 999),
        del(999, s, 0),
        ins(4, r, 1),           // duplicate
        ins(0, LabelId(77), 1), // a label no query names (past every table)
    ];
    // The hub 0 -r-> B_k, each B_k announced right before its edge and given
    // a second hop onto an A vertex: matches appear as the hub grows through
    // every size class, past FLAT_MAX and into a directory.
    const HUB: u32 = 48;
    for k in 0..HUB {
        ops.extend([add(10 + k, b), ins(0, r, 10 + k)]);
        if k % 3 == 0 {
            ops.push(ins(10 + k, s, 2 + (k % 2) * 2));
        }
    }
    ops.push(ins(1, r, 10 + HUB + 3)); // a second straggler, past the hub's leaves
                                       // Tear the hub down to below half of FLAT_MAX: the directory folds back.
    ops.extend((0..HUB - 8).map(|k| del(0, r, 10 + k)));
    ops.extend([del(4, r, 1), del(4, r, 1)]); // the second one is missing
    assert!(ops.len() <= 256, "one default batch holds the scenario: {}", ops.len());

    // The hazards the scenario is for do occur.
    let mut g = g0.clone();
    let (mut unfolded, mut folded, mut grew) = (false, false, 0);
    for op in &ops {
        let (was_dir, before) = (g.out_is_directory(v(0)), g.vertex_count());
        if let UpdateOp::InsertEdge { src, dst, .. } = *op {
            g.ensure_vertex(v(src.0.max(dst.0)), LabelSet::empty());
        }
        g.apply(op);
        unfolded |= !was_dir && g.out_is_directory(v(0));
        folded |= was_dir && !g.out_is_directory(v(0));
        grew += usize::from(g.vertex_count() > before + 1);
    }
    assert!(unfolded && folded && grew >= 2, "{unfolded} {folded} {grew}");

    let events = ops.into_iter().enumerate().map(|(i, op)| StreamEvent::new(i as u64, op));
    Scenario { g0, queries: vec![path(Some(s)), path(None)], events: events.collect() }
}

/// Every runtime, at batch sizes below, around and above the lookahead
/// distances, emits on [`lookahead_hazards`] exactly what a fresh fleet fed
/// one op per batch — where no op is ever hinted — emits.
#[test]
fn batches_with_hazards_inside_the_lookahead_match_the_one_op_replay() {
    let scenario = lookahead_hazards();
    let ops: Vec<UpdateOp> = scenario.events.iter().map(|ev| ev.op.clone()).collect();
    let cfg = TurboFluxConfig { adjust_matching_order: false, ..TurboFluxConfig::default() };
    let want = by_engine(replay_with(&scenario, cfg, &ops));
    assert!(want.iter().any(|d| d.2 == Positiveness::Positive && d.1 == 0));
    assert!(want.iter().any(|d| d.2 == Positiveness::Negative && d.1 == 1));
    let first_query: Vec<Delta> = want.iter().filter(|d| d.1 == 0).cloned().collect();

    for max_ops in [1, 3, 256] {
        let policy = BatchPolicy::by_ops(max_ops);
        let run = |target: &mut dyn turboflux::stream::BatchTarget| {
            let (seen, got) = windowed_run(&scenario, WindowSpec::Unbounded, policy, target);
            assert_eq!(seen, ops);
            by_engine(got)
        };
        let mut engine = TurboFlux::new(scenario.queries[0].clone(), scenario.g0.clone(), cfg);
        assert_eq!(run(&mut engine), first_query, "TurboFlux, batches of {max_ops}");
        engine.dcg().check_consistency();

        let mut fleet = Fleet::new(scenario.g0.clone());
        for q in &scenario.queries {
            fleet.register(q.clone(), cfg);
        }
        assert_eq!(run(&mut fleet), want, "Fleet, batches of {max_ops}");

        let sharded_cfg = TurboFluxConfig { shards: 2, ..cfg };
        let mut sharded =
            ShardedEngine::new(scenario.queries.clone(), scenario.g0.clone(), sharded_cfg, 1);
        assert_eq!(run(&mut sharded), want, "2 shards, batches of {max_ops}");
    }
}
