//! The streaming pipeline's scenarios on the one harness (`common`): every
//! shape under random windows and batch policies, windows drained to empty,
//! and a batch with every hazard of the lookahead inside it, each on every
//! runtime (`common::assert_equivalent`).

mod common;

use common::*;
use std::collections::HashSet;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;

fn windowed(seed: u64, semantics: MatchSemantics) {
    let tally = check_random(seed, &SHAPES, semantics, 60);
    tally.assert_exercised(20);
    assert!(tally.late_on_churned > 0, "no late query met a churned layout: {tally:?}");
}

#[test]
fn windowed_runs_match_replay_homomorphism() {
    windowed(0x57_0001, MatchSemantics::Homomorphism);
}

#[test]
fn windowed_runs_match_replay_isomorphism() {
    windowed(0x57_0002, MatchSemantics::Isomorphism);
}

/// A drained window leaves the engines back at their initial-graph state:
/// every positive delta is paired with a negative one. The streams keep only
/// inserts of edges `g0` lacks (expiring an insert that shadows a `g0` edge
/// would tear down state the stream never created) and churn nothing.
#[test]
fn drain_restores_zero_sum() {
    let mut rng = Pcg32::new(300);
    let drain = BatchPolicy { drain_at_end: true, ..BatchPolicy::default() };
    for round in 0..20 {
        let mut s = random_scenario(&mut rng, SHAPES[round % SHAPES.len()]);
        let g0: HashSet<Edge> = s.g0.edges().map(|e| (e.src, e.label, e.dst)).collect();
        s.events.retain(|e| match e.op {
            UpdateOp::DeleteEdge { .. } => false,
            UpdateOp::InsertEdge { src, label, dst } => !g0.contains(&(src, label, dst)),
            _ => true,
        });
        s.churn = None;
        for spec in [WindowSpec::Count { capacity: 3 }, WindowSpec::Unbounded] {
            let deltas = assert_equivalent(&s, MatchSemantics::Homomorphism, spec, drain).deltas;
            let positive = deltas.iter().filter(|d| d.2 == Positiveness::Positive).count();
            assert_eq!(2 * positive, deltas.len(), "round {round}: {spec:?}");
            let end = replay_graph(&s.g0, &reference_window(&s.events, spec, true));
            assert!(end.edges().eq(s.g0.edges()), "round {round}: {spec:?}");
        }
    }
}

/// Streams that delete most of what they insert, over a few edges, through
/// every kind of window: its output is the reference window's, whether its
/// cancelled entries leave at the boundary or are dropped in bulk.
#[test]
fn delete_heavy_streams_match_the_reference_window() {
    let mut rng = Pcg32::new(0xC4);
    let specs = [
        WindowSpec::Count { capacity: 3 },
        WindowSpec::Count { capacity: 200 },
        WindowSpec::Time { width: 8 },
        WindowSpec::Time { width: 1000 },
        WindowSpec::Unbounded,
    ];
    for spec in specs {
        for drain in [false, true] {
            let events: Vec<StreamEvent> = (0..3000u64)
                .map(|ts| {
                    let (src, label, dst) =
                        (VertexId(rng.below(40) as u32), LabelId(0), VertexId(rng.below(3) as u32));
                    let op = match rng.below(2) {
                        0 => UpdateOp::InsertEdge { src, label, dst },
                        _ => UpdateOp::DeleteEdge { src, label, dst },
                    };
                    StreamEvent::new(ts, op)
                })
                .collect();
            let mut window = SlidingWindow::new(spec);
            let mut out = Vec::new();
            events.iter().for_each(|ev| window.push(ev, &mut out));
            if drain {
                window.drain(&mut out);
            }
            assert!(out == reference_window(&events, spec, drain), "{spec:?}, drain {drain}");
        }
    }
}

/// Every runtime, at batch sizes below, around and above the lookahead
/// distances, emits on [`lookahead_hazards`] what the one-op-per-batch runs
/// the harness holds them to emit — runs in which no op is ever hinted.
#[test]
fn batches_with_hazards_inside_the_lookahead_match_the_one_op_replay() {
    let s = lookahead_hazards();
    for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
        for max_ops in [1, 3, 256] {
            let policy = BatchPolicy::by_ops(max_ops);
            let run = assert_equivalent(&s, semantics, WindowSpec::Unbounded, policy);
            assert!(run.deltas.iter().any(|d| d.2 == Positiveness::Positive && d.1 == 0));
            assert!(run.deltas.iter().any(|d| d.2 == Positiveness::Negative && d.1 == 1));
        }
    }
}
