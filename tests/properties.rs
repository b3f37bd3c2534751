//! Randomized property tests, as Pcg32 loops: `LabelSet` subset laws,
//! `GraphStats` counts as a per-vertex subset test counts them,
//! update-stream truncation is a prefix, and an insert burst drawn from the
//! harness's generator (`common`) deleted in reverse returns the DCG and the
//! match set to their initial state and the warmed engine's resident bytes
//! to a fixpoint.

mod common;

use common::{random_scenario, Edge, SHAPES};
use std::collections::HashSet;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;

fn random_label_set(rng: &mut Pcg32) -> LabelSet {
    let n = rng.below(6);
    (0..n).map(|_| LabelId(rng.below(12) as u32)).collect()
}

#[test]
fn label_set_subset_laws() {
    let mut rng = Pcg32::new(0x5e7);
    for _ in 0..64 {
        let (sa, sb) = (random_label_set(&mut rng), random_label_set(&mut rng));
        let union: LabelSet = sa.iter().chain(sb.iter()).collect();
        // a ⊆ a ∪ b, b ⊆ a ∪ b, a ⊆ a.
        assert!(sa.is_subset_of(&union));
        assert!(sb.is_subset_of(&union));
        assert!(sa.is_subset_of(&sa));
        // subset agrees with element-wise containment
        let subset = sa.iter().all(|l| sb.contains(l));
        assert_eq!(sa.is_subset_of(&sb), subset);
        // transitivity via union: a ⊆ b implies a ∪ b == b (as sets)
        if sa.is_subset_of(&sb) {
            assert_eq!(union.as_slice(), sb.as_slice());
        }
    }
}

/// `GraphStats` decides label-set containment once per distinct set the
/// graph stores; its counts must equal a test of every vertex and every
/// edge, on an LSBench g0 (seven labelled entity types) and on random graphs
/// whose vertices draw random label sets, for every query label set the
/// graph holds plus random ones, and every edge label, a wildcard and an
/// absent label.
#[test]
fn graph_stats_count_as_a_per_vertex_test_does() {
    use turboflux::datagen::lsbench::generate;
    use turboflux::datagen::LsBenchConfig;
    use turboflux::graph::GraphStats;
    let mut rng = Pcg32::new(0x57a7);
    let lsbench = generate(&LsBenchConfig { users: 60, seed: 7, stream_frac: 0.1 }).g0;
    let random: Vec<DynamicGraph> = (0..6)
        .map(|_| {
            let mut g = DynamicGraph::new();
            let n = 1 + rng.below(40);
            for _ in 0..n {
                g.add_vertex(random_label_set(&mut rng));
            }
            for _ in 0..rng.below(4 * n) {
                let (s, d) = (VertexId(rng.below(n) as u32), VertexId(rng.below(n) as u32));
                g.insert_edge(s, LabelId(rng.below(4) as u32), d);
            }
            g
        })
        .collect();
    for g in std::iter::once(lsbench).chain(random) {
        let stats = GraphStats::new(&g);
        let mut sets: Vec<LabelSet> = g.vertices().map(|v| g.labels(v).clone()).collect();
        sets.sort_by(|a, b| a.as_slice().cmp(b.as_slice()));
        sets.dedup();
        sets.extend((0..8).map(|_| random_label_set(&mut rng)));
        sets.push(LabelSet::empty());
        let mut qlabels: Vec<Option<LabelId>> = g.edges().map(|e| Some(e.label)).collect();
        qlabels.sort();
        qlabels.dedup();
        qlabels.extend([None, Some(LabelId(999))]);
        for src in &sets {
            let want = g.vertices().filter(|&v| src.is_subset_of(g.labels(v))).count();
            assert_eq!(stats.matching_vertex_count(src), want, "{src:?}");
            for dst in &sets {
                for &ql in &qlabels {
                    let want = g
                        .edges()
                        .filter(|e| ql.is_none_or(|l| l == e.label))
                        .filter(|e| src.is_subset_of(g.labels(e.src)))
                        .filter(|e| dst.is_subset_of(g.labels(e.dst)))
                        .count();
                    let got = stats.matching_edge_count(src, ql, dst);
                    assert_eq!(got, want, "{src:?} -{ql:?}-> {dst:?}");
                }
            }
        }
    }
}

#[test]
fn stream_truncation_is_a_prefix() {
    let mut rng = Pcg32::new(0x7ab);
    for _ in 0..64 {
        let (n, keep) = (rng.below(20), rng.below(20));
        let edge =
            |i| UpdateOp::InsertEdge { src: VertexId(i), label: LabelId(0), dst: VertexId(i + 1) };
        let ops: Vec<UpdateOp> = (0..n as u32).map(edge).collect();
        let s = UpdateStream::from_ops(ops.clone());
        let t = s.truncate_edge_ops(keep);
        assert_eq!(t.len(), keep.min(n));
        assert_eq!(t.ops(), &ops[..keep.min(n)]);
    }
}

/// A burst of inserts — a harness scenario's, between `g0`'s vertices, of
/// edges `g0` lacks, each once — deleted in reverse: DCG snapshot, counters
/// and match set return to the originals, positives equal negatives as sets.
#[test]
fn insert_then_delete_restores_everything() {
    let mut rng = Pcg32::new(0xD0_0D);
    let mut exercised = 0;
    for round in 0..200 {
        let s = random_scenario(&mut rng, SHAPES[round % SHAPES.len()]);
        let n = s.g0.vertex_count();
        let mut seen: HashSet<Edge> = s.g0.edges().map(|e| (e.src, e.label, e.dst)).collect();
        let inserts = s.events.iter().filter_map(|ev| match ev.op {
            UpdateOp::InsertEdge { src, label, dst } if src.index().max(dst.index()) < n => {
                Some((src, label, dst))
            }
            _ => None,
        });
        let burst: Vec<Edge> = inserts.filter(|&e| seen.insert(e)).collect();
        if burst.is_empty() {
            continue;
        }
        exercised += 1;
        let ins = |&(src, label, dst): &Edge| UpdateOp::InsertEdge { src, label, dst };
        let del = |&(src, label, dst): &Edge| UpdateOp::DeleteEdge { src, label, dst };

        let cfg = TurboFluxConfig::default();
        let mut engine = TurboFlux::new(s.queries[0].clone(), s.g0.clone(), cfg);
        let snapshot0 = engine.dcg().snapshot();

        // The matches `ops` report, each under the sign `want`.
        let mut signed = |ops: Vec<UpdateOp>, want| {
            let mut seen: HashSet<MatchRecord> = HashSet::new();
            for op in &ops {
                engine.apply(op, &mut |p, m| {
                    assert_eq!(p, want);
                    seen.insert(m.clone());
                });
            }
            seen
        };
        let pos = signed(burst.iter().map(ins).collect(), Positiveness::Positive);
        assert_eq!(pos, signed(burst.iter().rev().map(del).collect(), Positiveness::Negative));
        engine.dcg().check_consistency();
        assert_eq!(engine.dcg().snapshot(), snapshot0);

        // `resident_bytes` counts reserved storage, which only a warmed engine
        // restores: one more cycle finishes warming (the first teardown sizes
        // free-list stacks); an identical one must repeat its peak and trough.
        let run_cycle = |engine: &mut TurboFlux| {
            burst.iter().for_each(|e| engine.apply(&ins(e), &mut |_, _| {}));
            let peak = engine.intermediate_result_bytes();
            burst.iter().rev().for_each(|e| engine.apply(&del(e), &mut |_, _| {}));
            (peak, engine.intermediate_result_bytes())
        };
        let warm = run_cycle(&mut engine);
        assert_eq!(run_cycle(&mut engine), warm, "warm (peak, trough) bytes leak");
        engine.dcg().check_consistency();
        assert_eq!(engine.dcg().snapshot(), snapshot0);
    }
    assert!(exercised >= 48, "only {exercised} scenarios exercised");
}
