//! Engine correctness tests: the paper's running example (Figure 4),
//! DCG-vs-reference equivalence, and randomized oracle cross-checks against
//! a full-recompute matcher.

use crate::config::TurboFluxConfig;
use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::spec::reference_dcg;
use rustc_hash::FxHashSet;
use tfx_baselines::NaiveRecompute;
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};
use tfx_query::{ContinuousMatcher, MatchRecord, MatchSemantics, Positiveness, QueryGraph};

fn l(i: u32) -> LabelId {
    LabelId(i)
}

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// A tiny deterministic xorshift generator for the randomized tests below.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Figure 4 of the paper: query u0:A -> {u1:B, u2:C, u3:C}, u1 -> u4:E,
/// u2 -> u5:D; initial data v0:A -> v2:C -> v6:D, v0 -> v3:C, v1:B -> v4:E.
fn fig4() -> (DynamicGraph, QueryGraph) {
    let mut g = DynamicGraph::new();
    let v0 = g.add_vertex(LabelSet::single(l(0))); // A
    let v1 = g.add_vertex(LabelSet::single(l(1))); // B
    let v2 = g.add_vertex(LabelSet::single(l(2))); // C
    let v3 = g.add_vertex(LabelSet::single(l(2))); // C
    let v4 = g.add_vertex(LabelSet::single(l(4))); // E
    let v6 = g.add_vertex(LabelSet::single(l(3))); // D
    g.insert_edge(v0, l(9), v2);
    g.insert_edge(v2, l(9), v6);
    g.insert_edge(v0, l(9), v3);
    g.insert_edge(v1, l(9), v4);
    // Extra disconnected B->E and C->D pairs keep (u1,u4) and (u2,u5)
    // unselective so the start vertex is u0, matching the paper's
    // narration of Figure 4. They are unreachable from any start vertex
    // and never enter the DCG.
    for _ in 0..3 {
        let b = g.add_vertex(LabelSet::single(l(1)));
        let e = g.add_vertex(LabelSet::single(l(4)));
        g.insert_edge(b, l(9), e);
        let c = g.add_vertex(LabelSet::single(l(2)));
        let dd = g.add_vertex(LabelSet::single(l(3)));
        g.insert_edge(c, l(9), dd);
    }

    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(l(0))); // A
    let u1 = q.add_vertex(LabelSet::single(l(1))); // B
    let u2 = q.add_vertex(LabelSet::single(l(2))); // C
    let u3 = q.add_vertex(LabelSet::single(l(2))); // C
    let u4 = q.add_vertex(LabelSet::single(l(4))); // E
    let u5 = q.add_vertex(LabelSet::single(l(3))); // D
    q.add_edge(u0, u1, Some(l(9)));
    q.add_edge(u0, u2, Some(l(9)));
    q.add_edge(u0, u3, Some(l(9)));
    q.add_edge(u1, u4, Some(l(9)));
    q.add_edge(u2, u5, Some(l(9)));
    (g, q)
}

fn assert_dcg_matches_reference(engine: &TurboFlux) {
    engine.dcg().check_consistency();
    let got = engine.dcg().snapshot();
    let want = reference_dcg(engine.graph(), engine.query(), engine.query_tree());
    assert_eq!(got, want, "engine DCG diverged from the declarative reference");
}

#[test]
fn fig4_initial_dcg_and_no_initial_matches() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    assert_dcg_matches_reference(&engine);
    // v1 (B) is not reachable from a start vertex, so (v1, u4) must not be
    // stored; root edge of v0 is implicit (u1 branch unmatched).
    assert_eq!(engine.dcg().root_state(v(0)), Some(EdgeState::Implicit));
    let mut initial = Vec::new();
    engine.initial_matches(&mut |m| initial.push(m.clone()));
    assert!(initial.is_empty(), "Figure 4's g0 has no complete match");
}

#[test]
fn fig4_insertion_reports_the_positive_match() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let mut reports = Vec::new();
    engine.apply(&UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(1) }, &mut |p, m| {
        reports.push((p, m.clone()))
    });
    assert_dcg_matches_reference(&engine);
    assert_eq!(engine.dcg().root_state(v(0)), Some(EdgeState::Explicit), "Fig. 4h");
    // u3 is a leaf C and may map to either v2 or v3, so the insertion
    // produces exactly two positive matches; u2 needs a D child and is
    // pinned to v2.
    assert_eq!(reports.len(), 2);
    for (p, m) in &reports {
        assert_eq!(*p, Positiveness::Positive);
        assert_eq!(m.get(tfx_query::QVertexId(0)), v(0));
        assert_eq!(m.get(tfx_query::QVertexId(1)), v(1));
        assert_eq!(m.get(tfx_query::QVertexId(2)), v(2));
        assert_eq!(m.get(tfx_query::QVertexId(4)), v(4));
        assert_eq!(m.get(tfx_query::QVertexId(5)), v(5));
    }
}

#[test]
fn fig4_insert_then_delete_roundtrip() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let before = engine.dcg().snapshot();
    let op_in = UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(1) };
    let op_del = UpdateOp::DeleteEdge { src: v(0), label: l(9), dst: v(1) };
    let mut pos = Vec::new();
    engine.apply(&op_in, &mut |p, m| pos.push((p, m.clone())));
    let mut neg = Vec::new();
    engine.apply(&op_del, &mut |p, m| neg.push((p, m.clone())));
    assert_dcg_matches_reference(&engine);
    assert_eq!(engine.dcg().snapshot(), before, "DCG must return to its pre-insert state");
    // Every positive must come back as the corresponding negative.
    let pset: FxHashSet<MatchRecord> = pos.into_iter().map(|(_, m)| m).collect();
    let nset: FxHashSet<MatchRecord> = neg
        .into_iter()
        .map(|(p, m)| {
            assert_eq!(p, Positiveness::Negative);
            m
        })
        .collect();
    assert_eq!(pset, nset);
}

/// Fig. 4's inserted edge yields matches with u3 free over both C vertices
/// that satisfy u3's (empty) subtree: v2 and v3.
#[test]
fn fig4_positive_match_count_is_exact() {
    let (mut g, q) = fig4();
    // Oracle: count matches after insertion.
    g.insert_edge(v(0), l(9), v(1));
    let after = tfx_match::count_matches(&g, &q, MatchSemantics::Homomorphism);
    g.delete_edge(v(0), l(9), v(1));
    let before = tfx_match::count_matches(&g, &q, MatchSemantics::Homomorphism);

    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let mut n = 0u64;
    engine.apply(&UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(1) }, &mut |_, _| n += 1);
    assert_eq!(n, after - before);
}

// ---------------------------------------------------------------------------
// Randomized oracle cross-checks.
// ---------------------------------------------------------------------------

struct RandomCase {
    g0: DynamicGraph,
    q: QueryGraph,
    ops: Vec<UpdateOp>,
}

/// Random small dynamic graph + random connected query (optionally cyclic)
/// and 40 ops.
fn random_case(rng: &mut Rng, cyclic: bool) -> RandomCase {
    random_case_with_ops(rng, cyclic, 40)
}

/// One case in three is *rich*: two edge labels with parallel data edges
/// under both, data vertices carrying two labels, a wildcard label on the
/// first spanning query edge (a tree edge unless a cycle displaces it) and
/// the first two spanning edges pointing opposite ways.
fn random_case_with_ops(rng: &mut Rng, cyclic: bool, n_ops: usize) -> RandomCase {
    let rich = rng.below(3) == 0;
    let n_vlabels = 2 + rng.below(2); // 2..=3
    let n_elabels = if rich { 2 } else { 1 + rng.below(2) }; // 1..=2
    let n_vertices = 5 + rng.below(5); // 5..=9

    let mut g0 = DynamicGraph::new();
    for _ in 0..n_vertices {
        // ~20% unlabeled vertices exercise wildcard matching.
        let labels = if rng.below(5) == 0 {
            LabelSet::empty()
        } else if rich && rng.below(3) == 0 {
            [0, 1].map(|_| l(rng.below(n_vlabels) as u32)).into_iter().collect()
        } else {
            LabelSet::single(l(rng.below(n_vlabels) as u32))
        };
        g0.add_vertex(labels);
    }
    let n_edges = 6 + rng.below(8);
    for _ in 0..n_edges {
        let s = v(rng.below(n_vertices) as u32);
        let d = v(rng.below(n_vertices) as u32);
        g0.insert_edge(s, l(10 + rng.below(n_elabels) as u32), d);
        if rich && rng.below(3) == 0 {
            g0.insert_edge(s, l(10), d);
            g0.insert_edge(s, l(11), d);
        }
    }

    // Random connected query: spanning construction over 3..=5 vertices.
    let nq = 3 + rng.below(3);
    let mut q = QueryGraph::new();
    for _ in 0..nq {
        let labels = if rng.below(4) == 0 {
            LabelSet::empty()
        } else {
            LabelSet::single(l(rng.below(n_vlabels) as u32))
        };
        q.add_vertex(labels);
    }
    for i in 1..nq as u32 {
        let other = rng.below(i as usize) as u32;
        let forward = if rich && i <= 2 { i == 1 } else { rng.below(2) == 0 };
        let (s, d) = if forward { (other, i) } else { (i, other) };
        let label = if rng.below(5) == 0 || (rich && i == 1) {
            None
        } else {
            Some(l(10 + rng.below(n_elabels) as u32))
        };
        q.add_edge(tfx_query::QVertexId(s), tfx_query::QVertexId(d), label);
    }
    if cyclic {
        // Add 1..=2 extra edges (may duplicate direction between pairs).
        for _ in 0..(1 + rng.below(2)) {
            let a = rng.below(nq) as u32;
            let b = rng.below(nq) as u32;
            let label =
                if rng.below(5) == 0 { None } else { Some(l(10 + rng.below(n_elabels) as u32)) };
            let (s, d) = (tfx_query::QVertexId(a), tfx_query::QVertexId(b));
            if !q.edges().iter().any(|e| e.src == s && e.dst == d && e.label == label) {
                q.add_edge(s, d, label);
            }
        }
    }

    // Random op stream: inserts, deletes, occasional new vertices.
    let mut ops = Vec::new();
    let mut live: Vec<(VertexId, LabelId, VertexId)> =
        g0.edges().map(|e| (e.src, e.label, e.dst)).collect();
    let mut vcount = n_vertices as u32;
    for _ in 0..n_ops {
        let roll = rng.below(10);
        if roll == 0 {
            let labels = LabelSet::single(l(rng.below(n_vlabels) as u32));
            ops.push(UpdateOp::AddVertex { id: v(vcount), labels });
            vcount += 1;
        } else if roll < 4 && !live.is_empty() {
            let i = rng.below(live.len());
            let (s, lb, d) = live.swap_remove(i);
            ops.push(UpdateOp::DeleteEdge { src: s, label: lb, dst: d });
        } else {
            let s = v(rng.below(vcount as usize) as u32);
            let d = v(rng.below(vcount as usize) as u32);
            let lb = l(10 + rng.below(n_elabels) as u32);
            if !live.contains(&(s, lb, d)) {
                live.push((s, lb, d));
                ops.push(UpdateOp::InsertEdge { src: s, label: lb, dst: d });
            }
        }
    }
    RandomCase { g0, q, ops }
}

/// Holds every delta of `case` against the static matcher and returns the
/// engine it ran.
fn run_oracle_case(case: &RandomCase, semantics: MatchSemantics, check_dcg: bool) -> TurboFlux {
    let cfg = TurboFluxConfig::with_semantics(semantics);
    let mut engine = TurboFlux::new(case.q.clone(), case.g0.clone(), cfg);
    let mut shadow = case.g0.clone();

    // Initial matches must equal the static matcher's result.
    let mut initial: FxHashSet<MatchRecord> = FxHashSet::default();
    engine.initial_matches(&mut |m| {
        assert!(initial.insert(m.clone()), "duplicate initial match {m:?}");
    });
    assert_eq!(
        initial,
        tfx_match::match_set(&shadow, &case.q, semantics),
        "initial matches diverge"
    );

    for (step, op) in case.ops.iter().enumerate() {
        let before = tfx_match::match_set(&shadow, &case.q, semantics);
        shadow.apply(op);
        let after = tfx_match::match_set(&shadow, &case.q, semantics);
        let want_pos: FxHashSet<_> = after.difference(&before).cloned().collect();
        let want_neg: FxHashSet<_> = before.difference(&after).cloned().collect();

        let mut got_pos: FxHashSet<MatchRecord> = FxHashSet::default();
        let mut got_neg: FxHashSet<MatchRecord> = FxHashSet::default();
        engine.apply(op, &mut |p, m| {
            let fresh = match p {
                Positiveness::Positive => got_pos.insert(m.clone()),
                Positiveness::Negative => got_neg.insert(m.clone()),
            };
            assert!(fresh, "duplicate report at step {step}: {m:?} ({op:?})");
        });
        assert_eq!(got_pos, want_pos, "positives diverge at step {step} ({op:?})");
        assert_eq!(got_neg, want_neg, "negatives diverge at step {step} ({op:?})");
        if check_dcg {
            assert_dcg_matches_reference(&engine);
        }
    }
    engine
}

#[test]
fn randomized_tree_queries_match_oracle_homomorphism() {
    let mut rng = Rng::new(0xC0FFEE);
    for case_no in 0..60 {
        let case = random_case(&mut rng, false);
        let _ = case_no;
        run_oracle_case(&case, MatchSemantics::Homomorphism, true);
    }
}

#[test]
fn randomized_cyclic_queries_match_oracle_homomorphism() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..60 {
        let case = random_case(&mut rng, true);
        run_oracle_case(&case, MatchSemantics::Homomorphism, true);
    }
}

#[test]
fn randomized_tree_queries_match_oracle_isomorphism() {
    let mut rng = Rng::new(0xF00D);
    for _ in 0..40 {
        let case = random_case(&mut rng, false);
        run_oracle_case(&case, MatchSemantics::Isomorphism, false);
    }
}

#[test]
fn randomized_cyclic_queries_match_oracle_isomorphism() {
    let mut rng = Rng::new(0xABCD);
    for _ in 0..40 {
        let case = random_case(&mut rng, true);
        run_oracle_case(&case, MatchSemantics::Isomorphism, false);
    }
}

// ---------------------------------------------------------------------------
// Registration: the bulk builder against the replay it replaced.
// ---------------------------------------------------------------------------

/// Registration as Algorithm 2 (lines 4–5) writes it and as `register_inner`
/// did it before `crate::bulk`: a hypothetical start-edge insertion per root
/// candidate through `BuildDCG`. The bulk builder's oracle.
fn register_by_replay(q: &QueryGraph, g0: &DynamicGraph, cfg: TurboFluxConfig) -> TurboFlux {
    let mut engine = TurboFlux::plan(q.clone(), g0, cfg);
    let us = engine.tree.root();
    let mut scratch = std::mem::take(&mut engine.scratch);
    for v in g0.vertices() {
        if engine.q.labels(us).is_subset_of(g0.labels(v)) {
            engine.build_dcg(g0, None, us, v, &mut scratch);
        }
    }
    engine.scratch = scratch;
    engine.recompute_matching_order();
    engine
}

fn assert_same_dcg(bulk: &TurboFlux, replay: &TurboFlux, ctx: &str) {
    bulk.dcg().check_consistency();
    replay.dcg().check_consistency();
    assert_eq!(bulk.dcg().snapshot(), replay.dcg().snapshot(), "{ctx}: stored edges");
    assert_eq!(bulk.dcg().expl_counts(), replay.dcg().expl_counts(), "{ctx}: explicit counts");
    assert_eq!(bulk.dcg().stored_edge_count(), replay.dcg().stored_edge_count(), "{ctx}");
    for v in bulk.graph().vertices() {
        assert_eq!(bulk.dcg().expl_out_bits(v), replay.dcg().expl_out_bits(v), "{ctx}: bits {v}");
    }
    assert_eq!(bulk.matching_order(), replay.matching_order(), "{ctx}: matching order");
}

/// The bulk-built DCG equals the replayed one and the declarative reference
/// — stored edges, states, counters, explicit-out bitmaps, matching order,
/// initial matches — for both semantics, and still does after 200 ops
/// churned both arenas (the one laid compactly, the one grown edge by
/// edge). Fails under each of three mutations of the registration seeded by
/// hand (DESIGN.md, "Registration: two sweeps"): stored parents counted
/// without the `reached[parent]` filter, explicit children counted against
/// `expl[u]` instead of `expl[uc]`, the wildcard dedup of `Dcg::collect`
/// dropped.
#[test]
fn bulk_registration_equals_replayed_insertions_and_the_reference() {
    let mut rng = Rng::new(0xB01C);
    // What the generator must have put in front of the builder by the end.
    let (mut wildcard_tree_edges, mut multi_label_vertices) = (0, 0);
    let mut orientations = [0; 2];
    for case_no in 0..30 {
        let case = random_case_with_ops(&mut rng, case_no % 2 == 1, 200);
        multi_label_vertices +=
            case.g0.vertices().filter(|&v| case.g0.labels(v).as_slice().len() > 1).count();
        for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            let ctx = format!("case {case_no} {semantics:?}");
            let cfg = TurboFluxConfig::with_semantics(semantics);
            let mut bulk = TurboFlux::register(case.q.clone(), &case.g0, cfg);
            let mut replay = register_by_replay(&case.q, &case.g0, cfg);
            bulk.g = case.g0.clone();
            replay.g = case.g0.clone();
            assert_same_dcg(&bulk, &replay, &ctx);
            assert_dcg_matches_reference(&bulk);
            let tree = bulk.query_tree();
            for u in case.q.vertices().filter(|&u| u != tree.root()) {
                let e = case.q.edge(tree.parent_edge(u).unwrap());
                wildcard_tree_edges += usize::from(e.label.is_none());
                orientations[usize::from(tree.child_is_target(u))] += 1;
            }

            let initial = |engine: &mut TurboFlux| {
                let mut got = Vec::new();
                engine.report_initial(&mut |m| got.push(m.clone()));
                got
            };
            assert_eq!(initial(&mut bulk), initial(&mut replay), "{ctx}: initial matches");

            for (step, op) in case.ops.iter().enumerate() {
                let deltas = |engine: &mut TurboFlux| {
                    let mut got = Vec::new();
                    engine.apply_op(op, &mut |p, m| got.push((p, m.clone())));
                    got
                };
                assert_eq!(deltas(&mut bulk), deltas(&mut replay), "{ctx}: step {step}");
                if step % 40 == 39 {
                    assert_same_dcg(&bulk, &replay, &format!("{ctx} after op {step}"));
                }
            }
            assert_dcg_matches_reference(&bulk);
        }
    }
    assert!(wildcard_tree_edges > 0, "no wildcard tree edge was generated");
    assert!(multi_label_vertices > 0, "no multi-label data vertex was generated");
    assert!(orientations.iter().all(|&n| n > 0), "tree edges of one orientation only");
}

/// `TurboFlux::plan` takes the per-query-edge statistics once and plans the
/// start vertex and the tree from the one slice, as §4.1's one pass does.
#[test]
fn registration_plans_from_one_pass_of_edge_counts() {
    use tfx_query::{choose_start_vertex, matching_edge_counts, QueryTree};
    let mut rng = Rng::new(0x57A7);
    for _ in 0..40 {
        let case = random_case(&mut rng, true);
        let engine = TurboFlux::register(case.q.clone(), &case.g0, TurboFluxConfig::default());
        let counts = matching_edge_counts(&case.q, &case.g0);
        let us = choose_start_vertex(&case.q, &case.g0, &counts);
        let tree = QueryTree::build(&case.q, us, &counts);
        let got = engine.query_tree();
        assert_eq!(got.root(), us);
        assert_eq!(got.bfs_order(), tree.bfs_order());
        assert_eq!(got.non_tree_edges(), tree.non_tree_edges());
        for u in case.q.vertices() {
            assert_eq!(got.parent_edge(u), tree.parent_edge(u));
        }
    }
}

#[test]
fn matching_order_has_parents_before_children() {
    let (g, q) = fig4();
    let engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let mo = engine.matching_order();
    assert_eq!(mo.len(), engine.query().vertex_count());
    let pos: Vec<usize> = {
        let mut p = vec![0; mo.len()];
        for (i, u) in mo.iter().enumerate() {
            p[u.index()] = i;
        }
        p
    };
    for u in engine.query().vertices() {
        if let Some(par) = engine.query_tree().parent(u) {
            assert!(pos[par.index()] < pos[u.index()], "{par:?} must precede {u:?}");
        }
    }
}

#[test]
fn duplicate_edge_insert_is_a_no_op() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let op = UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(2) }; // already present
    let mut n = 0;
    engine.apply(&op, &mut |_, _| n += 1);
    assert_eq!(n, 0);
    assert_dcg_matches_reference(&engine);
}

#[test]
fn delete_of_absent_edge_is_a_no_op() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let op = UpdateOp::DeleteEdge { src: v(0), label: l(9), dst: v(4) };
    let mut n = 0;
    engine.apply(&op, &mut |_, _| n += 1);
    assert_eq!(n, 0);
    assert_dcg_matches_reference(&engine);
}

/// A `DeleteEdge` line naming vertices that were never created used to be
/// absorbed by the graph's edge hash set; with the edge set being the sorted
/// adjacency runs it must still be a no-op round on every runtime.
#[test]
fn delete_naming_unknown_vertices_is_a_no_op_on_every_runtime() {
    use crate::Fleet;
    let (g, q) = fig4();
    let n = g.vertex_count();
    let ops: Vec<UpdateOp> = [(0, 900), (900, 0), (900, 901)]
        .map(|(s, d)| UpdateOp::DeleteEdge { src: v(s), label: l(9), dst: v(d) })
        .into();

    let mut engine = TurboFlux::new(q.clone(), g.clone(), TurboFluxConfig::default());
    for op in &ops {
        engine.apply_op(op, &mut |_, _| panic!("a missing edge has no matches to retract"));
    }
    assert_eq!(engine.graph().vertex_count(), n);
    assert_dcg_matches_reference(&engine);

    let mut fleet = Fleet::new(g);
    fleet.register(q, TurboFluxConfig::default());
    fleet.apply_batch(&ops, &mut |_| panic!("a missing edge has no matches to retract"));
    assert_eq!(fleet.graph().vertex_count(), n);
}

/// 64 query vertices register; the 65th is refused before any per-vertex
/// bit mask is built, so debug and release builds fail the same way.
#[test]
#[should_panic(expected = "queries are limited to 64 vertices")]
fn a_65_vertex_query_is_refused_at_registration() {
    for n in [64, 65] {
        let mut q = QueryGraph::new();
        let us: Vec<_> = (0..n).map(|_| q.add_vertex(LabelSet::single(l(0)))).collect();
        us.windows(2).for_each(|w| {
            q.add_edge(w[0], w[1], Some(l(9)));
        });
        TurboFlux::new(q, DynamicGraph::new(), TurboFluxConfig::default());
    }
}

#[test]
fn new_vertex_becomes_start_candidate() {
    let (g, q) = fig4();
    let nv = v(g.vertex_count() as u32);
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    engine.apply(&UpdateOp::AddVertex { id: nv, labels: LabelSet::single(l(0)) }, &mut |_, _| {
        panic!("vertex arrival cannot create matches")
    });
    assert_eq!(engine.dcg().root_state(nv), Some(EdgeState::Implicit));
    assert_dcg_matches_reference(&engine);
}

/// The intermediate results are three bitsets per query vertex over the
/// data vertices — `reached`, `expl` and, below the root, `kids` — each as
/// long as its highest member needs: never more than a bit per vertex, and
/// a fixpoint of a warm insert / delete cycle, matches and all.
#[test]
fn intermediate_bytes_are_bits_over_the_vertices() {
    let (g, q) = fig4();
    let words = g.vertex_count().div_ceil(64);
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let bound = (3 * engine.query().vertex_count() - 1) * words * 8;
    assert!((1..=bound).contains(&engine.intermediate_result_bytes()));
    let ins = UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(1) };
    let del = UpdateOp::DeleteEdge { src: v(0), label: l(9), dst: v(1) };
    engine.apply(&ins, &mut |_, _| {});
    engine.apply(&del, &mut |_, _| {});
    let warm = engine.intermediate_result_bytes();
    assert!(warm <= bound);
    for op in [&ins, &del, &ins, &del] {
        let mut n = 0;
        engine.apply(op, &mut |_, _| n += 1);
        assert_eq!((n, engine.intermediate_result_bytes()), (2, warm), "{op:?}");
    }
}

#[test]
#[ignore]
fn debug_cyclic_failure() {
    let mut rng = Rng::new(0xBEEF);
    for case_no in 0..60 {
        let case = random_case(&mut rng, true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_oracle_case(&case, MatchSemantics::Homomorphism, true);
        }));
        if result.is_err() {
            eprintln!("=== failing case {case_no} ===");
            eprintln!("query vertices:");
            for u in case.q.vertices() {
                eprintln!("  {u:?}: {:?}", case.q.labels(u));
            }
            eprintln!("query edges:");
            for (i, e) in case.q.edges().iter().enumerate() {
                eprintln!("  e{i}: {:?} -> {:?} label {:?}", e.src, e.dst, e.label);
            }
            eprintln!("g0 vertices: {}", case.g0.vertex_count());
            for v in case.g0.vertices() {
                eprintln!("  {v:?}: {:?}", case.g0.labels(v));
            }
            let mut es: Vec<_> = case.g0.edges().collect();
            es.sort();
            eprintln!("g0 edges: {es:?}");
            eprintln!("ops: {:?}", case.ops);
            panic!("case {case_no} failed");
        }
    }
}

/// The matching order must react to DCG statistics: a branch that fans out
/// widely in the data should be visited late.
#[test]
fn matching_order_visits_wide_branches_late() {
    // Query: root A with two children B (narrow) and C (wide).
    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(l(0)));
    let u1 = q.add_vertex(LabelSet::single(l(1)));
    let u2 = q.add_vertex(LabelSet::single(l(2)));
    q.add_edge(u0, u1, Some(l(9)));
    q.add_edge(u0, u2, Some(l(9)));

    let mut g = DynamicGraph::new();
    let a = g.add_vertex(LabelSet::single(l(0)));
    let b = g.add_vertex(LabelSet::single(l(1)));
    g.insert_edge(a, l(9), b);
    for _ in 0..20 {
        let c = g.add_vertex(LabelSet::single(l(2)));
        g.insert_edge(a, l(9), c);
    }
    // Ensure u0 is the start vertex: one A vs many others.
    let engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    let mo = engine.matching_order();
    assert_eq!(mo[0], engine.query_tree().root());
    if engine.query_tree().root() == tfx_query::QVertexId(0) {
        // With 1 explicit B-edge and 20 explicit C-edges, C must come last.
        assert_eq!(mo[2], tfx_query::QVertexId(2), "wide branch ordered last: {mo:?}");
    }
}

/// AdjustMatchingOrder must leave reported matches untouched while the
/// stream shifts the label statistics (order affects speed, never results):
/// every delta is held against the static matcher.
#[test]
fn order_adjustment_never_changes_results() {
    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(l(0)));
    let u1 = q.add_vertex(LabelSet::single(l(1)));
    let u2 = q.add_vertex(LabelSet::single(l(2)));
    q.add_edge(u0, u1, Some(l(9)));
    q.add_edge(u0, u2, Some(l(9)));

    let mut g0 = DynamicGraph::new();
    let a = g0.add_vertex(LabelSet::single(l(0)));
    // 100 B and 100 C neighbors: both explicit counts grow from 0 past the
    // drift floor (64), so the order is recomputed mid-stream.
    for i in 0..200 {
        g0.add_vertex(LabelSet::single(l(1 + i % 2)));
    }
    let ops =
        (1..=200u32).map(|i| UpdateOp::InsertEdge { src: a, label: l(9), dst: v(i) }).collect();

    let engine = run_oracle_case(&RandomCase { g0, q, ops }, MatchSemantics::Homomorphism, true);
    assert!(
        engine.order_snapshot.iter().any(|&c| c > 64),
        "the stream must cross the drift floor and trigger a recomputation"
    );
}

/// An edge on a label no query edge names never enters the engine's graph,
/// from `g0` or the stream, but an insert of one that creates vertices still
/// makes them start candidates: the vertices exist for the query whatever
/// their edges.
#[test]
fn an_unseen_insert_that_creates_a_root_candidate_registers_it() {
    let mut g = DynamicGraph::new();
    let a = g.add_vertex(LabelSet::empty());
    let b = g.add_vertex(LabelSet::empty());
    g.insert_edge(a, l(9), b);
    g.insert_edge(b, l(5), a);
    let mut q = QueryGraph::new();
    let [u0, u1] = [0; 2].map(|_| q.add_vertex(LabelSet::empty()));
    q.add_edge(u0, u1, Some(l(9)));
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    assert_eq!(engine.query_tree().root(), u0, "a label-less root: stragglers match it");
    assert_eq!(engine.graph().edge_count(), 1, "g0's l5 edge is not stored");
    let mut deltas = Vec::new();
    let mut apply = |engine: &mut TurboFlux, op| {
        deltas.clear();
        engine.apply(&op, &mut |p, r| deltas.push((p, r.clone())));
        assert_dcg_matches_reference(engine);
        deltas.len()
    };
    // Creates v2 and v3, label-less, and stores nothing.
    assert_eq!(apply(&mut engine, UpdateOp::InsertEdge { src: b, label: l(5), dst: v(3) }), 0);
    assert_eq!((engine.graph().vertex_count(), engine.graph().edge_count()), (4, 1));
    for w in [v(2), v(3)] {
        assert_eq!(engine.dcg().root_state(w), Some(EdgeState::Implicit), "{w} registered");
    }
    // The new candidate completes a match once a seen edge reaches it.
    assert_eq!(apply(&mut engine, UpdateOp::InsertEdge { src: v(3), label: l(9), dst: b }), 1);
    assert_eq!(engine.dcg().root_state(v(3)), Some(EdgeState::Explicit));
    // Deleting the unseen g0 edge touches nothing.
    assert_eq!(apply(&mut engine, UpdateOp::DeleteEdge { src: b, label: l(5), dst: a }), 0);
    assert_eq!(engine.graph().edge_count(), 2);
}

/// The TurboFlux deadline latches and stops enumeration without corrupting
/// the DCG.
#[test]
fn deadline_stops_enumeration_but_keeps_dcg_consistent() {
    let (g, q) = fig4();
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    engine.set_deadline(Some(std::time::Instant::now() - std::time::Duration::from_secs(1)));
    // Force a deadline check cheaply by applying an op: the first search
    // call probes the clock after the tick countdown; with an already-past
    // deadline the engine may still report a few matches but must latch
    // eventually and keep the DCG transition-closed.
    engine.apply(&UpdateOp::InsertEdge { src: v(0), label: l(9), dst: v(1) }, &mut |_, _| {});
    engine.dcg().check_consistency();
    let want = crate::spec::reference_dcg(engine.graph(), engine.query(), engine.query_tree());
    assert_eq!(engine.dcg().snapshot(), want, "DCG stays closed under deadline aborts");
    // Clearing the deadline resumes normal operation.
    engine.set_deadline(None);
    let mut n = 0;
    engine.apply(&UpdateOp::DeleteEdge { src: v(0), label: l(9), dst: v(1) }, &mut |_, _| n += 1);
    assert_eq!(n, 2, "negatives reported once the deadline is lifted");

    // Matches emitted straight from the last-level frontier loop — no
    // recursion, so no entry probe of `subgraph_search` between them — must
    // still meet the deadline: a hub of 3 × the probe interval leaves, under
    // a one-edge query (its initial matches) and as the tail of a 2-hop
    // path (an update at its head). The sink holds the first match until
    // the deadline has passed; the loop's own probe then latches within one
    // interval.
    let interval = tfx_query::Deadline::PROBE_INTERVAL as usize;
    let leaves = 3 * interval;
    let (r, t) = (l(10), l(11));
    let mut g = DynamicGraph::new();
    let a = g.add_vertex(LabelSet::single(l(0)));
    let hub = g.add_vertex(LabelSet::single(l(1)));
    for _ in 0..leaves {
        let leaf = g.add_vertex(LabelSet::single(l(2)));
        g.insert_edge(hub, t, leaf);
    }
    let mut one_edge = QueryGraph::new();
    let us: Vec<_> = (1..3).map(|i| one_edge.add_vertex(LabelSet::single(l(i)))).collect();
    one_edge.add_edge(us[0], us[1], Some(t));
    let mut path = QueryGraph::new();
    let us: Vec<_> = (0..3).map(|i| path.add_vertex(LabelSet::single(l(i)))).collect();
    path.add_edge(us[0], us[1], Some(r));
    path.add_edge(us[1], us[2], Some(t));
    let head = UpdateOp::InsertEdge { src: a, label: r, dst: hub };
    let unhead = UpdateOp::DeleteEdge { src: a, label: r, dst: hub };

    for q in [one_edge, path] {
        let initial = q.edge_count() == 1;
        let mut engine = TurboFlux::new(q, g.clone(), TurboFluxConfig::default());
        let tail = *engine.matching_order().last().unwrap();
        assert_eq!(engine.query().labels(tail), &LabelSet::single(l(2)), "the hub is walked last");
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(250);
        engine.set_deadline(Some(deadline));
        let mut n = 0;
        let mut hold = || {
            n += 1;
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        };
        if initial {
            engine.initial_matches(&mut |_| hold());
        } else {
            engine.apply(&head, &mut |_, _| hold());
        }
        assert!(engine.timed_out(), "the last-level loop probes the deadline");
        assert!((1..=interval).contains(&n), "{n} matches got out before the latch");
        assert_dcg_matches_reference(&engine);
        engine.set_deadline(None);
        let mut n = 0;
        if initial {
            engine.initial_matches(&mut |_| n += 1);
        } else {
            engine.apply(&unhead, &mut |_, _| n += 1);
        }
        assert_eq!(n, leaves, "everything is reported once the deadline is lifted");
    }
}

/// Trust must not leak to the endpoint a non-tree invocation pre-binds.
///
/// Triangle with a tail: `u0:A -a-> u1:B -b-> u2:C`, closed by `u0 -c-> u2`,
/// tail `u2 -t-> u3:D`; the data makes `c` the non-tree edge. `s -a-> {p1,
/// p2}`, `p1 -b-> d -t-> x`, `p2 -b-> d2 -t-> x2`: both `(s, u1, p·)` are
/// explicit, `d` has one explicit parent (`p1`), and the DCG edge
/// `(p2, u2, d)` is absent. Inserting `s -c-> d` runs a non-tree invocation
/// that pre-binds `u2 = d` — its preconditions hold through `p1` — climbs
/// from `u0 = s`, and the search then reaches `u2` under both bindings of
/// `u1`. Only the probe of `(m(u1), u2, d)` stands between `u1 = p2` and a
/// match over a data edge that does not exist: the climb proved nothing
/// about `u2`'s binding. Kills both seeded mutations — setting the trust
/// bit when `non_tree_invocation` pre-binds `qe.dst`, and starting every
/// climb with `trusted = !0`. Run by
/// hand, each also fails the two randomized cyclic oracles above,
/// `oracle_e2e::lsbench_cyclic_query_with_deletions` and the integration
/// harness (`tests/common/mod.rs`): its `NaiveRecompute` check, on the same
/// shape as a directed scenario and on its random draws (DESIGN.md,
/// "Testing strategy").
///
/// The pre-bound edge cannot be *implicit* instead of absent: every DCG
/// edge into one `(u, v)` has the same state (it says whether `v`'s subtrees
/// are matched), and the invocation's own `match_all_children(d, u2)` test
/// makes that state explicit.
#[test]
fn trust_does_not_leak_to_the_non_tree_pre_binding() {
    let (a, b, c, t) = (l(10), l(11), l(12), l(13));
    let mut g = DynamicGraph::new();
    let s = g.add_vertex(LabelSet::single(l(0)));
    let [p1, p2] = [0; 2].map(|_| g.add_vertex(LabelSet::single(l(1))));
    let [d, d2, d3, d4] = [0; 4].map(|_| g.add_vertex(LabelSet::single(l(2))));
    let [x, x2] = [0; 2].map(|_| g.add_vertex(LabelSet::single(l(3))));
    for (src, label, dst) in
        [(s, a, p1), (s, a, p2), (p1, b, d), (p2, b, d2), (d, t, x), (d2, t, x2)]
    {
        g.insert_edge(src, label, dst);
    }
    // Three `c` edges, none of them `s -c-> d`: `c` is the costliest query
    // edge, so the spanning tree leaves it out.
    for dst in [d2, d3, d4] {
        g.insert_edge(s, c, dst);
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(LabelSet::single(l(i)))).collect();
    q.add_edge(us[0], us[1], Some(a));
    q.add_edge(us[1], us[2], Some(b));
    let closing = q.add_edge(us[0], us[2], Some(c));
    q.add_edge(us[2], us[3], Some(t));

    for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
        let cfg = TurboFluxConfig::with_semantics(semantics);
        let mut engine = TurboFlux::new(q.clone(), g.clone(), cfg);
        assert_eq!(engine.query_tree().root(), us[0]);
        assert_eq!(engine.query_tree().non_tree_edges(), [closing]);
        assert_eq!(engine.query_tree().parent(us[2]), Some(us[1]));
        for pv in [p1, p2] {
            assert_eq!(engine.dcg().state(s, us[1], pv), Some(EdgeState::Explicit));
        }
        assert_eq!(engine.dcg().state(p1, us[2], d), Some(EdgeState::Explicit));
        assert_eq!(engine.dcg().state(p2, us[2], d), None);

        let want = MatchRecord::new(vec![s, p1, d, x]);
        for (op, sign) in [
            (UpdateOp::InsertEdge { src: s, label: c, dst: d }, Positiveness::Positive),
            (UpdateOp::DeleteEdge { src: s, label: c, dst: d }, Positiveness::Negative),
        ] {
            let mut got = Vec::new();
            engine.apply(&op, &mut |p, m| got.push((p, m.clone())));
            assert_eq!(got, [(sign, want.clone())], "{semantics:?} {op:?}: nothing through p2");
            assert_dcg_matches_reference(&engine);
        }
    }
}

/// Star-of-stars: source `a:A`, hub `h:H`, 40 M-vertices below the hub each
/// carrying 8 L-children; query `A -f-> H -m-> M -l-> L`. The one feed edge
/// `a -f-> h` creates 40 × 8 matches in a single update and its deletion
/// retracts them — the widest single-op delta set any test produces.
#[test]
fn star_of_stars_feed_edge_matches_and_unmatches_exactly() {
    const MIDS: usize = 40;
    const LEAVES: usize = 8;
    let (f, m, lv) = (l(10), l(11), l(12));
    let mut g0 = DynamicGraph::new();
    let a = g0.add_vertex(LabelSet::single(l(0)));
    let h = g0.add_vertex(LabelSet::single(l(1)));
    for _ in 0..MIDS {
        let mid = g0.add_vertex(LabelSet::single(l(2)));
        g0.insert_edge(h, m, mid);
        for _ in 0..LEAVES {
            let leaf = g0.add_vertex(LabelSet::single(l(3)));
            g0.insert_edge(mid, lv, leaf);
        }
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(LabelSet::single(l(i)))).collect();
    for (i, label) in [f, m, lv].into_iter().enumerate() {
        q.add_edge(us[i], us[i + 1], Some(label));
    }
    let feed = UpdateOp::InsertEdge { src: a, label: f, dst: h };
    let unfeed = UpdateOp::DeleteEdge { src: a, label: f, dst: h };

    for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
        let cfg = TurboFluxConfig::with_semantics(semantics);
        let mut engine = TurboFlux::new(q.clone(), g0.clone(), cfg);
        let mut naive = NaiveRecompute::new(q.clone(), g0.clone(), semantics);
        for (op, sign) in [(&feed, Positiveness::Positive), (&unfeed, Positiveness::Negative)] {
            let mut got = Vec::new();
            engine.apply(op, &mut |p, r| got.push((p, r.clone())));
            let mut want = FxHashSet::default();
            naive.apply(op, &mut |p, r| assert!(want.insert((p, r.clone()))));
            assert_eq!(got.len(), MIDS * LEAVES, "{semantics:?} {op:?}");
            assert!(got.iter().all(|(p, _)| *p == sign));
            assert_eq!(got.into_iter().collect::<FxHashSet<_>>(), want, "{semantics:?} {op:?}");
            assert_dcg_matches_reference(&engine);
        }
    }
}

/// Engines hold `Cell`s (the deadline's counters) and so are not `Sync`; they
/// stay `Send`, which is what handing a cell to another thread between
/// batches would need.
#[test]
fn runtimes_stay_send() {
    fn is_send<T: Send>() {}
    is_send::<TurboFlux>();
    is_send::<crate::Fleet>();
}

/// The label-bucketed query-edge index must agree with a full scan over
/// `E(q)` for every update of a randomized stream (including wildcard
/// edges, which live outside the buckets).
#[test]
fn query_edge_index_matches_full_scan() {
    let mut rng = Rng::new(0x1DE4);
    for _ in 0..25 {
        let case = random_case(&mut rng, true);
        let mut engine =
            TurboFlux::new(case.q.clone(), case.g0.clone(), TurboFluxConfig::default());
        let mut shadow = case.g0.clone();
        for op in &case.ops {
            shadow.apply(op);
            let UpdateOp::InsertEdge { src, label, dst } = *op else {
                engine.apply(op, &mut |_, _| {});
                continue;
            };
            let mut plan = vec![tfx_query::EdgeId(99)];
            engine.matching_query_edges(&shadow, src, label, dst, &mut plan);
            // Reference: scan every query edge; the processing order is tree
            // edges shallow first, then non-tree edges by id.
            let all = (0..engine.query().edge_count() as u32).map(tfx_query::EdgeId);
            let (mut want, non_tree): (Vec<_>, Vec<_>) = all
                .filter(|&e| engine.query().edge_matches(&shadow, e, src, label, dst))
                .partition(|&e| engine.query_tree().is_tree_edge(e));
            want.sort_by_key(|&e| {
                let qe = engine.query().edge(e);
                let tree = engine.query_tree();
                let uc = if tree.parent_edge(qe.dst) == Some(e) { qe.dst } else { qe.src };
                (tree.depth(uc), e)
            });
            want.extend(non_tree);
            assert_eq!(plan, want, "the plan diverges from the full scan");
            engine.apply(op, &mut |_, _| {});
        }
    }
}

// ---------------------------------------------------------------------------
// Mixed-state runs: emission order where the benchmark goldens cannot see it.
// ---------------------------------------------------------------------------

/// The order-sensitive delta fingerprint of `e2e`'s `digest.rs` (FNV-1a's
/// step over 64-bit words, high half folded down), re-implemented here so a
/// reordered climb or frontier changes a constant in this crate's own tests.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = h ^ (h >> 32);
    }

    fn delta(&mut self, engine: usize, op: usize, p: Positiveness, embedding: &[VertexId]) {
        self.word((engine as u64) << 1 | (p == Positiveness::Positive) as u64);
        self.word(op as u64);
        let mut pairs = embedding.chunks_exact(2);
        for pair in &mut pairs {
            self.word((pair[0].0 as u64) << 32 | pair[1].0 as u64);
        }
        if let [last] = pairs.remainder() {
            self.word(1 << 40 | last.0 as u64);
        }
    }
}

/// Two branches under `u1`: `u0:A -x-> u1:B`, `u1 -y-> u2:C`, `u1 -z-> u3:D`,
/// and a second query that closes `u0 -w-> u2` over it (a non-tree edge, so
/// the climbs that flip nothing run too). Six `A` hubs fan out to sixteen `B`s,
/// every `B` has a `C` below it and about half of them a `D`: the out-run of
/// `(a, u1)` interleaves explicit and implicit ids, the in-run of `(b, u1)`
/// is five or so parents that a toggled `z` edge flips together — I → E up
/// the climb on insertion, E → I down it on deletion — and toggled `x` edges
/// insert into and remove from the middle
/// of both partitions. The six benchmark workloads end their streams with
/// 0–1 % implicit entries; here the minority state never holds under 15 % of
/// the `u1` edges.
fn mixed_state_case() -> (DynamicGraph, [QueryGraph; 2], Vec<UpdateOp>) {
    const HUBS: u32 = 6;
    const MIDS: u32 = 16;
    const CS: u32 = 8;
    const DS: u32 = 4;
    let (x, y, z, w) = (l(10), l(11), l(12), l(13));
    let mut rng = Rng::new(0x5917);
    let mut g0 = DynamicGraph::new();
    let mut tier = |n: u32, label: u32| -> Vec<VertexId> {
        (0..n).map(|_| g0.add_vertex(LabelSet::single(l(label)))).collect()
    };
    let (hubs, mids, cs, ds) = (tier(HUBS, 0), tier(MIDS, 1), tier(CS, 2), tier(DS, 3));
    let (far_mids, far_cs, far_ds) = (tier(10, 1), tier(10, 2), tier(10, 3));
    let mut live: Vec<(VertexId, LabelId, VertexId)> = Vec::new();
    for &b in &mids {
        for &a in &hubs {
            if rng.below(3) > 0 {
                live.push((a, x, b));
            }
        }
        live.push((b, y, cs[rng.below(cs.len())]));
        if rng.below(2) == 0 {
            live.push((b, z, ds[b.index() % ds.len()]));
        }
    }
    for &a in &hubs {
        for &c in &cs {
            if rng.below(2) == 0 {
                live.push((a, w, c));
            }
        }
    }
    live.sort_unstable();
    live.dedup();
    for &(s, lb, d) in &live {
        g0.insert_edge(s, lb, d);
    }
    // As in `fig4`: `B`s no hub reaches, with enough `y` and `z` edges below
    // them that `x` is the rarest edge and the hubs are the start vertices.
    // They never enter the DCG.
    for &b in &far_mids {
        for i in 0..10 {
            g0.insert_edge(b, y, far_cs[i]);
            g0.insert_edge(b, z, far_ds[i]);
        }
    }

    let mut tree = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| tree.add_vertex(LabelSet::single(l(i)))).collect();
    tree.add_edge(us[0], us[1], Some(x));
    tree.add_edge(us[1], us[2], Some(y));
    tree.add_edge(us[1], us[3], Some(z));
    let mut cyclic = tree.clone();
    cyclic.add_edge(us[0], us[2], Some(w));

    let mut ops = Vec::new();
    for _ in 0..600 {
        let b = mids[rng.below(mids.len())];
        let edge = match rng.below(10) {
            0..=3 => (b, z, ds[b.index() % ds.len()]), // one `D` each: half stay matched
            4..=6 => (hubs[rng.below(hubs.len())], x, b),
            7..=8 => (b, y, cs[rng.below(cs.len())]),
            _ => (hubs[rng.below(hubs.len())], w, cs[rng.below(cs.len())]),
        };
        let (src, label, dst) = edge;
        match live.iter().position(|&e| e == edge) {
            Some(i) => {
                live.swap_remove(i);
                ops.push(UpdateOp::DeleteEdge { src, label, dst });
            }
            None => {
                live.push(edge);
                ops.push(UpdateOp::InsertEdge { src, label, dst });
            }
        }
    }
    (g0, [tree, cyclic], ops)
}

/// Emission order over runs that mix both states, pinned by a fingerprint
/// taken on the commit before the split-run layout (a run was one sorted
/// `[(id, state)]` then): the initial report and every delta of both queries,
/// in the order the engine emits them, with the DCG equal to the declarative
/// reference after every op.
///
/// Seeded mutations, run by hand (CHANGES.md). `flip` in the run
/// store of the time rotating the wrong way failed here on the first restated
/// edge of a wide run (`check_consistency`: "partition unsorted"), as it
/// failed ten other tests of this crate. The `ft = true` climb reading
/// `explicit ++ implicit` instead of the by-id merge *passes* here and
/// everywhere an engine drives the DCG: every stored edge into one `(u, v)`
/// has the same state whenever a climb snapshots its in-run — the state says
/// whether `v`'s subtrees are matched, and a climb never re-enters the
/// `(u, v)` it is walking — so one partition is empty there (an assertion to
/// that effect in both climbs passed the whole workspace suite on the parent
/// commit). The store does not depend on that, and the order is pinned one
/// layer down, where a mixed in-run can be built:
/// `scratch::tests::climb_snapshot_merges_the_partitions_by_id` fails under
/// that mutation.
#[test]
fn mixed_state_runs_keep_emission_order() {
    let (g0, queries, ops) = mixed_state_case();
    // Every query vertex has its own label, so the two semantics agree.
    const PINNED: u64 = 0xbcb8_9d2d_54be_2bc6;
    for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
        let mut fp = Fingerprint::new();
        let mut deltas = 0usize;
        let mut least_mixed = 100usize;
        for (qi, q) in queries.iter().enumerate() {
            let cfg = TurboFluxConfig::with_semantics(semantics);
            let mut engine = TurboFlux::new(q.clone(), g0.clone(), cfg);
            assert_eq!(engine.query_tree().root(), tfx_query::QVertexId(0), "hubs are the roots");
            assert_dcg_matches_reference(&engine);
            engine.initial_matches(&mut |m| {
                fp.delta(qi, 0, Positiveness::Positive, m.as_slice());
                deltas += 1;
            });
            for (i, op) in ops.iter().enumerate() {
                engine.apply(op, &mut |p, m| {
                    fp.delta(qi, i + 1, p, m.as_slice());
                    deltas += 1;
                });
                assert_dcg_matches_reference(&engine);
                let snap = engine.dcg().snapshot();
                // The share of the minority state among the `u1` edges, the
                // ones whose candidates have subtrees to match.
                let (e, n) =
                    snap.iter().filter(|(k, _)| k.1 == 1).fold((0, 0), |(e, n), (_, &st)| {
                        (e + usize::from(st == EdgeState::Explicit), n + 1)
                    });
                least_mixed = least_mixed.min(e.min(n - e) * 100 / n.max(1));
            }
        }
        assert!(least_mixed >= 15, "the runs must hold both states throughout: {least_mixed} %");
        assert!(deltas > 2_000, "{deltas} deltas");
        assert_eq!(fp.0, PINNED, "{semantics:?}: emission order moved ({deltas} deltas)");
    }
}

// ---------------------------------------------------------------------------
// Derived edges: the updated edge is in the graph before its images are
// counted (insertion) and after they are uncounted (deletion).
// ---------------------------------------------------------------------------

/// Every edge of `edges` inserted into `g0`, then deleted, in both orders
/// each — four streams — under both semantics. After every op the DCG equals
/// the reference and the deltas equal `NaiveRecompute`'s, each reported once.
/// Returns how many deltas the streams produced.
fn assert_insert_delete_orders(
    g0: &DynamicGraph,
    q: &QueryGraph,
    edges: &[(u32, u32, u32)],
) -> usize {
    let op = |insert: bool, &(s, lb, d): &(u32, u32, u32)| {
        let (src, label, dst) = (v(s), l(lb), v(d));
        if insert {
            UpdateOp::InsertEdge { src, label, dst }
        } else {
            UpdateOp::DeleteEdge { src, label, dst }
        }
    };
    let rev: Vec<_> = edges.iter().rev().copied().collect();
    let mut deltas = 0;
    for (ins, del) in [(edges, edges), (edges, &rev[..]), (&rev[..], edges), (&rev[..], &rev[..])] {
        let ops: Vec<UpdateOp> =
            ins.iter().map(|e| op(true, e)).chain(del.iter().map(|e| op(false, e))).collect();
        for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            let cfg = TurboFluxConfig::with_semantics(semantics);
            let mut engine = TurboFlux::new(q.clone(), g0.clone(), cfg);
            let mut naive = NaiveRecompute::new(q.clone(), g0.clone(), semantics);
            for (step, op) in ops.iter().enumerate() {
                let mut got = FxHashSet::default();
                engine.apply(op, &mut |p, m| {
                    assert!(got.insert((p, m.clone())), "{semantics:?} step {step}: twice {m:?}");
                });
                let mut want = FxHashSet::default();
                naive.apply(op, &mut |p, m| assert!(want.insert((p, m.clone()))));
                assert_eq!(got, want, "{semantics:?} step {step} ({op:?})");
                assert_dcg_matches_reference(&engine);
                deltas += got.len();
            }
        }
    }
    deltas
}

/// The path `u0:A -l-> u1 -l-> u2` (`u1`, `u2` unlabeled) over `A` vertices:
/// a data edge matches both tree edges, so the update has an image under
/// each, one below the other. A self-loop on `e`, which has no other edge: building
/// `(e, u1, e)` builds `(e, u2, e)` in the same cascade, before the second
/// tree edge's invocation, which must not build it again. A self-loop on
/// `c`, which the standing `d -l-> c` keeps reached under `u1`: deleting
/// it clears `(c, u1, c)` first, and the second invocation then climbs from
/// `(u1, c)`, whose parents in the graph still include `c` itself — an edge
/// the bits no longer account for, whose demotion they must not see. The 2-cycle
/// `a ⇄ b` and `b -l-> c` put each edge under the other's climbs. Each of
/// three seeded mutations, run by hand, fails here: the walks over stored
/// edges keeping the uncounted image (`stored_far_ends` ignoring `image`),
/// `tree_invocation` reading "already built" from the bits alone
/// (`is_reached(uc, cv)`), and `build_dcg` not recording a built
/// image (`note` skipped). Each also fails the randomized oracles above;
/// this test pins the shapes down by name.
#[test]
fn same_label_tree_edges_over_a_data_cycle_and_self_loops() {
    let mut g0 = DynamicGraph::new();
    let [a, b, c, d, e] = [0; 5].map(|_| g0.add_vertex(LabelSet::single(l(0))));
    // Vertices only the unlabeled query vertices match make `u0` the
    // selective end, so the tree is rooted there.
    (0..3).for_each(|_| _ = g0.add_vertex(LabelSet::single(l(1))));
    let mut q = QueryGraph::new();
    let us =
        [LabelSet::single(l(0)), LabelSet::empty(), LabelSet::empty()].map(|ls| q.add_vertex(ls));
    q.add_edge(us[0], us[1], Some(l(9)));
    q.add_edge(us[1], us[2], Some(l(9)));
    g0.insert_edge(d, l(9), c);
    let tree = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default()).tree;
    assert_eq!((tree.root(), tree.parent(us[2])), (us[0], Some(us[1])), "one edge below the other");
    let edges = [(a.0, 9, b.0), (b.0, 9, a.0), (c.0, 9, c.0), (e.0, 9, e.0), (b.0, 9, c.0)];
    assert!(assert_insert_delete_orders(&g0, &q, &edges) >= 60);
}

/// A wildcard tree edge over a vertex pair joined by two labels, with a
/// labeled edge below it: the second parallel edge neither builds nor
/// clears anything (it has a twin), the first and last do, and the
/// frontier of the wildcard is gathered over both label groups once. Fails
/// under either seeded mutation, run by hand: `Dcg::collect` not
/// deduplicating a wildcard group, and the images counted without the
/// parallel-support test (`count_edges_matching(..) == 1` dropped).
#[test]
fn a_wildcard_tree_edge_over_a_pair_joined_by_two_labels() {
    let mut g0 = DynamicGraph::new();
    let [a, b, c] = [0, 1, 2].map(|i| g0.add_vertex(LabelSet::single(l(i))));
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..3).map(|i| q.add_vertex(LabelSet::single(l(i)))).collect();
    q.add_edge(us[0], us[1], None);
    q.add_edge(us[1], us[2], Some(l(9)));
    g0.insert_edge(b, l(9), c);
    let edges = [(a.0, 7, b.0), (a.0, 8, b.0), (b.0, 7, b.0), (a.0, 9, b.0)];
    assert!(assert_insert_delete_orders(&g0, &q, &edges) >= 16);
}

// ---------------------------------------------------------------------------
// Derived "last parent" / "last explicit child": a group read under the bits.
// ---------------------------------------------------------------------------

/// `q`'s tree must be rooted at `u0`, with `parents[i]` the tree parent of
/// `u{i + 1}`.
fn assert_path_tree(g0: &DynamicGraph, q: &QueryGraph, parents: &[u32]) {
    let tree = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default()).tree;
    assert_eq!(tree.root(), tfx_query::QVertexId(0));
    for (i, &p) in parents.iter().enumerate() {
        let u = tfx_query::QVertexId(i as u32 + 1);
        assert_eq!(tree.parent(u), Some(tfx_query::QVertexId(p)), "parent of {u:?}");
    }
}

/// The path `u0:A -l-> u1 -l-> u2 -m-> u3:D` (`u1`, `u2` unlabeled). `pa:A`
/// has a self-loop, so it is reached under `u1` and `u2` but explicit under
/// neither; `ca` is explicit under `u1` through `a2 -l-> ca`. Inserting
/// `pa -l-> ca` makes `ca` `pa`'s only explicit child under `u1` (the climb
/// flips `pa`'s start edge) and builds `(pa, u2, ca)`, whose climb promotes
/// `(pa, u1, pa)`. Deleting it clears `(pa, u1, ca)` first, and the second
/// invocation climbs back over `(pa, u1, pa)` while the graph still shows
/// `pa -l-> ca` and `ca` is still explicit: the "does `pa` flip" scan and the
/// demotion's "does `pa` keep its kid bit" scan must both skip that image,
/// or `pa`'s start edge stays explicit and its kid bit set. Each of the two
/// skips dropped, run by hand, fails here.
#[test]
fn an_image_that_is_its_parents_only_explicit_child_and_its_deletion() {
    let (l9, m) = (9, 8);
    let mut g0 = DynamicGraph::new();
    let [pa, a2] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(0))));
    let [ca, y] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(1))));
    let [z, z2] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(3))));
    for (s, lb, d) in [(pa, l9, pa), (a2, l9, ca), (ca, l9, y), (y, m, z2), (ca, m, z)] {
        g0.insert_edge(s, l(lb), d);
    }
    // `D`s no `A` reaches keep `u3` the unselective end.
    for _ in 0..3 {
        let b = g0.add_vertex(LabelSet::single(l(1)));
        let d = g0.add_vertex(LabelSet::single(l(3)));
        g0.insert_edge(b, l(m), d);
    }
    let mut q = QueryGraph::new();
    let us = [LabelSet::single(l(0)), LabelSet::empty(), LabelSet::empty(), LabelSet::single(l(3))]
        .map(|ls| q.add_vertex(ls));
    q.add_edge(us[0], us[1], Some(l(l9)));
    q.add_edge(us[1], us[2], Some(l(l9)));
    q.add_edge(us[2], us[3], Some(l(m)));
    assert_path_tree(&g0, &q, &[0, 1, 2]);

    let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
    let toggle = [
        UpdateOp::InsertEdge { src: pa, label: l(l9), dst: ca },
        UpdateOp::DeleteEdge { src: pa, label: l(l9), dst: ca },
    ];
    for (op, explicit) in toggle.iter().zip([true, false]) {
        engine.apply(op, &mut |_, _| {});
        assert_dcg_matches_reference(&engine);
        assert_eq!(engine.dcg().root_state(pa), Some(EdgeState::of(explicit)), "{op:?}");
        let kids = if explicit { 0b110 } else { 0 };
        assert_eq!(engine.dcg().expl_out_bits(pa), kids, "{op:?}");
        assert!(engine.dcg().is_explicit(us[1], ca), "{op:?}: through a2");
    }
    assert!(assert_insert_delete_orders(&g0, &q, &[(pa.0, l9, ca.0)]) >= 24);
}

/// `u0:A -x-> u1:B -y-> u2:C -z-> u3:D` over `a -x-> b1 -y-> c` and
/// `a2 -x-> b2 -y-> c -z-> d`. Deleting `a -x-> b1` takes `b1` out of
/// `reached[u1]`, and `ClearDCG` cascades into `(b1, u2, c)`: `c` keeps its
/// other parent `b2`, stays reached and explicit, and `b1` — no longer
/// reached, its explicit child still explicit — ends with its kid bit clear,
/// cleared when it left `reached` rather than by a scan of its group.
#[test]
fn a_cascade_leaves_an_unreached_parent_without_kids_and_its_child_explicit() {
    let (x, y, z) = (10, 11, 12);
    let mut g0 = DynamicGraph::new();
    let [a, a2] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(0))));
    let [b1, b2] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(1))));
    let c = g0.add_vertex(LabelSet::single(l(2)));
    let d = g0.add_vertex(LabelSet::single(l(3)));
    for (s, lb, t) in [(a2, x, b2), (b1, y, c), (b2, y, c), (c, z, d)] {
        g0.insert_edge(s, l(lb), t);
    }
    // `B -y-> C -z-> D` chains no `A` reaches keep the `A`s the start.
    for _ in 0..3 {
        let [b, c, d] = [1, 2, 3].map(|i| g0.add_vertex(LabelSet::single(l(i))));
        g0.insert_edge(b, l(y), c);
        g0.insert_edge(c, l(z), d);
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(LabelSet::single(l(i)))).collect();
    for (i, lb) in [x, y, z].into_iter().enumerate() {
        q.add_edge(us[i], us[i + 1], Some(l(lb)));
    }
    assert_path_tree(&g0, &q, &[0, 1, 2]);

    let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
    engine.apply(&UpdateOp::InsertEdge { src: a, label: l(x), dst: b1 }, &mut |_, _| {});
    assert_eq!(engine.dcg().expl_out_bits(b1), 1 << 2);
    engine.apply(&UpdateOp::DeleteEdge { src: a, label: l(x), dst: b1 }, &mut |_, _| {});
    assert_dcg_matches_reference(&engine);
    assert!(!engine.dcg().is_reached(us[1], b1));
    assert_eq!(engine.dcg().expl_out_bits(b1), 0, "the unreached parent has no kid bit");
    assert!(engine.dcg().is_explicit(us[2], c), "c stays explicit through b2");
    assert!(assert_insert_delete_orders(&g0, &q, &[(a.0, x, b1.0)]) >= 16);
}

/// A wildcard tree edge `u0:A -*-> u1:B` over `a`, joined to `b` by two
/// labels and to `b2` by one, under `u1 -l-> u2:C`. Whether `a` flips when
/// `b`'s or `b2`'s subtree is matched or unmatched is a question about its
/// distinct neighbours: `b` met twice in `a`'s groups is one explicit child,
/// and `b` and `b2` are two. A flip test that counted group members up to
/// two, without the dedup, would see two explicit children where there is
/// one and leave `a`'s start edge implicit.
#[test]
fn flips_under_a_wildcard_count_distinct_neighbours() {
    let mut g0 = DynamicGraph::new();
    let a = g0.add_vertex(LabelSet::single(l(0)));
    let [b, b2] = [0; 2].map(|_| g0.add_vertex(LabelSet::single(l(1))));
    let c = g0.add_vertex(LabelSet::single(l(2)));
    for (lb, t) in [(7, b), (8, b), (7, b2)] {
        g0.insert_edge(a, l(lb), t);
    }
    for _ in 0..3 {
        let b = g0.add_vertex(LabelSet::single(l(1)));
        let c = g0.add_vertex(LabelSet::single(l(2)));
        g0.insert_edge(b, l(9), c);
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..3).map(|i| q.add_vertex(LabelSet::single(l(i)))).collect();
    q.add_edge(us[0], us[1], None);
    q.add_edge(us[1], us[2], Some(l(9)));
    assert_path_tree(&g0, &q, &[0, 1]);

    let mut engine = TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default());
    let mut apply = |op: UpdateOp| {
        engine.apply(&op, &mut |_, _| {});
        assert_dcg_matches_reference(&engine);
        engine.dcg().root_state(a)
    };
    let (imp, exp) = (Some(EdgeState::Implicit), Some(EdgeState::Explicit));
    assert_eq!(apply(UpdateOp::InsertEdge { src: b, label: l(9), dst: c }), exp, "b once");
    assert_eq!(apply(UpdateOp::InsertEdge { src: b2, label: l(9), dst: c }), exp);
    assert_eq!(apply(UpdateOp::DeleteEdge { src: b, label: l(9), dst: c }), exp, "b2 is left");
    assert_eq!(apply(UpdateOp::DeleteEdge { src: b2, label: l(9), dst: c }), imp);
    let edges = [(b.0, 9, c.0), (b2.0, 9, c.0)];
    assert!(assert_insert_delete_orders(&g0, &q, &edges) >= 32);
}

/// One run's output: the initial matches, then every stream delta as
/// `(op index, sign, record)`, in emission order.
type Emitted = (Vec<Vec<VertexId>>, Vec<(usize, Positiveness, Vec<VertexId>)>);

/// The sink is a type parameter from the entry points down to the
/// last-level loop, so each kind of caller gets its own copy of the search:
/// a closure, a `&mut dyn FnMut`, and either one with a deadline armed (the
/// loop then probes the clock per match). All three must emit the same
/// records in the same order — the initial report and a 200-op stream, for
/// tree and cyclic queries under both semantics.
#[test]
fn every_sink_kind_emits_the_same_records_in_the_same_order() {
    let run = |case: &RandomCase, semantics: MatchSemantics, kind: u8| -> Emitted {
        let cfg = TurboFluxConfig::with_semantics(semantics);
        let mut engine = TurboFlux::new(case.q.clone(), case.g0.clone(), cfg);
        let (mut initial, mut deltas) = (Vec::new(), Vec::new());
        let mut on_initial = |r: &MatchRecord| initial.push(r.as_slice().to_vec());
        let mut on_delta = |i, p, r: &MatchRecord| deltas.push((i, p, r.as_slice().to_vec()));
        match kind {
            0 => {
                engine.report_initial(&mut on_initial);
                engine.apply_batch(&case.ops, &mut on_delta);
            }
            1 => {
                let initial: &mut dyn FnMut(&MatchRecord) = &mut on_initial;
                engine.report_initial(initial);
                let delta: &mut dyn FnMut(usize, Positiveness, &MatchRecord) = &mut on_delta;
                engine.apply_batch(&case.ops, delta);
            }
            _ => {
                let hour = std::time::Duration::from_secs(3600);
                engine.set_deadline(Some(std::time::Instant::now() + hour));
                engine.report_initial(&mut on_initial);
                engine.apply_batch(&case.ops, &mut on_delta);
                assert!(!engine.timed_out(), "a deadline an hour away cannot trip");
            }
        }
        (initial, deltas)
    };
    let mut rng = Rng::new(0x51_4B5);
    for cyclic in [false, true] {
        for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            let (mut initial, mut deltas) = (0, 0);
            for case_no in 0..40 {
                let case = random_case_with_ops(&mut rng, cyclic, 200);
                let want = run(&case, semantics, 0);
                for kind in [1, 2] {
                    assert_eq!(
                        run(&case, semantics, kind),
                        want,
                        "case {case_no}, sink kind {kind}"
                    );
                }
                (initial, deltas) = (initial + want.0.len(), deltas + want.1.len());
            }
            assert!(initial > 0 && deltas > 0, "cyclic {cyclic}, {semantics:?}: nothing emitted");
        }
    }
}
