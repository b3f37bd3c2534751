//! Randomized cross-checks: every baseline must report exactly the oracle's
//! positive/negative match sets (SJ-Tree on insert-only streams, as in the
//! paper).

use rustc_hash::FxHashSet;
use tfx_baselines::{Graphflow, IncIsoMat, NaiveRecompute, SjTree};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};
use tfx_match::match_set;
use tfx_query::{
    ContinuousMatcher, MatchRecord, MatchSemantics, Positiveness, QVertexId, QueryGraph,
};

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

fn l(i: u32) -> LabelId {
    LabelId(i)
}

fn v(i: u32) -> VertexId {
    VertexId(i)
}

struct Case {
    g0: DynamicGraph,
    q: QueryGraph,
    ops: Vec<UpdateOp>,
}

fn random_case(rng: &mut Rng, cyclic: bool, with_deletes: bool) -> Case {
    let n_vlabels = 2 + rng.below(2);
    let n_elabels = 1 + rng.below(2);
    let n_vertices = 5 + rng.below(4);

    let mut g0 = DynamicGraph::new();
    for _ in 0..n_vertices {
        let labels = if rng.below(5) == 0 {
            LabelSet::empty()
        } else {
            LabelSet::single(l(rng.below(n_vlabels) as u32))
        };
        g0.add_vertex(labels);
    }
    for _ in 0..(5 + rng.below(6)) {
        let s = v(rng.below(n_vertices) as u32);
        let d = v(rng.below(n_vertices) as u32);
        g0.insert_edge(s, l(10 + rng.below(n_elabels) as u32), d);
    }

    let nq = 3 + rng.below(2);
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
        let (s, d) = if rng.below(2) == 0 { (other, i) } else { (i, other) };
        let label =
            if rng.below(5) == 0 { None } else { Some(l(10 + rng.below(n_elabels) as u32)) };
        q.add_edge(QVertexId(s), QVertexId(d), label);
    }
    if cyclic {
        let a = rng.below(nq) as u32;
        let b = rng.below(nq) as u32;
        let label = Some(l(10 + rng.below(n_elabels) as u32));
        let (s, d) = (QVertexId(a), QVertexId(b));
        if !q.edges().iter().any(|e| e.src == s && e.dst == d && e.label == label) {
            q.add_edge(s, d, label);
        }
    }

    let mut ops = Vec::new();
    let mut live: Vec<(VertexId, LabelId, VertexId)> =
        g0.edges().map(|e| (e.src, e.label, e.dst)).collect();
    let mut vcount = n_vertices as u32;
    for _ in 0..25 {
        let roll = rng.below(10);
        if roll == 0 {
            ops.push(UpdateOp::AddVertex {
                id: v(vcount),
                labels: LabelSet::single(l(rng.below(n_vlabels) as u32)),
            });
            vcount += 1;
        } else if with_deletes && roll < 4 && !live.is_empty() {
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
    Case { g0, q, ops }
}

fn check_engine(
    make: &dyn Fn(&Case, MatchSemantics) -> Box<dyn ContinuousMatcher>,
    case: &Case,
    semantics: MatchSemantics,
) {
    let mut engine = make(case, semantics);
    let mut shadow = case.g0.clone();

    let name = engine.name();
    let mut initial: FxHashSet<MatchRecord> = FxHashSet::default();
    engine.initial_matches(&mut |m| {
        assert!(initial.insert(m.clone()), "duplicate initial match from {name}");
    });
    assert_eq!(initial, match_set(&shadow, &case.q, semantics), "{name} initial");

    for (step, op) in case.ops.iter().enumerate() {
        let before = match_set(&shadow, &case.q, semantics);
        shadow.apply(op);
        let after = match_set(&shadow, &case.q, semantics);
        let want_pos: FxHashSet<_> = after.difference(&before).cloned().collect();
        let want_neg: FxHashSet<_> = before.difference(&after).cloned().collect();

        let mut got_pos: FxHashSet<MatchRecord> = FxHashSet::default();
        let mut got_neg: FxHashSet<MatchRecord> = FxHashSet::default();
        engine.apply(op, &mut |p, m| {
            let fresh = match p {
                Positiveness::Positive => got_pos.insert(m.clone()),
                Positiveness::Negative => got_neg.insert(m.clone()),
            };
            assert!(fresh, "{name}: duplicate report at step {step}: {m:?} ({op:?})");
        });
        assert_eq!(got_pos, want_pos, "{name} positives diverge at step {step} ({op:?})");
        assert_eq!(got_neg, want_neg, "{name} negatives diverge at step {step} ({op:?})");
    }
}

#[test]
fn graphflow_matches_oracle() {
    let mut rng = Rng::new(41);
    for i in 0..40 {
        let cyclic = i % 2 == 0;
        let case = random_case(&mut rng, cyclic, true);
        for sem in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            check_engine(
                &|c, s| Box::new(Graphflow::new(c.q.clone(), c.g0.clone(), s)),
                &case,
                sem,
            );
        }
    }
}

#[test]
fn inc_iso_mat_matches_oracle() {
    let mut rng = Rng::new(42);
    for i in 0..25 {
        let cyclic = i % 2 == 0;
        let case = random_case(&mut rng, cyclic, true);
        for sem in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            check_engine(
                &|c, s| Box::new(IncIsoMat::new(c.q.clone(), c.g0.clone(), s)),
                &case,
                sem,
            );
        }
    }
}

#[test]
fn sj_tree_matches_oracle_insert_only() {
    let mut rng = Rng::new(43);
    for i in 0..40 {
        let cyclic = i % 2 == 0;
        let case = random_case(&mut rng, cyclic, false);
        for sem in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
            check_engine(
                &|c, s| Box::new(SjTree::new(c.q.clone(), c.g0.clone(), s, None)),
                &case,
                sem,
            );
        }
    }
}

#[test]
fn naive_is_self_consistent() {
    // NaiveRecompute *is* the oracle; this exercises its own trait plumbing.
    let mut rng = Rng::new(44);
    let case = random_case(&mut rng, true, true);
    check_engine(
        &|c, s| Box::new(NaiveRecompute::new(c.q.clone(), c.g0.clone(), s)),
        &case,
        MatchSemantics::Homomorphism,
    );
}
