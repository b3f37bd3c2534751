//! The one deadline every engine honours (`tfx_query::Deadline`): armed
//! already passed, it cuts an exploding insert short on each of the six
//! `ContinuousMatcher` engines and latches `timed_out()`; lifted, the next
//! insert reports in full, as many matches as an engine that never had a
//! deadline reports for it.

use std::time::{Duration, Instant};

use turboflux::baselines::{Graphflow, IncIsoMat, NaiveRecompute, NecSjTree, SjTree};
use turboflux::prelude::*;

type Build = fn(&QueryGraph, DynamicGraph, Option<Instant>) -> Box<dyn ContinuousMatcher>;

const HOM: MatchSemantics = MatchSemantics::Homomorphism;

/// Every engine, built over `g0` with `deadline` armed from the start.
const ENGINES: [(&str, Build); 6] = [
    ("TurboFlux", |q, g0, at| {
        let mut e = TurboFlux::new(q.clone(), g0, TurboFluxConfig::default());
        e.set_deadline(at);
        Box::new(e)
    }),
    ("SJ-Tree", |q, g0, at| Box::new(SjTree::new(q.clone(), g0, HOM, at))),
    ("SJ-Tree+NEC", |q, g0, at| Box::new(NecSjTree::try_new(q, g0, HOM, at).expect("star"))),
    ("Graphflow", |q, g0, at| {
        let mut e = Graphflow::new(q.clone(), g0, HOM);
        e.set_deadline(at);
        Box::new(e)
    }),
    ("IncIsoMat", |q, g0, at| {
        let mut e = IncIsoMat::new(q.clone(), g0, HOM);
        e.set_deadline(at);
        Box::new(e)
    }),
    ("NaiveRecompute", |q, g0, at| {
        let mut e = NaiveRecompute::new(q.clone(), g0, HOM);
        e.set_deadline(at);
        Box::new(e)
    }),
];

const BIG: u32 = 100;
const SMALL: u32 = 3;

/// `a -r-> hub` with two `t` leaves under the hub (a star SJ-Tree+NEC
/// compresses), over a g0 of one `a` and two hubs, with `BIG` and `SMALL`
/// leaves: inserting `a -r-> big` closes `BIG²` matches, `a -r-> small`
/// `SMALL²`.
fn star() -> (QueryGraph, DynamicGraph, [UpdateOp; 2]) {
    let (la, lb, lc, r, t) = (LabelId(0), LabelId(1), LabelId(2), LabelId(3), LabelId(4));
    let mut q = QueryGraph::new();
    let ua = q.add_vertex(LabelSet::single(la));
    let ub = q.add_vertex(LabelSet::single(lb));
    q.add_edge(ua, ub, Some(r));
    for _ in 0..2 {
        let uc = q.add_vertex(LabelSet::single(lc));
        q.add_edge(ub, uc, Some(t));
    }
    let mut g = DynamicGraph::new();
    let a = g.add_vertex(LabelSet::single(la));
    let hubs = [BIG, SMALL].map(|leaves| {
        let hub = g.add_vertex(LabelSet::single(lb));
        for _ in 0..leaves {
            let leaf = g.add_vertex(LabelSet::single(lc));
            g.insert_edge(hub, t, leaf);
        }
        hub
    });
    let inserts = hubs.map(|hub| UpdateOp::InsertEdge { src: a, label: r, dst: hub });
    (q, g, inserts)
}

fn count(engine: &mut dyn ContinuousMatcher, op: &UpdateOp) -> u64 {
    let mut n = 0;
    engine.apply(op, &mut |p, _| {
        assert_eq!(p, Positiveness::Positive);
        n += 1;
    });
    n
}

#[test]
fn a_passed_deadline_stops_every_engine_and_lifting_it_restores_full_reports() {
    let (q, g0, [explode, next]) = star();
    let passed = Instant::now() - Duration::from_secs(1);
    for (name, build) in ENGINES {
        let mut free = build(&q, g0.clone(), None);
        let all = count(&mut *free, &explode);
        let want_next = count(&mut *free, &next);
        assert!(all >= u64::from(BIG), "{name}: the hub insert explodes ({all})");
        assert!(want_next > 0 && !free.timed_out(), "{name}");

        let mut cut = build(&q, g0.clone(), None);
        cut.set_deadline(Some(passed));
        assert!(!cut.timed_out(), "{name}: nothing probed yet");
        let got = count(&mut *cut, &explode);
        assert!(cut.timed_out(), "{name}: the deadline latches");
        assert!(got < all, "{name}: {got} of {all} matches got out past the deadline");
        assert!(cut.timed_out(), "{name}: the latch holds");
        cut.set_deadline(None);
        assert!(!cut.timed_out(), "{name}: lifting clears the latch");
        assert_eq!(count(&mut *cut, &next), want_next, "{name}: the next insert in full");
    }
}

#[test]
fn sj_tree_ingests_g0_under_the_deadline() {
    let (q, mut g0, [explode, _]) = star();
    g0.apply(&explode);
    let passed = Some(Instant::now() - Duration::from_secs(1));
    for (name, build) in &ENGINES[1..3] {
        assert!(!build(&q, g0.clone(), None).timed_out(), "{name}");
        assert!(build(&q, g0.clone(), passed).timed_out(), "{name}: ingestion is cut");
    }
}
