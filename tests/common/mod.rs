//! The one harness the delta oracles (`stream_oracle`, `fleet_equivalence`)
//! run on. [`random_scenario`] draws a [`Scenario`] of one of six
//! [`Shape`]s; [`closing_edge_scenario`] and [`lookahead_hazards`] build
//! what the draws reach too rarely. [`assert_equivalent`] runs a
//! scenario under one semantics × window × batch policy through
//! `StreamDriver` on both runtimes — [`TurboFlux`] per query and [`Fleet`]
//! — and holds the window's output to [`reference_window`], the standalone
//! engines' signed match sets per query and op to `NaiveRecompute` and their
//! DCG at every batch boundary to `spec::reference_dcg`, their batched
//! deltas to their one-op run's and the fleet's to theirs byte for byte, and
//! every runtime's graph to the ops replayed on `g0` (the fleet's at every
//! batch boundary) — a standalone engine's to the replay's projection onto
//! its query's labels.

#![allow(dead_code)] // each test binary uses part of the harness

use std::collections::{HashSet, VecDeque};
use turboflux::baselines::NaiveRecompute;
use turboflux::core::reference_dcg;
use turboflux::datagen::Pcg32;
use turboflux::graph::EdgeRef;
use turboflux::prelude::*;
use turboflux::stream::{BatchTarget, VecSource};

pub type Edge = (VertexId, LabelId, VertexId);

/// `(global op, engine, sign, record)`: a delta as a downstream consumer
/// sees it.
pub type Delta = (usize, usize, Positiveness, MatchRecord);

fn label(l: usize) -> LabelSet {
    LabelSet::single(LabelId(l as u32))
}

/// A random connected query: a tree over `nq` vertices labeled by
/// `vlabels`, either direction per edge, edge labels `10..10 + edge_labels`,
/// one edge in `wildcard_in` a wildcard; with `chains`, half the vertices
/// hang off their predecessor. One query in three closes one or two more
/// edges (a repeat is dropped): cyclic, so non-tree invocations run.
pub fn random_query(
    rng: &mut Pcg32,
    nq: u32,
    mut vlabels: impl FnMut(&mut Pcg32, u32) -> LabelSet,
    chains: bool,
    edge_labels: usize,
    wildcard_in: usize,
) -> QueryGraph {
    let mut q = QueryGraph::new();
    for i in 0..nq {
        let labels = vlabels(rng, i);
        q.add_vertex(labels);
    }
    let mut seen = HashSet::new();
    let mut add = |rng: &mut Pcg32, q: &mut QueryGraph, s: u32, d: u32| {
        let label =
            (rng.below(wildcard_in) != 0).then(|| LabelId(10 + rng.below(edge_labels) as u32));
        if s != d && seen.insert((s, d, label)) {
            q.add_edge(QVertexId(s), QVertexId(d), label);
        }
    };
    for child in 1..nq {
        let parent =
            if chains && rng.below(2) == 0 { child - 1 } else { rng.below(child as usize) as u32 };
        let (s, d) = if rng.below(2) == 0 { (parent, child) } else { (child, parent) };
        add(rng, &mut q, s, d);
    }
    if rng.below(3) == 0 {
        for _ in 0..1 + rng.below(2) {
            let (s, d) = (rng.below(nq as usize) as u32, rng.below(nq as usize) as u32);
            add(rng, &mut q, s, d);
        }
    }
    q
}

/// How a scenario's graph, queries and stream are drawn. Every graph and
/// stream also draws an edge label no query names, so a fleet's routing
/// skips and a standalone engine leaves edges out of its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Endpoints uniform over the vertex set.
    Uniform,
    /// Three edges in four incident to vertex 0, either way.
    Hub,
    /// Three source vertices fanning out to everyone: dense match growth.
    Explosive,
    /// Two identical chains `L0 -10-> L1 -11-> L2 -12-> L3` and random
    /// queries over a chain-aligned graph and stream; a twin is deregistered
    /// and the chain registered again mid-stream.
    ChainTwin,
    /// 80 spokes on one hub, every third onto a vertex the edge creates,
    /// open the stream: the late query registers on a label directory and an
    /// arena with free slots, the references on a compact replay.
    ChurnedHub,
    /// Unlabeled and two-label vertices, parallel edges under two labels,
    /// unlabeled query vertices, one query edge in two a wildcard.
    RichLabel,
}

pub const SHAPES: [Shape; 6] = {
    use Shape::*;
    [Uniform, Hub, Explosive, ChainTwin, ChurnedHub, RichLabel]
};

/// A fleet's mid-stream churn: before the first batch that starts at op
/// `at` or later, engine `victim` is deregistered and `late` registered.
pub struct Churn {
    pub at: usize,
    pub victim: usize,
    pub late: QueryGraph,
}

/// Queries registered on `g0` and a timestamped stream: what every runtime
/// is driven with.
pub struct Scenario {
    pub g0: DynamicGraph,
    pub queries: Vec<QueryGraph>,
    pub events: Vec<StreamEvent>,
    pub churn: Option<Churn>,
}

/// The labels of a new vertex `id`: under `ChainTwin` `id % 4`, which
/// chain-aligned edges rely on.
fn vertex_labels(rng: &mut Pcg32, shape: Shape, id: usize) -> LabelSet {
    match shape {
        Shape::ChainTwin => label(id % 4),
        Shape::RichLabel => match rng.below(6) {
            0 => LabelSet::empty(),
            1 | 2 => [0, 1].map(|_| LabelId(rng.below(3) as u32)).into_iter().collect(),
            _ => label(rng.below(3)),
        },
        _ => label(rng.below(2)),
    }
}

fn query(rng: &mut Pcg32, shape: Shape) -> QueryGraph {
    let (nq, chains) = (2 + rng.below(3) as u32, rng.below(2) == 0);
    let alternating = |_: &mut Pcg32, i: u32| label(i as usize % 2);
    match shape {
        Shape::ChainTwin => random_query(rng, nq + 1, |rng, _| label(rng.below(4)), true, 3, 8),
        Shape::ChurnedHub => random_query(rng, nq, alternating, true, 3, 4),
        Shape::RichLabel => {
            let vlabels = |rng: &mut Pcg32, _| match rng.below(3) {
                0 => LabelSet::empty(),
                _ => label(rng.below(3)),
            };
            random_query(rng, nq, vlabels, chains, 2, 2)
        }
        _ => random_query(rng, nq, alternating, chains, 2, 4),
    }
}

/// The 4-vertex chain `L0 -10-> L1 -11-> L2 -12-> L3`.
fn chain_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(label(i))).collect();
    for k in 0..3 {
        q.add_edge(us[k], us[k + 1], Some(LabelId(10 + k as u32)));
    }
    q
}

/// The growing vertex set, live edges and events a scenario is drawn over.
struct Draw<'r> {
    rng: &'r mut Pcg32,
    shape: Shape,
    labels: Vec<LabelSet>,
    live: Vec<Edge>,
    events: Vec<StreamEvent>,
    ts: u64,
}

impl Draw<'_> {
    fn any(&mut self) -> VertexId {
        VertexId(self.rng.below(self.labels.len()) as u32)
    }

    /// An edge of the shape's skew.
    fn edge(&mut self) -> Edge {
        let wide = matches!(self.shape, Shape::ChainTwin | Shape::ChurnedHub);
        let l = LabelId(10 + self.rng.below(3 + usize::from(wide)) as u32);
        match self.shape {
            Shape::Hub if self.rng.below(2) == 0 => (VertexId(0), l, self.any()),
            Shape::Hub if self.rng.below(2) == 0 => (self.any(), l, VertexId(0)),
            Shape::Explosive => (VertexId(self.rng.below(3) as u32), l, self.any()),
            Shape::ChainTwin if self.rng.below(5) < 3 => {
                // `Lk -(10+k)-> Lk+1`, both ends of the right label unless
                // a straggler line created them.
                let (k, n) = (self.rng.below(3), self.labels.len());
                let mut of =
                    |l: usize| VertexId((l + 4 * self.rng.below((n - l).div_ceil(4))) as u32);
                (of(k), LabelId(10 + k as u32), of(k + 1))
            }
            _ => (self.any(), l, self.any()),
        }
    }

    fn push(&mut self, op: UpdateOp) {
        self.events.push(StreamEvent::new(self.ts, op));
    }

    /// Inserts `edge` — under `RichLabel` one time in three with a parallel
    /// edge under the other of labels 10 and 11.
    fn insert(&mut self, edge: Edge) {
        let rich = self.shape == Shape::RichLabel && self.rng.below(3) == 0;
        let (src, l, dst) = edge;
        let parallel = rich.then(|| (src, LabelId(if l == LabelId(10) { 11 } else { 10 }), dst));
        for (src, label, dst) in std::iter::once(edge).chain(parallel) {
            self.live.push((src, label, dst));
            self.push(UpdateOp::InsertEdge { src, label, dst });
        }
    }

    /// One event, timestamps non-decreasing with frequent ties: a vertex, a
    /// straggler insert (an endpoint nobody announced, sometimes past a gap),
    /// a delete (of a duplicate: a miss), or an insert, one in four repeating
    /// a live edge.
    fn step(&mut self) {
        self.ts += self.rng.below(3) as u64;
        match self.rng.below(12) {
            0 => {
                let id = self.labels.len();
                let labels = vertex_labels(self.rng, self.shape, id);
                self.labels.push(labels.clone());
                self.push(UpdateOp::AddVertex { id: VertexId(id as u32), labels });
            }
            1 => {
                let (near, l, _) = self.edge();
                let far = VertexId((self.labels.len() + self.rng.below(2)) as u32);
                self.labels.resize(far.index() + 1, LabelSet::empty());
                let edge = if self.rng.below(2) == 0 { (near, l, far) } else { (far, l, near) };
                self.insert(edge);
            }
            2 | 3 if !self.live.is_empty() => {
                let (src, label, dst) = self.live.swap_remove(self.rng.below(self.live.len()));
                self.push(UpdateOp::DeleteEdge { src, label, dst });
            }
            _ => {
                let repeat = !self.live.is_empty() && self.rng.below(4) == 0;
                let edge =
                    if repeat { self.live[self.rng.below(self.live.len())] } else { self.edge() };
                self.insert(edge);
            }
        }
    }
}

/// A random scenario of `shape`: 4–11 vertices, 1–3 queries (two twins and
/// one or two more under `ChainTwin`, two under `ChurnedHub`), 12–31 events
/// after the spokes of `ChurnedHub`, then one time in two every live edge
/// deleted in random order. A fleet churns after half of the events — under
/// `ChurnedHub` after 100 ops — always under `ChainTwin` and `ChurnedHub`,
/// otherwise one time in three.
pub fn random_scenario(rng: &mut Pcg32, shape: Shape) -> Scenario {
    let nv = 4 + rng.below(8);
    let labels = (0..nv).map(|id| vertex_labels(rng, shape, id)).collect();
    let mut d = Draw { rng, shape, labels, live: Vec::new(), events: Vec::new(), ts: 0 };
    if shape == Shape::ChainTwin {
        (0..3).for_each(|k| d.insert((VertexId(k), LabelId(10 + k), VertexId(k + 1))));
    }
    for _ in 0..d.rng.below(nv + 3) {
        let edge = d.edge();
        d.insert(edge);
    }
    // What is drawn so far is `g0`.
    let edges = d.live.iter().map(|&(src, l, dst)| EdgeRef::new(src, l, dst)).collect();
    let g0 = DynamicGraph::from_edges(d.labels.clone(), edges);
    d.events.clear();
    let twin = shape == Shape::ChainTwin;
    let mut queries = vec![chain_query(); 2 * usize::from(twin)];
    let n = if shape == Shape::ChurnedHub { 2 } else { 1 + d.rng.below(3 - usize::from(twin)) };
    queries.extend((0..n).map(|_| query(d.rng, shape)));
    if shape == Shape::ChurnedHub {
        let hub = d.any();
        for i in 0..80 {
            let far = if i % 3 == 0 { VertexId(d.labels.len() as u32) } else { d.any() };
            d.labels.resize(d.labels.len().max(far.index() + 1), LabelSet::empty());
            let l = LabelId(10 + d.rng.below(3) as u32);
            d.insert(if i % 3 == 2 { (far, l, hub) } else { (hub, l, far) });
        }
    }
    for _ in 0..12 + d.rng.below(20) {
        d.step();
    }
    if d.rng.below(2) == 0 {
        d.rng.shuffle(&mut d.live);
        for (src, label, dst) in std::mem::take(&mut d.live) {
            d.push(UpdateOp::DeleteEdge { src, label, dst });
        }
    }
    let churn = match shape {
        Shape::ChainTwin => Some((d.rng.below(2), chain_query())),
        Shape::ChurnedHub => Some((0, query(d.rng, shape))),
        _ if d.rng.below(3) == 0 => Some((d.rng.below(queries.len()), query(d.rng, shape))),
        _ => None,
    };
    let at = if shape == Shape::ChurnedHub { 100 } else { d.events.len() / 2 };
    let churn = churn.map(|(victim, late)| Churn { at, victim, late });
    Scenario { g0, queries, events: d.events, churn }
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
pub fn closing_edge_scenario() -> Scenario {
    let (a, b, c, t) = (LabelId(10), LabelId(11), LabelId(12), LabelId(13));
    let mut g = DynamicGraph::new();
    let [s, s2] = [0; 2].map(|_| g.add_vertex(label(0)));
    let [p1, p2, p3, p4] = [0; 4].map(|_| g.add_vertex(label(1)));
    let [d, d2, d3, d4] = [0; 4].map(|_| g.add_vertex(label(2)));
    let [x, x2] = [0; 2].map(|_| g.add_vertex(label(3)));
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
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(label(i))).collect();
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
        .chain(standing.iter().rev().map(delete));
    let events = ops.enumerate().map(|(i, op)| StreamEvent::new(i as u64, op)).collect();
    Scenario { g0: g, queries: vec![q], events, churn: None }
}

/// A stream built to put every hazard of the batch lookahead (`round::apply`,
/// the round loop of both runtimes, hints the ops 2 and 4 rounds ahead) inside
/// one batch, within that distance of each other: an `AddVertex` and the
/// insert that uses it; straggler inserts that grow the vertex table, one by
/// a gap; deletes naming ids no line ever created; a duplicate insert; a
/// label no query names; and a hub grown edge by edge from an empty graph —
/// so the graph arena, the hub's flat run (it unfolds into a directory and
/// folds back) and the DCG pool all move between an op's hints and its round
/// — then torn down again.
pub fn lookahead_hazards() -> Scenario {
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
    // A second straggler, past the hub's leaves; then the hub torn down to
    // below half of FLAT_MAX: the directory folds back.
    ops.push(ins(1, r, 10 + HUB + 3));
    ops.extend((0..HUB - 8).map(|k| del(0, r, 10 + k)));
    ops.extend([del(4, r, 1), del(4, r, 1)]); // the second one is missing
    assert!(ops.len() <= 256, "one default batch holds the scenario: {}", ops.len());

    // The hazards the scenario is for do occur.
    let mut g = g0.clone();
    let (mut unfolded, mut folded, mut grew) = (false, false, 0);
    for op in &ops {
        let (was_dir, before) = (g.is_directory(v(0), Dir::Out), g.vertex_count());
        apply_staged(&mut g, op);
        unfolded |= !was_dir && g.is_directory(v(0), Dir::Out);
        folded |= was_dir && !g.is_directory(v(0), Dir::Out);
        grew += usize::from(g.vertex_count() > before + 1);
    }
    assert!(unfolded && folded && grew >= 2, "{unfolded} {folded} {grew}");

    let events = ops.into_iter().enumerate().map(|(i, op)| StreamEvent::new(i as u64, op));
    Scenario { g0, queries: vec![path(Some(s)), path(None)], events: events.collect(), churn: None }
}

/// A time or count window holding a few events or most of a stream, or
/// none.
fn random_window(rng: &mut Pcg32) -> WindowSpec {
    let n = if rng.below(2) == 0 { 1 + rng.below(6) } else { 32 << rng.below(2) };
    match rng.below(3) {
        0 => WindowSpec::Time { width: n as u64 },
        1 => WindowSpec::Count { capacity: n },
        _ => WindowSpec::Unbounded,
    }
}

pub fn random_policy(rng: &mut Pcg32) -> BatchPolicy {
    BatchPolicy {
        max_ops: 1 + rng.below(7),
        max_ticks: if rng.below(2) == 0 { Some(1 + rng.below(5) as u64) } else { None },
        drain_at_end: rng.below(2) == 0,
    }
}

/// What a driver over a window of `spec` hands its target for `events`,
/// written from `stream::window`'s module doc: expiry deletes precede the op
/// whose time triggers them; a count window evicts once it holds more than
/// `capacity` inserts; eviction is FIFO; an edge inserted several times
/// leaves with its last live instance; an upstream delete cancels every
/// instance; `drain` retires what is left at the end.
pub fn reference_window(events: &[StreamEvent], spec: WindowSpec, drain: bool) -> Vec<UpdateOp> {
    let mut held: VecDeque<(u64, Edge)> = VecDeque::new();
    let mut out = Vec::new();
    let retire = |held: &mut VecDeque<(u64, Edge)>, out: &mut Vec<UpdateOp>| {
        let (_, (src, label, dst)) = held.pop_front().expect("a held insert");
        if !held.iter().any(|h| h.1 == (src, label, dst)) {
            out.push(UpdateOp::DeleteEdge { src, label, dst });
        }
    };
    for ev in events {
        if let WindowSpec::Time { width } = spec {
            while held.front().is_some_and(|h| h.0.saturating_add(width) <= ev.ts) {
                retire(&mut held, &mut out);
            }
        }
        out.push(ev.op.clone());
        match ev.op {
            UpdateOp::InsertEdge { src, label, dst } => {
                held.push_back((ev.ts, (src, label, dst)));
                while matches!(spec, WindowSpec::Count { capacity } if held.len() > capacity) {
                    retire(&mut held, &mut out);
                }
            }
            UpdateOp::DeleteEdge { src, label, dst } => held.retain(|h| h.1 != (src, label, dst)),
            UpdateOp::AddVertex { .. } => {}
        }
    }
    while drain && !held.is_empty() {
        retire(&mut held, &mut out);
    }
    out
}

/// `op` applied to a bare graph as `round::stage` applies it to a runtime's:
/// an insert creates the endpoints nobody announced, label-less.
fn apply_staged(g: &mut DynamicGraph, op: &UpdateOp) {
    if let UpdateOp::InsertEdge { src, dst, .. } = *op {
        g.ensure_vertex(src.max(dst), LabelSet::empty());
    }
    g.apply(op);
}

/// True iff some edge of `q` can match a data edge labeled `label`: the
/// labels a standalone engine over `q` stores.
pub fn sees(q: &QueryGraph, label: LabelId) -> bool {
    q.edges().iter().any(|e| e.label.is_none_or(|l| l == label))
}

/// Per query, the ops of `ops` on a label it cannot see that a graph of
/// every label would act on: `[deletes of g0 edges, inserts that create an
/// endpoint]`. Its standalone engine keeps both out of its graph.
fn unseen_ops(s: &Scenario, ops: &[UpdateOp]) -> [usize; 2] {
    let mut unseen = [0; 2];
    for q in &s.queries {
        let mut g = s.g0.clone();
        for op in ops {
            match *op {
                UpdateOp::DeleteEdge { src, label, dst }
                    if !sees(q, label) && s.g0.has_edge(src, label, dst) =>
                {
                    unseen[0] += usize::from(g.has_edge(src, label, dst));
                }
                UpdateOp::InsertEdge { src, label, dst } if !sees(q, label) => {
                    unseen[1] += usize::from(!g.contains_vertex(src.max(dst)));
                }
                _ => {}
            }
            apply_staged(&mut g, op);
        }
    }
    unseen
}

/// `g0` after `ops`.
pub fn replay_graph(g0: &DynamicGraph, ops: &[UpdateOp]) -> DynamicGraph {
    let mut g = g0.clone();
    ops.iter().for_each(|op| apply_staged(&mut g, op));
    g
}

/// What `NaiveRecompute` reports for one query from one graph on: its
/// initial matches, and per op the signed match set.
struct Naive {
    initial: HashSet<MatchRecord>,
    per_op: Vec<HashSet<(Positiveness, MatchRecord)>>,
}

impl Naive {
    fn new(q: &QueryGraph, g: &DynamicGraph, ops: &[UpdateOp], semantics: MatchSemantics) -> Self {
        let mut naive = NaiveRecompute::new(q.clone(), g.clone(), semantics);
        let mut initial = HashSet::new();
        naive.initial_matches(&mut |r| assert!(initial.insert(r.clone())));
        let per_op = ops.iter().map(|op| {
            if let UpdateOp::InsertEdge { src, dst, .. } = *op {
                let straggler = UpdateOp::AddVertex { id: src.max(dst), labels: LabelSet::empty() };
                naive.apply(&straggler, &mut |_, _| {});
            }
            let mut want = HashSet::new();
            naive.apply(op, &mut |p, r| assert!(want.insert((p, r.clone()))));
            want
        });
        Naive { initial, per_op: per_op.collect() }
    }

    /// Holds one standalone engine's run — its initial matches, its deltas in
    /// op order, ops numbered from `base` — against the recompute.
    fn assert_agrees(&self, init: &[MatchRecord], deltas: &[Delta], base: usize, ctx: &str) {
        assert_eq!(init.len(), self.initial.len(), "{ctx}: initial match count");
        assert_eq!(init.iter().cloned().collect::<HashSet<_>>(), self.initial, "{ctx}: initial");
        let mut deltas = deltas.iter().peekable();
        for (i, want) in self.per_op.iter().enumerate() {
            let op = base + i;
            let here: Vec<_> = std::iter::from_fn(|| deltas.next_if(|d| d.0 == op))
                .map(|d| (d.2, d.3.clone()))
                .collect();
            assert_eq!(here.len(), want.len(), "{ctx}: op {op}: delta count");
            assert_eq!(&here.into_iter().collect::<HashSet<_>>(), want, "{ctx}: op {op}");
        }
        assert_eq!(deltas.next(), None, "{ctx}: a delta past the last op");
    }
}

/// What the driver handed a runtime, batch by batch, and what came back.
#[derive(Default)]
struct Recording {
    batches: Vec<usize>,
    ops: Vec<UpdateOp>,
    deltas: Vec<Delta>,
}

impl DeltaSink for Recording {
    fn on_ops(&mut self, _batch: usize, ops: &[UpdateOp]) {
        self.batches.push(ops.len());
        self.ops.extend_from_slice(ops);
    }

    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        self.deltas.push((d.global_op, d.engine, d.positiveness, d.record.clone()));
    }
}

/// A runtime under the driver, and the harness's hook, run before every
/// batch with the ops applied so far.
struct Hooked<T, F> {
    rt: T,
    applied: usize,
    hook: F,
}

impl<T: BatchTarget, F: FnMut(&mut T, usize)> Hooked<T, F> {
    fn new(rt: T, hook: F) -> Self {
        Hooked { rt, applied: 0, hook }
    }
}

impl<T: BatchTarget, F: FnMut(&mut T, usize)> BatchTarget for Hooked<T, F> {
    fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        (self.hook)(&mut self.rt, self.applied);
        BatchTarget::apply_batch(&mut self.rt, ops, sink);
        self.applied += ops.len();
    }
}

fn drive(rt: &mut dyn BatchTarget, ev: &[StreamEvent], w: WindowSpec, p: BatchPolicy) -> Recording {
    let mut driver = StreamDriver::new(SlidingWindow::new(w), p);
    let mut rec = Recording::default();
    driver.run(&mut VecSource::new(ev.to_vec()), rt, &mut rec).expect("a vec source");
    assert!(!p.drain_at_end || driver.window().live_len() == 0, "a drained window");
    rec
}

/// A standalone engine's hook: its DCG against the declarative reference.
fn assert_dcg(engine: &mut TurboFlux, _applied: usize) {
    engine.dcg().check_consistency();
    let want = reference_dcg(engine.graph(), engine.query(), engine.query_tree());
    assert_eq!(engine.dcg().snapshot(), want, "the DCG diverged from the reference");
}

/// What one [`assert_equivalent`] call saw.
pub struct Outcome {
    /// The standalone engines' deltas, query by query, each in op order.
    pub deltas: Vec<Delta>,
    pub ops_skipped: u64,
    /// [`unseen_ops`] of the window's output.
    pub unseen: [usize; 2],
    /// Whether the fleet churned and, if so, whether on a churned layout.
    pub late: Option<bool>,
}

/// The comparator: `s` under `semantics`, a window of `spec` and `policy`,
/// on every runtime (module doc).
pub fn assert_equivalent(
    s: &Scenario,
    semantics: MatchSemantics,
    spec: WindowSpec,
    policy: BatchPolicy,
) -> Outcome {
    let ctx = format!("{semantics:?}, {spec:?}, {policy:?}");
    let ops = reference_window(&s.events, spec, policy.drain_at_end);
    let g_end = replay_graph(&s.g0, &ops);
    let naive: Vec<_> = s.queries.iter().map(|q| Naive::new(q, &s.g0, &ops, semantics)).collect();
    let run = |rt: &mut dyn BatchTarget, policy| {
        let rec = drive(rt, &s.events, spec, policy);
        assert_eq!(rec.ops, ops, "{ctx}: the window's output");
        rec
    };
    // A runtime's graph against the replay `want`.
    let same_graph = |g: &DynamicGraph, want: &DynamicGraph| {
        g.validate();
        assert_eq!(g.vertex_count(), want.vertex_count(), "{ctx}: one graph, vertices");
        assert!(g.edges().eq(want.edges()), "{ctx}: one graph, edges");
    };
    // Every query on a standalone engine of its own, each held against its
    // recompute: deltas tagged with their query, batches.
    let cfg = TurboFluxConfig::with_semantics(semantics);
    let alone = |policy| {
        let (mut deltas, mut batches) = (Vec::new(), Vec::new());
        for (id, q) in s.queries.iter().enumerate() {
            let mut engine = TurboFlux::new(q.clone(), s.g0.clone(), cfg);
            let mut init = Vec::new();
            engine.report_initial(&mut |r| init.push(r.clone()));
            let mut rt = Hooked::new(engine, assert_dcg);
            let rec = run(&mut rt, policy);
            assert_dcg(&mut rt.rt, 0);
            same_graph(rt.rt.graph(), &g_end.clone().project(|label| sees(q, label)));
            let ctx = format!("{ctx}, query {id} alone under {policy:?}");
            naive[id].assert_agrees(&init, &rec.deltas, 0, &ctx);
            deltas.extend(rec.deltas.into_iter().map(|(op, _, p, r)| (op, id, p, r)));
            batches = rec.batches;
        }
        (deltas, batches)
    };

    // One op per batch, where nothing is ever hinted ahead: batching changes
    // no standalone engine's deltas.
    let unbatched = BatchPolicy { max_ops: 1, ..policy };
    let (want, batches) = alone(policy);
    assert_eq!(want, alone(unbatched).0, "{ctx}: batching changed the deltas");
    // A multi-engine runtime delivers batch by batch, engine by engine.
    let batch_of: Vec<usize> = batches.iter().enumerate().flat_map(|(b, &n)| vec![b; n]).collect();
    let delivered = |mut deltas: Vec<Delta>| {
        deltas.sort_by_key(|d| (batch_of[d.0], d.1));
        deltas
    };

    let mut fleet = Fleet::new(s.g0.clone());
    s.queries.iter().for_each(|q| {
        fleet.register(q.clone(), cfg);
    });
    // The graph at every batch boundary against `g0` replayed so far; ops
    // applied before the churn, and whether the late query met a churned
    // layout: a label directory, free arena slots, 20 vertices created.
    let (mut replayed, mut churned) = ((0, s.g0.clone()), None);
    let mut rt = Hooked::new(fleet, |fleet: &mut Fleet, applied| {
        let (at, g) = &mut replayed;
        ops[*at..applied].iter().for_each(|op| apply_staged(g, op));
        *at = applied;
        same_graph(fleet.graph(), g);
        match &s.churn {
            Some(c) if churned.is_none() && applied >= c.at => {
                assert!(fleet.deregister(c.victim));
                let (st, n) = (fleet.graph().storage_stats(), fleet.graph().vertex_count());
                let id = fleet.register(c.late.clone(), cfg);
                assert_eq!(id, s.queries.len(), "a fresh id");
                let grown = n > s.g0.vertex_count() + 20;
                churned = Some((applied, st.directory_runs > 0 && st.free_slots > 0 && grown));
            }
            _ => {}
        }
    });
    let rec = run(&mut rt, policy);
    let fleet = rt.rt;
    same_graph(fleet.graph(), &g_end);
    assert_eq!(rec.batches, batches, "{ctx}: the driver's batches");
    let mut want_fleet = want.clone();
    if let (Some(c), Some((k, _))) = (&s.churn, churned) {
        want_fleet.retain(|d| d.1 != c.victim || d.0 < k);
        // The late query alone on a compact replay of the graph the fleet
        // registered it on, and against the recompute from there.
        let g_k = replay_graph(&s.g0, &ops[..k]);
        let mut engine = TurboFlux::new(c.late.clone(), g_k.clone(), cfg);
        let mut init = Vec::new();
        engine.report_initial(&mut |r| init.push(r.clone()));
        let tail: Vec<_> = ops[k..].iter().map(|op| StreamEvent::new(0, op.clone())).collect();
        let mut rt = Hooked::new(engine, assert_dcg);
        let rec = drive(&mut rt, &tail, WindowSpec::Unbounded, BatchPolicy::by_ops(1));
        let late: Vec<_> =
            rec.deltas.into_iter().map(|(op, _, p, r)| (k + op, s.queries.len(), p, r)).collect();
        let ctx = format!("{ctx}, late query from op {k}");
        Naive::new(&c.late, &g_k, &ops[k..], semantics).assert_agrees(&init, &late, k, &ctx);
        want_fleet.extend(late);
    }
    assert_eq!(rec.deltas, delivered(want_fleet), "{ctx}: Fleet != the standalone engines");
    let (ops_skipped, late) = (fleet.stats().ops_skipped, churned.map(|c| c.1));
    Outcome { deltas: want, ops_skipped, unseen: unseen_ops(s, &ops), late }
}

/// What a test's scenarios exercised, for its non-vacuity checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub with_deltas: usize,
    pub cyclic: usize,
    pub ops_skipped: u64,
    pub unseen: [usize; 2],
    pub late: usize,
    pub late_on_churned: usize,
}

impl Tally {
    pub fn add(&mut self, s: &Scenario, o: &Outcome) {
        self.with_deltas += usize::from(!o.deltas.is_empty());
        let queries = s.queries.iter().chain(s.churn.iter().map(|c| &c.late));
        self.cyclic += queries.filter(|q| q.edge_count() >= q.vertex_count()).count();
        self.ops_skipped += o.ops_skipped;
        (0..2).for_each(|i| self.unseen[i] += o.unseen[i]);
        self.late += usize::from(o.late.is_some());
        self.late_on_churned += usize::from(o.late == Some(true));
    }

    /// The floor every randomized test holds: `with_deltas` scenarios
    /// produced matches, five queries were cyclic, routing skipped an engine,
    /// a standalone engine left a g0 edge's delete and an endpoint-creating
    /// insert on a label it cannot see out of its graph, and a fleet
    /// registered a late query.
    pub fn assert_exercised(&self, with_deltas: usize) {
        assert!(self.with_deltas >= with_deltas, "too few scenarios with deltas: {self:?}");
        assert!(self.cyclic >= 5, "too few cyclic queries: {self:?}");
        assert!(self.ops_skipped > 0, "routing never skipped an engine: {self:?}");
        assert!(self.unseen[0] > 0, "no unseen g0 edge was deleted: {self:?}");
        assert!(self.unseen[1] > 0, "no unseen insert created a vertex: {self:?}");
        assert!(self.late > 0, "no late registration: {self:?}");
    }
}

/// Draws `rounds` scenarios, cycling through `shapes`, and checks each under
/// `sem`, a random window and a random batch policy.
pub fn check_random(seed: u64, shapes: &[Shape], sem: MatchSemantics, rounds: usize) -> Tally {
    let mut rng = Pcg32::new(seed);
    let mut tally = Tally::default();
    for round in 0..rounds {
        let s = random_scenario(&mut rng, shapes[round % shapes.len()]);
        let (spec, policy) = (random_window(&mut rng), random_policy(&mut rng));
        tally.add(&s, &assert_equivalent(&s, sem, spec, policy));
    }
    tally
}
