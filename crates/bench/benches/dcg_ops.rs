//! DCG maintenance and the two engine-level cases `e2e` has no workload
//! for, over the arena storage layout.
//!
//! Two workload shapes stress the two run representations:
//!
//! * `uniform` — thousands of parents with 2 children each: every run fits
//!   the inline layout, so this guards the common low-fanout case against
//!   regressions from the pool indirection;
//! * `hub` — a handful of parents with a 512-edge fanout: runs live in
//!   pool slots and every insert/delete binary-searches and shifts inside
//!   one contiguous slot (the pre-arena layout paid a linear scan over a
//!   per-run `Vec` here).
//!
//! Three phases mirror the engine's hot paths: `insert_delete` (BuildDCG /
//! ClearDCG churn — the full cycle is self-inverting so nothing is cloned
//! inside the measurement loop and pool slots recycle through the free
//! lists), `transit` (Transitions 0–5 state flips on standing edges —
//! a flip moves the entry across its out-run's explicit | implicit split
//! and writes nothing on the in side, so this group also carries `run64` /
//! `run1024`, one run flipped entry by entry in the order that makes every
//! move span the whole run), and `climb_enumerate` (the climb's in-run walk
//! plus the `SubgraphSearch` walk over an out-run's explicit slice).
//!
//! `deep_edge_enum` is engine-level: an update matching the deepest tree
//! edge of a path query, where every match is one climb chain and the
//! search under it enumerates nothing — what a match costs there is the
//! climb plus the re-validation of the climbed bindings, the part of the
//! enumeration path `e2e` cannot isolate.
//!
//! `hub_eval` is engine-level too, on the skewed hub workload (`e2e` has no
//! hub stream yet): every stream insert gives a hub its first incoming
//! `feed` edge, so `BuildDCG`'s check-and-avoid rule re-enumerates the hub's
//! children on each update, walking the 4-edge `probe` label group next to
//! ~8k bulk edges. The stream is self-inverting (insert+delete pairs), so
//! graph, DCG and engine return to their initial state every pass and
//! nothing is cloned inside the measurement loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_core::{Dcg, EdgeState, TurboFlux, TurboFluxConfig};
use tfx_datagen::{hub, HubConfig};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};
use tfx_query::{QVertexId, QueryGraph};

const NQ: usize = 8;

type Edge = (VertexId, QVertexId, VertexId);

/// (name, edges) per shape; edges are distinct (parent, u, child) triples.
fn shapes() -> Vec<(&'static str, Vec<Edge>)> {
    // Uniform: 4096 parents, 2 children each — inline runs on both sides.
    let uniform: Vec<_> = (0..4096u32)
        .flat_map(|p| {
            (0..2u32).map(move |j| {
                let u = QVertexId(1 + (p % 7));
                (VertexId(p), u, VertexId(4096 + (p * 2 + j * 1017) % 8192))
            })
        })
        .collect();
    // Hub: 16 parents, one 512-edge run each — pooled runs, and children
    // shared across hubs so the in-edge side grows multi-entry runs too.
    let hub: Vec<_> = (0..16u32)
        .flat_map(|h| {
            (0..512u32).map(move |j| {
                let u = QVertexId(1 + (h % 7));
                (VertexId(h), u, VertexId(64 + (h * 37 + j * 13) % 2048))
            })
        })
        .collect();
    vec![("uniform", uniform), ("hub", hub)]
}

/// BuildDCG/ClearDCG churn: insert every edge, then delete in reverse.
/// Self-inverting, so the warmed arena recycles its slots every pass.
fn dcg_insert_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcg_insert_delete");
    for (name, edges) in shapes() {
        group.throughput(Throughput::Elements(2 * edges.len() as u64));
        let mut dcg = Dcg::new(NQ, QVertexId(0));
        group.bench_function(name, |b| {
            b.iter(|| {
                for &(pv, u, cv) in &edges {
                    dcg.transit(Some(pv), u, cv, Some(EdgeState::Implicit));
                }
                for &(pv, u, cv) in edges.iter().rev() {
                    dcg.transit(Some(pv), u, cv, None);
                }
                black_box(dcg.stored_edge_count())
            });
        });
        assert_eq!(dcg.stored_edge_count(), 0);
    }
    group.finish();
}

/// One parent with one run of `n` children, listed in descending id order:
/// flipped I → E in that order every entry leaves the far end of the
/// implicit partition for the front of the explicit one, and flipped back
/// in reverse every entry leaves the front for the far end — each flip
/// rotates the whole run, where a stored state word was one write in place.
fn one_run(n: u32) -> Vec<Edge> {
    (0..n).rev().map(|j| (VertexId(0), QVertexId(1), VertexId(64 + j))).collect()
}

/// Transitions 0–5 on standing edges: implicit → explicit, then back in
/// reverse order.
fn dcg_transit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcg_transit_states");
    let runs = [("run64", one_run(64)), ("run1024", one_run(1024))];
    for (name, edges) in shapes().into_iter().chain(runs) {
        group.throughput(Throughput::Elements(2 * edges.len() as u64));
        let mut dcg = Dcg::new(NQ, QVertexId(0));
        for &(pv, u, cv) in &edges {
            dcg.transit(Some(pv), u, cv, Some(EdgeState::Implicit));
        }
        group.bench_function(name, |b| {
            b.iter(|| {
                for &(pv, u, cv) in &edges {
                    dcg.transit(Some(pv), u, cv, Some(EdgeState::Explicit));
                }
                for &(pv, u, cv) in edges.iter().rev() {
                    dcg.transit(Some(pv), u, cv, Some(EdgeState::Implicit));
                }
                black_box(dcg.take_dirty_expl())
            });
        });
    }
    group.finish();
}

/// The upward climb (in-run walks from every child) plus the
/// `SubgraphSearch` explicit-out enumeration from every parent.
fn dcg_climb_enumerate(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcg_climb_enumerate");
    for (name, edges) in shapes() {
        let mut dcg = Dcg::new(NQ, QVertexId(0));
        for (i, &(pv, u, cv)) in edges.iter().enumerate() {
            let st = if i % 3 == 0 { EdgeState::Explicit } else { EdgeState::Implicit };
            dcg.transit(Some(pv), u, cv, Some(st));
        }
        let mut ins: Vec<(VertexId, QVertexId)> = edges.iter().map(|&(_, u, cv)| (cv, u)).collect();
        ins.sort_unstable_by_key(|&(v, u)| (v.0, u.0));
        ins.dedup();
        let mut outs: Vec<(VertexId, QVertexId)> =
            edges.iter().map(|&(pv, u, _)| (pv, u)).collect();
        outs.sort_unstable_by_key(|&(v, u)| (v.0, u.0));
        outs.dedup();
        group.throughput(Throughput::Elements(2 * edges.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut n = 0u64;
                for &(cv, u) in &ins {
                    for pv in dcg.in_edges(cv, u) {
                        n = n.wrapping_add(pv.0 as u64);
                    }
                }
                for &(pv, u) in &outs {
                    for w in dcg.out_explicit(pv, u) {
                        n = n.wrapping_add(w.0 as u64);
                    }
                }
                black_box(n)
            });
        });
    }
    group.finish();
}

/// 256 chains `A_i -a-> B_i -b-> x` under the path query
/// `A -a-> B -b-> C -c-> D`; the measured pair inserts and deletes
/// `x -c-> y`, which matches the deepest tree edge: 256 positive, then 256
/// negative matches, each found by its own climb to a root, with every
/// query vertex bound before `SubgraphSearch` starts. A standing
/// `x -c-> y0` keeps every climbed edge explicit throughout, so the pair
/// flips no DCG state above the edge it adds and removes.
fn deep_edge_enum(c: &mut Criterion) {
    const CHAINS: u32 = 256;
    let l = |i| LabelSet::single(LabelId(i));
    let (a, b, c_label) = (LabelId(10), LabelId(11), LabelId(12));
    let mut g = DynamicGraph::new();
    let (x, y, y0) = (g.add_vertex(l(2)), g.add_vertex(l(3)), g.add_vertex(l(3)));
    g.insert_edge(x, c_label, y0);
    for _ in 0..CHAINS {
        let (top, mid) = (g.add_vertex(l(0)), g.add_vertex(l(1)));
        g.insert_edge(top, a, mid);
        g.insert_edge(mid, b, x);
        // Standing `c` edges nothing reaches, and one `B` more than `A`s:
        // `a` is the most selective edge and its `A` end the start vertex.
        let (far_c, far_d) = (g.add_vertex(l(2)), g.add_vertex(l(3)));
        g.insert_edge(far_c, c_label, far_d);
    }
    g.add_vertex(l(1));
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..4).map(|i| q.add_vertex(l(i))).collect();
    for (i, label) in [a, b, c_label].into_iter().enumerate() {
        q.add_edge(us[i], us[i + 1], Some(label));
    }
    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
    assert_eq!(engine.query_tree().root(), us[0], "the updated edge is three levels down");
    let pair = [
        UpdateOp::InsertEdge { src: x, label: c_label, dst: y },
        UpdateOp::DeleteEdge { src: x, label: c_label, dst: y },
    ];
    let run = |engine: &mut TurboFlux| {
        let mut n = 0u64;
        for op in &pair {
            engine.apply_op(op, &mut |_, _| n += 1);
        }
        n
    };
    assert_eq!(run(&mut engine), 2 * CHAINS as u64, "one match per chain and sign");
    let mut group = c.benchmark_group("deep_edge_enum");
    group.throughput(Throughput::Elements(2 * CHAINS as u64));
    group.bench_function("path4", |bench| bench.iter(|| black_box(run(&mut engine))));
    group.finish();
}

fn hub_eval(c: &mut Criterion) {
    let d = hub::generate(&HubConfig::with_spokes_per_hub(8192));
    let q = hub::probe_query(&d);
    let ops: Vec<UpdateOp> = d.stream.ops().to_vec();

    let mut group = c.benchmark_group("hub_eval");
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.sample_size(10);
    // Externally driven mode: one graph, one engine, reused across
    // iterations — the insert/delete pairs restore both exactly.
    let mut g = d.g0.clone();
    let mut e = TurboFlux::register(q, &g, TurboFluxConfig::default());
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for op in &ops {
                match *op {
                    UpdateOp::InsertEdge { src, label, dst } => {
                        g.insert_edge(src, label, dst);
                        e.eval_inserted_edge(&g, src, label, dst, &mut |_, _| n += 1);
                    }
                    UpdateOp::DeleteEdge { src, label, dst } => {
                        e.eval_deleting_edge(&g, src, label, dst, &mut |_, _| n += 1);
                        g.delete_edge(src, label, dst);
                    }
                    UpdateOp::AddVertex { .. } => unreachable!("hub stream is edges only"),
                }
            }
            black_box(n)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    dcg_insert_delete,
    dcg_transit,
    dcg_climb_enumerate,
    deep_edge_enum,
    hub_eval
);
criterion_main!(benches);
