//! The two engine-level DCG cases `e2e` has no workload for. The DCG keeps
//! no runs of its own — its edges are the data graph's label groups under
//! per-`(u, v)` bits and counts — so there is no store to measure apart from
//! the engine.
//!
//! `deep_edge_enum`: an update matching the deepest tree edge of a path
//! query, where every match is one climb chain and the search under it
//! enumerates nothing — what a match costs there is the climb plus the
//! re-validation of the climbed bindings, the part of the enumeration path
//! `e2e` cannot isolate.
//!
//! `hub_eval`, on the skewed hub workload (`e2e` has no hub stream yet):
//! every stream insert gives a hub its first incoming `feed` edge, so
//! `BuildDCG`'s check-and-avoid rule re-enumerates the hub's children on
//! each update, walking the 4-edge `probe` label group next to ~8k bulk
//! edges. The stream is self-inverting (insert+delete pairs), so graph, DCG
//! and engine return to their initial state every pass and nothing is
//! cloned inside the measurement loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_datagen::{hub, HubConfig};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp};
use tfx_query::QueryGraph;

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

criterion_group!(benches, deep_edge_enum, hub_eval);
criterion_main!(benches);
