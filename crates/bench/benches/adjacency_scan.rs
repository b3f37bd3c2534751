//! The label-partitioned adjacency index.
//!
//! Two layers:
//!
//! * `adjacency_lookup` — the raw accessor: enumerate a hub's rare `probe`
//!   group (and a uniform lsbench vertex's neighbors) through
//!   [`AdjacencyMode::Indexed`] vs [`AdjacencyMode::FlatScan`], the
//!   reference path the spec oracle reads. Same storage, two access paths,
//!   identical output order.
//! * `hub_eval` — the engine-level hot path on the skewed hub workload:
//!   every stream insert gives a hub its first incoming `feed` edge, so
//!   `BuildDCG`'s check-and-avoid rule re-enumerates the hub's children on
//!   each update, walking the 4-edge `probe` group next to ~8k bulk edges.
//!   The stream is self-inverting (insert+delete pairs), so graph, DCG, and
//!   engine return to their initial state every pass and nothing is cloned
//!   inside the measurement loop.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_datagen::{hub, lsbench, HubConfig, LsBenchConfig};
use tfx_graph::{AdjacencyMode, UpdateOp, VertexId};

fn adjacency_lookup(c: &mut Criterion) {
    let cfg = HubConfig::with_spokes_per_hub(2048);
    let d = hub::generate(&cfg);
    let probe = d.interner.get("probe").unwrap();
    let hubs: Vec<VertexId> = (0..cfg.hubs).map(|h| VertexId((cfg.sources + h) as u32)).collect();

    let mut group = c.benchmark_group("adjacency_lookup");
    group.throughput(Throughput::Elements(hubs.len() as u64));
    for mode in [AdjacencyMode::Indexed, AdjacencyMode::FlatScan] {
        group.bench_function(format!("hub_probe/{mode:?}"), |b| {
            b.iter(|| {
                let mut n = 0u64;
                for &h in &hubs {
                    for v in d.g0.out_neighbors_matching(h, Some(probe), mode) {
                        n = n.wrapping_add(v.0 as u64);
                    }
                }
                black_box(n)
            });
        });
    }

    // Uniform low-degree graph: both paths touch the same handful of
    // entries, so this guards against the index slowing the common case.
    let u = lsbench::generate(&LsBenchConfig { users: 200, seed: 7, stream_frac: 0.1 });
    let g = u.final_graph();
    let label = u.interner.get("follows").or_else(|| u.interner.get("knows"));
    let vertices: Vec<VertexId> = g.vertices().collect();
    group.throughput(Throughput::Elements(vertices.len() as u64));
    for mode in [AdjacencyMode::Indexed, AdjacencyMode::FlatScan] {
        group.bench_function(format!("uniform/{mode:?}"), |b| {
            b.iter(|| {
                let mut n = 0u64;
                for &v in &vertices {
                    for w in g.out_neighbors_matching(v, label, mode) {
                        n = n.wrapping_add(w.0 as u64);
                    }
                }
                black_box(n)
            });
        });
    }
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

criterion_group!(benches, adjacency_lookup, hub_eval);
criterion_main!(benches);
