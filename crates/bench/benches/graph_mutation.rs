//! `DynamicGraph::insert_edge` / `delete_edge` alone — the layer `e2e`
//! reports as `graph.ns_per_mutation`, without a stream, a window or an
//! engine around it:
//!
//! * `netflow_window` — a netflow-shaped sliding window over
//!   `e2e ingest_selective`'s graph, crossing every arena size class and the
//!   flat ↔ directory boundary;
//! * `hub_<degree>` — one insert+delete pair on a hub of out-degree 256 /
//!   8 192 / 65 536 over 8 labels (the guard that a hub's update shifts one
//!   label group, not its whole degree).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_datagen::{netflow, NetflowConfig, Pcg32};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};

fn graph_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_mutation");

    // `e2e ingest_selective`'s graph: 20 k hosts, 500 k flows loaded, then a
    // 32 768-flow window sliding over the other 500 k — each step inserts
    // the next flow and expires the oldest. The generator never repeats a
    // flow, so the cursor wraps forever without resetting the graph.
    const WINDOW: usize = 32_768;
    const STEPS: usize = 8_192;
    let d = netflow::generate(&NetflowConfig {
        hosts: 20_000,
        flows: 1_000_000,
        seed: 2018,
        stream_frac: 0.5,
    });
    let flows: Vec<(VertexId, LabelId, VertexId)> = d
        .stream
        .ops()
        .iter()
        .filter_map(|op| match *op {
            UpdateOp::InsertEdge { src, label, dst } => Some((src, label, dst)),
            _ => None,
        })
        .collect();
    let mut g = d.g0.clone();
    for &(s, l, t) in &flows[..WINDOW] {
        g.insert_edge(s, l, t);
    }
    let mut oldest = 0usize;
    group.throughput(Throughput::Elements(2 * STEPS as u64));
    group.bench_function("netflow_window", |b| {
        b.iter(|| {
            for _ in 0..STEPS {
                let (s, l, t) = flows[(oldest + WINDOW) % flows.len()];
                black_box(g.insert_edge(s, l, t));
                let (s, l, t) = flows[oldest];
                black_box(g.delete_edge(s, l, t));
                oldest = (oldest + 1) % flows.len();
            }
        });
    });

    // One insert+delete pair at a pseudo-random rank of one of the hub's
    // eight label groups; spokes sit on even ids, probes on odd ones.
    group.throughput(Throughput::Elements(1));
    for degree in [256u32, 8_192, 65_536] {
        let mut g = DynamicGraph::new();
        for _ in 0..=2 * degree {
            g.add_vertex(LabelSet::empty());
        }
        let hub = VertexId(2 * degree);
        for i in 0..degree {
            g.insert_edge(hub, LabelId(i % 8), VertexId(2 * i));
        }
        let mut rng = Pcg32::new(degree as u64);
        group.bench_function(format!("hub_{degree}"), |b| {
            b.iter(|| {
                let i = rng.below(degree as usize) as u32;
                let (label, probe) = (LabelId(i % 8), VertexId(2 * i + 1));
                black_box(g.insert_edge(hub, label, probe));
                black_box(g.delete_edge(hub, label, probe));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, graph_mutation);
criterion_main!(benches);
