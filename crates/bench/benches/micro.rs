//! Criterion micro-benchmarks for the core building blocks:
//!
//! * `dcg_transit` — raw DCG edge state transitions,
//! * `build_dcg` — initial DCG construction, scaling with `|E(g)| · |V(q)|`
//!   (Lemma 4.1),
//! * `insert_throughput` / `delete_throughput` — per-engine update costs on
//!   the LSBench-like stream,
//! * `subgraph_search` — enumeration rate on a match-heavy query,
//! * `static_match` — the backtracking matcher used by the baselines,
//! * `graph_mutation` — `DynamicGraph::insert_edge` / `delete_edge` alone:
//!   a netflow-shaped sliding window (the layer `e2e` reports as
//!   `graph.ns_per_mutation`) and one insert+delete pair on a hub of
//!   out-degree 256 / 8 192 / 65 536 over 8 labels (the guard that a hub's
//!   update shifts one label group, not its whole degree).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use tfx_baselines::{Graphflow, SjTree};
use tfx_core::{Dcg, EdgeState, TurboFlux, TurboFluxConfig};
use tfx_datagen::{lsbench, netflow, queries, LsBenchConfig, NetflowConfig, Pcg32};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};
use tfx_query::{ContinuousMatcher, MatchSemantics, QVertexId};

fn dcg_transit(c: &mut Criterion) {
    let mut group = c.benchmark_group("dcg_transit");
    group.throughput(Throughput::Elements(1));
    group.bench_function("set_implicit_then_clear", |b| {
        let mut dcg = Dcg::new(8, QVertexId(0));
        let mut i = 0u32;
        b.iter(|| {
            let pv = VertexId(i % 1024);
            let cv = VertexId((i * 7 + 1) % 1024);
            dcg.transit(Some(pv), QVertexId(1 + (i % 7)), cv, Some(EdgeState::Implicit));
            dcg.transit(Some(pv), QVertexId(1 + (i % 7)), cv, Some(EdgeState::Explicit));
            dcg.transit(Some(pv), QVertexId(1 + (i % 7)), cv, None);
            i = i.wrapping_add(1);
        });
    });
    group.finish();
}

fn build_dcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("build_dcg_initial");
    for users in [100usize, 200, 400] {
        let d = lsbench::generate(&LsBenchConfig { users, seed: 7, stream_frac: 0.1 });
        let mut rng = Pcg32::new(11);
        let q = queries::random_tree_query(&d.schema, 6, &mut rng);
        group.throughput(Throughput::Elements(d.g0.edge_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(users), &users, |b, _| {
            b.iter(|| {
                let e = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
                black_box(e.dcg().stored_edge_count())
            });
        });
    }
    group.finish();
}

fn insert_throughput(c: &mut Criterion) {
    let d = lsbench::generate(&LsBenchConfig { users: 200, seed: 7, stream_frac: 0.1 });
    let mut rng = Pcg32::new(13);
    let q = queries::random_tree_query(&d.schema, 6, &mut rng);
    let ops: Vec<_> = d.stream.ops().to_vec();

    let mut group = c.benchmark_group("insert_throughput");
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.sample_size(10);
    group.bench_function("turboflux", |b| {
        b.iter(|| {
            let mut e = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
            let mut n = 0u64;
            for op in &ops {
                e.apply(op, &mut |_, _| n += 1);
            }
            black_box(n)
        });
    });
    group.bench_function("graphflow", |b| {
        b.iter(|| {
            let mut e = Graphflow::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism);
            let mut n = 0u64;
            for op in &ops {
                e.apply(op, &mut |_, _| n += 1);
            }
            black_box(n)
        });
    });
    group.bench_function("sj_tree", |b| {
        b.iter(|| {
            let mut e = SjTree::with_budget(
                q.clone(),
                d.g0.clone(),
                MatchSemantics::Homomorphism,
                20_000_000,
            );
            let mut n = 0u64;
            for op in &ops {
                e.apply(op, &mut |_, _| n += 1);
            }
            black_box(n)
        });
    });
    group.finish();
}

fn delete_throughput(c: &mut Criterion) {
    let mut d = lsbench::generate(&LsBenchConfig { users: 200, seed: 7, stream_frac: 0.1 });
    d.append_deletions(0.5, 99);
    let mut rng = Pcg32::new(13);
    let q = queries::random_tree_query(&d.schema, 6, &mut rng);
    let ops: Vec<_> = d.stream.ops().to_vec();

    let mut group = c.benchmark_group("mixed_stream_throughput");
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.sample_size(10);
    group.bench_function("turboflux", |b| {
        b.iter(|| {
            let mut e = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
            let mut n = 0u64;
            for op in &ops {
                e.apply(op, &mut |_, _| n += 1);
            }
            black_box(n)
        });
    });
    group.finish();
}

fn static_match(c: &mut Criterion) {
    let d = lsbench::generate(&LsBenchConfig { users: 150, seed: 7, stream_frac: 0.1 });
    let g = d.final_graph();
    let mut rng = Pcg32::new(17);
    let q = queries::random_tree_query(&d.schema, 6, &mut rng);
    let mut group = c.benchmark_group("static_match");
    group.sample_size(10);
    group.bench_function("count_q6", |b| {
        b.iter(|| black_box(tfx_match::count_matches(&g, &q, MatchSemantics::Homomorphism)));
    });
    group.finish();
}

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

criterion_group!(
    benches,
    graph_mutation,
    dcg_transit,
    build_dcg,
    insert_throughput,
    delete_throughput,
    static_match
);
criterion_main!(benches);
