//! Shard-scaling benchmarks: the sharded execution runtime at shards ∈
//! {1, 2, 4, 8} against the unsharded engine, on three stream shapes:
//!
//! * `shard_scaling/uniform` — unskewed endpoints; partitions stay
//!   balanced.
//! * `shard_scaling/hub` — hub-dominated endpoints; most root candidates
//!   hash to a few shards, the worst case for partition balance.
//! * `shard_scaling/netflow_windowed` — the full ingestion pipeline
//!   (count window + batching driver) over the netflow trace with a
//!   `ShardedEngine` batch target.
//!
//! The `unsharded` baseline is the plain engine with the same pinned
//! (static) matching order the sharded runtime uses, so the comparison
//! isolates partitioning cost from plan differences. Every slice runs on
//! the calling thread over one shared graph, so the series read as what
//! partitioning costs (one registration and one DCG slice per shard, seed
//! planning, keyed merge) as the shard count grows; shards=1 must track the
//! baseline closely.
//!
//! Before timing, every group self-checks that all shard counts emit
//! exactly as many deltas as the unsharded baseline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_core::{ShardedEngine, TurboFlux, TurboFluxConfig};
use tfx_datagen::{hub, queries, uniform, Dataset, HubConfig, Pcg32, UniformConfig};
use tfx_graph::{DynamicGraph, UpdateOp};
use tfx_query::{ContinuousMatcher, QueryGraph};
use tfx_stream::{
    BatchPolicy, BatchTarget, CountingSink, SlidingWindow, StreamDriver, SyntheticKind,
    SyntheticSource, WindowSpec,
};

const STREAM_OPS: usize = 1024;
const BATCH: usize = 256;

/// Delta budget per candidate query (see `fleet_throughput`): random tree
/// queries occasionally explode on skewed graphs, and an exploding query
/// benchmarks the delta buffer, not the runtime.
const MAX_DELTAS: u64 = 50_000;

/// The config every engine in this bench runs: the sharded runtime pins
/// the matching order static, so the unsharded baseline does too.
fn cfg(shards: usize) -> TurboFluxConfig {
    TurboFluxConfig { shards, adjust_matching_order: false, ..TurboFluxConfig::default() }
}

/// Picks the first random tree query that produces deltas on this
/// dataset's stream prefix while staying under the delta budget (a
/// no-match query would benchmark op staging alone).
fn pick_query(d: &Dataset, ops: &[UpdateOp], rng_seed: u64) -> QueryGraph {
    let mut rng = Pcg32::new(rng_seed);
    loop {
        let q = queries::random_tree_query(&d.schema, 4, &mut rng);
        let mut probe = TurboFlux::new(q.clone(), d.g0.clone(), cfg(1));
        let mut n = 0u64;
        for op in ops {
            probe.apply(op, &mut |_, _| n += 1);
            if n > MAX_DELTAS {
                break;
            }
        }
        if n > 0 && n <= MAX_DELTAS {
            return q;
        }
    }
}

fn unsharded_deltas(g0: &DynamicGraph, q: &QueryGraph, ops: &[UpdateOp]) -> u64 {
    let mut engine = TurboFlux::new(q.clone(), g0.clone(), cfg(1));
    let mut n = 0u64;
    for op in ops {
        engine.apply(op, &mut |_, _| n += 1);
    }
    n
}

fn sharded_deltas(g0: &DynamicGraph, q: &QueryGraph, ops: &[UpdateOp], shards: usize) -> u64 {
    let mut engine = ShardedEngine::new(vec![q.clone()], g0.clone(), cfg(shards), 1);
    let mut n = 0u64;
    for chunk in ops.chunks(BATCH) {
        engine.apply_batch(chunk, &mut |_, _, _, _| n += 1);
    }
    n
}

fn bench_shape(c: &mut Criterion, name: &str, d: &Dataset, query_seed: u64) {
    let ops: Vec<UpdateOp> = d.stream.ops().iter().take(STREAM_OPS).cloned().collect();
    let q = pick_query(d, &ops, query_seed);

    // Sanity: every shard count reports exactly the baseline's deltas.
    let want = unsharded_deltas(&d.g0, &q, &ops);
    for shards in [1usize, 2, 4, 8] {
        let got = sharded_deltas(&d.g0, &q, &ops, shards);
        assert_eq!(got, want, "{name}: shards={shards} delta count diverged");
    }

    // Regression guard: the single-shard fast path must track the unsharded
    // engine. Min-of-N damps scheduler noise; the 1.5× bound is generous
    // (measured parity ±5% on both uniform and hub — see DESIGN.md's
    // sharded-execution notes).
    let min_of = |f: &dyn Fn() -> u64| {
        (0..7)
            .map(|_| {
                let t = std::time::Instant::now();
                black_box(f());
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let base = min_of(&|| unsharded_deltas(&d.g0, &q, &ops));
    let single = min_of(&|| sharded_deltas(&d.g0, &q, &ops, 1));
    assert!(
        single <= base.mul_f64(1.5),
        "{name}: shards=1 fast path regressed: {single:?} vs unsharded {base:?}"
    );

    let mut group = c.benchmark_group(format!("shard_scaling/{name}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.bench_function("unsharded", |b| b.iter(|| black_box(unsharded_deltas(&d.g0, &q, &ops))));
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("shards{shards}"), |b| {
            b.iter(|| black_box(sharded_deltas(&d.g0, &q, &ops, shards)))
        });
    }
    group.finish();
}

fn shard_scaling_uniform(c: &mut Criterion) {
    let d = uniform::generate(&UniformConfig { seed: 31, ..UniformConfig::default() });
    bench_shape(c, "uniform", &d, 77);
}

fn shard_scaling_hub(c: &mut Criterion) {
    let d = hub::generate(&HubConfig { seed: 31, ..HubConfig::default() });
    bench_shape(c, "hub", &d, 77);
}

/// Full pipeline: count-windowed netflow replay through the batching
/// driver into a sharded (or plain) batch target.
fn shard_scaling_netflow_windowed(c: &mut Criterion) {
    let mut interner = tfx_graph::LabelInterner::new();
    let q = tfx_query::parser::parse_query("v 0\nv 1\nv 2\ne 0 1 tcp\ne 1 2 udp\n", &mut interner)
        .expect("static query parses");

    let run = |shards: usize| -> u64 {
        let (dataset, mut source) = SyntheticSource::demo(SyntheticKind::Netflow, 2018, 1);
        let mut driver = StreamDriver::new(
            SlidingWindow::new(WindowSpec::Count { capacity: 1000 }),
            BatchPolicy::by_ops(BATCH),
        );
        let mut sink = CountingSink::default();
        let summary = if shards == 0 {
            let mut engine = TurboFlux::new(q.clone(), dataset.g0, cfg(1));
            driver.run(&mut source, &mut engine, &mut sink)
        } else {
            let mut engine = ShardedEngine::new(vec![q.clone()], dataset.g0, cfg(shards), 1);
            let engine: &mut dyn BatchTarget = &mut engine;
            driver.run(&mut source, engine, &mut sink)
        };
        summary.expect("synthetic source never errors");
        sink.positive + sink.negative
    };

    // Sanity: windowed delta totals agree across all targets.
    let want = run(0);
    assert!(want > 0, "netflow workload produced no deltas");
    for shards in [1usize, 2, 4, 8] {
        assert_eq!(run(shards), want, "netflow: shards={shards} delta count diverged");
    }

    let mut group = c.benchmark_group("shard_scaling/netflow_windowed");
    group.sample_size(10);
    group.bench_function("unsharded", |b| b.iter(|| black_box(run(0))));
    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("shards{shards}"), |b| b.iter(|| black_box(run(shards))));
    }
    group.finish();
}

criterion_group!(benches, shard_scaling_uniform, shard_scaling_hub, shard_scaling_netflow_windowed);
criterion_main!(benches);
