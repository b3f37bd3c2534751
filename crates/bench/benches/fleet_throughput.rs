//! Fleet benchmarks: multi-query registration × streaming batches.
//!
//! * `fleet_routing/disjoint` — N queries with pairwise-disjoint edge
//!   labels while the stream only touches one label: the routing table
//!   dispatches each op to a single engine, so throughput should stay
//!   near-flat in N instead of degrading linearly.
//! * Before timing, the guard asserts that an 8-query fleet is no slower
//!   than 1.5× eight standalone engines replaying the same LSBench-like
//!   insert stream one after another: a fleet shares the graph and skips
//!   uninterested engines, so anything it layers on top must not cost more
//!   than running the queries apart. Fleet throughput itself is an `e2e`
//!   number (`lsbench_fleet8`), not a series here.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tfx_core::{Fleet, TurboFlux, TurboFluxConfig};
use tfx_datagen::{lsbench, queries, LsBenchConfig, Pcg32};
use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId};
use tfx_query::{ContinuousMatcher, QueryGraph};

const STREAM_OPS: usize = 1024;

/// Per-query delta budget over the whole stream. Random tree queries on the
/// skewed LSBench-like graph occasionally explode (tens of millions of
/// matches); since the fleet buffers one record per delta per batch, such a
/// query measures allocator throughput, not engine throughput — screen them
/// out deterministically by replaying the stream on a standalone engine.
const MAX_DELTAS_PER_QUERY: u64 = 50_000;

fn setup() -> (DynamicGraph, Vec<QueryGraph>, Vec<UpdateOp>) {
    let d = lsbench::generate(&LsBenchConfig { users: 150, seed: 7, stream_frac: 0.15 });
    let ops: Vec<UpdateOp> = d.stream.ops().iter().take(STREAM_OPS).cloned().collect();
    let mut rng = Pcg32::new(21);
    let mut queries: Vec<QueryGraph> = Vec::new();
    while queries.len() < 8 {
        let q = queries::random_tree_query(&d.schema, 5, &mut rng);
        let mut probe = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
        let mut n = 0u64;
        for op in &ops {
            probe.apply(op, &mut |_, _| n += 1);
            if n > MAX_DELTAS_PER_QUERY {
                break;
            }
        }
        if n <= MAX_DELTAS_PER_QUERY {
            queries.push(q);
        }
    }
    (d.g0, queries, ops)
}

/// Regression guard in the style of `shard_scaling`'s `shards1` check: the
/// multi-query runtime must track its parts. Min-of-7 damps scheduler
/// noise; replay only is timed, registration is not. The fleet replays in
/// the stream driver's default 256-op batches (measured 1.27–1.30× of the
/// engines run apart — the batch buffer clones each delta's record; with
/// PR 9's always-bound subtree instances it was 2.25× — see DESIGN.md).
fn assert_fleet_tracks_standalone(g0: &DynamicGraph, queries: &[QueryGraph], ops: &[UpdateOp]) {
    let min_of = |f: &dyn Fn() -> (Duration, u64)| (0..7).map(|_| f()).min().expect("seven runs");
    let (apart, want) = min_of(&|| {
        let mut engines: Vec<TurboFlux> = queries
            .iter()
            .map(|q| TurboFlux::new(q.clone(), g0.clone(), TurboFluxConfig::default()))
            .collect();
        let mut n = 0u64;
        let t = Instant::now();
        for engine in &mut engines {
            for op in ops {
                engine.apply(op, &mut |_, _| n += 1);
            }
        }
        (t.elapsed(), black_box(n))
    });
    let (together, got) = min_of(&|| {
        let mut fleet = Fleet::new(g0.clone());
        for q in queries {
            fleet.register(q.clone(), TurboFluxConfig::default());
        }
        let t = Instant::now();
        let n: u64 = ops.chunks(256).map(|batch| replay(&mut fleet, batch)).sum();
        (t.elapsed(), black_box(n))
    });
    assert_eq!(got, want, "fleet and standalone engines disagree on delta count");
    assert!(
        together <= apart.mul_f64(1.5),
        "{}-query fleet regressed: {together:?} vs {apart:?} for the engines run apart",
        queries.len()
    );
}

fn fleet_guard(_: &mut Criterion) {
    let (g0, queries, ops) = setup();
    assert_fleet_tracks_standalone(&g0, &queries, &ops);
}

fn replay(fleet: &mut Fleet, ops: &[UpdateOp]) -> u64 {
    let mut n = 0u64;
    fleet.apply_batch(ops, &mut |_| n += 1);
    n
}

const ROUTING_OPS: usize = 256;

/// Label-disjoint fleets: engine i matches only edge label `100 + i`, the
/// stream only carries label 100. With op routing, every op reaches exactly
/// one engine regardless of fleet size.
fn fleet_routing_disjoint(c: &mut Criterion) {
    let mut g0 = DynamicGraph::new();
    let nv = 16usize;
    for i in 0..nv {
        g0.add_vertex(LabelSet::single(LabelId(i as u32 % 2)));
    }
    let mut ops = Vec::with_capacity(ROUTING_OPS);
    for i in 0..ROUTING_OPS / 2 {
        let src = VertexId((2 * i % nv) as u32);
        let dst = VertexId(((2 * i + 1) % nv) as u32);
        ops.push(UpdateOp::InsertEdge { src, label: LabelId(100), dst });
        ops.push(UpdateOp::DeleteEdge { src, label: LabelId(100), dst });
    }
    let query_for = |i: usize| {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(LabelId(0)));
        let b = q.add_vertex(LabelSet::single(LabelId(1)));
        q.add_edge(a, b, Some(LabelId(100 + i as u32)));
        q
    };

    // Sanity: with ≥2 disjoint engines the routing table must skip.
    {
        let mut fleet = Fleet::new(g0.clone());
        for i in 0..2 {
            fleet.register(query_for(i), TurboFluxConfig::default());
        }
        replay(&mut fleet, &ops);
        assert!(fleet.stats().ops_skipped > 0, "disjoint fleet never skipped an engine");
    }

    let mut group = c.benchmark_group("fleet_routing/disjoint");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ops.len() as u64));
    for &nq in &[1usize, 4, 16, 64] {
        let mut fleet = Fleet::new(g0.clone());
        for i in 0..nq {
            fleet.register(query_for(i), TurboFluxConfig::default());
        }
        group.bench_function(format!("q{nq}"), |b| b.iter(|| black_box(replay(&mut fleet, &ops))));
    }
    group.finish();
}

criterion_group!(benches, fleet_guard, fleet_routing_disjoint);
criterion_main!(benches);
