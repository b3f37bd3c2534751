//! The sorted-run intersection kernels of `tfx_graph::intersect` on
//! synthetic runs at the size ratios the dispatcher distinguishes
//! (balanced → linear/SIMD, skewed → gallop), against the scalar reference
//! merge. The engine reaches them through `search::intersect_frontier` on
//! cyclic queries only, so `e2e` sees them folded into `core.ns_per_delta`
//! of the three cyclic `lsbench_fleet8` queries and nowhere by themselves.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use tfx_graph::intersect::{
    intersect_gallop_into, intersect_into, intersect_linear_into, intersect_reference,
};
use tfx_graph::VertexId;

/// Sorted run of `len` ids: every `stride`-th value from `start`.
fn run(start: u32, stride: u32, len: usize) -> Vec<VertexId> {
    (0..len as u32).map(|i| VertexId(start + i * stride)).collect()
}

fn intersect_kernels(c: &mut Criterion) {
    // Balanced overlap (co-prime strides → sparse hits) and skewed
    // needle-in-haystack, the two regimes the dispatcher splits on.
    let balanced = (run(0, 3, 4096), run(0, 7, 4096));
    let skewed = (run(0, 64, 128), run(0, 1, 65_536));

    let mut group = c.benchmark_group("intersect_kernels");
    for (name, (a, b)) in [("balanced_4k", &balanced), ("skewed_128_64k", &skewed)] {
        group.throughput(Throughput::Elements((a.len() + b.len()) as u64));
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        group.bench_function(format!("{name}/auto"), |bch| {
            bch.iter(|| {
                out.clear();
                intersect_into(black_box(a), black_box(b), &mut out);
                black_box(out.len())
            });
        });
        group.bench_function(format!("{name}/linear"), |bch| {
            bch.iter(|| {
                out.clear();
                intersect_linear_into(black_box(a), black_box(b), &mut out);
                black_box(out.len())
            });
        });
        group.bench_function(format!("{name}/gallop"), |bch| {
            bch.iter(|| {
                out.clear();
                intersect_gallop_into(black_box(a), black_box(b), &mut out);
                black_box(out.len())
            });
        });
        group.bench_function(format!("{name}/reference"), |bch| {
            bch.iter(|| black_box(intersect_reference(black_box(a), black_box(b)).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, intersect_kernels);
criterion_main!(benches);
