//! Randomized differential oracle for the intersection kernels.
//!
//! Every entry point of `tfx_graph::intersect` — the dispatching
//! `intersect_into`, the galloping merge and the branchless merge, each in
//! both argument orders — must produce the same output as the naive
//! sorted-merge reference on *any* pair of sorted duplicate-free runs. This
//! test sweeps run-length pairs across the dispatcher's size-ratio regimes
//! (ratios on both sides of `GALLOP_RATIO` and far past it), overlap
//! densities from disjoint to identical, and value ranges from dense to
//! sparse, using a deterministic xorshift generator so any failure replays
//! exactly. The alignment sweep's short runs and offsets are ordinary input
//! to a scalar merge; they stay because they are cheap and off-by-one prone.

use tfx_graph::intersect::{
    intersect_gallop_into, intersect_into, intersect_merge_into, intersect_reference,
};
use tfx_graph::{contains_sorted, VertexId, GALLOP_RATIO};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// A sorted duplicate-free run of `len` ids drawn from `[0, range)`.
fn random_run(rng: &mut XorShift, len: usize, range: u64) -> Vec<VertexId> {
    let mut v: Vec<u32> = (0..len).map(|_| rng.next(range) as u32).collect();
    v.sort_unstable();
    v.dedup();
    v.into_iter().map(VertexId).collect()
}

/// A sorted run of exactly `len` distinct ids, gaps drawn from `1..=gap`.
fn exact_run(rng: &mut XorShift, len: usize, gap: u64) -> Vec<VertexId> {
    let mut x = rng.next(gap) as u32;
    (0..len)
        .map(|_| {
            x += 1 + rng.next(gap) as u32;
            VertexId(x)
        })
        .collect()
}

fn check_all_kernels(a: &[VertexId], b: &[VertexId], case: &str) {
    let expect = intersect_reference(a, b);
    let mut got = Vec::new();
    intersect_into(a, b, &mut got);
    assert_eq!(got, expect, "auto dispatch diverged ({case})");
    got.clear();
    intersect_into(b, a, &mut got);
    assert_eq!(got, expect, "auto dispatch (b,a) diverged ({case})");
    got.clear();
    intersect_merge_into(a, b, &mut got);
    assert_eq!(got, expect, "merge(a,b) diverged ({case})");
    got.clear();
    intersect_merge_into(b, a, &mut got);
    assert_eq!(got, expect, "merge(b,a) diverged ({case})");
    got.clear();
    intersect_gallop_into(a, b, &mut got);
    assert_eq!(got, expect, "gallop(a,b) diverged ({case})");
    got.clear();
    intersect_gallop_into(b, a, &mut got);
    assert_eq!(got, expect, "gallop(b,a) diverged ({case})");
    // The output of any kernel must itself be sorted and duplicate-free.
    assert!(expect.windows(2).all(|w| w[0] < w[1]), "output not strictly sorted ({case})");
    // Membership probes agree with the reference intersection.
    for &x in expect.iter().take(8) {
        assert!(contains_sorted(a, x) && contains_sorted(b, x), "probe missed member ({case})");
    }
}

#[test]
fn randomized_runs_match_reference_across_regimes() {
    let mut rng = XorShift(0xDEAD_BEEF_CAFE_F00D);
    // (len_a, len_b) pairs covering: tiny×tiny, short runs, balanced
    // mid-size (the sizes the engine's prefilter sees stay under 256), and
    // skewed ratios straddling GALLOP_RATIO.
    let shapes: &[(usize, usize)] = &[
        (0, 0),
        (1, 1),
        (3, 3),
        (4, 4),
        (5, 7),
        (8, 8),
        (16, 17),
        (64, 64),
        (100, 333),
        (7, 1000), // ratio ≈ 143 ≫ GALLOP_RATIO
        (1000, 7),
        (33, 512), // ratio ≈ 15, just under the cutoff
        (512, 2048),
        (1, 4096),
        (4096, 4096),
    ];
    // Sparse ranges give near-empty intersections; dense ranges force heavy
    // overlap (every value collides); `max(..)=len` makes runs near-identical.
    for &(na, nb) in shapes {
        for density in [4u64, 2, 1] {
            let range = ((na.max(nb) as u64) * density).max(1);
            for trial in 0..8 {
                let a = random_run(&mut rng, na, range);
                let b = random_run(&mut rng, nb, range);
                let case = format!("shape=({na},{nb}) density={density} trial={trial}");
                check_all_kernels(&a, &b, &case);
            }
        }
    }
    // Exact lengths at ratios GALLOP_RATIO - 2 ..= GALLOP_RATIO + 2, each at
    // its floor and just under the next integer, so `intersect_into` takes
    // each merge on the pairs nearest the cutoff.
    for small in [1usize, 2, 5, 32, 127] {
        for ratio in GALLOP_RATIO - 2..=GALLOP_RATIO + 2 {
            for large in [small * ratio, small * ratio + small - 1] {
                for gap in [1, 4, 32] {
                    let a = exact_run(&mut rng, small, gap * ratio as u64);
                    let b = exact_run(&mut rng, large, gap);
                    check_all_kernels(&a, &b, &format!("ratio ({small},{large}) gap={gap}"));
                }
            }
        }
    }
}

#[test]
fn structured_edge_cases() {
    let ids = |xs: &[u32]| xs.iter().map(|&x| VertexId(x)).collect::<Vec<_>>();
    let checks: &[(Vec<VertexId>, Vec<VertexId>)] = &[
        // Identical runs.
        (ids(&[1, 2, 3, 4, 5, 6, 7, 8]), ids(&[1, 2, 3, 4, 5, 6, 7, 8])),
        // Fully disjoint, interleaved values.
        (ids(&[0, 2, 4, 6, 8, 10]), ids(&[1, 3, 5, 7, 9, 11])),
        // One run inside a single gap of the other.
        (ids(&[0, 1000]), ids(&[10, 11, 12, 13, 14, 15, 16, 17])),
        // Matches at adjacent indices (3, 4 and 7, 8).
        ((0..9u32).map(|i| VertexId(i * 10)).collect(), ids(&[30, 40, 70, 80])),
        // u32 extremes.
        (ids(&[0, u32::MAX - 1, u32::MAX]), ids(&[0, 1, u32::MAX])),
        // Singleton vs huge.
        (ids(&[500_000]), (0..100_000u32).map(|i| VertexId(i * 10)).collect()),
    ];
    for (i, (a, b)) in checks.iter().enumerate() {
        check_all_kernels(a, b, &format!("structured case {i}"));
    }
}

/// Sweep short lengths and offsets of both runs: off-by-one lengths and
/// starting points are where merge loops typically break.
#[test]
fn alignment_sweep() {
    let base: Vec<VertexId> = (0..40u32).map(|i| VertexId(i * 3)).collect();
    let other: Vec<VertexId> = (0..40u32).map(|i| VertexId(i * 2)).collect();
    for skip_a in 0..5 {
        for skip_b in 0..5 {
            for take_a in [0, 1, 3, 4, 5, 17, 35] {
                let a = &base[skip_a..(skip_a + take_a).min(base.len())];
                let b = &other[skip_b..];
                check_all_kernels(a, b, &format!("align a[{skip_a}..+{take_a}] b[{skip_b}..]"));
            }
        }
    }
}
