//! Intersection kernels for sorted, duplicate-free id runs.
//!
//! The enumeration hot paths — the search's non-tree prefilter, the
//! matcher's generic-join extension step — reduce to one primitive: given
//! two sorted, duplicate-free runs of vertex ids (label groups from the
//! adjacency index, explicit DCG frontiers), emit their intersection in
//! order. Doing that with a per-element `binary_search` costs `O(n log m)`
//! with a data-dependent branch per probe; this module provides two merges
//! behind one entry point, [`intersect_into`]:
//!
//! * **Galloping merge** ([`intersect_gallop_into`]) for skewed pairs: each
//!   element of the smaller run advances through the larger one by
//!   exponential probing from a monotone cursor, so the total cost is
//!   `O(n log(m/n))` — asymptotically optimal for `n ≪ m` and strictly
//!   better than restarting a full binary search per element.
//! * **Branchless merge** ([`intersect_merge_into`]) for comparable sizes:
//!   a two-pointer walk whose cursors advance by comparison results, so
//!   mispredictions do not scale with input entropy.
//!
//! The size-ratio cutoff ([`GALLOP_RATIO`]) picks between them. Both
//! produce the same output (the sorted intersection) — a randomized
//! differential oracle in `tests/intersect_oracle.rs` pins each to the
//! naive sorted-merge reference.
//!
//! Outputs are appended to a caller-owned `Vec`, which the engines use as a
//! segmented scratch stack: once its high-water capacity is reached,
//! steady-state intersection allocates nothing (asserted by
//! `tests/alloc_steady_state.rs`).

use crate::ids::VertexId;

/// Size-ratio cutoff between the two merges: when one run is at least this
/// many times longer than the other, galloping's `O(n log(m/n))` beats the
/// branchless merge's `O(n + m)`.
pub const GALLOP_RATIO: usize = 16;

/// Run length at or below which a membership probe scans linearly instead
/// of binary-searching: on a handful of elements the predictable forward
/// scan wins against branchy halving (same rationale as the adjacency
/// index's [`crate::adjacency`] run location).
pub const LINEAR_PROBE_CUTOFF: usize = 16;

/// Appends `a ∩ b` to `out` in ascending order, picking the merge by size
/// ratio. Both inputs must be sorted and duplicate-free; the output then is
/// too.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        intersect_gallop_into(small, large, out);
    } else {
        intersect_merge_into(small, large, out);
    }
}

/// True iff `v` occurs in the sorted run: a linear scan below
/// [`LINEAR_PROBE_CUTOFF`], binary search above it.
#[inline]
pub fn contains_sorted(run: &[VertexId], v: VertexId) -> bool {
    if run.len() <= LINEAR_PROBE_CUTOFF {
        run.contains(&v)
    } else {
        run.binary_search(&v).is_ok()
    }
}

/// Galloping (exponential-probe) intersection: for each element of `small`,
/// advance a monotone cursor through `large` by doubling steps, then binary
/// search only the final probe window. Appends matches to `out`.
///
/// Public, as is [`intersect_merge_into`], so the oracle can check each
/// regime at every size and in both argument orders.
pub fn intersect_gallop_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        if large[base] < x {
            // Gallop: find a window (base+lo, base+hi] with large[hi] >= x.
            let mut step = 1usize;
            let mut lo = 0usize;
            while base + lo + step < large.len() && large[base + lo + step] < x {
                lo += step;
                step <<= 1;
            }
            let hi = (lo + step + 1).min(large.len() - base);
            base += lo + 1 + large[base + lo + 1..base + hi].partition_point(|&y| y < x);
            if base >= large.len() {
                break;
            }
        }
        if large[base] == x {
            out.push(x);
            base += 1;
        }
    }
}

/// Branchless two-pointer intersection for comparable-size runs. Appends
/// matches to `out`.
pub fn intersect_merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            out.push(x);
            i += 1;
            j += 1;
        } else {
            // Branchless advance: the comparison results compile to setcc,
            // so mispredict cost does not scale with input entropy.
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
}

/// Hints the cache line holding `*r` into every cache level, for a caller
/// that knows which lines a later step will touch (the batch lookahead of
/// `tfx_core::round`). It has no architectural effect — nothing is read, no
/// fault is raised, program state is unchanged — so the only cost of a hint
/// whose target moved before its use is the hint itself. A no-op off
/// `x86_64`.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 never dereferences its operand (and `r` is a valid
    // reference anyway); SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(r).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// [`prefetch`] of `table[i]`; an index past the table (a vertex a later op
/// creates, a slot the arena has not carved) hints nothing.
#[inline(always)]
pub fn prefetch_at<T>(table: &[T], i: usize) {
    if let Some(r) = table.get(i) {
        prefetch(r);
    }
}

/// Naive two-pointer sorted-merge reference — the differential-testing
/// ground truth for every kernel above (and the "pre-kernel path" a
/// per-element binary search approximates).
pub fn intersect_reference(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<VertexId> {
        xs.iter().map(|&x| VertexId(x)).collect()
    }

    fn run_all(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
        let expect = intersect_reference(a, b);
        for (name, got) in [
            ("auto", {
                let mut o = Vec::new();
                intersect_into(a, b, &mut o);
                o
            }),
            ("merge", {
                let mut o = Vec::new();
                intersect_merge_into(a, b, &mut o);
                o
            }),
            ("gallop_ab", {
                let mut o = Vec::new();
                intersect_gallop_into(a, b, &mut o);
                o
            }),
            ("gallop_ba", {
                let mut o = Vec::new();
                intersect_gallop_into(b, a, &mut o);
                o
            }),
        ] {
            assert_eq!(got, expect, "kernel {name} vs reference, a={a:?} b={b:?}");
        }
        expect
    }

    #[test]
    fn empty_and_singleton() {
        assert!(run_all(&[], &[]).is_empty());
        assert!(run_all(&ids(&[3]), &[]).is_empty());
        assert!(run_all(&[], &ids(&[3])).is_empty());
        assert_eq!(run_all(&ids(&[3]), &ids(&[3])), ids(&[3]));
        assert!(run_all(&ids(&[3]), &ids(&[4])).is_empty());
    }

    #[test]
    fn block_boundaries() {
        let a = ids(&[1, 2, 3, 4, 10, 11, 12, 13]);
        let b = ids(&[2, 4, 6, 8, 10, 12, 14, 16]);
        assert_eq!(run_all(&a, &b), ids(&[2, 4, 10, 12]));
        assert_eq!(run_all(&a[..4], &b[..5]), ids(&[2, 4]));
        assert_eq!(run_all(&a[..7], &b[..7]), ids(&[2, 4, 10, 12]));
    }

    #[test]
    fn disjoint_and_nested_ranges() {
        assert!(run_all(&ids(&[1, 2, 3, 4, 5]), &ids(&[10, 20, 30, 40])).is_empty());
        // One run entirely inside a gap of the other.
        assert!(run_all(&ids(&[100, 200, 300, 400]), &ids(&[150, 151, 152, 153])).is_empty());
        // Subset relation.
        let big = ids(&(0..64).map(|i| i * 3).collect::<Vec<_>>());
        let sub = ids(&[0, 9, 33, 90, 189]);
        assert_eq!(run_all(&sub, &big), sub);
    }

    #[test]
    fn adversarial_size_ratio_uses_gallop() {
        let large: Vec<VertexId> = (0..10_000u32).map(|i| VertexId(i * 2)).collect();
        let small = ids(&[0, 2, 5, 19_998, 20_000, 99_999]);
        let expect = intersect_reference(&small, &large);
        let mut got = Vec::new();
        intersect_into(&small, &large, &mut got);
        assert_eq!(got, expect);
        assert_eq!(expect, ids(&[0, 2, 19_998]));
    }

    #[test]
    fn contains_sorted_both_regimes() {
        let short = ids(&[2, 4, 6]);
        assert!(contains_sorted(&short, VertexId(4)));
        assert!(!contains_sorted(&short, VertexId(5)));
        let long: Vec<VertexId> = (0..100u32).map(|i| VertexId(i * 3)).collect();
        assert!(contains_sorted(&long, VertexId(99)));
        assert!(!contains_sorted(&long, VertexId(100)));
        assert!(!contains_sorted(&[], VertexId(0)));
    }

    /// The hint methods of the graph and the DCG take indices: the last
    /// element is hinted, one past it and anything in an empty (or
    /// zero-sized-element) table is not looked at.
    #[test]
    fn prefetch_stays_inside_the_table() {
        // Exactly sized, so one past the end is not this allocation's.
        let table: Box<[u64]> = (0..8).collect();
        prefetch(&table[7]);
        for i in [0, 7, 8, 9, usize::MAX] {
            prefetch_at(&table, i);
        }
        prefetch_at::<u64>(&[], 0);
        prefetch_at(&[(); 3], 2);
        prefetch_at(&[(); 3], 3);
        assert_eq!(*table, [0, 1, 2, 3, 4, 5, 6, 7], "a hint changes nothing");
    }

    #[test]
    fn appends_without_clearing() {
        let mut out = ids(&[77]);
        intersect_into(&ids(&[1, 2, 3]), &ids(&[2, 3, 4]), &mut out);
        assert_eq!(out, ids(&[77, 2, 3]), "kernels append; callers own the prefix");
    }
}
