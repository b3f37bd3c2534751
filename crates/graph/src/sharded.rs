//! Vertex-to-shard assignment for the sharded execution runtime.
//!
//! The runtime keeps one [`crate::DynamicGraph`] and partitions *work*:
//! each shard owns the root candidates [`shard_of`] assigns it. The hash is
//! fixed — deterministic across runs and platforms, so a given stream
//! always partitions the same way.

use crate::ids::VertexId;

/// Owning shard of vertex `v` among `shards` partitions.
///
/// SplitMix64-style finalizer over the raw id: avalanching (consecutive
/// ids scatter), deterministic (no per-process seed), and independent of
/// `std` hasher internals.
#[inline]
pub fn shard_of(v: VertexId, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    let mut x = (v.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_deterministic_and_spread() {
        for s in [1u32, 2, 4, 8] {
            let mut seen = vec![0usize; s as usize];
            for i in 0..256 {
                let a = shard_of(VertexId(i), s);
                assert_eq!(a, shard_of(VertexId(i), s));
                assert!(a < s);
                seen[a as usize] += 1;
            }
            // every shard owns a non-trivial share of 256 consecutive ids
            assert!(seen.iter().all(|&c| c > 256 / (s as usize) / 4));
        }
        assert_eq!(shard_of(VertexId(17), 1), 0);
    }
}
