//! The delta digest: one 64-bit fingerprint of every match delta a run
//! emitted, in emission order, plus the counts a human can sanity-check.
//!
//! FNV-1a's xor-then-multiply step applied to 64-bit words instead of bytes
//! (one multiply per word): `netflow_enum` delivers ≈9 M deltas/s, and a
//! byte-wise hash of a 20-byte delta would cost a sixth of the run it is
//! checking. The high half is folded down after each word because the
//! multiply alone never moves high input bits into low output bits.

use turboflux::graph::VertexId;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub positive: u64,
    pub negative: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest { hash: OFFSET, positive: 0, negative: 0 }
    }
}

impl Digest {
    #[inline]
    fn word(&mut self, w: u64) {
        let h = (self.hash ^ w).wrapping_mul(PRIME);
        self.hash = h ^ (h >> 32);
    }

    /// Absorbs one delta `(engine, global_op, sign, embedding)`.
    #[inline]
    pub fn delta(
        &mut self,
        engine: usize,
        global_op: usize,
        positive: bool,
        embedding: &[VertexId],
    ) {
        if positive {
            self.positive += 1;
        } else {
            self.negative += 1;
        }
        self.word((engine as u64) << 1 | positive as u64);
        self.word(global_op as u64);
        let mut pairs = embedding.chunks_exact(2);
        for p in &mut pairs {
            self.word((p[0].0 as u64) << 32 | p[1].0 as u64);
        }
        if let [last] = pairs.remainder() {
            // Tagged above bit 32 so `[a]` and `[0, a]` differ.
            self.word(1 << 40 | last.0 as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn every_field_and_the_order_reach_the_hash() {
        let base = {
            let mut d = Digest::default();
            d.delta(0, 7, true, &v(&[1, 2, 3]));
            d
        };
        assert_eq!((base.positive, base.negative), (1, 0));
        let variants: [(usize, usize, bool, Vec<VertexId>); 6] = [
            (1, 7, true, v(&[1, 2, 3])),
            (0, 8, true, v(&[1, 2, 3])),
            (0, 7, false, v(&[1, 2, 3])),
            (0, 7, true, v(&[2, 1, 3])),
            (0, 7, true, v(&[1, 2, 4])),
            (0, 7, true, v(&[1, 2, 0, 3])),
        ];
        for (engine, op, sign, emb) in variants {
            let mut d = Digest::default();
            d.delta(engine, op, sign, &emb);
            assert_ne!(d.hash, base.hash, "{engine} {op} {sign} {emb:?}");
        }

        let (mut ab, mut ba) = (Digest::default(), Digest::default());
        ab.delta(0, 1, true, &v(&[5, 6]));
        ab.delta(0, 2, false, &v(&[6, 5]));
        ba.delta(0, 2, false, &v(&[6, 5]));
        ba.delta(0, 1, true, &v(&[5, 6]));
        assert_ne!(ab.hash, ba.hash, "emission order matters");
        assert_eq!((ab.positive, ab.negative), (ba.positive, ba.negative));
    }

    #[test]
    fn same_deltas_same_digest() {
        let run = || {
            let mut d = Digest::default();
            for i in 0..1000u32 {
                d.delta((i % 3) as usize, i as usize, i % 2 == 0, &v(&[i, i + 1, i * 7]));
            }
            d
        };
        assert_eq!(run(), run());
        assert_ne!(run().hash, Digest::default().hash);
    }
}
