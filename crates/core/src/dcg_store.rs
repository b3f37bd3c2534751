//! The DCG's one sparse table: [`OpenMap`], an open-addressed, linear-probing
//! hash table from `u32` keys (data vertex ids) to small `Copy` values
//! (Fibonacci hashing, backward-shift deletion, so there are no tombstones and
//! a warmed table never rehashes under self-inverting churn).
//!
//! A slot is the bare `(key, value)` pair, an empty one marked by the key
//! [`EMPTY`] — no vertex has that id — so a `u32` count costs 8 bytes a
//! slot, not the 12 an `Option` around the pair takes.

use tfx_graph::prefetch_at;

/// The key of an empty slot. No data vertex has this id.
const EMPTY: u32 = u32::MAX;

/// Open-addressed hash table from `u32` keys to `Copy` values.
///
/// Linear probing with Fibonacci hashing over a power-of-two capacity and
/// *backward-shift deletion* (Knuth 6.4 algorithm R): removals restore the
/// table to the state it would have had if the key were never inserted, so
/// there are no tombstones, `live` is the only occupancy measure, and a
/// table that has reached its high-water capacity never rehashes again
/// under insert/delete churn — the allocation-free steady state the engine
/// promises.
pub struct OpenMap<V> {
    /// Key [`EMPTY`] = empty bucket. Capacity is a power of two (or zero).
    slots: Vec<(u32, V)>,
    live: usize,
}

impl<V: Copy + Default> Default for OpenMap<V> {
    fn default() -> Self {
        OpenMap { slots: Vec::new(), live: 0 }
    }
}

impl<V: Copy + Default> OpenMap<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// A table that takes `keys` entries without rehashing, at the capacity
    /// `keys` single inserts into an empty table end on.
    pub fn with_capacity(keys: usize) -> Self {
        let mut cap = if keys == 0 { 0 } else { 8 };
        while keys * 8 > cap * 7 {
            cap *= 2;
        }
        OpenMap { slots: vec![(EMPTY, V::default()); cap], live: 0 }
    }

    #[inline]
    fn bucket_of(&self, key: u32) -> usize {
        // Fibonacci hashing: multiply and keep the top log2(cap) bits.
        let k = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9) >> (32 - k)) as usize
    }

    /// Index of `key`'s bucket, if present.
    #[inline]
    pub fn find(&self, key: u32) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket_of(key);
        loop {
            match self.slots[i].0 {
                EMPTY => return None,
                k if k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Hints `key`'s home bucket — where [`Self::find`] starts, and with
    /// Fibonacci hashing under a 7/8 load almost always ends — ahead of a
    /// probe (the batch lookahead, `crate::round::lookahead`).
    #[inline]
    pub fn prefetch(&self, key: u32) {
        if !self.slots.is_empty() {
            prefetch_at(&self.slots, self.bucket_of(key));
        }
    }

    #[inline]
    pub fn get(&self, key: u32) -> Option<V> {
        self.find(key).map(|i| self.slots[i].1)
    }

    #[inline]
    pub fn val_mut(&mut self, i: usize) -> &mut V {
        &mut self.slots[i].1
    }

    /// Finds `key`, inserting `default` if absent (growing as needed).
    /// Returns the bucket index and whether the entry was freshly inserted.
    pub fn ensure(&mut self, key: u32, default: V) -> (usize, bool) {
        debug_assert_ne!(key, EMPTY, "the empty-slot key is no vertex id");
        if (self.live + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket_of(key);
        loop {
            match self.slots[i].0 {
                EMPTY => {
                    self.slots[i] = (key, default);
                    self.live += 1;
                    return (i, true);
                }
                k if k == key => return (i, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts or overwrites, returning the previous value.
    pub fn insert(&mut self, key: u32, value: V) -> Option<V> {
        let (i, fresh) = self.ensure(key, value);
        if fresh {
            None
        } else {
            Some(std::mem::replace(self.val_mut(i), value))
        }
    }

    /// Removes the entry at bucket `i` (backward-shifting the cluster so no
    /// tombstone is left behind).
    pub fn remove_at(&mut self, mut i: usize) {
        self.live -= 1;
        self.slots[i].0 = EMPTY;
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == EMPTY {
                return;
            }
            let home = self.bucket_of(k);
            // The entry at j may move into the hole at i iff its probe path
            // (home..=j) passes through i.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots.swap(i, j);
                i = j;
            }
        }
    }

    #[cfg(test)]
    fn remove(&mut self, key: u32) -> Option<V> {
        let i = self.find(key)?;
        let old = self.slots[i].1;
        self.remove_at(i);
        Some(old)
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); new_cap]);
        let mask = new_cap - 1;
        for slot in old.into_iter().filter(|s| s.0 != EMPTY) {
            let mut i = self.bucket_of(slot.0);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.slots.iter().filter(|s| s.0 != EMPTY).map(|(k, v)| (*k, v))
    }

    /// Reserved bytes: every bucket is charged whether live or not —
    /// capacity is what the process actually holds.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u32, V)>()
    }

    /// Asserts the probe invariant: every live entry is reachable from its
    /// home bucket, i.e. backward-shift deletion left no stranded keys.
    pub fn validate(&self) {
        let mut live = 0;
        for (i, &(k, _)) in self.slots.iter().enumerate() {
            if k != EMPTY {
                live += 1;
                assert_eq!(self.find(k), Some(i), "key {k} stranded by deletion shifts");
            }
        }
        assert_eq!(live, self.live, "live count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Rng;
    use std::collections::BTreeMap;

    #[test]
    fn open_map_matches_btreemap_under_churn() {
        let mut rng = Rng::new(0xA11CE);
        let mut m: OpenMap<u64> = OpenMap::new();
        let mut shadow: BTreeMap<u32, u64> = BTreeMap::new();
        for step in 0..20_000 {
            let key = rng.below(64) as u32;
            match rng.below(3) {
                0 => {
                    let val = step as u64;
                    assert_eq!(m.insert(key, val), shadow.insert(key, val));
                }
                1 => assert_eq!(m.remove(key), shadow.remove(&key)),
                _ => assert_eq!(m.get(key), shadow.get(&key).copied()),
            }
            if step % 1024 == 0 {
                m.validate();
            }
        }
        m.validate();
        assert_eq!(m.len(), shadow.len());
        let mut got: Vec<(u32, u64)> = m.iter().map(|(k, &val)| (k, val)).collect();
        got.sort_unstable();
        let want: Vec<(u32, u64)> = shadow.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn open_map_is_capacity_stable_under_self_inverting_churn() {
        let mut m: OpenMap<u32> = OpenMap::new();
        for k in 0..100 {
            m.insert(k, k);
        }
        for k in 0..100 {
            m.remove(k);
        }
        let warm = m.resident_bytes();
        assert!(warm > 0);
        for _ in 0..50 {
            for k in 0..100 {
                m.insert(k, k);
            }
            for k in (0..100).rev() {
                m.remove(k);
            }
            // No tombstones ⇒ no rehash ⇒ reserved bytes are a fixpoint.
            assert_eq!(m.resident_bytes(), warm);
        }
        m.validate();
        assert_eq!(m.len(), 0);
    }

    /// A count slot is its key and its count, nothing more.
    #[test]
    fn a_count_slot_is_eight_bytes() {
        let m: OpenMap<u32> = OpenMap::with_capacity(7);
        assert_eq!(m.resident_bytes(), 8 * 8);
    }
}
