//! Arena storage for the DCG's adjacency runs.
//!
//! The DCG keeps, per non-root query vertex `u`, two directed adjacency
//! indexes (parent→children and child→parents). Each is three flat
//! structures:
//!
//! * [`OpenMap`] — an open-addressed, linear-probing hash table from
//!   `u32` keys to small `Copy` values (Fibonacci hashing, backward-shift
//!   deletion, so there are no tombstones and a warmed table never
//!   rehashes under self-inverting churn);
//! * [`RunRef`] — the per-(vertex, u) map value: either an *inline* run of
//!   up to [`INLINE_CAP`] far ends stored directly in the table slot (the
//!   common low-fanout case costs zero extra allocations), or the
//!   `{off, len, expl, class}` handle of a pooled run;
//! * the [`Pool`] — a [`SlotArena`] of `VertexId`s, the structure the data
//!   graph's adjacency lives in (`tfx_graph::arena`): one big `Vec` carved
//!   in power-of-two size classes with a per-class LIFO free list; a run
//!   that outgrows its slot is copied to the next class and its old slot is
//!   recycled. Once pooled, a run stays pooled until it empties (demoting
//!   at the inline boundary would make runs hovering around it pay an
//!   alloc + copy + release on every churn cycle). Freed storage is
//!   reused, never returned, so steady-state churn allocates nothing and
//!   reserved bytes are an exact, replay-deterministic measure.
//!
//! **A run is ids; state is position.** Every run is laid out as
//! `[explicit far ends, ascending | implicit far ends, ascending]`, split at
//! the `expl` count its handle carries. Nothing is stored per entry beside
//! the id: the explicit edges — the partial solutions `SubgraphSearch` walks
//! — are the borrowed slice `&run[..expl]`, an edge changes state by moving
//! across the split ([`flip`]), and a lookup binary-searches one partition,
//! then the other. Each partition being sorted keeps enumeration order
//! canonical (independent of insertion/removal history), which the
//! equivalence oracles rely on. The DCG's *in* indexes are the same type with
//! every run's split at 0 — one ascending list of parents, no state: the one
//! reader that walks all edges of a run and emits as it goes, the upward
//! climb, walks those (`Dcg::check_consistency` asserts the 0).

use tfx_graph::arena::{class_cap, class_for, SlotArena};
use tfx_graph::{contains_sorted, prefetch_at, VertexId};

use crate::dcg::EdgeState;

/// Maximum number of edges stored inline in a table slot before a run is
/// promoted to the pool: what fits the 20 bytes a pooled handle's bucket
/// takes anyway.
pub const INLINE_CAP: usize = 4;

/// The pooled runs of every index of one DCG. It keeps no per-run record: a
/// run's `{off, len, expl, class}` handle lives in the index bucket that owns
/// it ([`RunRef::Pooled`]), as the data graph's vertex table holds its
/// adjacency handles, so a pooled lookup is two dependent loads (bucket,
/// arena).
pub type Pool = SlotArena<VertexId>;

/// Where `v` is in the split run `run[..expl] | run[expl..]` — its index and
/// state, if present — and the index an entry for `v` in state `to` belongs
/// at, in the run's current layout.
fn place(
    run: &[VertexId],
    expl: usize,
    v: VertexId,
    to: EdgeState,
) -> (Option<(usize, EdgeState)>, usize) {
    let in_expl = run[..expl].binary_search(&v);
    let in_impl = run[expl..].binary_search(&v).map(|i| expl + i).map_err(|i| expl + i);
    let at = match (in_expl, in_impl) {
        (Ok(i), _) => Some((i, EdgeState::Explicit)),
        (_, Ok(i)) => Some((i, EdgeState::Implicit)),
        _ => None,
    };
    let (Ok(slot) | Err(slot)) = if to == EdgeState::Explicit { in_expl } else { in_impl };
    (at, slot)
}

/// Moves `run[from]` across the split into state `to`, to the sorted
/// position `slot` that [`place`] found for it there: one rotate over the
/// entries between the two positions, both partitions still ascending. The
/// caller moves the split (`expl` ± 1).
fn flip(run: &mut [VertexId], from: usize, slot: usize, to: EdgeState) {
    match to {
        // `slot ≤ expl ≤ from`: the entries in between step right.
        EdgeState::Explicit => run[slot..=from].rotate_right(1),
        // `from < expl ≤ slot`, and `slot` counted the entry itself.
        EdgeState::Implicit => run[from..slot].rotate_left(1),
    }
}

// ---------------------------------------------------------------------------
// OpenMap
// ---------------------------------------------------------------------------

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
    /// `None` = empty bucket. Capacity is a power of two (or zero).
    slots: Vec<Option<(u32, V)>>,
    live: usize,
}

impl<V: Copy> Default for OpenMap<V> {
    fn default() -> Self {
        OpenMap { slots: Vec::new(), live: 0 }
    }
}

impl<V: Copy> OpenMap<V> {
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
        OpenMap { slots: vec![None; cap], live: 0 }
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
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Hints `key`'s home bucket — where [`Self::find`] starts, and with
    /// Fibonacci hashing under a 7/8 load almost always ends — ahead of a
    /// probe (the batch lookahead, [`crate::round::lookahead`]).
    #[inline]
    pub fn prefetch(&self, key: u32) {
        if !self.slots.is_empty() {
            prefetch_at(&self.slots, self.bucket_of(key));
        }
    }

    #[inline]
    pub fn get(&self, key: u32) -> Option<V> {
        self.find(key).map(|i| self.slots[i].as_ref().unwrap().1)
    }

    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.find(key).is_some()
    }

    #[inline]
    pub fn val_mut(&mut self, i: usize) -> &mut V {
        &mut self.slots[i].as_mut().unwrap().1
    }

    #[inline]
    pub fn val(&self, i: usize) -> &V {
        &self.slots[i].as_ref().unwrap().1
    }

    /// Finds `key`, inserting `default` if absent (growing as needed).
    /// Returns the bucket index and whether the entry was freshly inserted.
    pub fn ensure(&mut self, key: u32, default: V) -> (usize, bool) {
        if (self.live + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.bucket_of(key);
        loop {
            match &self.slots[i] {
                None => {
                    self.slots[i] = Some((key, default));
                    self.live += 1;
                    return (i, true);
                }
                Some((k, _)) if *k == key => return (i, false),
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
        self.slots[i] = None;
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let Some(&(k, _)) = self.slots[j].as_ref() else { return };
            let home = self.bucket_of(k);
            // The entry at j may move into the hole at i iff its probe path
            // (home..=j) passes through i.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots.swap(i, j);
                i = j;
            }
        }
    }

    pub fn remove(&mut self, key: u32) -> Option<V> {
        let i = self.find(key)?;
        let old = self.slots[i].as_ref().unwrap().1;
        self.remove_at(i);
        Some(old)
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
        let mask = new_cap - 1;
        for slot in old.into_iter().flatten() {
            let mut i = self.bucket_of(slot.0);
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (*k, v))
    }

    /// Reserved bytes: every bucket is charged whether live or not —
    /// capacity is what the process actually holds.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<(u32, V)>>()
    }

    /// Asserts the probe invariant: every live entry is reachable from its
    /// home bucket, i.e. backward-shift deletion left no stranded keys.
    pub fn validate(&self) {
        let mut live = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(&(k, _)) = slot.as_ref() {
                live += 1;
                assert_eq!(self.find(k), Some(i), "key {k} stranded by deletion shifts");
            }
        }
        assert_eq!(live, self.live, "live count drifted");
    }
}

// ---------------------------------------------------------------------------
// RunIndex
// ---------------------------------------------------------------------------

/// Per-(vertex, u) run handle: small runs live inline in the table slot,
/// larger ones in the pool; either way `[..expl]` of the run is its explicit
/// partition. `Warm` marks a pooled run that emptied out — its slot went
/// back to the free lists, but the entry remembers the high-water size class
/// so a rebuild allocates that class directly instead of copying through
/// every class on the way up (hub runs are torn down and rebuilt wholesale
/// by the engine's check-and-avoid rule, which made class-by-class regrowth
/// the dominant cost there).
#[derive(Clone, Copy, Debug)]
pub enum RunRef {
    Inline {
        len: u8,
        expl: u8,
        ids: [VertexId; INLINE_CAP],
    },
    /// The run's arena slot (`off`, of size class `class`), its live entries
    /// and how many of them — the leading ones — are explicit.
    Pooled {
        off: u32,
        len: u32,
        expl: u32,
        class: u8,
    },
    Warm {
        class: u8,
    },
}

impl RunRef {
    /// The run (empty for a warm entry) and its split point.
    #[inline]
    fn run<'a>(&'a self, pool: &'a Pool) -> (&'a [VertexId], usize) {
        match self {
            RunRef::Inline { len, expl, ids } => (&ids[..*len as usize], *expl as usize),
            RunRef::Pooled { off, len, expl, .. } => (pool.run(*off, *len), *expl as usize),
            RunRef::Warm { .. } => (&[], 0),
        }
    }
}

const EMPTY_RUN: RunRef = RunRef::Inline { len: 0, expl: 0, ids: [VertexId(0); INLINE_CAP] };

/// One direction of one query vertex's DCG adjacency: an [`OpenMap`] from
/// the near-side data vertex to its split run. All mutating calls thread the
/// shared [`Pool`] explicitly so the `Dcg` can keep one pool across all
/// `2·|V(q)|` indexes.
#[derive(Default)]
pub struct RunIndex {
    map: OpenMap<RunRef>,
}

impl RunIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// An index whose table takes `keys` runs without rehashing.
    pub fn with_capacity(keys: usize) -> Self {
        RunIndex { map: OpenMap::with_capacity(keys) }
    }

    /// Lays the finished run `ids` (already split: `ids[..expl]` explicit,
    /// the rest implicit, each ascending; disjoint, non-empty) of a `key`
    /// that has none yet, at its final size: inline, or one slot of the
    /// class that fits it.
    pub fn lay(&mut self, pool: &mut Pool, key: VertexId, ids: &[VertexId], expl: usize) {
        debug_assert!(!ids.is_empty() && expl <= ids.len());
        let laid = if ids.len() <= INLINE_CAP {
            let mut inline = [VertexId(0); INLINE_CAP];
            inline[..ids.len()].copy_from_slice(ids);
            RunRef::Inline { len: ids.len() as u8, expl: expl as u8, ids: inline }
        } else {
            let class = class_for(ids.len());
            let off = pool.alloc(class);
            pool.data_mut()[off as usize..][..ids.len()].copy_from_slice(ids);
            RunRef::Pooled { off, len: ids.len() as u32, expl: expl as u32, class }
        };
        let (_, fresh) = self.map.ensure(key.0, laid);
        assert!(fresh, "lay over an existing run");
    }

    /// The run for `key` (empty if absent) and its split point: the first
    /// `expl` ids are the explicit far ends, the rest the implicit ones, each
    /// partition ascending.
    #[inline]
    pub fn run<'a>(&'a self, pool: &'a Pool, key: VertexId) -> (&'a [VertexId], usize) {
        self.map.find(key.0).map_or((&[], 0), |i| self.map.val(i).run(pool))
    }

    /// The explicit far ends of `key`'s run, ascending.
    #[inline]
    pub fn explicit<'a>(&'a self, pool: &'a Pool, key: VertexId) -> &'a [VertexId] {
        let (run, expl) = self.run(pool, key);
        &run[..expl]
    }

    /// The batch lookahead's hint for a coming probe or update of `key`'s
    /// run: stage 1 its home bucket; stage 2 — the bucket is cached by then —
    /// the first and middle line of the run, if it is a pooled one.
    #[inline]
    pub fn prefetch(&self, pool: &Pool, key: VertexId, stage: u8) {
        match stage {
            1 => self.map.prefetch(key.0),
            2 => {
                if let Some(&RunRef::Pooled { off, len, .. }) =
                    self.map.find(key.0).map(|i| self.map.val(i))
                {
                    prefetch_at(pool.data(), off as usize);
                    prefetch_at(pool.data(), off as usize + len as usize / 2);
                }
            }
            _ => {}
        }
    }

    /// State of edge `v` in `key`'s run: the explicit partition is searched
    /// first, then the implicit one.
    #[inline]
    pub fn get(&self, pool: &Pool, key: VertexId, v: VertexId) -> Option<EdgeState> {
        let (run, expl) = self.run(pool, key);
        if contains_sorted(&run[..expl], v) {
            Some(EdgeState::Explicit)
        } else if contains_sorted(&run[expl..], v) {
            Some(EdgeState::Implicit)
        } else {
            None
        }
    }

    #[inline]
    pub fn run_len(&self, key: VertexId) -> usize {
        match self.map.find(key.0).map(|i| self.map.val(i)) {
            Some(RunRef::Inline { len, .. }) => *len as usize,
            Some(RunRef::Pooled { len, .. }) => *len as usize,
            Some(RunRef::Warm { .. }) | None => 0,
        }
    }

    #[inline]
    pub fn expl_count(&self, key: VertexId) -> usize {
        match self.map.find(key.0).map(|i| self.map.val(i)) {
            Some(RunRef::Inline { expl, .. }) => *expl as usize,
            Some(RunRef::Pooled { expl, .. }) => *expl as usize,
            Some(RunRef::Warm { .. }) | None => 0,
        }
    }

    /// Sets the state of edge `v` in `key`'s run (inserting the run and/or
    /// the edge as needed), returning the previous state and the run's
    /// explicit-edge count after the write — it is on the run's handle, so
    /// callers maintaining derived explicit-edge indexes avoid a second
    /// table probe. A new edge goes to its partition's sorted position, a
    /// restated one moves across the split ([`flip`]). Promotes inline runs
    /// to the pool when they outgrow [`INLINE_CAP`].
    pub fn set(
        &mut self,
        pool: &mut Pool,
        key: VertexId,
        v: VertexId,
        st: EdgeState,
    ) -> (Option<EdgeState>, u32) {
        let (i, _) = self.map.ensure(key.0, EMPTY_RUN);
        let is_expl = st == EdgeState::Explicit;
        match self.map.val_mut(i) {
            RunRef::Inline { len, expl, ids } => {
                let n = *len as usize;
                let (at, slot) = place(&ids[..n], *expl as usize, v, st);
                if let Some((from, old)) = at {
                    if old != st {
                        flip(&mut ids[..n], from, slot, st);
                        *expl = if is_expl { *expl + 1 } else { *expl - 1 };
                    }
                    (Some(old), *expl as u32)
                } else if n < INLINE_CAP {
                    ids.copy_within(slot..n, slot + 1);
                    ids[slot] = v;
                    *len += 1;
                    *expl += u8::from(is_expl);
                    (None, *expl as u32)
                } else {
                    // Promote: the run becomes INLINE_CAP + 1 entries.
                    let class = class_for(INLINE_CAP + 1);
                    let (ids, expl) = (*ids, *expl as u32 + u32::from(is_expl));
                    let off = pool.alloc(class);
                    let dst = &mut pool.data_mut()[off as usize..][..INLINE_CAP + 1];
                    dst[..slot].copy_from_slice(&ids[..slot]);
                    dst[slot] = v;
                    dst[slot + 1..].copy_from_slice(&ids[slot..]);
                    let len = INLINE_CAP as u32 + 1;
                    *self.map.val_mut(i) = RunRef::Pooled { off, len, expl, class };
                    (None, expl)
                }
            }
            RunRef::Pooled { off, len, expl, class } => {
                // A full slot moves up a class.
                let (at, slot) = place(pool.run(*off, *len), *expl as usize, v, st);
                let old = match at {
                    Some((from, old)) => {
                        if old != st {
                            let run = &mut pool.data_mut()[*off as usize..][..*len as usize];
                            flip(run, from, slot, st);
                            *expl = if is_expl { *expl + 1 } else { *expl - 1 };
                        }
                        Some(old)
                    }
                    None => {
                        (*off, *class) = pool.insert_at(*off, *len, *class, slot, v);
                        *len += 1;
                        *expl += u32::from(is_expl);
                        None
                    }
                };
                (old, *expl)
            }
            RunRef::Warm { class } => {
                let class = *class;
                let off = pool.alloc(class);
                pool.data_mut()[off as usize] = v;
                let expl = u32::from(is_expl);
                *self.map.val_mut(i) = RunRef::Pooled { off, len: 1, expl, class };
                (None, expl)
            }
        }
    }

    /// Removes edge `v` from `key`'s run, returning its state and the run's
    /// explicit-edge count after the removal (0 when the edge or run was
    /// absent). A pooled run stays pooled until it empties — demoting back
    /// inline the moment a run dips to [`INLINE_CAP`] made every run that
    /// hovers around the boundary pay an alloc + copy + release per churn
    /// cycle (2–3× the per-op cost on low-fanout mirror runs). An emptied
    /// inline run drops its map entry; an emptied pooled run releases its
    /// slot but leaves a [`RunRef::Warm`] entry behind as a rebuild hint.
    pub fn remove(
        &mut self,
        pool: &mut Pool,
        key: VertexId,
        v: VertexId,
    ) -> (Option<EdgeState>, u32) {
        let Some(i) = self.map.find(key.0) else { return (None, 0) };
        match self.map.val_mut(i) {
            RunRef::Inline { len, expl, ids } => {
                let n = *len as usize;
                let (Some((pos, old)), _) =
                    place(&ids[..n], *expl as usize, v, EdgeState::Explicit)
                else {
                    return (None, *expl as u32);
                };
                ids.copy_within(pos + 1..n, pos);
                *len -= 1;
                *expl -= u8::from(old == EdgeState::Explicit);
                let left = *expl as u32;
                if *len == 0 {
                    self.map.remove_at(i);
                }
                (Some(old), left)
            }
            RunRef::Pooled { off, len, expl, class } => {
                let run = pool.run(*off, *len);
                let (Some((pos, old)), _) = place(run, *expl as usize, v, EdgeState::Explicit)
                else {
                    return (None, *expl);
                };
                pool.remove_at(*off, *len, pos);
                *len -= 1;
                *expl -= u32::from(old == EdgeState::Explicit);
                let left = *expl;
                if *len == 0 {
                    let class = *class;
                    pool.release(*off, class);
                    *self.map.val_mut(i) = RunRef::Warm { class };
                }
                (Some(old), left)
            }
            RunRef::Warm { .. } => (None, 0),
        }
    }

    /// Calls `f` with every `(key, explicit ids, implicit ids)`. Map
    /// iteration order is table order — callers must be order-independent
    /// (snapshots collect into a `BTreeMap`, consistency checks assert
    /// per-entry facts).
    pub fn for_each_run<'a>(
        &'a self,
        pool: &'a Pool,
        mut f: impl FnMut(VertexId, &[VertexId], &[VertexId]),
    ) {
        for (k, rr) in self.map.iter() {
            let (run, expl) = rr.run(pool);
            if !run.is_empty() {
                f(VertexId(k), &run[..expl], &run[expl..]);
            }
        }
    }

    /// (inline, pooled, warm) run counts — storage-stats support.
    pub fn repr_counts(&self) -> (usize, usize, usize) {
        let mut inline = 0;
        let mut pooled = 0;
        let mut warm = 0;
        for (_, rr) in self.map.iter() {
            match rr {
                RunRef::Inline { .. } => inline += 1,
                RunRef::Pooled { .. } => pooled += 1,
                RunRef::Warm { .. } => warm += 1,
            }
        }
        (inline, pooled, warm)
    }

    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.map.resident_bytes()
    }

    /// Index-side arena invariants: probe reachability, the inline/pooled
    /// representation boundary, every run split at `expl ≤ len` into two
    /// ascending partitions that share no id, and the `(off, class)` of
    /// every pooled run appended to `held` for [`SlotArena::validate`].
    pub fn validate(&self, pool: &Pool, held: &mut Vec<(u32, u8)>) {
        self.map.validate();
        for (k, rr) in self.map.iter() {
            match *rr {
                RunRef::Inline { len, .. } => {
                    assert!((1..=INLINE_CAP).contains(&(len as usize)), "inline run {k} misfits");
                }
                RunRef::Pooled { off, len, class, .. } => {
                    assert!((1..=class_cap(class)).contains(&len), "run of key {k} misfits");
                    held.push((off, class));
                }
                RunRef::Warm { .. } => {}
            }
        }
        self.for_each_run(pool, |k, explicit, implicit| {
            let ascending = |ids: &[VertexId]| ids.windows(2).all(|w| w[0] < w[1]);
            assert!(ascending(explicit) && ascending(implicit), "partition unsorted for key {k}");
            let shared = implicit.iter().any(|v| explicit.binary_search(v).is_ok());
            assert!(!shared, "partitions of key {k} share an id");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Rng;
    use std::collections::BTreeMap;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

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

    fn state(explicit: bool) -> EdgeState {
        if explicit {
            EdgeState::Explicit
        } else {
            EdgeState::Implicit
        }
    }

    #[test]
    fn run_index_promotes_demotes_and_matches_model() {
        let mut rng = Rng::new(0xD1CE);
        let mut pool = Pool::new();
        let mut idx = RunIndex::new();
        let mut shadow: BTreeMap<u32, BTreeMap<u32, EdgeState>> = BTreeMap::new();
        let mut flips = [0usize; 3]; // E → I, I → E, same state
        for step in 0..30_000 {
            let key = v(rng.below(8) as u32);
            let entry = shadow.entry(key.0).or_default();
            let roll = rng.below(3);
            // A third of the steps restate a stored edge, a third write any
            // far end (an insert, mostly), a third remove.
            let far = match roll {
                0 if !entry.is_empty() => v(*entry.keys().nth(rng.below(entry.len())).unwrap()),
                _ => v(rng.below(40) as u32),
            };
            let expl = if roll < 2 {
                let st = state(rng.below(2) == 0);
                let (old, expl) = idx.set(&mut pool, key, far, st);
                assert_eq!(old, entry.insert(far.0, st));
                if let Some(old) = old {
                    flips[if old == st { 2 } else { usize::from(st == EdgeState::Explicit) }] += 1;
                }
                expl
            } else {
                let (old, expl) = idx.remove(&mut pool, key, far);
                assert_eq!(old, entry.remove(&far.0));
                expl
            };
            // The touched run against the model: each partition as a slice,
            // their union in id order, the counters on the handle.
            let of = |st| entry.iter().filter(move |e| *e.1 == st).map(|e| v(*e.0));
            let want_expl: Vec<VertexId> = of(EdgeState::Explicit).collect();
            let want_impl: Vec<VertexId> = of(EdgeState::Implicit).collect();
            assert_eq!(expl as usize, want_expl.len(), "explicit count after step {step}");
            assert_eq!(idx.explicit(&pool, key), want_expl, "explicit slice after step {step}");
            let (run, split) = idx.run(&pool, key);
            assert_eq!(run[split..], want_impl, "implicit slice after step {step}");
            let mut by_id = run.to_vec();
            by_id.sort_unstable();
            assert!(by_id.iter().map(|w| w.0).eq(entry.keys().copied()), "ids after step {step}");
            assert_eq!(idx.get(&pool, key, far), entry.get(&far.0).copied());
            assert_eq!(idx.expl_count(key), want_expl.len());
            assert_eq!(idx.run_len(key), entry.len());
            if step % 2048 == 0 {
                let mut held = Vec::new();
                idx.validate(&pool, &mut held);
                pool.validate(held);
            }
        }
        assert!(flips.iter().all(|&n| n > 2_000), "restates drawn: {flips:?}");
        let mut held = Vec::new();
        idx.validate(&pool, &mut held);
        pool.validate(held);
    }

    /// The pooled handle rides in the bytes the four inline ids already
    /// take: moving it into the bucket did not grow the index tables.
    #[test]
    fn a_pooled_handle_fits_the_inline_bucket() {
        assert!(std::mem::size_of::<RunRef>() <= 20);
        assert_eq!(std::mem::size_of::<Option<(u32, RunRef)>>(), 24);
    }

    #[test]
    fn pool_slots_are_recycled_not_carved() {
        let mut pool = Pool::new();
        let mut idx = RunIndex::new();
        // Push one run through promote → grow → full teardown, twice; the
        // second pass must reuse the first pass's slots.
        let cycle = |pool: &mut Pool, idx: &mut RunIndex| {
            for i in 0..20 {
                idx.set(pool, v(0), v(i), state(i % 3 == 0));
            }
            for i in 0..20 {
                idx.remove(pool, v(0), v(i));
            }
        };
        cycle(&mut pool, &mut idx);
        let carved = pool.carved_entries();
        let slots = pool.live_slots() + pool.free_slots();
        assert!(carved > 0 && pool.free_slots() == slots, "all slots back on free lists");
        cycle(&mut pool, &mut idx);
        assert_eq!(pool.carved_entries(), carved, "steady-state churn carved new storage");
        assert_eq!(pool.live_slots() + pool.free_slots(), slots);
        assert_eq!(idx.run_len(v(0)), 0);
    }

    #[test]
    fn inline_runs_use_no_pool_storage() {
        let mut pool = Pool::new();
        let mut idx = RunIndex::new();
        for k in 0..100 {
            for (far, explicit) in [(3, false), (0, true), (2, true), (1, false)] {
                idx.set(&mut pool, v(k), v(far), state(explicit));
            }
        }
        assert_eq!(pool.carved_entries(), 0, "low-fanout runs must stay inline");
        for k in 0..100 {
            // Explicit far ends first, each partition ascending.
            assert_eq!(idx.run(&pool, v(k)), (&[v(0), v(2), v(1), v(3)][..], 2));
            assert_eq!(idx.explicit(&pool, v(k)), [v(0), v(2)]);
            assert_eq!(idx.expl_count(v(k)), 2);
        }
        // One more edge promotes exactly one run, past class 0: a slot of
        // four would be full on arrival.
        idx.set(&mut pool, v(7), v(5), EdgeState::Explicit);
        assert_eq!(pool.carved_entries(), class_cap(1) as usize);
        assert_eq!(idx.run(&pool, v(7)), (&[v(0), v(2), v(5), v(1), v(3)][..], 3));
        // A laid run reads back as it was split.
        idx.lay(&mut pool, v(200), &[v(4), v(9), v(1)], 2);
        assert_eq!(idx.explicit(&pool, v(200)), [v(4), v(9)]);
        assert_eq!(idx.get(&pool, v(200), v(1)), Some(EdgeState::Implicit));
    }
}
