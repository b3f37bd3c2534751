//! Arena storage for the DCG's adjacency runs.
//!
//! The DCG keeps, per non-root query vertex `u`, two directed adjacency
//! indexes (parent→children and child→parents). Prior to this module each
//! index was a `HashMap<VertexId, Vec<(VertexId, EdgeState)>>`: one heap
//! allocation per (vertex, u) pair, pointer-chasing on every probe, and no
//! reuse across insert/delete churn. The arena replaces that with three
//! flat structures:
//!
//! * [`OpenMap`] — an open-addressed, linear-probing hash table from
//!   `u32` keys to small `Copy` values (Fibonacci hashing, backward-shift
//!   deletion, so there are no tombstones and a warmed table never
//!   rehashes under self-inverting churn);
//! * [`RunRef`] — the per-(vertex, u) map value: either an *inline* run of
//!   up to [`INLINE_CAP`] edges stored directly in the table slot (the
//!   common low-fanout case costs zero extra allocations), or the
//!   `{off, len, expl, class}` handle of a pooled run;
//! * [`RunPool`] — the pooled runs, in the [`SlotArena`] the data graph's
//!   adjacency also lives in (`tfx_graph::arena`): one big `Vec` carved in
//!   power-of-two size classes with a per-class LIFO free list; a run that
//!   outgrows its slot is copied to the next class and its old slot is
//!   recycled. Once pooled, a run stays pooled until it empties (demoting
//!   at the inline boundary would make runs hovering around it pay an
//!   alloc + copy + release on every churn cycle). Freed storage is
//!   reused, never returned, so steady-state churn allocates nothing and
//!   reserved bytes are an exact, replay-deterministic measure.
//!
//! Runs are kept sorted by far-end vertex id: lookups binary-search, and
//! enumeration order is canonical (independent of insertion/removal
//! history), which the equivalence oracles rely on.

use tfx_graph::arena::{class_cap, class_for, SlotArena};
use tfx_graph::{prefetch_at, VertexId};

use crate::dcg::EdgeState;

/// Maximum number of edges stored inline in a table slot before a run is
/// promoted to the pool. Two covers the typical DCG fanout away from hubs.
pub const INLINE_CAP: usize = 2;

const NIL_EDGE: (VertexId, EdgeState) = (VertexId(0), EdgeState::Implicit);

/// Explicit-edge count of a (short, inline) run; pooled runs keep this on
/// their handle instead.
#[inline]
fn count_expl(run: &[(VertexId, EdgeState)]) -> u32 {
    run.iter().filter(|&&(_, st)| st == EdgeState::Explicit).count() as u32
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
// RunPool
// ---------------------------------------------------------------------------

/// The edge runs that outgrow the inline layout, in a [`SlotArena`].
///
/// The pool keeps no per-run record: a run's `{off, len, expl, class}`
/// handle lives in the index bucket that owns it ([`RunRef::Pooled`]), as
/// the data graph's vertex table holds its adjacency handles, so a pooled
/// lookup is two dependent loads (bucket, arena). Slots are recycled before
/// anything new is carved, so after warm-up the pool never allocates.
#[derive(Default)]
pub struct RunPool {
    arena: SlotArena<(VertexId, EdgeState)>,
}

impl RunPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// A slot of `class` seeded with the already-sorted `entries`.
    fn alloc(&mut self, class: u8, entries: &[(VertexId, EdgeState)]) -> RunRef {
        debug_assert!(entries.len() <= class_cap(class) as usize);
        let off = self.arena.alloc(class);
        self.arena.data_mut()[off as usize..][..entries.len()].copy_from_slice(entries);
        RunRef::Pooled { off, len: entries.len() as u32, expl: count_expl(entries), class }
    }

    /// Reserved bytes of the arena.
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes()
    }

    #[inline]
    pub fn free_slot_count(&self) -> usize {
        self.arena.free_slots()
    }

    /// Total arena slots ever carved (live + free).
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.arena.live_slots() + self.arena.free_slots()
    }

    /// Total carved entries (live or free) — the pool's footprint in edges.
    #[inline]
    pub fn carved_entries(&self) -> usize {
        self.arena.carved_entries()
    }

    /// Pool invariants, given the `(off, class)` of every pooled run the
    /// indexes hold ([`RunIndex::validate`]): those slots plus the arena's
    /// free lists tile the carved pool — none leaked, none aliased.
    pub fn validate(&self, held: &[(u32, u8)]) {
        self.arena.validate(held.iter().copied());
    }
}

// ---------------------------------------------------------------------------
// RunIndex
// ---------------------------------------------------------------------------

/// Per-(vertex, u) run handle: small runs live inline in the table slot,
/// larger ones in the pool. `Warm` marks a pooled run that emptied out —
/// its slot went back to the free lists, but the entry remembers the
/// high-water size class so a rebuild allocates that class directly
/// instead of copying through every class on the way up (hub runs are
/// torn down and rebuilt wholesale by the engine's check-and-avoid rule,
/// which made class-by-class regrowth the dominant cost there).
#[derive(Clone, Copy, Debug)]
pub enum RunRef {
    Inline {
        len: u8,
        edges: [(VertexId, EdgeState); INLINE_CAP],
    },
    /// The run's arena slot (`off`, of size class `class`), its live entries
    /// and how many of them are explicit (the per-run counter behind O(1)
    /// `out_expl_count`).
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

/// One direction of one query vertex's DCG adjacency: an [`OpenMap`] from
/// the near-side data vertex to its (sorted) edge run. All mutating calls
/// thread the shared [`RunPool`] explicitly so the `Dcg` can keep one pool
/// across all `2·|V(q)|` indexes.
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

    /// Lays the finished `run` (sorted by id, duplicate-free, non-empty) of
    /// a `key` that has none yet, at its final size: inline, or one slot of
    /// the class that fits it. Returns its explicit-edge count.
    pub fn lay(&mut self, pool: &mut RunPool, key: VertexId, run: &[(VertexId, EdgeState)]) -> u32 {
        debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0) && !run.is_empty());
        let laid = if run.len() <= INLINE_CAP {
            let mut edges = [NIL_EDGE; INLINE_CAP];
            edges[..run.len()].copy_from_slice(run);
            RunRef::Inline { len: run.len() as u8, edges }
        } else {
            pool.alloc(class_for(run.len()), run)
        };
        let (_, fresh) = self.map.ensure(key.0, laid);
        assert!(fresh, "lay over an existing run");
        count_expl(run)
    }

    /// The run for `key` as a sorted borrowed slice (empty if absent).
    #[inline]
    pub fn slice<'a>(&'a self, pool: &'a RunPool, key: VertexId) -> &'a [(VertexId, EdgeState)] {
        match self.map.find(key.0) {
            None => &[],
            Some(i) => match self.map.val(i) {
                RunRef::Inline { len, edges } => &edges[..*len as usize],
                RunRef::Pooled { off, len, .. } => pool.arena.run(*off, *len),
                RunRef::Warm { .. } => &[],
            },
        }
    }

    /// The batch lookahead's hint for a coming probe or update of `key`'s
    /// run: stage 1 its home bucket; stage 2 — the bucket is cached by then —
    /// the first and middle line of the run, if it is a pooled one.
    #[inline]
    pub fn prefetch(&self, pool: &RunPool, key: VertexId, stage: u8) {
        match stage {
            1 => self.map.prefetch(key.0),
            2 => {
                if let Some(&RunRef::Pooled { off, len, .. }) =
                    self.map.find(key.0).map(|i| self.map.val(i))
                {
                    let data = pool.arena.data();
                    prefetch_at(data, off as usize);
                    prefetch_at(data, off as usize + len as usize / 2);
                }
            }
            _ => {}
        }
    }

    #[inline]
    pub fn get(&self, pool: &RunPool, key: VertexId, v: VertexId) -> Option<EdgeState> {
        let run = self.slice(pool, key);
        let i = run.binary_search_by_key(&v, |&(w, _)| w).ok()?;
        Some(run[i].1)
    }

    #[inline]
    pub fn run_len(&self, key: VertexId) -> usize {
        match self.map.find(key.0) {
            None => 0,
            Some(i) => match self.map.val(i) {
                RunRef::Inline { len, .. } => *len as usize,
                RunRef::Pooled { len, .. } => *len as usize,
                RunRef::Warm { .. } => 0,
            },
        }
    }

    #[inline]
    pub fn expl_count(&self, key: VertexId) -> usize {
        match self.map.find(key.0) {
            None => 0,
            Some(i) => match self.map.val(i) {
                RunRef::Inline { len, edges } => count_expl(&edges[..*len as usize]) as usize,
                RunRef::Pooled { expl, .. } => *expl as usize,
                RunRef::Warm { .. } => 0,
            },
        }
    }

    /// Sets the state of edge `v` in `key`'s run (inserting the run and/or
    /// the edge as needed), returning the previous state and the run's
    /// explicit-edge count after the write — the counter is already on the
    /// run's handle, so callers maintaining derived explicit-edge indexes
    /// avoid a second table probe. Promotes inline runs to the pool when
    /// they outgrow [`INLINE_CAP`].
    pub fn set(
        &mut self,
        pool: &mut RunPool,
        key: VertexId,
        v: VertexId,
        st: EdgeState,
    ) -> (Option<EdgeState>, u32) {
        let (i, fresh) = self.map.ensure(key.0, RunRef::Inline { len: 0, edges: [NIL_EDGE; 2] });
        match self.map.val_mut(i) {
            RunRef::Inline { len, edges } => {
                let n = *len as usize;
                debug_assert!(fresh == (n == 0));
                let pos = edges[..n].partition_point(|&(w, _)| w < v);
                if pos < n && edges[pos].0 == v {
                    let old = std::mem::replace(&mut edges[pos].1, st);
                    (Some(old), count_expl(&edges[..n]))
                } else if n < INLINE_CAP {
                    edges.copy_within(pos..n, pos + 1);
                    edges[pos] = (v, st);
                    *len += 1;
                    (None, count_expl(&edges[..n + 1]))
                } else {
                    // Promote: the run becomes INLINE_CAP + 1 entries.
                    let mut spill = [NIL_EDGE; INLINE_CAP + 1];
                    spill[..pos].copy_from_slice(&edges[..pos]);
                    spill[pos] = (v, st);
                    spill[pos + 1..].copy_from_slice(&edges[pos..]);
                    *self.map.val_mut(i) = pool.alloc(0, &spill);
                    (None, count_expl(&spill))
                }
            }
            RunRef::Pooled { off, len, expl, class } => {
                // Binary-search the sorted run; a full slot moves up a class.
                let old = match pool.arena.run(*off, *len).binary_search_by_key(&v, |&(w, _)| w) {
                    Ok(pos) => {
                        let entry = &mut pool.arena.data_mut()[*off as usize + pos];
                        let old = std::mem::replace(&mut entry.1, st);
                        *expl -= u32::from(old == EdgeState::Explicit);
                        Some(old)
                    }
                    Err(pos) => {
                        (*off, *class) = pool.arena.insert_at(*off, *len, *class, pos, (v, st));
                        *len += 1;
                        None
                    }
                };
                *expl += u32::from(st == EdgeState::Explicit);
                (old, *expl)
            }
            RunRef::Warm { class } => {
                *self.map.val_mut(i) = pool.alloc(*class, &[(v, st)]);
                (None, u32::from(st == EdgeState::Explicit))
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
        pool: &mut RunPool,
        key: VertexId,
        v: VertexId,
    ) -> (Option<EdgeState>, u32) {
        let Some(i) = self.map.find(key.0) else { return (None, 0) };
        match self.map.val_mut(i) {
            RunRef::Inline { len, edges } => {
                let n = *len as usize;
                let Some(pos) = edges[..n].iter().position(|&(w, _)| w == v) else {
                    return (None, count_expl(&edges[..n]));
                };
                let old = edges[pos].1;
                edges.copy_within(pos + 1..n, pos);
                *len -= 1;
                let expl = count_expl(&edges[..n - 1]);
                if *len == 0 {
                    self.map.remove_at(i);
                }
                (Some(old), expl)
            }
            RunRef::Pooled { off, len, expl, class } => {
                let run = pool.arena.run(*off, *len);
                let Ok(pos) = run.binary_search_by_key(&v, |&(w, _)| w) else {
                    return (None, *expl);
                };
                let old = run[pos].1;
                pool.arena.remove_at(*off, *len, pos);
                *len -= 1;
                *expl -= u32::from(old == EdgeState::Explicit);
                let left = *expl;
                if *len == 0 {
                    let class = *class;
                    pool.arena.release(*off, class);
                    *self.map.val_mut(i) = RunRef::Warm { class };
                }
                (Some(old), left)
            }
            RunRef::Warm { .. } => (None, 0),
        }
    }

    /// Calls `f` with every (key, sorted run) pair. Map iteration order is
    /// table order — callers must be order-independent (snapshots collect
    /// into a `BTreeMap`, consistency checks assert per-entry facts).
    pub fn for_each_run<'a>(
        &'a self,
        pool: &'a RunPool,
        mut f: impl FnMut(VertexId, &[(VertexId, EdgeState)]),
    ) {
        for (k, rr) in self.map.iter() {
            match rr {
                RunRef::Inline { len, edges } => f(VertexId(k), &edges[..*len as usize]),
                RunRef::Pooled { off, len, .. } => f(VertexId(k), pool.arena.run(*off, *len)),
                RunRef::Warm { .. } => {}
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
    /// representation boundary, every run sorted with a true explicit
    /// counter, and the `(off, class)` of every pooled run appended to
    /// `held` for [`RunPool::validate`].
    pub fn validate(&self, pool: &RunPool, held: &mut Vec<(u32, u8)>) {
        self.map.validate();
        for (k, rr) in self.map.iter() {
            match *rr {
                RunRef::Inline { len, edges } => {
                    let n = len as usize;
                    assert!((1..=INLINE_CAP).contains(&n), "empty inline run for key {k}");
                    assert!(
                        edges[..n].windows(2).all(|w| w[0].0 < w[1].0),
                        "inline run unsorted for key {k}"
                    );
                }
                RunRef::Pooled { off, len, expl, class } => {
                    assert!((1..=class_cap(class)).contains(&len), "run of key {k} misfits");
                    let run = pool.arena.run(off, len);
                    assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "run of key {k} unsorted");
                    assert_eq!(count_expl(run), expl, "expl counter of key {k} drifted");
                    held.push((off, class));
                }
                RunRef::Warm { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Same xorshift as the engine's randomized tests.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
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

    fn expl(i: usize) -> EdgeState {
        if i.is_multiple_of(3) {
            EdgeState::Explicit
        } else {
            EdgeState::Implicit
        }
    }

    #[test]
    fn run_index_promotes_demotes_and_matches_model() {
        let mut rng = Rng::new(0xD1CE);
        let mut pool = RunPool::new();
        let mut idx = RunIndex::new();
        let mut shadow: BTreeMap<u32, BTreeMap<u32, EdgeState>> = BTreeMap::new();
        for step in 0..30_000 {
            let key = v(rng.below(8) as u32);
            let far = v(rng.below(40) as u32);
            let st = expl(step);
            if rng.below(2) == 0 {
                let (old, expl) = idx.set(&mut pool, key, far, st);
                let entry = shadow.entry(key.0).or_default();
                assert_eq!(old, entry.insert(far.0, st));
                let want = entry.values().filter(|&&s| s == EdgeState::Explicit).count();
                assert_eq!(expl as usize, want, "post-set explicit count diverged");
            } else {
                let (old, expl) = idx.remove(&mut pool, key, far);
                let entry = shadow.entry(key.0).or_default();
                assert_eq!(old, entry.remove(&far.0));
                let want = entry.values().filter(|&&s| s == EdgeState::Explicit).count();
                assert_eq!(expl as usize, want, "post-remove explicit count diverged");
                if entry.is_empty() {
                    shadow.remove(&key.0);
                }
            }
            if step % 2048 == 0 {
                let mut held = Vec::new();
                idx.validate(&pool, &mut held);
                pool.validate(&held);
            }
        }
        for (&k, run) in &shadow {
            let got: Vec<(u32, EdgeState)> =
                idx.slice(&pool, v(k)).iter().map(|&(w, st)| (w.0, st)).collect();
            let want: Vec<(u32, EdgeState)> = run.iter().map(|(&w, &st)| (w, st)).collect();
            assert_eq!(got, want, "run for key {k} diverged");
            let want_expl = run.values().filter(|&&st| st == EdgeState::Explicit).count();
            assert_eq!(idx.expl_count(v(k)), want_expl);
            assert_eq!(idx.run_len(v(k)), run.len());
        }
        let mut held = Vec::new();
        idx.validate(&pool, &mut held);
        pool.validate(&held);
    }

    /// The pooled handle rides in the bytes the inline pair already takes:
    /// moving it into the bucket did not grow the index tables.
    #[test]
    fn a_pooled_handle_fits_the_inline_bucket() {
        assert!(std::mem::size_of::<RunRef>() <= 20);
        assert_eq!(std::mem::size_of::<Option<(u32, RunRef)>>(), 24);
    }

    #[test]
    fn pool_slots_are_recycled_not_carved() {
        let mut pool = RunPool::new();
        let mut idx = RunIndex::new();
        // Push one run through promote → grow → full teardown, twice; the
        // second pass must reuse the first pass's slots.
        let cycle = |pool: &mut RunPool, idx: &mut RunIndex| {
            for i in 0..20 {
                idx.set(pool, v(0), v(i), EdgeState::Implicit);
            }
            for i in 0..20 {
                idx.remove(pool, v(0), v(i));
            }
        };
        cycle(&mut pool, &mut idx);
        let carved = pool.carved_entries();
        let slots = pool.slot_count();
        assert!(carved > 0 && pool.free_slot_count() == slots, "all slots back on free lists");
        cycle(&mut pool, &mut idx);
        assert_eq!(pool.carved_entries(), carved, "steady-state churn carved new storage");
        assert_eq!(pool.slot_count(), slots);
        assert_eq!(idx.run_len(v(0)), 0);
    }

    #[test]
    fn inline_runs_use_no_pool_storage() {
        let mut pool = RunPool::new();
        let mut idx = RunIndex::new();
        for k in 0..100 {
            idx.set(&mut pool, v(k), v(1), EdgeState::Implicit);
            idx.set(&mut pool, v(k), v(0), EdgeState::Explicit);
        }
        assert_eq!(pool.carved_entries(), 0, "low-fanout runs must stay inline");
        for k in 0..100 {
            assert_eq!(
                idx.slice(&pool, v(k)),
                &[(v(0), EdgeState::Explicit), (v(1), EdgeState::Implicit)]
            );
            assert_eq!(idx.expl_count(v(k)), 1);
        }
        // One more edge promotes exactly one run.
        idx.set(&mut pool, v(7), v(5), EdgeState::Implicit);
        assert_eq!(pool.carved_entries(), class_cap(0) as usize);
        assert_eq!(idx.run_len(v(7)), 3);
    }
}
