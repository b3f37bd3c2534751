//! A slot arena: every run lives in one `Vec`, carved in size classes two
//! to a doubling (4, 6, 8, 12, 16, 24, … entries) with a per-class LIFO
//! free list. Past class 0 a slot laid for a run is more than two thirds
//! full, where a power-of-two class may be only just over half full.
//!
//! A slot is carved from the end of `data` exactly once and is identified
//! by its offset; a run that outgrows its slot is copied to the next class
//! and the old slot is recycled. Freed storage is reused before any new
//! carving and never returned, so steady-state churn allocates nothing and
//! reserved bytes are an exact, replay-deterministic measure. The arena
//! knows nothing about what a run means: the data graph's adjacency
//! ([`crate::adjacency`]) keeps its own `{off, len, class}` handles and its
//! own sort order.

/// Capacity of size class 0, in entries. Every second class doubles it.
pub const MIN_CLASS_CAP: u32 = 4;

/// Capacity of a slot of `class`, in entries: two classes per doubling,
/// 4, 6, 8, 12, 16, 24, …
#[inline]
pub fn class_cap(class: u8) -> u32 {
    (MIN_CLASS_CAP + MIN_CLASS_CAP / 2 * u32::from(class & 1)) << (class >> 1)
}

/// Smallest class whose slots hold `len` entries.
#[inline]
pub fn class_for(len: usize) -> u8 {
    let slots = len.div_ceil(MIN_CLASS_CAP as usize).max(1);
    let doubling = slots.next_power_of_two().trailing_zeros() as u8;
    // The half step below the doubling's class may do.
    let half = doubling > 0 && len <= class_cap(2 * doubling - 1) as usize;
    2 * doubling - u8::from(half)
}

/// The capacity an arena that needs `entries` grows to: the next multiple of
/// an eighth of the power of two above, so at most a quarter over. `Vec`'s
/// own `max(2 × capacity, entries)` leaves whatever the carving history
/// makes of it — one run laid whole that is larger than everything carved
/// before, or the first slot past an exactly sized `with_capacity`, sets an
/// odd capacity that every later doubling inherits — anywhere up to twice
/// the need, and the arenas are most of the heap.
fn grown_capacity(entries: usize) -> usize {
    let step = (entries.next_power_of_two() / 8).max(1);
    entries.div_ceil(step) * step
}

/// The arena. `T::default()` fills freshly carved slots.
#[derive(Clone, Default)]
pub struct SlotArena<T> {
    data: Vec<T>,
    /// Per size class: offsets of free slots.
    free: Vec<Vec<u32>>,
    slots: usize,
    free_slots: usize,
}

impl<T: Copy + Default> SlotArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `entries` before the first regrowth.
    pub fn with_capacity(entries: usize) -> Self {
        SlotArena { data: Vec::with_capacity(entries), ..Self::default() }
    }

    /// Room for `entries` more carved entries before the next regrowth,
    /// reserved exactly.
    pub fn reserve_exact(&mut self, entries: usize) {
        self.data.reserve_exact(entries);
    }

    /// A slot of `class`: the most recently freed one, else a new carving.
    /// Its contents are unspecified.
    pub fn alloc(&mut self, class: u8) -> u32 {
        self.alloc_from(class, std::iter::empty())
    }

    /// A slot of `class` that starts with `words` (at most the class's
    /// capacity; the rest unspecified): the most recently freed one, else a
    /// new carving. A carving appends `words` and pads only what they leave
    /// of the slot, so nothing is filled before it is written.
    pub fn alloc_from(&mut self, class: u8, words: impl ExactSizeIterator<Item = T>) -> u32 {
        let cap = class_cap(class) as usize;
        debug_assert!(words.len() <= cap, "{} words overflow class {class}", words.len());
        if let Some(off) = self.free.get_mut(class as usize).and_then(Vec::pop) {
            self.free_slots -= 1;
            for (slot, w) in self.data[off as usize..][..cap].iter_mut().zip(words) {
                *slot = w;
            }
            return off;
        }
        let off = u32::try_from(self.data.len()).expect("slot arena exceeds u32 offsets");
        let end = self.data.len() + cap;
        if end > self.data.capacity() {
            self.data.reserve_exact(grown_capacity(end) - self.data.len());
        }
        self.data.extend(words);
        self.data.resize(end, T::default());
        self.slots += 1;
        off
    }

    /// Puts the slot at `off` back on `class`'s free list.
    pub fn release(&mut self, off: u32, class: u8) {
        if self.free.len() <= class as usize {
            self.free.resize_with(class as usize + 1, Vec::new);
        }
        self.free[class as usize].push(off);
        self.free_slots += 1;
    }

    /// Every carved entry; handles index into it.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable counterpart of [`Self::data`].
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The first `len` entries of the slot at `off`.
    #[inline]
    pub fn run(&self, off: u32, len: u32) -> &[T] {
        &self.data[off as usize..off as usize + len as usize]
    }

    /// Inserts `value` at `pos` of the `len`-entry run at `off`, moving the
    /// run to a slot of the next class when its own is full. Returns the
    /// run's offset and class afterwards.
    pub fn insert_at(&mut self, off: u32, len: u32, class: u8, pos: usize, value: T) -> (u32, u8) {
        let (base, n) = (off as usize, len as usize);
        if len < class_cap(class) {
            self.data.copy_within(base + pos..base + n, base + pos + 1);
            self.data[base + pos] = value;
            return (off, class);
        }
        let new = self.alloc(class + 1);
        let dst = new as usize;
        self.data.copy_within(base..base + pos, dst);
        self.data[dst + pos] = value;
        self.data.copy_within(base + pos..base + n, dst + pos + 1);
        self.release(off, class);
        (new, class + 1)
    }

    /// Removes entry `pos` of the `len`-entry run at `off`.
    #[inline]
    pub fn remove_at(&mut self, off: u32, len: u32, pos: usize) {
        let base = off as usize;
        self.data.copy_within(base + pos + 1..base + len as usize, base + pos);
    }

    /// The close of an in-place compaction by the owner, which has moved its
    /// `live` slots into the first `end` entries: forgets every entry past
    /// `end` and every free slot. The capacity stays, for what the owner lays
    /// next, until [`Self::shrink_to_fit`].
    pub fn compacted(&mut self, end: usize, live: usize) {
        self.data.truncate(end);
        self.free = Vec::new();
        (self.slots, self.free_slots) = (live, 0);
    }

    /// Gives back the capacity past the carved entries.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Reserved bytes: the carved pool and the free-list stacks.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.free.iter().map(|f| f.capacity() * 4).sum::<usize>()
    }

    /// Slots in use.
    #[inline]
    pub fn live_slots(&self) -> usize {
        self.slots - self.free_slots
    }

    /// Slots waiting on a free list.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.free_slots
    }

    /// Total carved entries (live or free) — the arena's footprint.
    #[inline]
    pub fn carved_entries(&self) -> usize {
        self.data.len()
    }

    /// Arena invariants, given the `(off, class)` of every slot the owner
    /// holds: live and free slots together tile the carved pool exactly —
    /// none leaked, none aliased, none on a free list twice.
    pub fn validate(&self, live: impl IntoIterator<Item = (u32, u8)>) {
        let mut extents: Vec<(u32, u8)> = live.into_iter().collect();
        assert_eq!(extents.len(), self.live_slots(), "live-slot count drifted");
        for (class, stack) in self.free.iter().enumerate() {
            extents.extend(stack.iter().map(|&off| (off, class as u8)));
        }
        assert_eq!(extents.len(), self.slots, "free-slot count drifted");
        extents.sort_unstable();
        let mut end = 0u32;
        for (off, class) in extents {
            assert_eq!(off, end, "slot at {off} leaked, aliased or misfiled");
            end += class_cap(class);
        }
        assert_eq!(end as usize, self.data.len(), "slot extents do not tile the pool");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_their_lengths() {
        assert_eq!(
            (0..10).map(class_cap).collect::<Vec<_>>(),
            [4, 6, 8, 12, 16, 24, 32, 48, 64, 96]
        );
        assert_eq!(
            [0, 4, 5, 6, 7, 8, 9, 12, 13, 33, 48, 49].map(class_for),
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 7, 7, 8]
        );
        for len in 0..5000 {
            let c = class_for(len);
            assert!(class_cap(c) as usize >= len);
            assert!(c == 0 || 3 * len > 2 * class_cap(c) as usize, "{len} fills class {c}");
            assert!(c == 0 || (class_cap(c - 1) as usize) < len);
        }
    }

    #[test]
    fn runs_grow_through_classes_and_slots_are_recycled() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let cycle = |a: &mut SlotArena<u32>| {
            let (mut off, mut class) = (a.alloc(0), 0);
            for i in 0..40u32 {
                // Always insert at the front: the run ends up descending.
                (off, class) = a.insert_at(off, i, class, 0, i);
                a.validate([(off, class)]);
            }
            assert_eq!(class, class_for(40));
            assert_eq!(a.run(off, 40), (0..40).rev().collect::<Vec<_>>());
            a.remove_at(off, 40, 0);
            assert_eq!(a.run(off, 39)[0], 38);
            a.release(off, class);
        };
        cycle(&mut a);
        let (carved, bytes) = (a.carved_entries(), a.resident_bytes());
        assert_eq!(a.live_slots(), 0);
        assert_eq!(a.free_slots(), class_for(40) as usize + 1);
        cycle(&mut a);
        assert_eq!(a.carved_entries(), carved, "steady-state churn carved new storage");
        assert_eq!(a.resident_bytes(), bytes);
        a.validate([]);
    }

    #[test]
    fn capacity_stays_within_a_quarter_of_the_need() {
        assert_eq!([1, 8, 9, 1000, 1024, 1025].map(grown_capacity), [1, 8, 10, 1024, 1024, 1280]);
        // A first carving larger than the whole arena, and the first carving
        // past an exactly sized arena: `Vec` alone reserves 1028 and 200.
        let mut a: SlotArena<u32> = SlotArena::new();
        a.alloc(0);
        a.alloc(class_for(1000));
        assert_eq!(a.resident_bytes(), 1280 * 4);
        let mut b: SlotArena<u32> = SlotArena::with_capacity(100);
        (0..26).for_each(|_| _ = b.alloc(0));
        assert_eq!(b.resident_bytes(), 112 * 4);
        for need in 1..100_000 {
            let cap = grown_capacity(need);
            assert!(need <= cap && cap * 4 <= need * 5 + 4, "{need} -> {cap}");
        }
    }

    #[test]
    #[should_panic(expected = "live-slot count drifted")]
    fn validate_catches_a_slot_nobody_holds() {
        let mut a: SlotArena<u32> = SlotArena::new();
        let (kept, _leaked) = (a.alloc(1), a.alloc(0));
        a.validate([(kept, 1)]);
    }
}
