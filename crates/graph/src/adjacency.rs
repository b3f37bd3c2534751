//! Label-partitioned per-vertex adjacency runs in one graph-owned arena.
//!
//! Every edge-transition in the matching engines asks one of two questions
//! about a data vertex `v`: "which neighbors are reachable over an edge with
//! label `l`?" (concrete query-edge label — the overwhelmingly common case)
//! or "which neighbors at all?" (wildcard query edge). Each direction of
//! each vertex is an 8-byte [`Adjacency`] handle — `{off, meta}` — into the
//! graph's single [`SlotArena`] of 4-byte words; nothing here owns heap
//! memory, so an edge op touches one handle and one or two slots per
//! direction and nothing else. `meta`'s top two bits name the layout, and
//! the bits below them hold what that layout keeps outside its slot.
//!
//! Three layouts, all enumerating in `(label, neighbor)` order:
//!
//! * **Inline** — exactly one entry, kept in the handle itself: the
//!   neighbor in `off`, the label in `meta` (labels are below 2^24). It owns
//!   no slot.
//! * **Flat** — one slot `[h_0 … h_{L−1} | ids]`: one header word per label
//!   group, packing the label and the group's length (`label << 8 | len`),
//!   in label order, then the neighbor ids, grouped by label and sorted
//!   within each group. `meta` packs the run's length and its group count
//!   `L`, a byte each, and its slot's class. The label is stored once per
//!   group, not once per entry — a netflow flat run holds 4.6 distinct
//!   labels on average. A lookup sums the lengths of the headers below its
//!   label in one branch-free pass over the `L` headers; an insert or delete
//!   shifts the ids after its position, and the headers after its group too
//!   when the group appears or empties. An empty run is the flat run of no
//!   entries, at offset 0, and owns no slot.
//! * **Directory** — one slot `[len | records]`: the run's entry count, then
//!   one `[label·class, off, len]` record per label group, sorted by label,
//!   each naming a slot of `class` at `off` with that label's `len` sorted
//!   neighbor ids. `meta` keeps the slot's class and the record count (less
//!   one, in 24 bits: no vertex carries more labels than there are), so a
//!   lookup finds the records without reading a count first; the entry
//!   count, which no lookup needs, is the slot's first word. An insert or
//!   delete shifts one label group, not the whole degree, which keeps a
//!   hub's update cost flat in its fan-out.
//!
//! **One rule** picks the layout: a run of one entry is inline, a longer one
//! flat up to `FLAT_MAX` entries, a directory past it, and folds back to
//! flat once it has shrunk to half of that, so churn at the boundary repacks
//! nothing. Every label group of every layout is a contiguous `&[VertexId]`
//! the intersection kernels read in place, and layout never changes
//! enumeration order (pinned by the randomized tests below,
//! `tests/adjacency_oracle.rs` and `crates/graph/tests/storage.rs`), so a
//! walk of every entry filtered by label — which never locates a group — is
//! the reference each group is checked against, and `core::spec`'s reader.

use crate::arena::{class_cap, class_for, SlotArena};
use crate::ids::{LabelId, VertexId};
use crate::intersect::{contains_sorted, prefetch_at};

// One arena word. Labels, slot offsets and lengths are stored in the same
// 4-byte words as neighbor ids so that every id run can be borrowed as a
// `&[VertexId]` without `unsafe`.
use crate::ids::VertexId as Word;

/// The arena all adjacency runs of one graph live in.
pub(crate) type Arena = SlotArena<Word>;

/// Entries up to which a run stays flat. At 32 a flat slot is at most four
/// cache lines (32 ids and their headers); DESIGN.md "The one threshold" has
/// the measurements that set it.
pub const FLAT_MAX: usize = 32;

/// Bits of a flat run's header word that hold its group's length; the
/// label takes the rest.
const LEN_BITS: u32 = 8;

const _: () = assert!(FLAT_MAX < 1 << LEN_BITS, "a group's length, or a run's, fits a byte");
const _: () = assert!(
    (LabelId::LIMIT as u64) << LEN_BITS == 1 << 32 && LabelId::LIMIT == 1 << CLASS_SHIFT,
    "a label fits a header, and a label or a count of labels fits below a handle's class"
);

/// Words per directory record: `[label·class, off, len]`, the group slot's
/// class packed below the label as a flat header packs a group's length.
const REC: usize = 3;

/// Words before a directory's records: `[len]`, its entry count.
const DIR_HEAD: usize = 1;

/// Where a handle's `meta` keeps its layout: the top two bits.
const KIND: u32 = 3 << 30;
/// Layout bits of a flat run, the empty one included.
const FLAT: u32 = 0;
/// Layout bits of a one-entry run kept in the handle.
const INLINE: u32 = 1 << 30;
/// Layout bits of a directory.
const DIR: u32 = 2 << 30;
/// Where a flat run's `meta` keeps its group count, above its length: a
/// byte each, as wide as a header's length.
const GROUPS_SHIFT: u32 = LEN_BITS;
/// Where a flat run's or a directory's `meta` keeps its slot's class, in the
/// six bits below the layout. A directory's record count, less one, takes
/// the 24 bits below the class.
const CLASS_SHIFT: u32 = 24;
/// The class bits, shifted down.
const CLASS_MASK: u32 = 0x3F;

/// A single vertex's adjacency in one direction: a handle into the arena.
/// An empty run owns no slot, and neither does an inline one, whose entry
/// is the handle's `(meta, off)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Adjacency {
    /// The slot's offset; an inline run's neighbor.
    off: Word,
    /// The layout ([`KIND`]) and below it an inline run's label, a flat
    /// run's `class · groups · len` or a directory's `class · groups − 1`.
    meta: u32,
}

const _: () = assert!(std::mem::size_of::<Adjacency>() == 8, "a handle is 8 bytes");

/// A flat run's `meta`: `len` entries in `groups` label groups, in a slot
/// of `class`.
#[inline]
fn flat_meta(len: usize, groups: usize, class: u8) -> u32 {
    u32::from(class) << CLASS_SHIFT | (groups as u32) << GROUPS_SHIFT | len as u32
}

/// A directory's `meta`: `groups ≥ 1` records in a slot of `class`.
#[inline]
fn dir_meta(groups: usize, class: u8) -> u32 {
    DIR | u32::from(class) << CLASS_SHIFT | (groups - 1) as u32
}

/// A flat run's header for a group of `n` entries under `label`.
#[inline]
fn header(label: LabelId, n: usize) -> Word {
    Word(label.0 << LEN_BITS | n as u32)
}

/// The label a flat run's header names.
#[inline]
fn head_label(h: Word) -> LabelId {
    LabelId(h.0 >> LEN_BITS)
}

/// The length a flat run's header names.
#[inline]
fn head_len(h: Word) -> usize {
    (h.0 & ((1 << LEN_BITS) - 1)) as usize
}

/// Where `label`'s group sits in a flat run with headers `heads`, as
/// `(header index, ids before it, its length)`; the length is 0 and the
/// header index where it would go when the run has no such group. No early
/// exit: over the few headers a run has the counting loop beats a branchy
/// scan.
#[inline]
fn find_head(heads: &[Word], label: LabelId) -> (usize, usize, usize) {
    let (mut g, mut at, mut n) = (0, 0, 0);
    for &h in heads {
        let (hl, hn) = (head_label(h), head_len(h));
        g += usize::from(hl < label);
        at += if hl < label { hn } else { 0 };
        n += if hl == label { hn } else { 0 };
    }
    (g, at, n)
}

/// Index of `label`'s record in a directory, or where it would go.
#[inline]
fn find_group(dir: &[Word], label: LabelId) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, dir.len() / REC);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if head_label(dir[mid * REC]) < label {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if dir.get(lo * REC).is_some_and(|&h| head_label(h) == label) {
        Ok(lo)
    } else {
        Err(lo)
    }
}

/// A directory record: `label`'s group of `len` ids in the slot of `class`
/// at `off`.
#[inline]
fn record(label: LabelId, off: u32, len: usize, class: u8) -> [Word; REC] {
    [header(label, class.into()), Word(off), Word(len as u32)]
}

/// The class of the slot a directory record names.
#[inline]
fn rec_class(rec: &[Word]) -> u8 {
    head_len(rec[0]) as u8
}

/// The id run a directory record names.
#[inline]
fn group_ids<'a>(data: &'a [Word], rec: &[Word]) -> &'a [VertexId] {
    &data[rec[1].index()..rec[1].index() + rec[2].index()]
}

/// A flat slot's words for the sorted `entries` (at most [`FLAT_MAX`]),
/// staged: a header per label group, then the ids. Returns them and the
/// header count.
fn flat_words(entries: &[(LabelId, VertexId)]) -> ([Word; 2 * FLAT_MAX], usize) {
    let mut words = [Word(0); 2 * FLAT_MAX];
    let mut heads = 0;
    for run in entries.chunk_by(|x, y| x.0 == y.0) {
        words[heads] = header(run[0].0, run.len());
        heads += 1;
    }
    for (w, e) in words[heads..heads + entries.len()].iter_mut().zip(entries) {
        *w = e.1;
    }
    (words, heads)
}

/// The arena words [`Adjacency::build`] carves for a run, counted one label
/// group at a time by a caller that walks the run's entries anyway.
#[derive(Default)]
pub(crate) struct RunWords {
    /// Entries so far.
    n: usize,
    /// Label groups so far.
    groups: usize,
    /// The groups' id slots, were the run a directory.
    dir_ids: usize,
}

impl RunWords {
    /// Counts one more label group, of `len` entries.
    #[inline]
    pub(crate) fn group(&mut self, len: usize) {
        self.n += len;
        self.groups += 1;
        self.dir_ids += class_cap(class_for(len)) as usize;
    }

    /// The words the run takes: none inline, one slot flat, a directory
    /// slot and a slot per group past [`FLAT_MAX`] entries.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        match self.n {
            0 | 1 => 0,
            n if n <= FLAT_MAX => class_cap(class_for(self.groups + n)) as usize,
            _ => self.dir_ids + class_cap(class_for(DIR_HEAD + REC * self.groups)) as usize,
        }
    }
}

impl Adjacency {
    /// The run with no entries.
    pub(crate) const EMPTY: Adjacency = Adjacency { off: Word(0), meta: FLAT };

    /// The one-entry run `(label, v)`, kept in the handle.
    #[inline]
    fn inline(label: LabelId, v: VertexId) -> Adjacency {
        Adjacency { off: v, meta: INLINE | label.0 }
    }

    /// Total number of `(label, neighbor)` entries; a directory's count is
    /// the first word of its slot.
    #[inline]
    pub(crate) fn len(&self, a: &Arena) -> usize {
        match self.meta & KIND {
            FLAT => self.flat_len(),
            INLINE => 1,
            _ => a.data()[self.off.index()].index(),
        }
    }

    /// True while the run's one entry is kept in the handle.
    #[inline]
    pub(crate) fn is_inline(&self) -> bool {
        self.meta & KIND == INLINE
    }

    /// True while the run is a label directory of id runs.
    #[inline]
    pub(crate) fn is_directory(&self) -> bool {
        self.meta & KIND == DIR
    }

    /// True while the run is flat and holds entries: it owns its slot.
    #[inline]
    pub(crate) fn is_flat(&self) -> bool {
        self.meta & KIND == FLAT && self.meta != FLAT
    }

    /// A flat run's entries.
    #[inline]
    fn flat_len(&self) -> usize {
        (self.meta & 0xFF) as usize
    }

    /// A flat run's label groups.
    #[inline]
    fn flat_groups(&self) -> usize {
        (self.meta >> GROUPS_SHIFT & 0xFF) as usize
    }

    /// The class of the slot a flat run or a directory owns.
    #[inline]
    fn class(&self) -> u8 {
        (self.meta >> CLASS_SHIFT & CLASS_MASK) as u8
    }

    /// Sets the class of the slot a flat run or a directory owns.
    #[inline]
    fn set_class(&mut self, class: u8) {
        let rest = self.meta & !(CLASS_MASK << CLASS_SHIFT);
        self.meta = rest | u32::from(class) << CLASS_SHIFT;
    }

    /// An inline run's label.
    #[inline]
    fn inline_label(&self) -> LabelId {
        LabelId(self.meta & !KIND)
    }

    /// A flat run's `(headers, ids)`; both empty for an empty run.
    #[inline]
    fn flat<'a>(&self, a: &'a Arena) -> (&'a [Word], &'a [VertexId]) {
        let (off, heads) = (self.off.index(), self.flat_groups());
        a.data()[off..off + heads + self.flat_len()].split_at(heads)
    }

    /// An inline run's entry as a group: its id if `label` is its label.
    #[inline]
    fn inline_ids(&self, label: LabelId) -> &[VertexId] {
        let ids = std::slice::from_ref(&self.off);
        if self.inline_label() == label {
            ids
        } else {
            &ids[..0]
        }
    }

    /// A directory's record count.
    #[inline]
    fn dir_groups(&self) -> usize {
        (self.meta & ((1 << CLASS_SHIFT) - 1)) as usize + 1
    }

    /// A directory's records.
    #[inline]
    fn dir<'a>(&self, a: &'a Arena) -> &'a [Word] {
        let at = self.off.index() + DIR_HEAD;
        &a.data()[at..at + self.dir_groups() * REC]
    }

    /// Lays the sorted, duplicate-free `entries` out as a fresh run.
    pub(crate) fn build(a: &mut Arena, entries: &[(LabelId, VertexId)]) -> Adjacency {
        if entries.len() <= FLAT_MAX {
            Self::build_flat(a, entries)
        } else {
            Self::build_dir(a, entries)
        }
    }

    fn build_flat(a: &mut Arena, entries: &[(LabelId, VertexId)]) -> Adjacency {
        match *entries {
            [] => return Adjacency::EMPTY,
            [(label, v)] => return Self::inline(label, v),
            _ => {}
        }
        let (words, heads) = flat_words(entries);
        let (n, class) = (entries.len(), class_for(heads + entries.len()));
        let off = a.alloc_from(class, words[..heads + n].iter().copied());
        Adjacency { off: Word(off), meta: flat_meta(n, heads, class) }
    }

    /// Writes record `g` of a directory.
    fn set_record(&self, a: &mut Arena, g: usize, rec: [Word; REC]) {
        let at = self.off.index() + DIR_HEAD + g * REC;
        a.data_mut()[at..at + REC].copy_from_slice(&rec);
    }

    fn build_dir(a: &mut Arena, entries: &[(LabelId, VertexId)]) -> Adjacency {
        // Counted without an early exit, so the compiler can widen it.
        let groups = 1 + entries.windows(2).filter(|w| w[0].0 != w[1].0).count();
        // The slot: the entry count, then one record per group.
        let class = class_for(DIR_HEAD + REC * groups);
        let off = a.alloc_from(class, std::iter::once(Word(entries.len() as u32)));
        let dir = Adjacency { off: Word(off), meta: dir_meta(groups, class) };
        for (g, run) in entries.chunk_by(|x, y| x.0 == y.0).enumerate() {
            let gclass = class_for(run.len());
            let goff = a.alloc_from(gclass, run.iter().map(|e| e.1));
            dir.set_record(a, g, record(run[0].0, goff, run.len(), gclass));
        }
        dir
    }

    /// Every slot this run owns, as `(off, class)`.
    pub(crate) fn slots<'a>(&self, a: &'a Arena) -> impl Iterator<Item = (u32, u8)> + 'a {
        let dir = self.is_directory();
        let own = (dir || self.is_flat()).then_some((self.off.0, self.class()));
        let recs = if dir { self.dir(a) } else { &[] };
        own.into_iter().chain(recs.chunks_exact(REC).map(|rec| (rec[1].0, rec_class(rec))))
    }

    /// Asserts what a run's headers promise (test support): labels strictly
    /// ascending, no empty group, lengths summing to the run's — a
    /// directory's entry count included —, and a flat run's headers and ids,
    /// a directory's counts and records and each of its groups within their
    /// slots.
    pub(crate) fn check_headers(&self, a: &Arena) {
        let (groups, words, fit): (Vec<(LabelId, usize)>, _, _) = if self.is_flat() {
            let (heads, ids) = self.flat(a);
            let groups = heads.iter().map(|&h| (head_label(h), head_len(h))).collect();
            (groups, heads.len() + ids.len(), true)
        } else if self.is_directory() {
            let recs = self.dir(a).chunks_exact(REC);
            let fit = recs.clone().all(|rec| rec[2].0 <= class_cap(rec_class(rec)));
            let groups = recs.map(|rec| (head_label(rec[0]), rec[2].index())).collect();
            (groups, DIR_HEAD + self.dir(a).len(), fit)
        } else {
            return;
        };
        assert!(groups.windows(2).all(|g| g[0].0 < g[1].0), "headers unsorted");
        assert!(groups.iter().all(|&(_, n)| n > 0), "an empty group kept its header");
        let total = groups.iter().map(|&(_, n)| n).sum::<usize>();
        assert_eq!(total, self.len(a), "header lengths do not sum to the run's");
        assert!(fit && words <= class_cap(self.class()) as usize, "a run overflows its slot");
    }

    /// The run's entries (at most [`FLAT_MAX`]) copied onto the stack, as
    /// `(label, neighbor)` in order, and their count.
    fn stage(&self, a: &Arena) -> ([(LabelId, VertexId); FLAT_MAX], usize) {
        let mut buf = [(LabelId(0), VertexId(0)); FLAT_MAX];
        let n = self.len(a);
        debug_assert!(n <= FLAT_MAX, "{n} entries to stage");
        for (slot, (v, l)) in buf.iter_mut().zip(self.iter(a)) {
            *slot = (l, v);
        }
        (buf, n)
    }

    /// Re-lays the run in the other layout (at most [`FLAT_MAX`] entries
    /// either way), recycling its slots.
    pub(crate) fn relay(&mut self, a: &mut Arena) {
        let (buf, n) = self.stage(a);
        let mut owned = [(0, 0); FLAT_MAX + 1];
        let slots = self.slots(a).zip(&mut owned).map(|(s, o)| *o = s).count();
        owned[..slots].iter().for_each(|&(off, class)| a.release(off, class));
        *self = if self.is_directory() {
            Self::build_flat(a, &buf[..n])
        } else {
            Self::build_dir(a, &buf[..n])
        };
    }

    /// Drops the label groups `keep` rejects, in place and in the slots the
    /// run has: a flat run closes the gaps among its headers and its ids, a
    /// directory drops the records of the rejected groups. Layouts and
    /// classes stay, except that a run left with one entry moves it into the
    /// handle and a run left empty owns nothing. The slots it stops owning
    /// are forgotten, not released: only [`DynamicGraph::project`] retains,
    /// and its compaction writes over them.
    ///
    /// [`DynamicGraph::project`]: crate::DynamicGraph::project
    pub(crate) fn retain(&mut self, a: &mut Arena, keep: impl Fn(LabelId) -> bool) {
        let off = self.off.index();
        if self.meta == FLAT {
            return;
        }
        if self.is_inline() {
            if !keep(self.inline_label()) {
                *self = Adjacency::EMPTY;
            }
            return;
        }
        if self.is_flat() {
            // The kept ids land where dropped headers were, so the headers
            // are read from a copy.
            let mut heads = [Word(0); FLAT_MAX];
            let heads = &mut heads[..self.flat_groups()];
            heads.copy_from_slice(&a.data()[off..off + heads.len()]);
            let kept = heads.iter().filter(|&&h| keep(head_label(h))).count();
            let data = a.data_mut();
            let (mut g, mut from, mut to) = (0, off + heads.len(), off + kept);
            for &h in heads.iter() {
                if keep(head_label(h)) {
                    data[off + g] = h;
                    data.copy_within(from..from + head_len(h), to);
                    (g, to) = (g + 1, to + head_len(h));
                }
                from += head_len(h);
            }
            let len = to - off - kept;
            self.meta = flat_meta(len, kept, self.class());
            self.settle(len, (head_label(data[off]), data[off + kept]));
            return;
        }
        let (mut kept, mut len) = (0, 0);
        for g in 0..self.dir_groups() {
            let at = off + DIR_HEAD + g * REC;
            let rec: [Word; REC] = a.data()[at..at + REC].try_into().expect("a record");
            if keep(head_label(rec[0])) {
                self.set_record(a, kept, rec);
                (kept, len) = (kept + 1, len + rec[2].index());
            }
        }
        a.data_mut()[off] = Word(len as u32);
        let rec = &a.data()[off + DIR_HEAD..][..REC];
        let last = (head_label(rec[0]), a.data()[rec[1].index()]);
        if kept > 0 {
            self.meta = dir_meta(kept, self.class());
        }
        self.settle(len, last);
    }

    /// Settles a run [`Self::retain`] shrank to `len` entries: one left
    /// (`last`) moves into the handle, none leaves it empty.
    fn settle(&mut self, len: usize, last: (LabelId, VertexId)) {
        if len <= 1 {
            *self = if len == 1 { Self::inline(last.0, last.1) } else { Adjacency::EMPTY };
        }
    }

    /// True for a directory of at most [`FLAT_MAX`] entries, which the one
    /// rule lays flat: what [`Self::retain`] can leave behind.
    pub(crate) fn folds(&self, a: &Arena) -> bool {
        self.is_directory() && self.len(a) <= FLAT_MAX
    }

    /// Slot `i` of this run in the order a compaction meets a run's slots,
    /// `None` past the last: its own, then its directory's groups in label
    /// order. A directory that [`Self::folds`] is one slot, its lowest: the
    /// compaction folds it whole the first time it reaches any of its slots.
    pub(crate) fn slot_at(&self, a: &Arena, i: usize) -> Option<u32> {
        if !self.is_directory() {
            return (self.is_flat() && i == 0).then_some(self.off.0);
        }
        if self.folds(a) {
            return self.slots(a).map(|(off, _)| off).min().filter(|_| i == 0);
        }
        match i {
            0 => Some(self.off.0),
            _ => self.dir(a).get((i - 1) * REC + 1).map(|w| w.0),
        }
    }

    /// Lays a directory that [`Self::folds`] flat, staged on the stack as
    /// [`Self::relay`] stages it: at `to` when its slot ends by `limit`,
    /// else in a fresh carving past every slot of the arena. Its old slots
    /// are forgotten, not released, as [`Self::retain`] forgets. Returns
    /// `Ok` with the words the slot takes at `to`, or `Err` with the
    /// carving's offset.
    pub(crate) fn fold(&mut self, a: &mut Arena, to: u32, limit: u32) -> Result<u32, u32> {
        let (buf, n) = self.stage(a);
        debug_assert!(self.is_directory() && n >= 2, "only a directory of 2..=FLAT_MAX folds");
        let (words, heads) = flat_words(&buf[..n]);
        let (len, class) = (heads + n, class_for(heads + n));
        self.meta = flat_meta(n, heads, class);
        let cap = class_cap(class);
        if to + cap <= limit {
            a.data_mut()[to as usize..][..len].copy_from_slice(&words[..len]);
            self.off = Word(to);
            return Ok(cap);
        }
        self.off = Word(a.alloc_from(class, words[..len].iter().copied()));
        Err(self.off.0)
    }

    /// Moves the slot of this run at `from` — its own, or one of its
    /// directory's groups — down to `to ≤ from`, at the class its entries
    /// need; returns the words it takes there. The caller moves every slot of
    /// the arena this way in offset order, so the slots not moved yet lie
    /// past `from`, where the move cannot reach.
    pub(crate) fn move_slot(&mut self, a: &mut Arena, from: u32, to: u32) -> u32 {
        debug_assert!(to <= from);
        let (src, dst) = (from as usize, to as usize);
        if from != self.off.0 {
            // One of the directory's groups: its record follows it.
            let dir = self.off.index() + DIR_HEAD;
            let g = (0..self.dir_groups()).find(|g| a.data()[dir + g * REC + 1].0 == from);
            let at = dir + g.expect("a slot of this run") * REC;
            let n = a.data()[at + 2].index();
            let class = class_for(n);
            let data = a.data_mut();
            data.copy_within(src..src + n, dst);
            (data[at], data[at + 1]) = (header(head_label(data[at]), class.into()), Word(to));
            return class_cap(class);
        }
        let words = if self.is_directory() {
            DIR_HEAD + self.dir_groups() * REC
        } else {
            self.flat_groups() + self.flat_len()
        };
        a.data_mut().copy_within(src..src + words, dst);
        self.off = Word(to);
        self.set_class(class_for(words));
        class_cap(self.class())
    }

    /// Inserts `(label, v)`; returns `false` if it is already present.
    pub(crate) fn insert(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        if self.is_directory() {
            return self.insert_dir(a, label, v);
        }
        if self.is_inline() {
            let (old, new) = ((self.inline_label(), self.off), (label, v));
            if old == new {
                return false;
            }
            *self = Self::build_flat(a, &[old.min(new), old.max(new)]);
            return true;
        }
        if self.meta == FLAT {
            *self = Self::inline(label, v);
            return true;
        }
        let (heads, ids) = self.flat(a);
        let (g, at, n) = find_head(heads, label);
        let Err(p) = ids[at..at + n].binary_search(&v) else { return false };
        let (heads, len) = (heads.len(), self.flat_len());
        if len == FLAT_MAX {
            self.relay(a);
            return self.insert_dir(a, label, v);
        }
        // Word offsets within the slot: the insertion point among the ids
        // and the end. A new group adds its header at `g`, which moves
        // everything from there on up one more word.
        let new = usize::from(n == 0);
        let (ins, end) = (heads + at + p, heads + len);
        let (src, src_class) = (self.off.index(), self.class());
        let moves = end + 1 + new > class_cap(src_class) as usize;
        let class = if moves { class_for(end + 1 + new) } else { src_class };
        if moves {
            self.off = Word(a.alloc(class));
        }
        let dst = self.off.index();
        let data = a.data_mut();
        // Highest piece first: in place, a shift up must not overwrite what
        // it has yet to read.
        data.copy_within(src + ins..src + end, dst + ins + 1 + new);
        if moves || new == 1 {
            data.copy_within(src + g..src + ins, dst + g + new);
        }
        if moves {
            data.copy_within(src..src + g, dst);
        }
        data[dst + ins + new] = v;
        data[dst + g] = if new == 1 { header(label, 1) } else { Word(data[dst + g].0 + 1) };
        self.meta = flat_meta(len + 1, heads + new, class);
        if moves {
            a.release(src as u32, src_class);
        }
        true
    }

    fn insert_dir(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        match find_group(self.dir(a), label) {
            Ok(g) => {
                let at = self.off.index() + DIR_HEAD + g * REC;
                let rec = &a.data()[at..at + REC];
                let (goff, glen, gclass) = (rec[1].0, rec[2].0, rec_class(rec));
                let Err(pos) = a.run(goff, glen).binary_search(&v) else { return false };
                let (goff, gclass) = a.insert_at(goff, glen, gclass, pos, v);
                self.set_record(a, g, record(label, goff, glen as usize + 1, gclass));
            }
            Err(g) => {
                let goff = a.alloc_from(0, std::iter::once(v));
                let (groups, mut class) = (self.dir_groups(), self.class());
                let words = DIR_HEAD + groups * REC;
                for (i, w) in record(label, goff, 1, 0).into_iter().enumerate() {
                    let (len, pos) = ((words + i) as u32, DIR_HEAD + g * REC + i);
                    let (off, grown) = a.insert_at(self.off.0, len, class, pos, w);
                    (self.off, class) = (Word(off), grown);
                }
                self.meta = dir_meta(groups + 1, class);
            }
        }
        a.data_mut()[self.off.index()].0 += 1;
        true
    }

    /// Removes `(label, v)`; returns `false` if absent. A directory shifts
    /// only the ids of `label`'s group.
    pub(crate) fn remove(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        if self.is_inline() {
            let found = self.inline_ids(label).first() == Some(&v);
            if found {
                *self = Adjacency::EMPTY;
            }
            return found;
        }
        if !self.is_directory() {
            let (heads, ids) = self.flat(a);
            let (g, at, n) = find_head(heads, label);
            let Ok(p) = ids[at..at + n].binary_search(&v) else { return false };
            // An emptied group takes its header along: what lies between
            // it and the entry moves down one word, what follows two.
            let gone = usize::from(n == 1);
            let (off, len) = (self.off.index(), self.flat_len());
            let (pos, end) = (off + heads.len() + at + p, off + heads.len() + len);
            self.meta = flat_meta(len - 1, heads.len() - gone, self.class());
            let data = a.data_mut();
            if gone == 1 {
                data.copy_within(off + g + 1..pos, off + g);
            } else {
                data[off + g].0 -= 1;
            }
            data.copy_within(pos + 1..end, pos - gone);
            if len == 2 {
                // The one entry left moves into the handle.
                let last = (head_label(a.data()[off]), a.data()[off + 1]);
                a.release(self.off.0, self.class());
                *self = Self::inline(last.0, last.1);
            }
            return true;
        }
        let Ok(g) = find_group(self.dir(a), label) else { return false };
        let (off, groups) = (self.off.index(), self.dir_groups());
        let at = off + DIR_HEAD + g * REC;
        let rec = &a.data()[at..at + REC];
        let (goff, glen, gclass) = (rec[1].0, rec[2].0, rec_class(rec));
        let Ok(pos) = a.run(goff, glen).binary_search(&v) else { return false };
        a.remove_at(goff, glen, pos);
        let data = a.data_mut();
        data[at + 2] = Word(glen - 1);
        data[off].0 -= 1;
        let left = data[off].index();
        if glen == 1 {
            a.release(goff, gclass);
            for i in 0..REC {
                a.remove_at(self.off.0, (DIR_HEAD + groups * REC - i) as u32, DIR_HEAD + g * REC);
            }
            // At least the 16 entries a directory keeps are left, in
            // another group.
            self.meta = dir_meta(groups - 1, self.class());
        }
        if left * 2 <= FLAT_MAX {
            self.relay(a);
        }
        true
    }

    /// The neighbors reachable over an edge labeled exactly `label`, as a
    /// sorted duplicate-free run.
    #[inline]
    pub(crate) fn group<'a>(&'a self, a: &'a Arena, label: LabelId) -> &'a [VertexId] {
        if self.is_directory() {
            let dir = self.dir(a);
            let ids = find_group(dir, label).map(|g| group_ids(a.data(), &dir[g * REC..]));
            return ids.unwrap_or(&[]);
        }
        if self.is_inline() {
            return self.inline_ids(label);
        }
        let (heads, ids) = self.flat(a);
        let (_, at, n) = find_head(heads, label);
        &ids[at..at + n]
    }

    /// The batch lookahead's hint (`tfx_core::round::lookahead`) for a coming
    /// probe, insert or delete of an entry, given that the stage before
    /// pulled the handle into cache: stage 1 reads the handle and hints the
    /// slot it names — a flat run's first and last word (headers first, then
    /// ids — at most eight lines), a directory's first and middle record. An
    /// inline run has nothing past its handle; no other stage hints anything.
    #[inline]
    pub(crate) fn prefetch(&self, a: &Arena, stage: u8) {
        let (data, off) = (a.data(), self.off.index());
        match stage {
            1 if self.is_flat() => {
                prefetch_at(data, off);
                prefetch_at(data, off + self.flat_groups() + self.flat_len() - 1);
            }
            1 if self.is_directory() => {
                prefetch_at(data, off);
                prefetch_at(data, off + DIR_HEAD + self.dir_groups() / 2 * REC);
            }
            _ => {}
        }
    }

    /// Every label group as `(label, sorted ids)`, in label order.
    #[inline]
    pub(crate) fn groups<'a>(&'a self, a: &'a Arena) -> Groups<'a> {
        let data = a.data();
        if self.is_directory() {
            return Groups { data, heads: &[], ids: &[], label: LabelId(0), recs: self.dir(a) };
        }
        if self.is_inline() {
            let (label, ids) = (self.inline_label(), std::slice::from_ref(&self.off));
            return Groups { data, heads: &[], ids, label, recs: &[] };
        }
        let (heads, ids) = self.flat(a);
        Groups { data, heads, ids, label: LabelId(0), recs: &[] }
    }

    /// All `(neighbor, edge label)` pairs in `(label, neighbor)` order.
    #[inline]
    pub(crate) fn iter<'a>(&'a self, a: &'a Arena) -> Neighbors<'a> {
        Neighbors { groups: self.groups(a), label: LabelId(0), ids: [].iter() }
    }

    /// Appends to `buf` every neighbor over any label that `keep` accepts,
    /// ascending and each once: a neighbor joined by edges of several labels
    /// is met once per label group, and kept once.
    pub(crate) fn collect_any(
        &self,
        a: &Arena,
        mut keep: impl FnMut(VertexId) -> bool,
        buf: &mut Vec<VertexId>,
    ) {
        let start = buf.len();
        for (_, ids) in self.groups(a) {
            buf.extend(ids.iter().copied().filter(|&w| keep(w)));
        }
        buf[start..].sort_unstable();
        dedup_tail(buf, start);
    }

    /// True iff some entry points at `v` (any label).
    pub(crate) fn any_to(&self, a: &Arena, v: VertexId) -> bool {
        self.groups(a).any(|(_, ids)| contains_sorted(ids, v))
    }

    /// Number of parallel edges (distinct labels) pointing at `v`.
    pub(crate) fn count_to(&self, a: &Arena, v: VertexId) -> usize {
        self.groups(a).filter(|(_, ids)| contains_sorted(ids, v)).count()
    }

    /// Distinct labels present with their group sizes, in label order.
    pub(crate) fn label_runs<'a>(
        &'a self,
        a: &'a Arena,
    ) -> impl Iterator<Item = (LabelId, usize)> + 'a {
        self.groups(a).map(|(label, ids)| (label, ids.len()))
    }
}

/// The label groups of one run: a flat run splits its ids at its headers'
/// lengths, a directory walks its records, an inline run is one group.
#[derive(Clone)]
pub(crate) struct Groups<'a> {
    data: &'a [Word],
    /// What is left of a flat run's headers; empty otherwise.
    heads: &'a [Word],
    /// What is left of a flat run's ids; an inline run's one id.
    ids: &'a [VertexId],
    /// An inline run's label.
    label: LabelId,
    /// What is left of a directory's records; empty otherwise.
    recs: &'a [Word],
}

impl<'a> Iterator for Groups<'a> {
    type Item = (LabelId, &'a [VertexId]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some((&h, heads)) = self.heads.split_first() {
            let (ids, rest) = self.ids.split_at(head_len(h));
            (self.heads, self.ids) = (heads, rest);
            return Some((head_label(h), ids));
        }
        if let Some((rec, rest)) = self.recs.split_at_checked(REC) {
            self.recs = rest;
            return Some((head_label(rec[0]), group_ids(self.data, rec)));
        }
        // An inline run's entry, once; a flat run has no ids past its last
        // header.
        (!self.ids.is_empty()).then(|| (self.label, std::mem::take(&mut self.ids)))
    }
}

/// Iterator over all `(neighbor, edge label)` pairs of one adjacency run,
/// in `(label, neighbor)` order regardless of layout.
#[derive(Clone)]
pub struct Neighbors<'a> {
    groups: Groups<'a>,
    /// The group being walked.
    label: LabelId,
    ids: std::slice::Iter<'a, VertexId>,
}

impl Iterator for Neighbors<'_> {
    type Item = (VertexId, LabelId);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, LabelId)> {
        loop {
            if let Some(&v) = self.ids.next() {
                return Some((v, self.label));
            }
            let (label, ids) = self.groups.next()?;
            (self.label, self.ids) = (label, ids.iter());
        }
    }
}

/// Drops repeats from the sorted segment `buf[start..]` in place
/// (`Vec::dedup` would scan the prefix too).
fn dedup_tail(buf: &mut Vec<VertexId>, start: usize) {
    let mut write = start;
    for read in start..buf.len() {
        if write == start || buf[write - 1] != buf[read] {
            buf[write] = buf[read];
            write += 1;
        }
    }
    buf.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A run with `(label, neighbor)` entries inserted in the given order.
    fn run_of(a: &mut Arena, entries: impl IntoIterator<Item = (u32, u32)>) -> Adjacency {
        let mut r = Adjacency::EMPTY;
        for (label, w) in entries {
            assert!(r.insert(a, l(label), v(w)));
        }
        r
    }

    #[test]
    fn flat_insert_keeps_label_runs_sorted() {
        let mut a = Arena::new();
        let mut r = run_of(&mut a, [(2, 5), (1, 9), (2, 3), (1, 1)]);
        assert!(!r.is_directory());
        assert!(!r.insert(&mut a, l(2), v(3)), "duplicate");
        let want = vec![(v(1), l(1)), (v(9), l(1)), (v(3), l(2)), (v(5), l(2))];
        assert_eq!(r.iter(&a).collect::<Vec<_>>(), want);
        assert_eq!(r.group(&a, l(2)), &[v(3), v(5)]);
        assert_eq!(r.group(&a, l(1)).len(), 2);
        assert!(r.group(&a, l(7)).is_empty() && r.group(&a, l(0)).is_empty());
        assert!(
            contains_sorted(r.group(&a, l(1)), v(9)) && !contains_sorted(r.group(&a, l(1)), v(3))
        );
        assert_eq!(r.label_runs(&a).collect::<Vec<_>>(), vec![(l(1), 2), (l(2), 2)]);
        assert!(!r.remove(&mut a, l(1), v(5)), "absent neighbor");
        assert!(!r.remove(&mut a, l(9), v(1)), "absent label");
    }

    #[test]
    fn the_layout_follows_the_one_rule_in_both_directions() {
        let mut a = Arena::new();
        let mut r = run_of(&mut a, (0..FLAT_MAX as u32).map(|i| (i % 3, 100 - i)));
        assert!(!r.is_directory(), "flat up to FLAT_MAX");
        assert!(r.insert(&mut a, l(1), v(500)));
        assert!(r.is_directory(), "a directory past it");
        let got: Vec<_> = r.iter(&a).collect();
        let mut want = got.clone();
        want.sort_by_key(|&(w, lab)| (lab, w));
        assert_eq!(got, want, "directory iteration stays (label, neighbor)-sorted");
        assert_eq!(got.len(), FLAT_MAX + 1);
        for lab in 0..3 {
            let flat: Vec<_> = got.iter().filter(|e| e.1 == l(lab)).map(|e| e.0).collect();
            assert_eq!(r.group(&a, l(lab)), &flat[..]);
        }
        // Shrinking keeps the directory down to half of FLAT_MAX, then folds.
        for &(w, lab) in &got[..FLAT_MAX / 2] {
            assert!(r.is_directory());
            assert!(r.remove(&mut a, lab, w));
        }
        assert_eq!(r.len(&a), FLAT_MAX / 2 + 1);
        assert!(r.is_directory(), "no repacking inside the band");
        assert!(r.remove(&mut a, got[FLAT_MAX / 2].1, got[FLAT_MAX / 2].0));
        assert!(!r.is_directory(), "folds back at half");
        assert_eq!(r.iter(&a).collect::<Vec<_>>(), got[FLAT_MAX / 2 + 1..]);
        a.validate(r.slots(&a));
        // Size alone decides: a single-label hub is a directory of one id run.
        let hub = run_of(&mut a, (0..4 * FLAT_MAX as u32).map(|i| (5, i)));
        assert_eq!(hub.label_runs(&a).collect::<Vec<_>>(), vec![(l(5), 4 * FLAT_MAX)]);
        assert_eq!(hub.slots(&a).count(), 2, "one directory slot, one id slot");
    }

    #[test]
    fn directory_remove_is_per_group_and_emptied_groups_vanish() {
        let mut a = Arena::new();
        let mut r = run_of(&mut a, (0..3 * FLAT_MAX as u32).map(|i| (i % 3, i)));
        assert!(r.is_directory());
        for w in r.group(&a, l(1)).to_vec() {
            assert!(r.remove(&mut a, l(1), w));
        }
        assert!(r.group(&a, l(1)).is_empty());
        let n = FLAT_MAX;
        assert_eq!(r.label_runs(&a).collect::<Vec<_>>(), vec![(l(0), n), (l(2), n)]);
        assert_eq!(r.slots(&a).count(), 3, "the emptied group's slot went back");
        let free = a.free_slots();
        assert!(r.insert(&mut a, l(1), v(999)));
        assert_eq!(a.free_slots(), free - 1, "and is reused, not carved");
        assert_eq!(r.group(&a, l(1)), &[v(999)]);
        assert!(!r.remove(&mut a, l(1), v(0)), "absent neighbor");
        assert!(!r.remove(&mut a, l(9), v(0)), "absent label");
        a.validate(r.slots(&a));
    }

    /// Grown one entry at a time from empty past `FLAT_MAX` and drained
    /// back — inline, flat, directory, flat again — a run's every label
    /// group equals the label filter of its full walk, the wildcard
    /// collector equals that walk's ids sorted and deduplicated (parallel
    /// edges under other labels included), and the target probes count the
    /// walk's entries. The walk never locates a group.
    #[test]
    fn groups_and_the_wildcard_collector_match_a_filtered_walk_across_layouts() {
        // Ids repeat 31 apart under another label: parallel edges. The last
        // entry's label sorts after every group of the directory it joins.
        let mut entries: Vec<_> =
            (0..FLAT_MAX as u32 + 5).map(|i| (l(i % 4), v(i * 7 % 31))).collect();
        entries.push((l(9), v(3)));
        let check = |a: &Arena, r: &Adjacency| {
            let walk: Vec<(VertexId, LabelId)> = r.iter(a).collect();
            for label in [0, 1, 3, 9].map(l) {
                let want: Vec<_> = walk.iter().filter(|e| e.1 == label).map(|e| e.0).collect();
                assert_eq!(r.group(a, label), &want[..], "label {label:?}");
            }
            for odd in [false, true] {
                let keep = |w: VertexId| !odd || w.0 % 2 == 1;
                let mut want: Vec<_> = walk.iter().map(|e| e.0).filter(|&w| keep(w)).collect();
                want.sort_unstable();
                want.dedup();
                // A prefix the collector must leave as it is.
                let mut got = vec![v(u32::MAX), v(0)];
                r.collect_any(a, keep, &mut got);
                assert_eq!(got[..2], [v(u32::MAX), v(0)]);
                assert_eq!(got[2..], want[..], "odd ids only: {odd}");
            }
            for w in 0..32 {
                let want = walk.iter().filter(|e| e.0 == v(w)).count();
                assert_eq!(r.count_to(a, v(w)), want);
                assert_eq!(r.any_to(a, v(w)), want > 0);
            }
        };
        let (mut a, mut r) = (Arena::new(), Adjacency::EMPTY);
        let mut layouts = Vec::new();
        let mut seen = |r: &Adjacency| {
            let layout = (r.is_inline(), r.is_flat(), r.is_directory());
            if layouts.last() != Some(&layout) {
                layouts.push(layout);
            }
        };
        check(&a, &r);
        for &(lab, w) in &entries {
            assert!(r.insert(&mut a, lab, w));
            check(&a, &r);
            seen(&r);
        }
        for &(lab, w) in entries.iter().rev() {
            assert!(r.remove(&mut a, lab, w));
            check(&a, &r);
            seen(&r);
        }
        let (inline, flat, dir) =
            ((true, false, false), (false, true, false), (false, false, true));
        let empty = (false, false, false);
        assert_eq!(layouts, [inline, flat, dir, flat, inline, empty]);
    }

    /// The tentpole invariant: under any interleaving of inserts and
    /// deletes — sweeping the degree through every size class and across
    /// the flat↔directory boundary in both directions, down to a full
    /// drain — every accessor equals a `BTreeSet` reference and the arena
    /// stays exactly tiled; replaying the identical churn runs on recycled
    /// slots alone. Deterministic xorshift so failures replay.
    #[test]
    fn random_churn_matches_a_btreeset_across_every_boundary() {
        let mut a = Arena::new();
        let mut r = Adjacency::EMPTY;
        let mut reference: BTreeSet<(LabelId, VertexId)> = BTreeSet::new();
        let (mut unfolds, mut folds, mut classes) = (0, 0, BTreeSet::new());
        let mut carved = [0; 2];
        for carved in &mut carved {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut rand = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            for step in 0..20_000 {
                // Grow to ~12·FLAT_MAX and shrink back, twice, the second
                // time over five labels instead of one.
                let growing = (step / 5_000) % 2 == 0;
                let nlabels = 1 + (step / 10_000) as u64 * 4;
                let entry = (l(rand(nlabels) as u32), v(rand(16 * FLAT_MAX as u64) as u32));
                let was_dir = r.is_directory();
                if rand(10) < if growing { 8 } else { 2 } {
                    assert_eq!(r.insert(&mut a, entry.0, entry.1), reference.insert(entry));
                } else {
                    let victim = reference.range(entry..).next().copied().unwrap_or(entry);
                    assert_eq!(r.remove(&mut a, victim.0, victim.1), reference.remove(&victim));
                }
                unfolds += usize::from(!was_dir && r.is_directory());
                folds += usize::from(was_dir && !r.is_directory());
                classes.extend(r.slots(&a).map(|(_, class)| class));
                if step % 97 != 0 {
                    continue;
                }
                a.validate(r.slots(&a));
                assert_eq!(r.len(&a), reference.len());
                let got: Vec<_> = r.iter(&a).map(|(w, lab)| (lab, w)).collect();
                assert!(got.iter().eq(reference.iter()), "iteration diverged at step {step}");
                let mut want_runs: Vec<(LabelId, usize)> = Vec::new();
                for &(gl, _) in &reference {
                    match want_runs.last_mut() {
                        Some((rl, n)) if *rl == gl => *n += 1,
                        _ => want_runs.push((gl, 1)),
                    }
                }
                assert_eq!(r.label_runs(&a).collect::<Vec<_>>(), want_runs, "step {step}");
                for &(lab, n) in &want_runs {
                    let want = reference.range((lab, v(0))..=(lab, v(u32::MAX))).map(|e| e.1);
                    assert!(
                        r.group(&a, lab).iter().copied().eq(want),
                        "label {lab:?} at step {step}"
                    );
                    assert_eq!(r.group(&a, lab).len(), n);
                }
            }
            for (lab, w) in std::mem::take(&mut reference) {
                assert!(r.remove(&mut a, lab, w));
            }
            assert_eq!((r.len(&a), a.live_slots()), (0, 0), "a drained run owns nothing");
            a.validate([]);
            *carved = a.carved_entries();
        }
        assert!(unfolds >= 4 && folds >= 4, "{unfolds} unfolds, {folds} folds");
        assert!(classes.len() >= 6, "size classes seen: {classes:?}");
        assert_eq!(carved[0], carved[1], "the replay carved new storage");
    }

    /// Asserts that `r` holds exactly `reference`: its length, the slots it
    /// owns (none up to one entry, one flat, one per group and its own as a
    /// directory, tiling the arena with the free lists), every label group,
    /// its iteration and its headers. `full` adds the walks over every
    /// entry.
    fn assert_holds(
        a: &Arena,
        r: &Adjacency,
        reference: &BTreeSet<(LabelId, VertexId)>,
        full: bool,
    ) {
        let n = reference.len();
        assert_eq!(r.len(a), n);
        assert_eq!(r.is_inline(), n == 1);
        assert!(r.is_directory() || n <= FLAT_MAX, "an oversized flat run");
        r.check_headers(a);
        a.validate(r.slots(a));
        let groups = r.groups(a).count();
        let slots = match n {
            0 | 1 => 0,
            _ if r.is_directory() => 1 + groups,
            _ => 1,
        };
        assert_eq!(r.slots(a).count(), slots);
        if !full {
            return;
        }
        assert!(r.iter(a).map(|(w, lab)| (lab, w)).eq(reference.iter().copied()));
        let mut labels: Vec<LabelId> = reference.iter().map(|e| e.0).collect();
        labels.dedup();
        assert_eq!(groups, labels.len());
        for lab in labels {
            let want = reference.range((lab, v(0))..=(lab, v(u32::MAX))).map(|e| e.1);
            assert!(r.group(a, lab).iter().copied().eq(want), "label {lab:?}");
        }
        assert!(r.group(a, l(0)).is_empty(), "no case uses label 0");
    }

    /// Grows a run from empty by `entries`, in order, then removes them in
    /// reverse back to empty, checking it against a `BTreeSet` at every
    /// step — every entry at the steps `full` selects by length. Returns the
    /// classes of the slot the run itself owned on the way.
    fn grow_and_drain(
        entries: &[(LabelId, VertexId)],
        full: impl Fn(usize) -> bool,
    ) -> BTreeSet<u8> {
        let (mut a, mut r, mut reference) = (Arena::new(), Adjacency::EMPTY, BTreeSet::new());
        let mut classes = BTreeSet::new();
        let mut step = |a: &mut Arena, r: &Adjacency, reference: &BTreeSet<_>| {
            assert_holds(a, r, reference, full(reference.len()));
            classes.extend(r.slots(a).take(1).map(|(_, class)| class));
        };
        step(&mut a, &r, &reference);
        for &(lab, w) in entries {
            assert!(r.insert(&mut a, lab, w) && reference.insert((lab, w)));
            assert!(!r.insert(&mut a, lab, w), "a duplicate");
            step(&mut a, &r, &reference);
        }
        for &(lab, w) in entries.iter().rev() {
            assert!(r.remove(&mut a, lab, w) && reference.remove(&(lab, w)));
            assert!(!r.remove(&mut a, lab, w), "already gone");
            step(&mut a, &r, &reference);
        }
        assert_eq!(a.live_slots(), 0, "a drained run owns nothing");
        classes
    }

    /// Every field a handle or a directory packs, at its extremes: the
    /// largest label and id inline; a flat run of `FLAT_MAX` one-entry
    /// groups, and one of a single `FLAT_MAX`-entry group, through every
    /// class a flat slot can take; a directory of more than 2^16 entries
    /// under one label, and one of more than 64 labels.
    #[test]
    fn every_packed_field_holds_its_extremes() {
        let (top, max) = (LabelId::LIMIT - 1, u32::MAX);
        let every = |_: usize| true;
        assert!(grow_and_drain(&[(l(top), v(max))], every).is_empty(), "inline owns no slot");

        let flat = FLAT_MAX as u32;
        let one_each: Vec<_> = (0..flat).map(|i| (l(top - i), v(max - i))).collect();
        let one_group: Vec<_> = (0..flat).map(|i| (l(top), v(max - i))).collect();
        // The widest flat slot: a header and an id per entry.
        let widest = class_for(FLAT_MAX + FLAT_MAX);
        assert_eq!(grow_and_drain(&one_each, every), (0..=widest).collect());
        let tallest = class_for(FLAT_MAX + 1);
        assert_eq!(grow_and_drain(&one_group, every), (0..=tallest).collect());

        assert!(class_for(u32::MAX as usize) as u32 <= CLASS_MASK, "every class fits a handle");
        let tall: Vec<_> = (0..(1 << 16) + 100).map(|i| (l(top), v(max - (1 << 17) + i))).collect();
        grow_and_drain(&tall, |n| n <= 4 * FLAT_MAX || n.is_power_of_two() || n == tall.len());
        let wide: Vec<_> = (0..200).map(|i| (l(top - 3 * (i % 100)), v(max - i))).collect();
        grow_and_drain(&wide, every);
    }
}
