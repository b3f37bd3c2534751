//! Label-partitioned per-vertex adjacency runs in one graph-owned arena.
//!
//! Every edge-transition in the matching engines asks one of two questions
//! about a data vertex `v`: "which neighbors are reachable over an edge with
//! label `l`?" (concrete query-edge label — the overwhelmingly common case)
//! or "which neighbors at all?" (wildcard query edge). Each direction of
//! each vertex is an [`Adjacency`] handle — `{off, len, groups, class}` and
//! a layout flag — into the graph's single [`SlotArena`] of 4-byte words;
//! nothing here owns heap memory, so an edge op touches one handle and one
//! or two slots per direction and nothing else.
//!
//! Three layouts, all enumerating in `(label, neighbor)` order:
//!
//! * **Inline** — exactly one entry, kept in the handle itself: the
//!   neighbor in `off`, the label in `groups`. It owns no slot.
//! * **Flat** — one slot `[h_0 … h_{L−1} | ids]`: one header word per label
//!   group, packing the label and the group's length (`label << 8 | len`),
//!   in label order, then the neighbor ids, grouped by label and sorted
//!   within each group. The label is stored once per group, not once per
//!   entry — a netflow flat run holds 4.6 distinct labels on average. A
//!   lookup sums the lengths of the headers below its label in one
//!   branch-free pass over the `L` headers; an insert or delete shifts the
//!   ids after its position, and the headers after its group too when the
//!   group appears or empties.
//! * **Directory** — one slot of `[label, off, len, class]` records sorted
//!   by label, each naming a slot with that label's sorted neighbor ids. An
//!   insert or delete shifts one label group, not the whole degree, which
//!   keeps a hub's update cost flat in its fan-out.
//!
//! **One rule** picks the layout: a run of one entry is inline, a longer one
//! flat up to `FLAT_MAX` entries, a directory past it, and folds back to
//! flat once it has shrunk to half of that, so churn at the boundary repacks
//! nothing. Every label group of every layout is a contiguous `&[VertexId]`
//! the intersection kernels read in place, and layout never changes
//! enumeration order (pinned by the randomized tests below,
//! `tests/adjacency_oracle.rs` and `crates/graph/tests/storage.rs`) — which
//! is what lets [`AdjacencyMode::FlatScan`] serve as a faithful reference
//! path: same storage, same order, but every lookup walks the whole run and
//! filters, like the pre-index code.

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

const _: () = assert!(FLAT_MAX < 1 << LEN_BITS, "a group's length fits its header");
const _: () = assert!((LabelId::LIMIT as u64) << LEN_BITS == 1 << 32, "a label fits a header");

/// Words per directory record: `[label, off, len, class]`.
const REC: usize = 4;

/// How scan sites access the adjacency index.
///
/// Storage is always label-partitioned; this only selects the *access path*,
/// so both modes produce byte-identical results. The engine always reads
/// through [`Self::Indexed`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdjacencyMode {
    /// Label-qualified lookups: locate the label group, walk only it.
    #[default]
    Indexed,
    /// Pre-index behavior: walk the entire neighbor list and filter by
    /// label. The spec oracle's reference path, and the other side of the
    /// accessor-level benchmarks.
    FlatScan,
}

/// A single vertex's adjacency in one direction: a handle into the arena.
/// An empty run (`len == 0`) owns no slot, and neither does an inline one
/// (`len == 1`), whose entry is the handle's `(groups, off)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Adjacency {
    /// The slot's offset; an inline run's neighbor.
    off: Word,
    /// Total `(label, neighbor)` entries.
    len: u32,
    /// Label groups: a flat run's headers, a directory's records; an inline
    /// run's label.
    groups: Word,
    class: u8,
    /// True for a directory.
    dir: bool,
}

const _: () = assert!(std::mem::size_of::<Adjacency>() == 16, "a handle is 16 bytes");

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
        if dir[mid * REC].0 < label.0 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if dir.get(lo * REC).is_some_and(|l| l.0 == label.0) {
        Ok(lo)
    } else {
        Err(lo)
    }
}

/// The id run a directory record names.
#[inline]
fn group_ids<'a>(data: &'a [Word], rec: &[Word]) -> &'a [VertexId] {
    &data[rec[1].index()..rec[1].index() + rec[2].index()]
}

impl Adjacency {
    /// The run with no entries.
    pub(crate) const EMPTY: Adjacency =
        Adjacency { off: Word(0), len: 0, groups: Word(0), class: 0, dir: false };

    /// The one-entry run `(label, v)`, kept in the handle.
    #[inline]
    fn inline(label: LabelId, v: VertexId) -> Adjacency {
        Adjacency { off: v, len: 1, groups: Word(label.0), class: 0, dir: false }
    }

    /// Total number of `(label, neighbor)` entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// True while the run's one entry is kept in the handle.
    #[inline]
    pub(crate) fn is_inline(&self) -> bool {
        self.len == 1
    }

    /// True while the run is a label directory of id runs.
    #[inline]
    pub(crate) fn is_directory(&self) -> bool {
        self.dir
    }

    /// A flat run's `(headers, ids)`; both empty for an empty run.
    #[inline]
    fn flat<'a>(&self, a: &'a Arena) -> (&'a [Word], &'a [VertexId]) {
        let (off, heads) = (self.off.index(), self.groups.index());
        a.data()[off..off + heads + self.len()].split_at(heads)
    }

    /// An inline run's entry as a group: its id if `label` is its label.
    #[inline]
    fn inline_ids(&self, label: LabelId) -> &[VertexId] {
        let ids = std::slice::from_ref(&self.off);
        if self.groups.0 == label.0 {
            ids
        } else {
            &ids[..0]
        }
    }

    /// A directory's records.
    #[inline]
    fn dir<'a>(&self, a: &'a Arena) -> &'a [Word] {
        a.run(self.off.0, self.groups.0 * REC as u32)
    }

    /// The arena words [`Self::build`] carves for `entries`.
    pub(crate) fn words(entries: &[(LabelId, VertexId)]) -> usize {
        let groups = entries.chunk_by(|x, y| x.0 == y.0);
        match entries.len() {
            0 | 1 => 0,
            n if n <= FLAT_MAX => class_cap(class_for(groups.count() + n)) as usize,
            _ => {
                let ids = groups.clone().map(|run| class_cap(class_for(run.len())) as usize);
                ids.sum::<usize>() + class_cap(class_for(REC * groups.count())) as usize
            }
        }
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
        let heads = entries.chunk_by(|x, y| x.0 == y.0).map(|run| header(run[0].0, run.len()));
        Self::lay_flat(
            a,
            heads.clone().count(),
            entries.len(),
            heads.chain(entries.iter().map(|e| e.1)),
        )
    }

    /// Lays a flat run of `heads` groups and `n` entries from its `words`:
    /// the headers, then the ids.
    fn lay_flat(
        a: &mut Arena,
        heads: usize,
        n: usize,
        words: impl Iterator<Item = Word>,
    ) -> Adjacency {
        let class = class_for(heads + n);
        let off = a.alloc(class);
        for (slot, w) in a.data_mut()[off as usize..][..heads + n].iter_mut().zip(words) {
            *slot = w;
        }
        let (len, groups) = (n as u32, Word(heads as u32));
        Adjacency { off: Word(off), len, groups, class, dir: false }
    }

    fn build_dir(a: &mut Arena, entries: &[(LabelId, VertexId)]) -> Adjacency {
        let groups = entries.chunk_by(|x, y| x.0 == y.0).count();
        let class = class_for(REC * groups);
        let off = a.alloc(class);
        for (g, run) in entries.chunk_by(|x, y| x.0 == y.0).enumerate() {
            let gclass = class_for(run.len());
            let goff = a.alloc(gclass);
            for (i, &(_, v)) in run.iter().enumerate() {
                a.data_mut()[goff as usize + i] = v;
            }
            let rec = [run[0].0 .0, goff, run.len() as u32, gclass as u32].map(Word);
            a.data_mut()[off as usize + g * REC..][..REC].copy_from_slice(&rec);
        }
        let (len, groups) = (entries.len() as u32, Word(groups as u32));
        Adjacency { off: Word(off), len, groups, class, dir: true }
    }

    /// Lays sorted, duplicate-free, non-empty label groups out as a fresh
    /// run: what [`Self::build`] lays out for their entries, one id slice
    /// copied at a time.
    pub(crate) fn build_groups(a: &mut Arena, groups: &[(LabelId, &[VertexId])]) -> Adjacency {
        let n = groups.iter().map(|(_, ids)| ids.len()).sum::<usize>();
        match (n, groups.first()) {
            (0, _) => return Adjacency::EMPTY,
            (1, Some(&(label, ids))) => return Self::inline(label, ids[0]),
            _ => {}
        }
        if n <= FLAT_MAX {
            let heads = groups.iter().map(|&(label, ids)| header(label, ids.len()));
            let ids = groups.iter().flat_map(|&(_, ids)| ids.iter().copied());
            return Self::lay_flat(a, groups.len(), n, heads.chain(ids));
        }
        let class = class_for(REC * groups.len());
        let off = a.alloc(class);
        for (g, &(label, ids)) in groups.iter().enumerate() {
            let gclass = class_for(ids.len());
            let goff = a.alloc(gclass);
            a.data_mut()[goff as usize..goff as usize + ids.len()].copy_from_slice(ids);
            let rec = [label.0, goff, ids.len() as u32, gclass as u32].map(Word);
            a.data_mut()[off as usize + g * REC..][..REC].copy_from_slice(&rec);
        }
        let (len, recs) = (n as u32, Word(groups.len() as u32));
        Adjacency { off: Word(off), len, groups: recs, class, dir: true }
    }

    /// Every slot this run owns, as `(off, class)`.
    pub(crate) fn slots<'a>(&self, a: &'a Arena) -> impl Iterator<Item = (u32, u8)> + 'a {
        let own = (self.len > 1).then_some((self.off.0, self.class));
        let recs = if self.dir { self.dir(a) } else { &[] };
        own.into_iter().chain(recs.chunks_exact(REC).map(|rec| (rec[1].0, rec[3].0 as u8)))
    }

    /// Asserts what a flat run's headers promise (test support): labels
    /// strictly ascending, no empty group, lengths summing to the run's, and
    /// headers and ids within the slot.
    pub(crate) fn check_headers(&self, a: &Arena) {
        if self.dir || self.len < 2 {
            return;
        }
        let (heads, _) = self.flat(a);
        assert!(heads.windows(2).all(|h| head_label(h[0]) < head_label(h[1])), "headers unsorted");
        assert!(heads.iter().all(|&h| head_len(h) > 0), "an empty group kept its header");
        let total = heads.iter().map(|&h| head_len(h)).sum::<usize>();
        assert_eq!(total, self.len(), "header lengths do not sum to the run's");
        let words = heads.len() + self.len();
        assert!(words <= class_cap(self.class) as usize, "a flat run overflows its slot");
    }

    /// Re-lays the run in the other layout (at most [`FLAT_MAX`] entries
    /// either way), recycling its slots.
    pub(crate) fn relay(&mut self, a: &mut Arena) {
        let mut buf = [(LabelId(0), VertexId(0)); FLAT_MAX];
        let n = self.len();
        for (slot, (v, l)) in buf.iter_mut().zip(self.iter(a)) {
            *slot = (l, v);
        }
        let mut owned = [(0, 0); FLAT_MAX + 1];
        let slots = self.slots(a).zip(&mut owned).map(|(s, o)| *o = s).count();
        owned[..slots].iter().for_each(|&(off, class)| a.release(off, class));
        *self =
            if self.dir { Self::build_flat(a, &buf[..n]) } else { Self::build_dir(a, &buf[..n]) };
    }

    /// Drops the label groups `keep` rejects, in place and in the slots the
    /// run has: a flat run closes the gaps among its headers and its ids, a
    /// directory drops the records of the rejected groups and releases their
    /// slots. Layouts and classes stay, except that a run left with one
    /// entry moves it into the handle and a run left empty releases
    /// everything.
    pub(crate) fn retain(&mut self, a: &mut Arena, keep: impl Fn(LabelId) -> bool) {
        let off = self.off.index();
        match self.len {
            0 => return,
            1 => {
                if !keep(LabelId(self.groups.0)) {
                    *self = Adjacency::EMPTY;
                }
                return;
            }
            _ if !self.dir => {
                // The kept ids land where dropped headers were, so the
                // headers are read from a copy.
                let mut heads = [Word(0); FLAT_MAX];
                let heads = &mut heads[..self.groups.index()];
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
                self.groups = Word(kept as u32);
                let last = (head_label(data[off]), data[off + kept]);
                self.settle(a, (to - off - kept) as u32, last);
                return;
            }
            _ => {}
        }
        let (mut kept, mut len) = (0, 0);
        for g in 0..self.groups.index() {
            let mut rec = [Word(0); REC];
            rec.copy_from_slice(&a.data()[off + g * REC..][..REC]);
            if keep(LabelId(rec[0].0)) {
                a.data_mut()[off + kept * REC..][..REC].copy_from_slice(&rec);
                (kept, len) = (kept + 1, len + rec[2].0);
            } else {
                a.release(rec[1].0, rec[3].0 as u8);
            }
        }
        self.groups = Word(kept as u32);
        let rec: [Word; REC] = a.data()[off..off + REC].try_into().expect("a record");
        let last = (LabelId(rec[0].0), a.data()[rec[1].index()]);
        if len == 1 {
            a.release(rec[1].0, rec[3].0 as u8);
        }
        self.settle(a, len, last);
    }

    /// Sets a run [`Self::retain`] shrank to its new length `len`: one left
    /// (`last`) moves into the handle, none leaves it empty, and either gives
    /// the run's own slot back.
    fn settle(&mut self, a: &mut Arena, len: u32, last: (LabelId, VertexId)) {
        self.len = len;
        if len <= 1 {
            a.release(self.off.0, self.class);
            *self = if len == 1 { Self::inline(last.0, last.1) } else { Adjacency::EMPTY };
        }
    }

    /// True for a directory of at most [`FLAT_MAX`] entries, which the one
    /// rule lays flat: what [`Self::retain`] can leave behind.
    pub(crate) fn folds(&self) -> bool {
        self.dir && self.len() <= FLAT_MAX
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
            let dir = self.off.index();
            let g = (0..self.groups.index()).find(|g| a.data()[dir + g * REC + 1].0 == from);
            let at = dir + g.expect("a slot of this run") * REC;
            let n = a.data()[at + 2].index();
            let class = class_for(n);
            let data = a.data_mut();
            data.copy_within(src..src + n, dst);
            (data[at + 1], data[at + 3]) = (Word(to), Word(class as u32));
            return class_cap(class);
        }
        let groups = self.groups.index();
        let words = if self.dir { groups * REC } else { groups + self.len() };
        a.data_mut().copy_within(src..src + words, dst);
        (self.off, self.class) = (Word(to), class_for(words));
        class_cap(self.class)
    }

    /// Inserts `(label, v)`; returns `false` if it is already present.
    pub(crate) fn insert(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        if self.dir {
            return self.insert_dir(a, label, v);
        }
        match self.len {
            0 => {
                *self = Self::inline(label, v);
                return true;
            }
            1 => {
                let (old, new) = ((LabelId(self.groups.0), self.off), (label, v));
                if old == new {
                    return false;
                }
                *self = Self::build_flat(a, &[old.min(new), old.max(new)]);
                return true;
            }
            _ => {}
        }
        let (heads, ids) = self.flat(a);
        let (g, at, n) = find_head(heads, label);
        let Err(p) = ids[at..at + n].binary_search(&v) else { return false };
        if self.len() == FLAT_MAX {
            self.relay(a);
            return self.insert_dir(a, label, v);
        }
        // Word offsets within the slot: the insertion point among the ids
        // and the end. A new group adds its header at `g`, which moves
        // everything from there on up one more word.
        let new = usize::from(n == 0);
        let (ins, end) = (heads.len() + at + p, heads.len() + self.len());
        let (src, src_class) = (self.off.index(), self.class);
        let moves = end + 1 + new > class_cap(src_class) as usize;
        if moves {
            self.class = class_for(end + 1 + new);
            self.off = Word(a.alloc(self.class));
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
        self.groups.0 += new as u32;
        self.len += 1;
        if moves {
            a.release(src as u32, src_class);
        }
        true
    }

    fn insert_dir(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        let at = self.off.index();
        match find_group(self.dir(a), label) {
            Ok(g) => {
                let rec = &a.data()[at + g * REC..][..REC];
                let (goff, glen, gclass) = (rec[1].0, rec[2].0, rec[3].0 as u8);
                let Err(pos) = a.run(goff, glen).binary_search(&v) else { return false };
                let (goff, gclass) = a.insert_at(goff, glen, gclass, pos, v);
                let rec = [label.0, goff, glen + 1, gclass as u32].map(Word);
                a.data_mut()[at + g * REC..][..REC].copy_from_slice(&rec);
            }
            Err(g) => {
                let goff = a.alloc(0);
                a.data_mut()[goff as usize] = v;
                for (i, w) in [label.0, goff, 1, 0].into_iter().enumerate() {
                    let (len, pos) = ((self.groups.index() * REC + i) as u32, g * REC + i);
                    let (off, class) = a.insert_at(self.off.0, len, self.class, pos, Word(w));
                    (self.off, self.class) = (Word(off), class);
                }
                self.groups.0 += 1;
            }
        }
        self.len += 1;
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
        if !self.dir {
            let (heads, ids) = self.flat(a);
            let (g, at, n) = find_head(heads, label);
            let Ok(p) = ids[at..at + n].binary_search(&v) else { return false };
            // An emptied group takes its header along: what lies between
            // it and the entry moves down one word, what follows two.
            let gone = usize::from(n == 1);
            let off = self.off.index();
            let (pos, end) = (off + heads.len() + at + p, off + heads.len() + self.len());
            let data = a.data_mut();
            if gone == 1 {
                data.copy_within(off + g + 1..pos, off + g);
            } else {
                data[off + g].0 -= 1;
            }
            data.copy_within(pos + 1..end, pos - gone);
            self.groups.0 -= gone as u32;
            self.len -= 1;
            if self.is_inline() {
                // The one entry left moves into the handle.
                let last = (head_label(a.data()[off]), a.data()[off + 1]);
                a.release(self.off.0, self.class);
                *self = Self::inline(last.0, last.1);
            }
            return true;
        }
        let Ok(g) = find_group(self.dir(a), label) else { return false };
        let at = self.off.index() + g * REC;
        let rec = &a.data()[at..at + REC];
        let (goff, glen, gclass) = (rec[1].0, rec[2].0, rec[3].0 as u8);
        let Ok(pos) = a.run(goff, glen).binary_search(&v) else { return false };
        a.remove_at(goff, glen, pos);
        a.data_mut()[at + 2] = Word(glen - 1);
        self.len -= 1;
        if glen == 1 {
            a.release(goff, gclass);
            for i in 0..REC {
                a.remove_at(self.off.0, (self.groups.index() * REC - i) as u32, g * REC);
            }
            self.groups.0 -= 1;
        }
        if self.len() * 2 <= FLAT_MAX {
            self.relay(a);
        }
        true
    }

    /// The neighbors reachable over an edge labeled exactly `label`, as a
    /// sorted duplicate-free run.
    #[inline]
    pub(crate) fn labeled<'a>(&'a self, a: &'a Arena, label: LabelId) -> LabeledNeighbors<'a> {
        if self.dir {
            let dir = self.dir(a);
            let ids = find_group(dir, label).map(|g| group_ids(a.data(), &dir[g * REC..]));
            return LabeledNeighbors(ids.unwrap_or(&[]));
        }
        if self.is_inline() {
            return LabeledNeighbors(self.inline_ids(label));
        }
        let (heads, ids) = self.flat(a);
        let (_, at, n) = find_head(heads, label);
        LabeledNeighbors(&ids[at..at + n])
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
        match (stage, self.dir) {
            (1, false) if self.len > 1 => {
                prefetch_at(data, off);
                prefetch_at(data, off + self.groups.index() + self.len() - 1);
            }
            (1, true) => {
                prefetch_at(data, off);
                prefetch_at(data, off + self.groups.index() / 2 * REC);
            }
            _ => {}
        }
    }

    /// Every label group as `(label, sorted ids)`, in label order.
    #[inline]
    pub(crate) fn groups<'a>(&'a self, a: &'a Arena) -> Groups<'a> {
        let data = a.data();
        if self.dir {
            return Groups { data, heads: &[], ids: &[], label: LabelId(0), recs: self.dir(a) };
        }
        if self.is_inline() {
            let (label, ids) = (LabelId(self.groups.0), std::slice::from_ref(&self.off));
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

    /// Neighbors matching an optional query-edge label, via the access path
    /// selected by `mode`. Yields in `(label, neighbor)` order either way.
    #[inline]
    pub(crate) fn matching<'a>(
        &'a self,
        a: &'a Arena,
        qlabel: Option<LabelId>,
        mode: AdjacencyMode,
    ) -> MatchingNeighbors<'a> {
        MatchingNeighbors(match (qlabel, mode) {
            (Some(label), AdjacencyMode::Indexed) => MatchingRepr::Labeled(self.labeled(a, label)),
            _ => MatchingRepr::Scan { groups: self.groups(a), qlabel, keep: false, ids: [].iter() },
        })
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
            return Some((LabelId(rec[0].0), group_ids(self.data, rec)));
        }
        // An inline run's entry, once; a flat run has no ids past its last
        // header.
        (!self.ids.is_empty()).then(|| (self.label, std::mem::take(&mut self.ids)))
    }
}

/// Iterator over one label group's neighbors (sorted, duplicate-free).
#[derive(Clone, Copy)]
pub struct LabeledNeighbors<'a>(&'a [VertexId]);

impl<'a> LabeledNeighbors<'a> {
    /// Number of neighbors in the group — the label-qualified degree.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the group is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True iff `v` is in the group: linear under the probe cutoff, binary
    /// search above it (see [`crate::intersect::contains_sorted`]).
    pub fn contains(&self, v: VertexId) -> bool {
        contains_sorted(self.0, v)
    }

    /// The group as a contiguous id slice, borrowed from the graph's arena:
    /// what the intersection kernels read zero-copy.
    pub fn as_id_slice(&self) -> &'a [VertexId] {
        self.0
    }
}

impl Iterator for LabeledNeighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        let (&v, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for LabeledNeighbors<'_> {}

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

/// Iterator over neighbors matching an optional query-edge label, through
/// either access path ([`AdjacencyMode`]). Yields neighbor ids.
pub struct MatchingNeighbors<'a>(MatchingRepr<'a>);

enum MatchingRepr<'a> {
    Labeled(LabeledNeighbors<'a>),
    /// Walks every group; `keep` says whether the one being walked matches.
    Scan {
        groups: Groups<'a>,
        qlabel: Option<LabelId>,
        keep: bool,
        ids: std::slice::Iter<'a, VertexId>,
    },
}

impl Iterator for MatchingNeighbors<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        match &mut self.0 {
            MatchingRepr::Labeled(iter) => iter.next(),
            MatchingRepr::Scan { groups, qlabel, keep, ids } => loop {
                match ids.next() {
                    Some(&v) if *keep => return Some(v),
                    Some(_) => {}
                    None => {
                        let (label, run) = groups.next()?;
                        (*keep, *ids) = (qlabel.is_none_or(|ql| ql == label), run.iter());
                    }
                }
            },
        }
    }
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
        assert_eq!(r.labeled(&a, l(2)).as_id_slice(), &[v(3), v(5)]);
        assert_eq!(r.labeled(&a, l(1)).len(), 2);
        assert!(r.labeled(&a, l(7)).is_empty() && r.labeled(&a, l(0)).is_empty());
        assert!(r.labeled(&a, l(1)).contains(v(9)) && !r.labeled(&a, l(1)).contains(v(3)));
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
            assert_eq!(r.labeled(&a, l(lab)).as_id_slice(), &flat[..]);
        }
        // Shrinking keeps the directory down to half of FLAT_MAX, then folds.
        for &(w, lab) in &got[..FLAT_MAX / 2] {
            assert!(r.is_directory());
            assert!(r.remove(&mut a, lab, w));
        }
        assert_eq!(r.len(), FLAT_MAX / 2 + 1);
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
        for w in r.labeled(&a, l(1)).collect::<Vec<_>>() {
            assert!(r.remove(&mut a, l(1), w));
        }
        assert!(r.labeled(&a, l(1)).is_empty());
        let n = FLAT_MAX;
        assert_eq!(r.label_runs(&a).collect::<Vec<_>>(), vec![(l(0), n), (l(2), n)]);
        assert_eq!(r.slots(&a).count(), 3, "the emptied group's slot went back");
        let free = a.free_slots();
        assert!(r.insert(&mut a, l(1), v(999)));
        assert_eq!(a.free_slots(), free - 1, "and is reused, not carved");
        assert_eq!(r.labeled(&a, l(1)).as_id_slice(), &[v(999)]);
        assert!(!r.remove(&mut a, l(1), v(0)), "absent neighbor");
        assert!(!r.remove(&mut a, l(9), v(0)), "absent label");
        a.validate(r.slots(&a));
    }

    #[test]
    fn matching_modes_and_target_probes_agree_across_layouts() {
        let mut a = Arena::new();
        for n in [5, FLAT_MAX as u32 + 5] {
            let r = run_of(&mut a, (0..n).map(|i| (i % 4, i * 7 % 31)));
            assert_eq!(r.is_directory(), n as usize > FLAT_MAX);
            for qlabel in [None, Some(l(0)), Some(l(3)), Some(l(9))] {
                let indexed: Vec<_> = r.matching(&a, qlabel, AdjacencyMode::Indexed).collect();
                let scanned: Vec<_> = r.matching(&a, qlabel, AdjacencyMode::FlatScan).collect();
                assert_eq!(indexed, scanned, "qlabel {qlabel:?}");
            }
            for w in 0..32 {
                let want = r.iter(&a).filter(|e| e.0 == v(w)).count();
                assert_eq!(r.count_to(&a, v(w)), want);
                assert_eq!(r.any_to(&a, v(w)), want > 0);
            }
        }
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
                assert_eq!(r.len(), reference.len());
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
                    assert!(r.labeled(&a, lab).eq(want), "label {lab:?} at step {step}");
                    assert_eq!(r.labeled(&a, lab).len(), n);
                }
            }
            for (lab, w) in std::mem::take(&mut reference) {
                assert!(r.remove(&mut a, lab, w));
            }
            assert_eq!((r.len(), a.live_slots()), (0, 0), "a drained run owns nothing");
            a.validate([]);
            *carved = a.carved_entries();
        }
        assert!(unfolds >= 4 && folds >= 4, "{unfolds} unfolds, {folds} folds");
        assert!(classes.len() >= 6, "size classes seen: {classes:?}");
        assert_eq!(carved[0], carved[1], "the replay carved new storage");
    }
}
