//! Label-partitioned per-vertex adjacency runs in one graph-owned arena.
//!
//! Every edge-transition in the matching engines asks one of two questions
//! about a data vertex `v`: "which neighbors are reachable over an edge with
//! label `l`?" (concrete query-edge label — the overwhelmingly common case)
//! or "which neighbors at all?" (wildcard query edge). Each direction of
//! each vertex is an [`Adjacency`] handle — `{off, len, class}` plus a group
//! count — into the graph's single [`SlotArena`] of 4-byte words; nothing
//! here owns heap memory, so an edge op touches one handle and one or two
//! slots per direction and nothing else.
//!
//! Three layouts, all enumerating in `(label, neighbor)` order:
//!
//! * **Inline** — exactly one entry, kept in the handle itself: the
//!   neighbor in `off`, the label in `groups`. It owns no slot; it is a flat
//!   run of one entry whose two halves are the handle's own two words.
//! * **Flat** — one slot split in halves: the entries' labels, then their
//!   neighbor ids, both in entry order. A label group is the sub-run of ids
//!   under the equal labels, found by a branch-free counting pass over at
//!   most [`FLAT_MAX`] label words.
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

/// Entries up to which a run stays flat. At 32 a flat run is at most four
/// cache lines and its label half two; DESIGN.md "Adjacency layout" has the
/// measurement that set it.
pub const FLAT_MAX: usize = 32;

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
    /// Directory records, 0 for a flat run; an inline run's label.
    groups: Word,
    class: u8,
}

const _: () = assert!(std::mem::size_of::<Adjacency>() == 16, "a handle is 16 bytes");

/// `[lo, hi)` of `label`'s entries among the sorted `labels` of a flat run.
/// No early exit: over at most [`FLAT_MAX`] words the counting loop
/// vectorizes and beats both a branchy scan and a binary search.
#[inline]
fn run_bounds(labels: &[Word], label: LabelId) -> (usize, usize) {
    let (mut lo, mut eq) = (0, 0);
    for l in labels {
        lo += usize::from(l.0 < label.0);
        eq += usize::from(l.0 == label.0);
    }
    (lo, lo + eq)
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
        Adjacency { off: Word(0), len: 0, groups: Word(0), class: 0 };

    /// The one-entry run `(label, v)`, kept in the handle.
    #[inline]
    fn inline(label: LabelId, v: VertexId) -> Adjacency {
        Adjacency { off: v, len: 1, groups: Word(label.0), class: 0 }
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
        self.len > 1 && self.groups.0 > 0
    }

    /// Entries a flat run's slot holds (half its words); 0 without a slot.
    #[inline]
    fn flat_cap(&self) -> usize {
        usize::from(self.len > 1) * class_cap(self.class) as usize / 2
    }

    /// A flat run's `(labels, ids)` halves; an inline run's are its handle's
    /// two words.
    #[inline]
    fn flat<'a>(&'a self, a: &'a Arena) -> (&'a [Word], &'a [VertexId]) {
        if self.is_inline() {
            return (std::slice::from_ref(&self.groups), std::slice::from_ref(&self.off));
        }
        let (off, n, cap) = (self.off.index(), self.len(), self.flat_cap());
        (&a.data()[off..off + n], &a.data()[off + cap..off + cap + n])
    }

    /// A directory's records.
    #[inline]
    fn dir<'a>(&self, a: &'a Arena) -> &'a [Word] {
        a.run(self.off.0, self.groups.0 * REC as u32)
    }

    /// The arena words [`Self::build`] carves for `entries`.
    pub(crate) fn words(entries: &[(LabelId, VertexId)]) -> usize {
        match entries.len() {
            0 | 1 => 0,
            n if n <= FLAT_MAX => class_cap(class_for(2 * n)) as usize,
            _ => {
                let groups = entries.chunk_by(|x, y| x.0 == y.0);
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
        let class = class_for(2 * entries.len());
        let off = a.alloc(class);
        let (base, cap) = (off as usize, class_cap(class) as usize / 2);
        for (i, &(label, v)) in entries.iter().enumerate() {
            a.data_mut()[base + i] = Word(label.0);
            a.data_mut()[base + cap + i] = v;
        }
        Adjacency { off: Word(off), len: entries.len() as u32, groups: Word(0), class }
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
        Adjacency { off: Word(off), len: entries.len() as u32, groups: Word(groups as u32), class }
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
            let class = class_for(2 * n);
            let off = a.alloc(class);
            let (mut at, cap) = (off as usize, class_cap(class) as usize / 2);
            let data = a.data_mut();
            for &(label, ids) in groups {
                data[at..at + ids.len()].fill(Word(label.0));
                data[at + cap..at + cap + ids.len()].copy_from_slice(ids);
                at += ids.len();
            }
            return Adjacency { off: Word(off), len: n as u32, groups: Word(0), class };
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
        Adjacency { off: Word(off), len: n as u32, groups: Word(groups.len() as u32), class }
    }

    /// Every slot this run owns, as `(off, class)`.
    pub(crate) fn slots<'a>(&self, a: &'a Arena) -> impl Iterator<Item = (u32, u8)> + 'a {
        let own = (self.len > 1).then_some((self.off.0, self.class));
        let recs = if self.is_directory() { self.dir(a) } else { &[] };
        own.into_iter().chain(recs.chunks_exact(REC).map(|rec| (rec[1].0, rec[3].0 as u8)))
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
        *self = if self.is_directory() {
            Self::build_flat(a, &buf[..n])
        } else {
            Self::build_dir(a, &buf[..n])
        };
    }

    /// Drops the label groups `keep` rejects, in place and in the slots the
    /// run has: a flat run closes the gaps in its two halves, a directory
    /// drops the records of the rejected groups and releases their slots.
    /// Layouts and classes stay, except that a run left with one entry moves
    /// it into the handle and a run left empty releases everything.
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
            _ if !self.is_directory() => {
                let (n, cap, data) = (self.len(), self.flat_cap(), a.data_mut());
                let mut kept = 0;
                for i in 0..n {
                    if keep(LabelId(data[off + i].0)) {
                        // Nothing moves until an entry has been dropped.
                        if kept != i {
                            data[off + kept] = data[off + i];
                            data[off + cap + kept] = data[off + cap + i];
                        }
                        kept += 1;
                    }
                }
                let last = (LabelId(data[off].0), data[off + cap]);
                self.settle(a, kept as u32, last);
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
        self.is_directory() && self.len() <= FLAT_MAX
    }

    /// Moves the slot of this run at `from` — its own, or one of its
    /// directory's groups — down to `to ≤ from`, at the class its entries
    /// need; returns the words it takes there. The caller moves every slot of
    /// the arena this way in offset order, so the slots not moved yet lie
    /// past `from`, where the move cannot reach.
    pub(crate) fn move_slot(&mut self, a: &mut Arena, from: u32, to: u32) -> u32 {
        debug_assert!(to <= from);
        let (src, dst) = (from as usize, to as usize);
        let class = if from != self.off.0 {
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
        } else if self.is_directory() {
            let words = self.groups.index() * REC;
            a.data_mut().copy_within(src..src + words, dst);
            class_for(words)
        } else {
            // The labels land below where the ids start, so the halves move
            // one after the other.
            let (n, from_cap) = (self.len(), self.flat_cap());
            let class = class_for(2 * n);
            let data = a.data_mut();
            data.copy_within(src..src + n, dst);
            data.copy_within(
                src + from_cap..src + from_cap + n,
                dst + class_cap(class) as usize / 2,
            );
            class
        };
        (self.off, self.class) = (Word(to), class);
        class_cap(class)
    }

    /// Inserts `(label, v)`; returns `false` if it is already present.
    pub(crate) fn insert(&mut self, a: &mut Arena, label: LabelId, v: VertexId) -> bool {
        if self.is_directory() {
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
        let (labels, ids) = self.flat(a);
        let (lo, hi) = run_bounds(labels, label);
        let Err(p) = ids[lo..hi].binary_search(&v) else { return false };
        if self.len() == FLAT_MAX {
            self.relay(a);
            return self.insert_dir(a, label, v);
        }
        // Splice into both halves; a full slot moves up a class.
        let (pos, n) = (lo + p, self.len());
        let (src, src_cap, src_class) = (self.off.index(), self.flat_cap(), self.class);
        if n == src_cap {
            self.class = src_class + 1;
            self.off = Word(a.alloc(self.class));
        }
        self.len += 1;
        let (dst, dst_cap) = (self.off.index(), self.flat_cap());
        let data = a.data_mut();
        for (s, t, w) in [(src, dst, Word(label.0)), (src + src_cap, dst + dst_cap, v)] {
            if s != t {
                data.copy_within(s..s + pos, t);
            }
            data.copy_within(s + pos..s + n, t + pos + 1);
            data[t + pos] = w;
        }
        if n == src_cap {
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
        if !self.is_directory() {
            let (labels, ids) = self.flat(a);
            let (lo, hi) = run_bounds(labels, label);
            let Ok(p) = ids[lo..hi].binary_search(&v) else { return false };
            if self.is_inline() {
                *self = Adjacency::EMPTY;
                return true;
            }
            let (pos, n, cap) = (lo + p, self.len(), self.flat_cap());
            let off = self.off.index();
            for half in [off, off + cap] {
                a.data_mut().copy_within(half + pos + 1..half + n, half + pos);
            }
            self.len -= 1;
            if self.is_inline() {
                // The one entry left moves into the handle.
                let last = (LabelId(a.data()[off].0), a.data()[off + cap]);
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
        if self.is_directory() {
            let dir = self.dir(a);
            let ids = find_group(dir, label).map(|g| group_ids(a.data(), &dir[g * REC..]));
            return LabeledNeighbors(ids.unwrap_or(&[]));
        }
        let (labels, ids) = self.flat(a);
        let (lo, hi) = run_bounds(labels, label);
        LabeledNeighbors(&ids[lo..hi])
    }

    /// The batch lookahead's hint (`tfx_core::round::lookahead`) for a coming
    /// probe, insert or delete of a `(label, ·)` entry, given that the stage
    /// before pulled in what this one reads. Stage 1 reads the handle and
    /// hints the slot it names: a flat run's label half and id half (first
    /// and last entry — a half is at most [`FLAT_MAX`] words at any
    /// alignment), a directory's first and middle record. Stage 2 searches
    /// the directory, cached by then, and hints the first and middle line of
    /// `label`'s id run; a flat run has nothing left to hint, and an inline
    /// one nothing past its handle.
    #[inline]
    pub(crate) fn prefetch(&self, a: &Arena, label: LabelId, stage: u8) {
        let (data, off) = (a.data(), self.off.index());
        match (stage, self.is_directory()) {
            (1, false) if self.len > 1 => {
                let last = self.len() - 1;
                for half in [off, off + self.flat_cap()] {
                    prefetch_at(data, half);
                    prefetch_at(data, half + last);
                }
            }
            (1, true) => {
                prefetch_at(data, off);
                prefetch_at(data, off + self.groups.index() / 2 * REC);
            }
            (2, true) => {
                let dir = self.dir(a);
                if let Ok(g) = find_group(dir, label) {
                    let (goff, glen) = (dir[g * REC + 1].index(), dir[g * REC + 2].index());
                    prefetch_at(data, goff);
                    prefetch_at(data, goff + glen / 2);
                }
            }
            _ => {}
        }
    }

    /// Every label group as `(label, sorted ids)`, in label order.
    #[inline]
    pub(crate) fn groups<'a>(&'a self, a: &'a Arena) -> Groups<'a> {
        if self.is_directory() {
            return Groups { data: a.data(), labels: &[], ids: &[], recs: self.dir(a) };
        }
        let (labels, ids) = self.flat(a);
        Groups { data: a.data(), labels, ids, recs: &[] }
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

/// The label groups of one run: a flat run splits its two halves at every
/// label change, a directory walks its records.
#[derive(Clone)]
pub(crate) struct Groups<'a> {
    data: &'a [Word],
    /// What is left of a flat run's halves; empty for a directory.
    labels: &'a [Word],
    ids: &'a [VertexId],
    /// What is left of a directory's records; empty for a flat run.
    recs: &'a [Word],
}

impl<'a> Iterator for Groups<'a> {
    type Item = (LabelId, &'a [VertexId]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let Some(&label) = self.labels.first() else {
            let (rec, rest) = self.recs.split_at_checked(REC)?;
            self.recs = rest;
            return Some((LabelId(rec[0].0), group_ids(self.data, rec)));
        };
        let run = self.labels.iter().take_while(|&&l| l == label).count();
        let (ids, rest) = self.ids.split_at(run);
        (self.labels, self.ids) = (&self.labels[run..], rest);
        Some((LabelId(label.0), ids))
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
