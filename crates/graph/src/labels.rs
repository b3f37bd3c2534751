//! Label sets and string interning.
//!
//! The paper's label function `L` maps a vertex to a *set* of labels, and a
//! query vertex `u` matches a data vertex `v` iff `L(u) ⊆ L(v)` (Def. 1).
//! Most vertices in the paper's datasets carry zero or one label, so
//! [`LabelSet`] is optimized for tiny cardinalities: a sorted `Vec` on the
//! heap (none for the empty set) with O(|a|+|b|) subset tests. A graph
//! stores each distinct set once, in a [`SetTable`], and gives every vertex
//! a 4-byte id into it: a dataset has a handful of distinct sets, and a
//! `Vec` per vertex cost 24 bytes of handle plus a heap cell.

use crate::ids::LabelId;
use rustc_hash::FxHashMap;

/// A small, sorted, duplicate-free set of labels.
///
/// An empty set matches every vertex (this is how the unlabeled Netflow
/// vertices are modeled).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LabelSet {
    labels: Vec<LabelId>,
}

impl LabelSet {
    /// The empty label set (matches anything when used as a query label set).
    pub const fn empty() -> Self {
        LabelSet { labels: Vec::new() }
    }

    /// A singleton label set.
    pub fn single(l: LabelId) -> Self {
        LabelSet { labels: vec![l] }
    }

    /// Builds a set from arbitrary labels, sorting and deduplicating.
    pub fn from_labels(mut labels: Vec<LabelId>) -> Self {
        labels.sort_unstable();
        labels.dedup();
        LabelSet { labels }
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// True iff `l` is in the set (binary search).
    #[inline]
    pub fn contains(&self, l: LabelId) -> bool {
        match self.labels.len() {
            0 => false,
            1 => self.labels[0] == l,
            _ => self.labels.binary_search(&l).is_ok(),
        }
    }

    /// Inserts a label, keeping the set sorted. Returns `false` if already
    /// present.
    pub fn insert(&mut self, l: LabelId) -> bool {
        match self.labels.binary_search(&l) {
            Ok(_) => false,
            Err(pos) => {
                self.labels.insert(pos, l);
                true
            }
        }
    }

    /// The paper's matching test: `self ⊆ other` via sorted merge.
    pub fn is_subset_of(&self, other: &LabelSet) -> bool {
        if self.labels.len() > other.labels.len() {
            return false;
        }
        let mut oi = 0;
        'outer: for &l in &self.labels {
            while oi < other.labels.len() {
                match other.labels[oi].cmp(&l) {
                    std::cmp::Ordering::Less => oi += 1,
                    std::cmp::Ordering::Equal => {
                        oi += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Iterates over the labels in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.labels.iter().copied()
    }

    /// The labels as a sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[LabelId] {
        &self.labels
    }

    /// Heap bytes reserved behind the set.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.labels.capacity() * std::mem::size_of::<LabelId>()
    }
}

impl std::fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.labels.iter()).finish()
    }
}

impl FromIterator<LabelId> for LabelSet {
    fn from_iter<T: IntoIterator<Item = LabelId>>(iter: T) -> Self {
        LabelSet::from_labels(iter.into_iter().collect())
    }
}

/// The id of a label set in a [`SetTable`].
pub(crate) type SetId = u32;

/// Marks a free bucket of [`SetTable::index`].
const FREE: SetId = SetId::MAX;

/// Every distinct label set of a graph's vertices, each stored once, under a
/// dense id in first-seen order. `index` is an open-addressing hash table of
/// set ids (linear probing, a power of two of buckets, at most half of them
/// taken), so interning costs a hash and a probe or two, and the table's
/// bytes are exactly its length. The sets come from input text, so the hash
/// is the standard library's randomly keyed one: crafted sets cannot pile
/// into one probe chain. Ids do not depend on it.
#[derive(Clone, Default)]
pub(crate) struct SetTable {
    sets: Vec<LabelSet>,
    index: Vec<SetId>,
    hasher: std::hash::RandomState,
}

impl SetTable {
    /// `labels`' id, or the free bucket its id goes in.
    fn find(&self, labels: &LabelSet) -> Result<SetId, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut bucket = std::hash::BuildHasher::hash_one(&self.hasher, labels) as usize & mask;
        loop {
            match self.index[bucket] {
                FREE => return Err(bucket),
                id if self.sets[id as usize] == *labels => return Ok(id),
                _ => bucket = (bucket + 1) & mask,
            }
        }
    }

    /// The id of `labels`, which is copied only if it is new.
    pub(crate) fn intern(&mut self, labels: &LabelSet) -> SetId {
        let bucket = match self.find(labels) {
            Ok(id) => return id,
            Err(bucket) => bucket,
        };
        let id = SetId::try_from(self.sets.len()).expect("label sets exceed u32 ids");
        self.sets.push(labels.clone());
        if 2 * self.sets.len() > self.index.len() {
            self.index = vec![FREE; (2 * self.sets.len()).next_power_of_two().max(8)];
            for (id, set) in self.sets.iter().enumerate() {
                let Err(bucket) = self.find(set) else { unreachable!("sets are distinct") };
                self.index[bucket] = id as SetId;
            }
        } else {
            self.index[bucket] = id;
        }
        id
    }

    /// The set with id `id`.
    #[inline]
    pub(crate) fn get(&self, id: SetId) -> &LabelSet {
        &self.sets[id as usize]
    }

    /// Number of distinct sets.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// Reserved bytes: the set table, the sets' labels and the index.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.sets.capacity() * std::mem::size_of::<LabelSet>()
            + self.sets.iter().map(LabelSet::heap_bytes).sum::<usize>()
            + self.index.capacity() * std::mem::size_of::<SetId>()
    }
}

/// What [`LabelInterner::try_intern`] refuses: a new name past the
/// interner's limit of distinct labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelLimit(pub u32);

impl std::fmt::Display for LabelLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "more than {} distinct labels", self.0)
    }
}

impl std::error::Error for LabelLimit {}

/// Bidirectional mapping between label strings and [`LabelId`]s.
///
/// Datasets and queries are authored with human-readable labels
/// (`"User"`, `"knows"`, `"tcp"`, ...); the engines only ever see ids, all
/// below [`LabelId::LIMIT`].
#[derive(Clone)]
pub struct LabelInterner {
    by_name: FxHashMap<String, LabelId>,
    names: Vec<String>,
    /// Distinct names it hands out ids to.
    limit: u32,
}

impl Default for LabelInterner {
    fn default() -> Self {
        Self::with_limit(LabelId::LIMIT)
    }
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner that refuses names past the first `limit` distinct
    /// ones (at most [`LabelId::LIMIT`]).
    pub fn with_limit(limit: u32) -> Self {
        let limit = limit.min(LabelId::LIMIT);
        LabelInterner { by_name: FxHashMap::default(), names: Vec::new(), limit }
    }

    /// Returns the id for `name`, interning it if new.
    ///
    /// Panics on a new name past the limit; [`Self::try_intern`] returns
    /// the error instead.
    pub fn intern(&mut self, name: &str) -> LabelId {
        self.try_intern(name).unwrap_or_else(|e| panic!("interning `{name}`: {e}"))
    }

    /// Returns the id for `name`, interning it if new, or [`LabelLimit`] if
    /// it is new and the interner already holds its limit of names.
    pub fn try_intern(&mut self, name: &str) -> Result<LabelId, LabelLimit> {
        if let Some(&id) = self.by_name.get(name) {
            return Ok(id);
        }
        if self.names.len() >= self.limit as usize {
            return Err(LabelLimit(self.limit));
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Looks up an already interned label.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// The string for an id, if it was produced by this interner.
    pub fn name(&self, id: LabelId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> LabelSet {
        LabelSet::from_labels(ids.iter().map(|&i| LabelId(i)).collect())
    }

    #[test]
    fn from_labels_sorts_and_dedups() {
        let s = set(&[3, 1, 3, 2]);
        assert_eq!(s.as_slice(), &[LabelId(1), LabelId(2), LabelId(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_is_subset_of_everything() {
        assert!(LabelSet::empty().is_subset_of(&set(&[1, 2])));
        assert!(LabelSet::empty().is_subset_of(&LabelSet::empty()));
    }

    #[test]
    fn subset_tests() {
        assert!(set(&[1]).is_subset_of(&set(&[1, 2])));
        assert!(set(&[1, 2]).is_subset_of(&set(&[1, 2])));
        assert!(!set(&[1, 3]).is_subset_of(&set(&[1, 2])));
        assert!(!set(&[1, 2, 3]).is_subset_of(&set(&[1, 2])));
        assert!(!set(&[0]).is_subset_of(&set(&[1, 2])));
        assert!(!set(&[5]).is_subset_of(&set(&[1, 2])));
        assert!(!set(&[1]).is_subset_of(&LabelSet::empty()));
    }

    #[test]
    fn contains_and_insert() {
        let mut s = set(&[2, 4]);
        assert!(s.contains(LabelId(2)));
        assert!(!s.contains(LabelId(3)));
        assert!(s.insert(LabelId(3)));
        assert!(!s.insert(LabelId(3)));
        assert_eq!(s.as_slice(), &[LabelId(2), LabelId(3), LabelId(4)]);
    }

    #[test]
    fn singleton_contains_fast_path() {
        let s = LabelSet::single(LabelId(9));
        assert!(s.contains(LabelId(9)));
        assert!(!s.contains(LabelId(8)));
    }

    #[test]
    fn set_table_stores_each_distinct_set_once() {
        let mut t = SetTable::default();
        let sets: Vec<LabelSet> = (0..200).map(|i| set(&[i % 7, i % 5 + 7])).collect();
        let ids: Vec<SetId> = sets.iter().map(|s| t.intern(s)).collect();
        assert_eq!(t.len(), 35, "7 × 5 distinct pairs");
        for (s, &id) in sets.iter().zip(&ids) {
            assert_eq!(t.get(id), s);
            assert_eq!(t.intern(s), id, "a known set keeps its id");
        }
        assert_eq!(t.intern(&LabelSet::empty()), 35);
        assert_eq!(t.len(), 36);
        let bytes = 36 * std::mem::size_of::<LabelSet>() + 35 * 2 * 4 + 128 * 4;
        assert!(t.resident_bytes() >= bytes && t.clone().resident_bytes() == bytes);
    }

    #[test]
    fn interner_roundtrip() {
        let mut it = LabelInterner::new();
        let a = it.intern("User");
        let b = it.intern("Post");
        assert_ne!(a, b);
        assert_eq!(it.intern("User"), a);
        assert_eq!(it.get("Post"), Some(b));
        assert_eq!(it.get("Nope"), None);
        assert_eq!(it.name(a), Some("User"));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn interner_refuses_names_past_its_limit() {
        assert_eq!(LabelInterner::new().limit, LabelId::LIMIT);
        assert_eq!(LabelInterner::with_limit(u32::MAX).limit, LabelId::LIMIT);
        let mut it = LabelInterner::with_limit(2);
        assert_eq!(it.try_intern("a"), Ok(LabelId(0)));
        assert_eq!(it.try_intern("b"), Ok(LabelId(1)));
        assert_eq!(it.try_intern("c"), Err(LabelLimit(2)));
        assert_eq!(it.try_intern("a"), Ok(LabelId(0)), "a known name is still found");
        assert_eq!((it.len(), it.get("c")), (2, None));
        assert_eq!(LabelLimit(2).to_string(), "more than 2 distinct labels");
    }
}
