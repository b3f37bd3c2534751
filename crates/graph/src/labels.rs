//! Label sets and string interning.
//!
//! The paper's label function `L` maps a vertex to a *set* of labels, and a
//! query vertex `u` matches a data vertex `v` iff `L(u) ⊆ L(v)` (Def. 1).
//! Most vertices in the paper's datasets carry zero or one label, so
//! [`LabelSet`] is optimized for tiny cardinalities: a sorted inline `Vec`
//! with O(|a|+|b|) subset tests.

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

/// Bidirectional mapping between label strings and [`LabelId`]s.
///
/// Datasets and queries are authored with human-readable labels
/// (`"User"`, `"knows"`, `"tcp"`, ...); the engines only ever see ids.
#[derive(Default, Clone)]
pub struct LabelInterner {
    by_name: FxHashMap<String, LabelId>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, interning it if new.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = LabelId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
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
}
