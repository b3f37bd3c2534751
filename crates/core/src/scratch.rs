//! Reusable per-engine scratch buffers for the per-update hot path.
//!
//! Every update evaluation needs a handful of temporary collections: the
//! partial embedding, a match record to report through, candidate snapshots
//! for the recursive `BuildDCG` / `ClearDCG` walks, in-edge snapshots for
//! the upward climb, the plan of query edges matching the updated data edge,
//! and which of that edge's images the DCG's bits account for. Allocating them
//! per update dominated the cost of small updates, so they live in one
//! [`SearchScratch`] owned by the engine and threaded through `search.rs`
//! and `ops.rs`.
//!
//! The recursive walks use **segmented stacks**: a recursion level records
//! `buf.len()` on entry, appends its snapshot, iterates it by index (inner
//! levels only ever append past the segment and truncate back), and
//! truncates to the recorded length on exit. One long-lived `Vec` thus
//! serves arbitrarily deep recursion without per-level allocation once its
//! high-water capacity is reached.
//!
//! Under isomorphism semantics `IsJoinable`'s injectivity test is a scan of
//! `m`, which holds at most 64 bindings (DESIGN.md, "Isomorphism
//! injectivity in one scan").

use tfx_graph::VertexId;
use tfx_query::{EdgeId, MatchRecord, QVertexId};

/// Scratch space reused across updates; see the module docs.
#[derive(Default, Debug)]
pub(crate) struct SearchScratch {
    /// Partial embedding `m : V(q) → V(g)`, indexed by query vertex id.
    /// Written through [`SearchScratch::bind`] / [`SearchScratch::rebind`]
    /// so `rec` below stays in sync.
    pub(crate) m: Vec<Option<VertexId>>,
    /// The record every report goes through: `rec[u]` mirrors `m[u]`
    /// wherever `m[u]` is bound (written by [`SearchScratch::rebind`]; a
    /// last-level candidate is written by the search without binding). A
    /// slot of an unbound vertex is stale, and never read: a report needs
    /// every vertex bound.
    pub(crate) rec: MatchRecord,
    /// Bit `u`: the DCG edge into the current binding of `u` — from the
    /// current binding of its tree parent; the start edge for the root — is
    /// known explicit, so the search need not probe it again. Set by the
    /// code that just read (or made) the edge explicit, restored on unwind
    /// (DESIGN.md, "Enumeration path").
    pub(crate) trusted: u64,
    /// Segmented stack of child candidates (`BuildDCG` / `ClearDCG`).
    pub(crate) kids: Vec<VertexId>,
    /// Segmented stack of the upward climb: the stored parents of each
    /// climbed vertex, ascending.
    pub(crate) climb: Vec<VertexId>,
    /// The data pair `(src, dst)` of the edge the current operation
    /// evaluates.
    pub(crate) image: (VertexId, VertexId),
    /// Bit `u`: that edge is the image of the tree edge into `u` — it
    /// matches it, and no parallel edge backs the same pair. The DCG derives
    /// such an edge from the graph from stage to finalize.
    pub(crate) image_under: u64,
    /// Bit `u`: the DCG's bits do not account for the image under the tree
    /// edge into `u` — not built yet on an insertion, cleared already on a
    /// deletion — though the graph shows it.
    pub(crate) uncounted: u64,
    /// The query edges matching the current updated data edge, in invocation
    /// order (`TurboFlux::matching_query_edges`).
    pub(crate) plan: Vec<EdgeId>,
    /// Segmented stack of explicit-frontier ids for the non-tree-edge
    /// intersection prefilter (`search.rs`).
    pub(crate) isect: Vec<VertexId>,
    /// Ping-pong buffer for folding successive run intersections into the
    /// top `isect` segment.
    pub(crate) isect_tmp: Vec<VertexId>,
}

impl SearchScratch {
    /// Scratch sized for a query with `nq` vertices.
    pub(crate) fn for_query(nq: usize) -> Self {
        let rec = MatchRecord::new(vec![VertexId(0); nq]);
        SearchScratch { m: vec![None; nq], rec, ..Default::default() }
    }

    /// Sets `m(u) = v`, replacing (and returning) any previous binding.
    #[inline]
    pub(crate) fn rebind(&mut self, u: QVertexId, v: Option<VertexId>) -> Option<VertexId> {
        let prev = std::mem::replace(&mut self.m[u.index()], v);
        if let Some(w) = v {
            self.rec.set(u, w);
        }
        prev
    }

    /// Records that the DCG edge into the current binding of `u` was just
    /// seen (or made) explicit; the caller restores `trusted` on unwind.
    #[inline]
    pub(crate) fn trust(&mut self, u: QVertexId) {
        self.trusted |= 1 << u.0;
    }

    /// Whether the climb proved the DCG edge into the binding of `u`.
    #[inline]
    pub(crate) fn trusts(&self, u: QVertexId) -> bool {
        self.trusted >> u.0 & 1 == 1
    }

    /// Binds `m(u) = v`; `u` must be unbound.
    #[inline]
    pub(crate) fn bind(&mut self, u: QVertexId, v: VertexId) {
        let prev = self.rebind(u, Some(v));
        debug_assert!(prev.is_none(), "bind over an existing binding");
    }

    /// Clears the binding of `u` (which must be bound).
    #[inline]
    pub(crate) fn unbind(&mut self, u: QVertexId) {
        let prev = self.rebind(u, None);
        debug_assert!(prev.is_some(), "unbind of an unbound vertex");
    }

    /// True iff `v` is the image of some query vertex *other than* `u` in
    /// the current partial embedding — the isomorphism injectivity test, one
    /// scan of `m` (homomorphism engines never ask).
    #[inline]
    pub(crate) fn bound_elsewhere(&self, u: QVertexId, v: VertexId) -> bool {
        self.m.iter().enumerate().any(|(w, &mv)| mv == Some(v) && w != u.index())
    }

    /// The updated edge's data pair, if as the image of the tree edge into
    /// `u` the DCG's bits do not account for it: a derived edge the walks and
    /// scans over stored edges must skip.
    #[inline]
    pub(crate) fn uncounted_image(&self, u: QVertexId) -> Option<(VertexId, VertexId)> {
        (self.uncounted >> u.0 & 1 == 1).then_some(self.image)
    }

    /// Records that the DCG edge of `u` over the data pair `pair` was built
    /// (`counted`) or cleared, should it be an image of the update.
    #[inline]
    pub(crate) fn note(&mut self, u: QVertexId, pair: (VertexId, VertexId), counted: bool) {
        if self.image_under >> u.0 & 1 == 1 && pair == self.image {
            if counted {
                self.uncounted &= !(1 << u.0);
            } else {
                self.uncounted |= 1 << u.0;
            }
        }
    }

    /// Debug invariant: no live bindings, no trust and no update images left
    /// over (update evaluation fully unwound).
    pub(crate) fn assert_unbound(&self) {
        debug_assert!(self.m.iter().all(Option::is_none));
        debug_assert_eq!(self.trusted, 0);
        debug_assert_eq!(self.image_under | self.uncounted, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> QVertexId {
        QVertexId(i)
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn bind_unbind_tracks_multiplicity() {
        let mut s = SearchScratch::for_query(4);
        assert!(!s.bound_elsewhere(u(0), v(7)));
        s.bind(u(0), v(7));
        assert!(!s.bound_elsewhere(u(0), v(7)), "own binding is not 'elsewhere'");
        assert!(s.bound_elsewhere(u(1), v(7)));
        // A second query vertex mapping the same data vertex (legal under
        // homomorphism): each binding is now the other's "elsewhere".
        s.bind(u(1), v(7));
        assert!(s.bound_elsewhere(u(0), v(7)));
        s.unbind(u(1));
        assert!(!s.bound_elsewhere(u(0), v(7)));
        s.unbind(u(0));
        s.assert_unbound();
    }

    #[test]
    fn rebind_handles_equal_and_distinct_previous_bindings() {
        let mut s = SearchScratch::for_query(3);
        s.bind(u(2), v(5));
        // Rebinding to the same vertex changes nothing.
        assert_eq!(s.rebind(u(2), Some(v(5))), Some(v(5)));
        assert!(s.bound_elsewhere(u(0), v(5)));
        // Rebinding to a different vertex moves the binding.
        assert_eq!(s.rebind(u(2), Some(v(6))), Some(v(5)));
        assert!(!s.bound_elsewhere(u(0), v(5)));
        assert!(s.bound_elsewhere(u(0), v(6)));
        assert_eq!(s.rebind(u(2), None), Some(v(6)));
        s.assert_unbound();
    }
}
