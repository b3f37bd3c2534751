//! The data-centric graph (DCG), §3.1.
//!
//! The DCG is conceptually a complete multigraph over the data vertices in
//! which every ordered pair `(v, v')` carries one edge per non-root query
//! vertex `u'`, in state NULL / IMPLICIT / EXPLICIT. NULL edges are never
//! stored; the remaining edges are exactly the intermediate results:
//!
//! * an **implicit** edge `(v, u', v')` records that some data path
//!   `v_s → v.v'` matches the query-tree path `u_s → P(u').u'` but at least
//!   one subtree of `u'` is not yet matched under `v'` (Def. 5);
//! * an **explicit** edge additionally has every subtree of `u'` matched
//!   (Def. 4).
//!
//! The artificial start edges `(v_s*, u_s, v_s)` are stored as a per-vertex
//! root state. Storage is adjacency keyed per query vertex in *both*
//! directions, so the engine can walk downward (`out_explicit`) during
//! `SubgraphSearch` and upward (`in_edges`) during the climb
//! (`BuildUpwardsAndEval` / `ClearUpwardsAndEval`) without touching the data
//! graph. Per-vertex explicit-out bitmaps make the paper's
//! `MatchAllChildren` test O(1).
//!
//! Deviation from the paper (documented in DESIGN.md): implicit edges are
//! stored rather than derived from a bitmap plus data-graph scans.
//!
//! Storage is the slot arena of [`crate::dcg_store`]: per query vertex and
//! direction an open-addressed index from the near-side data vertex to a
//! run of far-end ids, runs of ≤ 4 edges inline in the index slot and larger
//! runs in a shared size-classed pool with free-list reuse. **An edge's
//! state is stored once, on the out side**: an out-run is laid out
//! `[explicit, ascending | implicit, ascending]` — the state is which side
//! of the split an id sits on, so the explicit edges are a borrowed slice —
//! while an in-run is the plain ascending list of stored parents, written
//! only when an edge appears or disappears. A climb needs no state there: by
//! Definitions 4 / 5 it is a function of `(u, v)` alone, the same for every
//! edge of one in-run. See DESIGN.md "DCG storage layout".

use std::collections::BTreeMap;
use tfx_graph::VertexId;
use tfx_query::QVertexId;

use crate::dcg_store::{OpenMap, Pool, RunIndex};

/// State of a stored DCG edge. NULL is represented by absence.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum EdgeState {
    /// Path condition holds, some subtree of the candidate is unmatched.
    Implicit,
    /// Path condition holds and every subtree is matched.
    Explicit,
}

/// Storage-shape counters for the DCG arena (see [`Dcg::storage_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DcgStorageStats {
    /// Runs stored inline in their index slot (≤ 4 edges, no pool storage).
    pub inline_runs: usize,
    /// Runs stored in a pool slot.
    pub pooled_runs: usize,
    /// Emptied pooled runs holding only a size-class rebuild hint.
    pub warm_runs: usize,
    /// Pool slots currently on a free list (reserved but idle).
    pub free_slots: usize,
    /// Total edge entries carved out of the pool (live + free slack).
    pub carved_entries: usize,
    /// Exact reserved bytes, as [`Dcg::resident_bytes`].
    pub resident_bytes: usize,
    /// Stored edges (start edges included) in the explicit state — the
    /// partial solutions `SubgraphSearch` walks.
    pub explicit_edges: u64,
    /// Stored edges still waiting for a subtree to match.
    pub implicit_edges: u64,
}

/// The stored DCG for one registered query.
pub struct Dcg {
    nq: usize,
    root_qv: QVertexId,
    /// Per child query vertex: edges labeled with it, keyed by the
    /// tree-parent-side data vertex.
    out: Vec<RunIndex>,
    /// Same edges keyed by the child-side data vertex: who the stored
    /// parents are, not what state their edges are in (every handle's `expl`
    /// stays 0).
    inc: Vec<RunIndex>,
    /// Slot arena shared by every run of every index above.
    pool: Pool,
    /// Artificial start edges `(v_s*, u_s, v)`.
    root: OpenMap<EdgeState>,
    /// Bit `u` set iff the vertex has ≥1 explicit outgoing edge labeled
    /// `u`. Entries are dropped when the whole bitmap clears.
    expl_out_bits: OpenMap<u64>,
    /// Global explicit-edge count per query vertex (drives matching-order
    /// maintenance).
    expl_count: Vec<u64>,
    /// Bit `u` set iff `expl_count[u]` changed since the last
    /// [`Dcg::take_dirty_expl`] — lets the drift check above touch only the
    /// counts that can possibly have started drifting.
    dirty_expl: u64,
    stored_edges: u64,
}

impl Dcg {
    /// An empty DCG for a query with `nq` vertices rooted at `root_qv`.
    ///
    /// Panics if `nq > 64` (the explicit-out bitmaps use one `u64` per data
    /// vertex, and the paper's queries are ≤ 14 vertices).
    pub fn new(nq: usize, root_qv: QVertexId) -> Self {
        assert!(nq <= 64, "queries are limited to 64 vertices");
        Dcg {
            nq,
            root_qv,
            out: (0..nq).map(|_| RunIndex::new()).collect(),
            inc: (0..nq).map(|_| RunIndex::new()).collect(),
            pool: Pool::new(),
            root: OpenMap::new(),
            expl_out_bits: OpenMap::new(),
            expl_count: vec![0; nq],
            dirty_expl: 0,
            stored_edges: 0,
        }
    }

    /// The starting query vertex `u_s`.
    #[inline]
    pub fn root_qv(&self) -> QVertexId {
        self.root_qv
    }

    /// State of the artificial start edge `(v_s*, u_s, v)`.
    #[inline]
    pub fn root_state(&self, v: VertexId) -> Option<EdgeState> {
        self.root.get(v.0)
    }

    /// State of the DCG edge `(pv, u, cv)` for non-root `u`.
    pub fn state(&self, pv: VertexId, u: QVertexId, cv: VertexId) -> Option<EdgeState> {
        debug_assert_ne!(u, self.root_qv);
        self.out[u.index()].get(&self.pool, pv, cv)
    }

    /// Sets (inserting if absent) or clears (when `new` is `None`) the state
    /// of a DCG edge. `parent` is `None` exactly for the artificial start
    /// edge of `v`. Returns the previous state. The in side is written only
    /// when the edge appears or disappears; an I ↔ E flip moves one id across
    /// one out-run's split.
    pub fn transit(
        &mut self,
        parent: Option<VertexId>,
        u: QVertexId,
        v: VertexId,
        new: Option<EdgeState>,
    ) -> Option<EdgeState> {
        match parent {
            None => {
                debug_assert_eq!(u, self.root_qv, "only the start edge has no parent");
                let old = match new {
                    Some(st) => self.root.insert(v.0, st),
                    None => self.root.remove(v.0),
                };
                self.fix_counters(u, old, new, 1);
                old
            }
            Some(pv) => {
                debug_assert_ne!(u, self.root_qv);
                let inc = &mut self.inc[u.index()];
                let (old, expl_after) = match new {
                    Some(st) => {
                        let (old, expl) = self.out[u.index()].set(&mut self.pool, pv, v, st);
                        if old.is_none() {
                            let (mirror, _) = inc.set(&mut self.pool, v, pv, EdgeState::Implicit);
                            debug_assert!(mirror.is_none(), "out/in adjacency diverged");
                        }
                        (old, expl)
                    }
                    None => {
                        let (old, expl) = self.out[u.index()].remove(&mut self.pool, pv, v);
                        let (mirror, _) = inc.remove(&mut self.pool, v, pv);
                        debug_assert_eq!(old.is_some(), mirror.is_some(), "out/in diverged");
                        (old, expl)
                    }
                };
                self.fix_counters(u, old, new, 1);
                // Maintain the explicit-out bitmap of the parent. When the
                // edge's explicit-ness is unchanged the run's explicit count
                // is too, so the bitmap needs no probe at all — the common
                // implicit insert/delete churn never touches it. The entry
                // is dropped when the whole bitmap clears so the table only
                // holds vertices that currently have explicit out-edges.
                let was_expl = old == Some(EdgeState::Explicit);
                let is_expl = new == Some(EdgeState::Explicit);
                if is_expl && !was_expl {
                    let (bi, _) = self.expl_out_bits.ensure(pv.0, 0);
                    *self.expl_out_bits.val_mut(bi) |= 1 << u.0;
                } else if was_expl && !is_expl && expl_after == 0 {
                    if let Some(bi) = self.expl_out_bits.find(pv.0) {
                        let bits = self.expl_out_bits.val_mut(bi);
                        *bits &= !(1 << u.0);
                        if *bits == 0 {
                            self.expl_out_bits.remove_at(bi);
                        }
                    }
                }
                old
            }
        }
    }

    /// The batch lookahead's hint ([`crate::round::lookahead`]) for an
    /// evaluation that will map data vertex `v` onto query vertex `u`, whose
    /// tree children are `children`: the path-condition probe reads `v`'s
    /// in-run labeled `u` (its start edge when `u` is the root),
    /// `MatchAllChildren` its explicit-out bitmap, and every state test,
    /// transition and climb below it one of its out-runs labeled with a
    /// child. Stage 1 hints the home buckets, stage 2 the pooled runs the
    /// (then cached) buckets name; stage 0 has nothing to do — a bucket's
    /// address needs no handle. `&self`, allocation-free, any `v`.
    pub fn prefetch(&self, v: VertexId, u: QVertexId, children: &[QVertexId], stage: u8) {
        if u != self.root_qv {
            self.inc[u.index()].prefetch(&self.pool, v, stage);
        } else if stage == 1 {
            self.root.prefetch(v.0);
        }
        if stage == 1 {
            self.expl_out_bits.prefetch(v.0);
        }
        for c in children {
            self.out[c.index()].prefetch(&self.pool, v, stage);
        }
    }

    /// Sizes the tables of the empty DCG for what registration is about to
    /// lay (`crate::bulk`): per non-root query vertex the number of out-runs
    /// and in-runs labeled with it, and the number of start edges.
    pub(crate) fn reserve(&mut self, out_runs: &[usize], in_runs: &[usize], roots: usize) {
        debug_assert_eq!(self.stored_edges, 0, "reserve on a DCG that holds edges");
        self.out = out_runs.iter().map(|&n| RunIndex::with_capacity(n)).collect();
        self.inc = in_runs.iter().map(|&n| RunIndex::with_capacity(n)).collect();
        self.root = OpenMap::with_capacity(roots);
    }

    /// Lays the whole out-run of `(pv, u)` — every stored edge `(pv, u, ·)`,
    /// the `expl` explicit far ends first, each partition ascending — in one
    /// write, and accounts for it as the same edges passed through
    /// [`Dcg::transit`] one by one would have. The mirror entries are the
    /// caller's to lay ([`Dcg::lay_in_run`]).
    pub(crate) fn lay_out_run(
        &mut self,
        pv: VertexId,
        u: QVertexId,
        ids: &[VertexId],
        expl: usize,
    ) {
        debug_assert_ne!(u, self.root_qv);
        self.out[u.index()].lay(&mut self.pool, pv, ids, expl);
        self.stored_edges += ids.len() as u64;
        if expl > 0 {
            self.expl_count[u.index()] += expl as u64;
            self.dirty_expl |= 1 << u.0;
            let (bi, _) = self.expl_out_bits.ensure(pv.0, 0);
            *self.expl_out_bits.val_mut(bi) |= 1 << u.0;
        }
    }

    /// Lays the whole in-run of `(v, u)`: the near end of every out-run
    /// entry `(·, u, v)`, ascending; the edges are counted there.
    pub(crate) fn lay_in_run(&mut self, v: VertexId, u: QVertexId, ids: &[VertexId]) {
        debug_assert_ne!(u, self.root_qv);
        self.inc[u.index()].lay(&mut self.pool, v, ids, 0);
    }

    fn fix_counters(
        &mut self,
        u: QVertexId,
        old: Option<EdgeState>,
        new: Option<EdgeState>,
        weight: u64,
    ) {
        if old.is_none() && new.is_some() {
            self.stored_edges += weight;
        } else if old.is_some() && new.is_none() {
            self.stored_edges -= weight;
        }
        let was_expl = old == Some(EdgeState::Explicit);
        let is_expl = new == Some(EdgeState::Explicit);
        if was_expl && !is_expl {
            self.expl_count[u.index()] -= weight;
            self.dirty_expl |= 1 << u.0;
        } else if !was_expl && is_expl {
            self.expl_count[u.index()] += weight;
            self.dirty_expl |= 1 << u.0;
        }
    }

    /// Number of stored (implicit or explicit) incoming edges of `v` labeled
    /// `u`, counting the artificial start edge when `u = u_s`.
    pub fn in_count_total(&self, v: VertexId, u: QVertexId) -> usize {
        if u == self.root_qv {
            usize::from(self.root.contains(v.0))
        } else {
            self.inc[u.index()].run_len(v)
        }
    }

    /// The far ends of the *explicit* outgoing edges of `pv` labeled `u`,
    /// ascending: the search frontier, a borrowed slice like a data-graph
    /// label group. Kept out of line: with the bucket decode inlined into
    /// `subgraph_search`, `setup.initial_report_s` on `netflow_enum` reads
    /// 0.041 s against 0.034 (4.9 M matches; DESIGN.md, "What PR 23
    /// measured"), and the call is per frontier, not per candidate.
    #[inline(never)]
    pub fn out_explicit(&self, pv: VertexId, u: QVertexId) -> &[VertexId] {
        debug_assert_ne!(u, self.root_qv);
        self.out[u.index()].explicit(&self.pool, pv)
    }

    /// The far ends of the stored outgoing edges of `pv` labeled `u`:
    /// `(explicit, implicit)`, each ascending.
    #[inline]
    pub fn out_edges(&self, pv: VertexId, u: QVertexId) -> (&[VertexId], &[VertexId]) {
        debug_assert_ne!(u, self.root_qv);
        let (run, expl) = self.out[u.index()].run(&self.pool, pv);
        run.split_at(expl)
    }

    /// The near ends of the stored incoming edges of `v` labeled `u`,
    /// ascending. Their states are on the out side ([`Dcg::state`]) — and all
    /// the same wherever the engine keeps Definitions 4 / 5.
    #[inline]
    pub fn in_edges(&self, v: VertexId, u: QVertexId) -> &[VertexId] {
        debug_assert_ne!(u, self.root_qv);
        self.inc[u.index()].run(&self.pool, v).0
    }

    /// Returns and clears the dirty bitmask: bit `u` is set iff the
    /// explicit count of query vertex `u` changed since the previous call.
    #[inline]
    pub fn take_dirty_expl(&mut self) -> u64 {
        std::mem::take(&mut self.dirty_expl)
    }

    /// Number of explicit outgoing edges of `pv` labeled `u`.
    pub fn out_expl_count(&self, pv: VertexId, u: QVertexId) -> usize {
        debug_assert_ne!(u, self.root_qv);
        self.out[u.index()].expl_count(pv)
    }

    /// The explicit-out bitmap of `v` (bit `u` set iff ≥1 explicit out edge
    /// labeled `u`). O(1) `MatchAllChildren` support.
    #[inline]
    pub fn expl_out_bits(&self, v: VertexId) -> u64 {
        self.expl_out_bits.get(v.0).unwrap_or(0)
    }

    /// Total number of stored DCG edges (start edges included) — the
    /// paper's intermediate-result *size* measure for TurboFlux.
    #[inline]
    pub fn stored_edge_count(&self) -> u64 {
        self.stored_edges
    }

    /// Exact resident bytes of the stored intermediate results: every
    /// index table is charged its bucket capacity, the run pool its carved
    /// entries and metadata (free-list slack included). Reserved storage
    /// never shrinks, so this measures high-water memory — after a warm-up
    /// cycle a self-inverting update stream returns it to exactly the same
    /// value (`insert_then_delete_restores_everything` in
    /// `tests/properties.rs`), but a freshly built engine
    /// reports less than one that has churned.
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = self.root.resident_bytes()
            + self.expl_out_bits.resident_bytes()
            + self.pool.resident_bytes();
        for adj in self.out.iter().chain(self.inc.iter()) {
            bytes += adj.resident_bytes();
        }
        bytes
    }

    /// Storage-shape counters: how many runs are inline vs pooled, and how
    /// much pool storage is live vs free-listed.
    pub fn storage_stats(&self) -> DcgStorageStats {
        let explicit_edges = self.expl_count.iter().sum();
        let mut stats = DcgStorageStats {
            free_slots: self.pool.free_slots(),
            carved_entries: self.pool.carved_entries(),
            resident_bytes: self.resident_bytes(),
            explicit_edges,
            implicit_edges: self.stored_edges - explicit_edges,
            ..Default::default()
        };
        for adj in self.out.iter().chain(self.inc.iter()) {
            let (inline, pooled, warm) = adj.repr_counts();
            stats.inline_runs += inline;
            stats.pooled_runs += pooled;
            stats.warm_runs += warm;
        }
        stats
    }

    /// Global explicit-edge counts per query vertex.
    #[inline]
    pub fn expl_counts(&self) -> &[u64] {
        &self.expl_count
    }

    /// A canonical snapshot of every stored edge, for oracle comparison.
    /// Keys are `(parent, query vertex, child)` with `None` for `v_s*`.
    pub fn snapshot(&self) -> BTreeMap<(Option<VertexId>, u32, VertexId), EdgeState> {
        let mut snap = BTreeMap::new();
        for (v, &st) in self.root.iter() {
            snap.insert((None, self.root_qv.0, VertexId(v)), st);
        }
        for (u, adj) in self.out.iter().enumerate() {
            adj.for_each_run(&self.pool, |pv, explicit, implicit| {
                for (ids, st) in [(explicit, EdgeState::Explicit), (implicit, EdgeState::Implicit)]
                {
                    snap.extend(ids.iter().map(|&cv| ((Some(pv), u as u32, cv), st)));
                }
            });
        }
        snap
    }

    /// Debug-only consistency check: counters, bitmaps, and the arena
    /// invariants (each partition of a run sorted, the two disjoint, `expl ≤
    /// len`, `expl == 0` on the in side, inline/pooled representation
    /// boundary, mirror slots, no slot aliasing or free-list leaks) all agree
    /// with the stored adjacency.
    pub fn check_consistency(&self) {
        let mut stored = self.root.len() as u64;
        let mut expl = vec![0u64; self.nq];
        expl[self.root_qv.index()] =
            self.root.iter().filter(|&(_, &s)| s == EdgeState::Explicit).count() as u64;
        for (u, adj) in self.out.iter().enumerate() {
            adj.for_each_run(&self.pool, |pv, explicit, implicit| {
                stored += (explicit.len() + implicit.len()) as u64;
                expl[u] += explicit.len() as u64;
                let bit_set = self.expl_out_bits(pv) & (1 << u) != 0;
                assert_eq!(bit_set, !explicit.is_empty(), "bitmap wrong at ({pv}, u{u})");
                for &cv in explicit.iter().chain(implicit) {
                    let mirrored = self.in_edges(cv, QVertexId(u as u32)).binary_search(&pv);
                    assert!(mirrored.is_ok(), "missing mirror for ({pv}, u{u}, {cv})");
                }
            });
        }
        let mut inc_total = 0u64;
        for adj in &self.inc {
            adj.for_each_run(&self.pool, |v, explicit, ids| {
                assert!(explicit.is_empty(), "a state is back on the in side, at v{v}");
                inc_total += ids.len() as u64;
            });
        }
        assert_eq!(inc_total + self.root.len() as u64, stored, "in/out totals differ");
        assert_eq!(stored, self.stored_edges, "stored_edges counter wrong");
        assert_eq!(expl, self.expl_count, "expl_count wrong");
        // No vertex retains an all-zero bitmap entry.
        for (v, &bits) in self.expl_out_bits.iter() {
            assert_ne!(bits, 0, "stale empty bitmap entry for v{v}");
        }
        // Arena invariants: every pool slot is referenced by exactly one
        // run, free lists account for the rest, and slot extents tile the
        // carved pool.
        self.root.validate();
        self.expl_out_bits.validate();
        let mut held = Vec::new();
        for adj in self.out.iter().chain(self.inc.iter()) {
            adj.validate(&self.pool, &mut held);
        }
        self.pool.validate(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Rng;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn u(i: u32) -> QVertexId {
        QVertexId(i)
    }

    #[test]
    fn root_edges() {
        let mut d = Dcg::new(3, u(0));
        assert_eq!(d.root_state(v(1)), None);
        assert_eq!(d.transit(None, u(0), v(1), Some(EdgeState::Implicit)), None);
        assert_eq!(d.root_state(v(1)), Some(EdgeState::Implicit));
        assert_eq!(d.in_count_total(v(1), u(0)), 1);
        assert_eq!(
            d.transit(None, u(0), v(1), Some(EdgeState::Explicit)),
            Some(EdgeState::Implicit)
        );
        assert_eq!(d.expl_counts(), &[1, 0, 0]);
        assert_eq!(d.transit(None, u(0), v(1), None), Some(EdgeState::Explicit));
        assert_eq!(d.stored_edge_count(), 0);
        d.check_consistency();
    }

    #[test]
    fn non_root_edges_and_bitmaps() {
        let mut d = Dcg::new(3, u(0));
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Implicit));
        d.transit(Some(v(0)), u(1), v(2), Some(EdgeState::Implicit));
        assert_eq!(d.state(v(0), u(1), v(1)), Some(EdgeState::Implicit));
        assert_eq!(d.in_count_total(v(1), u(1)), 1);
        assert_eq!(d.out_expl_count(v(0), u(1)), 0);
        assert_eq!(d.expl_out_bits(v(0)), 0);
        d.check_consistency();

        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Explicit));
        assert_eq!(d.out_expl_count(v(0), u(1)), 1);
        assert_eq!(d.expl_out_bits(v(0)), 1 << 1);
        assert_eq!(d.stored_edge_count(), 2);
        d.check_consistency();

        // Downgrade clears the bitmap bit again.
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Implicit));
        assert_eq!(d.expl_out_bits(v(0)), 0);
        d.check_consistency();

        d.transit(Some(v(0)), u(1), v(1), None);
        d.transit(Some(v(0)), u(1), v(2), None);
        assert_eq!(d.stored_edge_count(), 0);
        assert_eq!(d.in_count_total(v(1), u(1)), 0);
        d.check_consistency();
    }

    #[test]
    fn in_out_edge_views_agree() {
        let mut d = Dcg::new(4, u(0));
        d.transit(Some(v(0)), u(2), v(5), Some(EdgeState::Explicit));
        d.transit(Some(v(1)), u(2), v(5), Some(EdgeState::Implicit));
        assert_eq!(d.in_edges(v(5), u(2)), [v(0), v(1)]);
        assert_eq!(d.out_edges(v(0), u(2)), (&[v(5)][..], &[][..]));
        assert_eq!(d.out_edges(v(1), u(2)), (&[][..], &[v(5)][..]));
        assert_eq!(d.out_explicit(v(0), u(2)), [v(5)]);
        assert!(d.out_explicit(v(1), u(2)).is_empty());
        assert!(d.in_edges(v(9), u(2)).is_empty());
        assert!(d.out_explicit(v(9), u(2)).is_empty());
        // A pooled run reads back split: explicit far ends, then implicit
        // ones, each ascending.
        for i in (0..7).rev() {
            let st = if i % 2 == 0 { EdgeState::Explicit } else { EdgeState::Implicit };
            d.transit(Some(v(0)), u(1), v(10 + i), Some(st));
        }
        let ids = |xs: &[u32]| xs.iter().map(|&x| v(x)).collect::<Vec<_>>();
        assert_eq!(d.out_edges(v(0), u(1)), (&ids(&[10, 12, 14, 16])[..], &ids(&[11, 13, 15])[..]));
        assert_eq!(d.out_explicit(v(0), u(1)), ids(&[10, 12, 14, 16]));
        assert_eq!(d.out_expl_count(v(0), u(1)), 4);
        // A restated edge crosses the split to its sorted place, both ways.
        d.transit(Some(v(0)), u(1), v(13), Some(EdgeState::Explicit));
        d.transit(Some(v(0)), u(1), v(12), Some(EdgeState::Implicit));
        assert_eq!(d.out_edges(v(0), u(1)), (&ids(&[10, 13, 14, 16])[..], &ids(&[11, 12, 15])[..]));
        assert_eq!(d.state(v(0), u(1), v(12)), Some(EdgeState::Implicit));
        assert_eq!(d.state(v(0), u(1), v(13)), Some(EdgeState::Explicit));
        assert_eq!(d.state(v(0), u(1), v(17)), None);
        d.check_consistency();
    }

    /// A state is stored once: flipping a standing edge either way writes
    /// nothing on the in side — not the run's bytes (inline and pooled), not
    /// its handle, not a reserved byte.
    #[test]
    fn a_flip_leaves_the_in_side_untouched() {
        let mut d = Dcg::new(2, u(0));
        for pv in [3, 1, 7, 5, 9, 2] {
            d.transit(Some(v(pv)), u(1), v(20), Some(EdgeState::Implicit));
        }
        d.transit(Some(v(5)), u(1), v(21), Some(EdgeState::Explicit));
        let in_runs =
            |d: &Dcg| (d.in_edges(v(20), u(1)).to_vec(), d.in_edges(v(21), u(1)).to_vec());
        let (before, bytes) = (in_runs(&d), d.resident_bytes());
        assert_eq!(before.0, [1, 2, 3, 5, 7, 9].map(v));
        for st in [EdgeState::Explicit, EdgeState::Implicit, EdgeState::Explicit] {
            for (pv, cv) in [(7, 20), (5, 21), (1, 20)] {
                assert!(d.transit(Some(v(pv)), u(1), v(cv), Some(st)).is_some());
                assert_eq!(d.state(v(pv), u(1), v(cv)), Some(st));
                assert_eq!((in_runs(&d), d.resident_bytes()), (before.clone(), bytes));
                assert_eq!(d.inc[1].expl_count(v(cv)), 0);
                d.check_consistency();
            }
        }
        assert_eq!(d.expl_counts(), &[0, 3]);
    }

    #[test]
    fn snapshot_is_canonical() {
        let mut d = Dcg::new(2, u(0));
        d.transit(None, u(0), v(0), Some(EdgeState::Explicit));
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Implicit));
        let snap = d.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&(None, 0, v(0))], EdgeState::Explicit);
        assert_eq!(snap[&(Some(v(0)), 1, v(1))], EdgeState::Implicit);
    }

    #[test]
    fn resident_bytes_grow_and_are_cycle_stable() {
        let mut d = Dcg::new(2, u(0));
        assert_eq!(d.resident_bytes(), 0, "empty DCG reserves nothing");
        let cycle = |d: &mut Dcg| {
            d.transit(None, u(0), v(0), Some(EdgeState::Implicit));
            for i in 1..6 {
                d.transit(Some(v(0)), u(1), v(i), Some(EdgeState::Implicit));
            }
            let grown = d.resident_bytes();
            for i in 1..6 {
                d.transit(Some(v(0)), u(1), v(i), None);
            }
            d.transit(None, u(0), v(0), None);
            grown
        };
        // Two warm-up cycles: the first teardown still sizes free-list
        // stacks, so the reserved-bytes fixpoint starts at the second.
        cycle(&mut d);
        let grown1 = cycle(&mut d);
        let warm = d.resident_bytes();
        assert!(grown1 > 0 && warm > 0, "capacity accounting keeps reserved bytes");
        // Reserved bytes are a fixpoint once warm: replaying the identical
        // cycle must not grow (or shrink) the accounting.
        let grown2 = cycle(&mut d);
        assert_eq!(grown2, grown1, "warm cycle peak is stable");
        assert_eq!(d.resident_bytes(), warm, "warm cycle trough is stable");
        assert_eq!(d.stored_edge_count(), 0);
        d.check_consistency();
    }

    #[test]
    fn dirty_expl_tracks_count_changes() {
        let mut d = Dcg::new(3, u(0));
        assert_eq!(d.take_dirty_expl(), 0);
        // Implicit edges never move explicit counts.
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Implicit));
        assert_eq!(d.take_dirty_expl(), 0);
        // Upgrade marks the query vertex dirty; the mask is consumed.
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Explicit));
        assert_eq!(d.take_dirty_expl(), 1 << 1);
        assert_eq!(d.take_dirty_expl(), 0);
        // Downgrade and root-edge transitions mark too.
        d.transit(Some(v(0)), u(1), v(1), Some(EdgeState::Implicit));
        d.transit(None, u(0), v(2), Some(EdgeState::Explicit));
        assert_eq!(d.take_dirty_expl(), (1 << 1) | 1);
        d.check_consistency();
    }

    /// Randomized soak: interleaved insert/delete/restate churn with a
    /// shadow model. Checks that `resident_bytes` stays an exact function
    /// of reserved storage (snapshot-derived edge count matches the
    /// counters, free lists absorb every freed slot, and draining the DCG
    /// returns every slot to a free list — a leaked slot would show up as
    /// `live_slots > pooled_runs` or a byte-count drift on the second,
    /// identical churn run).
    #[test]
    fn soak_churn_storage_accounting() {
        let mut rng = Rng::new(0x50AC);
        let nq = 5;
        let mut d = Dcg::new(nq, u(0));
        let mut live: Vec<(Option<VertexId>, QVertexId, VertexId)> = Vec::new();
        let churn = |d: &mut Dcg, rng: &mut Rng, live: &mut Vec<_>| {
            for step in 0..6_000 {
                let insert = rng.below(100) < 55 || live.is_empty();
                if insert {
                    let (parent, qv) = if rng.below(8) == 0 {
                        (None, u(0))
                    } else {
                        (Some(v(rng.below(12) as u32)), u(1 + rng.below(nq - 1) as u32))
                    };
                    let cv = v(rng.below(40) as u32);
                    let st =
                        if rng.below(3) == 0 { EdgeState::Explicit } else { EdgeState::Implicit };
                    if d.transit(parent, qv, cv, Some(st)).is_none() {
                        live.push((parent, qv, cv));
                    }
                } else {
                    let i = rng.below(live.len());
                    let (parent, qv, cv) = live.swap_remove(i);
                    assert!(d.transit(parent, qv, cv, None).is_some());
                }
                if step % 1500 == 0 {
                    d.check_consistency();
                }
            }
        };
        churn(&mut d, &mut rng, &mut live);
        d.check_consistency();
        assert_eq!(d.snapshot().len() as u64, d.stored_edge_count());
        assert_eq!(d.stored_edge_count(), live.len() as u64);
        let stats = d.storage_stats();
        assert_eq!(
            stats.pooled_runs + stats.free_slots,
            d.pool.live_slots() + d.pool.free_slots(),
            "pool slot leaked: some slot is neither referenced nor free"
        );
        assert!(stats.inline_runs > 0 && stats.pooled_runs > 0, "soak missed a representation");

        // Drain everything: all pool storage must land on free lists.
        for (parent, qv, cv) in live.drain(..) {
            d.transit(parent, qv, cv, None);
        }
        assert_eq!(d.stored_edge_count(), 0);
        assert!(d.snapshot().is_empty());
        let drained = d.storage_stats();
        assert_eq!(drained.pooled_runs, 0);
        assert_eq!(
            drained.free_slots,
            d.pool.live_slots() + d.pool.free_slots(),
            "drained DCG leaked pool slots"
        );
        assert_eq!(drained.carved_entries, stats.carved_entries, "drain carved new storage");
        d.check_consistency();

        // Replay the identical churn: reserved bytes must be a fixpoint
        // (free-list leaks would force fresh carving and grow the count).
        let warm_bytes = d.resident_bytes();
        let mut rng2 = Rng::new(0x50AC);
        churn(&mut d, &mut rng2, &mut live);
        for (parent, qv, cv) in live.drain(..) {
            d.transit(parent, qv, cv, None);
        }
        d.check_consistency();
        assert_eq!(d.resident_bytes(), warm_bytes, "identical churn replay grew storage");
    }
}
