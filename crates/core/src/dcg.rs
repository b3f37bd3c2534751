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
//! The artificial start edges `(v_s*, u_s, v_s)` are the root's.
//!
//! **The DCG is the data graph plus bits and counters per `(u, v)`**, as the
//! paper builds it: an edge `(pv, u, cv)` is stored iff `pv` has a stored
//! edge labeled `P(u)` coming in and a data edge matching `u`'s tree edge
//! joins `pv` and `cv` — so its far ends are `pv`'s label group in the graph
//! — and its state is a function of `(u, cv)` alone: whether `cv`'s subtrees
//! are matched, whoever the parent is. Per query vertex `u` the store keeps
//! three dense bitsets over the data vertices — `reached[u]` (a stored edge
//! labeled `u` comes in), `expl[u]` (those edges are explicit) and `kids[u]`
//! (an explicit edge labeled `u` goes out) — and two sparse counts, present
//! only where nonzero: the stored parents of `(u, v)`, which decide NULL ↔
//! stored and `BuildDCG`'s check-and-avoid, and the explicit children of
//! `(u, pv)`, which decide `MatchAllChildren` and Transition 4's "last
//! explicit out-edge". Nothing is stored per edge:
//!
//! * the search frontier of `(pv, u)` is `pv`'s label group filtered by
//!   `expl[u]` (`Dcg::run`), one bit test per candidate;
//! * the stored parents of `(u, v)`, which the climb walks, are `v`'s reverse
//!   label group filtered by `reached[P(u)]` (`Dcg::collect`).
//!
//! A derived edge is visible the moment its data edge is in the graph, and
//! until it leaves: the counts are what says whether the updated edge's own
//! images are accounted for mid-operation (`crate::ops`). See DESIGN.md "DCG
//! storage layout".

use std::ops::Deref;

use tfx_graph::{AdjacencyMode, DynamicGraph, LabelId, VertexId};
use tfx_query::{QVertexId, QueryGraph, QueryTree};

use crate::dcg_store::OpenMap;
use crate::spec::DcgImage;
use crate::tree_nav::dedup_tail;

/// State of a stored DCG edge. NULL is represented by absence.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum EdgeState {
    /// Path condition holds, some subtree of the candidate is unmatched.
    Implicit,
    /// Path condition holds and every subtree is matched.
    Explicit,
}

impl EdgeState {
    pub(crate) fn of(explicit: bool) -> Self {
        if explicit {
            EdgeState::Explicit
        } else {
            EdgeState::Implicit
        }
    }
}

/// A set of data vertices, one bit each, grown on demand.
#[derive(Clone, Default, Debug)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    /// An empty set with room for the ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn has(&self, v: VertexId) -> bool {
        self.0.get(v.index() / 64).is_some_and(|w| w >> (v.0 % 64) & 1 == 1)
    }

    #[inline]
    pub(crate) fn set(&mut self, v: VertexId) {
        let i = v.index() / 64;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] |= 1 << (v.0 % 64);
    }

    #[inline]
    fn unset(&mut self, v: VertexId) {
        if let Some(w) = self.0.get_mut(v.index() / 64) {
            *w &= !(1 << (v.0 % 64));
        }
    }

    /// The members in ascending id order.
    pub(crate) fn ones(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    VertexId(i as u32 * 64 + bit)
                })
            })
        })
    }

    pub(crate) fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn resident_bytes(&self) -> usize {
        self.0.capacity() * 8
    }
}

/// Where the tree edge into a non-root query vertex reads in the graph.
#[derive(Clone, Copy, Debug)]
struct TreeEdge {
    parent: QVertexId,
    label: Option<LabelId>,
    /// The query edge points from the parent to the child: a parent's
    /// candidates are its out-neighbors, a child's parents its in-neighbors.
    down: bool,
}

/// Shape counters of the DCG (see [`Dcg::storage_stats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DcgStorageStats {
    /// Per query vertex `u`: data vertices with a stored edge labeled `u`
    /// coming in (a start edge, for the root).
    pub reached: Vec<usize>,
    /// Per query vertex `u`: those of them whose edges labeled `u` are
    /// explicit.
    pub explicit: Vec<usize>,
    /// Stored edges, start edges included ([`Dcg::stored_edge_count`]).
    pub stored_edges: u64,
    /// Stored edges in the explicit state — the partial solutions
    /// `SubgraphSearch` walks.
    pub explicit_edges: u64,
    /// Exact reserved bytes, as [`Dcg::resident_bytes`].
    pub resident_bytes: usize,
}

/// The DCG of one registered query: bits and counts beside the data graph.
pub struct Dcg {
    root_qv: QVertexId,
    /// Per query vertex, its tree edge (a placeholder for the root).
    edges: Vec<TreeEdge>,
    /// Bit `u` set iff `u` has no tree children: an edge labeled `u` is
    /// explicit the moment it is stored.
    leaves: u64,
    /// Per query vertex `u`: the data vertices with a stored edge labeled `u`
    /// coming in.
    reached: Vec<Bits>,
    /// Per query vertex `u`: the members of `reached[u]` whose edges labeled
    /// `u` are explicit (their subtrees are matched).
    expl: Vec<Bits>,
    /// Per query vertex `u`: the data vertices with an explicit edge labeled
    /// `u` going out — the keys of `expl_kids[u]`, `MatchAllChildren` in one
    /// bit test per child.
    kids: Vec<Bits>,
    /// Per non-root `u`: stored edges `(·, u, v)` per `v`, where nonzero.
    parents: Vec<OpenMap<u32>>,
    /// Per non-root `u`: explicit edges `(pv, u, ·)` per `pv`, where nonzero.
    expl_kids: Vec<OpenMap<u32>>,
    /// Global explicit-edge count per query vertex (drives matching-order
    /// maintenance).
    expl_count: Vec<u64>,
    /// Bit `u` set iff `expl_count[u]` changed since the last
    /// [`Dcg::take_dirty_expl`] — lets the drift check touch only the counts
    /// that can possibly have started drifting.
    dirty_expl: u64,
    stored_edges: u64,
}

impl Dcg {
    /// An empty DCG for the query tree `tree` of `q`.
    ///
    /// Panics if `q` has more than 64 vertices (query-vertex sets are `u64`
    /// masks, and the paper's queries are ≤ 14 vertices).
    pub fn new(q: &QueryGraph, tree: &QueryTree) -> Self {
        let nq = q.vertex_count();
        assert!(nq <= 64, "queries are limited to 64 vertices");
        let edges = q
            .vertices()
            .map(|u| match tree.parent_edge(u) {
                Some(e) => TreeEdge {
                    parent: tree.parent(u).expect("a tree edge has a parent"),
                    label: q.edge(e).label,
                    down: tree.child_is_target(u),
                },
                None => TreeEdge { parent: u, label: None, down: true },
            })
            .collect();
        let leaves = q.vertices().filter(|&u| tree.children(u).is_empty());
        Dcg {
            root_qv: tree.root(),
            edges,
            leaves: leaves.fold(0, |m, u| m | 1 << u.0),
            reached: vec![Bits::default(); nq],
            expl: vec![Bits::default(); nq],
            kids: vec![Bits::default(); nq],
            parents: (0..nq).map(|_| OpenMap::new()).collect(),
            expl_kids: (0..nq).map(|_| OpenMap::new()).collect(),
            expl_count: vec![0; nq],
            dirty_expl: 0,
            stored_edges: 0,
        }
    }

    /// State of the artificial start edge `(v_s*, u_s, v)`.
    #[inline]
    pub fn root_state(&self, v: VertexId) -> Option<EdgeState> {
        let u = self.root_qv.index();
        self.reached[u].has(v).then(|| EdgeState::of(self.expl[u].has(v)))
    }

    /// True iff the stored edges labeled `u` into `v` are explicit — `v`'s
    /// subtrees under `u` are matched. False where none is stored.
    #[inline]
    pub fn is_explicit(&self, u: QVertexId, v: VertexId) -> bool {
        self.expl[u.index()].has(v)
    }

    /// The vertices whose edges labeled `u` are explicit: what the search
    /// tests its frontier against, one bit a candidate.
    #[inline]
    pub(crate) fn explicit_set(&self, u: QVertexId) -> &Bits {
        &self.expl[u.index()]
    }

    /// True iff some stored edge labeled `u` comes into `v`.
    #[inline]
    pub fn is_reached(&self, u: QVertexId, v: VertexId) -> bool {
        self.reached[u.index()].has(v)
    }

    /// Number of stored (implicit or explicit) incoming edges of `v` labeled
    /// `u`, counting the artificial start edge when `u = u_s`.
    #[inline]
    pub fn in_count_total(&self, v: VertexId, u: QVertexId) -> usize {
        if u == self.root_qv {
            usize::from(self.reached[u.index()].has(v))
        } else {
            self.parents[u.index()].get(v.0).unwrap_or(0) as usize
        }
    }

    /// Number of explicit outgoing edges of `pv` labeled `u`.
    #[inline]
    pub fn out_expl_count(&self, pv: VertexId, u: QVertexId) -> usize {
        debug_assert_ne!(u, self.root_qv);
        self.expl_kids[u.index()].get(pv.0).unwrap_or(0) as usize
    }

    /// True iff `v` has an explicit outgoing edge labeled with every query
    /// vertex of `mask` — `MatchAllChildren` for a mask of children.
    #[inline]
    pub fn matches_all(&self, v: VertexId, mut mask: u64) -> bool {
        while mask != 0 {
            let c = mask.trailing_zeros() as usize;
            if !self.kids[c].has(v) {
                return false;
            }
            mask &= mask - 1;
        }
        true
    }

    /// The explicit-out bitmap of `v`: bit `u` set iff `v` has an explicit
    /// outgoing edge labeled `u`.
    pub fn expl_out_bits(&self, v: VertexId) -> u64 {
        self.kids.iter().enumerate().filter(|(_, k)| k.has(v)).fold(0, |m, (u, _)| m | 1 << u)
    }

    /// NULL → stored, for the edge `(parent, u, v)`; `parent` is `None`
    /// exactly for the start edge of `v`. Returns the state the edge is
    /// stored in: explicit iff `v`'s edges labeled `u` already are, or `u` is
    /// a leaf and there is no subtree to wait for (Transitions 1 and 2 in one
    /// write).
    pub(crate) fn add(&mut self, parent: Option<VertexId>, u: QVertexId, v: VertexId) -> EdgeState {
        let ui = u.index();
        let first = match parent {
            None => {
                debug_assert_eq!(u, self.root_qv, "only the start edge has no parent");
                debug_assert!(!self.reached[ui].has(v), "a second start edge");
                true
            }
            Some(_) => {
                let (i, fresh) = self.parents[ui].ensure(v.0, 0);
                *self.parents[ui].val_mut(i) += 1;
                fresh
            }
        };
        self.stored_edges += 1;
        if first {
            self.reached[ui].set(v);
            if self.leaves >> u.0 & 1 == 1 {
                self.expl[ui].set(v);
            }
        }
        let explicit = self.expl[ui].has(v);
        if explicit {
            self.count_explicit(parent, u, true);
        }
        EdgeState::of(explicit)
    }

    /// I → E for the stored edge `(parent, u, v)`. The first promotion into
    /// `(u, v)` marks its edges explicit — Definition 4 makes that a fact
    /// about `v` — and every promotion counts its parent's explicit edge;
    /// the climb promotes the edges into `(u, v)` one by one.
    pub(crate) fn promote(&mut self, parent: Option<VertexId>, u: QVertexId, v: VertexId) {
        debug_assert!(self.reached[u.index()].has(v), "promotion of a NULL edge");
        self.expl[u.index()].set(v);
        self.count_explicit(parent, u, true);
    }

    /// E → I for the stored edge `(parent, u, v)`: [`Dcg::promote`] undone.
    pub(crate) fn demote(&mut self, parent: Option<VertexId>, u: QVertexId, v: VertexId) {
        self.expl[u.index()].unset(v);
        self.count_explicit(parent, u, false);
    }

    /// Stored → NULL, for the edge `(parent, u, v)`; returns the state it
    /// had. The last edge labeled `u` to leave `v` takes `v` out of
    /// `reached[u]`.
    pub(crate) fn remove(
        &mut self,
        parent: Option<VertexId>,
        u: QVertexId,
        v: VertexId,
    ) -> EdgeState {
        let ui = u.index();
        let st = EdgeState::of(self.expl[ui].has(v));
        if st == EdgeState::Explicit {
            self.count_explicit(parent, u, false);
        }
        self.stored_edges -= 1;
        let last = parent.is_none() || {
            let i = self.parents[ui].find(v.0).expect("removal of a NULL edge");
            let n = self.parents[ui].val_mut(i);
            *n -= 1;
            let last = *n == 0;
            if last {
                self.parents[ui].remove_at(i);
            }
            last
        };
        if last {
            self.reached[ui].unset(v);
            self.expl[ui].unset(v);
        }
        st
    }

    /// One explicit edge labeled `u` more (`up`) or fewer, out of `parent`.
    fn count_explicit(&mut self, parent: Option<VertexId>, u: QVertexId, up: bool) {
        let ui = u.index();
        if up {
            self.expl_count[ui] += 1;
        } else {
            self.expl_count[ui] -= 1;
        }
        self.dirty_expl |= 1 << u.0;
        let Some(pv) = parent else { return };
        let map = &mut self.expl_kids[ui];
        if up {
            let (i, fresh) = map.ensure(pv.0, 0);
            *map.val_mut(i) += 1;
            if fresh {
                self.kids[ui].set(pv);
            }
        } else {
            let i = map.find(pv.0).expect("demotion of an edge never counted explicit");
            let n = map.val_mut(i);
            *n -= 1;
            if *n == 0 {
                map.remove_at(i);
                self.kids[ui].unset(pv);
            }
        }
    }

    /// The graph group `v` reads under the tree edge into `u`: `v`'s
    /// candidates for `u` (`to_child`, `v` mapped to `P(u)`) or `v`'s
    /// candidate parents (`v` mapped to `u`). The sorted, duplicate-free
    /// label group for a concrete label; `None` for a wildcard, whose
    /// members [`Dcg::collect`] gathers from every group.
    #[inline]
    pub(crate) fn run<'g>(
        &self,
        g: &'g DynamicGraph,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
    ) -> Option<&'g [VertexId]> {
        let e = self.edges[u.index()];
        let label = e.label?;
        let group = if e.down == to_child {
            g.out_neighbors_labeled(v, label)
        } else {
            g.in_neighbors_labeled(v, label)
        };
        Some(group.as_id_slice())
    }

    /// Appends the members of the group [`Dcg::run`] names that `keep`
    /// accepts to `buf`, ascending and each once: a wildcard walks every
    /// label group, and meets a neighbor once per parallel edge.
    pub(crate) fn collect(
        &self,
        g: &DynamicGraph,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
        keep: impl Fn(VertexId) -> bool,
        buf: &mut Vec<VertexId>,
    ) {
        if let Some(run) = self.run(g, v, u, to_child) {
            buf.extend(run.iter().copied().filter(|&w| keep(w)));
            return;
        }
        let start = buf.len();
        let all = if self.edges[u.index()].down == to_child {
            g.out_neighbors_matching(v, None, AdjacencyMode::Indexed)
        } else {
            g.in_neighbors_matching(v, None, AdjacencyMode::Indexed)
        };
        buf.extend(all.filter(|&w| keep(w)));
        buf[start..].sort_unstable();
        dedup_tail(buf, start);
    }

    /// The state of the DCG edge `(pv, u, cv)` for non-root `u`, derived
    /// from `g`: stored iff `pv` is reached for `P(u)`, `cv` for `u` and a
    /// data edge matching `u`'s tree edge joins them. Exact between
    /// operations; inside one, the updated edge's own images are the
    /// caller's to account for (`crate::ops`).
    pub fn state(
        &self,
        g: &DynamicGraph,
        pv: VertexId,
        u: QVertexId,
        cv: VertexId,
    ) -> Option<EdgeState> {
        debug_assert_ne!(u, self.root_qv);
        let e = self.edges[u.index()];
        let (src, dst) = if e.down { (pv, cv) } else { (cv, pv) };
        let stored = self.reached[e.parent.index()].has(pv)
            && self.reached[u.index()].has(cv)
            && g.has_edge_matching(src, dst, e.label);
        stored.then(|| EdgeState::of(self.expl[u.index()].has(cv)))
    }

    /// The batch lookahead's hint ([`crate::round::lookahead`]) for an
    /// evaluation that will map data vertex `v` onto query vertex `u`, whose
    /// tree children are `children`: the graph groups it reads — `v`'s
    /// parents under `u`'s tree edge for the climb, `v`'s candidates under
    /// each child's for the frontier and `BuildDCG` — as
    /// [`DynamicGraph::prefetch_group`] stages them, and at stage 1 the count
    /// buckets it probes: the stored parents of `(u, v)` and the explicit
    /// children of `v` under each child. The bitsets are a bit per vertex
    /// and stay cached. `&self`, allocation-free, any `v`.
    pub fn prefetch(
        &self,
        g: &DynamicGraph,
        v: VertexId,
        u: QVertexId,
        children: &[QVertexId],
        stage: u8,
    ) {
        if stage == 0 {
            return; // `v`'s handle pair is `DynamicGraph::prefetch_edge`'s
        }
        let group = |u: QVertexId, to_child: bool| {
            let e = self.edges[u.index()];
            if let Some(label) = e.label {
                g.prefetch_group(v, label, e.down == to_child, stage);
            }
        };
        if u != self.root_qv {
            group(u, false);
            if stage == 1 {
                self.parents[u.index()].prefetch(v.0);
            }
        }
        for &c in children {
            group(c, true);
            if stage == 1 {
                self.expl_kids[c.index()].prefetch(v.0);
            }
        }
    }

    /// Sizes the table of stored-parent counts labeled `u` for the `n`
    /// vertices registration is about to count into it.
    pub(crate) fn reserve_in(&mut self, u: QVertexId, n: usize) {
        debug_assert_eq!(self.parents[u.index()].len(), 0, "reserve over counts");
        self.parents[u.index()] = OpenMap::with_capacity(n);
    }

    /// Hints the group [`Dcg::run`] will read for `v`'s candidates under
    /// `u`: `v`'s handle pair at stage 0, the slot it names at stage 1.
    #[inline]
    pub(crate) fn prefetch_run(&self, g: &DynamicGraph, v: VertexId, u: QVertexId, stage: u8) {
        let e = self.edges[u.index()];
        if let Some(label) = e.label {
            g.prefetch_group(v, label, e.down, stage);
        }
    }

    /// Registration's write (`crate::bulk`): the stored parents of
    /// `(u, v)`, `n > 0` of them, for a vertex the sweeps put in
    /// `reached[u]` ([`Dcg::install`]).
    pub(crate) fn count_in(&mut self, u: QVertexId, v: VertexId, n: usize) {
        debug_assert!(n > 0 && u != self.root_qv);
        self.parents[u.index()].insert(v.0, n as u32);
        self.stored_edges += n as u64;
    }

    /// Registration's write: the explicit children of `(u, pv)`, if any.
    pub(crate) fn count_out(&mut self, u: QVertexId, pv: VertexId, n: usize) {
        if n > 0 {
            self.expl_kids[u.index()].insert(pv.0, n as u32);
            self.kids[u.index()].set(pv);
            self.expl_count[u.index()] += n as u64;
            self.dirty_expl |= 1 << u.0;
        }
    }

    /// Registration's write: the sweeps' vertex sets, with the start edges
    /// they imply, into a DCG that holds no start edge yet.
    pub(crate) fn install(&mut self, reached: Vec<Bits>, expl: Vec<Bits>) {
        let root = self.root_qv.index();
        debug_assert_eq!(self.reached[root].count(), 0, "install over start edges");
        self.stored_edges += reached[root].count() as u64;
        self.expl_count[root] += expl[root].count() as u64;
        self.dirty_expl |= 1 << root;
        (self.reached, self.expl) = (reached, expl);
    }

    /// Returns and clears the dirty bitmask: bit `u` is set iff the
    /// explicit count of query vertex `u` changed since the previous call.
    #[inline]
    pub fn take_dirty_expl(&mut self) -> u64 {
        std::mem::take(&mut self.dirty_expl)
    }

    /// Total number of stored DCG edges (start edges included) — the
    /// paper's intermediate-result *size* measure for TurboFlux.
    #[inline]
    pub fn stored_edge_count(&self) -> u64 {
        self.stored_edges
    }

    /// Exact resident bytes of the intermediate results: every bitset and
    /// count table is charged its capacity. Reserved storage never shrinks,
    /// so this measures high-water memory — after a warm-up cycle a
    /// self-inverting update stream returns it to exactly the same value
    /// (`insert_then_delete_restores_everything` in `tests/properties.rs`),
    /// but a freshly built engine reports less than one that has churned.
    pub fn resident_bytes(&self) -> usize {
        let bits = self.reached.iter().chain(&self.expl).chain(&self.kids);
        let maps = self.parents.iter().chain(&self.expl_kids);
        bits.map(Bits::resident_bytes).sum::<usize>()
            + maps.map(OpenMap::resident_bytes).sum::<usize>()
    }

    /// Shape counters: per query vertex how many data vertices are reached
    /// and explicit, and the stored, explicit and resident totals.
    pub fn storage_stats(&self) -> DcgStorageStats {
        DcgStorageStats {
            reached: self.reached.iter().map(Bits::count).collect(),
            explicit: self.expl.iter().map(Bits::count).collect(),
            stored_edges: self.stored_edges,
            explicit_edges: self.expl_count.iter().sum(),
            resident_bytes: self.resident_bytes(),
        }
    }

    /// Global explicit-edge counts per query vertex.
    #[inline]
    pub fn expl_counts(&self) -> &[u64] {
        &self.expl_count
    }

    /// Non-root query vertices, by id.
    fn non_root(&self) -> impl Iterator<Item = QVertexId> + '_ {
        (0..self.edges.len() as u32).map(QVertexId).filter(|&u| u != self.root_qv)
    }

    /// A canonical image of every stored edge, derived from `g`, for oracle
    /// comparison. Keys are `(parent, query vertex, child)` with `None` for
    /// `v_s*`.
    pub fn snapshot(&self, g: &DynamicGraph) -> DcgImage {
        let root = self.root_qv;
        let mut snap: DcgImage = self.reached[root.index()]
            .ones()
            .map(|v| ((None, root.0, v), self.st(root, v)))
            .collect();
        let mut far = Vec::new();
        for u in self.non_root() {
            let reached = &self.reached[u.index()];
            for pv in self.reached[self.edges[u.index()].parent.index()].ones() {
                far.clear();
                self.collect(g, pv, u, true, |cv| reached.has(cv), &mut far);
                snap.extend(far.iter().map(|&cv| ((Some(pv), u.0, cv), self.st(u, cv))));
            }
        }
        snap
    }

    fn st(&self, u: QVertexId, v: VertexId) -> EdgeState {
        EdgeState::of(self.expl[u.index()].has(v))
    }

    /// Consistency of the counts with `g` and with Definitions 4 / 5 (test
    /// support): the stored parents of every reached `(u, v)` and the
    /// explicit children of every `(u, pv)` are what `g` derives, `expl ⊆
    /// reached`, an explicit `(u, v)` is exactly one whose children all
    /// match, and the totals and tables agree.
    pub fn check_consistency(&self, g: &DynamicGraph) {
        let root = self.root_qv;
        let mut stored = self.reached[root.index()].count() as u64;
        let mut expl = vec![0u64; self.edges.len()];
        expl[root.index()] = self.expl[root.index()].count() as u64;
        let mut ids = Vec::new();
        for u in self.non_root() {
            let (ui, p) = (u.index(), self.edges[u.index()].parent);
            for v in self.reached[ui].ones() {
                ids.clear();
                self.collect(g, v, u, false, |pv| self.reached[p.index()].has(pv), &mut ids);
                assert_eq!(self.in_count_total(v, u), ids.len(), "stored parents of (u{ui}, {v})");
                stored += ids.len() as u64;
            }
            assert_eq!(self.parents[ui].len(), self.reached[ui].count(), "u{ui}: counts vs bits");
            for pv in self.reached[p.index()].ones() {
                ids.clear();
                self.collect(g, pv, u, true, |cv| self.expl[ui].has(cv), &mut ids);
                assert_eq!(self.out_expl_count(pv, u), ids.len(), "explicit kids of ({pv}, u{ui})");
                assert_eq!(self.kids[ui].has(pv), !ids.is_empty(), "kid bit of ({pv}, u{ui})");
                expl[ui] += ids.len() as u64;
            }
            let counted = self.expl_kids[ui].iter().map(|(_, &n)| n as usize).sum::<usize>();
            assert_eq!(counted as u64, expl[ui], "u{ui}: explicit kids of unreached parents");
            self.parents[ui].validate();
            self.expl_kids[ui].validate();
        }
        for u in (0..self.edges.len() as u32).map(QVertexId) {
            let mask = self.non_root().filter(|c| self.edges[c.index()].parent == u);
            let mask = mask.fold(0u64, |m, c| m | 1 << c.0);
            for v in self.expl[u.index()].ones() {
                assert!(self.reached[u.index()].has(v), "(u{}, {v}) explicit, not reached", u.0);
            }
            for v in self.reached[u.index()].ones() {
                let matched = self.matches_all(v, mask);
                assert_eq!(self.is_explicit(u, v), matched, "Definition 4 at (u{}, {v})", u.0);
            }
        }
        assert_eq!(stored, self.stored_edges, "stored_edges counter wrong");
        assert_eq!(expl, self.expl_count, "expl_count wrong");
    }
}

/// A DCG read against the data graph it derives from: what
/// [`crate::TurboFlux::dcg`] hands out. It dereferences to the [`Dcg`]'s
/// counters; the edge-level reads take the graph along.
#[derive(Clone, Copy)]
pub struct DcgView<'a> {
    dcg: &'a Dcg,
    g: &'a DynamicGraph,
}

impl<'a> DcgView<'a> {
    /// `dcg` over `g`, the graph its engine evaluates against.
    pub fn new(dcg: &'a Dcg, g: &'a DynamicGraph) -> Self {
        DcgView { dcg, g }
    }

    /// [`Dcg::snapshot`] over the view's graph.
    pub fn snapshot(&self) -> DcgImage {
        self.dcg.snapshot(self.g)
    }

    /// [`Dcg::check_consistency`] over the view's graph.
    pub fn check_consistency(&self) {
        self.dcg.check_consistency(self.g)
    }

    /// [`Dcg::state`] over the view's graph.
    pub fn state(&self, pv: VertexId, u: QVertexId, cv: VertexId) -> Option<EdgeState> {
        self.dcg.state(self.g, pv, u, cv)
    }
}

impl Deref for DcgView<'_> {
    type Target = Dcg;

    fn deref(&self) -> &Dcg {
        self.dcg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::reference_dcg;
    use tfx_graph::{GraphStats, LabelSet};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn u(i: u32) -> QVertexId {
        QVertexId(i)
    }

    /// The path `u0:A -l-> u1:B <-l- u2:C` rooted at `u0`: `u2`'s tree edge
    /// runs against its query edge. Data `a0, a1 : A`, `b0, b1 : B`,
    /// `c0 : C` and nothing else until a test inserts.
    fn path() -> (DynamicGraph, QueryGraph, QueryTree) {
        let mut g = DynamicGraph::new();
        for label in [0, 0, 1, 1, 2] {
            g.add_vertex(LabelSet::single(LabelId(label)));
        }
        let mut q = QueryGraph::new();
        let us: Vec<_> = (0..3).map(|i| q.add_vertex(LabelSet::single(LabelId(i)))).collect();
        q.add_edge(us[0], us[1], Some(LabelId(9)));
        q.add_edge(us[2], us[1], Some(LabelId(9)));
        let tree = QueryTree::build(&q, us[0], &GraphStats::new(&g));
        (g, q, tree)
    }

    #[test]
    fn start_edges_are_bits() {
        let (_, q, tree) = path();
        let mut d = Dcg::new(&q, &tree);
        assert_eq!(d.root_state(v(1)), None);
        assert_eq!(d.add(None, u(0), v(1)), EdgeState::Implicit, "the root has children");
        assert_eq!(d.root_state(v(1)), Some(EdgeState::Implicit));
        assert_eq!(d.in_count_total(v(1), u(0)), 1);
        d.promote(None, u(0), v(1));
        assert_eq!(d.root_state(v(1)), Some(EdgeState::Explicit));
        assert_eq!(d.expl_counts(), &[1, 0, 0]);
        assert_eq!(d.remove(None, u(0), v(1)), EdgeState::Explicit);
        assert_eq!((d.root_state(v(1)), d.stored_edge_count(), d.expl_counts()[0]), (None, 0, 0));
    }

    /// Counts move edge by edge; the bits move with the first edge into, or
    /// out of, a `(u, v)`.
    #[test]
    fn counts_follow_adds_promotions_and_removals() {
        let (_, q, tree) = path();
        let mut d = Dcg::new(&q, &tree);
        let (a0, a1, b0, c0) = (v(0), v(1), v(2), v(4));
        // `u2` is a leaf: its edges are explicit on arrival.
        assert_eq!(d.add(Some(b0), u(2), c0), EdgeState::Explicit);
        assert_eq!((d.out_expl_count(b0, u(2)), d.expl_out_bits(b0)), (1, 1 << 2));
        assert!(d.matches_all(b0, 1 << 2) && !d.matches_all(a0, 1 << 1));
        // Two parents of `(u1, b0)`: implicit until the climb promotes them.
        for a in [a0, a1] {
            assert_eq!(d.add(Some(a), u(1), b0), EdgeState::Implicit);
        }
        assert_eq!((d.in_count_total(b0, u(1)), d.stored_edge_count()), (2, 3));
        d.promote(Some(a0), u(1), b0);
        assert!(d.is_explicit(u(1), b0));
        assert_eq!((d.out_expl_count(a0, u(1)), d.out_expl_count(a1, u(1))), (1, 0));
        d.promote(Some(a1), u(1), b0);
        assert_eq!(d.expl_counts(), &[0, 2, 1]);
        // A third parent arrives explicit, as `BuildDCG` finds `b0` matched.
        assert_eq!(d.add(Some(v(3)), u(1), b0), EdgeState::Explicit);
        assert_eq!(d.remove(Some(v(3)), u(1), b0), EdgeState::Explicit);
        d.demote(Some(a0), u(1), b0);
        d.demote(Some(a1), u(1), b0);
        assert!(!d.is_explicit(u(1), b0) && d.is_reached(u(1), b0));
        assert_eq!(d.expl_out_bits(a0) | d.expl_out_bits(a1), 0);
        // The last parent out takes `b0` out of `reached[u1]`.
        assert_eq!(d.remove(Some(a0), u(1), b0), EdgeState::Implicit);
        assert!(d.is_reached(u(1), b0));
        assert_eq!(d.remove(Some(a1), u(1), b0), EdgeState::Implicit);
        assert!(!d.is_reached(u(1), b0));
        assert_eq!(d.remove(Some(b0), u(2), c0), EdgeState::Explicit);
        assert_eq!((d.stored_edge_count(), d.expl_counts()), (0, &[0, 0, 0][..]));
        assert_eq!(d.take_dirty_expl(), 0b110);
        assert_eq!(d.take_dirty_expl(), 0);
    }

    /// The edges are the graph's: the frontier is a label group read under
    /// the bits, and the snapshot of counts kept by hand equals the
    /// reference — for a tree edge against its query edge too.
    #[test]
    fn the_edges_are_derived_from_the_graph() {
        let (mut g, q, tree) = path();
        let (a0, b0, b1, c0) = (v(0), v(2), v(3), v(4));
        for (src, dst) in [(a0, b0), (a0, b1), (c0, b0)] {
            g.insert_edge(src, LabelId(9), dst);
        }
        let mut d = Dcg::new(&q, &tree);
        d.add(None, u(0), a0);
        d.add(None, u(0), v(1));
        for b in [b0, b1] {
            d.add(Some(a0), u(1), b);
        }
        assert_eq!(d.add(Some(b0), u(2), c0), EdgeState::Explicit);
        d.promote(Some(a0), u(1), b0);
        d.promote(None, u(0), a0);
        d.check_consistency(&g);
        assert_eq!(d.snapshot(&g), reference_dcg(&g, &q, &tree));
        assert_eq!(d.run(&g, a0, u(1), true), Some(&[b0, b1][..]));
        assert_eq!(d.run(&g, b0, u(2), true), Some(&[a0, c0][..]), "b0's in-group; bits pick c0");
        assert_eq!(d.state(&g, a0, u(1), b0), Some(EdgeState::Explicit));
        assert_eq!(d.state(&g, a0, u(1), b1), Some(EdgeState::Implicit));
        assert_eq!(d.state(&g, b1, u(2), c0), None, "no data edge");
        let mut parents = Vec::new();
        d.collect(&g, b0, u(1), false, |p| d.is_reached(u(0), p), &mut parents);
        assert_eq!(parents, [a0]);
    }

    /// A wildcard tree edge reads every label group: `collect` hands its
    /// members back ascending and once, whatever the parallel edges.
    #[test]
    fn a_wildcard_group_is_collected_sorted_and_once() {
        let mut g = DynamicGraph::new();
        (0..5).for_each(|_| _ = g.add_vertex(LabelSet::empty()));
        for (label, dst) in [(3, 4), (3, 2), (5, 2), (7, 1), (7, 4)] {
            g.insert_edge(v(0), LabelId(label), v(dst));
        }
        let mut q = QueryGraph::new();
        let (q0, q1) = (q.add_vertex(LabelSet::empty()), q.add_vertex(LabelSet::empty()));
        q.add_edge(q0, q1, None);
        let tree = QueryTree::build(&q, q0, &GraphStats::new(&g));
        let d = Dcg::new(&q, &tree);
        assert_eq!(d.run(&g, v(0), q1, true), None);
        let mut buf = vec![v(99)];
        d.collect(&g, v(0), q1, true, |w| w != v(1), &mut buf);
        assert_eq!(buf, [v(99), v(2), v(4)]);
    }

    #[test]
    fn resident_bytes_grow_and_are_cycle_stable() {
        let (_, q, tree) = path();
        let mut d = Dcg::new(&q, &tree);
        assert_eq!(d.resident_bytes(), 0, "an empty DCG reserves nothing");
        let cycle = |d: &mut Dcg| {
            d.add(None, u(0), v(0));
            for i in 1..40 {
                d.add(Some(v(0)), u(1), v(i));
                d.add(Some(v(i)), u(2), v(i + 40));
            }
            let grown = d.resident_bytes();
            for i in 1..40 {
                d.remove(Some(v(i)), u(2), v(i + 40));
                d.remove(Some(v(0)), u(1), v(i));
            }
            d.remove(None, u(0), v(0));
            grown
        };
        let grown = cycle(&mut d);
        let warm = d.resident_bytes();
        assert!(grown > 0 && warm == grown, "nothing is given back");
        assert_eq!(cycle(&mut d), grown, "a warm cycle reserves nothing new");
        assert_eq!((d.resident_bytes(), d.stored_edge_count()), (warm, 0));
    }
}
