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
//! **The DCG is the data graph plus three bitsets per query vertex and
//! nothing else**, as the paper builds it: an edge `(pv, u, cv)` is stored iff
//! `pv` has a stored edge labeled `P(u)` coming in and a data edge matching
//! `u`'s tree edge joins `pv` and `cv` — so its far ends are `pv`'s label
//! group in the graph — and its state is a function of `(u, cv)` alone:
//! whether `cv`'s subtrees are matched, whoever the parent is. Per query
//! vertex `u` the store keeps three dense bitsets over the data vertices:
//! `reached[u]` (a stored edge labeled `u` comes in), `expl[u]` (those edges
//! are explicit) and `kids[u]` (an explicit edge labeled `u` goes out). Beside
//! them are two totals, the explicit edges per `u` (order maintenance) and the
//! stored edges. Nothing is stored per edge, and nothing is counted per
//! vertex:
//!
//! * the search frontier of `(pv, u)` is `pv`'s label group filtered by
//!   `expl[u]` (`Dcg::run`), one bit test per candidate;
//! * `BuildDCG`'s and registration's candidates for `(pv, u)` are the same
//!   group filtered by `u`'s vertex labels (`Dcg::candidates`);
//! * the stored parents of `(u, v)`, which the climb walks, are `v`'s reverse
//!   label group filtered by `reached[P(u)]` (`Dcg::stored_far_ends`);
//! * whether an edge that leaves was `v`'s last parent, or its parent's last
//!   explicit child, is the same group read with early exit
//!   (`Dcg::has_other`).
//!
//! A derived edge is visible the moment its data edge is in the graph, and
//! until it leaves: every scan skips the updated edge while the bits do not
//! account for it (`crate::ops`). See DESIGN.md "DCG storage layout".
//!
//! This module is the engine's one reader of a tree edge: where it reads in
//! the graph, which way it points (`Dcg::pair`) and which children a query
//! vertex has (`Dcg::match_all_children`). Only `crate::spec` keeps another,
//! to stay an independent reference.

use std::ops::Deref;

use tfx_graph::{Dir, DynamicGraph, LabelId, LabelSet, VertexId};
use tfx_query::{QVertexId, QueryGraph, QueryTree};

use crate::spec::DcgImage;

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

/// A borrowed [`Bits`], for a loop that tests many ids against one set: a
/// slice the loop keeps in registers, not a vector it reads again after
/// every store.
#[derive(Clone, Copy)]
pub(crate) struct BitsView<'a>(&'a [u64]);

impl BitsView<'_> {
    #[inline]
    pub(crate) fn has(self, v: VertexId) -> bool {
        self.0.get(v.index() / 64).is_some_and(|w| w >> (v.0 % 64) & 1 == 1)
    }
}

/// A set of data vertices, one bit each, as long as its highest member
/// needs: grown on demand, trimmed after registration.
#[derive(Clone, Default, Debug)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    /// An empty set with room for the ids `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    #[inline]
    pub(crate) fn has(&self, v: VertexId) -> bool {
        self.view().has(v)
    }

    #[inline]
    pub(crate) fn view(&self) -> BitsView<'_> {
        BitsView(&self.0)
    }

    #[inline]
    pub(crate) fn set(&mut self, v: VertexId) {
        let i = v.index() / 64;
        if i >= self.0.len() {
            self.grow(i + 1);
        }
        self.0[i] |= 1 << (v.0 % 64);
    }

    /// Lengthens the set to `words`, reserving an eighth more: growth stays
    /// geometric, and a grown set reserves at most 9/8 of what its highest
    /// member needs, where doubling could reserve twice that.
    #[cold]
    fn grow(&mut self, words: usize) {
        self.0.reserve_exact((words + words / 8).saturating_sub(self.0.len()));
        self.0.resize(words, 0);
    }

    /// Drops the words past the highest member, and their reservation.
    fn trim(&mut self) {
        let len = self.0.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        self.0.truncate(len);
        self.0.shrink_to_fit();
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
    /// The way a parent reads its candidates: `Out` when the query edge
    /// points from the parent to the child. A child reads its parents the
    /// other way.
    down: Dir,
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

/// The DCG of one registered query: three bitsets per query vertex beside
/// the data graph.
pub struct Dcg {
    root_qv: QVertexId,
    /// Per query vertex, its tree edge (a placeholder for the root).
    edges: Vec<TreeEdge>,
    /// Per query vertex `u`: bit `c` set iff `c` is a tree child of `u`. A
    /// leaf's edges are explicit the moment they are stored.
    children: Vec<u64>,
    /// Per query vertex `u`: the data vertices with a stored edge labeled `u`
    /// coming in.
    reached: Vec<Bits>,
    /// Per query vertex `u`: the members of `reached[u]` whose edges labeled
    /// `u` are explicit (their subtrees are matched).
    expl: Vec<Bits>,
    /// Per non-root query vertex `u`: the members of `reached[P(u)]` with an
    /// explicit edge labeled `u` going out — `MatchAllChildren` in one bit
    /// test per child.
    kids: Vec<Bits>,
    /// Global explicit-edge count per query vertex (drives matching-order
    /// maintenance).
    expl_count: Vec<u64>,
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
        let edges: Vec<TreeEdge> = q
            .vertices()
            .map(|u| match tree.parent_edge(u) {
                Some(e) => TreeEdge {
                    parent: tree.parent(u).expect("a tree edge has a parent"),
                    label: q.edge(e).label,
                    down: if tree.child_is_target(u) { Dir::Out } else { Dir::In },
                },
                None => TreeEdge { parent: u, label: None, down: Dir::Out },
            })
            .collect();
        let children =
            q.vertices().map(|u| tree.children(u).iter().fold(0, |m, c| m | 1 << c.0)).collect();
        Dcg {
            root_qv: tree.root(),
            edges,
            children,
            reached: vec![Bits::default(); nq],
            expl: vec![Bits::default(); nq],
            kids: vec![Bits::default(); nq],
            expl_count: vec![0; nq],
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
    pub(crate) fn explicit_set(&self, u: QVertexId) -> BitsView<'_> {
        self.expl[u.index()].view()
    }

    /// True iff some stored edge labeled `u` comes into `v` (the start edge,
    /// for the root).
    #[inline]
    pub fn is_reached(&self, u: QVertexId, v: VertexId) -> bool {
        self.reached[u.index()].has(v)
    }

    /// `MatchAllChildren` (Algorithm 4): true iff `v` has an explicit
    /// outgoing edge labeled with every tree child of `u` — one bit test per
    /// child, which a leaf `u` need not even make.
    #[inline]
    pub fn match_all_children(&self, v: VertexId, u: QVertexId) -> bool {
        let mut mask = self.children[u.index()];
        while mask != 0 {
            if !self.kids[mask.trailing_zeros() as usize].has(v) {
                return false;
            }
            mask &= mask - 1;
        }
        true
    }

    /// `MatchAllChildren(v, u)` for a `v` known to have an explicit
    /// out-edge labeled `via`, a child of `u`: when `via` is `u`'s only
    /// child that edge is the answer, and the bit tests are skipped.
    #[inline]
    pub(crate) fn match_all_children_via(&self, v: VertexId, u: QVertexId, via: QVertexId) -> bool {
        self.children[u.index()] == 1 << via.0 || self.match_all_children(v, u)
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
    /// write). The first edge into `(u, v)` is the one that finds `v`
    /// outside `reached[u]`.
    pub(crate) fn add(&mut self, parent: Option<VertexId>, u: QVertexId, v: VertexId) -> EdgeState {
        let ui = u.index();
        debug_assert!(
            parent.is_some() || u == self.root_qv && !self.reached[ui].has(v),
            "a start edge is the root's, and its vertex's only one"
        );
        self.stored_edges += 1;
        if !self.reached[ui].has(v) {
            self.reached[ui].set(v);
            if self.children[ui] == 0 {
                self.expl[ui].set(v);
            }
        }
        let explicit = self.expl[ui].has(v);
        if explicit {
            self.count_up(parent, u);
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
        self.count_up(parent, u);
    }

    /// E → I for the stored edge `(parent, u, v)`: [`Dcg::promote`] undone.
    /// `image` is the updated edge's data pair while the bits do not account
    /// for it as an edge labeled `u` (`SearchScratch::uncounted_image`).
    pub(crate) fn demote(
        &mut self,
        g: &DynamicGraph,
        parent: Option<VertexId>,
        u: QVertexId,
        v: VertexId,
        image: Option<(VertexId, VertexId)>,
    ) {
        self.expl[u.index()].unset(v);
        self.count_down(g, parent, u, v, image);
    }

    /// Stored → NULL, for the edge `(parent, u, v)`; `image` as for
    /// [`Dcg::demote`]. Returns whether it was the last edge labeled `u`
    /// into `v` — no other parent in `v`'s group is reached — which takes
    /// `v` out of `reached[u]` and clears its `kids` bits: its out-edges
    /// leave in `ClearDCG`'s cascade next, and nothing reads those bits
    /// meanwhile.
    pub(crate) fn remove(
        &mut self,
        g: &DynamicGraph,
        parent: Option<VertexId>,
        u: QVertexId,
        v: VertexId,
        image: Option<(VertexId, VertexId)>,
    ) -> bool {
        let ui = u.index();
        if self.expl[ui].has(v) {
            self.count_down(g, parent, u, v, image);
        }
        self.stored_edges -= 1;
        let last = parent.is_none_or(|pv| {
            let parents = &self.reached[self.edges[ui].parent.index()];
            !self.has_other(g, v, u, false, pv, image, parents)
        });
        if last {
            self.reached[ui].unset(v);
            self.expl[ui].unset(v);
            let mut mask = self.children[ui];
            while mask != 0 {
                self.kids[mask.trailing_zeros() as usize].unset(v);
                mask &= mask - 1;
            }
        }
        last
    }

    /// One explicit edge labeled `u` more, out of `parent`.
    fn count_up(&mut self, parent: Option<VertexId>, u: QVertexId) {
        self.expl_count[u.index()] += 1;
        if let Some(pv) = parent {
            self.kids[u.index()].set(pv);
        }
    }

    /// One explicit edge `(parent, u, v)` fewer: `parent` keeps its
    /// `kids[u]` bit iff its group holds another explicit child. A parent
    /// that left `reached` lost its bits with it (`ClearDCG`'s cascade, see
    /// [`Dcg::remove`]) and is not read.
    fn count_down(
        &mut self,
        g: &DynamicGraph,
        parent: Option<VertexId>,
        u: QVertexId,
        v: VertexId,
        image: Option<(VertexId, VertexId)>,
    ) {
        let ui = u.index();
        self.expl_count[ui] -= 1;
        let Some(pv) = parent else { return };
        if self.reached[self.edges[ui].parent.index()].has(pv)
            && !self.other_explicit_child(g, pv, u, v, image)
        {
            self.kids[ui].unset(pv);
        }
    }

    /// True iff `pv` has an explicit edge labeled `u` to a child other than
    /// `cv` — and than the far end of `image`, the updated edge's data pair
    /// while the bits do not account for it. The climb's "does this edge flip
    /// `pv`" is its negation.
    #[inline]
    pub(crate) fn other_explicit_child(
        &self,
        g: &DynamicGraph,
        pv: VertexId,
        u: QVertexId,
        cv: VertexId,
        image: Option<(VertexId, VertexId)>,
    ) -> bool {
        self.has_other(g, pv, u, true, cv, image, &self.expl[u.index()])
    }

    /// True iff the group [`Dcg::run`] names for `v` has a member in `set`
    /// other than `except` and than `image`'s far end. Reads with early
    /// exit; a wildcard's repeats change nothing, so it walks every label
    /// group as it comes.
    #[allow(clippy::too_many_arguments)]
    fn has_other(
        &self,
        g: &DynamicGraph,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
        except: VertexId,
        image: Option<(VertexId, VertexId)>,
        set: &Bits,
    ) -> bool {
        let skip = self.image_far_end(v, u, to_child, image);
        let other = |w: VertexId| w != except && Some(w) != skip && set.has(w);
        match self.run(g, v, u, to_child) {
            Some(run) => run.iter().any(|&w| other(w)),
            None => g.neighbors(v, self.side(u, to_child)).any(|(w, _)| other(w)),
        }
    }

    /// The far end of the data pair `image` under the tree edge into `u`, if
    /// its near end is `v` — the parent side with `to_child`, else the
    /// child side.
    fn image_far_end(
        &self,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
        image: Option<(VertexId, VertexId)>,
    ) -> Option<VertexId> {
        let (src, dst) = image?;
        let (near, far) = if self.side(u, to_child) == Dir::Out { (src, dst) } else { (dst, src) };
        (near == v).then_some(far)
    }

    /// The way `v` reads under the tree edge into `u`: toward its candidates
    /// for `u` (`to_child`) or toward its candidate parents.
    #[inline]
    fn side(&self, u: QVertexId, to_child: bool) -> Dir {
        let down = self.edges[u.index()].down;
        if to_child {
            down
        } else {
            down.reverse()
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
        let label = self.edges[u.index()].label?;
        Some(g.group(v, self.side(u, to_child), label))
    }

    /// The directed data pair `(src, dst)` of the DCG edge `(pv, u, cv)`: the
    /// tree edge into `u` runs along its query edge or against it. Swapping
    /// is its own inverse, so the pair of `(src, dst)` is `(pv, cv)` again.
    #[inline]
    pub(crate) fn pair(&self, u: QVertexId, pv: VertexId, cv: VertexId) -> (VertexId, VertexId) {
        if self.edges[u.index()].down == Dir::Out {
            (pv, cv)
        } else {
            (cv, pv)
        }
    }

    /// Appends the members of the group [`Dcg::run`] names that `keep`
    /// accepts to `buf`, ascending and each once: a wildcard's are the
    /// graph's [`DynamicGraph::collect_any`].
    pub(crate) fn collect(
        &self,
        g: &DynamicGraph,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
        keep: impl Fn(VertexId) -> bool,
        buf: &mut Vec<VertexId>,
    ) {
        match self.run(g, v, u, to_child) {
            Some(run) => buf.extend(run.iter().copied().filter(|&w| keep(w))),
            None => g.collect_any(v, self.side(u, to_child), keep, buf),
        }
    }

    /// Appends `pv`'s candidates for `u` to `buf`, ascending and each once:
    /// the group [`Dcg::run`] names, less the vertices whose labels do not
    /// contain `labels`, `u`'s own. `BuildDCG`'s and registration's child
    /// candidates; `pv` is reached for `P(u)`, so its labels are not tested.
    #[inline]
    pub(crate) fn candidates(
        &self,
        g: &DynamicGraph,
        pv: VertexId,
        u: QVertexId,
        labels: &LabelSet,
        buf: &mut Vec<VertexId>,
    ) {
        let keep = |cv: VertexId| labels.is_subset_of(g.labels(cv));
        match self.run(g, pv, u, true) {
            // A label-free child takes the whole run, in one copy.
            Some(run) if labels.is_empty() => buf.extend_from_slice(run),
            Some(run) => buf.extend(run.iter().copied().filter(|&cv| keep(cv))),
            None => self.collect(g, pv, u, true, keep, buf),
        }
    }

    /// Appends to `buf`, ascending, the far ends of the stored DCG edges at
    /// `v` under the tree edge into `u`: its children `(v, u, ·)` with
    /// `to_child`, else its parents `(·, u, v)`. They are `v`'s graph group
    /// under the far side's `reached` bits ([`Dcg::collect`]), less `image`'s
    /// far end, the updated edge while the bits do not account for it.
    pub(crate) fn stored_far_ends(
        &self,
        g: &DynamicGraph,
        v: VertexId,
        u: QVertexId,
        to_child: bool,
        image: Option<(VertexId, VertexId)>,
        buf: &mut Vec<VertexId>,
    ) {
        let far = if to_child { u } else { self.edges[u.index()].parent };
        let (far, skip) = (&self.reached[far.index()], self.image_far_end(v, u, to_child, image));
        self.collect(g, v, u, to_child, |w| far.has(w) && Some(w) != skip, buf);
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
        let (src, dst) = self.pair(u, pv, cv);
        let stored = self.reached[e.parent.index()].has(pv)
            && self.reached[u.index()].has(cv)
            && g.has_edge_matching(src, dst, e.label);
        stored.then(|| EdgeState::of(self.expl[u.index()].has(cv)))
    }

    /// Hints the group [`Dcg::run`] will read for `v`'s candidates under
    /// `u`: `v`'s handle pair at stage 0, the slot it names at stage 1.
    #[inline]
    pub(crate) fn prefetch_run(&self, g: &DynamicGraph, v: VertexId, u: QVertexId, stage: u8) {
        let e = self.edges[u.index()];
        if e.label.is_some() {
            g.prefetch_group(v, e.down, stage);
        }
    }

    /// Registration's write (`crate::bulk`): the sweeps' three sets per query
    /// vertex, each trimmed to its highest member, and the totals they imply,
    /// start edges included, into a DCG that holds nothing yet.
    pub(crate) fn install(
        &mut self,
        [mut reached, mut expl, mut kids]: [Vec<Bits>; 3],
        stored_edges: u64,
        expl_count: Vec<u64>,
    ) {
        debug_assert_eq!(self.stored_edges, 0, "install over stored edges");
        reached.iter_mut().chain(&mut expl).chain(&mut kids).for_each(Bits::trim);
        (self.reached, self.expl, self.kids) = (reached, expl, kids);
        (self.stored_edges, self.expl_count) = (stored_edges, expl_count);
    }

    /// Total number of stored DCG edges (start edges included) — the
    /// paper's intermediate-result *size* measure for TurboFlux.
    #[inline]
    pub fn stored_edge_count(&self) -> u64 {
        self.stored_edges
    }

    /// Exact resident bytes of the intermediate results: every bitset is
    /// charged its capacity. Reserved storage never shrinks, so this
    /// measures high-water memory — after a warm-up cycle a self-inverting
    /// update stream returns it to exactly the same value
    /// (`insert_then_delete_restores_everything` in `tests/properties.rs`),
    /// but a freshly built engine reports less than one that has churned.
    pub fn resident_bytes(&self) -> usize {
        let bits = self.reached.iter().chain(&self.expl).chain(&self.kids);
        bits.map(Bits::resident_bytes).sum()
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
            for pv in self.reached[self.edges[u.index()].parent.index()].ones() {
                far.clear();
                self.stored_far_ends(g, pv, u, true, None, &mut far);
                snap.extend(far.iter().map(|&cv| ((Some(pv), u.0, cv), self.st(u, cv))));
            }
        }
        snap
    }

    fn st(&self, u: QVertexId, v: VertexId) -> EdgeState {
        EdgeState::of(self.expl[u.index()].has(v))
    }

    /// Consistency of the bits with `g` and with Definitions 4 / 5 (test
    /// support): every reached non-root `(u, v)` has a stored parent in
    /// `g`, a `kids[u]` bit is set exactly on the reached parents with an
    /// explicit child in their group, `expl ⊆ reached`, an explicit `(u, v)`
    /// is exactly one whose children all match, and the totals are what
    /// `g` derives.
    pub fn check_consistency(&self, g: &DynamicGraph) {
        let root = self.root_qv;
        let mut stored = self.reached[root.index()].count() as u64;
        let mut expl = vec![0u64; self.edges.len()];
        expl[root.index()] = self.expl[root.index()].count() as u64;
        let mut ids = Vec::new();
        for u in self.non_root() {
            let (ui, p) = (u.index(), self.edges[u.index()].parent.index());
            for v in self.reached[ui].ones() {
                ids.clear();
                self.stored_far_ends(g, v, u, false, None, &mut ids);
                assert!(!ids.is_empty(), "(u{ui}, {v}) reached without a stored parent");
                stored += ids.len() as u64;
            }
            for pv in self.kids[ui].ones() {
                assert!(self.reached[p].has(pv), "kid bit of ({pv}, u{ui}), an unreached parent");
            }
            for pv in self.reached[p].ones() {
                ids.clear();
                self.collect(g, pv, u, true, |cv| self.expl[ui].has(cv), &mut ids);
                assert_eq!(self.kids[ui].has(pv), !ids.is_empty(), "kid bit of ({pv}, u{ui})");
                expl[ui] += ids.len() as u64;
            }
        }
        for u in (0..self.edges.len() as u32).map(QVertexId) {
            for v in self.expl[u.index()].ones() {
                assert!(self.reached[u.index()].has(v), "(u{}, {v}) explicit, not reached", u.0);
            }
            for v in self.reached[u.index()].ones() {
                let matched = self.match_all_children(v, u);
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
    use tfx_graph::LabelSet;
    use tfx_query::matching_edge_counts;

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
        let tree = QueryTree::build(&q, us[0], &matching_edge_counts(&q, &g));
        (g, q, tree)
    }

    #[test]
    fn start_edges_are_bits() {
        let (g, q, tree) = path();
        let mut d = Dcg::new(&q, &tree);
        assert_eq!(d.root_state(v(1)), None);
        assert_eq!(d.add(None, u(0), v(1)), EdgeState::Implicit, "the root has children");
        assert_eq!(d.root_state(v(1)), Some(EdgeState::Implicit));
        assert!(d.is_reached(u(0), v(1)));
        d.promote(None, u(0), v(1));
        assert_eq!(d.root_state(v(1)), Some(EdgeState::Explicit));
        assert_eq!(d.expl_counts(), &[1, 0, 0]);
        assert!(d.remove(&g, None, u(0), v(1), None), "a start edge is its vertex's last");
        assert_eq!((d.root_state(v(1)), d.stored_edge_count(), d.expl_counts()[0]), (None, 0, 0));
    }

    /// The bits move with the first edge into, or out of, a `(u, v)`, and a
    /// parent's `kids` bit with its first and last explicit child: "last"
    /// is read off the graph, which holds every edge the test stores.
    #[test]
    fn bits_follow_adds_promotions_and_removals() {
        let (mut g, q, tree) = path();
        let (a0, a1, b0, c0) = (v(0), v(1), v(2), v(4));
        for src in [a0, a1, c0] {
            g.insert_edge(src, LabelId(9), b0);
        }
        let mut d = Dcg::new(&q, &tree);
        for a in [a0, a1] {
            d.add(None, u(0), a);
        }
        // Two parents of `(u1, b0)`: implicit until the climb promotes them.
        for a in [a0, a1] {
            assert_eq!(d.add(Some(a), u(1), b0), EdgeState::Implicit);
        }
        assert_eq!(d.stored_edge_count(), 4);
        // `u2` is a leaf: its edges are explicit on arrival.
        assert_eq!(d.add(Some(b0), u(2), c0), EdgeState::Explicit);
        assert_eq!(d.expl_out_bits(b0), 1 << 2);
        assert!(d.match_all_children(b0, u(1)) && !d.match_all_children(a0, u(0)));
        for a in [a0, a1] {
            d.promote(Some(a), u(1), b0);
            d.promote(None, u(0), a);
        }
        assert_eq!(d.expl_counts(), &[2, 2, 1]);
        d.check_consistency(&g);
        assert_eq!(d.snapshot(&g), reference_dcg(&g, &q, &tree));
        assert!(d.other_explicit_child(&g, b0, u(2), v(3), None));
        assert!(!d.other_explicit_child(&g, b0, u(2), c0, None), "c0 is b0's only one");
        assert!(
            !d.other_explicit_child(&g, b0, u(2), v(3), Some((c0, b0))),
            "the uncounted image is no child"
        );

        // Deleting `a0 -> b0`: the climb demotes `a0`'s start edge (`b0` was
        // its one explicit child), then `ClearDCG` removes the edge, while the
        // graph still holds it.
        d.demote(&g, None, u(0), a0, None);
        assert!(!d.remove(&g, Some(a0), u(1), b0, None), "a1 is still a parent");
        g.delete_edge(a0, LabelId(9), b0);
        assert_eq!((d.expl_out_bits(a0), d.is_explicit(u(1), b0)), (0, true));
        d.check_consistency(&g);
        // Deleting `a1 -> b0`: the last parent out takes `b0` out of
        // `reached[u1]`, and its kid bit with it; the cascade's removal
        // under it reads no group of `b0`'s.
        d.demote(&g, None, u(0), a1, None);
        assert!(d.remove(&g, Some(a1), u(1), b0, None));
        assert_eq!((d.is_reached(u(1), b0), d.expl_out_bits(b0)), (false, 0));
        assert!(d.remove(&g, Some(b0), u(2), c0, None));
        g.delete_edge(a1, LabelId(9), b0);
        d.check_consistency(&g);
        assert_eq!((d.stored_edge_count(), d.expl_counts()), (2, &[0, 0, 0][..]));
    }

    /// The edges are the graph's: the frontier is a label group read under
    /// the bits, and the snapshot equals the reference — for a tree edge
    /// against its query edge too.
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
        d.stored_far_ends(&g, b0, u(1), false, None, &mut parents);
        assert_eq!(parents, [a0]);
        parents.clear();
        d.stored_far_ends(&g, b0, u(1), false, Some((a0, b0)), &mut parents);
        assert!(parents.is_empty(), "the uncounted image is no parent");
    }

    /// A wildcard tree edge reads every label group: `collect` hands its
    /// members back ascending and once, whatever the parallel edges, and
    /// `has_other` sees through the repeats.
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
        let tree = QueryTree::build(&q, q0, &matching_edge_counts(&q, &g));
        let d = Dcg::new(&q, &tree);
        assert_eq!(d.run(&g, v(0), q1, true), None);
        let mut buf = vec![v(99)];
        d.collect(&g, v(0), q1, true, |w| w != v(1), &mut buf);
        assert_eq!(buf, [v(99), v(2), v(4)]);
        let mut set = Bits::default();
        set.set(v(2));
        assert!(!d.has_other(&g, v(0), q1, true, v(2), None, &set), "v2 twice is v2 once");
        set.set(v(4));
        assert!(d.has_other(&g, v(0), q1, true, v(2), None, &set));
    }

    /// Query `u0:A -9-> u1:B` and `u2:C -9-> u0:A`, rooted at `u0`, so
    /// `u2`'s tree edge runs against its query edge. Data `a:A -9-> b:B`,
    /// `c:C -9-> a` and `d:C`, which the tests join to `a` as they need.
    fn star() -> (DynamicGraph, QueryGraph, QueryTree) {
        let mut g = DynamicGraph::new();
        for label in [0, 1, 2, 2] {
            g.add_vertex(LabelSet::single(LabelId(label)));
        }
        g.insert_edge(v(0), LabelId(9), v(1));
        g.insert_edge(v(2), LabelId(9), v(0));
        let mut q = QueryGraph::new();
        let us: Vec<_> = (0..3).map(|i| q.add_vertex(LabelSet::single(LabelId(i)))).collect();
        q.add_edge(us[0], us[1], Some(LabelId(9)));
        q.add_edge(us[2], us[0], Some(LabelId(9)));
        let tree = QueryTree::build(&q, us[0], &matching_edge_counts(&q, &g));
        (g, q, tree)
    }

    fn candidates(g: &DynamicGraph, q: &QueryGraph, d: &Dcg, pv: u32, c: u32) -> Vec<VertexId> {
        let mut buf = Vec::new();
        d.candidates(g, v(pv), u(c), q.labels(u(c)), &mut buf);
        buf
    }

    #[test]
    fn candidates_along_a_forward_tree_edge() {
        let (g, q, tree) = star();
        let d = Dcg::new(&q, &tree);
        assert!(tree.child_is_target(u(1)));
        assert_eq!(d.pair(u(1), v(0), v(1)), (v(0), v(1)));
        assert_eq!(candidates(&g, &q, &d, 0, 1), [v(1)]);
        assert!(candidates(&g, &q, &d, 1, 1).is_empty(), "b has no out-edge");
    }

    #[test]
    fn candidates_against_a_reversed_tree_edge() {
        let (g, q, tree) = star();
        let d = Dcg::new(&q, &tree);
        assert!(!tree.child_is_target(u(2)), "the query edge is u2 -> u0");
        // The DCG edge (a, u2, c) is the data edge c -> a.
        assert_eq!(d.pair(u(2), v(0), v(2)), (v(2), v(0)));
        assert_eq!(d.pair(u(2), v(2), v(0)), (v(0), v(2)), "pair is its own inverse");
        assert_eq!(candidates(&g, &q, &d, 0, 2), [v(2)]);
    }

    #[test]
    fn a_child_whose_labels_do_not_match_is_no_candidate() {
        let (mut g, q, tree) = star();
        g.insert_edge(v(0), LabelId(9), v(3));
        g.insert_edge(v(3), LabelId(9), v(0));
        let d = Dcg::new(&q, &tree);
        assert_eq!(candidates(&g, &q, &d, 0, 1), [v(1)], "d is C, not B");
        assert_eq!(candidates(&g, &q, &d, 0, 2), [v(2), v(3)]);
    }

    /// A wildcard tree edge walks every label group: its candidates come
    /// back sorted and once however many parallel edges join them, less the
    /// vertices whose labels do not match.
    #[test]
    fn a_wildcard_tree_edge_is_collected_once_and_sorted() {
        let mut g = DynamicGraph::new();
        for label in [0, 1, 1, 2] {
            g.add_vertex(LabelSet::single(LabelId(label)));
        }
        for (label, dst) in [(8, 1), (9, 2), (9, 1), (7, 3), (7, 2)] {
            g.insert_edge(v(0), LabelId(label), v(dst));
        }
        let mut q = QueryGraph::new();
        let q0 = q.add_vertex(LabelSet::single(LabelId(0)));
        let q1 = q.add_vertex(LabelSet::single(LabelId(1)));
        q.add_edge(q0, q1, None);
        let tree = QueryTree::build(&q, q0, &matching_edge_counts(&q, &g));
        let d = Dcg::new(&q, &tree);
        assert_eq!(candidates(&g, &q, &d, 0, 1), [v(1), v(2)]);
    }

    /// The sort and dedup of a wildcard's group touch only what this call
    /// appended, and a concrete label with a label-free child takes its run
    /// whole: the segmented stacks of `BuildDCG` and registration.
    #[test]
    fn candidates_dedup_the_tail_segment_only() {
        let mut g = DynamicGraph::new();
        (0..3).for_each(|_| _ = g.add_vertex(LabelSet::empty()));
        for (label, dst) in [(5, 2), (3, 1), (5, 1)] {
            g.insert_edge(v(0), LabelId(label), v(dst));
        }
        for label in [None, Some(LabelId(5))] {
            let mut q = QueryGraph::new();
            let (q0, q1) = (q.add_vertex(LabelSet::empty()), q.add_vertex(LabelSet::empty()));
            q.add_edge(q0, q1, label);
            let tree = QueryTree::build(&q, q0, &matching_edge_counts(&q, &g));
            let d = Dcg::new(&q, &tree);
            let mut buf = vec![v(2), v(1)];
            d.candidates(&g, v(0), q1, &LabelSet::empty(), &mut buf);
            assert_eq!(buf, [v(2), v(1), v(1), v(2)], "{label:?}: the prefix stays as it was");
            buf.truncate(2);
            assert_eq!(buf, [v(2), v(1)]);
        }
    }

    /// `MatchAllChildren` reads `u`'s children, and a leaf has none to wait
    /// for; the one-child shortcut answers for the child it names.
    #[test]
    fn match_all_children_reads_the_tree_children() {
        let (g, q, tree) = star();
        let mut d = Dcg::new(&q, &tree);
        d.add(None, u(0), v(0));
        assert!(!d.match_all_children(v(0), u(0)), "neither child is matched");
        assert!(d.match_all_children(v(1), u(1)) && d.match_all_children(v(2), u(2)), "leaves");
        assert_eq!(d.add(Some(v(0)), u(1), v(1)), EdgeState::Explicit);
        assert!(!d.match_all_children(v(0), u(0)), "u2 is still unmatched");
        assert!(!d.match_all_children_via(v(0), u(0), u(1)), "u1 is not u0's only child");
        assert_eq!(d.add(Some(v(0)), u(2), v(2)), EdgeState::Explicit);
        assert!(d.match_all_children(v(0), u(0)));
        d.promote(None, u(0), v(0));
        d.check_consistency(&g);
        assert_eq!(d.snapshot(&g), reference_dcg(&g, &q, &tree));
    }

    #[test]
    fn resident_bytes_grow_and_are_cycle_stable() {
        let (mut g, q, tree) = path();
        (5..80).for_each(|_| _ = g.add_vertex(LabelSet::empty()));
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
                d.remove(&g, Some(v(i)), u(2), v(i + 40), None);
                d.remove(&g, Some(v(0)), u(1), v(i), None);
            }
            d.remove(&g, None, u(0), v(0), None);
            grown
        };
        let grown = cycle(&mut d);
        let warm = d.resident_bytes();
        assert!(grown > 0 && warm == grown, "nothing is given back");
        assert_eq!(cycle(&mut d), grown, "a warm cycle reserves nothing new");
        assert_eq!((d.resident_bytes(), d.stored_edge_count()), (warm, 0));
    }
}
