//! Hash-partitioned graph storage for the sharded execution runtime.
//!
//! Vertices are assigned to shards by [`shard_of`], a fixed avalanching
//! hash of the vertex id — deterministic across runs and platforms, so a
//! given stream always partitions the same way. Every shard slice
//! replicates the (small) vertex/label table; edges are partitioned:
//! an edge `src → dst` is stored in owner(`src`)'s slice and, when the
//! endpoints hash to different shards, *mirrored* into owner(`dst`)'s
//! slice — the same exchange-key replication distributed dataflow joins
//! use. The resulting invariant is what [`ShardView`] relies on:
//!
//! * slice\[owner(v)\].out\[v\] holds **all** out-edges of `v` (primaries),
//! * slice\[owner(v)\].in\[v\] holds **all** in-edges of `v`
//!   (same-shard primaries plus mirrors of cross-shard edges).
//!
//! [`ShardView`] implements [`GraphView`] by routing each read to the
//! slice owning the queried endpoint, so every read returns exactly what
//! a single unsharded [`DynamicGraph`] would.

use crate::dynamic_graph::DynamicGraph;
use crate::ids::{LabelId, VertexId};
use crate::labels::LabelSet;
use crate::view::GraphView;
use crate::{AdjacencyMode, LabeledNeighbors, MatchingNeighbors};

/// Owning shard of vertex `v` among `shards` partitions.
///
/// SplitMix64-style finalizer over the raw id: avalanching (consecutive
/// ids scatter), deterministic (no per-process seed), and independent of
/// `std` hasher internals.
#[inline]
pub fn shard_of(v: VertexId, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    let mut x = (v.0 as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as u32
}

/// A data graph hash-partitioned into per-shard [`DynamicGraph`] slices.
pub struct ShardedGraph {
    slices: Vec<DynamicGraph>,
    shards: u32,
    cross_shard_edges: u64,
}

impl Default for ShardedGraph {
    /// An empty single-slice graph (placeholder value for `mem::take`).
    fn default() -> Self {
        ShardedGraph { slices: vec![DynamicGraph::new()], shards: 1, cross_shard_edges: 0 }
    }
}

impl ShardedGraph {
    /// Partition `g0` into `shards` slices (vertices replicated, edges
    /// routed to owner(src) and mirrored to owner(dst) when they differ).
    pub fn from_graph(g0: &DynamicGraph, shards: usize) -> Self {
        let shards = shards.max(1);
        if shards == 1 {
            return ShardedGraph::from_single(g0.clone());
        }
        // One pass deals every edge to its one or two slices; `g0.edges()`
        // is sorted, so each slice is then laid out in vertex order at once.
        let mut edges = vec![Vec::new(); shards];
        let mut cross_shard_edges = 0;
        for e in g0.edges() {
            let (s_src, s_dst) = (shard_of(e.src, shards as u32), shard_of(e.dst, shards as u32));
            edges[s_src as usize].push(e);
            if s_src != s_dst {
                edges[s_dst as usize].push(e);
                cross_shard_edges += 1;
            }
        }
        let labels: Vec<LabelSet> = g0.vertices().map(|v| g0.labels(v).clone()).collect();
        let slices = edges.into_iter().map(|e| DynamicGraph::from_edges(labels.clone(), e));
        ShardedGraph { slices: slices.collect(), shards: shards as u32, cross_shard_edges }
    }

    /// Wraps an owned graph as the one slice of a single-shard partition:
    /// no routing, no mirrors, no copy.
    pub fn from_single(g: DynamicGraph) -> Self {
        ShardedGraph { slices: vec![g], shards: 1, cross_shard_edges: 0 }
    }

    /// Number of shard slices.
    pub fn shard_count(&self) -> usize {
        self.slices.len()
    }

    /// The partition slice owned by shard `s`.
    pub fn slice(&self, s: usize) -> &DynamicGraph {
        &self.slices[s]
    }

    /// Read-only routing view equivalent to the unsharded graph.
    pub fn view(&self) -> ShardView<'_> {
        ShardView { slices: &self.slices, shards: self.shards }
    }

    /// Vertex slots (identical across slices — vertices are replicated).
    pub fn vertex_count(&self) -> usize {
        self.slices[0].vertex_count()
    }

    /// Live cross-shard (mirrored) edge count.
    pub fn cross_shard_edges(&self) -> u64 {
        self.cross_shard_edges
    }

    /// Replicate a vertex into every slice. Returns true iff new anywhere.
    pub fn ensure_vertex(&mut self, v: VertexId, labels: LabelSet) -> bool {
        let mut added = false;
        for slice in &mut self.slices {
            added |= slice.ensure_vertex(v, labels.clone());
        }
        added
    }

    /// True iff the triple exists (probed in owner(src)'s slice).
    pub fn has_edge(&self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        self.slices[shard_of(src, self.shards) as usize].has_edge(src, label, dst)
    }

    /// Insert an edge: primary copy at owner(src), mirror at owner(dst)
    /// when the endpoints hash to different shards. Returns
    /// `(inserted, crossed)` — `crossed` is true for a newly inserted
    /// edge whose endpoints live on different shards.
    pub fn insert_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> (bool, bool) {
        let s_src = shard_of(src, self.shards) as usize;
        let s_dst = shard_of(dst, self.shards) as usize;
        let inserted = self.slices[s_src].insert_edge(src, label, dst);
        let crossed = inserted && s_src != s_dst;
        if crossed {
            let mirrored = self.slices[s_dst].insert_edge(src, label, dst);
            debug_assert!(mirrored, "mirror slice out of sync on insert");
            self.cross_shard_edges += 1;
        }
        (inserted, crossed)
    }

    /// Delete an edge from its primary slice and, for cross-shard edges,
    /// from the mirror slice. Returns `(deleted, crossed)`.
    pub fn delete_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> (bool, bool) {
        let s_src = shard_of(src, self.shards) as usize;
        let s_dst = shard_of(dst, self.shards) as usize;
        let deleted = self.slices[s_src].delete_edge(src, label, dst);
        let crossed = deleted && s_src != s_dst;
        if crossed {
            let mirrored = self.slices[s_dst].delete_edge(src, label, dst);
            debug_assert!(mirrored, "mirror slice out of sync on delete");
            self.cross_shard_edges = self.cross_shard_edges.saturating_sub(1);
        }
        (deleted, crossed)
    }
}

/// Read-only [`GraphView`] over a [`ShardedGraph`]: out-side reads route
/// to owner(src), in-side reads to owner(dst), label reads to slice 0
/// (vertices are replicated everywhere). Equivalent, read for read, to
/// the unsharded graph.
#[derive(Clone, Copy)]
pub struct ShardView<'a> {
    slices: &'a [DynamicGraph],
    shards: u32,
}

impl<'a> ShardView<'a> {
    #[inline]
    fn owner(&self, v: VertexId) -> &'a DynamicGraph {
        &self.slices[shard_of(v, self.shards) as usize]
    }
}

impl GraphView for ShardView<'_> {
    #[inline]
    fn labels(&self, v: VertexId) -> &LabelSet {
        self.slices[0].labels(v)
    }

    #[inline]
    fn vertex_count(&self) -> usize {
        self.slices[0].vertex_count()
    }

    #[inline]
    fn has_edge_matching(&self, src: VertexId, dst: VertexId, qlabel: Option<LabelId>) -> bool {
        self.owner(src).has_edge_matching(src, dst, qlabel)
    }

    #[inline]
    fn count_edges_matching(&self, src: VertexId, dst: VertexId, qlabel: Option<LabelId>) -> usize {
        self.owner(src).count_edges_matching(src, dst, qlabel)
    }

    #[inline]
    fn out_neighbors_labeled(&self, v: VertexId, label: LabelId) -> LabeledNeighbors<'_> {
        self.owner(v).out_neighbors_labeled(v, label)
    }

    #[inline]
    fn in_neighbors_labeled(&self, v: VertexId, label: LabelId) -> LabeledNeighbors<'_> {
        self.owner(v).in_neighbors_labeled(v, label)
    }

    #[inline]
    fn out_neighbors_matching(
        &self,
        v: VertexId,
        qlabel: Option<LabelId>,
        mode: AdjacencyMode,
    ) -> MatchingNeighbors<'_> {
        self.owner(v).out_neighbors_matching(v, qlabel, mode)
    }

    #[inline]
    fn in_neighbors_matching(
        &self,
        v: VertexId,
        qlabel: Option<LabelId>,
        mode: AdjacencyMode,
    ) -> MatchingNeighbors<'_> {
        self.owner(v).in_neighbors_matching(v, qlabel, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_deterministic_and_spread() {
        for s in [1u32, 2, 4, 8] {
            let mut seen = vec![0usize; s as usize];
            for i in 0..256 {
                let a = shard_of(VertexId(i), s);
                assert_eq!(a, shard_of(VertexId(i), s));
                assert!(a < s);
                seen[a as usize] += 1;
            }
            // every shard owns a non-trivial share of 256 consecutive ids
            assert!(seen.iter().all(|&c| c > 256 / (s as usize) / 4));
        }
        assert_eq!(shard_of(VertexId(17), 1), 0);
    }

    #[test]
    fn from_graph_deals_the_edges_incremental_routing_would() {
        let mut g = DynamicGraph::new();
        for i in 0..40u32 {
            g.add_vertex(LabelSet::single(LabelId(i % 3)));
        }
        for i in 0..400u32 {
            g.insert_edge(VertexId(i % 40), LabelId(i % 5), VertexId((i * 7 + i / 40) % 40));
        }
        for shards in [2usize, 3, 8] {
            let bulk = ShardedGraph::from_graph(&g, shards);
            let mut routed = ShardedGraph::from_graph(&DynamicGraph::new(), shards);
            for v in g.vertices() {
                routed.ensure_vertex(v, g.labels(v).clone());
            }
            for e in g.edges() {
                routed.insert_edge(e.src, e.label, e.dst);
            }
            assert_eq!(bulk.cross_shard_edges(), routed.cross_shard_edges());
            for s in 0..shards {
                bulk.slice(s).validate();
                assert!(bulk.slice(s).edges().eq(routed.slice(s).edges()), "slice {s}/{shards}");
                assert_eq!(bulk.slice(s).vertex_count(), g.vertex_count());
            }
        }
    }

    #[test]
    fn sharded_view_matches_unsharded_reads() {
        let mut g = DynamicGraph::new();
        let l0 = LabelId(0);
        let l1 = LabelId(1);
        for i in 0..32u32 {
            g.ensure_vertex(VertexId(i), LabelSet::single(LabelId(i % 3)));
        }
        for i in 0..32u32 {
            g.insert_edge(VertexId(i), l0, VertexId((i * 7 + 3) % 32));
            g.insert_edge(VertexId(i), l1, VertexId((i * 5 + 1) % 32));
        }
        for shards in [1usize, 2, 4, 8] {
            let sg = ShardedGraph::from_graph(&g, shards);
            let view = sg.view();
            assert_eq!(GraphView::vertex_count(&view), g.vertex_count());
            for v in g.vertices() {
                assert_eq!(GraphView::labels(&view, v), DynamicGraph::labels(&g, v));
                for l in [l0, l1] {
                    let a: Vec<_> = g.out_neighbors_labeled(v, l).collect();
                    let b: Vec<_> = GraphView::out_neighbors_labeled(&view, v, l).collect();
                    assert_eq!(a, b, "out shards={shards} v={v:?}");
                    let a: Vec<_> = g.in_neighbors_labeled(v, l).collect();
                    let b: Vec<_> = GraphView::in_neighbors_labeled(&view, v, l).collect();
                    assert_eq!(a, b, "in shards={shards} v={v:?}");
                }
                for w in g.vertices() {
                    for ql in [Some(l0), Some(l1), None] {
                        assert_eq!(
                            GraphView::has_edge_matching(&view, v, w, ql),
                            g.has_edge_matching(v, w, ql)
                        );
                        assert_eq!(
                            GraphView::count_edges_matching(&view, v, w, ql),
                            g.count_edges_matching(v, w, ql)
                        );
                    }
                }
            }
            if shards > 1 {
                assert!(sg.cross_shard_edges() > 0);
            }
            // delete everything through the sharded path; mirrors must drain
            let mut sg = sg;
            for e in g.edges() {
                let (deleted, _) = sg.delete_edge(e.src, e.label, e.dst);
                assert!(deleted);
            }
            assert_eq!(sg.cross_shard_edges(), 0);
            for s in 0..shards {
                assert_eq!(sg.slice(s).edge_count(), 0);
            }
        }
    }
}
