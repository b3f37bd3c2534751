//! The query tree `q'` (§4.1, `TransformToTree`).
//!
//! TurboFlux converts the query graph into a spanning tree rooted at the
//! starting query vertex `u_s`; edges left out become *non-tree* edges and
//! are verified during `SubgraphSearch` instead of being represented in the
//! DCG. The tree is grown greedily, one query edge at a time, always picking
//! the frontier edge with the smallest estimated number of matching data
//! edges ("minimizes the estimated intermediate result size").
//!
//! Tree edges keep their original direction: the paper's exposition draws
//! parent→child edges, but a spanning tree of a directed query can traverse
//! an edge against its direction, so each non-root vertex records whether it
//! is the *target* ([`QueryTree::child_is_target`]) of its parent edge.

use crate::qgraph::{EdgeId, QVertexId, QueryGraph};

/// A rooted spanning tree of a [`QueryGraph`] plus the non-tree edges.
#[derive(Clone, Debug)]
pub struct QueryTree {
    root: QVertexId,
    parent: Vec<Option<QVertexId>>,
    parent_edge: Vec<Option<EdgeId>>,
    child_is_target: Vec<bool>,
    children: Vec<Vec<QVertexId>>,
    non_tree_edges: Vec<EdgeId>,
    is_tree_edge: Vec<bool>,
    bfs_order: Vec<QVertexId>,
    depth: Vec<u32>,
}

impl QueryTree {
    /// Builds a spanning tree rooted at `root`, choosing edges greedily by
    /// ascending `cost`: `cost[e]` is the data-edge match count of query edge
    /// `e`, as [`crate::matching_edge_counts`] takes it.
    ///
    /// Panics if `q` is not connected or is empty.
    pub fn build(q: &QueryGraph, root: QVertexId, cost: &[usize]) -> QueryTree {
        assert!(q.vertex_count() > 0, "empty query");
        assert_eq!(cost.len(), q.edge_count(), "one cost per query edge");
        assert!(q.is_connected(), "query graph must be connected");
        let n = q.vertex_count();
        let mut parent = vec![None; n];
        let mut parent_edge = vec![None; n];
        let mut child_is_target = vec![false; n];
        let mut children = vec![Vec::new(); n];
        let mut in_tree = vec![false; n];
        let mut is_tree_edge = vec![false; q.edge_count()];
        let mut bfs_order = vec![root];
        let mut depth = vec![0u32; n];
        in_tree[root.index()] = true;

        while bfs_order.len() < n {
            // Frontier edges: exactly one endpoint in the tree. Pick the
            // cheapest (ties broken by edge id for determinism).
            let mut best: Option<(usize, EdgeId, QVertexId, QVertexId)> = None;
            for (idx, e) in q.edges().iter().enumerate() {
                let eid = EdgeId(idx as u32);
                let (inside, outside) = match (in_tree[e.src.index()], in_tree[e.dst.index()]) {
                    (true, false) => (e.src, e.dst),
                    (false, true) => (e.dst, e.src),
                    _ => continue,
                };
                if best.is_none_or(|(c, _, _, _)| cost[idx] < c) {
                    best = Some((cost[idx], eid, inside, outside));
                }
            }
            let (_, eid, par, child) = best.expect("connected graph always has a frontier edge");
            in_tree[child.index()] = true;
            parent[child.index()] = Some(par);
            parent_edge[child.index()] = Some(eid);
            child_is_target[child.index()] = q.edge(eid).dst == child;
            children[par.index()].push(child);
            is_tree_edge[eid.index()] = true;
            depth[child.index()] = depth[par.index()] + 1;
            bfs_order.push(child);
        }
        // bfs_order was filled in tree-growth order, which already satisfies
        // "parent precedes child". Re-sort by depth for a true BFS order.
        bfs_order.sort_by_key(|u| depth[u.index()]);

        let non_tree_edges =
            (0..q.edge_count() as u32).map(EdgeId).filter(|e| !is_tree_edge[e.index()]).collect();

        QueryTree {
            root,
            parent,
            parent_edge,
            child_is_target,
            children,
            non_tree_edges,
            is_tree_edge,
            bfs_order,
            depth,
        }
    }

    /// The starting query vertex `u_s`.
    #[inline]
    pub fn root(&self) -> QVertexId {
        self.root
    }

    /// `P(u)`: the parent of `u`, `None` for the root.
    #[inline]
    pub fn parent(&self, u: QVertexId) -> Option<QVertexId> {
        self.parent[u.index()]
    }

    /// The query edge connecting `u` to its parent.
    #[inline]
    pub fn parent_edge(&self, u: QVertexId) -> Option<EdgeId> {
        self.parent_edge[u.index()]
    }

    /// True iff `u` is the *target* of its parent edge (the edge is directed
    /// parent → `u`). False means the edge is directed `u` → parent.
    #[inline]
    pub fn child_is_target(&self, u: QVertexId) -> bool {
        self.child_is_target[u.index()]
    }

    /// `Children(u)`.
    #[inline]
    pub fn children(&self, u: QVertexId) -> &[QVertexId] {
        &self.children[u.index()]
    }

    /// True iff query edge `e` is in the tree.
    #[inline]
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.is_tree_edge[e.index()]
    }

    /// The non-tree edges in id order.
    #[inline]
    pub fn non_tree_edges(&self) -> &[EdgeId] {
        &self.non_tree_edges
    }

    /// A breadth-first vertex order (parents before children).
    #[inline]
    pub fn bfs_order(&self) -> &[QVertexId] {
        &self.bfs_order
    }

    /// Depth of `u` (root = 0).
    #[inline]
    pub fn depth(&self, u: QVertexId) -> u32 {
        self.depth[u.index()]
    }

    /// Number of query vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.parent.len()
    }

    /// True iff `u` is a leaf of the tree.
    #[inline]
    pub fn is_leaf(&self, u: QVertexId) -> bool {
        self.children[u.index()].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{DynamicGraph, LabelId, LabelSet};

    fn triangle() -> QueryGraph {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(LabelId(0)));
        let b = q.add_vertex(LabelSet::single(LabelId(1)));
        let c = q.add_vertex(LabelSet::single(LabelId(2)));
        q.add_edge(a, b, None); // e0
        q.add_edge(b, c, None); // e1
        q.add_edge(c, a, None); // e2
        q
    }

    #[test]
    fn spanning_tree_of_triangle_has_one_non_tree_edge() {
        let q = triangle();
        let t = QueryTree::build(&q, QVertexId(0), &[0; 3]);
        assert_eq!(t.root(), QVertexId(0));
        assert_eq!(t.non_tree_edges().len(), 1);
        assert_eq!(t.bfs_order().len(), 3);
        assert_eq!(t.bfs_order()[0], QVertexId(0));
        // Every non-root vertex has a parent and the tree covers all edges
        // except one.
        for u in q.vertices() {
            if u == t.root() {
                assert!(t.parent(u).is_none());
            } else {
                assert!(t.parent(u).is_some());
                assert!(t.parent_edge(u).is_some());
            }
        }
    }

    #[test]
    fn reversed_edge_direction_recorded() {
        // u0 <- u1: tree rooted at u0 must traverse the edge backwards.
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        q.add_edge(b, a, None);
        let t = QueryTree::build(&q, a, &[0]);
        assert_eq!(t.parent(b), Some(a));
        assert!(!t.child_is_target(b), "b is the source of the parent edge");
    }

    #[test]
    fn greedy_prefers_selective_edges() {
        // Query: u0 -x-> u1, u0 -y-> u1 (parallel, different labels).
        // Data has many x edges and one y edge, so the tree should pick y.
        let mut g = DynamicGraph::new();
        let l0 = LabelSet::single(LabelId(0));
        let l1 = LabelSet::single(LabelId(1));
        let s = g.add_vertex(l0.clone());
        for i in 0..5 {
            let t = g.add_vertex(l1.clone());
            g.insert_edge(s, LabelId(10), t);
            let _ = i;
        }
        let t2 = g.add_vertex(l1.clone());
        g.insert_edge(s, LabelId(11), t2);

        let mut q = QueryGraph::new();
        let a = q.add_vertex(l0);
        let b = q.add_vertex(l1);
        let _ex = q.add_edge(a, b, Some(LabelId(10)));
        let ey = q.add_edge(a, b, Some(LabelId(11)));
        let t = QueryTree::build(&q, a, &crate::matching_edge_counts(&q, &g));
        assert_eq!(t.parent_edge(b), Some(ey), "cheap edge chosen for tree");
        assert_eq!(t.non_tree_edges().len(), 1);
    }

    #[test]
    fn depths_and_leaves() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        let c = q.add_vertex(LabelSet::empty());
        q.add_edge(a, b, None);
        q.add_edge(b, c, None);
        let t = QueryTree::build(&q, a, &[0; 2]);
        assert_eq!(t.depth(a), 0);
        assert_eq!(t.depth(b), 1);
        assert_eq!(t.depth(c), 2);
        assert!(t.is_leaf(c));
        assert!(!t.is_leaf(b));
        assert_eq!(t.children(a), &[b]);
    }
}
