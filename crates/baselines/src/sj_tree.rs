//! SJ-Tree (Choudhury et al. [7]), as described in §2.2 and Figure 2.
//!
//! The query is decomposed into a left-deep join tree: leaf `i` covers the
//! single query edge `e_i` (chosen in a selectivity-ascending, connected
//! order), internal node `i` covers edges `e_0..=e_i` and materializes the
//! *partial solutions* of that subquery in a hash table. An inserted data
//! edge enters every matching leaf, joins against the sibling's
//! materialized table, and the join results propagate upward; tuples newly
//! materialized at the root are the positive matches.
//!
//! Duplicate elimination follows the paper's description of the
//! generate-and-discard strategy: every node's table is a set, and a
//! regenerated partial solution is discarded on arrival.
//!
//! As in the paper, SJ-Tree supports insertions only — [`SjTree::apply`]
//! panics on an edge deletion — and its materialized partial solutions are
//! the storage cost TurboFlux's DCG is compared against (Figures 6b, 7b).

use rustc_hash::{FxHashMap, FxHashSet};
use std::time::Instant;
use tfx_graph::{DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_query::{
    matching_edge_counts, most_selective_edge, ContinuousMatcher, Deadline, EdgeId, MatchRecord,
    MatchSemantics, Positiveness, QVertexId, QueryGraph,
};

use crate::common::matching_query_edges;

type Tuple = Box<[VertexId]>;

/// One materialized table (a leaf or an internal node).
struct NodeTable {
    /// Covered query vertices, ascending.
    cover: Vec<QVertexId>,
    /// All materialized partial solutions (the generate-and-discard set).
    tuples: FxHashSet<Tuple>,
    /// Join index: key values (per `key_pos`) → tuples.
    index: FxHashMap<Tuple, Vec<Tuple>>,
    /// Positions (into `cover`) of the join-key vertices, if this table is
    /// a probe target.
    key_pos: Vec<usize>,
}

impl NodeTable {
    fn new(cover: Vec<QVertexId>, key: &[QVertexId]) -> Self {
        let key_pos = key
            .iter()
            .map(|k| cover.binary_search(k).expect("key vertex must be covered"))
            .collect();
        NodeTable { cover, tuples: FxHashSet::default(), index: FxHashMap::default(), key_pos }
    }

    fn key_of(&self, t: &[VertexId]) -> Tuple {
        self.key_pos.iter().map(|&p| t[p]).collect()
    }

    /// Inserts a tuple; returns false if it was already materialized.
    fn insert(&mut self, t: Tuple) -> bool {
        if !self.tuples.insert(t.clone()) {
            return false;
        }
        if !self.key_pos.is_empty() {
            let key = self.key_of(&t);
            self.index.entry(key).or_default().push(t);
        }
        true
    }

    fn probe(&self, key: &[VertexId]) -> &[Tuple] {
        self.index.get(key).map_or(&[][..], Vec::as_slice)
    }

    fn bytes(&self) -> usize {
        self.tuples.len() * self.cover.len() * std::mem::size_of::<VertexId>()
    }
}

/// Plan for merging a left (node) tuple with a right (leaf) tuple.
struct JoinPlan {
    /// Output position ← (from_left?, source position).
    sources: Vec<(bool, usize)>,
    /// Positions in the *left* cover forming the join key.
    left_key_pos: Vec<usize>,
    /// The join key as query vertices.
    key: Vec<QVertexId>,
}

/// The SJ-Tree baseline engine.
pub struct SjTree {
    g: DynamicGraph,
    q: QueryGraph,
    semantics: MatchSemantics,
    /// Leaf order `e_0..e_{m-1}` (selectivity-ascending, connected).
    edge_order: Vec<EdgeId>,
    leaves: Vec<NodeTable>,
    /// `nodes[i]` covers edges `e_0..=e_{i+1}` (node 0 is leaf 0 itself, so
    /// internal nodes start at join level 1).
    nodes: Vec<NodeTable>,
    plans: Vec<JoinPlan>,
    deadline: Deadline,
}

impl SjTree {
    /// Registers `q` over `g0`, ingesting every edge of `g0` through the
    /// join tree (that is how SJ-Tree bootstraps its materialized state).
    /// The ingestion already runs under `deadline`: once it passes, the
    /// tables stay incomplete and [`ContinuousMatcher::timed_out`] is true.
    pub fn new(
        q: QueryGraph,
        g0: DynamicGraph,
        semantics: MatchSemantics,
        deadline: Option<Instant>,
    ) -> Self {
        assert!(q.edge_count() > 0, "query must have at least one edge");
        assert!(q.is_connected(), "query must be connected");
        let edge_order = choose_edge_order(&q, &g0);
        let m = edge_order.len();

        // Build covers, keys and plans for the left-deep tree.
        let leaf_cover = |e: EdgeId| {
            let qe = q.edge(e);
            let mut c = vec![qe.src, qe.dst];
            c.sort_unstable();
            c.dedup();
            c
        };
        let mut covers: Vec<Vec<QVertexId>> = Vec::with_capacity(m);
        covers.push(leaf_cover(edge_order[0]));
        for i in 1..m {
            let mut c = covers[i - 1].clone();
            for v in leaf_cover(edge_order[i]) {
                if !c.contains(&v) {
                    c.push(v);
                }
            }
            c.sort_unstable();
            covers.push(c);
        }
        let mut leaves = Vec::with_capacity(m);
        let mut plans = Vec::with_capacity(m.saturating_sub(1));
        let mut nodes = Vec::with_capacity(m.saturating_sub(1));
        for i in 0..m {
            let lc = leaf_cover(edge_order[i]);
            if i == 0 {
                leaves.push(NodeTable::new(lc, &[]));
                continue;
            }
            // Join key: covered(prefix i-1) ∩ leaf cover.
            let key: Vec<QVertexId> =
                lc.iter().copied().filter(|v| covers[i - 1].contains(v)).collect();
            assert!(!key.is_empty(), "connected edge order guarantees a join key");
            leaves.push(NodeTable::new(lc.clone(), &key));
            // The left input (node i-1) is indexed by the same key.
            let left_cover = &covers[i - 1];
            let left_key_pos: Vec<usize> = key
                .iter()
                .map(|k| left_cover.binary_search(k).expect("key in left cover"))
                .collect();
            let sources = covers[i]
                .iter()
                .map(|v| match left_cover.binary_search(v) {
                    Ok(p) => (true, p),
                    Err(_) => (false, lc.binary_search(v).expect("in leaf cover")),
                })
                .collect();
            plans.push(JoinPlan { sources, left_key_pos, key: key.clone() });
            nodes.push(NodeTable::new(covers[i].clone(), &[]));
        }
        // Node i is the left input of join i+1, so it is probed with
        // plan[i+1]'s key (the root needs no index). Rebuild the node
        // tables with those probe keys.
        let mut nodes2 = Vec::with_capacity(nodes.len());
        for (i, n) in nodes.into_iter().enumerate() {
            // join level i+1 produced node i; it is probed with plan i+1's
            // key (if any).
            let probe_key: &[QVertexId] = if i + 1 < plans.len() { &plans[i + 1].key } else { &[] };
            nodes2.push(NodeTable::new(n.cover, probe_key));
        }
        // Leaf 0 participates as the left side of join 1: it is probed with
        // plan[0].key.
        if !plans.is_empty() {
            let key = plans[0].key.clone();
            let cover = leaves[0].cover.clone();
            leaves[0] = NodeTable::new(cover, &key);
        }

        let mut engine = SjTree {
            g: DynamicGraph::new(),
            q,
            semantics,
            edge_order,
            leaves,
            nodes: nodes2,
            plans,
            deadline: Deadline::new(deadline),
        };
        // Ingest g0 edge by edge without reporting.
        for v in g0.vertices() {
            engine.g.add_vertex(g0.labels(v).clone());
        }
        let mut edges: Vec<_> = g0.edges().collect();
        edges.sort_unstable();
        for e in edges {
            engine.g.insert_edge(e.src, e.label, e.dst);
            engine.ingest_edge(e.src, e.label, e.dst, &mut |_| {});
        }
        engine
    }

    /// The data graph as maintained by the engine.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// The leaf (query-edge) order of the join tree.
    pub fn edge_order(&self) -> &[EdgeId] {
        &self.edge_order
    }

    /// Total number of materialized partial solutions across all nodes —
    /// the paper's intermediate-result count for SJ-Tree.
    pub fn materialized_tuples(&self) -> usize {
        self.leaves.iter().map(|t| t.tuples.len()).sum::<usize>()
            + self.nodes.iter().map(|t| t.tuples.len()).sum::<usize>()
    }

    fn tuple_injective(t: &[VertexId]) -> bool {
        let mut s: Vec<VertexId> = t.to_vec();
        s.sort_unstable();
        s.windows(2).all(|w| w[0] != w[1])
    }

    /// Feeds one data edge through every matching leaf and propagates.
    fn ingest_edge(
        &mut self,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        on_match: &mut dyn FnMut(&MatchRecord),
    ) {
        for e in matching_query_edges(&self.g, &self.q, src, label, dst) {
            let Some(leaf_idx) = self.edge_order.iter().position(|&x| x == e) else {
                unreachable!("every query edge is a leaf");
            };
            let qe = self.q.edge(e);
            if self.semantics == MatchSemantics::Isomorphism && qe.src != qe.dst && src == dst {
                continue;
            }
            // Leaf tuple over the leaf cover (sorted qvs).
            let tuple: Tuple = self.leaves[leaf_idx]
                .cover
                .iter()
                .map(|&u| if u == qe.src { src } else { dst })
                .collect();
            if self.deadline.exceeded() {
                return;
            }
            if !self.leaves[leaf_idx].insert(tuple.clone()) {
                continue; // discard: already materialized
            }
            if leaf_idx == 0 {
                // Leaf 0 *is* node level 0.
                if self.edge_order.len() == 1 {
                    self.report_root_tuple(&tuple, on_match);
                } else {
                    self.propagate(0, tuple, on_match);
                }
            } else {
                // Probe the left sibling (node leaf_idx-1, or leaf 0 when
                // leaf_idx == 1) and push join results up.
                let plan = &self.plans[leaf_idx - 1];
                let key = self.leaves[leaf_idx].key_of(&tuple);
                let left: Vec<Tuple> = if leaf_idx == 1 {
                    self.leaves[0].probe(&key).to_vec()
                } else {
                    self.nodes[leaf_idx - 2].probe(&key).to_vec()
                };
                let _ = plan;
                for lt in left {
                    if let Some(combined) = self.merge(leaf_idx - 1, &lt, &tuple) {
                        self.insert_node(leaf_idx - 1, combined, on_match);
                    }
                }
            }
        }
    }

    /// Merges a left tuple with a leaf tuple per `plans[level]`. Returns
    /// `None` when isomorphism's injectivity is violated.
    fn merge(&self, level: usize, left: &[VertexId], right: &[VertexId]) -> Option<Tuple> {
        let plan = &self.plans[level];
        let combined: Tuple = plan
            .sources
            .iter()
            .map(|&(from_left, p)| if from_left { left[p] } else { right[p] })
            .collect();
        if self.semantics == MatchSemantics::Isomorphism && !Self::tuple_injective(&combined) {
            return None;
        }
        Some(combined)
    }

    /// Inserts a fresh tuple into internal node `level` (covering edges
    /// `e_0..=e_{level+1}`), reporting and/or propagating further up.
    fn insert_node(&mut self, level: usize, tuple: Tuple, on_match: &mut dyn FnMut(&MatchRecord)) {
        if self.deadline.exceeded() {
            return;
        }
        if !self.nodes[level].insert(tuple.clone()) {
            return; // discard duplicates
        }
        if level + 1 == self.nodes.len() {
            self.report_root_tuple(&tuple, on_match);
        } else {
            self.propagate(level + 1, tuple, on_match);
        }
    }

    /// Joins new left-side tuples (node `level-1` output, i.e. the prefix
    /// covering `e_0..=e_level`) against leaf `level+1`... — concretely:
    /// `propagate(j, t)` joins tuple `t` of join level `j` (prefix of
    /// `j+1` edges) with leaf `j+1`'s table into node level `j`.
    fn propagate(&mut self, level: usize, tuple: Tuple, on_match: &mut dyn FnMut(&MatchRecord)) {
        let plan = &self.plans[level];
        let key: Tuple = plan.left_key_pos.iter().map(|&p| tuple[p]).collect();
        let rights: Vec<Tuple> = self.leaves[level + 1].probe(&key).to_vec();
        for rt in rights {
            if let Some(combined) = self.merge(level, &tuple, &rt) {
                self.insert_node(level, combined, on_match);
            }
        }
    }

    fn report_root_tuple(&self, tuple: &[VertexId], on_match: &mut dyn FnMut(&MatchRecord)) {
        // Root cover is all query vertices, sorted = identity order.
        debug_assert_eq!(tuple.len(), self.q.vertex_count());
        on_match(&MatchRecord::new(tuple.to_vec()));
    }
}

/// Selectivity-ascending, connected leaf order (first the globally most
/// selective query edge, then always the most selective edge sharing a
/// vertex with the covered prefix), by `tfx_query::most_selective_edge`.
///
/// Its zero-count rule — an edge with no matches in `g0` sorts last — is
/// also what reproduces Figure 2b's 11 311 partial solutions for a query
/// with zero complete matches.
fn choose_edge_order(q: &QueryGraph, g0: &DynamicGraph) -> Vec<EdgeId> {
    let counts = matching_edge_counts(q, g0);
    let m = q.edge_count();
    let mut chosen = vec![false; m];
    let mut covered: FxHashSet<QVertexId> = FxHashSet::default();
    let mut order = Vec::with_capacity(m);
    for step in 0..m {
        let frontier = (0..m).filter(|&i| !chosen[i]).filter(|&i| {
            let e = &q.edges()[i];
            step == 0 || covered.contains(&e.src) || covered.contains(&e.dst)
        });
        let pick = most_selective_edge(&counts, frontier)
            .expect("connected query always has a frontier edge");
        chosen[pick] = true;
        let e = &q.edges()[pick];
        covered.insert(e.src);
        covered.insert(e.dst);
        order.push(EdgeId(pick as u32));
    }
    order
}

impl ContinuousMatcher for SjTree {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        let root = if self.nodes.is_empty() { &self.leaves[0] } else { self.nodes.last().unwrap() };
        let mut tuples: Vec<&Tuple> = root.tuples.iter().collect();
        tuples.sort_unstable();
        for t in tuples {
            sink(&MatchRecord::new(t.to_vec()));
        }
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        match op {
            UpdateOp::AddVertex { .. } => {
                self.g.apply(op);
            }
            UpdateOp::InsertEdge { src, label, dst } => {
                if self.g.apply(op) {
                    self.ingest_edge(*src, *label, *dst, &mut |m| sink(Positiveness::Positive, m));
                }
            }
            UpdateOp::DeleteEdge { .. } => {
                panic!("SJ-Tree does not support edge deletion (as in the paper, §B.2)");
            }
        }
    }

    fn intermediate_result_bytes(&self) -> usize {
        self.leaves.iter().map(NodeTable::bytes).sum::<usize>()
            + self.nodes.iter().map(NodeTable::bytes).sum::<usize>()
    }

    fn set_deadline(&mut self, at: Option<Instant>) {
        self.deadline = Deadline::new(at);
    }

    fn timed_out(&self) -> bool {
        self.deadline.hit()
    }

    fn name(&self) -> &'static str {
        "SJ-Tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn path_setup() -> (DynamicGraph, QueryGraph) {
        // A -> B -> C data path, query A->B->C.
        let mut g = DynamicGraph::new();
        g.add_vertex(LabelSet::single(l(0)));
        g.add_vertex(LabelSet::single(l(1)));
        g.add_vertex(LabelSet::single(l(2)));
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        let c = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(a, b, Some(l(9)));
        q.add_edge(b, c, Some(l(9)));
        (g, q)
    }

    #[test]
    fn incremental_inserts_complete_a_match() {
        let (g, q) = path_setup();
        let mut e = SjTree::new(q, g, MatchSemantics::Homomorphism, None);
        let mut got = Vec::new();
        e.apply(
            &UpdateOp::InsertEdge { src: VertexId(0), label: l(9), dst: VertexId(1) },
            &mut |p, m| got.push((p, m.clone())),
        );
        assert!(got.is_empty(), "half a path is no match");
        e.apply(
            &UpdateOp::InsertEdge { src: VertexId(1), label: l(9), dst: VertexId(2) },
            &mut |p, m| got.push((p, m.clone())),
        );
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.as_slice(), &[VertexId(0), VertexId(1), VertexId(2)]);
        assert!(e.materialized_tuples() >= 3, "two leaf tuples + root tuple");
    }

    #[test]
    fn g0_ingestion_yields_initial_matches() {
        let (mut g, q) = path_setup();
        g.insert_edge(VertexId(0), l(9), VertexId(1));
        g.insert_edge(VertexId(1), l(9), VertexId(2));
        let mut e = SjTree::new(q, g, MatchSemantics::Homomorphism, None);
        let mut init = Vec::new();
        e.initial_matches(&mut |m| init.push(m.clone()));
        assert_eq!(init.len(), 1);
    }

    #[test]
    fn duplicate_root_tuples_are_discarded() {
        // Query A->B with parallel-capable wildcard: inserting the same
        // logical match via two different labels must report once per new
        // mapping only.
        let mut g = DynamicGraph::new();
        g.add_vertex(LabelSet::single(l(0)));
        g.add_vertex(LabelSet::single(l(1)));
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(a, b, None);
        let mut e = SjTree::new(q, g, MatchSemantics::Homomorphism, None);
        let mut got = 0;
        e.apply(
            &UpdateOp::InsertEdge { src: VertexId(0), label: l(1), dst: VertexId(1) },
            &mut |_, _| got += 1,
        );
        assert_eq!(got, 1);
        e.apply(
            &UpdateOp::InsertEdge { src: VertexId(0), label: l(2), dst: VertexId(1) },
            &mut |_, _| got += 1,
        );
        assert_eq!(got, 1, "same mapping via a parallel edge is discarded");
    }

    #[test]
    #[should_panic(expected = "does not support edge deletion")]
    fn deletion_panics() {
        let (g, q) = path_setup();
        let mut e = SjTree::new(q, g, MatchSemantics::Homomorphism, None);
        e.apply(
            &UpdateOp::DeleteEdge { src: VertexId(0), label: l(9), dst: VertexId(1) },
            &mut |_, _| {},
        );
    }

    #[test]
    fn storage_grows_with_partial_solutions() {
        let (g, q) = path_setup();
        let mut e = SjTree::new(q, g, MatchSemantics::Homomorphism, None);
        let b0 = e.intermediate_result_bytes();
        e.apply(
            &UpdateOp::InsertEdge { src: VertexId(0), label: l(9), dst: VertexId(1) },
            &mut |_, _| {},
        );
        assert!(e.intermediate_result_bytes() > b0);
    }

    #[test]
    fn isomorphism_discards_non_injective_tuples() {
        // Query A->A over a self... two query vertices same label; data has
        // one A with a self-loop: homomorphism matches, isomorphism not.
        let mut g = DynamicGraph::new();
        g.add_vertex(LabelSet::single(l(0)));
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(0)));
        q.add_edge(a, b, None);
        let op = UpdateOp::InsertEdge { src: VertexId(0), label: l(1), dst: VertexId(0) };

        let mut hom = SjTree::new(q.clone(), g.clone(), MatchSemantics::Homomorphism, None);
        let mut n = 0;
        hom.apply(&op, &mut |_, _| n += 1);
        assert_eq!(n, 1);

        let mut iso = SjTree::new(q, g, MatchSemantics::Isomorphism, None);
        let mut n = 0;
        iso.apply(&op, &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }
}
