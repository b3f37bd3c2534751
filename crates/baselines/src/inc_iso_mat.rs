//! IncIsoMat (Fan et al. \[10\]), as described in §2.2 of the paper.
//!
//! For each update on edge `(v, v')`, the affected subgraph `g'` consists of
//! the data vertices within distance `diameter(q)` of either endpoint
//! (undirected), plus the edges among them. Any match that gains or loses
//! validity through the update lies entirely inside `g'`, so matching `g'`
//! before and after the update and diffing yields exactly the positive /
//! negative matches. The method maintains no intermediate results; its cost
//! is two full subgraph matchings on a (potentially large) neighborhood per
//! update.

use rustc_hash::FxHashSet;
use std::collections::VecDeque;
use tfx_graph::{Dir, DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_query::{
    diameter, ContinuousMatcher, Deadline, MatchRecord, MatchSemantics, Positiveness, QueryGraph,
};

use crate::common::match_set_within;

/// The IncIsoMat baseline engine.
pub struct IncIsoMat {
    g: DynamicGraph,
    q: QueryGraph,
    semantics: MatchSemantics,
    diameter: usize,
    deadline: Deadline,
}

impl IncIsoMat {
    /// Registers `q` over `g0`.
    pub fn new(q: QueryGraph, g0: DynamicGraph, semantics: MatchSemantics) -> Self {
        assert!(q.edge_count() > 0, "query must have at least one edge");
        let d = diameter(&q); // panics on a disconnected query
        IncIsoMat { g: g0, q, semantics, diameter: d, deadline: Deadline::default() }
    }

    /// The data graph as maintained by the engine.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// The query diameter used for extraction.
    pub fn query_diameter(&self) -> usize {
        self.diameter
    }

    /// Extracts the affected subgraph around the updated edge: same vertex
    /// id space, but only edges whose endpoints are both within distance
    /// `diameter(q)` of `src` or `dst`.
    fn affected_subgraph(&self, src: VertexId, dst: VertexId) -> DynamicGraph {
        let mut dist_ok: FxHashSet<VertexId> = FxHashSet::default();
        let mut queue: VecDeque<(VertexId, usize)> = VecDeque::new();
        for s in [src, dst] {
            if dist_ok.insert(s) {
                queue.push_back((s, 0));
            }
        }
        while let Some((v, d)) = queue.pop_front() {
            if d == self.diameter {
                continue;
            }
            for (w, _) in self.g.neighbors(v, Dir::Out).chain(self.g.neighbors(v, Dir::In)) {
                if dist_ok.insert(w) {
                    queue.push_back((w, d + 1));
                }
            }
        }
        let mut sub = DynamicGraph::new();
        for v in self.g.vertices() {
            sub.add_vertex(self.g.labels(v).clone());
        }
        for e in self.g.edges() {
            if dist_ok.contains(&e.src) && dist_ok.contains(&e.dst) {
                sub.insert_edge(e.src, e.label, e.dst);
            }
        }
        sub
    }

    fn eval_edge_update(
        &self,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        insert: bool,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        // Extract with the edge present (after an insert / before the
        // delete applies), then derive the "without" version locally.
        let with_edge = self.affected_subgraph(src, dst);
        debug_assert!(with_edge.has_edge(src, label, dst));
        let mut without_edge = with_edge.clone();
        without_edge.delete_edge(src, label, dst);
        let (q, sem, deadline) = (&self.q, self.semantics, &self.deadline);
        let (Some(m_without), Some(m_with)) = (
            match_set_within(&without_edge, q, sem, deadline),
            match_set_within(&with_edge, q, sem, deadline),
        ) else {
            return;
        };
        if insert {
            for m in m_with.difference(&m_without) {
                sink(Positiveness::Positive, m);
            }
        } else {
            for m in m_with.difference(&m_without) {
                sink(Positiveness::Negative, m);
            }
        }
    }
}

impl ContinuousMatcher for IncIsoMat {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        tfx_match::enumerate_matches(&self.g, &self.q, self.semantics, &mut |m| {
            sink(m);
            !self.deadline.exceeded()
        });
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        match op {
            UpdateOp::AddVertex { .. } => {
                self.g.apply(op);
            }
            UpdateOp::InsertEdge { src, label, dst } => {
                if self.g.apply(op) {
                    self.eval_edge_update(*src, *label, *dst, true, sink);
                }
            }
            UpdateOp::DeleteEdge { src, label, dst } => {
                if self.g.has_edge(*src, *label, *dst) {
                    self.eval_edge_update(*src, *label, *dst, false, sink);
                    self.g.delete_edge(*src, *label, *dst);
                }
            }
        }
    }

    fn set_deadline(&mut self, at: Option<std::time::Instant>) {
        self.deadline = Deadline::new(at);
    }

    fn timed_out(&self) -> bool {
        self.deadline.hit()
    }

    fn name(&self) -> &'static str {
        "IncIsoMat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// Path query A->B->C over a path data graph; diameter 2.
    fn setup() -> (DynamicGraph, QueryGraph) {
        let mut g = DynamicGraph::new();
        for i in 0..6 {
            g.add_vertex(LabelSet::single(l(i % 3)));
        }
        // 0:A -> 1:B, far away 3:A, 4:B, 5:C with 4->5 edge
        g.insert_edge(VertexId(0), l(9), VertexId(1));
        g.insert_edge(VertexId(4), l(9), VertexId(5));
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        let c = q.add_vertex(LabelSet::single(l(2)));
        q.add_edge(a, b, Some(l(9)));
        q.add_edge(b, c, Some(l(9)));
        (g, q)
    }

    #[test]
    fn diameter_two_for_path_query() {
        let (g, q) = setup();
        let e = IncIsoMat::new(q, g, MatchSemantics::Homomorphism);
        assert_eq!(e.query_diameter(), 2);
    }

    #[test]
    fn insert_completing_a_match_is_positive() {
        let (g, q) = setup();
        let mut e = IncIsoMat::new(q, g, MatchSemantics::Homomorphism);
        // 1:B -> 2:C completes A->B->C on 0,1,2.
        let op = UpdateOp::InsertEdge { src: VertexId(1), label: l(9), dst: VertexId(2) };
        let mut got = Vec::new();
        e.apply(&op, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Positiveness::Positive);
        assert_eq!(got[0].1.as_slice(), &[VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn delete_reports_negative() {
        let (mut g, q) = setup();
        g.insert_edge(VertexId(1), l(9), VertexId(2));
        let mut e = IncIsoMat::new(q, g, MatchSemantics::Homomorphism);
        let op = UpdateOp::DeleteEdge { src: VertexId(0), label: l(9), dst: VertexId(1) };
        let mut got = Vec::new();
        e.apply(&op, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Positiveness::Negative);
        assert!(!e.graph().has_edge(VertexId(0), l(9), VertexId(1)));
    }

    #[test]
    fn subgraph_extraction_is_distance_bounded() {
        let (mut g, q) = setup();
        // Chain far from the update: 3 -> 4 -> 5 at distance > 2 from (0,1).
        g.insert_edge(VertexId(3), l(9), VertexId(4));
        let e = IncIsoMat::new(q, g, MatchSemantics::Homomorphism);
        let sub = e.affected_subgraph(VertexId(0), VertexId(1));
        assert!(sub.has_edge(VertexId(0), l(9), VertexId(1)));
        assert!(!sub.has_edge(VertexId(4), l(9), VertexId(5)), "outside the bound");
    }
}
