//! Graphflow (Kankanamge et al. [16]), as described in §2.2.
//!
//! Graphflow maintains no intermediate results. For each updated edge
//! `(v, v')` and each query edge `(u, u')` it matches, the engine evaluates
//! subgraph matching *from scratch* starting from the partial solution
//! `{(u, v), (u', v')}` with a Generic-Join-style worst-case-optimal
//! extension: each remaining query vertex is bound by intersecting the
//! adjacency lists of its already-bound neighbors, cheapest list first —
//! the static matcher's own step, [`tfx_match::extend`].
//!
//! Duplicate suppression across the per-query-edge delta evaluations uses
//! the standard delta-query rule: a solution is kept only in the evaluation
//! of the *smallest* query edge that maps onto the updated data edge.

use tfx_graph::{DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_match::joinable;
use tfx_query::{
    ContinuousMatcher, EdgeId, MatchRecord, MatchSemantics, Positiveness, QVertexId, QueryGraph,
};

use crate::common::{matching_query_edges, WorkBudget};

/// The Graphflow baseline engine.
pub struct Graphflow {
    g: DynamicGraph,
    q: QueryGraph,
    semantics: MatchSemantics,
    budget: WorkBudget,
}

impl Graphflow {
    /// Registers `q` over `g0` with an unlimited work budget.
    pub fn new(q: QueryGraph, g0: DynamicGraph, semantics: MatchSemantics) -> Self {
        assert!(q.edge_count() > 0, "query must have at least one edge");
        assert!(q.is_connected(), "query must be connected");
        Graphflow { g: g0, q, semantics, budget: WorkBudget::unlimited() }
    }

    /// Caps the abstract work per run; once exhausted the engine stops
    /// producing results (the harness treats that as a timeout).
    pub fn with_budget(mut self, units: u64) -> Self {
        self.budget = WorkBudget::new(units);
        self
    }

    /// True once the work budget ran out.
    pub fn timed_out(&self) -> bool {
        self.budget.is_exhausted()
    }

    /// The data graph as maintained by the engine.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// Next unbound query vertex adjacent to a bound one.
    fn next_vertex(&self, m: &[Option<VertexId>]) -> Option<QVertexId> {
        self.q.vertices().filter(|u| m[u.index()].is_none()).find(|&u| {
            self.q.out_adj(u).iter().chain(self.q.in_adj(u)).any(|&(w, _)| m[w.index()].is_some())
        })
    }

    /// Keep a solution only in the evaluation of the smallest query edge
    /// mapping onto the updated data edge (with the updated edge as sole
    /// support).
    fn is_canonical(
        &self,
        eq: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        m: &[Option<VertexId>],
    ) -> bool {
        for i in 0..eq.0 {
            let e = EdgeId(i);
            let qe = self.q.edge(e);
            let (Some(ms), Some(md)) = (m[qe.src.index()], m[qe.dst.index()]) else {
                continue;
            };
            if (ms, md) == (src, dst)
                && qe.label.is_none_or(|ql| ql == label)
                && self.g.count_edges_matching(src, dst, qe.label) == 1
            {
                return false;
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        &mut self,
        eq: EdgeId,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        m: &mut Vec<Option<VertexId>>,
        p: Positiveness,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        if !self.budget.consume(1) {
            return;
        }
        let Some(u) = self.next_vertex(m) else {
            if self.is_canonical(eq, src, label, dst, m) {
                sink(p, &MatchRecord::from_partial(m));
            }
            return;
        };
        for v in tfx_match::extend(&self.g, &self.q, m, u) {
            if !self.budget.consume(1) {
                return;
            }
            if !self.q.labels(u).is_subset_of(self.g.labels(v))
                || !joinable(&self.g, &self.q, self.semantics, m, u, v)
            {
                continue;
            }
            m[u.index()] = Some(v);
            self.extend(eq, src, label, dst, m, p, sink);
            m[u.index()] = None;
        }
    }

    fn eval_update(
        &mut self,
        src: VertexId,
        label: LabelId,
        dst: VertexId,
        p: Positiveness,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        for e in matching_query_edges(&self.g, &self.q, src, label, dst) {
            // With surviving / pre-existing parallel support the mapping set
            // does not change through this query edge.
            if self.g.count_edges_matching(src, dst, self.q.edge(e).label) > 1 {
                continue;
            }
            let qe = *self.q.edge(e);
            if self.semantics == MatchSemantics::Isomorphism && qe.src != qe.dst && src == dst {
                continue;
            }
            let mut m: Vec<Option<VertexId>> = vec![None; self.q.vertex_count()];
            m[qe.src.index()] = Some(src);
            m[qe.dst.index()] = Some(dst);
            // Validate the seed binding itself (labels were checked by
            // edge_matches; cross-edges between the two seeds were not).
            let (g, q, sem) = (&self.g, &self.q, self.semantics);
            if !joinable(g, q, sem, &m, qe.src, src) || !joinable(g, q, sem, &m, qe.dst, dst) {
                continue;
            }
            self.extend(e, src, label, dst, &mut m, p, sink);
        }
    }
}

impl ContinuousMatcher for Graphflow {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        tfx_match::enumerate_matches(&self.g, &self.q, self.semantics, &mut |m| {
            sink(m);
            true
        });
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        match op {
            UpdateOp::AddVertex { .. } => {
                self.g.apply(op);
            }
            UpdateOp::InsertEdge { src, label, dst } => {
                if self.g.apply(op) {
                    self.eval_update(*src, *label, *dst, Positiveness::Positive, sink);
                }
            }
            UpdateOp::DeleteEdge { src, label, dst } => {
                if self.g.has_edge(*src, *label, *dst) {
                    self.eval_update(*src, *label, *dst, Positiveness::Negative, sink);
                    self.g.delete_edge(*src, *label, *dst);
                }
            }
        }
    }

    fn timed_out(&self) -> bool {
        self.budget.is_exhausted()
    }

    fn name(&self) -> &'static str {
        "Graphflow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn triangle_setup() -> (DynamicGraph, QueryGraph) {
        let mut g = DynamicGraph::new();
        for _ in 0..3 {
            g.add_vertex(LabelSet::empty());
        }
        g.insert_edge(VertexId(0), l(0), VertexId(1));
        g.insert_edge(VertexId(1), l(0), VertexId(2));
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        let c = q.add_vertex(LabelSet::empty());
        q.add_edge(a, b, None);
        q.add_edge(b, c, None);
        q.add_edge(c, a, None);
        (g, q)
    }

    #[test]
    fn closing_a_triangle_reports_three_rotations_once_each() {
        let (g, q) = triangle_setup();
        let mut e = Graphflow::new(q, g, MatchSemantics::Homomorphism);
        let op = UpdateOp::InsertEdge { src: VertexId(2), label: l(0), dst: VertexId(0) };
        let mut got = Vec::new();
        e.apply(&op, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 3, "three rotations, no duplicates: {got:?}");
        assert!(got.iter().all(|(p, _)| *p == Positiveness::Positive));
    }

    #[test]
    fn deleting_the_closing_edge_reports_them_negative() {
        let (mut g, q) = triangle_setup();
        g.insert_edge(VertexId(2), l(0), VertexId(0));
        let mut e = Graphflow::new(q, g, MatchSemantics::Homomorphism);
        let op = UpdateOp::DeleteEdge { src: VertexId(2), label: l(0), dst: VertexId(0) };
        let mut got = Vec::new();
        e.apply(&op, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(p, _)| *p == Positiveness::Negative));
        assert!(!e.graph().has_edge(VertexId(2), l(0), VertexId(0)));
    }

    #[test]
    fn budget_stops_work() {
        let (g, q) = triangle_setup();
        let mut e = Graphflow::new(q, g, MatchSemantics::Homomorphism).with_budget(1);
        let op = UpdateOp::InsertEdge { src: VertexId(2), label: l(0), dst: VertexId(0) };
        let mut got = Vec::new();
        e.apply(&op, &mut |p, m| got.push((p, m.clone())));
        assert!(e.timed_out());
        assert!(got.len() < 3);
    }
}
