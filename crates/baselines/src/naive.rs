//! The naive approach from §1: recompute subgraph matching from scratch for
//! every update operation and take the set difference. Practically
//! infeasible on real streams, but the ground truth every other engine is
//! tested against.

use tfx_graph::{DynamicGraph, UpdateOp};
use tfx_query::{
    ContinuousMatcher, Deadline, MatchRecord, MatchSemantics, Positiveness, QueryGraph,
};

use crate::common::match_set_within;

/// Full-recompute continuous matcher.
pub struct NaiveRecompute {
    g: DynamicGraph,
    q: QueryGraph,
    semantics: MatchSemantics,
    deadline: Deadline,
}

impl NaiveRecompute {
    /// Registers `q` over `g0`.
    pub fn new(q: QueryGraph, g0: DynamicGraph, semantics: MatchSemantics) -> Self {
        NaiveRecompute { g: g0, q, semantics, deadline: Deadline::default() }
    }

    /// The data graph as maintained by the engine.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }
}

impl ContinuousMatcher for NaiveRecompute {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        tfx_match::enumerate_matches(&self.g, &self.q, self.semantics, &mut |m| {
            sink(m);
            !self.deadline.exceeded()
        });
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        // Vertex arrivals cannot change the match set of a query with ≥1
        // edge; skip the expensive double enumeration.
        if let UpdateOp::AddVertex { .. } = op {
            self.g.apply(op);
            return;
        }
        let (q, sem) = (&self.q, self.semantics);
        let before = match_set_within(&self.g, q, sem, &self.deadline);
        if !self.g.apply(op) {
            return; // duplicate insert / absent delete: nothing changed
        }
        let after = match_set_within(&self.g, q, sem, &self.deadline);
        let (Some(before), Some(after)) = (before, after) else {
            return; // the deadline cut an enumeration short
        };
        for m in after.difference(&before) {
            sink(Positiveness::Positive, m);
        }
        for m in before.difference(&after) {
            sink(Positiveness::Negative, m);
        }
    }

    fn set_deadline(&mut self, at: Option<std::time::Instant>) {
        self.deadline = Deadline::new(at);
    }

    fn timed_out(&self) -> bool {
        self.deadline.hit()
    }

    fn name(&self) -> &'static str {
        "NaiveRecompute"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{LabelId, LabelSet, VertexId};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn setup() -> (DynamicGraph, QueryGraph) {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(9), b);
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(u0, u1, Some(l(9)));
        (g, q)
    }

    #[test]
    fn reports_positive_then_negative() {
        let (mut g, q) = setup();
        let c = g.add_vertex(LabelSet::single(l(1)));
        let mut e = NaiveRecompute::new(q, g, MatchSemantics::Homomorphism);
        let mut init = 0;
        e.initial_matches(&mut |_| init += 1);
        assert_eq!(init, 1);

        let ins = UpdateOp::InsertEdge { src: VertexId(0), label: l(9), dst: c };
        let mut got = Vec::new();
        e.apply(&ins, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Positiveness::Positive);

        let del = UpdateOp::DeleteEdge { src: VertexId(0), label: l(9), dst: c };
        got.clear();
        e.apply(&del, &mut |p, m| got.push((p, m.clone())));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, Positiveness::Negative);
    }

    #[test]
    fn vertex_arrival_reports_nothing() {
        let (g, q) = setup();
        let mut e = NaiveRecompute::new(q, g, MatchSemantics::Homomorphism);
        let op = UpdateOp::AddVertex { id: VertexId(2), labels: LabelSet::single(l(0)) };
        e.apply(&op, &mut |_, _| panic!("no matches expected"));
        assert_eq!(e.graph().vertex_count(), 3);
    }
}
