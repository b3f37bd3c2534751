//! Candidate filtering: cheap necessary conditions for `m(u) = v`.

use tfx_graph::{Dir, DynamicGraph, LabelId, LabelSet, VertexId};
use tfx_query::{QVertexId, QueryGraph};

/// Precomputed neighborhood-structure filter for one query vertex.
///
/// The per-candidate filter asks, for every *distinct* concrete edge label
/// incident to `u`, whether `v` has at least one matching out/in edge.
/// Probing each query edge's label group re-locates one label run per
/// probe; this filter instead sorts the required labels once at
/// construction and [`NeighborhoodFilter::matches`] merge-joins them
/// against the vertex's label runs — one pass over each direction's runs
/// per candidate, regardless of how many query edges ask.
#[derive(Clone, Debug)]
pub struct NeighborhoodFilter {
    /// Vertex labels `v` must carry (`L(u) ⊆ L'(v)`).
    labels: LabelSet,
    /// Per direction: the sorted, duplicate-free concrete labels required
    /// among the edges that way, and whether `u` has an edge that way at
    /// all — wildcard-labeled edges still demand *some* edge.
    sides: [(Dir, Vec<LabelId>, bool); 2],
}

impl NeighborhoodFilter {
    /// Builds the filter for `u`. Hot enumeration loops construct one per
    /// query vertex up front and reuse it across candidates.
    pub fn new(q: &QueryGraph, u: QVertexId) -> Self {
        let side = |dir, adj: &[(QVertexId, tfx_query::EdgeId)]| {
            let mut labels: Vec<LabelId> =
                adj.iter().filter_map(|&(_, e)| q.edge(e).label).collect();
            labels.sort_unstable();
            labels.dedup();
            (dir, labels, !adj.is_empty())
        };
        NeighborhoodFilter {
            labels: q.labels(u).clone(),
            sides: [side(Dir::Out, q.out_adj(u)), side(Dir::In, q.in_adj(u))],
        }
    }

    /// True iff every required label appears among the vertex's label runs
    /// (both sorted ascending — a single merge-join pass).
    fn runs_cover(required: &[LabelId], runs: impl Iterator<Item = (LabelId, usize)>) -> bool {
        let mut i = 0;
        if required.is_empty() {
            return true;
        }
        for (label, _) in runs {
            if required[i] < label {
                return false; // runs are ascending: required[i] cannot appear later
            }
            if required[i] == label {
                i += 1;
                if i == required.len() {
                    return true;
                }
            }
        }
        false
    }

    /// True iff `v` passes the label and neighborhood-structure filters.
    /// Every condition is necessary under homomorphism (hence isomorphism):
    /// one edge per distinct label, not per query edge, since several query
    /// edges may map onto the same data edge.
    pub fn matches(&self, g: &DynamicGraph, v: VertexId) -> bool {
        if !self.labels.is_subset_of(g.labels(v)) {
            return false;
        }
        self.sides.iter().all(|(dir, labels, needs)| {
            (!needs || g.degree(v, *dir) > 0) && Self::runs_cover(labels, g.label_runs(v, *dir))
        })
    }
}

/// All data vertices passing [`NeighborhoodFilter`] for `u`.
pub(crate) fn candidate_vertices(g: &DynamicGraph, q: &QueryGraph, u: QVertexId) -> Vec<VertexId> {
    let filter = NeighborhoodFilter::new(q, u);
    g.vertices().filter(|&v| filter.matches(g, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    #[test]
    fn label_filter() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        let mut q = QueryGraph::new();
        let u = q.add_vertex(LabelSet::single(l(0)));
        let f = NeighborhoodFilter::new(&q, u);
        assert!(f.matches(&g, a));
        assert!(!f.matches(&g, b));
    }

    #[test]
    fn structural_filter() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::empty());
        let b = g.add_vertex(LabelSet::empty());
        let c = g.add_vertex(LabelSet::empty());
        g.insert_edge(a, l(5), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::empty());
        let u1 = q.add_vertex(LabelSet::empty());
        q.add_edge(u0, u1, Some(l(5)));

        // u0 needs an out-edge labeled 5: only `a` qualifies.
        assert_eq!(candidate_vertices(&g, &q, u0), vec![a]);
        // u1 needs an in-edge labeled 5: only `b` qualifies.
        assert_eq!(candidate_vertices(&g, &q, u1), vec![b]);
        let _ = c;
    }

    #[test]
    fn wildcard_edge_only_requires_some_edge() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::empty());
        let b = g.add_vertex(LabelSet::empty());
        let iso = g.add_vertex(LabelSet::empty());
        g.insert_edge(a, l(1), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::empty());
        let u1 = q.add_vertex(LabelSet::empty());
        q.add_edge(u0, u1, None);
        let f = NeighborhoodFilter::new(&q, u0);
        assert!(f.matches(&g, a));
        assert!(!f.matches(&g, iso), "isolated vertex has no out edge");
        assert!(!f.matches(&g, b), "b has no out edge");
    }

    #[test]
    fn merge_join_requires_every_distinct_label() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::empty());
        let b = g.add_vertex(LabelSet::empty());
        g.insert_edge(a, l(1), b);
        g.insert_edge(a, l(3), b);
        g.insert_edge(a, l(5), b);

        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::empty());
        let u1 = q.add_vertex(LabelSet::empty());
        let u2 = q.add_vertex(LabelSet::empty());
        let u3 = q.add_vertex(LabelSet::empty());
        q.add_edge(u0, u1, Some(l(5)));
        q.add_edge(u0, u2, Some(l(1)));
        q.add_edge(u0, u3, Some(l(1))); // duplicate label: dedup'd

        let f = NeighborhoodFilter::new(&q, u0);
        assert!(f.matches(&g, a), "labels 1 and 5 both present");
        assert!(!f.matches(&g, b), "no out-edges at all");

        // A label strictly between two present runs must be caught by the
        // merge-join (1 < 2 < 3: the run scan passes 1, then sees 3 > 2).
        let mut q2 = QueryGraph::new();
        let w0 = q2.add_vertex(LabelSet::empty());
        let w1 = q2.add_vertex(LabelSet::empty());
        q2.add_edge(w0, w1, Some(l(2)));
        assert!(!NeighborhoodFilter::new(&q2, w0).matches(&g, a));
    }
}
