//! Backtracking enumeration of homomorphisms / isomorphisms.

use rustc_hash::FxHashSet;
use tfx_graph::{intersect_into, AdjacencyMode, DynamicGraph, VertexId};
use tfx_query::{MatchRecord, MatchSemantics, QVertexId, QueryGraph};

use crate::candidates::NeighborhoodFilter;
use crate::order::matching_order;

/// Result summary of an enumeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Enumeration {
    /// Number of matches delivered to the sink.
    pub matches: u64,
    /// False iff the sink aborted the search early.
    pub completed: bool,
}

/// How candidates for the next query vertex are produced once at least one
/// of its neighbors is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtendStrategy {
    /// Scan the single cheapest bound neighbor's adjacency list and let
    /// `joinable` reject candidates edge by edge (hash-probe per edge).
    PivotScan,
    /// Intersect *all* bound neighbors' sorted adjacency runs through the
    /// vectorized kernels ([`tfx_graph::intersect_into`]); `joinable` then
    /// only has to verify self-loops and wildcard-collapsed duplicates.
    #[default]
    Intersect,
}

struct Search<'a> {
    g: &'a DynamicGraph,
    q: &'a QueryGraph,
    semantics: MatchSemantics,
    strategy: ExtendStrategy,
    order: Vec<QVertexId>,
    /// One precomputed neighborhood filter per query vertex (indexed by
    /// `u.index()`), so per-candidate checks don't rebuild label lists.
    filters: Vec<NeighborhoodFilter>,
    mapping: Vec<Option<VertexId>>,
    used: FxHashSet<VertexId>,
    found: u64,
}

/// A candidate source list: either a zero-copy borrow of a label group or
/// a materialized (sorted, duplicate-free) buffer.
enum SrcList<'g> {
    Borrowed(&'g [VertexId]),
    Owned(Vec<VertexId>),
}

impl SrcList<'_> {
    fn as_slice(&self) -> &[VertexId] {
        match self {
            SrcList::Borrowed(s) => s,
            SrcList::Owned(v) => v,
        }
    }
}

impl<'a> Search<'a> {
    /// Verifies every query edge between `u` (about to be mapped to `v`) and
    /// already-mapped query vertices, plus self-loops on `u`.
    fn joinable(&self, u: QVertexId, v: VertexId) -> bool {
        for &(w, e) in self.q.out_adj(u) {
            if w == u {
                // self-loop: needs a data self-loop at v
                if !self.g.has_edge_matching(v, v, self.q.edge(e).label) {
                    return false;
                }
                continue;
            }
            if let Some(mw) = self.mapping[w.index()] {
                if !self.g.has_edge_matching(v, mw, self.q.edge(e).label) {
                    return false;
                }
            }
        }
        for &(w, e) in self.q.in_adj(u) {
            if w == u {
                continue; // self-loop handled above
            }
            if let Some(mw) = self.mapping[w.index()] {
                if !self.g.has_edge_matching(mw, v, self.q.edge(e).label) {
                    return false;
                }
            }
        }
        true
    }

    /// Candidates for `order[depth]`, enumerated from the cheapest matched
    /// neighbor's adjacency list.
    fn candidates_from_pivot(&self, u: QVertexId) -> Vec<VertexId> {
        // (pivot data vertex, true = follow out-edges of pivot)
        let mut best: Option<(usize, VertexId, bool, Option<tfx_graph::LabelId>)> = None;
        for &(w, e) in self.q.in_adj(u) {
            if w == u {
                continue;
            }
            if let Some(mw) = self.mapping[w.index()] {
                // edge w -> u: follow out-edges of m(w); a concrete edge
                // label narrows the cost to its own group.
                let label = self.q.edge(e).label;
                let cost = match label {
                    Some(l) => self.g.out_degree_labeled(mw, l),
                    None => self.g.out_degree(mw),
                };
                if best.is_none_or(|(c, _, _, _)| cost < c) {
                    best = Some((cost, mw, true, label));
                }
            }
        }
        for &(w, e) in self.q.out_adj(u) {
            if w == u {
                continue;
            }
            if let Some(mw) = self.mapping[w.index()] {
                // edge u -> w: follow in-edges of m(w)
                let label = self.q.edge(e).label;
                let cost = match label {
                    Some(l) => self.g.in_degree_labeled(mw, l),
                    None => self.g.in_degree(mw),
                };
                if best.is_none_or(|(c, _, _, _)| cost < c) {
                    best = Some((cost, mw, false, label));
                }
            }
        }
        let (_, pivot, follow_out, label) =
            best.expect("connected matching order guarantees a mapped neighbor");
        let mut out: Vec<VertexId> = if follow_out {
            self.g.out_neighbors_matching(pivot, label, AdjacencyMode::Indexed).collect()
        } else {
            self.g.in_neighbors_matching(pivot, label, AdjacencyMode::Indexed).collect()
        };
        // A concrete label yields one already-sorted, duplicate-free group;
        // the wildcard path can repeat neighbors across label groups.
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidates for `u` as the intersection of *every* bound neighbor's
    /// relevant adjacency run, folded smallest-first through the graph
    /// crate's merge/gallop kernels.
    ///
    /// Equivalent to [`Search::candidates_from_pivot`] filtered by
    /// `joinable`: membership in the run of `m(w)` for edge `(u, w)` is
    /// exactly the `has_edge_matching` probe `joinable` applies for that
    /// edge, so the intersection drops only candidates `joinable` would
    /// reject — and the result stays sorted, so enumeration order is
    /// deterministic without a sort+dedup pass.
    fn candidates_intersect(&self, u: QVertexId) -> Vec<VertexId> {
        let mut sources: Vec<SrcList<'a>> = Vec::new();
        for &(w, e) in self.q.in_adj(u) {
            if w == u {
                continue; // self-loops are joinable's job
            }
            let Some(mw) = self.mapping[w.index()] else { continue };
            // edge w -> u: candidates live among out-neighbors of m(w)
            match self.q.edge(e).label {
                Some(l) => sources
                    .push(SrcList::Borrowed(self.g.out_neighbors_labeled(mw, l).as_id_slice())),
                None => {
                    let mut buf: Vec<VertexId> =
                        self.g.out_neighbors_matching(mw, None, AdjacencyMode::Indexed).collect();
                    buf.sort_unstable();
                    buf.dedup();
                    sources.push(SrcList::Owned(buf));
                }
            }
        }
        for &(w, e) in self.q.out_adj(u) {
            if w == u {
                continue;
            }
            let Some(mw) = self.mapping[w.index()] else { continue };
            // edge u -> w: candidates live among in-neighbors of m(w)
            match self.q.edge(e).label {
                Some(l) => sources
                    .push(SrcList::Borrowed(self.g.in_neighbors_labeled(mw, l).as_id_slice())),
                None => {
                    let mut buf: Vec<VertexId> =
                        self.g.in_neighbors_matching(mw, None, AdjacencyMode::Indexed).collect();
                    buf.sort_unstable();
                    buf.dedup();
                    sources.push(SrcList::Owned(buf));
                }
            }
        }
        // Smallest-first keeps every intermediate no larger than the
        // smallest source and lets the gallop kernel exploit size skew.
        sources.sort_by_key(|s| s.as_slice().len());
        let mut iter = sources.iter();
        let first = iter.next().expect("connected matching order guarantees a mapped neighbor");
        let mut cur: Vec<VertexId> = first.as_slice().to_vec();
        let mut tmp: Vec<VertexId> = Vec::new();
        for s in iter {
            if cur.is_empty() {
                break;
            }
            tmp.clear();
            intersect_into(&cur, s.as_slice(), &mut tmp);
            std::mem::swap(&mut cur, &mut tmp);
        }
        cur
    }

    fn recurse(&mut self, depth: usize, sink: &mut dyn FnMut(&MatchRecord) -> bool) -> bool {
        if depth == self.order.len() {
            self.found += 1;
            let rec = MatchRecord::from_partial(&self.mapping);
            return sink(&rec);
        }
        let u = self.order[depth];
        let cands = if depth == 0 {
            let filter = &self.filters[u.index()];
            self.g.vertices().filter(|&v| filter.matches(self.g, v)).collect()
        } else {
            match self.strategy {
                ExtendStrategy::PivotScan => self.candidates_from_pivot(u),
                ExtendStrategy::Intersect => self.candidates_intersect(u),
            }
        };
        for v in cands {
            if self.semantics == MatchSemantics::Isomorphism && self.used.contains(&v) {
                continue;
            }
            if !self.filters[u.index()].matches(self.g, v) {
                continue;
            }
            if !self.joinable(u, v) {
                continue;
            }
            self.mapping[u.index()] = Some(v);
            if self.semantics == MatchSemantics::Isomorphism {
                self.used.insert(v);
            }
            let keep_going = self.recurse(depth + 1, sink);
            self.mapping[u.index()] = None;
            if self.semantics == MatchSemantics::Isomorphism {
                self.used.remove(&v);
            }
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// Enumerates every match of `q` in `g` under `semantics`, streaming each
/// into `sink`. The sink returns `false` to abort the search early.
///
/// Uses the default [`ExtendStrategy::Intersect`]; see
/// [`enumerate_matches_with`] to pick the extension strategy explicitly
/// (benchmark ablations, mostly).
pub fn enumerate_matches(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
    sink: &mut dyn FnMut(&MatchRecord) -> bool,
) -> Enumeration {
    enumerate_matches_with(g, q, semantics, ExtendStrategy::default(), sink)
}

/// [`enumerate_matches`] with an explicit candidate-extension strategy.
pub fn enumerate_matches_with(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
    strategy: ExtendStrategy,
    sink: &mut dyn FnMut(&MatchRecord) -> bool,
) -> Enumeration {
    let order = matching_order(g, q);
    let filters = q.vertices().map(|u| NeighborhoodFilter::new(q, u)).collect();
    let mut search = Search {
        g,
        q,
        semantics,
        strategy,
        order,
        filters,
        mapping: vec![None; q.vertex_count()],
        used: FxHashSet::default(),
        found: 0,
    };
    let completed = search.recurse(0, sink);
    Enumeration { matches: search.found, completed }
}

/// Counts matches without materializing them.
pub fn count_matches(g: &DynamicGraph, q: &QueryGraph, semantics: MatchSemantics) -> u64 {
    enumerate_matches(g, q, semantics, &mut |_| true).matches
}

/// Collects all matches into a set (the oracle representation: matches are
/// *sets* of mappings, per the problem statement).
pub fn match_set(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
) -> FxHashSet<MatchRecord> {
    let mut out = FxHashSet::default();
    enumerate_matches(g, q, semantics, &mut |m| {
        let fresh = out.insert(m.clone());
        debug_assert!(fresh, "backtracking enumeration must not produce duplicates");
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{LabelId, LabelSet};

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// Data: a0 -> {b0, b1}, a1 -> b0. Query: A -> B.
    fn simple() -> (DynamicGraph, QueryGraph) {
        let mut g = DynamicGraph::new();
        let a0 = g.add_vertex(LabelSet::single(l(0)));
        let a1 = g.add_vertex(LabelSet::single(l(0)));
        let b0 = g.add_vertex(LabelSet::single(l(1)));
        let b1 = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a0, l(9), b0);
        g.insert_edge(a0, l(9), b1);
        g.insert_edge(a1, l(9), b0);
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(u0, u1, Some(l(9)));
        (g, q)
    }

    #[test]
    fn single_edge_query() {
        let (g, q) = simple();
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 3);
        assert_eq!(count_matches(&g, &q, MatchSemantics::Isomorphism), 3);
    }

    #[test]
    fn homomorphism_vs_isomorphism() {
        // Query path B <- A -> B can map both Bs to the same data vertex
        // under homomorphism but not isomorphism.
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(9), b);
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        let u1 = q.add_vertex(LabelSet::single(l(1)));
        let u2 = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(u0, u1, Some(l(9)));
        q.add_edge(u0, u2, Some(l(9)));
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 1);
        assert_eq!(count_matches(&g, &q, MatchSemantics::Isomorphism), 0);
    }

    #[test]
    fn triangle_query() {
        let mut g = DynamicGraph::new();
        let v: Vec<_> = (0..4).map(|_| g.add_vertex(LabelSet::empty())).collect();
        // One directed triangle 0->1->2->0 plus a distractor edge 0->3.
        g.insert_edge(v[0], l(0), v[1]);
        g.insert_edge(v[1], l(0), v[2]);
        g.insert_edge(v[2], l(0), v[0]);
        g.insert_edge(v[0], l(0), v[3]);
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::empty());
        let b = q.add_vertex(LabelSet::empty());
        let c = q.add_vertex(LabelSet::empty());
        q.add_edge(a, b, None);
        q.add_edge(b, c, None);
        q.add_edge(c, a, None);
        // Three rotations of the triangle.
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 3);
        assert_eq!(count_matches(&g, &q, MatchSemantics::Isomorphism), 3);
    }

    #[test]
    fn self_loop_query() {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::empty());
        let b = g.add_vertex(LabelSet::empty());
        g.insert_edge(a, l(0), a);
        g.insert_edge(a, l(0), b);
        let mut q = QueryGraph::new();
        let u = q.add_vertex(LabelSet::empty());
        q.add_edge(u, u, None);
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 1);
    }

    #[test]
    fn early_abort() {
        let (g, q) = simple();
        let mut seen = 0;
        let res = enumerate_matches(&g, &q, MatchSemantics::Homomorphism, &mut |_| {
            seen += 1;
            seen < 2
        });
        assert_eq!(res.matches, 2);
        assert!(!res.completed);
    }

    #[test]
    fn match_set_contents() {
        let (g, q) = simple();
        let set = match_set(&g, &q, MatchSemantics::Homomorphism);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&MatchRecord::new(vec![VertexId(0), VertexId(2)])));
        assert!(set.contains(&MatchRecord::new(vec![VertexId(0), VertexId(3)])));
        assert!(set.contains(&MatchRecord::new(vec![VertexId(1), VertexId(2)])));
    }

    #[test]
    fn wildcard_vertex_and_edge_labels() {
        let (g, q0) = simple();
        let _ = q0;
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::empty());
        let u1 = q.add_vertex(LabelSet::empty());
        q.add_edge(u0, u1, None);
        // every data edge matches: 3
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 3);
    }

    /// Both extension strategies must enumerate the same match set — the
    /// intersection path only pre-applies checks `joinable` would make.
    #[test]
    fn strategies_agree_on_random_graph() {
        let mut state = 0x9e37_79b9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut g = DynamicGraph::new();
        let n = 40u64;
        for i in 0..n {
            g.add_vertex(LabelSet::single(l((i % 3) as u32)));
        }
        for _ in 0..300 {
            let s = VertexId((rng() % n) as u32);
            let d = VertexId((rng() % n) as u32);
            let lab = l((rng() % 3) as u32);
            if !g.has_edge(s, lab, d) {
                g.insert_edge(s, lab, d);
            }
        }

        // Labeled triangle, wildcard path, and a diamond with a repeated
        // label exercise concrete runs, wildcard lists, and dedup.
        let mut queries = Vec::new();
        {
            let mut q = QueryGraph::new();
            let a = q.add_vertex(LabelSet::single(l(0)));
            let b = q.add_vertex(LabelSet::single(l(1)));
            let c = q.add_vertex(LabelSet::empty());
            q.add_edge(a, b, Some(l(0)));
            q.add_edge(b, c, Some(l(1)));
            q.add_edge(c, a, Some(l(2)));
            queries.push(q);
        }
        {
            let mut q = QueryGraph::new();
            let a = q.add_vertex(LabelSet::empty());
            let b = q.add_vertex(LabelSet::empty());
            let c = q.add_vertex(LabelSet::empty());
            q.add_edge(a, b, None);
            q.add_edge(b, c, None);
            queries.push(q);
        }
        {
            let mut q = QueryGraph::new();
            let a = q.add_vertex(LabelSet::empty());
            let b = q.add_vertex(LabelSet::single(l(1)));
            let c = q.add_vertex(LabelSet::single(l(2)));
            let d = q.add_vertex(LabelSet::empty());
            q.add_edge(a, b, Some(l(0)));
            q.add_edge(a, c, Some(l(0)));
            q.add_edge(b, d, None);
            q.add_edge(c, d, Some(l(1)));
            queries.push(q);
        }

        for q in &queries {
            for sem in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
                let mut pivot = FxHashSet::default();
                enumerate_matches_with(&g, q, sem, ExtendStrategy::PivotScan, &mut |m| {
                    pivot.insert(m.clone());
                    true
                });
                let mut isect = FxHashSet::default();
                enumerate_matches_with(&g, q, sem, ExtendStrategy::Intersect, &mut |m| {
                    assert!(isect.insert(m.clone()), "intersect path produced a duplicate");
                    true
                });
                assert_eq!(pivot, isect, "strategies disagree ({sem:?})");
            }
        }
    }

    #[test]
    fn no_match_when_labels_absent() {
        let (g, _) = simple();
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(7)));
        let u1 = q.add_vertex(LabelSet::empty());
        q.add_edge(u0, u1, None);
        assert_eq!(count_matches(&g, &q, MatchSemantics::Homomorphism), 0);
    }
}
