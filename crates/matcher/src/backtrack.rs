//! Backtracking enumeration of homomorphisms / isomorphisms, and the one
//! static extension step every static matcher binds a vertex with.

use std::borrow::Cow;

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

/// True iff `m[u] = v` keeps the partial mapping `m` a match: every query
/// edge between `u` and a bound vertex, and every self-loop on `u`, has a
/// matching data edge, and under isomorphism no other query vertex is bound
/// to `v` (one scan of `m`). `m[u]` itself may already be `v`.
pub fn joinable(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
    m: &[Option<VertexId>],
    u: QVertexId,
    v: VertexId,
) -> bool {
    if semantics == MatchSemantics::Isomorphism
        && m.iter().enumerate().any(|(w, &mv)| mv == Some(v) && w != u.index())
    {
        return false;
    }
    let outs = q.out_adj(u).iter().all(|&(w, e)| {
        let to = if w == u { Some(v) } else { m[w.index()] };
        to.is_none_or(|mw| g.has_edge_matching(v, mw, q.edge(e).label))
    });
    // A self-loop is an out-edge too, checked above.
    outs && q.in_adj(u).iter().all(|&(w, e)| {
        w == u || m[w.index()].is_none_or(|mw| g.has_edge_matching(mw, v, q.edge(e).label))
    })
}

/// The extension step (Generic-Join style): the candidates for the unbound
/// `u` under the partial mapping `m`, as the intersection of every bound
/// neighbor's adjacency run, smallest first, through the graph crate's
/// merge/gallop kernels. Sorted and duplicate-free; empty when no neighbor
/// of `u` is bound.
///
/// Membership in the run of `m(w)` for a query edge between `u` and `w` is
/// the `has_edge_matching` probe [`joinable`] makes for that edge, so the
/// step drops only candidates `joinable` rejects; self-loops, injectivity
/// and vertex labels are left to the caller.
pub fn extend(
    g: &DynamicGraph,
    q: &QueryGraph,
    m: &[Option<VertexId>],
    u: QVertexId,
) -> Vec<VertexId> {
    // Edge w -> u: candidates are out-neighbors of m(w); u -> w: in-neighbors.
    let ins = q.in_adj(u).iter().map(|&(w, e)| (w, e, true));
    let outs = q.out_adj(u).iter().map(|&(w, e)| (w, e, false));
    let mut sources: Vec<Cow<'_, [VertexId]>> = Vec::new();
    for (w, e, follow_out) in ins.chain(outs) {
        let Some(mw) = m[w.index()] else { continue };
        sources.push(match q.edge(e).label {
            Some(l) if follow_out => Cow::Borrowed(g.out_neighbors_labeled(mw, l).as_id_slice()),
            Some(l) => Cow::Borrowed(g.in_neighbors_labeled(mw, l).as_id_slice()),
            None => {
                // A wildcard repeats neighbors across label groups.
                let mut ids: Vec<VertexId> = if follow_out {
                    g.out_neighbors_matching(mw, None, AdjacencyMode::Indexed).collect()
                } else {
                    g.in_neighbors_matching(mw, None, AdjacencyMode::Indexed).collect()
                };
                ids.sort_unstable();
                ids.dedup();
                Cow::Owned(ids)
            }
        });
    }
    // Smallest-first keeps every intermediate no larger than the smallest
    // source and lets the gallop kernel exploit size skew.
    sources.sort_by_key(|s| s.len());
    let Some((first, rest)) = sources.split_first() else { return Vec::new() };
    let mut cur = first.to_vec();
    let mut tmp = Vec::new();
    for s in rest {
        if cur.is_empty() {
            break;
        }
        tmp.clear();
        intersect_into(&cur, s, &mut tmp);
        std::mem::swap(&mut cur, &mut tmp);
    }
    cur
}

struct Search<'a> {
    g: &'a DynamicGraph,
    q: &'a QueryGraph,
    semantics: MatchSemantics,
    order: Vec<QVertexId>,
    /// One precomputed neighborhood filter per query vertex (indexed by
    /// `u.index()`), so per-candidate checks don't rebuild label lists.
    filters: Vec<NeighborhoodFilter>,
    mapping: Vec<Option<VertexId>>,
    found: u64,
}

impl Search<'_> {
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
            extend(self.g, self.q, &self.mapping, u)
        };
        for v in cands {
            if !self.filters[u.index()].matches(self.g, v)
                || !joinable(self.g, self.q, self.semantics, &self.mapping, u, v)
            {
                continue;
            }
            self.mapping[u.index()] = Some(v);
            let keep_going = self.recurse(depth + 1, sink);
            self.mapping[u.index()] = None;
            if !keep_going {
                return false;
            }
        }
        true
    }
}

/// Enumerates every match of `q` in `g` under `semantics`, streaming each
/// into `sink`. The sink returns `false` to abort the search early.
pub fn enumerate_matches(
    g: &DynamicGraph,
    q: &QueryGraph,
    semantics: MatchSemantics,
    sink: &mut dyn FnMut(&MatchRecord) -> bool,
) -> Enumeration {
    let order = matching_order(g, q);
    let filters = q.vertices().map(|u| NeighborhoodFilter::new(q, u)).collect();
    let mut search =
        Search { g, q, semantics, order, filters, mapping: vec![None; q.vertex_count()], found: 0 };
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

    /// A xorshift stream: the tests' only randomness.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `n` vertices labeled `i % 3` and up to `edges` random edges over
    /// three labels, self-loops included.
    fn random_graph(rng: &mut impl FnMut() -> u64, n: u64, edges: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for i in 0..n {
            g.add_vertex(LabelSet::single(l((i % 3) as u32)));
        }
        for _ in 0..edges {
            let s = VertexId((rng() % n) as u32);
            let d = VertexId((rng() % n) as u32);
            let lab = l((rng() % 3) as u32);
            if !g.has_edge(s, lab, d) {
                g.insert_edge(s, lab, d);
            }
        }
        g
    }

    /// Every match by brute force: binds query vertices in id order to every
    /// data vertex, checking labels, every query edge among bound vertices
    /// and, under isomorphism, injectivity. Shares no code with the
    /// extension step.
    fn naive_matches(
        g: &DynamicGraph,
        q: &QueryGraph,
        sem: MatchSemantics,
        m: &mut Vec<Option<VertexId>>,
        out: &mut FxHashSet<MatchRecord>,
    ) {
        let Some(u) = m.iter().position(Option::is_none) else {
            out.insert(MatchRecord::from_partial(m));
            return;
        };
        for v in g.vertices() {
            if !q.labels(QVertexId(u as u32)).is_subset_of(g.labels(v))
                || (sem == MatchSemantics::Isomorphism && m.contains(&Some(v)))
            {
                continue;
            }
            m[u] = Some(v);
            let edges_hold =
                q.edges().iter().all(|qe| match (m[qe.src.index()], m[qe.dst.index()]) {
                    (Some(s), Some(d)) => g.has_edge_matching(s, d, qe.label),
                    _ => true,
                });
            if edges_hold {
                naive_matches(g, q, sem, m, out);
            }
            m[u] = None;
        }
    }

    /// `enumerate_matches` finds exactly the naive reference's match set, each
    /// match once.
    #[test]
    fn strategies_agree_on_random_graph() {
        let mut rng = xorshift(0x9e37_79b9);
        let g = random_graph(&mut rng, 40, 300);

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
                let mut naive = FxHashSet::default();
                naive_matches(&g, q, sem, &mut vec![None; q.vertex_count()], &mut naive);
                let mut found = FxHashSet::default();
                enumerate_matches(&g, q, sem, &mut |m| {
                    assert!(found.insert(m.clone()), "enumeration produced a duplicate");
                    true
                });
                assert!(!naive.is_empty() || sem == MatchSemantics::Isomorphism, "{sem:?}");
                assert_eq!(found, naive, "enumeration disagrees with the reference ({sem:?})");
            }
        }
    }

    /// The step as Graphflow takes it: both endpoints of a data edge bound,
    /// `u` adjacent to both. `extend` filtered by `joinable` is exactly the
    /// vertices that carry `u`'s labels and pass `joinable`, in ascending
    /// order, on random graphs with wildcard edges and query self-loops.
    #[test]
    fn extension_step_is_every_joinable_vertex() {
        let mut rng = xorshift(0x51ed_270b);
        let mut hits = 0;
        for _ in 0..40 {
            let g = random_graph(&mut rng, 24, 200);
            // Seed query edge a -l0-> b; u joins both, with a wildcard or a
            // concrete label each way, and may carry a self-loop.
            let mut q = QueryGraph::new();
            let a = q.add_vertex(LabelSet::empty());
            let b = q.add_vertex(LabelSet::empty());
            let labels =
                if rng().is_multiple_of(2) { LabelSet::empty() } else { LabelSet::single(l(1)) };
            let u = q.add_vertex(labels);
            q.add_edge(a, b, Some(l(0)));
            let pick = |r: u64| (r % 4 < 3).then_some(l((r % 4) as u32));
            q.add_edge(a, u, pick(rng()));
            if rng().is_multiple_of(2) {
                q.add_edge(u, b, pick(rng()));
            } else {
                q.add_edge(b, u, pick(rng()));
            }
            if rng().is_multiple_of(2) {
                q.add_edge(u, u, pick(rng()));
            }
            for s in g.vertices() {
                for (d, lab) in g.out_neighbors(s).collect::<Vec<_>>() {
                    if lab != l(0) {
                        continue;
                    }
                    let mut m = vec![None; 3];
                    (m[a.index()], m[b.index()]) = (Some(s), Some(d));
                    for sem in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
                        let join = |v| joinable(&g, &q, sem, &m, u, v);
                        let got: Vec<VertexId> = extend(&g, &q, &m, u)
                            .into_iter()
                            .filter(|&v| q.labels(u).is_subset_of(g.labels(v)) && join(v))
                            .collect();
                        let want: Vec<VertexId> = g
                            .vertices()
                            .filter(|&v| q.labels(u).is_subset_of(g.labels(v)) && join(v))
                            .collect();
                        assert_eq!(got, want, "{sem:?}, seed {s:?}->{d:?}, query {q:?}");
                        hits += want.len();
                    }
                }
            }
        }
        assert!(hits > 1000, "only {hits} joinable candidates: the graphs are too sparse");
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
