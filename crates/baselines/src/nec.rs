//! NEC query compression for SJ-Tree (Appendix B.5).
//!
//! The paper applies TurboISO's \[14\] *neighborhood equivalence class* (NEC)
//! compression to SJ-Tree's query: query leaf vertices with identical label
//! sets hanging off the same neighbor via the same edge label and direction
//! are interchangeable, so the query can be evaluated with one
//! representative per class and the per-class multiplicity recorded. The
//! join tree then has fewer leaves and smaller materialized tables.
//!
//! Match counts over the *original* query are recoverable from the
//! compressed root table: for a fixed assignment of the non-merged
//! vertices, the class members choose independently (homomorphism) from
//! the class's candidate set of size `c`, contributing `c^k` original
//! solutions — or falling-factorial `c·(c−1)···(c−k+1)` under isomorphism.
//! [`NecSjTree::original_match_count`] implements exactly that.
//!
//! As in the paper, few queries compress (only equivalent leaves qualify);
//! [`nec_compress`] returns `None` for incompressible queries.

use rustc_hash::FxHashMap;
use std::time::Instant;
use tfx_graph::LabelSet;
use tfx_graph::{DynamicGraph, LabelId, UpdateOp, VertexId};
use tfx_query::{
    ContinuousMatcher, MatchRecord, MatchSemantics, Positiveness, QVertexId, QueryGraph,
};

use crate::sj_tree::SjTree;

/// The result of compressing a query by neighborhood equivalence classes.
pub struct NecCompression {
    /// The compressed query (one representative per class).
    pub compressed: QueryGraph,
    /// Multiplicity of each compressed vertex (1 for unmerged ones).
    pub multiplicity: Vec<u32>,
    /// Map original query vertex → compressed query vertex.
    pub class_of: Vec<QVertexId>,
}

/// Signature of a mergeable leaf: (labels, neighbor, edge label, leaf is
/// the edge target).
type LeafSig = (LabelSet, QVertexId, Option<LabelId>, bool);

/// Compresses `q` by merging NEC-equivalent leaf vertices. Returns `None`
/// when no two leaves are equivalent (the common case: the paper found
/// only ~9.5% of its tree queries compressible).
pub fn nec_compress(q: &QueryGraph) -> Option<NecCompression> {
    let n = q.vertex_count();
    // A leaf has exactly one incident edge (and no self-loop).
    let mut groups: FxHashMap<LeafSig, Vec<QVertexId>> = FxHashMap::default();
    for u in q.vertices() {
        if q.degree(u) != 1 {
            continue;
        }
        let sig = if let Some(&(w, e)) = q.out_adj(u).first() {
            if w == u {
                continue;
            }
            (q.labels(u).clone(), w, q.edge(e).label, false)
        } else {
            let &(w, e) = q.in_adj(u).first().expect("degree-1 vertex has an edge");
            if w == u {
                continue;
            }
            (q.labels(u).clone(), w, q.edge(e).label, true)
        };
        groups.entry(sig).or_default().push(u);
    }
    if groups.values().all(|g| g.len() < 2) {
        return None;
    }

    // Representative = smallest id of the class; everything else remaps.
    let mut class_rep: Vec<QVertexId> = q.vertices().collect();
    let mut multiplicity_of_rep = vec![1u32; n];
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        let rep = *members.iter().min().expect("non-empty class");
        for &m in members {
            class_rep[m.index()] = rep;
        }
        multiplicity_of_rep[rep.index()] = members.len() as u32;
    }

    // Rebuild the query over the representatives.
    let mut compressed = QueryGraph::new();
    let mut new_id = vec![QVertexId(u32::MAX); n];
    let mut multiplicity = Vec::new();
    for u in q.vertices() {
        if class_rep[u.index()] == u {
            new_id[u.index()] = compressed.add_vertex(q.labels(u).clone());
            multiplicity.push(multiplicity_of_rep[u.index()]);
        }
    }
    let mut seen_edges = rustc_hash::FxHashSet::default();
    for e in q.edges() {
        let s = new_id[class_rep[e.src.index()].index()];
        let d = new_id[class_rep[e.dst.index()].index()];
        if seen_edges.insert((s, d, e.label)) {
            compressed.add_edge(s, d, e.label);
        }
    }
    let class_of = q.vertices().map(|u| new_id[class_rep[u.index()].index()]).collect();
    Some(NecCompression { compressed, multiplicity, class_of })
}

/// SJ-Tree running on the NEC-compressed query.
///
/// `apply` reports *compressed* matches (one per representative
/// assignment); [`NecSjTree::original_match_count`] recovers the original
/// query's complete-match count from the materialized root table.
pub struct NecSjTree {
    inner: SjTree,
    compression: NecCompression,
    semantics: MatchSemantics,
}

impl NecSjTree {
    /// Builds the engine if `q` is compressible; `None` otherwise. The
    /// g0 ingestion runs under `deadline`, as [`SjTree::new`]'s does.
    pub fn try_new(
        q: &QueryGraph,
        g0: DynamicGraph,
        semantics: MatchSemantics,
        deadline: Option<Instant>,
    ) -> Option<Self> {
        let compression = nec_compress(q)?;
        let inner = SjTree::new(compression.compressed.clone(), g0, semantics, deadline);
        Some(NecSjTree { inner, compression, semantics })
    }

    /// The compression in effect.
    pub fn compression(&self) -> &NecCompression {
        &self.compression
    }

    /// The wrapped SJ-Tree.
    pub fn inner(&self) -> &SjTree {
        &self.inner
    }

    /// Number of complete matches of the *original* query represented by
    /// the materialized compressed root table.
    pub fn original_match_count(&mut self) -> u64 {
        let nq = self.compression.compressed.vertex_count();
        let merged: Vec<usize> =
            (0..nq).filter(|&i| self.compression.multiplicity[i] > 1).collect();
        // Group compressed root tuples by the non-merged columns; within a
        // group, class images are independent, so the group is a cross
        // product of per-class candidate sets.
        let mut groups: FxHashMap<Vec<VertexId>, Vec<Vec<VertexId>>> = FxHashMap::default();
        let mut records = Vec::new();
        self.inner.initial_matches(&mut |m| records.push(m.clone()));
        for m in &records {
            let key: Vec<VertexId> = (0..nq)
                .filter(|i| !merged.contains(i))
                .map(|i| m.get(QVertexId(i as u32)))
                .collect();
            let vals: Vec<VertexId> = merged.iter().map(|&i| m.get(QVertexId(i as u32))).collect();
            groups.entry(key).or_default().push(vals);
        }
        let mut total = 0u64;
        for tuples in groups.values() {
            let mut group_total = 1u64;
            for (pos, &col) in merged.iter().enumerate() {
                let mut distinct: Vec<VertexId> = tuples.iter().map(|t| t[pos]).collect();
                distinct.sort_unstable();
                distinct.dedup();
                let c = distinct.len() as u64;
                let k = u64::from(self.compression.multiplicity[col]);
                group_total = group_total.saturating_mul(match self.semantics {
                    MatchSemantics::Homomorphism => c.saturating_pow(k as u32),
                    MatchSemantics::Isomorphism => {
                        // falling factorial c·(c−1)···(c−k+1)
                        (0..k).map(|i| c.saturating_sub(i)).product()
                    }
                });
            }
            total = total.saturating_add(group_total);
        }
        total
    }
}

impl ContinuousMatcher for NecSjTree {
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord)) {
        self.inner.initial_matches(sink);
    }

    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord)) {
        self.inner.apply(op, sink);
    }

    fn intermediate_result_bytes(&self) -> usize {
        self.inner.intermediate_result_bytes()
    }

    fn set_deadline(&mut self, at: Option<Instant>) {
        self.inner.set_deadline(at);
    }

    fn timed_out(&self) -> bool {
        self.inner.timed_out()
    }

    fn name(&self) -> &'static str {
        "SJ-Tree+NEC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;
    use tfx_match::count_matches;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    /// Star query: u0:A with three identical C leaves and one B leaf.
    fn star() -> QueryGraph {
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(LabelSet::single(l(0)));
        for _ in 0..3 {
            let c = q.add_vertex(LabelSet::single(l(2)));
            q.add_edge(u0, c, Some(l(9)));
        }
        let b = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(u0, b, Some(l(9)));
        q
    }

    #[test]
    fn compresses_identical_leaves() {
        let q = star();
        let c = nec_compress(&q).expect("star compresses");
        assert_eq!(c.compressed.vertex_count(), 3, "A + merged C + B");
        assert_eq!(c.compressed.edge_count(), 2);
        let merged_mult: Vec<u32> = c.multiplicity.iter().copied().filter(|&m| m > 1).collect();
        assert_eq!(merged_mult, vec![3]);
    }

    #[test]
    fn incompressible_returns_none() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(a, b, Some(l(9)));
        assert!(nec_compress(&q).is_none());
        // Same labels but different edge labels: not equivalent.
        let mut q2 = QueryGraph::new();
        let a = q2.add_vertex(LabelSet::single(l(0)));
        let b1 = q2.add_vertex(LabelSet::single(l(1)));
        let b2 = q2.add_vertex(LabelSet::single(l(1)));
        q2.add_edge(a, b1, Some(l(8)));
        q2.add_edge(a, b2, Some(l(9)));
        assert!(nec_compress(&q2).is_none());
    }

    #[test]
    fn direction_distinguishes_classes() {
        let mut q = QueryGraph::new();
        let a = q.add_vertex(LabelSet::single(l(0)));
        let b1 = q.add_vertex(LabelSet::single(l(1)));
        let b2 = q.add_vertex(LabelSet::single(l(1)));
        q.add_edge(a, b1, Some(l(9)));
        q.add_edge(b2, a, Some(l(9)));
        assert!(nec_compress(&q).is_none(), "opposite directions never merge");
    }

    fn star_data(n_c: u32) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(LabelSet::single(l(0)));
        let b = g.add_vertex(LabelSet::single(l(1)));
        g.insert_edge(a, l(9), b);
        for _ in 0..n_c {
            let c = g.add_vertex(LabelSet::single(l(2)));
            g.insert_edge(a, l(9), c);
        }
        g
    }

    #[test]
    fn original_count_recovered_homomorphism() {
        let q = star();
        let g = star_data(5);
        let expected = count_matches(&g, &q, MatchSemantics::Homomorphism);
        assert_eq!(expected, 125, "5^3 choices for the C leaves");
        let mut e =
            NecSjTree::try_new(&q, g, MatchSemantics::Homomorphism, None).expect("compresses");
        assert_eq!(e.original_match_count(), expected);
    }

    #[test]
    fn original_count_recovered_isomorphism() {
        let q = star();
        let g = star_data(5);
        let expected = count_matches(&g, &q, MatchSemantics::Isomorphism);
        assert_eq!(expected, 60, "5·4·3 injective choices");
        let mut e =
            NecSjTree::try_new(&q, g, MatchSemantics::Isomorphism, None).expect("compresses");
        assert_eq!(e.original_match_count(), expected);
    }

    #[test]
    fn compressed_tables_are_smaller() {
        let q = star();
        let g = star_data(30);
        let plain = SjTree::new(q.clone(), g.clone(), MatchSemantics::Homomorphism, None);
        let mut nec =
            NecSjTree::try_new(&q, g, MatchSemantics::Homomorphism, None).expect("compresses");
        assert!(
            nec.intermediate_result_bytes() < plain.intermediate_result_bytes(),
            "NEC must shrink the materialized state ({} vs {})",
            nec.intermediate_result_bytes(),
            plain.intermediate_result_bytes()
        );
        // And still represent the same original match count.
        let expected = 30u64.pow(3);
        assert_eq!(nec.original_match_count(), expected);
    }

    #[test]
    fn streaming_updates_keep_counts_consistent() {
        let q = star();
        let g = star_data(3);
        let mut plain = SjTree::new(q.clone(), g.clone(), MatchSemantics::Homomorphism, None);
        let mut nec = NecSjTree::try_new(&q, g.clone(), MatchSemantics::Homomorphism, None)
            .expect("compresses");
        // Stream three more C vertices + edges.
        let mut ops = Vec::new();
        for i in 0..3u32 {
            let id = VertexId(g.vertex_count() as u32 + i);
            ops.push(UpdateOp::AddVertex { id, labels: LabelSet::single(l(2)) });
            ops.push(UpdateOp::InsertEdge { src: VertexId(0), label: l(9), dst: id });
        }
        for op in &ops {
            plain.apply(op, &mut |_, _| {});
            nec.apply(op, &mut |_, _| {});
        }
        let mut plain_count = 0u64;
        plain.initial_matches(&mut |_| plain_count += 1);
        assert_eq!(plain_count, 6u64.pow(3));
        assert_eq!(nec.original_match_count(), plain_count);
    }
}
