//! Query workload generators (§5.1 and Appendix B.6).
//!
//! * Tree queries: random traversal of the schema graph, attaching one
//!   schema-compatible triple at a time (query size = number of triples).
//! * Smaller tree queries: random edge removal keeping connectivity.
//! * Graph (cyclic) queries: a schema-compatible cycle of length 3/4/5
//!   (triangle / square / pentagon) grown to the target size with random
//!   triples.
//! * Path and complete-binary-tree queries: the querysets of the SJ-Tree
//!   paper \[7\] used for Appendix B.6.

use tfx_query::{QVertexId, QueryGraph};

use crate::rng::Pcg32;
use crate::schema::{Relation, Schema};

/// Configuration for building query sets.
#[derive(Clone, Debug)]
pub struct QueryGenConfig {
    /// Base RNG seed; query `i` of a set uses `seed + i`.
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig { seed: 42 }
    }
}

struct Builder {
    q: QueryGraph,
    types: Vec<usize>,
}

impl Builder {
    fn new() -> Self {
        Builder { q: QueryGraph::new(), types: Vec::new() }
    }

    fn add_vertex(&mut self, schema: &Schema, ty: usize) -> QVertexId {
        self.types.push(ty);
        self.q.add_vertex(schema.type_label_set(ty))
    }

    /// Attaches a new vertex to `at` via a random schema relation incident
    /// to `at`'s type. Returns the new vertex.
    fn attach(&mut self, schema: &Schema, at: QVertexId, rng: &mut Pcg32) -> QVertexId {
        let ty = self.types[at.index()];
        let rels = schema.incident_relations(ty);
        let r = *rng.pick(&rels);
        // A self-relation can extend in either direction.
        let outward =
            if r.src_type == ty && r.dst_type == ty { rng.below(2) == 0 } else { r.src_type == ty };
        if outward {
            let nv = self.add_vertex(schema, r.dst_type);
            self.q.add_edge_dedup(at, nv, Some(r.label));
            nv
        } else {
            let nv = self.add_vertex(schema, r.src_type);
            self.q.add_edge_dedup(nv, at, Some(r.label));
            nv
        }
    }
}

// QueryGraph rejects duplicate edges; trees attach fresh vertices so
// duplicates cannot occur, but cyclic growth can collide. A tolerant
// extension trait keeps the generators simple.
trait AddEdgeDedup {
    fn add_edge_dedup(
        &mut self,
        src: QVertexId,
        dst: QVertexId,
        label: Option<tfx_graph::LabelId>,
    ) -> bool;
}

impl AddEdgeDedup for QueryGraph {
    fn add_edge_dedup(
        &mut self,
        src: QVertexId,
        dst: QVertexId,
        label: Option<tfx_graph::LabelId>,
    ) -> bool {
        if self.edges().iter().any(|e| e.src == src && e.dst == dst && e.label == label) {
            return false;
        }
        self.add_edge(src, dst, label);
        true
    }
}

/// A random tree query of `size` triples by schema traversal.
pub fn random_tree_query(schema: &Schema, size: usize, rng: &mut Pcg32) -> QueryGraph {
    assert!(size >= 1);
    let mut b = Builder::new();
    let r = *rng.pick(schema.relations());
    let s = b.add_vertex(schema, r.src_type);
    let d = b.add_vertex(schema, r.dst_type);
    b.q.add_edge(s, d, Some(r.label));
    while b.q.edge_count() < size {
        let at = QVertexId(rng.below(b.q.vertex_count()) as u32);
        b.attach(schema, at, rng);
    }
    b.q
}

/// A random path query of `size` triples (the path queryset of \[7\]).
pub fn random_path_query(schema: &Schema, size: usize, rng: &mut Pcg32) -> QueryGraph {
    assert!(size >= 1);
    let mut b = Builder::new();
    let r = *rng.pick(schema.relations());
    let s = b.add_vertex(schema, r.src_type);
    let d = b.add_vertex(schema, r.dst_type);
    b.q.add_edge(s, d, Some(r.label));
    let mut tail = d;
    while b.q.edge_count() < size {
        tail = b.attach(schema, tail, rng);
    }
    b.q
}

/// A complete-binary-tree query of `size` triples (the tree queryset of
/// \[7\]): vertex `i`'s parent is vertex `(i-1)/2`.
pub fn random_binary_tree_query(schema: &Schema, size: usize, rng: &mut Pcg32) -> QueryGraph {
    assert!(size >= 1);
    let mut b = Builder::new();
    let r = *rng.pick(schema.relations());
    let root = b.add_vertex(schema, r.src_type);
    let _ = root;
    while b.q.edge_count() < size {
        let next = b.q.vertex_count() as u32; // vertex about to be created
        let parent = QVertexId((next - 1) / 2);
        b.attach(schema, parent, rng);
    }
    b.q
}

/// A cyclic query: a schema-compatible undirected cycle of `cycle_len`
/// (3 = triangle, 4 = square, 5 = pentagon) grown with random triples to
/// `size` total. Returns `None` if no schema cycle of that length was
/// found within the attempt budget.
pub fn random_cyclic_query(
    schema: &Schema,
    cycle_len: usize,
    size: usize,
    rng: &mut Pcg32,
) -> Option<QueryGraph> {
    assert!(cycle_len >= 3 && size >= cycle_len);
    'attempt: for _ in 0..200 {
        // Random undirected walk over the type graph of length cycle_len-1,
        // then close the cycle with a compatible relation.
        let start_ty = rng.below(schema.type_count());
        let mut b = Builder::new();
        let v0 = b.add_vertex(schema, start_ty);
        let mut cur = v0;
        let mut cur_ty = start_ty;
        let mut walk: Vec<(Relation, bool)> = Vec::new(); // (relation, walked src→dst)
        for _ in 0..cycle_len - 1 {
            let rels = schema.incident_relations(cur_ty);
            if rels.is_empty() {
                continue 'attempt;
            }
            let r = *rng.pick(&rels);
            let forward = if r.src_type == cur_ty && r.dst_type == cur_ty {
                rng.below(2) == 0
            } else {
                r.src_type == cur_ty
            };
            let next_ty = if forward { r.dst_type } else { r.src_type };
            let nv = b.add_vertex(schema, next_ty);
            if forward {
                b.q.add_edge(cur, nv, Some(r.label));
            } else {
                b.q.add_edge(nv, cur, Some(r.label));
            }
            walk.push((r, forward));
            cur = nv;
            cur_ty = next_ty;
        }
        // Close back to v0.
        let closers: Vec<(Relation, bool)> = schema
            .relations()
            .iter()
            .flat_map(|&r| {
                let mut out = Vec::new();
                if r.src_type == cur_ty && r.dst_type == start_ty {
                    out.push((r, true));
                }
                if r.dst_type == cur_ty && r.src_type == start_ty {
                    out.push((r, false));
                }
                out
            })
            .collect();
        if closers.is_empty() {
            continue 'attempt;
        }
        let (r, forward) = *rng.pick(&closers);
        let added = if forward {
            b.q.add_edge_dedup(cur, v0, Some(r.label))
        } else {
            b.q.add_edge_dedup(v0, cur, Some(r.label))
        };
        if !added {
            continue 'attempt;
        }
        // Grow to the target size.
        let mut guard = 0;
        while b.q.edge_count() < size && guard < 200 {
            guard += 1;
            let at = QVertexId(rng.below(b.q.vertex_count()) as u32);
            b.attach(schema, at, rng);
        }
        if b.q.edge_count() == size {
            return Some(b.q);
        }
    }
    None
}

/// Randomly removes edges until `q` has `target_size` triples, keeping it
/// connected (the paper derives smaller tree queries from the size-12
/// set this way). Returns `None` if the target cannot be reached.
pub fn shrink_query(q: &QueryGraph, target_size: usize, rng: &mut Pcg32) -> Option<QueryGraph> {
    assert!(target_size >= 1);
    let edges: Vec<usize> = (0..q.edge_count()).collect();
    let mut keep: Vec<bool> = vec![true; q.edge_count()];
    let mut remaining = q.edge_count();
    let mut guard = 0;
    while remaining > target_size && guard < 10_000 {
        guard += 1;
        let i = *rng.pick(&edges);
        if !keep[i] {
            continue;
        }
        keep[i] = false;
        if rebuild(q, &keep).is_some() {
            remaining -= 1;
        } else {
            keep[i] = true; // removal would disconnect (or isolate)
        }
    }
    if remaining == target_size {
        rebuild(q, &keep)
    } else {
        None
    }
}

/// Rebuilds the subquery induced by the kept edges (dropping isolated
/// vertices); `None` if disconnected.
fn rebuild(q: &QueryGraph, keep: &[bool]) -> Option<QueryGraph> {
    let mut used = vec![false; q.vertex_count()];
    for (i, e) in q.edges().iter().enumerate() {
        if keep[i] {
            used[e.src.index()] = true;
            used[e.dst.index()] = true;
        }
    }
    let mut remap = vec![u32::MAX; q.vertex_count()];
    let mut out = QueryGraph::new();
    for u in q.vertices() {
        if used[u.index()] {
            let nu = out.add_vertex(q.labels(u).clone());
            remap[u.index()] = nu.0;
        }
    }
    if out.vertex_count() == 0 {
        return None;
    }
    for (i, e) in q.edges().iter().enumerate() {
        if keep[i] {
            out.add_edge(QVertexId(remap[e.src.index()]), QVertexId(remap[e.dst.index()]), e.label);
        }
    }
    if out.is_connected() {
        Some(out)
    } else {
        None
    }
}

/// Builds a set of `n` queries via `make` (one derived seed per query),
/// skipping failed generations.
pub fn query_set(
    n: usize,
    cfg: &QueryGenConfig,
    mut make: impl FnMut(&mut Pcg32) -> Option<QueryGraph>,
) -> Vec<QueryGraph> {
    let mut out = Vec::with_capacity(n);
    let mut attempt = 0u64;
    while out.len() < n && attempt < (n as u64) * 50 {
        let mut rng = Pcg32::with_stream(cfg.seed.wrapping_add(attempt), 0x9E37);
        attempt += 1;
        if let Some(q) = make(&mut rng) {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{netflow_schema, social_schema};
    use tfx_graph::LabelInterner;

    fn schemas() -> (Schema, Schema) {
        let mut it = LabelInterner::new();
        let social = social_schema(&mut it);
        let netflow = netflow_schema(&mut it);
        (social, netflow)
    }

    #[test]
    fn tree_queries_are_trees() {
        let (social, netflow) = schemas();
        for schema in [&social, &netflow] {
            for size in [1, 3, 6, 9, 12] {
                let mut rng = Pcg32::new(size as u64);
                let q = random_tree_query(schema, size, &mut rng);
                assert_eq!(q.edge_count(), size);
                assert_eq!(q.vertex_count(), size + 1, "a tree has size+1 vertices");
                assert!(q.is_connected());
            }
        }
    }

    #[test]
    fn tree_query_labels_respect_schema() {
        let (social, _) = schemas();
        let mut rng = Pcg32::new(9);
        let q = random_tree_query(&social, 8, &mut rng);
        // every edge label belongs to a schema relation whose endpoint
        // types match the vertex labels
        for e in q.edges() {
            let rel = social
                .relations()
                .iter()
                .find(|r| Some(r.label) == e.label)
                .expect("edge label from schema");
            assert_eq!(q.labels(e.src), &social.type_label_set(rel.src_type));
            assert_eq!(q.labels(e.dst), &social.type_label_set(rel.dst_type));
        }
    }

    #[test]
    fn path_queries_are_paths() {
        let (social, _) = schemas();
        let mut rng = Pcg32::new(4);
        let q = random_path_query(&social, 5, &mut rng);
        assert_eq!(q.edge_count(), 5);
        assert_eq!(q.vertex_count(), 6);
        // no vertex has undirected degree > 2
        assert!(q.vertices().all(|u| q.degree(u) <= 2));
    }

    #[test]
    fn binary_tree_queries_have_heap_shape() {
        let (social, _) = schemas();
        let mut rng = Pcg32::new(4);
        let q = random_binary_tree_query(&social, 6, &mut rng);
        assert_eq!(q.edge_count(), 6);
        assert_eq!(q.vertex_count(), 7);
        // every vertex has at most 2 children ⇒ degree ≤ 3
        assert!(q.vertices().all(|u| q.degree(u) <= 3));
        assert!(q.is_connected());
    }

    #[test]
    fn cyclic_queries_contain_a_cycle() {
        let (social, netflow) = schemas();
        for schema in [&social, &netflow] {
            for len in [3, 4, 5] {
                let mut rng = Pcg32::new(100 + len as u64);
                let q = random_cyclic_query(schema, len, len + 3, &mut rng)
                    .expect("cycle should be found");
                assert_eq!(q.edge_count(), len + 3);
                assert!(q.is_connected());
                assert!(
                    q.edge_count() >= q.vertex_count(),
                    "cyclic query has at least as many edges as vertices"
                );
            }
        }
    }

    #[test]
    fn shrink_preserves_connectivity() {
        let (social, _) = schemas();
        let mut rng = Pcg32::new(77);
        let q12 = random_tree_query(&social, 12, &mut rng);
        for target in [9, 6, 3] {
            let q = shrink_query(&q12, target, &mut rng).expect("shrinkable");
            assert_eq!(q.edge_count(), target);
            assert!(q.is_connected());
        }
    }

    #[test]
    fn query_set_is_deterministic() {
        let (social, _) = schemas();
        let cfg = QueryGenConfig { seed: 5 };
        let a = query_set(10, &cfg, |rng| Some(random_tree_query(&social, 6, rng)));
        let b = query_set(10, &cfg, |rng| Some(random_tree_query(&social, 6, rng)));
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }
}
