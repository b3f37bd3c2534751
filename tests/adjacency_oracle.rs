//! Randomized oracle for the label-partitioned adjacency index.
//!
//! A deterministic Pcg32 stream of interleaved edge inserts and deletes —
//! on few vertices with many labels, so degrees repeatedly cross the
//! `FLAT_MAX` flat↔directory boundary in both directions and every arena
//! size class below it — is applied to both a [`DynamicGraph`] and a
//! trivially-correct flat reference model. Every accessor (full / labeled /
//! mode-filtered neighbor iteration, degrees, label membership, edge
//! predicates) must agree with the reference at every step, the two
//! [`AdjacencyMode`]s must agree with each other, the arena must stay
//! exactly tiled, and a `clone()` must read the same.

use turboflux::datagen::Pcg32;
use turboflux::graph::{AdjacencyMode, FLAT_MAX};
use turboflux::prelude::*;

/// Flat reference adjacency: per-vertex `(label, neighbor)` lists kept in
/// the same `(label, neighbor)` sort order the index promises.
#[derive(Default)]
struct Reference {
    out: Vec<Vec<(LabelId, VertexId)>>,
    inc: Vec<Vec<(LabelId, VertexId)>>,
}

impl Reference {
    fn with_vertices(n: usize) -> Self {
        Reference { out: vec![Vec::new(); n], inc: vec![Vec::new(); n] }
    }

    fn insert(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        self.out[src.index()].push((label, dst));
        self.out[src.index()].sort_unstable();
        self.inc[dst.index()].push((label, src));
        self.inc[dst.index()].sort_unstable();
    }

    fn remove(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        self.out[src.index()].retain(|&e| e != (label, dst));
        self.inc[dst.index()].retain(|&e| e != (label, src));
    }
}

fn check_vertex(g: &DynamicGraph, r: &Reference, v: VertexId, labels: &[LabelId]) {
    for (dir, refl) in [("out", &r.out[v.index()]), ("in", &r.inc[v.index()])] {
        let full: Vec<(VertexId, LabelId)> =
            if dir == "out" { g.out_neighbors(v).collect() } else { g.in_neighbors(v).collect() };
        let want: Vec<(VertexId, LabelId)> = refl.iter().map(|&(l, w)| (w, l)).collect();
        assert_eq!(full, want, "{dir}-neighbors of {v:?} in (label, neighbor) order");
        let deg = if dir == "out" { g.out_degree(v) } else { g.in_degree(v) };
        assert_eq!(deg, refl.len(), "{dir}-degree of {v:?}");

        for &l in labels {
            let group: Vec<VertexId> = if dir == "out" {
                g.out_neighbors_labeled(v, l).collect()
            } else {
                g.in_neighbors_labeled(v, l).collect()
            };
            let want: Vec<VertexId> =
                refl.iter().filter(|&&(gl, _)| gl == l).map(|&(_, w)| w).collect();
            assert_eq!(group, want, "{dir}-group {l:?} of {v:?}");
            let (dl, has) = if dir == "out" {
                (g.out_degree_labeled(v, l), g.has_out_label(v, l))
            } else {
                (g.in_degree_labeled(v, l), g.has_in_label(v, l))
            };
            assert_eq!(dl, want.len());
            assert_eq!(has, !want.is_empty());
        }

        // Both access modes agree, for concrete labels and the wildcard.
        for qlabel in labels.iter().copied().map(Some).chain([None]) {
            let (indexed, flat): (Vec<VertexId>, Vec<VertexId>) = if dir == "out" {
                (
                    g.out_neighbors_matching(v, qlabel, AdjacencyMode::Indexed).collect(),
                    g.out_neighbors_matching(v, qlabel, AdjacencyMode::FlatScan).collect(),
                )
            } else {
                (
                    g.in_neighbors_matching(v, qlabel, AdjacencyMode::Indexed).collect(),
                    g.in_neighbors_matching(v, qlabel, AdjacencyMode::FlatScan).collect(),
                )
            };
            assert_eq!(indexed, flat, "mode disagreement: {dir} {v:?} {qlabel:?}");
            let want: Vec<VertexId> = refl
                .iter()
                .filter(|&&(gl, _)| qlabel.is_none_or(|ql| ql == gl))
                .map(|&(_, w)| w)
                .collect();
            assert_eq!(indexed, want, "matching-iterator: {dir} {v:?} {qlabel:?}");
        }
    }
}

#[test]
fn partitioned_adjacency_matches_flat_reference() {
    let nv = 6usize;
    let labels: Vec<LabelId> = (0..10).map(LabelId).collect();
    let mut rng = Pcg32::new(0xAD7_ACE);
    let mut g = DynamicGraph::new();
    for _ in 0..nv {
        g.add_vertex(LabelSet::empty());
    }
    let mut r = Reference::with_vertices(nv);
    let mut live: Vec<(VertexId, LabelId, VertexId)> = Vec::new();
    let (mut unfolded, mut folded, mut drained) = (0usize, 0usize, 0usize);
    let mut deleted_from_directory = 0usize;

    for step in 0..4000 {
        // Phased bias so degrees sweep up through the directory boundary,
        // back down below the fold point (some runs to empty), and up again.
        let insert_bias = match step / 1000 {
            0 | 2 => 8,
            _ => 2,
        };
        if live.is_empty() || rng.below(10) < insert_bias {
            let src = VertexId(rng.below(nv) as u32);
            let dst = VertexId(rng.below(nv) as u32);
            let l = labels[rng.below(labels.len())];
            let was_directory = g.out_is_directory(src);
            if g.insert_edge(src, l, dst) {
                r.insert(src, l, dst);
                live.push((src, l, dst));
                unfolded += usize::from(!was_directory && g.out_is_directory(src));
                assert_eq!(g.out_is_directory(src), was_directory || g.out_degree(src) > FLAT_MAX);
            }
        } else {
            let (src, l, dst) = live.swap_remove(rng.below(live.len()));
            let was_directory = g.out_is_directory(src);
            deleted_from_directory += usize::from(was_directory);
            assert!(g.delete_edge(src, l, dst));
            r.remove(src, l, dst);
            folded += usize::from(was_directory && !g.out_is_directory(src));
            drained += usize::from(g.out_degree(src) == 0);
        }
        if step % 50 == 0 || step + 1 == 4000 {
            g.validate();
            let copy = g.clone();
            copy.validate();
            for v in 0..nv {
                check_vertex(&g, &r, VertexId(v as u32), &labels);
                check_vertex(&copy, &r, VertexId(v as u32), &labels);
            }
            assert!(copy.edges().eq(g.edges()));
            for &(src, l, dst) in &live {
                assert!(g.has_edge(src, l, dst));
                assert!(g.has_edge_matching(src, dst, Some(l)));
                assert!(g.has_edge_matching(src, dst, None));
                let want = r.out[src.index()].iter().filter(|&&e| e == (l, dst)).count();
                assert_eq!(g.count_edges_matching(src, dst, Some(l)), want);
            }
        }
    }
    assert!(unfolded >= 8 && folded >= 4, "only {unfolded} unfolds and {folded} folds exercised");
    assert!(drained >= 1, "no run was drained to empty");
    assert!(
        deleted_from_directory >= 100,
        "only {deleted_from_directory} deletions hit directory vertices"
    );
}
