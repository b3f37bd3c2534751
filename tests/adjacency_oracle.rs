//! Randomized oracle for the label-partitioned adjacency index.
//!
//! A deterministic Pcg32 stream of interleaved edge inserts and deletes —
//! on few vertices with many labels, so degrees repeatedly cross the
//! `FLAT_MAX` flat↔directory boundary in both directions and every arena
//! size class below it — is applied to both a [`DynamicGraph`] and a
//! trivially-correct flat reference model. Every reader (the full walk,
//! label groups, the wildcard collector, degrees, label runs, edge
//! predicates) must agree with the reference at every step, on both sides;
//! every label group and the collector must equal the label filter of the
//! full walk, which never locates a group; the arena must stay exactly
//! tiled, and a `clone()` must read the same.

use turboflux::datagen::Pcg32;
use turboflux::graph::FLAT_MAX;
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
    for (dir, refl) in [(Dir::Out, &r.out[v.index()]), (Dir::In, &r.inc[v.index()])] {
        let full: Vec<(VertexId, LabelId)> = g.neighbors(v, dir).collect();
        let want: Vec<(VertexId, LabelId)> = refl.iter().map(|&(l, w)| (w, l)).collect();
        assert_eq!(full, want, "{dir:?}-neighbors of {v:?} in (label, neighbor) order");
        assert_eq!(g.degree(v, dir), refl.len(), "{dir:?}-degree of {v:?}");
        let mut runs: Vec<(LabelId, usize)> = Vec::new();
        for &(l, _) in refl {
            match runs.last_mut() {
                Some((rl, n)) if *rl == l => *n += 1,
                _ => runs.push((l, 1)),
            }
        }
        assert!(g.label_runs(v, dir).eq(runs), "{dir:?}-label runs of {v:?}");

        // Every group is the label filter of the full walk, and the
        // reference's.
        for &l in labels {
            let filtered: Vec<VertexId> =
                full.iter().filter(|&&(_, fl)| fl == l).map(|&(w, _)| w).collect();
            let want: Vec<VertexId> =
                refl.iter().filter(|&&(gl, _)| gl == l).map(|&(_, w)| w).collect();
            assert_eq!(g.group(v, dir, l), &filtered[..], "{dir:?}-group {l:?} of {v:?}");
            assert_eq!(filtered, want, "{dir:?}-group {l:?} of {v:?} against the reference");
        }

        // The wildcard collector: the walk's ids (all, or those `keep`
        // takes) sorted and each once, appended after what `buf` holds.
        for odd in [false, true] {
            let keep = |w: VertexId| !odd || w.0 % 2 == 1;
            let mut want: Vec<VertexId> =
                refl.iter().map(|&(_, w)| w).filter(|&w| keep(w)).collect();
            want.sort_unstable();
            want.dedup();
            let mut filtered: Vec<VertexId> =
                full.iter().map(|&(w, _)| w).filter(|&w| keep(w)).collect();
            filtered.sort_unstable();
            filtered.dedup();
            assert_eq!(filtered, want);
            let mut got = vec![VertexId(u32::MAX)];
            g.collect_any(v, dir, keep, &mut got);
            assert_eq!(got[0], VertexId(u32::MAX), "the collector kept the prefix");
            assert_eq!(got[1..], want[..], "collector: {dir:?} {v:?}, odd ids only: {odd}");
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
            let was_directory = g.is_directory(src, Dir::Out);
            if g.insert_edge(src, l, dst) {
                r.insert(src, l, dst);
                live.push((src, l, dst));
                unfolded += usize::from(!was_directory && g.is_directory(src, Dir::Out));
                let now = g.is_directory(src, Dir::Out);
                assert_eq!(now, was_directory || g.degree(src, Dir::Out) > FLAT_MAX);
            }
        } else {
            let (src, l, dst) = live.swap_remove(rng.below(live.len()));
            let was_directory = g.is_directory(src, Dir::Out);
            deleted_from_directory += usize::from(was_directory);
            assert!(g.delete_edge(src, l, dst));
            r.remove(src, l, dst);
            folded += usize::from(was_directory && !g.is_directory(src, Dir::Out));
            drained += usize::from(g.degree(src, Dir::Out) == 0);
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
