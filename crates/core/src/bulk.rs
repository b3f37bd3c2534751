//! Registration: the initial DCG in two sweeps and one count per `(u, v)`.
//!
//! Algorithm 2 (lines 4–5) builds the initial DCG by replaying a start-edge
//! insertion per root candidate through `BuildDCG`. The result is a fixpoint
//! with a declarative definition (Definitions 4 / 5, [`crate::spec`]), and
//! over a graph that does not change it can be had directly, as SymBi builds
//! its index over the query DAG:
//!
//! * **top-down**, in BFS order of the query tree, the *path condition*:
//!   `reached[u]` is the set of data vertices with a stored edge labeled `u`
//!   coming in — the label-matching vertices for `u_s`, and for a
//!   child `uc` of `u` every child candidate of a vertex in `reached[u]`;
//! * **bottom-up**, in reverse order, the *subtree condition*: `v ∈
//!   reached[u]` enters `expl[u]` iff every child `uc` of `u` has a
//!   candidate of `v` in `expl[uc]`.
//!
//! The two sets are the DCG's bits ([`crate::dcg`]); what is left are its
//! counts. The explicit children of `(uc, v)` are `v`'s label group under
//! `expl[uc]` — the bottom-up sweep counts them as it decides `v` — and the
//! stored parents of `(u, w)` are `w`'s reverse label group under
//! `reached[P(u)]`. One table insert per `(u, v)` with a nonzero count, into
//! tables sized by the first sweep where they can be; nothing per edge.
//!
//! `BuildDCG` ([`TurboFlux::build_dcg`]) stays what the paper defines it as,
//! the update-time Algorithm 3; replayed per root candidate it is this
//! module's oracle in `crate::tests`.

use tfx_graph::{AdjacencyMode, DynamicGraph};

use crate::dcg::Bits;
use crate::engine::TurboFlux;
use crate::tree_nav::collect_child_candidates;

impl TurboFlux {
    /// Builds the DCG of `g` into the engine's empty one. Its bits are the
    /// sweeps' two sets per query vertex; the only transient is the
    /// candidate buffer.
    pub(crate) fn build_initial_dcg(&mut self, g: &DynamicGraph) {
        let TurboFlux { q, tree, dcg, scratch, .. } = self;
        let nq = q.vertex_count();
        let us = tree.root();
        let mut kids = std::mem::take(&mut scratch.kids);
        kids.clear();

        // Top-down: the path condition.
        let mut reached = vec![Bits::new(g.vertex_count()); nq];
        for v in g.vertices() {
            if q.labels(us).is_subset_of(g.labels(v)) {
                reached[us.index()].set(v);
            }
        }
        for &u in tree.bfs_order() {
            let from = std::mem::take(&mut reached[u.index()]);
            for &uc in tree.children(u) {
                for pv in from.ones() {
                    collect_child_candidates(g, q, tree, uc, pv, AdjacencyMode::Indexed, &mut kids);
                    kids.drain(..).for_each(|cv| reached[uc.index()].set(cv));
                }
            }
            reached[u.index()] = from;
        }

        // Bottom-up: the subtree condition, and the explicit children of
        // every `(uc, v)` it reads. `expl[uc]` is final before any `v` is
        // decided against it.
        let mut expl = vec![Bits::new(g.vertex_count()); nq];
        for &u in tree.bfs_order().iter().rev() {
            for v in reached[u.index()].ones() {
                let mut all = true;
                for &uc in tree.children(u) {
                    let matched = &expl[uc.index()];
                    dcg.collect(g, v, uc, true, |cv| matched.has(cv), &mut kids);
                    dcg.count_out(uc, v, kids.len());
                    all &= !kids.is_empty();
                    kids.clear();
                }
                if all {
                    expl[u.index()].set(v);
                }
            }
        }

        // The stored parents of every reached `(u, w)`.
        for &u in &tree.bfs_order()[1..] {
            let parents = &reached[tree.parent(u).expect("non-root").index()];
            dcg.reserve_in(u, reached[u.index()].count());
            for w in reached[u.index()].ones() {
                dcg.collect(g, w, u, false, |pv| parents.has(pv), &mut kids);
                dcg.count_in(u, w, kids.len());
                kids.clear();
            }
        }
        dcg.install(reached, expl);
        scratch.kids = kids;
    }
}
