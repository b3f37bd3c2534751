//! Registration: the initial DCG in two sweeps.
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
//! The two sets and `kids` are the DCG ([`crate::dcg`]). The bottom-up sweep
//! reads the stored edges out of each `(uc, v)` as it decides `v` — `v`'s
//! label group under `reached[uc]` — and keeps three things of them: their
//! number and the explicit ones' (the DCG's two totals), and whether there is
//! an explicit one (`v`'s `kids[uc]` bit). Nothing is written per edge.
//!
//! `BuildDCG` ([`TurboFlux::build_dcg`]) stays what the paper defines it as,
//! the update-time Algorithm 3; replayed per root candidate it is this
//! module's oracle in `crate::tests`.

use tfx_graph::DynamicGraph;

use crate::dcg::Bits;
use crate::engine::TurboFlux;

impl TurboFlux {
    /// Builds the DCG of `g` into the engine's empty one. Its bits are the
    /// sweeps' sets per query vertex; the only transient is the candidate
    /// buffer.
    pub(crate) fn build_initial_dcg(&mut self, g: &DynamicGraph) {
        let TurboFlux { q, tree, dcg, scratch, .. } = self;
        let (nq, n) = (q.vertex_count(), g.vertex_count());
        let us = tree.root();
        let mut buf = std::mem::take(&mut scratch.kids);
        buf.clear();

        // Top-down: the path condition.
        let mut reached = vec![Bits::new(n); nq];
        for v in g.vertices() {
            if q.labels(us).is_subset_of(g.labels(v)) {
                reached[us.index()].set(v);
            }
        }
        for &u in tree.bfs_order() {
            let from = std::mem::take(&mut reached[u.index()]);
            for &uc in tree.children(u) {
                for pv in from.ones() {
                    dcg.candidates(g, pv, uc, q.labels(uc), &mut buf);
                    buf.drain(..).for_each(|cv| reached[uc.index()].set(cv));
                }
            }
            reached[u.index()] = from;
        }

        // Bottom-up: the subtree condition, over the stored edges out of
        // every `(uc, v)` it reads. `expl[uc]` is final before any `v` is
        // decided against it.
        let mut expl = vec![Bits::new(n); nq];
        let mut kids = vec![Bits::new(n); nq];
        let mut stored = reached[us.index()].count() as u64;
        let mut expl_count = vec![0; nq];
        for &u in tree.bfs_order().iter().rev() {
            for v in reached[u.index()].ones() {
                let mut all = true;
                for &uc in tree.children(u) {
                    let kid_reached = &reached[uc.index()];
                    dcg.collect(g, v, uc, true, |cv| kid_reached.has(cv), &mut buf);
                    let matched = buf.iter().filter(|&&cv| expl[uc.index()].has(cv)).count();
                    stored += buf.len() as u64;
                    expl_count[uc.index()] += matched as u64;
                    if matched > 0 {
                        kids[uc.index()].set(v);
                    } else {
                        all = false;
                    }
                    buf.clear();
                }
                if all {
                    expl[u.index()].set(v);
                }
            }
        }
        expl_count[us.index()] = expl[us.index()].count() as u64;
        dcg.install([reached, expl, kids], stored, expl_count);
        scratch.kids = buf;
    }
}
