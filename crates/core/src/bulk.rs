//! Registration: the initial DCG in two sweeps, each run laid once.
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
//! Every stored edge `(pv, u, cv)` then has `pv ∈ reached[P(u)]`, `cv` a
//! child candidate of `pv`, and a state that is a function of `(u, cv)`
//! alone — it says whether `cv`'s subtrees are matched, whoever the parent
//! is — read from `expl[u]`. So the bottom-up sweep knows each run whole the
//! moment it reaches it, laid out the way the store keeps it
//! (`crate::dcg_store`): the out-run of `(v, uc)` is `v`'s candidate run
//! filtered twice against `expl[uc]`, members first (`[explicit |
//! implicit]`); the in-run of `(w, u)`, which carries no state, is the data
//! graph's reverse label group of `w` restricted to `reached[P(u)]`. Each
//! is written once at its final size
//! ([`crate::dcg::Dcg::lay_out_run`] / [`crate::dcg::Dcg::lay_in_run`]) into
//! tables sized by the counts the first sweep took: one table insert per
//! run where the replay paid four hash probes and two sorted inserts per
//! edge.
//!
//! `BuildDCG` ([`TurboFlux::build_dcg`]) stays what the paper defines it as,
//! the update-time Algorithm 3; replayed per root candidate it is this
//! module's oracle in `crate::tests`.

use tfx_graph::{AdjacencyMode, DynamicGraph, VertexId};

use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::tree_nav::collect_child_candidates;

fn set(bits: &mut [u64], v: VertexId) {
    bits[v.index() / 64] |= 1 << (v.0 % 64);
}

fn has(bits: &[u64], v: VertexId) -> bool {
    bits[v.index() / 64] & (1 << (v.0 % 64)) != 0
}

/// The members of a bitset in ascending id order.
fn ones(bits: &[u64]) -> impl Iterator<Item = VertexId> + '_ {
    bits.iter().enumerate().flat_map(|(i, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros();
                word &= word - 1;
                VertexId(i as u32 * 64 + bit)
            })
        })
    })
}

impl TurboFlux {
    /// Builds the DCG of `g` into the engine's empty one. Transient memory
    /// is the two bitsets per query vertex, `2·|V(q)|·|V(g)|/8` bytes.
    pub(crate) fn build_initial_dcg(&mut self, g: &DynamicGraph) {
        let (q, tree) = (&self.q, &self.tree);
        let nq = q.vertex_count();
        let us = tree.root();
        let words = g.vertex_count().div_ceil(64);
        let mut kids = std::mem::take(&mut self.scratch.kids);
        kids.clear();

        // Top-down: the path condition, and how many runs each table gets.
        let mut reached = vec![vec![0u64; words]; nq];
        for v in g.vertices() {
            if q.labels(us).is_subset_of(g.labels(v)) {
                set(&mut reached[us.index()], v);
            }
        }
        let mut out_runs = vec![0; nq];
        for &u in tree.bfs_order() {
            let from = std::mem::take(&mut reached[u.index()]);
            for &uc in tree.children(u) {
                for pv in ones(&from) {
                    collect_child_candidates(g, q, tree, uc, pv, AdjacencyMode::Indexed, &mut kids);
                    out_runs[uc.index()] += usize::from(!kids.is_empty());
                    kids.drain(..).for_each(|cv| set(&mut reached[uc.index()], cv));
                }
            }
            reached[u.index()] = from;
        }
        let mut in_runs: Vec<usize> =
            reached.iter().map(|r| r.iter().map(|w| w.count_ones() as usize).sum()).collect();
        let roots = std::mem::take(&mut in_runs[us.index()]);
        self.dcg.reserve(&out_runs, &in_runs, roots);

        // Bottom-up: the subtree condition. `expl[uc]` is final before any
        // run labeled `uc` is laid.
        let mut expl = vec![vec![0u64; words]; nq];
        let mut run: Vec<VertexId> = Vec::new();
        for &u in tree.bfs_order().iter().rev() {
            for v in ones(&reached[u.index()]) {
                let mut all = true;
                for &uc in tree.children(u) {
                    collect_child_candidates(g, q, tree, uc, v, AdjacencyMode::Indexed, &mut kids);
                    let matched = &expl[uc.index()];
                    run.clear();
                    run.extend(kids.iter().copied().filter(|&cv| has(matched, cv)));
                    let n_expl = run.len();
                    run.extend(kids.drain(..).filter(|&cv| !has(matched, cv)));
                    if !run.is_empty() {
                        self.dcg.lay_out_run(v, uc, &run, n_expl);
                    }
                    all &= n_expl > 0;
                }
                if all {
                    set(&mut expl[u.index()], v);
                }
            }
            let Some(parent) = tree.parent(u) else {
                for v in ones(&reached[u.index()]) {
                    let matched = has(&expl[u.index()], v);
                    let st = if matched { EdgeState::Explicit } else { EdgeState::Implicit };
                    self.dcg.transit(None, u, v, Some(st));
                }
                continue;
            };
            let qe = q.edge(tree.parent_edge(u).expect("non-root vertex has a parent edge"));
            for cv in ones(&reached[u.index()]) {
                let back = if tree.child_is_target(u) {
                    g.in_neighbors_matching(cv, qe.label, AdjacencyMode::Indexed)
                } else {
                    g.out_neighbors_matching(cv, qe.label, AdjacencyMode::Indexed)
                };
                run.clear();
                run.extend(back.filter(|&pv| has(&reached[parent.index()], pv)));
                if qe.label.is_none() {
                    // A wildcard walks every label group: `(label, id)`
                    // order, a parent once per parallel edge.
                    run.sort_unstable();
                    run.dedup();
                }
                self.dcg.lay_in_run(cv, u, &run);
            }
        }
        self.scratch.kids = kids;
    }
}
