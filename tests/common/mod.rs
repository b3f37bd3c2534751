//! The query generator the randomized oracles (`fleet_equivalence`,
//! `shard_equivalence`, `stream_oracle`) share.

use std::collections::HashSet;
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;

/// A random connected query: a tree over `nq` vertices with `vlabel(i)` on
/// vertex `i`, either direction per edge, edge labels `10..10 + edge_labels`
/// and one wildcard edge in `wildcard_in`; with `chains`, half the vertices
/// hang off their predecessor (deep queries). One query in three then closes
/// one or two more directed edges between the vertices it has (a repeat of
/// an edge it has is dropped): a cyclic query, so non-tree invocations run
/// as well.
pub fn random_query(
    rng: &mut Pcg32,
    nq: u32,
    mut vlabel: impl FnMut(&mut Pcg32, u32) -> u32,
    chains: bool,
    edge_labels: usize,
    wildcard_in: usize,
) -> QueryGraph {
    let mut q = QueryGraph::new();
    for i in 0..nq {
        let l = vlabel(rng, i);
        q.add_vertex(LabelSet::single(LabelId(l)));
    }
    let mut seen = HashSet::new();
    let mut add = |rng: &mut Pcg32, q: &mut QueryGraph, s: u32, d: u32| {
        let label =
            (rng.below(wildcard_in) != 0).then(|| LabelId(10 + rng.below(edge_labels) as u32));
        if s != d && seen.insert((s, d, label)) {
            q.add_edge(QVertexId(s), QVertexId(d), label);
        }
    };
    for child in 1..nq {
        let parent =
            if chains && rng.below(2) == 0 { child - 1 } else { rng.below(child as usize) as u32 };
        let (s, d) = if rng.below(2) == 0 { (parent, child) } else { (child, parent) };
        add(rng, &mut q, s, d);
    }
    if rng.below(3) == 0 {
        for _ in 0..1 + rng.below(2) {
            let (s, d) = (rng.below(nq as usize) as u32, rng.below(nq as usize) as u32);
            add(rng, &mut q, s, d);
        }
    }
    q
}
