//! Uniform, hub and explosive streams on the one harness (`common`), one
//! query in three cyclic, every scenario on every runtime under a random
//! window and batch policy (`common::assert_equivalent`); the file and test
//! names are those of the partitioned runtime they were written for (DESIGN.md,
//! "Sharded execution: tried, measured, removed"). The directed closing-edge
//! scenario goes first: the shape the draws reach too rarely to rely on, a
//! non-tree invocation whose pre-bound endpoint has no DCG edge from one of
//! the parent bindings the search arrives with.

mod common;

use common::{assert_equivalent, check_random, closing_edge_scenario, random_policy, Shape::*};
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;

fn run(seed: u64, semantics: MatchSemantics) {
    let policy = random_policy(&mut Pcg32::new(seed));
    let closing =
        assert_equivalent(&closing_edge_scenario(), semantics, WindowSpec::Unbounded, policy);
    // The four closing ops: `p1`, `p3` under `s` and `p4` under `s2`, once
    // per sign.
    let deltas = &closing.deltas;
    assert_eq!(deltas.iter().filter(|d| d.0 < 4).count(), 6, "closing edges: {deltas:?}");
    check_random(seed, &[Uniform, Hub, Explosive], semantics, 48).assert_exercised(12);
}

#[test]
fn sharded_matches_unsharded_homomorphism() {
    run(0x05AA_D001, MatchSemantics::Homomorphism);
}

#[test]
fn sharded_matches_unsharded_isomorphism() {
    run(0x05AA_D002, MatchSemantics::Isomorphism);
}
