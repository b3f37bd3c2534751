//! The multi-query runtime's scenarios on the one harness (`common`): plain
//! and rich-label queries, hub and explosive streams (every stream carries a
//! label no query names, so routing skips), twin chain queries, and churn —
//! an engine deregistered and a late query registered mid-stream, under
//! `ChurnedHub` on a churned graph; and one query in three cyclic on
//! uniform, hub and explosive streams after the directed closing-edge
//! scenario — the shape the draws reach too rarely to rely on, a non-tree
//! invocation whose pre-bound endpoint has no DCG edge from one of the
//! parent bindings the search arrives with. Every scenario runs on every
//! runtime under a random window and batch policy
//! (`common::assert_equivalent`).

mod common;

use common::{assert_equivalent, check_random, closing_edge_scenario, random_policy, Shape::*};
use turboflux::datagen::Pcg32;
use turboflux::prelude::MatchSemantics::{self, Homomorphism, Isomorphism};
use turboflux::prelude::WindowSpec;

#[test]
fn plain_fleet_matches_naive_replay_homomorphism() {
    check_random(0xF1EE7, &[Uniform, RichLabel], Homomorphism, 40).assert_exercised(10);
}

#[test]
fn plain_fleet_matches_naive_replay_isomorphism() {
    check_random(0x150_F1EE7, &[Uniform, RichLabel], Isomorphism, 40).assert_exercised(10);
}

#[test]
fn routed_fleet_matches_naive_replay_homomorphism() {
    check_random(0x0007_F10C5, &[Hub, Explosive], Homomorphism, 40).assert_exercised(10);
}

#[test]
fn routed_fleet_matches_naive_replay_isomorphism() {
    check_random(0x0150_F10C5, &[Hub, Explosive], Isomorphism, 40).assert_exercised(10);
}

#[test]
fn twin_fleet_matches_naive_replay_homomorphism() {
    check_random(0x51_B7EE5, &[ChainTwin], Homomorphism, 30).assert_exercised(10);
}

#[test]
fn twin_fleet_matches_naive_replay_isomorphism() {
    check_random(0x150_5B75, &[ChainTwin], Isomorphism, 30).assert_exercised(10);
}

#[test]
fn late_registration_on_a_churned_graph_matches_naive_replay() {
    for (seed, semantics) in [(0x00C4_0221, Homomorphism), (0x0015_0C40, Isomorphism)] {
        let tally = check_random(seed, &[ChurnedHub], semantics, 16);
        tally.assert_exercised(4);
        assert!(tally.late_on_churned > 0, "no late query met a churned layout: {tally:?}");
    }
}

fn closing_edge_and_mixed_shapes(seed: u64, semantics: MatchSemantics) {
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
fn closing_edge_and_mixed_shapes_match_naive_replay_homomorphism() {
    closing_edge_and_mixed_shapes(0x05AA_D001, Homomorphism);
}

#[test]
fn closing_edge_and_mixed_shapes_match_naive_replay_isomorphism() {
    closing_edge_and_mixed_shapes(0x05AA_D002, Isomorphism);
}
