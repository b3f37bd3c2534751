//! The multi-query runtime's scenarios on the one harness (`common`): plain
//! and rich-label queries, hub and explosive streams (every stream carries a
//! label no query names, so routing skips), twin chain queries, and churn —
//! an engine deregistered and a late query registered mid-stream, under
//! `ChurnedHub` on a churned graph. Every scenario runs on every runtime
//! under a random window and batch policy (`common::assert_equivalent`).

mod common;

use common::{check_random, Shape::*};
use turboflux::prelude::MatchSemantics::{Homomorphism, Isomorphism};

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
