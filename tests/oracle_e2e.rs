//! End-to-end oracle checks on *generated* workloads: every engine must
//! report the same positive/negative match counts on real
//! generator-produced datasets and queries (the unit-level oracle tests use
//! synthetic random graphs; this exercises the full pipeline
//! datagen → query gen → engines).

use turboflux::baselines::{Graphflow, IncIsoMat, NaiveRecompute, SjTree};
use turboflux::datagen::{lsbench, netflow, queries, LsBenchConfig, NetflowConfig, Pcg32};
use turboflux::prelude::*;

fn drive(engine: &mut dyn ContinuousMatcher, stream: &UpdateStream) -> (u64, u64, u64) {
    let mut initial = 0u64;
    engine.initial_matches(&mut |_| initial += 1);
    let (mut pos, mut neg) = (0u64, 0u64);
    for op in stream {
        engine.apply(op, &mut |p, _| match p {
            Positiveness::Positive => pos += 1,
            Positiveness::Negative => neg += 1,
        });
    }
    assert!(!engine.timed_out(), "{} timed out mid-oracle", engine.name());
    (initial, pos, neg)
}

#[test]
fn lsbench_insert_stream_all_engines_agree() {
    let d = lsbench::generate(&LsBenchConfig { users: 60, seed: 31, stream_frac: 0.15 });
    let mut rng = Pcg32::new(5);
    for size in [3usize, 5] {
        let q = queries::random_tree_query(&d.schema, size, &mut rng);
        let expected = drive(
            &mut NaiveRecompute::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism),
            &d.stream,
        );
        let mut tf = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
        assert_eq!(drive(&mut tf, &d.stream), expected, "TurboFlux, size {size}");
        let mut sj = SjTree::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism, None);
        assert_eq!(drive(&mut sj, &d.stream), expected, "SJ-Tree, size {size}");
        let mut gf = Graphflow::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism);
        assert_eq!(drive(&mut gf, &d.stream), expected, "Graphflow, size {size}");
        let mut inc = IncIsoMat::new(q, d.g0.clone(), MatchSemantics::Homomorphism);
        assert_eq!(drive(&mut inc, &d.stream), expected, "IncIsoMat, size {size}");
    }
}

#[test]
fn lsbench_cyclic_query_with_deletions() {
    let mut d = lsbench::generate(&LsBenchConfig { users: 50, seed: 77, stream_frac: 0.15 });
    d.append_deletions(0.3, 9);
    let mut rng = Pcg32::new(11);
    let q = queries::random_cyclic_query(&d.schema, 3, 4, &mut rng).expect("triangle query");
    for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
        let expected =
            drive(&mut NaiveRecompute::new(q.clone(), d.g0.clone(), semantics), &d.stream);
        let mut tf =
            TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::with_semantics(semantics));
        assert_eq!(drive(&mut tf, &d.stream), expected, "TurboFlux {semantics:?}");
        let mut gf = Graphflow::new(q.clone(), d.g0.clone(), semantics);
        assert_eq!(drive(&mut gf, &d.stream), expected, "Graphflow {semantics:?}");
        let mut inc = IncIsoMat::new(q.clone(), d.g0.clone(), semantics);
        assert_eq!(drive(&mut inc, &d.stream), expected, "IncIsoMat {semantics:?}");
    }
}

#[test]
fn netflow_unlabeled_vertices_all_engines_agree() {
    let d = netflow::generate(&NetflowConfig { hosts: 40, flows: 400, seed: 13, stream_frac: 0.2 });
    let mut rng = Pcg32::new(21);
    let q = queries::random_path_query(&d.schema, 3, &mut rng);
    let expected = drive(
        &mut NaiveRecompute::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism),
        &d.stream,
    );
    assert!(expected.0 > 0 || expected.1 > 0, "workload should produce matches");
    let mut tf = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
    assert_eq!(drive(&mut tf, &d.stream), expected, "TurboFlux");
    let mut sj = SjTree::new(q.clone(), d.g0.clone(), MatchSemantics::Homomorphism, None);
    assert_eq!(drive(&mut sj, &d.stream), expected, "SJ-Tree");
    let mut gf = Graphflow::new(q, d.g0.clone(), MatchSemantics::Homomorphism);
    assert_eq!(drive(&mut gf, &d.stream), expected, "Graphflow");
}

#[test]
fn turboflux_dcg_stays_consistent_over_a_generated_stream() {
    let mut d = lsbench::generate(&LsBenchConfig { users: 40, seed: 3, stream_frac: 0.2 });
    d.append_deletions(0.4, 4);
    let mut rng = Pcg32::new(17);
    let q = queries::random_tree_query(&d.schema, 6, &mut rng);
    let mut tf = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
    let mut g = d.g0.clone();
    for (i, op) in d.stream.ops().iter().enumerate() {
        tf.apply(op, &mut |_, _| {});
        g.apply(op);
        if i % 37 == 0 {
            tf.dcg().check_consistency();
            let want = turboflux::core::reference_dcg(&g, tf.query(), tf.query_tree());
            assert_eq!(tf.dcg().snapshot(), want, "DCG diverged at op {i}");
        }
    }
    tf.dcg().check_consistency();
}
