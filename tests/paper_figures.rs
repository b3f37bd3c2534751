//! End-to-end reconstruction of the paper's running example (Figures 1
//! and 2).
//!
//! The figures fully determine the observable numbers:
//!
//! * `g0` has 412 edges; `Δo1` inserts `(v1, v2)` and reports nothing;
//!   `Δo2` inserts `(v104, v414)` and reports **200 positive matches**;
//! * SJ-Tree materializes **11 311 / 22 412 / 22 613** partial solutions
//!   for `g0` / `g1` / `g2` (Figure 2b);
//! * the DCG stores **213 / 214 / 215** edges (Figure 2c–e).
//!
//! Reconstructed query (labels from Figure 1a, edge labels per the paper's
//! note that the implementation supports them): `u0:A -e1-> u1:B`,
//! `u1 -e2-> u2:C`, `u1 -e3-> u3:C`, `u3 -e4-> u4:D`.

use turboflux::prelude::*;

struct Fig1 {
    g0: DynamicGraph,
    q: QueryGraph,
    do1: UpdateOp,
    do2: UpdateOp,
}

fn build_fig1() -> Fig1 {
    let mut it = LabelInterner::new();
    let a = it.intern("A");
    let b = it.intern("B");
    let c = it.intern("C");
    let d = it.intern("D");
    let e1 = it.intern("e1");
    let e2 = it.intern("e2");
    let e3 = it.intern("e3");
    let e4 = it.intern("e4");
    let e5 = it.intern("e5");

    let mut g = DynamicGraph::new();
    // v0, v1 : A
    for _ in 0..2 {
        g.add_vertex(LabelSet::single(a));
    }
    // v2 : B
    g.add_vertex(LabelSet::single(b));
    // v3 : D
    g.add_vertex(LabelSet::single(d));
    // v4..=v103 : 100 C's matching u2
    for _ in 0..100 {
        g.add_vertex(LabelSet::single(c));
    }
    // v104..=v213 : 110 C's matching u3
    for _ in 0..110 {
        g.add_vertex(LabelSet::single(c));
    }
    // v214..=v413 : 200 D's (never matching u4's edge label)
    for _ in 0..200 {
        g.add_vertex(LabelSet::single(d));
    }
    // v414 : D (isolated until Δo2)
    g.add_vertex(LabelSet::single(d));
    // Two further B vertices so that, as in the paper's narration of
    // `ChooseStartQVertex`, the A-side of the most selective edge (u0, u1)
    // has fewer matching vertices and u0 becomes the starting query vertex.
    g.add_vertex(LabelSet::single(b));
    g.add_vertex(LabelSet::single(b));
    assert_eq!(g.vertex_count(), 417);

    let v = VertexId;
    g.insert_edge(v(0), e1, v(2)); // v0:A -> v2:B
    for i in 4..104 {
        g.insert_edge(v(2), e2, v(i)); // 100 × (u1,u2) images
    }
    for i in 104..214 {
        g.insert_edge(v(2), e3, v(i)); // 110 × (u1,u3) images
    }
    for i in 0..200u32 {
        // D's hang off the u3-candidate C's with a non-query edge label.
        g.insert_edge(v(104 + i % 110), e5, v(214 + i));
    }
    g.insert_edge(v(1), e5, v(3)); // the A -> D edge the IncIsoMat text mentions
    assert_eq!(g.edge_count(), 412, "Figure 1b: g0 has 412 edges");

    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(a));
    let u1 = q.add_vertex(LabelSet::single(b));
    let u2 = q.add_vertex(LabelSet::single(c));
    let u3 = q.add_vertex(LabelSet::single(c));
    let u4 = q.add_vertex(LabelSet::single(d));
    q.add_edge(u0, u1, Some(e1));
    q.add_edge(u1, u2, Some(e2));
    q.add_edge(u1, u3, Some(e3));
    q.add_edge(u3, u4, Some(e4));

    Fig1 {
        g0: g,
        q,
        do1: UpdateOp::InsertEdge { src: v(1), label: e1, dst: v(2) },
        do2: UpdateOp::InsertEdge { src: v(104), label: e4, dst: v(414) },
    }
}

#[test]
fn turboflux_reports_0_then_200_positive_matches() {
    let f = build_fig1();
    let mut engine = TurboFlux::new(f.q, f.g0, TurboFluxConfig::default());
    let mut initial = 0;
    engine.initial_matches(&mut |_| initial += 1);
    assert_eq!(initial, 0, "g0 has no complete match");

    let mut n1 = 0;
    engine.apply(&f.do1, &mut |_, _| n1 += 1);
    assert_eq!(n1, 0, "Δo1 reports nothing (no data edge matches (u3,u4))");

    let mut reports = Vec::new();
    engine.apply(&f.do2, &mut |p, m| reports.push((p, m.clone())));
    assert_eq!(reports.len(), 200, "Δo2 incurs 200 positive matches");
    assert!(reports.iter().all(|(p, _)| *p == Positiveness::Positive));
    // 100 map u0 -> v0 and 100 map u0 -> v1; all map u3 -> v104, u4 -> v414.
    let with_v0 = reports.iter().filter(|(_, m)| m.get(QVertexId(0)) == VertexId(0)).count();
    assert_eq!(with_v0, 100);
    for (_, m) in &reports {
        assert_eq!(m.get(QVertexId(1)), VertexId(2));
        assert_eq!(m.get(QVertexId(3)), VertexId(104));
        assert_eq!(m.get(QVertexId(4)), VertexId(414));
    }
}

#[test]
fn dcg_stores_213_214_215_edges() {
    let f = build_fig1();
    let mut engine = TurboFlux::new(f.q, f.g0, TurboFluxConfig::default());
    assert_eq!(engine.dcg().stored_edge_count(), 213, "Figure 2c (g0)");
    engine.apply(&f.do1, &mut |_, _| {});
    assert_eq!(engine.dcg().stored_edge_count(), 214, "Figure 2d (g1)");
    engine.apply(&f.do2, &mut |_, _| {});
    assert_eq!(engine.dcg().stored_edge_count(), 215, "Figure 2e (g2)");
}

#[test]
fn sj_tree_materializes_11311_22412_22613_partial_solutions() {
    let f = build_fig1();
    let mut engine =
        turboflux::baselines::SjTree::new(f.q, f.g0, MatchSemantics::Homomorphism, None);
    assert_eq!(engine.materialized_tuples(), 11_311, "Figure 2b (g0)");

    let mut n = 0;
    engine.apply(&f.do1, &mut |_, _| n += 1);
    assert_eq!(n, 0);
    assert_eq!(engine.materialized_tuples(), 22_412, "Figure 2b (g1)");

    engine.apply(&f.do2, &mut |_, _| n += 1);
    assert_eq!(n, 200);
    assert_eq!(engine.materialized_tuples(), 22_613, "Figure 2b (g2)");
}

#[test]
fn graphflow_and_incisomat_agree_on_the_figure() {
    let f = build_fig1();
    let mut gf = turboflux::baselines::Graphflow::new(
        f.q.clone(),
        f.g0.clone(),
        MatchSemantics::Homomorphism,
    );
    let mut inc = turboflux::baselines::IncIsoMat::new(
        f.q.clone(),
        f.g0.clone(),
        MatchSemantics::Homomorphism,
    );
    for engine in [&mut gf as &mut dyn ContinuousMatcher, &mut inc] {
        let mut n1 = 0;
        engine.apply(&f.do1, &mut |_, _| n1 += 1);
        assert_eq!(n1, 0, "{}", engine.name());
        let mut n2 = 0;
        engine.apply(&f.do2, &mut |_, _| n2 += 1);
        assert_eq!(n2, 200, "{}", engine.name());
    }
}

/// The storage gap the paper's Figure 2 illustrates: SJ-Tree holds ~53×
/// more entries than the DCG on `g2` (22 613 tuples vs 215 edges; the
/// byte-level ratio depends on tuple widths).
#[test]
fn storage_gap_matches_the_figure() {
    let f = build_fig1();
    let mut tf = TurboFlux::new(f.q.clone(), f.g0.clone(), TurboFluxConfig::default());
    let mut sj = turboflux::baselines::SjTree::new(f.q, f.g0, MatchSemantics::Homomorphism, None);
    for op in [&f.do1, &f.do2] {
        tf.apply(op, &mut |_, _| {});
        sj.apply(op, &mut |_, _| {});
    }
    let ratio = sj.intermediate_result_bytes() as f64 / tf.intermediate_result_bytes() as f64;
    assert!(ratio > 10.0, "SJ-Tree must store much more ({ratio:.1}x)");
}
