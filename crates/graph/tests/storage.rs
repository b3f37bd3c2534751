//! Storage-level properties of [`DynamicGraph`]'s slot arena, through the
//! public API only: the bulk constructor and `clone()` lay out the graph
//! incremental inserts build (compactly), `project` lays out what the bulk
//! build of the kept edges does, and `resident_bytes` /
//! `storage_stats` are exact fixpoints under self-inverting churn.

use tfx_graph::{Dir, DynamicGraph, EdgeRef, LabelId, LabelSet, VertexId, FLAT_MAX};

fn l(i: u32) -> LabelId {
    LabelId(i)
}

fn labeled_graph(n: usize) -> DynamicGraph {
    let mut g = DynamicGraph::new();
    for i in 0..n {
        g.add_vertex(LabelSet::single(l(i as u32 % 3)));
    }
    g
}

/// A hub-and-spokes graph with every layout and several size classes:
/// `spokes` edges out of v0 over `labels` labels plus a sparse ring.
fn mixed_edges(n: u32, spokes: u32, labels: u32) -> Vec<EdgeRef> {
    let ring = (0..n).map(|i| EdgeRef::new(VertexId(i), l(i % 2), VertexId((i + 1) % n)));
    let hub = (0..spokes).map(|i| EdgeRef::new(VertexId(0), l(i % labels), VertexId(i % n)));
    ring.chain(hub).collect()
}

#[test]
fn from_edges_and_clone_equal_incremental_inserts_and_are_compact() {
    let n = 3 * FLAT_MAX as u32;
    let edges = mixed_edges(n, 5 * FLAT_MAX as u32, 4);
    let mut g = labeled_graph(n as usize);
    for e in edges.iter().rev() {
        g.insert_edge(e.src, e.label, e.dst);
    }
    // Churn so the original's arena is fragmented.
    for e in &edges[..edges.len() / 2] {
        g.delete_edge(e.src, e.label, e.dst);
    }
    for e in &edges[..edges.len() / 2] {
        g.insert_edge(e.src, e.label, e.dst);
    }
    assert!(g.storage_stats().free_slots > 0);
    let labels: Vec<_> = g.vertices().map(|v| g.labels(v).clone()).collect();
    let mut doubled = edges.clone();
    doubled.extend_from_slice(&edges);
    for copy in [g.clone(), DynamicGraph::from_edges(labels, doubled)] {
        copy.validate();
        assert!(copy.edges().eq(g.edges()));
        assert_eq!(copy.edge_count(), g.edge_count());
        for v in g.vertices() {
            assert!(copy.neighbors(v, Dir::In).eq(g.neighbors(v, Dir::In)));
            assert_eq!(copy.labels(v), g.labels(v));
            assert_eq!(copy.is_directory(v, Dir::Out), g.degree(v, Dir::Out) > FLAT_MAX);
        }
        for lab in 0..5 {
            assert_eq!(copy.edge_label_count(l(lab)), g.edge_label_count(l(lab)));
            assert_eq!(copy.vertex_label_count(l(lab)), g.vertex_label_count(l(lab)));
        }
        let (stats, orig) = (copy.storage_stats(), g.storage_stats());
        assert_eq!(stats.free_slots, 0, "a copy is laid out compactly");
        assert!(stats.carved_entries < orig.carved_entries);
        assert_eq!(stats.directory_runs, 1);
        // Every out-run but the hub's is its one ring edge, kept inline.
        assert_eq!((stats.inline_runs, stats.flat_runs), (n as usize - 1, n as usize));
        assert!(copy.resident_bytes() <= g.resident_bytes());
    }
}

/// `project` keeps exactly what the bulk build of the kept edges lays out:
/// the same edges, per-label counts and vertex labels, compactly — from a
/// compact copy, and from a churned graph with directory runs and free
/// slots, whose arena it compacts in place. Keep-all is the graph itself;
/// keep-none keeps every vertex and no edge.
#[test]
fn project_equals_from_edges_of_the_kept_edges() {
    let n = 3 * FLAT_MAX as u32;
    let edges = mixed_edges(n, 5 * FLAT_MAX as u32, 4);
    let churned = || {
        let mut g = labeled_graph(n as usize);
        for e in &edges {
            g.insert_edge(e.src, e.label, e.dst);
        }
        for e in &edges[edges.len() / 3..] {
            g.delete_edge(e.src, e.label, e.dst);
        }
        for e in edges.iter().rev().step_by(2) {
            g.insert_edge(e.src, e.label, e.dst);
        }
        g
    };
    let g = churned();
    let stats = g.storage_stats();
    assert!(stats.free_slots > 0 && stats.directory_runs > 0, "{stats:?}");
    let labels: Vec<_> = g.vertices().map(|v| g.labels(v).clone()).collect();
    type Keep = fn(LabelId) -> bool;
    let keeps: [(&str, Keep); 4] = [
        ("all", |_| true),
        ("none", |_| false),
        ("odd", |lab| lab.0 % 2 == 1),
        ("hub only", |lab| lab == l(3)),
    ];
    for (keep_name, keep) in keeps {
        let kept: Vec<_> = g.edges().filter(|e| keep(e.label)).collect();
        let want = DynamicGraph::from_edges(labels.clone(), kept);
        for (input, got) in
            [("copy", g.clone().project(keep)), ("churned", churned().project(keep))]
        {
            let name = format!("{keep_name}, {input}");
            got.validate();
            assert!(got.edges().eq(want.edges()), "{name}: edges");
            assert_eq!(got.edge_count(), want.edge_count(), "{name}");
            assert_eq!(got.vertex_count(), g.vertex_count(), "{name}: every vertex stays");
            for v in g.vertices() {
                assert_eq!(got.labels(v), g.labels(v), "{name}: labels of {v}");
                assert!(
                    got.neighbors(v, Dir::In).eq(want.neighbors(v, Dir::In)),
                    "{name}: in-run of {v}"
                );
                assert_eq!(
                    got.is_directory(v, Dir::Out),
                    want.is_directory(v, Dir::Out),
                    "{name}: {v}"
                );
            }
            for lab in 0..5 {
                assert_eq!(got.edge_label_count(l(lab)), want.edge_label_count(l(lab)), "{name}");
                assert_eq!(got.vertex_label_count(l(lab)), g.vertex_label_count(l(lab)), "{name}");
            }
            assert_eq!(got.storage_stats().free_slots, 0, "{name}: laid out compactly");
            assert!(
                got.resident_bytes() <= want.resident_bytes(),
                "{name}: no larger than the bulk build"
            );
        }
    }
    let all = g.clone().project(|_| true);
    assert!(all.edges().eq(g.edges()) && all.edge_count() == g.edge_count());
    assert!(g.clone().project(|lab| lab.0 % 2 == 1).storage_stats().directory_runs > 0);
    let none = g.clone().project(|_| false);
    assert_eq!((none.vertex_count(), none.edge_count()), (n as usize, 0));
    assert_eq!(none.edges().count() + none.storage_stats().live_slots, 0);
}

/// A vertex costs the graph 20 bytes: its two 8-byte adjacency handles and
/// its 4-byte label set id. For `n` isolated vertices over `k` distinct label
/// sets, `resident_bytes` is 20·n plus what does not grow with `n` — the set
/// table and the per-label counters — exactly: the bulk build reserves the
/// per-vertex tables exactly, and the first `k` vertices, one per set, hold
/// the same table and counters as all `n`.
#[test]
fn a_vertex_costs_its_two_handles_and_a_set_id() {
    for k in [1, 3, 7, 40] {
        let sets: Vec<LabelSet> =
            (0..k).map(|i| (0..1 + i % 3).map(|j| l((i + j) as u32)).collect()).collect();
        let graph = |n: usize| {
            let labels = (0..n).map(|v| sets[v % k].clone()).collect();
            DynamicGraph::from_edges(labels, Vec::new())
        };
        let first = graph(k);
        assert_eq!(first.storage_stats().label_sets, k);
        let table_and_counters = first.resident_bytes() - 20 * k;
        for n in [k + 1, 2 * k + 5, 1000, 100_003] {
            let g = graph(n);
            assert_eq!(g.vertex_count(), n);
            assert_eq!(g.resident_bytes(), 20 * n + table_and_counters, "{n} vertices, {k} sets");
        }
    }
}

/// `resident_bytes` is capacity-charged, so once a churn cycle has
/// warmed every free list, repeating it must not move the figure — the
/// property `Dcg::resident_bytes` has, on the same arena scheme.
#[test]
fn resident_bytes_is_a_fixpoint_under_self_inverting_churn() {
    let n = 2 * FLAT_MAX as u32;
    let base = mixed_edges(n, 3 * FLAT_MAX as u32, 3);
    let churn = mixed_edges(n, 9 * FLAT_MAX as u32, 7);
    let mut g = DynamicGraph::from_edges(vec![LabelSet::empty(); n as usize], base.clone());
    let cold = g.resident_bytes();
    let cycle = |g: &mut DynamicGraph| {
        let added: Vec<_> = churn.iter().filter(|e| g.insert_edge(e.src, e.label, e.dst)).collect();
        assert!(g.is_directory(VertexId(0), Dir::Out));
        for e in added {
            assert!(g.delete_edge(e.src, e.label, e.dst));
        }
    };
    // The first cycle carves, the second still settles which run holds
    // which slot; from then on peak and trough repeat exactly.
    cycle(&mut g);
    cycle(&mut g);
    let (warm, stats) = (g.resident_bytes(), g.storage_stats());
    assert!(warm > cold && stats.free_slots > 0);
    for _ in 0..5 {
        cycle(&mut g);
        assert_eq!(g.resident_bytes(), warm);
        assert_eq!(g.storage_stats(), stats);
    }
    g.validate();
    let mut want = base;
    want.sort_unstable();
    want.dedup();
    assert!(g.edges().eq(want));
    // Draining everything returns every slot and carves nothing.
    for e in g.edges().collect::<Vec<_>>() {
        g.delete_edge(e.src, e.label, e.dst);
    }
    assert_eq!((g.edge_count(), g.storage_stats().live_slots), (0, 0));
    assert_eq!(g.storage_stats().carved_entries, stats.carved_entries);
}

/// `x` below `n`, from a seeded xorshift, so a failing seed replays.
fn below(state: &mut u64, n: u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state % n
}

/// The counting-sort bulk build lays out the graph incremental inserts
/// build, over random edge lists with duplicates, self-loops, parallel
/// labels, hubs past `FLAT_MAX` on both sides and isolated vertices, fed in
/// shuffled order.
#[test]
fn from_edges_equals_incremental_inserts_on_random_graphs() {
    let (mut directories, mut isolated, mut loops) = (0, 0, 0);
    for seed in 1..=40u64 {
        let rng = &mut seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let n = 1 + below(rng, 4 * FLAT_MAX as u64) as u32;
        let labels = 1 + below(rng, 6) as u32;
        let mut edges = Vec::new();
        for _ in 0..below(rng, 6 * u64::from(n)) {
            let (src, dst) = (below(rng, n.into()) as u32, below(rng, n.into()) as u32);
            let dst = if below(rng, 12) == 0 { src } else { dst };
            let label = below(rng, labels.into()) as u32;
            edges.push(EdgeRef::new(VertexId(src), l(label), VertexId(dst)));
            if below(rng, 4) == 0 {
                edges.push(edges[below(rng, edges.len() as u64) as usize]);
            }
            if below(rng, 6) == 0 {
                let parallel = (label + 1) % labels;
                edges.push(EdgeRef::new(VertexId(src), l(parallel), VertexId(dst)));
            }
        }
        if seed % 3 == 0 {
            // An out-hub and an in-hub, over every label.
            let hub = VertexId(below(rng, n.into()) as u32);
            for i in 0..2 * FLAT_MAX as u32 + seed as u32 {
                let (other, label) = (VertexId(i % n), l(i % labels));
                edges.push(EdgeRef::new(hub, label, other));
                edges.push(EdgeRef::new(other, label, hub));
            }
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, below(rng, i as u64 + 1) as usize);
        }
        let vertex_labels: Vec<LabelSet> =
            (0..n).map(|_| (0..below(rng, 3)).map(|_| l(below(rng, 4) as u32)).collect()).collect();

        let mut want = DynamicGraph::new();
        for labels in &vertex_labels {
            want.add_vertex(labels.clone());
        }
        for e in &edges {
            want.insert_edge(e.src, e.label, e.dst);
        }
        let got = DynamicGraph::from_edges(vertex_labels, edges);
        got.validate();
        assert!(got.edges().eq(want.edges()), "seed {seed}: edges");
        assert_eq!(got.edge_count(), want.edge_count(), "seed {seed}");
        for v in want.vertices() {
            assert_eq!(got.labels(v), want.labels(v));
            assert!(
                got.neighbors(v, Dir::In).eq(want.neighbors(v, Dir::In)),
                "seed {seed}: in-run of {v}"
            );
            assert!(
                got.label_runs(v, Dir::Out).eq(want.label_runs(v, Dir::Out)),
                "seed {seed}: {v}"
            );
            assert!(got.label_runs(v, Dir::In).eq(want.label_runs(v, Dir::In)), "seed {seed}: {v}");
            assert_eq!(got.is_directory(v, Dir::Out), want.degree(v, Dir::Out) > FLAT_MAX);
            assert_eq!(got.is_directory(v, Dir::In), want.degree(v, Dir::In) > FLAT_MAX);
            directories += usize::from(got.is_directory(v, Dir::Out))
                + usize::from(got.is_directory(v, Dir::In));
            isolated += usize::from(got.degree(v, Dir::Out) + got.degree(v, Dir::In) == 0);
            loops += usize::from(got.has_edge_matching(v, v, None));
        }
        for label in 0..labels + 1 {
            assert_eq!(got.edge_label_count(l(label)), want.edge_label_count(l(label)));
        }
        for label in 0..5 {
            assert_eq!(got.vertex_label_count(l(label)), want.vertex_label_count(l(label)));
        }
    }
    assert!(directories >= 20 && isolated >= 5 && loops >= 20, "{directories} {isolated} {loops}");
}

/// The arena words a run with label groups of `lens` entries takes, from
/// the layout rule alone: none inline, one slot of headers and ids flat, a
/// slot of its entry count and 3-word records and one id slot per group as
/// a directory.
fn run_words(lens: &[usize]) -> usize {
    use tfx_graph::arena::{class_cap, class_for};
    let words = |len| class_cap(class_for(len)) as usize;
    match lens.iter().sum::<usize>() {
        0 | 1 => 0,
        n if n <= FLAT_MAX => words(lens.len() + n),
        _ => lens.iter().map(|&len| words(len)).sum::<usize>() + words(1 + 3 * lens.len()),
    }
}

/// The bulk build over many labels: a shuffled, duplicated edge list over
/// more than 300 labels (so an in-bucket holds many labels, which the
/// counting pass orders without a sort), with an out-hub and an in-hub past
/// `FLAT_MAX`, lays out the graph incremental inserts build, and reserves
/// exactly the words its runs take: what it counts while it walks each
/// bucket is what the layout rule charges.
#[test]
fn from_edges_over_many_labels_equals_inserts_and_reserves_exactly() {
    for seed in 1..=6u64 {
        let rng = &mut seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let (n, labels) = (40 + below(rng, 200) as u32, 301 + below(rng, 200) as u32);
        let mut edges = Vec::new();
        for _ in 0..8 * n {
            let (src, dst) = (below(rng, n.into()) as u32, below(rng, n.into()) as u32);
            edges.push(EdgeRef::new(
                VertexId(src),
                l(below(rng, labels.into()) as u32),
                VertexId(dst),
            ));
        }
        let hub = VertexId(below(rng, n.into()) as u32);
        for i in 0..3 * FLAT_MAX as u32 {
            let (other, label) = (VertexId(i % n), l(below(rng, labels.into()) as u32));
            edges.push(EdgeRef::new(hub, label, other));
            edges.push(EdgeRef::new(other, l(i % 7), hub));
        }
        let copies: Vec<EdgeRef> =
            (0..edges.len() / 3).map(|_| edges[below(rng, 97) as usize]).collect();
        edges.extend(copies);
        for i in (1..edges.len()).rev() {
            edges.swap(i, below(rng, i as u64 + 1) as usize);
        }
        let vertex_labels: Vec<LabelSet> =
            (0..n).map(|_| (0..below(rng, 3)).map(|_| l(below(rng, 5) as u32)).collect()).collect();

        let mut want = DynamicGraph::new();
        for labels in &vertex_labels {
            want.add_vertex(labels.clone());
        }
        for e in &edges {
            want.insert_edge(e.src, e.label, e.dst);
        }
        let bare = DynamicGraph::from_edges(vertex_labels.clone(), Vec::new());
        let got = DynamicGraph::from_edges(vertex_labels, edges);
        got.validate();
        assert!(got.edges().eq(want.edges()), "seed {seed}: edges");
        assert!(
            got.is_directory(hub, Dir::Out) && got.is_directory(hub, Dir::In),
            "seed {seed}: hubs"
        );
        let mut words = 0;
        for v in want.vertices() {
            assert!(
                got.label_runs(v, Dir::Out).eq(want.label_runs(v, Dir::Out)),
                "seed {seed}: out {v}"
            );
            assert!(
                got.label_runs(v, Dir::In).eq(want.label_runs(v, Dir::In)),
                "seed {seed}: in {v}"
            );
            assert!(
                got.neighbors(v, Dir::In).eq(want.neighbors(v, Dir::In)),
                "seed {seed}: in-run of {v}"
            );
            let lens = |runs: &mut dyn Iterator<Item = (LabelId, usize)>| -> Vec<usize> {
                runs.map(|(_, len)| len).collect()
            };
            words += run_words(&lens(&mut got.label_runs(v, Dir::Out)));
            words += run_words(&lens(&mut got.label_runs(v, Dir::In)));
        }
        // The arena holds exactly those words, and its capacity is them: all
        // the edges add to the bare vertices is the arena and a count per label.
        let top = got.edges().map(|e| e.label.index() + 1).max().unwrap_or(0);
        assert_eq!(got.storage_stats().carved_entries, words, "seed {seed}");
        assert_eq!(
            got.resident_bytes() - bare.resident_bytes(),
            4 * words + 8 * top,
            "seed {seed}"
        );
    }
}

#[test]
#[should_panic(expected = "missing vertex")]
fn from_edges_rejects_an_edge_naming_a_missing_vertex() {
    let edge = EdgeRef::new(VertexId(0), l(0), VertexId(2));
    DynamicGraph::from_edges(vec![LabelSet::empty(); 2], vec![edge]);
}

/// The three layouts under random churn, against a `BTreeSet` of edges: most
/// vertices wander between 0, 1 and 2 entries per direction (empty ↔ inline
/// ↔ flat), and two hubs climb past `FLAT_MAX` and fall back under half of it
/// (flat ↔ directory). Vertices arrive with label sets drawn from a small
/// pool, so most repeat a set and some bring a new one. Every few steps the
/// graph, its clone, the bulk build of the model and a projection onto one
/// label are checked against the model, layout counts included, and every
/// pair of vertices is hinted at every stage.
#[test]
fn inline_flat_and_directory_runs_follow_a_btreeset_through_every_transition() {
    use std::collections::BTreeSet;
    const LABELS: u32 = 3;
    let rng = &mut 0x2545_F491_4F6C_DD1Du64;
    let (mut g, mut sets) = (DynamicGraph::new(), Vec::<LabelSet>::new());
    let mut model: BTreeSet<(VertexId, LabelId, VertexId)> = BTreeSet::new();
    let mut seen = [0usize; 4];
    let check = |g: &DynamicGraph,
                 model: &BTreeSet<_>,
                 sets: &[LabelSet],
                 seen: &mut [usize; 4]| {
        g.validate();
        assert!(g.edges().map(|e| (e.src, e.label, e.dst)).eq(model.iter().copied()));
        let (mut inline, mut flat, mut dirs) = (0, 0, 0);
        for v in g.vertices() {
            assert_eq!(g.labels(v), &sets[v.index()]);
            let ins: BTreeSet<_> = model.iter().filter(|e| e.2 == v).map(|e| (e.1, e.0)).collect();
            assert!(
                g.neighbors(v, Dir::In).map(|(w, lab)| (lab, w)).eq(ins.iter().copied()),
                "{v}"
            );
            for (degree, dir) in [
                (g.degree(v, Dir::Out), g.is_directory(v, Dir::Out)),
                (ins.len(), g.is_directory(v, Dir::In)),
            ] {
                inline += usize::from(degree == 1);
                flat += usize::from(degree > 1 && !dir);
                dirs += usize::from(dir);
                seen[degree.min(3)] += 1;
            }
            for lab in 0..LABELS {
                let want = model.iter().filter(|e| e.0 == v && e.1 == l(lab)).map(|e| e.2);
                assert!(g.group(v, Dir::Out, l(lab)).iter().copied().eq(want), "{v} over {lab}");
            }
        }
        let st = g.storage_stats();
        assert_eq!((st.inline_runs, st.flat_runs, st.directory_runs), (inline, flat, dirs));
        let distinct: std::collections::HashSet<_> = sets.iter().collect();
        assert_eq!(st.label_sets, distinct.len());
        for lab in 0..6 {
            let want = sets.iter().filter(|s| s.contains(l(lab))).count();
            assert_eq!(g.vertex_label_count(l(lab)), want, "label {lab}");
        }
        for s in g.vertices() {
            for d in g.vertices() {
                (0..3).for_each(|stage| g.prefetch_edge(s, d, stage));
            }
        }
    };
    let (mut unfolds, mut folds) = (0, 0);
    for step in 0..6_000u32 {
        if g.vertex_count() < 40 && below(rng, 8) == 0 {
            // A set of the pool {}, {3}, {4}, {3, 4}, or now and then a new one.
            let fresh = below(rng, 10) == 0;
            let set: LabelSet = if fresh {
                [l(5), l(6 + g.vertex_count() as u32)].into_iter().collect()
            } else {
                (0..below(rng, 3)).map(|i| l(3 + i as u32)).collect()
            };
            let v = VertexId(g.vertex_count() as u32 + below(rng, 2) as u32);
            assert!(g.ensure_vertex(v, &set));
            while sets.len() < v.index() {
                sets.push(LabelSet::empty());
            }
            sets.push(set);
            continue;
        }
        let n = g.vertex_count() as u64;
        if n == 0 {
            continue;
        }
        // Hubs v0 (out) and v1 (in) take a third of the ops; the growing
        // phases insert three times in four, the shrinking ones once.
        let hubs = (VertexId(0), VertexId(1.min(n as u32 - 1)));
        let (mut src, mut dst) = (VertexId(below(rng, n) as u32), VertexId(below(rng, n) as u32));
        match below(rng, 6) {
            0 => src = hubs.0,
            1 => dst = hubs.1,
            _ => {}
        }
        let e = (src, l(below(rng, LABELS.into()) as u32), dst);
        let was = (g.is_directory(hubs.0, Dir::Out), g.is_directory(hubs.1, Dir::In));
        let growing = (step / 1_500) % 2 == 0;
        if below(rng, 4) < if growing { 3 } else { 1 } {
            assert_eq!(g.insert_edge(e.0, e.1, e.2), model.insert(e));
        } else {
            let victim = model.range(e..).next().copied().unwrap_or(e);
            assert_eq!(g.delete_edge(victim.0, victim.1, victim.2), model.remove(&victim));
        }
        let now = (g.is_directory(hubs.0, Dir::Out), g.is_directory(hubs.1, Dir::In));
        unfolds += usize::from(!was.0 && now.0) + usize::from(!was.1 && now.1);
        folds += usize::from(was.0 && !now.0) + usize::from(was.1 && !now.1);
        if step % 250 != 0 {
            continue;
        }
        check(&g, &model, &sets, &mut seen);
        check(&g.clone(), &model, &sets, &mut seen);
        let edges = model.iter().map(|&(s, lab, d)| EdgeRef::new(s, lab, d)).collect();
        check(&DynamicGraph::from_edges(sets.clone(), edges), &model, &sets, &mut seen);
        let keep = l(step % LABELS);
        let kept: BTreeSet<_> = model.iter().filter(|e| e.1 == keep).copied().collect();
        check(&g.clone().project(|lab| lab == keep), &kept, &sets, &mut seen);
    }
    assert!(unfolds >= 2 && folds >= 2, "{unfolds} unfolds, {folds} folds");
    assert!(seen.iter().all(|&n| n > 100), "directions by degree 0 / 1 / 2 / more: {seen:?}");
}

/// `project` can leave a run of every layout with one entry, which it keeps
/// in the handle: a directory with one edge of the kept label among many of
/// another, a flat run with one, and a run that was inline already.
#[test]
fn project_moves_a_lone_kept_entry_into_the_handle() {
    let (keep, drop) = (l(1), l(2));
    let hub = (0..=FLAT_MAX as u32).map(|i| EdgeRef::new(VertexId(0), drop, VertexId(1 + i)));
    let edges: Vec<_> = hub
        .chain([
            EdgeRef::new(VertexId(0), keep, VertexId(5)),
            EdgeRef::new(VertexId(2), keep, VertexId(3)),
            EdgeRef::new(VertexId(2), drop, VertexId(4)),
            EdgeRef::new(VertexId(7), keep, VertexId(9)),
        ])
        .collect();
    let labels = vec![LabelSet::single(l(0)); 2 + FLAT_MAX];
    for g in [DynamicGraph::from_edges(labels.clone(), edges.clone()), labeled_graph(2 + FLAT_MAX)]
    {
        let mut g = g;
        for e in &edges {
            g.insert_edge(e.src, e.label, e.dst);
        }
        assert!(g.is_directory(VertexId(0), Dir::Out));
        let got = g.project(|lab| lab == keep);
        got.validate();
        assert!(!got.is_directory(VertexId(0), Dir::Out));
        let kept =
            [(0, 5), (2, 3), (7, 9)].map(|(s, d)| EdgeRef::new(VertexId(s), keep, VertexId(d)));
        assert!(got.edges().eq(kept));
        let st = got.storage_stats();
        assert_eq!((st.inline_runs, st.flat_runs, st.directory_runs, st.live_slots), (6, 0, 0, 0));
    }
}

type Model = std::collections::BTreeSet<(LabelId, VertexId)>;

/// `v`'s out-run equals `model` through every accessor, and `validate`
/// (which checks a flat run's headers) holds.
fn assert_out_run(g: &DynamicGraph, v: VertexId, model: &Model) {
    g.validate();
    assert!(g.neighbors(v, Dir::Out).map(|(w, lab)| (lab, w)).eq(model.iter().copied()));
    let mut runs: Vec<(LabelId, usize)> = Vec::new();
    for &(lab, _) in model {
        match runs.last_mut() {
            Some((last, n)) if *last == lab => *n += 1,
            _ => runs.push((lab, 1)),
        }
    }
    assert!(g.label_runs(v, Dir::Out).eq(runs.iter().copied()));
    for &(lab, _) in &runs {
        let want = model.range((lab, VertexId(0))..=(lab, VertexId(u32::MAX))).map(|e| e.1);
        assert!(g.group(v, Dir::Out, lab).iter().copied().eq(want), "{v} over {lab:?}");
    }
    assert!(g.group(v, Dir::Out, l(LabelId::LIMIT - 1)).is_empty());
}

/// A hub's out-run under single edge ops, beside its model, counting the
/// header transitions of its flat run and its layout changes.
struct Hub {
    g: DynamicGraph,
    model: Model,
    /// Label groups created (row 0) and emptied (row 1) in a flat run, at
    /// the front, in the middle and at the back.
    seen: [[usize; 3]; 2],
    unfolds: usize,
    folds: usize,
}

impl Hub {
    const V: VertexId = VertexId(0);

    fn op(&mut self, insert: bool, e: (LabelId, VertexId)) {
        let was = self.g.is_directory(Self::V, Dir::Out);
        let had = self.model.range((e.0, VertexId(0))..=(e.0, VertexId(u32::MAX))).count();
        let labels = |m: &Model| m.iter().map(|e| e.0).collect::<std::collections::BTreeSet<_>>();
        let before = labels(&self.model);
        if insert {
            assert_eq!(self.g.insert_edge(Self::V, e.0, e.1), self.model.insert(e));
        } else {
            assert_eq!(self.g.delete_edge(Self::V, e.0, e.1), self.model.remove(&e));
        }
        let now = self.g.is_directory(Self::V, Dir::Out);
        // A group appears or empties in a run that is flat before and after.
        let header = if insert { had == 0 } else { had == 1 && !self.model.contains(&e) };
        let flat = !was && !now && self.model.len() >= 2 + usize::from(insert);
        if header && flat {
            let all = if insert { labels(&self.model) } else { before };
            let at = match all.iter().position(|&x| x == e.0) {
                Some(0) => 0,
                Some(i) if i + 1 == all.len() => 2,
                _ => 1,
            };
            self.seen[usize::from(!insert)][at] += 1;
        }
        self.unfolds += usize::from(!was && now);
        self.folds += usize::from(was && !now);
        assert_out_run(&self.g, Self::V, &self.model);
    }

    fn drain(&mut self) {
        for victim in self.model.clone() {
            self.op(false, victim);
        }
    }
}

/// The grouped flat layout — one `label·len` header per label group, then
/// the ids — through every transition a header takes, on one hub whose
/// out-run follows a `BTreeSet` model: a group created and emptied at the
/// front, in the middle and at the back; a single group of `FLAT_MAX`
/// entries and `FLAT_MAX` groups of one; flat → directory past `FLAT_MAX`
/// and the fold back at half of it. At checkpoints `clone`, `from_edges` and
/// `project` (dropping a middle group) each equal the incremental build,
/// down to the words they carve.
#[test]
fn grouped_flat_runs_follow_a_btreeset_through_every_header_transition() {
    const N: u32 = 3 * FLAT_MAX as u32;
    let mut hub = Hub {
        g: labeled_graph(N as usize),
        model: Model::new(),
        seen: [[0; 3]; 2],
        unfolds: 0,
        folds: 0,
    };
    let e = |lab: u32, w: u32| (l(lab), VertexId(w));
    // Groups 2, 4, 6 of four each (4 and 6 appear at the back); then 5
    // (middle), 1 (front) and 9 (back) appear with two entries and go
    // again, and 4 empties entry by entry.
    for lab in [2, 4, 6] {
        (1..=4).for_each(|w| hub.op(true, e(lab, w * lab)));
    }
    for lab in [5, 1, 9] {
        hub.op(true, e(lab, 7));
        hub.op(true, e(lab, 3));
        hub.op(false, e(lab, 7));
        hub.op(false, e(lab, 3));
    }
    (1..=4).for_each(|w| hub.op(false, e(4, 4 * w)));
    assert_eq!(hub.seen, [[1, 1, 3], [1, 2, 1]], "scripted header transitions");
    hub.drain();
    // One group of FLAT_MAX entries, flat; one more makes a directory,
    // which folds back once half of FLAT_MAX is left.
    (1..=FLAT_MAX as u32).for_each(|w| hub.op(true, e(3, w)));
    assert!(!hub.g.is_directory(Hub::V, Dir::Out));
    assert!(hub.g.label_runs(Hub::V, Dir::Out).eq([(l(3), FLAT_MAX)]));
    hub.op(true, e(3, N - 1));
    assert!(hub.g.is_directory(Hub::V, Dir::Out));
    for w in 1..=FLAT_MAX as u32 / 2 + 1 {
        assert!(hub.g.is_directory(Hub::V, Dir::Out), "no fold above half of FLAT_MAX");
        hub.op(false, e(3, w));
    }
    assert!(
        !hub.g.is_directory(Hub::V, Dir::Out) && hub.model.len() == FLAT_MAX / 2,
        "folds at half"
    );
    hub.drain();
    // FLAT_MAX groups of one entry: the most headers a flat run holds.
    (0..FLAT_MAX as u32).for_each(|lab| hub.op(true, e(lab, lab + 1)));
    assert!(
        !hub.g.is_directory(Hub::V, Dir::Out)
            && hub.g.label_runs(Hub::V, Dir::Out).count() == FLAT_MAX
    );
    hub.op(true, e(FLAT_MAX as u32, 1));
    assert!(hub.g.is_directory(Hub::V, Dir::Out));
    hub.drain();
    assert_eq!((hub.unfolds, hub.folds), (2, 2));
    // Random churn over 12 labels, the degree sweeping 0 → past FLAT_MAX →
    // 0 three times; a checkpoint compares the copies with the hub's graph.
    let rng = &mut 0x5DEE_CE66_D1CE_4E5Bu64;
    let labels: Vec<_> = (0..N).map(|i| LabelSet::single(l(i % 3))).collect();
    for step in 0..9_000u32 {
        let growing = (step / 1_500) % 2 == 0;
        // Label 0 has two neighbors to choose from, so the front group
        // comes and goes too.
        let entry = match below(rng, 8) {
            0 => e(0, 1 + below(rng, 2) as u32),
            _ => e(1 + below(rng, 11) as u32, 1 + below(rng, N as u64 - 1) as u32),
        };
        if below(rng, 8) < if growing { 5 } else { 2 } {
            hub.op(true, entry);
        } else {
            let victim = hub.model.range(entry..).next().copied().unwrap_or(entry);
            hub.op(false, victim);
        }
        if step % 150 != 0 {
            continue;
        }
        let (g, model) = (&hub.g, &hub.model);
        let bulk = DynamicGraph::from_edges(labels.clone(), g.edges().collect());
        let copy = g.clone();
        for got in [&bulk, &copy] {
            assert_out_run(got, Hub::V, model);
        }
        assert_eq!(copy.storage_stats(), bulk.storage_stats(), "step {step}");
        let present: Vec<LabelId> = g.label_runs(Hub::V, Dir::Out).map(|(lab, _)| lab).collect();
        let Some(&drop) = present.get(present.len() / 2) else { continue };
        let keep = |lab: LabelId| lab != drop;
        let kept: Model = model.iter().filter(|e| keep(e.0)).copied().collect();
        let want =
            DynamicGraph::from_edges(labels.clone(), g.edges().filter(|e| keep(e.label)).collect());
        let got = g.clone().project(keep);
        assert_out_run(&got, Hub::V, &kept);
        assert!(got.edges().eq(want.edges()));
        let (gs, ws) = (got.storage_stats(), want.storage_stats());
        assert_eq!(
            gs.carved_entries, ws.carved_entries,
            "step {step}: project lays what from_edges does"
        );
        let layouts = |s: tfx_graph::StorageStats| (s.inline_runs, s.flat_runs, s.directory_runs);
        assert_eq!(layouts(gs), layouts(ws), "step {step}");
    }
    assert!(hub.unfolds >= 5 && hub.folds >= 5, "{} unfolds, {} folds", hub.unfolds, hub.folds);
    assert!(hub.seen.iter().flatten().all(|&n| n >= 20), "header transitions: {:?}", hub.seen);
}
