//! Storage-level properties of [`DynamicGraph`]'s slot arena, through the
//! public API only: the bulk constructor and `clone()` lay out the graph
//! incremental inserts build (compactly), and `resident_bytes` /
//! `storage_stats` are exact fixpoints under self-inverting churn.

use tfx_graph::{DynamicGraph, EdgeRef, LabelId, LabelSet, VertexId, FLAT_MAX};

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
            assert!(copy.in_neighbors(v).eq(g.in_neighbors(v)));
            assert_eq!(copy.labels(v), g.labels(v));
            assert_eq!(copy.out_is_directory(v), g.out_degree(v) > FLAT_MAX);
        }
        for lab in 0..5 {
            assert_eq!(copy.edge_label_count(l(lab)), g.edge_label_count(l(lab)));
            assert_eq!(copy.vertex_label_count(l(lab)), g.vertex_label_count(l(lab)));
        }
        let (stats, orig) = (copy.storage_stats(), g.storage_stats());
        assert_eq!(stats.free_slots, 0, "a copy is laid out compactly");
        assert!(stats.carved_entries < orig.carved_entries);
        assert_eq!(stats.directory_runs, 1);
        assert_eq!(stats.flat_runs, 2 * n as usize - 1);
        assert!(copy.resident_bytes() <= g.resident_bytes());
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
        assert!(g.out_is_directory(VertexId(0)));
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

#[test]
#[should_panic(expected = "missing vertex")]
fn from_edges_rejects_an_edge_naming_a_missing_vertex() {
    let edge = EdgeRef::new(VertexId(0), l(0), VertexId(2));
    DynamicGraph::from_edges(vec![LabelSet::empty(); 2], vec![edge]);
}
