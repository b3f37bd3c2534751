//! Skewed hub workload: a power-law-style graph whose update stream keeps
//! rebuilding DCG subtrees under high-out-degree hubs.
//!
//! Uniform-random streams hide the cost of flat adjacency scans — average
//! degree is low, so O(deg) and O(|label group|) are the same handful of
//! entries. This workload makes the difference visible, the way skewed real
//! graphs do:
//!
//! * **Hub** vertices carry a large bulk fan-out (`spokes_per_hub` edges
//!   spread over `bulk_labels` labels) plus a *few* `probe`-labeled edges.
//! * The registered query ([`probe_query`]) is the path
//!   `Source -feed-> Hub -probe-> Spoke`, so candidate enumeration under a
//!   hub only ever needs the tiny `probe` group — but a flat scan walks all
//!   of the hub's bulk edges to find it.
//! * The stream alternately inserts and deletes a `feed` edge into each
//!   unseeded hub. Each insert is the hub's first incoming `feed` edge, so
//!   the engine's check-and-avoid rule fires and `BuildDCG` re-enumerates
//!   the hub's children on *every* round — one adjacency scan per update,
//!   which is exactly the hot path the label-partitioned index targets.
//!
//! A few hubs get a standing feed edge in `g0` ("seeded") so that the feed
//! relation is the most selective query edge and `ChooseStartQVertex` roots
//! the tree at `Source`; counts satisfy `#feed < #probe < #bulk` and
//! `#Source < #Hub < #Spoke`.

use tfx_graph::{LabelInterner, LabelSet, UpdateOp, UpdateStream, VertexId};
use tfx_query::QueryGraph;

use crate::dataset::Dataset;
use crate::rng::Pcg32;
use crate::schema::Schema;

/// Configuration for the hub workload generator.
#[derive(Clone, Copy, Debug)]
pub struct HubConfig {
    /// Number of `Source` vertices.
    pub sources: usize,
    /// Number of `Hub` vertices.
    pub hubs: usize,
    /// Bulk out-edges per hub (the skew; spread over `bulk_labels`).
    pub spokes_per_hub: usize,
    /// Number of distinct bulk edge labels.
    pub bulk_labels: usize,
    /// `probe`-labeled out-edges per hub (the rare label the query wants).
    pub probe_edges_per_hub: usize,
    /// Insert+delete rounds over the unseeded hubs in the stream.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            sources: 16,
            hubs: 64,
            spokes_per_hub: 256,
            bulk_labels: 8,
            probe_edges_per_hub: 4,
            rounds: 4,
            seed: 2018,
        }
    }
}

impl HubConfig {
    /// Default configuration at a given hub fan-out.
    pub fn with_spokes_per_hub(spokes_per_hub: usize) -> Self {
        HubConfig { spokes_per_hub, ..Self::default() }
    }
}

/// Generates the hub workload. Vertex layout: sources `0..S`, hubs
/// `S..S+H`, spokes after that (twice the per-hub fan-out, shared by all
/// hubs).
pub fn generate(cfg: &HubConfig) -> Dataset {
    assert!(cfg.sources >= 1 && cfg.hubs >= 2 && cfg.bulk_labels >= 1);
    let mut interner = LabelInterner::new();
    let mut schema = Schema::new();
    let src_t = {
        let l = interner.intern("Source");
        schema.add_vertex_type("Source", Some(l))
    };
    let hub_t = {
        let l = interner.intern("Hub");
        schema.add_vertex_type("Hub", Some(l))
    };
    let spoke_t = {
        let l = interner.intern("Spoke");
        schema.add_vertex_type("Spoke", Some(l))
    };
    let feed = interner.intern("feed");
    schema.add_relation(src_t, feed, hub_t);
    let bulk: Vec<_> = (0..cfg.bulk_labels).map(|k| interner.intern(&format!("bulk{k}"))).collect();
    for &l in &bulk {
        schema.add_relation(hub_t, l, spoke_t);
    }
    let probe = interner.intern("probe");
    schema.add_relation(hub_t, probe, spoke_t);

    let n_spokes = (cfg.spokes_per_hub * 2).max(cfg.probe_edges_per_hub * 2).max(2);
    let mut g0 = tfx_graph::DynamicGraph::new();
    let mut vertex_types = Vec::new();
    for _ in 0..cfg.sources {
        g0.add_vertex(schema.type_label_set(src_t));
        vertex_types.push(src_t);
    }
    for _ in 0..cfg.hubs {
        g0.add_vertex(schema.type_label_set(hub_t));
        vertex_types.push(hub_t);
    }
    for _ in 0..n_spokes {
        g0.add_vertex(schema.type_label_set(spoke_t));
        vertex_types.push(spoke_t);
    }
    let source_v = |i: usize| VertexId(i as u32);
    let hub_v = |i: usize| VertexId((cfg.sources + i) as u32);
    let spoke_v = |i: usize| VertexId((cfg.sources + cfg.hubs + i) as u32);

    let mut rng = Pcg32::with_stream(cfg.seed, 0x4B5B);
    for h in 0..cfg.hubs {
        // Bulk fan-out: duplicates are dropped by the edge set, so actual
        // degree can be slightly below `spokes_per_hub`. That is fine — the
        // skew, not the exact count, is the point.
        for _ in 0..cfg.spokes_per_hub {
            let l = bulk[rng.below(bulk.len())];
            g0.insert_edge(hub_v(h), l, spoke_v(rng.below(n_spokes)));
        }
        // A few distinct probe edges: the rare group the query asks for.
        let mut targets: Vec<usize> = (0..n_spokes).collect();
        rng.shuffle(&mut targets);
        for &t in targets.iter().take(cfg.probe_edges_per_hub) {
            g0.insert_edge(hub_v(h), probe, spoke_v(t));
        }
    }
    // Seed a standing feed edge into the first quarter of the hubs so the
    // feed relation is the most selective query edge in g0 (the tree then
    // roots at Source) and the initial result set is non-empty.
    let seeded = (cfg.hubs / 4).max(1);
    for h in 0..seeded {
        g0.insert_edge(source_v(h % cfg.sources), feed, hub_v(h));
    }

    // Stream: per round, give every unseeded hub its first feed edge, then
    // take it away again. `in_count(hub, u_hub)` oscillates 0 ↔ 1, so every
    // insert re-runs BuildDCG below the hub (check-and-avoid fires) and
    // every delete clears it.
    let mut ops = Vec::new();
    for _ in 0..cfg.rounds {
        let mut round: Vec<(VertexId, VertexId)> = Vec::new();
        for h in seeded..cfg.hubs {
            round.push((source_v(rng.below(cfg.sources)), hub_v(h)));
        }
        for &(s, h) in &round {
            ops.push(UpdateOp::InsertEdge { src: s, label: feed, dst: h });
        }
        for &(s, h) in &round {
            ops.push(UpdateOp::DeleteEdge { src: s, label: feed, dst: h });
        }
    }

    Dataset { g0, stream: UpdateStream::from_ops(ops), interner, schema, vertex_types }
}

/// The query the workload is built for: `Source -feed-> Hub -probe-> Spoke`.
pub fn probe_query(d: &Dataset) -> QueryGraph {
    let label = |n: &str| d.interner.get(n).expect("hub dataset label");
    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(label("Source")));
    let u1 = q.add_vertex(LabelSet::single(label("Hub")));
    let u2 = q.add_vertex(LabelSet::single(label("Spoke")));
    q.add_edge(u0, u1, Some(label("feed")));
    q.add_edge(u1, u2, Some(label("probe")));
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::{Dir, FLAT_MAX};
    use tfx_query::{choose_start_vertex, matching_edge_counts};

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&HubConfig::default());
        let b = generate(&HubConfig::default());
        assert_eq!(a.g0.edge_count(), b.g0.edge_count());
        assert_eq!(a.stream.ops(), b.stream.ops());
        let mut ea: Vec<_> = a.g0.edges().collect();
        let mut eb: Vec<_> = b.g0.edges().collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
    }

    #[test]
    fn hubs_are_directories_and_probe_groups_stay_small() {
        let cfg = HubConfig::default();
        let d = generate(&cfg);
        let probe = d.interner.get("probe").unwrap();
        for h in 0..cfg.hubs {
            let hub = VertexId((cfg.sources + h) as u32);
            assert!(d.g0.degree(hub, Dir::Out) > FLAT_MAX, "hub fan-out is the skew");
            assert!(d.g0.is_directory(hub, Dir::Out));
            let group = d.g0.group(hub, Dir::Out, probe);
            assert_eq!(group.len(), cfg.probe_edges_per_hub);
            assert!(group.len() * 8 < d.g0.degree(hub, Dir::Out), "probe group is the rare one");
        }
    }

    #[test]
    fn stream_oscillates_feed_edges() {
        let cfg = HubConfig::default();
        let d = generate(&cfg);
        let feed = d.interner.get("feed").unwrap();
        let unseeded = cfg.hubs - (cfg.hubs / 4).max(1);
        assert_eq!(d.stream.ops().len(), cfg.rounds * unseeded * 2);
        let mut g = d.g0.clone();
        let base: Vec<usize> =
            d.g0.vertices().map(|v| d.g0.group(v, Dir::In, feed).len()).collect();
        for op in &d.stream {
            g.apply(op);
        }
        // Every round returns the graph to its initial feed state.
        for v in g.vertices() {
            assert_eq!(g.group(v, Dir::In, feed).len(), base[v.index()]);
        }
        for op in d.stream.ops() {
            match op {
                UpdateOp::InsertEdge { label, .. } | UpdateOp::DeleteEdge { label, .. } => {
                    assert_eq!(*label, feed);
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
    }

    #[test]
    fn probe_query_roots_at_source() {
        let d = generate(&HubConfig::default());
        let q = probe_query(&d);
        let counts = matching_edge_counts(&q, &d.g0);
        let root = choose_start_vertex(&q, &d.g0, &counts);
        assert_eq!(root, tfx_query::QVertexId(0), "root is Source");
    }
}
