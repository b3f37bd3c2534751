//! The Netflow-like trace generator.
//!
//! The paper's Netflow dataset is a CAIDA passive backbone trace whose
//! difficulty comes from exactly two properties (§B.4): *no vertex labels*
//! and *only eight edge labels*, i.e. almost every data edge matches almost
//! every query edge, producing enormous intermediate results for
//! materializing engines. This generator reproduces those properties plus
//! heavy-tailed host degrees (backbone traffic concentrates on few hosts)
//! with a preferential-attachment endpoint pool.

use tfx_graph::{LabelId, LabelInterner, LabelSet, VertexId};

use crate::dataset::{split_into_dataset, Dataset};
use crate::rng::Pcg32;
use crate::schema::netflow_schema;

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct NetflowConfig {
    /// Number of hosts (IP addresses).
    pub hosts: usize,
    /// Number of flow edges to generate.
    pub flows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of edges that form the insertion stream (paper: ~0.1).
    pub stream_frac: f64,
}

impl Default for NetflowConfig {
    fn default() -> Self {
        NetflowConfig { hosts: 2000, flows: 40_000, seed: 2018, stream_frac: 0.1 }
    }
}

/// Generates a Netflow-like dataset.
pub fn generate(cfg: &NetflowConfig) -> Dataset {
    assert!(cfg.hosts >= 10);
    let mut interner = LabelInterner::new();
    let schema = netflow_schema(&mut interner);
    let protocols: Vec<LabelId> = schema.relations().iter().map(|r| r.label).collect();
    assert_eq!(protocols.len(), 8);
    let mut rng = Pcg32::with_stream(cfg.seed, 0x0E7F10);

    let vertex_labels: Vec<LabelSet> = (0..cfg.hosts).map(|_| LabelSet::empty()).collect();
    let vertex_types = vec![0usize; cfg.hosts];

    // Preferential attachment pool seeded with every host once.
    let mut pool: Vec<VertexId> = (0..cfg.hosts as u32).map(VertexId).collect();
    // Protocol mix is skewed like real traffic: tcp/udp dominate.
    let proto_weights = [40usize, 25, 10, 6, 6, 5, 4, 4];
    let weight_total: usize = proto_weights.iter().sum();

    let mut edges = Vec::with_capacity(cfg.flows);
    let mut seen = rustc_hash::FxHashSet::default();
    let mut attempts = 0usize;
    while edges.len() < cfg.flows && attempts < cfg.flows * 4 {
        attempts += 1;
        let s = *rng.pick(&pool);
        let d = *rng.pick(&pool);
        if s == d {
            continue;
        }
        let mut roll = rng.below(weight_total);
        let mut proto = protocols[0];
        for (i, &w) in proto_weights.iter().enumerate() {
            if roll < w {
                proto = protocols[i];
                break;
            }
            roll -= w;
        }
        let e = (s, proto, d);
        if seen.insert(e) {
            edges.push(e);
            pool.push(s);
            pool.push(d);
        }
    }

    split_into_dataset(edges, vertex_labels, vertex_types, cfg.stream_frac, interner, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::Dir;

    #[test]
    fn deterministic_and_sized() {
        let cfg = NetflowConfig { hosts: 100, flows: 2000, seed: 11, stream_frac: 0.1 };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.stream.ops(), b.stream.ops());
        let total = a.g0.edge_count() + a.stream.insert_count();
        assert!(total >= 1900, "close to requested flow count, got {total}");
    }

    #[test]
    fn hosts_are_unlabeled_with_eight_protocols() {
        let d = generate(&NetflowConfig { hosts: 50, flows: 500, seed: 1, stream_frac: 0.1 });
        assert!(d.g0.vertices().all(|v| d.g0.labels(v).is_empty()));
        let mut protos = rustc_hash::FxHashSet::default();
        for e in d.g0.edges() {
            protos.insert(e.label);
        }
        assert!(protos.len() >= 6, "most of the 8 protocols appear: {}", protos.len());
        assert!(d.interner.get("tcp").is_some());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let d = generate(&NetflowConfig { hosts: 500, flows: 10_000, seed: 3, stream_frac: 0.1 });
        let g = d.final_graph();
        let mut degs: Vec<usize> =
            g.vertices().map(|v| g.degree(v, Dir::Out) + g.degree(v, Dir::In)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(degs[0] >= 5 * degs[degs.len() / 2].max(1));
    }

    #[test]
    fn stream_replays_cleanly() {
        let d = generate(&NetflowConfig { hosts: 50, flows: 500, seed: 5, stream_frac: 0.2 });
        let mut g = d.g0.clone();
        for op in &d.stream {
            assert!(g.apply(op));
        }
        assert!(d.stream.insert_count() > 50);
    }
}
