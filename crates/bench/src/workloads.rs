//! Canonical datasets and query sets shared by the experiments of the
//! `figures` binary (§5.1's workload description, scaled).

use tfx_datagen::{
    lsbench, netflow, queries, Dataset, LsBenchConfig, NetflowConfig, Pcg32, Schema,
};
use tfx_graph::UpdateStream;
use tfx_query::QueryGraph;

use crate::harness::filter_selective_queries;
use crate::params::Params;

/// The default LSBench-like dataset.
pub fn lsbench_dataset(p: &Params) -> Dataset {
    lsbench::generate(&LsBenchConfig { users: p.users, seed: p.seed, stream_frac: 0.1 })
}

/// An LSBench-like dataset scaled by `factor` users (Fig. 9).
pub fn lsbench_dataset_scaled(p: &Params, factor: usize) -> Dataset {
    lsbench::generate(&LsBenchConfig { users: p.users * factor, seed: p.seed, stream_frac: 0.1 })
}

/// The default Netflow-like dataset.
pub fn netflow_dataset(p: &Params) -> Dataset {
    netflow::generate(&NetflowConfig {
        hosts: p.hosts,
        flows: p.flows,
        seed: p.seed,
        stream_frac: 0.1,
    })
}

/// `stream` followed by deletions of `rate` × its insertions, randomly
/// chosen (Figures 11 and 12b).
pub fn with_deletions(d: &Dataset, stream: UpdateStream, rate: f64, seed: u64) -> UpdateStream {
    let mut scoped = Dataset {
        g0: d.g0.clone(),
        stream,
        interner: d.interner.clone(),
        schema: d.schema.clone(),
        vertex_types: d.vertex_types.clone(),
    };
    scoped.append_deletions(rate, seed);
    scoped.stream
}

/// The queries of `qs` with at least one positive match over the stream;
/// reports how many of them the count of size `size` kept and how many it
/// could not finish within the timeout.
fn selective(qs: Vec<QueryGraph>, dataset: &Dataset, p: &Params, size: usize) -> Vec<QueryGraph> {
    let total = qs.len();
    let selective = filter_selective_queries(qs, dataset, p.timeout);
    eprintln!(
        "size {size}: {} of {total} queries match, {} timed out counting their matches",
        selective.kept.len(),
        selective.timed_out
    );
    selective.kept.into_iter().map(|(q, _)| q).collect()
}

/// The default query set (bold in Table 1): the selective tree queries of
/// size 6 over `dataset`.
pub fn default_tree_queries(dataset: &Dataset, p: &Params) -> Vec<QueryGraph> {
    let (size, queries) = tree_query_sets(dataset, p, &[Params::DEFAULT_TREE_SIZE]).remove(0);
    eprintln!("{} selective tree queries of size {size}", queries.len());
    queries
}

/// `n` cyclic queries of `size` edges, unfiltered: cycles of length 3/4/5
/// in turn (§5.1), each grown to the target size.
pub fn cyclic_query_set(schema: &Schema, n: usize, seed: u64, size: usize) -> Vec<QueryGraph> {
    let mut made = 0usize;
    queries::query_set(n, &queries::QueryGenConfig { seed }, |rng| {
        let cycle = [3, 4, 5][made % 3];
        made += 1;
        queries::random_cyclic_query(schema, cycle, size, rng)
    })
}

/// Tree query sets per size, built the paper's way: generate size-12
/// queries by schema traversal and shrink them (connected) to the smaller
/// sizes, then drop queries without positive matches over the stream.
pub fn tree_query_sets(
    dataset: &Dataset,
    p: &Params,
    sizes: &[usize],
) -> Vec<(usize, Vec<QueryGraph>)> {
    let base = queries::query_set(
        p.queries_per_set,
        &queries::QueryGenConfig { seed: p.seed ^ 0x7EE5 },
        |rng| Some(queries::random_tree_query(&dataset.schema, 12, rng)),
    );
    sizes
        .iter()
        .map(|&size| {
            let mut rng = Pcg32::with_stream(p.seed ^ size as u64, 0x51);
            let qs: Vec<QueryGraph> = base
                .iter()
                .filter_map(|q12| {
                    if size == 12 {
                        Some(q12.clone())
                    } else {
                        queries::shrink_query(q12, size, &mut rng)
                    }
                })
                .collect();
            (size, selective(qs, dataset, p, size))
        })
        .collect()
}

/// Graph (cyclic) query sets per size: cycles of length 3/4/5 in equal
/// proportion grown to the target size, filtered for positive matches.
pub fn graph_query_sets(
    dataset: &Dataset,
    p: &Params,
    sizes: &[usize],
) -> Vec<(usize, Vec<QueryGraph>)> {
    sizes
        .iter()
        .map(|&size| {
            let seed = p.seed ^ 0xC1C1 ^ (size as u64) << 8;
            let qs = cyclic_query_set(&dataset.schema, p.queries_per_set, seed, size);
            (size, selective(qs, dataset, p, size))
        })
        .collect()
}

/// Path query sets (the \[7\] queryset; Fig. 15): sizes 3–5.
pub fn path_query_sets(dataset: &Dataset, p: &Params) -> Vec<(usize, Vec<QueryGraph>)> {
    [3usize, 4, 5]
        .iter()
        .map(|&size| {
            let qs = queries::query_set(
                p.queries_per_set.min(30),
                &queries::QueryGenConfig { seed: p.seed ^ 0x9A7 ^ (size as u64) << 4 },
                |rng| Some(queries::random_path_query(&dataset.schema, size, rng)),
            );
            (size, selective(qs, dataset, p, size))
        })
        .collect()
}

/// Binary-tree query sets (the \[7\] queryset; Fig. 16): sizes 4–14 step 2,
/// three queries per size as in the paper.
pub fn btree_query_sets(dataset: &Dataset, p: &Params) -> Vec<(usize, Vec<QueryGraph>)> {
    [4usize, 6, 8, 10, 12, 14]
        .iter()
        .map(|&size| {
            let qs = queries::query_set(
                3,
                &queries::QueryGenConfig { seed: p.seed ^ 0xB7EE ^ (size as u64) << 4 },
                |rng| Some(queries::random_binary_tree_query(&dataset.schema, size, rng)),
            );
            (size, selective(qs, dataset, p, size))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Params {
        Params {
            users: 60,
            hosts: 60,
            flows: 1200,
            queries_per_set: 4,
            timeout: std::time::Duration::from_secs(5),
            ..Params::default()
        }
    }

    #[test]
    fn tree_sets_have_right_sizes() {
        let p = tiny_params();
        let d = lsbench_dataset(&p);
        let sets = tree_query_sets(&d, &p, &[3, 6]);
        assert_eq!(sets.len(), 2);
        for (size, qs) in &sets {
            for q in qs {
                assert_eq!(q.edge_count(), *size);
                assert!(q.is_connected());
            }
        }
    }

    #[test]
    fn graph_sets_are_cyclic() {
        let p = tiny_params();
        let d = lsbench_dataset(&p);
        let sets = graph_query_sets(&d, &p, &[6]);
        for (_, qs) in &sets {
            for q in qs {
                assert!(q.edge_count() >= q.vertex_count(), "has a cycle");
            }
        }
    }

    #[test]
    fn netflow_path_sets() {
        let p = tiny_params();
        let d = netflow_dataset(&p);
        let sets = path_query_sets(&d, &p);
        assert_eq!(sets.len(), 3);
        // Netflow is so unselective that path queries almost always match.
        assert!(sets.iter().any(|(_, qs)| !qs.is_empty()));
    }
}
