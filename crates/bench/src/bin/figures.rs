//! `figures` — every table and figure of the paper's evaluation (§5,
//! Appendices B and C), one experiment per id.
//!
//! ```text
//! figures --list               the experiment ids, one per line
//! figures <id>… [--scatter]    run the named experiments, tables on stdout
//! figures all [--scatter]      run every experiment, in table order
//! ```
//!
//! Every experiment is the same harness call — `cost(M(Δg, q))` and the
//! intermediate-result size per (engine, query set, stream) — swept over a
//! different parameter of Table 1; [`FIGURES`] names them and
//! `tfx_bench::suite` holds what they share. Scale comes from the
//! environment (see `tfx_bench::params`); `TFX_JSON=1` adds a JSON line per
//! table; `--scatter` adds the per-query tables of Figures 6c/d and 7c/d.

use std::process::ExitCode;
use std::slice;

use tfx_baselines::{nec_compress, NecSjTree, SjTree};
use tfx_bench::harness::{
    count_stream_positives, make_engine, run_query_on_engine, BareTimes, QueryRun, RunConfig,
};
use tfx_bench::report::{fmt_bytes, fmt_duration, speedup, Table};
use tfx_bench::suite::{
    compare_engines, compare_sets, cost_cell, cost_cells, cost_table, rate_sweep, scatter_tables,
    storage_table, sweep_cost_table, EngineSummary, TF_SJ_GF,
};
use tfx_bench::workloads::{
    btree_query_sets, cyclic_query_set, default_tree_queries, graph_query_sets, lsbench_dataset,
    lsbench_dataset_scaled, netflow_dataset, path_query_sets, tree_query_sets, with_deletions,
};
use tfx_bench::{EngineKind, Params};
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_datagen::{queries, Dataset, Pcg32};
use tfx_query::{ContinuousMatcher, MatchSemantics, QueryGraph};

use MatchSemantics::{Homomorphism, Isomorphism};

/// `(id, title, run(params, scatter))`; the id is also the name of the
/// experiment's `results/<id>.txt`.
type Figure = (&'static str, &'static str, fn(&Params, bool));

const FIGURES: [Figure; 15] = [
    ("fig03_tradeoff", "Fig 3: performance vs storage, all four engines", fig03_tradeoff),
    ("fig06_lsbench_tree", "Fig 6: LSBench tree queries (--scatter: 6c/d)", fig06_lsbench_tree),
    ("fig07_lsbench_graph", "Fig 7: LSBench cyclic queries (--scatter: 7c/d)", fig07_lsbench_graph),
    ("fig08_insertion_rate", "Fig 8: insertion rate 2-10 %", fig08_insertion_rate),
    ("fig09_dataset_size", "Fig 9: dataset size x1 / x4 / x16, fixed stream", fig09_dataset_size),
    ("fig10_isomorphism", "Fig 10 (B.1): isomorphism, LSBench tree + cyclic", fig10_isomorphism),
    ("fig11_deletion_rate", "Fig 11 (B.2): deletion rate 2-10 %", fig11_deletion_rate),
    ("fig12_incisomat", "Fig 12 (B.3): IncIsoMat on the min/max-cost query", fig12_incisomat),
    ("fig13_netflow_tree", "Fig 13 + B.4: Netflow tree queries", fig13_netflow_tree),
    ("fig14_netflow_graph", "Fig 14 (B.4): Netflow cyclic queries", fig14_netflow_graph),
    ("fig15_netflow_paths", "Fig 15 (B.6): Netflow path queries of [7]", fig15_netflow_paths),
    ("fig16_netflow_btrees", "Fig 16 (B.6): Netflow binary trees of [7]", fig16_netflow_btrees),
    ("fig17_selectivity", "Fig 17 (C): selectivity of the six query sets", fig17_selectivity),
    ("ablation_dcg", "Ablation: DCG size vs semantics", ablation_dcg),
    ("appb5_sjtree_nec", "App B.5: SJ-Tree with NEC query compression", appb5_sjtree_nec),
];

fn usage() -> ExitCode {
    eprintln!("usage: figures --list | <id>... [--scatter] | all [--scatter]");
    for (id, title, _) in &FIGURES {
        eprintln!("  {id:<22}{title}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        FIGURES.iter().for_each(|(id, ..)| println!("{id}"));
        return ExitCode::SUCCESS;
    }
    let scatter = args.iter().any(|a| a == "--scatter");
    args.retain(|a| a != "--scatter");
    let picked: Option<Vec<&Figure>> = if args == ["all"] {
        Some(FIGURES.iter().collect())
    } else {
        args.iter().map(|a| FIGURES.iter().find(|(id, ..)| id == a)).collect()
    };
    let Some(picked) = picked.filter(|p| !p.is_empty()) else {
        return usage();
    };
    let p = match Params::from_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (id, title, run) in picked {
        eprintln!("=== {id}: {title}");
        run(&p, scatter);
    }
    ExitCode::SUCCESS
}

fn emit(tables: impl IntoIterator<Item = Table>) {
    tables.into_iter().for_each(|t| t.emit());
}

fn announce(name: &str, d: &Dataset) {
    let (v, e, inserts) = (d.g0.vertex_count(), d.g0.edge_count(), d.stream.insert_count());
    eprintln!("{name}: |V(g0)|={v} |E(g0)|={e} |Δg|={inserts} inserts");
}

/// One row per method with its average matching cost and intermediate-result
/// size on the default workload: IncIsoMat and Graphflow store nothing but
/// recompute, SJ-Tree stores everything, TurboFlux sits in the sweet spot.
fn fig03_tradeoff(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let mut queries = default_tree_queries(&d, p);
    // IncIsoMat is orders of magnitude slower; cap the query count so the
    // figure still completes quickly.
    queries.truncate(5);
    let engines =
        [EngineKind::TurboFlux, EngineKind::SjTree, EngineKind::Graphflow, EngineKind::IncIsoMat];
    let mut t = Table::new(
        "Fig 3: performance vs storage trade-off (LSBench tree q6)",
        &["method", "avg cost(M(Δg,q))", "avg intermediate bytes", "timeouts"],
    );
    for s in compare_engines(&engines, &queries, &d.g0, &d.stream, &cfg) {
        t.row(vec![
            s.engine.name().to_owned(),
            cost_cell(&s),
            fmt_bytes(s.mean_bytes),
            s.timeouts.to_string(),
        ]);
    }
    t.emit();
}

/// Figures 6 and 7: `{fig}a` average cost per engine and size, `{fig}b`
/// average intermediate-result size TurboFlux vs SJ-Tree, and with
/// `--scatter` the per-query rows of `{fig}c` / `{fig}d`.
fn lsbench_per_size(
    fig: &str,
    kind: &str,
    what: &str,
    sets: &[(usize, Vec<QueryGraph>)],
    d: &Dataset,
    p: &Params,
    scatter: bool,
) {
    let cfg = RunConfig::for_params(p, Homomorphism);
    let (sizes, summaries) = compare_sets(&TF_SJ_GF, sets, d, &cfg, what);
    let cost = format!("{fig}a: LSBench {kind} queries — avg cost(M(Δg,q))");
    let storage = format!("{fig}b: LSBench {kind} queries — avg intermediate results");
    emit([cost_table(&cost, &sizes, &summaries), storage_table(&storage, &sizes, &summaries)]);
    if scatter {
        emit(scatter_tables(fig, &sizes, &summaries));
    }
}

fn fig06_lsbench_tree(p: &Params, scatter: bool) {
    let d = lsbench_dataset(p);
    announce("LSBench", &d);
    let sets = tree_query_sets(&d, p, &p.tree_sizes);
    lsbench_per_size("Fig 6", "tree", "queries", &sets, &d, p, scatter);
}

/// Cyclic query sets mix triangles, squares and pentagons grown to the
/// target size (§5.1).
fn fig07_lsbench_graph(p: &Params, scatter: bool) {
    let d = lsbench_dataset(p);
    let sets = graph_query_sets(&d, p, &p.graph_sizes);
    lsbench_per_size("Fig 7", "graph", "cyclic queries", &sets, &d, p, scatter);
}

fn fig08_insertion_rate(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let queries = default_tree_queries(&d, p);
    // The full stream is 10% of the dataset's triples; rate r% keeps r/10
    // of it.
    let rows = p.insertion_rates.iter().map(|&rate| {
        let stream = d.stream_at_rate(f64::from(rate) / 10.0);
        (rate, compare_engines(&TF_SJ_GF, &queries, &d.g0, &stream, &cfg))
    });
    emit(rate_sweep("Fig 8", "insertion rate", "rate %", &TF_SJ_GF, rows));
}

/// The paper grows `g0` from 0.1M to 10M users while keeping `Δg` fixed; we
/// scale users by 1× / 4× / 16× and truncate every stream to the smallest
/// scale's edge-op count.
fn fig09_dataset_size(p: &Params, _: bool) {
    let cfg = RunConfig::for_params(p, Homomorphism);
    let factors = [1usize, 4, 16];
    let datasets: Vec<_> = factors.iter().map(|&f| lsbench_dataset_scaled(p, f)).collect();
    let fixed_stream_len =
        datasets.iter().map(|d| d.stream.insert_count()).min().expect("non-empty dataset list");
    // Queries come from the smallest scale (same schema everywhere).
    let queries = default_tree_queries(&datasets[0], p);
    eprintln!("stream fixed to {fixed_stream_len} inserts");

    let mut cost = sweep_cost_table(
        "Fig 9a: varying dataset size — avg cost(M(Δg,q))",
        &["users", "|E(g0)|"],
        &TF_SJ_GF,
    );
    let mut storage = Table::new(
        "Fig 9b: varying dataset size — avg intermediate results",
        &["users", "TurboFlux", "SJ-Tree"],
    );
    for (f, d) in factors.iter().zip(&datasets) {
        let stream = d.stream.truncate_edge_ops(fixed_stream_len);
        let sums = compare_engines(&TF_SJ_GF, &queries, &d.g0, &stream, &cfg);
        let users = (p.users * f).to_string();
        cost.row(
            [users.clone(), d.g0.edge_count().to_string()]
                .into_iter()
                .chain(cost_cells(&sums))
                .collect(),
        );
        storage.row(vec![users, fmt_bytes(sums[0].mean_bytes), fmt_bytes(sums[1].mean_bytes)]);
    }
    emit([cost, storage]);
}

fn fig10_isomorphism(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let cfg = RunConfig::for_params(p, Isomorphism);
    let (sizes, summaries) =
        compare_sets(&TF_SJ_GF, &tree_query_sets(&d, p, &p.tree_sizes), &d, &cfg, "queries");
    cost_table("Fig 10a: isomorphism — LSBench tree queries", &sizes, &summaries).emit();
    let graph_sets = graph_query_sets(&d, p, &p.graph_sizes);
    let (sizes, summaries) = compare_sets(&TF_SJ_GF, &graph_sets, &d, &cfg, "cyclic queries");
    cost_table("Fig 10b: isomorphism — LSBench graph queries", &sizes, &summaries).emit();
}

/// SJ-Tree is excluded: it does not support deletion.
fn fig11_deletion_rate(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let queries = default_tree_queries(&d, p);
    // Insertion rate fixed at 6% of the stream scale; deletions are `rate`%
    // of those insertions appended afterwards.
    let engines = [EngineKind::TurboFlux, EngineKind::Graphflow];
    let rows = p.deletion_rates.iter().map(|&rate| {
        let seed = p.seed ^ u64::from(rate);
        let stream = with_deletions(&d, d.stream_at_rate(0.6), f64::from(rate) / 100.0, seed);
        (rate, compare_engines(&engines, &queries, &d.g0, &stream, &cfg))
    });
    emit(rate_sweep("Fig 11", "deletion rate", "del rate %", &engines, rows));
}

/// As in the paper: take the two tree queries of size 6 with the minimum
/// and maximum TurboFlux cost, run a 10 000-insertion stream (12a) and the
/// same stream plus 6% deletions (12b).
fn fig12_incisomat(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let queries = default_tree_queries(&d, p);
    assert!(!queries.is_empty(), "no selective queries — increase TFX_USERS");

    // Rank the queries by TurboFlux cost to select min / max.
    let ins_stream = d.stream.truncate_edge_ops(10_000.min(d.stream.insert_count()));
    let tf = compare_engines(&[EngineKind::TurboFlux], &queries, &d.g0, &ins_stream, &cfg);
    let mut ranked: Vec<(usize, &QueryRun)> = tf[0].per_query.iter().enumerate().collect();
    ranked.sort_by_key(|&(_, r)| r.matching_cost);
    let picks = [("min-cost", ranked[0].0), ("max-cost", ranked[ranked.len() - 1].0)];

    // ~6% deletions of the inserted edges (the paper's "600 deletions per
    // 10 000 insertions").
    let del_stream = with_deletions(&d, ins_stream.clone(), 0.06, p.seed ^ 12);

    for (label, stream) in
        [("Fig 12a: 10K insertions", &ins_stream), ("Fig 12b: +6% deletions", &del_stream)]
    {
        let mut t = Table::new(
            format!("{label} — TurboFlux vs IncIsoMat"),
            &["query", "TurboFlux", "IncIsoMat", "slowdown", "IncIsoMat timeout"],
        );
        for (name, idx) in picks {
            let engines = [EngineKind::TurboFlux, EngineKind::IncIsoMat];
            let sums =
                compare_engines(&engines, slice::from_ref(&queries[idx]), &d.g0, stream, &cfg);
            let [tf, inc] = [&sums[0].per_query[0], &sums[1].per_query[0]];
            t.row(vec![
                name.into(),
                fmt_duration(tf.matching_cost),
                fmt_duration(inc.matching_cost),
                speedup(inc.matching_cost, tf.matching_cost),
                inc.timed_out.to_string(),
            ]);
        }
        t.emit();
    }
}

/// Figures 13 and 14: TurboFlux alone over an unfiltered Netflow query set
/// per size (the competitors time out on almost everything there).
fn turboflux_table(title: &str) -> Table {
    Table::new(title, &["query size", "TurboFlux avg cost", "timeouts", "queries"])
}

fn turboflux_row(t: &mut Table, size: usize, tf: &EngineSummary) {
    t.row(vec![
        size.to_string(),
        cost_cell(tf),
        tf.timeouts.to_string(),
        tf.per_query.len().to_string(),
    ]);
}

/// Netflow has no vertex labels and only eight edge labels, so SJ-Tree and
/// Graphflow time out on almost everything (the paper could only estimate
/// lower bounds). As in §B.4 we report TurboFlux's cost per size on the
/// full set, plus the competitors on the minimum-cost query per size.
fn fig13_netflow_tree(p: &Params, _: bool) {
    let d = netflow_dataset(p);
    announce("Netflow", &d);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let mut tf_table =
        turboflux_table("Fig 13: Netflow tree queries — TurboFlux avg cost(M(Δg,q))");
    let mut vs_table = Table::new(
        "B.4: min-cost query per size — all engines",
        &["query size", "TurboFlux", "SJ-Tree", "SJ timeout", "Graphflow", "GF timeout"],
    );
    for &size in &p.tree_sizes {
        let qs: Vec<QueryGraph> = queries::query_set(
            p.queries_per_set.min(10),
            &queries::QueryGenConfig { seed: p.seed ^ 0xF13 ^ (size as u64) << 3 },
            |rng| Some(queries::random_tree_query(&d.schema, size, rng)),
        );
        let tf = compare_engines(&[EngineKind::TurboFlux], &qs, &d.g0, &d.stream, &cfg).remove(0);
        turboflux_row(&mut tf_table, size, &tf);

        // Minimum-cost completed query → run the competitors on it.
        let min = tf
            .per_query
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.timed_out)
            .min_by_key(|(_, r)| r.matching_cost);
        if let Some((idx, tfr)) = min {
            let engines = [EngineKind::SjTree, EngineKind::Graphflow];
            let sums = compare_engines(&engines, slice::from_ref(&qs[idx]), &d.g0, &d.stream, &cfg);
            let [sj, gf] = [&sums[0].per_query[0], &sums[1].per_query[0]];
            vs_table.row(vec![
                size.to_string(),
                fmt_duration(tfr.matching_cost),
                fmt_duration(sj.matching_cost),
                sj.timed_out.to_string(),
                fmt_duration(gf.matching_cost),
                gf.timed_out.to_string(),
            ]);
        }
    }
    emit([tf_table, vs_table]);
}

fn fig14_netflow_graph(p: &Params, _: bool) {
    let d = netflow_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let mut t = turboflux_table("Fig 14: Netflow graph queries — TurboFlux avg cost(M(Δg,q))");
    for &size in &p.graph_sizes {
        let seed = p.seed ^ 0xF14 ^ (size as u64) << 3;
        let qs = cyclic_query_set(&d.schema, p.queries_per_set.min(10), seed, size);
        let tf = compare_engines(&[EngineKind::TurboFlux], &qs, &d.g0, &d.stream, &cfg).remove(0);
        turboflux_row(&mut t, size, &tf);
    }
    t.emit();
}

fn fig15_netflow_paths(p: &Params, _: bool) {
    let d = netflow_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let (sizes, summaries) =
        compare_sets(&TF_SJ_GF, &path_query_sets(&d, p), &d, &cfg, "path queries");
    cost_table("Fig 15: Netflow path queries from [7] — avg cost(M(Δg,q))", &sizes, &summaries)
        .emit();
}

fn fig16_netflow_btrees(p: &Params, _: bool) {
    let d = netflow_dataset(p);
    let cfg = RunConfig::for_params(p, Homomorphism);
    let (sizes, summaries) =
        compare_sets(&TF_SJ_GF, &btree_query_sets(&d, p), &d, &cfg, "binary-tree queries");
    cost_table(
        "Fig 16: Netflow binary-tree queries from [7] — avg cost(M(Δg,q))",
        &sizes,
        &summaries,
    )
    .emit();
}

/// Per queryset, the number of queries whose positive-match count over the
/// insertion stream falls into each of eight ranges.
fn fig17_selectivity(p: &Params, _: bool) {
    const BUCKETS: [(&str, u64); 8] = [
        ("0", 0),
        ("1-10", 10),
        ("11-100", 100),
        ("101-1K", 1_000),
        ("1K-10K", 10_000),
        ("10K-100K", 100_000),
        ("100K-1M", 1_000_000),
        (">1M", u64::MAX),
    ];
    let ls = lsbench_dataset(p);
    let nf = netflow_dataset(p);
    let headers: Vec<&str> =
        ["queryset"].into_iter().chain(BUCKETS.map(|(name, _)| name)).collect();
    let mut t = Table::new(
        "Fig 17: selectivity distribution (#queries per positive-match range)",
        &headers,
    );
    let mut row = |name: &str, d: &Dataset, qs: Vec<QueryGraph>| {
        let mut counts = [0usize; 8];
        for q in &qs {
            // A timeout is not counted, as in the paper's figures.
            if let Some(n) = count_stream_positives(q, d, &d.stream, p.timeout) {
                counts[BUCKETS.iter().position(|&(_, hi)| n <= hi).expect(">1M is unbounded")] += 1;
            }
        }
        t.row([name.to_owned()].into_iter().chain(counts.map(|c| c.to_string())).collect());
    };
    let n = p.queries_per_set;
    let set = |k: u64, make: &dyn Fn(&mut Pcg32) -> QueryGraph| {
        queries::query_set(n, &queries::QueryGenConfig { seed: p.seed ^ k }, |rng| Some(make(rng)))
    };
    // (a) LSBench tree, (b) LSBench graph, (c) Netflow tree, (d) Netflow
    // graph, (e) Netflow paths [7], (f) Netflow binary trees [7].
    row("LSBench tree q6", &ls, set(1, &|rng| queries::random_tree_query(&ls.schema, 6, rng)));
    row("LSBench graph q6", &ls, cyclic_query_set(&ls.schema, n, p.seed ^ 2, 6));
    row("Netflow tree q6", &nf, set(3, &|rng| queries::random_tree_query(&nf.schema, 6, rng)));
    row("Netflow graph q6", &nf, cyclic_query_set(&nf.schema, n, p.seed ^ 4, 6));
    row("Netflow paths [7]", &nf, set(5, &|rng| queries::random_path_query(&nf.schema, 4, rng)));
    row(
        "Netflow btrees [7]",
        &nf,
        set(6, &|rng| queries::random_binary_tree_query(&nf.schema, 6, rng)),
    );
    t.emit();
}

/// The DCG's size is semantics-independent, as its transition model
/// implies.
fn ablation_dcg(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let queries = default_tree_queries(&d, p);
    let mut t = Table::new(
        "Ablation: DCG size is semantics-independent",
        &["semantics", "DCG edges", "bytes"],
    );
    for (name, semantics) in [("homomorphism", Homomorphism), ("isomorphism", Isomorphism)] {
        let cfg = TurboFluxConfig::with_semantics(semantics);
        let engine = TurboFlux::new(queries[0].clone(), d.g0.clone(), cfg);
        t.row(vec![
            name.into(),
            engine.dcg().stored_edge_count().to_string(),
            engine.intermediate_result_bytes().to_string(),
        ]);
    }
    t.emit();
}

/// The paper compresses SJ-Tree's query with TurboISO's neighborhood
/// equivalence classes: only a small fraction of queries compress at all
/// (~9.5% of the LSBench tree queries), and for those the cost and
/// intermediate-result size shrink by a few percent to a few tens of
/// percent — TurboFlux still wins by orders of magnitude. Generates
/// star-heavy tree queries until it finds compressible ones, then compares
/// plain SJ-Tree, SJ-Tree+NEC and TurboFlux on the same stream.
///
/// SJ-Tree+NEC reports the matches of the compressed query, one per class
/// assignment, not every match of `q`, so TurboFlux runs both: `q`, as
/// plain SJ-Tree does, and the compressed query, as SJ-Tree+NEC does.
fn appb5_sjtree_nec(p: &Params, _: bool) {
    let d = lsbench_dataset(p);
    let mut compressible: Vec<(QueryGraph, QueryGraph)> = Vec::new();
    let mut tried = 0u64;
    while compressible.len() < 5 && tried < 4000 {
        let mut rng = Pcg32::with_stream(p.seed ^ 0xB5 ^ tried, 0x7);
        tried += 1;
        let q = queries::random_tree_query(&d.schema, 6, &mut rng);
        if let Some(nec) = nec_compress(&q) {
            compressible.push((q, nec.compressed));
        }
    }
    eprintln!(
        "{} compressible queries among {} generated ({:.1}%)",
        compressible.len(),
        tried,
        compressible.len() as f64 * 100.0 / tried as f64
    );

    let mut t = Table::new(
        "App B.5: SJ-Tree vs SJ-Tree+NEC vs TurboFlux (compressible tree q6)",
        &[
            "query",
            "SJ-Tree cost (q)",
            "SJ+NEC cost (compressed q)",
            "SJ bytes (q)",
            "SJ+NEC bytes (compressed q)",
            "TurboFlux cost (q)",
            "TurboFlux cost (compressed q)",
            "q match counts agree",
        ],
    );
    let bare = BareTimes::new(&d.g0, &d.stream);
    let cost = |r: &QueryRun| {
        if r.timed_out {
            "timeout".into()
        } else {
            fmt_duration(r.matching_cost)
        }
    };
    for (i, (q, compressed)) in compressible.iter().enumerate() {
        let g0 = || d.g0.clone();
        let (sj, mut plain) = run_query_on_engine(
            |at| Box::new(SjTree::new(q.clone(), g0(), Homomorphism, at)),
            &d.stream,
            bare.of(EngineKind::SjTree, q),
            p.timeout,
        );
        let (sj_nec, mut nec) = run_query_on_engine(
            |at| Box::new(NecSjTree::try_new(q, g0(), Homomorphism, at).expect("compressible")),
            &d.stream,
            bare.of(EngineKind::SjTree, q),
            p.timeout,
        );
        let tf = |q: &QueryGraph| {
            let build = |at| make_engine(EngineKind::TurboFlux, q.clone(), g0(), Homomorphism, at);
            let bare = bare.of(EngineKind::TurboFlux, q);
            cost(&run_query_on_engine(build, &d.stream, bare, p.timeout).0)
        };

        // The NEC engine must represent the same number of original-query
        // matches as the plain engine (final-state check), where both
        // finished.
        let finished = !sj.timed_out && !sj_nec.timed_out;
        let agree = !finished || {
            let mut plain_total = 0u64;
            plain.initial_matches(&mut |_| plain_total += 1);
            nec.original_match_count() == plain_total
        };

        t.row(vec![
            format!("Q{i}"),
            cost(&sj),
            cost(&sj_nec),
            fmt_bytes(plain.intermediate_result_bytes()),
            fmt_bytes(nec.intermediate_result_bytes()),
            tf(q),
            tf(compressed),
            if finished { agree.to_string() } else { "timeout".into() },
        ]);
        assert!(agree, "NEC expansion must match the plain count");
    }
    t.emit();
}
