//! Query-set level experiment drivers: what the experiments of the
//! `figures` binary share, written once — the engine line-ups, the
//! "query sets → one summary row per size" loop (Figures 6, 7, 10, 15, 16),
//! the rate sweep (Figures 8, 11) and the tables they print.

use std::time::Duration;
use tfx_datagen::Dataset;
use tfx_graph::{DynamicGraph, UpdateStream};
use tfx_query::QueryGraph;

use crate::harness::{
    make_engine, run_query_on_engine, BareTimes, EngineKind, QueryRun, RunConfig,
};
use crate::report::{fmt_bytes, fmt_duration, mean_duration, Table};

/// TurboFlux and the two competitors that finish on most workloads.
pub const TF_SJ_GF: [EngineKind; 3] =
    [EngineKind::TurboFlux, EngineKind::SjTree, EngineKind::Graphflow];

/// Aggregate of one engine over one query set.
#[derive(Debug, Clone)]
pub struct EngineSummary {
    /// The engine.
    pub engine: EngineKind,
    /// Number of queries that finished within the budget.
    pub completed: usize,
    /// Number of timed-out queries (excluded from the means, as in §5).
    pub timeouts: usize,
    /// Mean `cost(M(Δg, q))` over completed queries.
    pub mean_cost: Duration,
    /// Mean of the per-query average intermediate-result sizes.
    pub mean_bytes: usize,
    /// All per-query runs, in query order.
    pub per_query: Vec<QueryRun>,
}

impl EngineSummary {
    fn from_runs(engine: EngineKind, per_query: Vec<QueryRun>) -> Self {
        let done: Vec<&QueryRun> = per_query.iter().filter(|r| !r.timed_out).collect();
        let costs: Vec<Duration> = done.iter().map(|r| r.matching_cost).collect();
        let mean_cost = mean_duration(&costs);
        let mean_bytes = if done.is_empty() {
            0
        } else {
            done.iter().map(|r| r.avg_intermediate_bytes).sum::<usize>() / done.len()
        };
        EngineSummary {
            engine,
            completed: done.len(),
            timeouts: per_query.len() - done.len(),
            mean_cost,
            mean_bytes,
            per_query,
        }
    }
}

/// Runs every query of a set on every engine and aggregates.
pub fn compare_engines(
    engines: &[EngineKind],
    queries: &[QueryGraph],
    g0: &DynamicGraph,
    stream: &UpdateStream,
    cfg: &RunConfig,
) -> Vec<EngineSummary> {
    let bare = BareTimes::new(g0, stream);
    engines
        .iter()
        .map(|&kind| {
            let runs: Vec<QueryRun> = queries
                .iter()
                .map(|q| {
                    let build = |at| make_engine(kind, q.clone(), g0.clone(), cfg.semantics, at);
                    run_query_on_engine(build, stream, bare.of(kind, q), cfg.timeout).0
                })
                .collect();
            EngineSummary::from_runs(kind, runs)
        })
        .collect()
}

/// Runs every engine over every `(size, queries)` set of `sets` on the
/// dataset's own stream: the sizes and, per size, one summary per engine —
/// what [`cost_table`], [`storage_table`] and [`scatter_tables`] print.
/// `what` names the query shape on the progress line.
pub fn compare_sets(
    engines: &[EngineKind],
    sets: &[(usize, Vec<QueryGraph>)],
    d: &Dataset,
    cfg: &RunConfig,
    what: &str,
) -> (Vec<usize>, Vec<Vec<EngineSummary>>) {
    sets.iter()
        .map(|(size, qs)| {
            eprintln!("size {size}: {} selective {what}", qs.len());
            (*size, compare_engines(engines, qs, &d.g0, &d.stream, cfg))
        })
        .unzip()
}

/// An engine's mean cost over a query set, `-` when every query timed out.
pub fn cost_cell(s: &EngineSummary) -> String {
    if s.completed == 0 {
        "-".into()
    } else {
        fmt_duration(s.mean_cost)
    }
}

/// One cost cell per engine, then their timeout counts as `a/b/c`.
pub fn cost_cells(sums: &[EngineSummary]) -> Vec<String> {
    let timeouts: Vec<String> = sums.iter().map(|s| s.timeouts.to_string()).collect();
    sums.iter().map(cost_cell).chain([timeouts.join("/")]).collect()
}

/// A table whose first headers are `keys` and whose rest [`cost_cells`]
/// fills: the engines' names, then `timeouts (TF/SJ/GF)`.
pub fn sweep_cost_table(title: &str, keys: &[&str], engines: &[EngineKind]) -> Table {
    let tags: Vec<&str> = engines.iter().map(|e| e.tag()).collect();
    let timeouts = format!("timeouts ({})", tags.join("/"));
    let names = engines.iter().map(|e| e.name());
    let headers: Vec<&str> = keys.iter().copied().chain(names).chain([&*timeouts]).collect();
    Table::new(title, &headers)
}

/// The two tables of a rate sweep (Figures 8 and 11): per `(rate,
/// summaries)` row, every engine's mean cost with the timeout counts, and
/// the intermediate-result sizes — against SJ-Tree where it is in the
/// line-up (it cannot delete, so the deletion sweep has TurboFlux alone).
/// `engines[0]` is TurboFlux.
pub fn rate_sweep(
    fig: &str,
    what: &str,
    key: &str,
    engines: &[EngineKind],
    rows: impl Iterator<Item = (u32, Vec<EngineSummary>)>,
) -> [Table; 2] {
    let sj = engines.iter().position(|&e| e == EngineKind::SjTree);
    let cost_title = format!("{fig}a: varying {what} — avg cost(M(Δg,q))");
    let mut cost = sweep_cost_table(&cost_title, &[key], engines);
    let storage_headers: &[&str] = if sj.is_some() {
        &[key, "TurboFlux", "SJ-Tree", "ratio"]
    } else {
        &[key, "TurboFlux bytes"]
    };
    let mut storage =
        Table::new(format!("{fig}b: varying {what} — avg intermediate results"), storage_headers);
    for (rate, sums) in rows {
        cost.row([rate.to_string()].into_iter().chain(cost_cells(&sums)).collect());
        let tf = sums[0].mean_bytes;
        let mut row = vec![rate.to_string(), fmt_bytes(tf)];
        if let Some(sj) = sj.map(|i| sums[i].mean_bytes) {
            row.push(fmt_bytes(sj));
            row.push(if tf > 0 { format!("{:.1}x", sj as f64 / tf as f64) } else { "-".into() });
        }
        storage.row(row);
    }
    [cost, storage]
}

/// Standard per-size cost table (Figures 6a, 7a, 10, 15, 16): one row per
/// query size, one column per engine plus timeout counts.
pub fn cost_table(
    title: &str,
    sizes: &[usize],
    summaries_per_size: &[Vec<EngineSummary>],
) -> Table {
    let engines: Vec<EngineKind> = summaries_per_size[0].iter().map(|s| s.engine).collect();
    let mut headers: Vec<String> = vec!["query size".into()];
    for e in &engines {
        headers.push(format!("{} avg cost", e.name()));
        headers.push(format!("{} timeouts", e.name()));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &hdr_refs);
    for (i, &size) in sizes.iter().enumerate() {
        let mut row = vec![size.to_string()];
        for s in &summaries_per_size[i] {
            row.push(cost_cell(s));
            row.push(s.timeouts.to_string());
        }
        t.row(row);
    }
    t
}

/// Standard per-size storage table (Figures 6b, 7b): TurboFlux vs SJ-Tree
/// average intermediate-result sizes.
pub fn storage_table(
    title: &str,
    sizes: &[usize],
    summaries_per_size: &[Vec<EngineSummary>],
) -> Table {
    let mut t =
        Table::new(title, &["query size", "TurboFlux avg bytes", "SJ-Tree avg bytes", "ratio"]);
    for (i, &size) in sizes.iter().enumerate() {
        let tf = summaries_per_size[i]
            .iter()
            .find(|s| s.engine == EngineKind::TurboFlux)
            .expect("TurboFlux present");
        let sj = summaries_per_size[i]
            .iter()
            .find(|s| s.engine == EngineKind::SjTree)
            .filter(|s| s.completed > 0);
        let (sj_bytes, ratio) = match sj {
            Some(s) if tf.mean_bytes > 0 => (
                fmt_bytes(s.mean_bytes),
                format!("{:.1}x", s.mean_bytes as f64 / tf.mean_bytes as f64),
            ),
            Some(s) => (fmt_bytes(s.mean_bytes), "-".into()),
            None => ("- (all timeout)".into(), "-".into()),
        };
        t.row(vec![size.to_string(), fmt_bytes(tf.mean_bytes), sj_bytes, ratio]);
    }
    t
}

/// Per-query scatter rows (Figures 6c/d, 7c/d): TurboFlux cost vs a
/// competitor's cost, excluding the competitor's timeouts.
pub fn scatter_table(title: &str, tf: &EngineSummary, other: &EngineSummary) -> Table {
    let mut t = Table::new(title, &["query", "TurboFlux", other.engine.name(), "slowdown"]);
    for (i, (a, b)) in tf.per_query.iter().zip(&other.per_query).enumerate() {
        if a.timed_out || b.timed_out {
            continue;
        }
        let slow = if a.matching_cost.is_zero() {
            "-".to_string()
        } else {
            format!("{:.1}x", b.matching_cost.as_secs_f64() / a.matching_cost.as_secs_f64())
        };
        t.row(vec![
            format!("Q{i}"),
            fmt_duration(a.matching_cost),
            fmt_duration(b.matching_cost),
            slow,
        ]);
    }
    t
}

/// Figures 6c/d and 7c/d: per size, TurboFlux against SJ-Tree (`{fig}c`)
/// and against Graphflow (`{fig}d`); `summaries` in [`TF_SJ_GF`] order.
pub fn scatter_tables(fig: &str, sizes: &[usize], summaries: &[Vec<EngineSummary>]) -> Vec<Table> {
    let mut tables = Vec::new();
    for (size, sums) in sizes.iter().zip(summaries) {
        for (sub, other) in [("c", &sums[1]), ("d", &sums[2])] {
            let title = format!("{fig}{sub}: TurboFlux vs {} (size {size})", other.engine.name());
            tables.push(scatter_table(&title, &sums[0], other));
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunConfig;
    use tfx_datagen::{lsbench, LsBenchConfig, Pcg32};
    use tfx_query::MatchSemantics;

    #[test]
    fn compare_and_tabulate() {
        let d = lsbench::generate(&LsBenchConfig { users: 25, seed: 2, stream_frac: 0.2 });
        let mut rng = Pcg32::new(1);
        let queries: Vec<QueryGraph> = (0..3)
            .map(|_| tfx_datagen::queries::random_tree_query(&d.schema, 3, &mut rng))
            .collect();
        let cfg = RunConfig::new(MatchSemantics::Homomorphism, Duration::from_secs(5));
        let sums = compare_engines(
            &[EngineKind::TurboFlux, EngineKind::SjTree],
            &queries,
            &d.g0,
            &d.stream,
            &cfg,
        );
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].per_query.len(), 3);
        assert_eq!(sums[0].completed, 3);

        let per_size = vec![sums];
        let t = cost_table("test", &[3], &per_size);
        assert!(t.render().contains("TurboFlux"));
        let s = storage_table("storage", &[3], &per_size);
        assert!(s.render().contains("ratio"));
        let sc = scatter_table("scatter", &per_size[0][0], &per_size[0][1]);
        assert_eq!(sc.rows.len(), 3);
        let engines = [EngineKind::TurboFlux, EngineKind::SjTree];
        let [cost, storage] =
            rate_sweep("Fig X", "rate", "rate %", &engines, [(2, per_size[0].clone())].into_iter());
        assert_eq!(cost.headers, ["rate %", "TurboFlux", "SJ-Tree", "timeouts (TF/SJ)"]);
        assert_eq!(cost.rows[0][3], "0/0");
        assert_eq!(storage.headers.last().unwrap(), "ratio");
    }
}
