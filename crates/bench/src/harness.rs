//! Driving one (engine, query, stream) run and collecting the paper's two
//! measures: `cost(M(Δg, q))` and the intermediate-result size.
//!
//! Per §5.1, `cost(M(Δg, q))` is the elapsed time of processing the update
//! stream *minus* the plain graph-maintenance cost, so the harness measures
//! the bare `DynamicGraph` replay separately and subtracts it.

use std::time::{Duration, Instant};
use tfx_baselines::{Graphflow, IncIsoMat, SjTree};
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_datagen::Dataset;
use tfx_graph::{DynamicGraph, UpdateStream};
use tfx_query::{ContinuousMatcher, MatchSemantics, Positiveness, QueryGraph};

use crate::params::Params;

/// Which engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The paper's system (tfx-core).
    TurboFlux,
    /// SJ-Tree [7] (insert-only).
    SjTree,
    /// Graphflow [16].
    Graphflow,
    /// IncIsoMat [10].
    IncIsoMat,
}

impl EngineKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::TurboFlux => "TurboFlux",
            EngineKind::SjTree => "SJ-Tree",
            EngineKind::Graphflow => "Graphflow",
            EngineKind::IncIsoMat => "IncIsoMat",
        }
    }

    /// Two-letter tag for compound headers (`timeouts (TF/SJ/GF)`).
    pub fn tag(self) -> &'static str {
        match self {
            EngineKind::TurboFlux => "TF",
            EngineKind::SjTree => "SJ",
            EngineKind::Graphflow => "GF",
            EngineKind::IncIsoMat => "II",
        }
    }
}

/// Per-run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Matching semantics.
    pub semantics: MatchSemantics,
    /// Wall-clock budget per query (construction + stream).
    pub timeout: Duration,
    /// Abstract work budget for engines with internal budgets.
    pub work_budget: u64,
    /// Sample the intermediate-result size every this many operations.
    pub sample_every: usize,
}

impl RunConfig {
    /// Standard configuration from experiment parameters.
    pub fn new(semantics: MatchSemantics, timeout: Duration, work_budget: u64) -> Self {
        RunConfig { semantics, timeout, work_budget, sample_every: 64 }
    }

    /// The configuration every experiment runs under: the parameters'
    /// timeout and work budget.
    pub fn for_params(p: &Params, semantics: MatchSemantics) -> Self {
        Self::new(semantics, p.timeout, p.work_budget)
    }
}

/// Result of running one query over one stream on one engine.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// Engine.
    pub engine: EngineKind,
    /// Total wall time spent in `apply` over the stream.
    pub stream_time: Duration,
    /// `cost(M(Δg, q))`: stream time minus the bare graph-update time.
    pub matching_cost: Duration,
    /// Time to construct the engine over `g0` (incl. initial DCG / SJ-Tree
    /// ingestion).
    pub build_time: Duration,
    /// Mean sampled intermediate-result size (bytes).
    pub avg_intermediate_bytes: usize,
    /// Peak sampled intermediate-result size (bytes).
    pub peak_intermediate_bytes: usize,
    /// Positive matches reported over the stream.
    pub positives: u64,
    /// Negative matches reported over the stream.
    pub negatives: u64,
    /// True if the wall-clock or work budget was exhausted.
    pub timed_out: bool,
}

/// Wall time of replaying `stream` on a bare graph (the cost excluded from
/// `cost(M(Δg, q))`).
pub fn bare_update_time(g0: &DynamicGraph, stream: &UpdateStream) -> Duration {
    let mut g = g0.clone();
    let t = Instant::now();
    for op in stream {
        g.apply(op);
    }
    t.elapsed()
}

/// Builds an engine of `kind` for (`q`, `g0`), bounded by `deadline` /
/// the work budget so a single explosive update cannot stall a run.
pub fn make_engine(
    kind: EngineKind,
    q: QueryGraph,
    g0: DynamicGraph,
    cfg: &RunConfig,
    deadline: Instant,
) -> Box<dyn ContinuousMatcher> {
    match kind {
        EngineKind::TurboFlux => {
            let mut e = TurboFlux::new(q, g0, TurboFluxConfig::with_semantics(cfg.semantics));
            e.set_deadline(Some(deadline));
            Box::new(e)
        }
        EngineKind::SjTree => Box::new(SjTree::with_budget(q, g0, cfg.semantics, cfg.work_budget)),
        EngineKind::Graphflow => {
            Box::new(Graphflow::new(q, g0, cfg.semantics).with_budget(cfg.work_budget))
        }
        EngineKind::IncIsoMat => {
            let mut e = IncIsoMat::new(q, g0, cfg.semantics);
            e.set_deadline(Some(deadline));
            Box::new(e)
        }
    }
}

/// Runs `q` on `kind` over `stream`, counting matches (never materializing
/// them) and sampling intermediate-result sizes.
pub fn run_query_on_engine(
    kind: EngineKind,
    q: &QueryGraph,
    g0: &DynamicGraph,
    stream: &UpdateStream,
    bare_time: Duration,
    cfg: &RunConfig,
) -> QueryRun {
    let deadline = Instant::now() + cfg.timeout;
    let t0 = Instant::now();
    let mut engine = make_engine(kind, q.clone(), g0.clone(), cfg, deadline);
    let build_time = t0.elapsed();

    let mut positives = 0u64;
    let mut negatives = 0u64;
    let mut samples = 0u64;
    let mut sum_bytes = 0u128;
    let mut peak_bytes = engine.intermediate_result_bytes();
    let mut timed_out = engine.timed_out() || Instant::now() > deadline;

    let t1 = Instant::now();
    if !timed_out {
        for (i, op) in stream.ops().iter().enumerate() {
            engine.apply(op, &mut |p, _| match p {
                Positiveness::Positive => positives += 1,
                Positiveness::Negative => negatives += 1,
            });
            if i % cfg.sample_every == 0 {
                let b = engine.intermediate_result_bytes();
                sum_bytes += b as u128;
                samples += 1;
                peak_bytes = peak_bytes.max(b);
            }
            if engine.timed_out() || Instant::now() > deadline {
                timed_out = true;
                break;
            }
        }
    }
    let stream_time = t1.elapsed();
    let b = engine.intermediate_result_bytes();
    sum_bytes += b as u128;
    samples += 1;
    peak_bytes = peak_bytes.max(b);
    timed_out |= engine.timed_out();

    QueryRun {
        engine: kind,
        stream_time,
        matching_cost: stream_time.saturating_sub(bare_time),
        build_time,
        avg_intermediate_bytes: (sum_bytes / u128::from(samples)) as usize,
        peak_intermediate_bytes: peak_bytes,
        positives,
        negatives,
        timed_out,
    }
}

/// Counts the positive matches a query produces over a stream (TurboFlux,
/// bounded by `timeout`); `None` on timeout. Used to drop no-match queries
/// as in §5.1 and for the selectivity distribution (Fig. 17).
pub fn count_stream_positives(
    q: &QueryGraph,
    dataset: &Dataset,
    stream: &UpdateStream,
    timeout: Duration,
) -> Option<u64> {
    let deadline = Instant::now() + timeout;
    let mut engine = TurboFlux::new(q.clone(), dataset.g0.clone(), TurboFluxConfig::default());
    engine.set_deadline(Some(deadline));
    let mut positives = 0u64;
    for op in stream.ops() {
        engine.apply_op(op, &mut |p, _| {
            if p == Positiveness::Positive {
                positives += 1;
            }
        });
        if engine.timed_out() || Instant::now() > deadline {
            return None;
        }
    }
    Some(positives)
}

/// Filters a query set down to queries with ≥1 positive match over the
/// stream ("we excluded queries that have no positive matches for the
/// entire insertion stream", §5.1).
pub fn filter_selective_queries(
    queries: Vec<QueryGraph>,
    dataset: &Dataset,
    timeout: Duration,
) -> Vec<(QueryGraph, u64)> {
    queries
        .into_iter()
        .filter_map(|q| {
            count_stream_positives(&q, dataset, &dataset.stream, timeout)
                .filter(|&n| n > 0)
                .map(|n| (q, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_datagen::lsbench;

    #[test]
    fn run_all_engines_on_a_small_workload() {
        let d =
            lsbench::generate(&tfx_datagen::LsBenchConfig { users: 30, seed: 1, stream_frac: 0.2 });
        let mut rng = tfx_datagen::Pcg32::new(3);
        let q = tfx_datagen::queries::random_tree_query(&d.schema, 3, &mut rng);
        let cfg = RunConfig::new(MatchSemantics::Homomorphism, Duration::from_secs(10), u64::MAX);
        let bare = bare_update_time(&d.g0, &d.stream);
        let runs: Vec<QueryRun> = [
            EngineKind::TurboFlux,
            EngineKind::SjTree,
            EngineKind::Graphflow,
            EngineKind::IncIsoMat,
        ]
        .into_iter()
        .map(|k| run_query_on_engine(k, &q, &d.g0, &d.stream, bare, &cfg))
        .collect();
        // All engines agree on the positive-match count and none time out.
        for r in &runs {
            assert!(!r.timed_out, "{:?} timed out", r.engine);
            assert_eq!(r.positives, runs[0].positives, "{:?} diverges", r.engine);
            assert_eq!(r.negatives, 0);
        }
        // Only the materializing engines report storage.
        assert!(runs[0].avg_intermediate_bytes > 0, "TurboFlux DCG");
        assert_eq!(runs[2].avg_intermediate_bytes, 0, "Graphflow stores nothing");
    }

    #[test]
    fn selectivity_filter_drops_no_match_queries() {
        let d =
            lsbench::generate(&tfx_datagen::LsBenchConfig { users: 30, seed: 1, stream_frac: 0.2 });
        let mut rng = tfx_datagen::Pcg32::new(5);
        let qs: Vec<QueryGraph> = (0..6)
            .map(|_| tfx_datagen::queries::random_tree_query(&d.schema, 4, &mut rng))
            .collect();
        let kept = filter_selective_queries(qs.clone(), &d, Duration::from_secs(5));
        assert!(kept.len() <= qs.len());
        for (_, n) in &kept {
            assert!(*n > 0);
        }
    }
}
