//! Driving one (engine, query, stream) run and collecting the paper's two
//! measures: `cost(M(Δg, q))` and the intermediate-result size.
//!
//! Per §5.1, `cost(M(Δg, q))` is the elapsed time of processing the update
//! stream *minus* the plain graph-maintenance cost, so the harness measures
//! a bare `DynamicGraph` replay of the graph each engine maintains
//! ([`BareTimes`]) separately and subtracts it.

use std::time::{Duration, Instant};
use tfx_baselines::{Graphflow, IncIsoMat, SjTree};
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_datagen::Dataset;
use tfx_graph::{DynamicGraph, LabelId, UpdateOp, UpdateStream};
use tfx_query::{ContinuousMatcher, MatchSemantics, Positiveness, QueryGraph};

use crate::params::Params;

/// Which engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The paper's system (tfx-core).
    TurboFlux,
    /// SJ-Tree \[7\] (insert-only).
    SjTree,
    /// Graphflow \[16\].
    Graphflow,
    /// IncIsoMat \[10\].
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
    /// Wall-clock budget per query (construction + stream): the one
    /// [`tfx_query::Deadline`] every engine runs under.
    pub timeout: Duration,
}

impl RunConfig {
    /// Standard configuration from experiment parameters.
    pub fn new(semantics: MatchSemantics, timeout: Duration) -> Self {
        RunConfig { semantics, timeout }
    }

    /// The configuration every experiment runs under: the parameters'
    /// timeout.
    pub fn for_params(p: &Params, semantics: MatchSemantics) -> Self {
        Self::new(semantics, p.timeout)
    }
}

/// Result of running one query over one stream on one engine.
#[derive(Clone, Debug)]
pub struct QueryRun {
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
    /// True if the deadline passed before the stream ended.
    pub timed_out: bool,
}

/// The intermediate-result size is sampled every this many operations.
const SAMPLE_EVERY: usize = 64;

/// The bare graph-maintenance times `cost(M(Δg, q))` excludes, one per
/// graph an engine maintains. The baselines keep the whole graph: one replay
/// of it serves them all. A standalone TurboFlux keeps `g0` and the stream
/// projected onto its query's edge labels (`TurboFlux::new`), so it is
/// charged a replay of that projection, one per query: set against the full
/// replay, its cost would clamp to zero on a query of few labels.
pub struct BareTimes<'a> {
    g0: &'a DynamicGraph,
    stream: &'a UpdateStream,
    full: Duration,
}

impl<'a> BareTimes<'a> {
    /// Replays `stream` over the whole of `g0` once.
    pub fn new(g0: &'a DynamicGraph, stream: &'a UpdateStream) -> Self {
        BareTimes { g0, stream, full: bare_replay(g0, stream, None).0 }
    }

    /// The time subtracted from the stream time of `kind` running `q`.
    pub fn of(&self, kind: EngineKind, q: &QueryGraph) -> Duration {
        match kind {
            EngineKind::TurboFlux => bare_replay(self.g0, self.stream, Some(q)).0,
            _ => self.full,
        }
    }
}

/// Replays `stream` on a bare copy of `g0` — projected, for `Some(q)`, onto
/// the edge labels some edge of `q` can match, as a standalone TurboFlux
/// stores it (every label if `q` has a wildcard edge) — and returns the
/// replay's wall time and the graph it ends on. The projection is not timed.
fn bare_replay(
    g0: &DynamicGraph,
    stream: &UpdateStream,
    q: Option<&QueryGraph>,
) -> (Duration, DynamicGraph) {
    let keep = |label: LabelId| {
        q.is_none_or(|q| q.edges().iter().any(|e| e.label.is_none_or(|l| l == label)))
    };
    let mut g = if q.is_some() { g0.clone().project(keep) } else { g0.clone() };
    let t = Instant::now();
    for op in stream {
        let kept = match op {
            UpdateOp::InsertEdge { label, .. } | UpdateOp::DeleteEdge { label, .. } => keep(*label),
            UpdateOp::AddVertex { .. } => true,
        };
        if kept {
            g.apply(op);
        }
    }
    (t.elapsed(), g)
}

/// Builds an engine of `kind` for (`q`, `g0`). SJ-Tree ingests `g0` in its
/// constructor, so it takes the deadline there.
pub fn make_engine(
    kind: EngineKind,
    q: QueryGraph,
    g0: DynamicGraph,
    semantics: MatchSemantics,
    deadline: Option<Instant>,
) -> Box<dyn ContinuousMatcher> {
    match kind {
        EngineKind::TurboFlux => {
            Box::new(TurboFlux::new(q, g0, TurboFluxConfig::with_semantics(semantics)))
        }
        EngineKind::SjTree => Box::new(SjTree::new(q, g0, semantics, deadline)),
        EngineKind::Graphflow => Box::new(Graphflow::new(q, g0, semantics)),
        EngineKind::IncIsoMat => Box::new(IncIsoMat::new(q, g0, semantics)),
    }
}

/// The one loop that streams ops through an engine: builds it with `build`
/// (handed the run's deadline, `timeout` from now), arms that deadline,
/// applies every op of `stream`, counting matches (never materializing
/// them) and sampling intermediate-result sizes, and stops once the
/// deadline has passed. Returns the measures and the engine, for a caller
/// that reads its final state.
pub fn run_query_on_engine<E: ContinuousMatcher + ?Sized>(
    build: impl FnOnce(Option<Instant>) -> Box<E>,
    stream: &UpdateStream,
    bare_time: Duration,
    timeout: Duration,
) -> (QueryRun, Box<E>) {
    let deadline = Instant::now() + timeout;
    let t0 = Instant::now();
    let mut engine = build(Some(deadline));
    let build_time = t0.elapsed();

    let mut positives = 0u64;
    let mut negatives = 0u64;
    let mut samples = 0u64;
    let mut sum_bytes = 0u128;
    let mut peak_bytes = engine.intermediate_result_bytes();
    let mut timed_out = engine.timed_out() || Instant::now() > deadline;

    let t1 = Instant::now();
    if !timed_out {
        engine.set_deadline(Some(deadline));
        for (i, op) in stream.ops().iter().enumerate() {
            engine.apply(op, &mut |p, _| match p {
                Positiveness::Positive => positives += 1,
                Positiveness::Negative => negatives += 1,
            });
            if i % SAMPLE_EVERY == 0 {
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

    let run = QueryRun {
        stream_time,
        matching_cost: stream_time.saturating_sub(bare_time),
        build_time,
        avg_intermediate_bytes: (sum_bytes / u128::from(samples)) as usize,
        peak_intermediate_bytes: peak_bytes,
        positives,
        negatives,
        timed_out,
    };
    (run, engine)
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
    let build = |at| {
        let (q, g0) = (q.clone(), dataset.g0.clone());
        make_engine(EngineKind::TurboFlux, q, g0, MatchSemantics::Homomorphism, at)
    };
    let (run, _) = run_query_on_engine(build, stream, Duration::ZERO, timeout);
    (!run.timed_out).then_some(run.positives)
}

/// What [`filter_selective_queries`] kept, and how many queries it could
/// not judge.
#[derive(Debug, Default)]
pub struct Selective {
    /// The queries with at least one positive match, with their count.
    pub kept: Vec<(QueryGraph, u64)>,
    /// Queries whose count hit the timeout: left out, as no-match queries
    /// are, but not for having no match.
    pub timed_out: usize,
}

/// Filters a query set down to queries with ≥1 positive match over the
/// stream ("we excluded queries that have no positive matches for the
/// entire insertion stream", §5.1), counting apart the queries whose count
/// timed out.
pub fn filter_selective_queries(
    queries: Vec<QueryGraph>,
    dataset: &Dataset,
    timeout: Duration,
) -> Selective {
    let mut out = Selective::default();
    for q in queries {
        match count_stream_positives(&q, dataset, &dataset.stream, timeout) {
            None => out.timed_out += 1,
            Some(0) => {}
            Some(n) => out.kept.push((q, n)),
        }
    }
    out
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
        let bare = BareTimes::new(&d.g0, &d.stream);
        let kinds = [
            EngineKind::TurboFlux,
            EngineKind::SjTree,
            EngineKind::Graphflow,
            EngineKind::IncIsoMat,
        ];
        let runs: Vec<QueryRun> = kinds
            .iter()
            .map(|&k| {
                let build =
                    |at| make_engine(k, q.clone(), d.g0.clone(), MatchSemantics::Homomorphism, at);
                run_query_on_engine(build, &d.stream, bare.of(k, &q), Duration::from_secs(10)).0
            })
            .collect();
        // All engines agree on the positive-match count and none time out.
        for (k, r) in kinds.iter().zip(&runs) {
            assert!(!r.timed_out, "{k:?} timed out");
            assert_eq!(r.positives, runs[0].positives, "{k:?} diverges");
            assert_eq!(r.negatives, 0);
        }
        // Only the materializing engines report storage.
        assert!(runs[0].avg_intermediate_bytes > 0, "TurboFlux DCG");
        assert_eq!(runs[2].avg_intermediate_bytes, 0, "Graphflow stores nothing");
    }

    /// TurboFlux is charged a replay of the graph it maintains: the replay
    /// ends on the edges `TurboFlux::graph()` holds, fewer than the whole
    /// graph's when the query names a subset of the labels.
    #[test]
    fn the_turboflux_replay_ends_on_the_engines_graph() {
        let d =
            lsbench::generate(&tfx_datagen::LsBenchConfig { users: 30, seed: 1, stream_frac: 0.2 });
        let mut rng = tfx_datagen::Pcg32::new(3);
        let (_, full) = bare_replay(&d.g0, &d.stream, None);
        let mut fewer = 0;
        for size in [1, 2, 3, 4] {
            let q = tfx_datagen::queries::random_tree_query(&d.schema, size, &mut rng);
            let (_, replayed) = bare_replay(&d.g0, &d.stream, Some(&q));
            let mut engine = TurboFlux::new(q, d.g0.clone(), TurboFluxConfig::default());
            engine.apply_batch(d.stream.ops(), &mut |_, _, _| {});
            assert_eq!(replayed.edge_count(), engine.graph().edge_count(), "size {size}");
            fewer += usize::from(replayed.edge_count() < full.edge_count());
        }
        assert!(fewer > 0, "some query names fewer labels than the graph has");
    }

    #[test]
    fn selectivity_filter_drops_no_match_queries() {
        let d =
            lsbench::generate(&tfx_datagen::LsBenchConfig { users: 30, seed: 1, stream_frac: 0.2 });
        let mut rng = tfx_datagen::Pcg32::new(5);
        let qs: Vec<QueryGraph> = (0..6)
            .map(|_| tfx_datagen::queries::random_tree_query(&d.schema, 4, &mut rng))
            .collect();
        let selective = filter_selective_queries(qs.clone(), &d, Duration::from_secs(5));
        assert!(selective.kept.len() <= qs.len());
        assert_eq!(selective.timed_out, 0);
        for (_, n) in &selective.kept {
            assert!(*n > 0);
        }
    }

    /// A count that hits the deadline is a timeout, not a query without
    /// matches: under a zero timeout every query is reported as timed out.
    #[test]
    fn selectivity_filter_counts_timeouts_apart() {
        let d =
            lsbench::generate(&tfx_datagen::LsBenchConfig { users: 30, seed: 1, stream_frac: 0.2 });
        let mut rng = tfx_datagen::Pcg32::new(5);
        let qs: Vec<QueryGraph> = (0..4)
            .map(|_| tfx_datagen::queries::random_tree_query(&d.schema, 4, &mut rng))
            .collect();
        let selective = filter_selective_queries(qs, &d, Duration::ZERO);
        assert_eq!((selective.kept.len(), selective.timed_out), (0, 4));
    }
}
