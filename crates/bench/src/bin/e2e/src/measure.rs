//! One measurement of one workload: generate the inputs from the seed,
//! repeat passes for the asked number of seconds, check the outputs, and
//! reduce the passes to the end-to-end metrics (untraced) or the per-layer
//! metrics (traced).

use std::time::Instant;

use turboflux::baselines::Graphflow;
use turboflux::query::{ContinuousMatcher, MatchSemantics, Positiveness};

use crate::digest::Digest;
use crate::host::Probe;
use crate::metrics::TAIL;
use crate::run::{self, Pass, PREFIX_OPS};
use crate::stats::{highest_supported, median, median_per_event, percentile};
use crate::trace::{self, Span};
use crate::workloads::{self, Events, Inputs, Runtime, Scale};

/// The seed whose digests are committed in `goldens.txt`.
pub const GOLDEN_SEED: u64 = 2018;

const GOLDENS: &str = include_str!("../goldens.txt");

pub struct Options {
    pub seed: u64,
    /// How long to measure for; passes (set-up, stream, host probe) repeat
    /// until it is used up.
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
}

/// What one measurement found.
pub struct Outcome {
    pub workload: &'static str,
    /// Ops applied over every measured pass.
    pub attempted: u64,
    /// Ops that disagreed with the reference engine, source errors, and all
    /// ops of a pass whose digest check failed.
    pub failed: u64,
    pub digest: Digest,
    pub initial_matches: u64,
    pub passes: usize,
    /// `(name, value)` in table order: `metrics::E2E` for an untraced
    /// measurement, `metrics::layer_metrics` for a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed checks, in words.
    pub failures: Vec<String>,
    /// Remarks that are not failures (e.g. a lower tail percentile used).
    pub notes: Vec<String>,
    /// Spans of the last traced pass.
    pub spans: Option<Vec<Span>>,
    /// Median time of the host probe over the measurement (`host.calib_ms`).
    pub calib_ms: f64,
    /// The timed end-to-end metrics as the wall clock gave them, before the
    /// CPU clock and the host normalisation: `(setup_s, events_per_s, p50_us,
    /// tail_us)`.
    pub clocked: [f64; 4],
    /// The share of the untraced passes' wall time that the process was not
    /// on a CPU: taken by the hypervisor or by another process.
    pub off_cpu_share: f64,
}

/// Runs the measurement. `None` for an unknown workload name.
pub fn measure(name: &str, opts: &Options) -> Option<Outcome> {
    let inputs = workloads::generate(name, opts.seed, opts.scale)?;
    let mut checks = Checks::default();
    let min_rounds = if opts.scale == Scale::Smoke { 1 } else { 3 };

    // A round is one untraced pass, followed by one traced pass when
    // tracing; rounds repeat until `seconds` have passed (half of them when
    // tracing: the passes on the other runtimes come on top). An untraced
    // measurement takes the median of at least three passes, which shrugs
    // off the first one's page faults; a traced one compares as few as two
    // passes of each kind, so it warms the heap up with a pass it discards.
    if opts.traced && opts.scale == Scale::Full {
        run::run_pass(&inputs, inputs.runtime, false);
    }
    // The host probe is sampled before the first pass and after every pass,
    // so each pass has a sample on either side.
    let mut probe = Probe::new();
    probe.sample();
    let started = Instant::now();
    let mut untraced: Vec<PassStats> = Vec::new();
    let mut traced: Vec<(PassStats, TracedStats)> = Vec::new();
    // Per untraced pass, every event's latency in ns, in event order, on the
    // CPU clock and on the wall clock.
    let narrow = |ns: &[u64]| ns.iter().map(|&ns| ns.min(u32::MAX as u64) as u32).collect();
    let mut latencies: Vec<Vec<u32>> = Vec::new();
    let mut wall_latencies: Vec<Vec<u32>> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut last_traced: Option<Pass> = None;
    loop {
        let pass = run::run_pass(&inputs, inputs.runtime, false);
        let slowdown = probe.sample_after_pass();
        checks.pass(&pass, first.as_ref(), "untraced");
        untraced.push(PassStats::of(&pass, slowdown));
        latencies.push(narrow(&pass.latencies_cpu_ns));
        wall_latencies.push(narrow(&pass.latencies_ns));
        if first.is_none() {
            first = Some(pass);
        }
        if opts.traced {
            let pass = run::run_pass(&inputs, inputs.runtime, true);
            let slowdown = probe.sample_after_pass();
            checks.pass(&pass, first.as_ref(), "traced");
            traced.push((PassStats::of(&pass, slowdown), TracedStats::of(&pass)));
            last_traced = Some(pass);
        }
        let (min, seconds) = if opts.traced {
            (min_rounds.min(2), opts.seconds / 2.0)
        } else {
            (min_rounds, opts.seconds)
        };
        if untraced.len() >= min && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let calib_ms = median(&probe.samples_ms);

    checks.against_reference(&inputs, &first);
    if opts.seed == GOLDEN_SEED && opts.scale == Scale::Full {
        checks.against_golden(&inputs, &first);
    }

    let (p50_us, tail_us) =
        event_latency_us(&wall_latencies, &vec![1.0; untraced.len()], &mut checks);
    let clocked =
        [med(&untraced, |p| p.setup_s), med(&untraced, |p| p.events_per_s()), p50_us, tail_us];
    let on_cpu = |f: fn(&PassStats) -> f64| untraced.iter().map(f).sum::<f64>();
    let off_cpu_share =
        1.0 - on_cpu(|p| p.setup_cpu_s + p.stream_cpu_s) / on_cpu(|p| p.setup_s + p.stream_s);
    let (metrics, spans) = if opts.traced {
        let last = last_traced.expect("a traced pass ran");
        let cross = cross_runtime(&inputs, &first, &untraced, &mut checks);
        let spans = last.trace.as_ref().map(run::spans_of);
        (layer_metrics(&inputs, &untraced, &traced, &last, &cross, calib_ms), spans)
    } else {
        (e2e_metrics(&untraced, &latencies, &mut checks), None)
    };

    Some(Outcome {
        workload: inputs.name,
        attempted: checks.attempted,
        failed: checks.failed,
        digest: first.digest,
        initial_matches: first.setup.initial_matches.iter().sum(),
        passes: untraced.len() + traced.len(),
        metrics,
        failures: checks.failures,
        notes: checks.notes,
        spans,
        calib_ms,
        clocked,
        off_cpu_share,
    })
}

/// The numbers kept from every pass, as the clocks gave them.
struct PassStats {
    /// How much slower than nominal the host probe ran around this pass.
    slowdown: f64,
    /// Set-up and stream on the CPU clock (`host::cpu_time`): what the timed
    /// end-to-end metrics are made of.
    setup_cpu_s: f64,
    stream_cpu_s: f64,
    /// The same on the wall clock.
    setup_s: f64,
    stream_s: f64,
    g0_load_s: f64,
    register_s: f64,
    initial_report_s: f64,
    events: f64,
    peak_heap_mb: f64,
}

impl PassStats {
    fn of(pass: &Pass, slowdown: f64) -> Self {
        PassStats {
            slowdown,
            setup_cpu_s: pass.setup.cpu_s,
            stream_cpu_s: pass.stream_cpu_s,
            setup_s: pass.setup.total_s(),
            stream_s: pass.summary.elapsed.as_secs_f64(),
            g0_load_s: pass.setup.g0_load_s,
            register_s: pass.setup.register_s,
            initial_report_s: pass.setup.initial_report_s,
            events: pass.summary.events as f64,
            peak_heap_mb: pass.peak_heap_bytes as f64 / 1e6,
        }
    }

    /// Events per second of wall time.
    fn events_per_s(&self) -> f64 {
        self.events / self.stream_s
    }

    /// Events per second of CPU time on a quiet host.
    fn quiet_events_per_s(&self) -> f64 {
        self.events / self.stream_cpu_s * self.slowdown
    }
}

fn med(passes: &[PassStats], f: impl Fn(&PassStats) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The median and the tail percentile, in µs, of the events' latencies,
/// each event's taken as its median over the passes after scaling pass `i`'s
/// by `scale[i]` (see `stats::median_per_event`).
fn event_latency_us(latencies: &[Vec<u32>], scale: &[f64], checks: &mut Checks) -> (f64, f64) {
    let per_event = median_per_event(latencies, scale);
    let p50 = percentile(&per_event, 0.5);
    let tail = highest_supported(&per_event, TAIL);
    if let Some((p, _)) = tail.filter(|&(p, _)| p < TAIL) {
        let note = format!(
            "{} latency samples support p{} at most; `event_latency_p95_us` carries that",
            per_event.len(),
            p * 100.0
        );
        if !checks.notes.contains(&note) {
            checks.notes.push(note);
        }
    }
    (p50.map_or(f64::NAN, |ns| ns as f64 / 1e3), tail.map_or(f64::NAN, |(_, ns)| ns as f64 / 1e3))
}

/// The end-to-end metrics. Every time is taken on the CPU clock and divided,
/// pass by pass, by the slowdown the host probe showed around that pass (see
/// `host.rs`) before the median over the passes is taken: a time on a quiet
/// host that the pipeline has to itself.
fn e2e_metrics(
    passes: &[PassStats],
    latencies: &[Vec<u32>],
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let quiet: Vec<f64> = passes.iter().map(|p| 1.0 / p.slowdown).collect();
    let (p50_us, tail_us) = event_latency_us(latencies, &quiet, checks);
    vec![
        ("setup_s", med(passes, |p| p.setup_cpu_s / p.slowdown)),
        ("events_per_s", med(passes, PassStats::quiet_events_per_s)),
        ("event_latency_p50_us", p50_us),
        ("event_latency_p95_us", tail_us),
        ("peak_heap_mb", med(passes, |p| p.peak_heap_mb)),
    ]
}

/// Correctness accounting.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Checks {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// A pass against the run's first pass: same deltas, nothing lost
    /// between engine and sink, no source error.
    fn pass(&mut self, pass: &Pass, first: Option<&Pass>, kind: &str) {
        let ops = pass.summary.ops as u64;
        self.attempted += ops;
        if pass.source_errors > 0 {
            self.fail(
                pass.source_errors,
                format!("{kind} pass: {} source errors", pass.source_errors),
            );
        }
        if pass.sink_deltas != pass.digest.positive + pass.digest.negative {
            self.fail(
                ops,
                format!(
                    "{kind} pass: the sink counted {} deltas, the digest {}",
                    pass.sink_deltas,
                    pass.digest.positive + pass.digest.negative
                ),
            );
        }
        if let Some(first) = first {
            if pass.digest != first.digest
                || pass.setup.initial_matches != first.setup.initial_matches
            {
                self.fail(
                    ops,
                    format!(
                        "{kind} pass digest {:016x} (+{} -{}) differs from the first pass's {:016x} (+{} -{})",
                        pass.digest.hash,
                        pass.digest.positive,
                        pass.digest.negative,
                        first.digest.hash,
                        first.digest.positive,
                        first.digest.negative
                    ),
                );
            }
        }
    }

    /// Check (e): the first [`PREFIX_OPS`] window-output ops, replayed on
    /// `Graphflow` over the same g0, give the same per-op positive/negative
    /// counts for every query.
    fn against_reference(&mut self, inputs: &Inputs, pass: &Pass) {
        let mut interner = inputs.interner.clone();
        let g0 = run::g0_graph(inputs, &mut interner);
        let queries = run::parse_queries(inputs, &mut interner);
        let mut disagreeing = 0u64;
        for (engine, q) in queries.into_iter().enumerate() {
            let mut reference = Graphflow::new(q, g0.clone(), MatchSemantics::Homomorphism);
            for (i, op) in pass.prefix_ops.iter().enumerate() {
                let mut counts = [0u32; 2];
                reference
                    .apply(op, &mut |p, _| counts[(p == Positiveness::Negative) as usize] += 1);
                if counts != pass.prefix_counts[engine * PREFIX_OPS + i] {
                    disagreeing += 1;
                }
            }
        }
        if disagreeing > 0 {
            self.fail(
                disagreeing,
                format!(
                    "{disagreeing} of the first {} ops disagree with Graphflow",
                    pass.prefix_ops.len()
                ),
            );
        }
    }

    /// Check (d): the committed digest for the default seed.
    fn against_golden(&mut self, inputs: &Inputs, pass: &Pass) {
        let initial: u64 = pass.setup.initial_matches.iter().sum();
        let got = golden_line(inputs.name, &pass.digest, initial);
        let want = GOLDENS.lines().find(|l| l.split_whitespace().next() == Some(inputs.name));
        match want {
            Some(want) if want.split_whitespace().eq(got.split_whitespace()) => {}
            Some(want) => self.fail(
                pass.summary.ops as u64,
                format!("digest differs from goldens.txt:\n  got  {got}\n  want {want}"),
            ),
            None => self.fail(
                pass.summary.ops as u64,
                format!("goldens.txt has no line for {}; this run's is:\n  {got}", inputs.name),
            ),
        }
    }
}

/// `<workload> <digest> <positive> <negative> <initial>`, the line format of
/// `goldens.txt`.
pub fn golden_line(name: &str, d: &Digest, initial: u64) -> String {
    format!("{name} {:016x} {} {} {initial}", d.hash, d.positive, d.negative)
}

/// What only a traced pass knows.
struct TracedStats {
    flush_wall_s: f64,
    flush_self_s: f64,
    source_busy_s: f64,
    target_busy_s: f64,
    graph_busy_s: f64,
    insert_eval_s: f64,
    delete_eval_s: f64,
    sink_busy_s: f64,
    insert_p99_us: f64,
    delete_p99_us: f64,
}

impl TracedStats {
    fn of(pass: &Pass) -> Self {
        let t = pass.trace.as_ref().expect("a traced pass carries its trace");
        let spans = run::spans_of(t);
        let p99 = |ns: Option<&Vec<u32>>| {
            let Some(ns) = ns else { return 0.0 };
            let mut v: Vec<u64> = ns.iter().map(|&n| n as u64).collect();
            v.sort_unstable();
            highest_supported(&v, 0.99).map_or(0.0, |(_, ns)| ns as f64 / 1e3)
        };
        TracedStats {
            flush_wall_s: trace::busy_seconds(&spans, trace::FLUSH),
            flush_self_s: trace::self_seconds(&spans, trace::FLUSH),
            source_busy_s: trace::busy_seconds(&spans, trace::SOURCE),
            target_busy_s: trace::busy_seconds(&spans, trace::TARGET),
            graph_busy_s: trace::busy_seconds(&spans, trace::GRAPH),
            insert_eval_s: trace::self_seconds(&spans, trace::INSERT),
            delete_eval_s: trace::self_seconds(&spans, trace::DELETE),
            sink_busy_s: trace::busy_seconds(&spans, trace::SINK),
            insert_p99_us: p99(t.engine.as_ref().map(|e| &e.insert_eval_ns)),
            delete_p99_us: p99(t.engine.as_ref().map(|e| &e.delete_eval_ns)),
        }
    }
}

/// How many passes of each other runtime a traced measurement clocks; their
/// median is what the ratios below are made of.
const CROSS_PASSES: usize = 3;

/// The same job on the runtimes the workload's own is compared with.
#[derive(Default)]
struct Cross {
    /// Plain-`TurboFlux` stream time ÷ sharded stream time.
    shard_scaling_x: f64,
    /// Sharded set-up time ÷ plain-`TurboFlux` set-up time.
    shard_setup_overhead_x: f64,
    /// `events_per_s` of the job with its worker threads on: the default
    /// `parallel_workers: 0` for a single engine (what `tfx stream` runs),
    /// two threads for the fleet and the sharded runtime.
    threaded_events_per_s: f64,
    /// 1-thread stream time ÷ stream time with the worker threads on.
    parallel_speedup_x: f64,
}

/// Checks (b) and (c): the sharded run against plain `TurboFlux`, and every
/// runtime with its worker threads on against its one-thread run, on the same
/// job. Every ratio is of medians clocked within this measurement.
fn cross_runtime(inputs: &Inputs, first: &Pass, own: &[PassStats], checks: &mut Checks) -> Cross {
    let own_stream_s = med(own, |p| p.stream_s);
    let mut other = |runtime: Runtime| -> Vec<PassStats> {
        (0..CROSS_PASSES)
            .map(|_| {
                let pass = run::run_pass(inputs, runtime, false);
                checks.pass(&pass, Some(first), &format!("{runtime:?}"));
                // Wall times only: the other runtimes run two threads, and
                // the ratios are taken within one measurement.
                PassStats::of(&pass, 1.0)
            })
            .collect()
    };
    let (threaded, plain) = match inputs.runtime {
        Runtime::Single { .. } => (other(Runtime::Single { workers: 0 }), None),
        Runtime::Fleet { .. } => (other(Runtime::Fleet { threads: 2 }), None),
        Runtime::Sharded { shards, .. } => (
            other(Runtime::Sharded { shards, threads: 2 }),
            Some(other(Runtime::Single { workers: 1 })),
        ),
    };
    let plain = plain.as_deref();
    Cross {
        shard_scaling_x: plain.map_or(0.0, |p| med(p, |p| p.stream_s) / own_stream_s),
        shard_setup_overhead_x: plain
            .map_or(0.0, |p| med(own, |p| p.setup_s) / med(p, |p| p.setup_s)),
        threaded_events_per_s: med(&threaded, PassStats::events_per_s),
        parallel_speedup_x: own_stream_s / med(&threaded, |p| p.stream_s),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    inputs: &Inputs,
    untraced: &[PassStats],
    traced: &[(PassStats, TracedStats)],
    last: &Pass,
    cross: &Cross,
    calib_ms: f64,
) -> Vec<(&'static str, f64)> {
    let tmed = |f: &dyn Fn(&TracedStats) -> f64| {
        median(&traced.iter().map(|(_, t)| f(t)).collect::<Vec<_>>())
    };
    let traced_passes: Vec<&PassStats> = traced.iter().map(|(p, _)| p).collect();
    let pmed = |f: &dyn Fn(&PassStats) -> f64| {
        median(&traced_passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };

    let events = last.summary.events as f64;
    let ops = last.summary.ops as f64;
    let deltas = (last.digest.positive + last.digest.negative) as f64;
    let trace = last.trace.as_ref().expect("a traced pass carries its trace");
    let engine = trace.engine.as_ref();
    let sum_calls = |f: &dyn Fn(&trace::EngineRec) -> u32| {
        engine.map_or(0.0, |e| e.batches.iter().map(|b| f(b) as f64).sum())
    };
    let insert_ops = sum_calls(&|b| b.insert.calls);
    let delete_ops = sum_calls(&|b| b.delete.calls);
    let sink_calls = sum_calls(&|b| b.sink_in_insert.calls + b.sink_in_delete.calls);

    let window_busy_s = median(&[(); 3].map(|()| run::window_replay(inputs).0));
    let (g0_bytes, g0_edges) = run::g0_heap(inputs);

    let insert_eval_s = tmed(&|t| t.insert_eval_s);
    let delete_eval_s = tmed(&|t| t.delete_eval_s);
    let target_busy_s = tmed(&|t| t.target_busy_s);
    // Where the engine's layers are not split (fleet, sharded), everything
    // inside `apply_batch` counts as evaluation.
    let eval_s = if engine.is_some() { insert_eval_s + delete_eval_s } else { target_busy_s };
    let graph_busy_s = tmed(&|t| t.graph_busy_s);
    let graph_mutations = insert_ops + delete_ops;
    let sink_busy_s = tmed(&|t| t.sink_busy_s);
    let (dcg_bytes, dcg_edges) = last.dcg_end.unwrap_or((0, 0));
    let fleet = last.fleet.unwrap_or_default();
    let shard = last.shard.unwrap_or_default();
    let is_fleet = matches!(inputs.runtime, Runtime::Fleet { .. });
    let is_sharded = matches!(inputs.runtime, Runtime::Sharded { .. });
    // The threaded variant of the job belongs to the layer that owns the
    // threads: intra-update workers, fleet rounds or shard rounds.
    let threaded = |mine: bool| {
        if mine {
            (cross.threaded_events_per_s, cross.parallel_speedup_x)
        } else {
            (0.0, 0.0)
        }
    };
    let (core_threaded, fleet_threaded, shard_threaded) =
        (threaded(!is_fleet && !is_sharded), threaded(is_fleet), threaded(is_sharded));
    let untraced_rate = med(untraced, PassStats::quiet_events_per_s);
    let traced_rate = pmed(&PassStats::quiet_events_per_s);

    let values: Vec<(&'static str, f64)> = vec![
        ("setup.g0_load_s", pmed(&|p| p.g0_load_s)),
        ("setup.register_s", pmed(&|p| p.register_s)),
        ("setup.initial_report_s", pmed(&|p| p.initial_report_s)),
        ("setup.initial_matches", last.setup.initial_matches.iter().sum::<u64>() as f64),
        ("source.events", events),
        (
            "source.bytes",
            match &inputs.events {
                Events::Text(t) => t.len() as f64,
                Events::Ops(_) => 0.0,
            },
        ),
        ("source.busy_s", tmed(&|t| t.source_busy_s)),
        ("source.ns_per_event", ratio(tmed(&|t| t.source_busy_s) * 1e9, events)),
        ("window.ops_out", ops),
        ("window.expiry_deletes", last.summary.expiry_deletes as f64),
        ("window.live_end", last.window_live_end as f64),
        ("window.busy_s", window_busy_s),
        ("window.ns_per_event", ratio(window_busy_s * 1e9, events)),
        ("driver.flush_wall_s", tmed(&|t| t.flush_wall_s)),
        // The window runs inside the driver where it cannot be timed, so
        // its stand-alone replay time is taken off the driver's residual.
        ("driver.self_s", tmed(&|t| t.flush_self_s) - window_busy_s),
        ("graph.mutations", graph_mutations),
        ("graph.busy_s", graph_busy_s),
        ("graph.ns_per_mutation", ratio(graph_busy_s * 1e9, graph_mutations)),
        ("graph.g0_heap_mb", g0_bytes as f64 / 1e6),
        ("graph.bytes_per_edge", ratio(g0_bytes as f64, g0_edges as f64)),
        ("core.insert_ops", insert_ops),
        ("core.insert_eval_s", insert_eval_s),
        ("core.ns_per_insert", ratio(insert_eval_s * 1e9, insert_ops)),
        ("core.insert_eval_p99_us", tmed(&|t| t.insert_p99_us)),
        ("core.delete_ops", delete_ops),
        ("core.delete_eval_s", delete_eval_s),
        ("core.ns_per_delete", ratio(delete_eval_s * 1e9, delete_ops)),
        ("core.delete_eval_p99_us", tmed(&|t| t.delete_p99_us)),
        ("core.deltas_pos", last.digest.positive as f64),
        ("core.deltas_neg", last.digest.negative as f64),
        ("core.deltas_per_op", ratio(deltas, ops)),
        ("core.ns_per_delta", ratio(eval_s * 1e9, deltas)),
        ("core.noop_share", ratio(ops - last.ops_with_deltas as f64, ops)),
        ("core.default_workers_events_per_s", core_threaded.0),
        ("core.intra_parallel_speedup_x", core_threaded.1),
        ("dcg.resident_mb_end", dcg_bytes as f64 / 1e6),
        ("dcg.resident_mb_peak", trace.dcg_peak_bytes as f64 / 1e6),
        ("dcg.stored_edges_end", dcg_edges as f64),
        ("dcg.bytes_per_stored_edge", ratio(dcg_bytes as f64, dcg_edges as f64)),
        ("fleet.apply_batch_s", if is_fleet { target_busy_s } else { 0.0 }),
        ("fleet.ops_routed", fleet.ops_routed as f64),
        ("fleet.ops_skipped", fleet.ops_skipped as f64),
        (
            "fleet.skip_ratio",
            ratio(fleet.ops_skipped as f64, (fleet.ops_routed + fleet.ops_skipped) as f64),
        ),
        ("fleet.shared_hits", fleet.shared_hits as f64),
        ("fleet.shared_misses", fleet.shared_misses as f64),
        ("fleet.subtrees_shared", fleet.subtrees_shared as f64),
        ("fleet.subtree_hits", fleet.subtree_hits as f64),
        ("fleet.suffix_evals", fleet.suffix_evals as f64),
        ("fleet.threads2_events_per_s", fleet_threaded.0),
        ("fleet.parallel_speedup_x", fleet_threaded.1),
        ("shard.apply_batch_s", if is_sharded { target_busy_s } else { 0.0 }),
        ("shard.ops_routed", shard.ops_routed as f64),
        ("shard.cross_shard_edges", shard.cross_shard_edges as f64),
        ("shard.handoffs", shard.handoffs as f64),
        ("shard.inbox_high_water", shard.inbox_high_water as f64),
        ("shard.scaling_x", cross.shard_scaling_x),
        ("shard.setup_overhead_x", cross.shard_setup_overhead_x),
        ("shard.threads2_events_per_s", shard_threaded.0),
        ("shard.parallel_speedup_x", shard_threaded.1),
        ("sink.deltas", last.sink_deltas as f64),
        ("sink.bytes", last.sink_bytes as f64),
        ("sink.busy_s", sink_busy_s),
        ("sink.ns_per_delta", ratio(sink_busy_s * 1e9, sink_calls)),
        ("host.cores", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ("host.calib_ms", calib_ms),
        ("trace.overhead_pct", 100.0 * (untraced_rate - traced_rate) / untraced_rate),
    ];
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{layer_metrics, E2E};

    /// One small measurement of each kind: every check passes, and the
    /// metrics come out under the names, and in the order, of the tables
    /// `BENCHMARK.json` is held to.
    #[test]
    fn a_smoke_measurement_reports_every_metric_by_its_table_name() {
        // Every pass resets the allocator's peak.
        let _alone = crate::alloc::PEAK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let opts = |traced| Options { seed: 11, seconds: 0.0, traced, scale: Scale::Smoke };
        for name in workloads::NAMES {
            let o = measure(name, &opts(true)).expect("known workload");
            assert_eq!(o.failed, 0, "{name}: {:?}", o.failures);
            assert!(o.attempted > 0);
            assert!(o.metrics.iter().map(|(n, _)| n).eq(layer_metrics().map(|(n, _, _)| n)));
            assert!(o.spans.is_some_and(|s| !s.is_empty()));
        }
        let o = measure("ingest_selective", &opts(false)).expect("known workload");
        assert_eq!(o.failed, 0, "{:?}", o.failures);
        assert!(o.metrics.iter().map(|(n, _)| *n).eq(E2E.iter().map(|m| m.name)));
        assert!(o.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0), "{:?}", o.metrics);
        assert!(measure("no_such_workload", &opts(false)).is_none());
    }
}
