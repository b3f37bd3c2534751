//! One pass: one set-up and one replay of the workload's events through the
//! components `tfx stream` wires — `StreamSource` → `SlidingWindow` →
//! `StreamDriver::run` with `BatchPolicy::default()` → `BatchTarget` →
//! `DeltaSink`. The load is a closed loop at full speed from the one driver
//! thread, which is what `tfx stream` is: it pulls from its source and has
//! no ingest queue, so the sustainable rate is the replay rate.
//!
//! The benchmark's own probes sit around the real components: a source
//! wrapper stamps each event as it is handed to the driver, a target
//! wrapper closes the stamps when the `apply_batch` that consumed them
//! returns, and a sink wrapper digests every delta before forwarding it.

use std::cell::RefCell;
use std::io::Write;
use std::time::{Duration, Instant};

use turboflux::core::{Fleet, FleetStats, ShardStats, ShardedEngine, TurboFlux, TurboFluxConfig};
use turboflux::graph::{DynamicGraph, LabelInterner, UpdateOp, UpdateStream};
use turboflux::query::{parser, MatchRecord, Positiveness, QueryGraph};
use turboflux::stream::{
    BatchPolicy, BatchTarget, CountingSink, DeltaRef, DeltaSink, ErrorMode, FileSource, JsonlSink,
    RunSummary, SlidingWindow, SourceError, StreamDriver, StreamEvent, StreamSource, StreamStats,
    SyntheticSource,
};

use crate::alloc;
use crate::digest::Digest;
use crate::host::cpu_time;
use crate::trace::{self, EngineTrace, FlushRec, SplitEngine};
use crate::workloads::{Events, Inputs, Runtime, SinkKind, G0};

/// How many leading window-output ops are replayed on the reference engine.
pub const PREFIX_OPS: usize = 2048;

/// A `BatchTarget` the benchmark can set up and look into from outside.
pub trait Target: BatchTarget {
    /// Reports every engine's initial matches into a counter each.
    fn count_initial(&mut self) -> Vec<u64>;

    /// `(resident bytes, stored edges)` of the engines' DCGs, where the
    /// runtime lets a caller reach them (`ShardedEngine` does not).
    fn dcg_size(&self) -> Option<(usize, u64)> {
        None
    }

    /// Per-layer records, if this target splits the engine's layers.
    fn take_engine_trace(&mut self) -> Option<EngineTrace> {
        None
    }
}

impl Target for TurboFlux {
    fn count_initial(&mut self) -> Vec<u64> {
        let mut n = 0u64;
        self.report_initial(&mut |_| n += 1);
        vec![n]
    }

    fn dcg_size(&self) -> Option<(usize, u64)> {
        Some((self.dcg().resident_bytes(), self.dcg().stored_edge_count()))
    }
}

impl Target for Fleet {
    fn count_initial(&mut self) -> Vec<u64> {
        let ids = self.engine_ids().to_vec();
        ids.into_iter()
            .map(|id| {
                let mut n = 0u64;
                self.report_initial(id, &mut |_| n += 1);
                n
            })
            .collect()
    }

    /// The engines' private DCGs; shared subtree instances are not reachable
    /// through `Fleet`'s public surface and are left out.
    fn dcg_size(&self) -> Option<(usize, u64)> {
        Some(self.engine_ids().iter().fold((0, 0), |(b, e), &id| {
            let dcg = self.engine(id).dcg();
            (b + dcg.resident_bytes(), e + dcg.stored_edge_count())
        }))
    }
}

impl Target for ShardedEngine {
    fn count_initial(&mut self) -> Vec<u64> {
        (0..self.queries())
            .map(|q| {
                let mut n = 0u64;
                self.report_initial(q, &mut |_| n += 1);
                n
            })
            .collect()
    }
}

/// Set-up time by part, as `tfx stream` spends it before the first event.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    /// Parsing g0 from text (0 where the workload hands g0 over in memory).
    pub g0_load_s: f64,
    /// Query parsing + engine construction: query analysis, initial DCG
    /// build, matching order; for the sharded runtime also partitioning and
    /// mirroring g0.
    pub register_s: f64,
    /// Reporting the initial matches into a counter.
    pub initial_report_s: f64,
    /// Initial matches per engine.
    pub initial_matches: Vec<u64>,
    /// The three parts together on the CPU clock (`host::cpu_time`).
    pub cpu_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.g0_load_s + self.register_s + self.initial_report_s
    }
}

/// The workload's g0 as a graph (parsing it where it is text).
pub fn g0_graph(inputs: &Inputs, interner: &mut LabelInterner) -> DynamicGraph {
    match &inputs.g0 {
        G0::Graph(g) => g.clone(),
        G0::Text(t) => parser::parse_data_graph(t, interner).expect("generated g0 text parses"),
    }
}

/// The workload's queries, interned the way `tfx stream` interns them
/// (after g0, before the stream).
pub fn parse_queries(inputs: &Inputs, interner: &mut LabelInterner) -> Vec<QueryGraph> {
    inputs
        .queries
        .iter()
        .map(|text| parser::parse_query(text, interner).expect("committed query text parses"))
        .collect()
}

/// Sets the job up on `runtime` the way `tfx stream` does. With `split`, a
/// single engine is built in its externally-driven mode ([`SplitEngine`]).
fn set_up(
    inputs: &Inputs,
    interner: &mut LabelInterner,
    runtime: Runtime,
    split: Option<Instant>,
) -> (Box<dyn Target>, Setup) {
    let (t0, cpu0) = (Instant::now(), cpu_time());
    let g0 = g0_graph(inputs, interner);
    // Copying a g0 that is handed over in memory is the benchmark's own cost.
    let (g0_load_s, g0_load_cpu) = match inputs.g0 {
        G0::Graph(_) => (0.0, Duration::ZERO),
        G0::Text(_) => (t0.elapsed().as_secs_f64(), cpu_time() - cpu0),
    };

    let (t0, cpu0) = (Instant::now(), cpu_time());
    let mut queries = parse_queries(inputs, interner);
    let cfg = TurboFluxConfig::default();
    let mut target: Box<dyn Target> = match runtime {
        Runtime::Single { workers } => {
            let q = queries.pop().expect("one query");
            assert!(queries.is_empty(), "a single engine takes one query");
            let cfg = TurboFluxConfig { parallel_workers: workers, ..cfg };
            match split {
                Some(epoch) => Box::new(SplitEngine::new(
                    q,
                    g0,
                    cfg,
                    epoch,
                    inputs.sink == SinkKind::Jsonl,
                    2 * inputs.n_events,
                )),
                None => Box::new(TurboFlux::new(q, g0, cfg)),
            }
        }
        Runtime::Fleet { threads } => {
            let mut fleet = Fleet::with_threads(g0, threads);
            for q in queries {
                fleet.register(q, cfg);
            }
            Box::new(fleet)
        }
        Runtime::Sharded { shards, threads } => {
            Box::new(ShardedEngine::new(queries, g0, TurboFluxConfig { shards, ..cfg }, threads))
        }
    };
    let register_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let initial_matches = target.count_initial();
    let initial_report_s = t0.elapsed().as_secs_f64();
    let cpu_s = (g0_load_cpu + (cpu_time() - cpu0)).as_secs_f64();
    (target, Setup { g0_load_s, register_s, initial_report_s, initial_matches, cpu_s })
}

/// Shared between the source and target wrappers of one pass.
struct Probe {
    epoch: Instant,
    traced: bool,
    /// Hand-over stamps of the events the next `apply_batch` will consume.
    pending: Vec<u64>,
    latencies_ns: Vec<u64>,
    latencies_cpu_ns: Vec<u64>,
    /// When the last `apply_batch` returned (the stream started, for the
    /// first), on this probe's clock and on the CPU clock.
    cycle_start: (u64, Duration),
    source_errors: u64,
    open: FlushRec,
    flushes: Vec<FlushRec>,
    /// Peak DCG bytes sampled after each flush (traced passes).
    dcg_peak: usize,
}

impl Probe {
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

struct ProbeSource<'a> {
    inner: &'a mut dyn StreamSource,
    probe: &'a RefCell<Probe>,
}

impl StreamSource for ProbeSource<'_> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        let t0 = {
            let p = self.probe.borrow();
            if p.traced {
                p.now()
            } else {
                0
            }
        };
        let ev = self.inner.next_event();
        let mut p = self.probe.borrow_mut();
        let t1 = p.now();
        if p.traced {
            if p.open.source_calls == 0 {
                p.open.source_first_ns = t0;
            }
            p.open.source_last_ns = t1;
            p.open.source_busy_ns += t1 - t0;
            p.open.source_calls += 1;
        }
        match &ev {
            Ok(Some(_)) => p.pending.push(t1),
            Ok(None) => {}
            Err(_) => p.source_errors += 1,
        }
        ev
    }
}

struct ProbeTarget<'a> {
    inner: &'a mut dyn Target,
    probe: &'a RefCell<Probe>,
}

impl BatchTarget for ProbeTarget<'_> {
    fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        let t0 = self.probe.borrow().now();
        self.inner.apply_batch(ops, sink);
        let mut p = self.probe.borrow_mut();
        let (t1, cpu1) = (p.now(), cpu_time());
        // The share of the time since the last flush returned that this
        // process had a CPU; the rest the hypervisor or the guest's scheduler
        // gave to something else. One read of the CPU clock per flush: it is
        // a system call, too dear to stamp every event with.
        let (t_prev, cpu_prev) = std::mem::replace(&mut p.cycle_start, (t1, cpu1));
        let on_cpu = ((cpu1 - cpu_prev).as_nanos() as f64 / (t1 - t_prev) as f64).min(1.0);
        let Probe { pending, latencies_ns, latencies_cpu_ns, .. } = &mut *p;
        for handed in pending.drain(..) {
            latencies_ns.push(t1 - handed);
            latencies_cpu_ns.push(((t1 - handed) as f64 * on_cpu) as u64);
        }
        if p.traced {
            let mut rec = std::mem::take(&mut p.open);
            rec.target_start_ns = t0;
            rec.target_end_ns = t1;
            p.flushes.push(rec);
            if let Some((bytes, _)) = self.inner.dcg_size() {
                p.dcg_peak = p.dcg_peak.max(bytes);
            }
        }
    }
}

/// A writer that counts what it is given and keeps nothing.
#[derive(Default)]
pub struct ByteCounter(pub u64);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

enum RealSink {
    Counting(CountingSink),
    Jsonl(JsonlSink<ByteCounter>),
}

impl RealSink {
    fn as_sink(&mut self) -> &mut dyn DeltaSink {
        match self {
            RealSink::Counting(s) => s,
            RealSink::Jsonl(s) => s,
        }
    }
}

/// Digests every delta, keeps per-op counts and the ops themselves for the
/// first [`PREFIX_OPS`] window-output ops, and forwards everything to the
/// workload's real sink.
struct CheckSink {
    inner: RealSink,
    digest: Digest,
    prefix_ops: Vec<UpdateOp>,
    /// `[positive, negative]` per `(engine, op)`, engine-major.
    prefix_counts: Vec<[u32; 2]>,
    /// Whether op `i` of the run produced any delta.
    op_had_delta: Vec<bool>,
}

impl DeltaSink for CheckSink {
    fn on_ops(&mut self, batch: usize, ops: &[UpdateOp]) {
        if self.prefix_ops.len() < PREFIX_OPS {
            let room = PREFIX_OPS - self.prefix_ops.len();
            self.prefix_ops.extend_from_slice(&ops[..ops.len().min(room)]);
        }
        self.inner.as_sink().on_ops(batch, ops);
    }

    #[inline]
    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        let positive = d.positiveness == Positiveness::Positive;
        self.digest.delta(d.engine, d.global_op, positive, d.record.as_slice());
        if d.global_op < PREFIX_OPS {
            self.prefix_counts[d.engine * PREFIX_OPS + d.global_op][!positive as usize] += 1;
        }
        if let Some(seen) = self.op_had_delta.get_mut(d.global_op) {
            *seen = true;
        }
        match &mut self.inner {
            RealSink::Counting(s) => s.on_delta(d),
            RealSink::Jsonl(s) => s.on_delta(d),
        }
    }

    fn on_batch(&mut self, stats: &StreamStats) {
        self.inner.as_sink().on_batch(stats);
    }

    fn on_summary(&mut self, summary: &RunSummary) {
        self.inner.as_sink().on_summary(summary);
    }
}

/// What the benchmark recorded of a traced pass.
pub struct PassTrace {
    pub flushes: Vec<FlushRec>,
    pub engine: Option<EngineTrace>,
    pub dcg_peak_bytes: usize,
}

/// Everything one pass produced.
pub struct Pass {
    pub setup: Setup,
    pub summary: RunSummary,
    pub digest: Digest,
    /// Per source event, hand-over to consumed, in event order.
    pub latencies_ns: Vec<u64>,
    /// The same on the CPU clock: each latency times the share of its flush
    /// cycle (the return of one `apply_batch` to the return of the next)
    /// that the process had a CPU.
    pub latencies_cpu_ns: Vec<u64>,
    /// `StreamDriver::run` on the CPU clock; `summary.elapsed` is its wall time.
    pub stream_cpu_s: f64,
    /// Peak live heap during set-up + stream, above the live heap before.
    pub peak_heap_bytes: usize,
    pub source_errors: u64,
    pub prefix_ops: Vec<UpdateOp>,
    pub prefix_counts: Vec<[u32; 2]>,
    /// Ops that produced at least one delta.
    pub ops_with_deltas: u64,
    /// Bytes the JSONL sink wrote (0 for the counting sink).
    pub sink_bytes: u64,
    /// What the real sink counted, to hold against the digest's counts.
    pub sink_deltas: u64,
    pub window_live_end: usize,
    pub dcg_end: Option<(usize, u64)>,
    pub fleet: Option<FleetStats>,
    pub shard: Option<ShardStats>,
    pub trace: Option<PassTrace>,
}

/// Runs one pass of `inputs` on `runtime` (the workload's own, or another
/// runtime given the same job for a cross-check).
pub fn run_pass(inputs: &Inputs, runtime: Runtime, traced: bool) -> Pass {
    let n_engines = inputs.queries.len();
    let expect_flushes = if traced { 2 * inputs.n_events / 256 + 16 } else { 0 };

    // Everything the benchmark itself needs is allocated before the heap
    // baseline, so `peak_heap_bytes` is the pipeline's own.
    let mut interner = inputs.interner.clone();
    let epoch = Instant::now();
    let probe = RefCell::new(Probe {
        epoch,
        traced,
        pending: Vec::with_capacity(1024),
        latencies_ns: Vec::with_capacity(inputs.n_events),
        latencies_cpu_ns: Vec::with_capacity(inputs.n_events),
        cycle_start: (0, Duration::ZERO),
        source_errors: 0,
        open: FlushRec::default(),
        flushes: Vec::with_capacity(expect_flushes),
        dcg_peak: 0,
    });
    let mut sink = CheckSink {
        inner: match inputs.sink {
            SinkKind::Counting => RealSink::Counting(CountingSink::default()),
            SinkKind::Jsonl => RealSink::Jsonl(JsonlSink::new(ByteCounter::default())),
        },
        digest: Digest::default(),
        prefix_ops: Vec::with_capacity(PREFIX_OPS),
        prefix_counts: vec![[0; 2]; n_engines * PREFIX_OPS],
        // Every expiry delete answers an earlier insert event, so the
        // window emits at most two ops per event.
        op_had_delta: vec![false; 2 * inputs.n_events],
    };
    let mut synthetic = match &inputs.events {
        Events::Ops(ops) => {
            Some(SyntheticSource::from_stream(UpdateStream::from_ops(ops.clone()), 1))
        }
        Events::Text(_) => None,
    };

    let base = alloc::reset_peak();
    let split = (traced && matches!(runtime, Runtime::Single { .. })).then_some(epoch);
    let (mut target, setup) = set_up(inputs, &mut interner, runtime, split);

    let mut driver = StreamDriver::new(SlidingWindow::new(inputs.window), BatchPolicy::default());
    let mut file;
    let source: &mut dyn StreamSource = match (&mut synthetic, &inputs.events) {
        (Some(s), _) => s,
        (None, Events::Text(text)) => {
            file = FileSource::new(text.as_bytes(), &mut interner, ErrorMode::Strict);
            &mut file
        }
        (None, Events::Ops(_)) => unreachable!("ops events always get a synthetic source"),
    };
    let cpu0 = cpu_time();
    let stream_start = probe.borrow().now();
    probe.borrow_mut().cycle_start = (stream_start, cpu0);
    let result = driver.run(
        &mut ProbeSource { inner: source, probe: &probe },
        &mut ProbeTarget { inner: &mut *target, probe: &probe },
        &mut sink,
    );
    let stream_cpu_s = (cpu_time() - cpu0).as_secs_f64();
    let peak_heap_bytes = alloc::peak().saturating_sub(base);

    let probe = probe.into_inner();
    // A strict source stops at its first error; the events it never
    // delivered show up as a digest mismatch as well.
    let summary = result.unwrap_or_default();
    let (sink_bytes, sink_deltas) = match sink.inner {
        RealSink::Counting(s) => (0, s.total()),
        RealSink::Jsonl(s) => (s.into_inner().0, sink.digest.positive + sink.digest.negative),
    };
    Pass {
        setup,
        summary,
        digest: sink.digest,
        latencies_ns: probe.latencies_ns,
        latencies_cpu_ns: probe.latencies_cpu_ns,
        stream_cpu_s,
        peak_heap_bytes,
        source_errors: probe.source_errors,
        prefix_ops: sink.prefix_ops,
        prefix_counts: sink.prefix_counts,
        ops_with_deltas: sink.op_had_delta.iter().filter(|&&b| b).count() as u64,
        sink_bytes,
        sink_deltas,
        window_live_end: driver.window().live_len(),
        dcg_end: target.dcg_size(),
        fleet: target.fleet_stats(),
        shard: target.shard_stats(),
        trace: traced.then(|| PassTrace {
            flushes: probe.flushes,
            engine: target.take_engine_trace(),
            dcg_peak_bytes: probe.dcg_peak,
        }),
    }
}

/// Replays the workload's events through a stand-alone `SlidingWindow`
/// (the driver calls `push` where the benchmark cannot time it) and returns
/// `(busy seconds, ops out)`. The buffer is cleared every 256 ops as the
/// driver's is.
pub fn window_replay(inputs: &Inputs) -> (f64, usize) {
    let events: Vec<StreamEvent> = match &inputs.events {
        Events::Ops(ops) => {
            ops.iter().enumerate().map(|(i, op)| StreamEvent::new(i as u64, op.clone())).collect()
        }
        Events::Text(text) => {
            // Label ids need not match the real run's: the window only compares them.
            let mut interner = inputs.interner.clone();
            let mut src = FileSource::new(text.as_bytes(), &mut interner, ErrorMode::Strict);
            let mut events = Vec::with_capacity(inputs.n_events);
            while let Ok(Some(ev)) = src.next_event() {
                events.push(ev);
            }
            events
        }
    };
    let mut window = SlidingWindow::new(inputs.window);
    let mut buf = Vec::with_capacity(512);
    let mut ops_out = 0;
    let t0 = Instant::now();
    for ev in &events {
        window.push(ev, &mut buf);
        if buf.len() >= 256 {
            ops_out += buf.len();
            buf.clear();
        }
    }
    let busy = t0.elapsed().as_secs_f64();
    (busy, ops_out + buf.len())
}

/// Heap bytes a copy of g0 takes, and g0's edge count.
pub fn g0_heap(inputs: &Inputs) -> (usize, usize) {
    let mut interner = inputs.interner.clone();
    let g0 = g0_graph(inputs, &mut interner);
    let before = alloc::live();
    let copy = std::hint::black_box(g0.clone());
    let bytes = alloc::live().saturating_sub(before);
    (bytes, copy.edge_count())
}

/// The spans of a traced pass.
pub fn spans_of(trace: &PassTrace) -> Vec<trace::Span> {
    let engine = trace.engine.as_ref().map_or(&[][..], |e| &e.batches);
    trace::build_spans(&trace.flushes, engine)
}
