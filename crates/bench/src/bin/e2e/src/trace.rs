//! Spans recorded from outside the program: one root span per flush with
//! one aggregated child span per layer, and the externally-driven engine
//! target that lets graph mutation and engine evaluation be timed apart.
//!
//! Nothing here instruments product code. A layer's span aggregates the
//! calls the benchmark made into that layer's public functions during one
//! flush: `start`/`end` bracket the first and last call, `busy` is the time
//! spent inside them. Self time is `busy` minus the `busy` of direct
//! children.

use std::fmt::Write as _;
use std::time::Instant;

use turboflux::core::{TurboFlux, TurboFluxConfig};
use turboflux::graph::{DynamicGraph, LabelSet, UpdateOp, VertexId};
use turboflux::query::{MatchRecord, Positiveness, QueryGraph};
use turboflux::stream::BatchTarget;

use crate::run::Target;

/// Layer names used as span names.
pub const FLUSH: &str = "flush";
pub const SOURCE: &str = "stream.source";
pub const TARGET: &str = "target.apply_batch";
pub const GRAPH: &str = "graph.mutate";
pub const INSERT: &str = "core.eval_insert";
pub const DELETE: &str = "core.eval_delete";
pub const SINK: &str = "stream.sink";

/// One span. `flush` is the batch index every span of a flush shares;
/// `parent` indexes the span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub flush: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u32,
}

/// Total self time of every span called `name`, in seconds. Linear in the
/// span count: children follow their parent directly in flush order, so the
/// scan for children stops at the next root.
pub fn self_seconds(spans: &[Span], name: &str) -> f64 {
    let mut total = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let mut children = 0u64;
        for c in &spans[i + 1..] {
            if c.parent.is_none() {
                break;
            }
            if c.parent == Some(i) {
                children += c.busy_ns;
            }
        }
        total += s.busy_ns.saturating_sub(children);
    }
    total as f64 / 1e9
}

/// Total busy time of every span called `name`, in seconds.
pub fn busy_seconds(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9
}

/// What the source/target wrappers saw of one flush.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlushRec {
    pub source_first_ns: u64,
    pub source_last_ns: u64,
    pub source_busy_ns: u64,
    pub source_calls: u32,
    pub target_start_ns: u64,
    pub target_end_ns: u64,
}

/// What [`SplitEngine`] saw of one `apply_batch`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineRec {
    pub graph: Agg,
    pub insert: Agg,
    pub delete: Agg,
    pub sink_in_insert: Agg,
    pub sink_in_delete: Agg,
}

/// Aggregated calls into one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub first_ns: u64,
    pub last_ns: u64,
    pub busy_ns: u64,
    pub calls: u32,
}

impl Agg {
    #[inline]
    fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.calls == 0 {
            self.first_ns = start_ns;
        }
        self.last_ns = end_ns;
        self.busy_ns += end_ns - start_ns;
        self.calls += 1;
    }
}

/// Builds the span list of a pass: per flush a root, its source and target
/// children, and under the target whatever the engine target recorded
/// (`engine` is empty for fleet and sharded targets, which are timed per
/// `apply_batch` only).
pub fn build_spans(flushes: &[FlushRec], engine: &[EngineRec]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(flushes.len() * 8);
    for (i, f) in flushes.iter().enumerate() {
        let flush = i as u32;
        let root = spans.len();
        // A flush starts with its first `next_event` call; the last one of a
        // drained window has none.
        let start_ns = if f.source_calls > 0 { f.source_first_ns } else { f.target_start_ns };
        spans.push(Span {
            flush,
            name: FLUSH,
            parent: None,
            start_ns,
            end_ns: f.target_end_ns,
            busy_ns: f.target_end_ns - start_ns,
            calls: 1,
        });
        if f.source_calls > 0 {
            spans.push(Span {
                flush,
                name: SOURCE,
                parent: Some(root),
                start_ns: f.source_first_ns,
                end_ns: f.source_last_ns,
                busy_ns: f.source_busy_ns,
                calls: f.source_calls,
            });
        }
        let target = spans.len();
        spans.push(Span {
            flush,
            name: TARGET,
            parent: Some(root),
            start_ns: f.target_start_ns,
            end_ns: f.target_end_ns,
            busy_ns: f.target_end_ns - f.target_start_ns,
            calls: 1,
        });
        let Some(e) = engine.get(i) else { continue };
        let push = |name: &'static str, parent: usize, a: &Agg, spans: &mut Vec<Span>| {
            if a.calls == 0 {
                return None;
            }
            spans.push(Span {
                flush,
                name,
                parent: Some(parent),
                start_ns: a.first_ns,
                end_ns: a.last_ns,
                busy_ns: a.busy_ns,
                calls: a.calls,
            });
            Some(spans.len() - 1)
        };
        push(GRAPH, target, &e.graph, &mut spans);
        if let Some(ins) = push(INSERT, target, &e.insert, &mut spans) {
            push(SINK, ins, &e.sink_in_insert, &mut spans);
        }
        if let Some(del) = push(DELETE, target, &e.delete, &mut spans) {
            push(SINK, del, &e.sink_in_delete, &mut spans);
        }
    }
    spans
}

/// One JSON object per span, one per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (i, s) in spans.iter().enumerate() {
        let _ =
            write!(out, "{{\"span\":{i},\"flush\":{},\"name\":\"{}\",\"parent\":", s.flush, s.name);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = writeln!(
            out,
            ",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
            s.start_ns, s.end_ns, s.busy_ns, s.calls
        );
    }
    out
}

/// A single engine in its public externally-driven mode: the benchmark owns
/// the `DynamicGraph` and makes, per op, the same calls
/// `TurboFlux::apply_op` makes on its own graph, so that graph mutation and
/// engine evaluation can be timed apart from outside.
pub struct SplitEngine {
    engine: TurboFlux,
    graph: DynamicGraph,
    epoch: Instant,
    /// Time the sink per delta (only worth its cost where the sink formats
    /// text; a counting sink is cheaper than the two clock reads).
    time_sink: bool,
    pub batches: Vec<EngineRec>,
    /// Per-op evaluation time, sink excluded.
    pub insert_eval_ns: Vec<u32>,
    pub delete_eval_ns: Vec<u32>,
}

impl SplitEngine {
    pub fn new(
        q: QueryGraph,
        g0: DynamicGraph,
        cfg: TurboFluxConfig,
        epoch: Instant,
        time_sink: bool,
        expect_ops: usize,
    ) -> Self {
        let engine = TurboFlux::register(q, &g0, cfg);
        SplitEngine {
            engine,
            graph: g0,
            epoch,
            time_sink,
            batches: Vec::with_capacity(expect_ops / 256 + 16),
            insert_eval_ns: Vec::with_capacity(expect_ops),
            delete_eval_ns: Vec::with_capacity(expect_ops),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl BatchTarget for SplitEngine {
    fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        sink: &mut dyn FnMut(usize, usize, Positiveness, &MatchRecord),
    ) {
        let mut rec = EngineRec::default();
        let epoch = self.epoch;
        let time_sink = self.time_sink;
        // One clock read per layer boundary: each op's first layer starts
        // where the previous op's last one ended.
        let mut t0 = self.now();
        for (i, op) in ops.iter().enumerate() {
            // Downstream of the engine: the driver's closure and the sink.
            let mut sink_agg = Agg::default();
            let mut emit = |p: Positiveness, r: &MatchRecord| {
                if time_sink {
                    let s0 = epoch.elapsed().as_nanos() as u64;
                    sink(0, i, p, r);
                    sink_agg.add(s0, epoch.elapsed().as_nanos() as u64);
                } else {
                    sink(0, i, p, r);
                }
            };
            match op {
                UpdateOp::AddVertex { .. } => {
                    let before = VertexId(self.graph.vertex_count() as u32);
                    let grew = self.graph.apply(op);
                    let t1 = self.now();
                    rec.graph.add(t0, t1);
                    t0 = t1;
                    if grew {
                        self.engine.register_new_vertices(&self.graph, before);
                        t0 = self.now();
                        rec.insert.add(t1, t0);
                    }
                }
                UpdateOp::InsertEdge { src, label, dst } => {
                    let before = VertexId(self.graph.vertex_count() as u32);
                    let hi = src.0.max(dst.0);
                    if hi >= before.0 {
                        self.graph.ensure_vertex(VertexId(hi), LabelSet::empty());
                    }
                    let inserted = self.graph.insert_edge(*src, *label, *dst);
                    let t1 = self.now();
                    rec.graph.add(t0, t1);
                    self.engine.register_new_vertices(&self.graph, before);
                    if inserted {
                        self.engine.eval_inserted_edge(&self.graph, *src, *label, *dst, &mut emit);
                    }
                    t0 = self.now();
                    rec.insert.add(t1, t0);
                    self.insert_eval_ns.push(eval_ns(t0 - t1, &sink_agg));
                    merge(&mut rec.sink_in_insert, &sink_agg);
                }
                UpdateOp::DeleteEdge { src, label, dst } => {
                    let present = self.graph.has_edge(*src, *label, *dst);
                    let t1 = self.now();
                    rec.graph.add(t0, t1);
                    t0 = t1;
                    if present {
                        self.engine.eval_deleting_edge(&self.graph, *src, *label, *dst, &mut emit);
                        let t2 = self.now();
                        rec.delete.add(t1, t2);
                        self.delete_eval_ns.push(eval_ns(t2 - t1, &sink_agg));
                        merge(&mut rec.sink_in_delete, &sink_agg);
                        self.graph.delete_edge(*src, *label, *dst);
                        t0 = self.now();
                        rec.graph.add(t2, t0);
                    }
                }
            }
        }
        self.batches.push(rec);
    }
}

/// An op's evaluation time without the sink calls made during it.
fn eval_ns(wall_ns: u64, sink: &Agg) -> u32 {
    (wall_ns - sink.busy_ns).min(u32::MAX as u64) as u32
}

fn merge(into: &mut Agg, from: &Agg) {
    if from.calls == 0 {
        return;
    }
    if into.calls == 0 {
        into.first_ns = from.first_ns;
    }
    into.last_ns = from.last_ns;
    into.busy_ns += from.busy_ns;
    into.calls += from.calls;
}

impl Target for SplitEngine {
    fn count_initial(&mut self) -> Vec<u64> {
        let mut n = 0u64;
        self.engine.initial_matches_in(&self.graph, &mut |_| n += 1);
        vec![n]
    }

    fn dcg_size(&self) -> Option<(usize, u64)> {
        self.engine.dcg_size()
    }

    fn take_engine_trace(&mut self) -> Option<EngineTrace> {
        Some(EngineTrace {
            batches: std::mem::take(&mut self.batches),
            insert_eval_ns: std::mem::take(&mut self.insert_eval_ns),
            delete_eval_ns: std::mem::take(&mut self.delete_eval_ns),
        })
    }
}

/// What a [`SplitEngine`] recorded over a pass.
pub struct EngineTrace {
    pub batches: Vec<EngineRec>,
    pub insert_eval_ns: Vec<u32>,
    pub delete_eval_ns: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `busy` of span `i` minus the `busy` of its direct children, the slow
    /// and obvious way.
    fn self_ns(spans: &[Span], i: usize) -> u64 {
        let children: u64 = spans.iter().filter(|s| s.parent == Some(i)).map(|s| s.busy_ns).sum();
        spans[i].busy_ns - children
    }

    fn agg(first: u64, last: u64, busy: u64, calls: u32) -> Agg {
        Agg { first_ns: first, last_ns: last, busy_ns: busy, calls }
    }

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let flushes = [
            FlushRec {
                source_first_ns: 0,
                source_last_ns: 90,
                source_busy_ns: 40,
                source_calls: 4,
                target_start_ns: 100,
                target_end_ns: 1000,
            },
            FlushRec {
                source_first_ns: 1000,
                source_last_ns: 1050,
                source_busy_ns: 30,
                source_calls: 2,
                target_start_ns: 1100,
                target_end_ns: 1500,
            },
        ];
        let engine = [
            EngineRec {
                graph: agg(100, 900, 100, 5),
                insert: agg(120, 800, 500, 3),
                delete: agg(810, 990, 200, 2),
                sink_in_insert: agg(130, 700, 150, 9),
                sink_in_delete: Agg::default(),
            },
            EngineRec { graph: agg(1100, 1400, 50, 2), ..EngineRec::default() },
        ];
        let spans = build_spans(&flushes, &engine);
        // flush 0: root, source, target, graph, insert, sink, delete.
        assert_eq!(spans.len(), 7 + 4);
        assert_eq!(spans[0].name, FLUSH);
        assert_eq!(spans[0].busy_ns, 1000);
        assert_eq!(self_ns(&spans, 0), 1000 - 40 - 900, "flush: minus source and target");
        assert_eq!(spans[2].name, TARGET);
        assert_eq!(self_ns(&spans, 2), 900 - 100 - 500 - 200, "target: minus its three layers");
        assert_eq!(spans[4].name, INSERT);
        assert_eq!(self_ns(&spans, 4), 500 - 150, "insert eval: minus the sink it called");
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!(spans[6].name, DELETE);
        assert_eq!(self_ns(&spans, 6), 200, "no sink call, no sink span");
        assert!(spans.iter().all(|s| s.parent.is_none_or(|p| spans[p].flush == s.flush)));

        assert_eq!(self_seconds(&spans, FLUSH), (60.0 + (500.0 - 30.0 - 400.0)) / 1e9);
        assert_eq!(self_seconds(&spans, INSERT), 350.0 / 1e9);
        assert_eq!(self_seconds(&spans, TARGET), (100.0 + 350.0) / 1e9);
        assert_eq!(busy_seconds(&spans, GRAPH), 150.0 / 1e9);
        assert_eq!(busy_seconds(&spans, SINK), 150.0 / 1e9);

        let text = spans_jsonl(&spans);
        assert_eq!(text.lines().count(), spans.len());
        assert!(text.lines().next().expect("a line").contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"core.eval_insert\",\"parent\":2"));
    }
}
