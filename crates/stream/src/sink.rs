//! Delta sinks: where match deltas go.
//!
//! The engine crates deliver matches to bare closures; the driver instead
//! talks to a [`DeltaSink`] so destinations are first-class values — a
//! counting sink for smoke tests, a JSONL writer for tooling, a callback
//! adapter for embedding, a null sink for benchmarks.

use std::io::Write;

use tfx_graph::UpdateOp;
use tfx_query::{MatchRecord, Positiveness};

use crate::driver::{RunSummary, StreamStats};

/// One match delta as delivered to a sink.
#[derive(Clone, Copy, Debug)]
pub struct DeltaRef<'a> {
    /// Batch index (0-based) the triggering op was evaluated in.
    pub batch: usize,
    /// Engine (fleet registration index; 0 for a single engine).
    pub engine: usize,
    /// Index of the triggering op within its batch.
    pub op_index: usize,
    /// Index of the triggering op within the whole run.
    pub global_op: usize,
    /// Positive (match appeared) or negative (match disappeared).
    pub positiveness: Positiveness,
    /// The complete mapping. Borrowed; clone to keep.
    pub record: &'a MatchRecord,
}

/// A destination for match deltas and per-batch statistics.
pub trait DeltaSink {
    /// The ops of a batch, just before they are applied. Default: ignored.
    fn on_ops(&mut self, _batch: usize, _ops: &[UpdateOp]) {}

    /// One match delta.
    fn on_delta(&mut self, d: &DeltaRef<'_>);

    /// A batch finished evaluating. Default: ignored.
    fn on_batch(&mut self, _stats: &StreamStats) {}

    /// The run finished. Default: ignored.
    fn on_summary(&mut self, _summary: &RunSummary) {}
}

/// Counts deltas without keeping them.
#[derive(Default, Debug)]
pub struct CountingSink {
    /// Matches that appeared.
    pub positive: u64,
    /// Matches that disappeared.
    pub negative: u64,
}

impl CountingSink {
    /// Total deltas seen.
    pub fn total(&self) -> u64 {
        self.positive + self.negative
    }
}

impl DeltaSink for CountingSink {
    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        match d.positiveness {
            Positiveness::Positive => self.positive += 1,
            Positiveness::Negative => self.negative += 1,
        }
    }
}

/// Adapts a closure to a sink.
pub struct CallbackSink<F: FnMut(&DeltaRef<'_>)> {
    f: F,
}

impl<F: FnMut(&DeltaRef<'_>)> CallbackSink<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        CallbackSink { f }
    }
}

impl<F: FnMut(&DeltaRef<'_>)> DeltaSink for CallbackSink<F> {
    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        (self.f)(d);
    }
}

/// Writes one JSON object per line: `delta` lines for matches, `batch`
/// lines for per-batch [`StreamStats`], one final `summary` line.
///
/// The JSON is hand-rolled (the build has no serde): all values are
/// integers or fixed strings, so escaping never arises. Every line is built
/// in one reused buffer and handed to the writer with one `write_all`.
///
/// The [`DeltaSink`] hooks cannot fail, so the first write error is latched
/// instead: nothing is formatted or written after it, and the caller
/// collects it with [`JsonlSink::take_error`] once the run is over.
pub struct JsonlSink<W: Write> {
    w: W,
    line: Vec<u8>,
    err: Option<std::io::Error>,
}

/// `"00"` to `"99"`, two bytes each: the digits [`push_int`] writes a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `n` in decimal, two digits a step. A plain function, not
/// `#[inline]`: its body stays in this crate, out of every crate that names
/// a writer for [`JsonlSink`].
fn push_int(line: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == digits.len() {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    line.extend_from_slice(&digits[at..]);
}

impl<W: Write> JsonlSink<W> {
    /// Writes to `w`. Output is line-buffered by the caller's writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, line: Vec::new(), err: None }
    }

    /// The underlying writer (e.g. to flush at the end).
    pub fn into_inner(self) -> W {
        self.w
    }

    /// The first error the writer returned, if any; every line from that
    /// one on was dropped.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.err.take()
    }

    /// Builds one line with `fill` and writes it, unless a write failed
    /// before.
    fn emit(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        if self.err.is_some() {
            return;
        }
        self.line.clear();
        fill(&mut self.line);
        self.line.push(b'\n');
        self.err = self.w.write_all(&self.line).err();
    }
}

impl<W: Write> DeltaSink for JsonlSink<W> {
    fn on_delta(&mut self, d: &DeltaRef<'_>) {
        self.emit(|line| {
            line.extend_from_slice(b"{\"type\":\"delta\",\"batch\":");
            push_int(line, d.batch as u64);
            line.extend_from_slice(b",\"op\":");
            push_int(line, d.global_op as u64);
            line.extend_from_slice(b",\"engine\":");
            push_int(line, d.engine as u64);
            line.extend_from_slice(match d.positiveness {
                Positiveness::Positive => b",\"sign\":\"+\",\"embedding\":[",
                Positiveness::Negative => b",\"sign\":\"-\",\"embedding\":[",
            });
            for (i, v) in d.record.as_slice().iter().enumerate() {
                if i > 0 {
                    line.push(b',');
                }
                push_int(line, u64::from(v.0));
            }
            line.extend_from_slice(b"]}");
        });
    }

    fn on_batch(&mut self, s: &StreamStats) {
        self.emit(|line| {
            write!(
                line,
                "{{\"type\":\"batch\",\"batch\":{},\"events\":{},\"ops\":{},\"inserts\":{},\"deletes\":{},\"expiry_deletes\":{},\"positive\":{},\"negative\":{},\"first_ts\":{},\"last_ts\":{},\"latency_us\":{}}}",
                s.batch,
                s.events_in,
                s.ops_out,
                s.inserts,
                s.deletes,
                s.expiry_deletes,
                s.positive,
                s.negative,
                s.first_ts,
                s.last_ts,
                s.latency.as_micros(),
            )
            .expect("writing to a Vec cannot fail");
        });
    }

    fn on_summary(&mut self, s: &RunSummary) {
        self.emit(|line| {
            write!(
                line,
                "{{\"type\":\"summary\",\"batches\":{},\"events\":{},\"ops\":{},\"expiry_deletes\":{},\"positive\":{},\"negative\":{},\"elapsed_us\":{}}}",
                s.batches,
                s.events,
                s.ops,
                s.expiry_deletes,
                s.positive,
                s.negative,
                s.elapsed.as_micros(),
            )
            .expect("writing to a Vec cannot fail");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn push_int_writes_what_format_does() {
        let edges = [0, 9, 10, 99, 100, 101, 1_000, 65_536, u64::from(u32::MAX), u64::MAX];
        for n in edges.into_iter().chain((0..2_000).map(|i| i * 7919)) {
            let mut line = b"x".to_vec();
            push_int(&mut line, n);
            assert_eq!(line, format!("x{n}").into_bytes(), "{n}");
        }
    }

    fn delta<'a>(rec: &'a MatchRecord, p: Positiveness) -> DeltaRef<'a> {
        DeltaRef { batch: 1, engine: 0, op_index: 2, global_op: 7, positiveness: p, record: rec }
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let rec = MatchRecord::new(vec![tfx_graph::VertexId(3), tfx_graph::VertexId(9)]);
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_delta(&delta(&rec, Positiveness::Positive));
        sink.on_delta(&delta(&rec, Positiveness::Negative));
        sink.on_batch(&StreamStats {
            batch: 1,
            events_in: 4,
            ops_out: 5,
            inserts: 3,
            deletes: 2,
            expiry_deletes: 1,
            positive: 1,
            negative: 1,
            first_ts: 10,
            last_ts: 13,
            latency: Duration::from_micros(42),
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"sign\":\"+\"") && lines[0].contains("\"embedding\":[3,9]"));
        assert!(lines[1].contains("\"sign\":\"-\""));
        assert!(lines[2].contains("\"type\":\"batch\"") && lines[2].contains("\"latency_us\":42"));
    }

    /// Accepts `ok` writes, then fails every one after.
    struct FailingWriter {
        ok: usize,
        lines: Vec<String>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.lines.len() == self.ok {
                return Err(std::io::Error::other("disk full"));
            }
            self.lines.push(String::from_utf8(buf.to_vec()).unwrap());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One `write_all` per line; the first failure is latched, ends the
    /// output — delta, batch and summary lines alike — and is handed out
    /// once.
    #[test]
    fn jsonl_sink_latches_the_first_write_error() {
        let rec =
            MatchRecord::new(vec![tfx_graph::VertexId(0), tfx_graph::VertexId(4_000_000_000)]);
        let stats = StreamStats {
            batch: 0,
            events_in: 1,
            ops_out: 1,
            inserts: 1,
            deletes: 0,
            expiry_deletes: 0,
            positive: 1,
            negative: 0,
            first_ts: 0,
            last_ts: 0,
            latency: Duration::ZERO,
        };
        let summary = RunSummary {
            batches: 1,
            events: 1,
            ops: 1,
            expiry_deletes: 0,
            positive: 1,
            negative: 0,
            elapsed: Duration::ZERO,
        };
        for ok in 0..4 {
            let mut sink = JsonlSink::new(FailingWriter { ok, lines: Vec::new() });
            sink.on_delta(&delta(&rec, Positiveness::Positive));
            sink.on_batch(&stats);
            sink.on_delta(&delta(&rec, Positiveness::Negative));
            sink.on_summary(&summary);
            let err = sink.take_error().expect("the failure is latched");
            assert_eq!(err.to_string(), "disk full");
            assert!(sink.take_error().is_none(), "handed out once");
            let lines = sink.into_inner().lines;
            assert_eq!(lines.len(), ok, "a line is one write, and none follows the failure");
            let want = [
                "{\"type\":\"delta\",\"batch\":1,\"op\":7,\"engine\":0,\"sign\":\"+\",\"embedding\":[0,4000000000]}\n",
                "{\"type\":\"batch\",\"batch\":0,",
                "{\"type\":\"delta\",\"batch\":1,\"op\":7,\"engine\":0,\"sign\":\"-\",\"embedding\":[0,4000000000]}\n",
            ];
            for (line, want) in lines.iter().zip(want) {
                assert!(line.starts_with(want) && line.ends_with("}\n"), "{line}");
            }
        }
        // A healthy writer sees all four lines and no error.
        let mut sink = JsonlSink::new(FailingWriter { ok: 9, lines: Vec::new() });
        sink.on_delta(&delta(&rec, Positiveness::Positive));
        sink.on_batch(&stats);
        sink.on_delta(&delta(&rec, Positiveness::Negative));
        sink.on_summary(&summary);
        assert!(sink.take_error().is_none());
        let lines = sink.into_inner().lines;
        assert_eq!(lines.len(), 4);
        assert!(lines[3].starts_with("{\"type\":\"summary\",\"batches\":1,"), "{}", lines[3]);
    }

    #[test]
    fn counting_sink_counts() {
        let rec = MatchRecord::new(vec![tfx_graph::VertexId(0)]);
        let mut sink = CountingSink::default();
        sink.on_delta(&delta(&rec, Positiveness::Positive));
        sink.on_delta(&delta(&rec, Positiveness::Positive));
        sink.on_delta(&delta(&rec, Positiveness::Negative));
        assert_eq!((sink.positive, sink.negative, sink.total()), (2, 1, 3));
    }

    #[test]
    fn callback_sink_forwards() {
        let rec = MatchRecord::new(vec![tfx_graph::VertexId(1)]);
        let mut seen = 0;
        {
            let mut sink = CallbackSink::new(|d: &DeltaRef<'_>| {
                assert_eq!(d.global_op, 7);
                seen += 1;
            });
            sink.on_delta(&delta(&rec, Positiveness::Positive));
        }
        assert_eq!(seen, 1);
    }
}
