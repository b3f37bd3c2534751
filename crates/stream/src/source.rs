//! Stream sources: where timestamped events come from.
//!
//! [`FileSource`] is the canonical text source. Its format is a superset of
//! the stream files the `tfx` CLI always accepted (`testdata/demo_stream.txt`
//! parses unchanged):
//!
//! ```text
//! v 7 User             # vertex 7 arrives with label User
//! + 3 7 knows          # insert edge 3 -knows-> 7
//! - 3 7 knows          # delete it again
//! @120 + 3 8 knows     # the same, at explicit stream time 120
//! @120 v 9 User        # equal timestamps are fine (FIFO order is kept)
//! ```
//!
//! * `@<ts>` prefixes a line with an explicit event time. Timestamps must
//!   be non-decreasing.
//! * Untimestamped lines get an implicit monotonic timestamp: one tick
//!   after the previous event (the first event is tick 0). Explicit and
//!   implicit lines can be mixed; the implicit counter continues from the
//!   last explicit time.
//! * `#` starts a comment; blank lines are ignored.
//! * Tokens are separated by ASCII whitespace and read by the same byte-level
//!   tokenizer as graph and query files (`tfx_query::parser::Tokens`). A
//!   label must be UTF-8; no other byte is checked, so a comment may hold
//!   anything, and a label that is not UTF-8 is a malformed line.
//!
//! Error handling is selected by [`ErrorMode`]: `Strict` stops at the first
//! malformed line ([`SourceError`] carries its 1-based line number);
//! `Lenient` skips malformed lines and records the same diagnostics in
//! [`FileSource::diagnostics`], clamping regressing timestamps forward so
//! the output stays monotonic. A `v` or `+` line that names a vertex id more
//! than [`MAX_VERTEX_GAP`] past the highest one known is malformed in this
//! sense: the graph would create every id below it.

use std::io::BufRead;

use tfx_graph::{LabelInterner, LabelSet, UpdateOp, VertexId};
use tfx_query::parser::{parse_u32, parse_u64, LabelCache, Tokens};

use crate::event::StreamEvent;

/// A malformed line (or I/O failure) in a stream source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceError {
    /// 1-based line number of the offending input; 0 for non-line errors.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SourceError {}

/// How a source reacts to malformed input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorMode {
    /// Stop at the first malformed line.
    Strict,
    /// Skip malformed lines, recording a diagnostic per skip.
    Lenient,
}

/// A source of timestamped update events.
pub trait StreamSource {
    /// The next event, `Ok(None)` at end of stream. Events must come in
    /// non-decreasing timestamp order.
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError>;
}

/// Replays a pre-built event vector. Useful in tests and as the adapter for
/// anything that already produced `(ts, op)` pairs.
pub struct VecSource {
    events: std::vec::IntoIter<StreamEvent>,
}

impl VecSource {
    /// Wraps an event vector (must already be timestamp-sorted).
    pub fn new(events: Vec<StreamEvent>) -> Self {
        debug_assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts));
        VecSource { events: events.into_iter() }
    }
}

impl StreamSource for VecSource {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        Ok(self.events.next())
    }
}

/// How far past the highest known vertex id a `v` or `+` line may reach. A
/// `-` line never creates a vertex and is not checked.
pub use tfx_graph::MAX_VERTEX_GAP;

/// Parses the timestamped text stream format from any [`BufRead`].
///
/// Labels are interned through the caller's [`LabelInterner`] so stream
/// labels, graph labels and query labels share one id space.
pub struct FileSource<'i, R: BufRead> {
    reader: R,
    interner: &'i mut LabelInterner,
    mode: ErrorMode,
    lineno: usize,
    /// Time of the last emitted event; `None` before the first one.
    clock: Option<u64>,
    /// Vertex ids `0..known` exist: the initial graph's
    /// ([`FileSource::with_vertex_count`]) and every id up to the highest an
    /// emitted `v` or `+` event named.
    known: u32,
    diagnostics: Vec<SourceError>,
    /// The line being parsed, as read: bytes, checked for UTF-8 only where
    /// a label token misses `labels`.
    buf: Vec<u8>,
    labels: LabelCache,
    done: bool,
}

impl<'i, R: BufRead> FileSource<'i, R> {
    /// A source reading from `reader`, interning labels into `interner`.
    pub fn new(reader: R, interner: &'i mut LabelInterner, mode: ErrorMode) -> Self {
        FileSource {
            reader,
            interner,
            mode,
            lineno: 0,
            clock: None,
            known: 0,
            diagnostics: Vec::new(),
            buf: Vec::new(),
            labels: LabelCache::default(),
            done: false,
        }
    }

    /// Tells the source that the graph the stream applies to already holds
    /// vertices `0..n`, the base [`MAX_VERTEX_GAP`] is measured from.
    pub fn with_vertex_count(mut self, n: usize) -> Self {
        self.known = u32::try_from(n).unwrap_or(u32::MAX);
        self
    }

    /// Diagnostics recorded so far (lenient mode only; strict mode returns
    /// its first error from [`StreamSource::next_event`] instead).
    pub fn diagnostics(&self) -> &[SourceError] {
        &self.diagnostics
    }

    /// Records (lenient) or returns (strict) a per-line failure.
    fn fail(&mut self, line: usize, message: String) -> Result<(), SourceError> {
        let err = SourceError { line, message };
        match self.mode {
            ErrorMode::Strict => Err(err),
            ErrorMode::Lenient => {
                self.diagnostics.push(err);
                Ok(())
            }
        }
    }

    /// Parses one line's tokens into an event. `Ok(None)` means the line was
    /// blank, a comment, or consumed by a lenient-mode skip.
    fn parse_line(
        &mut self,
        tokens: Tokens<'_>,
        lineno: usize,
    ) -> Result<Option<StreamEvent>, SourceError> {
        let mut parts = tokens.peekable();
        let Some(first) = parts.peek() else { return Ok(None) };
        // Optional explicit timestamp token.
        let mut ts = None;
        if let Some(raw) = first.strip_prefix(b"@") {
            match parse_u64(raw) {
                Some(t) => ts = Some(t),
                None => {
                    let raw = String::from_utf8_lossy(raw);
                    self.fail(lineno, format!("`@` needs an integer timestamp, got `@{raw}`"))?;
                    return Ok(None);
                }
            }
            parts.next();
        }
        // Monotonicity: implicit lines tick forward; explicit regressions
        // are an error (strict) or clamped to the current clock (lenient).
        // After `@18446744073709551615` the clock stays pinned there.
        let implicit = self.clock.map_or(0, |c| c.saturating_add(1));
        let ts = match ts {
            None => implicit,
            Some(t) => {
                if let Some(c) = self.clock {
                    if t < c {
                        self.fail(
                            lineno,
                            format!("timestamp @{t} regresses (stream is at @{c}); clamped"),
                        )?;
                        c
                    } else {
                        t
                    }
                } else {
                    t
                }
            }
        };

        let Some(op) = parts.next() else {
            self.fail(lineno, "timestamp without an operation".to_owned())?;
            return Ok(None);
        };
        let parse_vertex = |s: Option<&[u8]>| -> Result<VertexId, String> {
            let s = s.ok_or_else(|| "missing vertex id".to_owned())?;
            parse_u32(s).map(VertexId).ok_or_else(|| "vertex ids are integers".to_owned())
        };
        let (interner, cache) = (&mut *self.interner, &mut self.labels);
        let mut label = |s: &[u8]| cache.intern(interner, s).map_err(|e| e.to_string());
        let parsed: Result<UpdateOp, String> = match op {
            b"v" => parse_vertex(parts.next()).and_then(|id| {
                let labels = parts.by_ref().map(label).collect::<Result<Vec<_>, _>>()?;
                Ok(UpdateOp::AddVertex { id, labels: LabelSet::from_labels(labels) })
            }),
            b"+" | b"-" => (|| {
                let src = parse_vertex(parts.next())?;
                let dst = parse_vertex(parts.next())?;
                let label = label(parts.next().ok_or_else(|| "edge ops need a label".to_owned())?)?;
                if parts.next().is_some() {
                    return Err("trailing tokens".to_owned());
                }
                Ok(if op == b"+" {
                    UpdateOp::InsertEdge { src, label, dst }
                } else {
                    UpdateOp::DeleteEdge { src, label, dst }
                })
            })(),
            other => {
                let other = String::from_utf8_lossy(other);
                Err(format!("unknown op `{other}` (expected v, + or -)"))
            }
        };
        // The highest id the op would make the graph create.
        let parsed = parsed.and_then(|op| {
            let top = match op {
                UpdateOp::AddVertex { id, .. } => id.0,
                UpdateOp::InsertEdge { src, dst, .. } => src.0.max(dst.0),
                UpdateOp::DeleteEdge { .. } => return Ok(op),
            };
            if u64::from(top) >= u64::from(self.known) + u64::from(MAX_VERTEX_GAP) {
                let highest = self.known.checked_sub(1).map_or("none".to_owned(), |v| v.to_string());
                return Err(format!(
                    "vertex id {top} is more than {MAX_VERTEX_GAP} past the highest known id ({highest})"
                ));
            }
            self.known = self.known.max(top.saturating_add(1));
            Ok(op)
        });
        match parsed {
            Ok(op) => {
                self.clock = Some(ts);
                Ok(Some(StreamEvent { ts, op }))
            }
            Err(message) => {
                self.fail(lineno, message)?;
                Ok(None)
            }
        }
    }
}

impl<R: BufRead> StreamSource for FileSource<'_, R> {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        if self.done {
            return Ok(None);
        }
        loop {
            self.buf.clear();
            let n = self
                .reader
                .read_until(b'\n', &mut self.buf)
                .map_err(|e| SourceError { line: self.lineno + 1, message: e.to_string() })?;
            if n == 0 {
                self.done = true;
                return Ok(None);
            }
            self.lineno += 1;
            // The line buffer leaves `self` while `parse_line` borrows from
            // it, and comes back with its capacity: no copy per line.
            let buf = std::mem::take(&mut self.buf);
            let parsed = self.parse_line(Tokens::new(&buf), self.lineno);
            self.buf = buf;
            if let Some(ev) = parsed? {
                return Ok(Some(ev));
            }
        }
    }
}

/// Drains a source to completion into a vector (test / tooling helper).
pub fn collect_events(src: &mut dyn StreamSource) -> Result<Vec<StreamEvent>, SourceError> {
    let mut out = Vec::new();
    while let Some(ev) = src.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelId;

    fn parse_all(
        text: &str,
        mode: ErrorMode,
    ) -> (Result<Vec<StreamEvent>, SourceError>, Vec<SourceError>) {
        let mut it = LabelInterner::new();
        let mut src = FileSource::new(text.as_bytes(), &mut it, mode);
        let got = collect_events(&mut src);
        let diags = src.diagnostics().to_vec();
        (got, diags)
    }

    #[test]
    fn untimestamped_lines_get_implicit_monotonic_ticks() {
        let text = "+ 0 1 a\n\n# comment\nv 2 B\n- 0 1 a\n";
        let (got, diags) = parse_all(text, ErrorMode::Strict);
        let got = got.unwrap();
        assert!(diags.is_empty());
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(matches!(got[0].op, UpdateOp::InsertEdge { .. }));
        assert!(matches!(got[1].op, UpdateOp::AddVertex { .. }));
        assert!(matches!(got[2].op, UpdateOp::DeleteEdge { .. }));
    }

    #[test]
    fn explicit_timestamps_mix_with_implicit_ones() {
        let text = "+ 0 1 a\n@10 + 1 2 a\n+ 2 3 a\n@11 + 3 4 a\n@12 v 9\n";
        let (got, _) = parse_all(text, ErrorMode::Strict);
        let ts: Vec<u64> = got.unwrap().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 10, 11, 11, 12]);
    }

    #[test]
    fn strict_mode_reports_first_error_with_line_number() {
        let text = "+ 0 1 a\n+ 0 oops a\n+ 1 2 a\n";
        let (got, _) = parse_all(text, ErrorMode::Strict);
        let err = got.unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("vertex ids are integers"));
        assert!(err.to_string().starts_with("line 2:"));
    }

    #[test]
    fn lenient_mode_skips_and_records_line_numbers() {
        let text = "+ 0 1 a\nbogus line\n+ 0 nan a\n@x + 1 2 a\n+ 1 2 a # fine\n+ 1 2\n";
        let (got, diags) = parse_all(text, ErrorMode::Lenient);
        let got = got.unwrap();
        assert_eq!(got.len(), 2, "two well-formed events survive");
        assert_eq!(got[1].ts, 1, "implicit clock skips bad lines without jumping");
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 6]);
        assert!(diags[0].message.contains("unknown op"));
        assert!(diags[1].message.contains("vertex ids are integers"));
        assert!(diags[2].message.contains("integer timestamp"));
        assert!(diags[3].message.contains("edge ops need a label"));
    }

    /// A stream is bytes: one non-UTF-8 byte used to end even a lenient run
    /// ("stream did not contain valid UTF-8"), also inside a comment.
    #[test]
    fn non_utf8_bytes_are_ignored_in_comments_and_malformed_in_labels() {
        let text: &[u8] = b"+ 0 1 a\n+ 0 2 a # caf\xe9\n+ 1 2 caf\xe9\n\xff 1 2 a\n+ 2 3 a\n";
        let run = |mode| {
            let mut it = LabelInterner::new();
            let mut src = FileSource::new(text, &mut it, mode);
            (collect_events(&mut src), src.diagnostics().to_vec(), it.len())
        };
        let (got, diags, labels) = run(ErrorMode::Lenient);
        let got = got.unwrap();
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(matches!(got[2].op, UpdateOp::InsertEdge { src: VertexId(2), .. }));
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(diags[0].message, "labels must be UTF-8");
        assert!(diags[1].message.starts_with("unknown op `\u{fffd}`"), "{}", diags[1]);
        assert_eq!(labels, 1, "a label that is not UTF-8 interns nothing");

        let (got, _, _) = run(ErrorMode::Strict);
        assert_eq!(got.unwrap_err().to_string(), "line 3: labels must be UTF-8");
    }

    #[test]
    fn timestamp_regression_is_strict_error_lenient_clamp() {
        let text = "@10 + 0 1 a\n@5 + 1 2 a\n";
        let (got, _) = parse_all(text, ErrorMode::Strict);
        let err = got.unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("regresses"));

        let (got, diags) = parse_all(text, ErrorMode::Lenient);
        let got = got.unwrap();
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![10, 10], "clamped");
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn implicit_clock_pins_at_the_last_timestamp() {
        // `c + 1` overflowed here: a panic in debug builds, a wrap to 0 in
        // release builds, after which a time window never expired again.
        let text = "@18446744073709551615 + 0 1 a\n+ 1 0 a\n+ 0 2 a\n@7 + 2 0 a\n";
        let (got, diags) = parse_all(text, ErrorMode::Lenient);
        let got = got.unwrap();
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![u64::MAX; 4]);
        assert_eq!(diags.len(), 1, "an explicit timestamp below the pin is a regression");
        assert_eq!(diags[0].line, 4);

        // The window still sees a non-decreasing clock: an edge's interval
        // `[MAX, MAX + 10)` saturates to empty, so each insert expires at
        // the next event instead of living forever.
        let mut window = crate::SlidingWindow::new(crate::WindowSpec::Time { width: 10 });
        let mut ops = Vec::new();
        got.iter().for_each(|ev| window.push(ev, &mut ops));
        let deletes = ops.iter().filter(|op| matches!(op, UpdateOp::DeleteEdge { .. })).count();
        assert_eq!((deletes, window.expired_count(), window.live_len()), (3, 3, 1));
    }

    #[test]
    fn a_vertex_id_far_past_the_known_ones_is_refused() {
        const GAP: u32 = MAX_VERTEX_GAP;
        let strict = |text: &str, known: usize| {
            let mut it = LabelInterner::new();
            let mut src = FileSource::new(text.as_bytes(), &mut it, ErrorMode::Strict)
                .with_vertex_count(known);
            collect_events(&mut src)
        };
        // Exactly the gap past the highest known id (2) passes, one more
        // does not; with no vertex known the first id may be GAP - 1.
        assert_eq!(strict(&format!("+ 0 {} a\n", 2 + GAP), 3).unwrap().len(), 1);
        assert_eq!(strict(&format!("v {} A\n", GAP - 1), 0).unwrap().len(), 1);
        for (text, known) in [
            (format!("+ 0 1 a\n+ {} 0 a\n", 3 + GAP), 3),
            (format!("+ 0 1 a\nv {} A B\n", 3 + GAP), 3),
            (format!("# nothing known yet\n+ 0 {GAP} a\n"), 0),
        ] {
            let err = strict(&text, known).unwrap_err();
            assert_eq!(err.line, 2, "{text}");
            assert!(err.message.contains("past the highest known id"), "{err}");
        }
        let err = strict("+ 0 300000000 knows\n", 3).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: vertex id 300000000 is more than 1048576 past the highest known id (2)"
        );
        assert!(strict("v 4294967295\n", 0).unwrap_err().message.ends_with("(none)"));

        // Accepted ids move the base: in steps of the gap a stream reaches
        // any id, and ids below the highest arrive in any order.
        let text = format!("v {}\n+ {} 5 a\n+ 7 3 a\nv 0 A\n", GAP - 1, 2 * GAP - 1);
        assert_eq!(strict(&text, 0).unwrap().len(), 4);
        // A delete creates nothing, whatever it names, and moves nothing.
        let text = format!("- 0 4000000000 a\n+ 0 {GAP} a\n");
        assert_eq!(strict(&text, 0).unwrap_err().line, 2);

        // Lenient: the line is skipped with a diagnostic, the next one is
        // measured from the same base, the clock does not tick.
        let text = format!("+ 0 1 a\n+ 0 {} a\nv 300000000\n+ 1 {} a\n", 2 + GAP, 1 + GAP);
        let (got, diags) = parse_all(&text, ErrorMode::Lenient);
        let got = got.unwrap();
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn demo_stream_format_parses_unchanged() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../testdata/demo_stream.txt"
        ))
        .expect("testdata present");
        let (got, diags) = parse_all(&text, ErrorMode::Strict);
        let got = got.unwrap();
        assert!(diags.is_empty());
        assert_eq!(got.len(), 6);
        assert_eq!(got.iter().map(|e| e.ts).collect::<Vec<_>>(), (0..6).collect::<Vec<u64>>());
        assert_eq!(got.iter().filter(|e| e.op.is_insert()).count(), 4);
        assert_eq!(got.iter().filter(|e| e.op.is_delete()).count(), 1);
    }

    #[test]
    fn labels_intern_through_the_shared_interner() {
        let mut it = LabelInterner::new();
        let knows = it.intern("knows");
        let mut src = FileSource::new("+ 0 1 knows\n".as_bytes(), &mut it, ErrorMode::Strict);
        let ev = src.next_event().unwrap().unwrap();
        match ev.op {
            UpdateOp::InsertEdge { label, .. } => assert_eq!(label, knows),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(it.get("knows"), Some(LabelId(0)));
    }

    /// A stream line naming a label past the interner's limit is a line
    /// error: strict mode stops at it, lenient mode skips it with a
    /// diagnostic and reads on.
    #[test]
    fn a_label_past_the_interner_limit_is_a_line_error() {
        let text = "+ 0 1 a\n+ 1 2 b\nv 3 c\n- 0 1 a\n";
        let mut it = LabelInterner::with_limit(1);
        let mut src = FileSource::new(text.as_bytes(), &mut it, ErrorMode::Strict);
        let err = collect_events(&mut src).unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "more than 1 distinct labels"));
        let mut it = LabelInterner::with_limit(1);
        let mut src = FileSource::new(text.as_bytes(), &mut it, ErrorMode::Lenient);
        let got = collect_events(&mut src).unwrap();
        assert_eq!(src.diagnostics().iter().map(|d| d.line).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(got.len(), 2, "the `a` lines pass");
        assert_eq!((it.len(), it.get("b")), (1, None));
    }
}
