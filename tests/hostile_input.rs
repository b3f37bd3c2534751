//! Hostile input: a Pcg32 byte-level fuzz loop over the three text parsers a
//! `tfx` run reads — `FileSource` (strict and lenient), `parser::parse_query`
//! and `parser::parse_data_graph` — fed splices of `testdata/*.txt` lines,
//! byte flips, truncations, huge ids and a `u64::MAX` clock. Every input must
//! end in `Ok` or `Err`, never a panic. An accepted stream never names a
//! vertex more than `MAX_VERTEX_GAP` past the highest one known, and runs
//! through a windowed driver into an engine, as `tfx stream` would run it; an
//! accepted query that `tfx` would register is registered. Inputs are also
//! respelled as a hand-edited file might be: CRLF line ends, tabs, `+`-signed
//! and zero-padded ids, NUL bytes, non-UTF-8 bytes in comments and labels.
//!
//! The parsers read bytes through one tokenizer (`parser::Tokens`). A
//! `str`-based reference kept here, [`reference_raw`], is what they did
//! before; on every ASCII input both must give the same graph, query and
//! interned labels, or the same error on the same line.
//!
//! The `tfx` binary itself is run under hostile `tfx stream` flags:
//! [`hostile_tfx_stream_flags_end_in_a_run_or_an_error`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use turboflux::datagen::Pcg32;
use turboflux::graph::EdgeRef;
use turboflux::prelude::*;
use turboflux::query::parser::{parse_data_graph, parse_query};
use turboflux::query::QEdge;
use turboflux::stream::source::{collect_events, MAX_VERTEX_GAP};
use turboflux::stream::{ErrorMode, FileSource, VecSource};

/// Every `testdata/*.txt` file, as lines.
fn corpus() -> Vec<Vec<String>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata");
    let mut files: Vec<_> =
        std::fs::read_dir(dir).expect("testdata").map(|e| e.unwrap().path()).collect();
    files.sort();
    let read = |path| std::fs::read_to_string(path).expect("text");
    files.into_iter().map(|path| read(path).lines().map(str::to_owned).collect()).collect()
}

const HOSTILE_TOKENS: [&str; 12] = [
    "4294967295",
    "4294967296",
    "1048576",
    "1048583",
    "300000000",
    "18446744073709551615",
    "-1",
    "@18446744073709551615",
    "@18446744073709551616",
    "@0",
    "#",
    "",
];

/// One hostile input: a `testdata` file under zero to four mutations — a
/// line spliced in from any file, a token swapped for a huge id or clock, a
/// `u64::MAX` clock prefixed, a byte flipped, a truncation.
fn hostile(rng: &mut Pcg32, corpus: &[Vec<String>]) -> Vec<u8> {
    let mut lines = rng.pick(corpus).clone();
    for _ in 0..rng.below(5) {
        let at = rng.below(lines.len() + 1);
        match rng.below(5) {
            0 => {
                let file = rng.pick(corpus);
                lines.insert(at, rng.pick(file).clone());
            }
            1 | 2 if at < lines.len() => {
                let mut tokens: Vec<&str> = lines[at].split(' ').collect();
                let i = rng.below(tokens.len());
                tokens[i] = *rng.pick(&HOSTILE_TOKENS);
                lines[at] = tokens.join(" ");
            }
            3 if at < lines.len() => lines[at].insert_str(0, "@18446744073709551615 "),
            _ => lines.truncate(at),
        }
    }
    let mut bytes = lines.join("\n").into_bytes();
    if !bytes.is_empty() && rng.below(3) == 0 {
        let at = rng.below(bytes.len());
        bytes[at] = *rng.pick(b" \n@#-+ve0129\xff\xc3");
    }
    if rng.below(6) == 0 {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    if rng.below(3) == 0 {
        bytes = respell(rng, &bytes);
    }
    bytes
}

/// What [`respell`] puts before an id, and at the end of a line.
const ID_PREFIXES: [&[u8]; 2] = [b"+", b"0000000000"];
const LINE_ENDS: [&[u8]; 5] = [b"\x00", b" \x00", b" # caf\xe9", b" caf\xe9", b"\t#\xff"];

/// `bytes` spelled as a hand-edited file might spell it: some line ends
/// CRLF, some spaces a tab, `\x0B` or `\x0C`, some ids `+`-signed or
/// zero-padded past ten digits, and now and then a NUL byte, or a comment
/// or a label that is not UTF-8.
fn respell(rng: &mut Pcg32, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * bytes.len());
    let mut token_start = true;
    for &b in bytes {
        match b {
            b'\n' if rng.below(3) == 0 => out.extend_from_slice(b"\r\n"),
            b' ' => out.push(*rng.pick(b"   \t\x0b\x0c")),
            b'0'..=b'9' if token_start && rng.below(4) == 0 => {
                let prefix = *rng.pick(&ID_PREFIXES);
                out.extend_from_slice(prefix);
                out.push(b);
            }
            _ => out.push(b),
        }
        token_start = b.is_ascii_whitespace();
    }
    let line_end =
        |out: &[u8], at: usize| at + out[at..].iter().take_while(|&&b| b != b'\n').count();
    for _ in 0..rng.below(3) {
        let at = line_end(&out, rng.below(out.len() + 1));
        out.splice(at..at, rng.pick(&LINE_ENDS).iter().copied());
    }
    out
}

/// The demo graph and query, interned into one label space.
fn demo() -> (LabelInterner, DynamicGraph, QueryGraph) {
    let read =
        |f: &str| std::fs::read_to_string(format!("{}/testdata/{f}", env!("CARGO_MANIFEST_DIR")));
    let mut interner = LabelInterner::new();
    let g0 = parse_data_graph(&read("demo_graph.txt").unwrap(), &mut interner).unwrap();
    let q = parse_query(&read("demo_query.txt").unwrap(), &mut interner).unwrap();
    (interner, g0, q)
}

/// Streams `input` as `tfx stream` would: every accepted event within the
/// vertex gap, and the accepted stream through a time (strict) or count
/// (lenient) window into an engine whose graph ends no larger than the
/// highest accepted id allows.
fn stream(input: &[u8], mode: ErrorMode) -> bool {
    let (mut interner, g0, q) = demo();
    let known0 = g0.vertex_count();
    let mut source = FileSource::new(input, &mut interner, mode).with_vertex_count(known0);
    let Ok(events) = collect_events(&mut source) else { return false };
    let mut known = known0 as u64;
    for ev in &events {
        let top = match ev.op {
            UpdateOp::AddVertex { id, .. } => id,
            UpdateOp::InsertEdge { src, dst, .. } => src.max(dst),
            UpdateOp::DeleteEdge { .. } => continue,
        };
        assert!(u64::from(top.0) < known + u64::from(MAX_VERTEX_GAP), "{ev:?} past the gap");
        known = known.max(u64::from(top.0) + 1);
    }
    if known > known0 as u64 + 4096 {
        return false; // a million-vertex table is legal, and not what this loop times
    }
    let mut engine = TurboFlux::new(q, g0, TurboFluxConfig::default());
    let policy = BatchPolicy { max_ops: 3, max_ticks: Some(2), drain_at_end: true };
    let window = match mode {
        ErrorMode::Strict => WindowSpec::Time { width: 3 },
        ErrorMode::Lenient => WindowSpec::Count { capacity: 4 },
    };
    let mut driver = StreamDriver::new(SlidingWindow::new(window), policy);
    let mut sink = CountingSink::default();
    driver.run(&mut VecSource::new(events.clone()), &mut engine, &mut sink).expect("a vec source");
    assert!(engine.graph().vertex_count() as u64 <= known, "the vertex table outgrew the stream");
    !events.is_empty()
}

/// Parses `input` as a query and as a data graph and registers the query as
/// `tfx` would (connected, an edge, at most 64 vertices) on the parsed graph
/// and on the demo graph, under one semantics or the other; then deletes
/// every edge of the graph and inserts it again.
fn graph_files(input: &[u8]) -> bool {
    let text = String::from_utf8_lossy(input);
    let (mut interner, demo_graph, _) = demo();
    let g = parse_data_graph(&text, &mut interner).ok();
    let Ok(q) = parse_query(&text, &mut interner) else { return false };
    if q.edge_count() == 0 || !q.is_connected() || q.vertex_count() > 64 {
        return false;
    }
    let semantics = [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism][input.len() % 2];
    for g in g.into_iter().chain([demo_graph]) {
        let edges: Vec<_> = g.edges().collect();
        let cfg = TurboFluxConfig::with_semantics(semantics);
        let mut engine = TurboFlux::new(q.clone(), g, cfg);
        engine.report_initial(&mut |_| {});
        let delete =
            edges.iter().map(|e| UpdateOp::DeleteEdge { src: e.src, label: e.label, dst: e.dst });
        let insert =
            edges.iter().map(|e| UpdateOp::InsertEdge { src: e.src, label: e.label, dst: e.dst });
        let ops: Vec<_> = delete.chain(insert).collect();
        engine.apply_batch(&ops, &mut |_, _, _| {});
    }
    true
}

/// Runs `check` on `input`, naming the input if it panics.
fn survives(name: &str, input: &[u8], check: fn(&[u8]) -> bool) -> usize {
    match catch_unwind(AssertUnwindSafe(|| check(input))) {
        Ok(went_deep) => usize::from(went_deep),
        Err(_) => panic!("{name} panicked on {:?}", String::from_utf8_lossy(input)),
    }
}

#[test]
fn hostile_bytes_end_in_ok_or_err() {
    let corpus = corpus();
    let mut rng = Pcg32::new(0xF022);
    let mut deep = [0; 3];
    for _ in 0..20_000 {
        let input = hostile(&mut rng, &corpus);
        deep[0] += survives("a strict stream", &input, |i| stream(i, ErrorMode::Strict));
        deep[1] += survives("a lenient stream", &input, |i| stream(i, ErrorMode::Lenient));
        deep[2] += survives("a query or graph file", &input, graph_files);
    }
    // Inputs that got past the parser into an engine: strict streams,
    // lenient streams, queries registered.
    assert!(deep.iter().all(|&n| n > 2_000), "too few inputs reached an engine: {deep:?}");
}

/// `tfx stream` under hostile flags: every flag that takes a value, with the
/// value missing, empty, `0`, `-1`, `u64::MAX`, `2^64` or junk (and a time
/// and a count window of each), and `--shards`, a flag it no longer has. A
/// value the flag takes runs the stream to its end; every other one is
/// refused with exit 1 or 2 and an `error:` line (exit 2 and a message of
/// its own for `--shards` and an overflowing clock rate). Nothing panics,
/// and no run takes more than seconds. `--ticks-per-event
/// 18446744073709551615` used to wrap the synthetic clock (release) or
/// panic on the add (debug).
#[test]
fn hostile_tfx_stream_flags_end_in_a_run_or_an_error() {
    use std::process::Command;
    use std::time::{Duration, Instant};
    let data = |f: &str| format!("{}/testdata/{f}", env!("CARGO_MANIFEST_DIR"));
    let [netflow, query, graph, ops] =
        ["netflow_query.txt", "demo_query.txt", "demo_graph.txt", "demo_stream.txt"].map(data);
    let synthetic = ["--query", &netflow, "--synthetic", "netflow", "--window", "count:1000"];
    let file = ["--query", &query, "--graph", &graph, "--file", &ops];
    let max = u64::MAX.to_string();
    let values = ["", "0", "-1", &max, "18446744073709551616", "junk"];
    let flags = "--query --graph --file --synthetic --window --batch-ops --batch-ticks --seed";
    let flags = flags.split(' ').chain(["--ticks-per-event"]);

    let mut cases: Vec<(&[&str], Vec<String>)> = Vec::new();
    for flag in flags {
        let base = if matches!(flag, "--graph" | "--file") { &file[..] } else { &synthetic[..] };
        cases.push((base, vec![flag.into()]));
        cases.extend(values.iter().map(|&v| (base, vec![flag.into(), v.into()])));
    }
    for v in values {
        let windows = [format!("time:{v}"), format!("count:{v}")];
        cases.extend(windows.map(|w| (&synthetic[..], vec!["--window".into(), w])));
    }
    cases.push((&synthetic, vec!["--shards".into(), "2".into()]));
    let m = max.as_str();
    // The values a flag takes.
    let takes = |extra: &[&str]| match *extra {
        ["--batch-ops" | "--batch-ticks" | "--seed", v] => v == m || extra == ["--seed", "0"],
        ["--ticks-per-event", v] => v == "0",
        ["--window", w] => w == format!("time:{m}") || w == format!("count:{m}"),
        _ => false,
    };

    let mut ran = 0;
    for (base, extra) in &cases {
        let extra: Vec<&str> = extra.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_tfx"))
            .arg("stream")
            .args(*base)
            .arg("--quiet")
            .args(&extra)
            .output()
            .expect("run tfx");
        let (took, stderr) = (t0.elapsed(), String::from_utf8_lossy(&out.stderr));
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(took < Duration::from_secs(30), "{extra:?} took {took:?}");
        if takes(&extra) {
            assert_eq!(out.status.code(), Some(0), "{extra:?}: {stderr}");
            assert!(stderr.contains("processed 4000 events"), "{extra:?}: {stderr}");
            ran += 1;
            continue;
        }
        // The two refusals this test was written for, by name.
        let (codes, want): (&[i32], &str) = match extra[..] {
            ["--shards", _] => (&[2], "unknown stream flag `--shards`"),
            ["--ticks-per-event", v] if v == m => (&[2], "error: --ticks-per-event"),
            _ => (&[1, 2], "error:"),
        };
        assert!(out.status.code().is_some_and(|c| codes.contains(&c)), "{extra:?}: {stderr}");
        assert!(stderr.contains(want), "{extra:?}: {stderr}");
    }
    assert_eq!(ran, 7, "every accepted value ran");
}

/// Label sets by id and `(src, dst, label, line)` edges, or `(line, message)`.
type Raw = (Vec<LabelSet>, Vec<(u32, u32, Option<LabelId>, usize)>);

/// The parsers' common pass as it was before the byte tokenizer: `lines`,
/// `split('#')`, `split_whitespace` and `str::parse`, then the whole-file
/// checks in their order.
fn reference_raw(text: &str, it: &mut LabelInterner) -> Result<Raw, (usize, String)> {
    let (mut vertices, mut edges) = (Vec::new(), Vec::new());
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let mut parts = raw.split('#').next().unwrap_or("").split_whitespace();
        let id = |s: Option<&str>, missing: &str, bad: &str| match s {
            None => Err((line, missing.to_owned())),
            Some(s) => s.parse::<u32>().map_err(|_| (line, bad.to_owned())),
        };
        match parts.next() {
            None => {}
            Some("v") => {
                let id = id(parts.next(), "v needs an id", "v id must be an integer")?;
                vertices.push((id, line, parts.map(|s| it.intern(s)).collect::<LabelSet>()));
            }
            Some("e") => {
                let s = id(parts.next(), "e needs a source id", "e source must be an integer")?;
                let bad = "e destination must be an integer";
                let d = id(parts.next(), "e needs a destination id", bad)?;
                let label = parts.next().map(|s| it.intern(s));
                if parts.next().is_some() {
                    return Err((line, "trailing tokens after edge".to_owned()));
                }
                edges.push((s, d, label, line));
            }
            Some(other) => return Err((line, format!("unknown directive `{other}`"))),
        }
    }
    vertices.sort_by_key(|v| v.0);
    if let Some(w) = vertices.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err((w[1].1, format!("vertex {} declared twice", w[1].0)));
    }
    if let Some(i) = (0..vertices.len()).find(|&i| vertices[i].0 as usize != i) {
        return Err((0, format!("vertex ids must be dense 0..n, missing {i}")));
    }
    let n = vertices.len() as u32;
    if let Some(&(s, d, ..)) = edges.iter().find(|e| e.0 >= n || e.1 >= n) {
        return Err((0, format!("edge ({s},{d}) references undeclared vertex")));
    }
    Ok((vertices.into_iter().map(|v| v.2).collect(), edges))
}

/// Every interned label, in id order.
fn names(it: &LabelInterner) -> Vec<String> {
    (0..it.len() as u32).map(|i| it.name(LabelId(i)).unwrap_or("?").to_owned()).collect()
}

/// Parses `text` as a data graph and as a query, and with [`reference_raw`]
/// as the parsers did before; both must agree on the outcome, the error's
/// line and message, and every label interned on the way. True if `text`
/// is a graph.
fn parity(text: &str) -> bool {
    let (mut new, mut old) = (LabelInterner::new(), LabelInterner::new());
    let got = parse_data_graph(text, &mut new).map_err(|e| (e.line, e.message)).map(|g| {
        let labels = g.vertices().map(|v| g.labels(v).clone()).collect::<Vec<_>>();
        (labels, g.edges().collect::<Vec<_>>())
    });
    let want = reference_raw(text, &mut old).map(|(labels, edges)| {
        let mut edges: Vec<EdgeRef> = (edges.iter())
            .map(|&(s, d, l, _)| {
                EdgeRef::new(VertexId(s), l.unwrap_or_else(|| old.intern("_")), VertexId(d))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        (labels, edges)
    });
    assert_eq!(got, want, "parse_data_graph on {text:?}");
    assert_eq!(names(&new), names(&old), "labels interned by parse_data_graph on {text:?}");
    let graph = got.is_ok();

    let (mut new, mut old) = (LabelInterner::new(), LabelInterner::new());
    let got = parse_query(text, &mut new).map_err(|e| (e.line, e.message)).map(|q| {
        let labels = q.vertices().map(|u| q.labels(u).clone()).collect::<Vec<_>>();
        (labels, q.edges().to_vec())
    });
    let want = reference_raw(text, &mut old).and_then(|(labels, edges)| {
        for (i, &(s, d, l, line)) in edges.iter().enumerate() {
            if edges[..i].iter().any(|e| (e.0, e.1, e.2) == (s, d, l)) {
                let label = l.map_or("*", |l| old.name(l).unwrap_or("?"));
                return Err((line, format!("edge ({s}, {d}, {label}) declared twice")));
            }
        }
        let edge = |&(s, d, label, _): &(u32, u32, _, _)| QEdge {
            src: QVertexId(s),
            dst: QVertexId(d),
            label,
        };
        Ok((labels, edges.iter().map(edge).collect::<Vec<_>>()))
    });
    assert_eq!(got, want, "parse_query on {text:?}");
    assert_eq!(names(&new), names(&old), "labels interned by parse_query on {text:?}");
    graph
}

#[test]
fn the_byte_tokenizer_parses_as_the_str_pipeline_did() {
    const SPELLINGS: [&str; 24] = [
        "v 0 A\r\nv 1 B\r\ne 0 1 x\r\n",
        "v\t0\tA\nv 1\x0bB\x0cC\ne\t0 1\tx\t# tab\n",
        "v +0 A\nv 1 B\ne +0 +1 x\n",
        "v 00000000000 A\nv 00000000001 B\ne 0 00000000001 x\n",
        "v 0\nv 4294967296\n",
        "v 0\nv 4294967295\n",
        "v 0 A\x00B\nv 1\ne 0 1 \x00\n",
        "v 0\x1fA\n",
        "v 0 A\re 0 0 x\n",
        "v 0 A\ne 0 0 x y\n",
        "v 0\nv 0\n",
        "v 1\n",
        "v 0\ne 0 1\n",
        "v 0\n+ 0 0 x\n",
        "e\n",
        "v 0\ne 0\n",
        "v 0\ne x 0\n",
        "v\n",
        "v -1\n",
        "v +\n",
        "v 0 #\ne 0 0#x\n",
        "# only\n\n \t\r\n",
        "",
        "v 1 B\nv 0 A\ne 1 0\ne 0 1 _\ne 1 0\n",
    ];
    let graphs = SPELLINGS.iter().filter(|text| parity(text)).count();
    assert_eq!(graphs, 10, "accepted spellings");

    let corpus = corpus();
    let mut rng = Pcg32::new(0x7E57);
    let (mut ascii, mut graphs) = (0, 0);
    for _ in 0..20_000 {
        let input = hostile(&mut rng, &corpus);
        let Ok(text) = std::str::from_utf8(&input) else { continue };
        if text.is_ascii() {
            ascii += 1;
            graphs += usize::from(parity(text));
        }
    }
    assert!(ascii > 10_000 && graphs > 2_000, "{ascii} ASCII inputs, {graphs} graphs");
}
