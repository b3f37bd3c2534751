//! Hostile input: a Pcg32 byte-level fuzz loop over the three text parsers a
//! `tfx` run reads — `FileSource` (strict and lenient), `parser::parse_query`
//! and `parser::parse_data_graph` — fed splices of `testdata/*.txt` lines,
//! byte flips, truncations, huge ids and a `u64::MAX` clock. Every input must
//! end in `Ok` or `Err`, never a panic. An accepted stream never names a
//! vertex more than `MAX_VERTEX_GAP` past the highest one known, and runs
//! through a windowed driver into an engine, as `tfx stream` would run it; an
//! accepted query that `tfx` would register is registered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use turboflux::datagen::Pcg32;
use turboflux::prelude::*;
use turboflux::query::parser::{parse_data_graph, parse_query};
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
    bytes
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
