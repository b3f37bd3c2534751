//! `tfx` — command-line continuous subgraph matching.
//!
//! Two modes:
//!
//! **Run mode** (the original interface). Loads an initial data graph and a
//! query (both in the text format of `tfx_query::parser`), registers the
//! query, then streams update operations from a file (or stdin) and prints
//! every positive / negative match as it appears:
//!
//! ```sh
//! tfx <graph.txt> <query.txt> [--stream <ops.txt>] [--iso] [--quiet]
//! ```
//!
//! **Stream mode** (`tfx stream`). Full ingestion pipeline: a timestamped
//! source (text file or built-in synthetic generator), an optional sliding
//! window that expires old edges, a batching driver, and JSONL delta/stats
//! output on stdout:
//!
//! ```sh
//! tfx stream --query <q.txt> --file <ops.txt> --graph <g.txt> --window time:100
//! tfx stream --query <q.txt> --synthetic netflow --window count:1000 --iso
//! ```
//!
//! Both modes share one stream text format (see `tfx_stream::source`):
//!
//! ```text
//! v 7 User            # vertex 7 arrives with label User
//! + 3 7 knows         # insert edge 3 -knows-> 7
//! - 3 7 knows         # delete it again
//! @120 + 3 8 knows    # the same, at explicit stream time 120
//! ```

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use turboflux::prelude::*;
use turboflux::query::parser;
use turboflux::stream::{
    BatchPolicy, BatchTarget, CountingSink, ErrorMode, FileSource, JsonlSink, SlidingWindow,
    StreamDriver, StreamSource, SyntheticKind, SyntheticSource, WindowSpec,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("stream") {
        stream_main(&args[1..])
    } else {
        run_main(&args)
    }
}

// ---------------------------------------------------------------------------
// Run mode (original interface)
// ---------------------------------------------------------------------------

fn usage(code: u8) -> ExitCode {
    eprintln!("usage: tfx <graph.txt> <query.txt> [--stream <ops.txt>|-] [--iso] [--quiet]");
    eprintln!("       tfx stream --help");
    ExitCode::from(code)
}

struct Options {
    graph_path: String,
    query_path: String,
    stream_path: Option<String>,
    semantics: MatchSemantics,
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Options, ExitCode> {
    let mut args = args.iter();
    let mut positional = Vec::new();
    let mut stream_path = None;
    let mut semantics = MatchSemantics::Homomorphism;
    let mut quiet = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stream" => {
                let Some(p) = args.next() else {
                    eprintln!("error: --stream requires a path (or - for stdin)");
                    return Err(usage(2));
                };
                stream_path = Some(p.clone());
            }
            "--iso" => semantics = MatchSemantics::Isomorphism,
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(usage(0)),
            other if other.starts_with('-') && other != "-" => {
                eprintln!("error: unknown flag `{other}`");
                return Err(usage(2));
            }
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() != 2 {
        return Err(usage(2));
    }
    let mut it = positional.into_iter();
    Ok(Options {
        graph_path: it.next().expect("checked length"),
        query_path: it.next().expect("checked length"),
        stream_path,
        semantics,
        quiet,
    })
}

/// Standard output with a latch: the first write error is kept and ends the
/// output, so a full disk or a closed pipe is reported (`error: writing
/// output`, exit 1) instead of panicking in `println!` or being dropped.
struct Out<W: Write> {
    w: W,
    err: Option<std::io::Error>,
}

impl<W: Write> Out<W> {
    fn new(w: W) -> Self {
        Out { w, err: None }
    }

    /// Writes `line` (which brings its own newline) unless a write failed
    /// before.
    fn line(&mut self, line: std::fmt::Arguments<'_>) {
        if self.err.is_none() {
            self.err = self.w.write_fmt(line).err();
        }
    }

    /// Flushes; `Err` with the exit code if this or any earlier write failed.
    fn finish(mut self) -> Result<(), ExitCode> {
        let flushed = self.w.flush();
        match self.err.or(flushed.err()) {
            None => Ok(()),
            Some(e) => {
                eprintln!("error: writing output: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    }
}

/// Opens a path (or stdin for `-`) as a buffered reader.
fn open_reader(path: &str) -> Result<Box<dyn BufRead>, ExitCode> {
    if path == "-" {
        return Ok(Box::new(BufReader::new(std::io::stdin())));
    }
    match std::fs::File::open(path) {
        Ok(f) => Ok(Box::new(BufReader::new(f))),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn load_query(path: &str, interner: &mut LabelInterner) -> Result<QueryGraph, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let q = match parser::parse_query(&text, interner) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if q.edge_count() == 0 || !q.is_connected() {
        eprintln!("error: the query must be connected and have at least one edge ({path})");
        return Err(ExitCode::FAILURE);
    }
    if q.vertex_count() > 64 {
        eprintln!("error: queries are limited to 64 vertices, {path} has {}", q.vertex_count());
        return Err(ExitCode::FAILURE);
    }
    Ok(q)
}

fn load_graph(path: &str, interner: &mut LabelInterner) -> Result<DynamicGraph, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match parser::parse_data_graph(&text, interner) {
        Ok(g) => Ok(g),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn run_main(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let mut interner = LabelInterner::new();
    let g0 = match load_graph(&opts.graph_path, &mut interner) {
        Ok(g) => g,
        Err(code) => return code,
    };
    let q = match load_query(&opts.query_path, &mut interner) {
        Ok(q) => q,
        Err(code) => return code,
    };

    eprintln!(
        "graph: {} vertices, {} edges; query: {} vertices, {} edges ({:?})",
        g0.vertex_count(),
        g0.edge_count(),
        q.vertex_count(),
        q.edge_count(),
        opts.semantics,
    );
    let g0_vertices = g0.vertex_count();
    let mut engine = TurboFlux::new(q, g0, TurboFluxConfig::with_semantics(opts.semantics));

    let quiet = opts.quiet;
    // Line-buffered, as `println!` is: a match is printed as it appears.
    let mut out = Out::new(std::io::stdout().lock());
    let mut initial = 0u64;
    engine.initial_matches(&mut |m| {
        initial += 1;
        if !quiet {
            out.line(format_args!("= {m:?}\n"));
        }
    });
    eprintln!("{initial} initial matches; DCG {}", dcg_shape(&engine.dcg()));

    let Some(stream_path) = opts.stream_path else {
        return match out.finish() {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        };
    };
    let reader = match open_reader(&stream_path) {
        Ok(r) => r,
        Err(code) => return code,
    };

    let (mut pos, mut neg, mut ops) = (0u64, 0u64, 0u64);
    let started = std::time::Instant::now();
    let mut source =
        FileSource::new(reader, &mut interner, ErrorMode::Strict).with_vertex_count(g0_vertices);
    // Nobody is left to read what a failed output would be told.
    while out.err.is_none() {
        let ev = match source.next_event() {
            Ok(None) => break,
            Ok(Some(ev)) => ev,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        ops += 1;
        engine.apply(&ev.op, &mut |p, m| {
            match p {
                Positiveness::Positive => pos += 1,
                Positiveness::Negative => neg += 1,
            }
            if !quiet {
                let sign = if p == Positiveness::Positive { '+' } else { '-' };
                out.line(format_args!("{sign} {m:?}\n"));
            }
        });
    }
    if let Err(code) = out.finish() {
        return code;
    }
    eprintln!(
        "processed {ops} ops in {:.2?}: {pos} positive, {neg} negative matches; DCG {}; graph {}",
        started.elapsed(),
        dcg_shape(&engine.dcg()),
        graph_shape(engine.graph()),
    );
    ExitCode::SUCCESS
}

/// How big and how explicit the DCG is: its edges, the data vertices each
/// query vertex reaches and how many of them are matched, and its bytes.
fn dcg_shape(dcg: &turboflux::core::Dcg) -> String {
    let s = dcg.storage_stats();
    let per_vertex: Vec<String> =
        s.reached.iter().zip(&s.explicit).map(|(r, e)| format!("{r}/{e}")).collect();
    format!(
        "{} edges ({} explicit, {} implicit; reached/explicit per query vertex {}), {} bytes",
        s.stored_edges,
        s.explicit_edges,
        s.stored_edges - s.explicit_edges,
        per_vertex.join(" "),
        s.resident_bytes,
    )
}

/// How big the data graph is and how its storage is laid out: vertices,
/// edges, distinct vertex label sets, runs per layout, and its bytes.
fn graph_shape(g: &DynamicGraph) -> String {
    let s = g.storage_stats();
    format!(
        "{} vertices, {} edges, {} label sets; runs {} inline / {} flat / {} directory; {} bytes",
        g.vertex_count(),
        g.edge_count(),
        s.label_sets,
        s.inline_runs,
        s.flat_runs,
        s.directory_runs,
        g.resident_bytes(),
    )
}

// ---------------------------------------------------------------------------
// Stream mode
// ---------------------------------------------------------------------------

fn stream_usage(code: u8) -> ExitCode {
    eprintln!(
        "usage: tfx stream --query <q.txt> [--query <q2.txt> ...]
                  (--file <ops.txt>|- | --synthetic uniform|hub|lsbench|netflow)
                  [--graph <g.txt>]          initial graph (file source only)
                  [--window time:<W>|count:<N>|none]   sliding window (default none)
                  [--batch-ops <N>]          flush batches at N ops (default 256)
                  [--batch-ticks <T>]        flush batches every T stream ticks
                  [--drain]                  expire the whole window at end of stream
                  [--iso]                    isomorphism semantics (default homomorphism)
                  [--lenient]                skip malformed stream lines (default strict)
                  [--seed <S>]               synthetic generator seed (default 2018)
                  [--ticks-per-event <T>]    synthetic clock rate (default 1)
                  [--quiet]                  suppress JSONL deltas, keep counts

Emits JSONL on stdout: delta lines, per-batch stats lines, one summary line."
    );
    ExitCode::from(code)
}

struct StreamOptions {
    query_paths: Vec<String>,
    graph_path: Option<String>,
    file: Option<String>,
    synthetic: Option<SyntheticKind>,
    window: WindowSpec,
    batch_ops: usize,
    batch_ticks: Option<u64>,
    drain: bool,
    semantics: MatchSemantics,
    mode: ErrorMode,
    seed: u64,
    ticks_per_event: u64,
    quiet: bool,
}

fn parse_stream_args(args: &[String]) -> Result<StreamOptions, ExitCode> {
    let mut o = StreamOptions {
        query_paths: Vec::new(),
        graph_path: None,
        file: None,
        synthetic: None,
        window: WindowSpec::Unbounded,
        batch_ops: 256,
        batch_ticks: None,
        drain: false,
        semantics: MatchSemantics::Homomorphism,
        mode: ErrorMode::Strict,
        seed: 2018,
        ticks_per_event: 1,
        quiet: false,
    };
    let mut args = args.iter();
    let value = |args: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, ExitCode> {
        args.next().cloned().ok_or_else(|| {
            eprintln!("error: {flag} requires a value");
            stream_usage(2)
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--query" => o.query_paths.push(value(&mut args, "--query")?),
            "--graph" => o.graph_path = Some(value(&mut args, "--graph")?),
            "--file" => o.file = Some(value(&mut args, "--file")?),
            "--synthetic" => {
                let v = value(&mut args, "--synthetic")?;
                let Some(kind) = SyntheticKind::parse(&v) else {
                    eprintln!("error: unknown synthetic kind `{v}` (uniform|hub|lsbench|netflow)");
                    return Err(stream_usage(2));
                };
                o.synthetic = Some(kind);
            }
            "--window" => {
                let v = value(&mut args, "--window")?;
                let Some(spec) = WindowSpec::parse(&v) else {
                    eprintln!("error: bad window `{v}` (time:<width>|count:<capacity>|none)");
                    return Err(stream_usage(2));
                };
                o.window = spec;
            }
            "--batch-ops" => {
                let v = value(&mut args, "--batch-ops")?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => o.batch_ops = n,
                    _ => {
                        eprintln!("error: --batch-ops needs an integer >= 1");
                        return Err(stream_usage(2));
                    }
                }
            }
            "--batch-ticks" => {
                let v = value(&mut args, "--batch-ticks")?;
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 => o.batch_ticks = Some(n),
                    _ => {
                        eprintln!("error: --batch-ticks needs an integer >= 1");
                        return Err(stream_usage(2));
                    }
                }
            }
            "--drain" => o.drain = true,
            "--iso" => o.semantics = MatchSemantics::Isomorphism,
            "--lenient" => o.mode = ErrorMode::Lenient,
            "--seed" => {
                let v = value(&mut args, "--seed")?;
                match v.parse::<u64>() {
                    Ok(n) => o.seed = n,
                    _ => {
                        eprintln!("error: --seed needs an integer");
                        return Err(stream_usage(2));
                    }
                }
            }
            "--ticks-per-event" => {
                let v = value(&mut args, "--ticks-per-event")?;
                match v.parse::<u64>() {
                    Ok(n) => o.ticks_per_event = n,
                    _ => {
                        eprintln!("error: --ticks-per-event needs an integer");
                        return Err(stream_usage(2));
                    }
                }
            }
            "--quiet" => o.quiet = true,
            "--help" | "-h" => return Err(stream_usage(0)),
            other => {
                eprintln!("error: unknown stream flag `{other}`");
                return Err(stream_usage(2));
            }
        }
    }
    if o.query_paths.is_empty() {
        eprintln!("error: at least one --query is required");
        return Err(stream_usage(2));
    }
    match (&o.file, &o.synthetic) {
        (Some(_), Some(_)) => {
            eprintln!("error: --file and --synthetic are mutually exclusive");
            Err(stream_usage(2))
        }
        (None, None) => {
            eprintln!("error: one of --file or --synthetic is required");
            Err(stream_usage(2))
        }
        _ => Ok(o),
    }
}

fn stream_main(args: &[String]) -> ExitCode {
    let opts = match parse_stream_args(args) {
        Ok(o) => o,
        Err(code) => return code,
    };

    // Interner + initial graph + (for synthetic mode) the generated stream.
    let mut interner;
    let g0;
    let mut synthetic_source = None;
    if let Some(kind) = opts.synthetic {
        let (dataset, source) = SyntheticSource::demo(kind, opts.seed, opts.ticks_per_event);
        interner = dataset.interner;
        g0 = dataset.g0;
        if opts.graph_path.is_some() {
            eprintln!(
                "error: --graph only applies to --file sources (synthetic brings its own g0)"
            );
            return ExitCode::from(2);
        }
        // Every event gets its own tick: the last one's must fit the clock.
        let events = source.events_left();
        if (events.saturating_sub(1) as u64).checked_mul(opts.ticks_per_event).is_none() {
            eprintln!(
                "error: --ticks-per-event {} puts the last of {events} events past the u64 clock",
                opts.ticks_per_event
            );
            return ExitCode::from(2);
        }
        synthetic_source = Some(source);
    } else {
        interner = LabelInterner::new();
        g0 = match &opts.graph_path {
            Some(p) => match load_graph(p, &mut interner) {
                Ok(g) => g,
                Err(code) => return code,
            },
            None => DynamicGraph::new(),
        };
    }

    let mut queries = Vec::new();
    for p in &opts.query_paths {
        match load_query(p, &mut interner) {
            Ok(q) => queries.push(q),
            Err(code) => return code,
        }
    }
    eprintln!(
        "stream: g0 {} vertices / {} edges; {} quer{} ({:?}); window {:?}",
        g0.vertex_count(),
        g0.edge_count(),
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        opts.semantics,
        opts.window,
    );

    // The text source measures its vertex-id bound from g0's ids.
    let g0_vertices = g0.vertex_count();

    // Build the target and report initial match counts per engine.
    let cfg = TurboFluxConfig::with_semantics(opts.semantics);
    let mut out = Out::new(std::io::BufWriter::new(std::io::stdout().lock()));
    let mut target: Box<dyn BatchTarget> = if queries.len() > 1 {
        let mut fleet = Fleet::new(g0);
        for q in queries {
            fleet.register(q, cfg);
        }
        for id in fleet.engine_ids().to_vec() {
            let mut n = 0u64;
            fleet.report_initial(id, &mut |_| n += 1);
            out.line(format_args!("{{\"type\":\"init\",\"engine\":{id},\"matches\":{n}}}\n"));
        }
        Box::new(fleet)
    } else {
        let q = queries.into_iter().next().expect("at least one query");
        let mut engine = TurboFlux::new(q, g0, cfg);
        let mut n = 0u64;
        engine.initial_matches(&mut |_| n += 1);
        out.line(format_args!("{{\"type\":\"init\",\"engine\":0,\"matches\":{n}}}\n"));
        Box::new(engine)
    };

    let mut driver = StreamDriver::new(
        SlidingWindow::new(opts.window),
        BatchPolicy {
            max_ops: opts.batch_ops,
            max_ticks: opts.batch_ticks,
            drain_at_end: opts.drain,
        },
    );

    // Run: the source is either the synthetic stream or the text file.
    let mut run = |driver: &mut StreamDriver,
                   source: &mut dyn StreamSource,
                   target: &mut dyn BatchTarget,
                   quiet: bool| {
        if quiet {
            let mut sink = CountingSink::default();
            driver.run(source, target, &mut sink)
        } else {
            let mut sink = JsonlSink::new(&mut out.w);
            let result = driver.run(source, target, &mut sink);
            out.err = out.err.take().or(sink.take_error());
            result
        }
    };
    let result = if let Some(mut source) = synthetic_source.take() {
        run(&mut driver, &mut source, &mut *target, opts.quiet)
    } else {
        let path = opts.file.as_deref().expect("file or synthetic");
        let reader = match open_reader(path) {
            Ok(r) => r,
            Err(code) => return code,
        };
        let mut source =
            FileSource::new(reader, &mut interner, opts.mode).with_vertex_count(g0_vertices);
        let result = run(&mut driver, &mut source, &mut *target, opts.quiet);
        for d in source.diagnostics() {
            eprintln!("warning: {d}");
        }
        result
    };
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            // What was written before the bad line still goes out; the
            // stream error is the one reported.
            let _ = out.w.flush();
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Multi-query fleets report their routing counters.
    if let Some(s) = target.fleet_stats() {
        out.line(format_args!(
            "{{\"type\":\"fleet_stats\",\"ops_routed\":{},\"ops_skipped\":{}}}\n",
            s.ops_routed, s.ops_skipped
        ));
    }
    if let Err(code) = out.finish() {
        return code;
    }
    let graph = target.graph().map(|g| format!("graph {}; ", graph_shape(g))).unwrap_or_default();
    eprintln!(
        "processed {} events -> {} ops in {} batches ({} expiry deletes) in {:.2?}: {} positive, {} negative; {graph}window live {}",
        summary.events,
        summary.ops,
        summary.batches,
        summary.expiry_deletes,
        summary.elapsed,
        summary.positive,
        summary.negative,
        driver.window().live_len(),
    );
    ExitCode::SUCCESS
}
