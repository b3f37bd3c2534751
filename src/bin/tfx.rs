//! `tfx` — continuous subgraph matching on the command line.
//!
//! One front end, `tfx stream`, runs Algorithm 2's one loop: register the
//! queries over an initial graph and report their initial matches, then
//! stream timestamped updates through an optional sliding window (which
//! expires old edges) and a batching driver, and report every positive /
//! negative match each batch makes:
//!
//! ```sh
//! tfx stream --query <q.txt> --graph <g.txt> --file <ops.txt>|- --window time:100
//! tfx stream --query <q.txt> --synthetic netflow --window count:1000 --iso
//! ```
//!
//! Stdout is JSONL. Per engine (one per `--query`, numbered from 0): its
//! initial matches (`match`), then their count (`init`). Then a `delta` line
//! per match and a `batch` line per batch, and one `summary`. `--quiet`
//! keeps only the `init` counts; several queries run as a fleet, which adds
//! its routing counters (`fleet_stats`). Stderr names the input's shape and
//! each engine's DCG shape after registration; its closing line
//! (`processed N events …`) adds the totals, each engine's DCG shape again
//! and the graph's shape.
//!
//! Graph, query and stream files are text (`tfx_query::parser`,
//! `tfx_stream::source`):
//!
//! ```text
//! v 7 User            # vertex 7 arrives with label User
//! + 3 7 knows         # insert edge 3 -knows-> 7
//! - 3 7 knows         # delete it again
//! @120 + 3 8 knows    # the same, at explicit stream time 120
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use turboflux::core::DcgView;
use turboflux::prelude::*;
use turboflux::query::parser;
use turboflux::stream::{
    BatchPolicy, BatchTarget, CountingSink, ErrorMode, FileSource, JsonlSink, SlidingWindow,
    StreamDriver, StreamSource, SyntheticKind, SyntheticSource, WindowSpec,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stream") => run(&args[1..]),
        Some("--help" | "-h") => usage(0),
        _ => {
            eprintln!("error: tfx runs as `tfx stream`");
            usage(2)
        }
    }
}

fn usage(code: u8) -> ExitCode {
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
                  [--quiet]                  suppress JSONL matches and deltas, keep counts

Emits JSONL on stdout: initial-match and init lines per engine, delta lines,
per-batch stats lines, one summary line."
    );
    ExitCode::from(code)
}

/// Where the updates come from, as the flags name it.
enum Source {
    /// A stream file, or stdin for `-`.
    File(String),
    /// A built-in generator, which brings its own g0.
    Synthetic(SyntheticKind),
}

/// [`Source`] once g0 is loaded: a generator has made its stream.
enum Updates {
    File(String),
    Generated(SyntheticSource),
}

struct Options {
    query_paths: Vec<String>,
    graph_path: Option<String>,
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

fn parse_args(args: &[String]) -> Result<(Options, Source), ExitCode> {
    let mut o = Options {
        query_paths: Vec::new(),
        graph_path: None,
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
    let (mut file, mut synthetic) = (None, None);
    let mut args = args.iter();
    let value = |args: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, ExitCode> {
        args.next().cloned().ok_or_else(|| {
            eprintln!("error: {flag} requires a value");
            usage(2)
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--query" => o.query_paths.push(value(&mut args, a)?),
            "--graph" => o.graph_path = Some(value(&mut args, a)?),
            "--file" => file = Some(value(&mut args, a)?),
            "--synthetic" => {
                let v = value(&mut args, a)?;
                let Some(kind) = SyntheticKind::parse(&v) else {
                    eprintln!("error: unknown synthetic kind `{v}` (uniform|hub|lsbench|netflow)");
                    return Err(usage(2));
                };
                synthetic = Some(kind);
            }
            "--window" => {
                let v = value(&mut args, a)?;
                let Some(spec) = WindowSpec::parse(&v) else {
                    eprintln!("error: bad window `{v}` (time:<width>|count:<capacity>|none)");
                    return Err(usage(2));
                };
                o.window = spec;
            }
            "--batch-ops" => o.batch_ops = number(&value(&mut args, a)?, a, 1)?,
            "--batch-ticks" => o.batch_ticks = Some(number(&value(&mut args, a)?, a, 1)?),
            "--drain" => o.drain = true,
            "--iso" => o.semantics = MatchSemantics::Isomorphism,
            "--lenient" => o.mode = ErrorMode::Lenient,
            "--seed" => o.seed = number(&value(&mut args, a)?, a, 0)?,
            "--ticks-per-event" => o.ticks_per_event = number(&value(&mut args, a)?, a, 0)?,
            "--quiet" => o.quiet = true,
            "--help" | "-h" => return Err(usage(0)),
            other => {
                eprintln!("error: unknown stream flag `{other}`");
                return Err(usage(2));
            }
        }
    }
    if o.query_paths.is_empty() {
        eprintln!("error: at least one --query is required");
        return Err(usage(2));
    }
    match (file, synthetic) {
        (Some(path), None) => Ok((o, Source::File(path))),
        (None, Some(_)) if o.graph_path.is_some() => {
            eprintln!(
                "error: --graph only applies to --file sources (synthetic brings its own g0)"
            );
            Err(usage(2))
        }
        (None, Some(kind)) => Ok((o, Source::Synthetic(kind))),
        (Some(_), Some(_)) => {
            eprintln!("error: --file and --synthetic are mutually exclusive");
            Err(usage(2))
        }
        (None, None) => {
            eprintln!("error: one of --file or --synthetic is required");
            Err(usage(2))
        }
    }
}

/// `flag`'s value `v` as an integer of at least `min`.
fn number<T: std::str::FromStr + PartialOrd + fmt::Display>(
    v: &str,
    flag: &str,
    min: T,
) -> Result<T, ExitCode> {
    match v.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => {
            eprintln!("error: {flag} needs an integer >= {min}");
            Err(usage(2))
        }
    }
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
    fn line(&mut self, line: fmt::Arguments<'_>) {
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

/// The registered queries: one engine over its own projected graph, or a
/// fleet of several over one shared graph. Engine ids count from 0.
enum Engines {
    One(Box<TurboFlux>),
    Fleet(Box<Fleet>),
}

impl Engines {
    fn ids(&self) -> Vec<usize> {
        match self {
            Engines::One(_) => vec![0],
            Engines::Fleet(f) => f.engine_ids().to_vec(),
        }
    }

    fn report_initial(&mut self, id: usize, sink: &mut dyn FnMut(&MatchRecord)) {
        match self {
            Engines::One(e) => e.report_initial(sink),
            Engines::Fleet(f) => f.report_initial(id, sink),
        }
    }

    fn dcg(&self, id: usize) -> DcgView<'_> {
        match self {
            Engines::One(e) => e.dcg(),
            Engines::Fleet(f) => f.dcg(id),
        }
    }

    fn graph(&self) -> &DynamicGraph {
        match self {
            Engines::One(e) => e.graph(),
            Engines::Fleet(f) => f.graph(),
        }
    }

    fn target(&mut self) -> &mut dyn BatchTarget {
        match self {
            Engines::One(e) => e.as_mut(),
            Engines::Fleet(f) => f.as_mut(),
        }
    }
}

/// A match's data vertices, comma-separated: the body of a JSON array.
struct Embedding<'a>(&'a MatchRecord);

impl fmt::Display for Embedding<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.as_slice().iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}", v.0)?;
        }
        Ok(())
    }
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

fn run(args: &[String]) -> ExitCode {
    let (opts, source) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };

    // Interner + initial graph: a generator brings its own, a stream file's
    // is `--graph` (empty without one).
    let (mut interner, g0, mut updates) = match source {
        Source::Synthetic(kind) => {
            let (dataset, generated) = SyntheticSource::demo(kind, opts.seed, opts.ticks_per_event);
            // Every event gets its own tick: the last one's must fit the clock.
            let events = generated.events_left();
            if (events.saturating_sub(1) as u64).checked_mul(opts.ticks_per_event).is_none() {
                eprintln!(
                    "error: --ticks-per-event {} puts the last of {events} events past the u64 clock",
                    opts.ticks_per_event
                );
                return ExitCode::from(2);
            }
            (dataset.interner, dataset.g0, Updates::Generated(generated))
        }
        Source::File(path) => {
            let mut interner = LabelInterner::new();
            let g0 = match &opts.graph_path {
                Some(p) => match load_graph(p, &mut interner) {
                    Ok(g) => g,
                    Err(code) => return code,
                },
                None => DynamicGraph::new(),
            };
            (interner, g0, Updates::File(path))
        }
    };

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

    // Register, then report each engine's initial matches and their count.
    let cfg = TurboFluxConfig::with_semantics(opts.semantics);
    let mut engines = match <[QueryGraph; 1]>::try_from(queries) {
        Ok([q]) => Engines::One(Box::new(TurboFlux::new(q, g0, cfg))),
        Err(queries) => {
            let mut fleet = Fleet::new(g0);
            for q in queries {
                fleet.register(q, cfg);
            }
            Engines::Fleet(Box::new(fleet))
        }
    };
    let mut out = Out::new(std::io::BufWriter::new(std::io::stdout().lock()));
    for id in engines.ids() {
        let mut n = 0u64;
        engines.report_initial(id, &mut |m| {
            n += 1;
            if !opts.quiet {
                out.line(format_args!(
                    "{{\"type\":\"match\",\"engine\":{id},\"embedding\":[{}]}}\n",
                    Embedding(m)
                ));
            }
        });
        out.line(format_args!("{{\"type\":\"init\",\"engine\":{id},\"matches\":{n}}}\n"));
        eprintln!("engine {id}: {n} initial matches; DCG {}", dcg_shape(&engines.dcg(id)));
    }

    let mut driver = StreamDriver::new(
        SlidingWindow::new(opts.window),
        BatchPolicy {
            max_ops: opts.batch_ops,
            max_ticks: opts.batch_ticks,
            drain_at_end: opts.drain,
        },
    );

    // Run: the source is either the generated stream or the text file.
    let mut text = None;
    let source: &mut dyn StreamSource = match &mut updates {
        Updates::Generated(generated) => generated,
        Updates::File(path) => match open_reader(path) {
            Ok(reader) => text.insert(
                FileSource::new(reader, &mut interner, opts.mode).with_vertex_count(g0_vertices),
            ),
            Err(code) => return code,
        },
    };
    let result = if opts.quiet {
        driver.run(source, engines.target(), &mut CountingSink::default())
    } else {
        let mut sink = JsonlSink::new(&mut out.w);
        let result = driver.run(source, engines.target(), &mut sink);
        out.err = out.err.take().or(sink.take_error());
        result
    };
    for d in text.iter().flat_map(FileSource::diagnostics) {
        eprintln!("warning: {d}");
    }
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
    if let Some(s) = engines.target().fleet_stats() {
        out.line(format_args!(
            "{{\"type\":\"fleet_stats\",\"ops_routed\":{},\"ops_skipped\":{}}}\n",
            s.ops_routed, s.ops_skipped
        ));
    }
    if let Err(code) = out.finish() {
        return code;
    }
    let dcgs: String = engines
        .ids()
        .into_iter()
        .map(|id| format!("engine {id} DCG {}; ", dcg_shape(&engines.dcg(id))))
        .collect();
    eprintln!(
        "processed {} events -> {} ops in {} batches ({} expiry deletes) in {:.2?}: {} positive, {} negative; {dcgs}graph {}; window live {}",
        summary.events,
        summary.ops,
        summary.batches,
        summary.expiry_deletes,
        summary.elapsed,
        summary.positive,
        summary.negative,
        graph_shape(engines.graph()),
        driver.window().live_len(),
    );
    ExitCode::SUCCESS
}
