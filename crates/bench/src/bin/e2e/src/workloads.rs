//! The six workloads: what each one feeds the pipeline, generated from the
//! seed. The program under test receives only these inputs, never the seed.
//!
//! Sizes are constants, chosen on the 2-core reference host at the commit
//! that added the benchmark so that one pass (one set-up + one stream
//! replay) takes about a second and a run of 18 s fits thirteen passes or
//! more (the host probe of `host.rs` and the per-event medians of
//! `stats.rs` want many short passes, not few long ones).
//! README.md says why each workload exists and what it is predicted not to
//! move.

use std::fmt::Write as _;

use turboflux::datagen::{lsbench, netflow, Dataset, Pcg32};
use turboflux::graph::{DynamicGraph, LabelInterner, UpdateOp};
use turboflux::stream::WindowSpec;

/// Workload names, in reporting order.
pub const NAMES: [&str; 6] = [
    "netflow_window",
    "netflow_shards2",
    "netflow_enum",
    "lsbench_maint",
    "lsbench_fleet8",
    "ingest_selective",
];

/// Which evaluation runtime `tfx stream` would pick for the job, and how
/// many threads it may use. Every workload's own runtime uses one (README.md,
/// "Why end-to-end measurements use one thread"); a traced measurement runs
/// the multi-threaded variant of the same job next to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Runtime {
    /// `TurboFlux` (one query, `--shards 1`) with
    /// `TurboFluxConfig::parallel_workers = workers` intra-update workers
    /// (`0`, the default `tfx` runs with, is one per core).
    Single { workers: usize },
    /// `Fleet::with_threads(g0, threads)` (several queries; `tfx stream`
    /// gives a fleet one thread unless `--fleet N` asks for more).
    Fleet { threads: usize },
    /// `ShardedEngine` over `shards` partitions on `threads` worker threads
    /// (`--shards N --fleet T`).
    Sharded { shards: usize, threads: usize },
}

/// Which sink receives the deltas.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SinkKind {
    /// `CountingSink` (`tfx stream --quiet`).
    Counting,
    /// `JsonlSink` into a writer that counts bytes and discards them.
    Jsonl,
}

/// The initial graph, as `tfx stream` would receive it.
pub enum G0 {
    /// Handed over in memory (`--synthetic` brings its own g0).
    Graph(DynamicGraph),
    /// Text for `parser::parse_data_graph` (`--graph <file>`).
    Text(String),
}

/// The event stream, as `tfx stream` would receive it.
pub enum Events {
    /// Replayed by `SyntheticSource::from_stream` at one tick per event.
    Ops(Vec<UpdateOp>),
    /// Parsed by `FileSource` (`--file <file>`).
    Text(String),
}

/// One workload's generated inputs.
pub struct Inputs {
    pub name: &'static str,
    /// Labels known before the job starts: the generator's for in-memory
    /// graphs, none when g0 arrives as text.
    pub interner: LabelInterner,
    pub g0: G0,
    /// Query texts (`queries/*.txt`), in registration order.
    pub queries: Vec<&'static str>,
    pub events: Events,
    pub n_events: usize,
    pub window: WindowSpec,
    pub runtime: Runtime,
    pub sink: SinkKind,
}

/// Full size, or ≈1% of it for `--smoke`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn of(self, full: usize, smoke: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

const Q_NETFLOW_2HOP: &str = include_str!("../queries/netflow_tcp_udp.txt");
const Q_NETFLOW_3HOP: &str = include_str!("../queries/netflow_tcp_tcp_tcp.txt");
const Q_LSBENCH_MAINT: &str = include_str!("../queries/lsbench_knows_comment_reply.txt");
const Q_SELECTIVE: &str = include_str!("../queries/netflow_ospf_sctp.txt");
const Q_FLEET8: [&str; 8] = [
    include_str!("../queries/fleet8_0_knows_likes_path.txt"),
    include_str!("../queries/fleet8_1_channel_star.txt"),
    include_str!("../queries/fleet8_2_twin_photo.txt"),
    include_str!("../queries/fleet8_3_twin_photo_tag.txt"),
    include_str!("../queries/fleet8_4_comment_thread.txt"),
    include_str!("../queries/fleet8_5_knows_post_likes_triangle.txt"),
    include_str!("../queries/fleet8_6_knows_city_triangle.txt"),
    include_str!("../queries/fleet8_7_tag_photo_cycle.txt"),
];

/// Generates the inputs of workload `name` from `seed`.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Inputs> {
    Some(match name {
        "netflow_window" => netflow_job(
            "netflow_window",
            netflow_large(seed, scale),
            scale.of(125_000, 2_500),
            WindowSpec::Count { capacity: scale.of(32_768, 655) },
            Runtime::Single { workers: 1 },
        ),
        // `netflow_window`'s query on the sharded runtime, over the data and
        // window of `netflow_enum`: the smaller g0 keeps the sharded set-up
        // (partition + mirror + three registrations of g0 + a merged initial
        // report, five times the single engine's) from crowding the stream
        // out of a pass. One worker thread: see `Runtime` and README.md.
        "netflow_shards2" => netflow_job(
            "netflow_shards2",
            netflow_1m(seed, scale, 0.8),
            scale.of(100_000, 1_000),
            WindowSpec::Count { capacity: scale.of(20_000, 164) },
            Runtime::Sharded { shards: 2, threads: 1 },
        ),
        "netflow_enum" => Inputs {
            queries: vec![Q_NETFLOW_3HOP],
            ..netflow_job(
                "netflow_enum",
                netflow_1m(seed, scale, 0.8),
                scale.of(60_000, 1_000),
                WindowSpec::Count { capacity: scale.of(20_000, 164) },
                Runtime::Single { workers: 1 },
            )
        },
        "lsbench_maint" => {
            let d = lsbench::generate(&lsbench::LsBenchConfig {
                users: scale.of(10_000, 300),
                seed,
                stream_frac: 0.3,
            });
            // The whole stream (≈130 k events at 10 k users).
            let (d, ops) = take_events(d, usize::MAX);
            Inputs {
                name: "lsbench_maint",
                interner: d.interner,
                g0: G0::Graph(d.g0),
                queries: vec![Q_LSBENCH_MAINT],
                n_events: ops.len(),
                events: Events::Ops(ops),
                window: WindowSpec::Unbounded,
                runtime: Runtime::Single { workers: 1 },
                sink: SinkKind::Counting,
            }
        }
        "lsbench_fleet8" => {
            let d = lsbench::generate(&lsbench::LsBenchConfig {
                users: scale.of(6_000, 300),
                seed,
                stream_frac: 0.3,
            });
            let (d, ops) = take_events(d, scale.of(40_000, 1_000));
            let text = stream_text(&ops, &d.interner, || false);
            Inputs {
                name: "lsbench_fleet8",
                interner: d.interner,
                g0: G0::Graph(d.g0),
                queries: Q_FLEET8.to_vec(),
                n_events: ops.len(),
                events: Events::Text(text),
                window: WindowSpec::Count { capacity: scale.of(16_384, 328) },
                runtime: Runtime::Fleet { threads: 1 },
                sink: SinkKind::Counting,
            }
        }
        "ingest_selective" => {
            let (d, ops) = take_events(netflow_1m(seed, scale, 0.5), scale.of(250_000, 4_000));
            let mut rng = Pcg32::with_stream(seed, 0x5E1EC7);
            Inputs {
                name: "ingest_selective",
                interner: LabelInterner::new(),
                g0: G0::Text(graph_text(&d.g0, &d.interner)),
                queries: vec![Q_SELECTIVE],
                n_events: ops.len(),
                events: Events::Text(stream_text(&ops, &d.interner, || rng.chance(0.5))),
                // One tick per event, so this holds as many events as
                // `netflow_window`'s count window.
                window: WindowSpec::Time { width: scale.of(32_768, 655) as u64 },
                runtime: Runtime::Single { workers: 1 },
                sink: SinkKind::Jsonl,
            }
        }
        _ => return None,
    })
}

/// The larger netflow graph (50 k hosts, 1.8 M flows, half of them g0).
/// Not 2 M: with a million g0 edges, whether the pipeline's largest vectors
/// double once more depends on the seed, and `peak_heap_mb` came out at 90,
/// 99 or 103 MB; at 0.9 M it stays within 91–95 MB.
fn netflow_large(seed: u64, scale: Scale) -> Dataset {
    netflow::generate(&netflow::NetflowConfig {
        hosts: scale.of(50_000, 500),
        flows: scale.of(1_800_000, 20_000),
        seed,
        stream_frac: 0.5,
    })
}

/// The smaller netflow graph (20 k hosts, 1 M flows), `stream_frac` of it
/// left for the stream.
fn netflow_1m(seed: u64, scale: Scale, stream_frac: f64) -> Dataset {
    netflow::generate(&netflow::NetflowConfig {
        hosts: scale.of(20_000, 400),
        flows: scale.of(1_000_000, 10_000),
        seed,
        stream_frac,
    })
}

fn netflow_job(
    name: &'static str,
    d: Dataset,
    events: usize,
    window: WindowSpec,
    runtime: Runtime,
) -> Inputs {
    let (d, ops) = take_events(d, events);
    Inputs {
        name,
        interner: d.interner,
        g0: G0::Graph(d.g0),
        queries: vec![Q_NETFLOW_2HOP],
        n_events: ops.len(),
        events: Events::Ops(ops),
        window,
        runtime,
        sink: SinkKind::Counting,
    }
}

/// Splits off the first `n` stream events (all of them if there are fewer).
fn take_events(mut d: Dataset, n: usize) -> (Dataset, Vec<UpdateOp>) {
    let mut ops: Vec<UpdateOp> = std::mem::take(&mut d.stream).into_iter().collect();
    ops.truncate(n);
    ops.shrink_to_fit();
    (d, ops)
}

fn label_name(it: &LabelInterner, l: turboflux::graph::LabelId) -> &str {
    it.name(l).expect("generated labels are interned")
}

/// `g` in the `parser::parse_data_graph` format.
pub fn graph_text(g: &DynamicGraph, it: &LabelInterner) -> String {
    let mut s = String::with_capacity(16 * (g.vertex_count() + g.edge_count()));
    for v in g.vertices() {
        let _ = write!(s, "v {}", v.0);
        for l in g.labels(v).iter() {
            let _ = write!(s, " {}", label_name(it, l));
        }
        s.push('\n');
    }
    for e in g.edges() {
        let _ = writeln!(s, "e {} {} {}", e.src.0, e.dst.0, label_name(it, e.label));
    }
    s
}

/// `ops` in the `FileSource` format, one tick per event; a line carries its
/// tick as an explicit `@ts` where `explicit_ts` says so and leaves it
/// implicit otherwise (both spell the same timestamp).
pub fn stream_text(
    ops: &[UpdateOp],
    it: &LabelInterner,
    mut explicit_ts: impl FnMut() -> bool,
) -> String {
    let mut s = String::with_capacity(24 * ops.len());
    for (tick, op) in ops.iter().enumerate() {
        if explicit_ts() {
            let _ = write!(s, "@{tick} ");
        }
        match op {
            UpdateOp::AddVertex { id, labels } => {
                let _ = write!(s, "v {}", id.0);
                for l in labels.iter() {
                    let _ = write!(s, " {}", label_name(it, l));
                }
                s.push('\n');
            }
            UpdateOp::InsertEdge { src, label, dst } => {
                let _ = writeln!(s, "+ {} {} {}", src.0, dst.0, label_name(it, *label));
            }
            UpdateOp::DeleteEdge { src, label, dst } => {
                let _ = writeln!(s, "- {} {} {}", src.0, dst.0, label_name(it, *label));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use turboflux::query::parser;
    use turboflux::stream::{ErrorMode, FileSource, StreamSource};

    #[test]
    fn same_seed_same_inputs_and_text_round_trips() {
        for name in NAMES {
            let a = generate(name, 5, Scale::Smoke).expect("known workload");
            let b = generate(name, 5, Scale::Smoke).expect("known workload");
            assert_eq!(a.n_events, b.n_events);
            assert!(a.n_events > 0, "{name}");
            match (&a.events, &b.events) {
                (Events::Ops(x), Events::Ops(y)) => assert_eq!(x, y),
                (Events::Text(x), Events::Text(y)) => assert_eq!(x, y),
                _ => panic!("{name}: event kinds differ"),
            }
            // Every query parses against the job's labels.
            let mut it = a.interner.clone();
            for q in &a.queries {
                let q = parser::parse_query(q, &mut it).expect("query parses");
                assert!(q.is_connected() && q.edge_count() > 0);
            }
            // Text inputs parse back to as many events / edges.
            if let Events::Text(t) = &a.events {
                let mut src = FileSource::new(t.as_bytes(), &mut it, ErrorMode::Strict);
                let mut n = 0;
                while src.next_event().expect("strict parse").is_some() {
                    n += 1;
                }
                assert_eq!(n, a.n_events, "{name}");
            }
            if let G0::Text(t) = &a.g0 {
                let g = parser::parse_data_graph(t, &mut it).expect("g0 parses");
                assert!(g.edge_count() > 0);
            }
        }
        assert!(generate("nope", 1, Scale::Smoke).is_none());
    }

    #[test]
    fn mixed_timestamps_spell_one_tick_per_event() {
        let it = {
            let mut it = LabelInterner::new();
            it.intern("x");
            it
        };
        let l = it.get("x").expect("interned");
        let ops: Vec<UpdateOp> = (0..200u32)
            .map(|i| UpdateOp::InsertEdge {
                src: turboflux::graph::VertexId(i),
                label: l,
                dst: turboflux::graph::VertexId(i + 1),
            })
            .collect();
        let mut rng = Pcg32::new(3);
        let text = stream_text(&ops, &it, || rng.chance(0.5));
        let explicit = text.lines().filter(|l| l.starts_with('@')).count();
        assert!((50..150).contains(&explicit), "about half explicit, got {explicit}");
        let mut it2 = it.clone();
        let mut src = FileSource::new(text.as_bytes(), &mut it2, ErrorMode::Strict);
        let mut tick = 0;
        while let Some(ev) = src.next_event().expect("strict parse") {
            assert_eq!(ev.ts, tick);
            tick += 1;
        }
        assert_eq!(tick, 200);
    }
}
