//! Proves the per-update hot path is allocation-free in steady state: after
//! a warm-up pass grows every scratch buffer and adjacency list to its
//! high-water capacity, repeating the same insert/delete cycles must hit
//! the global allocator zero times. The same allocator also tracks live
//! bytes, which bounds the transient peak of loading a g0 from text.
//!
//! Runs without the libtest harness (`harness = false` in Cargo.toml): the
//! counting `#[global_allocator]` is process-wide, and the harness's main
//! thread lazily initializes channel thread-locals while it waits on the
//! test thread — inside the armed window, at a racy point in time. With no
//! harness the process stays single-threaded and the count is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use turboflux::core::INTERSECT_MIN_FRONTIER;
use turboflux::prelude::*;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Heap bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts an acquisition while armed, and `grown` more live bytes.
fn acquired(grown: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The block is live at its new size only once the old one is gone.
        acquired(new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size().saturating_sub(new_size), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // Frees are fine in steady state; only acquisitions are counted.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 3-vertex query (path with a back non-tree edge) over a graph with one
/// wide hub frontier, driven through repeated insert/delete cycles that
/// produce real positive and negative matches every cycle — through both
/// the plain enumeration path and the intersection-prefilter path
/// (`search.rs`), whose scratch segments must likewise reach a high-water
/// capacity and stop allocating.
fn main() {
    let mut g = DynamicGraph::new();
    for i in 0..20u32 {
        g.add_vertex(LabelSet::single(LabelId(i % 2)));
    }
    // Static backbone so the DCG has standing partial results.
    for i in 0..8u32 {
        g.insert_edge(VertexId(i), LabelId(10), VertexId((i + 1) % 8));
    }
    // Hub: v1 fans out to enough even vertices that the explicit DCG
    // frontier of (v1, u2) crosses INTERSECT_MIN_FRONTIER, steering the
    // enumeration of u2 through the intersection prefilter whenever m(u1)=1.
    for i in 0..(INTERSECT_MIN_FRONTIER as u32 + 1) {
        let dst = VertexId(i * 2);
        if !g.has_edge(VertexId(1), LabelId(10), dst) {
            g.insert_edge(VertexId(1), LabelId(10), dst);
        }
    }
    // Standing non-tree support: the prefilter intersects the frontier with
    // out-l11 runs of the bound u0 image (v0 and the hub parent v4).
    g.insert_edge(VertexId(0), LabelId(11), VertexId(4));
    g.insert_edge(VertexId(0), LabelId(11), VertexId(6));
    g.insert_edge(VertexId(4), LabelId(11), VertexId(0));
    g.insert_edge(VertexId(4), LabelId(11), VertexId(2));

    let mut q = QueryGraph::new();
    let u0 = q.add_vertex(LabelSet::single(LabelId(0)));
    let u1 = q.add_vertex(LabelSet::single(LabelId(1)));
    let u2 = q.add_vertex(LabelSet::single(LabelId(0)));
    q.add_edge(u0, u1, Some(LabelId(10)));
    q.add_edge(u1, u2, Some(LabelId(10)));
    q.add_edge(u0, u2, Some(LabelId(11))); // becomes a non-tree edge

    let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());

    // One cycle: close the triangle edge (positive matches), add another
    // tree-matching edge, then fan v0's u1 group to six edges, to vertices
    // registration never reached (they enter the DCG's bits and leave again —
    // the bits must already cover them, not grow), toggle
    // a tree edge into the hub v1 so u2 is enumerated over the wide frontier
    // (intersection prefilter), then delete everything (negative matches).
    let cycle = [
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(11), dst: VertexId(2) },
        UpdateOp::InsertEdge { src: VertexId(2), label: LabelId(10), dst: VertexId(5) },
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(3) },
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(5) },
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(7) },
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(9) },
        UpdateOp::InsertEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(11) },
        UpdateOp::InsertEdge { src: VertexId(4), label: LabelId(10), dst: VertexId(1) },
        UpdateOp::DeleteEdge { src: VertexId(4), label: LabelId(10), dst: VertexId(1) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(11) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(9) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(7) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(5) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(10), dst: VertexId(3) },
        UpdateOp::DeleteEdge { src: VertexId(2), label: LabelId(10), dst: VertexId(5) },
        UpdateOp::DeleteEdge { src: VertexId(0), label: LabelId(11), dst: VertexId(2) },
    ];

    let mut matches = 0usize;
    let mut hub_matches = 0usize;
    {
        // The hub tree-edge toggle must produce matches of its own — that
        // insertion enumerates u2 over the ≥ INTERSECT_MIN_FRONTIER
        // explicit frontier of v1, i.e. through the prefilter. (4, l11, 0)
        // and (4, l11, 2) close the triangle for m(u0)=4.
        let op = UpdateOp::InsertEdge { src: VertexId(4), label: LabelId(10), dst: VertexId(1) };
        engine.apply(&op, &mut |_, _| hub_matches += 1);
        assert!(hub_matches > 0, "hub toggle must route matches through the wide frontier");
        let undo = UpdateOp::DeleteEdge { src: VertexId(4), label: LabelId(10), dst: VertexId(1) };
        engine.apply(&undo, &mut |_, _| {});
    }

    // Four cycles to a batch, through `apply_batch`: every op but the last
    // two of a batch is hinted by the lookahead (2 and 4 rounds ahead)
    // before it runs, and a hint may allocate as little as an update.
    let batch: Vec<UpdateOp> = (0..4).flat_map(|_| cycle.iter().cloned()).collect();
    let run_cycles = |engine: &mut TurboFlux, n: usize, matches: &mut usize| {
        for _ in 0..n / 4 {
            engine.apply_batch(&batch, &mut |_, _, _| *matches += 1);
        }
    };

    // Warm-up: reach every code path's high-water scratch capacity.
    run_cycles(&mut engine, 8, &mut matches);
    assert!(matches > 0, "warm-up must produce matches, or the test is vacuous");
    // The cycle's inserts put vertices the DCG never reached into its
    // bits; its deletes take them out again.
    let reached = |engine: &TurboFlux| engine.dcg().storage_stats().reached.iter().sum::<usize>();
    let warm = reached(&engine);
    engine.apply_batch(&cycle[..7], &mut |_, _, _| matches += 1);
    assert!(reached(&engine) > warm, "the cycle must reach vertices, or bit reuse goes untested");
    engine.apply_batch(&cycle[7..], &mut |_, _, _| matches += 1);
    assert_eq!(reached(&engine), warm);

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    run_cycles(&mut engine, 64, &mut matches);
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(during, 0, "steady-state insert/delete cycles must not allocate");
    println!("test steady_state_updates_do_not_allocate ... ok");

    unseen_label_batches_do_not_allocate(&mut engine);
    println!("test unseen_label_batches_do_not_allocate ... ok");

    labeled_add_vertex_ops_on_existing_vertices_do_not_allocate(&mut engine);
    println!("test labeled_add_vertex_ops_on_existing_vertices_do_not_allocate ... ok");

    warm_multi_cell_batches_allocate_per_batch_not_per_delta();
    println!("test warm_multi_cell_batches_allocate_per_batch_not_per_delta ... ok");

    text_source_lines_of_known_labels_do_not_allocate();
    println!("test text_source_lines_of_known_labels_do_not_allocate ... ok");

    g0_parse_peak_stays_within_a_fifth_over_the_graph();
    println!("test g0_parse_peak_stays_within_a_fifth_over_the_graph ... ok");

    project_holds_nothing_beside_a_fresh_layout_and_a_pair_per_churned_slot();
    println!("test project_holds_nothing_beside_a_fresh_layout_and_a_pair_per_churned_slot ... ok");

    g0_clone_holds_exactly_its_resident_bytes();
    println!("test g0_clone_holds_exactly_its_resident_bytes ... ok");

    dcg_memory_is_bits_only();
    println!("test dcg_memory_is_bits_only ... ok");
}

/// The DCG is three bitsets per query vertex and nothing else: after a
/// netflow stream and the deletion of a third of its edges, its reservation
/// is at most twice three bits per query vertex per data vertex, however
/// many edges it stores, and a warm batch that re-inserts and deletes the
/// churned edges again reserves nothing, in the DCG or anywhere.
fn dcg_memory_is_bits_only() {
    use turboflux::datagen::netflow::{generate, NetflowConfig};
    let d = generate(&NetflowConfig { hosts: 500, flows: 8_000, seed: 2018, stream_frac: 0.5 });
    let [tcp, udp] = ["tcp", "udp"].map(|name| d.interner.get(name).expect("netflow names it"));
    let mut q = QueryGraph::new();
    let us = [0; 3].map(|_| q.add_vertex(LabelSet::empty()));
    q.add_edge(us[0], us[1], Some(tcp));
    q.add_edge(us[1], us[2], Some(udp));
    let mut engine = TurboFlux::new(q, d.g0.clone(), TurboFluxConfig::default());
    let mut deltas = 0usize;
    engine.apply_batch(d.stream.ops(), &mut |_, _, _| deltas += 1);
    let churn: Vec<UpdateOp> = d
        .stream
        .ops()
        .iter()
        .step_by(3)
        .filter_map(|op| match *op {
            UpdateOp::InsertEdge { src, label, dst } => {
                Some(UpdateOp::DeleteEdge { src, label, dst })
            }
            _ => None,
        })
        .collect();
    engine.apply_batch(&churn, &mut |_, _, _| deltas += 1);

    let (n, nq) = (engine.graph().vertex_count(), engine.query().vertex_count());
    let stored = engine.dcg().stored_edge_count();
    let bytes = engine.dcg().resident_bytes();
    let bound = 2 * 3 * nq * n.div_ceil(64) * 8;
    assert!(deltas > 0 && stored > n as u64, "{deltas} deltas, {stored} stored edges");
    assert!(bytes <= bound, "{bytes} B of DCG for {stored} stored edges, over {bound} B of bits");

    let reinsert = churn.iter().map(|op| match *op {
        UpdateOp::DeleteEdge { src, label, dst } => UpdateOp::InsertEdge { src, label, dst },
        _ => unreachable!("the churn deletes"),
    });
    let batch: Vec<UpdateOp> = reinsert.chain(churn.iter().cloned()).collect();
    for _ in 0..2 {
        engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);
    }
    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(during, 0, "a warm batch of {} ops allocated {during} times", batch.len());
    assert_eq!(engine.dcg().resident_bytes(), bytes);
}

/// Ops on a label the query never names stay out of a standalone engine's
/// graph and DCG: a warm batch of them — inserts between existing vertices,
/// their deletes, and deletes of edges never stored — allocates nothing,
/// emits nothing and stores nothing.
fn unseen_label_batches_do_not_allocate(engine: &mut TurboFlux) {
    let label = LabelId(12);
    let pairs = (0..20u32).map(|i| (VertexId(i), VertexId((i * 7 + 3) % 20)));
    let insert = |(src, dst)| UpdateOp::InsertEdge { src, label, dst };
    let delete = |(src, dst)| UpdateOp::DeleteEdge { src, label, dst };
    let batch: Vec<UpdateOp> = pairs
        .clone()
        .map(insert)
        .chain(pairs.clone().map(delete))
        .chain(pairs.map(delete))
        .collect();
    let (stored, dcg) = (engine.graph().edge_count(), engine.dcg().snapshot());
    let mut deltas = 0;
    engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..16 {
        engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(during, 0, "warm batches of unseen-label ops allocated {during} times");
    assert_eq!((deltas, engine.graph().edge_count()), (0, stored));
    assert_eq!(engine.dcg().snapshot(), dcg);
}

/// An `AddVertex` naming a vertex that exists is skipped, and skipping it
/// costs nothing: the graph borrows the op's label set, where every such op
/// used to clone it, and stores a set it has seen before as a 4-byte id. A
/// warm batch of labeled ones, through the engine and through
/// `DynamicGraph::apply`, allocates nothing and changes nothing.
fn labeled_add_vertex_ops_on_existing_vertices_do_not_allocate(engine: &mut TurboFlux) {
    let batch: Vec<UpdateOp> = (0..20u32)
        .map(|i| UpdateOp::AddVertex {
            id: VertexId(i),
            labels: LabelSet::from_labels(vec![LabelId(i % 2), LabelId(7)]),
        })
        .collect();
    let (n, dcg) = (engine.graph().vertex_count(), engine.dcg().snapshot());
    let mut graph = engine.graph().clone();
    let mut deltas = 0;
    engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..16 {
        engine.apply_batch(&batch, &mut |_, _, _| deltas += 1);
        assert!(batch.iter().all(|op| !graph.apply(op)));
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(during, 0, "warm batches of known-vertex AddVertex ops allocated {during} times");
    assert_eq!((deltas, engine.graph().vertex_count()), (0, n));
    assert_eq!(engine.dcg().snapshot(), dcg);
    assert!(engine.graph().vertices().all(|v| engine.graph().labels(v) == graph.labels(v)));
}

/// `DynamicGraph::resident_bytes` is exact: a clone of an LSBench g0 — a
/// handful of distinct label sets over thousands of vertices, most runs kept
/// inline — holds exactly its `resident_bytes` of live heap, the set table
/// and its index included.
fn g0_clone_holds_exactly_its_resident_bytes() {
    use turboflux::datagen::lsbench::{generate, LsBenchConfig};
    let d = generate(&LsBenchConfig { users: 2_000, seed: 2018, stream_frac: 0.3 });
    let before = LIVE.load(Ordering::SeqCst);
    let copy = d.g0.clone();
    let held = LIVE.load(Ordering::SeqCst) - before;
    assert_eq!(held, copy.resident_bytes(), "a clone held {held} B");
    let st = copy.storage_stats();
    assert!(st.label_sets > 1 && st.label_sets * 100 < copy.vertex_count(), "{st:?}");
    assert!(st.inline_runs > st.flat_runs + st.directory_runs, "{st:?}");
    assert!(copy.resident_bytes() <= d.g0.resident_bytes());
}

/// Loading a g0 from text holds little beside the graph it returns: the
/// parser pushes each edge's source into one column and its
/// `(label, destination)` into another, both sized from a newline count,
/// and the bulk build buckets the pairs by source in place, drops the
/// sources, and fills the in-runs in ranges whose scratch, cut from the
/// pair column, shrinks as the arena grows. The live heap above what was
/// live before the call peaks within 1.2 × the graph's `resident_bytes`
/// (1.16 × measured); a pair array built beside the parsed list took it to
/// 1.43 ×, and a comparison sort of the list, a clone of it and a second
/// sort to about 2 ×.
fn g0_parse_peak_stays_within_a_fifth_over_the_graph() {
    use std::fmt::Write as _;
    use turboflux::datagen::netflow::{generate, NetflowConfig};
    use turboflux::query::parser::parse_data_graph;
    let d = generate(&NetflowConfig { hosts: 2_000, flows: 60_000, seed: 2018, stream_frac: 0.5 });
    let mut text = String::new();
    for v in d.g0.vertices() {
        let labels = d.g0.labels(v).iter().map(|l| d.interner.name(l).expect("interned"));
        let _ = writeln!(text, "v {} {}", v.0, labels.collect::<Vec<_>>().join(" "));
    }
    for e in d.g0.edges() {
        let label = d.interner.name(e.label).expect("interned");
        let _ = writeln!(text, "e {} {} {label}", e.src.0, e.dst.0);
    }
    let mut interner = LabelInterner::new();
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let g = parse_data_graph(&text, &mut interner).expect("generated g0 parses");
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let resident = g.resident_bytes();
    assert_eq!(g.edge_count(), d.g0.edge_count());
    assert!(
        5 * peak <= 6 * resident,
        "parsing a {}-edge g0 peaked at {peak} B over a {resident} B graph ({:.2}x)",
        g.edge_count(),
        peak as f64 / resident as f64
    );
}

/// `DynamicGraph::project` compacts the arena it is given in one walk that
/// merges each side's runs, taken in vertex order, as ascending streams of
/// slots, and folds a directory flat when it reaches it. A clone of the
/// netflow g0 is laid in that order, so projecting it onto the `tcp` edges
/// — which folds most directories — holds at most 4 KB beside it (0 B
/// measured; a table of 8 B per live slot is 54 KB here). A churned g0 (free
/// slots, slack classes, directories, runs out of order) puts every slot
/// that breaks its side's order on a sorted side list: at most one 8-byte
/// `(offset, run)` pair per live slot, onto `tcp` and onto no edge.
fn project_holds_nothing_beside_a_fresh_layout_and_a_pair_per_churned_slot() {
    use turboflux::datagen::netflow::{generate, NetflowConfig};
    let d = generate(&NetflowConfig { hosts: 2_000, flows: 60_000, seed: 2018, stream_frac: 0.5 });
    let tcp = d.interner.get("tcp").expect("netflow names tcp");
    let is_tcp = |label: LabelId| label == tcp;
    let peak_of = |g: DynamicGraph, keep: &dyn Fn(LabelId) -> bool| {
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let got = g.project(keep);
        (got, PEAK.load(Ordering::SeqCst) - before)
    };

    let fresh = d.g0.clone();
    let st = fresh.storage_stats();
    assert!(st.directory_runs > 0, "{st:?}");
    let kept: Vec<_> = fresh.edges().filter(|e| is_tcp(e.label)).collect();
    let (got, peak) = peak_of(fresh, &is_tcp);
    assert!(peak <= 4 << 10, "projecting a clone of g0 held {peak} B beside it");
    assert!(got.edges().eq(kept.iter().copied()));
    assert!(got.storage_stats().directory_runs < st.directory_runs / 2, "most fold flat");
    got.validate();

    let churned = || {
        let mut g = d.g0.clone();
        for op in d.stream.ops() {
            g.apply(op);
        }
        let edges: Vec<_> = g.edges().step_by(3).collect();
        for e in &edges {
            g.delete_edge(e.src, e.label, e.dst);
        }
        g
    };
    let keeps: [&dyn Fn(LabelId) -> bool; 2] = [&is_tcp, &|_| false];
    for keep in keeps {
        let g = churned();
        let (st, n, m) = (g.storage_stats(), g.vertex_count(), g.edge_count());
        assert!(st.free_slots > 0 && st.directory_runs > 0, "{st:?}");
        let kept: Vec<_> = g.edges().filter(|e| keep(e.label)).collect();
        let (got, peak) = peak_of(g, keep);
        let pairs = 8 * st.live_slots;
        assert!(
            peak <= pairs,
            "projecting a {m}-edge graph of {n} vertices held {peak} B beside it ({pairs} B of pairs)",
        );
        assert!(got.edges().eq(kept.iter().copied()));
        assert!(
            got.storage_stats().directory_runs < st.directory_runs / 2,
            "most directories fold flat"
        );
        got.validate();
    }
}

/// `FileSource` reads every line into the one buffer it owns and parses it
/// there: once the first line has sized the buffer and interned its label, a
/// line of known labels — timestamped or not, commented or not — costs the
/// allocator nothing. It used to cost a `String` per line.
fn text_source_lines_of_known_labels_do_not_allocate() {
    use turboflux::stream::{ErrorMode, FileSource};
    const LINES: u32 = 512;
    let mut text = String::from("@0 + 1000000 999999 knows   # the longest line comes first\n");
    for i in 1..LINES {
        let stamp = if i % 2 == 0 { format!("@{i} ") } else { String::new() };
        let sign = if i % 3 == 0 { '-' } else { '+' };
        let comment = if i % 5 == 0 { " # noted\n\n" } else { "\n" };
        text += &format!("{stamp}{sign} {} {} knows{comment}", i % 40, (i * 7) % 40);
    }
    let mut interner = LabelInterner::new();
    let mut source = FileSource::new(text.as_bytes(), &mut interner, ErrorMode::Strict);
    assert!(source.next_event().expect("well-formed").is_some());

    ARMED.store(true, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut events = 1;
    while let Some(ev) = source.next_event().expect("well-formed") {
        events += u32::from(!matches!(ev.op, UpdateOp::AddVertex { .. }));
    }
    let during = ALLOCS.load(Ordering::SeqCst) - before;
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(events, LINES);
    assert_eq!(during, 0, "{LINES} text lines of one known label allocated {during} times");
}

/// The buffered emission of a multi-engine batch (`Fleet::apply_batch` with
/// two queries) holds its deltas in flat buffers that stay warm across
/// batches. Eight `B` hubs of 40 `C` leaves under the path query
/// `A -r-> B -s-> C`; one batch feeds and unfeeds every hub from one `A`
/// source: 8 × 40 × 2 = 640 deltas per query. A warm batch allocates
/// nothing: the buffers drain engine by engine, with no sort and no merge
/// buffer, where every delta used to cost a record clone.
fn warm_multi_cell_batches_allocate_per_batch_not_per_delta() {
    const HUBS: u32 = 8;
    const LEAVES: u32 = 40;
    let (r, s) = (LabelId(10), LabelId(11));
    let mut g = DynamicGraph::new();
    let a = g.add_vertex(LabelSet::single(LabelId(0)));
    let hubs: Vec<VertexId> =
        (0..HUBS).map(|_| g.add_vertex(LabelSet::single(LabelId(1)))).collect();
    for &hub in &hubs {
        for _ in 0..LEAVES {
            let leaf = g.add_vertex(LabelSet::single(LabelId(2)));
            g.insert_edge(hub, s, leaf);
        }
    }
    let mut q = QueryGraph::new();
    let us: Vec<_> = (0..3).map(|i| q.add_vertex(LabelSet::single(LabelId(i)))).collect();
    q.add_edge(us[0], us[1], Some(r));
    q.add_edge(us[1], us[2], Some(s));
    let feed = hubs.iter().map(|&dst| UpdateOp::InsertEdge { src: a, label: r, dst });
    let unfeed = hubs.iter().map(|&dst| UpdateOp::DeleteEdge { src: a, label: r, dst });
    let batch: Vec<UpdateOp> = feed.chain(unfeed).collect();
    let per_query = (HUBS * LEAVES * 2) as usize;

    // Armed for the fourth batch only; returns (deltas, allocations) of it.
    let measure = |apply: &mut dyn FnMut(&[UpdateOp], &mut usize)| {
        let mut deltas = 0;
        for _ in 0..3 {
            apply(&batch, &mut deltas);
        }
        deltas = 0;
        ARMED.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);
        apply(&batch, &mut deltas);
        let during = ALLOCS.load(Ordering::SeqCst) - before;
        ARMED.store(false, Ordering::SeqCst);
        (deltas, during)
    };

    let mut fleet = Fleet::new(g);
    for _ in 0..2 {
        fleet.register(q.clone(), TurboFluxConfig::default());
    }
    let (deltas, allocs) = measure(&mut |ops, n| fleet.apply_batch(ops, &mut |_| *n += 1));
    assert_eq!(deltas, 2 * per_query);
    assert_eq!(allocs, 0, "a warm two-query fleet batch allocated {allocs} times");
}
