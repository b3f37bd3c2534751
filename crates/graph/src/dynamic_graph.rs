//! The dynamic data graph: a directed, labeled multigraph under a stream of
//! edge insertions and deletions.
//!
//! Invariants:
//!
//! * At most one edge per `(src, label, dst)` triple; duplicate inserts are
//!   idempotent no-ops (returning `false`). Parallel edges between the same
//!   vertex pair with *different* labels are allowed.
//! * Adjacency is kept in both directions so the engines can traverse
//!   upward (toward start vertices) as well as downward. Each direction is a
//!   label-partitioned run (see [`crate::adjacency`]) in the graph's one
//!   slot arena: neighbors are grouped by edge label, so label-qualified
//!   lookups touch only one group instead of the whole list, and
//!   enumeration order is always `(label, neighbor)` — deterministic and
//!   layout-independent. The two runs are the only copies of an edge: the
//!   edge set *is* the sorted out-runs.
//! * Vertices are never physically removed — the paper's update streams only
//!   insert/delete edges — but new vertices can appear at any point.

use crate::adjacency::{Adjacency, Arena, Neighbors, RunWords, FLAT_MAX};
use crate::ids::{LabelId, VertexId};
use crate::intersect::{contains_sorted, prefetch_at};
use crate::labels::{LabelSet, SetId, SetTable};
use crate::stream::UpdateOp;
use std::borrow::Borrow;

/// A fully-qualified edge: source, edge label, destination.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EdgeRef {
    /// Source vertex.
    pub src: VertexId,
    /// Edge label.
    pub label: LabelId,
    /// Destination vertex.
    pub dst: VertexId,
}

impl EdgeRef {
    /// Convenience constructor.
    pub fn new(src: VertexId, label: LabelId, dst: VertexId) -> Self {
        EdgeRef { src, label, dst }
    }
}

/// Which way a read follows the edges at a vertex. Each reader of
/// [`DynamicGraph`] takes it as an argument: a query edge, not the reader,
/// says which way it points.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Dir {
    /// Along out-going edges: the neighbors are their destinations.
    Out,
    /// Along in-coming edges: the neighbors are their sources.
    In,
}

impl Dir {
    /// The other way: what an edge's far end reads to come back along it.
    #[inline]
    pub fn reverse(self) -> Dir {
        match self {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
        }
    }
}

/// Index of a vertex's out-run in its handle pair; `IN` is the in-run.
const OUT: usize = Dir::Out as usize;
const IN: usize = Dir::In as usize;

/// The run of a vertex id that was never created.
static NO_RUN: Adjacency = Adjacency::EMPTY;

/// What a vertex costs the graph: its two handles and its set id.
const _: () = assert!(
    std::mem::size_of::<[Adjacency; 2]>() + std::mem::size_of::<SetId>() == 20,
    "a vertex is two handles and a set id"
);

/// Counts one more carrier of `label` in a per-label counter table.
fn bump(counts: &mut Vec<usize>, label: LabelId) {
    if label.index() >= counts.len() {
        counts.resize(label.index() + 1, 0);
    }
    counts[label.index()] += 1;
}

/// Bucket sizes to bucket starts (exclusive prefix sums), in place. A
/// counting sort then places each entry at its bucket's start and moves the
/// start on, which leaves each bucket's end there.
fn sizes_to_starts(sizes: &mut [usize]) {
    let mut total = 0;
    for size in sizes {
        (*size, total) = (total, total + *size);
    }
}

/// The index ranges of consecutive buckets with the given ends, the first
/// starting at `base`, each less `base`.
fn bucket_ranges(base: usize, ends: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    ends.iter()
        .scan(base, move |start, &end| Some(std::mem::replace(start, end) - base..end - base))
}

/// [`DynamicGraph::from_edges`]' stable counting pass by label: the
/// scratch it keeps across the in-buckets.
struct ByLabel {
    /// Per label: its entries in the bucket, then where the next goes.
    /// Zero between buckets.
    counts: Vec<u32>,
    /// The labels the bucket names.
    named: Vec<LabelId>,
    /// A copy of the bucket being reordered.
    spill: Vec<(LabelId, VertexId)>,
}

impl ByLabel {
    /// Scratch for buckets whose labels are below `labels`.
    fn new(labels: usize) -> Self {
        ByLabel { counts: vec![0; labels], named: Vec::new(), spill: Vec::new() }
    }

    /// Reorders `bucket` by label, keeping the order of the entries under
    /// each label, and returns its run's words. An in-bucket is filled in
    /// source order, so this leaves it in `(label, src)` order. Costs
    /// O(bucket) and a sort of the few labels it names — a bucket of one
    /// label is left as it is — and touches the per-label table only at
    /// those labels, however many the graph has.
    fn sort(&mut self, bucket: &mut [(LabelId, VertexId)]) -> RunWords {
        let mut run = RunWords::default();
        for &(label, _) in bucket.iter() {
            let count = &mut self.counts[label.index()];
            if *count == 0 {
                self.named.push(label);
            }
            *count += 1;
        }
        match self.named[..] {
            [] => return run,
            [label] => {
                // One label: in order already.
                run.group(bucket.len());
                self.counts[label.index()] = 0;
                self.named.clear();
                return run;
            }
            _ => {}
        }
        self.named.sort_unstable();
        let mut at = 0;
        for label in &self.named {
            let count = &mut self.counts[label.index()];
            run.group(*count as usize);
            (*count, at) = (at, at + *count);
        }
        self.spill.clear();
        self.spill.extend_from_slice(bucket);
        for &e in &self.spill {
            let at = &mut self.counts[e.0.index()];
            bucket[*at as usize] = e;
            *at += 1;
        }
        for label in self.named.drain(..) {
            self.counts[label.index()] = 0;
        }
        run
    }
}

/// Re-lays every run of `runs`, whose entries live in `from`, compactly and
/// in vertex order into a fresh arena sized for `words` entries, and returns
/// the new handles and that arena.
fn relay(runs: &[[Adjacency; 2]], from: &Arena, words: usize) -> (Vec<[Adjacency; 2]>, Arena) {
    let mut arena = Arena::with_capacity(words);
    let mut entries = Vec::new();
    let mut laid = Vec::with_capacity(runs.len());
    for pair in runs {
        let mut copy = [Adjacency::EMPTY; 2];
        for (run, new) in pair.iter().zip(&mut copy) {
            entries.clear();
            entries.extend(run.iter(from).map(|(v, label)| (label, v)));
            *new = Adjacency::build(&mut arena, &entries);
        }
        laid.push(copy);
    }
    (laid, arena)
}

/// How the arena behind a [`DynamicGraph`] is occupied.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StorageStats {
    /// Arena slots holding a run or a directory.
    pub live_slots: usize,
    /// Arena slots waiting on a free list.
    pub free_slots: usize,
    /// 4-byte arena words carved so far (live or free).
    pub carved_entries: usize,
    /// Vertex directions of one entry, kept in the handle.
    pub inline_runs: usize,
    /// Vertex directions of two or more entries stored as one flat run.
    pub flat_runs: usize,
    /// Vertex directions stored as a label directory of id runs.
    pub directory_runs: usize,
    /// Distinct vertex label sets.
    pub label_sets: usize,
}

/// An in-memory dynamic labeled multigraph.
#[derive(Default)]
pub struct DynamicGraph {
    /// Per vertex: the id of its label set in `sets`.
    vertex_sets: Vec<SetId>,
    /// Each distinct vertex label set, once.
    sets: SetTable,
    /// Per vertex: the `[OUT, IN]` handles into `arena`.
    runs: Vec<[Adjacency; 2]>,
    arena: Arena,
    edge_count: usize,
    edge_label_counts: Vec<usize>,
    vertex_label_counts: Vec<usize>,
}

impl Clone for DynamicGraph {
    /// Re-lays every run compactly in vertex order: the copy has no free
    /// slots and no slack classes, whatever churn fragmented the original.
    fn clone(&self) -> Self {
        let (runs, arena) = relay(&self.runs, &self.arena, self.arena.carved_entries());
        DynamicGraph {
            vertex_sets: self.vertex_sets.clone(),
            sets: self.sets.clone(),
            runs,
            arena,
            edge_count: self.edge_count,
            edge_label_counts: self.edge_label_counts.clone(),
            vertex_label_counts: self.vertex_label_counts.clone(),
        }
    }
}

impl DynamicGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph over vertices `0..vertex_labels.len()` holding `edges`
    /// (any order, duplicates dropped), built by counting sorts where a
    /// comparison sort of the whole list would do. The edges are bucketed
    /// by source on degree prefix sums; each bucket is sorted and
    /// deduplicated by `(label, dst)`, and the loop that does so also counts
    /// the bucket's label groups, the arena words its run takes, the edges
    /// per label and the in-degrees. Each out-bucket is then laid as its
    /// out-run. The out-runs, read back in source order, fill the in-buckets
    /// ascending by source, so a stable counting pass by label leaves each
    /// in `(label, src)` order — no sort — and counts its words on the way;
    /// each is then laid as its in-run.
    /// Every run is laid once at its final size — what N incremental
    /// inserts reach only through N shifts and a fragmented arena — into an
    /// arena reserved for exactly the words each side's runs take, and one
    /// `(label, vertex)` array of the edge count is the only scratch. The
    /// in-side reuses it cut to half the edges and half the largest
    /// in-bucket: it fills and lays the in-buckets in two ranges of
    /// destinations, so the scratch the graph's full arena sits beside is
    /// about half the edges.
    ///
    /// Panics if an edge names a vertex that does not exist or carries a
    /// label not below [`LabelId::LIMIT`].
    pub fn from_edges(vertex_labels: Vec<LabelSet>, edges: Vec<EdgeRef>) -> Self {
        let mut g = DynamicGraph::new();
        g.vertex_sets.reserve_exact(vertex_labels.len());
        g.runs.reserve_exact(vertex_labels.len());
        for labels in &vertex_labels {
            g.add_vertex(labels);
        }
        drop(vertex_labels);
        let n = g.runs.len();
        let (mut ends, mut labels) = (vec![0; n], 0);
        for e in &edges {
            let exists = e.src.index() < n && e.dst.index() < n;
            assert!(exists, "from_edges: an edge names a missing vertex");
            assert!(e.label.0 < LabelId::LIMIT, "from_edges: label {} is out of range", e.label);
            ends[e.src.index()] += 1;
            labels = labels.max(e.label.index() + 1);
        }
        sizes_to_starts(&mut ends);
        let mut buf = vec![(LabelId(0), VertexId(0)); edges.len()];
        for e in &edges {
            let at = &mut ends[e.src.index()];
            buf[*at] = (e.label, e.dst);
            *at += 1;
        }
        drop(edges);
        // Sort and deduplicate each out-bucket, closing the gaps up as it
        // goes, and count what its run takes.
        g.edge_label_counts = vec![0; labels];
        let mut in_ends = vec![0; n];
        let (mut start, mut kept, mut words) = (0, 0, 0);
        for end in &mut ends {
            let key = |&(label, w): &(LabelId, VertexId)| u64::from(label.0) << 32 | u64::from(w.0);
            buf[start..*end].sort_unstable_by_key(key);
            let (first, mut group, mut run) = (kept, kept, RunWords::default());
            for i in start..*end {
                let e = buf[i];
                if kept > first && buf[kept - 1] == e {
                    continue;
                }
                if kept > first && buf[kept - 1].0 != e.0 {
                    run.group(kept - group);
                    group = kept;
                }
                buf[kept] = e;
                kept += 1;
                g.edge_label_counts[e.0.index()] += 1;
                in_ends[e.1.index()] += 1;
            }
            if kept > first {
                run.group(kept - group);
            }
            words += run.words();
            (start, *end) = (*end, kept);
        }
        g.edge_count = kept;
        g.arena = Arena::with_capacity(words);
        for (v, range) in bucket_ranges(0, &ends).enumerate() {
            g.runs[v][OUT] = Adjacency::build(&mut g.arena, &buf[range]);
        }
        drop(ends);
        // The in-buckets, filled from the out-runs in source order, for the
        // destinations `lo..hi` whose buckets fit the cut scratch.
        sizes_to_starts(&mut in_ends);
        let start = |in_ends: &[usize], w: usize| in_ends.get(w).copied().unwrap_or(kept);
        let widest = (0..n).map(|w| start(&in_ends, w + 1) - in_ends[w]).max().unwrap_or(0);
        // Half the edges and half the widest bucket: a range of buckets
        // stops short of the part by less than the widest, so two ranges
        // always take every bucket.
        let part = widest.max((kept + widest).div_ceil(2));
        buf.truncate(part);
        buf.shrink_to_fit();
        let mut by_label = ByLabel::new(labels);
        let mut lo = 0;
        while lo < n {
            let base = in_ends[lo];
            let fits = |&w: &usize| start(&in_ends, w) - base <= part;
            let hi = (lo + 1..=n).take_while(fits).last().expect("a bucket fits the scratch");
            for (v, pair) in g.runs.iter().enumerate() {
                for (label, ids) in pair[OUT].groups(&g.arena) {
                    let from = if lo == 0 { 0 } else { ids.partition_point(|w| w.index() < lo) };
                    for w in ids[from..].iter().take_while(|w| w.index() < hi) {
                        let at = &mut in_ends[w.index()];
                        buf[*at - base] = (label, VertexId(v as u32));
                        *at += 1;
                    }
                }
            }
            let mut words = 0;
            for range in bucket_ranges(base, &in_ends[lo..hi]) {
                words += by_label.sort(&mut buf[range]).words();
            }
            g.arena.reserve_exact(words);
            for (w, range) in (lo..hi).zip(bucket_ranges(base, &in_ends[lo..hi])) {
                g.runs[w][IN] = Adjacency::build(&mut g.arena, &buf[range]);
            }
            lo = hi;
        }
        g
    }

    /// The graph restricted to the edges whose label `keep` accepts, on the
    /// same vertices: what an engine whose query names only those labels can
    /// ever read. `keep` is asked once per label some edge carries.
    ///
    /// Compacts in place, in the arena it is given: the vertex label sets,
    /// their counts and the run table stay where they are, and every run
    /// drops its rejected label groups inside its own slots (one left moves
    /// into its handle). Then every live slot,
    /// in arena-offset order, slides down to a write cursor at the class its
    /// entries need — the cursor never passes a slot not moved yet — and the
    /// arena is truncated there. A directory left with at most [`FLAT_MAX`]
    /// entries is then laid flat, in a slot its fold freed or past the
    /// cursor, and the slots slide once more.
    /// Beside the graph this holds one `(offset, run)` pair per live slot.
    /// The layout is the one [`Self::from_edges`] gives the kept edges, in
    /// another slot order.
    pub fn project(mut self, keep: impl Fn(LabelId) -> bool) -> Self {
        for (label, count) in self.edge_label_counts.iter_mut().enumerate() {
            if *count > 0 && !keep(LabelId(label as u32)) {
                *count = 0;
            }
        }
        self.edge_count = self.edge_label_counts.iter().sum();
        let counts = &self.edge_label_counts;
        let kept = |label: LabelId| counts.get(label.index()).is_some_and(|&n| n > 0);
        for adj in self.runs.iter_mut().flatten() {
            adj.retain(&mut self.arena, kept);
        }
        let mut order = Vec::new();
        self.slide(&mut order);
        let mut folded = false;
        for adj in self.runs.iter_mut().flatten() {
            if adj.folds(&self.arena) {
                adj.relay(&mut self.arena);
                folded = true;
            }
        }
        if folded {
            self.slide(&mut order);
        }
        drop(order);
        self.arena.shrink_to_fit();
        self.vertex_sets.shrink_to_fit();
        self.runs.shrink_to_fit();
        while self.edge_label_counts.last() == Some(&0) {
            self.edge_label_counts.pop();
        }
        self.edge_label_counts.shrink_to_fit();
        self
    }

    /// Moves every live slot, in arena-offset order, down to a write cursor
    /// at the class its entries need, and truncates the arena there. `order`
    /// is the scratch: one `(offset, run)` pair per live slot.
    fn slide(&mut self, order: &mut Vec<(u32, u32)>) {
        order.clear();
        order.reserve_exact(self.arena.live_slots());
        for (run, adj) in self.runs.iter().flatten().enumerate() {
            order.extend(adj.slots(&self.arena).map(|(off, _)| (off, run as u32)));
        }
        order.sort_unstable();
        let mut end = 0;
        for &(off, run) in order.iter() {
            let adj = &mut self.runs[run as usize / 2][run as usize % 2];
            end += adj.move_slot(&mut self.arena, off, end);
        }
        self.arena.compacted(end as usize, order.len());
    }

    /// Number of vertices ever created (ids are dense `0..n`).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_sets.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Creates a fresh vertex with the given label set and returns its id.
    /// The set is stored once per distinct set, so `labels` is copied only
    /// the first time it is seen.
    pub fn add_vertex(&mut self, labels: impl Borrow<LabelSet>) -> VertexId {
        let labels = labels.borrow();
        let id = VertexId(self.vertex_sets.len() as u32);
        for l in labels.iter() {
            bump(&mut self.vertex_label_counts, l);
        }
        self.vertex_sets.push(self.sets.intern(labels));
        self.runs.push([Adjacency::EMPTY; 2]);
        id
    }

    /// Ensures vertex `v` exists; newly created vertices in the gap get empty
    /// label sets, and `v` itself gets `labels` if it is new. An existing
    /// `v` costs a bounds check and nothing else.
    ///
    /// Used when replaying streams whose vertex ids were assigned by a
    /// generator.
    pub fn ensure_vertex(&mut self, v: VertexId, labels: impl Borrow<LabelSet>) -> bool {
        if v.index() < self.vertex_sets.len() {
            return false;
        }
        if self.vertex_sets.len() < v.index() {
            let empty = self.sets.intern(&LabelSet::empty());
            self.vertex_sets.resize(v.index(), empty);
            self.runs.resize(v.index(), [Adjacency::EMPTY; 2]);
        }
        self.add_vertex(labels);
        true
    }

    /// The label set of vertex `v`.
    #[inline]
    pub fn labels(&self, v: VertexId) -> &LabelSet {
        self.sets.get(self.vertex_sets[v.index()])
    }

    /// A matcher for the vertices whose label set contains `labels`:
    /// containment is decided once per distinct set, and a vertex is then
    /// one lookup of its set id.
    pub(crate) fn containing(&self, labels: &LabelSet) -> impl Fn(VertexId) -> bool + '_ {
        let sets: Vec<bool> = (0..self.sets.len() as SetId)
            .map(|id| labels.is_subset_of(self.sets.get(id)))
            .collect();
        move |v| sets[self.vertex_sets[v.index()] as usize]
    }

    /// True iff vertex id `v` has been created.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.vertex_sets.len()
    }

    /// Inserts an edge. Returns `false` (and changes nothing) if the exact
    /// `(src, label, dst)` triple is already present.
    ///
    /// Panics if either endpoint does not exist, or if `label` is not below
    /// [`LabelId::LIMIT`].
    pub fn insert_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        assert!(
            self.contains_vertex(src) && self.contains_vertex(dst),
            "insert_edge: endpoint does not exist ({src}, {dst})"
        );
        assert!(label.0 < LabelId::LIMIT, "insert_edge: label {label} is out of range");
        if !self.runs[src.index()][OUT].insert(&mut self.arena, label, dst) {
            return false;
        }
        let mirrored = self.runs[dst.index()][IN].insert(&mut self.arena, label, src);
        debug_assert!(mirrored, "out- and in-runs out of sync");
        bump(&mut self.edge_label_counts, label);
        self.edge_count += 1;
        true
    }

    /// Deletes an edge. Returns `false` if the triple was not present,
    /// which includes endpoints that were never created. Per direction the
    /// label group is located by search and only its entries shift.
    pub fn delete_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        if !self.contains_vertex(src) || !self.contains_vertex(dst) {
            return false;
        }
        if !self.runs[src.index()][OUT].remove(&mut self.arena, label, dst) {
            return false;
        }
        let mirrored = self.runs[dst.index()][IN].remove(&mut self.arena, label, src);
        debug_assert!(mirrored, "out- and in-runs out of sync");
        self.edge_label_counts[label.index()] -= 1;
        self.edge_count -= 1;
        true
    }

    /// The handle of `v`'s run along `dir`; the empty run for an id that
    /// was never created. Every reader below goes through it, so each reads
    /// such an id as a vertex without edges.
    #[inline]
    fn run(&self, v: VertexId, dir: Dir) -> &Adjacency {
        self.runs.get(v.index()).map_or(&NO_RUN, |pair| &pair[dir as usize])
    }

    /// True iff the exact `(src, label, dst)` triple is a live edge: a
    /// search in the shorter of `src`'s out-run and `dst`'s in-run.
    #[inline]
    pub fn has_edge(&self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        let (out, inc) = (self.run(src, Dir::Out), self.run(dst, Dir::In));
        if out.len(&self.arena) <= inc.len(&self.arena) {
            contains_sorted(out.group(&self.arena, label), dst)
        } else {
            contains_sorted(inc.group(&self.arena, label), src)
        }
    }

    /// Hints what a coming insert, delete or evaluation of an edge
    /// `src → dst` will touch, whatever its label, for a caller that holds the op some
    /// rounds before it applies it (`tfx_core`'s batch lookahead). Two
    /// stages, the second reading only what the first pulled into cache, so
    /// that no hint waits on memory itself: **0** the handle pairs and set
    /// ids of `src` and `dst`; **1** the slots the out-handle of `src` and
    /// the in-handle of `dst` name. Any other stage hints nothing. Changes
    /// nothing the caller can observe, never allocates, and accepts any id —
    /// an endpoint the graph does not hold yet (an earlier op of the same
    /// batch creates it) hints nothing.
    #[inline]
    pub fn prefetch_edge(&self, src: VertexId, dst: VertexId, stage: u8) {
        self.prefetch_group(src, Dir::Out, stage);
        self.prefetch_group(dst, Dir::In, stage);
    }

    /// [`Self::prefetch_edge`]'s stages for the groups of `v` along `dir`:
    /// **0** `v`'s handle pair and set id, **1** the slot the handle names
    /// (nothing for an inline run).
    #[inline]
    pub fn prefetch_group(&self, v: VertexId, dir: Dir, stage: u8) {
        if stage == 0 {
            prefetch_at(&self.runs, v.index());
            prefetch_at(&self.vertex_sets, v.index());
        } else {
            self.run(v, dir).prefetch(&self.arena, stage);
        }
    }

    /// True iff some live edge `src → dst` matches the (optional) query edge
    /// label. `None` acts as a wildcard.
    pub fn has_edge_matching(&self, src: VertexId, dst: VertexId, qlabel: Option<LabelId>) -> bool {
        match qlabel {
            Some(l) => self.has_edge(src, l, dst),
            None => self.run(src, Dir::Out).any_to(&self.arena, dst),
        }
    }

    /// Number of parallel `src → dst` edges matching the query label: one
    /// probe for a concrete label (at most one edge per triple); for a
    /// wildcard, one probe per distinct out-label of `src`.
    pub fn count_edges_matching(
        &self,
        src: VertexId,
        dst: VertexId,
        qlabel: Option<LabelId>,
    ) -> usize {
        match qlabel {
            Some(l) => usize::from(self.has_edge(src, l, dst)),
            None => self.run(src, Dir::Out).count_to(&self.arena, dst),
        }
    }

    /// The neighbors of `v` along `dir` as `(neighbor, edge label)` pairs, in
    /// `(label, neighbor)` order.
    #[inline]
    pub fn neighbors(&self, v: VertexId, dir: Dir) -> Neighbors<'_> {
        self.run(v, dir).iter(&self.arena)
    }

    /// The neighbors of `v` along `dir` over edges labeled exactly `label`:
    /// a sorted, duplicate-free group, borrowed from the graph's arena —
    /// what the intersection kernels read in place and
    /// [`crate::contains_sorted`] probes.
    #[inline]
    pub fn group(&self, v: VertexId, dir: Dir, label: LabelId) -> &[VertexId] {
        self.run(v, dir).group(&self.arena, label)
    }

    /// The wildcard's group: appends to `buf` the neighbors of `v` along
    /// `dir` over every label that `keep` accepts, ascending and each once —
    /// a neighbor joined by edges of several labels is kept once.
    #[inline]
    pub fn collect_any(
        &self,
        v: VertexId,
        dir: Dir,
        keep: impl FnMut(VertexId) -> bool,
        buf: &mut Vec<VertexId>,
    ) {
        self.run(v, dir).collect_any(&self.arena, keep, buf);
    }

    /// The number of edges at `v` along `dir`.
    #[inline]
    pub fn degree(&self, v: VertexId, dir: Dir) -> usize {
        self.run(v, dir).len(&self.arena)
    }

    /// The distinct labels of `v`'s edges along `dir` with their group
    /// sizes, in label order.
    #[inline]
    pub fn label_runs(&self, v: VertexId, dir: Dir) -> impl Iterator<Item = (LabelId, usize)> + '_ {
        self.run(v, dir).label_runs(&self.arena)
    }

    /// True iff `v`'s edges along `dir` are stored as a label directory
    /// rather than one flat run (diagnostics / tests).
    pub fn is_directory(&self, v: VertexId, dir: Dir) -> bool {
        self.run(v, dir).is_directory()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_sets.len() as u32).map(VertexId)
    }

    /// Iterates over all live edges in `(src, label, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.vertices().flat_map(move |src| {
            self.neighbors(src, Dir::Out).map(move |(dst, label)| EdgeRef { src, label, dst })
        })
    }

    /// Number of live edges carrying `label`.
    pub fn edge_label_count(&self, label: LabelId) -> usize {
        self.edge_label_counts.get(label.index()).copied().unwrap_or(0)
    }

    /// Number of vertices whose label set contains `label` (maintained on
    /// vertex creation; vertex labels are immutable).
    pub fn vertex_label_count(&self, label: LabelId) -> usize {
        self.vertex_label_counts.get(label.index()).copied().unwrap_or(0)
    }

    /// Applies an update operation. Returns `true` if the graph changed.
    pub fn apply(&mut self, op: &UpdateOp) -> bool {
        match op {
            UpdateOp::AddVertex { id, labels } => self.ensure_vertex(*id, labels),
            UpdateOp::InsertEdge { src, label, dst } => self.insert_edge(*src, *label, *dst),
            UpdateOp::DeleteEdge { src, label, dst } => self.delete_edge(*src, *label, *dst),
        }
    }

    /// Heap bytes the graph holds, exactly: every vector is charged at its
    /// capacity — the set ids, the distinct sets and their index, the handle
    /// pairs, the arena, the counters — so the figure is what the process
    /// reserves, and a fixpoint under self-inverting churn once every free
    /// list has been warmed.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vertex_sets.capacity() * size_of::<SetId>()
            + self.sets.resident_bytes()
            + self.runs.capacity() * size_of::<[Adjacency; 2]>()
            + self.arena.resident_bytes()
            + (self.edge_label_counts.capacity() + self.vertex_label_counts.capacity())
                * size_of::<usize>()
    }

    /// Arena occupancy, how many runs use which layout, and how many
    /// distinct label sets the vertices share.
    pub fn storage_stats(&self) -> StorageStats {
        let runs = || self.runs.iter().flatten();
        StorageStats {
            live_slots: self.arena.live_slots(),
            free_slots: self.arena.free_slots(),
            carved_entries: self.arena.carved_entries(),
            inline_runs: runs().filter(|r| r.is_inline()).count(),
            flat_runs: runs().filter(|r| r.is_flat()).count(),
            directory_runs: runs().filter(|r| r.is_directory()).count(),
            label_sets: self.sets.len(),
        }
    }

    /// Asserts the storage invariants (test support): the runs' slots and
    /// the free lists tile the arena exactly, every run enumerates sorted at
    /// its recorded length in the layout its size calls for, every flat
    /// run's headers name its groups (labels ascending, none empty, lengths
    /// summing to the run's), every set id
    /// names a stored set, and the in-runs mirror the out-runs' `edge_count`
    /// edges. A run of one entry is inline by its encoding and owns no slot,
    /// so one that kept its slot fails the tiling as a leak.
    pub fn validate(&self) {
        self.arena.validate(self.runs.iter().flatten().flat_map(|r| r.slots(&self.arena)));
        for (v, run) in self.runs.iter().flatten().enumerate() {
            run.check_headers(&self.arena);
            let got: Vec<_> = run.iter(&self.arena).map(|(w, l)| (l, w)).collect();
            assert!(got.windows(2).all(|w| w[0] < w[1]), "a run of v{} is unsorted", v / 2);
            let len = run.len(&self.arena);
            assert_eq!(got.len(), len, "a run of v{}: length drifted", v / 2);
            assert!(run.is_directory() || len <= FLAT_MAX, "v{}: oversized flat run", v / 2);
            assert!(!run.is_directory() || len * 2 > FLAT_MAX, "v{}: unfolded", v / 2);
        }
        let sets = self.sets.len();
        assert!(self.vertex_sets.iter().all(|&id| (id as usize) < sets), "a set id dangles");
        for e in self.edges() {
            let mirror = self.group(e.dst, Dir::In, e.label);
            assert!(contains_sorted(mirror, e.src), "{e:?} has no in-run entry");
        }
        let degrees =
            |dir: usize| self.runs.iter().map(|pair| pair[dir].len(&self.arena)).sum::<usize>();
        assert_eq!([degrees(OUT), degrees(IN)], [self.edge_count; 2], "edge counter drifted");
    }
}

impl std::fmt::Debug for DynamicGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynamicGraph {{ vertices: {}, edges: {} }}",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    fn labeled_graph(n: usize) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for i in 0..n {
            g.add_vertex(LabelSet::single(l(i as u32 % 3)));
        }
        g
    }

    #[test]
    fn insert_and_query_edges() {
        let mut g = labeled_graph(3);
        assert!(g.insert_edge(VertexId(0), l(7), VertexId(1)));
        assert!(!g.insert_edge(VertexId(0), l(7), VertexId(1)), "duplicate");
        assert!(g.insert_edge(VertexId(0), l(8), VertexId(1)), "parallel other label");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(VertexId(0), l(7), VertexId(1)));
        assert!(!g.has_edge(VertexId(1), l(7), VertexId(0)), "directed");
        assert!(g.has_edge_matching(VertexId(0), VertexId(1), None));
        assert!(g.has_edge_matching(VertexId(0), VertexId(1), Some(l(8))));
        assert!(!g.has_edge_matching(VertexId(0), VertexId(1), Some(l(9))));
        assert_eq!(g.count_edges_matching(VertexId(0), VertexId(1), None), 2);
        assert_eq!(g.degree(VertexId(0), Dir::Out), 2);
        assert_eq!(g.degree(VertexId(1), Dir::In), 2);
        assert_eq!(g.degree(VertexId(0), Dir::In), 0);
        assert_eq!(g.edge_label_count(l(7)), 1);
        assert_eq!(g.group(VertexId(0), Dir::Out, l(7)).len(), 1);
        assert_eq!(g.group(VertexId(1), Dir::In, l(8)).len(), 1);
        assert!(!g.group(VertexId(0), Dir::Out, l(8)).is_empty());
        assert!(g.group(VertexId(0), Dir::Out, l(9)).is_empty());
        assert!(!g.group(VertexId(1), Dir::In, l(7)).is_empty());
        assert!(g.group(VertexId(0), Dir::In, l(7)).is_empty());
    }

    #[test]
    fn delete_edges() {
        let mut g = labeled_graph(3);
        g.insert_edge(VertexId(0), l(1), VertexId(1));
        g.insert_edge(VertexId(0), l(1), VertexId(2));
        assert!(g.delete_edge(VertexId(0), l(1), VertexId(1)));
        assert!(!g.delete_edge(VertexId(0), l(1), VertexId(1)), "already gone");
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(VertexId(0), l(1), VertexId(1)));
        assert!(g.has_edge(VertexId(0), l(1), VertexId(2)));
        let out: Vec<_> = g.neighbors(VertexId(0), Dir::Out).collect();
        assert_eq!(out, vec![(VertexId(2), l(1))]);
        assert_eq!(g.neighbors(VertexId(1), Dir::In).count(), 0);
        assert_eq!(g.edge_label_count(l(1)), 1);
    }

    #[test]
    fn delete_parallel_labeled_edge_on_directory_vertex() {
        // A hub with enough fan-out to become a directory, plus several
        // parallel edges (distinct labels) to the same neighbor. Deleting
        // one must leave the others intact and touch only its own group.
        let fan = FLAT_MAX + 8;
        let mut g = labeled_graph(2 + fan);
        let hub = VertexId(0);
        let peer = VertexId(1);
        for i in 0..fan as u32 {
            g.insert_edge(hub, l(50), VertexId(2 + i));
        }
        for lab in [10, 11, 12] {
            g.insert_edge(hub, l(lab), peer);
        }
        assert!(g.is_directory(hub, Dir::Out) && !g.is_directory(peer, Dir::In));
        assert_eq!(g.count_edges_matching(hub, peer, None), 3);

        assert!(g.delete_edge(hub, l(11), peer));
        assert!(!g.delete_edge(hub, l(11), peer), "already gone");
        assert!(g.has_edge(hub, l(10), peer));
        assert!(g.has_edge(hub, l(12), peer));
        assert!(!g.has_edge(hub, l(11), peer));
        assert_eq!(g.count_edges_matching(hub, peer, None), 2);
        assert_eq!(g.degree(hub, Dir::Out), fan + 2);
        assert_eq!(g.group(hub, Dir::Out, l(50)).len(), fan, "other group untouched");
        assert!(g.group(peer, Dir::In, l(11)).is_empty());
        assert_eq!(g.group(peer, Dir::In, l(10)), [hub]);
        assert!(g.insert_edge(hub, l(11), peer));
        assert_eq!(g.count_edges_matching(hub, peer, None), 3);
        g.validate();
    }

    /// Every reader takes an id at or past `vertex_count()` as a vertex
    /// without edges: empty, 0 or false, never a panic.
    #[test]
    fn unknown_endpoints_are_absent_edges_not_panics() {
        let mut g = labeled_graph(2);
        g.insert_edge(VertexId(0), l(1), VertexId(1));
        for (s, d) in [(0, 7), (7, 0), (7, 9), (0, 2), (2, 1)] {
            let (s, d) = (VertexId(s), VertexId(d));
            assert!(!g.has_edge(s, l(1), d));
            assert!(!g.has_edge_matching(s, d, None));
            assert_eq!(g.count_edges_matching(s, d, None), 0);
            assert_eq!(g.count_edges_matching(s, d, Some(l(1))), 0);
            assert!(!g.delete_edge(s, l(1), d));
            assert!(!g.apply(&UpdateOp::DeleteEdge { src: s, label: l(1), dst: d }));
        }
        let mut buf = vec![VertexId(0)];
        for v in [2, 7, u32::MAX].map(VertexId) {
            assert!(!g.contains_vertex(v));
            for dir in [Dir::Out, Dir::In] {
                assert_eq!(g.neighbors(v, dir).count(), 0);
                assert!(g.group(v, dir, l(1)).is_empty());
                assert_eq!(g.degree(v, dir), 0);
                assert_eq!(g.label_runs(v, dir).count(), 0);
                assert!(!g.is_directory(v, dir));
                g.collect_any(v, dir, |_| true, &mut buf);
                for stage in 0..3 {
                    g.prefetch_group(v, dir, stage);
                }
            }
        }
        assert_eq!(buf, [VertexId(0)], "the collector appended nothing");
        assert_eq!((g.vertex_count(), g.edge_count()), (2, 1));
    }

    /// A hint takes any id at any stage, over every layout — an empty graph,
    /// empty runs, flat runs, a hub's directory — and leaves the graph as it
    /// found it.
    #[test]
    fn prefetch_edge_accepts_anything_and_changes_nothing() {
        let hint_all = |g: &DynamicGraph| {
            for (s, d) in [(0, 1), (1, 0), (0, 0), (0, 900), (900, 0), (900, 901)] {
                for stage in 0..4 {
                    g.prefetch_edge(VertexId(s), VertexId(d), stage);
                }
            }
        };
        hint_all(&DynamicGraph::new());
        let mut g = labeled_graph(2 * FLAT_MAX + 2);
        hint_all(&g);
        for i in 1..=2 * FLAT_MAX as u32 {
            g.insert_edge(VertexId(0), l(1 + i % 2), VertexId(i));
            g.insert_edge(VertexId(i), l(1), VertexId(1));
        }
        assert!(g.is_directory(VertexId(0), Dir::Out) && g.is_directory(VertexId(1), Dir::In));
        let before: Vec<EdgeRef> = g.edges().collect();
        hint_all(&g);
        assert!(g.edges().eq(before));
        g.validate();
    }

    #[test]
    fn vertex_label_counts_track_creation() {
        let g = labeled_graph(7); // labels 0,1,2 round-robin
        assert_eq!(g.vertex_label_count(l(0)), 3);
        assert_eq!(g.vertex_label_count(l(1)), 2);
        assert_eq!(g.vertex_label_count(l(2)), 2);
        assert_eq!(g.vertex_label_count(l(3)), 0);
    }

    #[test]
    fn ensure_vertex_fills_gaps() {
        let mut g = DynamicGraph::new();
        assert!(g.ensure_vertex(VertexId(3), LabelSet::single(l(5))));
        assert_eq!(g.vertex_count(), 4);
        assert!(g.labels(VertexId(0)).is_empty());
        assert!(g.labels(VertexId(3)).contains(l(5)));
        assert_eq!(g.vertex_label_count(l(5)), 1);
        assert!(!g.ensure_vertex(VertexId(2), LabelSet::single(l(9))), "exists");
        assert!(g.labels(VertexId(2)).is_empty(), "labels unchanged");
        assert_eq!(g.vertex_label_count(l(9)), 0);
    }

    #[test]
    fn apply_ops() {
        let mut g = DynamicGraph::new();
        assert!(g.apply(&UpdateOp::AddVertex { id: VertexId(0), labels: LabelSet::empty() }));
        assert!(g.apply(&UpdateOp::AddVertex { id: VertexId(1), labels: LabelSet::empty() }));
        assert!(g.apply(&UpdateOp::InsertEdge { src: VertexId(0), label: l(0), dst: VertexId(1) }));
        assert!(g.apply(&UpdateOp::DeleteEdge { src: VertexId(0), label: l(0), dst: VertexId(1) }));
        assert!(!g.apply(&UpdateOp::DeleteEdge {
            src: VertexId(0),
            label: l(0),
            dst: VertexId(1)
        }));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn edges_iterate_in_src_label_dst_order() {
        let mut g = labeled_graph(4);
        for (s, lab, d) in [(2, 0, 3), (0, 1, 1), (1, 0, 2), (0, 0, 3), (0, 0, 1), (2, 0, 0)] {
            g.insert_edge(VertexId(s), l(lab), VertexId(d));
        }
        g.delete_edge(VertexId(1), l(0), VertexId(2));
        let e = |s, lab, d| EdgeRef::new(VertexId(s), l(lab), VertexId(d));
        let want = vec![e(0, 0, 1), e(0, 0, 3), e(0, 1, 1), e(2, 0, 0), e(2, 0, 3)];
        assert_eq!(g.edges().collect::<Vec<_>>(), want);
    }
}
