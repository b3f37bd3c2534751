//! The round driver: the one loop a batch is applied with.
//!
//! Algorithm 2 treats an update stream one op at a time — an insertion
//! enters the graph and is then evaluated, a deletion is evaluated and then
//! leaves — so a batch is a sequence of per-op *rounds*:
//!
//! 1. **stage**: the op's pre-evaluation half mutates the graph ([`stage`])
//!    and the runtime names the round's target cells ([`route`]);
//! 2. **run**: every target cell, in ascending cell order, evaluates the
//!    round against the now read-only graph;
//! 3. **finalize**: the op's post-evaluation half ([`finalize`]: a deleted
//!    edge leaves the graph only after every cell evaluated it).
//!
//! A *cell* is one engine: one query of a [`crate::Fleet`], the one
//! implementor of [`Rounds`] outside this module's tests. The loop exists
//! here and nowhere else. [`crate::TurboFlux::apply_op`] is the same
//! protocol for one engine that owns its graph and calls [`stage`] /
//! [`finalize`] directly.
//!
//! # Determinism
//!
//! With one cell in the whole batch its emissions stream straight to the
//! sink. Otherwise they are buffered per cell — in op order, because a cell
//! runs its rounds in order; flat, an entry of fixed size plus the record's
//! vertex ids in one run per cell — and drained cell by cell after the last
//! round, so the sink sees `(cell, op, emission)` order and nothing is
//! sorted.
//!
//! Everything runs on the calling thread (DESIGN.md, "Parallel execution:
//! tried, measured, removed"), so a panic in a hook unwinds through
//! [`drive`] to the caller.

use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId, MAX_VERTEX_GAP};
use tfx_query::{MatchRecord, Positiveness};

/// One op's evaluation plan, derived by [`stage`] and executed by every
/// target cell. Rounds only read the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Round {
    /// No-op (duplicate edge, missing edge, known vertex).
    Skip,
    /// An edge op whose label is not below [`LabelId::LIMIT`], which no
    /// graph stores, or an op naming a vertex [`MAX_VERTEX_GAP`] or more past
    /// the vertex table, which would make the graph create every id below
    /// it: a skip that touches nothing, not even the endpoints, and that the
    /// runtime counts ([`crate::TurboFlux::refused_ops`],
    /// [`crate::FleetStats::ops_refused`]).
    Refused,
    /// Vertices with id ≥ `from` are new: register start candidates.
    Register { from: VertexId },
    /// The edge was inserted; vertices with id ≥ `grew` were created for it.
    Insert { grew: Option<VertexId>, src: VertexId, label: LabelId, dst: VertexId },
    /// The edge is about to be deleted; it is still present in the graph.
    Delete { src: VertexId, label: LabelId, dst: VertexId },
}

impl Round {
    /// The first vertex id the op created, if it created any.
    pub(crate) fn new_vertices(&self) -> Option<VertexId> {
        match *self {
            Round::Register { from } => Some(from),
            Round::Insert { grew, .. } => grew,
            _ => None,
        }
    }

    /// The edge an `Insert` / `Delete` round evaluates.
    pub(crate) fn edge(&self) -> Option<(VertexId, LabelId, VertexId)> {
        match *self {
            Round::Insert { src, label, dst, .. } | Round::Delete { src, label, dst } => {
                Some((src, label, dst))
            }
            _ => None,
        }
    }
}

/// Applies the half of `op` that must precede evaluation and plans the
/// round. `graph` stores only the edges whose label `sees` accepts (a
/// standalone engine's projection, [`crate::TurboFlux::new`]); an edge op on
/// any other label leaves it alone, except that an insert still creates its
/// endpoints — the vertices exist for every query, whatever their edges. An
/// edge op on a label out of range, and any op naming a vertex
/// [`MAX_VERTEX_GAP`] or more past the vertex table, is [`Round::Refused`]
/// before it reaches the graph: a parsed stream cannot carry one (the
/// interner hands out no such label, the text source refuses such an id), a
/// library caller's `UpdateOp` can.
pub(crate) fn stage(
    graph: &mut DynamicGraph,
    op: &UpdateOp,
    sees: impl Fn(LabelId) -> bool,
) -> Round {
    let from = VertexId(graph.vertex_count() as u32);
    let top = match *op {
        UpdateOp::AddVertex { id, .. } => id,
        UpdateOp::InsertEdge { src, dst, .. } | UpdateOp::DeleteEdge { src, dst, .. } => {
            src.max(dst)
        }
    };
    if u64::from(top.0) >= u64::from(from.0) + u64::from(MAX_VERTEX_GAP) {
        return Round::Refused;
    }
    match *op {
        UpdateOp::InsertEdge { label, .. } | UpdateOp::DeleteEdge { label, .. }
            if label.0 >= LabelId::LIMIT =>
        {
            Round::Refused
        }
        UpdateOp::AddVertex { id, ref labels } => {
            if graph.ensure_vertex(id, labels) {
                Round::Register { from }
            } else {
                Round::Skip
            }
        }
        UpdateOp::InsertEdge { src, label, dst } => {
            // Streams normally announce vertices via `AddVertex`; tolerate
            // label-less stragglers by creating empty-labeled endpoints.
            let hi = src.0.max(dst.0);
            let grew = (hi >= from.0 && graph.ensure_vertex(VertexId(hi), LabelSet::empty()))
                .then_some(from);
            if !sees(label) {
                grew.map_or(Round::Skip, |from| Round::Register { from })
            } else if graph.insert_edge(src, label, dst) {
                Round::Insert { grew, src, label, dst }
            } else {
                // A duplicate's endpoints existed with it: nothing grew.
                debug_assert!(grew.is_none());
                Round::Skip
            }
        }
        UpdateOp::DeleteEdge { src, label, dst } => {
            if sees(label) && graph.has_edge(src, label, dst) {
                Round::Delete { src, label, dst }
            } else {
                Round::Skip
            }
        }
    }
}

/// Applies the half of an op that must *follow* evaluation: deletions are
/// evaluated against the still-intact graph and DCG.
pub(crate) fn finalize(graph: &mut DynamicGraph, round: &Round) {
    if let Round::Delete { src, label, dst } = *round {
        graph.delete_edge(src, label, dst);
    }
}

/// Rounds between one hint stage of the batch lookahead and the next: long
/// enough for a line to arrive from memory, short enough that it is still
/// cached when its round runs. Not a knob — 1, 2, 3, 4, 6 and 8 measured
/// alike (DESIGN.md, "Batch lookahead").
const LOOKAHEAD: usize = 2;

/// The batch lookahead: before the round of `ops[i]`, hands `hint` the edge
/// ops that run `2·LOOKAHEAD` and `LOOKAHEAD` rounds later, at stages 0 and
/// 1 — a two-stage software pipeline over the batch in which the second
/// stage reads only what the first pulled into cache
/// ([`DynamicGraph::prefetch_edge`]), so a hint never takes the miss it is
/// there to hide. An op waits on memory for most of its round (the first
/// touch of a vertex's handles, of an adjacency slot), every one of those
/// addresses follows from `(src, dst)` and state that exists before the
/// round, and the rest of the batch is already in hand. The label only
/// decides whether the runtime stores the edge at all. A hint reads a snapshot that the
/// rounds in between may outdate (a vertex not created yet, a run that
/// moved): a wasted hint, never a wrong result — hints change nothing.
#[inline]
pub(crate) fn lookahead(
    ops: &[UpdateOp],
    i: usize,
    mut hint: impl FnMut(VertexId, LabelId, VertexId, u8),
) {
    for (stage, rounds) in [(0, 2 * LOOKAHEAD), (1, LOOKAHEAD)] {
        if let Some(
            &UpdateOp::InsertEdge { src, label, dst } | &UpdateOp::DeleteEdge { src, label, dst },
        ) = ops.get(i + rounds)
        {
            hint(src, label, dst, stage);
        }
    }
}

/// One cell to run in a round. `eval == false` restricts it to registering
/// the round's new vertices (the cell has no interest in the edge itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Target {
    pub cell: usize,
    pub eval: bool,
}

/// The routing rule, into the cleared `out` in ascending cell order: a
/// round targets the cells `interested` in its edge (ascending; cells whose
/// query has an edge the op can match) and, when the op created vertices,
/// every cell — start-candidate registration is root-*vertex*-label work,
/// not edge-label work. A cell left out provably has nothing to do.
pub(crate) fn route(
    round: &Round,
    ncells: usize,
    interested: impl Iterator<Item = usize>,
    out: &mut Vec<Target>,
) {
    out.clear();
    if round.new_vertices().is_some() {
        let mut interested = interested.peekable();
        out.extend(
            (0..ncells).map(|cell| Target { cell, eval: interested.next_if_eq(&cell).is_some() }),
        );
    } else if round.edge().is_some() {
        out.extend(interested.map(|cell| Target { cell, eval: true }));
    }
}

/// What a runtime supplies to [`drive`].
pub(crate) trait Rounds {
    type Cell;

    /// The runtime's part of the batch lookahead ([`lookahead`]): hints, at
    /// `stage`, what a coming round of an edge `src → dst` will touch. The
    /// fleet hints the graph its engines share and leaves their DCGs alone —
    /// hinting those too measured slower (DESIGN.md, "Batch lookahead"), so
    /// the hook is not handed the cells.
    fn hint(&self, src: VertexId, dst: VertexId, stage: u8);

    /// Stages `op` (graph mutation via [`stage`] plus whatever the runtime
    /// keeps in step with the graph) and fills `targets` (via [`route`])
    /// from the `ncells` cells.
    fn stage(&mut self, op: &UpdateOp, ncells: usize, targets: &mut Vec<Target>) -> Round;

    /// Evaluates `round` on one target cell, reporting through `emit`.
    fn run<S>(&self, cell: &mut Self::Cell, target: Target, round: &Round, emit: &mut S)
    where
        S: FnMut(Positiveness, &MatchRecord) + ?Sized;

    /// Finalizes the round (via [`finalize`]) once every target ran.
    fn finalize(&mut self, round: &Round);
}

/// A buffered emission: its record is the next `len` words of its cell's
/// buffer.
struct Pending {
    op: u32,
    p: Positiveness,
    len: u8,
}

/// One cell's buffered emissions, in emission order: fixed-size entries
/// over one flat run of vertex ids — no allocation per delta.
#[derive(Default)]
struct CellBuf {
    pend: Vec<Pending>,
    words: Vec<VertexId>,
}

/// The buffers [`drive`] works in. A runtime keeps one for its lifetime, so
/// a batch allocates only where it outgrows every batch before it.
#[derive(Default)]
pub(crate) struct DeltaBufs {
    cells: Vec<CellBuf>,
    /// The record every buffered emission is delivered through.
    rec: MatchRecord,
    targets: Vec<Target>,
}

/// Applies `ops` in order, one round each, and delivers every emission to
/// `sink(cell, op index, positiveness, record)` in `(cell, op, emission)`
/// order.
pub(crate) fn drive<R, S>(
    rt: &mut R,
    cells: &mut [R::Cell],
    bufs: &mut DeltaBufs,
    ops: &[UpdateOp],
    sink: &mut S,
) where
    R: Rounds,
    S: FnMut(usize, usize, Positiveness, &MatchRecord) + ?Sized,
{
    // One cell in total: op order is output order, nothing to buffer.
    let direct = cells.len() == 1;
    let DeltaBufs { cells: bufs, rec, targets } = bufs;
    bufs.resize_with(cells.len(), CellBuf::default);
    // Cleared here, not after delivery: a batch that unwound leaves nothing
    // for the next one to deliver.
    for buf in bufs.iter_mut() {
        buf.pend.clear();
        buf.words.clear();
    }
    for (op_index, op) in ops.iter().enumerate() {
        lookahead(ops, op_index, |src, _, dst, stage| rt.hint(src, dst, stage));
        let round = rt.stage(op, cells.len(), targets);
        for &target in targets.iter() {
            let cell = &mut cells[target.cell];
            if direct {
                rt.run(cell, target, &round, &mut |p, rec| sink(0, op_index, p, rec));
            } else {
                let CellBuf { pend, words } = &mut bufs[target.cell];
                rt.run(cell, target, &round, &mut |p, rec| {
                    let len = u8::try_from(rec.len()).expect("a query has at most 64 vertices");
                    words.extend_from_slice(rec.as_slice());
                    pend.push(Pending { op: op_index as u32, p, len });
                });
            }
        }
        rt.finalize(&round);
    }
    for (cell, buf) in bufs.iter().enumerate() {
        let mut words = &buf.words[..];
        for d in &buf.pend {
            let (record, rest) = words.split_at(d.len as usize);
            rec.fill_from_slice(record);
            sink(cell, d.op as usize, d.p, rec);
            words = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const L: LabelId = LabelId(7);

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn ins(src: u32, dst: u32) -> UpdateOp {
        UpdateOp::InsertEdge { src: v(src), label: L, dst: v(dst) }
    }

    fn del(src: u32, dst: u32) -> UpdateOp {
        UpdateOp::DeleteEdge { src: v(src), label: L, dst: v(dst) }
    }

    /// Three labeled vertices and the edge 0 → 1.
    fn graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for _ in 0..3 {
            g.add_vertex(LabelSet::single(LabelId(0)));
        }
        g.insert_edge(v(0), L, v(1));
        g
    }

    /// The `sees` of a graph that stores every label (a `Fleet`'s).
    fn all(_: LabelId) -> bool {
        true
    }

    #[test]
    fn stages_like_algorithm_2() {
        let mut g = graph();
        let edge = |src, dst| (v(src), L, v(dst));
        // A new edge enters the graph at stage, and stays at finalize.
        let round = stage(&mut g, &ins(1, 2), all);
        assert_eq!(round, Round::Insert { grew: None, src: v(1), label: L, dst: v(2) });
        assert_eq!((round.edge(), round.new_vertices()), (Some(edge(1, 2)), None));
        finalize(&mut g, &round);
        assert!(g.has_edge(v(1), L, v(2)));
        // Duplicate insert: nothing to evaluate.
        assert_eq!(stage(&mut g, &ins(0, 1), all), Round::Skip);
        // A straggler endpoint is created label-less, gap ids included.
        let round = stage(&mut g, &ins(0, 5), all);
        assert_eq!(round, Round::Insert { grew: Some(v(3)), src: v(0), label: L, dst: v(5) });
        assert_eq!(g.vertex_count(), 6);
        // Its duplicate cannot create a vertex (the edge had both ends), so
        // an insert never degrades to a `Register` round.
        assert_eq!(stage(&mut g, &ins(0, 5), all), Round::Skip);
        // A deletion is planned at stage and leaves only at finalize.
        let round = stage(&mut g, &del(0, 1), all);
        assert_eq!(round, Round::Delete { src: v(0), label: L, dst: v(1) });
        assert!(g.has_edge(v(0), L, v(1)), "still present while cells evaluate it");
        finalize(&mut g, &round);
        assert!(!g.has_edge(v(0), L, v(1)));
        // Missing delete, known vertex: skips. New vertex: register.
        assert_eq!(stage(&mut g, &del(0, 1), all), Round::Skip);
        // A delete naming vertices no line ever created is a missing edge
        // too: it skips, panics nowhere and creates nothing.
        for (src, dst) in [(0, 90), (90, 0), (90, 91)] {
            assert_eq!(stage(&mut g, &del(src, dst), all), Round::Skip);
        }
        assert_eq!(g.vertex_count(), 6);
        let add = |id| UpdateOp::AddVertex { id: v(id), labels: LabelSet::empty() };
        assert_eq!(stage(&mut g, &add(2), all), Round::Skip);
        assert_eq!(stage(&mut g, &add(7), all), Round::Register { from: v(6) });
        assert_eq!(Round::Register { from: v(6) }.new_vertices(), Some(v(6)));
    }

    /// An edge op on a label past [`LabelId::LIMIT`] is refused before the
    /// graph sees it: no edge, no endpoints, no counter grown — where the
    /// graph's per-label counter table used to grow to the label's index.
    #[test]
    fn out_of_range_labels_are_refused_and_touch_nothing() {
        let mut g = graph();
        let resident = g.resident_bytes();
        for label in [LabelId::LIMIT, u32::MAX] {
            let (src, dst, label) = (v(0), v(9), LabelId(label));
            for op in
                [UpdateOp::InsertEdge { src, label, dst }, UpdateOp::DeleteEdge { src, label, dst }]
            {
                assert_eq!(stage(&mut g, &op, all), Round::Refused);
                assert_eq!(stage(&mut g, &op, |_| false), Round::Refused);
            }
        }
        assert_eq!((g.vertex_count(), g.edge_count(), g.resident_bytes()), (3, 1, resident));
        let mut out = vec![Target { cell: 0, eval: true }];
        route(&Round::Refused, 2, [0, 1].into_iter(), &mut out);
        assert!(out.is_empty(), "a refused op reaches no cell");
    }

    /// An op naming a vertex `MAX_VERTEX_GAP` or more past the vertex table
    /// is refused before the graph sees it — an insert, a vertex, even a
    /// delete — and nothing grows; one id short of the gap is an op like any
    /// other.
    #[test]
    fn vertex_ids_far_past_the_table_are_refused_and_touch_nothing() {
        let mut g = graph();
        let resident = g.resident_bytes();
        let far = 3 + MAX_VERTEX_GAP;
        let add = |id| UpdateOp::AddVertex { id: v(id), labels: LabelSet::empty() };
        for op in [ins(0, far), ins(far, 1), del(far, 0), del(1, u32::MAX), add(far), add(u32::MAX)]
        {
            assert_eq!(stage(&mut g, &op, all), Round::Refused, "{op:?}");
            assert_eq!(stage(&mut g, &op, |_| false), Round::Refused, "{op:?}");
        }
        assert_eq!((g.vertex_count(), g.edge_count(), g.resident_bytes()), (3, 1, resident));
        let round = stage(&mut g, &ins(0, far - 1), all);
        assert_eq!(round, Round::Insert { grew: Some(v(3)), src: v(0), label: L, dst: v(far - 1) });
        assert_eq!(g.vertex_count(), far as usize);
    }

    /// An edge op on a label the graph does not store leaves the graph's
    /// edges alone: an insert only creates its endpoints, a delete skips.
    #[test]
    fn ops_on_unseen_labels_only_grow_vertices() {
        let mut g = graph();
        let sees = |label: LabelId| label != L;
        assert_eq!(stage(&mut g, &ins(1, 2), sees), Round::Skip, "both ends exist");
        assert_eq!(stage(&mut g, &ins(2, 4), sees), Round::Register { from: v(3) });
        assert_eq!(stage(&mut g, &ins(4, 2), sees), Round::Skip, "a repeat creates nothing");
        assert_eq!(stage(&mut g, &del(0, 1), sees), Round::Skip, "even though it is stored");
        assert_eq!((g.vertex_count(), g.edge_count()), (5, 1));
        assert!(g.has_edge(v(0), L, v(1)) && !g.has_edge(v(1), L, v(2)));
    }

    /// Before round `i` the lookahead hints the edge ops 2·d and d rounds
    /// ahead at stages 0 and 1 — so every edge op far enough into the batch
    /// passes through both, in stage order, before its round — skips vertex
    /// ops, and stops at the end of the batch.
    #[test]
    fn lookahead_hints_each_edge_op_once_per_stage_ahead_of_its_round() {
        let mut ops: Vec<UpdateOp> = (0..40).map(|i| ins(i, i + 1)).collect();
        ops[13] = UpdateOp::AddVertex { id: v(99), labels: LabelSet::empty() };
        ops[20] = del(20, 21);
        let mut seen = vec![Vec::new(); ops.len()];
        for i in 0..ops.len() {
            lookahead(&ops, i, |src, label, dst, stage| {
                assert_eq!((label, dst.0), (L, src.0 + 1));
                seen[src.index()].push((stage, i));
            });
        }
        for (at, hints) in seen.iter().enumerate() {
            let d = LOOKAHEAD;
            let want: Vec<(u8, usize)> = [(0, 2 * d), (1, d)]
                .into_iter()
                .filter(|&(_, ahead)| at >= ahead && at != 13)
                .map(|(stage, ahead)| (stage, at - ahead))
                .collect();
            assert_eq!(hints, &want, "op {at}");
        }
        lookahead(&[], 0, |_, _, _, _| panic!("an empty batch hints nothing"));
        lookahead(&ops[..LOOKAHEAD], 0, |_, _, _, _| panic!("nor does one shorter than d"));
    }

    #[test]
    fn route_targets_the_interested_and_whoever_must_register() {
        let mut out = vec![Target { cell: 9, eval: true }];
        let edge = Round::Delete { src: v(0), label: L, dst: v(1) };
        route(&edge, 4, [1, 3].into_iter(), &mut out);
        assert_eq!(out, [Target { cell: 1, eval: true }, Target { cell: 3, eval: true }]);
        let grew = Round::Insert { grew: Some(v(2)), src: v(0), label: L, dst: v(2) };
        route(&grew, 3, [1].into_iter(), &mut out);
        assert_eq!(out.iter().map(|t| t.eval).collect::<Vec<_>>(), [false, true, false]);
        route(&Round::Register { from: v(2) }, 2, [].into_iter(), &mut out);
        assert_eq!(out, [Target { cell: 0, eval: false }, Target { cell: 1, eval: false }]);
        route(&Round::Skip, 2, [].into_iter(), &mut out);
        assert!(out.is_empty());
    }

    /// A runtime that only records: op `i` targets the cells whose bit is
    /// set in `masks[i]`, and on every visit cell `c` emits the records
    /// `(op, c, k)` for `k` in `0..2`, padded to `3 + c` ids.
    struct Toy {
        masks: Vec<u32>,
        /// The op whose `run` panics, if any.
        panic_on: Option<usize>,
        op: usize,
        /// Targets of the staged round still to run.
        pending: Cell<usize>,
        staged: Vec<usize>,
        finalized: Vec<usize>,
    }

    impl Toy {
        fn new(masks: &[u32], panic_on: Option<usize>) -> (Toy, Vec<UpdateOp>) {
            let ops = (0..masks.len() as u32)
                .map(|i| UpdateOp::AddVertex { id: v(i), labels: LabelSet::empty() })
                .collect();
            let toy = Toy {
                masks: masks.to_vec(),
                panic_on,
                op: 0,
                pending: Cell::new(0),
                staged: vec![],
                finalized: vec![],
            };
            (toy, ops)
        }
    }

    impl Rounds for Toy {
        type Cell = Vec<usize>;

        fn hint(&self, _: VertexId, _: VertexId, _: u8) {
            panic!("toy ops are AddVertex: nothing to hint");
        }

        fn stage(&mut self, op: &UpdateOp, ncells: usize, targets: &mut Vec<Target>) -> Round {
            let UpdateOp::AddVertex { id, .. } = op else { panic!("toy ops are AddVertex") };
            self.op = id.0 as usize;
            self.staged.push(self.op);
            let mask = self.masks[self.op];
            let round = Round::Delete { src: v(0), label: L, dst: v(0) };
            route(&round, ncells, (0..ncells).filter(|c| mask >> c & 1 == 1), targets);
            self.pending.set(targets.len());
            round
        }

        fn run<S>(&self, cell: &mut Vec<usize>, target: Target, _: &Round, emit: &mut S)
        where
            S: FnMut(Positiveness, &MatchRecord) + ?Sized,
        {
            assert_ne!(Some(self.op), self.panic_on, "the toy's cell panics on this op");
            cell.push(self.op);
            let (op, at) = (v(self.op as u32), v(target.cell as u32));
            let pad = vec![v(99); target.cell];
            for k in 0..2 {
                let rec = MatchRecord::new([&[op, at, v(k)], &pad[..]].concat());
                emit(Positiveness::Positive, &rec);
            }
            self.pending.set(self.pending.get() - 1);
        }

        fn finalize(&mut self, _: &Round) {
            assert_eq!(self.pending.get(), 0, "finalize waits for every target");
            self.finalized.push(self.op);
        }
    }

    /// Drives the toy over `ncells` cells through `bufs`; returns per-cell
    /// visits and the emitted `(cell, op, k)` sequence.
    #[allow(clippy::type_complexity)]
    fn toy_run(
        masks: &[u32],
        ncells: usize,
        bufs: &mut DeltaBufs,
    ) -> (Vec<Vec<usize>>, Vec<(usize, usize, u32)>) {
        let (mut toy, ops) = Toy::new(masks, None);
        let mut cells = vec![Vec::new(); ncells];
        let mut out = Vec::new();
        drive(&mut toy, &mut cells, bufs, &ops, &mut |c, op, _, rec| {
            let rec = rec.as_slice();
            assert_eq!((rec[0], rec[1]), (v(op as u32), v(c as u32)), "tagged with op and cell");
            assert_eq!(rec.len(), 3 + c, "cell {c}'s record length");
            out.push((c, op, rec[2].0));
        });
        let all: Vec<usize> = (0..masks.len()).collect();
        assert_eq!((&toy.staged, &toy.finalized), (&all, &all), "every op staged and finalized");
        (cells, out)
    }

    /// Cells of different record lengths share a batch, and a warm
    /// `DeltaBufs` carries nothing over from the batch before.
    #[test]
    fn rounds_visit_their_targets_in_op_order_and_deliver_cell_by_cell() {
        // Empty, single-target and multi-target rounds, mixed.
        let masks: [u32; 9] =
            [0b0000, 0b0100, 0b1111, 0b0000, 0b0011, 0b1000, 0b1010, 0b0001, 0b0111];
        let mut bufs = DeltaBufs::default();
        for _ in 0..2 {
            let (cells, out) = toy_run(&masks, 4, &mut bufs);
            for (c, visits) in cells.iter().enumerate() {
                let want: Vec<usize> =
                    (0..masks.len()).filter(|&i| masks[i] >> c & 1 == 1).collect();
                assert_eq!(visits, &want, "cell {c} runs exactly its rounds, in op order");
            }
            // (cell, op, emission) ascending.
            let mut want = Vec::new();
            for c in 0..4 {
                for op in (0..masks.len()).filter(|&op| masks[op] >> c & 1 == 1) {
                    want.extend((0..2).map(|k| (c, op, k)));
                }
            }
            assert_eq!(out, want);
        }
    }

    #[test]
    fn a_sole_cell_streams_in_op_order() {
        let (cells, out) = toy_run(&[1, 0, 1, 1], 1, &mut DeltaBufs::default());
        assert_eq!(cells, [vec![0, 2, 3]]);
        assert_eq!(out, [(0, 0, 0), (0, 0, 1), (0, 2, 0), (0, 2, 1), (0, 3, 0), (0, 3, 1)]);
        let empty = toy_run(&[], 3, &mut DeltaBufs::default()).1;
        assert!(empty.is_empty(), "an empty batch emits nothing");
    }

    /// A hook's panic reaches `drive`'s caller — nothing swallows it or is
    /// left waiting for the cell — with every earlier op fully applied.
    #[test]
    fn a_panicking_cell_unwinds_out_of_drive() {
        const K: usize = 3;
        let (mut toy, ops) = Toy::new(&[0b01, 0b11, 0b10, 0b11, 0b01], Some(K));
        let mut cells = vec![Vec::new(); 2];
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            drive(&mut toy, &mut cells, &mut DeltaBufs::default(), &ops, &mut |_, _, _, _| {});
        }));
        assert!(unwound.is_err(), "the cell's panic reaches drive's caller");
        assert_eq!(toy.staged, [0, 1, 2, K], "op K was staged, nothing after it");
        assert_eq!(toy.finalized, [0, 1, 2], "every op before K ran to its finalize");
        assert_eq!(cells, [vec![0, 1], vec![1, 2]], "and visited exactly its targets");
    }
}
