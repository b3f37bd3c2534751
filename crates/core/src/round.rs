//! The round loop: the one loop a batch is applied with.
//!
//! Algorithm 2 treats an update stream one op at a time — an insertion
//! enters the graph and is then evaluated, a deletion is evaluated and then
//! leaves — so a batch is a sequence of per-op *rounds*, and [`apply`] runs
//! them:
//!
//! 1. **stage**: the op's pre-evaluation half mutates the graph ([`stage`])
//!    and plans the round ([`Round`]);
//! 2. **run**: the runtime's closure evaluates the round against the now
//!    read-only graph — one engine ([`crate::TurboFlux::apply_batch`]) or
//!    every engine the round concerns ([`crate::Fleet::apply_batch`]);
//! 3. **finalize**: the op's post-evaluation half ([`finalize`]: a deleted
//!    edge leaves the graph only after every engine evaluated it).
//!
//! Before each round the batch lookahead ([`lookahead`]) hints the graph
//! memory of the edge ops a few rounds ahead. Everything runs on the calling
//! thread (DESIGN.md, "Tried, measured, removed"), so a
//! panic in `run` unwinds through [`apply`] to the caller with every earlier
//! op fully applied.

use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp, VertexId, MAX_VERTEX_GAP};

/// One op's evaluation plan, derived by [`stage`] and handed to the
/// runtime's `run`, which only reads the graph.
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
fn stage(graph: &mut DynamicGraph, op: &UpdateOp, sees: impl Fn(LabelId) -> bool) -> Round {
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
fn finalize(graph: &mut DynamicGraph, round: &Round) {
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
fn lookahead(ops: &[UpdateOp], i: usize, mut hint: impl FnMut(VertexId, LabelId, VertexId, u8)) {
    for (stage, rounds) in [(0, 2 * LOOKAHEAD), (1, LOOKAHEAD)] {
        if let Some(
            &UpdateOp::InsertEdge { src, label, dst } | &UpdateOp::DeleteEdge { src, label, dst },
        ) = ops.get(i + rounds)
        {
            hint(src, label, dst, stage);
        }
    }
}

/// Applies `ops` in order to `graph`, one round each: the lookahead's hints
/// on the edges whose label `sees(cx, label)` accepts, [`stage`], then
/// `run(cx, op index, graph, round)` against the staged graph, then
/// [`finalize`]. `cx` is the runtime's own state, handed to both closures so
/// that neither holds a borrow of it. Inlined, so that each runtime's loop
/// compiles into its `apply_batch` (DESIGN.md, "Round driver").
#[inline]
pub(crate) fn apply<C>(
    cx: &mut C,
    graph: &mut DynamicGraph,
    ops: &[UpdateOp],
    sees: impl Fn(&C, LabelId) -> bool,
    mut run: impl FnMut(&mut C, usize, &DynamicGraph, &Round),
) {
    for (i, op) in ops.iter().enumerate() {
        lookahead(ops, i, |src, label, dst, stage| {
            if sees(cx, label) {
                graph.prefetch_edge(src, dst, stage);
            }
        });
        let round = stage(graph, op, |label| sees(cx, label));
        run(cx, i, graph, &round);
        finalize(graph, &round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// `run` sees each op staged and not yet finalized, in op order, with
    /// the `cx` it was handed; a panic in `run` reaches `apply`'s caller with
    /// every earlier op applied and the panicking op staged, not finalized.
    #[test]
    fn apply_runs_each_round_between_stage_and_finalize() {
        let mut g = graph();
        let ops = [ins(1, 2), del(0, 1), ins(0, 4), del(1, 2)];
        let mut seen = Vec::new();
        apply(
            &mut seen,
            &mut g,
            &ops,
            |_, _| true,
            |seen, i, g, round| {
                let (src, label, dst) = round.edge().expect("every op here is an edge round");
                assert!(
                    g.has_edge(src, label, dst),
                    "op {i}: the edge is in the graph while it runs"
                );
                seen.push((i, round.new_vertices()));
            },
        );
        assert_eq!(seen, [(0, None), (1, None), (2, Some(v(3))), (3, None)]);
        assert_eq!((g.vertex_count(), g.edge_count()), (5, 1));
        assert!(g.has_edge(v(0), L, v(4)));

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            apply(
                &mut (),
                &mut g,
                &[ins(2, 3), del(0, 4), ins(3, 4)],
                |_, _| true,
                |_, i, _, _| {
                    assert_ne!(i, 1, "the round of op 1 panics");
                },
            );
        }));
        assert!(unwound.is_err(), "the panic reaches apply's caller");
        assert!(g.has_edge(v(2), L, v(3)), "op 0 was applied");
        assert!(g.has_edge(v(0), L, v(4)), "op 1 was staged, not finalized");
        assert!(!g.has_edge(v(3), L, v(4)), "op 2 never staged");
    }
}
