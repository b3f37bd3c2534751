//! Sliding windows: turning an insert stream into insert + expiry-delete ops.
//!
//! The paper's streaming workloads never delete explicitly — a Netflow flow
//! is simply *old* at some point. A [`SlidingWindow`] makes that expiry
//! concrete: it forwards every incoming op and additionally emits
//! `DeleteEdge` ops for stream-inserted edges that leave the window, so a
//! downstream engine sees an ordinary insert/delete stream.
//!
//! # Semantics
//!
//! * **Time window** (`width`): an edge inserted at time `t` is valid over
//!   `[t, t + width)`; it expires as soon as an event with `ts >= t + width`
//!   arrives. Expiry deletes are emitted *before* the op of the event that
//!   triggered them.
//! * **Count window** (`capacity`): the window holds the most recent
//!   `capacity` live stream inserts; pushing one more evicts the oldest
//!   (an exactly-full window evicts nothing).
//! * **Eviction order** is FIFO in arrival order — among equal timestamps
//!   the earlier-pushed edge leaves first — so output is deterministic.
//! * **Duplicate (parallel) stream inserts** of the same `(src, label, dst)`
//!   are tracked as separate window entries, but the expiry delete is only
//!   emitted when the *last* live instance leaves: the data graph has edge
//!   set semantics, so deleting while a duplicate is still inside the
//!   window would kill an edge that logically remains.
//! * **Upstream explicit deletes** cancel every live instance of the edge
//!   immediately (the delete op passes through); the cancelled entries are
//!   discarded silently when they later reach the window boundary, so an
//!   edge is never double-deleted. Once they outnumber both the live entries
//!   and 64, a delete drops them all from the window at once, so a stream
//!   that deletes what it inserts holds no more than it keeps live.
//! * Vertex arrivals and deletes of edges the window never saw (e.g. `g0`
//!   edges) pass through untouched; vertices do not expire.
//!
//! Only stream inserts are windowed: the initial graph `g0` is standing
//! state, exactly like a `CREATE`-loaded warehouse before a `WSCAN` starts.
//!
//! # What the window keeps
//!
//! An entry is retained only while something can ask for it back: a time or
//! count bound (expiry), or an end-of-stream [`SlidingWindow::drain`]. An
//! [`WindowSpec::Unbounded`] window that will never be drained — which
//! [`crate::StreamDriver::new`] knows from its `BatchPolicy::drain_at_end` —
//! is *forward-only*: it passes every op through and records nothing, so
//! its memory does not grow with the stream and [`SlidingWindow::live_len`]
//! reads 0.

use std::collections::hash_map::Entry as Slot;
use std::collections::VecDeque;

use rustc_hash::FxHashMap;
use tfx_graph::{LabelId, UpdateOp, VertexId};

use crate::event::StreamEvent;

/// What bounds the window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowSpec {
    /// No expiry; the window only forwards ops (and still de-duplicates
    /// nothing — it is a pass-through). Its inserts are retained for an
    /// end-of-stream drain, unless the driver knows there will be none.
    Unbounded,
    /// Edges live for `width` ticks: valid over `[ts, ts + width)`.
    Time {
        /// Window width in ticks (≥ 1).
        width: u64,
    },
    /// The most recent `capacity` live stream inserts.
    Count {
        /// Maximum number of live entries (≥ 1).
        capacity: usize,
    },
}

impl WindowSpec {
    /// Parses `time:<width>` / `count:<capacity>` / `none`.
    pub fn parse(s: &str) -> Option<WindowSpec> {
        if s == "none" {
            return Some(WindowSpec::Unbounded);
        }
        let (kind, n) = s.split_once(':')?;
        match kind {
            "time" => n.parse().ok().filter(|&w| w >= 1).map(|width| WindowSpec::Time { width }),
            "count" => {
                n.parse().ok().filter(|&c| c >= 1).map(|capacity| WindowSpec::Count { capacity })
            }
            _ => None,
        }
    }
}

type EdgeKey = (VertexId, LabelId, VertexId);

/// One windowed stream insert.
#[derive(Clone, Copy, Debug)]
struct Entry {
    ts: u64,
    key: EdgeKey,
}

/// A sliding-window manager over one event stream.
///
/// Feed events in timestamp order with [`SlidingWindow::push`]; every op to
/// forward downstream (expiry deletes first, then the event's own op) is
/// appended to the caller's buffer.
pub struct SlidingWindow {
    spec: WindowSpec,
    /// Window entries in arrival (FIFO) order, including cancelled ones: after
    /// a delete those number at most `max(live_total, 64)`. Without them a
    /// count window's ring doubles up to `capacity + 1` entries, not past.
    entries: VecDeque<Entry>,
    /// Live (not cancelled) instance count per edge.
    live: FxHashMap<EdgeKey, u32>,
    /// Entries still in the deque whose edge was explicitly deleted
    /// upstream: discarded on arrival at the boundary, no delete emitted.
    cancelled: FxHashMap<EdgeKey, u32>,
    /// Total live entries (deque length minus cancelled entries).
    live_total: usize,
    /// Expiry deletes emitted so far.
    expired: u64,
    /// False for a forward-only window: inserts are forwarded, not recorded.
    retain: bool,
}

impl SlidingWindow {
    /// A window with the given bound.
    pub fn new(spec: WindowSpec) -> Self {
        if let WindowSpec::Time { width } = spec {
            assert!(width >= 1, "time windows need width >= 1");
        }
        if let WindowSpec::Count { capacity } = spec {
            assert!(capacity >= 1, "count windows need capacity >= 1");
        }
        SlidingWindow {
            spec,
            entries: VecDeque::new(),
            live: FxHashMap::default(),
            cancelled: FxHashMap::default(),
            live_total: 0,
            expired: 0,
            retain: true,
        }
    }

    /// Tells an unbounded window that nobody will [`Self::drain`] it: with no
    /// bound either, no entry can ever be asked back, and it stops recording
    /// them. A bounded window needs its entries and is left as it is.
    pub(crate) fn forward_only(&mut self) {
        debug_assert!(self.entries.is_empty(), "decided before the first event");
        self.retain = self.spec != WindowSpec::Unbounded;
    }

    /// Number of live stream inserts currently inside the window: 0 for a
    /// forward-only window (an unbounded one under a driver that does not
    /// drain at end of stream), which records none.
    pub fn live_len(&self) -> usize {
        self.live_total
    }

    /// Expiry deletes emitted so far (excludes pass-through deletes).
    pub fn expired_count(&self) -> u64 {
        self.expired
    }

    /// Feeds one event; appends the ops to forward (expiry deletes, then
    /// the event's own op) to `out`. Events must arrive in non-decreasing
    /// timestamp order.
    pub fn push(&mut self, ev: &StreamEvent, out: &mut Vec<UpdateOp>) {
        if let WindowSpec::Time { width } = self.spec {
            self.expire_older_than(ev.ts, width, out);
        }
        match ev.op {
            UpdateOp::AddVertex { .. } => out.push(ev.op.clone()),
            UpdateOp::InsertEdge { src, label, dst } => {
                out.push(ev.op.clone());
                if !self.retain {
                    return;
                }
                let key = (src, label, dst);
                if let WindowSpec::Count { capacity } = self.spec {
                    // A full window holds one entry more for a moment — the
                    // insert goes in before the oldest goes out —, so the
                    // ring doubles up to `capacity + 1` and no further
                    // (unless cancelled entries crowd it).
                    let len = self.entries.len();
                    if len == self.entries.capacity() && len <= capacity {
                        self.entries
                            .reserve_exact((2 * len).max(4).min(capacity.saturating_add(1)) - len);
                    }
                }
                self.entries.push_back(Entry { ts: ev.ts, key });
                *self.live.entry(key).or_insert(0) += 1;
                self.live_total += 1;
                if let WindowSpec::Count { capacity } = self.spec {
                    while self.live_total > capacity {
                        self.evict_oldest_live(out);
                    }
                }
            }
            UpdateOp::DeleteEdge { src, label, dst } => {
                let key = (src, label, dst);
                if let Some(n) = self.live.remove(&key) {
                    *self.cancelled.entry(key).or_insert(0) += n;
                    self.live_total -= n as usize;
                    if self.entries.len() - self.live_total > self.live_total.max(64) {
                        self.drop_cancelled();
                    }
                }
                out.push(ev.op.clone());
            }
        }
    }

    /// Expires every remaining live entry in FIFO order (end-of-stream
    /// teardown; makes a windowed run leave an engine holding only `g0`
    /// plus pass-through state).
    pub fn drain(&mut self, out: &mut Vec<UpdateOp>) {
        while self.live_total > 0 {
            self.evict_oldest_live(out);
        }
        self.entries.clear();
        self.cancelled.clear();
    }

    /// Drops every cancelled entry. A delete cancels every live instance of
    /// its edge, so a key's cancelled entries are its oldest ones: dropping
    /// the first `cancelled[key]` entries of each key, front to back, drops
    /// exactly them. Called once cancelled entries outnumber
    /// `max(live_total, 64)`, so its cost is amortized O(1) per insert.
    fn drop_cancelled(&mut self) {
        let cancelled = &mut self.cancelled;
        self.entries.retain(|e| match cancelled.get_mut(&e.key) {
            Some(c) if *c > 0 => {
                *c -= 1;
                false
            }
            _ => true,
        });
        cancelled.clear();
        debug_assert_eq!(self.entries.len(), self.live_total);
    }

    /// Pops entries with `ts + width <= now`, emitting deletes for edges
    /// whose last live instance leaves.
    fn expire_older_than(&mut self, now: u64, width: u64, out: &mut Vec<UpdateOp>) {
        while let Some(front) = self.entries.front() {
            if front.ts.saturating_add(width) > now {
                break;
            }
            let e = *front;
            self.entries.pop_front();
            self.retire(e.key, out);
        }
    }

    /// Pops the oldest entry that is still live (discarding cancelled ones
    /// on the way), emitting its delete if it was the last instance.
    fn evict_oldest_live(&mut self, out: &mut Vec<UpdateOp>) {
        debug_assert!(self.live_total > 0);
        while let Some(e) = self.entries.pop_front() {
            let was_live = self.retire(e.key, out);
            if was_live {
                return;
            }
        }
        unreachable!("live_total > 0 implies a live entry in the deque");
    }

    /// Retires one popped entry: cancelled entries are discarded, live ones
    /// decrement their instance count and emit the delete when it reaches
    /// zero. Returns whether the entry was live. Unless something is
    /// cancelled, that is one probe of `live`.
    fn retire(&mut self, key: EdgeKey, out: &mut Vec<UpdateOp>) -> bool {
        if !self.cancelled.is_empty() {
            if let Slot::Occupied(mut c) = self.cancelled.entry(key) {
                *c.get_mut() -= 1;
                if *c.get() == 0 {
                    c.remove();
                }
                return false;
            }
        }
        let Slot::Occupied(mut n) = self.live.entry(key) else {
            unreachable!("an uncancelled entry is live")
        };
        *n.get_mut() -= 1;
        self.live_total -= 1;
        if *n.get() == 0 {
            n.remove();
            self.expired += 1;
            out.push(UpdateOp::DeleteEdge { src: key.0, label: key.1, dst: key.2 });
        }
        true
    }

    /// The ring's capacity, in entries (test support).
    #[cfg(test)]
    fn ring_capacity(&self) -> usize {
        self.entries.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::LabelSet;

    fn ins(ts: u64, s: u32, d: u32) -> StreamEvent {
        StreamEvent::new(
            ts,
            UpdateOp::InsertEdge { src: VertexId(s), label: LabelId(0), dst: VertexId(d) },
        )
    }

    fn del(ts: u64, s: u32, d: u32) -> StreamEvent {
        StreamEvent::new(
            ts,
            UpdateOp::DeleteEdge { src: VertexId(s), label: LabelId(0), dst: VertexId(d) },
        )
    }

    fn del_op(s: u32, d: u32) -> UpdateOp {
        UpdateOp::DeleteEdge { src: VertexId(s), label: LabelId(0), dst: VertexId(d) }
    }

    fn ins_op(s: u32, d: u32) -> UpdateOp {
        UpdateOp::InsertEdge { src: VertexId(s), label: LabelId(0), dst: VertexId(d) }
    }

    fn run(spec: WindowSpec, events: &[StreamEvent]) -> Vec<UpdateOp> {
        let mut w = SlidingWindow::new(spec);
        let mut out = Vec::new();
        for ev in events {
            w.push(ev, &mut out);
        }
        out
    }

    #[test]
    fn time_window_expires_by_validity_interval() {
        // width 10: edge@0 valid over [0, 10), expires at the ts=10 event.
        let out = run(
            WindowSpec::Time { width: 10 },
            &[ins(0, 0, 1), ins(9, 1, 2), ins(10, 2, 3), ins(25, 3, 4)],
        );
        assert_eq!(
            out,
            vec![
                ins_op(0, 1),
                ins_op(1, 2),
                del_op(0, 1), // @10: the ts=0 edge leaves first…
                ins_op(2, 3), // …before the triggering insert
                del_op(1, 2),
                del_op(2, 3), // @25: both remaining edges expire, FIFO
                ins_op(3, 4),
            ]
        );
    }

    #[test]
    fn count_window_boundary_exactly_full_vs_overflow() {
        let evs = [ins(0, 0, 1), ins(1, 1, 2), ins(2, 2, 3)];
        // Exactly full: capacity 3 evicts nothing.
        let out = run(WindowSpec::Count { capacity: 3 }, &evs);
        assert_eq!(out, vec![ins_op(0, 1), ins_op(1, 2), ins_op(2, 3)]);
        // Overflow by one: the oldest leaves, delete *after* the insert
        // that pushed the window over (the insert happens, then the window
        // re-bounds itself).
        let out = run(WindowSpec::Count { capacity: 2 }, &evs);
        assert_eq!(out, vec![ins_op(0, 1), ins_op(1, 2), ins_op(2, 3), del_op(0, 1)]);
        let mut w = SlidingWindow::new(WindowSpec::Count { capacity: 2 });
        let mut buf = Vec::new();
        for e in &evs {
            w.push(e, &mut buf);
        }
        assert_eq!(w.live_len(), 2);
        assert_eq!(w.expired_count(), 1);
    }

    /// A count window of a power-of-two capacity `C` holds `C + 1` entries
    /// for a moment on every push once full; its deque grows by that one
    /// slot, not to `2C`. Duplicates and cancellations behave as before: a
    /// cancelled entry is passed over silently and a duplicate's delete
    /// waits for its last instance.
    #[test]
    fn a_full_power_of_two_count_window_grows_by_one_slot() {
        const C: u32 = 16;
        let deletes = |out: &[UpdateOp]| -> Vec<u32> {
            out.iter()
                .filter_map(|op| match *op {
                    UpdateOp::DeleteEdge { src, .. } => Some(src.0),
                    _ => None,
                })
                .collect()
        };
        let mut w = SlidingWindow::new(WindowSpec::Count { capacity: C as usize });
        let mut out = Vec::new();
        for i in 0..3 * C {
            w.push(&ins(i.into(), i, i + 1), &mut out);
        }
        assert!(w.ring_capacity() <= C as usize + 1, "{} slots", w.ring_capacity());
        assert_eq!(deletes(&out), (0..2 * C).collect::<Vec<_>>());
        assert_eq!(w.live_len(), C as usize);

        // The window holds `2C..3C`: cancel the oldest, duplicate the newest.
        out.clear();
        let (oldest, newest) = (2 * C, 3 * C - 1);
        w.push(&del(3 * C as u64, oldest, oldest + 1), &mut out);
        w.push(&ins(3 * C as u64, newest, newest + 1), &mut out);
        assert_eq!(out, vec![del_op(oldest, oldest + 1), ins_op(newest, newest + 1)]);
        // `C` fresh inserts push out every entry: the cancelled one without a
        // delete, the duplicate's first instance too, its second with one.
        out.clear();
        for i in 0..C {
            w.push(&ins((4 * C + i).into(), 4 * C + i, 0), &mut out);
        }
        assert_eq!(deletes(&out), (oldest + 1..=newest).collect::<Vec<_>>());
        assert_eq!(w.live_len(), C as usize);
    }

    /// A `count:N` ring doubles from nothing up to `N + 1` entries and never
    /// past them, however large `N` — an unreachable one allocates nothing
    /// up front — and whatever the duplicates among the inserts.
    #[test]
    fn a_count_ring_never_exceeds_its_window_plus_one() {
        for n in [1, 2, 3, 5, 16, 100, 1000, 1_000_000_000, usize::MAX] {
            let mut w = SlidingWindow::new(WindowSpec::Count { capacity: n });
            assert_eq!(w.ring_capacity(), 0, "count:{n} reserved up front");
            let mut out = Vec::new();
            for i in 0..3000u32 {
                w.push(&ins(i.into(), i % 700, i % 3), &mut out);
                let cap = w.ring_capacity();
                assert!(cap <= n.saturating_add(1), "count:{n}: {cap} slots");
            }
            assert_eq!(w.live_len(), n.min(3000));
            assert!(w.ring_capacity() <= 2 * w.live_len().max(4), "count:{n} over-reserved");
        }
    }

    /// A stream that deletes every edge it inserts holds a bounded ring in
    /// every retaining window, with or without an older live entry at the
    /// front, and emits what a window that kept every cancelled entry emits:
    /// the pairs pass through, and the live entry leaves at the drain.
    #[test]
    fn cancelled_entries_do_not_grow_the_ring() {
        let specs = [
            WindowSpec::Count { capacity: 1000 },
            WindowSpec::Time { width: 1 << 20 },
            WindowSpec::Unbounded,
        ];
        for front in [false, true] {
            for spec in specs {
                let mut w = SlidingWindow::new(spec);
                let (mut out, mut want) = (Vec::new(), Vec::new());
                if front {
                    w.push(&ins(0, 0, 0), &mut out);
                    want.push(ins_op(0, 0));
                }
                for i in 0..200_000u32 {
                    let (s, d) = (1 + i % 5000, i % 7);
                    w.push(&ins(i.into(), s, d), &mut out);
                    w.push(&del(i.into(), s, d), &mut out);
                    want.extend([ins_op(s, d), del_op(s, d)]);
                    assert!(w.ring_capacity() <= 128, "{spec:?}: {} slots", w.ring_capacity());
                }
                assert_eq!(w.live_len(), usize::from(front));
                w.drain(&mut out);
                want.extend(front.then(|| del_op(0, 0)));
                assert!(out == want, "{spec:?}, front {front}: the output changed");
            }
        }
    }

    #[test]
    fn duplicate_parallel_edges_expire_in_insertion_order_delete_on_last() {
        // The same edge twice in the window: evicting the first instance
        // must NOT emit a delete (the edge is still logically present).
        let out = run(
            WindowSpec::Count { capacity: 2 },
            &[ins(0, 0, 1), ins(1, 0, 1), ins(2, 5, 6), ins(3, 7, 8)],
        );
        assert_eq!(
            out,
            vec![
                ins_op(0, 1),
                ins_op(0, 1), // duplicate forwarded (engine treats as no-op)
                ins_op(5, 6),
                // evicting instance #1 of (0,1): no delete yet
                ins_op(7, 8),
                del_op(0, 1), // instance #2 leaves: now the edge is gone
            ]
        );
    }

    #[test]
    fn upstream_delete_cancels_expiry_no_double_delete() {
        let out = run(WindowSpec::Time { width: 5 }, &[ins(0, 0, 1), del(2, 0, 1), ins(7, 1, 2)]);
        // The explicit delete passes through once; the ts=0 entry reaching
        // the boundary at ts=7 is discarded silently.
        assert_eq!(out, vec![ins_op(0, 1), del_op(0, 1), ins_op(1, 2)]);

        // Same for count windows: the cancelled entry does not occupy a
        // live slot, and eviction skips it without emitting anything.
        let out = run(
            WindowSpec::Count { capacity: 2 },
            &[ins(0, 0, 1), del(1, 0, 1), ins(2, 1, 2), ins(3, 2, 3), ins(4, 3, 4)],
        );
        assert_eq!(
            out,
            vec![
                ins_op(0, 1),
                del_op(0, 1),
                ins_op(1, 2),
                ins_op(2, 3),
                ins_op(3, 4),
                del_op(1, 2), // (1,2) is the oldest *live* entry
            ]
        );
    }

    #[test]
    fn delete_after_reinsert_only_cancels_live_instances() {
        // insert, delete, re-insert: the cancelled first instance must not
        // swallow the second one's expiry.
        let out = run(
            WindowSpec::Time { width: 4 },
            &[ins(0, 0, 1), del(1, 0, 1), ins(2, 0, 1), ins(8, 9, 9)],
        );
        assert_eq!(
            out,
            vec![
                ins_op(0, 1),
                del_op(0, 1),
                ins_op(0, 1),
                del_op(0, 1), // second instance expires at ts=8 (2+4 <= 8)
                ins_op(9, 9),
            ]
        );
    }

    #[test]
    fn unbounded_window_is_a_pass_through() {
        let evs = [ins(0, 0, 1), del(100, 0, 1), ins(200, 1, 2)];
        let out = run(WindowSpec::Unbounded, &evs);
        assert_eq!(out, vec![ins_op(0, 1), del_op(0, 1), ins_op(1, 2)]);
    }

    /// Forward-only emits what a retaining unbounded window emits — inserts,
    /// duplicates, explicit deletes (of streamed and of never-seen edges) and
    /// vertex events alike — and holds nothing; a bounded window ignores the
    /// request.
    #[test]
    fn a_forward_only_window_forwards_the_same_ops_and_keeps_none() {
        let vertex =
            StreamEvent::new(3, UpdateOp::AddVertex { id: VertexId(7), labels: LabelSet::empty() });
        let evs = [
            ins(0, 0, 1),
            ins(1, 0, 1),
            del(2, 0, 1),
            vertex,
            del(4, 5, 6),
            ins(5, 0, 1),
            ins(6, 1, 2),
        ];
        let mut w = SlidingWindow::new(WindowSpec::Unbounded);
        w.forward_only();
        let mut out = Vec::new();
        for ev in &evs {
            w.push(ev, &mut out);
        }
        assert_eq!(out, run(WindowSpec::Unbounded, &evs));
        assert_eq!(out, evs.iter().map(|ev| ev.op.clone()).collect::<Vec<_>>());
        assert_eq!((w.live_len(), w.entries.len(), w.live.len(), w.cancelled.len()), (0, 0, 0, 0));
        assert_eq!(w.expired_count(), 0);

        let mut bounded = SlidingWindow::new(WindowSpec::Count { capacity: 1 });
        bounded.forward_only();
        out.clear();
        for ev in [ins(0, 0, 1), ins(1, 1, 2)] {
            bounded.push(&ev, &mut out);
        }
        assert_eq!(out, vec![ins_op(0, 1), ins_op(1, 2), del_op(0, 1)], "still evicts");
        assert_eq!(bounded.live_len(), 1);
    }

    /// Without the driver's say-so an unbounded window retains, so that a
    /// drain retracts every streamed edge still standing.
    #[test]
    fn an_unbounded_window_drains_what_it_forwarded() {
        let mut w = SlidingWindow::new(WindowSpec::Unbounded);
        let mut out = Vec::new();
        for ev in [ins(0, 0, 1), ins(1, 1, 2), del(2, 0, 1), ins(3, 2, 3)] {
            w.push(&ev, &mut out);
        }
        assert_eq!(w.live_len(), 2);
        out.clear();
        w.drain(&mut out);
        assert_eq!(out, vec![del_op(1, 2), del_op(2, 3)]);
        assert_eq!(w.live_len(), 0);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let out = run(
            WindowSpec::Time { width: 1 },
            &[ins(0, 0, 1), ins(0, 1, 2), ins(0, 2, 3), ins(1, 9, 9)],
        );
        assert_eq!(
            out,
            vec![
                ins_op(0, 1),
                ins_op(1, 2),
                ins_op(2, 3),
                del_op(0, 1),
                del_op(1, 2),
                del_op(2, 3),
                ins_op(9, 9),
            ]
        );
    }

    #[test]
    fn vertices_pass_through_and_never_expire() {
        let v =
            StreamEvent::new(0, UpdateOp::AddVertex { id: VertexId(7), labels: LabelSet::empty() });
        let out = run(WindowSpec::Time { width: 1 }, &[v.clone(), ins(5, 0, 1)]);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], UpdateOp::AddVertex { .. }));
    }

    #[test]
    fn drain_expires_everything_fifo() {
        let mut w = SlidingWindow::new(WindowSpec::Time { width: 100 });
        let mut out = Vec::new();
        for e in [ins(0, 0, 1), ins(1, 1, 2), del(2, 0, 1)] {
            w.push(&e, &mut out);
        }
        out.clear();
        w.drain(&mut out);
        assert_eq!(out, vec![del_op(1, 2)], "cancelled entry drains silently");
        assert_eq!(w.live_len(), 0);
    }
}
