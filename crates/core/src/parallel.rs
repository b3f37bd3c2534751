//! Intra-update parallel match enumeration.
//!
//! PR 1's [`crate::fleet::Fleet`] parallelizes *across* queries and ops,
//! but each individual update still ran a single-threaded `SubgraphSearch`
//! — one match-exploding insertion dominated tail latency. This module
//! parallelizes *within* one update: at the shallowest unbound depth of
//! the matching order the explicit DCG out-edge frontier (or, for initial
//! reporting, the explicit root-candidate set) is split into contiguous
//! chunks evaluated by scoped worker threads, each with its own pooled
//! [`SearchScratch`] and delta buffer.
//!
//! # Determinism
//!
//! Sequential enumeration emits, for each frontier candidate in slice
//! order, that candidate's subtree matches in recursion order. Workers
//! claim *chunk indices* off an atomic cursor, process the candidates of a
//! chunk in slice order into the buffer belonging to that chunk, and the
//! driver replays the buffers in chunk-index order after the scope joins.
//! Claiming order is racy; emission order is not — the output is
//! byte-identical to the sequential path regardless of thread count or
//! scheduling. The only cross-thread nondeterminism is wall-clock deadline
//! latching, which already marks results incomplete.
//!
//! # Why sharing `&TurboFlux` is safe
//!
//! `SubgraphSearch` only reads engine state (DCG, query, tree, matching
//! order, config); all DCG transitions happen in `BuildUpwardsAndEval` /
//! `ClearUpwardsAndEval` strictly *between* searches, on the driver
//! thread. The engine-side mutable search state (deadline step counter and
//! hit latch) is atomic, so `TurboFlux: Sync` and scoped workers can
//! search concurrently over one `&self`.
//!
//! # Cost model
//!
//! Spawning scoped threads is not free, so narrow frontiers
//! (`parallel_min_frontier`) fall back to the sequential path, which stays
//! allocation-free. Wide frontiers amortize the spawn over many candidate
//! subtrees; per-worker scratches and per-chunk delta buffers come from a
//! [`ScratchPool`] and are returned after the merge, so repeated explosive
//! updates reuse their high-water capacities instead of reallocating.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tfx_graph::{GraphView, VertexId};
use tfx_query::{MatchRecord, Positiveness, QVertexId};

use crate::dcg::EdgeState;
use crate::engine::TurboFlux;
use crate::scratch::SearchScratch;
use crate::search::SearchCtx;

/// Chunks handed out per worker: >1 so a worker that drew an explosive
/// candidate range does not convoy the others (cheap work stealing), small
/// enough that per-chunk buffers stay coarse.
const CHUNKS_PER_WORKER: usize = 4;

/// Flattened per-chunk delta buffer: positiveness tags plus the complete
/// mappings laid out back-to-back (`nq` vertices per record). Reused
/// across parallel invocations via the [`ScratchPool`].
#[derive(Default, Debug)]
pub(crate) struct DeltaBuf {
    pos: Vec<Positiveness>,
    verts: Vec<VertexId>,
}

impl DeltaBuf {
    /// Buffers one complete solution.
    #[inline]
    fn push(&mut self, p: Positiveness, rec: &MatchRecord) {
        self.pos.push(p);
        self.verts.extend_from_slice(rec.as_slice());
    }

    /// Streams the buffered solutions into `sink` in buffered order,
    /// through the caller's reusable record.
    fn replay(
        &self,
        nq: usize,
        rec: &mut MatchRecord,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        debug_assert_eq!(self.verts.len(), self.pos.len() * nq);
        for (i, &p) in self.pos.iter().enumerate() {
            rec.fill_from_slice(&self.verts[i * nq..(i + 1) * nq]);
            sink(p, rec);
        }
    }

    fn clear(&mut self) {
        self.pos.clear();
        self.verts.clear();
    }
}

/// Reusable resources for parallel fan-out: worker scratches and per-chunk
/// delta buffers. Checked out under `&self` (the engine is shared across
/// workers), so both sides sit behind (uncontended-by-construction)
/// mutexes: scratches are popped once per worker, buffers are taken and
/// returned by the driver around each fan-out.
#[derive(Default)]
pub(crate) struct ScratchPool {
    scratches: Mutex<Vec<SearchScratch>>,
    bufs: Mutex<Vec<DeltaBuf>>,
}

impl ScratchPool {
    fn take_scratch(&self) -> SearchScratch {
        self.scratches.lock().unwrap().pop().unwrap_or_default()
    }

    fn put_scratch(&self, s: SearchScratch) {
        self.scratches.lock().unwrap().push(s);
    }

    /// Takes the pooled buffer vector, sized (up) to `n` cleared buffers.
    fn take_bufs(&self, n: usize) -> Vec<DeltaBuf> {
        let mut bufs = std::mem::take(&mut *self.bufs.lock().unwrap());
        bufs.resize_with(n.max(bufs.len()), Default::default);
        bufs
    }

    fn put_bufs(&self, mut bufs: Vec<DeltaBuf>) {
        for b in &mut bufs {
            b.clear();
        }
        *self.bufs.lock().unwrap() = bufs;
    }
}

/// Even contiguous split: bounds of chunk `c` of `nchunks` over `len`
/// items. Concatenating all chunks in index order reproduces `0..len`.
#[inline]
fn chunk_bounds(len: usize, nchunks: usize, c: usize) -> (usize, usize) {
    (c * len / nchunks, (c + 1) * len / nchunks)
}

impl TurboFlux {
    /// Runs `SubgraphSearch` from depth 0 over the pre-bound embedding in
    /// `scratch`, fanning the shallowest unbound frontier out across
    /// worker threads when the engine is configured for it and the
    /// frontier is wide enough; falls back to the plain sequential search
    /// otherwise. Emission is byte-identical either way.
    pub(crate) fn search_from_root<G: GraphView>(
        &self,
        g: &G,
        ctx: &SearchCtx,
        scratch: &mut SearchScratch,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        let workers = self.intra_workers();
        if workers > 1 {
            if let Some((depth, u, vp)) = self.parallel_split_point(scratch) {
                return self.search_split(g, ctx, depth, u, vp, scratch, workers, sink);
            }
        }
        self.subgraph_search(g, 0, ctx, scratch, sink);
    }

    /// The shallowest matching-order depth whose query vertex is unbound,
    /// if its explicit DCG frontier is wide enough to fan out. `None`
    /// falls back to the sequential search (fully pre-bound embedding,
    /// unbound root, or a narrow frontier).
    fn parallel_split_point(
        &self,
        scratch: &SearchScratch,
    ) -> Option<(usize, QVertexId, VertexId)> {
        let depth = (0..self.mo.len()).find(|&d| scratch.m[self.mo[d].index()].is_none())?;
        let u = self.mo[depth];
        let vp = scratch.m[self.tree.parent(u)?.index()]?;
        (self.dcg.out_expl_count(vp, u) >= self.cfg.parallel_min_frontier.max(2))
            .then_some((depth, u, vp))
    }

    /// Parallel `SubgraphSearch`: validates the pre-bound prefix once,
    /// then splits the explicit out-edge frontier of `(vp, u)` at `depth`
    /// across workers.
    #[allow(clippy::too_many_arguments)]
    fn search_split<G: GraphView>(
        &self,
        g: &G,
        ctx: &SearchCtx,
        depth: usize,
        u: QVertexId,
        vp: VertexId,
        scratch: &mut SearchScratch,
        workers: usize,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        // The sequential search re-validates pre-bound vertices depth by
        // depth before reaching the first enumeration; do the same checks
        // once up front — any failure means no solutions at all.
        for d in 0..depth {
            let w = self.mo[d];
            let v = scratch.m[w.index()].expect("prefix below the split depth is bound");
            let ok = if w == self.tree.root() {
                self.dcg.root_state(v) == Some(EdgeState::Explicit)
            } else {
                let wp = scratch.m[self.tree.parent(w).expect("non-root").index()]
                    .expect("parent precedes child in matching order");
                self.tree_binding_ok(g, ctx, w, wp, v)
            };
            if !ok || !self.is_joinable(g, ctx, w, v, scratch) {
                return;
            }
        }
        let frontier = self.dcg.out_edge_slice(vp, u);
        self.fan_out(g, scratch, workers, frontier.len(), sink, &|ws, buf, lo, hi| {
            for &(v, st) in &frontier[lo..hi] {
                if st == EdgeState::Explicit {
                    self.expand_candidate(g, ctx, depth, u, vp, v, ws, &mut |p, r| buf.push(p, r));
                }
            }
        });
    }

    /// Parallel initial reporting: splits the explicit root-candidate set
    /// across workers; each candidate's search runs exactly as in the
    /// sequential loop of [`TurboFlux::initial_matches_in`].
    pub(crate) fn search_chunked_roots<G: GraphView>(
        &self,
        g: &G,
        ctx: &SearchCtx,
        candidates: &[VertexId],
        scratch: &mut SearchScratch,
        workers: usize,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
    ) {
        let us = self.tree.root();
        self.fan_out(g, scratch, workers, candidates.len(), sink, &|ws, buf, lo, hi| {
            for &vs in &candidates[lo..hi] {
                ws.bind(us, vs);
                self.subgraph_search(g, 0, ctx, ws, &mut |p, r| buf.push(p, r));
                ws.unbind(us);
            }
        });
    }

    /// The shared fan-out harness: splits `0..len` into contiguous chunks,
    /// lets scoped workers claim chunks off an atomic cursor and run
    /// `body` over each chunk's range into that chunk's buffer, then
    /// replays the buffers in chunk order into `sink`. Worker scratches
    /// are seeded from (and buffers replayed through) the driver's
    /// `scratch`.
    fn fan_out<G: GraphView>(
        &self,
        g: &G,
        scratch: &mut SearchScratch,
        workers: usize,
        len: usize,
        sink: &mut dyn FnMut(Positiveness, &MatchRecord),
        body: &(dyn Fn(&mut SearchScratch, &mut DeltaBuf, usize, usize) + Sync),
    ) {
        debug_assert!(workers > 1);
        if len == 0 {
            return;
        }
        let nchunks = len.min(workers * CHUNKS_PER_WORKER);
        let nworkers = workers.min(nchunks);
        let mut bufs = self.pool.take_bufs(nchunks);
        {
            let slots: Vec<Mutex<&mut DeltaBuf>> = bufs.iter_mut().map(Mutex::new).collect();
            let cursor = AtomicUsize::new(0);
            let seed: &SearchScratch = scratch;
            std::thread::scope(|s| {
                for _ in 0..nworkers {
                    s.spawn(|| {
                        let mut ws = self.pool.take_scratch();
                        ws.copy_bindings_from(seed);
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= nchunks {
                                break;
                            }
                            let (lo, hi) = chunk_bounds(len, nchunks, c);
                            let mut slot = slots[c].lock().unwrap();
                            body(&mut ws, &mut slot, lo, hi);
                        }
                        self.pool.put_scratch(ws);
                    });
                }
            });
        }
        let _ = g; // the graph is only read through `body`'s captures
        let nq = scratch.m.len();
        for buf in &bufs[..nchunks] {
            buf.replay(nq, &mut scratch.rec, sink);
        }
        self.pool.put_bufs(bufs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_contiguously() {
        for len in [0usize, 1, 7, 16, 1000] {
            for nchunks in 1..=9 {
                let mut next = 0;
                for c in 0..nchunks {
                    let (lo, hi) = chunk_bounds(len, nchunks, c);
                    assert_eq!(lo, next, "len {len} chunks {nchunks}");
                    assert!(hi >= lo);
                    next = hi;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn delta_buf_replays_in_order() {
        let mut buf = DeltaBuf::default();
        let a = MatchRecord::new(vec![VertexId(1), VertexId(2)]);
        let b = MatchRecord::new(vec![VertexId(3), VertexId(4)]);
        buf.push(Positiveness::Positive, &a);
        buf.push(Positiveness::Negative, &b);
        let mut rec = MatchRecord::default();
        let mut got = Vec::new();
        buf.replay(2, &mut rec, &mut |p, r| got.push((p, r.clone())));
        assert_eq!(got, vec![(Positiveness::Positive, a), (Positiveness::Negative, b)]);
        buf.clear();
        let mut n = 0;
        buf.replay(2, &mut rec, &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn pool_recycles_buffers_and_scratches() {
        let pool = ScratchPool::default();
        let mut bufs = pool.take_bufs(3);
        assert_eq!(bufs.len(), 3);
        bufs[0].push(Positiveness::Positive, &MatchRecord::new(vec![VertexId(9)]));
        let cap = bufs[0].pos.capacity();
        pool.put_bufs(bufs);
        let bufs = pool.take_bufs(2);
        assert!(bufs.len() >= 2);
        assert!(bufs[0].pos.is_empty(), "returned buffers are cleared");
        assert_eq!(bufs[0].pos.capacity(), cap, "capacity is retained");
        pool.put_bufs(bufs);

        let mut s = pool.take_scratch();
        s.kids.push(VertexId(1));
        pool.put_scratch(s);
        let s = pool.take_scratch();
        assert!(s.kids.capacity() >= 1, "scratch storage is recycled");
    }
}
