//! `DetermineMatchingOrder` and `AdjustMatchingOrder` (§4.1).
//!
//! Given the DCG, the number of explicit data paths per query path can be
//! estimated from the per-query-vertex explicit-edge counts. The paper's
//! greedy strategy shrinks the query tree one leaf at a time, always
//! removing the leaf whose subtree-expansion (branch factor) is largest, so
//! the *reversed* removal sequence visits low-fan-out vertices early and
//! minimizes `Σ c(T_i)`, the number of recursive calls. Removing leaves
//! only guarantees the parent-before-child property the search requires.
//!
//! Drift detection is handled by [`OrderMaintenance`]: the counts the order
//! was derived from are snapshotted, and after every update the current
//! counts are compared against that snapshot. Only counts that actually
//! changed are examined (the DCG marks them in a dirty bitmask as part of
//! its normal counter bookkeeping); a count that did not change since its
//! last check cannot have started drifting, so the masked check accepts and
//! rejects exactly the same updates as a scan over every query vertex.

use tfx_query::QVertexId;

use crate::engine::TurboFlux;
use crate::shared_subtree::FleetCtx;

/// Snapshot-and-compare state for matching-order drift detection.
#[derive(Default, Debug, Clone)]
pub struct OrderMaintenance {
    /// Explicit counts at the time the current matching order was computed.
    snapshot: Vec<u64>,
}

impl OrderMaintenance {
    /// Captures the counts the freshly computed order was derived from.
    pub fn resnapshot(&mut self, counts: &[u64]) {
        self.snapshot.clear();
        self.snapshot.extend_from_slice(counts);
    }

    /// The captured counts (empty before the first [`Self::resnapshot`]).
    pub fn snapshot(&self) -> &[u64] {
        &self.snapshot
    }

    /// The paper's "significant change" predicate for one count: the larger
    /// side exceeds the floor and the smaller side times `factor`.
    fn pair_drifted(now: u64, then: u64, factor: f64, floor: u64) -> bool {
        let (hi, lo) = (now.max(then), now.min(then));
        hi > floor && hi as f64 > lo as f64 * factor
    }

    /// Checks only the query vertices whose bit is set in `dirty`.
    /// Equivalent to scanning every vertex as long as `dirty` covers every
    /// count changed since its last check: an unchanged count keeps its
    /// previous (non-drifted) verdict.
    pub fn drifted_masked(&self, counts: &[u64], mut dirty: u64, factor: f64, floor: u64) -> bool {
        debug_assert_eq!(counts.len(), self.snapshot.len());
        while dirty != 0 {
            let i = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            if i < self.snapshot.len()
                && Self::pair_drifted(counts[i], self.snapshot[i], factor, floor)
            {
                return true;
            }
        }
        false
    }
}

impl TurboFlux {
    /// Estimated branch factor of `u` over the effective counts: explicit
    /// edges labeled `u` per explicit edge labeled `P(u)`.
    fn branch_factor(&self, u: QVertexId, counts: &[u64]) -> f64 {
        let own = counts[u.index()] as f64;
        let parent = self.tree.parent(u).expect("called on non-root only");
        let pc = counts[parent.index()].max(1) as f64;
        own / pc
    }

    /// Refreshes `counts_buf` with the effective per-vertex explicit
    /// counts: the engine's own counts, with bound-branch vertices patched
    /// from their shared instance and the root patched from the derived
    /// start-edge cache. The cache is recounted only when `dirty` touches a
    /// root child (the derived root count is a function of root-child
    /// state, so an untouched mask means it cannot have moved).
    pub(crate) fn refresh_effective_counts(&mut self, fleet: FleetCtx<'_>, dirty: u64) {
        self.counts_buf.clear();
        self.counts_buf.extend_from_slice(self.dcg.expl_counts());
        if !self.has_shared_branches() {
            return;
        }
        let sub = fleet.subtrees();
        for (i, bn) in self.branch_nodes.iter().enumerate() {
            if let Some((inst, iu)) = *bn {
                self.counts_buf[i] = sub.eng(inst).dcg.expl_counts()[iu.index()];
            }
        }
        let root = self.tree.root();
        if dirty & self.child_mask[root.index()] != 0 {
            let mut n = 0u64;
            for (v, _) in self.dcg.root_entries() {
                if self.st_match_all_children(fleet, v, root) {
                    n += 1;
                }
            }
            self.root_expl_cache = n;
        }
        self.counts_buf[root.index()] = self.root_expl_cache;
    }

    /// Drains this engine's dirty bits and folds in the bound instances'
    /// last-op dirty bits (mapped back to this engine's vertex ids) plus
    /// the derived root bit when any root child was touched.
    pub(crate) fn collect_dirty(&mut self, fleet: FleetCtx<'_>) -> u64 {
        let mut dirty = self.dcg.take_dirty_expl();
        if !self.has_shared_branches() {
            return dirty;
        }
        let sub = fleet.subtrees();
        for (i, bn) in self.branch_nodes.iter().enumerate() {
            if let Some((inst, iu)) = *bn {
                if sub.last_dirty(inst) & (1 << iu.0) != 0 {
                    dirty |= 1 << i;
                }
            }
        }
        let root = self.tree.root();
        if dirty & self.child_mask[root.index()] != 0 {
            dirty |= 1 << root.0;
        }
        dirty
    }

    /// Recomputes the matching order from current effective DCG statistics
    /// and snapshots the statistics for drift detection.
    pub(crate) fn recompute_matching_order(&mut self, fleet: FleetCtx<'_>) {
        self.refresh_effective_counts(fleet, u64::MAX);
        let counts = std::mem::take(&mut self.counts_buf);
        let n = self.q.vertex_count();
        let root = self.tree.root();
        let mut present = vec![true; n];
        let mut removal: Vec<QVertexId> = Vec::with_capacity(n - 1);
        for _ in 1..n {
            // Leaves of the current (shrunk) tree, excluding the root.
            let leaf = self
                .q
                .vertices()
                .filter(|&u| u != root && present[u.index()])
                .filter(|&u| self.tree.children(u).iter().all(|c| !present[c.index()]))
                .max_by(|&a, &b| {
                    self.branch_factor(a, &counts)
                        .partial_cmp(&self.branch_factor(b, &counts))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                })
                .expect("a rooted tree with >1 vertex has a non-root leaf");
            present[leaf.index()] = false;
            removal.push(leaf);
        }
        let mut mo = Vec::with_capacity(n);
        mo.push(root);
        mo.extend(removal.into_iter().rev());
        debug_assert_eq!(mo.len(), n);
        self.mo = mo;
        self.order_maint.resnapshot(&counts);
        self.counts_buf = counts;
        // The snapshot is current again; pending dirty bits are moot.
        self.dcg.take_dirty_expl();
    }

    /// `AdjustMatchingOrder` for standalone engines (no fleet stores in
    /// play). Engines with bound branches must go through
    /// [`TurboFlux::maybe_adjust_order_in`] — the fleet driver calls it at
    /// op finalize with the subtree store.
    pub(crate) fn maybe_adjust_order(&mut self) {
        debug_assert!(!self.has_shared_branches());
        self.maybe_adjust_order_in(FleetCtx::NONE);
    }

    /// `AdjustMatchingOrder`: recomputes the order when any effective
    /// per-vertex explicit count drifted beyond the configured factor since
    /// the last computation.
    pub(crate) fn maybe_adjust_order_in(&mut self, fleet: FleetCtx<'_>) {
        if !self.cfg.adjust_matching_order {
            return;
        }
        let dirty = self.collect_dirty(fleet);
        if dirty == 0 {
            return;
        }
        let (factor, floor) = (self.cfg.order_drift_factor, self.cfg.order_drift_floor);
        self.refresh_effective_counts(fleet, dirty);
        if self.order_maint.drifted_masked(&self.counts_buf, dirty, factor, floor) {
            self.recompute_matching_order(fleet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_detects_drift_above_floor_and_factor() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[10, 100, 0]);
        // Within factor 2 of the snapshot: no drift.
        assert!(!om.drifted_masked(&[19, 100, 0], 0b111, 2.0, 4));
        // Count 0 doubled past the factor and the floor.
        assert!(om.drifted_masked(&[21, 100, 0], 0b111, 2.0, 4));
        // Shrinking counts drift symmetrically.
        assert!(om.drifted_masked(&[10, 40, 0], 0b111, 2.0, 4));
        // Under the floor nothing drifts, however large the ratio.
        assert!(!om.drifted_masked(&[3, 100, 0], 0b111, 2.0, 12));
        assert!(om.drifted_masked(&[10, 100, 5], 0b111, 2.0, 4));
    }

    #[test]
    fn masked_scan_only_inspects_dirty_bits() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[10, 100, 0]);
        let drifted = [30u64, 100, 0]; // vertex 0 drifted
        assert!(om.drifted_masked(&drifted, 0b001, 2.0, 4));
        // A mask excluding the drifted vertex must not report drift (by
        // contract it is only sound when the excluded counts are
        // unchanged; this asserts the masking itself).
        assert!(!om.drifted_masked(&drifted, 0b110, 2.0, 4));
        assert!(!om.drifted_masked(&drifted, 0, 2.0, 4));
    }

    #[test]
    fn masked_equals_full_when_mask_covers_changes() {
        // Property sweep: for counts derived from the snapshot by changing
        // an arbitrary subset (= the dirty mask), masked == full.
        let snapshot = [5u64, 64, 200, 0];
        let mut om = OrderMaintenance::default();
        om.resnapshot(&snapshot);
        let deltas: [i64; 4] = [3, 70, -150, 1];
        for mask in 0u64..16 {
            let mut counts = snapshot;
            for (i, c) in counts.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *c = c.checked_add_signed(deltas[i]).unwrap();
                }
            }
            let full = counts
                .iter()
                .zip(&snapshot)
                .any(|(&now, &then)| OrderMaintenance::pair_drifted(now, then, 2.0, 16));
            assert_eq!(om.drifted_masked(&counts, mask, 2.0, 16), full, "mask {mask:#b}");
        }
    }

    #[test]
    fn resnapshot_replaces_previous_state() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[1, 2]);
        om.resnapshot(&[500, 600]);
        assert_eq!(om.snapshot(), &[500, 600]);
        assert!(!om.drifted_masked(&[500, 600], 0b11, 2.0, 0));
    }
}
