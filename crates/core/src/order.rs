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

/// Drift factor that triggers an order recomputation (paper: "a significant
/// change"; we use 2×).
const DRIFT_FACTOR: f64 = 2.0;

/// Count floor below which drift is ignored (avoids churn on tiny counts).
const DRIFT_FLOOR: u64 = 64;

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
    /// side exceeds [`DRIFT_FLOOR`] and the smaller side times
    /// [`DRIFT_FACTOR`].
    fn pair_drifted(now: u64, then: u64) -> bool {
        let (hi, lo) = (now.max(then), now.min(then));
        hi > DRIFT_FLOOR && hi as f64 > lo as f64 * DRIFT_FACTOR
    }

    /// Checks only the query vertices whose bit is set in `dirty`.
    /// Equivalent to scanning every vertex as long as `dirty` covers every
    /// count changed since its last check: an unchanged count keeps its
    /// previous (non-drifted) verdict.
    pub fn drifted_masked(&self, counts: &[u64], mut dirty: u64) -> bool {
        debug_assert_eq!(counts.len(), self.snapshot.len());
        while dirty != 0 {
            let i = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            if i < self.snapshot.len() && Self::pair_drifted(counts[i], self.snapshot[i]) {
                return true;
            }
        }
        false
    }
}

impl TurboFlux {
    /// Estimated branch factor of `u`: explicit edges labeled `u` per
    /// explicit edge labeled `P(u)`.
    fn branch_factor(&self, u: QVertexId, counts: &[u64]) -> f64 {
        let own = counts[u.index()] as f64;
        let parent = self.tree.parent(u).expect("called on non-root only");
        let pc = counts[parent.index()].max(1) as f64;
        own / pc
    }

    /// Recomputes the matching order from current DCG statistics and
    /// snapshots the statistics for drift detection.
    pub(crate) fn recompute_matching_order(&mut self) {
        let counts = self.dcg.expl_counts();
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
                    self.branch_factor(a, counts)
                        .partial_cmp(&self.branch_factor(b, counts))
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
        self.order_maint.resnapshot(counts);
        self.mo = mo;
        // The snapshot is current again; pending dirty bits are moot.
        self.dcg.take_dirty_expl();
    }

    /// `AdjustMatchingOrder`: recomputes the order when any per-vertex
    /// explicit count drifted beyond [`DRIFT_FACTOR`] since the last
    /// computation.
    pub(crate) fn maybe_adjust_order(&mut self) {
        if !self.cfg.adjust_matching_order {
            return;
        }
        let dirty = self.dcg.take_dirty_expl();
        if dirty != 0 && self.order_maint.drifted_masked(self.dcg.expl_counts(), dirty) {
            self.recompute_matching_order();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_detects_drift_above_floor_and_factor() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[100, 1000, 0]);
        // Within factor 2 of the snapshot: no drift.
        assert!(!om.drifted_masked(&[199, 1000, 0], 0b111));
        // Count 0 doubled past the factor and the floor.
        assert!(om.drifted_masked(&[201, 1000, 0], 0b111));
        // Shrinking counts drift symmetrically.
        assert!(om.drifted_masked(&[100, 400, 0], 0b111));
        // Under the floor nothing drifts, however large the ratio.
        assert!(!om.drifted_masked(&[100, 1000, DRIFT_FLOOR], 0b111));
        assert!(om.drifted_masked(&[100, 1000, DRIFT_FLOOR + 1], 0b111));
    }

    #[test]
    fn masked_scan_only_inspects_dirty_bits() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[100, 1000, 0]);
        let drifted = [300u64, 1000, 0]; // vertex 0 drifted
        assert!(om.drifted_masked(&drifted, 0b001));
        // A mask excluding the drifted vertex must not report drift (by
        // contract it is only sound when the excluded counts are
        // unchanged; this asserts the masking itself).
        assert!(!om.drifted_masked(&drifted, 0b110));
        assert!(!om.drifted_masked(&drifted, 0));
    }

    #[test]
    fn masked_equals_full_when_mask_covers_changes() {
        // Property sweep: for counts derived from the snapshot by changing
        // an arbitrary subset (= the dirty mask), masked == full.
        let snapshot = [50u64, 640, 2000, 0];
        let mut om = OrderMaintenance::default();
        om.resnapshot(&snapshot);
        let deltas: [i64; 4] = [30, 700, -1500, 10];
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
                .any(|(&now, &then)| OrderMaintenance::pair_drifted(now, then));
            assert_eq!(om.drifted_masked(&counts, mask), full, "mask {mask:#b}");
        }
    }

    #[test]
    fn resnapshot_replaces_previous_state() {
        let mut om = OrderMaintenance::default();
        om.resnapshot(&[1, 2]);
        om.resnapshot(&[500, 600]);
        assert_eq!(om.snapshot(), &[500, 600]);
        assert!(!om.drifted_masked(&[500, 600], 0b11));
    }
}
