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
//! Drift detection: the counts the order was derived from are snapshotted
//! (`TurboFlux::order_snapshot`), and after every update the current counts
//! are compared against that snapshot, one pair per query vertex (at most
//! 64, the paper's queries have ≤ 14).

use tfx_query::QVertexId;

use crate::engine::TurboFlux;

/// Drift factor that triggers an order recomputation (paper: "a significant
/// change"; we use 2×).
const DRIFT_FACTOR: f64 = 2.0;

/// Count floor below which drift is ignored (avoids churn on tiny counts).
const DRIFT_FLOOR: u64 = 64;

/// True iff any count shows the paper's "significant change" from its
/// snapshot: the larger side exceeds [`DRIFT_FLOOR`] and the smaller side
/// times [`DRIFT_FACTOR`].
fn drifted(counts: &[u64], snapshot: &[u64]) -> bool {
    debug_assert_eq!(counts.len(), snapshot.len());
    counts.iter().zip(snapshot).any(|(&now, &then)| {
        let (hi, lo) = (now.max(then), now.min(then));
        hi > DRIFT_FLOOR && hi as f64 > lo as f64 * DRIFT_FACTOR
    })
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
        self.order_snapshot.clear();
        self.order_snapshot.extend_from_slice(counts);
        self.mo = mo;
    }

    /// `AdjustMatchingOrder`: recomputes the order when any per-vertex
    /// explicit count drifted beyond [`DRIFT_FACTOR`] since the last
    /// computation.
    pub(crate) fn maybe_adjust_order(&mut self) {
        if drifted(self.dcg.expl_counts(), &self.order_snapshot) {
            self.recompute_matching_order();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_needs_both_the_floor_and_the_factor() {
        let then = [100, 1000, 0];
        // Unchanged counts and counts within factor 2 of the snapshot: no drift.
        assert!(!drifted(&then, &then));
        assert!(!drifted(&[199, 1000, 0], &then));
        // Count 0 doubled past the factor and the floor.
        assert!(drifted(&[201, 1000, 0], &then));
        // Shrinking counts drift symmetrically.
        assert!(drifted(&[100, 400, 0], &then));
        // Under the floor nothing drifts, however large the ratio.
        assert!(!drifted(&[100, 1000, DRIFT_FLOOR], &then));
        assert!(drifted(&[100, 1000, DRIFT_FLOOR + 1], &then));
    }
}
