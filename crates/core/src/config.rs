//! Engine configuration.

use tfx_graph::AdjacencyMode;
use tfx_query::MatchSemantics;

/// Tunable options for a [`crate::TurboFlux`] engine instance.
#[derive(Clone, Copy, Debug)]
pub struct TurboFluxConfig {
    /// Matching semantics (homomorphism by default, §2.1).
    pub semantics: MatchSemantics,
    /// Enable `AdjustMatchingOrder` (§4.1): recompute the matching order
    /// when per-query-vertex explicit-edge counts drift. Disable for the
    /// static-order ablation.
    pub adjust_matching_order: bool,
    /// Drift factor that triggers an order recomputation (paper: "a
    /// significant change"; we use 2×).
    pub order_drift_factor: f64,
    /// Count floor below which drift is ignored (avoids churn on tiny
    /// counts).
    pub order_drift_floor: u64,
    /// Use the label-partitioned adjacency index for candidate enumeration
    /// (O(log + |label group|) per lookup). Disabling falls back to the
    /// flat full-list scan over the same storage — candidates, order, and
    /// deltas are identical either way, so this exists purely as an
    /// ablation switch for benchmarking the index.
    pub label_indexed_adjacency: bool,
    /// Worker threads for intra-update parallel match enumeration: a single
    /// update whose explicit DCG frontier (or initial root-candidate set)
    /// is at least [`Self::parallel_min_frontier`] wide is split into
    /// chunks evaluated on scoped worker threads, with deltas merged in
    /// chunk order so output stays byte-identical to sequential
    /// evaluation. `0` means one worker per available core; `1` disables
    /// parallelism. A [`crate::fleet::Fleet`] additionally caps this so
    /// fleet-level × update-level workers never exceed its thread budget.
    pub parallel_workers: usize,
    /// Minimum frontier width before an update fans out; narrower
    /// frontiers run sequentially so small updates never pay thread-spawn
    /// cost (and stay allocation-free).
    pub parallel_min_frontier: usize,
    /// When the engine runs inside a [`crate::fleet::Fleet`], source child
    /// candidates for shareable execution-tree edges from the fleet's
    /// [`crate::shared_index::SharedCandidateIndex`] (maintained once per
    /// update for all queries) instead of re-filtering adjacency scans per
    /// engine. Candidates, order, and deltas are identical either way —
    /// this is the multi-query-optimization ablation switch. Ignored by
    /// standalone engines.
    pub fleet_shared_index: bool,
    /// When the engine runs inside a [`crate::fleet::Fleet`], fold complete
    /// root-child execution-tree branches that are label-path-identical
    /// across engines into refcounted shared subtree instances
    /// ([`crate::shared_subtree::SharedSubtrees`]): the fleet driver
    /// maintains each shared branch's DCG state once per op, and every
    /// sharing engine reads it instead of rebuilding the branch privately.
    /// Deltas are identical either way — this is the phase-2
    /// multi-query-optimization ablation switch (off falls back to the
    /// per-edge shared candidate index). Ignored by standalone engines.
    pub fleet_shared_subtrees: bool,
    /// Shard count for the sharded execution runtime
    /// ([`crate::shard::ShardedEngine`]): data-graph vertices are
    /// hash-partitioned across this many worker shards, each maintaining a
    /// partition-local graph and DCG slice. `1` (the default) keeps the
    /// classic single-slice engine. Only consulted by the sharded runtime —
    /// standalone engines and fleets ignore it.
    pub shards: usize,
}

impl Default for TurboFluxConfig {
    fn default() -> Self {
        TurboFluxConfig {
            semantics: MatchSemantics::Homomorphism,
            adjust_matching_order: true,
            order_drift_factor: 2.0,
            order_drift_floor: 64,
            label_indexed_adjacency: true,
            parallel_workers: 0,
            parallel_min_frontier: 64,
            fleet_shared_index: true,
            fleet_shared_subtrees: true,
            shards: 1,
        }
    }
}

impl TurboFluxConfig {
    /// Default configuration with the given semantics.
    pub fn with_semantics(semantics: MatchSemantics) -> Self {
        TurboFluxConfig { semantics, ..Self::default() }
    }

    /// The adjacency access path selected by
    /// [`Self::label_indexed_adjacency`].
    pub fn adjacency_mode(&self) -> AdjacencyMode {
        if self.label_indexed_adjacency {
            AdjacencyMode::Indexed
        } else {
            AdjacencyMode::FlatScan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = TurboFluxConfig::default();
        assert_eq!(c.semantics, MatchSemantics::Homomorphism);
        assert!(c.adjust_matching_order);
        assert!(c.label_indexed_adjacency);
        assert_eq!(c.parallel_workers, 0, "auto-sized by default");
        assert!(c.parallel_min_frontier > 1, "small updates stay sequential");
        assert!(c.fleet_shared_index, "shared candidate index on by default");
        assert!(c.fleet_shared_subtrees, "shared DCG subtrees on by default");
        assert_eq!(c.shards, 1, "unsharded by default");
        assert_eq!(c.adjacency_mode(), AdjacencyMode::Indexed);
        let flat = TurboFluxConfig { label_indexed_adjacency: false, ..c };
        assert_eq!(flat.adjacency_mode(), AdjacencyMode::FlatScan);
        assert_eq!(
            TurboFluxConfig::with_semantics(MatchSemantics::Isomorphism).semantics,
            MatchSemantics::Isomorphism
        );
    }
}
