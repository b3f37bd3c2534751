//! Engine configuration.

use tfx_query::MatchSemantics;

/// Tunable options for a [`crate::TurboFlux`] engine instance.
#[derive(Clone, Copy, Debug)]
pub struct TurboFluxConfig {
    /// Matching semantics (homomorphism by default, §2.1).
    pub semantics: MatchSemantics,
    /// Inert: nothing reads it, every engine evaluates on the calling thread
    /// (DESIGN.md, "Parallel execution: tried, measured, removed"). Kept only
    /// so the frozen `e2e` benchmark compiles; leaves with its
    /// `core.default_workers_events_per_s` / `core.intra_parallel_speedup_x`
    /// rows in the next `benchmark` PR.
    pub parallel_workers: usize,
    /// Inert: nothing reads it, the partitioned runtime is gone (DESIGN.md,
    /// "Sharded execution: tried, measured, removed"). Kept only so the
    /// frozen `e2e` benchmark compiles; leaves with its `netflow_shards2`
    /// workload in the next `benchmark` PR.
    pub shards: usize,
}

impl Default for TurboFluxConfig {
    fn default() -> Self {
        TurboFluxConfig { semantics: MatchSemantics::Homomorphism, parallel_workers: 1, shards: 1 }
    }
}

impl TurboFluxConfig {
    /// Default configuration with the given semantics.
    pub fn with_semantics(semantics: MatchSemantics) -> Self {
        TurboFluxConfig { semantics, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = TurboFluxConfig::default();
        // Destructured without `..`: a fourth field does not compile until
        // someone writes down which two callers need different values.
        let TurboFluxConfig { semantics, parallel_workers, shards } = c;
        assert_eq!(semantics, MatchSemantics::Homomorphism);
        assert_eq!(
            parallel_workers, 1,
            "inert; the value the frozen benchmark's one-thread runs set"
        );
        assert_eq!(shards, 1, "inert; the value every caller but the frozen benchmark leaves");
        assert_eq!(
            TurboFluxConfig::with_semantics(MatchSemantics::Isomorphism).semantics,
            MatchSemantics::Isomorphism
        );
    }
}
