//! Table 1 of the paper ("Parameters used in the experiments"), scaled to
//! laptop size, with environment-variable overrides.
//!
//! | Parameter        | Paper values                  | Here (defaults)   |
//! |------------------|-------------------------------|-------------------|
//! | Datasets         | LSBench, Netflow              | same (synthetic)  |
//! | Query size       | 3, **6**, 9, 12 (tree); **6**, 9, 12 (graph) | same |
//! | Insertion rate   | 2, 4, 6, 8, 10 (%)            | same              |
//! | Dataset size     | 0.1M / 1M / 10M users         | 1× / 4× / 16× of `TFX_USERS` |
//! | Deletion rate    | 2, 4, 6, 8, 10 (%)            | same              |
//! | Semantics        | homomorphism, isomorphism     | same              |
//! | Queries per set  | 100                           | `TFX_QUERIES` (20) |
//! | Timeout          | 2 hours                       | `TFX_TIMEOUT_MS` (3000 ms) |
//!
//! The timeout bounds every engine alike, on the wall clock (one
//! [`tfx_query::Deadline`] per query run, construction included); a query
//! that runs past it is left out of the means, as in §5.1.

use std::time::Duration;

/// Experiment-wide parameters (Table 1, scaled).
#[derive(Clone, Debug)]
pub struct Params {
    /// LSBench scale factor (users) for the default dataset.
    pub users: usize,
    /// Netflow host count.
    pub hosts: usize,
    /// Netflow flow count.
    pub flows: usize,
    /// Queries per query set (paper: 100).
    pub queries_per_set: usize,
    /// Per-query wall-clock timeout (paper: 2 h), the one bound every
    /// engine runs under.
    pub timeout: Duration,
    /// Tree query sizes (paper: 3, 6, 9, 12).
    pub tree_sizes: Vec<usize>,
    /// Graph (cyclic) query sizes (paper: 6, 9, 12).
    pub graph_sizes: Vec<usize>,
    /// Insertion rates in percent (paper: 2..10).
    pub insertion_rates: Vec<u32>,
    /// Deletion rates in percent (paper: 2..10).
    pub deletion_rates: Vec<u32>,
    /// Base seed for datasets and query sets.
    pub seed: u64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl Default for Params {
    fn default() -> Self {
        let users = env_usize("TFX_USERS", 800);
        Params {
            users,
            hosts: env_usize("TFX_HOSTS", 1500),
            flows: env_usize("TFX_FLOWS", 30_000),
            queries_per_set: env_usize("TFX_QUERIES", 20),
            timeout: Duration::from_millis(env_u64("TFX_TIMEOUT_MS", 3000)),
            tree_sizes: vec![3, 6, 9, 12],
            graph_sizes: vec![6, 9, 12],
            insertion_rates: vec![2, 4, 6, 8, 10],
            deletion_rates: vec![2, 4, 6, 8, 10],
            seed: env_u64("TFX_SEED", 2018),
        }
    }
}

impl Params {
    /// Default tree query size (bold in Table 1).
    pub const DEFAULT_TREE_SIZE: usize = 6;
    /// Default graph query size (bold in Table 1).
    pub const DEFAULT_GRAPH_SIZE: usize = 6;

    /// Reads the parameters, applying environment overrides.
    pub fn from_env() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = Params::default();
        assert!(p.users >= 50);
        assert!(p.queries_per_set >= 1);
        assert_eq!(p.tree_sizes, vec![3, 6, 9, 12]);
        assert_eq!(p.insertion_rates.len(), 5);
        assert!(p.timeout > Duration::from_millis(10));
    }
}
