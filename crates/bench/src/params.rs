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
//! | Queries per set  | 100                           | `TFX_QUERIES` (10) |
//! | Timeout          | 2 hours                       | `TFX_TIMEOUT_MS` (3000 ms) |
//!
//! The defaults are the run configuration EXPERIMENTS.md records: 400 users,
//! 1 200 Netflow hosts, 25 000 flows, 10 queries per set, a 3 000 ms timeout
//! and seed 2018 (`TFX_USERS`, `TFX_HOSTS`, `TFX_FLOWS`, `TFX_QUERIES`,
//! `TFX_TIMEOUT_MS`, `TFX_SEED`). [`Params::from_env`] is the one reader of
//! those variables; a value that is not an unsigned integer is an error that
//! names its variable, not a silent fall-back to the default.
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

impl Default for Params {
    /// The recorded run configuration, with no environment read.
    fn default() -> Self {
        Params {
            users: 400,
            hosts: 1200,
            flows: 25_000,
            queries_per_set: 10,
            timeout: Duration::from_millis(3000),
            tree_sizes: vec![3, 6, 9, 12],
            graph_sizes: vec![6, 9, 12],
            insertion_rates: vec![2, 4, 6, 8, 10],
            deletion_rates: vec![2, 4, 6, 8, 10],
            seed: 2018,
        }
    }
}

impl Params {
    /// Default tree query size (bold in Table 1).
    pub const DEFAULT_TREE_SIZE: usize = 6;
    /// Default graph query size (bold in Table 1).
    pub const DEFAULT_GRAPH_SIZE: usize = 6;

    /// The defaults with the process environment's `TFX_*` overrides.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// The defaults, each overridden by `lookup(variable)` where that is
    /// `Some`. `Err` names the first variable whose value is not an unsigned
    /// integer.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn read<T: std::str::FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            slot: &mut T,
        ) -> Result<(), String> {
            if let Some(v) = lookup(name) {
                *slot =
                    v.parse().map_err(|_| format!("{name}={v:?} is not an unsigned integer"))?;
            }
            Ok(())
        }
        let mut p = Self::default();
        let mut timeout_ms = p.timeout.as_millis() as u64;
        read(&lookup, "TFX_USERS", &mut p.users)?;
        read(&lookup, "TFX_HOSTS", &mut p.hosts)?;
        read(&lookup, "TFX_FLOWS", &mut p.flows)?;
        read(&lookup, "TFX_QUERIES", &mut p.queries_per_set)?;
        read(&lookup, "TFX_TIMEOUT_MS", &mut timeout_ms)?;
        read(&lookup, "TFX_SEED", &mut p.seed)?;
        p.timeout = Duration::from_millis(timeout_ms);
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_recorded_run_configuration() {
        let p = Params::default();
        assert_eq!((p.users, p.hosts, p.flows, p.queries_per_set), (400, 1200, 25_000, 10));
        assert_eq!((p.timeout, p.seed), (Duration::from_millis(3000), 2018));
        assert_eq!(p.tree_sizes, vec![3, 6, 9, 12]);
        assert_eq!(p.insertion_rates.len(), 5);
        let unset = Params::from_lookup(|_| None).expect("no variable set");
        assert_eq!(format!("{unset:?}"), format!("{p:?}"));
    }

    #[test]
    fn set_variables_override_the_defaults() {
        let env = |name: &str| match name {
            "TFX_USERS" => Some("150".to_owned()),
            "TFX_TIMEOUT_MS" => Some("1".to_owned()),
            _ => None,
        };
        let p = Params::from_lookup(env).expect("valid values");
        assert_eq!((p.users, p.timeout, p.hosts), (150, Duration::from_millis(1), 1200));
    }

    /// `TFX_USERS=abc` ran at full scale when a bad value fell back to the
    /// default.
    #[test]
    fn a_malformed_value_is_an_error_naming_its_variable() {
        for (name, value) in [("TFX_USERS", "abc"), ("TFX_TIMEOUT_MS", "-1"), ("TFX_SEED", "")] {
            let err = Params::from_lookup(|n| (n == name).then(|| value.to_owned()))
                .expect_err("a malformed value");
            assert!(err.starts_with(name), "{name}={value:?}: {err}");
        }
    }
}
