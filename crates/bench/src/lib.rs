//! `tfx-bench` — the experiment harness reproducing every table and figure
//! of the paper's evaluation (§5 + Appendices B and C).
//!
//! The paper's evaluation is one harness call — `cost(M(Δg, q))` and the
//! intermediate-result size per (engine, query set, stream), [`harness`] —
//! swept over the parameters of Table 1 ([`params`]). The `figures` binary
//! is the table of those sweeps, one experiment id per figure
//! (`fig03_tradeoff` … `fig17_selectivity`, `ablation_dcg`,
//! `appb5_sjtree_nec`; DESIGN.md's per-experiment index): it prints the rows
//! and series the paper plots ([`report`]), over the datasets and query sets
//! of [`workloads`] and the drivers they share in [`suite`].
//!
//! Performance over time is not measured here but by the `e2e` streaming
//! benchmark, a package of its own under `src/bin/e2e/`; `benches/` keeps
//! two Criterion targets for what `e2e` cannot isolate (`graph_mutation` and
//! `dcg_ops`).
//!
//! Scales are laptop-sized by default and adjustable through environment
//! variables (see [`params`]); the *shapes* of the results — who wins, by
//! roughly what factor — are the reproduction target, not absolute
//! numbers.

pub mod harness;
pub mod params;
pub mod report;
pub mod suite;
pub mod workloads;

pub use harness::{run_query_on_engine, EngineKind, QueryRun, RunConfig};
pub use params::Params;
pub use report::Table;
pub use suite::{compare_engines, EngineSummary};
