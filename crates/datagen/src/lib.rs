//! `tfx-datagen` — deterministic workload generators for the TurboFlux
//! reproduction (§5.1 of the paper).
//!
//! The paper evaluates on two datasets:
//!
//! * **LSBench** — a Linked-Stream-Benchmark social-media stream, scaled by
//!   a user count. We generate a structurally equivalent stream from a
//!   fixed social-media schema ([`lsbench`]): labeled entities, skewed
//!   one-to-many relations, 90% initial graph + 10% insertion stream.
//! * **Netflow** — CAIDA backbone traces: *no vertex labels, eight edge
//!   labels*, heavy-tailed degrees ([`netflow`]).
//!
//! Queries are generated per §5.1 ([`queries`]): tree queries by random
//! schema-graph traversal (sizes 3–12), cyclic "graph" queries grown from
//! triangles/squares/pentagons, plus the path and binary-tree querysets of
//! the SJ-Tree paper \[7\] used in Appendix B.6.
//!
//! Everything is reproducible from a `u64` seed via a small PCG generator
//! ([`rng::Pcg32`]); no external RNG crate is used so datasets are stable
//! across platforms and toolchains.

pub mod dataset;
pub mod hub;
pub mod lsbench;
pub mod netflow;
pub mod queries;
pub mod rng;
pub mod schema;
pub mod uniform;

pub use dataset::Dataset;
pub use hub::HubConfig;
pub use lsbench::LsBenchConfig;
pub use netflow::NetflowConfig;
pub use queries::QueryGenConfig;
pub use rng::Pcg32;
pub use schema::Schema;
pub use uniform::UniformConfig;
