//! `tfx-graph` — the dynamic labeled graph substrate for the TurboFlux
//! reproduction.
//!
//! A *dynamic graph* is an initial graph plus a stream of edge insertions and
//! deletions (Definition 2 of the paper). This crate provides:
//!
//! * strongly typed identifiers ([`VertexId`], [`LabelId`]) and a string
//!   [`labels::LabelInterner`],
//! * [`LabelSet`] — a small sorted label set with subset tests, matching the
//!   paper's `L(u) ⊆ L'(m(u))` semantics,
//! * [`DynamicGraph`] — an in-memory directed multigraph with per-vertex
//!   label sets, labeled edges, and label-partitioned adjacency in both
//!   directions ([`adjacency`]) carved out of one slot [`arena`]: O(log)
//!   insert/delete within a label group and O(log + |group|)
//!   label-qualified neighbor enumeration. One reader per question, each
//!   taking the [`Dir`] to read along: `neighbors` (every `(id, label)`),
//!   `group` (one label's sorted ids, a slice), `collect_any` (every label's
//!   ids, sorted, each once), `degree`, `label_runs`, `is_directory` and
//!   `prefetch_group`; an id never created reads as a vertex without edges
//!   or labels,
//! * [`UpdateOp`] / [`UpdateStream`] — the graph update stream,
//! * [`intersect`] — galloping and branchless-merge intersection over
//!   sorted id runs, the primitive behind candidate enumeration in every
//!   engine,
//! * [`stats`] — [`DynamicGraph::matching_vertex_count`] and
//!   [`DynamicGraph::matching_edge_count`], the cardinalities that pick the
//!   starting query vertex and the query spanning tree, read off the index.

// `intersect::prefetch`, a cache hint, is the one `unsafe` block.
#![deny(unsafe_code)]

pub mod adjacency;
pub mod arena;
pub mod dynamic_graph;
pub mod ids;
pub mod intersect;
pub mod labels;
pub mod stats;
pub mod stream;

pub use adjacency::{Neighbors, FLAT_MAX};
pub use dynamic_graph::{Dir, DynamicGraph, EdgeRef, StorageStats};
pub use ids::{LabelId, VertexId, MAX_VERTEX_GAP};
pub use intersect::{contains_sorted, intersect_into, prefetch, prefetch_at, GALLOP_RATIO};
pub use labels::{LabelInterner, LabelLimit, LabelSet};
pub use stream::{UpdateOp, UpdateStream};
