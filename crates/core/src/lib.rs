//! `tfx-core` — the TurboFlux continuous subgraph matching engine
//! (Kim et al., SIGMOD 2018).
//!
//! Given a query graph and an initial data graph, [`TurboFlux`] maintains a
//! *data-centric graph* ([`Dcg`]) — a concise, incrementally updatable
//! representation of partial solutions — and, for every edge
//! insertion/deletion of a graph update stream, reports the positive /
//! negative matches `M(g_i, q) − M(g_{i−1}, q)` / `M(g_{i−1}, q) − M(g_i, q)`
//! without recomputing subgraph matching from scratch and without the
//! explosive materialized join state of SJ-Tree.
//!
//! The DCG is three bitsets per query vertex beside the data graph, and
//! [`dcg`] is the one place that reads the graph for it: where the tree edge
//! into a query vertex reads, which way it points and which children the
//! vertex has. `BuildDCG`, registration, `MatchAllChildren` and
//! `SubgraphSearch` all ask it; [`spec`] is the declarative reference, with
//! a reader of its own.
//!
//! ```
//! use tfx_core::{TurboFlux, TurboFluxConfig};
//! use tfx_graph::{DynamicGraph, LabelId, LabelSet, UpdateOp};
//! use tfx_query::{ContinuousMatcher, QueryGraph};
//!
//! // Data: a:A, b:B; query: A -> B.
//! let mut g = DynamicGraph::new();
//! let a = g.add_vertex(LabelSet::single(LabelId(0)));
//! let b = g.add_vertex(LabelSet::single(LabelId(1)));
//! let mut q = QueryGraph::new();
//! let u0 = q.add_vertex(LabelSet::single(LabelId(0)));
//! let u1 = q.add_vertex(LabelSet::single(LabelId(1)));
//! q.add_edge(u0, u1, Some(LabelId(7)));
//!
//! let mut engine = TurboFlux::new(q, g, TurboFluxConfig::default());
//! let mut positives = 0;
//! engine.apply(
//!     &UpdateOp::InsertEdge { src: a, label: LabelId(7), dst: b },
//!     &mut |_, _| positives += 1,
//! );
//! assert_eq!(positives, 1);
//! ```

#![forbid(unsafe_code)]

mod bulk;
pub mod config;
pub mod dcg;
pub mod engine;
pub mod fleet;
mod ops;
mod order;
mod round;
mod scratch;
mod search;
pub mod spec;

pub use config::TurboFluxConfig;
pub use dcg::{Dcg, DcgStorageStats, DcgView, EdgeState};
pub use engine::TurboFlux;
pub use fleet::{Fleet, FleetDelta, FleetStats, ShardStats, ShardedEngine};
pub use search::INTERSECT_MIN_FRONTIER;
pub use spec::{reference_dcg, DcgImage};

#[cfg(test)]
mod tests;
