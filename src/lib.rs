//! **turboflux** — a from-scratch Rust reproduction of
//! *TurboFlux: A Fast Continuous Subgraph Matching System for Streaming
//! Graph Data* (Kim et al., SIGMOD 2018).
//!
//! Given a query graph and a dynamic data graph (an initial graph plus a
//! stream of edge insertions/deletions), [`TurboFlux`] reports the
//! *positive* matches created by each insertion and the *negative* matches
//! destroyed by each deletion, maintaining a compact **data-centric graph**
//! (DCG) of intermediate results instead of re-running subgraph matching or
//! materializing join state.
//!
//! # Quick start
//!
//! ```
//! use turboflux::prelude::*;
//!
//! // A tiny fraud-ring-ish pattern: Account -transfer-> Account.
//! let mut labels = LabelInterner::new();
//! let account = labels.intern("Account");
//! let transfer = labels.intern("transfer");
//!
//! let mut g0 = DynamicGraph::new();
//! let alice = g0.add_vertex(LabelSet::single(account));
//! let bob = g0.add_vertex(LabelSet::single(account));
//!
//! let mut q = QueryGraph::new();
//! let u0 = q.add_vertex(LabelSet::single(account));
//! let u1 = q.add_vertex(LabelSet::single(account));
//! q.add_edge(u0, u1, Some(transfer));
//!
//! let mut engine = TurboFlux::new(q, g0, TurboFluxConfig::default());
//! let mut found = Vec::new();
//! engine.apply(
//!     &UpdateOp::InsertEdge { src: alice, label: transfer, dst: bob },
//!     &mut |p, m| found.push((p, m.clone())),
//! );
//! assert_eq!(found.len(), 1);
//! assert_eq!(found[0].0, Positiveness::Positive);
//! ```
//!
//! # Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | dynamic labeled multigraph, labels, update streams |
//! | [`query`] | query graphs, query trees, match records, `ContinuousMatcher` |
//! | [`matcher`] | static backtracking homomorphism / isomorphism search |
//! | [`core`] | the TurboFlux engine: DCG + edge transition model |
//! | [`baselines`] | SJ-Tree, Graphflow, IncIsoMat, naive recompute |
//! | [`datagen`] | LSBench-like / Netflow-like generators, query generators |
//! | [`stream`] | ingestion: timestamped sources, sliding windows, batching driver, delta sinks |

pub use tfx_baselines as baselines;
pub use tfx_core as core;
pub use tfx_datagen as datagen;
pub use tfx_graph as graph;
pub use tfx_match as matcher;
pub use tfx_query as query;
pub use tfx_stream as stream;

pub use tfx_core::fleet;
pub use tfx_core::{Fleet, FleetDelta, FleetStats, TurboFlux, TurboFluxConfig};

/// One-stop imports for applications.
pub mod prelude {
    pub use tfx_core::{Fleet, FleetDelta, FleetStats, TurboFlux, TurboFluxConfig};
    pub use tfx_graph::{
        Dir, DynamicGraph, LabelId, LabelInterner, LabelSet, UpdateOp, UpdateStream, VertexId,
    };
    pub use tfx_query::{
        ContinuousMatcher, MatchRecord, MatchSemantics, Positiveness, QVertexId, QueryGraph,
    };
    pub use tfx_stream::{
        BatchPolicy, CallbackSink, CountingSink, DeltaRef, DeltaSink, SlidingWindow, StreamDriver,
        StreamEvent, StreamSource, SyntheticKind, SyntheticSource, WindowSpec,
    };
}
