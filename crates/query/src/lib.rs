//! `tfx-query` — query graphs, query trees, and the matching interface shared
//! by every continuous-subgraph-matching engine in this workspace.
//!
//! * [`QueryGraph`] — a small directed, labeled pattern graph. A query vertex
//!   carries a label set (`L(u) ⊆ L(v)` matching, Def. 1); a query edge
//!   carries an optional label (`None` = wildcard).
//! * [`QueryTree`] — the spanning tree `q'` produced by `TransformToTree`
//!   (§4.1), with the remaining edges classified as non-tree edges.
//! * [`choose_start_vertex`] — the paper's `ChooseStartQVertex` heuristic.
//! * [`MatchRecord`], [`Positiveness`], [`MatchSemantics`],
//!   [`ContinuousMatcher`] — the reporting interface (Definition 3), and
//!   [`Deadline`], the one wall-clock bound every engine honours.

pub mod diameter;
pub mod matches;
pub mod parser;
pub mod qgraph;
pub mod start;
pub mod tree;

pub use diameter::diameter;
pub use matches::{ContinuousMatcher, Deadline, MatchRecord, MatchSemantics, Positiveness};
pub use qgraph::{EdgeId, QEdge, QVertexId, QueryGraph};
pub use start::{choose_start_vertex, choose_start_vertex_from, matching_edge_counts};
pub use tree::QueryTree;
