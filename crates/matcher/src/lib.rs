//! `tfx-match` — a static subgraph matching engine (backtracking search in
//! the style of TurboHom++ \[17\], simplified).
//!
//! TurboFlux itself only needs a matcher for its *intermediate-result-aware*
//! `SubgraphSearch`, which lives in `tfx-core`. This crate provides the
//! classic *data-graph* matcher the paper's ecosystem depends on:
//!
//! * the IncIsoMat baseline runs a full static match on the affected
//!   subgraph before and after each update,
//! * the naive-recompute baseline (and the test oracle) match the whole
//!   graph per update,
//! * the selectivity study (Fig. 17) counts positive matches per query,
//! * the Graphflow baseline binds each next query vertex with the same
//!   extension step ([`extend`]) and joinability test ([`joinable`]) as the
//!   backtracking search.
//!
//! The matcher supports both graph homomorphism and subgraph isomorphism,
//! directed labeled edges, wildcard edge labels, and multi-label vertices.

pub mod backtrack;
pub mod candidates;
pub mod order;

pub use backtrack::{count_matches, enumerate_matches, extend, joinable, match_set, Enumeration};
pub use candidates::NeighborhoodFilter;
pub use order::matching_order;
