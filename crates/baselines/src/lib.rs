//! `tfx-baselines` — the competitor systems TurboFlux is evaluated against
//! (§2.2, §5), re-implemented from their descriptions in the paper:
//!
//! * [`NaiveRecompute`] — full subgraph matching per update plus set
//!   difference (the strawman of §1; also the test oracle),
//! * [`IncIsoMat`] — Fan et al. \[10\]: extract the diameter-bounded affected
//!   subgraph, match it before and after the update, diff,
//! * [`Graphflow`] — Kankanamge et al. \[16\]: delta evaluation with a
//!   Generic-Join-style worst-case-optimal join, no maintained state,
//! * [`SjTree`] — Choudhury et al. \[7\]: a left-deep join tree of
//!   materialized partial solutions with the generate-and-discard
//!   duplicate-elimination strategy (insert-only, as in the paper).
//!
//! All engines implement [`tfx_query::ContinuousMatcher`], so the benchmark
//! harness and the oracle tests drive them uniformly.

pub mod common;
pub mod graphflow;
pub mod inc_iso_mat;
pub mod naive;
pub mod nec;
pub mod sj_tree;

pub use graphflow::Graphflow;
pub use inc_iso_mat::IncIsoMat;
pub use naive::NaiveRecompute;
pub use nec::{nec_compress, NecCompression, NecSjTree};
pub use sj_tree::SjTree;
