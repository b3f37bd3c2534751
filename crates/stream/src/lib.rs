//! `tfx-stream` — the streaming ingestion subsystem.
//!
//! The engine crates answer *"given this update, what changed?"*; this crate
//! answers *"where do the updates come from, and when do old ones leave?"*.
//! It is layered the way StreamWorks-style continuous-matching deployments
//! are, and the way the paper's own workloads (Netflow flows that naturally
//! expire, LSBench activity streams) demand:
//!
//! 1. **Sources** ([`StreamSource`]) yield timestamped [`StreamEvent`]s.
//!    [`FileSource`] parses a timestamped superset of the `tfx` text stream
//!    format (strict or lenient error handling, line numbers in every
//!    diagnostic); [`SyntheticSource`] wraps the `tfx-datagen` generators
//!    (uniform / hub / lsbench / netflow).
//! 2. **Windows** ([`SlidingWindow`]) turn the insert stream into an
//!    insert *plus expiry-delete* stream: time-based windows expire edges
//!    whose validity interval `[ts, ts + width)` has passed, count-based
//!    windows keep the most recent `capacity` stream inserts. Eviction is
//!    FIFO (ties included) so the emitted op sequence is deterministic.
//! 3. **Driver** ([`StreamDriver`]) batches window output by op-count /
//!    stream-time thresholds into a [`BatchTarget`] (a single engine or a
//!    [`tfx_core::Fleet`]) and records per-batch [`StreamStats`].
//! 4. **Sinks** ([`DeltaSink`]) receive the match deltas: callback, JSONL
//!    writer, counting, or null.
//!
//! The correctness contract, enforced by the integration harness at the
//! workspace root (`tests/common/mod.rs`): the window emits what a model of
//! its semantics written from scratch emits, and a windowed, batched run on
//! any target produces deltas *byte-identical* to one standalone engine per
//! query, which `NaiveRecompute` confirms op by op — under homomorphism and
//! isomorphism, for time, count and unbounded windows and any batch policy.

#![forbid(unsafe_code)]

pub mod driver;
pub mod event;
pub mod sink;
pub mod source;
pub mod synthetic;
pub mod window;

pub use driver::{BatchPolicy, BatchTarget, RunSummary, StreamDriver, StreamStats};
pub use event::StreamEvent;
pub use sink::{CallbackSink, CountingSink, DeltaRef, DeltaSink, JsonlSink};
pub use source::{ErrorMode, FileSource, SourceError, StreamSource, VecSource};
pub use synthetic::{SyntheticKind, SyntheticSource};
pub use window::{SlidingWindow, WindowSpec};
