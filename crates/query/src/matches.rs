//! Match records and the engine interface shared by TurboFlux and all
//! baselines (Definition 3 of the paper).

use std::cell::Cell;
use std::time::Instant;

use crate::qgraph::QVertexId;
use tfx_graph::{UpdateOp, VertexId};

/// Matching semantics (§2.1). The paper's default is graph homomorphism;
/// subgraph isomorphism adds the injectivity constraint (Appendix B.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatchSemantics {
    /// Def. 1: a (not necessarily injective) label/edge-preserving mapping.
    #[default]
    Homomorphism,
    /// Homomorphism plus injectivity of the vertex mapping.
    Isomorphism,
}

/// Whether a reported match appeared (`M(g_i) − M(g_{i−1})`) or disappeared
/// (`M(g_{i−1}) − M(g_i)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Positiveness {
    /// The match exists after the update but not before.
    Positive,
    /// The match existed before the update but not after.
    Negative,
}

/// A complete solution: the mapping `m : V(q) → V(g)`, indexed by query
/// vertex id.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MatchRecord {
    mapping: Vec<VertexId>,
}

impl MatchRecord {
    /// Wraps a complete mapping (one data vertex per query vertex).
    pub fn new(mapping: Vec<VertexId>) -> Self {
        MatchRecord { mapping }
    }

    /// Builds a record from a partial-mapping slice (used by engines that
    /// track `Option<VertexId>` internally). Panics if any entry is `None`.
    pub fn from_partial(partial: &[Option<VertexId>]) -> Self {
        MatchRecord::new(
            partial
                .iter()
                .map(|m| m.expect("complete solution must map every query vertex"))
                .collect(),
        )
    }

    /// Sets `m(u) = v` in place — an engine keeps one record in step with
    /// its bindings and reports millions of matches through it.
    #[inline]
    pub fn set(&mut self, u: QVertexId, v: VertexId) {
        self.mapping[u.index()] = v;
    }

    /// Refills this record from a complete mapping without reallocating
    /// (a buffered delta is delivered through one reused record).
    #[inline]
    pub fn fill_from_slice(&mut self, mapping: &[VertexId]) {
        self.mapping.clear();
        self.mapping.extend_from_slice(mapping);
    }

    /// `m(u)`.
    #[inline]
    pub fn get(&self, u: QVertexId) -> VertexId {
        self.mapping[u.index()]
    }

    /// The mapping as a slice indexed by query vertex id.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.mapping
    }

    /// Number of query vertices mapped.
    #[inline]
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// Always false for a complete solution of a non-empty query.
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }
}

impl std::fmt::Debug for MatchRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pairs: Vec<String> =
            self.mapping.iter().enumerate().map(|(u, v)| format!("u{u}->{v}")).collect();
        write!(f, "{{{}}}", pairs.join(", "))
    }
}

/// A continuous subgraph matching engine.
///
/// The driver is expected to call [`ContinuousMatcher::initial_matches`]
/// once, then [`ContinuousMatcher::apply`] for every operation of the update
/// stream in order. Matches are streamed into a sink so counting-only
/// benchmark runs never materialize them.
pub trait ContinuousMatcher {
    /// Reports all matches of the initial data graph `g0`.
    fn initial_matches(&mut self, sink: &mut dyn FnMut(&MatchRecord));

    /// Applies one update operation, reporting every positive match (for an
    /// insertion) or negative match (for a deletion).
    fn apply(&mut self, op: &UpdateOp, sink: &mut dyn FnMut(Positiveness, &MatchRecord));

    /// Current size of maintained intermediate results, in bytes (§5's
    /// second measure). Zero for engines that maintain nothing.
    fn intermediate_result_bytes(&self) -> usize {
        0
    }

    /// Arms (`Some`) or lifts (`None`) the engine's wall-clock [`Deadline`],
    /// clearing its latch: the next op reports in full unless it runs past
    /// `at`.
    fn set_deadline(&mut self, at: Option<Instant>);

    /// True once the armed deadline passed, meaning results are incomplete
    /// from then on. The harness treats this as the paper's per-query
    /// timeout.
    fn timed_out(&self) -> bool;

    /// Engine name for reports.
    fn name(&self) -> &'static str;
}

/// The one bound every [`ContinuousMatcher`] honours: an optional
/// wall-clock instant, probed from the engine's inner loops through `&self`.
/// A probe reads the clock once every [`Deadline::PROBE_INTERVAL`] calls
/// (the first call after arming included); once the instant has passed the
/// deadline latches, and every later probe is true until it is re-armed.
/// An unarmed deadline costs a probe two flag reads.
#[derive(Debug, Default)]
pub struct Deadline {
    at: Option<Instant>,
    /// Probes until the next clock read. A `Cell` because a search holds
    /// only `&self`; the engine stays `Send`.
    tick: Cell<u32>,
    hit: Cell<bool>,
}

impl Deadline {
    /// Probes between two clock reads.
    pub const PROBE_INTERVAL: u32 = 4096;

    /// A deadline at `at`, or none.
    pub fn new(at: Option<Instant>) -> Self {
        Deadline { at, tick: Cell::new(0), hit: Cell::new(false) }
    }

    /// True iff an instant is set.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.at.is_some()
    }

    /// The probe: true once the instant has passed.
    #[inline]
    pub fn exceeded(&self) -> bool {
        if self.hit.get() {
            return true;
        }
        let Some(at) = self.at else {
            return false;
        };
        let tick = self.tick.get();
        if tick > 0 {
            self.tick.set(tick - 1);
            return false;
        }
        self.tick.set(Self::PROBE_INTERVAL - 1);
        let hit = Instant::now() >= at;
        self.hit.set(hit);
        hit
    }

    /// True once a probe found the instant passed.
    #[inline]
    pub fn hit(&self) -> bool {
        self.hit.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors() {
        let r = MatchRecord::new(vec![VertexId(3), VertexId(1), VertexId(3)]);
        assert_eq!(r.get(QVertexId(0)), VertexId(3));
        assert_eq!(r.get(QVertexId(1)), VertexId(1));
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        let mut inj = MatchRecord::new(vec![VertexId(3), VertexId(1)]);
        // In-place writes: one slot, then the whole mapping (any length).
        inj.set(QVertexId(1), VertexId(3));
        assert_eq!(inj.as_slice(), &[VertexId(3), VertexId(3)]);
        inj.fill_from_slice(r.as_slice());
        assert_eq!(inj, r);
    }

    #[test]
    fn from_partial() {
        let r = MatchRecord::from_partial(&[Some(VertexId(0)), Some(VertexId(5))]);
        assert_eq!(r.as_slice(), &[VertexId(0), VertexId(5)]);
    }

    #[test]
    #[should_panic(expected = "complete solution")]
    fn from_partial_rejects_incomplete() {
        MatchRecord::from_partial(&[Some(VertexId(0)), None]);
    }

    #[test]
    fn debug_format() {
        let r = MatchRecord::new(vec![VertexId(2)]);
        assert_eq!(format!("{r:?}"), "{u0->v2}");
    }

    #[test]
    fn deadline_reads_the_clock_once_per_interval_and_latches() {
        use std::time::Duration;
        let never = Deadline::default();
        assert!(!never.is_armed() && !never.exceeded() && !never.hit());
        let past = Deadline::new(Some(Instant::now() - Duration::from_secs(1)));
        assert!(past.exceeded(), "the first probe after arming reads the clock");
        assert!(past.hit() && past.exceeded(), "latched");
        let soon = Deadline::new(Some(Instant::now() + Duration::from_millis(20)));
        assert!(!soon.exceeded());
        std::thread::sleep(Duration::from_millis(30));
        let quiet = (1..Deadline::PROBE_INTERVAL).all(|_| !soon.exceeded());
        assert!(quiet, "no clock read until the interval is up");
        assert!(soon.exceeded() && soon.hit());
    }

    #[test]
    fn records_order_and_hash() {
        use std::collections::HashSet;
        let a = MatchRecord::new(vec![VertexId(1)]);
        let b = MatchRecord::new(vec![VertexId(2)]);
        assert!(a < b);
        let mut s = HashSet::new();
        s.insert(a.clone());
        assert!(s.contains(&a));
        assert!(!s.contains(&b));
    }
}
