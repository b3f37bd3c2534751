//! Synthetic sources: the `tfx-datagen` generators as timestamped streams.

use tfx_datagen::{hub, lsbench, netflow, uniform, Dataset};
use tfx_graph::UpdateStream;

use crate::event::StreamEvent;
use crate::source::{SourceError, StreamSource};

/// Which built-in generator backs a [`SyntheticSource`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyntheticKind {
    /// Uniform-random edges over labeled vertices ([`tfx_datagen::uniform`]).
    Uniform,
    /// Skewed hub fan-out workload ([`tfx_datagen::hub`]).
    Hub,
    /// LSBench-like social-media stream ([`tfx_datagen::lsbench`]).
    LsBench,
    /// Netflow-like trace: unlabeled hosts, eight protocols
    /// ([`tfx_datagen::netflow`]).
    Netflow,
}

impl SyntheticKind {
    /// Parses a CLI name (`uniform` / `hub` / `lsbench` / `netflow`).
    pub fn parse(s: &str) -> Option<SyntheticKind> {
        match s {
            "uniform" => Some(SyntheticKind::Uniform),
            "hub" => Some(SyntheticKind::Hub),
            "lsbench" => Some(SyntheticKind::LsBench),
            "netflow" => Some(SyntheticKind::Netflow),
            _ => None,
        }
    }

    /// Generates a demo-scale dataset for this kind (small enough for CLI
    /// smoke runs and examples; use the generator configs directly for
    /// larger instances).
    pub fn demo_dataset(self, seed: u64) -> Dataset {
        match self {
            SyntheticKind::Uniform => uniform::generate(&uniform::UniformConfig {
                seed,
                ..uniform::UniformConfig::default()
            }),
            SyntheticKind::Hub => {
                hub::generate(&hub::HubConfig { seed, ..hub::HubConfig::default() })
            }
            SyntheticKind::LsBench => {
                lsbench::generate(&lsbench::LsBenchConfig { users: 200, seed, stream_frac: 0.3 })
            }
            SyntheticKind::Netflow => netflow::generate(&netflow::NetflowConfig {
                hosts: 400,
                flows: 8_000,
                seed,
                stream_frac: 0.5,
            }),
        }
    }
}

/// Replays a generated [`UpdateStream`] as a timestamped event stream.
///
/// Timestamps are synthetic: the first event is tick 0 and every subsequent
/// event advances the clock by `ticks_per_event` (0 keeps the whole stream
/// at one instant). This mirrors trace replay at a fixed event rate — a
/// time window of width `w` then holds the last `w / ticks_per_event`
/// events, and a count window is rate-independent. A clock that would pass
/// `u64::MAX` stays there: a caller that needs the clock exact checks that
/// `(events - 1) · ticks_per_event` fits in a `u64`.
pub struct SyntheticSource {
    ops: std::vec::IntoIter<tfx_graph::UpdateOp>,
    ticks_per_event: u64,
    next_ts: u64,
    started: bool,
}

impl SyntheticSource {
    /// Replays `stream` at `ticks_per_event` ticks between events.
    pub fn from_stream(stream: UpdateStream, ticks_per_event: u64) -> Self {
        SyntheticSource { ops: stream.into_iter(), ticks_per_event, next_ts: 0, started: false }
    }

    /// Generates a demo-scale dataset and a source replaying its stream.
    /// The dataset (minus its consumed stream) is returned for `g0`, the
    /// interner, and schema-aware query authoring.
    pub fn demo(
        kind: SyntheticKind,
        seed: u64,
        ticks_per_event: u64,
    ) -> (Dataset, SyntheticSource) {
        let mut dataset = kind.demo_dataset(seed);
        let stream = std::mem::take(&mut dataset.stream);
        (dataset, SyntheticSource::from_stream(stream, ticks_per_event))
    }

    /// How many events the source has yet to hand out.
    pub fn events_left(&self) -> usize {
        self.ops.len()
    }
}

impl StreamSource for SyntheticSource {
    fn next_event(&mut self) -> Result<Option<StreamEvent>, SourceError> {
        let Some(op) = self.ops.next() else {
            return Ok(None);
        };
        if self.started {
            self.next_ts = self.next_ts.saturating_add(self.ticks_per_event);
        }
        self.started = true;
        Ok(Some(StreamEvent { ts: self.next_ts, op }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::collect_events;
    use tfx_graph::{LabelSet, UpdateOp, VertexId};

    #[test]
    fn replays_the_generated_stream_with_even_ticks() {
        let (dataset, mut src) = SyntheticSource::demo(SyntheticKind::Uniform, 7, 3);
        let events = collect_events(&mut src).unwrap();
        assert!(!events.is_empty());
        assert!(dataset.stream.is_empty(), "stream moved into the source");
        assert!(dataset.g0.edge_count() > 0);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.ts, 3 * i as u64);
        }
        // Determinism: same seed, same events.
        let (_, mut src2) = SyntheticSource::demo(SyntheticKind::Uniform, 7, 3);
        assert_eq!(collect_events(&mut src2).unwrap(), events);
    }

    /// A rate past what a `u64` clock holds pins the clock at `u64::MAX`:
    /// the timestamps never decrease. The clock used to wrap (release) or
    /// panic on the add (debug).
    #[test]
    fn a_clock_past_u64_max_stays_there() {
        let ops =
            (0..4).map(|i| UpdateOp::AddVertex { id: VertexId(i), labels: LabelSet::empty() });
        let stream = UpdateStream::from_ops(ops.collect());
        for (rate, want) in [
            (1 << 63, [0, 1 << 63, u64::MAX, u64::MAX]),
            (u64::MAX, [0, u64::MAX, u64::MAX, u64::MAX]),
            (u64::MAX / 3, [0, u64::MAX / 3, 2 * (u64::MAX / 3), u64::MAX]),
        ] {
            let mut src = SyntheticSource::from_stream(stream.clone(), rate);
            assert_eq!(src.events_left(), 4);
            let ts: Vec<u64> = collect_events(&mut src).unwrap().iter().map(|e| e.ts).collect();
            assert_eq!(ts, want, "{rate} ticks per event");
            assert_eq!(src.events_left(), 0);
        }
    }

    #[test]
    fn kind_parsing_round_trips() {
        for (name, kind) in [
            ("uniform", SyntheticKind::Uniform),
            ("hub", SyntheticKind::Hub),
            ("lsbench", SyntheticKind::LsBench),
            ("netflow", SyntheticKind::Netflow),
        ] {
            assert_eq!(SyntheticKind::parse(name), Some(kind));
        }
        assert_eq!(SyntheticKind::parse("nope"), None);
    }
}
