//! The metric tables: names, units and directions, exactly as
//! `BENCHMARK.json` lists them (a unit test holds the two together).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which it
/// may get worse before a change counts as a regression.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The tail percentile of the event latency. The events one `apply_batch`
/// consumes share its return, so what a tail percentile has beyond it is
/// batches, not events: the smallest workload flushes 250 batches a pass,
/// which leaves p95 a dozen of them and p99 two or three, and the inputs of
/// another seed then move p99 by twice as much as p95. It is taken over the
/// events' per-event medians across a run's passes
/// (`stats::median_per_event`), not within one pass, where whichever few
/// batches a noisy neighbour happened to hit would set it.
pub const TAIL: f64 = 0.95;

pub const E2E: [E2e; 5] = [
    E2e { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    E2e { name: "events_per_s", unit: "events/s", better: Higher, bound: 0.25 },
    E2e { name: "event_latency_p50_us", unit: "us", better: Lower, bound: 0.25 },
    E2e { name: "event_latency_p95_us", unit: "us", better: Lower, bound: 0.25 },
    E2e { name: "peak_heap_mb", unit: "MB", better: Lower, bound: 0.2 },
];

/// One layer (= module) of the pipeline: the metrics a traced measurement
/// takes around it, and the end-to-end metric and workload they should
/// move. The predictions were fixed before anything was measured;
/// `BENCHMARK.json` lists the metrics flat, in this order (its format has
/// no room for the other two columns).
pub struct Layer {
    pub module: &'static str,
    pub moves: &'static str,
    /// `(name, unit, better)`.
    pub metrics: &'static [(&'static str, &'static str, Better)],
}

pub const LAYERS: [Layer; 12] = [
    Layer {
        module: "set-up: core::engine / fleet / shard, query::parser",
        moves: "setup_s everywhere; register_s most on netflow_window and netflow_shards2 \
                (partition + mirror of g0), g0_load_s only on ingest_selective",
        metrics: &[
            ("setup.g0_load_s", "s", Lower),
            ("setup.register_s", "s", Lower),
            ("setup.initial_report_s", "s", Lower),
            ("setup.initial_matches", "count", Higher),
        ],
    },
    Layer {
        module: "stream::source",
        moves: "events_per_s on ingest_selective and lsbench_fleet8; about 0 on the \
                synthetic-source workloads",
        metrics: &[
            ("source.events", "count", Higher),
            ("source.bytes", "B", Lower),
            ("source.busy_s", "s", Lower),
            ("source.ns_per_event", "ns", Lower),
        ],
    },
    Layer {
        module: "stream::window + stream::driver",
        moves: "events_per_s on ingest_selective; peak_heap_mb slightly on netflow_window",
        metrics: &[
            ("window.ops_out", "count", Lower),
            ("window.expiry_deletes", "count", Lower),
            ("window.live_end", "count", Lower),
            ("window.busy_s", "s", Lower),
            ("window.ns_per_event", "ns", Lower),
            ("driver.flush_wall_s", "s", Lower),
            ("driver.self_s", "s", Lower),
        ],
    },
    Layer {
        module: "graph",
        moves: "events_per_s on ingest_selective and netflow_window; peak_heap_mb on every \
                workload (the triple edge storage of the ROADMAP audit)",
        metrics: &[
            ("graph.mutations", "count", Lower),
            ("graph.busy_s", "s", Lower),
            ("graph.ns_per_mutation", "ns", Lower),
            ("graph.g0_heap_mb", "MB", Lower),
            ("graph.bytes_per_edge", "B", Lower),
        ],
    },
    Layer {
        module: "core insert path: ops_insert, search, order",
        moves: "events_per_s and both latencies on lsbench_maint (maintenance share) and \
                netflow_enum (enumeration share)",
        metrics: &[
            ("core.insert_ops", "count", Lower),
            ("core.insert_eval_s", "s", Lower),
            ("core.ns_per_insert", "ns", Lower),
            ("core.insert_eval_p99_us", "us", Lower),
        ],
    },
    Layer {
        module: "core delete path: ops_delete, search",
        moves: "events_per_s and both latencies on netflow_window (half its ops); 0 on \
                lsbench_maint",
        metrics: &[
            ("core.delete_ops", "count", Lower),
            ("core.delete_eval_s", "s", Lower),
            ("core.ns_per_delete", "ns", Lower),
            ("core.delete_eval_p99_us", "us", Lower),
        ],
    },
    Layer {
        module: "enumeration output: core::search, core::parallel",
        moves: "events_per_s on netflow_enum; no change predicted on lsbench_maint. The two \
                threaded numbers are the job on TurboFluxConfig::default(), which tfx stream \
                runs; no end-to-end metric includes them",
        metrics: &[
            ("core.deltas_pos", "count", Higher),
            ("core.deltas_neg", "count", Higher),
            ("core.deltas_per_op", "ratio", Higher),
            ("core.ns_per_delta", "ns", Lower),
            ("core.noop_share", "ratio", Lower),
            ("core.default_workers_events_per_s", "events/s", Higher),
            ("core.intra_parallel_speedup_x", "x", Higher),
        ],
    },
    Layer {
        module: "core::dcg",
        moves: "peak_heap_mb on netflow_window and lsbench_maint",
        metrics: &[
            ("dcg.resident_mb_end", "MB", Lower),
            ("dcg.resident_mb_peak", "MB", Lower),
            ("dcg.stored_edges_end", "count", Lower),
            ("dcg.bytes_per_stored_edge", "B", Lower),
        ],
    },
    Layer {
        module: "core::fleet",
        moves: "events_per_s and both latencies on lsbench_fleet8 only; no end-to-end metric \
                includes the two-thread numbers",
        metrics: &[
            ("fleet.apply_batch_s", "s", Lower),
            ("fleet.ops_routed", "count", Lower),
            ("fleet.ops_skipped", "count", Higher),
            ("fleet.skip_ratio", "ratio", Higher),
            ("fleet.shared_hits", "count", Higher),
            ("fleet.shared_misses", "count", Lower),
            ("fleet.subtrees_shared", "count", Higher),
            ("fleet.subtree_hits", "count", Higher),
            ("fleet.suffix_evals", "count", Lower),
            ("fleet.threads2_events_per_s", "events/s", Higher),
            ("fleet.parallel_speedup_x", "x", Higher),
        ],
    },
    Layer {
        module: "core::shard",
        moves: "events_per_s and setup_s on netflow_shards2 only; no end-to-end metric \
                includes the two-thread numbers",
        metrics: &[
            ("shard.apply_batch_s", "s", Lower),
            ("shard.ops_routed", "count", Lower),
            ("shard.cross_shard_edges", "count", Lower),
            ("shard.handoffs", "count", Lower),
            ("shard.inbox_high_water", "count", Lower),
            ("shard.scaling_x", "x", Higher),
            ("shard.setup_overhead_x", "x", Lower),
            ("shard.threads2_events_per_s", "events/s", Higher),
            ("shard.parallel_speedup_x", "x", Higher),
        ],
    },
    Layer {
        module: "stream::sink",
        moves: "events_per_s on ingest_selective",
        metrics: &[
            ("sink.deltas", "count", Higher),
            ("sink.bytes", "B", Lower),
            ("sink.busy_s", "s", Lower),
            ("sink.ns_per_delta", "ns", Lower),
        ],
    },
    Layer {
        module: "host / trace",
        moves: "none: they say whether two sets of runs are comparable",
        metrics: &[
            ("host.cores", "count", Higher),
            ("host.calib_ms", "ms", Lower),
            ("trace.overhead_pct", "%", Lower),
        ],
    },
];

/// Every per-layer metric `(name, unit, better)`, in reporting order.
pub fn layer_metrics() -> impl Iterator<Item = &'static (&'static str, &'static str, Better)> {
    LAYERS.iter().flat_map(|l| l.metrics)
}

pub fn e2e(name: &str) -> Option<&'static E2e> {
    E2E.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::NAMES;

    /// `BENCHMARK.json` at the repository root must list exactly these
    /// workloads and metrics, with these units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("an array")
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).expect("a name").to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), NAMES);

        let listed = doc.get("end_to_end").and_then(Value::as_array).expect("end_to_end");
        assert_eq!(listed.len(), E2E.len());
        for (entry, m) in listed.iter().zip(&E2E) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
        }

        let listed = doc.get("per_layer").and_then(Value::as_array).expect("per_layer");
        assert_eq!(listed.len(), layer_metrics().count());
        for (entry, (name, unit, better)) in listed.iter().zip(layer_metrics()) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(better.as_str()),
                "{name}"
            );
        }
    }
}
