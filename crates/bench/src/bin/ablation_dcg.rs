//! Ablation — TurboFlux design choices:
//!
//! * `AdjustMatchingOrder` on/off (§4.1): does re-deriving the matching
//!   order from DCG statistics pay off as the stream shifts the data?
//! * Order-drift sensitivity: a very lax drift factor approximates a
//!   never-recomputed (static) order.

use std::time::Duration;
use tfx_bench::harness::bare_update_time;
use tfx_bench::report::{fmt_duration, mean_duration, Table};
use tfx_bench::workloads::{lsbench_dataset, tree_query_sets};
use tfx_bench::Params;
use tfx_core::{TurboFlux, TurboFluxConfig};
use tfx_query::{ContinuousMatcher, MatchSemantics, QueryGraph};

fn run_variant(
    queries: &[QueryGraph],
    g0: &tfx_graph::DynamicGraph,
    stream: &tfx_graph::UpdateStream,
    bare: Duration,
    cfg: TurboFluxConfig,
) -> (Duration, u64) {
    let mut costs = Vec::new();
    let mut matches = 0u64;
    for q in queries {
        let mut engine = TurboFlux::new(q.clone(), g0.clone(), cfg);
        let t = std::time::Instant::now();
        for op in stream {
            engine.apply(op, &mut |_, _| matches += 1);
        }
        costs.push(t.elapsed().saturating_sub(bare));
    }
    (mean_duration(&costs), matches)
}

fn main() {
    let p = Params::from_env();
    let d = lsbench_dataset(&p);
    let sets = tree_query_sets(&d, &p, &[Params::DEFAULT_TREE_SIZE]);
    let (_, queries) = &sets[0];
    eprintln!("{} selective tree queries of size {}", queries.len(), Params::DEFAULT_TREE_SIZE);
    let bare = bare_update_time(&d.g0, &d.stream);

    let variants: [(&str, TurboFluxConfig); 2] = [
        ("adjust-order (default)", TurboFluxConfig::default()),
        (
            "static order",
            TurboFluxConfig { adjust_matching_order: false, ..TurboFluxConfig::default() },
        ),
    ];

    let mut t = Table::new(
        "Ablation: matching-order maintenance (LSBench tree q6)",
        &["variant", "avg cost(M(Δg,q))", "positives"],
    );
    let mut baseline_matches = None;
    for (name, cfg) in variants {
        let (cost, matches) = run_variant(queries, &d.g0, &d.stream, bare, cfg);
        // Every variant must report the same matches — the order only
        // affects speed, never results.
        if let Some(base) = baseline_matches {
            assert_eq!(matches, base, "ablation variant changed the results!");
        } else {
            baseline_matches = Some(matches);
        }
        t.row(vec![name.into(), fmt_duration(cost), matches.to_string()]);
    }
    t.emit();

    // Semantics comparison rides along: homomorphism vs isomorphism DCG
    // sizes are identical (the DCG is semantics-independent).
    let q = &queries[0];
    let hom = TurboFlux::new(q.clone(), d.g0.clone(), TurboFluxConfig::default());
    let iso = TurboFlux::new(
        q.clone(),
        d.g0.clone(),
        TurboFluxConfig::with_semantics(MatchSemantics::Isomorphism),
    );
    let mut t2 = Table::new(
        "Ablation: DCG size is semantics-independent",
        &["semantics", "DCG edges", "bytes"],
    );
    t2.row(vec![
        "homomorphism".into(),
        hom.dcg().stored_edge_count().to_string(),
        hom.intermediate_result_bytes().to_string(),
    ]);
    t2.row(vec![
        "isomorphism".into(),
        iso.dcg().stored_edge_count().to_string(),
        iso.intermediate_result_bytes().to_string(),
    ]);
    t2.emit();
}
