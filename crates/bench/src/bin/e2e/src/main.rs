//! `e2e` — the end-to-end streaming benchmark (see README.md next to
//! Cargo.toml, and BENCHMARK.json at the repository root).
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One measurement of one workload. The last line of standard output is
//!     one JSON object: correct, attempted, failed, metrics (the end-to-end
//!     metrics with --trace 0, the per-layer metrics with --trace 1).
//! e2e [--seed <n>] [--seconds <s>] [--out <file>]
//!     Every workload: three untraced measurements each, interleaved
//!     round-robin, then one traced measurement each. Prints every metric
//!     and writes a result file for `compare`.
//! e2e --smoke [--seed <n>]
//!     Every workload at ≈1% scale with every check on; claims no metric.
//! e2e compare <a.json> <b.json>
//!     Joins two result files; exits non-zero on any `worse`.
//! ```
//!
//! Every mode exits non-zero when a correctness check fails.

mod alloc;
mod compare;
mod digest;
mod host;
mod json;
mod measure;
mod metrics;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Value;
use measure::{Options, Outcome};
use workloads::Scale;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where trace and result files go, relative to the working directory.
pub const OUT_DIR: &str = "out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
       e2e [--seed <n>] [--seconds <s>] [--out <file>]
       e2e --smoke [--seed <n>]
       e2e compare <a.json> <b.json>
workloads: {}",
        workloads::NAMES.join(" ")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: None,
        seed: measure::GOLDEN_SEED,
        seconds: 18.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().ok()?,
            "--seconds" => a.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => a.trace = matches!(value.as_str(), "0" | "1").then(|| value == "1")?,
            "--out" => a.out = Some(value.clone()),
            _ => return None,
        }
    }
    Some(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::main(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&args) else {
        return usage();
    };
    if args.smoke {
        return suite::smoke(args.seed);
    }
    match &args.workload {
        Some(name) => one(name, &args),
        None => suite::run(args.seed, args.seconds, args.out.as_deref()),
    }
}

/// Contract mode: one measurement, result as the last line of stdout.
fn one(name: &str, args: &Args) -> ExitCode {
    let opts =
        Options { seed: args.seed, seconds: args.seconds, traced: args.trace, scale: Scale::Full };
    let Some(outcome) = measure::measure(name, &opts) else {
        eprintln!("error: unknown workload `{name}`");
        return usage();
    };
    report(&outcome);
    if let Some(spans) = &outcome.spans {
        write_trace(outcome.workload, spans);
    }
    let units = |name: &str| -> &'static str {
        metrics::e2e(name).map(|m| m.unit).unwrap_or_else(|| {
            metrics::layer_metrics().find(|(n, _, _)| *n == name).map_or("", |(_, u, _)| u)
        })
    };
    let result = json::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(name, v)| {
                        let m = json::obj([
                            ("value", Value::Num(*v)),
                            ("unit", Value::Str(units(name).to_owned())),
                        ]);
                        ((*name).to_owned(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json::to_string(&result));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Human-readable account of a measurement, on stderr.
pub fn report(o: &Outcome) {
    eprintln!(
        "{}: {} passes, {} ops attempted, {} failed; digest {}",
        o.workload,
        o.passes,
        o.attempted,
        o.failed,
        measure::golden_line(o.workload, &o.digest, o.initial_matches)
    );
    eprintln!(
        "  host probe {:.2} ms ({:.2}x nominal), off the CPU {:.1}% of the time; on the wall clock: setup {:.4} s, {:.0} events/s, latency p50 {:.1} us, p95 {:.1} us",
        o.calib_ms,
        o.calib_ms / host::NOMINAL_MS,
        o.off_cpu_share * 100.0,
        o.clocked[0],
        o.clocked[1],
        o.clocked[2],
        o.clocked[3]
    );
    for f in &o.failures {
        eprintln!("  FAILED: {f}");
    }
    for n in &o.notes {
        eprintln!("  note: {n}");
    }
}

/// Writes a traced pass's spans to `out/trace_<workload>.jsonl`.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let path = format!("{OUT_DIR}/trace_{workload}.jsonl");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, trace::spans_jsonl(spans)));
    match written {
        Ok(()) => eprintln!("  {} spans -> {path}", spans.len()),
        Err(e) => eprintln!("  warning: cannot write {path}: {e}"),
    }
}
