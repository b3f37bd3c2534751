//! Every workload in one command: repetitions interleaved round-robin so
//! that a slow minute on a shared host spreads over all workloads instead
//! of landing on one, a traced measurement each, the cross-check against
//! the real `tfx` binary, a printed table and a result file for `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use turboflux::stream::WindowSpec;

use crate::json::{self, Value};
use crate::measure::{self, Options, Outcome};
use crate::metrics::{E2E, LAYERS};
use crate::run;
use crate::stats::median;
use crate::workloads::{self, Events, Scale, G0, NAMES};
use crate::{report, write_trace, OUT_DIR};

/// One workload's measurements across the repetitions.
struct Collected {
    name: &'static str,
    /// Per end-to-end metric, one value per repetition.
    e2e: Vec<Vec<f64>>,
    /// Per timed end-to-end metric (the first four), what the wall clock said
    /// before the host normalisation, one value per repetition.
    clocked: [Vec<f64>; 4],
    calib_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: String,
    layers: Vec<(&'static str, f64)>,
}

/// Untraced measurements per workload.
const REPS: usize = 3;

pub fn run(seed: u64, seconds: f64, out: Option<&str>) -> ExitCode {
    let mut all: Vec<Collected> = NAMES
        .iter()
        .map(|&name| Collected {
            name,
            e2e: vec![Vec::new(); E2E.len()],
            clocked: Default::default(),
            calib_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: String::new(),
            layers: Vec::new(),
        })
        .collect();

    for rep in 0..REPS {
        for c in &mut all {
            eprintln!("[rep {}/{REPS}] {}", rep + 1, c.name);
            let opts = Options { seed, seconds, traced: false, scale: Scale::Full };
            let o = measure::measure(c.name, &opts).expect("NAMES lists known workloads");
            report(&o);
            for (samples, (_, v)) in c.e2e.iter_mut().zip(&o.metrics) {
                samples.push(*v);
            }
            for (samples, v) in c.clocked.iter_mut().zip(o.clocked) {
                samples.push(v);
            }
            c.absorb(&o);
        }
    }
    for c in &mut all {
        eprintln!("[traced] {}", c.name);
        let opts = Options { seed, seconds, traced: true, scale: Scale::Full };
        let o = measure::measure(c.name, &opts).expect("NAMES lists known workloads");
        report(&o);
        if let Some(spans) = &o.spans {
            write_trace(o.workload, spans);
        }
        c.absorb(&o);
        c.layers = o.metrics;
    }
    let cli_failed = !cli_cross_check(seed, Scale::Full);

    for c in &all {
        c.print();
    }
    let path = out.map_or_else(|| format!("{OUT_DIR}/e2e_{seed}.json"), str::to_owned);
    let doc = json::obj([
        ("benchmark", Value::Str("e2e".to_owned())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("reps", Value::Num(REPS as f64)),
        ("workloads", Value::Arr(all.iter().map(Collected::to_json).collect())),
    ]);
    let written = Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json::to_string(&doc) + "\n"));
    match written {
        Ok(()) => println!("results -> {path}"),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cli_failed || all.iter().any(|c| c.failed > 0) {
        println!("FAILED: see the FAILED lines above");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

impl Collected {
    fn absorb(&mut self, o: &Outcome) {
        self.calib_ms.push(o.calib_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.digest = measure::golden_line(o.workload, &o.digest, o.initial_matches);
    }

    fn print(&self) {
        println!("\n== {}: ops_attempted {} ops_failed {}", self.name, self.attempted, self.failed);
        println!("   digest {}", self.digest);
        for (i, (m, samples)) in E2E.iter().zip(&self.e2e).enumerate() {
            let (lo, hi) = min_max(samples);
            let clocked = self.clocked.get(i).map_or_else(String::new, |c| {
                format!("; on the wall clock, before host normalisation: {:.4}", median(c))
            });
            println!(
                "   {:<24} {:>14.4} {:<9} min {:.4} max {:.4} n {} ({} is better, bound {:.0}%{clocked})",
                m.name,
                median(samples),
                m.unit,
                lo,
                hi,
                samples.len(),
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        println!("   host.calib_ms per measurement: {:.1?}", self.calib_ms);
        println!("   per layer, from the traced measurement:");
        let mut values = self.layers.iter();
        for layer in &LAYERS {
            println!("   -- {} (should move: {})", layer.module, layer.moves);
            // The layer's table first: `zip` stops before pulling a value
            // that belongs to the next layer.
            for ((_, unit, _), (name, value)) in layer.metrics.iter().zip(values.by_ref()) {
                println!("   {name:<36} {value:>16.6} {unit}");
            }
        }
    }

    fn to_json(&self) -> Value {
        let e2e = E2E
            .iter()
            .zip(&self.e2e)
            .enumerate()
            .map(|(i, (m, samples))| {
                let (lo, hi) = min_max(samples);
                // The heap metric is not timed: the clocks have no say in it.
                let clocked = self.clocked.get(i).map_or(median(samples), |c| median(c));
                json::obj([
                    ("clocked_median", Value::Num(clocked)),
                    ("name", Value::Str(m.name.to_owned())),
                    ("unit", Value::Str(m.unit.to_owned())),
                    ("better", Value::Str(m.better.as_str().to_owned())),
                    ("bound", Value::Num(m.bound)),
                    ("median", Value::Num(median(samples))),
                    ("min", Value::Num(lo)),
                    ("max", Value::Num(hi)),
                    ("n", Value::Num(samples.len() as f64)),
                ])
            })
            .collect();
        let described = LAYERS.iter().flat_map(|l| l.metrics.iter().map(move |m| (l, m)));
        let layers = self
            .layers
            .iter()
            .zip(described)
            .map(|((name, value), (layer, (_, unit, _)))| {
                json::obj([
                    ("name", Value::Str((*name).to_owned())),
                    ("unit", Value::Str((*unit).to_owned())),
                    ("value", Value::Num(*value)),
                    ("layer", Value::Str(layer.module.to_owned())),
                    ("moves", Value::Str(layer.moves.to_owned())),
                ])
            })
            .collect();
        json::obj([
            ("name", Value::Str(self.name.to_owned())),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failed as f64)),
            ("digest", Value::Str(self.digest.clone())),
            ("calib_ms", Value::Arr(self.calib_ms.iter().map(|&c| Value::Num(c)).collect())),
            ("e2e", Value::Arr(e2e)),
            ("layers", Value::Arr(layers)),
        ])
    }
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    samples.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// `--smoke`: every workload at ≈1% scale, one untraced and one traced pass
/// plus the cross-runtime pass, every check but the goldens (which are for
/// the full size). Claims no metric.
pub fn smoke(seed: u64) -> ExitCode {
    let mut failed = false;
    for name in NAMES {
        let opts = Options { seed, seconds: 0.0, traced: true, scale: Scale::Smoke };
        let o = measure::measure(name, &opts).expect("NAMES lists known workloads");
        report(&o);
        failed |= o.failed > 0;
    }
    failed |= !cli_cross_check(seed, Scale::Smoke);
    if failed {
        println!("smoke: FAILED");
        ExitCode::FAILURE
    } else {
        println!("smoke: ok ({} workloads, no metric claimed)", NAMES.len());
        ExitCode::SUCCESS
    }
}

/// Where a built `tfx` may be, relative to the working directory.
fn tfx_binary() -> Option<PathBuf> {
    let mut dirs = Vec::new();
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        dirs.push(PathBuf::from(dir));
    }
    dirs.push(PathBuf::from("target"));
    dirs.into_iter().map(|d| d.join("release").join("tfx")).find(|p| p.is_file())
}

/// Untimed: runs `ingest_selective` through the real `tfx stream` and holds
/// its `init` and `summary` lines against the in-process run. `false` only
/// on disagreement; a missing binary skips the check with a note.
fn cli_cross_check(seed: u64, scale: Scale) -> bool {
    let Some(tfx) = tfx_binary() else {
        println!("cli cross-check: skipped, no release `tfx` binary (build it with `cargo build --release`)");
        return true;
    };
    let inputs = workloads::generate("ingest_selective", seed, scale).expect("known workload");
    let (G0::Text(g0), Events::Text(stream)) = (&inputs.g0, &inputs.events) else {
        unreachable!("ingest_selective hands g0 and stream over as text");
    };
    let WindowSpec::Time { width } = inputs.window else {
        unreachable!("ingest_selective uses a time window");
    };
    let dir = Path::new(OUT_DIR).join("cli_check");
    let files = [
        ("g0.txt", g0.as_str()),
        ("stream.txt", stream.as_str()),
        ("query.txt", inputs.queries[0]),
    ];
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        files.iter().try_for_each(|(name, text)| std::fs::write(dir.join(name), text))
    });
    if let Err(e) = written {
        println!("cli cross-check: FAILED, cannot write inputs under {}: {e}", dir.display());
        return false;
    }
    let output = Command::new(&tfx)
        .arg("stream")
        .arg("--graph")
        .arg(dir.join("g0.txt"))
        .arg("--file")
        .arg(dir.join("stream.txt"))
        .arg("--query")
        .arg(dir.join("query.txt"))
        .args(["--window", &format!("time:{width}")])
        .output();
    let output = match output {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            println!("cli cross-check: FAILED, {} exited with {}", tfx.display(), o.status);
            return false;
        }
        Err(e) => {
            println!("cli cross-check: FAILED, cannot run {}: {e}", tfx.display());
            return false;
        }
    };
    let field = |line: &Value, key: &str| line.get(key).and_then(Value::as_f64).map(|v| v as u64);
    let (mut init, mut totals) = (None, None);
    // Without `--quiet` (whose counting sink prints no summary) stdout also
    // carries every delta; only the two line types compared are parsed.
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if !(line.starts_with("{\"type\":\"init\"") || line.starts_with("{\"type\":\"summary\"")) {
            continue;
        }
        let Ok(v) = json::parse(line) else { continue };
        match v.get("type").and_then(Value::as_str) {
            Some("init") => init = field(&v, "matches"),
            Some("summary") => totals = field(&v, "positive").zip(field(&v, "negative")),
            _ => {}
        }
    }
    let pass = run::run_pass(&inputs, inputs.runtime, false);
    let ours = (
        pass.setup.initial_matches.first().copied(),
        Some((pass.digest.positive, pass.digest.negative)),
    );
    if (init, totals) == ours {
        println!(
            "cli cross-check: ok, `tfx stream` and the in-process run agree (init {init:?}, +/- {totals:?})"
        );
        true
    } else {
        println!(
            "cli cross-check: FAILED, tfx says init {init:?} +/- {totals:?}, in-process {ours:?}"
        );
        false
    }
}
