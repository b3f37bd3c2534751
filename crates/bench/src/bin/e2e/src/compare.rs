//! `e2e compare <a.json> <b.json>`: joins two result files written by the
//! all-workloads mode on (workload, metric) and judges every end-to-end
//! pair against the metric's bound (the one recorded in `a`).

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::Better;
use crate::stats::median;

/// How far two sets' `host.calib_ms` medians may differ before a timed pair
/// is left unresolved. The timed metrics are already normalised by the probe
/// behind `host.calib_ms`, which follows a workload's slowdown closely but
/// not exactly (to within a third of it, in the experiments of README.md):
/// beyond 15 % apart, what the normalisation leaves over comes within reach
/// of the bounds.
const CALIB_TOLERANCE: f64 = 0.15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs cannot tell: one side's own min–max spread exceeds the
    /// bound, or the host ran at a different speed for the two sets.
    Unresolved,
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// Judges `new` against `base`. `calib` is the two sets' median
/// `host.calib_ms`, where both recorded one.
pub fn verdict(
    base: Sample,
    new: Sample,
    better: Better,
    bound: f64,
    calib: Option<(f64, f64)>,
) -> Verdict {
    let host_moved = calib.is_some_and(|(a, b)| ((b - a) / a).abs() > CALIB_TOLERANCE);
    if host_moved || base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the base.
    let worsening = match better {
        Better::Lower => (new.median - base.median) / base.median,
        Better::Higher => (base.median - new.median) / base.median,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn named<'a>(list: Option<&'a Value>, name: &str) -> Option<&'a Value> {
    list?.as_array()?.iter().find(|v| v.get("name").and_then(Value::as_str) == Some(name))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn sample(v: &Value) -> Option<Sample> {
    Some(Sample { median: num(v, "median")?, min: num(v, "min")?, max: num(v, "max")? })
}

fn calib_median(workload: &Value) -> Option<f64> {
    let values: Vec<f64> =
        workload.get("calib_ms")?.as_array()?.iter().filter_map(Value::as_f64).collect();
    (!values.is_empty()).then(|| median(&values))
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    let mut unresolved = 0;
    println!("base {a_path}\nnew  {b_path}\nratio = new / base");
    for wa in a.get("workloads").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(name) = wa.get("name").and_then(Value::as_str) else { continue };
        let Some(wb) = named(b.get("workloads"), name) else {
            println!("\n== {name}: only in {a_path}");
            continue;
        };
        let calib = calib_median(wa).zip(calib_median(wb));
        println!("\n== {name}");
        if let Some((ca, cb)) = calib {
            println!("   host.calib_ms {ca:.1} -> {cb:.1} ({:+.1}%)", 100.0 * (cb - ca) / ca);
        }
        if wa.get("digest") != wb.get("digest") {
            println!("   digests differ: the two sets did not do the same work");
        }
        for ma in wa.get("e2e").and_then(Value::as_array).unwrap_or(&[]) {
            let Some(metric) = ma.get("name").and_then(Value::as_str) else { continue };
            let (Some(base), Some(new)) =
                (sample(ma), named(wb.get("e2e"), metric).and_then(sample))
            else {
                println!("   {metric:<24} not in both files");
                continue;
            };
            let better = match ma.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = num(ma, "bound").unwrap_or(0.0);
            // Heap bytes do not depend on how fast the host ran.
            let timed = ma.get("unit").and_then(Value::as_str) != Some("MB");
            let v = verdict(base, new, better, bound, calib.filter(|_| timed));
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Same | Verdict::Better => {}
            }
            // Not judged: the same ratio on the wall clock, before the host
            // normalisation.
            let clocked = num(ma, "clocked_median")
                .zip(named(wb.get("e2e"), metric).and_then(|m| num(m, "clocked_median")))
                .map_or_else(String::new, |(a, b)| format!(", on the wall clock {:.4}", b / a));
            println!(
                "   {metric:<24} {:>14.4} / {:<14.4} = {:<7.4} {:<10} (bound {:.0}%, spreads {:.1}% {:.1}%{clocked})",
                new.median,
                base.median,
                new.median / base.median,
                format!("{v:?}").to_lowercase(),
                bound * 100.0,
                base.spread() * 100.0,
                new.spread() * 100.0
            );
        }
        for la in wa.get("layers").and_then(Value::as_array).unwrap_or(&[]) {
            let Some(metric) = la.get("name").and_then(Value::as_str) else { continue };
            let (Some(base), Some(new)) =
                (num(la, "value"), named(wb.get("layers"), metric).and_then(|l| num(l, "value")))
            else {
                continue;
            };
            if base != 0.0 || new != 0.0 {
                println!("   {metric:<28} {new:>16.6} / {base:<16.6} = {:.4}", new / base);
            }
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Sample {
        Sample { median, min: median * 0.99, max: median * 1.01 }
    }

    #[test]
    fn worse_better_and_same_against_the_bound() {
        // Throughput, 7% bound: 8% down is worse, 8% up better, 5% down same.
        let base = tight(100_000.0);
        let t = |new: f64| verdict(base, tight(new), Better::Higher, 0.07, None);
        assert_eq!(t(92_000.0), Verdict::Worse);
        assert_eq!(t(108_000.0), Verdict::Better);
        assert_eq!(t(95_000.0), Verdict::Same);
        // Latency, lower is better: the directions swap.
        let l = |new: f64| verdict(tight(500.0), tight(new), Better::Lower, 0.07, None);
        assert_eq!(l(540.0), Verdict::Worse);
        assert_eq!(l(460.0), Verdict::Better);
        assert_eq!(l(520.0), Verdict::Same);
    }

    #[test]
    fn unresolved_when_the_runs_cannot_tell() {
        let base = tight(100.0);
        let wide = Sample { median: 80.0, min: 70.0, max: 95.0 };
        assert_eq!(verdict(base, wide, Better::Higher, 0.1, None), Verdict::Unresolved);
        assert_eq!(verdict(wide, base, Better::Higher, 0.1, None), Verdict::Unresolved);
        // A host that calibrates 20% slower makes a 20% drop unattributable;
        // at 10% it stands.
        let drop = tight(80.0);
        let slower = Some((21.0, 25.2));
        assert_eq!(verdict(base, drop, Better::Higher, 0.1, slower), Verdict::Unresolved);
        assert_eq!(verdict(base, drop, Better::Higher, 0.1, Some((21.0, 23.1))), Verdict::Worse);
    }
}
