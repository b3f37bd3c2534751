//! Verdicts on an A/B summary of the end-to-end benchmark.
//!
//! `scripts/ab.sh <rev>` measures the working tree against a revision in
//! alternating pairs and summarises each workload × end-to-end metric as
//! both sides' medians and quartiles (`results/ab/pr<N>.json`). [`judge`]
//! reads each such row against the metric's bound in `BENCHMARK.json`:
//! *better* or *worse* when the ratio of the medians lies beyond the bound,
//! *same* within it, and *unresolved* when either side's own quartile
//! spread exceeds the bound — the pairs cannot tell then. A change's "no
//! worse than the bound" is then a verdict in a file, which `scripts/ci.sh`
//! reads back.

pub mod json;

use json::Value;

/// One side of a row: the median of its runs and their quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    /// The interquartile range as a share of the median.
    fn relative(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    fn read(side: &Value) -> Option<Spread> {
        let num = |key| side.get(key).and_then(Value::as_f64);
        Some(Spread { median: num("median")?, q1: num("q1")?, q3: num("q3")? })
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's quartile spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the tree's side against the revision's for a metric whose better
/// direction is lower (`lower`) or higher, against `bound`, a share of the
/// revision's median.
pub fn verdict(rev: Spread, tree: Spread, lower: bool, bound: f64) -> Verdict {
    // A median of 0 makes every share infinite or undefined: unresolved.
    if !(rev.relative() <= bound && tree.relative() <= bound) {
        return Verdict::Unresolved;
    }
    // Positive when the tree is worse, as a share of the revision.
    let worsening = match lower {
        true => tree.median / rev.median - 1.0,
        false => 1.0 - tree.median / rev.median,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One judged workload × metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges every workload × end-to-end metric of an A/B `summary` that
/// `benchmark` (`BENCHMARK.json`) bounds, in the summary's order. A row
/// the summary lacks a side of is an error, as is a metric with no bound.
pub fn judge(summary: &Value, benchmark: &Value) -> Result<Vec<Row>, String> {
    let metrics = benchmark.get("end_to_end").ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut rows = Vec::new();
    for (workload, cells) in summary.get("workloads").ok_or("no workloads")?.fields() {
        for (metric, cell) in cells.fields() {
            let named = |m: &&Value| m.get("name").and_then(Value::as_str) == Some(metric);
            let Some(m) = metrics.items().iter().find(named) else { continue };
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("a metric has no bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let side = |key| cell.get(key).and_then(Spread::read);
            let (Some(rev), Some(tree)) = (side("rev"), side("tree")) else {
                return Err(format!("{workload} {metric}: a side lacks its median or quartiles"));
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                ratio: tree.median / rev.median,
                bound,
                verdict: verdict(rev, tree, lower, bound),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose runs sit within ±`half` of `median`.
    fn tight(median: f64, half: f64) -> Spread {
        Spread { median, q1: median - half, q3: median + half }
    }

    #[test]
    fn the_ratio_of_medians_against_the_bound() {
        // A time at a 25 % bound: 30 % up is worse, 30 % down better, 20 %
        // up the same.
        let time = |tree| verdict(tight(1.0, 0.01), tight(tree, 0.01), true, 0.25);
        assert_eq!(time(1.30), Verdict::Worse);
        assert_eq!(time(0.70), Verdict::Better);
        assert_eq!(time(1.20), Verdict::Same);
        // A throughput reads the other way round.
        let rate = |tree| verdict(tight(100.0, 1.0), tight(tree, 1.0), false, 0.25);
        assert_eq!(rate(70.0), Verdict::Worse);
        assert_eq!(rate(130.0), Verdict::Better);
        assert_eq!(rate(90.0), Verdict::Same);
        // A deterministic metric has no spread: 10.56 -> 8.10 MB at 20 %.
        let heap = verdict(tight(10.56, 0.0), tight(8.10, 0.0), true, 0.2);
        assert_eq!(heap, Verdict::Better);
    }

    #[test]
    fn unresolved_when_a_side_spreads_past_the_bound() {
        // Either side's quartiles 30 % of its median apart, at a 25 % bound.
        assert_eq!(verdict(tight(1.0, 0.15), tight(2.0, 0.01), true, 0.25), Verdict::Unresolved);
        assert_eq!(verdict(tight(1.0, 0.01), tight(2.0, 0.3), true, 0.25), Verdict::Unresolved);
        assert_eq!(verdict(tight(0.0, 0.0), tight(1.0, 0.0), true, 0.25), Verdict::Unresolved);
    }

    #[test]
    fn judge_reads_a_summary_against_the_benchmark() {
        let benchmark = json::parse(
            r#"{"end_to_end": [
                {"name": "setup_s", "better": "lower", "bound": 0.25},
                {"name": "events_per_s", "better": "higher", "bound": 0.25}]}"#,
        )
        .unwrap();
        let side =
            |m: f64| format!(r#"{{"median": {m}, "q1": {m}, "q3": {m}, "min": 0, "max": 9}}"#);
        let summary = json::parse(&format!(
            r#"{{"rev": "abc", "workloads": {{"w": {{
                "setup_s": {{"pairs": 10, "rev": {}, "tree": {}, "ratio": 2}},
                "events_per_s": {{"pairs": 10, "rev": {}, "tree": {}, "ratio": 1}},
                "not_bounded": {{"pairs": 10, "rev": {}, "tree": {}, "ratio": 1}}}}}},
                "failed": []}}"#,
            side(1.0),
            side(2.0),
            side(5.0),
            side(5.5),
            side(1.0),
            side(9.0)
        ))
        .unwrap();
        let rows = judge(&summary, &benchmark).unwrap();
        let got: Vec<_> = rows.iter().map(|r| (r.metric.as_str(), r.verdict)).collect();
        assert_eq!(got, [("setup_s", Verdict::Worse), ("events_per_s", Verdict::Same)]);
        assert_eq!(rows[0].ratio, 2.0);
        let lopsided = json::parse(r#"{"workloads": {"w": {"setup_s": {"rev": {"median": 1}}}}}"#);
        assert!(judge(&lopsided.unwrap(), &benchmark).is_err());
    }
}
