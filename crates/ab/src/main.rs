//! `ab-verdict [--write] <ab.json>`: judges every workload × end-to-end
//! metric of an A/B summary against `BENCHMARK.json`'s bounds (read from
//! the working directory), prints one line per row and, with `--write`,
//! stores each row's verdict in the summary beside its ratio. Exits 1 when
//! a row reads *worse* or the summary lists a failed run, 2 when a file
//! cannot be read.

use std::process::ExitCode;
use tfx_ab::json::{self, Value};
use tfx_ab::{judge, Verdict};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(path: &str, write: bool) -> Result<bool, String> {
    let mut summary = load(path)?;
    let rows = judge(&summary, &load("BENCHMARK.json")?)?;
    let rev = summary.get("rev").and_then(Value::as_str).unwrap_or("?");
    println!("{path}: the working tree against {rev}");
    for r in &rows {
        let (w, m, v) = (&r.workload, &r.metric, r.verdict.name());
        println!("  {w:<17} {m:<21} ratio {:>7.4}  bound {:>3.0}%  {v}", r.ratio, 100.0 * r.bound);
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let failed = summary.get("failed").map_or(0, |f| f.items().len());
    println!("{worse} worse, {failed} failed runs");
    if write {
        for r in &rows {
            let cells = summary.get_mut("workloads").and_then(|w| w.get_mut(&r.workload));
            if let Some(cell) = cells.and_then(|c| c.get_mut(&r.metric)) {
                cell.set("verdict", Value::Str(r.verdict.name().to_string()));
            }
        }
        std::fs::write(path, json::to_string(&summary)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(worse == 0 && failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (write, path) = match &args[..] {
        [flag, path] if flag == "--write" => (true, path),
        [path] if !path.starts_with('-') => (false, path),
        _ => {
            eprintln!("usage: ab-verdict [--write] <ab.json>");
            return ExitCode::from(2);
        }
    };
    match run(path, write) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ab-verdict: {e}");
            ExitCode::from(2)
        }
    }
}
