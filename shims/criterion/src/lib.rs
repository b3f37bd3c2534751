//! Vendored minimal stand-in for the `criterion` crate so benches build and
//! run without network access. It implements the subset of the API this
//! workspace uses — `criterion_group!` / `criterion_main!`, benchmark
//! groups, `Bencher::iter`, `Throughput` — with a simple
//! warmup-then-sample measurement loop instead of criterion's statistical
//! machinery.
//!
//! Tuning (environment variables):
//!
//! * `TFX_BENCH_WARMUP_MS` — warmup per benchmark (default 200).
//! * `TFX_BENCH_MEASURE_MS` — total measurement budget per benchmark
//!   (default 500).

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation: per-iteration element counts.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the configured number of iterations, timing the whole
    /// batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn env_ms(var: &str, default: u64) -> Duration {
    Duration::from_millis(std::env::var(var).ok().and_then(|v| v.parse().ok()).unwrap_or(default))
}

/// The benchmark driver. Holds an optional substring filter taken from the
/// command line.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Builds a driver from `std::env::args`, treating the first
    /// non-flag argument as a substring filter (flags like `--bench` that
    /// cargo passes are ignored).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.into(), throughput: None, _sample_size: 0 }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput
/// annotation.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    _sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput annotation.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for criterion compatibility; the shim sizes samples by
    /// wall-clock budget instead.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self._sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.c.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let warmup = env_ms("TFX_BENCH_WARMUP_MS", 200);
        let measure = env_ms("TFX_BENCH_MEASURE_MS", 500);

        // Estimate the per-iteration cost with single-iteration calls.
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        let mut est = b.elapsed.max(Duration::from_nanos(1));

        // Warmup for the configured wall-clock budget.
        let warmup_start = Instant::now();
        while warmup_start.elapsed() < warmup {
            f(&mut b);
            est = (est + b.elapsed.max(Duration::from_nanos(1))) / 2;
        }

        // Sample: split the measurement budget into ~10 samples.
        let samples = 10usize;
        let per_sample = measure / samples as u32;
        let iters = (per_sample.as_nanos() / est.as_nanos().max(1)).clamp(1, 1 << 24) as u64;
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher { iters, elapsed: Duration::ZERO };
            f(&mut b);
            per_iter_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min = per_iter_ns[0];
        let max = *per_iter_ns.last().unwrap();
        let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;

        let mut line =
            format!("{full:<48} time: [{} {} {}]", fmt_ns(min), fmt_ns(mean), fmt_ns(max));
        if let Some(Throughput::Elements(n)) = self.throughput {
            line.push_str(&format!("  thrpt: {:.3} Melem/s", n as f64 * 1e3 / mean));
        }
        println!("{line}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a set of benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut n = 0u64;
        let mut b = Bencher { iters: 5, elapsed: Duration::ZERO };
        b.iter(|| n += 1);
        assert_eq!(n, 5);
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn group_runs_and_filters() {
        std::env::set_var("TFX_BENCH_WARMUP_MS", "1");
        std::env::set_var("TFX_BENCH_MEASURE_MS", "5");
        let mut c = Criterion { filter: Some("hit".into()) };
        let mut group = c.benchmark_group("g");
        let mut ran = false;
        group.bench_function("hit_me", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        let mut skipped = false;
        group.bench_function("other", |b| {
            skipped = true;
            b.iter(|| 1 + 1)
        });
        group.finish();
        assert!(ran);
        assert!(!skipped);
    }
}
