//! The host-speed probe: how much slower than a quiet host of its class the
//! machine is running right now.
//!
//! The benchmark was sized on a 2-vCPU VM of a shared host, where the same
//! pass of the same workload takes anything from 1× to 2× as long from one
//! minute to the next, all of it user time, with no page faults, and on the
//! CPU clock as much as on the wall clock (what the hypervisor steals
//! outright is a different matter, see [`cpu_time`]). Experiments with
//! reference kernels timed between the passes (see README.md, "Noise")
//! showed what moves with it: a dependent multiply-add chain not at all,
//! independent or dependent loads over 64 MB hardly, but a kernel with the
//! instruction mix of the pipeline itself — hashing, probing a table of a
//! few megabytes, sorting — closely: over
//! eight passes, probe time and pass time correlate at 0.8–0.9 and rise and
//! fall by the same factor. That is the signature of a neighbour on the
//! sibling hardware thread, and it is what this kernel measures.
//!
//! The probe runs between passes, never during one, uses nothing but `std`,
//! and works in memory it allocated and touched before the first pass: it
//! shares neither code nor heap with the product, so no change to the
//! product can make it faster or slower.

use std::collections::HashMap;
use std::time::Duration;

/// The probe's time on a quiet host of the class the benchmark was sized on
/// (2.1 GHz Xeon, one vCPU). It is a unit, not a calibration: another host
/// scales every timed end-to-end metric by one constant factor, which no
/// comparison made on that host sees.
pub const NOMINAL_MS: f64 = 32.0;

const KEYS: usize = 300_000;
/// 4 M possible keys: nearly every insert makes a new entry in a table of
/// 8 MB.
const KEY_MASK: u64 = 0x3F_FFFF;
/// Fills of the table per sample.
const ROUNDS: usize = 2;

pub struct Probe {
    keys: Vec<u64>,
    table: HashMap<u64, u64>,
    values: Vec<u64>,
    /// Milliseconds per run, in the order taken.
    pub samples_ms: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 20) & KEY_MASK
            })
            .collect();
        let mut probe = Probe {
            keys,
            table: HashMap::with_capacity(KEYS),
            values: Vec::with_capacity(KEYS),
            // More than a measurement takes, so that no sample allocates.
            samples_ms: Vec::with_capacity(4096),
        };
        // The first run pays for the pages it touches.
        probe.sample();
        probe.samples_ms.clear();
        probe
    }

    /// Runs the kernel once and records its time on the CPU clock.
    pub fn sample(&mut self) {
        let t0 = cpu_time();
        for _ in 0..ROUNDS {
            self.table.clear();
            for &k in &self.keys {
                *self.table.entry(k).or_insert(0) += k;
            }
            self.values.clear();
            self.values.extend(self.table.values().copied());
            self.values.sort_unstable();
            std::hint::black_box(&self.values);
        }
        self.samples_ms.push((cpu_time() - t0).as_secs_f64() * 1e3);
    }

    /// Samples after a pass and returns the slowdown during that pass: the
    /// mean of the samples on either side of it, over the nominal time.
    pub fn sample_after_pass(&mut self) -> f64 {
        self.sample();
        let [.., before, after] = self.samples_ms[..] else {
            unreachable!("a sample is taken before the first pass");
        };
        (before + after) / 2.0 / NOMINAL_MS
    }
}

/// The CPU time this process has used, on all its threads.
///
/// Every timed end-to-end metric is taken on this clock. The measured
/// pipeline runs on one thread, does no I/O and never sleeps, so on a host
/// of its own its CPU time is its wall time. On the shared host the
/// hypervisor takes the vCPU away for anything from nothing to half of the
/// time, for milliseconds within a batch or for a quarter of an hour on end
/// (`st` in `vmstat`), and the wall clock cannot tell that from work; a
/// guest's CPU clock does not count it, nor the time another process of the
/// guest had the core.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for the C library to fill.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Where the CPU clock is not at hand, the wall clock stands in for it.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_time() -> Duration {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed()
}
