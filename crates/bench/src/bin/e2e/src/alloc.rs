//! A counting global allocator: live and peak heap bytes of the whole
//! process, which is the only memory number that covers graph + DCG +
//! window + driver buffers for all three runtimes (`Dcg::resident_bytes`
//! sees one engine's DCG and nothing else).
//!
//! Same shape as the allocator in `tests/alloc_steady_state.rs`: relaxed
//! atomics around [`System`]. The counters are statistics and publish no
//! other data, so `Relaxed` is enough; with worker threads the peak is the
//! maximum any single thread observed, which can differ by a few buffers
//! from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Forgets the peak seen so far and returns the live bytes it restarts from.
pub fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Relaxed);
    now
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Held by every test that resets the peak: tests run on parallel threads
/// and the counters are the process's.
#[cfg(test)]
pub static PEAK_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary installs the allocator too (see `main.rs`), so the
    /// peak of a scoped allocation is visible after it is freed. Other tests
    /// allocate on their own threads meanwhile: a few megabytes, which the
    /// slack absorbs.
    #[test]
    fn peak_outlives_the_allocation_that_made_it() {
        const BIG: usize = 256 << 20;
        const SLACK: usize = 64 << 20;
        let _alone = PEAK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let base = reset_peak();
        let v: Vec<u8> = vec![1; BIG];
        assert!(live() >= base + BIG - SLACK);
        drop(std::hint::black_box(v));
        assert!(live() < base + SLACK, "freed bytes left the live count");
        assert!(peak() >= base + BIG - SLACK, "peak remembers the freed vector");
        let rebased = reset_peak();
        assert!(peak() <= rebased + SLACK, "reset restarts the peak from live");
    }
}
