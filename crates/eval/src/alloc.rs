//! Counting global allocator for space-cost experiments (Figures 13–14).
//!
//! The `repro` binary installs [`CountingAllocator`] as its global allocator;
//! an experiment then brackets the code under measurement with
//! [`reset_peak`] / [`peak_bytes`] to obtain the real transient heap high-
//! water mark, rather than an estimate. Counting is a pair of relaxed
//! atomics — negligible overhead next to the allocations themselves.
//!
//! Allocation *calls* are counted per thread ([`alloc_calls`]), so an
//! allocation-freedom bracket sees only its own thread's calls, never those
//! of tests running in parallel beside it.
//!
//! Accounting is *saturating*: a dealloc that is not matched by a tracked
//! alloc (memory handed out before the allocator was installed, or a
//! mismatched test-side adjustment) clamps the live counter at zero instead
//! of wrapping `usize` — a wrapped counter would poison every subsequent
//! peak measurement with a ~2^64 baseline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocation calls made by this thread. A `const` initializer over a
    /// type without a destructor needs no lazy registration, so touching
    /// it never allocates inside the allocator.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

/// A `System`-backed allocator that tracks live and peak heap bytes.
pub struct CountingAllocator;

// SAFETY: delegates allocation to `System` verbatim; only bookkeeping added.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (non-zero
        // layout); we forward it unchanged to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` was allocated by this allocator
        // with this `layout`; we forward both unchanged.
        unsafe { System.dealloc(ptr, layout) };
        track_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: caller guarantees `ptr`/`layout` describe a live block
        // from this allocator and `new_size` is non-zero; forwarded as-is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            track_dealloc(layout.size());
            track_alloc(new_size);
        }
        p
    }
}

fn track_alloc(size: usize) {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Racy max-update is fine for measurement purposes: a lost update can
    // only under-report by one allocation's worth in a pathological race.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Saturating decrement of the live counter. A plain `fetch_sub` would wrap
/// on the first dealloc of a block that predates installation (the libc
/// startup allocations), pinning `CURRENT` near `usize::MAX` forever.
fn track_dealloc(size: usize) {
    let mut cur = CURRENT.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(size);
        match CURRENT.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(c) => cur = c,
        }
    }
}

/// Live heap bytes right now (as seen by the counting allocator).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Allocation calls (alloc + grow-side of realloc) made by the calling
/// thread since it started. Allocation-freedom tests bracket a code region
/// and assert the delta is zero — a byte-based measure can miss alloc/free
/// churn that nets out to nothing but still costs allocator round-trips.
pub fn alloc_calls() -> usize {
    CALLS.with(Cell::get)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live size, starting a new measurement
/// bracket. Returns the live size at the reset point.
pub fn reset_peak() -> usize {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Measure the peak *additional* heap used while running `f`: the high-water
/// mark relative to the live size when the bracket opened.
pub fn measure_peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(base))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // NOTE: the allocator is only *installed* in the repro binary; these
    // tests exercise the bookkeeping functions directly. They share the
    // global counters, so they serialize on one lock.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn tracking_math() {
        let _g = serial();
        let before = current_bytes();
        track_alloc(1000);
        assert_eq!(current_bytes(), before + 1000);
        assert!(peak_bytes() >= before + 1000);
        track_dealloc(1000);
        assert_eq!(current_bytes(), before);
    }

    #[test]
    fn reset_and_delta() {
        let _g = serial();
        let base = reset_peak();
        assert_eq!(peak_bytes(), base);
        track_alloc(512);
        assert!(peak_bytes() >= base + 512);
        track_dealloc(512);
        let (val, delta) = measure_peak_delta(|| {
            track_alloc(2048);
            track_dealloc(2048);
            7
        });
        assert_eq!(val, 7);
        assert!(delta >= 2048, "delta = {delta}");
    }

    /// Regression: an unmatched dealloc (more bytes freed than were ever
    /// tracked) must clamp at zero, not wrap to ~usize::MAX. Before the
    /// saturating fix this left `CURRENT` pinned astronomically high and
    /// every later peak-delta measurement meaningless.
    #[test]
    fn unmatched_dealloc_saturates_instead_of_wrapping() {
        let _g = serial();
        let live = current_bytes();
        track_dealloc(live + 10_000);
        assert_eq!(current_bytes(), 0, "saturated, not wrapped");
        // Accounting still works after the clamp.
        track_alloc(64);
        assert_eq!(current_bytes(), 64);
        track_dealloc(64);
        assert_eq!(current_bytes(), 0);
        // Leave the counters in a sane state for the other tests.
        track_alloc(live);
        assert_eq!(current_bytes(), live);
    }
}
