//! Benchmark-only counting allocator.
//!
//! Wraps [`System`] and, while switched on, counts allocations, allocated
//! bytes and the high-water mark of bytes live above the level at which
//! counting started. Switched off it costs one relaxed load per call, so
//! the timed rounds run with it off and a separate counted round supplies
//! `peak_live_bytes` and the `alloc.*` numbers (counting itself costs
//! 8-25% of a round, see the README).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator installed for every binary linking this crate.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize, calls: u64) {
    ALLOCS.fetch_add(calls, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            grew(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` and `new_size` is the
        // caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size(), 1);
            } else {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
                LIVE.fetch_sub((layout.size() - new_size) as i64, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Cumulative counters at one instant; subtract two for a span's delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls (a growing `realloc` counts its
    /// growth).
    pub bytes: u64,
}

impl std::ops::Sub for Counters {
    type Output = Counters;
    fn sub(self, rhs: Counters) -> Counters {
        Counters {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// The counters now (they stand still while counting is off).
#[must_use]
pub fn counters() -> Counters {
    Counters {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Switches counting on with the live level and its high-water mark reset
/// to zero, so [`peak_live_bytes`] reads relative to this instant.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Switches counting off; counters and the high-water mark keep their
/// values.
pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// High-water mark of bytes live above the level at the last [`start`].
#[must_use]
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed).max(0) as u64
}
