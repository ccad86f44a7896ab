//! Bytes and allocations of the front end's pipelines: what building the
//! eight-pipeline set of `lower_allocs.rs` leaves live, and how many
//! allocations it takes. An autotuner or a compile service holds many
//! user pipelines at once, so their size is part of the process's peak. A
//! `String` name or a hash map creeping back into `hb_lang`'s `Func`,
//! `ImageParam`, schedules or expressions fails here.
//!
//! The set is built once before counting, so every name is already
//! interned and the reading is the pipelines' own bytes; the counting
//! allocator reads bytes, not time, so it repeats exactly.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

mod support;

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation (a `realloc` counts as one) that moved the live
/// bytes by `delta`.
fn allocated(delta: i64) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size() as i64);
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
        if !p.is_null() {
            allocated(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Bytes the built set may keep live: measured 9 960 once a func boxed its
/// update stage on first use instead of holding an empty one inline, plus
/// 10%. History on this set: 10 904 bytes with the update stage inline
/// (budget 11 994), 32 487 with `String` names and hash maps.
const BYTES_BUDGET: i64 = 10_956;

/// Allocations building the set may take: measured 327 with interned names
/// and vector tables, plus 10%. Boxing the update stage takes one more per
/// func with an update, 8 in this set: 335, inside the budget. History on
/// this set: 760 with `String` names and hash maps.
const ALLOCS_BUDGET: u64 = 359;

#[test]
fn pipelines_stay_within_their_byte_budget() {
    drop(support::pipelines());
    LIVE.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let pipelines = support::pipelines();
    ENABLED.store(false, Ordering::Relaxed);
    let (bytes, allocs) = (LIVE.load(Ordering::Relaxed), ALLOCS.load(Ordering::Relaxed));
    println!(
        "{} pipelines: {bytes} bytes live, {allocs} allocations",
        pipelines.len()
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "the pipeline set keeps {bytes} bytes live, budget {BYTES_BUDGET}"
    );
    assert!(
        allocs <= ALLOCS_BUDGET,
        "building the pipeline set takes {allocs} allocations, budget {ALLOCS_BUDGET}"
    );
}
