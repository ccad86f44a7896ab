//! Peak memory of a warmed `Session::compile_ir_suite`: the high-water mark
//! of bytes live above the lowered program, against the bytes of the
//! program the compile returns. A compile has to build its output, so what
//! this bounds is everything the frame holds beside it at its peak: the
//! annotated copy, the leaves taken out of it, the shapes, the selections.
//! Its counting allocator reads bytes, not time, so the reading repeats
//! exactly and the gate cannot flake.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::hardboiled::{Batching, Session};
use hardboiled_repro::lang::lower;

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
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
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` and `new_size` is the
        // caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && new_size >= layout.size() {
            grew(new_size - layout.size());
        } else if !p.is_null() {
            shrank(layout.size() - new_size);
        }
        p
    }
}

/// Peak bytes live above the lowered program per byte of the returned
/// program: measured 1.170 (191 377 bytes at the peak for a 163 540-byte
/// output), plus 10%. The frame that parametrized every leaf in place in
/// its annotated copy, and held that copy beside the selected statements,
/// read 1.793 (293 252 bytes).
const PEAK_PER_OUTPUT_BYTE: f64 = 1.29;

#[test]
fn a_warmed_compile_peaks_near_its_output() {
    let lowered = lower(&Conv1d { n: 512, k: 512 }.pipeline_tc_unrolled()).unwrap();
    let programs = [(&lowered.stmt, &lowered.placements)];
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .build()
        .unwrap();
    // Rules built, a context pooled and grown to this program's size.
    for _ in 0..2 {
        drop(session.compile_ir_suite(&programs));
    }
    ENABLED.store(true, Ordering::Relaxed);
    let result = session.compile_ir_suite(&programs);
    let peak = PEAK.load(Ordering::Relaxed);
    let before_drop = LIVE.load(Ordering::Relaxed);
    assert!(result.report.all_lowered(), "conv1d must select");
    drop(result.programs);
    let output = before_drop - LIVE.load(Ordering::Relaxed);
    ENABLED.store(false, Ordering::Relaxed);
    let per_byte = peak as f64 / output as f64;
    println!("peak {peak} bytes above the lowered program, output {output} bytes: {per_byte:.3}");
    assert!(
        per_byte <= PEAK_PER_OUTPUT_BYTE,
        "a warmed compile peaks at {per_byte:.3} bytes per output byte, bound {PEAK_PER_OUTPUT_BYTE}"
    );
}
