//! Peak memory of a warmed compile: the high-water mark of bytes live
//! above what was live before the call, in bytes and against the bytes of
//! the program the compile returns — for `Session::compile_ir_suite` on a
//! lowered program it borrows, for `Session::compile` on the pipeline,
//! which lowers inside the measured span and hands the frame the program
//! it owns, and for a batched `Session::compile_suite` of several
//! pipelines, which moves every lowered program into one frame. A compile
//! has to build its output, so what this bounds is everything held beside
//! it at its peak: the programs being annotated, the leaves taken out of
//! them, the shapes, the selections.
//! Its counting allocator reads bytes, not time, so the reading repeats
//! exactly and the gate cannot flake.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::hardboiled::{Batching, Session};
use hardboiled_repro::ir::stmt::Stmt;
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

/// Runs `compile` with the counter on, from zero: the peak of the bytes
/// live above what was live before, and the bytes of the program it
/// returns, dropped last.
fn peak_and_output(compile: impl FnOnce() -> Vec<Stmt>) -> (i64, i64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let programs = compile();
    let peak = PEAK.load(Ordering::Relaxed);
    let before_drop = LIVE.load(Ordering::Relaxed);
    drop(programs);
    let output = before_drop - LIVE.load(Ordering::Relaxed);
    ENABLED.store(false, Ordering::Relaxed);
    (peak, output)
}

/// Peak bytes live above the lowered program per byte of the returned
/// program, for a borrowed IR compile: set at a reading of 1.170 (191 377
/// bytes at the peak for a 163 540-byte output), plus 10%. The frame that
/// parametrized every leaf in place in its annotated copy, and held that
/// copy beside the selected statements, read 1.793 (293 252 bytes). The
/// copy this entry point makes of the program it borrows is part of the
/// reading: the frame owns what it compiles. With interned names (32-byte
/// expressions, 80-byte statements) it reads 1.246 (108 379 bytes for an
/// 87 008-byte output): both shrank, the output more, so the bound stays.
/// With a 1-byte leaf report (112 bytes while each embedded an engine run)
/// it reads 1.166 (101 469 bytes for the same output), and with one
/// modification epoch per class (no per-operator rows or change logs)
/// 1.163 (101 229 bytes).
const PEAK_PER_OUTPUT_BYTE: f64 = 1.29;

/// Peak bytes live for the borrowed IR compile, beside the ratio so that a
/// change that shrinks the output cannot buy the peak room: the reading of
/// 101 469 bytes plus 10%, below the 112 240 bytes the ratio allows.
const PEAK_BYTES: i64 = 111_615;

/// Peak bytes live per byte of the returned program for
/// `Session::compile(&pipeline)`, lowering included: set at a reading of
/// 1.172 (192 486 bytes at the peak for a 164 300-byte output), plus 10%.
/// The compile that kept the lowered program for its fallback and
/// annotated a copy of it read 1.822 (298 027 bytes for a 163 540-byte
/// output). With interned names it reads 1.250 (108 728 bytes for
/// 87 008), the bound staying as above, with a 1-byte leaf report
/// 1.170 (101 818 bytes), with one modification epoch per class 1.168
/// (101 626 bytes), and with interned front-end names 1.168 (101 649).
const COMPILE_PEAK_PER_OUTPUT_BYTE: f64 = 1.29;

/// Peak bytes live for `Session::compile(&pipeline)`: the reading of
/// 101 818 bytes plus 10%, below the 112 240 bytes the ratio allows.
const COMPILE_PEAK_BYTES: i64 = 111_999;

/// Peak bytes live per byte of the returned programs for a batched
/// `Session::compile_suite` of three pipelines (the unrolled conv1d, a
/// GEMM, a program with no leaves), lowering included: set at a reading of
/// 1.210 (111 959 bytes for a 92 528-byte output), plus 10%. The suite that
/// cloned every lowered program so that its isolated retry had an original
/// read 1.901 (175 919 bytes); it now moves the programs into the frame
/// and lowers the sources again after a fault.
const SUITE_PEAK_PER_OUTPUT_BYTE: f64 = 1.331;

/// Peak bytes live for the batched `Session::compile_suite`: the reading of
/// 111 959 bytes plus 10%.
const SUITE_PEAK_BYTES: i64 = 123_155;

#[test]
fn a_warmed_compile_peaks_near_its_output() {
    let pipeline = Conv1d { n: 512, k: 512 }.pipeline_tc_unrolled();
    let lowered = lower(&pipeline).unwrap();
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
    let ir_suite = peak_and_output(|| {
        let result = session.compile_ir_suite(&programs);
        assert!(result.report.all_lowered(), "conv1d must select");
        result.programs
    });
    let compile = peak_and_output(|| {
        let result = session.compile(&pipeline).unwrap();
        assert!(result.report.all_lowered(), "conv1d must select");
        vec![result.program]
    });
    // A suite lowers every source, then compiles the programs in one
    // shared graph; none of them is held twice.
    let gemm = GemmWmma {
        m: 32,
        k: 32,
        n: 32,
    };
    let sources = [
        pipeline,
        gemm.pipeline(true),
        Conv1d { n: 256, k: 8 }.pipeline(false),
    ];
    for _ in 0..2 {
        drop(session.compile_suite(&sources).unwrap());
    }
    let suite = peak_and_output(|| {
        let suite = session.compile_suite(&sources).unwrap();
        assert!(suite.report.all_lowered(), "every leaf must select");
        let leaves: Vec<usize> = (suite.results.iter())
            .map(|r| r.as_ref().unwrap().report.num_statements())
            .collect();
        assert!(
            leaves[0] > 0 && leaves[1] > 0 && leaves[2] == 0,
            "{leaves:?}"
        );
        (suite.results.into_iter())
            .map(|r| r.unwrap().program)
            .collect()
    });
    // Both return the same program, and the owned path returns the tree
    // lowering built: sized exactly, it holds no more bytes than a copy.
    assert_eq!(
        ir_suite.1, compile.1,
        "compile returns {} bytes, compile_ir_suite {}",
        compile.1, ir_suite.1
    );
    let cases = [
        (
            "compile_ir_suite",
            ir_suite,
            PEAK_PER_OUTPUT_BYTE,
            PEAK_BYTES,
        ),
        (
            "compile",
            compile,
            COMPILE_PEAK_PER_OUTPUT_BYTE,
            COMPILE_PEAK_BYTES,
        ),
        (
            "compile_suite",
            suite,
            SUITE_PEAK_PER_OUTPUT_BYTE,
            SUITE_PEAK_BYTES,
        ),
    ];
    for (name, (peak, output), bound, bytes) in cases {
        let per_byte = peak as f64 / output as f64;
        println!("{name}: peak {peak} bytes, output {output} bytes: {per_byte:.3}");
        assert!(
            per_byte <= bound,
            "a warmed {name} peaks at {per_byte:.3} bytes per output byte, bound {bound}"
        );
        assert!(
            peak <= bytes,
            "a warmed {name} peaks at {peak} bytes, bound {bytes}"
        );
    }
}
