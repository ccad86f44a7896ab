//! Allocation budget of `hb_lang::lower`: heap allocations per lowered IR
//! node over a fixed set of the pipelines the benchmark draws from. The
//! front end rewrites its trees in place and builds little beside them; a
//! helper that goes back to rebuilding trees (21 allocations per node on
//! this set) or to the string and list churn linear lowering removed (4.6)
//! fails here even on a box too noisy to time anything.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout as AmxLayout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::{lower, Pipeline};

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: neither publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from `System` and `new_size` is the
        // caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Statements plus expressions, as the benchmark's `lang.lowered_ir_nodes`
/// counts them.
fn ir_nodes(stmt: &Stmt) -> u64 {
    let mut n = 0u64;
    stmt.for_each_stmt(&mut |_| n += 1);
    stmt.for_each_expr(&mut |_| n += 1);
    n
}

fn pipelines() -> Vec<(&'static str, Pipeline)> {
    let amx = AmxMatmul {
        m: 32,
        k: 64,
        n: 48,
    };
    vec![
        ("conv1d", Conv1d { n: 512, k: 16 }.pipeline(true)),
        (
            "conv1d_unrolled_k64",
            Conv1d { n: 512, k: 64 }.pipeline_tc_unrolled(),
        ),
        (
            "conv2d",
            Conv2d {
                width: 512,
                height: 4,
                kw: 16,
                kh: 3,
            }
            .pipeline(true),
        ),
        (
            "gemm_wmma",
            GemmWmma {
                m: 32,
                k: 48,
                n: 64,
            }
            .pipeline(true),
        ),
        (
            "amx_standard_reference",
            amx.pipeline(AmxLayout::Standard, Variant::Reference)
                .unwrap(),
        ),
        (
            "amx_vnni_preload_b",
            amx.pipeline(AmxLayout::Vnni, Variant::PreloadB).unwrap(),
        ),
        ("downsample", Downsample { n: 512, k: 16 }.pipeline(true)),
        (
            "upsample_cuda",
            Upsample { n: 1024, taps: 8 }.pipeline(false),
        ),
    ]
}

/// Allocations per lowered node the whole set may average: measured 2.82
/// (2 520 allocations for 894 nodes) once every IR name was an interned
/// symbol, plus 10%. History on this set: 3.32 (2 972) when lowering went
/// linear, 4.59 with the in-place discipline before it, 21.1 its parent.
const BUDGET_PER_NODE: f64 = 3.1;

#[test]
fn lower_stays_within_its_allocation_budget() {
    let pipelines = pipelines();
    let (mut allocs, mut nodes) = (0u64, 0u64);
    for (name, p) in &pipelines {
        let before = ALLOCS.load(Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        let lowered = lower(p);
        ENABLED.store(false, Ordering::Relaxed);
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        let lowered = lowered.expect("budget pipelines lower");
        let n = ir_nodes(&lowered.stmt);
        println!(
            "{name}: {spent} allocations / {n} nodes = {:.2}",
            spent as f64 / n as f64
        );
        allocs += spent;
        nodes += n;
    }
    let per_node = allocs as f64 / nodes as f64;
    println!("total: {allocs} allocations / {nodes} nodes = {per_node:.2}");
    assert!(
        per_node <= BUDGET_PER_NODE,
        "lower spends {per_node:.2} allocations per lowered IR node, budget {BUDGET_PER_NODE}"
    );
}
