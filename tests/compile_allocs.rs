//! Allocation budget of a warmed `Session::compile_ir_suite`: heap allocations
//! per encoded e-node, in steady state, over a fixed small set of the
//! programs the benchmark draws from. A session keeps its compile contexts
//! — e-graph, matcher scratch, extraction tables — between compiles, the
//! engine's tables are dense and flat, and e-nodes hold interned names, so
//! a compile allocates little beyond the call nodes' argument slices and
//! the program it returns. A change that goes back to building those
//! tables per compile — the parent of the context pool read 30.3
//! allocations per encoded node on this set — or to owned strings in
//! e-nodes (9.5) fails here even on a box too noisy to time anything.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout as AmxLayout, Variant};
use hardboiled_repro::hardboiled::encode::encode_stmt;
use hardboiled_repro::hardboiled::movement::{annotate_stmt, collect_placements};
use hardboiled_repro::hardboiled::{Batching, HbGraph, Session};
use hardboiled_repro::ir::expr::Expr;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::{lower, Lowered, Pipeline};

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

/// The set, each with the batching mode the benchmark compiles its family
/// under.
fn programs() -> Vec<(&'static str, Pipeline, Batching)> {
    let amx = AmxMatmul {
        m: 32,
        k: 64,
        n: 48,
    };
    let gemm = GemmWmma {
        m: 32,
        k: 48,
        n: 64,
    };
    vec![
        (
            "conv1d",
            Conv1d { n: 512, k: 16 }.pipeline(true),
            Batching::PerLeaf,
        ),
        ("gemm_wmma", gemm.pipeline(true), Batching::PerLeaf),
        (
            "amx_vnni_preload_b",
            amx.pipeline(AmxLayout::Vnni, Variant::PreloadB).unwrap(),
            Batching::PerLeaf,
        ),
        (
            "conv1d_unrolled_k64",
            Conv1d { n: 512, k: 64 }.pipeline_tc_unrolled(),
            Batching::Batched,
        ),
    ]
}

/// E-nodes the session encodes for `lowered`, as the benchmark's
/// `core.encode.nodes` counts them: the nodes of each leaf's graph before
/// saturation (of the one shared graph, when batched).
fn encoded_nodes(lowered: &Lowered, batching: Batching) -> usize {
    let mut placements = collect_placements(&lowered.stmt);
    placements.extend(lowered.placements.iter().map(|(k, v)| (k.clone(), *v)));
    let annotated = annotate_stmt(&lowered.stmt, &placements);
    let moves = |e: &Expr| {
        let mut found = false;
        e.for_each(&mut |n| found |= matches!(n, Expr::LocToLoc { .. }));
        found
    };
    let (mut shared, mut nodes) = (HbGraph::default(), 0);
    annotated.for_each_stmt(&mut |s| {
        let leaf = match s {
            Stmt::Store { index, value, .. } => moves(index) || moves(value),
            Stmt::Evaluate(e) => moves(e),
            _ => false,
        };
        if leaf && batching == Batching::Batched {
            encode_stmt(&mut shared, s);
        } else if leaf {
            let mut own = HbGraph::default();
            encode_stmt(&mut own, s);
            nodes += own.num_nodes();
        }
    });
    nodes + shared.num_nodes()
}

/// Allocations per encoded e-node the whole set may average: 3.72 (1 483
/// allocations for 399 nodes, the reading it was set at), plus 10%.
/// History on this set:
/// 30.28 (12 082) with per-compile tables, 9.47 (3 780) when the context
/// pool landed and nodes still carried a `String` and a `Vec<Id>`, 7.29
/// (2 909) with interned names and boxed call arguments in the e-nodes,
/// 6.80 (2 713) once statement reports stopped rendering their leaves, 6.23
/// (2 484) with one supporting rule, 6.20 (2 473) once saturation ran in
/// one loop and a unit stopped allocating the supporting phase's rule
/// states, 5.73 (2 287) once a compile saturated one leaf per shape (the
/// budget was left where a 6.04 reading put it), 5.17 (2 061) once every
/// leaf was parametrized in place, 5.15 (2 055) once one walk took the
/// leaves out and grouped them, 5.16 (2 059) once the frame took its
/// programs by value (this borrowing entry point copies them at its call
/// site, as annotation used to: one more vector per compile), 4.20 (1 674)
/// once every IR name was an interned symbol, so no copy, decode or
/// materialization allocates a name, 4.21 (1 678) with one engine report
/// per unit, 3.72 (1 483) once a class kept one modification epoch instead
/// of one per operator, with no per-operator change logs.
const BUDGET_PER_NODE: f64 = 4.09;

#[test]
fn a_warmed_compile_stays_within_its_allocation_budget() {
    let (mut allocs, mut nodes) = (0u64, 0usize);
    for (name, pipeline, batching) in programs() {
        let lowered = lower(&pipeline).expect("budget pipelines lower");
        let session = Session::builder().batching(batching).build().unwrap();
        // Rules built, a context pooled and grown to this program's size.
        for _ in 0..2 {
            drop(session.compile_ir_suite(&[(&lowered.stmt, &lowered.placements)]));
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        let result = session.compile_ir_suite(&[(&lowered.stmt, &lowered.placements)]);
        ENABLED.store(false, Ordering::Relaxed);
        let spent = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(result.report.all_lowered(), "{name} must select");
        let n = encoded_nodes(&lowered, batching);
        println!(
            "{name}: {spent} allocations / {n} encoded nodes = {:.2}",
            spent as f64 / n as f64
        );
        allocs += spent;
        nodes += n;
    }
    let per_node = allocs as f64 / nodes as f64;
    println!("total: {allocs} allocations / {nodes} encoded nodes = {per_node:.2}");
    assert!(
        per_node <= BUDGET_PER_NODE,
        "a warmed compile spends {per_node:.2} allocations per encoded e-node, budget {BUDGET_PER_NODE}"
    );
}
