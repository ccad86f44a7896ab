//! The shared selector workload pool: conv1d (tensorized and unrolled),
//! conv2d, WMMA GEMM and AMX MatMul shapes — 14 workloads, 158 saturated
//! roots, 161 leaves with [`saturation_pool`]'s extra GEMM.
//! `tests/pool.rs` pins the pool's deterministic counts and identity
//! oracles, `tests/cache_keystone.rs` its warm-start; timings of the same
//! families are read from `benchmark/` at the repo root.

use hardboiled::movement::{annotate_stmt, collect_placements};
use hb_apps::conv1d::Conv1d;
use hb_apps::conv2d::Conv2d;
use hb_apps::gemm_wmma::GemmWmma;
use hb_apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hb_ir::stmt::Stmt;
use hb_lang::lower::{lower, Lowered};

/// One named, pre-lowered pipeline.
pub struct Workload {
    /// Stable name, the key of `tests/pool.rs`'s count table.
    pub name: &'static str,
    /// The lowered program (statement + placements).
    pub lowered: Lowered,
}

/// The representative selector pool: conv1d (tensorized and unrolled),
/// WMMA GEMM, conv2d and AMX MatMul shapes, pre-lowered.
#[must_use]
pub fn workloads() -> Vec<Workload> {
    let mut out = Vec::new();
    for (name, pipeline) in [
        ("conv1d_tc_k16", Conv1d { n: 1024, k: 16 }.pipeline(true)),
        ("conv1d_tc_k64", Conv1d { n: 1024, k: 64 }.pipeline(true)),
        (
            "conv1d_tc_k32_n4096",
            Conv1d { n: 4096, k: 32 }.pipeline(true),
        ),
        (
            "conv1d_unrolled_k64",
            Conv1d { n: 1024, k: 64 }.pipeline_tc_unrolled(),
        ),
        (
            "conv1d_unrolled_k256",
            Conv1d { n: 1024, k: 256 }.pipeline_tc_unrolled(),
        ),
        (
            "conv1d_unrolled_k128_n2048",
            Conv1d { n: 2048, k: 128 }.pipeline_tc_unrolled(),
        ),
        (
            "conv1d_unrolled_k512",
            Conv1d { n: 2048, k: 512 }.pipeline_tc_unrolled(),
        ),
        (
            "gemm_wmma_32",
            GemmWmma {
                m: 32,
                k: 32,
                n: 32,
            }
            .pipeline(true),
        ),
        (
            "gemm_wmma_64",
            GemmWmma {
                m: 64,
                k: 64,
                n: 64,
            }
            .pipeline(true),
        ),
        (
            "gemm_wmma_96_32_48",
            GemmWmma {
                m: 96,
                k: 32,
                n: 48,
            }
            .pipeline(true),
        ),
        (
            "conv2d_512x64_k16x3",
            Conv2d {
                width: 512,
                height: 64,
                kw: 16,
                kh: 3,
            }
            .pipeline(true),
        ),
        (
            "conv2d_256x128_k8x5",
            Conv2d {
                width: 256,
                height: 128,
                kw: 8,
                kh: 5,
            }
            .pipeline(true),
        ),
        (
            "matmul_amx_standard",
            AmxMatmul::default()
                .pipeline(Layout::Standard, Variant::Reference)
                .expect("standard AMX matmul pipeline"),
        ),
        (
            "matmul_amx_vnni",
            AmxMatmul::default()
                .pipeline(Layout::Vnni, Variant::Reference)
                .expect("VNNI AMX matmul pipeline"),
        ),
    ] {
        let lowered = lower(&pipeline).expect("lowering must succeed");
        out.push(Workload { name, lowered });
    }
    out
}

/// Leaf statements the selector would saturate (Store/Evaluate with data
/// movement), for engine-level batched measurements.
#[must_use]
pub fn saturation_leaves(lowered: &Lowered) -> Vec<Stmt> {
    let mut placements = collect_placements(&lowered.stmt);
    for (k, v) in &lowered.placements {
        placements.insert(k.clone(), *v);
    }
    let annotated = annotate_stmt(&lowered.stmt, &placements);
    let mut leaves: Vec<Stmt> = Vec::new();
    annotated.for_each_stmt(&mut |s| {
        let mut movement = false;
        s.for_each_expr(&mut |e| {
            if matches!(e, hb_ir::expr::Expr::LocToLoc { .. }) {
                movement = true;
            }
        });
        if movement && matches!(s, Stmt::Store { .. } | Stmt::Evaluate(_)) {
            leaves.push(s.clone());
        }
    });
    leaves
}

/// The leaf pool for engine-level saturation measurements: every leaf of
/// every workload, plus one extra GEMM shape for good measure.
#[must_use]
pub fn saturation_pool(all: &[Workload]) -> Vec<Stmt> {
    let mut leaves: Vec<Stmt> = Vec::new();
    for w in all {
        leaves.extend(saturation_leaves(&w.lowered));
    }
    let extra = GemmWmma {
        m: 32,
        k: 96,
        n: 64,
    }
    .pipeline(true);
    leaves.extend(saturation_leaves(&lower(&extra).expect("lowering")));
    leaves
}
