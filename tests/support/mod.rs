//! What more than one test file builds.

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout as AmxLayout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::lang::Pipeline;

/// Eight pipelines of the families the benchmark draws from, one or two
/// per family: the set `lower_allocs.rs` and `pipeline_bytes.rs` budget.
pub fn pipelines() -> Vec<(&'static str, Pipeline)> {
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
