//! Golden lowering: the printed `lower` output of every `hb_apps` family
//! and variant the benchmark draws from, pinned by FNV-1a hash. The
//! constants were recorded at the commit before the in-place rewriting
//! discipline landed, so "byte-identical lowering" is a tier-1 fact: any
//! change to the simplifier's pass structure, the vectorizer or the
//! lowering order that alters a single printed character fails here.
//!
//! To re-record after an *intended* change of the lowered form, run
//! `HB_PRINT_GOLDEN=1 cargo test --test lower_golden -- --nocapture` and
//! paste the printed table.

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::lang::{lower, Pipeline};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything `lower` returns, printed in a process-independent order.
fn lowered_text(p: &Pipeline) -> String {
    let l = lower(p).expect("golden pipelines lower");
    let mut placements: Vec<String> = l
        .placements
        .iter()
        .map(|(name, memory)| format!("{name}={memory:?}"))
        .collect();
    placements.sort();
    let mut inputs: Vec<String> = l
        .inputs
        .iter()
        .map(|(name, elem, len)| format!("{name}:{elem}:{len}"))
        .collect();
    inputs.sort();
    format!(
        "{}\nplacements {}\noutput {}:{}:{}\ninputs {}\n",
        l.stmt,
        placements.join(","),
        l.output_name,
        l.output_elem,
        l.output_len,
        inputs.join(",")
    )
}

fn programs() -> Vec<(String, Pipeline)> {
    let mut out: Vec<(String, Pipeline)> = Vec::new();
    for tensor in [true, false] {
        let tag = if tensor { "tensor" } else { "cuda" };
        out.push((
            format!("conv1d/{tag}"),
            Conv1d { n: 512, k: 16 }.pipeline(tensor),
        ));
        out.push((
            format!("conv2d/{tag}"),
            Conv2d {
                width: 512,
                height: 4,
                kw: 16,
                kh: 3,
            }
            .pipeline(tensor),
        ));
        out.push((
            format!("gemm_wmma/{tag}"),
            GemmWmma {
                m: 32,
                k: 48,
                n: 64,
            }
            .pipeline(tensor),
        ));
        out.push((
            format!("downsample/{tag}"),
            Downsample { n: 512, k: 16 }.pipeline(tensor),
        ));
        out.push((
            format!("upsample/{tag}"),
            Upsample { n: 1024, taps: 8 }.pipeline(tensor),
        ));
    }
    // The Fig. 6 ladder of `unrolled_large` (k = 64, 120, … 512).
    for k in (0..9).map(|i| 64 + 56 * i) {
        out.push((
            format!("conv1d_unrolled/k{k}"),
            Conv1d { n: 512, k }.pipeline_tc_unrolled(),
        ));
    }
    for (layout, lname) in [(Layout::Standard, "standard"), (Layout::Vnni, "vnni")] {
        for (variant, vname) in [
            (Variant::Reference, "reference"),
            (Variant::LoopReorder, "loop_reorder"),
            (Variant::PreloadA, "preload_a"),
            (Variant::PreloadB, "preload_b"),
        ] {
            let p = AmxMatmul {
                m: 32,
                k: 64,
                n: 48,
            }
            .pipeline(layout, variant)
            .expect("every drawn variant is expressible");
            out.push((format!("amx_matmul/{lname}/{vname}"), p));
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("conv1d/tensor", 0xf1d6fa048bfc8e47),
    ("conv2d/tensor", 0x04cf71593c81872b),
    ("gemm_wmma/tensor", 0x97b30972739f634e),
    ("downsample/tensor", 0xcf67349c18a902fa),
    ("upsample/tensor", 0x21275d3a8110f28b),
    ("conv1d/cuda", 0xdde1c74c207d0ca0),
    ("conv2d/cuda", 0xd9ab1eb23cda6fbe),
    ("gemm_wmma/cuda", 0xd1d4161c66126bee),
    ("downsample/cuda", 0xb95729577bdf1fcc),
    ("upsample/cuda", 0xb4b219148bb9499d),
    ("conv1d_unrolled/k64", 0xa7d623edf218636a),
    ("conv1d_unrolled/k120", 0x891bf939a1201824),
    ("conv1d_unrolled/k176", 0xe485dd8b13474ad0),
    ("conv1d_unrolled/k232", 0x5f9903609731d618),
    ("conv1d_unrolled/k288", 0x37f75459733e8142),
    ("conv1d_unrolled/k344", 0xc5ac48ff58390b4c),
    ("conv1d_unrolled/k400", 0x87be1c2d08e7e958),
    ("conv1d_unrolled/k456", 0x35cdbf9fbf270118),
    ("conv1d_unrolled/k512", 0x6054d84b7832c2f9),
    ("amx_matmul/standard/reference", 0x1c273f0a36c02fdd),
    ("amx_matmul/standard/loop_reorder", 0xe7d77c07d9f7d5a7),
    ("amx_matmul/standard/preload_a", 0x5363258b35579a39),
    ("amx_matmul/standard/preload_b", 0xd71663a36e8afb2e),
    ("amx_matmul/vnni/reference", 0xaee6652202747d0e),
    ("amx_matmul/vnni/loop_reorder", 0x493bed23ef95b8b4),
    ("amx_matmul/vnni/preload_a", 0xf5daedc4504bff5a),
    ("amx_matmul/vnni/preload_b", 0x60ff72e013ed211c),
];

#[test]
fn lowering_is_byte_identical_to_the_recorded_parent() {
    let programs = programs();
    if std::env::var_os("HB_PRINT_GOLDEN").is_some() {
        for (name, p) in &programs {
            println!("    (\"{name}\", 0x{:016x}),", fnv1a(&lowered_text(p)));
        }
        return;
    }
    assert_eq!(programs.len(), GOLDEN.len(), "golden table out of date");
    for ((name, p), (gname, want)) in programs.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "golden table order");
        let text = lowered_text(p);
        assert_eq!(
            fnv1a(&text),
            *want,
            "lowered form of {name} changed:\n{text}"
        );
    }
}
