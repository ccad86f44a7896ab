//! Cross-crate integration tests: algorithm → schedule → lowering →
//! HARDBOILED instruction selection → simulated execution, checked against
//! pure-Rust references.

use hardboiled_repro::accel::device::DeviceProfile;
use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::harness::{compile_and_run_with, max_rel_error};
use hardboiled_repro::apps::matmul_amx::{table1, AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::hardboiled::Session;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::ScalarType;
use hardboiled_repro::lang::{hf, hi, hv, lower, Func, ImageParam, Pipeline};

#[test]
fn conv1d_full_pipeline_tensor_vs_cuda_vs_reference() {
    let app = Conv1d { n: 768, k: 24 };
    let tc = app.run(true);
    let cuda = app.run(false);
    let reference = app.reference();
    assert!(tc.selection.as_ref().unwrap().all_lowered());
    assert!(max_rel_error(&tc.output, &reference) < 0.08);
    assert!(max_rel_error(&cuda.output, &reference) < 0.08);
    // Same DRAM story, different compute engines.
    assert!(tc.counters.tensor_fmas > 0);
    assert_eq!(cuda.counters.tensor_fmas, 0);
}

#[test]
fn conv1d_speedup_shape_on_rtx4070s() {
    // The Fig. 5 claim at a (reduced) sweep: tensor cores pull ahead as the
    // kernel grows because the CUDA path goes compute-bound.
    let device = DeviceProfile::rtx4070_super();
    let t = |k: i64, tc: bool| {
        hardboiled_repro::accel::perf::estimate(&Conv1d::fig5_counters(k, tc), &device).total_s
    };
    let speedup_small = t(8, false) / t(8, true);
    let speedup_large = t(160, false) / t(160, true);
    assert!(
        speedup_large > speedup_small,
        "{speedup_small} !< {speedup_large}"
    );
    assert!(speedup_large > 1.8, "large kernels must win clearly");
}

#[test]
fn table1_regenerates_exactly() {
    let rows = table1();
    let expect = [
        (Variant::Reference, true, true),
        (Variant::LoopReorder, true, true),
        (Variant::PreloadA, true, true),
        (Variant::PreloadB, true, false),
        (Variant::SoftwarePipelining, false, false),
    ];
    for (variant, vnni, standard) in expect {
        let row = rows.iter().find(|r| r.variant == variant).unwrap();
        assert_eq!((row.vnni, row.standard), (vnni, standard), "{variant:?}");
    }
}

#[test]
fn amx_standard_layout_swizzle_is_injected_not_scheduled() {
    // The user never asked for VNNI; HARDBOILED inserts kway_interleave.
    let app = AmxMatmul::default();
    let p = app.pipeline(Layout::Standard, Variant::Reference).unwrap();
    let lowered = hardboiled_repro::lang::lower(&p).unwrap();
    let before = lowered.stmt.to_string();
    assert!(!before.contains("kway_interleave"));
    let session = hardboiled_repro::hardboiled::Session::default();
    let result = session.compile(&lowered).unwrap();
    assert!(result.report.all_lowered());
    assert!(result.program.to_string().contains("kway_interleave"));
}

#[test]
fn gemm_wmma_and_amx_agree_on_the_same_problem() {
    // Same logical MatMul through two different accelerators.
    let wmma = GemmWmma {
        m: 32,
        k: 32,
        n: 32,
    };
    let r_wmma = wmma.run(true);
    let amx = AmxMatmul {
        m: 32,
        k: 32,
        n: 32,
    };
    let r_amx = amx.run(Layout::Standard, Variant::Reference).unwrap();
    assert!(r_wmma.selection.as_ref().unwrap().all_lowered());
    assert!(r_amx.selection.as_ref().unwrap().all_lowered());
    // Different inputs (different seeds) — compare each to its reference.
    assert!(max_rel_error(&r_wmma.output, &wmma.reference()) < 0.05);
    let inputs = amx.inputs();
    assert!(max_rel_error(&r_amx.output, &amx.reference(&inputs)) < 0.05);
}

#[test]
fn resampling_pipelines_lower_and_match() {
    let down = Downsample { n: 128, k: 16 };
    let r = down.run(true);
    assert!(r.selection.as_ref().unwrap().all_lowered());
    assert!(max_rel_error(&r.output, &down.reference()) < 0.08);

    let up = Upsample { n: 256, taps: 8 };
    let r = up.run(true);
    assert!(r.selection.as_ref().unwrap().all_lowered());
    assert!(max_rel_error(&r.output, &up.reference()) < 0.08);
}

#[test]
fn unsupported_schedules_fall_back_rather_than_miscompile() {
    // Preload-B in the standard layout must not lower (ambiguous swizzle) —
    // but the program still executes correctly via the fallback vector code.
    let app = AmxMatmul::default();
    let r = app.run(Layout::Standard, Variant::PreloadB).unwrap();
    assert!(!r.selection.as_ref().unwrap().all_lowered());
    let inputs = app.inputs();
    assert!(
        max_rel_error(&r.output, &app.reference(&inputs)) < 0.05,
        "fallback execution must stay correct"
    );
}

#[test]
fn compile_time_grows_with_unrolled_kernel_size() {
    // Fig. 6's mechanism: unrolling the reduction loop means more
    // statements through equality saturation.
    let small = Conv1d { n: 512, k: 8 };
    let large = Conv1d { n: 512, k: 64 };
    let (_, r_small) =
        hardboiled_repro::apps::harness::compile_only(&small.pipeline_tc_unrolled()).unwrap();
    let (_, r_large) =
        hardboiled_repro::apps::harness::compile_only(&large.pipeline_tc_unrolled()).unwrap();
    assert!(r_large.num_statements() > r_small.num_statements());
    assert!(r_large.all_lowered(), "unrolled statements still lower");
}

#[test]
fn a_producer_called_at_two_offsets_is_realized_over_both() {
    // g(x) = f(x + a) + f(x + b), f computed per 4-wide tile of g: the
    // region of f must run from the smaller offset to the farther end.
    // Merging the call sites by the larger size alone allocated 4 elements
    // and the run read f[4] out of bounds.
    const N: i64 = 16;
    let session = Session::default();
    for (a, b) in [(0, 1), (2, 0), (1, 1)] {
        let img = ImageParam::new("in", ScalarType::F32, &[N + 2]);
        let f = Func::new("f", &["x"], ScalarType::F32);
        f.define(img.at(&[hv("x")]) * hf(2.0));
        let g = Func::new("g", &["x"], ScalarType::F32);
        g.define(f.at(&[hv("x") + hi(a)]) + f.at(&[hv("x") + hi(b)]));
        g.bound("x", 0, N);
        g.stage_init(|s| {
            s.split("x", "xo", "xi", 4);
        });
        f.compute_at(&g, "xo");
        let p = Pipeline::new(&g, &[&f], &[&img]);

        let mut allocated = None;
        lower(&p).unwrap().stmt.for_each_stmt(&mut |s| {
            if let Stmt::Allocate { name, size, .. } = s {
                if name == "f" {
                    allocated = Some(*size);
                }
            }
        });
        assert_eq!(
            allocated,
            Some(4 + a.abs_diff(b)),
            "f(x + {a}) + f(x + {b})"
        );

        let data: Vec<f64> = (0..N + 2).map(|i| f64::from(i as i32 % 7) - 2.5).collect();
        let run = compile_and_run_with(&session, &p, &[("in", &data)]).unwrap();
        let want: Vec<f64> = (0..N as usize)
            .map(|x| 2.0 * data[x + a as usize] + 2.0 * data[x + b as usize])
            .collect();
        assert_eq!(run.output, want, "f(x + {a}) + f(x + {b})");
    }
}
