//! Batched (shared e-graph) selection must be indistinguishable from the
//! default per-leaf path on every pipeline-producing workload in
//! `crates/apps`: same selected program, byte for byte (modulo `__hb_tmp`
//! numbers, renumbered before comparison), and the same
//! per-statement lowering outcomes.
//!
//! The oracles run through `Session::compile` and the raw IR-level
//! `compile_ir_suite` (no cache, no panic isolation); `tests/session.rs`
//! holds the `compile_suite` counterparts. The last test drives every shape
//! of compile that shares the session's one compile unit — per-leaf,
//! batched, exporting, warm, cancellable — over one suite.

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{
    Batching, CancelToken, CompileOutcome, CompileReport, ReportCache, Session,
};
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::lower::lower;
use hardboiled_repro::lang::Pipeline;

fn session(batching: Batching) -> Session {
    Session::builder().batching(batching).build().unwrap()
}

/// Selects the pipeline through both modes and asserts equivalence.
fn assert_batched_equivalent(name: &str, pipeline: &Pipeline) {
    let lowered = lower(pipeline).unwrap_or_else(|e| panic!("{name}: lowering failed: {e}"));
    let leaf = session(Batching::PerLeaf).compile(&lowered).unwrap();
    let batch = session(Batching::Batched).compile(&lowered).unwrap();
    let (per_leaf, r_leaf) = (leaf.program, leaf.report);
    let (batched, r_batch) = (batch.program, batch.report);
    assert_eq!(
        normalize_temps(&per_leaf.to_string()),
        normalize_temps(&batched.to_string()),
        "{name}: batched selection produced a different program"
    );
    assert_eq!(
        r_leaf.num_statements(),
        r_batch.num_statements(),
        "{name}: leaf counts diverged"
    );
    for (i, (a, b)) in r_leaf.stmts.iter().zip(&r_batch.stmts).enumerate() {
        assert_eq!(
            a.lowered, b.lowered,
            "{name}: stmt {i} lowering outcome differs"
        );
    }
    if r_leaf.num_statements() > 0 {
        let [batch] = &r_batch.units[..] else {
            panic!("{name}: batched mode runs one unit");
        };
        assert!(batch.nodes > 0, "{name}: shared graph cannot be empty");
    } else {
        assert!(r_batch.units.is_empty(), "{name}: no leaves, no unit");
    }
}

#[test]
fn conv1d_workloads_select_identically() {
    for (n, k) in [(512, 8), (1024, 16), (1024, 64)] {
        let app = Conv1d { n, k };
        assert_batched_equivalent(&format!("conv1d_{n}_{k}"), &app.pipeline(true));
    }
    // The unrolled variant multiplies the leaf count (Fig. 6's regime) —
    // exactly where shared-subterm deduplication matters.
    let app = Conv1d { n: 512, k: 32 };
    assert_batched_equivalent("conv1d_unrolled_512_32", &app.pipeline_tc_unrolled());
}

#[test]
fn conv2d_workloads_select_identically() {
    let app = Conv2d {
        width: 256,
        height: 64,
        kw: 8,
        kh: 3,
    };
    assert_batched_equivalent("conv2d_256_64", &app.pipeline(true));
}

#[test]
fn gemm_wmma_workloads_select_identically() {
    for (m, k, n) in [(32, 32, 32), (64, 64, 64), (96, 32, 48)] {
        let app = GemmWmma { m, k, n };
        assert_batched_equivalent(&format!("gemm_{m}_{k}_{n}"), &app.pipeline(true));
    }
}

#[test]
fn amx_matmul_workloads_select_identically() {
    // Every layout × variant whose schedule builds, including the ones
    // that must *fail* to lower (Standard+PreloadB): failure outcomes must
    // match between the modes, too.
    for layout in [Layout::Standard, Layout::Vnni] {
        for variant in Variant::all() {
            if let Ok(p) = AmxMatmul::default().pipeline(layout, variant) {
                assert_batched_equivalent(&format!("amx_{layout:?}_{variant:?}"), &p);
            }
        }
    }
}

#[test]
fn resampling_workloads_select_identically() {
    let down = Downsample { n: 128, k: 16 };
    assert_batched_equivalent("downsample_128_16", &down.pipeline(true));
    let up = Upsample { n: 256, taps: 8 };
    assert_batched_equivalent("upsample_256_8", &up.pipeline(true));
}

#[test]
fn whole_suite_batch_selects_identically() {
    // `compile_ir_suite`, batched: leaves of several different programs
    // share one e-graph; every program must still come out byte-identical
    // to its independent per-leaf selection.
    let pipelines = [
        Conv1d { n: 1024, k: 16 }.pipeline(true),
        Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled(),
        GemmWmma {
            m: 32,
            k: 32,
            n: 32,
        }
        .pipeline(true),
        AmxMatmul::default()
            .pipeline(Layout::Standard, Variant::Reference)
            .unwrap(),
    ];
    let lowereds: Vec<_> = pipelines.iter().map(|p| lower(p).unwrap()).collect();
    let programs: Vec<_> = lowereds.iter().map(|l| (&l.stmt, &l.placements)).collect();
    let suite = session(Batching::Batched).compile_ir_suite(&programs);
    let outs = suite.programs;
    assert_eq!(outs.len(), lowereds.len());
    assert_eq!(suite.report.units.len(), 1, "one shared unit");
    let per_leaf_session = session(Batching::PerLeaf);
    for (i, (lowered, out)) in lowereds.iter().zip(&outs).enumerate() {
        let per_leaf = per_leaf_session.compile(lowered).unwrap().program;
        assert_eq!(
            normalize_temps(&per_leaf.to_string()),
            normalize_temps(&out.to_string()),
            "program {i}: suite-batched selection diverged from per-leaf"
        );
    }
}

#[test]
fn statements_without_movement_are_untouched_in_batched_mode() {
    // A pipeline with no accelerator placements has no selection leaves:
    // batched mode must return the tree unchanged with an empty report.
    let app = Conv1d { n: 256, k: 8 };
    let lowered = lower(&app.pipeline(false)).unwrap();
    let result = session(Batching::Batched).compile(&lowered).unwrap();
    assert_eq!(result.report.num_statements(), 0);
    assert!(result.report.units.is_empty());
    assert_eq!(result.program.to_string(), lowered.stmt.to_string());
}

#[test]
fn every_compile_shape_runs_the_same_unit() {
    // One three-program suite through the five shapes of compile that
    // share `Session`'s one encode → saturate → extract unit. They differ
    // in where the engine's report lands and in what happens besides
    // selecting — never in what is selected or what it cost.
    let lowereds = [
        lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap(),
        lower(
            &GemmWmma {
                m: 32,
                k: 32,
                n: 32,
            }
            .pipeline(true),
        )
        .unwrap(),
        lower(
            &AmxMatmul::default()
                .pipeline(Layout::Standard, Variant::Reference)
                .unwrap(),
        )
        .unwrap(),
    ];
    let programs: Vec<_> = lowereds.iter().map(|l| (&l.stmt, &l.placements)).collect();
    let texts = |programs: &[Stmt]| -> Vec<String> {
        (programs.iter())
            .map(|p| normalize_temps(&p.to_string()))
            .collect()
    };

    let cache = std::sync::Arc::new(ReportCache::new(8));
    let cached = Session::builder()
        .batching(Batching::Batched)
        .report_cache(std::sync::Arc::clone(&cache))
        .build()
        .unwrap();
    let bypasses = || cache.stats().bypasses;

    let per_leaf = session(Batching::PerLeaf).compile_ir_suite(&programs);
    let batched = session(Batching::Batched).compile_ir_suite(&programs);
    let before = bypasses();
    let (exporting, snapshot) = cached.compile_ir_suite_exporting(&programs);
    assert_eq!(bypasses(), before + 1, "an exporting compile bypasses once");
    let snapshot = snapshot.expect("a saturated batched run exports its graph");
    let (warm, rejection) = cached.compile_ir_suite_warm(&programs, &snapshot);
    assert_eq!(bypasses(), before + 2, "a warm compile bypasses once");
    assert_eq!(rejection, None);
    assert!(warm.report.snapshot_restore.is_some());
    let cancellable = session(Batching::Batched)
        .compile_suite_cancellable(&lowereds, CancelToken::new())
        .unwrap();
    let cancelled: Vec<Stmt> = (cancellable.programs().unwrap())
        .into_iter()
        .cloned()
        .collect();

    // (shape, selected programs, report, whether one shared graph ran)
    let shapes: [(&str, &[Stmt], &CompileReport, bool); 5] = [
        ("per-leaf", &per_leaf.programs, &per_leaf.report, false),
        ("batched", &batched.programs, &batched.report, true),
        ("exporting", &exporting.programs, &exporting.report, true),
        ("warm", &warm.programs, &warm.report, true),
        ("cancellable", &cancelled, &cancellable.report, true),
    ];
    let reference = texts(&per_leaf.programs);
    let reference_costs = &per_leaf.report.extraction.as_ref().unwrap().root_costs;
    assert!(per_leaf.report.num_statements() > 3, "a suite with leaves");
    for (shape, selected, report, shared) in &shapes {
        assert_eq!(texts(selected), reference, "{shape}: programs differ");
        assert_eq!(report.outcome, CompileOutcome::Saturated, "{shape}");
        let extraction = report.extraction.as_ref().expect("leaves were extracted");
        assert_eq!(&extraction.root_costs, reference_costs, "{shape}: costs");
        let leaves = report.num_statements();
        assert_eq!(extraction.root_costs.len(), leaves, "{shape}");
        // One shared unit, or one per leaf: every leaf of the suite is a
        // shape of its own.
        let units = if *shared { 1 } else { leaves };
        assert_eq!(report.units.len(), units, "{shape}: units");
    }
}

/// Every `Block` of `s` with an empty `Block` after each of its statements.
fn with_empty_blocks(s: &Stmt) -> Stmt {
    s.rewrite_stmts_bottom_up(&mut |s| match s {
        Stmt::Block(stmts) => Some(Stmt::Block(
            (stmts.iter())
                .flat_map(|s| [s.clone(), Stmt::Block(Vec::new())])
                .collect(),
        )),
        _ => None,
    })
}

fn empty_blocks(s: &Stmt) -> usize {
    let mut n = 0;
    s.for_each_stmt(&mut |s| n += usize::from(matches!(s, Stmt::Block(b) if b.is_empty())));
    n
}

/// The FNV-1a hashes of the two normalized programs of
/// [`empty_blocks_beside_leaves_survive_the_splice`]'s suite, per-leaf and
/// batched alike. An empty `Block` prints as nothing, so the first equals
/// the plain program's hash in `tests/shapes.rs`.
const HOLEY_SUITE: [u64; 2] = [0x30cd_9c5f_5500_cf09, 0x8558_343c_3a55_ae91];

#[test]
fn empty_blocks_beside_leaves_survive_the_splice() {
    // The frame takes every leaf out of its tree, leaving an empty `Block`,
    // and fills those holes after selection. An empty `Block` the program
    // already held sits beside the leaves of an unrolled conv1d here, in a
    // suite with a second program: both must come out as they did when the
    // frame found its leaves by their data movement instead (the hashes
    // and counts below were recorded then), with every input empty block
    // still in place.
    let mut holey = lower(&Conv1d { n: 512, k: 64 }.pipeline_tc_unrolled()).unwrap();
    holey.stmt = with_empty_blocks(&holey.stmt);
    let gemm = GemmWmma {
        m: 32,
        k: 32,
        n: 32,
    };
    let plain = lower(&gemm.pipeline(true)).unwrap();
    let inputs = [holey, plain];
    let input_blocks = empty_blocks(&inputs[0].stmt);
    assert!(input_blocks > 10, "the program holds empty blocks");
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let suite = session(batching).compile_suite(&inputs).unwrap();
        let programs = suite.programs().unwrap();
        let leaves: Vec<usize> = (suite.results.iter())
            .map(|r| r.as_ref().unwrap().report.num_statements())
            .collect();
        assert_eq!(leaves, [10, 3], "{batching:?}: leaf counts");
        assert_eq!(empty_blocks(programs[0]), input_blocks, "{batching:?}");
        let hashes: Vec<u64> = (programs.iter())
            .map(|p| fnv1a(&normalize_temps(&p.to_string())))
            .collect();
        assert_eq!(hashes, HOLEY_SUITE, "{batching:?}: a program moved");
    }
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
