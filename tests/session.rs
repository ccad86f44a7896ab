//! The `Session` API contract: builder validation, error paths, the
//! device-derived cost model, target placement policies, and the
//! lazy-rule-construction guarantee.

use hardboiled_repro::accel::device::DeviceProfile;
use hardboiled_repro::accel::target::{ScalarTarget, SimTarget, WmmaTarget};
use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::hardboiled::cost::{INTRINSIC_COST, MOVEMENT_PENALTY};
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{Batching, BuildError, CompileError, DeviceCost, Session};
use hardboiled_repro::lang::lower::lower;
use hardboiled_repro::lang::Pipeline;

// ---------------------------------------------------------------------------
// Builder validation.

#[test]
fn unknown_target_is_a_build_error() {
    let err = Session::builder().target_name("tpu").build().unwrap_err();
    assert_eq!(err, BuildError::UnknownTarget("tpu".into()));
    assert!(err.to_string().contains("tpu"));
}

#[test]
fn later_valid_target_clears_an_unknown_name() {
    // Last write wins: a corrected target_name (or an explicit target)
    // supersedes an earlier unresolved name.
    let s = Session::builder()
        .target_name("tpu")
        .target_name("sim")
        .build()
        .unwrap();
    assert_eq!(s.target().name(), "sim");
    let s = Session::builder()
        .target_name("tpu")
        .target(ScalarTarget::new())
        .build()
        .unwrap();
    assert_eq!(s.target().name(), "scalar");
}

#[test]
fn later_batching_wins() {
    // Last write wins, as for the target.
    let s = Session::builder()
        .batching(Batching::PerLeaf)
        .batching(Batching::Batched)
        .build()
        .unwrap();
    assert_eq!(s.batching(), Batching::Batched);
}

#[test]
fn zero_budgets_are_build_errors() {
    assert_eq!(
        Session::builder().node_limit(0).build().unwrap_err(),
        BuildError::InvalidNodeLimit
    );
    let err = Session::builder()
        .deadline(std::time::Duration::ZERO)
        .build()
        .unwrap_err();
    assert_eq!(err, BuildError::InvalidDeadline);
    assert!(err.to_string().contains("non-zero"), "{err}");
    assert_eq!(
        Session::builder().match_budget(0).build().unwrap_err(),
        BuildError::InvalidMatchBudget
    );
    // Non-zero budgets build fine.
    assert!(Session::builder()
        .deadline(std::time::Duration::from_millis(1))
        .match_budget(1)
        .build()
        .is_ok());
}

#[test]
fn empty_suite_is_a_compile_error() {
    let session = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let sources: Vec<hardboiled::Program> = Vec::new();
    let err = session.compile_suite(&sources).unwrap_err();
    assert_eq!(err, CompileError::EmptySuite);
}

#[test]
fn lowering_failures_surface_as_compile_errors() {
    // An output without bounds cannot lower.
    use hardboiled_repro::ir::types::ScalarType;
    use hardboiled_repro::lang::ast::{hf, Func};
    let out = Func::new("out", &["x"], ScalarType::F32);
    out.define(hf(1.0));
    let p = Pipeline::new(&out, &[], &[]);
    let err = Session::default().compile(&p).unwrap_err();
    match err {
        CompileError::Lower(msg) => assert!(msg.contains("bound"), "{msg}"),
        other => panic!("expected Lower, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The device-derived cost model.

#[test]
fn device_derived_default_reproduces_hbcost_on_every_workload() {
    // The acceptance keystone: every built-in target's device prices nodes
    // at the historical hardcoded constants (`HbCost` in the cost module's
    // unit tests), so the device-derived model a session extracts with
    // selects what they select — and it lowers every pipeline-producing
    // workload.
    for name in ["amx", "wmma", "scalar", "sim", "a100", "rtx4070super"] {
        let target = hardboiled_repro::accel::target::by_name(name).unwrap();
        let cost = DeviceCost::from_profile(target.device());
        assert_eq!(
            (cost.intrinsic, cost.movement),
            (INTRINSIC_COST, MOVEMENT_PENALTY),
            "{name}"
        );
    }
    let pipelines: Vec<(String, Pipeline)> = vec![
        ("conv1d".into(), Conv1d { n: 512, k: 16 }.pipeline(true)),
        (
            "conv1d_unrolled".into(),
            Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled(),
        ),
        (
            "gemm".into(),
            GemmWmma {
                m: 32,
                k: 32,
                n: 32,
            }
            .pipeline(true),
        ),
        (
            "amx_standard".into(),
            AmxMatmul::default()
                .pipeline(Layout::Standard, Variant::Reference)
                .unwrap(),
        ),
        (
            "amx_vnni".into(),
            AmxMatmul::default()
                .pipeline(Layout::Vnni, Variant::Reference)
                .unwrap(),
        ),
    ];
    let session = Session::default();
    for (name, p) in &pipelines {
        let result = session.compile(&lower(p).unwrap()).unwrap();
        assert!(result.report.all_lowered(), "{name}");
    }
}

#[test]
fn alternate_device_profile_changes_an_extraction_choice() {
    // A profile whose tensor units are catastrophically slower than its
    // general-purpose cores prices intrinsics above the movement penalty:
    // extraction must then keep the vector form (movement survives, the
    // statement honestly reports as not lowered) where the real profile
    // offloads to tile intrinsics.
    let crippled = DeviceProfile {
        name: "no-tensor-unit box",
        tensor_fma_per_s: 1e9,
        cuda_fma_per_s: 20e12,
        ..DeviceProfile::a100()
    };
    assert!(DeviceCost::from_profile(&crippled).intrinsic > hardboiled::cost::MOVEMENT_PENALTY);

    let app = Conv1d { n: 512, k: 16 };
    let lowered = lower(&app.pipeline(true)).unwrap();

    let fast = Session::default();
    let slow = Session::builder()
        .target(SimTarget::with_device(crippled))
        .build()
        .unwrap();
    let fast_out = fast.compile(&lowered).unwrap();
    let slow_out = slow.compile(&lowered).unwrap();

    assert!(fast_out.report.all_lowered());
    assert!(
        !slow_out.report.all_lowered(),
        "slow tensor units must make extraction refuse the intrinsics"
    );
    assert_ne!(
        normalize_temps(&fast_out.program.to_string()),
        normalize_temps(&slow_out.program.to_string()),
        "the two device profiles must select different programs"
    );
}

// ---------------------------------------------------------------------------
// Target placement policies.

#[test]
fn scalar_target_passes_programs_through() {
    let app = Conv1d { n: 256, k: 8 };
    let lowered = lower(&app.pipeline(true)).unwrap();
    let session = Session::builder()
        .target(ScalarTarget::new())
        .build()
        .unwrap();
    let result = session.compile(&lowered).unwrap();
    assert_eq!(result.report.num_statements(), 0);
    assert!(result.report.units.is_empty());
    // No saturation leaves -> the annotated tree IS the input tree.
    assert_eq!(result.program.to_string(), lowered.stmt.to_string());
}

#[test]
fn wmma_target_compiles_wmma_but_skips_amx_placements() {
    let session = Session::builder()
        .target(WmmaTarget::new())
        .build()
        .unwrap();
    // A WMMA workload fully lowers...
    let gemm = lower(
        &GemmWmma {
            m: 32,
            k: 32,
            n: 32,
        }
        .pipeline(true),
    )
    .unwrap();
    let r = session.compile(&gemm).unwrap();
    assert!(r.report.num_statements() > 0);
    assert!(r.report.all_lowered());
    assert_eq!(r.report.target, "wmma");
    // ...while AMX placements are ignored entirely (vector fallback, no
    // saturation work at all).
    let amx = lower(
        &AmxMatmul::default()
            .pipeline(Layout::Standard, Variant::Reference)
            .unwrap(),
    )
    .unwrap();
    let r = session.compile(&amx).unwrap();
    assert_eq!(r.report.num_statements(), 0);
    assert_eq!(r.program.to_string(), amx.stmt.to_string());
}

// ---------------------------------------------------------------------------
// The extraction report.

#[test]
fn extraction_report_covers_every_root_in_both_modes_and_scalar_has_none() {
    // Every saturated leaf is a root with a cost, whether it had a cost
    // table of its own (per-leaf) or shared one (batched).
    let lowered = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let per_leaf = Session::default().compile(&lowered).unwrap();
    let extraction = per_leaf
        .report
        .extraction
        .as_ref()
        .expect("saturated → report");
    assert_eq!(
        extraction.root_costs.len(),
        per_leaf.report.num_statements()
    );
    assert!(extraction.table_entries > 0);
    assert!(extraction.root_costs.iter().all(Option::is_some));

    let batched = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let result = batched.compile(&lowered).unwrap();
    let shared = result
        .report
        .extraction
        .as_ref()
        .expect("saturated → report");
    assert_eq!(shared.root_costs.len(), result.report.num_statements());
    assert!(shared.table_entries > 0);
    assert_eq!(shared.root_costs, extraction.root_costs);
    // No-leaf compiles have no extraction stage at all.
    let scalar = Session::builder()
        .target(ScalarTarget::new())
        .build()
        .unwrap();
    assert!(scalar
        .compile(&lowered)
        .unwrap()
        .report
        .extraction
        .is_none());
}

// The lazy-rule-construction regression test lives in its own binary,
// `tests/rule_laziness.rs`: it asserts on the process-global rule-build
// counter, which the parallel tests in this binary would perturb.

// ---------------------------------------------------------------------------
// Suite compilation.

#[test]
fn suite_compilation_matches_per_program_compilation() {
    let sources = vec![
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
    ];
    let session = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let suite = session.compile_suite(&sources).unwrap();
    let programs = suite.programs().expect("suite fully compiled");
    assert_eq!(programs.len(), 2);
    assert_eq!(suite.report.units.len(), 1, "one shared-graph unit");
    for (lowered, out) in sources.iter().zip(&programs) {
        let single = session.compile(lowered).unwrap();
        assert_eq!(
            normalize_temps(&single.program.to_string()),
            normalize_temps(&out.to_string()),
            "suite-batched selection diverged from single-program compile"
        );
    }
    // Lowering diagnostics from every program surface in the suite report.
    assert_eq!(
        suite
            .report
            .notes
            .iter()
            .filter(|n| n.contains("lowered pipeline"))
            .count(),
        2
    );
}

/// A suite member that either lowered (`Some`) or did not.
struct Source(Option<hardboiled::Program>);

impl hardboiled::IntoProgram for Source {
    fn to_program(&self) -> Result<hardboiled::Program, CompileError> {
        let lowered = self.0.clone();
        lowered.ok_or_else(|| CompileError::Lower("no bounds".into()))
    }
}

#[test]
fn isolated_suite_reports_like_the_shared_path() {
    // One unlowerable member sends the whole suite down the isolated path
    // (one compile per program). What the survivors and the suite report
    // must not depend on which path ran: each program's front-end notes on
    // its own report, the units' stage timings in the suite's.
    use hardboiled::IntoProgram;
    let mut programs = [
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
    ]
    .map(|lowered| lowered.to_program().unwrap());
    for (i, program) in programs.iter_mut().enumerate() {
        program.notes.push(format!("front-end note {i}"));
    }
    let session = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let clean = session.compile_suite(&programs).unwrap();
    let clean_programs = clean.programs().expect("clean suite fully compiled");

    let [first, second] = programs.clone();
    let sources = [Source(Some(first)), Source(None), Source(Some(second))];
    let suite = session.compile_suite(&sources).unwrap();
    assert_eq!(suite.errors(), 1);
    assert_eq!(
        suite.results[1].as_ref().unwrap_err(),
        &CompileError::Lower("no bounds".into())
    );
    for (slot, nth) in [(0, 0), (2, 1)] {
        let survivor = suite.results[slot].as_ref().expect("lowered → compiled");
        assert_eq!(
            survivor.report.notes, programs[nth].notes,
            "program {nth}: its own front-end notes, as on the shared path"
        );
        assert_eq!(
            normalize_temps(&survivor.program.to_string()),
            normalize_temps(&clean_programs[nth].to_string()),
            "program {nth}: isolated selection diverged from the clean suite's"
        );
    }
    let notes: Vec<String> = programs.iter().flat_map(|p| p.notes.clone()).collect();
    assert_eq!(suite.report.notes, notes);
    assert_eq!(suite.report.notes, clean.report.notes);
    assert_eq!(suite.report.num_statements(), clean.report.num_statements());
    // Every unit encoded, saturated, extracted and spliced; the suite
    // report says so.
    let stages = suite.report.stages;
    let zero = std::time::Duration::ZERO;
    assert!(stages.encode > zero && stages.saturate > zero);
    assert!(stages.extract > zero && stages.splice > zero);
}

#[test]
fn a_suite_compiled_program_by_program_keeps_its_extraction_and_cache_reports() {
    // GEMM, an unlowerable member, GEMM on a cached batched session takes
    // the isolated path. Its suite report must hold one root cost per
    // leaf, in program order, and a cache outcome folded over the
    // programs (the first misses, the second hits: a miss), as the shared
    // path's report does for the two GEMMs alone.
    use hardboiled::{CacheOutcome, IntoProgram, ReportCache};
    let gemm = || {
        let pipeline = GemmWmma {
            m: 32,
            k: 32,
            n: 32,
        }
        .pipeline(true);
        Source(Some(lower(&pipeline).unwrap().to_program().unwrap()))
    };
    let cached = || {
        Session::builder()
            .batching(Batching::Batched)
            .report_cache(std::sync::Arc::new(ReportCache::new(16)))
            .build()
            .unwrap()
    };
    let shared = cached().compile_suite(&[gemm(), gemm()]).unwrap();
    let isolated = (cached().compile_suite(&[gemm(), Source(None), gemm()])).unwrap();
    assert_eq!(isolated.errors(), 1);
    let costs = |report: &hardboiled::CompileReport| {
        let extraction = report.extraction.as_ref().expect("an extraction report");
        extraction.root_costs.clone()
    };
    assert_eq!(costs(&isolated.report), costs(&shared.report));
    assert_eq!(
        costs(&isolated.report).len(),
        isolated.report.num_statements()
    );
    assert_eq!(shared.report.cache, CacheOutcome::Miss);
    assert_eq!(isolated.report.cache, CacheOutcome::Miss);
    // The programs' own reports hold no extraction report on either path.
    for compiled in isolated.results.iter().chain(&shared.results).flatten() {
        assert!(compiled.report.extraction.is_none());
    }
}

// ---------------------------------------------------------------------------
// Per-request cancellation (`compile_cancellable`).

#[test]
fn cancelled_compile_reports_truncated_cancelled_and_stays_valid() {
    use hardboiled_repro::hardboiled::{CancelToken, CompileOutcome, TruncationReason};

    let source = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let session = Session::builder().build().unwrap();

    // A pre-tripped token: saturation stops at its first budget poll and
    // the outcome says so — truthfully cancelled, never "saturated".
    let token = CancelToken::new();
    token.cancel();
    let cancelled = session
        .compile_cancellable(&source, token)
        .expect("cancellation degrades, it does not error");
    assert_eq!(
        cancelled.report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::Cancelled
        }
    );

    // An untripped token changes nothing: byte-identical to plain
    // `compile`, still saturated.
    let clean = session.compile(&source).unwrap();
    let with_token = session
        .compile_cancellable(&source, CancelToken::new())
        .unwrap();
    assert_eq!(clean.report.outcome, CompileOutcome::Saturated);
    assert_eq!(with_token.report.outcome, CompileOutcome::Saturated);
    assert_eq!(
        normalize_temps(&clean.program.to_string()),
        normalize_temps(&with_token.program.to_string())
    );

    // The cancelled compile still emitted a complete, well-formed
    // program for every statement of the source.
    assert_eq!(
        cancelled.program.to_string().is_empty(),
        clean.program.to_string().is_empty()
    );
}

#[test]
fn suite_cancellation_covers_every_program() {
    use hardboiled_repro::hardboiled::{CancelToken, CompileOutcome, TruncationReason};

    let sources = vec![
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
    ];
    let session = Session::builder().build().unwrap();
    let token = CancelToken::new();
    token.cancel();
    let suite = session
        .compile_suite_cancellable(&sources, token)
        .expect("cancellation degrades, it does not error");
    assert_eq!(suite.results.len(), sources.len());
    for (i, result) in suite.results.iter().enumerate() {
        let result = result.as_ref().expect("every slot still resolves");
        assert_eq!(
            result.report.outcome,
            CompileOutcome::Truncated {
                reason: TruncationReason::Cancelled
            },
            "program {i} must report the shared token"
        );
    }
}

// ---------------------------------------------------------------------------
// Temporaries.

/// A compile numbers its temporaries from 0, so a program that already
/// allocates `__hb_tmpN` buffers — a compiled program compiled again — must
/// get numbers past them: a temporary of the same name would shadow the
/// input's, and the interpreter rejects a buffer allocated twice.
#[test]
fn temporaries_never_shadow_an_input_allocation() {
    use hardboiled_repro::ir::builder as b;
    use hardboiled_repro::ir::stmt::Stmt;
    use hardboiled_repro::ir::types::{MemoryType, ScalarType};

    // The standard layout's VNNI swizzle of B materializes a temporary.
    let app = AmxMatmul::default();
    let lowered = lower(&app.pipeline(Layout::Standard, Variant::Reference).unwrap()).unwrap();
    let allocations = |s: &Stmt| {
        let mut names = Vec::new();
        s.for_each_stmt(&mut |s| {
            if let Stmt::Allocate { name, .. } = s {
                names.push(name.to_string());
            }
        });
        names
    };
    let session = Session::default();
    let once = session.compile(&lowered).unwrap().program;
    let temps: Vec<String> = allocations(&once)
        .into_iter()
        .filter(|n| n.starts_with("__hb_tmp"))
        .collect();
    assert_eq!(temps.first().map(String::as_str), Some("__hb_tmp0"));
    let wrapped = b::allocate(
        "__hb_tmp0",
        ScalarType::F32,
        1,
        MemoryType::Stack,
        lowered.stmt,
    );
    let again = session.compile_ir_suite(&[(&wrapped, &lowered.placements)]);
    let again = &again.programs[0];
    let mut names = allocations(again);
    let all = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        all,
        "a temporary shadows an allocation:\n{again}"
    );
}
