//! Reuse safety of the session's compile contexts: a context — e-graph,
//! matcher scratch, extraction scratch — that served one program and was
//! cleared must compile the next exactly as a fresh session does. The
//! oracle compiles families that differ in operators, facts and shapes (a
//! `conv1d`, an AMX Vnni matmul, an upsample, and the unrolled 256-tap
//! `conv1d`, whose 34 leaves are four shapes) back to back on one session
//! and compares every selected program, every `CompileReport` counter and
//! every engine `RunReport` with those of fresh sessions, so no row, log,
//! fact node, epoch or cost-table entry can leak across `clear()` unseen —
//! also after a compile a budget truncated, after one cancelled
//! mid-saturation, under a contended pool, and (`--features
//! fault-injection`) after one that panicked, whose context must be gone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::Upsample;
use hardboiled_repro::egraph::schedule::RunReport;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{
    Batching, CancelToken, CompileOutcome, CompileResult, IrSuiteResult, ProfileSink, Session,
    SessionBuilder, TruncationReason,
};
use hardboiled_repro::ir::reference::rename_names;
use hardboiled_repro::lang::lower::{lower, Lowered};
use hardboiled_repro::obs::RuleSearchSample;

/// Four families with little in common: different operators, different
/// intrinsics, fact nodes in one only (the AMX tile facts, under the
/// matmul), and parametrized shapes in the last, whose batched graph (108
/// nodes) is about the size of the others' (83, 156 and 90).
fn families() -> Vec<Lowered> {
    let amx = AmxMatmul {
        m: 32,
        k: 64,
        n: 48,
    };
    vec![
        lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap(),
        lower(&amx.pipeline(Layout::Vnni, Variant::PreloadB).unwrap()).unwrap(),
        lower(&Upsample { n: 1024, taps: 8 }.pipeline(true)).unwrap(),
        lower(&Conv1d { n: 1024, k: 256 }.pipeline_tc_unrolled()).unwrap(),
    ]
}

/// Four copies of every family, each copy's names prefixed apart: sixteen
/// programs of distinct shapes, so one batched suite of them builds a
/// graph of over a thousand e-class ids.
fn large_suite() -> Vec<Lowered> {
    let families = families();
    let copy = |c: usize, family: &Lowered| {
        let mut stmt = family.stmt.clone();
        rename_names(&mut stmt, &mut |name| *name = format!("c{c}_{name}").into());
        let placements = family.placements.iter();
        Lowered {
            stmt,
            placements: placements.map(|(n, m)| (format!("c{c}_{n}"), *m)).collect(),
            ..family.clone()
        }
    };
    (0..4)
        .flat_map(|c| families.iter().map(move |family| (c, family)))
        .map(|(c, family)| copy(c, family))
        .collect()
}

/// The order the shared session sees them in: every small family follows
/// every other one and the large one, the large one follows itself, and
/// the first comes back after the others.
const ORDER: [usize; 8] = [0, 1, 3, 3, 2, 1, 3, 0];

fn timeless(run: &RunReport) -> RunReport {
    RunReport {
        elapsed: Duration::ZERO,
        ..run.clone()
    }
}

/// Everything a compile produced except its wall clock: the program
/// (gensyms renumbered — their counter is process-wide), the outcome, each
/// statement's report, every unit's engine run, the extraction counters
/// and the notes.
fn digest(result: &CompileResult) -> String {
    let report = &result.report;
    let lowered: Vec<bool> = report.stmts.iter().map(|s| s.lowered).collect();
    let units: Vec<_> = report.units.iter().map(timeless).collect();
    let extraction = (report.extraction.as_ref()).map(|e| (e.table_entries, &e.root_costs));
    format!(
        "{}\n{:?}\n{lowered:?}\n{units:#?}\n{extraction:?}\n{:?}",
        normalize_temps(&result.program.to_string()),
        report.outcome,
        report.notes,
    )
}

/// Compiles `ORDER` on one session built by `build` and each program on a
/// session of its own, and demands equal digests. Returns the shared
/// session's results.
fn assert_reuse_is_invisible(build: &dyn Fn() -> SessionBuilder, what: &str) -> Vec<CompileResult> {
    let families = families();
    let shared = build().build().unwrap();
    ORDER
        .iter()
        .enumerate()
        .map(|(step, &family)| {
            let reused = shared.compile(&families[family]).unwrap();
            let fresh = build().build().unwrap().compile(&families[family]).unwrap();
            assert_eq!(
                digest(&reused),
                digest(&fresh),
                "{what}: step {step} (family {family}) on the reused session differs from a fresh one"
            );
            reused
        })
        .collect()
}

#[test]
fn a_reused_session_compiles_like_fresh_ones() {
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let build = || Session::builder().batching(batching);
        let results = assert_reuse_is_invisible(&build, &format!("{batching:?}"));
        for r in &results {
            assert_eq!(r.report.outcome, CompileOutcome::Saturated);
            assert!(r.report.num_statements() > 0, "the oracle must saturate");
        }
    }
}

#[test]
fn a_large_batched_context_comes_back_from_the_pool() {
    // Contexts above a thousand ids used to be dropped: every large compile
    // built its tables again.
    let large = large_suite();
    let programs: Vec<_> = (large.iter()).map(|l| (&l.stmt, &l.placements)).collect();
    let session = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    assert_eq!(session.pooled_contexts(), 0);
    let first = session.compile_ir_suite(&programs);
    let [run] = &first.report.units[..] else {
        panic!("one batched unit");
    };
    assert!(
        run.nodes > 1024,
        "{} nodes, so at least as many ids",
        run.nodes
    );
    assert_eq!(
        session.pooled_contexts(),
        1,
        "the large context was dropped"
    );
    // The second compile pops that context and puts it back: none is built.
    let second = session.compile_ir_suite(&programs);
    assert_eq!(session.pooled_contexts(), 1);
    let digest = |r: &IrSuiteResult| {
        let texts: Vec<_> = (r.programs.iter())
            .map(|p| normalize_temps(&p.to_string()))
            .collect();
        let extraction = (r.report.extraction.as_ref()).map(|e| (e.table_entries, &e.root_costs));
        let units: Vec<_> = r.report.units.iter().map(timeless).collect();
        format!("{texts:?}\n{units:?}\n{extraction:?}")
    };
    assert_eq!(digest(&second), digest(&first));
}

#[test]
fn a_budget_truncated_compile_leaves_nothing_behind() {
    // One applied match, then the budget stops the pass where it stands:
    // matches found but never applied, rules that never ran.
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let build = || Session::builder().batching(batching).match_budget(1);
        let results = assert_reuse_is_invisible(&build, &format!("{batching:?}, 1-match budget"));
        for r in &results {
            assert_eq!(
                r.report.outcome,
                CompileOutcome::Truncated {
                    reason: TruncationReason::MatchBudget
                }
            );
        }
    }
}

/// Trips a token at the `at`-th rule search it observes: a cancellation
/// that lands mid-saturation, at the same place on every run.
struct CancelAt {
    token: CancelToken,
    at: usize,
    seen: AtomicUsize,
}

impl ProfileSink for CancelAt {
    fn on_rule_search(&self, _: &RuleSearchSample<'_>) {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
            self.token.cancel();
        }
    }
}

#[test]
fn a_cancelled_compile_leaves_nothing_behind() {
    let families = families();
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let token = CancelToken::new();
        let sink = Arc::new(CancelAt {
            token: token.clone(),
            at: 12,
            seen: AtomicUsize::new(0),
        });
        let session = Session::builder()
            .batching(batching)
            .profile_sink(sink)
            .build()
            .unwrap();
        let cancelled = session
            .compile_cancellable(&families[1], token.clone())
            .unwrap();
        assert!(token.is_cancelled(), "the 12th search must have happened");
        assert_eq!(
            cancelled.report.outcome,
            CompileOutcome::Truncated {
                reason: TruncationReason::Cancelled
            }
        );
        // The same session, no token: every family as a fresh session
        // compiles it.
        for (family, lowered) in families.iter().enumerate() {
            let reused = session.compile(lowered).unwrap();
            let fresh = Session::builder().batching(batching).build().unwrap();
            assert_eq!(
                digest(&reused),
                digest(&fresh.compile(lowered).unwrap()),
                "{batching:?}: family {family} after a cancelled compile"
            );
            assert_eq!(reused.report.outcome, CompileOutcome::Saturated);
        }
    }
}

#[test]
fn a_contended_pool_hands_out_clean_contexts() {
    // Four threads, one session: contexts change hands between threads and
    // families on every compile.
    let families = families();
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let fresh: Vec<String> = (families.iter())
            .map(|l| {
                let session = Session::builder().batching(batching).build().unwrap();
                digest(&session.compile(l).unwrap())
            })
            .collect();
        let shared = Session::builder().batching(batching).build().unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, families, fresh) = (&shared, &families, &fresh);
                s.spawn(move || {
                    for step in 0..6 {
                        let family = (t + step) % families.len();
                        let reused = shared.compile(&families[family]).unwrap();
                        assert_eq!(
                            digest(&reused),
                            fresh[family],
                            "{batching:?}: thread {t} step {step} (family {family})"
                        );
                    }
                });
            }
        });
    }
}

#[cfg(feature = "fault-injection")]
#[test]
fn a_panicked_compile_takes_its_context_with_it() {
    use hardboiled_repro::egraph::fault::{Fault, FaultPlan};

    let families = families();
    for batching in [Batching::PerLeaf, Batching::Batched] {
        // Warm the pool first, so the panic strikes a *reused* context,
        // mid-saturation: graph half rewritten, matches half applied.
        let plan = FaultPlan::new(Fault::RulePanic { at_search: 400 });
        let session = Session::builder()
            .batching(batching)
            .fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        let mut fell_back = 0;
        for lowered in families.iter().cycle().take(12) {
            let result = session.compile(lowered).unwrap();
            if result.report.outcome == CompileOutcome::FallbackUnoptimized {
                fell_back += 1;
                continue;
            }
            let fresh = Session::builder().batching(batching).build().unwrap();
            assert_eq!(
                digest(&result),
                digest(&fresh.compile(lowered).unwrap()),
                "{batching:?}: a compile beside the panicked one differs from a fresh session's"
            );
        }
        assert_eq!(plan.times_fired(), 1, "the fault must have struck");
        assert_eq!(fell_back, 1, "exactly the struck compile falls back");
    }
}
