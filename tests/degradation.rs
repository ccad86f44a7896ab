//! The graceful-degradation ladder: deadline / node-limit / match-budget
//! truncation stops saturation early but leaves the e-graph valid, so
//! extraction still emits an executable program that passes the apps
//! oracles, and the `CompileReport` carries a truthful `CompileOutcome`.

use std::time::{Duration, Instant};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::harness::max_rel_error;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{Batching, CompileOutcome, Session, TruncationReason};
use hardboiled_repro::lang::lower::lower;

#[test]
fn tiny_node_limit_truncates_yet_executes_correctly() {
    let app = Conv1d { n: 512, k: 16 };
    let session = Session::builder().node_limit(64).build().unwrap();
    let r = app.run_with(&session, true);
    let report = r.selection.expect("selector ran");
    assert_eq!(
        report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::NodeLimit
        }
    );
    assert_ne!(report.outcome, CompileOutcome::Saturated);
    assert!(
        max_rel_error(&r.output, &app.reference()) < 0.08,
        "node-limit-truncated program miscompiled"
    );
}

#[test]
fn match_budget_truncates_yet_executes_correctly() {
    let app = Conv1d { n: 512, k: 16 };
    let session = Session::builder().match_budget(1).build().unwrap();
    let r = app.run_with(&session, true);
    let report = r.selection.expect("selector ran");
    assert_eq!(
        report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::MatchBudget
        }
    );
    assert!(
        max_rel_error(&r.output, &app.reference()) < 0.08,
        "match-budget-truncated program miscompiled"
    );
}

#[test]
fn tight_deadline_truncates_yet_executes_correctly() {
    let app = Conv1d { n: 512, k: 16 };
    let session = Session::builder()
        .deadline(Duration::from_micros(1))
        .build()
        .unwrap();
    let r = app.run_with(&session, true);
    let report = r.selection.expect("selector ran");
    assert_eq!(
        report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::Deadline
        }
    );
    assert!(
        max_rel_error(&r.output, &app.reference()) < 0.08,
        "deadline-truncated program miscompiled"
    );
}

#[test]
fn deadline_bounds_full_suite_wall_clock() {
    let sources = vec![
        lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap(),
        lower(&Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled()).unwrap(),
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
    // Warm the lazily-built rule set so the budgeted run below measures
    // the scheduler, not one-time construction.
    let unbudgeted = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let full = unbudgeted.compile_suite(&sources).unwrap();
    assert_eq!(full.report.outcome, CompileOutcome::Saturated);

    // One nanosecond: valid (non-zero) but already expired by the first
    // scheduler clock check in any build profile, so the truncation is
    // deterministic in both debug and release runs of this test.
    let deadline = Duration::from_nanos(1);
    let session = Session::builder()
        .batching(Batching::Batched)
        .deadline(deadline)
        .build()
        .unwrap();
    let started = Instant::now();
    let suite = session.compile_suite(&sources).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(suite.errors(), 0, "truncation must not drop any program");
    assert_eq!(
        suite.report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::Deadline
        }
    );
    let batch = suite.report.batch.as_ref().expect("shared-graph run");
    assert!(batch.deadline_hit, "engine report must record the deadline");
    // The acceptance bound: the budget plus one iteration of slack (the
    // clock is only polled between rules) plus the unbudgeted extraction
    // and splice stages. Two seconds is orders of magnitude above any of
    // those on a debug build, and orders of magnitude below what running
    // the full schedule with no deadline would risk on a loaded machine.
    assert!(
        elapsed < deadline + Duration::from_secs(2),
        "deadline-bounded suite took {elapsed:?}"
    );
}

#[test]
fn generous_budgets_change_nothing() {
    let app = Conv1d { n: 512, k: 16 };
    let lowered = lower(&app.pipeline(true)).unwrap();
    let budgeted = Session::builder()
        .deadline(Duration::from_secs(60))
        .match_budget(usize::MAX / 2)
        .build()
        .unwrap();
    let plain = Session::default();
    let a = budgeted.compile(&lowered).unwrap();
    let b = plain.compile(&lowered).unwrap();
    assert_eq!(a.report.outcome, CompileOutcome::Saturated);
    assert_eq!(
        normalize_temps(&a.program.to_string()),
        normalize_temps(&b.program.to_string()),
        "unconstraining budgets changed the selected program"
    );
}
