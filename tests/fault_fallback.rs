//! The unoptimized fallback after an engine fault (cargo feature
//! `fault-injection`): a compile unit that panics gives back the annotated
//! program and nothing else — every program equal to `annotate_stmt` of
//! its input, every leaf unlowered, no unit and no extraction report,
//! nothing stored in the cache, one "engine fault" note and one count on
//! the fallback rung — whichever unit faults, in either batching mode. A
//! suite whose shared run faults lowers its sources again, retries program
//! by program, counts only the retries and reports each retry's unit and
//! each program's front-end note once.
#![cfg(feature = "fault-injection")]

use std::panic;
use std::sync::{Arc, Once};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::egraph::fault::{Fault, FaultPlan};
use hardboiled_repro::egraph::schedule::RunReport;
use hardboiled_repro::hardboiled::movement::{annotate_stmt, collect_placements};
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{
    Batching, CompileOutcome, CompileReport, MetricsRegistry, ReportCache, Session,
};
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::lower::{lower, Lowered};
use hardboiled_repro::lang::Pipeline;

static QUIET: Once = Once::new();

/// Silences the default panic printout for the injected faults (they are
/// caught by design) while leaving real panics loud.
fn quiet_injected_panics() {
    QUIET.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = (payload.downcast_ref::<String>().map(String::as_str))
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// The unrolled conv1d: several leaves of more than one shape, so a
/// per-leaf compile runs more than one unit.
fn unrolled() -> Lowered {
    lower(&Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled()).unwrap()
}

fn gemm() -> Lowered {
    let gemm = GemmWmma {
        m: 32,
        k: 32,
        n: 32,
    };
    lower(&gemm.pipeline(true)).unwrap()
}

/// What the session's annotation alone makes of `lowered`.
fn annotated(session: &Session, lowered: &Lowered) -> Stmt {
    let mut placements = collect_placements(&lowered.stmt);
    placements.extend(lowered.placements.iter().map(|(k, v)| (k.clone(), *v)));
    placements.retain(|_, m| session.target().supports(*m));
    annotate_stmt(&lowered.stmt, &placements)
}

/// A session armed with `plan`, with a cache and a registry to read.
fn faulty(batching: Batching, plan: &Arc<FaultPlan>) -> (Session, Arc<MetricsRegistry>) {
    let metrics = Arc::new(MetricsRegistry::default());
    let session = Session::builder()
        .batching(batching)
        .fault_plan(Arc::clone(plan))
        .report_cache(Arc::new(ReportCache::new(64)))
        .metrics(Arc::clone(&metrics))
        .build()
        .unwrap();
    (session, metrics)
}

/// The report of a faulted compile of `leaves` leaves.
fn assert_fallback_report(report: &CompileReport, leaves: usize, what: &str) {
    assert_eq!(
        report.outcome,
        CompileOutcome::FallbackUnoptimized,
        "{what}: outcome"
    );
    assert_eq!(
        report.num_statements(),
        leaves,
        "{what}: one report per leaf"
    );
    for (i, stmt) in report.stmts.iter().enumerate() {
        assert!(!stmt.lowered, "{what}: leaf {i} claims to have lowered");
    }
    assert!(report.units.is_empty(), "{what}: a unit's report survived");
    assert!(
        report.extraction.is_none(),
        "{what}: an extraction report survived"
    );
    let faults: Vec<&String> = (report.notes.iter())
        .filter(|n| n.starts_with("engine fault; spliced the unoptimized program: "))
        .collect();
    assert_eq!(faults.len(), 1, "{what}: notes {:?}", report.notes);
    assert!(
        faults[0].contains("injected fault"),
        "{what}: the note names another cause: {}",
        faults[0]
    );
}

/// The counts of the outcome ladder's rungs, in order: saturated, the four
/// truncations, fallback.
fn outcomes(metrics: &MetricsRegistry) -> [u64; 6] {
    let snap = metrics.snapshot();
    [
        "compile.outcome.saturated",
        "compile.outcome.truncated_cancelled",
        "compile.outcome.truncated_deadline",
        "compile.outcome.truncated_node_limit",
        "compile.outcome.truncated_match_budget",
        "compile.outcome.fallback",
    ]
    .map(|name| snap.counter(name).unwrap_or(0))
}

const ONE_FALLBACK: [u64; 6] = [0, 0, 0, 0, 0, 1];

#[test]
fn a_fault_in_a_later_per_leaf_unit_falls_back_whole() {
    quiet_injected_panics();
    let lowered = unrolled();
    // A clean per-leaf compile: one unit per shape. Every rule of every
    // pass is one search the plan counts, skipped or not.
    let clean = Session::builder()
        .build()
        .unwrap()
        .compile(&lowered)
        .unwrap();
    let units = &clean.report.units;
    assert!(units.len() >= 2, "the program needs two shapes");
    let first = units[0].full_searches + units[0].delta_searches + units[0].skipped_searches;
    // The first search of the second unit.
    let plan = FaultPlan::new(Fault::RulePanic {
        at_search: first as u64,
    });
    let (session, metrics) = faulty(Batching::PerLeaf, &plan);
    let result = session.compile(&lowered).unwrap();
    assert_eq!(plan.times_fired(), 1, "the second unit must hit the fault");
    assert_eq!(result.program, annotated(&session, &lowered));
    assert_fallback_report(&result.report, clean.report.num_statements(), "per-leaf");
    let cache = session.report_cache().unwrap();
    assert!(cache.is_empty(), "a faulted compile stored a shape");
    assert_eq!(outcomes(&metrics), ONE_FALLBACK);
}

#[test]
fn a_fault_in_the_batched_unit_falls_back_whole() {
    quiet_injected_panics();
    let lowered = unrolled();
    let plan = FaultPlan::new(Fault::RulePanic { at_search: 3 });
    let (session, metrics) = faulty(Batching::Batched, &plan);
    let result = session.compile(&lowered).unwrap();
    assert_eq!(plan.times_fired(), 1, "the shared unit must hit the fault");
    assert_eq!(result.program, annotated(&session, &lowered));
    let leaves = (Session::builder().batching(Batching::Batched).build())
        .unwrap()
        .compile(&lowered)
        .unwrap()
        .report
        .num_statements();
    assert_fallback_report(&result.report, leaves, "batched");
    assert!(session.report_cache().unwrap().is_empty());
    assert_eq!(outcomes(&metrics), ONE_FALLBACK);

    // The plan is spent: the same session compiles cleanly again.
    let again = session.compile(&lowered).unwrap();
    assert_eq!(again.report.outcome, CompileOutcome::Saturated);
    assert_eq!(outcomes(&metrics), [1, 0, 0, 0, 0, 1]);
}

#[test]
fn a_faulted_shared_suite_run_counts_only_its_retries() {
    quiet_injected_panics();
    let sources = [unrolled(), gemm()];
    let clean = (Session::builder().batching(Batching::Batched).build())
        .unwrap()
        .compile_suite(&sources)
        .unwrap();

    // The IR suite entry point has no retry: the faulted shared run comes
    // back as it is, every program its annotated input.
    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let (session, metrics) = faulty(Batching::Batched, &plan);
    let refs: Vec<_> = sources.iter().map(|l| (&l.stmt, &l.placements)).collect();
    let faulted = session.compile_ir_suite(&refs);
    assert_eq!(plan.times_fired(), 1);
    for (program, lowered) in faulted.programs.iter().zip(&sources) {
        assert_eq!(*program, annotated(&session, lowered));
    }
    assert_fallback_report(&faulted.report, clean.report.num_statements(), "IR suite");
    assert!(session.report_cache().unwrap().is_empty());
    assert_eq!(outcomes(&metrics), ONE_FALLBACK);

    // `compile_suite` retries the faulted shared run program by program:
    // only the retries, which the spent plan leaves clean, are counted.
    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let (session, metrics) = faulty(Batching::Batched, &plan);
    let suite = session.compile_suite(&sources).unwrap();
    assert_eq!(plan.times_fired(), 1, "the shared run must hit the fault");
    assert_eq!(suite.report.outcome, CompileOutcome::Saturated);
    let programs = suite.programs().unwrap();
    for (i, (a, b)) in programs.iter().zip(clean.programs().unwrap()).enumerate() {
        assert_eq!(
            normalize_temps(&a.to_string()),
            normalize_temps(&b.to_string()),
            "program {i}: the retry diverged from a clean session"
        );
    }
    assert_eq!(outcomes(&metrics), [2, 0, 0, 0, 0, 0]);
    assert_eq!(metrics.snapshot().counter("compile.suite_retries"), Some(1));
}

#[test]
fn a_retried_suite_reports_one_unit_per_program_with_leaves() {
    quiet_injected_panics();
    // Two GEMMs around a program with no accelerator placements, hence no
    // leaves and no unit.
    let plain = lower(&Conv1d { n: 256, k: 8 }.pipeline(false)).unwrap();
    let sources = [gemm(), plain, gemm()];
    let clean = (Session::builder().batching(Batching::Batched).build())
        .unwrap()
        .compile(&gemm())
        .unwrap();
    let [clean_run] = &clean.report.units[..] else {
        panic!("a clean batched compile runs one unit");
    };

    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let (session, _) = faulty(Batching::Batched, &plan);
    let suite = session.compile_suite(&sources).unwrap();
    assert_eq!(plan.times_fired(), 1, "the shared run must hit the fault");
    assert_eq!(suite.report.outcome, CompileOutcome::Saturated);
    let leaves: Vec<usize> = (suite.results.iter())
        .map(|r| r.as_ref().unwrap().report.num_statements())
        .collect();
    assert_eq!(
        leaves,
        [
            clean.report.num_statements(),
            0,
            clean.report.num_statements()
        ]
    );
    // The suite report holds every retry's unit; the programs' own hold none.
    assert_eq!(suite.report.units.len(), 2, "one unit per GEMM");
    for result in &suite.results {
        assert!(result.as_ref().unwrap().report.units.is_empty());
    }
    let counts = |run: &RunReport| (run.nodes, run.classes, run.iterations, run.applied);
    for run in &suite.report.units {
        assert_eq!(counts(run), counts(clean_run), "a retry ran another unit");
    }
    // And one root cost per leaf of the suite.
    let extraction = suite.report.extraction.as_ref().expect("retries extract");
    assert_eq!(
        extraction.root_costs.len(),
        leaves.iter().sum::<usize>(),
        "one root cost per leaf"
    );
}

#[test]
fn a_faulted_suite_of_pipelines_lowers_them_again_for_its_retries() {
    quiet_injected_panics();
    // Pipelines, not `Lowered`: the shared run consumes the lowered
    // programs, so the retry lowers each source again.
    let gemm = GemmWmma {
        m: 32,
        k: 32,
        n: 32,
    };
    let sources: [Pipeline; 3] = [
        Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled(),
        gemm.pipeline(true),
        Conv1d { n: 256, k: 8 }.pipeline(false),
    ];
    let clean = (Session::builder().batching(Batching::Batched).build())
        .unwrap()
        .compile_suite(&sources)
        .unwrap();

    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let (session, metrics) = faulty(Batching::Batched, &plan);
    let suite = session.compile_suite(&sources).unwrap();
    assert_eq!(plan.times_fired(), 1, "the shared run must hit the fault");
    assert_eq!(suite.report.outcome, CompileOutcome::Saturated);
    assert_eq!(
        outcomes(&metrics),
        [3, 0, 0, 0, 0, 0],
        "one count per retry"
    );
    // The fault shows: one retry counted, the second lowering observed
    // beside the first, and the suite report's first note names the cause.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("compile.suite_retries"), Some(1));
    assert_eq!(snap.histogram("stage.lower_ns").map(|h| h.count), Some(2));
    let retry_note = &suite.report.notes[0];
    assert!(
        retry_note.starts_with("shared suite run faulted; retried program by program: ")
            && retry_note.contains("injected fault"),
        "{retry_note}"
    );

    let lowering_notes = |report: &CompileReport| -> Vec<String> {
        (report.notes.iter())
            .filter(|n| n.starts_with("lowered pipeline "))
            .cloned()
            .collect()
    };
    let mut notes = Vec::new();
    for (i, (retried, clean)) in suite.results.iter().zip(&clean.results).enumerate() {
        let (retried, clean) = (retried.as_ref().unwrap(), clean.as_ref().unwrap());
        assert_eq!(
            normalize_temps(&retried.program.to_string()),
            normalize_temps(&clean.program.to_string()),
            "program {i}: the retry diverged from a clean session"
        );
        // Each program's front-end note, once, in its own report, as the
        // clean shared run hands it out.
        let own = lowering_notes(&retried.report);
        assert_eq!(
            own.len(),
            1,
            "program {i}: notes {:?}",
            retried.report.notes
        );
        assert_eq!(retried.report.notes, clean.report.notes, "program {i}");
        notes.extend(own);
    }
    // Past the retry note, the suite report holds one copy of each
    // program's note, in order, as a clean run's does.
    assert_eq!(lowering_notes(&suite.report), notes);
    assert_eq!(suite.report.notes[1..], clean.report.notes);
    for (i, note) in notes.iter().enumerate() {
        assert_eq!(
            notes.iter().filter(|n| *n == note).count(),
            1,
            "program {i}'s note is not its own: {note}"
        );
    }
}
