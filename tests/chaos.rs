//! Chaos suite (cargo feature `fault-injection`): under every seeded
//! [`FaultPlan`], compilation still returns `Ok` for every lowerable
//! program, each report carries a truthful [`CompileOutcome`], and every
//! emitted program — degraded or not — passes the apps reference oracles.
#![cfg(feature = "fault-injection")]

use std::panic;
use std::sync::{Arc, Once};
use std::time::Duration;

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::harness::max_rel_error;
use hardboiled_repro::egraph::fault::{Fault, FaultPlan};
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::session::{CompileError, IntoProgram, Program};
use hardboiled_repro::hardboiled::{
    Batching, CompileOutcome, CompileService, MetricsRegistry, Session, TruncationReason,
};
use hardboiled_repro::lang::lower::lower;

static QUIET: Once = Once::new();

/// Silences the default panic printout for the injected faults (they are
/// caught and degraded by design) while leaving real panics loud.
fn quiet_injected_panics() {
    QUIET.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A session on which every fault kind is applicable: the deadline and
/// match budget are configured (so the injected stops are truthful) but
/// generous enough never to fire on their own.
fn chaos_session(plan: &Arc<FaultPlan>) -> Session {
    Session::builder()
        .deadline(Duration::from_secs(120))
        .match_budget(usize::MAX / 2)
        .fault_plan(Arc::clone(plan))
        .build()
        .unwrap()
}

fn expected_outcome(fault: Fault) -> CompileOutcome {
    match fault {
        Fault::RulePanic { .. } => CompileOutcome::FallbackUnoptimized,
        Fault::DeadlineExhaust { .. } => CompileOutcome::Truncated {
            reason: TruncationReason::Deadline,
        },
        Fault::NodeExplosion { .. } => CompileOutcome::Truncated {
            reason: TruncationReason::NodeLimit,
        },
        Fault::MatchFlood { .. } => CompileOutcome::Truncated {
            reason: TruncationReason::MatchBudget,
        },
    }
}

#[test]
fn every_seeded_fault_still_compiles_and_passes_the_oracle() {
    quiet_injected_panics();
    let app = Conv1d { n: 512, k: 16 };
    let reference = app.reference();
    for seed in 0..16u64 {
        let plan = FaultPlan::from_seed(seed);
        let session = chaos_session(&plan);
        let r = app.run_with(&session, true);
        let outcome = r.selection.as_ref().expect("selector ran").outcome;
        if plan.times_fired() == 0 {
            // The trigger point was past what this workload reaches; the
            // compile must have been undisturbed.
            assert_eq!(
                outcome,
                CompileOutcome::Saturated,
                "seed {seed}: nothing fired yet the outcome degraded"
            );
        } else {
            assert_eq!(plan.times_fired(), 1, "seed {seed}: plans are one-shot");
            assert_eq!(
                outcome,
                expected_outcome(plan.fault()),
                "seed {seed} ({:?}): report lied about the degradation",
                plan.fault()
            );
        }
        assert!(
            max_rel_error(&r.output, &reference) < 0.08,
            "seed {seed} ({:?}): degraded compile miscompiled",
            plan.fault()
        );
    }
}

/// The outcome-ladder counter each fault kind must land on (the metrics
/// mirror of [`expected_outcome`]).
fn expected_metric(fault: Fault) -> &'static str {
    match fault {
        Fault::RulePanic { .. } => "compile.outcome.fallback",
        Fault::DeadlineExhaust { .. } => "compile.outcome.truncated_deadline",
        Fault::NodeExplosion { .. } => "compile.outcome.truncated_node_limit",
        Fault::MatchFlood { .. } => "compile.outcome.truncated_match_budget",
    }
}

#[test]
fn every_seeded_fault_increments_its_matching_metric() {
    quiet_injected_panics();
    let app = Conv1d { n: 512, k: 16 };
    let ladder = [
        "compile.outcome.saturated",
        "compile.outcome.truncated_deadline",
        "compile.outcome.truncated_node_limit",
        "compile.outcome.truncated_match_budget",
        "compile.outcome.fallback",
    ];
    for seed in 0..16u64 {
        let plan = FaultPlan::from_seed(seed);
        // A fresh registry per seed so each fault's increment is
        // attributable: exactly one ladder rung may move, and it must be
        // the rung the injected fault degrades to.
        let metrics = Arc::new(MetricsRegistry::default());
        let session = Session::builder()
            .deadline(Duration::from_secs(120))
            .match_budget(usize::MAX / 2)
            .fault_plan(Arc::clone(&plan))
            .metrics(Arc::clone(&metrics))
            .build()
            .unwrap();
        let _ = app.run_with(&session, true);
        let expected = if plan.times_fired() == 0 {
            "compile.outcome.saturated"
        } else {
            expected_metric(plan.fault())
        };
        let snap = metrics.snapshot();
        for name in ladder {
            let count = snap.counter(name).unwrap_or(0);
            if name == expected {
                assert!(
                    count >= 1,
                    "seed {seed} ({:?}): `{name}` was never incremented",
                    plan.fault()
                );
            } else {
                assert_eq!(
                    count,
                    0,
                    "seed {seed} ({:?}): `{name}` moved for a fault that lands elsewhere",
                    plan.fault()
                );
            }
        }
    }
}

#[test]
fn rule_panic_in_shared_suite_is_isolated_and_retried() {
    quiet_injected_panics();
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
    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let session = Session::builder()
        .batching(Batching::Batched)
        .fault_plan(Arc::clone(&plan))
        .build()
        .unwrap();
    let suite = session.compile_suite(&sources).unwrap();
    assert_eq!(plan.times_fired(), 1, "the shared run must hit the fault");
    assert_eq!(suite.errors(), 0, "isolation must not drop any program");
    // The fault is one-shot (a transient), so the per-program retries
    // saturate normally and must match a clean session byte for byte.
    assert_eq!(suite.report.outcome, CompileOutcome::Saturated);
    let programs = suite.programs().expect("retries succeed after the fault");
    let clean = Session::builder()
        .batching(Batching::Batched)
        .build()
        .unwrap()
        .compile_suite(&sources)
        .unwrap();
    let clean_programs = clean.programs().unwrap();
    for (i, (a, b)) in programs.iter().zip(&clean_programs).enumerate() {
        assert_eq!(
            normalize_temps(&a.to_string()),
            normalize_temps(&b.to_string()),
            "program {i}: retried compile diverged from a clean session"
        );
    }
}

#[test]
fn every_seeded_fault_leaves_suite_compilation_total() {
    quiet_injected_panics();
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
    for seed in 0..12u64 {
        let plan = FaultPlan::from_seed(seed);
        let session = Session::builder()
            .batching(Batching::Batched)
            .deadline(Duration::from_secs(120))
            .match_budget(usize::MAX / 2)
            .fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        let suite = session.compile_suite(&sources).unwrap();
        assert_eq!(suite.errors(), 0, "seed {seed}: a slot errored");
        for (i, slot) in suite.results.iter().enumerate() {
            assert!(slot.is_ok(), "seed {seed} program {i}: {slot:?}");
        }
        if plan.times_fired() == 0 {
            assert_eq!(
                suite.report.outcome,
                CompileOutcome::Saturated,
                "seed {seed}: nothing fired yet the suite degraded"
            );
        }
    }
}

#[test]
fn seeded_fault_in_a_service_worker_is_confined_to_one_request() {
    quiet_injected_panics();
    let sources = [
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
    let clean_session = Session::builder().build().unwrap();
    let clean: Vec<String> = sources
        .iter()
        .map(|s| normalize_temps(&clean_session.compile(s).unwrap().program.to_string()))
        .collect();
    // A one-shot rule-search panic armed on the service's session: the
    // first request a worker saturates hits it, degrades down the ladder
    // to the unoptimized fallback, and every other request — served
    // concurrently on other workers — stays byte-identical to a clean
    // session.
    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let faulty = Session::builder()
        .fault_plan(Arc::clone(&plan))
        .build()
        .unwrap();
    let service = CompileService::builder()
        .worker_threads(3)
        .register("faulty", faulty)
        .build()
        .unwrap();
    let tickets: Vec<_> = sources
        .iter()
        .map(|s| service.submit("faulty", s.clone()).expect("accepted"))
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert_eq!(
        plan.times_fired(),
        1,
        "the one-shot plan fired exactly once"
    );
    let mut degraded = 0usize;
    for (i, reply) in replies.iter().enumerate() {
        let result = reply
            .as_ref()
            .expect("the degradation ladder keeps every request Ok");
        match result.report.outcome {
            CompileOutcome::FallbackUnoptimized => degraded += 1,
            CompileOutcome::Saturated => assert_eq!(
                clean[i],
                normalize_temps(&result.program.to_string()),
                "request {i}: an unfaulted request diverged from a clean session"
            ),
            other => panic!("request {i}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(degraded, 1, "exactly the faulted request degraded");
    // The service keeps serving after the fault: a fresh batch on the
    // (now spent) plan is clean end to end.
    let tickets: Vec<_> = sources
        .iter()
        .map(|s| service.submit("faulty", s.clone()).expect("accepted"))
        .collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    for (i, reply) in replies.iter().enumerate() {
        let result = reply.as_ref().expect("request must compile");
        assert_eq!(result.report.outcome, CompileOutcome::Saturated);
        assert_eq!(
            clean[i],
            normalize_temps(&result.program.to_string()),
            "request {i} after the fault diverged from a clean session"
        );
    }
    service.shutdown();
}

/// A front end that panics in `to_program` — *before* the session's
/// isolation layers, so only the service's per-request `catch_unwind`
/// stands between the panic and the worker thread.
struct ExplodingFrontEnd;

impl IntoProgram for ExplodingFrontEnd {
    fn to_program(&self) -> Result<Program, CompileError> {
        panic!("injected fault: front end exploded");
    }
}

#[test]
fn panicking_front_end_surfaces_as_that_requests_error_only() {
    quiet_injected_panics();
    let source = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let service = CompileService::builder()
        .worker_threads(2)
        .register_target("sim")
        .build()
        .unwrap();
    let bad = service.submit("sim", ExplodingFrontEnd).expect("accepted");
    let good = service.submit("sim", source.clone()).expect("accepted");
    match bad.wait() {
        Err(CompileError::Engine(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected message: {msg}");
        }
        other => panic!("expected the panic as this request's Engine error, got {other:?}"),
    }
    assert!(good.wait().is_ok(), "the concurrent request was disturbed");
    assert!(
        service
            .submit("sim", source)
            .expect("accepted")
            .wait()
            .is_ok(),
        "the worker pool stopped serving after an isolated panic"
    );
    // The service's own ledger is truthful: three accepted requests,
    // exactly the one front-end panic on the fault counter.
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter("service.requests"), Some(3));
    assert_eq!(snap.counter("service.requests_panicked"), Some(1));
    service.shutdown();
}

// ---------------------------------------------------------------------
// Cancellation under chaos (ISSUE 10): dropped tickets and seeded
// faults interleaved on one pool; backpressure under a panic storm.
// ---------------------------------------------------------------------

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use hardboiled_repro::hardboiled::{CompileOutcome as Outcome, ServiceError};
use hardboiled_repro::lang::lower::Lowered;

/// A latch a gated front end blocks on: parks the pool's only worker
/// inside a request deterministically, no sleeps.
#[derive(Clone)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn new() -> Gate {
        Gate(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn open(&self) {
        let (flag, cv) = &*self.0;
        *flag.lock().unwrap() = true;
        cv.notify_all();
    }

    fn wait_open(&self) {
        let (flag, cv) = &*self.0;
        let mut open = flag.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

/// Parks in `to_program` until the gate opens, then compiles `inner`.
struct GatedSource {
    inner: Lowered,
    gate: Gate,
}

impl IntoProgram for GatedSource {
    fn to_program(&self) -> Result<Program, CompileError> {
        self.gate.wait_open();
        self.inner.to_program()
    }
}

/// Parks until the gate opens, then panics like a seeded front-end
/// fault.
struct GatedExplodingFrontEnd {
    gate: Gate,
}

impl IntoProgram for GatedExplodingFrontEnd {
    fn to_program(&self) -> Result<Program, CompileError> {
        self.gate.wait_open();
        panic!("injected fault: gated front end exploded");
    }
}

fn snapshot_counter(service: &CompileService, name: &str) -> u64 {
    service.metrics_snapshot().counter(name).unwrap_or(0)
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Chaos-seeded cancellation race: a seeded rule panic, a dropped
/// ticket and a clean request interleave on a one-worker pool. The
/// fault degrades its own request, the cancelled request is skipped
/// without ever reaching the (spent) plan, and the survivor is
/// byte-identical to a clean session — with every counter exact.
#[test]
fn cancellation_interleaved_with_seeded_fault_keeps_ledger_exact() {
    quiet_injected_panics();
    let source = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let clean_session = Session::builder().build().unwrap();
    let clean = normalize_temps(&clean_session.compile(&source).unwrap().program.to_string());

    let plan = FaultPlan::new(Fault::RulePanic { at_search: 0 });
    let faulty = Session::builder()
        .fault_plan(Arc::clone(&plan))
        .build()
        .unwrap();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .register("faulty", faulty)
        .build()
        .unwrap();

    // Park the worker inside the request that will hit the seeded fault.
    let faulted = service
        .submit(
            "faulty",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        service
            .metrics_snapshot()
            .gauge("service.queue_depth.faulty")
            == Some(0)
    });
    // Queue a victim and cancel it, then queue the survivor.
    let victim = service.submit("faulty", source.clone()).expect("accepted");
    drop(victim);
    let survivor = service.submit("faulty", source.clone()).expect("accepted");

    gate.open();
    let faulted = faulted.wait().expect("the fault degrades, not errors");
    assert_eq!(faulted.report.outcome, Outcome::FallbackUnoptimized);
    let survivor = survivor.wait().expect("request must compile");
    assert_eq!(survivor.report.outcome, Outcome::Saturated);
    assert_eq!(
        clean,
        normalize_temps(&survivor.program.to_string()),
        "the survivor diverged from a clean session"
    );

    // The ledger: one seeded fault (the skipped victim never advanced
    // the plan), one effective cancellation, no worker-level panics.
    assert_eq!(plan.times_fired(), 1);
    assert_eq!(snapshot_counter(&service, "service.requests"), 3);
    assert_eq!(snapshot_counter(&service, "service.cancelled"), 1);
    assert_eq!(snapshot_counter(&service, "service.requests_panicked"), 0);
    service.shutdown();
}

/// Cancel mid-fault: the dropped ticket belongs to the request whose
/// front end panics. The panic stays confined, the cancellation is
/// counted, and the pool keeps serving.
#[test]
fn cancelled_ticket_on_a_panicking_request_stays_confined() {
    quiet_injected_panics();
    let source = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .build()
        .unwrap();

    let doomed = service
        .submit("sim", GatedExplodingFrontEnd { gate: gate.clone() })
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        service.metrics_snapshot().gauge("service.queue_depth.sim") == Some(0)
    });
    drop(doomed); // cancel the in-flight request…
    gate.open(); // …which then panics in its front end
    wait_until("the doomed request to finish", || {
        service
            .metrics_snapshot()
            .histogram("service.run_ns")
            .map_or(0, |h| h.count)
            == 1
    });

    // Both faces of the request are on the record: the panic was caught
    // (worker survived) and the cancellation observed.
    assert_eq!(snapshot_counter(&service, "service.requests_panicked"), 1);
    assert_eq!(snapshot_counter(&service, "service.cancelled"), 1);
    assert!(
        service
            .submit("sim", source)
            .expect("accepted")
            .wait()
            .is_ok(),
        "the pool stopped serving after a cancelled panicking request"
    );
    service.shutdown();
}

/// Busy under a seeded panic storm: with the worker parked, a queue full
/// of front-end panics must still backpressure exactly at capacity,
/// resolve every accepted request to its own confined error, and leave
/// the pool serving clean requests afterwards.
#[test]
fn backpressure_holds_under_a_panic_storm() {
    quiet_injected_panics();
    let source = lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap();
    let clean_session = Session::builder().build().unwrap();
    let clean = normalize_temps(&clean_session.compile(&source).unwrap().program.to_string());

    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .queue_capacity(2)
        .register_target("sim")
        .build()
        .unwrap();

    let parked = service
        .submit(
            "sim",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        service.metrics_snapshot().gauge("service.queue_depth.sim") == Some(0)
    });

    // The storm: every queued request is a seeded front-end panic.
    let storm: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit("sim", ExplodingFrontEnd)
                .unwrap_or_else(|e| panic!("storm request {i} refused: {e}"))
        })
        .collect();
    assert_eq!(
        service.submit("sim", ExplodingFrontEnd).unwrap_err(),
        ServiceError::Busy {
            target: "sim".to_string(),
            depth: 2,
        },
        "the storm must hit backpressure exactly at capacity"
    );
    assert_eq!(snapshot_counter(&service, "service.rejected_busy"), 1);

    gate.open();
    assert!(parked.wait().is_ok());
    for (i, ticket) in storm.into_iter().enumerate() {
        match ticket.wait() {
            Err(CompileError::Engine(msg)) => {
                assert!(msg.contains("injected fault"), "storm request {i}: {msg}");
            }
            other => panic!("storm request {i}: expected a confined panic, got {other:?}"),
        }
    }
    assert_eq!(snapshot_counter(&service, "service.requests_panicked"), 2);

    // After the storm: clean request, clean result, empty queues.
    let after = service
        .submit("sim", source.clone())
        .expect("accepted")
        .wait()
        .expect("request must compile");
    assert_eq!(
        clean,
        normalize_temps(&after.program.to_string()),
        "the pool was poisoned by the storm"
    );
    assert_eq!(
        service.metrics_snapshot().gauge("service.queue_depth"),
        Some(0)
    );
    service.shutdown();
}
