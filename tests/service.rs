//! Concurrency suite: one shared [`Session`] (and the [`CompileService`]
//! built on it) hammered from many threads must produce byte-identical
//! programs to serial compilation — sessions are immutable after build
//! but for the compile contexts they pool, and the service adds no
//! cross-request state.
//!
//! The backpressure/cancellation half pins the service lifecycle: full
//! per-target queues refuse with `Busy` without touching their
//! neighbors, dropped tickets free their worker at every stage of the
//! request's life, and the metrics ledger stays exact throughout.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::session::{CompileError, IntoProgram, Program};
use hardboiled_repro::hardboiled::{Batching, CompileService, ServiceError, Session};
use hardboiled_repro::lang::lower::{lower, Lowered};

/// A small mixed pool (vector conv1d, unrolled conv1d, WMMA GEMM) — big
/// enough to exercise real saturation, small enough for a test.
fn sources() -> Vec<Lowered> {
    vec![
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
    ]
}

fn programs_via(session: &Session, sources: &[Lowered]) -> Vec<String> {
    sources
        .iter()
        .map(|s| {
            let result = session.compile(s).expect("source must compile");
            normalize_temps(&result.program.to_string())
        })
        .collect()
}

#[test]
fn shared_session_hammered_from_many_threads_matches_serial() {
    let sources = sources();
    let session = Arc::new(
        Session::builder()
            .batching(Batching::Batched)
            .build()
            .unwrap(),
    );
    let serial = programs_via(&session, &sources);
    thread::scope(|scope| {
        for t in 0..4 {
            let session = &session;
            let sources = &sources;
            let serial = &serial;
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, source) in sources.iter().enumerate() {
                        let result = session.compile(source).expect("source must compile");
                        assert_eq!(
                            serial[i],
                            normalize_temps(&result.program.to_string()),
                            "thread {t} round {round} program {i} diverged from serial"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_callers_share_the_context_pool_and_match_serial() {
    // A default (per-leaf) session pops and pushes one compile context per
    // leaf, so three callers on one session contend for its pool all the
    // time; results must still match a session only one thread ever used.
    let sources = sources();
    let serial = programs_via(&Session::default(), &sources);
    let shared = Session::default();
    thread::scope(|scope| {
        for t in 0..3 {
            let shared = &shared;
            let sources = &sources;
            let serial = &serial;
            scope.spawn(move || {
                for (i, source) in sources.iter().enumerate() {
                    let result = shared.compile(source).expect("source must compile");
                    assert_eq!(
                        serial[i],
                        normalize_temps(&result.program.to_string()),
                        "thread {t} program {i}: shared session diverged from serial"
                    );
                }
            });
        }
    });
}

#[test]
fn service_hammered_by_many_submitters_matches_serial() {
    let sources = sources();
    let direct = Session::builder().build().unwrap();
    let serial = programs_via(&direct, &sources);
    let service = CompileService::builder()
        .worker_threads(3)
        .register_target("sim")
        .build()
        .unwrap();
    thread::scope(|scope| {
        for t in 0..4 {
            let service = &service;
            let sources = &sources;
            let serial = &serial;
            scope.spawn(move || {
                // Submit the whole pool, then await — interleaves this
                // thread's requests with every other submitter's.
                let tickets: Vec<_> = sources
                    .iter()
                    .map(|s| service.submit("sim", s.clone()).expect("accepted"))
                    .collect();
                for (i, ticket) in tickets.into_iter().enumerate() {
                    let result = ticket.wait().expect("request must compile");
                    assert_eq!(
                        serial[i],
                        normalize_temps(&result.program.to_string()),
                        "submitter {t} request {i} diverged from serial"
                    );
                }
            });
        }
    });
    service.shutdown();
}

#[test]
fn shutdown_drains_already_queued_requests() {
    let sources = sources();
    let service = CompileService::builder()
        .worker_threads(1) // one worker => requests genuinely queue
        .register_target("sim")
        .build()
        .unwrap();
    let tickets: Vec<_> = sources
        .iter()
        .chain(sources.iter())
        .map(|s| service.submit("sim", s.clone()).expect("accepted"))
        .collect();
    // Shutdown closes the queue and joins the worker — every ticket that
    // was accepted must still resolve successfully.
    service.shutdown();
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert!(
            ticket.wait().is_ok(),
            "queued request {i} was dropped by shutdown instead of drained"
        );
    }
}

// ---------------------------------------------------------------------
// Backpressure & cancellation
// ---------------------------------------------------------------------

/// A latch the gated front end blocks on: lets a test park the service's
/// only worker inside a request deterministically (no sleeps), then
/// release it once queues are in the exact state under test.
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

/// A front end that parks in `to_program` until its gate opens, then
/// behaves exactly like the wrapped source.
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

fn counter(service: &CompileService, name: &str) -> u64 {
    service.metrics_snapshot().counter(name).unwrap_or(0)
}

fn gauge(service: &CompileService, name: &str) -> i64 {
    service.metrics_snapshot().gauge(name).unwrap_or(0)
}

fn hist_count(service: &CompileService, name: &str) -> u64 {
    service
        .metrics_snapshot()
        .histogram(name)
        .map_or(0, |h| h.count)
}

/// Polls `cond` (the metrics snapshots are cheap) with a hard deadline so
/// a broken service fails the test instead of hanging it.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

fn conv_source() -> Lowered {
    lower(&Conv1d { n: 512, k: 16 }.pipeline(true)).unwrap()
}

/// ISSUE 10 satellite: the queues are per target. Filling target A to
/// capacity must reject A's next submit with `Busy` while target B keeps
/// accepting at depth 0 — and B's accepted work still completes.
#[test]
fn full_queue_on_one_target_leaves_others_untouched() {
    let source = conv_source();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .queue_capacity(2)
        .register_target("sim")
        .register_target("scalar")
        .build()
        .unwrap();
    assert_eq!(service.queue_capacity(), 2);

    // Park the only worker inside a sim request, then fill sim's queue.
    let gated = service
        .submit(
            "sim",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    let queued_a = service.submit("sim", source.clone()).expect("slot 1");
    let queued_b = service.submit("sim", source.clone()).expect("slot 2");
    assert_eq!(
        service.submit("sim", source.clone()).unwrap_err(),
        ServiceError::Busy {
            target: "sim".to_string(),
            depth: 2,
        },
        "a full sim queue must refuse immediately"
    );

    // The rejection is on the record and confined to sim: scalar's gauge
    // never moved and its queue accepts at full depth on sim.
    assert_eq!(counter(&service, "service.rejected_busy"), 1);
    assert_eq!(gauge(&service, "service.queue_depth.sim"), 2);
    assert_eq!(gauge(&service, "service.queue_depth.scalar"), 0);
    let scalar_ticket = service
        .submit("scalar", source.clone())
        .expect("a full queue on sim must not block scalar");
    assert_eq!(gauge(&service, "service.queue_depth.scalar"), 1);

    // Release the worker: everything accepted resolves, on both targets.
    gate.open();
    assert!(gated.wait().is_ok());
    assert!(queued_a.wait().is_ok());
    assert!(queued_b.wait().is_ok());
    assert!(scalar_ticket.wait().is_ok(), "scalar throughput disturbed");
    assert_eq!(gauge(&service, "service.queue_depth"), 0);
    assert_eq!(gauge(&service, "service.queue_depth.sim"), 0);
    assert_eq!(gauge(&service, "service.queue_depth.scalar"), 0);
    service.shutdown();
}

/// Cancellation race 1: a ticket dropped while its request is still
/// queued. The worker must skip the request without compiling it, count
/// exactly one cancellation, and keep serving.
#[test]
fn dropped_ticket_before_dispatch_is_skipped_not_compiled() {
    let source = conv_source();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .build()
        .unwrap();

    let gated = service
        .submit(
            "sim",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    let victim = service.submit("sim", source.clone()).expect("accepted");
    assert_eq!(gauge(&service, "service.queue_depth.sim"), 1);
    drop(victim); // cancel while queued

    gate.open();
    assert!(gated.wait().is_ok());
    // The single worker drains FIFO: gated, then the (skipped) victim,
    // then this probe — so once the probe resolves, the skip happened.
    let probe = service.submit("sim", source.clone()).expect("accepted");
    assert!(probe.wait().is_ok(), "the pool stopped serving");

    assert_eq!(counter(&service, "service.requests"), 3);
    assert_eq!(counter(&service, "service.cancelled"), 1);
    assert_eq!(hist_count(&service, "service.cancel_latency_ns"), 1);
    // The victim never ran: two compiles, zero panics, queues empty.
    assert_eq!(hist_count(&service, "service.run_ns"), 2);
    assert_eq!(counter(&service, "service.requests_panicked"), 0);
    assert_eq!(gauge(&service, "service.queue_depth"), 0);
    service.shutdown();
}

/// Cancellation race 2: a ticket dropped while its request is in flight.
/// The tripped token rides the request's `Budget` into saturation, which
/// aborts at the next rule-search boundary with a truthful
/// `Truncated`/cancelled outcome — freeing the worker mid-request.
#[test]
fn dropped_ticket_in_flight_aborts_saturation_and_frees_the_worker() {
    let source = conv_source();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .build()
        .unwrap();

    let gated = service
        .submit(
            "sim",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    drop(gated); // cancel in flight (the worker is parked inside it)
    gate.open();
    wait_until("the cancelled request to finish", || {
        hist_count(&service, "service.run_ns") == 1
    });

    // Exactly one effective cancellation, with its latency observed; the
    // session reported it truthfully as a cancelled truncation (never a
    // false "saturated").
    assert_eq!(counter(&service, "service.cancelled"), 1);
    assert_eq!(hist_count(&service, "service.cancel_latency_ns"), 1);
    assert_eq!(counter(&service, "service.requests_panicked"), 0);
    assert_eq!(
        counter(&service, "compile.outcome.truncated_cancelled"),
        1,
        "the aborted compile must surface as a cancelled truncation"
    );
    // The freed worker keeps serving, and the next compile is clean.
    let probe = service.submit("sim", source.clone()).expect("accepted");
    assert!(probe.wait().is_ok(), "the worker was not freed");
    assert_eq!(counter(&service, "service.cancelled"), 1);
    service.shutdown();
}

/// Cancellation race 3: a ticket dropped after its request completed.
/// Nothing is left to cancel — no counters move.
#[test]
fn dropped_ticket_after_completion_moves_no_counters() {
    let source = conv_source();
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .build()
        .unwrap();

    let ticket = service.submit("sim", source.clone()).expect("accepted");
    // The run histogram is observed *after* the job's cancellation check,
    // so once it shows the request, a drop can no longer be counted.
    wait_until("the request to finish", || {
        hist_count(&service, "service.run_ns") == 1
    });
    drop(ticket);

    assert_eq!(counter(&service, "service.cancelled"), 0);
    assert_eq!(hist_count(&service, "service.cancel_latency_ns"), 0);
    // `wait` (which disarms cancel-on-drop) is equally silent.
    assert!(service
        .submit("sim", source)
        .expect("accepted")
        .wait()
        .is_ok());
    assert_eq!(counter(&service, "service.cancelled"), 0);
    service.shutdown();
}

/// `submit_wait`: blocks for a slot instead of rejecting, gives up with
/// `Busy` at its deadline, and succeeds once space frees up.
#[test]
fn submit_wait_times_out_then_succeeds_once_space_frees() {
    let source = conv_source();
    let gate = Gate::new();
    let service = CompileService::builder()
        .worker_threads(1)
        .queue_capacity(1)
        .register_target("sim")
        .build()
        .unwrap();

    let gated = service
        .submit(
            "sim",
            GatedSource {
                inner: source.clone(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    let queued = service.submit("sim", source.clone()).expect("slot 1");

    // Full queue + parked worker: the deadline fires.
    let started = Instant::now();
    assert_eq!(
        service
            .submit_wait("sim", source.clone(), Duration::from_millis(50))
            .unwrap_err(),
        ServiceError::Busy {
            target: "sim".to_string(),
            depth: 1,
        }
    );
    assert!(started.elapsed() >= Duration::from_millis(50));
    assert_eq!(counter(&service, "service.rejected_busy"), 1);

    // A generous waiter parks until the worker resumes and drains a slot.
    thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            service
                .submit_wait("sim", source.clone(), Duration::from_secs(30))
                .expect("space must free up well within the deadline")
                .wait()
        });
        gate.open();
        assert!(waiter.join().unwrap().is_ok());
    });
    assert!(gated.wait().is_ok());
    assert!(queued.wait().is_ok());
    assert_eq!(counter(&service, "service.rejected_busy"), 1);
    service.shutdown();
}
