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
//!
//! The report-cache half pins that a service with a shared cache queues
//! every request, hit or miss, returns what a direct uncached compile
//! returns, and counts every request as exactly one hit, miss or bypass
//! however many threads race for the same leaf entries.

use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::session::{CompileError, IntoProgram, Program};
use hardboiled_repro::hardboiled::{
    Batching, CacheOutcome, CompileResult, CompileService, ReportCache, ServiceError, Session,
};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};
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

/// Opens its gate when dropped. Declared after a service, it is dropped
/// before it: a failed assertion then unwinds into a service whose parked
/// worker can finish, instead of into a `Drop` that joins it forever.
struct OpenOnDrop(Gate);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
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

/// A front end that logs its label when a worker converts it, then
/// behaves exactly like the wrapped source.
struct Recorded<S> {
    label: &'static str,
    log: Arc<Mutex<Vec<&'static str>>>,
    inner: S,
}

impl<S: IntoProgram> IntoProgram for Recorded<S> {
    fn to_program(&self) -> Result<Program, CompileError> {
        let program = self.inner.to_program();
        self.log.lock().unwrap().push(self.label);
        program
    }
}

/// The module docs' fairness promise: workers take the per-target queues
/// round-robin, so one scalar request queued behind three sim requests
/// runs second, not last as it would from a single FIFO.
#[test]
fn dispatch_is_round_robin_across_targets() {
    let source = conv_source();
    let gate = Gate::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let recorded = |label, inner| Recorded {
        label,
        log: Arc::clone(&log),
        inner,
    };
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .register_target("scalar")
        .build()
        .unwrap();
    let _fail_not_hang = OpenOnDrop(gate.clone());

    // Park the only worker inside a sim request, then queue behind it.
    let gated = service
        .submit(
            "sim",
            Recorded {
                label: "sim0",
                log: Arc::clone(&log),
                inner: GatedSource {
                    inner: source.clone(),
                    gate: gate.clone(),
                },
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    let mut tickets = vec![gated];
    for (target, label) in [
        ("sim", "sim1"),
        ("sim", "sim2"),
        ("sim", "sim3"),
        ("scalar", "scalar0"),
    ] {
        let source = recorded(label, source.clone());
        tickets.push(service.submit(target, source).expect("accepted"));
    }

    gate.open();
    assert!(tickets.into_iter().all(|ticket| ticket.wait().is_ok()));
    assert_eq!(
        *log.lock().unwrap(),
        ["sim0", "scalar0", "sim1", "sim2", "sim3"]
    );
    service.shutdown();
}

// ---------------------------------------------------------------------
// The shared report cache
// ---------------------------------------------------------------------

/// One accelerator-touching leaf (AMX-tile buffer), distinct per name:
/// every `tile_leaf` is a renamed sibling of every other.
fn tile_leaf(name: &str) -> Stmt {
    let idx = b::ramp(b::int(0), b::int(1), 8);
    let ld = b::load(Type::f32().with_lanes(8), format!("x_{name}"), idx.clone());
    b::allocate(
        format!("acc_{name}"),
        ScalarType::F32,
        8,
        MemoryType::AmxTile,
        b::store(format!("acc_{name}"), idx, b::mul(ld.clone(), ld)),
    )
}

/// A program with nothing to select: compiles to itself, is never stored.
fn leaf_free(name: &str) -> Stmt {
    b::store(
        format!("out_{name}"),
        b::ramp(b::int(0), b::int(1), 4),
        b::bcast(b::flt(2.0), 4),
    )
}

fn cached_service(workers: usize, queue: usize, entries: usize) -> CompileService {
    CompileService::builder()
        .worker_threads(workers)
        .queue_capacity(queue)
        .register_target("sim")
        .shared_cache(Arc::new(ReportCache::new(entries)))
        .build()
        .unwrap()
}

/// What every route to one program's result must agree on.
fn essence(result: &CompileResult) -> (String, Vec<bool>, Vec<String>) {
    (
        normalize_temps(&result.program.to_string()),
        result.report.stmts.iter().map(|s| s.lowered).collect(),
        result.report.notes.clone(),
    )
}

/// A hit and the cold compile that stored its leaves return the program,
/// statement reports and notes of a direct, uncached compile — and say
/// truthfully which of the two they were. Both ran on the worker.
#[test]
fn worker_hit_and_cold_compile_agree() {
    let source = conv_source();
    let service = cached_service(1, 4, 8);
    let direct = Session::default().compile(&source).unwrap();
    assert!(
        !direct.report.notes.is_empty(),
        "a lowered source has notes"
    );

    let cold = service.submit("sim", source.clone()).unwrap();
    let cold = cold.wait().unwrap();
    assert_eq!(cold.report.cache, CacheOutcome::Miss);
    let hit = service.submit("sim", source).unwrap().wait().unwrap();
    assert_eq!(hit.report.cache, CacheOutcome::Hit);
    assert_eq!(hist_count(&service, "service.run_ns"), 2);

    for (route, result) in [("cold", &cold), ("hit", &hit)] {
        assert_eq!(essence(result), essence(&direct), "{route} diverged");
    }
    let stats = service.shared_cache().unwrap().stats();
    assert_eq!((stats.hits, stats.misses, stats.bypasses), (1, 1, 0));
    assert_eq!(counter(&service, "service.requests"), 2);
    service.shutdown();
}

/// A program the cache holds is a request like any other: it takes a queue
/// slot (a full queue refuses it), waits behind a parked worker, and its
/// dropped ticket cancels it. A renamed sibling is another leaf: it
/// compiles on its own and keeps its names.
#[test]
fn a_cached_program_queues_like_any_other() {
    let gate = Gate::new();
    let service = cached_service(1, 1, 8);
    let _fail_not_hang = OpenOnDrop(gate.clone());
    let hot = tile_leaf("hot");
    let stored = service.submit("sim", hot.clone()).unwrap().wait().unwrap();
    assert_eq!(stored.report.cache, CacheOutcome::Miss);

    // Park the worker, then fill the queue's one slot with the cached
    // program: the next copy of it is refused.
    let gated = service
        .submit(
            "sim",
            GatedSource {
                inner: conv_source(),
                gate: gate.clone(),
            },
        )
        .expect("accepted");
    wait_until("the worker to pick up the gated request", || {
        gauge(&service, "service.queue_depth.sim") == 0
    });
    let queued = service.submit("sim", hot.clone()).expect("slot 1");
    assert_eq!(
        service.submit("sim", hot.clone()).unwrap_err(),
        ServiceError::Busy {
            target: "sim".to_string(),
            depth: 1,
        }
    );
    assert_eq!(counter(&service, "service.rejected_busy"), 1);
    drop(queued);

    gate.open();
    assert!(gated.wait().is_ok());
    wait_until("the worker to skip the cancelled copy", || {
        counter(&service, "service.cancelled") == 1
    });
    let hit = service.submit("sim", hot).unwrap().wait().unwrap();
    assert_eq!(hit.report.cache, CacheOutcome::Hit);
    assert_eq!(hit.program, stored.program);

    let sibling = service.submit("sim", tile_leaf("sibling")).unwrap();
    let sibling = sibling.wait().unwrap();
    assert_eq!(sibling.report.cache, CacheOutcome::Miss);
    assert_ne!(sibling.program, stored.program, "a sibling keeps its names");
    let again = service.submit("sim", tile_leaf("sibling")).unwrap();
    let again = again.wait().unwrap();
    assert_eq!(again.report.cache, CacheOutcome::Hit);
    assert_eq!(again.program, sibling.program);

    // Six accepted, one skipped: every other request ran on the worker.
    assert_eq!(counter(&service, "service.requests"), 6);
    assert_eq!(hist_count(&service, "service.run_ns"), 5);
    assert_eq!(gauge(&service, "service.queue_depth"), 0);
    service.shutdown();
}

/// A session with a fault plan installed never consults the cache — an
/// injected fault must not be memoized — so every request it serves is
/// compiled in full and counted as a bypass.
#[cfg(feature = "fault-injection")]
#[test]
fn fault_injected_sessions_bypass_the_cache() {
    use hardboiled_repro::egraph::fault::{Fault, FaultPlan};

    let plan = FaultPlan::new(Fault::RulePanic {
        at_search: u64::MAX,
    });
    let session = Session::builder().fault_plan(plan).build().unwrap();
    let service = CompileService::builder()
        .worker_threads(1)
        .register("sim", session)
        .shared_cache(Arc::new(ReportCache::new(8)))
        .build()
        .unwrap();
    for _ in 0..2 {
        let result = service
            .submit("sim", tile_leaf("a"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(result.report.cache, CacheOutcome::Bypass);
    }
    let cache = service.shared_cache().unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.bypasses), (0, 0, 2));
    assert!(cache.is_empty());
    assert_eq!(hist_count(&service, "service.run_ns"), 2);
    service.shutdown();
}

/// Four submitters race a skewed request sequence through two workers and
/// an 8-entry cache: leaf entries are stored, hit by a worker that was
/// queued behind the compile storing them, and evicted, all at once. Every request must come back as the direct, uncached compile of
/// its program and be counted exactly once — as the hit, miss or bypass
/// its own report says it was.
#[test]
fn cache_accounting_is_conserved_under_contention() {
    const SUBMITTERS: usize = 4;
    const PER_SUBMITTER: usize = 72;
    let mut programs: Vec<Stmt> = (0..16).map(|i| tile_leaf(&format!("p{i}"))).collect();
    programs.extend((0..4).map(|i| leaf_free(&format!("p{i}"))));
    let direct = Session::default();
    let expected: Vec<_> = programs
        .iter()
        .map(|p| essence(&direct.compile(p).unwrap()))
        .collect();
    let service = cached_service(2, SUBMITTERS * PER_SUBMITTER, 8);

    let tallies: Vec<[u64; 3]> = thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (service, programs, expected) = (&service, &programs, &expected);
                scope.spawn(move || {
                    // Cube skew, as in the benchmark's `service_mixed`:
                    // half of the requests go to the first eighth of the
                    // programs. Submit a window, then await it, so this
                    // thread's requests overlap everyone else's.
                    let picks: Vec<usize> = (0..PER_SUBMITTER)
                        .map(|j| {
                            let rank = (j * 29 + t * 17) % PER_SUBMITTER;
                            let unit = (rank as f64 + 0.5) / PER_SUBMITTER as f64;
                            (unit.powi(3) * programs.len() as f64) as usize
                        })
                        .collect();
                    let mut tally = [0u64; 3];
                    for window in picks.chunks(6) {
                        let tickets: Vec<_> = window
                            .iter()
                            .map(|&i| {
                                service
                                    .submit("sim", programs[i].clone())
                                    .expect("accepted")
                            })
                            .collect();
                        for (&i, ticket) in window.iter().zip(tickets) {
                            let result = ticket.wait().expect("request must compile");
                            assert_eq!(essence(&result), expected[i], "program {i} diverged");
                            let leaf_free = i >= 16;
                            assert_eq!(
                                result.report.cache == CacheOutcome::Bypass,
                                leaf_free,
                                "program {i} reported {:?}",
                                result.report.cache
                            );
                            tally[result.report.cache as usize] += 1;
                        }
                    }
                    tally
                })
            })
            .collect();
        submitters.into_iter().map(|s| s.join().unwrap()).collect()
    });

    let requests = (SUBMITTERS * PER_SUBMITTER) as u64;
    let reported = |outcome: CacheOutcome| tallies.iter().map(|t| t[outcome as usize]).sum::<u64>();
    let stats = service.shared_cache().unwrap().stats();
    assert_eq!(stats.hits + stats.misses + stats.bypasses, requests);
    assert_eq!(counter(&service, "service.requests"), requests);
    assert_eq!(stats.hits, reported(CacheOutcome::Hit));
    assert_eq!(stats.misses, reported(CacheOutcome::Miss));
    assert_eq!(stats.bypasses, reported(CacheOutcome::Bypass));
    // The registry's mirror of the cache counters agrees with the cache.
    assert_eq!(counter(&service, "cache.hits"), stats.hits);
    assert_eq!(counter(&service, "cache.misses"), stats.misses);
    assert_eq!(counter(&service, "cache.bypasses"), stats.bypasses);
    // Every request ran on a worker, and the scenario did exercise what it
    // is about.
    assert_eq!(hist_count(&service, "service.run_ns"), requests);
    assert!(stats.hits > 0);
    assert!(stats.misses > 16, "nothing was evicted and compiled again");
    assert!(stats.evictions > 0);
    service.shutdown();
}
