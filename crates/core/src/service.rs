//! [`CompileService`] — a multi-threaded compile service over [`Session`]s.
//!
//! A [`Session`] is immutable after construction and `Sync` (see the
//! thread-safety notes in [`crate::session`]), so one long-lived session
//! per target can serve every request concurrently. The service owns that
//! mapping — one session per *registered target name* — plus a fixed pool
//! of worker threads (`std::thread` + mutex/condvar queues; no
//! dependencies) that requests fan out across:
//!
//! ```
//! use hardboiled::CompileService;
//! use hb_ir::builder::*;
//!
//! let service = CompileService::builder()
//!     .worker_threads(2)
//!     .register_target("sim")
//!     .build()
//!     .unwrap();
//!
//! let s = store("out", ramp(int(0), int(1), 4), bcast(flt(2.0), 4));
//! let ticket = service.submit("sim", s.clone()).unwrap();
//! assert_eq!(ticket.wait().unwrap().program, s);
//! service.shutdown();
//! ```
//!
//! ## Request lifecycle
//!
//! Every request is queued: `submit` runs no front end and asks no cache
//! on the submitting thread. The worker that picks the request up converts
//! the source it now owns ([`IntoProgram::into_program`]) and compiles it
//! on the target's session, whose frame looks every selection leaf up in
//! the shared report cache at once and compiles only the leaves it misses
//! — a request whose every leaf hits encodes nothing. `service.requests`,
//! `service.wait_ns`, `service.run_ns` and the queue-depth gauges therefore
//! describe every request, hit or miss.
//!
//! **Replies.** A [`Ticket`] is the receiving end of a one-slot
//! `std::sync::mpsc::sync_channel`; the queued job holds the sender and
//! sends exactly one reply, so a worker never blocks on it. A job dropped
//! without replying disconnects the channel, which [`Ticket::wait`]
//! reports as a [`CompileError::Engine`] instead of waiting forever.
//!
//! **Queueing.** Every registered target owns its own bounded FIFO queue
//! ([`CompileServiceBuilder::queue_capacity`] slots, default 256). Workers
//! drain the queues with a round-robin cursor over the sorted target
//! names, so a deep queue on one target cannot starve the others: each
//! pass over the queues takes at most one request per target.
//!
//! **Backpressure.** [`CompileService::submit`] on a full queue refuses
//! *immediately* with [`ServiceError::Busy`] — it never blocks and never
//! grows the queue, and only the full target is affected (neighboring
//! targets keep accepting at full depth). Rejections are counted in
//! `service.rejected_busy`; per-target depths are live in the
//! `service.queue_depth.<target>` gauges (plus the global
//! `service.queue_depth` sum).
//!
//! **Cancellation.** Dropping a [`Ticket`] cancels its request by
//! tripping the request's [`CancelToken`]:
//!
//! * *still queued* — the worker that eventually reaches the request
//!   skips it without running the compile;
//! * *in flight* — the token is threaded into the session's [`Budget`]
//!   (see [`Session::compile_cancellable`]), so saturation aborts at the
//!   next rule-search boundary and the worker frees up mid-saturation
//!   with a truthful `Truncated`/cancelled report (never a falsely
//!   "saturated" one);
//! * *already completed* — the cancel is a no-op: no counters move.
//!
//! Every cancellation that actually *takes effect* (skip or abort)
//! increments `service.cancelled` and records the cancel-to-observed
//! latency in `service.cancel_latency_ns`. [`Ticket::wait`] disarms
//! cancel-on-drop, so waiting for a result never counts as a
//! cancellation.
//!
//! [`Budget`]: hb_egraph::schedule::Budget
//!
//! ## Request isolation
//!
//! Each request runs under its own `catch_unwind`, on top of the
//! session's own two layers — engine faults per compile unit, any other
//! panic per request (see
//! [`crate::session`]): a panic anywhere in one request — including in
//! the front end's conversion ([`IntoProgram::into_program`]: a worker
//! owns the source it was queued with), which runs *before* the
//! session's own isolation — surfaces as that request's
//! [`CompileError::Engine`] while the workers keep serving everything
//! else. Per-request degradation ([`crate::CompileOutcome`]'s ladder)
//! likewise stays per-request: one truncated compile does not slow or
//! degrade its neighbors.
//!
//! ## Determinism
//!
//! Requests are independent and sessions are immutable, so results are
//! byte-identical regardless of worker count, queue capacity or
//! completion order. The concurrency tests assert this against serial
//! compilation.
//!
//! ## Shutdown = drain
//!
//! [`CompileService::shutdown`] (and `Drop`) closes the queues and joins
//! the workers. Workers keep draining until every queue is empty, so
//! every accepted request still completes and its [`Ticket`] resolves
//! (cancelled ones are skipped as usual); only *new* submissions are
//! refused ([`ServiceError::ShuttingDown`]).

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use hb_egraph::schedule::CancelToken;
use hb_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

use crate::cache::ReportCache;
use crate::session::{
    panic_message, BuildError, CompileError, CompileResult, IntoProgram, Session,
};

/// A queued request: a closure that performs the compile and sends the
/// reply to its ticket.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Default per-target queue capacity
/// ([`CompileServiceBuilder::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Errors from submitting work to a [`CompileService`].
///
/// Service errors are about *routing* a request; errors from the compile
/// itself come back through the [`Ticket`] as [`CompileError`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The target name was never registered on the builder.
    UnknownTarget(String),
    /// The target's bounded queue is full — backpressure, not failure.
    /// `depth` is the queue depth observed at rejection time. Other
    /// targets' queues are unaffected; retry later.
    Busy {
        /// The target whose queue was full.
        target: String,
        /// Queue depth at rejection time (== the configured capacity).
        depth: usize,
    },
    /// The job queues are closed (the service is draining).
    ShuttingDown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTarget(name) => {
                write!(f, "no session registered for target {name:?}")
            }
            ServiceError::Busy { target, depth } => {
                write!(
                    f,
                    "target {target:?} queue is full ({depth} queued requests)"
                )
            }
            ServiceError::ShuttingDown => write!(f, "compile service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A request's handle. [`Ticket::wait`] blocks until the worker that
/// picked the request up finishes it.
///
/// Dropping a ticket without waiting *cancels* the request: if it is
/// still queued the worker skips it, and if it is already running the
/// compile is aborted at the next rule-search boundary (see the module
/// docs' lifecycle section). Dropping after completion is a no-op.
#[must_use = "a ticket resolves to the request's result; dropping it cancels the compile"]
pub struct Ticket {
    /// The receiving end of the request's one-slot reply channel.
    reply: Receiver<Result<CompileResult, CompileError>>,
    /// `Some` while cancel-on-drop is armed; [`Ticket::wait`] disarms.
    cancel: Option<CancelToken>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("cancel_on_drop", &self.cancel.is_some())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request completes and returns its outcome.
    ///
    /// # Errors
    ///
    /// Whatever the compile itself produced — including
    /// [`CompileError::Engine`] when the request panicked in a worker.
    pub fn wait(mut self) -> Result<CompileResult, CompileError> {
        // Disarm cancel-on-drop: waiting out the result is the opposite
        // of abandoning the request.
        self.cancel = None;
        // A disconnect is unreachable in practice: workers always reply
        // exactly once (panics are caught inside the job), and shutdown
        // drains the queues. Degrade to an error rather than hanging.
        self.reply.recv().unwrap_or_else(|_| {
            Err(CompileError::Engine(
                "compile worker exited before replying".to_string(),
            ))
        })
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(cancel) = self.cancel.take() {
            cancel.cancel();
        }
    }
}

/// Builder for [`CompileService`]. See the module docs for the model.
#[derive(Debug, Default)]
pub struct CompileServiceBuilder {
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    /// Registered targets in registration order; [`Self::build`] reports
    /// the first failed session build in that order.
    entries: Vec<(String, Result<Session, BuildError>)>,
    cache: Option<Arc<ReportCache>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl CompileServiceBuilder {
    /// Size of the worker pool. Defaults to
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Per-target queue capacity (default
    /// [`DEFAULT_QUEUE_CAPACITY`]). A [`CompileService::submit`] to a
    /// target whose queue already holds this many requests returns
    /// [`ServiceError::Busy`] instead of growing the queue.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Registers `name` with a default [`Session`] for the target of the
    /// same name (equivalent to `Session::builder().target_name(name)`).
    #[must_use]
    pub fn register_target(mut self, name: &str) -> Self {
        let session = Session::builder().target_name(name).build();
        self.entries.push((name.to_string(), session));
        self
    }

    /// Registers `name` with a caller-configured [`Session`] — the hook
    /// for a custom target, batching, budgets, or (in tests) fault plans.
    #[must_use]
    pub fn register(mut self, name: &str, session: Session) -> Self {
        self.entries.push((name.to_string(), Ok(session)));
        self
    }

    /// Shares one bounded [`ReportCache`] across every registered session
    /// (default: no cache). Installed at [`CompileServiceBuilder::build`]
    /// into each session that does not already carry its own cache, so a
    /// leaf any worker has selected for any request is not compiled again.
    /// Keys include each session's policy fingerprint, so entries never
    /// cross targets or policies.
    /// Aggregate counters are available via
    /// [`CompileService::shared_cache`].
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<ReportCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Shares one [`MetricsRegistry`] across the service and every
    /// registered session. The service always carries a registry — by
    /// default a fresh private one — and installs it into each session
    /// that does not already have its own, so session-level metrics
    /// (outcome ladder, cache traffic, stage histograms) aggregate next
    /// to the service-level ones (`service.requests`,
    /// `service.requests_panicked`, `service.queue_depth`, wait/run
    /// latency histograms). Pass an external registry here to aggregate
    /// several services, or to render everything from one place.
    #[must_use]
    pub fn shared_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Builds the service: resolves every registered target to a session
    /// and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidWorkers`] for a zero-sized pool,
    /// [`BuildError::InvalidQueueCapacity`] for zero-capacity queues,
    /// [`BuildError::DuplicateTarget`] when one name is registered twice,
    /// and any [`BuildError`] from building a `register_target` default
    /// session (e.g. [`BuildError::UnknownTarget`]).
    pub fn build(self) -> Result<CompileService, BuildError> {
        if self.workers == Some(0) {
            return Err(BuildError::InvalidWorkers);
        }
        if self.queue_capacity == Some(0) {
            return Err(BuildError::InvalidQueueCapacity);
        }
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let metrics = self.metrics.unwrap_or_default();
        // One pool of compile contexts for every session: a worker runs one
        // compile at a time, whichever target it is for.
        let ctx_pool = Arc::<crate::session::CtxPool>::default();
        let mut targets: Vec<(String, Arc<Session>)> = Vec::new();
        for (name, session) in self.entries {
            let mut session = session?;
            if let Some(cache) = &self.cache {
                session.install_cache(Arc::clone(cache));
            }
            session.install_metrics(Arc::clone(&metrics));
            session.share_ctx_pool(Arc::clone(&ctx_pool));
            match targets.binary_search_by(|(known, _)| known.cmp(&name)) {
                Ok(_) => return Err(BuildError::DuplicateTarget(name)),
                Err(at) => targets.insert(at, (name, Arc::new(session))),
            }
        }
        let obs = Arc::new(ServiceObs::resolve(&metrics, &targets));
        let dispatcher = Arc::new(Dispatcher {
            state: Mutex::new(DispatchState {
                open: true,
                queues: targets.iter().map(|_| VecDeque::new()).collect(),
                cursor: 0,
            }),
            work_cv: Condvar::new(),
            capacity: self.queue_capacity.unwrap_or(DEFAULT_QUEUE_CAPACITY),
        });
        let workers = (0..workers)
            .map(|_| {
                let dispatcher = Arc::clone(&dispatcher);
                let obs = Arc::clone(&obs);
                std::thread::spawn(move || CompileService::worker_loop(&dispatcher, &obs))
            })
            .collect();
        Ok(CompileService {
            targets,
            dispatcher,
            workers,
            cache: self.cache,
            metrics,
            obs,
        })
    }
}

/// One request sitting in a target's queue.
struct QueuedJob {
    job: Job,
    /// The ticket's cancel handle: tripped means "skip me".
    cancel: CancelToken,
}

/// The shared dispatch state: per-target bounded queues plus the
/// round-robin cursor workers use to drain them fairly.
struct DispatchState {
    /// `false` once shutdown starts: submissions are refused, workers
    /// exit when the queues run dry.
    open: bool,
    /// One FIFO per registered target, in the service's sorted target
    /// order.
    queues: Vec<VecDeque<QueuedJob>>,
    /// Next queue a worker looks at — advanced past each pop so every
    /// pass takes at most one request per target.
    cursor: usize,
}

impl DispatchState {
    /// Pops the next request, round-robin across targets.
    fn pop_fair(&mut self) -> Option<(QueuedJob, usize)> {
        let n = self.queues.len();
        for k in 0..n {
            let idx = (self.cursor + k) % n;
            if let Some(job) = self.queues[idx].pop_front() {
                self.cursor = (idx + 1) % n;
                return Some((job, idx));
            }
        }
        None
    }
}

/// The queues + their rendezvous point: `work_cv` wakes workers when a
/// request lands.
struct Dispatcher {
    state: Mutex<DispatchState>,
    work_cv: Condvar,
    capacity: usize,
}

const DISPATCH_LOCK: &str = "the dispatch lock is held across no panic";

impl Dispatcher {
    fn lock(&self) -> MutexGuard<'_, DispatchState> {
        self.state.lock().expect(DISPATCH_LOCK)
    }
}

/// A fixed pool of compile workers fanning requests across one immutable
/// [`Session`] per registered target. See the module docs.
pub struct CompileService {
    /// One session per registered target, sorted by name; target `i` owns
    /// queue `i` and depth gauge `i`.
    targets: Vec<(String, Arc<Session>)>,
    dispatcher: Arc<Dispatcher>,
    workers: Vec<JoinHandle<()>>,
    cache: Option<Arc<ReportCache>>,
    metrics: Arc<MetricsRegistry>,
    obs: Arc<ServiceObs>,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("targets", &self.targets)
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.dispatcher.capacity)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

/// Pre-resolved service-level metric handles (same rationale as the
/// session's: one registry lookup at spawn, lock-free bumps per request),
/// shared by the service, its workers and every queued job.
struct ServiceObs {
    requests: Counter,
    requests_panicked: Counter,
    rejected_busy: Counter,
    cancelled: Counter,
    queue_depth: Gauge,
    /// Per-target depth gauges (`service.queue_depth.<target>`), aligned
    /// with the sorted target order.
    queue_depth_by_target: Vec<Gauge>,
    wait_ns: Histogram,
    run_ns: Histogram,
    cancel_latency_ns: Histogram,
}

impl ServiceObs {
    fn resolve(metrics: &MetricsRegistry, targets: &[(String, Arc<Session>)]) -> ServiceObs {
        ServiceObs {
            requests: metrics.counter("service.requests"),
            requests_panicked: metrics.counter("service.requests_panicked"),
            rejected_busy: metrics.counter("service.rejected_busy"),
            cancelled: metrics.counter("service.cancelled"),
            queue_depth: metrics.gauge("service.queue_depth"),
            queue_depth_by_target: targets
                .iter()
                .map(|(name, _)| metrics.gauge(&format!("service.queue_depth.{name}")))
                .collect(),
            wait_ns: metrics.histogram("service.wait_ns"),
            run_ns: metrics.histogram("service.run_ns"),
            cancel_latency_ns: metrics.histogram("service.cancel_latency_ns"),
        }
    }

    /// Whether `cancel` has been tripped; if so, the cancellation took
    /// effect (a skip or an abort) and is counted with its latency.
    fn took_effect(&self, cancel: &CancelToken) -> bool {
        let cancelled = cancel.is_cancelled();
        if cancelled {
            self.cancelled.inc();
            if let Some(at) = cancel.cancelled_at() {
                self.cancel_latency_ns.observe_duration(at.elapsed());
            }
        }
        cancelled
    }
}

impl CompileService {
    /// Entry point: `CompileService::builder().register_target("amx")…`.
    #[must_use]
    pub fn builder() -> CompileServiceBuilder {
        CompileServiceBuilder::default()
    }

    /// One worker: pop fairly, skip cancelled requests, run the rest.
    /// Exits when shutdown has been signalled *and* every queue is dry,
    /// so accepted requests always resolve.
    fn worker_loop(dispatcher: &Dispatcher, obs: &ServiceObs) {
        loop {
            let queued = {
                let mut st = dispatcher.lock();
                loop {
                    if let Some((queued, idx)) = st.pop_fair() {
                        // Depth gauges track *queued* requests, so they
                        // move under the lock, in step with the queues.
                        obs.queue_depth.add(-1);
                        obs.queue_depth_by_target[idx].add(-1);
                        break queued;
                    }
                    if !st.open {
                        return;
                    }
                    st = dispatcher.work_cv.wait(st).expect(DISPATCH_LOCK);
                }
            };
            // Cancelled while queued: skip without compiling. Only a
            // dropped ticket cancels, so there is nobody to answer.
            if !obs.took_effect(&queued.cancel) {
                (queued.job)();
            }
        }
    }

    /// Per-target queue capacity (the bound behind
    /// [`ServiceError::Busy`]).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.dispatcher.capacity
    }

    /// The shared report cache, if one was installed — its
    /// [`ReportCache::stats`] aggregate every worker and registered session.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<ReportCache>> {
        self.cache.as_ref()
    }

    /// A point-in-time snapshot of the service's metrics registry —
    /// request/panic/busy/cancel counters, global and per-target queue
    /// depths, wait/run/cancel latency histograms, plus everything the
    /// registered sessions recorded into the shared registry. Render it
    /// with `MetricsSnapshot::render_text`.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The session serving `target` — the same instance every request to
    /// that target uses, so its reports/extraction stats are directly
    /// comparable to direct [`Session::compile`] calls.
    #[must_use]
    pub fn session(&self, target: &str) -> Option<&Session> {
        self.find(target).map(|i| self.targets[i].1.as_ref())
    }

    /// The position of `target` in the sorted target table.
    fn find(&self, target: &str) -> Option<usize> {
        self.targets
            .binary_search_by(|(name, _)| name.as_str().cmp(target))
            .ok()
    }

    /// Submits one program for compilation on `target`'s session: queued
    /// for a worker, which converts and compiles it. Never blocks: a full
    /// queue is [`ServiceError::Busy`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTarget`] / [`ServiceError::Busy`] /
    /// [`ServiceError::ShuttingDown`]; compile failures come back through
    /// the [`Ticket`].
    pub fn submit<S>(&self, target: &str, source: S) -> Result<Ticket, ServiceError>
    where
        S: IntoProgram + Send + 'static,
    {
        let idx = self
            .find(target)
            .ok_or_else(|| ServiceError::UnknownTarget(target.to_string()))?;
        let session = Arc::clone(&self.targets[idx].1);
        let cancel = CancelToken::new();
        // The job holds the sender: dropped unsent, it disconnects the
        // ticket's receiver instead of leaving it waiting.
        let (reply, receiver) = sync_channel(1);
        let obs = Arc::clone(&self.obs);
        let job_cancel = cancel.clone();
        let enqueued = Instant::now();
        let job: Job = Box::new(move || {
            obs.wait_ns.observe_duration(enqueued.elapsed());
            let run_started = Instant::now();
            // Per-request isolation: a panic becomes this request's
            // `Engine` error; the worker (and queue) keep going. The
            // panic counter feeds the chaos suite's truth check: every
            // request-level fault must show up here, exactly once.
            let run_cancel = Some(job_cancel.clone());
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                session.compile_lowered(|| source.into_program(), run_cancel)
            }))
            .unwrap_or_else(|payload| {
                obs.requests_panicked.inc();
                Err(CompileError::Engine(panic_message(&*payload)))
            });
            // Observed *before* `run_ns`, so once the run histogram shows
            // this request, a later ticket drop can no longer be
            // miscounted as an effective cancellation.
            obs.took_effect(&job_cancel);
            obs.run_ns.observe_duration(run_started.elapsed());
            // A dropped ticket just means nobody is waiting.
            let _ = reply.send(outcome);
        });

        let mut st = self.dispatcher.lock();
        if !st.open {
            return Err(ServiceError::ShuttingDown);
        }
        let depth = st.queues[idx].len();
        if depth >= self.dispatcher.capacity {
            self.obs.rejected_busy.inc();
            return Err(ServiceError::Busy {
                target: self.targets[idx].0.clone(),
                depth,
            });
        }
        st.queues[idx].push_back(QueuedJob {
            job,
            cancel: cancel.clone(),
        });
        self.obs.queue_depth.add(1);
        self.obs.queue_depth_by_target[idx].add(1);
        self.obs.requests.inc();
        drop(st);
        self.dispatcher.work_cv.notify_one();
        Ok(Ticket {
            reply: receiver,
            cancel: Some(cancel),
        })
    }

    /// Drains and stops the service: already-queued requests still run to
    /// completion (their tickets resolve), new submissions are refused,
    /// and every worker is joined before this returns. Dropping the
    /// service does the same.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.dispatcher.lock().open = false;
        // Every worker re-checks `open`: it finishes the queues, then stops.
        self.dispatcher.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for CompileService {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Batching, Program};
    use hb_ir::builder as b;
    use hb_ir::stmt::Stmt;
    use hb_ir::types::{MemoryType, ScalarType, Type};

    /// One accelerator-touching leaf (AMX-tile buffer), distinct per `i`
    /// so batch replies are distinguishable.
    fn tile_leaf(i: i64) -> Stmt {
        let idx = b::ramp(b::int(i), b::int(1), 8);
        let ld = b::load(Type::f32().with_lanes(8), format!("x{i}"), idx.clone());
        b::allocate(
            format!("acc{i}"),
            ScalarType::F32,
            8,
            MemoryType::AmxTile,
            b::store(format!("acc{i}"), idx, b::mul(ld.clone(), ld)),
        )
    }

    #[test]
    fn submit_matches_direct_session_compile() {
        let service = CompileService::builder()
            .worker_threads(2)
            .register_target("sim")
            .build()
            .unwrap();
        assert_eq!(service.queue_capacity(), DEFAULT_QUEUE_CAPACITY);

        let direct = Session::builder().target_name("sim").build().unwrap();
        let stmt = tile_leaf(0);
        let served = service.submit("sim", stmt.clone()).unwrap().wait().unwrap();
        let expect = direct.compile(&stmt).unwrap();
        assert_eq!(served.program, expect.program);
        assert_eq!(served.report.outcome, expect.report.outcome);
        service.shutdown();
    }

    #[test]
    fn batch_replies_in_input_order() {
        let service = CompileService::builder()
            .worker_threads(3)
            .register_target("sim")
            .build()
            .unwrap();
        let direct = Session::builder().target_name("sim").build().unwrap();
        let sources: Vec<Stmt> = (0..6).map(tile_leaf).collect();
        let tickets: Vec<Ticket> = sources
            .iter()
            .map(|source| service.submit("sim", source.clone()).unwrap())
            .collect();
        for (ticket, source) in tickets.into_iter().zip(&sources) {
            let expect = direct.compile(source).unwrap();
            assert_eq!(ticket.wait().unwrap().program, expect.program);
        }
    }

    /// A front end that panics in `to_program` — *before* the session's
    /// own isolation layers, so only the service-level `catch_unwind`
    /// can confine it.
    struct PanickingFrontEnd;
    impl IntoProgram for PanickingFrontEnd {
        fn to_program(&self) -> Result<Program, CompileError> {
            panic!("injected fault: front end exploded");
        }
    }

    #[test]
    fn panicking_request_is_confined_and_service_keeps_serving() {
        let service = CompileService::builder()
            .worker_threads(2)
            .register_target("sim")
            .build()
            .unwrap();
        let bad = service.submit("sim", PanickingFrontEnd).unwrap();
        let good = service.submit("sim", tile_leaf(1)).unwrap();
        match bad.wait() {
            Err(CompileError::Engine(msg)) => assert!(msg.contains("injected fault"), "{msg}"),
            other => panic!("expected Engine error, got {other:?}"),
        }
        // The pool survived: the concurrent request and a fresh one both
        // complete normally.
        assert!(good.wait().is_ok());
        assert!(service.submit("sim", tile_leaf(2)).unwrap().wait().is_ok());
        // The fault is on the record: exactly the one panicking request.
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("service.requests"), Some(3));
        assert_eq!(snap.counter("service.requests_panicked"), Some(1));
    }

    #[test]
    fn metrics_snapshot_counts_requests_and_latencies() {
        let service = CompileService::builder()
            .worker_threads(2)
            .register_target("sim")
            .build()
            .unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| service.submit("sim", tile_leaf(i)).unwrap())
            .collect();
        assert!(tickets.into_iter().all(|ticket| ticket.wait().is_ok()));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("service.requests"), Some(4));
        assert_eq!(snap.counter("service.requests_panicked"), Some(0));
        assert_eq!(snap.counter("service.rejected_busy"), Some(0));
        assert_eq!(snap.counter("service.cancelled"), Some(0));
        // Every request has been picked up and finished — globally and on
        // the target's own gauge.
        assert_eq!(snap.gauge("service.queue_depth"), Some(0));
        assert_eq!(snap.gauge("service.queue_depth.sim"), Some(0));
        assert_eq!(snap.histogram("service.wait_ns").map(|h| h.count), Some(4));
        assert_eq!(snap.histogram("service.run_ns").map(|h| h.count), Some(4));
        // The sessions share the registry: their outcome ladder landed
        // next to the service counters.
        assert_eq!(snap.counter("compile.outcome.saturated"), Some(4));
        service.shutdown();
    }

    /// Reachable only from inside the crate — `shutdown` consumes the
    /// service — but once draining has begun every submission is refused,
    /// a program the cache holds included, and counted nowhere.
    #[test]
    fn submissions_are_refused_once_shutdown_has_begun() {
        let mut service = CompileService::builder()
            .worker_threads(1)
            .register_target("sim")
            .shared_cache(Arc::new(ReportCache::new(4)))
            .build()
            .unwrap();
        assert!(service.submit("sim", tile_leaf(0)).unwrap().wait().is_ok());
        let hit = service.submit("sim", tile_leaf(0)).unwrap().wait().unwrap();
        assert_eq!(hit.report.cache, crate::cache::CacheOutcome::Hit);
        let before = service.metrics_snapshot();
        let stats = service.shared_cache().map(|c| c.stats());
        service.drain();
        for leaf in [0, 1] {
            assert_eq!(
                service.submit("sim", tile_leaf(leaf)).unwrap_err(),
                ServiceError::ShuttingDown
            );
        }
        let after = service.metrics_snapshot();
        for name in ["service.requests", "cache.hits", "cache.misses"] {
            assert_eq!(after.counter(name), before.counter(name), "{name} moved");
        }
        assert_eq!(service.shared_cache().map(|c| c.stats()), stats);
    }

    /// A job dropped without replying (a skipped request's, or one lost
    /// to a worker that died) disconnects its ticket: `wait` returns an
    /// `Engine` error at once instead of hanging. A ticket stays `Send`.
    #[test]
    fn abandoned_reply_resolves_the_ticket_with_an_engine_error() {
        fn assert_send<T: Send>() {}
        assert_send::<Ticket>();
        let (reply, receiver) = sync_channel::<Result<CompileResult, CompileError>>(1);
        let ticket = Ticket {
            reply: receiver,
            cancel: Some(CancelToken::new()),
        };
        drop(reply);
        match ticket.wait() {
            Err(CompileError::Engine(msg)) => {
                assert!(msg.contains("exited before replying"), "{msg}");
            }
            other => panic!("expected Engine error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_target_is_a_routing_error() {
        let service = CompileService::builder()
            .register_target("sim")
            .build()
            .unwrap();
        let err = service.submit("tpu", tile_leaf(0)).unwrap_err();
        assert_eq!(err, ServiceError::UnknownTarget("tpu".to_string()));
    }

    #[test]
    fn builder_validation() {
        assert_eq!(
            CompileService::builder()
                .worker_threads(0)
                .build()
                .unwrap_err(),
            BuildError::InvalidWorkers
        );
        assert_eq!(
            CompileService::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err(),
            BuildError::InvalidQueueCapacity
        );
        assert_eq!(
            CompileService::builder()
                .register_target("sim")
                .register_target("sim")
                .build()
                .unwrap_err(),
            BuildError::DuplicateTarget("sim".to_string())
        );
        assert!(matches!(
            CompileService::builder()
                .register_target("not-a-target")
                .build()
                .unwrap_err(),
            BuildError::UnknownTarget(_)
        ));
    }

    #[test]
    fn custom_session_registration_is_honored() {
        let session = Session::builder()
            .target_name("amx")
            .batching(Batching::Batched)
            .build()
            .unwrap();
        let service = CompileService::builder()
            .worker_threads(1)
            .register("fast-amx", session)
            .build()
            .unwrap();
        assert_eq!(
            service.session("fast-amx").unwrap().batching(),
            Batching::Batched
        );
        assert!(service
            .submit("fast-amx", tile_leaf(0))
            .unwrap()
            .wait()
            .is_ok());
    }
}
