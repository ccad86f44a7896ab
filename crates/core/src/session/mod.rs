//! The `Session` compilation API: HARDBOILED's end-to-end pipeline driver.
//!
//! A [`Session`] owns everything one compilation context needs — the
//! [`Target`] (device parameters, placement policy, rule profile), the
//! extraction [`DeviceCost`] derived from the target's device, the
//! batching mode and the saturation budget — and runs
//! lower → annotate → encode → saturate → extract → splice over anything
//! implementing [`IntoProgram`] (an IR statement tree, a front-end
//! `Pipeline` from `hb-lang`, or a pre-lowered `Lowered`). With
//! [`Batching::Batched`] every leaf of every program in a call shares
//! **one** e-graph and one saturation run.
//!
//! ```
//! use hardboiled::{Batching, Session};
//! use hb_ir::builder::*;
//!
//! let session = Session::builder()
//!     .target_name("sim")
//!     .batching(Batching::Batched)
//!     .build()
//!     .unwrap();
//! // Statements that do not touch accelerator buffers pass through.
//! let s = store("out", ramp(int(0), int(1), 4), bcast(flt(2.0), 4));
//! let result = session.compile(&s).unwrap();
//! assert_eq!(result.program, s);
//! assert_eq!(result.report.num_statements(), 0);
//! ```
//!
//! The [`CompileReport`] carries the selector's statement outcomes, one
//! engine [`RunReport`](hb_egraph::schedule::RunReport) per unit that ran
//! ([`CompileReport::units`]), front-end diagnostics and per-stage
//! wall-clock timings ([`StageTimings`]).
//!
//! ## One path through a compile, one file per decision
//!
//! The seven `compile*` methods differ in what they accept (one source, a
//! suite, IR), in how they isolate panics, and in what they do besides
//! selecting — honour a [`CancelToken`], export the saturated graph,
//! warm-start from one — not in how they compile. Each is a few lines over
//! one private frame that takes one `Job` — cached, export or warm, never
//! two at once — and runs annotate → take the leaves out and group them by
//! shape in one walk → cache lookup (one per shape, cached jobs only) →
//! unit(s) over the missed shapes → instantiate each leaf → cache store →
//! fill the holes → record.
//! A *unit* is the one function that touches an e-graph: encode its shape
//! roots into a pooled context's graph, saturate it in one loop, export if
//! its job says so, solve one
//! [`WorklistExtractor`](hb_egraph::extract::WorklistExtractor) cost table
//! and read every root out of it — once per missed shape in
//! [`Batching::PerLeaf`] mode, once per call in [`Batching::Batched`] mode
//! or warm. There is no extraction knob (see "Extension points" in the
//! crate docs).
//!
//! * this file — [`Program`], [`IntoProgram`], the [`Session`], its
//!   accessors and its five cold entry points, and the metric handles;
//! * `builder.rs` — [`SessionBuilder`] (every setter last-write-wins),
//!   [`BuildError`] and [`Batching`];
//! * `report.rs` — what a compile returns: [`CompileError`], the
//!   [`CompileOutcome`] ladder, [`CompileReport`] and its parts, and
//!   [`CompileResult`], [`SuiteResult`] and [`IrSuiteResult`];
//! * `frame.rs` — the frame, its `Job`, the per-shape cache lookup and
//!   store, the units with the engine-fault fallback around them, and the
//!   pooled compile contexts;
//! * `suite.rs` — the suite's fast path, which moves its lowered programs
//!   into the frame, the per-program retry that lowers the sources again
//!   after a fault, and the request-level `catch_unwind` around one
//!   program;
//! * `warm.rs` — the snapshot path, the one file that restores a graph.
//!
//! ## Thread safety and service ownership
//!
//! A `Session` is `Send + Sync` and designed to be **owned once, shared
//! everywhere**: every field is immutable after `build()` except the
//! lazily compiled rule set (a `OnceLock` — first compile wins, every
//! thread reuses it), the pool of compile contexts at rest (a mutex held
//! only to pop and push one; see "Compile contexts" in the crate docs)
//! and the per-call state, which lives on the calling thread's stack and
//! in the context it popped. Any number of threads may call
//! [`Session::compile`] / [`Session::compile_suite`] on one shared
//! session concurrently, and each call's output is byte-identical to
//! what a serial caller would get — this is the contract
//! [`crate::service::CompileService`] builds on (one long-lived session
//! per registered target, fanned across a worker pool).

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use hb_accel::target::Target;
use hb_egraph::schedule::{Budget, CancelToken, Runner};
use hb_ir::stmt::Stmt;
use hb_obs::{Counter, Gauge, Histogram, MetricsRegistry, Tracer};

use crate::cache::ReportCache;
use crate::cost::DeviceCost;
use crate::lang::Symbol;
use crate::movement::Placements;
use crate::rules::RuleSet;

mod builder;
mod frame;
mod report;
mod suite;
mod warm;

pub use builder::{Batching, BuildError, SessionBuilder};
pub(crate) use frame::CtxPool;
use frame::{Job, POOL_LOCK};
pub use report::{
    CompileError, CompileOutcome, CompileReport, CompileResult, ExtractionReport, IrSuiteResult,
    StageTimings, StmtReport, SuiteResult, TruncationReason,
};
pub(crate) use suite::panic_message;

/// A compilation unit: an IR statement tree plus the buffer placements the
/// schedule requested (supplementing those discoverable from `Allocate`
/// nodes), with optional front-end diagnostics carried into the report.
#[derive(Debug, Clone)]
pub struct Program {
    /// The statement tree to compile.
    pub stmt: Stmt,
    /// Extra placements for buffers allocated outside the tree (pipeline
    /// outputs, image inputs).
    pub placements: Placements,
    /// Front-end diagnostics (lowering notes), surfaced in
    /// [`CompileReport::notes`].
    pub notes: Vec<String>,
}

impl Program {
    /// A program with no extra placements or diagnostics.
    #[must_use]
    pub fn new(stmt: Stmt) -> Self {
        Program {
            stmt,
            placements: Placements::new(),
            notes: Vec::new(),
        }
    }
}

/// Anything a [`Session`] can compile. `hb-lang` implements this for its
/// `Pipeline` (lowering on demand) and `Lowered` types, making the session
/// the single entry point from front-end source to selected IR; new front
/// ends plug in the same way.
pub trait IntoProgram {
    /// Produces the program to compile. Front-end failures surface as
    /// [`CompileError::Lower`].
    ///
    /// # Errors
    ///
    /// Implementations return [`CompileError::Lower`] when the source
    /// cannot be lowered to IR.
    fn to_program(&self) -> Result<Program, CompileError>;

    /// [`IntoProgram::to_program`] for a caller that is done with the
    /// source (a [`CompileService`](crate::service::CompileService) worker
    /// owns each request's): sources that already hold their tree move it
    /// instead of cloning it.
    ///
    /// # Errors
    ///
    /// Exactly as [`IntoProgram::to_program`].
    fn into_program(self) -> Result<Program, CompileError>
    where
        Self: Sized,
    {
        self.to_program()
    }
}

impl IntoProgram for Program {
    fn to_program(&self) -> Result<Program, CompileError> {
        Ok(self.clone())
    }

    fn into_program(self) -> Result<Program, CompileError> {
        Ok(self)
    }
}

impl IntoProgram for Stmt {
    fn to_program(&self) -> Result<Program, CompileError> {
        Ok(Program::new(self.clone()))
    }

    fn into_program(self) -> Result<Program, CompileError> {
        Ok(Program::new(self))
    }
}

/// The outcome ladder's counters: the reference rung, the four
/// [`TruncationReason`]s in declaration order, the fallback rung.
const OUTCOME_COUNTERS: [&str; 6] = [
    "compile.outcome.saturated",
    "compile.outcome.truncated_cancelled",
    "compile.outcome.truncated_deadline",
    "compile.outcome.truncated_node_limit",
    "compile.outcome.truncated_match_budget",
    "compile.outcome.fallback",
];

/// Pre-resolved metric handles so the hot path never takes the
/// registry's name-lookup lock: every counter/histogram the session
/// records is looked up once at `build()` (or `install_metrics`) time
/// and bumped through lock-free handles afterwards.
struct ObsHandles {
    /// One counter per rung, in [`OUTCOME_COUNTERS`] order.
    outcomes: [Counter; 6],
    cache_hits: Counter,
    cache_misses: Counter,
    cache_bypasses: Counter,
    cache_evictions: Counter,
    delta_probed_rows: Counter,
    delta_skipped_rows: Counter,
    /// Suites whose shared run faulted and were retried program by program.
    suite_retries: Counter,
    stage_lower: Histogram,
    stage_encode: Histogram,
    stage_saturate: Histogram,
    stage_extract: Histogram,
    stage_splice: Histogram,
    symbols_interned: Gauge,
}

impl ObsHandles {
    fn resolve(metrics: &MetricsRegistry) -> ObsHandles {
        ObsHandles {
            outcomes: OUTCOME_COUNTERS.map(|name| metrics.counter(name)),
            cache_hits: metrics.counter("cache.hits"),
            cache_misses: metrics.counter("cache.misses"),
            cache_bypasses: metrics.counter("cache.bypasses"),
            cache_evictions: metrics.counter("cache.evictions"),
            delta_probed_rows: metrics.counter("engine.delta_probed_rows"),
            delta_skipped_rows: metrics.counter("engine.delta_skipped_rows"),
            suite_retries: metrics.counter("compile.suite_retries"),
            stage_lower: metrics.histogram("stage.lower_ns"),
            stage_encode: metrics.histogram("stage.encode_ns"),
            stage_saturate: metrics.histogram("stage.saturate_ns"),
            stage_extract: metrics.histogram("stage.extract_ns"),
            stage_splice: metrics.histogram("stage.splice_ns"),
            symbols_interned: metrics.gauge("core.symbols.interned"),
        }
    }

    /// Counts a finished compile under its outcome rung and refreshes the
    /// size of the process-wide symbol table (every compile can grow it).
    fn record_outcome(&self, outcome: CompileOutcome) {
        self.symbols_interned
            .set(i64::try_from(Symbol::interned()).unwrap_or(i64::MAX));
        let rung = match outcome {
            CompileOutcome::Saturated => 0,
            CompileOutcome::Truncated { reason } => 1 + reason as usize,
            CompileOutcome::FallbackUnoptimized => 5,
        };
        self.outcomes[rung].inc();
    }

    /// Records everything a finished full-pipeline report carries:
    /// outcome rung, per-stage duration histograms (`lower` is recorded
    /// separately by the entry points that measure it), and the delta
    /// matcher's probed/skipped row counters.
    fn record_report(&self, report: &CompileReport) {
        self.record_outcome(report.outcome);
        self.stage_encode.observe_duration(report.stages.encode);
        self.stage_saturate.observe_duration(report.stages.saturate);
        self.stage_extract.observe_duration(report.stages.extract);
        self.stage_splice.observe_duration(report.stages.splice);
        let (probed, skipped) = delta_rows(report);
        self.delta_probed_rows.add(probed);
        self.delta_skipped_rows.add(skipped);
    }
}

/// Total delta-matcher row traffic in a report, summed over its units.
fn delta_rows(report: &CompileReport) -> (u64, u64) {
    report.units.iter().fold((0, 0), |(p, s), run| {
        (
            p + run.delta_probed_rows as u64,
            s + run.delta_skipped_rows as u64,
        )
    })
}

/// One compilation context: target, cost model, batching mode, saturation
/// budget, and a lazily built (then cached) rule set.
///
/// Sessions are cheap to create; the expensive rule compilation happens on
/// the first `compile` that actually has accelerator-touching leaves and
/// is reused by every later call on the same session.
pub struct Session {
    target: Box<dyn Target>,
    cost: DeviceCost,
    batching: Batching,
    deadline: Option<Duration>,
    match_budget: Option<usize>,
    runner: Runner,
    rules: OnceLock<RuleSet>,
    /// Compile contexts at rest, one per compile unit that ran at once. A
    /// service's sessions share one pool: contexts are target-independent,
    /// so it holds one per worker, not one per worker and target.
    ctx_pool: Arc<CtxPool>,
    cache: Option<Arc<ReportCache>>,
    tracer: Tracer,
    metrics: Option<Arc<MetricsRegistry>>,
    obs: Option<ObsHandles>,
    fingerprint: u64,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder()
            .build()
            .expect("default session is valid")
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("target", &self.target.name())
            .field("batching", &self.batching)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Starts building a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The session's target.
    #[must_use]
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// The session's batching mode.
    #[must_use]
    pub fn batching(&self) -> Batching {
        self.batching
    }

    /// The session's policy fingerprint: a stable hash of everything
    /// besides the programs that can change a compile's output (target,
    /// batching, budgets, the cost model's two prices). Cache keys fold
    /// it in, and [`SuiteSnapshot`](crate::cache::SuiteSnapshot)s carry the
    /// exporting session's value so warm-starts only run under a
    /// compatible policy.
    #[must_use]
    pub fn policy_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The attached report cache, if any.
    #[must_use]
    pub fn report_cache(&self) -> Option<&Arc<ReportCache>> {
        self.cache.as_ref()
    }

    /// Installs a cache post-build if the session has none (how
    /// [`CompileService`](crate::service::CompileService) shares one
    /// cache across its registered sessions).
    pub(crate) fn install_cache(&mut self, cache: Arc<ReportCache>) {
        self.cache.get_or_insert(cache);
    }

    /// The session's tracer (disabled unless one was attached).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The attached metrics registry, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Makes this session draw its compile contexts from `pool` (how
    /// [`CompileService`](crate::service::CompileService) keeps one
    /// context per worker across its registered sessions).
    pub(crate) fn share_ctx_pool(&mut self, pool: Arc<CtxPool>) {
        self.ctx_pool = pool;
    }

    /// Installs a metrics registry post-build if the session has none
    /// (how [`CompileService`](crate::service::CompileService) shares
    /// one registry across its registered sessions).
    pub(crate) fn install_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        if self.metrics.is_none() {
            self.obs = Some(ObsHandles::resolve(&metrics));
            self.metrics = Some(metrics);
        }
    }

    /// Compile contexts at rest in the session's pool (a service's sessions
    /// share one): what the next units pop instead of building their own.
    #[must_use]
    pub fn pooled_contexts(&self) -> usize {
        self.ctx_pool.lock().expect(POOL_LOCK).len()
    }

    /// The rule set, built on first use for the target's rule profile.
    fn rules(&self) -> &RuleSet {
        self.rules
            .get_or_init(|| RuleSet::for_profile(self.target.rule_profile()))
    }

    /// This call's [`Budget`]: the session deadline anchored at the
    /// current instant (so every saturation run of the call shares it),
    /// the match cap, and an optional per-request [`CancelToken`] — the
    /// hook the compile service's dropped-ticket cancellation rides on.
    /// The engine uses it as given.
    fn request_budget(&self, cancel: Option<CancelToken>) -> Budget {
        Budget {
            deadline: self.deadline.map(|d| Instant::now() + d),
            match_budget: self.match_budget,
            cancel,
        }
    }

    /// Compiles one program through the full pipeline, which owns it and
    /// copies none of it: an engine panic in a compile unit degrades to the
    /// annotated, unoptimized program
    /// ([`CompileOutcome::FallbackUnoptimized`]) rather than propagating.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Lower`] when the front end fails (IR-level
    /// sources — [`Stmt`], [`Program`] — never do) and
    /// [`CompileError::Engine`] for a panic outside any unit.
    pub fn compile<S: IntoProgram + ?Sized>(
        &self,
        source: &S,
    ) -> Result<CompileResult, CompileError> {
        self.compile_lowered(|| source.to_program(), None)
    }

    /// [`Session::compile`] with a per-request [`CancelToken`]: tripping
    /// the token aborts saturation at the next rule-search boundary and
    /// the compile returns its best-so-far result with
    /// [`CompileOutcome::Truncated`] (`reason:
    /// [`TruncationReason::Cancelled`]`). A token tripped before
    /// saturation starts still runs the (cheap) encode and extraction
    /// stages, so the result is always a correct program.
    ///
    /// # Errors
    ///
    /// Exactly as [`Session::compile`].
    pub fn compile_cancellable<S: IntoProgram + ?Sized>(
        &self,
        source: &S,
        cancel: CancelToken,
    ) -> Result<CompileResult, CompileError> {
        self.compile_lowered(|| source.to_program(), Some(cancel))
    }

    /// One source through `lower` and the pipeline (a
    /// [`CompileService`](crate::service::CompileService) worker's `lower`
    /// moves the source it owns).
    pub(crate) fn compile_lowered(
        &self,
        lower: impl FnOnce() -> Result<Program, CompileError>,
        cancel: Option<CancelToken>,
    ) -> Result<CompileResult, CompileError> {
        let _root = self.tracer.span("compile");
        let lower_span = self.tracer.span("lower");
        let program = lower()?;
        let lower = lower_span.finish();
        let mut result = self.compile_program(program, self.request_budget(cancel))?;
        result.report.stages.lower = lower;
        result.report.total_time += lower;
        if let Some(obs) = &self.obs {
            obs.stage_lower.observe_duration(lower);
        }
        Ok(result)
    }

    /// Compiles a whole suite. With [`Batching::Batched`] every leaf of
    /// every program shares one e-graph and one saturation run; with
    /// [`Batching::PerLeaf`] programs are still compiled in one call but
    /// each leaf gets its own graph.
    ///
    /// The suite lowers every source once and moves the lowered programs
    /// into the shared run, which owns them: no copy is kept.
    ///
    /// Faults are isolated per program: a front-end failure or an engine
    /// panic lands in that program's slot of [`SuiteResult::results`]
    /// while the rest of the suite completes. (After a fault in the shared
    /// run, the suite lowers the sources again — lowering is deterministic,
    /// and the time lands in [`StageTimings::lower`] — and recompiles the
    /// surviving programs in isolation, each still batching its own
    /// leaves, under the same call-level budget.)
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::EmptySuite`] on an empty slice; every
    /// other failure is per-program, inside the result.
    pub fn compile_suite<S: IntoProgram>(
        &self,
        sources: &[S],
    ) -> Result<SuiteResult, CompileError> {
        self.compile_suite_with_cancel(sources, None)
    }

    /// [`Session::compile_suite`] with a per-request [`CancelToken`] —
    /// one token covers the whole suite (tripping it truncates every
    /// still-running saturation; see [`Session::compile_cancellable`]).
    /// The programs move into the shared run as there, and a fault
    /// re-lowers the sources for the isolated retry, under the same token.
    ///
    /// # Errors
    ///
    /// Exactly as [`Session::compile_suite`].
    pub fn compile_suite_cancellable<S: IntoProgram>(
        &self,
        sources: &[S],
        cancel: CancelToken,
    ) -> Result<SuiteResult, CompileError> {
        self.compile_suite_with_cancel(sources, Some(cancel))
    }

    /// IR-level suite entry point over copies of the borrowed programs (an
    /// empty suite compiles to an empty result). An engine fault degrades
    /// it as [`Session::compile`]; a panic outside a unit propagates.
    #[must_use]
    pub fn compile_ir_suite(&self, programs: &[(&Stmt, &Placements)]) -> IrSuiteResult {
        let compiled = self.compile_frame(owned(programs), self.request_budget(None), Job::Cached);
        self.record_fault(&compiled);
        compiled
    }
}

/// A copy of each borrowed program, for the frame to own.
fn owned<'a>(programs: &[(&Stmt, &'a Placements)]) -> Vec<(Stmt, &'a Placements)> {
    programs.iter().map(|&(s, p)| (s.clone(), p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_accel::target::{AmxTarget, ScalarTarget};
    use hb_ir::builder as b;
    use hb_ir::types::{MemoryType, ScalarType, Type};

    fn amx_square_stmt() -> Stmt {
        // A store into an AMX buffer whose value is not a recognizable
        // tensor op (a plain elementwise square) — saturates, never lowers.
        let idx = b::ramp(b::int(0), b::int(1), 8);
        let ld = b::load(Type::f32().with_lanes(8), "x", idx.clone());
        b::allocate(
            "acc",
            ScalarType::F32,
            8,
            MemoryType::AmxTile,
            b::store("acc", idx, b::mul(ld.clone(), ld)),
        )
    }

    #[test]
    fn builder_defaults_build() {
        let s = Session::builder().build().unwrap();
        assert_eq!(s.target().name(), "sim");
        assert_eq!(s.batching(), Batching::PerLeaf);
    }

    #[test]
    fn sessions_are_send_and_sync() {
        // The build-once-reuse-everywhere contract includes sharing a
        // session across threads (one rule compilation serving a pool of
        // workers).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        let session = std::sync::Arc::new(Session::default());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = std::sync::Arc::clone(&session);
                std::thread::spawn(move || {
                    s.compile(&amx_square_stmt())
                        .unwrap()
                        .report
                        .num_statements()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }

    /// Builds the paper's Fig. 3 MatMul statements by hand: the vectorized,
    /// simplifier-obscured IR for a 16x32 · 32x16 bf16 MatMul on AMX.
    fn fig3_matmul() -> Stmt {
        // A index (obscured): ramp(x512(0), x512(32), 16) + x256(ramp(0,1,32))
        let idx_a = b::add(
            b::ramp(b::bcast(b::int(0), 512), b::bcast(b::int(32), 512), 16),
            b::bcast(b::ramp(b::int(0), b::int(1), 32), 256),
        );
        let load_a = b::cast(
            Type::f32().with_lanes(8192),
            b::load(Type::bf16().with_lanes(8192), "A", idx_a),
        );
        // B (obscured): x16(cast<f32x512>(B[ramp(ramp(0,16,32), x32(1), 16)]))
        let idx_b = b::ramp(
            b::ramp(b::int(0), b::int(16), 32),
            b::bcast(b::int(1), 32),
            16,
        );
        let load_b = b::bcast(
            b::cast(
                Type::f32().with_lanes(512),
                b::load(Type::bf16().with_lanes(512), "B", idx_b),
            ),
            16,
        );
        let acc_idx = b::ramp(
            b::ramp(b::int(0), b::int(1), 16),
            b::bcast(b::int(16), 16),
            16,
        );
        let acc_load = b::load(Type::f32().with_lanes(256), "matmul", acc_idx.clone());
        let update = b::store(
            "matmul",
            acc_idx.clone(),
            b::add(b::vreduce_add(256, b::mul(load_a, load_b)), acc_load),
        );
        let init = b::store("matmul", acc_idx.clone(), b::bcast(b::flt(0.0), 256));
        let wrapper = b::store(
            "matmul_wrapper",
            acc_idx,
            b::load(
                Type::f32().with_lanes(256),
                "matmul",
                b::ramp(
                    b::ramp(b::int(0), b::int(1), 16),
                    b::bcast(b::int(16), 16),
                    16,
                ),
            ),
        );
        b::allocate(
            "matmul",
            ScalarType::F32,
            256,
            MemoryType::AmxTile,
            b::block(vec![init, update, wrapper]),
        )
    }

    #[test]
    fn fig3_matmul_lowers_to_amx_intrinsics() {
        let stmt = hb_ir::simplify::simplify_stmt(&fig3_matmul());
        let CompileResult {
            program: out,
            report,
        } = Session::default().compile(&stmt).unwrap();
        assert_eq!(report.num_statements(), 3, "init, update, wrapper");
        assert!(
            report.all_lowered(),
            "all three statements must lower:\n{out}"
        );
        let text = out.to_string();
        assert!(text.contains("tile_zero"), "{text}");
        assert!(text.contains("tile_matmul"), "{text}");
        assert!(text.contains("tile_store"), "{text}");
        assert!(
            text.contains("kway_interleave"),
            "standard-layout B needs a VNNI swizzle:\n{text}"
        );
    }

    #[test]
    fn statements_without_accelerator_buffers_untouched() {
        let s = b::store(
            "out",
            b::ramp(b::int(0), b::int(1), 4),
            b::bcast(b::flt(1.0), 4),
        );
        let result = Session::default().compile(&s).unwrap();
        assert_eq!(result.program, s);
        assert_eq!(result.report.num_statements(), 0);
    }

    #[test]
    fn scalar_target_ignores_accelerator_placements() {
        let session = Session::builder()
            .target(ScalarTarget::new())
            .build()
            .unwrap();
        let stmt = amx_square_stmt();
        let result = session.compile(&stmt).unwrap();
        assert_eq!(result.report.num_statements(), 0);
        assert_eq!(result.program.to_string(), stmt.to_string());
    }

    #[test]
    fn amx_target_still_saturates_amx_leaves() {
        let session = Session::builder().target(AmxTarget::new()).build().unwrap();
        let result = session.compile(&amx_square_stmt()).unwrap();
        assert_eq!(result.report.num_statements(), 1);
        assert!(!result.report.all_lowered());
        assert_eq!(result.report.target, "amx");
    }

    #[test]
    fn stage_timings_cover_the_pipeline() {
        let session = Session::builder()
            .batching(Batching::Batched)
            .build()
            .unwrap();
        let result = session.compile(&amx_square_stmt()).unwrap();
        let stages = result.report.stages;
        assert!(stages.encode > Duration::ZERO);
        assert!(stages.saturate > Duration::ZERO);
        assert!(stages.extract > Duration::ZERO);
        assert!(result.report.total_time >= stages.saturate);
    }
}
