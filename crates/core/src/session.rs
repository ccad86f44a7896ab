//! The `Session` compilation API: HARDBOILED's end-to-end pipeline driver.
//!
//! A [`Session`] owns everything one compilation context needs — the
//! [`Target`] (device parameters, placement policy, rule profile), the
//! extraction [`CostModel`] (derived from the target's device unless
//! overridden), the batching mode and the saturation budget — and exposes
//! two entry points:
//!
//! * [`Session::compile`] — one program (anything implementing
//!   [`IntoProgram`]: an IR statement tree, a front-end `Pipeline` from
//!   `hb-lang`, or a pre-lowered `Lowered`) through the full lower →
//!   annotate → encode → saturate → extract → splice pipeline;
//! * [`Session::compile_suite`] — a whole suite of programs at once; with
//!   [`Batching::Batched`] every leaf of every program shares **one**
//!   e-graph and one saturation run (the whole-suite scale-out mode).
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
//! The report ([`CompileReport`]) unifies what used to be three separate
//! artifacts — the selector's statement outcomes, the engine's
//! [`RunReport`], and front-end lowering diagnostics — and adds per-stage
//! wall-clock timings ([`StageTimings`]) so regressions can be pinned to
//! the stage that caused them.
//!
//! ## One path through a compile
//!
//! The seven public `compile*` methods differ in what they accept (a
//! front-end source, IR, a suite), in whether they isolate panics, and in
//! what they do besides selecting (export the saturated graph, warm-start
//! from one, honour a [`CancelToken`]) — not in how they compile. Each is a
//! few lines over one private frame, `compile_frame`: consult the report
//! cache (on the borrowed request, before anything is cloned) → annotate →
//! collect leaves → compile unit(s) → splice → record, the caller storing
//! what the frame says is worth storing. A *unit* is the one function that
//! touches an e-graph,
//! `run_unit`: encode its leaves into a context's graph, run the phased
//! schedule, export if asked, solve one [`WorklistExtractor`] cost table,
//! read every root out of it. [`Batching::PerLeaf`] runs it once per leaf,
//! [`Batching::Batched`] once for all leaves of the call, a warm compile
//! once in the restored context; nothing else distinguishes the modes.
//! There is no extraction knob: the session extracts one way (see
//! "Extension points" in the crate docs for the measurements that retired
//! the alternatives).
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hb_accel::target::{SimTarget, Target};
use hb_egraph::extract::{Extract, ExtractScratch, WorklistExtractor};
use hb_egraph::pattern::MatchScratch;
use hb_egraph::schedule::{Budget, CancelToken, RunReport, Runner, WarmStart};
use hb_egraph::unionfind::Id;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_obs::{Counter, Gauge, Histogram, MetricsRegistry, ProfileHandle, ProfileSink, Tracer};

use crate::cache::{request_hash, CacheOutcome, ReportCache, SuiteSnapshot, WarmRejection};
use crate::cost::{CostModel, DeviceCost, ModelCost};
use crate::decode::decode_stmt;
use crate::encode::encode_stmt;
use crate::lang::{HbGraph, HbLang, Symbol};
use crate::movement::{annotate_in_place, collect_placements, Placements};
use crate::postprocess::try_materialize_owned;
use crate::rules::RuleSet;

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

    /// The statement tree and placements of a source that is already
    /// lowered, borrowed — what a report-cache consult hashes and compares
    /// without cloning anything. `None` (the default) for a real front end:
    /// its program exists only once [`IntoProgram::to_program`] has run. A
    /// source that answers `Some` promises that its conversions hand over
    /// exactly this tree and these placements and do no work worth
    /// isolating: a service answers such a source's cache hit on the
    /// submitting thread.
    fn view(&self) -> Option<(&Stmt, &Placements)> {
        None
    }
}

impl IntoProgram for Program {
    fn to_program(&self) -> Result<Program, CompileError> {
        Ok(self.clone())
    }

    fn into_program(self) -> Result<Program, CompileError> {
        Ok(self)
    }

    fn view(&self) -> Option<(&Stmt, &Placements)> {
        Some((&self.stmt, &self.placements))
    }
}

impl IntoProgram for Stmt {
    fn to_program(&self) -> Result<Program, CompileError> {
        Ok(Program::new(self.clone()))
    }

    fn into_program(self) -> Result<Program, CompileError> {
        Ok(Program::new(self))
    }

    fn view(&self) -> Option<(&Stmt, &Placements)> {
        static NO_PLACEMENTS: OnceLock<Placements> = OnceLock::new();
        Some((self, NO_PLACEMENTS.get_or_init(Placements::new)))
    }
}

/// Session construction errors (builder validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `target_name` did not resolve to a registered target.
    UnknownTarget(String),
    /// `batching` was set twice with different modes.
    ConflictingBatching(Batching, Batching),
    /// `node_limit` must be at least 1.
    InvalidNodeLimit,
    /// `deadline` must be a non-zero duration.
    InvalidDeadline,
    /// `match_budget` must be at least 1.
    InvalidMatchBudget,
    /// [`crate::service::CompileServiceBuilder::worker_threads`] must be
    /// at least 1.
    InvalidWorkers,
    /// [`crate::service::CompileServiceBuilder::queue_capacity`] must be
    /// at least 1.
    InvalidQueueCapacity,
    /// The same target name was registered twice on a
    /// [`crate::service::CompileServiceBuilder`].
    DuplicateTarget(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownTarget(name) => write!(
                f,
                "unknown target {name:?} (known: amx, wmma, scalar, sim, a100, rtx4070super)"
            ),
            BuildError::ConflictingBatching(a, b) => {
                write!(f, "conflicting batching modes: {a:?} then {b:?}")
            }
            BuildError::InvalidNodeLimit => write!(f, "node_limit must be at least 1"),
            BuildError::InvalidDeadline => write!(f, "deadline must be a non-zero duration"),
            BuildError::InvalidMatchBudget => write!(f, "match_budget must be at least 1"),
            BuildError::InvalidWorkers => write!(f, "worker_threads must be at least 1"),
            BuildError::InvalidQueueCapacity => write!(f, "queue_capacity must be at least 1"),
            BuildError::DuplicateTarget(name) => {
                write!(f, "target {name:?} registered more than once")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The front end failed to produce IR.
    Lower(String),
    /// `compile_suite` was called with no programs.
    EmptySuite,
    /// The engine panicked and the panic could not be absorbed by the
    /// unoptimized fallback (a second panic inside the isolation unit).
    /// In `compile_suite` the error is confined to the offending program;
    /// the rest of the suite still compiles.
    Engine(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lower(msg) => write!(f, "lowering failed: {msg}"),
            CompileError::EmptySuite => write!(f, "compile_suite needs at least one program"),
            CompileError::Engine(msg) => write!(f, "engine failure: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// How the session distributes saturation work across leaf statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Batching {
    /// One e-graph per leaf statement (the reference mode).
    #[default]
    PerLeaf,
    /// One shared e-graph for every leaf of every program in a compile
    /// call — rule fixed costs and saturation paid once, subterms
    /// deduplicated across leaves and programs. Selected programs are
    /// byte-identical to [`Batching::PerLeaf`].
    Batched,
}

/// Which budget cut saturation short (see [`CompileOutcome::Truncated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The request's [`CancelToken`] was tripped (e.g. a service caller
    /// dropped its ticket mid-saturation).
    Cancelled,
    /// The session deadline passed.
    Deadline,
    /// The e-graph node limit was hit.
    NodeLimit,
    /// The applied-match budget was spent.
    MatchBudget,
}

/// Where on the degradation ladder one compile landed. Every rung returns
/// a correct program — the rungs only trade optimization quality for
/// boundedness: full saturation, then best-so-far extraction from a
/// budget-truncated graph, then the plain lowered program spliced
/// unoptimized. A suite report carries the worst rung any leaf hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileOutcome {
    /// Every saturation run completed its schedule (saturated or spent
    /// its fixed iteration budget) — the reference result.
    #[default]
    Saturated,
    /// A budget stopped saturation early; extraction ran on the valid
    /// best-so-far e-graph.
    Truncated {
        /// Which budget fired (cancellation wins over deadline over node
        /// limit over match budget when several fired).
        reason: TruncationReason,
    },
    /// Saturation, extraction or splicing failed outright (a panicking
    /// rule, an undecodable term, a malformed materialization); the plain
    /// lowered program was spliced unoptimized.
    FallbackUnoptimized,
}

impl CompileOutcome {
    fn rung(self) -> u8 {
        match self {
            CompileOutcome::Saturated => 0,
            CompileOutcome::Truncated { .. } => 1,
            CompileOutcome::FallbackUnoptimized => 2,
        }
    }

    /// The worse of two rungs (ladder aggregation across leaves and
    /// programs).
    #[must_use]
    pub fn worst(self, other: CompileOutcome) -> CompileOutcome {
        if other.rung() > self.rung() {
            other
        } else {
            self
        }
    }

    /// Whether the compile landed below the reference rung.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        self != CompileOutcome::Saturated
    }

    /// The outcome a saturation run's report testifies to.
    fn of_run(run: &RunReport) -> CompileOutcome {
        let reason = if run.cancelled {
            TruncationReason::Cancelled
        } else if run.deadline_hit {
            TruncationReason::Deadline
        } else if run.node_limit_hit {
            TruncationReason::NodeLimit
        } else if run.match_budget_hit {
            TruncationReason::MatchBudget
        } else {
            return CompileOutcome::Saturated;
        };
        CompileOutcome::Truncated { reason }
    }
}

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Front-end lowering (`IntoProgram::to_program`).
    pub lower: Duration,
    /// Movement annotation + e-graph encoding.
    pub encode: Duration,
    /// Equality saturation (the paper's Fig. 6 "egglog" series).
    pub saturate: Duration,
    /// Extraction + decoding + `ExprVar` materialization.
    pub extract: Duration,
    /// Splicing selected statements back into their loop nests.
    pub splice: Duration,
}

/// What the extraction stage did: the settled cost-table size(s), each
/// root's extraction cost, and the wall-clock spent reading roots out (cost
/// lookup + term extraction — the per-root half of the extract stage; the
/// per-graph cost solve and the decode / materialization are excluded).
///
/// In per-leaf mode every leaf solves its own table; the sizes below are
/// summed across leaves.
#[derive(Debug, Clone, Default)]
pub struct ExtractionReport {
    /// Cost-table entries (classes with a constructible term), summed over
    /// every e-graph the compile solved.
    pub table_entries: usize,
    /// Extraction cost of each saturated root, in leaf order (`None` for a
    /// root with no constructible term — cannot happen for encoded
    /// statements, kept honest for custom pipelines).
    pub root_costs: Vec<Option<u64>>,
    /// Total wall-clock across all per-root term readouts (decode and
    /// materialization excluded).
    pub readout_time: Duration,
}

impl ExtractionReport {
    /// Number of roots read out.
    #[must_use]
    pub fn roots(&self) -> usize {
        self.root_costs.len()
    }
}

/// Outcome for one statement that went through equality saturation.
#[derive(Debug, Clone)]
pub struct StmtReport {
    /// Pretty-printed original statement.
    pub original: String,
    /// Whether all data movements were absorbed into intrinsics.
    pub lowered: bool,
    /// Saturation statistics (per-leaf mode; in batched mode the shared
    /// run lives in [`CompileReport::batch`] and this is an empty
    /// default).
    pub eqsat: RunReport,
}

/// The unified compilation report: per-statement selection outcomes, the
/// engine's saturation statistics, front-end diagnostics and per-stage
/// timings, for one `compile` or `compile_suite` call.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Name of the target the session compiled for.
    pub target: String,
    /// Per-statement outcomes (only statements that were saturated).
    pub stmts: Vec<StmtReport>,
    /// The shared-graph saturation report when the batched mode ran (the
    /// per-statement `eqsat` reports are then empty defaults — the work
    /// happened once, here).
    pub batch: Option<RunReport>,
    /// What the extraction stage did (cost-table size, per-root costs,
    /// readout time). `None` when nothing was saturated.
    pub extraction: Option<ExtractionReport>,
    /// Where on the degradation ladder this compile landed (the worst
    /// rung across its leaves; see [`CompileOutcome`]).
    pub outcome: CompileOutcome,
    /// Per-stage wall-clock breakdown.
    pub stages: StageTimings,
    /// End-to-end compile time (lowering included).
    pub total_time: Duration,
    /// How the session's report cache treated this compile
    /// ([`CacheOutcome::Bypass`] when no cache is attached). On a
    /// [`CacheOutcome::Hit`] the rest of the report — timings included —
    /// is the stored report of the compile that populated the entry.
    pub cache: CacheOutcome,
    /// Wall-clock spent restoring the e-graph snapshot, when this
    /// compile warm-started via [`Session::compile_ir_suite_warm`]
    /// (`None` on cold compiles and rejected warm-starts).
    pub snapshot_restore: Option<Duration>,
    /// Front-end diagnostics carried over from the [`Program`]s.
    pub notes: Vec<String>,
}

impl CompileReport {
    /// Whether every saturated statement lowered fully.
    #[must_use]
    pub fn all_lowered(&self) -> bool {
        self.stmts.iter().all(|s| s.lowered)
    }

    /// Number of statements that went through saturation.
    #[must_use]
    pub fn num_statements(&self) -> usize {
        self.stmts.len()
    }
}

/// Result of compiling one program.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The selected program.
    pub program: Stmt,
    /// The unified report.
    pub report: CompileReport,
}

/// Result of compiling a suite of programs through
/// [`Session::compile_suite`], with per-program fault isolation: one
/// panicking or unlowerable program costs only its own slot.
#[derive(Debug)]
pub struct SuiteResult {
    /// Per-program outcomes, in input order: the compiled result (with
    /// its own report and [`CompileOutcome`]) or the error confined to
    /// that program.
    pub results: Vec<Result<CompileResult, CompileError>>,
    /// Aggregate report for the whole suite: `stmts` concatenates the
    /// successful programs' leaves in order, `outcome` is the worst rung
    /// any program hit. Stage timings are suite-level.
    pub report: CompileReport,
}

impl SuiteResult {
    /// The selected programs when every unit succeeded, or the first
    /// per-program error.
    ///
    /// # Errors
    ///
    /// Returns the first failed program's [`CompileError`].
    pub fn programs(&self) -> Result<Vec<&Stmt>, &CompileError> {
        self.results
            .iter()
            .map(|r| r.as_ref().map(|c| &c.program))
            .collect()
    }

    /// Number of programs whose compile failed outright (their slots hold
    /// errors; the programs that succeeded are unaffected).
    #[must_use]
    pub fn errors(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// Result of the raw IR-level suite entry point
/// ([`Session::compile_ir_suite`]): infallible, no isolation wrapping —
/// the shape the benches and the snapshot / warm-start paths consume.
#[derive(Debug, Clone)]
pub struct IrSuiteResult {
    /// The selected programs, in input order.
    pub programs: Vec<Stmt>,
    /// One report for the whole suite (`stmts` concatenates the programs'
    /// leaves in order).
    pub report: CompileReport,
}

/// Outer rounds of the main rules in every session's phased schedule
/// (§III-D2's fixed budget).
const OUTER_ITERS: usize = 8;

/// Builder for [`Session`]: target, cost model, batching mode, the
/// saturation budgets (node limit, deadline, match cap),
/// a report cache, and the three observers (tracer, metrics registry,
/// profile sink). Everything else about a compile is fixed — in particular
/// how it extracts (see the module docs).
pub struct SessionBuilder {
    target: Option<Box<dyn Target>>,
    unknown_target: Option<String>,
    cost: Option<Box<dyn CostModel>>,
    batching: Option<Batching>,
    batching_conflict: Option<(Batching, Batching)>,
    node_limit: Option<usize>,
    deadline: Option<Duration>,
    match_budget: Option<usize>,
    cache: Option<Arc<ReportCache>>,
    tracer: Option<Tracer>,
    metrics: Option<Arc<MetricsRegistry>>,
    profile_sink: Option<Arc<dyn ProfileSink>>,
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<std::sync::Arc<hb_egraph::fault::FaultPlan>>,
}

impl SessionBuilder {
    fn new() -> Self {
        SessionBuilder {
            target: None,
            unknown_target: None,
            cost: None,
            batching: None,
            batching_conflict: None,
            node_limit: None,
            deadline: None,
            match_budget: None,
            cache: None,
            tracer: None,
            metrics: None,
            profile_sink: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }

    /// Sets the compilation target (default: [`SimTarget`], both
    /// accelerator families). Last write wins, clearing any earlier
    /// unresolved [`SessionBuilder::target_name`].
    #[must_use]
    pub fn target(mut self, target: impl Target + 'static) -> Self {
        self.target = Some(Box::new(target));
        self.unknown_target = None;
        self
    }

    /// Sets the target by registry name (`"amx"`, `"wmma"`, `"scalar"`,
    /// `"sim"`, `"a100"`, `"rtx4070super"`). Unknown names surface as
    /// [`BuildError::UnknownTarget`] at [`SessionBuilder::build`] time —
    /// unless a later `target`/`target_name` call resolves (last write
    /// wins).
    #[must_use]
    pub fn target_name(mut self, name: &str) -> Self {
        match hb_accel::target::by_name(name) {
            Some(t) => {
                self.target = Some(t);
                self.unknown_target = None;
            }
            None => self.unknown_target = Some(name.to_string()),
        }
        self
    }

    /// Overrides the extraction cost model (default: [`DeviceCost`]
    /// derived from the target's device profile).
    #[must_use]
    pub fn cost_model(mut self, cost: impl CostModel + 'static) -> Self {
        self.cost = Some(Box::new(cost));
        self
    }

    /// Sets the batching mode (default: [`Batching::PerLeaf`]). Setting
    /// two different modes is a [`BuildError::ConflictingBatching`].
    #[must_use]
    pub fn batching(mut self, batching: Batching) -> Self {
        match self.batching {
            Some(prev) if prev != batching => {
                self.batching_conflict.get_or_insert((prev, batching));
            }
            _ => self.batching = Some(batching),
        }
        self
    }

    /// E-graph node budget per saturation run (default: 200k per-leaf,
    /// 500k batched).
    #[must_use]
    pub fn node_limit(mut self, limit: usize) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Wall-clock deadline for each `compile`/`compile_suite` call. The
    /// deadline is absolute per call — every saturation run of the call
    /// (all per-leaf runs included) shares it — and is enforced between
    /// rule searches, so the e-graph stays valid and extraction proceeds
    /// on the best-so-far graph; the report records
    /// [`CompileOutcome::Truncated`] with
    /// [`TruncationReason::Deadline`]. A zero duration is a
    /// [`BuildError::InvalidDeadline`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap on total rewrite matches applied per saturation run. Hitting
    /// it truncates like the deadline does
    /// ([`TruncationReason::MatchBudget`]). Zero is a
    /// [`BuildError::InvalidMatchBudget`].
    #[must_use]
    pub fn match_budget(mut self, budget: usize) -> Self {
        self.match_budget = Some(budget);
        self
    }

    /// Installs a deterministic fault plan on the session's runner (chaos
    /// testing only; see `hb_egraph::fault`).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn fault_plan(mut self, plan: std::sync::Arc<hb_egraph::fault::FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a report cache (default: none — every compile runs the
    /// pipeline). Pass the same `Arc` to several sessions (or to
    /// [`CompileServiceBuilder::shared_cache`]) to share one bounded
    /// cache across them; keys include each session's policy
    /// fingerprint, so sessions with different targets or budgets never
    /// serve each other's entries.
    ///
    /// [`CompileServiceBuilder::shared_cache`]: crate::service::CompileServiceBuilder::shared_cache
    #[must_use]
    pub fn report_cache(mut self, cache: Arc<ReportCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a [`Tracer`] (default: a disabled tracer). Every compile
    /// opens a root span and one child span per pipeline stage (`lower`,
    /// `annotate`, `encode`, `saturate`, `extract`, `splice`); the
    /// [`StageTimings`] in each report are populated from exactly those
    /// spans, so the two views can never disagree. A disabled tracer
    /// records nothing but its span guards still measure durations, so
    /// reports stay populated at the same cost as the old `Instant`
    /// pairs.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a metrics registry (default: none — zero recording
    /// overhead). The session records the compile-outcome ladder
    /// (`compile.outcome.*`), cache traffic (`cache.*`), per-stage
    /// duration histograms (`stage.*_ns`) and the delta matcher's row
    /// counters (`engine.delta_*_rows`). Pass the same `Arc` to several
    /// sessions (or let [`CompileServiceBuilder::shared_metrics`] do it)
    /// to aggregate across them.
    ///
    /// [`CompileServiceBuilder::shared_metrics`]: crate::service::CompileServiceBuilder::shared_metrics
    #[must_use]
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches an engine profiling sink (default: none — every hook
    /// site in the engine stays a single branch). The sink observes each
    /// rule search (rule name, rows probed, matches, duration) and each
    /// rebuild; see `hb_obs::ProfileSink`.
    #[must_use]
    pub fn profile_sink(mut self, sink: Arc<dyn ProfileSink>) -> Self {
        self.profile_sink = Some(sink);
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] on an unknown target name, conflicting
    /// batching modes, or a zero budget.
    pub fn build(self) -> Result<Session, BuildError> {
        if let Some(name) = self.unknown_target {
            return Err(BuildError::UnknownTarget(name));
        }
        if let Some((a, b)) = self.batching_conflict {
            return Err(BuildError::ConflictingBatching(a, b));
        }
        if self.node_limit == Some(0) {
            return Err(BuildError::InvalidNodeLimit);
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(BuildError::InvalidDeadline);
        }
        if self.match_budget == Some(0) {
            return Err(BuildError::InvalidMatchBudget);
        }
        let batching = self.batching.unwrap_or_default();
        let target = self.target.unwrap_or_else(|| Box::new(SimTarget::new()));
        let cost = self
            .cost
            .unwrap_or_else(|| Box::new(DeviceCost::from_profile(target.device())));
        #[allow(unused_mut)]
        let mut runner = Runner::new(
            16,
            self.node_limit.unwrap_or(match batching {
                Batching::PerLeaf => 200_000,
                Batching::Batched => 500_000,
            }),
        );
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = self.fault_plan {
            runner.fault_plan = Some(plan);
        }
        if let Some(sink) = self.profile_sink {
            runner.profile_sink = Some(ProfileHandle::new(sink));
        }
        let fingerprint = crate::cache::policy_fingerprint(
            target.name(),
            batching,
            self.deadline,
            self.match_budget,
            &runner,
            cost.as_ref(),
        );
        let obs = self.metrics.as_deref().map(ObsHandles::resolve);
        Ok(Session {
            target,
            cost,
            batching,
            deadline: self.deadline,
            match_budget: self.match_budget,
            runner,
            rules: OnceLock::new(),
            ctx_pool: Arc::default(),
            cache: self.cache,
            tracer: self.tracer.unwrap_or_default(),
            metrics: self.metrics,
            obs,
            fingerprint,
        })
    }
}

/// Pre-resolved metric handles so the hot path never takes the
/// registry's name-lookup lock: every counter/histogram the session
/// records is looked up once at `build()` (or `install_metrics`) time
/// and bumped through lock-free handles afterwards.
struct ObsHandles {
    outcome_saturated: Counter,
    outcome_cancelled: Counter,
    outcome_deadline: Counter,
    outcome_node_limit: Counter,
    outcome_match_budget: Counter,
    outcome_fallback: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_bypasses: Counter,
    cache_evictions: Counter,
    delta_probed_rows: Counter,
    delta_skipped_rows: Counter,
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
            outcome_saturated: metrics.counter("compile.outcome.saturated"),
            outcome_cancelled: metrics.counter("compile.outcome.truncated_cancelled"),
            outcome_deadline: metrics.counter("compile.outcome.truncated_deadline"),
            outcome_node_limit: metrics.counter("compile.outcome.truncated_node_limit"),
            outcome_match_budget: metrics.counter("compile.outcome.truncated_match_budget"),
            outcome_fallback: metrics.counter("compile.outcome.fallback"),
            cache_hits: metrics.counter("cache.hits"),
            cache_misses: metrics.counter("cache.misses"),
            cache_bypasses: metrics.counter("cache.bypasses"),
            cache_evictions: metrics.counter("cache.evictions"),
            delta_probed_rows: metrics.counter("engine.delta_probed_rows"),
            delta_skipped_rows: metrics.counter("engine.delta_skipped_rows"),
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
        match outcome {
            CompileOutcome::Saturated => self.outcome_saturated.inc(),
            CompileOutcome::Truncated {
                reason: TruncationReason::Cancelled,
            } => self.outcome_cancelled.inc(),
            CompileOutcome::Truncated {
                reason: TruncationReason::Deadline,
            } => self.outcome_deadline.inc(),
            CompileOutcome::Truncated {
                reason: TruncationReason::NodeLimit,
            } => self.outcome_node_limit.inc(),
            CompileOutcome::Truncated {
                reason: TruncationReason::MatchBudget,
            } => self.outcome_match_budget.inc(),
            CompileOutcome::FallbackUnoptimized => self.outcome_fallback.inc(),
        }
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

/// Total delta-matcher row traffic in a report: the batched run's
/// counters when one shared saturation ran, else the sum over the
/// per-leaf engine reports.
fn delta_rows(report: &CompileReport) -> (u64, u64) {
    if let Some(run) = &report.batch {
        (run.delta_probed_rows as u64, run.delta_skipped_rows as u64)
    } else {
        report.stmts.iter().fold((0, 0), |(p, s), stmt| {
            (
                p + stmt.eqsat.delta_probed_rows as u64,
                s + stmt.eqsat.delta_skipped_rows as u64,
            )
        })
    }
}

/// One compilation context: target, cost model, batching mode, saturation
/// budget, and a lazily built (then cached) rule set.
///
/// Sessions are cheap to create; the expensive rule compilation happens on
/// the first `compile` that actually has accelerator-touching leaves and
/// is reused by every later call on the same session.
pub struct Session {
    target: Box<dyn Target>,
    cost: Box<dyn CostModel>,
    batching: Batching,
    deadline: Option<Duration>,
    match_budget: Option<usize>,
    runner: Runner,
    rules: OnceLock<RuleSet>,
    /// Compile contexts at rest, one per compile unit that ran at once
    /// (see [`Session::run_unit`]). A service's sessions share one pool:
    /// contexts are target-independent, so it holds one per worker, not
    /// one per worker and target.
    ctx_pool: Arc<CtxPool>,
    cache: Option<Arc<ReportCache>>,
    tracer: Tracer,
    metrics: Option<Arc<MetricsRegistry>>,
    obs: Option<ObsHandles>,
    fingerprint: u64,
}

/// Everything one compile unit — one leaf in [`Batching::PerLeaf`] mode,
/// the shared graph of a call in [`Batching::Batched`] mode — builds,
/// matches and extracts in. Kept by the session between units so that a
/// long-lived session (a service worker's, above all) stops allocating its
/// tables: the graph is cleared, the scratches refill in place.
#[derive(Default)]
pub(crate) struct CompileCtx {
    graph: HbGraph,
    /// The unit's leaves as encoded, in leaf order.
    roots: Vec<Id>,
    matcher: MatchScratch,
    extract: ExtractScratch<HbLang>,
}

/// The contexts a session (or a service, for all of its sessions) keeps
/// at rest.
pub(crate) type CtxPool = Mutex<Vec<CompileCtx>>;

/// A context whose unit made more e-class ids than this is dropped, not
/// pooled: the smallest power of two above every graph the benchmark's
/// four workloads build (per-leaf graphs 16–100 ids, suites and large
/// unrolled programs 1 600–2 100), so one pathological program cannot pin
/// megabytes for the life of a service. A pooled context carries the
/// capacity of the largest graph it ever held into every later compile;
/// with 24-byte e-nodes that reads `peak_live_bytes` −8.9 % / −15.0 % /
/// −7.6 % / −2.9 % (`interactive_small` / `unrolled_large` /
/// `suite_batched` / `service_mixed`) against the 48-byte-node tree that
/// pooled nothing above 1 024 ids (dropping the large contexts instead:
/// −8.9 % / −18.3 % / −11.7 % / −2.9 %). See "Compile contexts" in the
/// crate docs.
const MAX_RETAINED_IDS: usize = 1 << 12;

/// Contexts a session keeps at rest. The pool's size follows use — one
/// context per unit that ran at once (a service's workers, callers sharing
/// the session) — up to this.
const MAX_POOLED_CTXS: usize = 8;

const POOL_LOCK: &str = "the context pool lock is held across no panic";

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
    /// batching, budgets, cost-model probe). Cache keys fold
    /// it in, and [`SuiteSnapshot`]s carry the exporting session's value
    /// so warm-starts only run under a compatible policy.
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

    /// Whether compiles may consult the cache at all: fault-injected
    /// sessions always bypass — an injected engine fault would otherwise
    /// poison the cache for every later (clean) compile of the same key.
    fn cache_consultable(&self) -> bool {
        #[cfg(feature = "fault-injection")]
        {
            self.runner.fault_plan.is_none()
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            true
        }
    }

    /// Compile contexts at rest in the session's pool (a service's sessions
    /// share one): what the next units pop instead of building their own.
    #[must_use]
    pub fn pooled_contexts(&self) -> usize {
        self.ctx_pool.lock().expect(POOL_LOCK).len()
    }

    /// A context for one compile unit: one at rest in the pool, or a fresh
    /// one when none is. Units running at once (service workers, callers
    /// sharing the session) each pop their own.
    fn pop_ctx(&self) -> CompileCtx {
        let pooled = self.ctx_pool.lock().expect(POOL_LOCK).pop();
        pooled.unwrap_or_default()
    }

    /// Clears a finished unit's graph and puts its context to rest, unless
    /// it outgrew [`MAX_RETAINED_IDS`]. A unit that panicked never gets
    /// here: the unwind dropped the context it was working in.
    fn rest_ctx(&self, mut ctx: CompileCtx) {
        if ctx.graph.id_bound() <= MAX_RETAINED_IDS {
            ctx.graph.clear();
            let mut pool = self.ctx_pool.lock().expect(POOL_LOCK);
            if pool.len() < MAX_POOLED_CTXS {
                pool.push(ctx);
            }
        }
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

    /// Compiles one program through the full pipeline, panic-isolated:
    /// an engine panic degrades to the unoptimized lowered fallback
    /// ([`CompileOutcome::FallbackUnoptimized`]) rather than propagating,
    /// so `compile` is total for any lowerable input.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Lower`] when the front end fails (IR-level
    /// sources — [`Stmt`], [`Program`] — never do) and
    /// [`CompileError::Engine`] only when the fallback path itself
    /// panics.
    pub fn compile<S: IntoProgram + ?Sized>(
        &self,
        source: &S,
    ) -> Result<CompileResult, CompileError> {
        self.compile_with_cancel(source, None)
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
        self.compile_with_cancel(source, Some(cancel))
    }

    fn compile_with_cancel<S: IntoProgram + ?Sized>(
        &self,
        source: &S,
        cancel: Option<CancelToken>,
    ) -> Result<CompileResult, CompileError> {
        self.compile_lowered(|| source.to_program(), cancel, None)
    }

    /// One source through `lower` and the pipeline. `consulted` is what a
    /// caller that already asked the report cache about this very source
    /// found (the service's front door, through [`IntoProgram::view`]): a
    /// hit is finished here — the stored compile under this source's own
    /// notes and lowering time — and a miss's key rides into the compile, so
    /// nothing is hashed twice.
    pub(crate) fn compile_lowered(
        &self,
        lower: impl FnOnce() -> Result<Program, CompileError>,
        cancel: Option<CancelToken>,
        consulted: Option<Consult>,
    ) -> Result<CompileResult, CompileError> {
        let _root = self.tracer.span("compile");
        let lower_span = self.tracer.span("lower");
        let program = lower()?;
        let lower = lower_span.finish();
        let mut result = match consulted {
            Some(Consult::Hit(hit)) => {
                let mut result = hit.into_single();
                result.report.notes.extend(program.notes);
                result
            }
            unanswered => {
                let key = unanswered.and_then(|consulted| consulted.key());
                self.compile_program(program, self.request_budget(cancel), key)?
            }
        };
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
    /// Faults are isolated per program: a front-end failure or an engine
    /// panic lands in that program's slot of [`SuiteResult::results`]
    /// while the rest of the suite completes. (After a panic in the
    /// shared batched run, the surviving programs are recompiled in
    /// isolation — each still batches its own leaves — under the same
    /// call-level budget.)
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

    /// The body of [`Session::compile_suite`] and
    /// [`Session::compile_suite_cancellable`].
    fn compile_suite_with_cancel<S: IntoProgram>(
        &self,
        sources: &[S],
        cancel: Option<CancelToken>,
    ) -> Result<SuiteResult, CompileError> {
        if sources.is_empty() {
            return Err(CompileError::EmptySuite);
        }
        let budget = self.request_budget(cancel);
        let _root = self.tracer.span("compile_suite");
        let lower_started = Instant::now();
        let lower_span = self.tracer.span("lower");
        let lowered: Vec<Result<Program, CompileError>> =
            sources.iter().map(IntoProgram::to_program).collect();
        let lower = lower_span.finish();
        if let Some(obs) = &self.obs {
            obs.stage_lower.observe_duration(lower);
        }

        // Fast path: every program lowered and the whole-suite compile
        // (one shared e-graph in batched mode) survives.
        if lowered.iter().all(Result::is_ok) {
            let programs: Vec<&Program> = lowered.iter().filter_map(|r| r.as_ref().ok()).collect();
            let refs: Vec<(&Stmt, &Placements)> =
                programs.iter().map(|p| (&p.stmt, &p.placements)).collect();
            let shared = catch_unwind(AssertUnwindSafe(|| {
                self.compile_programs(&refs, budget.clone(), None, None, None)
            }));
            if let Ok(compiled) = shared {
                return Ok(self.split_suite(compiled, &programs, lower));
            }
            // A panic in the shared run falls through to the isolated
            // path; the fault plan counters (chaos tests) and transient
            // faults have moved on, so surviving programs recompile.
        }

        // Isolated path: one unit per program, errors confined to their
        // slot, all programs sharing the call-level budget. The suite
        // report sums what the units report, as `split_suite`'s does.
        let mut report = CompileReport {
            target: self.target.name().to_string(),
            stages: StageTimings {
                lower,
                ..StageTimings::default()
            },
            ..CompileReport::default()
        };
        let mut results = Vec::with_capacity(lowered.len());
        for lowered_program in lowered {
            results.push(lowered_program.and_then(|program| {
                let unit = self.compile_program(program, budget.clone(), None)?;
                report.outcome = report.outcome.worst(unit.report.outcome);
                report.stmts.extend(unit.report.stmts.iter().cloned());
                report.notes.extend(unit.report.notes.iter().cloned());
                report.stages.encode += unit.report.stages.encode;
                report.stages.saturate += unit.report.stages.saturate;
                report.stages.extract += unit.report.stages.extract;
                report.stages.splice += unit.report.stages.splice;
                Ok(unit)
            }));
        }
        report.total_time = lower_started.elapsed();
        Ok(SuiteResult { results, report })
    }

    /// Splits a whole-suite compile into per-program results sharing the
    /// suite-level report (per-program slices of the statement reports;
    /// timings, the batch run and extraction stats stay suite-level).
    fn split_suite(
        &self,
        compiled: CompiledPrograms,
        programs: &[&Program],
        lower: Duration,
    ) -> SuiteResult {
        let CompiledPrograms {
            programs: selected,
            mut report,
            leaf_counts,
        } = compiled;
        report.stages.lower = lower;
        report.total_time += lower;
        for p in programs {
            report.notes.extend(p.notes.iter().cloned());
        }
        let mut next = 0usize;
        let results = selected
            .into_iter()
            .zip(&leaf_counts)
            .zip(programs)
            .map(|((stmt, &count), program)| {
                let unit_report = CompileReport {
                    target: report.target.clone(),
                    stmts: report.stmts[next..next + count].to_vec(),
                    batch: report.batch.clone(),
                    extraction: None,
                    outcome: report.outcome,
                    stages: report.stages,
                    total_time: report.total_time,
                    cache: report.cache,
                    snapshot_restore: report.snapshot_restore,
                    notes: program.notes.clone(),
                };
                next += count;
                Ok(CompileResult {
                    program: stmt,
                    report: unit_report,
                })
            })
            .collect();
        SuiteResult { results, report }
    }

    /// One lowered program through the pipeline with both isolation layers
    /// — an engine panic degrades to the unoptimized fallback; a second
    /// panic (inside annotation or the fallback itself) becomes
    /// [`CompileError::Engine`] — its front-end notes on its report. The
    /// program is the compile's own: a stored compile's cache entry takes
    /// the tree and the placements instead of copying them. `key` as in
    /// [`Session::compile_frame`].
    fn compile_program(
        &self,
        program: Program,
        budget: Budget,
        key: Option<u64>,
    ) -> Result<CompileResult, CompileError> {
        let Program {
            stmt,
            placements,
            notes,
        } = program;
        let mut result = catch_unwind(AssertUnwindSafe(|| {
            let optimized = catch_unwind(AssertUnwindSafe(|| {
                self.compile_frame(&[(&stmt, &placements)], budget, key, None, None)
            }));
            match optimized {
                Ok((compiled, store_under)) => {
                    if let Some(key) = store_under {
                        self.store(key, vec![(stmt, placements)], &compiled);
                    }
                    compiled.into_single()
                }
                Err(payload) => self.fallback_unit(&stmt, &placements, &panic_message(&payload)),
            }
        }))
        .map_err(|payload| CompileError::Engine(panic_message(&payload)))?;
        result.report.notes.extend(notes);
        Ok(result)
    }

    /// The ladder's last rung: splice the plain lowered (annotated)
    /// program unoptimized. Annotation applies no rewrite rules, and
    /// programs with residual data movement execute correctly (the same
    /// path statements that never lower take), so this is total for any
    /// lowerable input.
    fn fallback_unit(&self, stmt: &Stmt, placements: &Placements, cause: &str) -> CompileResult {
        let started = Instant::now();
        let annotated = self.annotate(stmt, placements);
        let mut report = CompileReport {
            target: self.target.name().to_string(),
            outcome: CompileOutcome::FallbackUnoptimized,
            ..CompileReport::default()
        };
        annotated.for_each_stmt(&mut |s| {
            if is_selection_leaf(s) {
                report.stmts.push(StmtReport {
                    original: s.to_string(),
                    lowered: false,
                    eqsat: RunReport::default(),
                });
            }
        });
        report.notes.push(format!(
            "engine fault; spliced the unoptimized program: {cause}"
        ));
        report.total_time = started.elapsed();
        // The panic aborted `compile_programs` before its own recording
        // point, so this is the only place this compile's outcome lands
        // in the registry — exactly once, on the fallback rung.
        if let Some(obs) = &self.obs {
            obs.record_outcome(CompileOutcome::FallbackUnoptimized);
        }
        CompileResult {
            program: annotated,
            report,
        }
    }

    /// IR-level suite entry point (infallible, no isolation wrapping; an
    /// empty suite compiles to an empty result).
    #[must_use]
    pub fn compile_ir_suite(&self, programs: &[(&Stmt, &Placements)]) -> IrSuiteResult {
        let compiled = self.compile_programs(programs, self.request_budget(None), None, None, None);
        compiled.into_ir_suite()
    }

    /// [`Session::compile_ir_suite`] that additionally exports the
    /// saturated suite e-graph as a [`SuiteSnapshot`] for later
    /// warm-starts. The snapshot is `Some` only when the session runs
    /// [`Batching::Batched`] (per-leaf mode has no shared graph to
    /// snapshot) and the run completed its schedule (a budget-truncated
    /// graph would warm-start future compiles unsaturated). Exporting
    /// compiles bypass the report cache — the caller wants the graph,
    /// not a memoized answer.
    #[must_use]
    pub fn compile_ir_suite_exporting(
        &self,
        programs: &[(&Stmt, &Placements)],
    ) -> (IrSuiteResult, Option<SuiteSnapshot>) {
        let mut snapshot = None;
        let budget = self.request_budget(None);
        let compiled = self.compile_programs(programs, budget, None, Some(&mut snapshot), None);
        (compiled.into_ir_suite(), snapshot)
    }

    /// Warm-start suite compile: restores the saturated suite e-graph
    /// from `snapshot`, hash-conses the request's leaves into it (known
    /// leaves dedup into already-saturated classes; new leaves become
    /// the semi-naive delta), runs only the warm phased schedule, and
    /// extracts — selecting programs **byte-identical** to a cold
    /// [`Session::compile_ir_suite`] while searching strictly fewer
    /// relation rows (see `RunReport::delta_probed_rows`).
    ///
    /// Warm-start degrades, it never fails: a corrupted, truncated or
    /// version-mismatched snapshot, or one exported under a different
    /// policy fingerprint, yields a clean cold compile plus the typed
    /// [`WarmRejection`] explaining why. On the warm path the report
    /// carries the restore time in
    /// [`CompileReport::snapshot_restore`]; either path bypasses the
    /// report cache.
    #[must_use]
    pub fn compile_ir_suite_warm(
        &self,
        programs: &[(&Stmt, &Placements)],
        snapshot: &SuiteSnapshot,
    ) -> (IrSuiteResult, Option<WarmRejection>) {
        match self.try_compile_warm(programs, snapshot) {
            Ok(result) => (result, None),
            Err(rejection) => {
                let mut result = self.compile_ir_suite(programs);
                result
                    .report
                    .notes
                    .push(format!("warm-start rejected, compiled cold: {rejection}"));
                (result, Some(rejection))
            }
        }
    }

    /// The warm path's own part: validate the fingerprint, restore the
    /// graph into a context, capture the warm epoch — then the pipeline
    /// every compile takes.
    fn try_compile_warm(
        &self,
        programs: &[(&Stmt, &Placements)],
        snapshot: &SuiteSnapshot,
    ) -> Result<IrSuiteResult, WarmRejection> {
        if snapshot.fingerprint != self.fingerprint {
            return Err(WarmRejection::PolicyMismatch {
                expected: self.fingerprint,
                found: snapshot.fingerprint,
            });
        }
        let _root = self.tracer.span("compile_warm");
        let restore_span = self.tracer.span("restore");
        // A context of its own, around the restored graph: what it would
        // bring to the pool is another graph's capacity, not this one's.
        let mut ctx = CompileCtx {
            graph: HbGraph::restore(&snapshot.engine).map_err(WarmRejection::Snapshot)?,
            ..CompileCtx::default()
        };
        let restore = restore_span.finish();
        // Everything in the restored graph predates the warm epoch: the
        // delta the phased schedule re-searches is exactly what the new
        // leaves add.
        let warm = WarmStart::capture(&mut ctx.graph);
        let budget = self.request_budget(None);
        let compiled = self.compile_programs(programs, budget, None, None, Some((ctx, warm)));
        let mut result = compiled.into_ir_suite();
        result.report.snapshot_restore = Some(restore);
        Ok(result)
    }

    /// Applies the target's placement policy and annotates data movements
    /// (the shared front half of both batching modes).
    fn annotate(&self, stmt: &Stmt, extra_placements: &Placements) -> Stmt {
        let mut placements = collect_placements(stmt);
        for (k, v) in extra_placements {
            placements.insert(k.clone(), *v);
        }
        // Placement policy: placements the target cannot honor are
        // ignored; the affected statements keep their vector code.
        placements.retain(|_, m| self.target.supports(*m));
        let mut annotated = stmt.clone();
        annotate_in_place(&mut annotated, &placements);
        annotated
    }

    /// Asks the report cache about one request, before anything is cloned,
    /// annotated or lowered: the key is the canonical content of the whole
    /// request plus this session's policy fingerprint (`key`, when a caller
    /// computed it already), and a stored entry answers only a request
    /// equal to the one that stored it. A hit is counted here, with the
    /// outcome rung it reproduces; a miss is counted by the compile it
    /// leads to ([`Session::compile_frame`]), so a request consulted twice —
    /// at a service's front door, then by the worker it was queued for —
    /// still counts once. Sessions without a cache and fault-injected ones
    /// (see `cache_consultable`) have nothing to ask.
    pub(crate) fn consult(&self, programs: &[(&Stmt, &Placements)], key: Option<u64>) -> Consult {
        let Some(cache) = self.cache.as_ref().filter(|_| self.cache_consultable()) else {
            return Consult::Bypass;
        };
        let key = key.unwrap_or_else(|| request_hash(programs, self.fingerprint));
        let Some(mut hit) = cache.lookup(key, programs) else {
            return Consult::Miss(key);
        };
        hit.report.cache = CacheOutcome::Hit;
        if let Some(obs) = &self.obs {
            obs.cache_hits.inc();
            // The hit's stage timings describe the compile that populated
            // the entry, not this call — count only the outcome rung
            // (always the reference rung; only saturated compiles are
            // stored).
            obs.record_outcome(hit.report.outcome);
        }
        Consult::Hit(Box::new(hit))
    }

    /// Stores a compile [`Session::compile_frame`] asked to have stored,
    /// under the request that produced it.
    fn store(&self, key: u64, request: Vec<(Stmt, Placements)>, compiled: &CompiledPrograms) {
        let cache = self.cache.as_ref().expect("a key implies a cache");
        if cache.store(key, request, compiled.clone()) {
            if let Some(obs) = &self.obs {
                obs.cache_evictions.inc();
            }
        }
    }

    /// [`Session::compile_frame`] for a request borrowed from the caller:
    /// a stored compile's cache entry takes a copy of it.
    fn compile_programs(
        &self,
        programs: &[(&Stmt, &Placements)],
        budget: Budget,
        key: Option<u64>,
        export: Option<&mut Option<SuiteSnapshot>>,
        warm: Option<(CompileCtx, WarmStart)>,
    ) -> CompiledPrograms {
        let (compiled, store_under) = self.compile_frame(programs, budget, key, export, warm);
        if let Some(key) = store_under {
            let request = programs
                .iter()
                .map(|(stmt, placements)| ((*stmt).clone(), (*placements).clone()))
                .collect();
            self.store(key, request, &compiled);
        }
        compiled
    }

    /// The one path every entry point takes: cache consult → annotate →
    /// collect leaves → compile unit(s) → splice → record, all under one
    /// call-level [`Budget`]. `key` is the request's cache key when the
    /// caller's own consult computed it and missed: the frame looks again
    /// under it (a service worker may have stored the entry since).
    /// Returns the compile and, when it is worth memoizing, the key to
    /// store it under — the store is the caller's, which knows whether the
    /// request is its own to give away.
    ///
    /// A unit is one leaf in [`Batching::PerLeaf`] mode — its engine
    /// report lands in its [`StmtReport::eqsat`] — and every leaf of the
    /// call otherwise, the shared run landing in [`CompileReport::batch`].
    /// With `export`, a batched run that completed its schedule fills the
    /// slot with the saturated graph; with `warm`, the one unit runs in
    /// the restored context, warm-started. Either bypasses the report
    /// cache: the caller wants the graph, not a memoized answer.
    fn compile_frame(
        &self,
        programs: &[(&Stmt, &Placements)],
        budget: Budget,
        key: Option<u64>,
        export: Option<&mut Option<SuiteSnapshot>>,
        mut warm: Option<(CompileCtx, WarmStart)>,
    ) -> (CompiledPrograms, Option<u64>) {
        let total_started = Instant::now();
        let consulted = if export.is_none() && warm.is_none() {
            self.consult(programs, key)
        } else {
            Consult::Bypass
        };
        let key = match consulted {
            Consult::Hit(hit) => return (*hit, None),
            unanswered => unanswered.key(),
        };
        let mut report = CompileReport {
            target: self.target.name().to_string(),
            ..CompileReport::default()
        };

        let mut annotate_span = self.tracer.span("annotate");
        let mut annotated: Vec<Stmt> = programs
            .iter()
            .map(|(stmt, extra)| self.annotate(stmt, extra))
            .collect();
        let (leaves, leaf_counts) = collect_suite_leaves(&annotated);
        annotate_span.attr("leaves", leaves.len());
        report.stages.encode = annotate_span.finish();

        // A leaf-free request has nothing to memoize and is never stored,
        // so its consult could only miss: it counts as the bypass it is.
        let key = key.filter(|_| !leaves.is_empty());
        if let Some(cache) = &self.cache {
            if key.is_some() {
                report.cache = CacheOutcome::Miss;
                cache.note_miss();
                if let Some(obs) = &self.obs {
                    obs.cache_misses.inc();
                }
            } else {
                cache.note_bypass();
                if let Some(obs) = &self.obs {
                    obs.cache_bypasses.inc();
                }
            }
        }
        if leaves.is_empty() {
            // Leaf-free programs never touch the rule set (nor build it).
            report.total_time = total_started.elapsed();
            if let Some(obs) = &self.obs {
                obs.record_outcome(report.outcome);
            }
            let compiled = CompiledPrograms {
                programs: annotated,
                report,
                leaf_counts,
            };
            return (compiled, None);
        }

        // A restored graph is a shared graph, whatever the session's mode.
        let per_leaf = self.batching == Batching::PerLeaf && warm.is_none();
        let mut export = export.filter(|_| !per_leaf);
        let mut selected = Vec::with_capacity(leaves.len());
        for unit in leaves.chunks(if per_leaf { 1 } else { leaves.len() }) {
            let run = self.run_unit(
                unit,
                budget.clone(),
                warm.take(),
                export.as_deref_mut(),
                &mut report,
                &mut selected,
            );
            if per_leaf {
                let leaf = report.stmts.last_mut();
                leaf.expect("a unit reports every leaf it was given").eqsat = run;
            } else {
                report.batch = Some(run);
            }
        }

        let splice_span = self.tracer.span("splice");
        splice_selected(&mut annotated, selected);
        report.stages.splice = splice_span.finish();
        report.total_time = total_started.elapsed();
        if let Some(obs) = &self.obs {
            obs.record_report(&report);
        }
        // Only the reference rung is worth memoizing: a truncated or
        // degraded result must not shadow a later clean compile of the
        // same request (budgets are in the key, but deadlines race).
        let store_under = key.filter(|_| report.outcome == CompileOutcome::Saturated);
        let compiled = CompiledPrograms {
            programs: annotated,
            report,
            leaf_counts,
        };
        (compiled, store_under)
    }

    /// One compile unit: encode `leaves` into one e-graph — the restored
    /// one's, warm; a pooled context's otherwise — saturate it under the
    /// phased schedule, export it if asked, solve its cost table once and
    /// read every root out of it. Hash-consing dedups what the leaves
    /// share, and equal-cost ties break by content, so a leaf selects the
    /// same statement whichever leaves share its graph. Stage timings, the
    /// outcome rung, one [`StmtReport`] per leaf and the extraction
    /// figures accumulate into `report`, the selected statements onto
    /// `selected`; the engine's report is returned for the caller to
    /// place.
    ///
    /// The context is this function's until it rests it: a panic anywhere
    /// below unwinds past that and drops it, so a half-rewritten graph is
    /// never cleared and reused.
    fn run_unit(
        &self,
        leaves: &[&Stmt],
        budget: Budget,
        warm: Option<(CompileCtx, WarmStart)>,
        export: Option<&mut Option<SuiteSnapshot>>,
        report: &mut CompileReport,
        selected: &mut Vec<Stmt>,
    ) -> RunReport {
        let (mut ctx, warm) = match warm {
            Some((ctx, warm)) => (ctx, Some(warm)),
            None => (self.pop_ctx(), None),
        };
        let rules = self.rules();

        let encode_span = self.tracer.span("encode");
        let eg = &mut ctx.graph;
        crate::rules::app_specific::declare_relations(eg);
        ctx.roots.clear();
        ctx.roots.extend(leaves.iter().map(|s| encode_stmt(eg, s)));
        // Encoding only adds, so this finds nothing to do on a fresh graph;
        // on a restored one it bounds the modification logs the new
        // leaves just extended.
        eg.rebuild();
        report.stages.encode += encode_span.finish();

        let mut saturate_span = self.tracer.span("saturate");
        let run = self.runner.run_phased_in(
            eg,
            &rules.main,
            &rules.support,
            OUTER_ITERS,
            budget,
            warm,
            &mut ctx.matcher,
        );
        saturate_span.attr("iterations", run.iterations);
        saturate_span.attr("applied", run.applied);
        report.stages.saturate += saturate_span.finish();
        let outcome = CompileOutcome::of_run(&run);
        report.outcome = report.outcome.worst(outcome);

        // Layer-2 export: only a run that completed its schedule is worth
        // snapshotting — a budget-truncated graph would warm-start future
        // compiles from an unsaturated state and could select different
        // programs than their cold compile would.
        if let Some(slot) = export {
            if outcome == CompileOutcome::Saturated {
                *slot = Some(SuiteSnapshot {
                    engine: eg.snapshot(),
                    fingerprint: self.fingerprint,
                });
            }
        }

        let mut extract_span = self.tracer.span("extract");
        extract_span.attr("roots", ctx.roots.len());
        let cost = ModelCost(self.cost.as_ref());
        let tables = std::mem::take(&mut ctx.extract);
        let extractor = WorklistExtractor::with_scratch(&ctx.graph, cost, tables);
        let extraction = report.extraction.get_or_insert_with(Default::default);
        for (&root, &original) in ctx.roots.iter().zip(leaves) {
            let readout_started = Instant::now();
            let cost = extractor.cost_of(root);
            // A root with no constructible term (possible only for custom
            // pipelines encoding cyclic-only classes) keeps its original
            // form — extract() would panic on it.
            let term = cost.is_some().then(|| extractor.extract(root));
            extraction.readout_time += readout_started.elapsed();
            extraction.root_costs.push(cost);
            // Undecodable terms and malformed materializations keep the
            // original (annotated, unoptimized) statement too, and demote
            // the compile. The original has no `__expr_var` markers, so
            // materializing it would be an identity.
            let materialized = (term.and_then(|t| decode_stmt(&t).ok()))
                .and_then(|decoded| try_materialize_owned(decoded).ok());
            if materialized.is_none() {
                report.outcome = report.outcome.worst(CompileOutcome::FallbackUnoptimized);
            }
            let stmt = materialized.unwrap_or_else(|| original.clone());
            report.stmts.push(StmtReport {
                original: original.to_string(),
                lowered: !stmt_has_movement(&stmt),
                eqsat: RunReport::default(),
            });
            selected.push(stmt);
        }
        extraction.table_entries += extractor.stats().table_entries;
        ctx.extract = extractor.into_scratch();
        report.stages.extract += extract_span.finish();
        self.rest_ctx(ctx);
        run
    }
}

/// What [`Session::consult`] found in the report cache for one request.
pub(crate) enum Consult {
    /// The stored compile of an equal request, its report marked
    /// [`CacheOutcome::Hit`].
    Hit(Box<CompiledPrograms>),
    /// Nothing stored for this request; its key, so that whoever compiles
    /// it need not hash it again.
    Miss(u64),
    /// Nothing to ask: no cache attached, or a fault-injected session.
    Bypass,
}

impl Consult {
    /// The key a miss found nothing under.
    fn key(&self) -> Option<u64> {
        match self {
            Consult::Miss(key) => Some(*key),
            Consult::Hit(_) | Consult::Bypass => None,
        }
    }
}

/// The result of one [`Session::compile_frame`] run — also what the
/// report cache stores and a hit reproduces: selected programs, the unified
/// report, and each program's leaf count (so suite entry points can slice
/// the concatenated statement reports).
#[derive(Debug, Clone)]
pub(crate) struct CompiledPrograms {
    pub(crate) programs: Vec<Stmt>,
    pub(crate) report: CompileReport,
    pub(crate) leaf_counts: Vec<usize>,
}

impl CompiledPrograms {
    /// The result of a one-program request.
    fn into_single(mut self) -> CompileResult {
        CompileResult {
            program: (self.programs.pop()).expect("one program in, one program out"),
            report: self.report,
        }
    }

    /// The result of a suite request through the raw IR entry points.
    fn into_ir_suite(self) -> IrSuiteResult {
        IrSuiteResult {
            programs: self.programs,
            report: self.report,
        }
    }
}

/// Pass 1 of the pipeline: each annotated program's selection leaves, in
/// traversal order and borrowed from the trees, plus per-program counts.
/// `for_each_stmt` visits leaf statements in the same left-to-right order
/// as the bottom-up rewrite used for splicing (leaves have no statement
/// children).
fn collect_suite_leaves(annotated: &[Stmt]) -> (Vec<&Stmt>, Vec<usize>) {
    let mut leaves: Vec<&Stmt> = Vec::new();
    let mut leaf_counts: Vec<usize> = Vec::with_capacity(annotated.len());
    for tree in annotated {
        let before = leaves.len();
        tree.for_each_stmt(&mut |s| {
            if is_selection_leaf(s) {
                leaves.push(s);
            }
        });
        leaf_counts.push(leaves.len() - before);
    }
    (leaves, leaf_counts)
}

/// Pass 2 of the pipeline: move each selected statement over its leaf, in
/// the same traversal order pass 1 collected them.
fn splice_selected(annotated: &mut [Stmt], selected: Vec<Stmt>) {
    let mut selected = selected.into_iter();
    for tree in annotated {
        tree.rewrite_stmts_in_place(&mut |s| {
            if !is_selection_leaf(s) {
                return false;
            }
            *s = selected.next().expect("one selected statement per leaf");
            true
        });
    }
    debug_assert!(selected.next().is_none(), "leaf traversal order diverged");
}

/// Renders a caught panic payload (`&str` and `String` payloads pass
/// through; anything else is summarized).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn expr_has_movement(e: &Expr) -> bool {
    let mut found = false;
    e.for_each(&mut |n| {
        if matches!(n, Expr::LocToLoc { .. }) {
            found = true;
        }
    });
    found
}

pub(crate) fn stmt_has_movement(s: &Stmt) -> bool {
    let mut found = false;
    s.for_each_expr(&mut |e| {
        if matches!(e, Expr::LocToLoc { .. }) {
            found = true;
        }
    });
    found
}

/// Whether the (annotated) statement is a leaf the selector must saturate:
/// a `Store`/`Evaluate` containing data movement.
pub(crate) fn is_selection_leaf(s: &Stmt) -> bool {
    match s {
        Stmt::Store { index, value, .. } => expr_has_movement(index) || expr_has_movement(value),
        Stmt::Evaluate(e) => expr_has_movement(e),
        _ => false,
    }
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
