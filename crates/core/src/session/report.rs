//! What a compile returns: the error types, the degradation ladder, the
//! unified [`CompileReport`] and the three result shapes.

use std::fmt;
use std::time::Duration;

use hb_egraph::schedule::RunReport;
use hb_ir::stmt::Stmt;

use crate::cache::CacheOutcome;

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

/// Which budget cut saturation short (see [`CompileOutcome::Truncated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The request's [`CancelToken`](hb_egraph::schedule::CancelToken) was
    /// tripped (e.g. a service caller dropped its ticket mid-saturation).
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

    /// The outcome a saturation run's report testifies to.
    pub(super) fn of_run(run: &RunReport) -> CompileOutcome {
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
    /// compile warm-started via
    /// [`Session::compile_ir_suite_warm`](super::Session::compile_ir_suite_warm)
    /// (`None` on cold compiles and rejected warm-starts).
    pub snapshot_restore: Option<Duration>,
    /// Front-end diagnostics carried over from the
    /// [`Program`](super::Program)s.
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
/// [`Session::compile_suite`](super::Session::compile_suite), with
/// per-program fault isolation: one panicking or unlowerable program costs
/// only its own slot.
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
/// ([`Session::compile_ir_suite`](super::Session::compile_ir_suite)):
/// infallible, no isolation wrapping — the shape the benches and the
/// snapshot / warm-start paths consume. It is also what every compile frame
/// returns and what the report cache stores and a hit reproduces.
#[derive(Debug, Clone)]
pub struct IrSuiteResult {
    /// The selected programs, in input order.
    pub programs: Vec<Stmt>,
    /// One report for the whole suite (`stmts` concatenates the programs'
    /// leaves in order).
    pub report: CompileReport,
    /// Each program's leaf count, so the suite entry points can slice the
    /// concatenated statement reports per program.
    pub(crate) leaf_counts: Vec<usize>,
}

impl IrSuiteResult {
    /// The result of a one-program request.
    pub(super) fn into_single(mut self) -> CompileResult {
        CompileResult {
            program: (self.programs.pop()).expect("one program in, one program out"),
            report: self.report,
        }
    }
}
