//! Building a [`Session`]: the setters, their validation, and the batching
//! mode they choose between. Every setter is last-write-wins.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use hb_accel::target::{SimTarget, Target};
use hb_egraph::schedule::Runner;
use hb_obs::{MetricsRegistry, ProfileHandle, ProfileSink, Tracer};

use super::{ObsHandles, Session};
use crate::cache::ReportCache;
use crate::cost::DeviceCost;

/// The session runner's one iteration limit: passes over the rules
/// (§III-D2's fixed number of outer rounds).
const OUTER_ITERS: usize = 8;

/// Session construction errors (builder validation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `target_name` did not resolve to a registered target.
    UnknownTarget(String),
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

/// Builder for [`Session`]: target, batching mode, the
/// saturation budgets (node limit, deadline, match cap),
/// a report cache, and the three observers (tracer, metrics registry,
/// profile sink). Everything else about a compile is fixed — in particular
/// how it extracts (see the module docs). Setting anything twice keeps the
/// later value.
pub struct SessionBuilder {
    target: Option<Box<dyn Target>>,
    unknown_target: Option<String>,
    batching: Batching,
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
    pub(super) fn new() -> Self {
        SessionBuilder {
            target: None,
            unknown_target: None,
            batching: Batching::default(),
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

    /// Sets the batching mode (default: [`Batching::PerLeaf`]). Last write
    /// wins.
    #[must_use]
    pub fn batching(mut self, batching: Batching) -> Self {
        self.batching = batching;
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
    /// [`CompileOutcome::Truncated`](super::CompileOutcome::Truncated) with
    /// [`TruncationReason::Deadline`](super::TruncationReason::Deadline). A
    /// zero duration is a [`BuildError::InvalidDeadline`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap on total rewrite matches applied per saturation run. Hitting
    /// it truncates like the deadline does
    /// ([`TruncationReason::MatchBudget`](super::TruncationReason::MatchBudget)).
    /// Zero is a [`BuildError::InvalidMatchBudget`].
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
    /// [`StageTimings`](super::StageTimings) in each report are populated
    /// from exactly those spans, so the two views can never disagree. A
    /// disabled tracer records nothing but its span guards still measure
    /// durations, so reports stay populated at the same cost as the old
    /// `Instant` pairs.
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
    /// Returns a [`BuildError`] on an unknown target name or a zero
    /// budget.
    pub fn build(self) -> Result<Session, BuildError> {
        if let Some(name) = self.unknown_target {
            return Err(BuildError::UnknownTarget(name));
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
        let batching = self.batching;
        let target = self.target.unwrap_or_else(|| Box::new(SimTarget::new()));
        let cost = DeviceCost::from_profile(target.device());
        let mut runner = Runner::new(
            OUTER_ITERS,
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
            cost,
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
