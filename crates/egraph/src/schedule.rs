//! Rule scheduling: the paper's §III-D2 strategy, in one loop.
//!
//! The paper runs a fixed number of iterations of the axiomatic,
//! application-specific and lowering rules, and the *supporting* rules
//! (type computation) to a fixpoint between them. This runner departs
//! from that *structure* but not from its result: a session's one rule
//! list ends with the supporting rule, and [`Runner::run_in`] passes over
//! the list until a pass changes nothing, so the types a pass's main rules
//! leave symbolic are concrete before the next pass searches. Over 4 320
//! compiles (three benchmark-population seeds and the unrolled Fig. 6
//! kernels; sim, amx, wmma and scalar targets; per-leaf and batched) every
//! selected program, node count, applied match, iteration and full search
//! was identical to the two-phase schedule's; only delta searches and
//! probed rows went down.
//!
//! The runner drives the engine's **delta search**: for every rule it
//! remembers one number, the epoch at which it last searched, and
//! re-probes only the classes and relation tuples stamped since — the
//! graph and its relations share one clock — with a single root
//! probe for delta-eligible rules, semi-naive join rounds for rules with
//! relation atoms or fresh-variable pattern atoms (see
//! [`crate::rewrite::CompiledQuery::search`]) — so once the graph
//! saturates, re-running the rules costs almost nothing. Probes are
//! **keyed by each atom's root operator**: a rule rooted at `Mul`
//! re-probes only classes whose `Mul` rows changed since it last ran, not
//! every modified class that happens to contain a `Mul` node
//! ([`RunReport::delta_probed_rows`] /
//! [`RunReport::delta_skipped_rows`] count what the probes visited and
//! what they left alone). Because every rule is pure by contract (see
//! [`Rewrite::rule`]), a rule is searched in full only on its first run,
//! and skipped outright while nothing in the graph or the relation store
//! changed since that epoch.
//! One [`MatchScratch`] per saturation run — the caller's, through
//! [`Runner::run_in`], when it has one to reuse across runs — is
//! threaded through every search, so the compiled matcher's binding
//! buffer, register file and match buffer live across candidates, rules
//! and passes. Setting [`Runner::use_naive_matcher`]
//! bypasses all of this and runs every rule through the retained naive
//! reference matcher ([`Rewrite::run_naive`]) — the path every matcher
//! oracle compares against.
//!
//! Deadline, match cap and cancel token reach a run only through the
//! [`Budget`] its caller passes, used as given.
//!
//! **Profiling:** [`Runner::profile_sink`] opts a run into per-rule
//! observability — each searched rule reports an
//! [`hb_obs::RuleSearchSample`] (name, probed rows, matches found,
//! matches that changed the graph, duration) and each congruence rebuild —
//! the one a rule's unions force before the next rule may search, and the
//! one that ends the pass — reports its duration separately, so a rule's
//! sample never carries the previous rule's rebuild. With no
//! sink installed (the default) every hook site is a single branch: no
//! clock reads, no probe-counter drains, nothing the saturation loop can
//! feel.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hb_obs::{ProfileHandle, RuleSearchSample};

use crate::egraph::{Analysis, EGraph};
use crate::language::Language;
use crate::pattern::MatchScratch;
use crate::rewrite::Rewrite;

/// Statistics from a saturation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Passes over the rules executed.
    pub iterations: usize,
    /// Total matches that changed the graph.
    pub applied: usize,
    /// E-nodes after the run.
    pub nodes: usize,
    /// E-classes after the run.
    pub classes: usize,
    /// Whether the run stopped because nothing changed.
    pub saturated: bool,
    /// Whether the run stopped because the node limit was hit.
    pub node_limit_hit: bool,
    /// Whether the run stopped because the wall-clock deadline passed.
    pub deadline_hit: bool,
    /// Whether the run stopped because the match budget was spent.
    pub match_budget_hit: bool,
    /// Whether the run stopped because its [`CancelToken`] was tripped.
    pub cancelled: bool,
    /// Rule searches that ran as delta probes (single-root or semi-naive).
    pub delta_searches: usize,
    /// Rule searches that ran in full (first runs).
    pub full_searches: usize,
    /// Rule searches skipped entirely by the quiescence check.
    pub skipped_searches: usize,
    /// Candidate op rows (classes) delta probes actually visited: a probe
    /// enumerates only classes whose `(class, root_op)` rows changed since
    /// the rule last ran.
    pub delta_probed_rows: usize,
    /// Candidate op rows delta probes skipped: the probed operators'
    /// remaining index-row entries, which were quiet since the rule last
    /// ran. `probed + skipped` is the work a non-delta indexed search
    /// would have done, so `skipped / (probed + skipped)` is the delta
    /// machinery's coverage.
    pub delta_skipped_rows: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl RunReport {
    /// Whether the run was cut short by any budget (node limit, deadline
    /// or match budget) rather than saturating or exhausting its
    /// iteration cap. The e-graph is still valid — truncation stops
    /// between rule searches, after the pass's rebuild — so extraction on
    /// the best-so-far graph is always sound.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.node_limit_hit || self.deadline_hit || self.match_budget_hit || self.cancelled
    }
}

/// A shared, thread-safe cancellation flag. Cloning hands out another
/// handle to the same flag; any holder may call [`CancelToken::cancel`]
/// (idempotent) and every saturation run carrying the token in its
/// [`Budget`] stops at the next rule-search boundary — the same safe
/// stopping points the deadline uses, so the e-graph is always left
/// rebuilt and valid and extraction proceeds on the best-so-far graph.
/// The first `cancel` call's timestamp is recorded so observers can
/// measure cancellation latency (request → worker freed).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    at: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A fresh, un-tripped token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; the first call's timestamp is
    /// kept. The timestamp is published before the flag flips, so a run
    /// that observes [`CancelToken::is_cancelled`] can always read a
    /// `Some` from [`CancelToken::cancelled_at`].
    pub fn cancel(&self) {
        {
            let mut at = self.inner.at.lock().unwrap();
            if at.is_none() {
                *at = Some(Instant::now());
            }
        }
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested. A single atomic load —
    /// cheap enough to poll on every rule-search tick.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// When cancellation was first requested, if it has been.
    #[must_use]
    pub fn cancelled_at(&self) -> Option<Instant> {
        *self.inner.at.lock().unwrap()
    }
}

/// Saturation budgets beyond the iteration/node caps: an absolute
/// wall-clock deadline, a cap on total applied matches, and an optional
/// cooperative [`CancelToken`]. Hitting any of them stops the run between
/// rule searches — after the pass's rebuild — so the e-graph is always
/// left valid and extraction proceeds on the best-so-far graph.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Absolute deadline. An `Instant` rather than a `Duration` so one
    /// budget can span several runs (e.g. every per-leaf run of one
    /// compile call shares the same deadline).
    pub deadline: Option<Instant>,
    /// Maximum total matches applied across the run.
    pub match_budget: Option<usize>,
    /// Cooperative cancellation: polled (one atomic load) at every
    /// rule-search boundary, so an external holder — e.g. a service
    /// caller dropping its ticket — aborts the run mid-saturation.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unbounded budget.
    #[must_use]
    pub fn none() -> Self {
        Budget::default()
    }
}

/// Budget ticks (rule searches) between real clock reads. `Instant::now`
/// costs tens of nanoseconds while one rule search costs microseconds, so
/// a short stride keeps the deadline check unmeasurable while bounding
/// overshoot to a fraction of one scheduler iteration (each iteration
/// additionally forces an unamortized check).
const DEADLINE_STRIDE: u32 = 16;

/// Amortized budget enforcement for one saturation run: counts applied
/// matches exactly, reads the real clock every [`DEADLINE_STRIDE`] ticks.
#[derive(Debug)]
struct BudgetClock {
    budget: Budget,
    ticks: u32,
    applied: usize,
    deadline_hit: bool,
    match_budget_hit: bool,
    cancelled: bool,
}

impl BudgetClock {
    fn new(budget: Budget) -> Self {
        BudgetClock {
            budget,
            ticks: 0,
            applied: 0,
            deadline_hit: false,
            match_budget_hit: false,
            cancelled: false,
        }
    }

    /// Accounts the matches one rule applied; trips the match budget.
    fn note_applied(&mut self, n: usize) {
        self.applied += n;
        if let Some(cap) = self.budget.match_budget {
            if self.applied >= cap {
                self.match_budget_hit = true;
            }
        }
    }

    /// Amortized pre-search check; returns whether the run must stop.
    /// The cancel token is polled on *every* tick — one atomic load is
    /// cheaper than a clock read, and responsiveness is the whole point
    /// of cancellation — while the deadline keeps its amortized stride.
    fn tick(&mut self) -> bool {
        self.poll_cancel();
        if self.exhausted() {
            return true;
        }
        if self.budget.deadline.is_some() {
            self.ticks += 1;
            if self.ticks >= DEADLINE_STRIDE {
                self.ticks = 0;
                self.check_now();
            }
        }
        self.exhausted()
    }

    /// Unamortized deadline + cancellation check (free when neither is
    /// set); run once per scheduler iteration to bound overshoot.
    fn check_now(&mut self) {
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                self.deadline_hit = true;
            }
        }
        self.poll_cancel();
    }

    fn poll_cancel(&mut self) {
        if !self.cancelled {
            if let Some(token) = &self.budget.cancel {
                self.cancelled = token.is_cancelled();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.deadline_hit || self.match_budget_hit || self.cancelled
    }

    fn stamp(&self, report: &mut RunReport) {
        report.deadline_hit |= self.deadline_hit;
        report.match_budget_hit |= self.match_budget_hit;
        report.cancelled |= self.cancelled;
    }
}

/// Per-rule delta-search bookkeeping: the epoch recorded right before the
/// rule's last search, `None` until it first searches. Classes modified
/// and tuples stamped at or after it must be re-probed.
type RuleState = Option<u64>;

/// Limits and driver for saturation.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Maximum passes over the rules in one run.
    pub max_iterations: usize,
    /// Stop when the graph exceeds this many e-nodes.
    pub node_limit: usize,
    /// Search with the retained naive reference matcher instead of the
    /// indexed/delta path (the reference for cross-checking; the match
    /// sets are identical, only the time spent differs).
    pub use_naive_matcher: bool,
    /// Opt-in profiling callbacks at rule-search boundaries (see the
    /// module docs). `None` (the default) keeps every hook site down to
    /// one branch. Excluded from cache policy fingerprints: a sink
    /// observes a run but never changes it.
    pub profile_sink: Option<ProfileHandle>,
    /// Deterministic fault plan for chaos testing (see [`crate::fault`]);
    /// shared so one plan's one-shot counters span every run it observes.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<std::sync::Arc<crate::fault::FaultPlan>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            max_iterations: 32,
            node_limit: 500_000,
            use_naive_matcher: false,
            profile_sink: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
        }
    }
}

impl Runner {
    /// A runner with custom limits.
    #[must_use]
    pub fn new(max_iterations: usize, node_limit: usize) -> Self {
        Runner {
            max_iterations,
            node_limit,
            ..Runner::default()
        }
    }

    /// Flips the runner onto the naive reference matcher.
    #[must_use]
    pub fn with_naive_matcher(mut self, naive: bool) -> Self {
        self.use_naive_matcher = naive;
        self
    }

    /// Installs a profiling sink (see [`Runner::profile_sink`]).
    #[must_use]
    pub fn with_profile_sink(mut self, sink: Arc<dyn hb_obs::ProfileSink>) -> Self {
        self.profile_sink = Some(ProfileHandle::new(sink));
        self
    }

    /// One pass over `rules` with delta bookkeeping, then a rebuild.
    /// Returns the matches applied; search-mode counters accumulate into
    /// `report`.
    fn run_iter<L: Language, N: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, N>,
        rules: &[Rewrite<L, N>],
        states: &mut [RuleState],
        scratch: &mut MatchScratch,
        clock: &mut BudgetClock,
        report: &mut RunReport,
    ) -> usize {
        debug_assert_eq!(rules.len(), states.len());
        let mut applied = 0;
        for (rule, state) in rules.iter().zip(states.iter_mut()) {
            // Budget check between rule searches: breaking here (instead
            // of returning) still drains the probe counters and rebuilds
            // below, so a truncated pass leaves the graph valid.
            if clock.tick() {
                break;
            }
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &self.fault_plan {
                plan.on_search(&rule.name);
            }
            // A rebuild the previous rule's unions left pending is its own
            // profile event, not part of this rule's search.
            if !egraph.is_clean() {
                self.rebuild_profiled(egraph);
            }
            // The profile hook's "absence is free" contract: no clock
            // reads and no per-rule counter drains unless a sink is
            // installed.
            let search_started = self.profile_sink.as_ref().map(|_| Instant::now());
            if self.use_naive_matcher {
                let (found, n) = rule.run_naive(egraph);
                applied += n;
                clock.note_applied(n);
                if let (Some(sink), Some(started)) = (&self.profile_sink, search_started) {
                    sink.on_rule_search(&RuleSearchSample {
                        rule: &rule.name,
                        probed_rows: 0,
                        found,
                        matches: n,
                        duration: started.elapsed(),
                    });
                }
                continue;
            }
            let since = *state;
            // Quiescence skip: a rule sees only its matched classes and
            // relation atoms; if neither classes nor relations changed
            // since it last ran, it would find the same matches and its
            // (idempotent) application would change nothing — skip it.
            if since.is_some_and(|cutoff| !egraph.changed_since(cutoff)) {
                report.skipped_searches += 1;
                continue;
            }
            // Delta search is sound for every query shape (single-root
            // probe or semi-naive rounds), so only a first run is full.
            if since.is_some() {
                report.delta_searches += 1;
            } else {
                report.full_searches += 1;
            }
            // Record the next cutoff *before* applying so this rule's own
            // unions and tuple inserts are re-probed on its next run.
            *state = Some(egraph.bump_epoch());
            let n = rule.run(egraph, since, scratch);
            applied += n;
            clock.note_applied(n);
            if let (Some(sink), Some(started)) = (&self.profile_sink, search_started) {
                // Draining the scratch's probe counters per rule (instead
                // of once per pass below) attributes rows to the rule that
                // probed them; the report totals are identical either way.
                let (probed, skipped) = scratch.take_probe_counters();
                report.delta_probed_rows += probed;
                report.delta_skipped_rows += skipped;
                sink.on_rule_search(&RuleSearchSample {
                    rule: &rule.name,
                    probed_rows: probed,
                    found: scratch.matches.len(),
                    matches: n,
                    duration: started.elapsed(),
                });
            }
        }
        let (probed, skipped) = scratch.take_probe_counters();
        report.delta_probed_rows += probed;
        report.delta_skipped_rows += skipped;
        self.rebuild_profiled(egraph);
        applied
    }

    /// Rebuilds the graph, reporting the rebuild's duration to the profile
    /// sink when one is installed (and reading no clock otherwise).
    fn rebuild_profiled<L: Language, N: Analysis<L>>(&self, egraph: &mut EGraph<L, N>) {
        let started = self.profile_sink.as_ref().map(|_| Instant::now());
        egraph.rebuild();
        if let (Some(sink), Some(started)) = (&self.profile_sink, started) {
            sink.on_rebuild(started.elapsed());
        }
    }

    /// Runs the rules to saturation, or until the iteration or node limit
    /// or the absolute `budget` ([`Budget::none`] for none) stops it:
    /// [`Runner::run_in`], cold, in a matcher scratch of its own.
    pub fn run_to_fixpoint<L: Language, N: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, N>,
        rules: &[Rewrite<L, N>],
        budget: Budget,
    ) -> RunReport {
        self.run_in(egraph, rules, budget, None, &mut MatchScratch::new())
    }

    /// The saturation loop: passes over `rules`, in order, until a pass
    /// applies nothing, or [`Runner::max_iterations`] passes, the node
    /// limit or `budget` stops it. Delta state persists across passes.
    /// The caller's `scratch` serves every search; a caller that saturates
    /// graph after graph keeps one for all of its runs (every search
    /// resets what it reads).
    ///
    /// `budget` is absolute and used as given, checked between rule
    /// searches (amortized) and once per pass, so overshoot is bounded by
    /// one pass. Truncation leaves the graph rebuilt and valid; the
    /// report's `deadline_hit` / `match_budget_hit` / `cancelled` say
    /// which budget fired.
    ///
    /// With `warm: Some(epoch)` — an [`EGraph::bump_epoch`] taken on a
    /// restored, saturated snapshot **before** anything new was encoded
    /// into it — every rule starts as if it had last searched at `epoch`,
    /// so the first pass probes only classes and relation tuples changed
    /// since (the leaves encoded after the restore) instead of
    /// re-searching the whole graph. Byte-identity with the cold run rests
    /// on the same invariants as every other delta path — semi-naive
    /// completeness plus content-based extraction tie-breaks — and holds
    /// only when the snapshot came from a **saturated** run of the **same
    /// rules**: warm rules never re-search the quiet region, so a match
    /// missing there would stay missing.
    pub fn run_in<L: Language, N: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, N>,
        rules: &[Rewrite<L, N>],
        budget: Budget,
        warm: Option<u64>,
        scratch: &mut MatchScratch,
    ) -> RunReport {
        let start = Instant::now();
        let mut report = RunReport::default();
        let mut states = vec![warm; rules.len()];
        let mut clock = BudgetClock::new(budget);
        for _ in 0..self.max_iterations {
            clock.check_now();
            if clock.exhausted() {
                break;
            }
            #[cfg(feature = "fault-injection")]
            if self.inject_iteration_fault(&mut clock, &mut report) {
                break;
            }
            report.iterations += 1;
            let applied =
                self.run_iter(egraph, rules, &mut states, scratch, &mut clock, &mut report);
            report.applied += applied;
            if applied == 0 && !clock.exhausted() {
                report.saturated = true;
                break;
            }
            if egraph.num_nodes() > self.node_limit {
                report.node_limit_hit = true;
                break;
            }
        }
        report.nodes = egraph.num_nodes();
        report.classes = egraph.num_classes();
        report.elapsed = start.elapsed();
        clock.stamp(&mut report);
        report
    }

    /// Resolves an iteration-level fault against the budgets actually in
    /// force, so injected stops never claim a budget that was not
    /// configured. Returns whether the run must stop.
    #[cfg(feature = "fault-injection")]
    fn inject_iteration_fault(&self, clock: &mut BudgetClock, report: &mut RunReport) -> bool {
        use crate::fault::InjectedStop;
        let Some(plan) = &self.fault_plan else {
            return false;
        };
        match plan.on_iteration(
            clock.budget.deadline.is_some(),
            clock.budget.match_budget.is_some(),
        ) {
            Some(InjectedStop::Deadline) => clock.deadline_hit = true,
            Some(InjectedStop::NodeLimit) => report.node_limit_hit = true,
            Some(InjectedStop::MatchBudget) => clock.match_budget_hit = true,
            None => return false,
        }
        true
    }

    /// [`Runner::run_to_fixpoint`] over `main_rules` with at most
    /// `outer_iters` passes. `supporting_rules` must be empty: the
    /// supporting rule runs last in the main list. Kept only because the
    /// `benchmark/` package names it; goes with ROADMAP 2(iii).
    pub fn run_phased<L: Language, N: Analysis<L>>(
        &self,
        egraph: &mut EGraph<L, N>,
        main_rules: &[Rewrite<L, N>],
        supporting_rules: &[Rewrite<L, N>],
        outer_iters: usize,
    ) -> RunReport {
        assert!(
            supporting_rules.is_empty(),
            "the supporting rule runs last in `main_rules`"
        );
        let mut runner = self.clone();
        runner.max_iterations = outer_iters;
        runner.run_to_fixpoint(egraph, main_rules, Budget::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, pdiv, pmul, pvar, Math};
    use crate::rewrite::Query;

    type EG = EGraph<Math, ()>;

    fn fig1_rules() -> Vec<Rewrite<Math>> {
        vec![
            Rewrite::rewrite(
                "assoc",
                pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
                pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
            ),
            Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
            Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
        ]
    }

    fn fig1_graph() -> (EG, crate::unionfind::Id, crate::unionfind::Id) {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));
        (eg, a, d)
    }

    #[test]
    fn fixpoint_saturates_and_reports() {
        let (mut eg, a, d) = fig1_graph();
        let rules = fig1_rules();
        let report = Runner::default().run_to_fixpoint(&mut eg, &rules, Budget::none());
        assert!(report.saturated);
        assert!(report.iterations >= 2);
        assert_eq!(eg.find(d), eg.find(a));
        assert!(report.nodes > 0 && report.classes > 0);
    }

    #[test]
    fn naive_matcher_reaches_the_same_fixpoint() {
        let (mut eg_fast, a1, d1) = fig1_graph();
        let (mut eg_naive, a2, d2) = fig1_graph();
        let fast = Runner::default().run_to_fixpoint(&mut eg_fast, &fig1_rules(), Budget::none());
        let naive = Runner::default().with_naive_matcher(true).run_to_fixpoint(
            &mut eg_naive,
            &fig1_rules(),
            Budget::none(),
        );
        assert!(fast.saturated && naive.saturated);
        assert_eq!(fast.nodes, naive.nodes);
        assert_eq!(fast.classes, naive.classes);
        assert_eq!(eg_fast.find(d1), eg_fast.find(a1));
        assert_eq!(eg_naive.find(d2), eg_naive.find(a2));
    }

    /// A rule that keeps minting fresh literals can never saturate
    /// (hash-consing tames mere term growth, so grow payloads instead).
    fn successor_rule() -> Rewrite<Math> {
        Rewrite::<Math>::rule(
            "successor",
            Query::single("e", pvar("e")),
            Box::new(|eg, s| {
                let id = crate::rewrite::bound(s, "e");
                let v = eg.class(id).nodes.iter().find_map(|n| match n {
                    Math::Num(v) => Some(*v),
                    _ => None,
                });
                match v {
                    Some(v) => {
                        let before = eg.num_nodes();
                        eg.add(Math::Num(v + 1));
                        eg.num_nodes() > before
                    }
                    None => false,
                }
            }),
        )
    }

    #[test]
    fn node_limit_stops_explosion() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let runner = Runner::new(1000, 50);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], Budget::none());
        assert!(report.node_limit_hit);
        assert!(report.truncated());
        assert!(!report.saturated);
    }

    #[test]
    fn deadline_budget_stops_unsaturating_run() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let budget = Budget {
            deadline: Some(Instant::now() + Duration::from_millis(5)),
            ..Budget::none()
        };
        let runner = Runner::new(usize::MAX, usize::MAX);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], budget);
        assert!(report.deadline_hit);
        assert!(report.truncated());
        assert!(!report.saturated);
        // The truncated graph is rebuilt and consistent.
        assert_eq!(report.nodes, eg.num_nodes());
    }

    #[test]
    fn expired_deadline_stops_before_any_iteration() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let budget = Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::none()
        };
        let runner = Runner::new(1000, usize::MAX);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], budget);
        assert!(report.deadline_hit);
        assert_eq!(report.iterations, 0);
        assert!(!report.saturated, "a budget stop must not claim saturation");
    }

    #[test]
    fn match_budget_stops_run() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let budget = Budget {
            match_budget: Some(7),
            ..Budget::none()
        };
        let runner = Runner::new(1000, usize::MAX);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], budget);
        assert!(report.match_budget_hit);
        assert!(!report.deadline_hit);
        assert!(report.applied >= 7, "stops only once the budget is spent");
        assert!(report.applied <= 8, "per-rule accounting bounds overshoot");
    }

    #[test]
    fn generous_budgets_do_not_change_saturation() {
        let (mut eg, a, d) = fig1_graph();
        let budget = Budget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            match_budget: Some(1_000_000),
            cancel: None,
        };
        let report = Runner::default().run_to_fixpoint(&mut eg, &fig1_rules(), budget);
        assert!(report.saturated);
        assert!(!report.truncated());
        assert_eq!(eg.find(d), eg.find(a));
    }

    #[test]
    fn run_in_respects_absolute_deadline() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let budget = Budget {
            deadline: Some(Instant::now()),
            ..Budget::none()
        };
        let runner = Runner::new(1000, usize::MAX);
        let rules = [successor_rule()];
        let scratch = &mut MatchScratch::new();
        let report = runner.run_in(&mut eg, &rules, budget, None, scratch);
        assert!(report.deadline_hit);
        assert!(!report.saturated);
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_iteration() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget {
            cancel: Some(token.clone()),
            ..Budget::none()
        };
        let runner = Runner::new(1000, usize::MAX);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], budget);
        assert!(report.cancelled);
        assert!(report.truncated());
        assert_eq!(report.iterations, 0);
        assert!(
            !report.saturated,
            "a cancelled run must not claim saturation"
        );
        assert!(token.cancelled_at().is_some());
    }

    #[test]
    fn cancel_from_another_thread_stops_unbounded_run() {
        let mut eg = EG::new();
        let _ = eg.add(Math::Num(0));
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            remote.cancel();
        });
        // Unbounded iterations and no deadline: this run terminates if and
        // only if the token aborts it.
        let budget = Budget {
            cancel: Some(token),
            ..Budget::none()
        };
        let runner = Runner::new(usize::MAX, usize::MAX);
        let report = runner.run_to_fixpoint(&mut eg, &[successor_rule()], budget);
        canceller.join().unwrap();
        assert!(report.cancelled);
        assert!(!report.deadline_hit && !report.match_budget_hit);
        assert!(!report.saturated);
        // The cancelled graph is rebuilt and consistent.
        assert_eq!(report.nodes, eg.num_nodes());
    }

    #[test]
    fn untripped_token_does_not_change_saturation() {
        let (mut eg, a, d) = fig1_graph();
        let budget = Budget {
            cancel: Some(CancelToken::new()),
            ..Budget::none()
        };
        let report = Runner::default().run_to_fixpoint(&mut eg, &fig1_rules(), budget);
        assert!(report.saturated);
        assert!(!report.truncated());
        assert_eq!(eg.find(d), eg.find(a));
    }

    /// Profiling attribution: the rebuild that `assoc`'s union forces
    /// before `div-self` may search is reported through `on_rebuild`, not
    /// folded into `div-self`'s sample — so a pass whose first rule fired
    /// reports more rebuilds than the one that ends it.
    #[test]
    fn mid_pass_rebuilds_are_reported_separately() {
        let (mut eg, a, d) = fig1_graph();
        let sink = Arc::new(hb_obs::CollectingSink::new());
        let report = Runner::default()
            .with_profile_sink(sink.clone())
            .run_to_fixpoint(&mut eg, &fig1_rules(), Budget::none());
        assert!(report.saturated);
        assert_eq!(eg.find(d), eg.find(a));
        assert!(
            sink.rebuilds().len() > report.iterations,
            "{} rebuilds over {} passes: mid-pass rebuilds went unreported",
            sink.rebuilds().len(),
            report.iterations
        );
        // The pass that found the fixpoint searched a graph the pass before
        // had restamped but that pass itself left unchanged: its delta
        // searches re-found matches already applied. `matches` alone would
        // call them empty.
        let samples = sink.samples();
        assert!(samples.iter().all(|s| s.matches <= s.found), "{samples:?}");
        assert!(
            samples.iter().any(|s| s.found > 0 && s.matches == 0),
            "no search re-found an applied match: {samples:?}"
        );
        // Sink or no sink, the run is the same run.
        let (mut plain, _, _) = fig1_graph();
        let mut unprofiled =
            Runner::default().run_to_fixpoint(&mut plain, &fig1_rules(), Budget::none());
        let mut profiled = report;
        unprofiled.elapsed = Duration::ZERO;
        profiled.elapsed = Duration::ZERO;
        assert_eq!(profiled, unprofiled);
    }

    #[test]
    fn a_fact_a_later_rule_inserts_fires_an_earlier_rule_next_pass() {
        // One loop, no supporting phase: `mark` reads, through its
        // relation atom, the facts `two-is-even` — later in the same list —
        // inserts, so `mark` finds nothing on the first pass and must find
        // its match by delta search on the next.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let _d = eg.add(Math::Div([m, two]));

        // Products by an even number get marked.
        let mark = Rewrite::<Math>::rule(
            "mark",
            Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("even", &["y"]),
            Box::new(|eg, s| {
                let e = crate::rewrite::bound(s, "e");
                eg.insert_tuple("marked", &[e])
            }),
        );
        // Every literal 2 is "even".
        let even = Rewrite::<Math>::rule(
            "two-is-even",
            Query::single("e", n(2)),
            Box::new(|eg, s| {
                let e = crate::rewrite::bound(s, "e");
                eg.insert_tuple("even", &[e])
            }),
        );
        let report =
            Runner::new(3, usize::MAX).run_to_fixpoint(&mut eg, &[mark, even], Budget::none());
        assert!(report.saturated);
        assert_eq!(report.iterations, 3, "fact, mark, then a quiet pass");
        assert_eq!(report.applied, 2);
        assert_eq!(eg.relations().len("marked"), 1);
    }
}
