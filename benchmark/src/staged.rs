//! The staged path: one compile re-run stage by stage through the public
//! functions of each layer, so every layer is timed from outside.
//!
//! `Session::compile` is one opaque call. This module performs the same
//! steps in the same order — `collect_placements`/`annotate_stmt` →
//! `HbGraph` + `declare_relations` + `encode_stmt` → `Runner::run_phased`
//! → extractor constructor → `cost_of`/`extract` → `decode_stmt` →
//! `try_materialize_stmt` → splice — with a benchmark-owned span around
//! each. The caller checks that the program it selects equals the
//! session's on every operation; what the session spends beyond these
//! parts (report strings, clones, `catch_unwind`) is reported as
//! `core.session.overhead_share`, not dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hardboiled_repro::accel::target::Target;
use hardboiled_repro::egraph::extract::{Extract, SharedTableExtractor, WorklistExtractor};
use hardboiled_repro::egraph::schedule::{RunReport, Runner};
use hardboiled_repro::egraph::unionfind::Id;
use hardboiled_repro::hardboiled::decode::decode_stmt;
use hardboiled_repro::hardboiled::encode::encode_stmt;
use hardboiled_repro::hardboiled::movement::{annotate_stmt, collect_placements};
use hardboiled_repro::hardboiled::postprocess::try_materialize_stmt;
use hardboiled_repro::hardboiled::rules::app_specific::declare_relations;
use hardboiled_repro::hardboiled::rules::RuleSet;
use hardboiled_repro::hardboiled::{DeviceCost, HbGraph, HbLang};
use hardboiled_repro::ir::expr::Expr;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::Lowered;
use hardboiled_repro::obs::{ProfileSink, RuleSearchSample, Tracer};

use crate::alloc;

/// Outer iterations of the phased schedule (the `SessionBuilder` default).
const OUTER_ITERS: usize = 8;

/// Search/rebuild split of saturation, summed by the engine's profiling
/// callbacks.
#[derive(Debug, Default)]
pub struct SearchProfile {
    search_ns: AtomicU64,
    rebuild_ns: AtomicU64,
    searches: AtomicU64,
    fruitless: AtomicU64,
}

impl ProfileSink for SearchProfile {
    fn on_rule_search(&self, sample: &RuleSearchSample<'_>) {
        self.search_ns
            .fetch_add(sample.duration.as_nanos() as u64, Ordering::Relaxed);
        self.searches.fetch_add(1, Ordering::Relaxed);
        if sample.matches == 0 {
            self.fruitless.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_rebuild(&self, duration: Duration) {
        self.rebuild_ns
            .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Work counted at the layer boundaries, summed over the operations they
/// were handed to. All of it is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub lowered_ir_nodes: u64,
    pub leaves: u64,
    pub encode_nodes: u64,
    pub saturate: RunReport,
    pub saturate_allocs: u64,
    pub table_entries: u64,
    pub reused_readouts: u64,
    pub root_cost_sum: u64,
}

/// Statements plus every expression node below them.
#[must_use]
pub fn ir_nodes(stmt: &Stmt) -> u64 {
    let mut n = 0u64;
    stmt.for_each_stmt(&mut |_| n += 1);
    stmt.for_each_expr(&mut |_| n += 1);
    n
}

fn has_movement(e: &Expr) -> bool {
    let mut found = false;
    e.for_each(&mut |n| found |= matches!(n, Expr::LocToLoc { .. }));
    found
}

/// A `Store`/`Evaluate` holding data movement: what the selector saturates.
fn is_selection_leaf(s: &Stmt) -> bool {
    match s {
        Stmt::Store { index, value, .. } => has_movement(index) || has_movement(value),
        Stmt::Evaluate(e) => has_movement(e),
        _ => false,
    }
}

/// The layers of one session, held apart.
pub struct Stager {
    target: Box<dyn Target>,
    rules: RuleSet,
    runner: Runner,
    cost: DeviceCost,
    batched: bool,
    profile: Option<Arc<SearchProfile>>,
    tracer: Tracer,
}

impl Stager {
    /// The parts a default `Session` for `target` is made of; `batched`
    /// picks the shared-graph path and the shared-table extractor.
    /// `profiled` attaches a [`SearchProfile`] to the engine, which then
    /// reads the clock around every rule search: the search/rebuild split
    /// comes from a profiled stager, every other timing from a plain one.
    #[must_use]
    pub fn new(target: Box<dyn Target>, batched: bool, profiled: bool, tracer: Tracer) -> Self {
        let profile = profiled.then(|| Arc::new(SearchProfile::default()));
        let node_limit = if batched { 500_000 } else { 200_000 };
        let mut runner = Runner::new(16, node_limit);
        if let Some(profile) = &profile {
            runner = runner.with_profile_sink(profile.clone());
        }
        Stager {
            rules: RuleSet::for_profile(target.rule_profile()),
            runner,
            cost: DeviceCost::from_profile(target.device()),
            target,
            batched,
            profile,
            tracer,
        }
    }

    /// Rules in the set (main + supporting).
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.main.len() + self.rules.support.len()
    }

    /// Injects the data-movement markers and collects the statements the
    /// selector saturates: `(annotated programs, their leaves in order)`.
    #[must_use]
    pub fn annotate(&self, programs: &[Lowered]) -> (Vec<Stmt>, Vec<Stmt>) {
        let span = self.tracer.span("core.movement.annotate");
        let annotated: Vec<Stmt> = programs
            .iter()
            .map(|p| {
                let mut placements = collect_placements(&p.stmt);
                placements.extend(p.placements.iter().map(|(k, v)| (k.clone(), *v)));
                placements.retain(|_, m| self.target.supports(*m));
                annotate_stmt(&p.stmt, &placements)
            })
            .collect();
        let mut leaves: Vec<Stmt> = Vec::new();
        for tree in &annotated {
            tree.for_each_stmt(&mut |s| {
                if is_selection_leaf(s) {
                    leaves.push(s.clone());
                }
            });
        }
        span.finish();
        (annotated, leaves)
    }

    /// Compiles the programs of one operation and returns the selected
    /// statements, in input order.
    pub fn compile(&self, programs: &[Lowered], counts: &mut Counts) -> Vec<Stmt> {
        let (annotated, leaves) = self.annotate(programs);
        counts.leaves += leaves.len() as u64;
        counts.lowered_ir_nodes += programs.iter().map(|p| ir_nodes(&p.stmt)).sum::<u64>();
        if leaves.is_empty() {
            return annotated;
        }

        let selected: Vec<Stmt> = if self.batched {
            self.select(&leaves, counts)
        } else {
            leaves
                .iter()
                .flat_map(|leaf| self.select(std::slice::from_ref(leaf), counts))
                .collect()
        };

        let span = self.tracer.span("core.session.splice");
        let mut next = selected.iter();
        let spliced = annotated
            .iter()
            .map(|tree| {
                tree.rewrite_stmts_bottom_up(&mut |s| {
                    is_selection_leaf(s)
                        .then(|| next.next().expect("one selection per leaf").clone())
                })
            })
            .collect();
        span.finish();
        spliced
    }

    /// One e-graph for `leaves`, encoded and saturated: `(graph, roots)`.
    pub fn saturate(&self, leaves: &[Stmt], counts: &mut Counts) -> (HbGraph, Vec<Id>) {
        let span = self.tracer.span("core.encode");
        let mut eg = HbGraph::default();
        declare_relations(&mut eg);
        let roots: Vec<Id> = leaves.iter().map(|s| encode_stmt(&mut eg, s)).collect();
        span.finish();
        counts.encode_nodes += eg.num_nodes() as u64;

        let span = self.tracer.span("egraph.saturate");
        let before = alloc::counters();
        let run =
            self.runner
                .run_phased(&mut eg, &self.rules.main, &self.rules.support, OUTER_ITERS);
        counts.saturate_allocs += (alloc::counters() - before).allocs;
        span.finish();
        add_run(&mut counts.saturate, &run);
        (eg, roots)
    }

    /// Saturates `leaves` in one graph, solves its cost table, then reads
    /// out, decodes and materializes each root.
    fn select(&self, leaves: &[Stmt], counts: &mut Counts) -> Vec<Stmt> {
        let (eg, roots) = self.saturate(leaves, counts);

        let span = self.tracer.span("egraph.extract.solve");
        let extractor: Box<dyn Extract<HbLang> + '_> = if self.batched {
            Box::new(SharedTableExtractor::new(&eg, self.cost))
        } else {
            Box::new(WorklistExtractor::new(&eg, self.cost))
        };
        span.finish();

        let selected = roots
            .iter()
            .zip(leaves)
            .map(|(&root, original)| {
                let span = self.tracer.span("egraph.extract.readout");
                let cost = extractor.cost_of(root);
                let term = cost.is_some().then(|| extractor.extract(root));
                span.finish();
                counts.root_cost_sum += cost.unwrap_or(0);

                let span = self.tracer.span("core.decode");
                let decoded = term.and_then(|t| decode_stmt(&t).ok());
                span.finish();

                let span = self.tracer.span("core.postprocess.materialize");
                let materialized = decoded.and_then(|d| try_materialize_stmt(&d).ok());
                span.finish();
                materialized.unwrap_or_else(|| original.clone())
            })
            .collect();
        let stats = extractor.stats();
        counts.table_entries += stats.table_entries as u64;
        counts.reused_readouts += stats.reused_readouts as u64;
        selected
    }

    /// Drains the search/rebuild split a profiled stager accumulated:
    /// `(search_ns, rebuild_ns, searches, fruitless searches)`.
    #[must_use]
    pub fn take_profile(&self) -> [u64; 4] {
        self.profile.as_ref().map_or([0; 4], |p| {
            [&p.search_ns, &p.rebuild_ns, &p.searches, &p.fruitless]
                .map(|counter| counter.swap(0, Ordering::Relaxed))
        })
    }
}

fn add_run(total: &mut RunReport, run: &RunReport) {
    total.iterations += run.iterations;
    total.applied += run.applied;
    total.nodes += run.nodes;
    total.classes += run.classes;
    total.delta_searches += run.delta_searches;
    total.full_searches += run.full_searches;
    total.skipped_searches += run.skipped_searches;
    total.delta_probed_rows += run.delta_probed_rows;
    total.delta_skipped_rows += run.delta_skipped_rows;
}
