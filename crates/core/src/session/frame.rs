//! The one path every compile takes: the frame and its `Job`, the per-leaf
//! cache lookup and store, the compile unit that touches an e-graph, and
//! the pooled contexts units run in.

use std::sync::Mutex;
use std::time::Instant;

use hb_egraph::extract::{Extract, ExtractScratch, WorklistExtractor};
use hb_egraph::pattern::MatchScratch;
use hb_egraph::schedule::{Budget, RunReport};
use hb_egraph::unionfind::Id;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;

use super::{Batching, CompileOutcome, CompileReport, IrSuiteResult, Session, StmtReport};
use crate::cache::{leaf_keys, CacheOutcome, Selection, SuiteSnapshot};
use crate::decode::decode_stmt;
use crate::encode::encode_stmt;
use crate::lang::HbGraph;
use crate::movement::{annotate_in_place, collect_placements, Placements};
use crate::postprocess::try_materialize_owned;

/// Everything one compile unit — one leaf in [`Batching::PerLeaf`] mode,
/// the shared graph of a call in [`Batching::Batched`] mode — builds,
/// matches and extracts in. Kept by the session between units so that a
/// long-lived session (a service worker's, above all) stops allocating its
/// tables: the graph is cleared, the scratches refill in place.
#[derive(Default)]
pub(crate) struct CompileCtx {
    pub(super) graph: HbGraph,
    /// The unit's leaves as encoded, in leaf order.
    pub(super) roots: Vec<Id>,
    pub(super) matcher: MatchScratch,
    pub(super) extract: ExtractScratch,
}

/// The contexts a session (or a service, for all of its sessions) keeps
/// at rest.
pub(crate) type CtxPool = Mutex<Vec<CompileCtx>>;

/// A context whose unit made more e-class ids than this is dropped, not
/// pooled, so one pathological program cannot pin megabytes for the life
/// of a service: the smallest power of two above every graph the
/// benchmark builds. "Compile contexts" in the crate docs derives it and
/// what it costs in `peak_live_bytes`.
const MAX_RETAINED_IDS: usize = 1 << 12;

/// Contexts a session keeps at rest. The pool's size follows use — one
/// context per unit that ran at once (a service's workers, callers sharing
/// the session) — up to this.
const MAX_POOLED_CTXS: usize = 8;

pub(super) const POOL_LOCK: &str = "the context pool lock is held across no panic";

/// The one thing a compile frame is asked to do besides selecting — one
/// value, so no call can ask for two at once.
pub(super) enum Job<'a> {
    /// An ordinary compile: look every leaf up in the report cache, compile
    /// only the misses, and store each one its own unit fully saturated.
    Cached,
    /// Fill the slot with the saturated suite graph. Only a batched run
    /// that reached [`CompileOutcome::Saturated`] exports: per-leaf mode
    /// has no shared graph, and a budget-truncated one would warm-start
    /// later compiles unsaturated.
    Export(&'a mut Option<SuiteSnapshot>),
    /// Run one shared unit in this restored context, warm-started at this
    /// epoch (every rule as if it had last searched then), whatever the
    /// session's batching.
    Warm(Box<CompileCtx>, u64),
}

/// A missed leaf as its unit left it: the selection, the engine report of
/// the leaf's own graph (per-leaf units; a default otherwise), and whether
/// the cache may keep it — its unit reached [`CompileOutcome::Saturated`]
/// and its own term materialized.
struct Fresh {
    selection: Selection,
    eqsat: RunReport,
    storable: bool,
}

impl Session {
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

    /// Applies the target's placement policy and annotates data movements
    /// (the shared front half of both batching modes).
    pub(super) fn annotate(&self, stmt: &Stmt, extra_placements: &Placements) -> Stmt {
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

    /// The one path every entry point takes: annotate → collect leaves →
    /// cache lookup → compile unit(s) over the misses → cache store →
    /// splice → record, all under one call-level [`Budget`]. Only a
    /// [`Job::Cached`] compile consults or stores; the other jobs want the
    /// graph, not a memoized answer, and count as bypasses.
    ///
    /// The lookup takes every leaf of the request at once, keyed by its
    /// canonical hash and the policy fingerprint and verified against the
    /// stored leaf. A unit is then one missed leaf in [`Batching::PerLeaf`]
    /// mode — its engine report lands in its [`StmtReport::eqsat`] — and
    /// every missed leaf of the call otherwise, the shared run landing in
    /// [`CompileReport::batch`]; a leaf selects the same statement at the
    /// same cost whichever leaves share its graph (the per-leaf ≡ batched
    /// oracle), so hits and fresh selections splice side by side. A request
    /// whose every leaf hits runs no unit at all.
    pub(super) fn compile_frame(
        &self,
        programs: &[(&Stmt, &Placements)],
        budget: Budget,
        job: Job<'_>,
    ) -> IrSuiteResult {
        let total_started = Instant::now();
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

        // A leaf-free request has nothing to look up or store: it counts as
        // the bypass it is. Neither does a fault-injected session's: an
        // injected engine fault would poison the cache for every later
        // (clean) compile of the same leaves.
        let consulted = matches!(job, Job::Cached) && !leaves.is_empty();
        let cache = self.cache.as_deref().filter(|_| consulted);
        #[cfg(feature = "fault-injection")]
        let cache = cache.filter(|_| self.runner.fault_plan.is_none());
        let keys = cache.map_or_else(Vec::new, |_| leaf_keys(&leaves, self.fingerprint));
        let found = match cache {
            Some(cache) => cache.lookup(&keys, &leaves),
            None => vec![None; leaves.len()],
        };
        let missed: Vec<&Stmt> = (leaves.iter().zip(&found))
            .filter_map(|(&leaf, hit)| hit.is_none().then_some(leaf))
            .collect();
        if let Some(attached) = &self.cache {
            report.cache = match cache {
                None => CacheOutcome::Bypass,
                Some(_) if missed.is_empty() => CacheOutcome::Hit,
                Some(_) => CacheOutcome::Miss,
            };
            attached.note(report.cache);
            if let Some(obs) = &self.obs {
                let counter = match report.cache {
                    CacheOutcome::Hit => &obs.cache_hits,
                    CacheOutcome::Miss => &obs.cache_misses,
                    CacheOutcome::Bypass => &obs.cache_bypasses,
                };
                counter.inc();
            }
        }
        if leaves.is_empty() {
            // Leaf-free programs never touch the rule set (nor build it).
            report.total_time = total_started.elapsed();
            if let Some(obs) = &self.obs {
                obs.record_outcome(report.outcome);
            }
            return IrSuiteResult {
                programs: annotated,
                report,
                leaf_counts,
            };
        }

        let ran_units = !missed.is_empty();
        let mut fresh = Vec::with_capacity(missed.len());
        if self.batching == Batching::PerLeaf && !matches!(job, Job::Warm(..)) {
            // Each missed leaf a plain unit of its own; per-leaf graphs are
            // no suite graph, so an export's slot stays empty.
            for unit in missed.chunks(1) {
                let run = self.run_unit(unit, budget.clone(), Job::Cached, &mut report, &mut fresh);
                let leaf = fresh.last_mut();
                leaf.expect("a unit selects every leaf it was given").eqsat = run;
            }
        } else if ran_units {
            let run = self.run_unit(&missed, budget, job, &mut report, &mut fresh);
            report.batch = Some(run);
        }

        // Every leaf in order — a hit as stored, a miss as its unit left it —
        // and each miss worth memoizing stored, under one more lock.
        let extraction = report.extraction.get_or_insert_with(Default::default);
        let mut fresh = fresh.into_iter();
        let mut stores = Vec::new();
        let mut selected = Vec::with_capacity(leaves.len());
        for (i, hit) in found.into_iter().enumerate() {
            let (selection, eqsat) = match hit {
                Some(selection) => (selection, RunReport::default()),
                None => {
                    let unit = fresh.next().expect("one selection per missed leaf");
                    if cache.is_some() && unit.storable {
                        let leaf = Stmt::clone(leaves[i]);
                        stores.push((keys[i], leaf, unit.selection.clone()));
                    }
                    (unit.selection, unit.eqsat)
                }
            };
            extraction.root_costs.push(selection.cost);
            report.stmts.push(StmtReport {
                lowered: selection.lowered,
                eqsat,
            });
            selected.push(selection.stmt);
        }
        if let Some(cache) = cache.filter(|_| !stores.is_empty()) {
            let evicted = cache.store(stores);
            if let Some(obs) = &self.obs {
                obs.cache_evictions.add(evicted);
            }
        }

        let splice_span = self.tracer.span("splice");
        splice_selected(&mut annotated, selected);
        report.stages.splice = splice_span.finish();
        report.total_time = total_started.elapsed();
        if let Some(obs) = &self.obs {
            // Stage histograms describe compiles that ran a unit; a request
            // the cache answered counts only its outcome rung.
            if ran_units {
                obs.record_report(&report);
            } else {
                obs.record_outcome(report.outcome);
            }
        }
        IrSuiteResult {
            programs: annotated,
            report,
            leaf_counts,
        }
    }

    /// One compile unit: encode `leaves` into one e-graph — the restored
    /// one's for a [`Job::Warm`] unit, a pooled context's otherwise —
    /// saturate it in one loop, export it for a
    /// [`Job::Export`] unit that saturated, solve its cost table once and
    /// read every root out of it. Hash-consing dedups what the leaves
    /// share, and equal-cost ties break by content, so a leaf selects the
    /// same statement whichever leaves share its graph. Stage timings, the
    /// outcome rung and the extraction figures accumulate into `report`,
    /// one [`Fresh`] selection per leaf onto `fresh` — storable only when
    /// this unit's own outcome is [`CompileOutcome::Saturated`], so one
    /// truncated unit never blocks its neighbours' stores; the engine's
    /// report is returned for the caller to place.
    ///
    /// The context is this function's until it rests it: a panic anywhere
    /// below unwinds past that and drops it, so a half-rewritten graph is
    /// never cleared and reused.
    fn run_unit(
        &self,
        leaves: &[&Stmt],
        budget: Budget,
        job: Job<'_>,
        report: &mut CompileReport,
        fresh: &mut Vec<Fresh>,
    ) -> RunReport {
        let (mut ctx, warm, export) = match job {
            Job::Warm(ctx, warm) => (*ctx, Some(warm), None),
            Job::Export(slot) => (self.pop_ctx(), None, Some(slot)),
            Job::Cached => (self.pop_ctx(), None, None),
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
        let run = self
            .runner
            .run_in(eg, &rules.main, budget, warm, &mut ctx.matcher);
        saturate_span.attr("iterations", run.iterations);
        saturate_span.attr("applied", run.applied);
        report.stages.saturate += saturate_span.finish();
        let outcome = CompileOutcome::of_run(&run);
        report.outcome = report.outcome.worst(outcome);

        if let Some(slot) = export.filter(|_| outcome == CompileOutcome::Saturated) {
            *slot = Some(SuiteSnapshot {
                engine: eg.snapshot(),
                fingerprint: self.fingerprint,
            });
        }

        let mut extract_span = self.tracer.span("extract");
        extract_span.attr("roots", ctx.roots.len());
        let tables = std::mem::take(&mut ctx.extract);
        let extractor = WorklistExtractor::with_scratch(&ctx.graph, self.cost, tables);
        let extraction = report.extraction.get_or_insert_with(Default::default);
        for (&root, &original) in ctx.roots.iter().zip(leaves) {
            let readout_started = Instant::now();
            let cost = extractor.cost_of(root);
            // A root with no constructible term (possible only for custom
            // pipelines encoding cyclic-only classes) keeps its original
            // form — extract() would panic on it.
            let term = cost.is_some().then(|| extractor.extract(root));
            extraction.readout_time += readout_started.elapsed();
            // Undecodable terms and malformed materializations keep the
            // original (annotated, unoptimized) statement too, and demote
            // the compile. The original has no `__expr_var` markers, so
            // materializing it would be an identity.
            let materialized = (term.and_then(|t| decode_stmt(&t).ok()))
                .and_then(|decoded| try_materialize_owned(decoded).ok());
            if materialized.is_none() {
                report.outcome = report.outcome.worst(CompileOutcome::FallbackUnoptimized);
            }
            let storable = outcome == CompileOutcome::Saturated && materialized.is_some();
            let stmt = materialized.unwrap_or_else(|| original.clone());
            fresh.push(Fresh {
                selection: Selection {
                    lowered: !stmt_has_movement(&stmt),
                    stmt,
                    cost,
                },
                eqsat: RunReport::default(),
                storable,
            });
        }
        extraction.table_entries += extractor.stats().table_entries;
        ctx.extract = extractor.into_scratch();
        report.stages.extract += extract_span.finish();
        self.rest_ctx(ctx);
        run
    }
}

/// Pass 1 of the pipeline: each annotated program's selection leaves, in
/// traversal order and borrowed from the trees, plus per-program counts.
/// `for_each_stmt` visits leaf statements in the same left-to-right order
/// as the bottom-up rewrite used for splicing (leaves have no statement
/// children).
pub(super) fn collect_suite_leaves(annotated: &[Stmt]) -> (Vec<&Stmt>, Vec<usize>) {
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

/// Whether any expression of the statement tree moves data.
fn stmt_has_movement(s: &Stmt) -> bool {
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
fn is_selection_leaf(s: &Stmt) -> bool {
    matches!(s, Stmt::Store { .. } | Stmt::Evaluate(_)) && stmt_has_movement(s)
}
