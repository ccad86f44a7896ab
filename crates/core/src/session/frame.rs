//! The one path every compile takes: the frame and its `Job`, which takes
//! the leaves out and groups them by shape in one walk, looks the shapes up
//! in the report cache, runs the compile unit that touches an e-graph over
//! the missed ones, instantiates each leaf from its shape's selection,
//! stores the fresh shapes and fills the holes; and the pooled contexts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use hb_egraph::extract::{Extract, ExtractScratch, WorklistExtractor};
use hb_egraph::pattern::MatchScratch;
use hb_egraph::schedule::{Budget, RunReport};
use hb_egraph::unionfind::Id;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;
use hb_ir::symbol::Symbol;

use super::{
    panic_message, Batching, CompileOutcome, CompileReport, IrSuiteResult, Session, StmtReport,
};
use crate::cache::{CacheOutcome, Selection, SuiteSnapshot};
use crate::decode::decode_stmt;
use crate::encode::encode_stmt;
use crate::lang::HbGraph;
use crate::movement::{annotate_in_place, Placements, SymbolPlacements};
use crate::postprocess::{materialize_numbered, Temps};
use crate::shape::{instantiate, Grouping, Shape};

/// Everything one compile unit — one leaf shape in [`Batching::PerLeaf`]
/// mode, the shared graph of a call in [`Batching::Batched`] mode — builds,
/// matches and extracts in. Kept by the session between units so that a
/// long-lived session (a service worker's, above all) stops allocating its
/// tables: the graph is cleared, the scratches refill in place.
#[derive(Default)]
pub(crate) struct CompileCtx {
    pub(super) graph: HbGraph,
    /// The unit's shapes as encoded, one root each, in shape order.
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
    /// in place (the shared front half of both batching modes), noting in
    /// `temps` what the program allocates.
    fn annotate(&self, stmt: &mut Stmt, extra_placements: &Placements, temps: &mut Temps) {
        let mut placements = SymbolPlacements::new();
        stmt.for_each_stmt(&mut |s| {
            if let Stmt::Allocate { name, memory, .. } = s {
                placements.insert(*name, *memory);
                temps.allocated(*name);
            }
        });
        placements.extend(extra_placements.iter().map(|(k, v)| (Symbol::from(k), *v)));
        // Placement policy: placements the target cannot honor are
        // ignored; the affected statements keep their vector code.
        placements.retain(|_, m| self.target.supports(*m));
        annotate_in_place(stmt, &placements);
    }

    /// The one path every entry point takes: annotate → take the leaves out
    /// and group them by shape → cache lookup → compile unit(s) over the
    /// missed shapes → instantiate each leaf → cache store → splice →
    /// record, all under one call-level [`Budget`]. Only a [`Job::Cached`]
    /// compile consults or stores; the other jobs want the graph, not a
    /// memoized answer, and count as bypasses.
    ///
    /// One walk takes every leaf out of the annotated trees, leaving a hole
    /// at a recorded position, and groups it by shape on the spot
    /// ([`crate::shape`]): leaves that differ only in base offsets share one
    /// owned root, the first one, and a later member's copy is dropped
    /// there, so the frame holds one leaf per shape from then on. The lookup
    /// takes every shape at once, keyed by its root's content hash and the
    /// policy fingerprint and verified against the stored root. A unit is
    /// one missed shape in [`Batching::PerLeaf`] mode and every missed shape
    /// of the call otherwise, and each unit's engine report is pushed onto
    /// [`CompileReport::units`]; a root selects the same statement at the
    /// same cost whichever roots share its graph (the per-leaf ≡ batched
    /// oracle), so hits and fresh selections take one path from there: each
    /// member gets its shape's term with its own literals substituted,
    /// materialized on its own, in its leaf's hole. A request whose every
    /// shape hits runs no unit at all.
    ///
    /// The frame owns the programs it compiles and annotates them in place.
    /// After an engine fault no later unit runs and every leaf gets its
    /// original back, as a leaf with no term does: the annotated input,
    /// [`CompileOutcome::FallbackUnoptimized`], an "engine fault" note, no
    /// unit and no extraction report, stored and counted nowhere
    /// ([`IrSuiteResult::fault`] has the caller count or retry it).
    pub(super) fn compile_frame(
        &self,
        programs: Vec<(Stmt, &Placements)>,
        budget: Budget,
        job: Job<'_>,
    ) -> IrSuiteResult {
        let total_started = Instant::now();
        let mut report = CompileReport {
            target: self.target.name().to_string(),
            ..CompileReport::default()
        };

        let mut annotate_span = self.tracer.span("annotate");
        let mut annotated = Vec::with_capacity(programs.len());
        let mut temps = Temps::default();
        for (mut stmt, extra) in programs {
            self.annotate(&mut stmt, extra, &mut temps);
            annotated.push(stmt);
        }
        let (shapes, holes, leaf_counts) = take_leaves(&mut annotated, self.fingerprint);
        let leaves = holes.len();
        annotate_span.attr("leaves", leaves);

        // A leaf-free request has nothing to look up or store: it counts as
        // the bypass it is. Neither does a fault-injected session's: an
        // injected engine fault would poison the cache for every later
        // (clean) compile of the same leaves.
        let consulted = matches!(job, Job::Cached) && leaves > 0;
        let cache = self.cache.as_deref().filter(|_| consulted);
        #[cfg(feature = "fault-injection")]
        let cache = cache.filter(|_| self.runner.fault_plan.is_none());
        let mut selections = match cache {
            Some(cache) => cache.lookup(shapes.iter().map(|s| (s.key, &s.root))),
            None => vec![None; shapes.len()],
        };
        let missed: Vec<usize> = (0..shapes.len())
            .filter(|&s| selections[s].is_none())
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
        report.stages.encode = annotate_span.finish();
        if leaves == 0 {
            // Leaf-free programs never touch the rule set (nor build it).
            report.total_time = total_started.elapsed();
            if let Some(obs) = &self.obs {
                obs.record_outcome(report.outcome);
            }
            return IrSuiteResult {
                programs: annotated,
                report,
                leaf_counts,
                fault: None,
            };
        }

        // Whether each shape's own unit saturated: only such a shape is
        // stored, so one truncated unit never blocks its neighbours' stores
        // (a hit is already stored).
        let mut saturated = vec![false; shapes.len()];
        report.stmts = vec![StmtReport::default(); leaves];
        // Engine faults are caught here, around the units: a panic drops
        // the unit's context and runs no later unit.
        let units = catch_unwind(AssertUnwindSafe(|| {
            if self.batching == Batching::PerLeaf && !matches!(job, Job::Warm(..)) {
                // Each shape a plain unit of its own; per-leaf graphs are no
                // suite graph, so an export's slot stays empty.
                for &s in &missed {
                    let root = &shapes[s].root;
                    let (run, selected) =
                        self.run_unit(&[root], budget.clone(), Job::Cached, &mut report);
                    saturated[s] = CompileOutcome::of_run(&run) == CompileOutcome::Saturated;
                    selections[s] = selected.into_iter().next();
                    report.units.push(run);
                }
            } else if !missed.is_empty() {
                let roots: Vec<&Stmt> = missed.iter().map(|&s| &shapes[s].root).collect();
                let (run, selected) = self.run_unit(&roots, budget, job, &mut report);
                let whole = CompileOutcome::of_run(&run) == CompileOutcome::Saturated;
                for (&s, selection) in missed.iter().zip(selected) {
                    saturated[s] = whole;
                    selections[s] = Some(selection);
                }
                report.units.push(run);
            }
        }));
        let fault = units.err().map(|payload| panic_message(&*payload));
        if fault.is_some() {
            // Hits and earlier units' shapes too: none materializes or stores.
            selections.fill(None);
            report.units.clear();
        }

        // Every member of every shape, hit or miss, gets a copy of the
        // shape's term with its own literals substituted, materialized on
        // its own (temporaries numbered per compile, in this order); each
        // missed shape worth memoizing moves its root into the store, under
        // one more lock.
        let splice_span = self.tracer.span("splice");
        let extraction = report.extraction.get_or_insert_with(Default::default);
        extraction.root_costs = vec![None; leaves];
        let mut selected: Vec<Option<Stmt>> = vec![None; leaves];
        let mut stores = Vec::new();
        for ((shape, selection), saturated) in shapes.into_iter().zip(selections).zip(saturated) {
            let (mut term, cost) = selection.map_or((None, None), |s| (s.term, s.cost));
            let kept = (cache.is_some() && saturated).then(|| term.clone());
            let mut materialized_all = true;
            // Instantiating moves no data, so whether a leaf lowered is read
            // once per shape, off its first member that materialized.
            let mut lowered = None;
            let last = shape.members.len() - 1;
            for (j, member) in shape.members.iter().enumerate() {
                // The last member takes the term, the others a copy.
                let mut stmt = if j == last { term.take() } else { term.clone() };
                if let Some(stmt) = stmt.as_mut().filter(|_| !member.values.is_empty()) {
                    instantiate(stmt, &member.values);
                }
                // A faulted unit, a root with no constructible term
                // (possible only for custom pipelines encoding cyclic-only
                // classes), an undecodable term and a malformed
                // materialization keep the original (annotated,
                // unoptimized) leaf, the root instantiated, and demote the
                // compile. The original has no `__expr_var` markers, so
                // materializing it would be an identity.
                let materialized = stmt.and_then(|s| materialize_numbered(s, &mut temps).ok());
                materialized_all &= materialized.is_some();
                report.stmts[member.at].lowered = materialized
                    .as_ref()
                    .is_some_and(|stmt| *lowered.get_or_insert_with(|| !stmt_has_movement(stmt)));
                let stmt = materialized.unwrap_or_else(|| {
                    let mut leaf = shape.root.clone();
                    instantiate(&mut leaf, &member.values);
                    leaf
                });
                extraction.root_costs[member.at] = cost;
                selected[member.at] = Some(stmt);
            }
            if !materialized_all {
                report.outcome = report.outcome.worst(CompileOutcome::FallbackUnoptimized);
            } else if let Some(term) = kept {
                stores.push((shape.key, shape.root, Selection { term, cost }));
            }
        }
        if let Some(cache) = cache.filter(|_| !stores.is_empty()) {
            let evicted = cache.store(stores);
            if let Some(obs) = &self.obs {
                obs.cache_evictions.add(evicted);
            }
        }
        fill_holes(&mut annotated, &holes, selected);
        report.stages.splice = splice_span.finish();
        report.total_time = total_started.elapsed();
        if let Some(cause) = &fault {
            report.extraction = None;
            let note = format!("engine fault; spliced the unoptimized program: {cause}");
            report.notes.push(note);
        } else if let Some(obs) = &self.obs {
            // Stage histograms describe compiles that ran a unit; a request
            // the cache answered counts only its outcome rung.
            if missed.is_empty() {
                obs.record_outcome(report.outcome);
            } else {
                obs.record_report(&report);
            }
        }
        IrSuiteResult {
            programs: annotated,
            report,
            leaf_counts,
            fault,
        }
    }

    /// Counts a faulted frame on the fallback rung, which the frame leaves to
    /// its caller: a suite retries a faulted shared run instead.
    pub(super) fn record_fault(&self, compiled: &IrSuiteResult) {
        if let Some(obs) = self.obs.as_ref().filter(|_| compiled.fault.is_some()) {
            obs.record_outcome(CompileOutcome::FallbackUnoptimized);
        }
    }

    /// One compile unit: encode `roots` into one e-graph — the restored
    /// one's for a [`Job::Warm`] unit, a pooled context's otherwise —
    /// saturate it in one loop, export it for a [`Job::Export`] unit that
    /// saturated, solve its cost table once and read every root out of it,
    /// decoded. Hash-consing dedups what the roots share, and equal-cost
    /// ties break by content, so a root selects the same term whichever
    /// roots share its graph. Stage timings, the outcome rung and the
    /// extraction figures accumulate into `report`; the engine's report and
    /// one [`Selection`] per root, in order, are returned for the caller to
    /// place.
    ///
    /// The context is this function's until it rests it: a panic anywhere
    /// below unwinds past that and drops it, so a half-rewritten graph is
    /// never cleared and reused.
    fn run_unit(
        &self,
        roots: &[&Stmt],
        budget: Budget,
        job: Job<'_>,
        report: &mut CompileReport,
    ) -> (RunReport, Vec<Selection>) {
        let (mut ctx, warm, export) = match job {
            Job::Warm(ctx, warm) => (*ctx, Some(warm), None),
            Job::Export(slot) => (self.pop_ctx(), None, Some(slot)),
            Job::Cached => (self.pop_ctx(), None, None),
        };
        let rules = self.rules();

        let encode_span = self.tracer.span("encode");
        let eg = &mut ctx.graph;
        ctx.roots.clear();
        // Encoding only adds, so the graph stays rebuilt: no union is
        // pending.
        ctx.roots
            .extend(roots.iter().map(|root| encode_stmt(eg, root)));
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
        let selections = (ctx.roots.iter())
            .map(|&root| {
                let readout_started = Instant::now();
                let cost = extractor.cost_of(root);
                // extract() would panic on a root with no constructible term.
                let term = cost.is_some().then(|| extractor.extract(root));
                extraction.readout_time += readout_started.elapsed();
                let term = term.and_then(|t| decode_stmt(&t).ok());
                Selection { term, cost }
            })
            .collect();
        extraction.table_entries += extractor.stats().table_entries;
        ctx.extract = extractor.into_scratch();
        report.stages.extract += extract_span.finish();
        self.rest_ctx(ctx);
        (run, selections)
    }
}

/// Takes every selection leaf out of the annotated programs and groups it
/// by shape as it goes ([`Grouping`]), in one bottom-up walk, which leaves
/// an empty `Block` in its place: the shapes, each hole's position (its
/// index among the statements the walk visits, over every tree) and
/// per-program leaf counts.
fn take_leaves(annotated: &mut [Stmt], fingerprint: u64) -> (Vec<Shape>, Vec<usize>, Vec<usize>) {
    let mut grouping = Grouping::default();
    let mut leaf_counts = Vec::with_capacity(annotated.len());
    let (mut holes, mut visited) = (Vec::new(), 0);
    for tree in annotated {
        let before = holes.len();
        tree.rewrite_stmts_in_place(&mut |s| {
            visited += 1;
            let leaf = is_selection_leaf(s);
            if leaf {
                grouping.add(holes.len(), s.take(), fingerprint);
                holes.push(visited);
            }
            leaf
        });
        leaf_counts.push(holes.len() - before);
    }
    (grouping.shapes, holes, leaf_counts)
}

/// Moves each selected statement into its leaf's hole, found by the
/// position [`take_leaves`] recorded in the same walk, so a `Block` that
/// was empty in the input stays as it is.
fn fill_holes(annotated: &mut [Stmt], holes: &[usize], selected: Vec<Option<Stmt>>) {
    let mut selected = holes.iter().zip(selected).peekable();
    let mut visited = 0;
    for tree in annotated {
        tree.rewrite_stmts_in_place(&mut |s| {
            visited += 1;
            let hole = selected.next_if(|&(&at, _)| at == visited);
            hole.map(|(_, stmt)| *s = stmt.expect("one selected statement per leaf"))
                .is_some()
        });
    }
    debug_assert!(selected.next().is_none(), "a hole was left unfilled");
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
