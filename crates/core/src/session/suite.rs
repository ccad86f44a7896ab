//! Fault isolation: the suite compile with its per-program fallback path,
//! the two `catch_unwind` layers around one program, and the unoptimized
//! rung they degrade to.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hb_egraph::schedule::{Budget, CancelToken, RunReport};
use hb_ir::stmt::Stmt;

use super::frame::{collect_suite_leaves, Job};
use super::{
    CompileError, CompileOutcome, CompileReport, CompileResult, IntoProgram, IrSuiteResult,
    Program, Session, StageTimings, StmtReport, SuiteResult,
};
use crate::movement::Placements;

impl Session {
    /// The body of [`Session::compile_suite`] and
    /// [`Session::compile_suite_cancellable`].
    pub(super) fn compile_suite_with_cancel<S: IntoProgram>(
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
                self.compile_programs(&refs, budget.clone(), Job::Cached(None))
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
        compiled: IrSuiteResult,
        programs: &[&Program],
        lower: Duration,
    ) -> SuiteResult {
        let IrSuiteResult {
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
    /// [`Job::Cached`].
    pub(super) fn compile_program(
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
                self.compile_frame(&[(&stmt, &placements)], budget, Job::Cached(key))
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
        let (leaves, _) = collect_suite_leaves(std::slice::from_ref(&annotated));
        let stmts = leaves.iter().map(|s| StmtReport {
            original: s.to_string(),
            lowered: false,
            eqsat: RunReport::default(),
        });
        let report = CompileReport {
            target: self.target.name().to_string(),
            stmts: stmts.collect(),
            outcome: CompileOutcome::FallbackUnoptimized,
            notes: vec![format!(
                "engine fault; spliced the unoptimized program: {cause}"
            )],
            total_time: started.elapsed(),
            ..CompileReport::default()
        };
        // The panic aborted the frame before its own recording point, so
        // this is the only place this compile's outcome lands in the
        // registry — exactly once, on the fallback rung.
        if let Some(obs) = &self.obs {
            obs.record_outcome(CompileOutcome::FallbackUnoptimized);
        }
        CompileResult {
            program: annotated,
            report,
        }
    }
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
