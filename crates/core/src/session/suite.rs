//! Fault isolation above the frame, which itself degrades an engine fault
//! in its units to the unoptimized program: the suite's per-program retry
//! of a faulted shared run, and the request-level `catch_unwind` that
//! turns a panic outside any unit into [`CompileError::Engine`].
//!
//! A suite holds each program once. Its fast path moves every lowered
//! statement into one frame, which owns and annotates it; the programs
//! keep only their placements, which the frame reads, and their notes,
//! which `split_suite` moves into each program's report. When the shared
//! run faults in a unit or panics outside one, the isolated path lowers
//! the sources again with [`IntoProgram::to_program`], the call the suite
//! made once already, and compiles program by program. Lowering is
//! deterministic, so the retry compiles the programs the shared run saw;
//! its time goes into [`StageTimings::lower`] and the `stage.lower_ns`
//! histogram. The suite report opens with a note naming the fault, and
//! the `compile.suite_retries` counter counts the retry once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hb_egraph::schedule::{Budget, CancelToken};
use hb_ir::stmt::Stmt;

use super::frame::Job;
use super::{
    CompileError, CompileReport, CompileResult, IntoProgram, IrSuiteResult, Program, Session,
    StageTimings, SuiteResult,
};
use crate::cache::CacheOutcome;
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
        let mut lowered: Vec<Result<Program, CompileError>> =
            sources.iter().map(IntoProgram::to_program).collect();
        let mut lower = lower_span.finish();
        if let Some(obs) = &self.obs {
            obs.stage_lower.observe_duration(lower);
        }

        // Fast path: every program lowered and the whole-suite compile (one
        // shared e-graph in batched mode) survives. The frame takes each
        // program's statement; its placements and notes stay for the frame
        // to read and `split_suite` to hand out.
        let mut notes = Vec::new();
        if lowered.iter().all(Result::is_ok) {
            let mut programs: Vec<Program> = lowered.into_iter().flatten().collect();
            let stmts: Vec<(Stmt, &Placements)> = (programs.iter_mut())
                .map(|p| {
                    let stmt = std::mem::replace(&mut p.stmt, Stmt::Block(Vec::new()));
                    (stmt, &p.placements)
                })
                .collect();
            let shared = catch_unwind(AssertUnwindSafe(|| {
                self.compile_frame(stmts, budget.clone(), Job::Cached)
            }));
            let cause = match shared {
                Ok(compiled) => match compiled.fault {
                    None => return Ok(self.split_suite(compiled, programs, lower)),
                    Some(cause) => cause,
                },
                Err(payload) => panic_message(&*payload),
            };
            // A fault falls through to the isolated path, counted once as a
            // retry (not on the fallback rung: the retries count their own
            // outcomes) and noted on the suite report. The path lowers the
            // sources again: the frame consumed their statements, and
            // lowering is deterministic, so the retry sees the programs the
            // shared run saw. The fault plan counters (chaos tests) and
            // transient faults have moved on, so surviving programs
            // recompile.
            let relower_span = self.tracer.span("lower");
            lowered = sources.iter().map(IntoProgram::to_program).collect();
            let relower = relower_span.finish();
            lower += relower;
            if let Some(obs) = &self.obs {
                obs.stage_lower.observe_duration(relower);
                obs.suite_retries.inc();
            }
            notes.push(format!(
                "shared suite run faulted; retried program by program: {cause}"
            ));
        }

        // Isolated path: one frame per program, errors confined to their
        // slot, all programs sharing the call-level budget. The suite
        // report sums what the frames report and takes their units and
        // extraction reports, as `split_suite`'s report holds them.
        let mut report = CompileReport {
            target: self.target.name().to_string(),
            stages: StageTimings {
                lower,
                ..StageTimings::default()
            },
            notes,
            ..CompileReport::default()
        };
        let mut results = Vec::with_capacity(lowered.len());
        for lowered_program in lowered {
            results.push(lowered_program.and_then(|program| {
                let mut compiled = self.compile_program(program, budget.clone())?;
                let own = &mut compiled.report;
                report.outcome = report.outcome.worst(own.outcome);
                report.stmts.extend(own.stmts.iter().cloned());
                report.units.append(&mut own.units);
                if let Some(own_extraction) = own.extraction.take() {
                    let extraction = report.extraction.get_or_insert_with(Default::default);
                    extraction.table_entries += own_extraction.table_entries;
                    extraction.root_costs.extend(own_extraction.root_costs);
                    extraction.readout_time += own_extraction.readout_time;
                }
                report.cache = match (report.cache, own.cache) {
                    (CacheOutcome::Bypass, cache) | (cache, CacheOutcome::Bypass) => cache,
                    (CacheOutcome::Hit, CacheOutcome::Hit) => CacheOutcome::Hit,
                    _ => CacheOutcome::Miss,
                };
                report.notes.extend(own.notes.iter().cloned());
                report.stages.encode += own.stages.encode;
                report.stages.saturate += own.stages.saturate;
                report.stages.extract += own.stages.extract;
                report.stages.splice += own.stages.splice;
                Ok(compiled)
            }));
        }
        report.total_time = lower_started.elapsed();
        Ok(SuiteResult { results, report })
    }

    /// Splits a whole-suite compile into per-program results sharing the
    /// suite-level report (per-program slices of the statement reports;
    /// timings, the units and extraction stats stay suite-level). Each
    /// program's notes move into its own report; the suite report holds a
    /// copy of every program's.
    fn split_suite(
        &self,
        compiled: IrSuiteResult,
        programs: Vec<Program>,
        lower: Duration,
    ) -> SuiteResult {
        let IrSuiteResult {
            programs: selected,
            mut report,
            leaf_counts,
            ..
        } = compiled;
        report.stages.lower = lower;
        report.total_time += lower;
        for p in &programs {
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
                    units: Vec::new(),
                    extraction: None,
                    outcome: report.outcome,
                    stages: report.stages,
                    total_time: report.total_time,
                    cache: report.cache,
                    snapshot_restore: report.snapshot_restore,
                    notes: program.notes,
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

    /// One lowered program through the pipeline, which it owns: the frame
    /// annotates it in place and degrades an engine fault in any of its
    /// units to the unoptimized program (counted here, once, on the
    /// fallback rung); a panic outside a unit becomes
    /// [`CompileError::Engine`]. Its front-end notes go on its report.
    pub(super) fn compile_program(
        &self,
        program: Program,
        budget: Budget,
    ) -> Result<CompileResult, CompileError> {
        let Program {
            stmt,
            placements,
            notes,
        } = program;
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            self.compile_frame(vec![(stmt, &placements)], budget, Job::Cached)
        }))
        .map_err(|payload| CompileError::Engine(panic_message(&*payload)))?;
        self.record_fault(&compiled);
        let IrSuiteResult {
            mut programs,
            mut report,
            ..
        } = compiled;
        report.notes.extend(notes);
        let program = programs.pop().expect("one program in, one program out");
        Ok(CompileResult { program, report })
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
