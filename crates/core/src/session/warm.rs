//! The snapshot path: export a saturated suite graph, restore one and
//! warm-start a compile from it. The only part of the session that
//! restores a graph or can reject a snapshot.

use hb_ir::stmt::Stmt;

use super::frame::{CompileCtx, Job};
use super::{IrSuiteResult, Session};
use crate::cache::{SuiteSnapshot, WarmRejection};
use crate::lang::HbGraph;
use crate::movement::Placements;

impl Session {
    /// [`Session::compile_ir_suite`] that additionally exports the
    /// saturated suite e-graph as a [`SuiteSnapshot`] for later
    /// warm-starts. The snapshot is `Some` only when the session runs
    /// [`Batching::Batched`](super::Batching::Batched) (per-leaf mode has
    /// no shared graph to snapshot) and the run completed its schedule (a
    /// budget-truncated graph would warm-start future compiles
    /// unsaturated). Exporting compiles bypass the report cache — the
    /// caller wants the graph, not a memoized answer.
    #[must_use]
    pub fn compile_ir_suite_exporting(
        &self,
        programs: &[(&Stmt, &Placements)],
    ) -> (IrSuiteResult, Option<SuiteSnapshot>) {
        let mut snapshot = None;
        let budget = self.request_budget(None);
        let compiled = self.compile_frame(programs, budget, Job::Export(&mut snapshot));
        (compiled, snapshot)
    }

    /// Warm-start suite compile: restores the saturated suite e-graph
    /// from `snapshot`, hash-conses the request's leaves into it (known
    /// leaves dedup into already-saturated classes; new leaves become
    /// the semi-naive delta), saturates only from the warm epoch, and
    /// extracts — selecting programs **byte-identical** to a cold
    /// [`Session::compile_ir_suite`] while searching strictly fewer
    /// relation rows (see `RunReport::delta_probed_rows`).
    ///
    /// Warm-start degrades, it never fails: a corrupted, truncated or
    /// version-mismatched snapshot, or one exported under a different
    /// policy fingerprint, yields a clean cold compile — exactly
    /// [`Session::compile_ir_suite`]'s — plus the typed [`WarmRejection`]
    /// explaining why. On the warm path the report carries the restore
    /// time in
    /// [`CompileReport::snapshot_restore`](super::CompileReport::snapshot_restore)
    /// and the compile bypasses the report cache.
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
        let mut ctx = Box::new(CompileCtx {
            graph: HbGraph::restore(&snapshot.engine).map_err(WarmRejection::Snapshot)?,
            ..CompileCtx::default()
        });
        let restore = restore_span.finish();
        // Everything in the restored graph predates the warm epoch: the
        // delta the saturation loop re-searches is exactly what the new
        // leaves add.
        let warm = ctx.graph.bump_epoch();
        let budget = self.request_budget(None);
        let mut result = self.compile_frame(programs, budget, Job::Warm(ctx, warm));
        result.report.snapshot_restore = Some(restore);
        Ok(result)
    }
}
