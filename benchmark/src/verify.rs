//! The verification pass: every distinct program of a workload, compiled
//! through the workload's own entry point, must compute what the
//! hand-written scalar reference computes.
//!
//! Untimed. A program that misses any check is reported as failed, and
//! every timed operation that compiles it counts as a failed operation.

use std::time::Instant;

use hardboiled_repro::accel::counters::CostCounters;
use hardboiled_repro::accel::perf::estimate;
use hardboiled_repro::apps::harness::max_rel_error;
use hardboiled_repro::exec::Interp;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{CompileOutcome, CompileResult};
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::MemoryType;
use hardboiled_repro::lang::{lower, Lowered};

use crate::population::{Spec, TOLERANCE};
use crate::staged::ir_nodes;
use crate::workloads::{Bench, Engine};

/// What verification learnt about one distinct program.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// `None` when every check passed, else the first that did not.
    pub failure: Option<String>,
    /// Whether the schedule asked for a tensor unit (see
    /// [`Spec::uses_tensor_unit`]).
    pub uses_tensor_unit: bool,
    /// The selected program with its temporaries renumbered, for the
    /// staged-path identity check.
    pub text: String,
    pub saturated_stmts: usize,
    pub lowered_stmts: usize,
    pub selected_ir_nodes: u64,
    /// Counters of the selected program's simulated run.
    pub counters: CostCounters,
    /// Modeled time the selected program keeps the session's device's
    /// compute units busy (tensor unit + general-purpose cores). The
    /// roofline total is not used: at shapes the interpreter can run, every
    /// kernel is DRAM- or launch-bound and the total would not move if the
    /// selector stopped selecting.
    pub compute_ns: f64,
    /// The same for the lowered program the selector was given.
    pub unselected_compute_ns: f64,
    /// Wall time of the selected program's simulated run.
    pub exec_ms: f64,
}

fn execute(
    lowered: &Lowered,
    program: &Stmt,
    inputs: &[(&'static str, Vec<f64>)],
) -> Result<(Vec<f64>, CostCounters), String> {
    let mut it = Interp::new();
    for (name, elem, len) in &lowered.inputs {
        let data = inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
            .ok_or_else(|| format!("no input named {name}"))?;
        if data.len() != *len as usize {
            return Err(format!("input {name}: {} elements, not {len}", data.len()));
        }
        it.mem
            .alloc_init(name, *elem, MemoryType::Heap, data)
            .map_err(|e| e.to_string())?;
    }
    it.mem
        .alloc(
            &lowered.output_name,
            lowered.output_elem,
            lowered.output_len as usize,
            MemoryType::Heap,
        )
        .map_err(|e| e.to_string())?;
    it.run_kernel(program).map_err(|e| e.to_string())?;
    let output = it
        .mem
        .snapshot(&lowered.output_name)
        .map_err(|e| e.to_string())?;
    Ok((output, it.counters()))
}

fn check(
    bench: &Bench,
    spec: &Spec,
    lowered: &Lowered,
    first: &CompileResult,
    second: &CompileResult,
    out: &mut Verified,
) -> Result<(), String> {
    if first.report.outcome != CompileOutcome::Saturated {
        return Err(format!("outcome {:?}", first.report.outcome));
    }
    out.text = normalize_temps(&first.program.to_string());
    if out.text != normalize_temps(&second.program.to_string()) {
        return Err("two compiles selected different programs".into());
    }
    out.saturated_stmts = first.report.stmts.len();
    out.lowered_stmts = first.report.stmts.iter().filter(|s| s.lowered).count();
    out.selected_ir_nodes = ir_nodes(&first.program);

    let inputs = spec.inputs();
    let want = spec.reference();
    let started = Instant::now();
    let (got, counters) = execute(lowered, &first.program, &inputs)?;
    out.exec_ms = started.elapsed().as_secs_f64() * 1e3;
    let (plain, plain_counters) = execute(lowered, &lowered.stmt, &inputs)?;
    if got.len() != want.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            got.len(),
            want.len()
        ));
    }
    // `max_rel_error` folds with `f64::max`, which drops NaN: a program
    // that computes NaN must not pass for computing nothing wrong.
    if !got.iter().all(|v| v.is_finite()) {
        return Err("selected program computed a non-finite value".into());
    }
    let error = max_rel_error(&got, &want);
    if error >= TOLERANCE {
        return Err(format!("selected program is {error:.3} off the reference"));
    }
    let drift = max_rel_error(&got, &plain);
    if drift >= TOLERANCE {
        return Err(format!("selected program is {drift:.3} off its own input"));
    }

    let device = match &bench.engine {
        Engine::Session(session) => session.target().device().clone(),
        Engine::Service(service) => service
            .session(spec.service_target())
            .expect("registered in set_up")
            .target()
            .device()
            .clone(),
    };
    let compute_ns = |c: &CostCounters| {
        let t = estimate(c, &device);
        (t.tensor_s + t.cuda_s) * 1e9
    };
    out.counters = counters;
    out.compute_ns = compute_ns(&counters);
    out.unselected_compute_ns = compute_ns(&plain_counters);
    Ok(())
}

/// Verifies every distinct program of `bench`; one entry per program, in
/// `bench.specs` order.
#[must_use]
pub fn verify(bench: &Bench) -> Vec<Verified> {
    let first = bench.compile_all();
    let second = bench.compile_all();
    bench
        .specs
        .iter()
        .zip(&bench.pipelines)
        .zip(first.iter().zip(&second))
        .map(|((spec, pipeline), (first, second))| {
            let mut out = Verified {
                uses_tensor_unit: spec.uses_tensor_unit(),
                ..Verified::default()
            };
            let result = match (lower(pipeline), first, second) {
                (Ok(lowered), Ok(first), Ok(second)) => {
                    check(bench, spec, &lowered, first, second, &mut out)
                }
                (Err(e), ..) => Err(e.to_string()),
                (_, Err(e), _) | (_, _, Err(e)) => Err(e.clone()),
            };
            out.failure = result.err().map(|why| format!("{spec:?}: {why}"));
            out
        })
        .collect()
}
