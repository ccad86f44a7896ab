//! Compile-and-run harness: lowers a pipeline, runs HARDBOILED instruction
//! selection through a [`Session`], executes it on the
//! simulator, and reports outputs, cost counters and runtime estimates.

use hardboiled::{CompileReport, Session};
use hb_accel::counters::CostCounters;
use hb_accel::device::DeviceProfile;
use hb_accel::perf::{estimate, TimeEstimate};
use hb_exec::buffer::{ExecError, ExecResult};
use hb_exec::Interp;
use hb_ir::types::MemoryType;
use hb_lang::lower::{lower, Lowered};
use hb_lang::Pipeline;

use std::time::{Duration, Instant};

/// Result of one compile+run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Output buffer contents.
    pub output: Vec<f64>,
    /// Cost counters of the simulated execution.
    pub counters: CostCounters,
    /// Unified compilation report (`None` if the selector was skipped).
    pub selection: Option<CompileReport>,
    /// Wall-clock compile time (lowering + selection).
    pub compile_time: Duration,
}

impl RunResult {
    /// Roofline runtime estimate on a device.
    #[must_use]
    pub fn time_on(&self, device: &DeviceProfile) -> TimeEstimate {
        estimate(&self.counters, device)
    }
}

/// Compiles a pipeline through a caller-provided [`Session`] and executes
/// it with the given inputs. The session is reused across calls, so its
/// compiled rule set is paid for once.
///
/// # Errors
///
/// Fails on lowering or execution errors.
pub fn compile_and_run_with(
    session: &Session,
    pipeline: &Pipeline,
    inputs: &[(&str, &[f64])],
) -> ExecResult<RunResult> {
    let started = Instant::now();
    let lowered = lower(pipeline).map_err(|e| ExecError(e.to_string()))?;
    let result = session
        .compile(&lowered)
        .map_err(|e| ExecError(e.to_string()))?;
    let compile_time = started.elapsed();

    let mut it = Interp::new();
    alloc_io(&mut it, &lowered, inputs)?;
    it.run_kernel(&result.program)?;
    let output = it.mem.snapshot(&lowered.output_name)?;
    Ok(RunResult {
        output,
        counters: it.counters(),
        selection: Some(result.report),
        compile_time,
    })
}

/// Lowers and selects through a caller-provided session without executing
/// (for compile-time measurements, Fig. 6).
///
/// # Errors
///
/// Fails on lowering errors.
pub fn compile_only_with(
    session: &Session,
    pipeline: &Pipeline,
) -> Result<(Lowered, CompileReport), ExecError> {
    let lowered = lower(pipeline).map_err(|e| ExecError(e.to_string()))?;
    let result = session
        .compile(&lowered)
        .map_err(|e| ExecError(e.to_string()))?;
    Ok((lowered, result.report))
}

/// Lowers and selects with the default session without executing.
///
/// # Errors
///
/// Fails on lowering errors.
pub fn compile_only(pipeline: &Pipeline) -> Result<(Lowered, CompileReport), ExecError> {
    compile_only_with(&Session::default(), pipeline)
}

fn alloc_io(it: &mut Interp, lowered: &Lowered, inputs: &[(&str, &[f64])]) -> ExecResult<()> {
    for (name, elem, len) in &lowered.inputs {
        let data: Vec<f64> = inputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.to_vec())
            .unwrap_or_else(|| vec![0.0; *len as usize]);
        if data.len() != *len as usize {
            return Err(ExecError(format!(
                "input {name}: expected {len} elements, got {}",
                data.len()
            )));
        }
        it.mem.alloc_init(name, *elem, MemoryType::Heap, &data)?;
    }
    it.mem.alloc(
        &lowered.output_name,
        lowered.output_elem,
        lowered.output_len as usize,
        MemoryType::Heap,
    )?;
    Ok(())
}

/// Maximum relative error between two buffers (denominator floored at 1).
///
/// Never reads as "close" for an output that is not one: buffers of
/// different lengths are `∞` apart, and an element that is NaN (or an
/// infinity the other side does not share) makes the result NaN or `∞` —
/// both fail every `error < tolerance` check.
#[must_use]
pub fn max_rel_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want.iter())
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        // `f64::max` drops NaN; keep it.
        .fold(0.0, |worst: f64, e| {
            if worst.is_nan() || e.is_nan() {
                f64::NAN
            } else {
                worst.max(e)
            }
        })
}

/// Deterministic pseudo-random test data in roughly `[-1, 1]`.
#[must_use]
pub fn test_data(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64).mul_add(2.0, -1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_data_is_deterministic_and_bounded() {
        let a = test_data(128, 42);
        let b = test_data(128, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        let c = test_data(128, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn max_rel_error_basics() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_rel_error(&[1.1], &[1.0]) > 0.09);
    }

    #[test]
    fn max_rel_error_does_not_hide_non_finite_outputs() {
        // A NaN anywhere — first, middle or last — must survive the fold.
        for at in 0..3 {
            let mut got = [1.0, 2.0, 3.0];
            got[at] = f64::NAN;
            let err = max_rel_error(&got, &[1.0, 2.0, 3.0]);
            assert!(err.is_nan(), "NaN at {at} read as error {err}");
            let passes = err < 0.08;
            assert!(!passes, "a NaN output passed the tolerance check");
        }
        assert_eq!(
            max_rel_error(&[f64::INFINITY, 1.0], &[1.0, 1.0]),
            f64::INFINITY
        );
        assert!(max_rel_error(&[1.0], &[f64::NAN]).is_nan());
    }

    #[test]
    fn max_rel_error_rejects_length_mismatch() {
        // `zip` would compare the common prefix and call these equal.
        assert_eq!(max_rel_error(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0]), f64::INFINITY);
        assert_eq!(max_rel_error(&[], &[1.0]), f64::INFINITY);
        assert_eq!(max_rel_error(&[], &[]), 0.0);
    }
}
