//! # hb-bench — harnesses regenerating every table and figure of the paper
//!
//! One binary per experiment under `src/bin/`, printing the same rows and
//! series the paper reports, plus the shared selector workload pool
//! ([`workloads`]) whose deterministic counts and identity oracles
//! `tests/pool.rs` and `tests/cache_keystone.rs` pin. Nothing here times a
//! compile (`fig6_compile_time` prints the durations a `CompileReport`
//! carries): performance is read from `benchmark/` at the repo root.

pub mod micro;
pub mod workloads;

use hb_accel::counters::CostCounters;
use hb_accel::device::DeviceProfile;
use hb_accel::perf::{estimate, TimeEstimate};

/// Formats a time estimate like the paper's bar labels: `1.23 ms (C)`.
#[must_use]
pub fn fmt_ms(t: &TimeEstimate) -> String {
    format!("{:.3} ms ({})", t.millis(), t.bound())
}

/// Formats in microseconds.
#[must_use]
pub fn fmt_us(t: &TimeEstimate) -> String {
    format!("{:.1} us ({})", t.micros(), t.bound())
}

/// Estimate on a device.
#[must_use]
pub fn on(c: &CostCounters, d: &DeviceProfile) -> TimeEstimate {
    estimate(c, d)
}
