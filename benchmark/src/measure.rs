//! The end-to-end run of one workload (`--trace 0`): set-up, verification,
//! timed rounds with tracing and allocation counting off (and a fresh timed
//! set-up every few rounds), then one counted set-up + round for
//! `peak_live_bytes`.

use std::time::Instant;

use crate::alloc;
use crate::metrics::RunResult;
use crate::stats::{geomean, median, percentile};
use crate::verify::{verify, Verified};
use crate::workloads::{Bench, Round, Workload};

/// A timed run sets up afresh before every this many rounds, so its
/// set-ups (five in 20 s) are spread over the run like its rounds are.
const SETUP_EVERY: usize = 8;
/// Timed rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Which of a run's rounds (and set-ups) speaks for it: the one a tenth of
/// the way in from the fast end. The rounds of one run do the same work,
/// and what sets them apart on this two-vCPU guest is interference from
/// outside, which only ever slows a round: it comes in bursts of seconds to
/// minutes and takes up to a fifth of the speed. Measured over 12 runs of
/// one seed in such a phase, the rounds' median ranged over 30% and this
/// round over 9%.
const FAST_END: f64 = 0.1;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Seconds of timed rounds.
    pub seconds: f64,
    /// One round of a tenth of the operations: a quick local check, never
    /// a source of claims.
    pub smoke: bool,
}

impl Options {
    pub(crate) fn round_fraction(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }
}

/// Operations of `round` that compile a program verification rejected.
fn unverified_ops(bench: &Bench, verified: &[Verified]) -> usize {
    bench
        .sequence
        .iter()
        .filter(|&&op| bench.ops[op].clone().any(|i| verified[i].failure.is_some()))
        .count()
}

pub(crate) fn report_failures(verified: &[Verified]) {
    for failure in verified.iter().filter_map(|v| v.failure.as_ref()) {
        println!("FAILED verification: {failure}");
    }
}

/// One set-up and one round with the counting allocator on.
#[derive(Debug)]
pub struct Counted {
    pub round: Round,
    /// High-water mark of heap bytes live above the level before set-up:
    /// programs, session or service, rule sets, cache and the compiler's
    /// working memory.
    pub peak_live_bytes: u64,
    /// Allocations of set-up and round together.
    pub allocs: u64,
}

/// Sets `workload` up afresh and runs one round, counting allocations.
#[must_use]
pub fn counted_round(workload: &'static Workload, options: Options) -> Counted {
    let before = alloc::counters();
    alloc::start();
    let bench = Bench::set_up(workload, options.seed, options.round_fraction());
    let round = bench.run_round();
    drop(bench);
    alloc::stop();
    Counted {
        round,
        peak_live_bytes: alloc::peak_live_bytes(),
        allocs: (alloc::counters() - before).allocs,
    }
}

/// Runs `workload` end to end and reports every end-to-end metric.
#[must_use]
pub fn end_to_end(workload: &'static Workload, options: Options) -> RunResult {
    let mut setup_s = Vec::new();
    let mut set_up = || {
        let started = Instant::now();
        let bench = Bench::set_up(workload, options.seed, options.round_fraction());
        setup_s.push(started.elapsed().as_secs_f64());
        bench
    };
    let mut bench = set_up();

    let verified = verify(&bench);
    report_failures(&verified);
    let unverified_per_round = unverified_ops(&bench, &verified);

    let (min_rounds, seconds) = if options.smoke {
        (1, 0.0)
    } else {
        (MIN_ROUNDS, options.seconds)
    };
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    while rounds.len() < min_rounds || started.elapsed().as_secs_f64() < seconds {
        if !rounds.is_empty() && rounds.len().is_multiple_of(SETUP_EVERY) {
            // The old engine goes first: a service joins its workers.
            drop(bench);
            bench = set_up();
        }
        rounds.push(bench.run_round());
    }
    drop(bench);
    let counted = counted_round(workload, options);

    let attempted: usize = rounds.iter().map(|r| r.latencies_ms.len()).sum();
    // An operation fails at run time or by compiling a program that
    // verification rejected; how the two sets overlap is not tracked, so
    // the larger of them is the count.
    let failed: usize = rounds
        .iter()
        .map(|r| r.failed.max(unverified_per_round))
        .sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let speedups: Vec<f64> = verified
        .iter()
        .filter(|v| v.uses_tensor_unit && v.failure.is_none())
        .map(|v| v.unselected_compute_ns / v.compute_ns)
        .collect();
    let saturated: usize = verified.iter().map(|v| v.saturated_stmts).sum();
    let lowered: usize = verified.iter().map(|v| v.lowered_stmts).sum();
    let fast_end = |values: &[f64], lower_is_better: bool| {
        percentile(
            values,
            if lower_is_better {
                FAST_END
            } else {
                1.0 - FAST_END
            },
        )
    };

    println!(
        "{}: {} rounds of {} ops, {} timed ops, counted round {:.3} s vs timed {:.3} s",
        workload.name,
        rounds.len(),
        counted.round.latencies_ms.len(),
        attempted,
        counted.round.wall_s,
        median(&per_round(&|r| r.wall_s)),
    );
    RunResult {
        correct: failed == 0 && verified.iter().all(|v| v.failure.is_none()),
        attempted,
        failed,
        values: vec![
            ("setup_s", fast_end(&setup_s, true)),
            (
                "programs_per_s",
                fast_end(&per_round(&|r| r.programs as f64 / r.wall_s), false),
            ),
            (
                "latency_ms_p50",
                fast_end(&per_round(&|r| median(&r.latencies_ms)), true),
            ),
            (
                "latency_ms_p95",
                fast_end(&per_round(&|r| percentile(&r.latencies_ms, 0.95)), true),
            ),
            (
                "lowered_stmt_share",
                lowered as f64 / saturated.max(1) as f64,
            ),
            (
                "modeled_compute_speedup",
                if speedups.is_empty() {
                    0.0
                } else {
                    geomean(&speedups)
                },
            ),
            ("peak_live_bytes", counted.peak_live_bytes as f64),
        ],
    }
}
