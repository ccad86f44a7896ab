//! The four workloads: what each compiles, through which entry point, and
//! how one timed round of it runs.
//!
//! All are closed loops driven by one generator thread: the next operation
//! starts when the previous one returned (`service_mixed` keeps a window of
//! two tickets outstanding, one per worker). `Pipeline`s are built once in
//! set-up; an operation starts at `lower`.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hardboiled_repro::hardboiled::{
    Batching, CompileOutcome, CompileResult, CompileService, ReportCache, Session, SessionBuilder,
    Ticket,
};
use hardboiled_repro::lang::{lower, Pipeline};

use crate::population::{small_programs, unrolled_programs, Mix, Spec};
use crate::rng::Rng;

/// Entries of the `service_mixed` report cache: a quarter of its 256
/// distinct programs, so hits and evictions both happen.
pub const CACHE_ENTRIES: usize = 64;
/// `service_mixed` workers, and tickets the generator keeps outstanding.
pub const SERVICE_WORKERS: usize = 2;

/// A workload's fixed parameters. `ops_per_round` never changes between a
/// parent commit and a change: it sizes a round to about half a second here.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ops_per_round: usize,
    /// The sessions its operations run on, `(target, batching)`: one, or
    /// one per service target.
    pub lanes: &'static [(&'static str, Batching)],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "interactive_small",
        why: "64 distinct 3-4-leaf programs, one lower+compile at a time, no cache: fixed per-compile costs dominate, so front-end, encode and per-graph set-up work shows and engine scaling does not",
        ops_per_round: 640,
        lanes: &[("sim", Batching::PerLeaf)],
    },
    Workload {
        name: "unrolled_large",
        why: "9 Fig.-6 unrolled conv1d programs (10-66 leaves) on a batched session: saturation and extraction do the work, so matcher, rebuild and extractor changes show and front-end changes do not",
        ops_per_round: 90,
        lanes: &[("sim", Batching::Batched)],
    },
    Workload {
        name: "suite_batched",
        why: "32-program suites through one compile_suite call: one large multi-root shared e-graph, so a change that helps big graphs but taxes small ones (or the reverse) splits this from interactive_small",
        ops_per_round: 28,
        lanes: &[("sim", Batching::Batched)],
    },
    Workload {
        name: "service_mixed",
        why: "CompileService, 2 workers, amx+wmma, shared 64-entry cache, 256 programs requested cube-skewed: the only workload with cache hit, insert/evict, dispatch and queue wait on the path, hits beside misses",
        ops_per_round: 1200,
        lanes: &[("amx", Batching::PerLeaf), ("wmma", Batching::PerLeaf)],
    },
];

/// Looks a workload up by its `BENCHMARK.json` name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the operations go through.
pub enum Engine {
    Session(Session),
    Service(CompileService),
}

/// One workload, set up: its programs, its round and its engine.
pub struct Bench {
    pub workload: &'static Workload,
    /// The distinct programs.
    pub specs: Vec<Spec>,
    /// `specs`, built.
    pub pipelines: Vec<Pipeline>,
    /// The distinct operations, each a run of programs compiled by one call
    /// (one program, or one suite).
    pub ops: Vec<Range<usize>>,
    /// One round: indices into `ops`, in issue order.
    pub sequence: Vec<usize>,
    pub engine: Engine,
}

/// What one timed round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub programs: usize,
    /// Per operation, from `lower` to the result in hand.
    pub latencies_ms: Vec<f64>,
    /// Operations that returned an error or `Busy`, or landed below
    /// `CompileOutcome::Saturated`.
    pub failed: usize,
    /// `service_mixed` only: the `submit` call alone, per operation.
    pub submit_ms: Vec<f64>,
}

/// A session for one lane of a workload, `configure`d further if need be.
#[must_use]
pub fn session(
    (target, batching): (&str, Batching),
    configure: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> Session {
    configure(Session::builder().target_name(target).batching(batching))
        .build()
        .expect("a built-in target and default budgets")
}

fn saturated(result: &CompileResult) -> bool {
    result.report.outcome == CompileOutcome::Saturated
}

impl Bench {
    /// Draws the workload's programs from `seed`, builds its engine and
    /// compiles every distinct operation once, so rule sets are built and
    /// (for the service) the cache holds its steady-state working set
    /// before the first timed operation. This whole function is `setup_s`.
    ///
    /// `round_fraction` scales the round (the `--smoke` mode); claims use 1.
    #[must_use]
    pub fn set_up(workload: &'static Workload, seed: u64, round_fraction: f64) -> Bench {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == workload.name)
            .expect("a listed workload");
        let mut rng = Rng::new(seed, index as u64);
        let round = ((workload.ops_per_round as f64 * round_fraction) as usize).max(1);
        let singles = |n: usize| (0..n).map(|i| i..i + 1).collect::<Vec<_>>();
        let cycle = |ops: usize| (0..round).map(|i| i % ops).collect::<Vec<_>>();

        let (specs, ops, sequence) = match workload.name {
            "interactive_small" => {
                let specs = small_programs(
                    &mut rng,
                    Mix {
                        per_family: [8; 7],
                        cuda_only: 8,
                    },
                );
                let n = specs.len();
                (specs, singles(n), cycle(n))
            }
            "unrolled_large" => {
                let ladder: Vec<i64> = (0..9).map(|i| 64 + 56 * i).collect();
                let specs = unrolled_programs(&mut rng, &ladder);
                let n = specs.len();
                (specs, singles(n), cycle(n))
            }
            "suite_batched" => {
                let mut specs = Vec::new();
                let mut ops = Vec::new();
                for _ in 0..4 {
                    let start = specs.len();
                    specs.extend(small_programs(
                        &mut rng,
                        Mix {
                            per_family: [4, 3, 3, 4, 4, 3, 3],
                            cuda_only: 4,
                        },
                    ));
                    specs.extend(unrolled_programs(&mut rng, &[64, 128, 192, 256]));
                    ops.push(start..specs.len());
                }
                let n = ops.len();
                (specs, ops, cycle(n))
            }
            "service_mixed" => {
                let specs = small_programs(
                    &mut rng,
                    Mix {
                        per_family: [32; 7],
                        cuda_only: 32,
                    },
                );
                let n = specs.len();
                // Cube skew: half of the requests go to the first eighth of
                // the programs, so the cache's quarter of the working set
                // serves most requests and still evicts. Every seed requests
                // the same multiset of ranks; it draws their order.
                let mut sequence: Vec<usize> = (0..round)
                    .map(|j| (((j as f64 + 0.5) / round as f64).powi(3) * n as f64) as usize)
                    .collect();
                rng.shuffle(&mut sequence);
                (specs, singles(n), sequence)
            }
            other => unreachable!("{other} is not in WORKLOADS"),
        };
        let engine = match workload.lanes {
            [lane] => Engine::Session(session(*lane, |b| b)),
            lanes => Engine::Service(
                lanes
                    .iter()
                    .fold(CompileService::builder(), |b, (target, _)| {
                        b.register_target(target)
                    })
                    .worker_threads(SERVICE_WORKERS)
                    .shared_cache(Arc::new(ReportCache::new(CACHE_ENTRIES)))
                    .build()
                    .expect("built-in targets"),
            ),
        };
        let pipelines = specs.iter().map(Spec::pipeline).collect();
        let bench = Bench {
            workload,
            specs,
            pipelines,
            ops,
            sequence,
            engine,
        };
        // Each result is dropped before the next compile, so the peak of
        // live memory does not depend on where the largest program falls.
        bench.for_each_compiled(|i, result| {
            assert!(
                result.is_ok(),
                "warm-up compile of {:?} failed",
                bench.specs[i]
            );
        });
        if matches!(bench.engine, Engine::Service(_)) {
            // The pass above left the cache holding its last programs, not
            // its hottest: replay part of the round to settle it.
            let _ = bench.run(&bench.sequence[..bench.sequence.len() / 4]);
        }
        bench
    }

    /// The lane of `workload.lanes` that operation `op` runs on.
    #[must_use]
    pub fn lane_of(&self, op: usize) -> usize {
        let target = self.specs[self.ops[op].start].service_target();
        match self.workload.lanes {
            [_] => 0,
            lanes => lanes
                .iter()
                .position(|(name, _)| *name == target)
                .expect("a lane per service target"),
        }
    }

    /// Compiles every distinct operation once through the workload's own
    /// entry point; one result per program, in `specs` order.
    #[must_use]
    pub fn compile_all(&self) -> Vec<Result<CompileResult, String>> {
        let mut out = Vec::with_capacity(self.specs.len());
        self.for_each_compiled(|_, result| out.push(result));
        out
    }

    /// [`Bench::compile_all`], handing each program's index and result to
    /// `f` as it is produced.
    pub fn for_each_compiled(&self, mut f: impl FnMut(usize, Result<CompileResult, String>)) {
        for op in &self.ops {
            match &self.engine {
                Engine::Session(session) if op.len() == 1 => f(
                    op.start,
                    session
                        .compile(&self.pipelines[op.start])
                        .map_err(|e| e.to_string()),
                ),
                Engine::Session(session) => {
                    match session.compile_suite(&self.pipelines[op.clone()]) {
                        Ok(suite) => {
                            for (i, r) in op.clone().zip(suite.results) {
                                f(i, r.map_err(|e| e.to_string()));
                            }
                        }
                        Err(e) => op.clone().for_each(|i| f(i, Err(e.to_string()))),
                    }
                }
                Engine::Service(service) => {
                    let i = op.start;
                    let result = lower(&self.pipelines[i])
                        .map_err(|e| e.to_string())
                        .and_then(|lowered| {
                            service
                                .submit(self.specs[i].service_target(), lowered)
                                .map_err(|e| e.to_string())
                        })
                        .and_then(|ticket| ticket.wait().map_err(|e| e.to_string()));
                    f(i, result);
                }
            }
        }
    }

    /// Runs one round, timing every operation.
    #[must_use]
    pub fn run_round(&self) -> Round {
        self.run(&self.sequence)
    }

    fn run(&self, sequence: &[usize]) -> Round {
        let mut round = Round {
            latencies_ms: Vec::with_capacity(sequence.len()),
            ..Round::default()
        };
        let started = Instant::now();
        match &self.engine {
            Engine::Session(session) => {
                for &op in sequence {
                    let programs = &self.pipelines[self.ops[op].clone()];
                    let t0 = Instant::now();
                    let ok = if let [one] = programs {
                        session.compile(one).is_ok_and(|r| saturated(&r))
                    } else {
                        session.compile_suite(programs).is_ok_and(|suite| {
                            suite
                                .results
                                .iter()
                                .all(|r| r.as_ref().is_ok_and(saturated))
                        })
                    };
                    round.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    round.failed += usize::from(!ok);
                    round.programs += programs.len();
                }
            }
            Engine::Service(service) => {
                // `Pipeline` is not `Send`, so the client lowers and the
                // service receives the lowered program.
                let mut outstanding = VecDeque::with_capacity(SERVICE_WORKERS);
                let settle = |(t0, ticket): (Instant, Option<Ticket>), round: &mut Round| {
                    let ok = ticket.is_some_and(|t| t.wait().is_ok_and(|r| saturated(&r)));
                    round.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    round.failed += usize::from(!ok);
                };
                for &op in sequence {
                    let i = self.ops[op].start;
                    let t0 = Instant::now();
                    let ticket = lower(&self.pipelines[i]).ok().and_then(|lowered| {
                        let t1 = Instant::now();
                        let ticket = service.submit(self.specs[i].service_target(), lowered);
                        round.submit_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                        ticket.ok()
                    });
                    outstanding.push_back((t0, ticket));
                    if outstanding.len() == SERVICE_WORKERS {
                        settle(outstanding.pop_front().expect("non-empty"), &mut round);
                    }
                    round.programs += 1;
                }
                for pending in outstanding {
                    settle(pending, &mut round);
                }
            }
        }
        round.wall_s = started.elapsed().as_secs_f64();
        round
    }
}
