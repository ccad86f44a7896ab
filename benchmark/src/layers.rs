//! The traced run of one workload (`--trace 1`): every per-layer metric,
//! measured from outside.
//!
//! Passes over the workload's distinct operations alternate between the
//! plain path (`lower` + `Session::compile`, nothing attached) and the
//! staged path of [`crate::staged`] under a benchmark-owned tracer. Timings
//! come from those uncounted passes; one further staged pass and one
//! further session pass run with the counting allocator on and supply the
//! allocation counts. Layers that only `service_mixed` (cache, service) or
//! only `suite_batched` (snapshots) exercises are measured there and read 0
//! elsewhere.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hardboiled_repro::accel::target::by_name as target_by_name;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::rules::RuleSet;
use hardboiled_repro::hardboiled::{
    canonical_program_hash, Batching, CacheOutcome, CompileReport, HbGraph, MetricsRegistry,
    NullSink, Placements, ReportCache, Session,
};
use hardboiled_repro::ir::simplify::simplify_stmt;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::{lower, Lowered};
use hardboiled_repro::obs::{SpanRecord, Tracer};

use crate::alloc;
use crate::measure::{report_failures, Options};
use crate::metrics::{RunResult, Values, PER_LAYER};
use crate::staged::{Counts, Stager};
use crate::stats::median;
use crate::verify::{verify, Verified};
use crate::workloads::{session, Bench, Engine, Workload, CACHE_ENTRIES, SERVICE_WORKERS};

/// One target's plain session and the same layers held apart.
struct Lane {
    session: Session,
    stager: Stager,
    /// `stager` with the engine's profiling callbacks attached.
    profiled: Stager,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn lowered_of(bench: &Bench, op: usize) -> Vec<Lowered> {
    bench.pipelines[bench.ops[op].clone()]
        .iter()
        .map(|p| lower(p).expect("lowered in set-up already"))
        .collect()
}

/// `Session::compile` or `compile_suite`, by how many programs the
/// operation holds; the call's report.
fn session_compile(session: &Session, programs: &[Lowered]) -> CompileReport {
    let compiled = "compiled in set-up already";
    if let [one] = programs {
        black_box(session.compile(one).expect(compiled)).report
    } else {
        black_box(session.compile_suite(programs).expect(compiled)).report
    }
}

/// Per-operation samples of one kind of pass.
#[derive(Default)]
struct Samples {
    /// Milliseconds per operation, by span name.
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value_ms: f64) {
        self.by_name.entry(name).or_default().push(value_ms);
    }

    fn p50(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| median(v))
    }

    fn sum(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// The spans of one staged pass folded into per-operation samples: every
/// span directly below an `op` span adds to that operation's total for its
/// name. Returns the share of each `op` span its children cover.
fn fold_spans(records: &[SpanRecord], into: &mut Samples) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.name != "op") {
        if let Some(parent) = r.parent {
            *per_op.entry(parent).or_default().entry(r.name).or_default() += ms(r.duration());
        }
    }
    let mut coverage = Vec::new();
    for op in records.iter().filter(|r| r.name == "op") {
        let children = per_op.remove(&op.id).unwrap_or_default();
        let covered: f64 = children.values().sum();
        coverage.push(covered / ms(op.duration()));
        into.push("op", ms(op.duration()));
        for name in STAGES {
            into.push(name, children.get(name).copied().unwrap_or(0.0));
        }
    }
    coverage
}

/// Span names below an `op` span, in pipeline order.
const STAGES: [&str; 9] = [
    "lang.lower",
    "core.movement.annotate",
    "core.encode",
    "egraph.saturate",
    "egraph.extract.solve",
    "egraph.extract.readout",
    "core.decode",
    "core.postprocess.materialize",
    "core.session.splice",
];

/// Writes spans as a JSON array, one object per span; self time is the
/// span's duration minus what its direct children cover.
fn write_trace(path: &std::path::Path, records: &[SpanRecord]) -> std::io::Result<()> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_ns.entry(parent).or_default() += r.end_ns.saturating_sub(r.start_ns);
        }
    }
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let duration = r.end_ns.saturating_sub(r.start_ns);
        let self_ns = duration.saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        let op = r
            .attrs
            .iter()
            .find(|(k, _)| *k == "op")
            .map_or("null", |(_, v)| v.as_str());
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            out,
            r#"  {{"id": {}, "parent": {parent}, "op": {op}, "name": "{}", "start_ns": {}, "end_ns": {}, "self_ns": {self_ns}}}{comma}"#,
            r.id, r.name, r.start_ns, r.end_ns
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

struct Tracing<'a> {
    bench: &'a Bench,
    lanes: Vec<Lane>,
    tracer: Tracer,
    verified: &'a [Verified],
}

impl Tracing<'_> {
    fn lane(&self, op: usize) -> &Lane {
        &self.lanes[self.bench.lane_of(op)]
    }

    /// One pass of the real path, nothing attached: `lower`, then the
    /// session call on the lowered programs.
    fn plain_pass(&self, into: &mut Samples, stage_sum_ms: &mut f64) {
        for op in 0..self.bench.ops.len() {
            let t0 = Instant::now();
            let lowered = lowered_of(self.bench, op);
            let lower_ms = ms(t0.elapsed());
            let t1 = Instant::now();
            let report = session_compile(&self.lane(op).session, &lowered);
            let compile_ms = ms(t1.elapsed());
            into.push("lang.lower", lower_ms);
            into.push("core.session.compile", compile_ms);
            into.push("op", lower_ms + compile_ms);
            let s = report.stages;
            *stage_sum_ms += ms(s.lower + s.encode + s.saturate + s.extract + s.splice);
        }
    }

    /// One pass of the staged path under the tracer. Returns the
    /// operations whose program differs from the session's.
    fn staged_pass(&self, profiled: bool, counts: &mut Counts, lower_allocs: &mut u64) -> usize {
        let mut mismatches = 0;
        for op in 0..self.bench.ops.len() {
            let mut op_span = self.tracer.span("op");
            op_span.attr("op", op);
            let span = self.tracer.span("lang.lower");
            let before = alloc::counters();
            let lowered = lowered_of(self.bench, op);
            *lower_allocs += (alloc::counters() - before).allocs;
            span.finish();
            let lane = self.lane(op);
            let stager = if profiled {
                &lane.profiled
            } else {
                &lane.stager
            };
            let selected = stager.compile(&lowered, counts);
            op_span.finish();

            let same = selected
                .iter()
                .zip(&self.verified[self.bench.ops[op].clone()])
                .all(|(stmt, v)| normalize_temps(&stmt.to_string()) == v.text);
            mismatches += usize::from(!same);
        }
        mismatches
    }

    /// Functions with no place on the compile path of their own, timed per
    /// operation on its lowered programs.
    fn side_pass(&self, into: &mut Samples) {
        for op in 0..self.bench.ops.len() {
            let lowered = lowered_of(self.bench, op);
            let t0 = Instant::now();
            for l in &lowered {
                black_box(simplify_stmt(&l.stmt));
            }
            into.push("ir.simplify_stmt", ms(t0.elapsed()));
            let t0 = Instant::now();
            for l in &lowered {
                black_box(canonical_program_hash(&l.stmt, &l.placements));
            }
            into.push("core.cache.hash", ms(t0.elapsed()));
        }
    }
}

/// Plain sessions against the same sessions with an enabled tracer, a
/// metrics registry and a profile sink attached, on the same operations:
/// the share of time observability adds.
fn obs_overhead(bench: &Bench) -> f64 {
    let tracer = Tracer::new();
    let sessions = |observed: bool| -> Vec<Session> {
        let lanes = bench.workload.lanes.iter();
        lanes
            .map(|&lane| {
                session(lane, |b| {
                    if observed {
                        b.tracer(tracer.clone())
                            .metrics(Arc::new(MetricsRegistry::new()))
                            .profile_sink(Arc::new(NullSink))
                    } else {
                        b
                    }
                })
            })
            .collect()
    };
    let (plain, observed) = (sessions(false), sessions(true));
    let lowered: Vec<Vec<Lowered>> = (0..bench.ops.len())
        .map(|op| lowered_of(bench, op))
        .collect();
    let pass = |sessions: &[Session]| {
        let t0 = Instant::now();
        for (op, programs) in lowered.iter().enumerate() {
            session_compile(&sessions[bench.lane_of(op)], programs);
        }
        t0.elapsed().as_secs_f64()
    };
    let _ = (pass(&plain), pass(&observed));
    let ratios: Vec<f64> = (0..5)
        .map(|_| {
            tracer.clear();
            let plain_s = pass(&plain);
            pass(&observed) / plain_s
        })
        .collect();
    median(&ratios) - 1.0
}

/// `core.cache.*`: the round's request sequence replayed on one thread
/// through cached sessions sharing one cache the size of the service's,
/// each request classified by `report.cache`.
fn cache_replay(bench: &Bench, values: &mut Values) {
    let cache = Arc::new(ReportCache::new(CACHE_ENTRIES));
    let lanes = bench.workload.lanes.iter();
    let sessions: Vec<Session> = lanes
        .map(|&lane| session(lane, |b| b.report_cache(cache.clone())))
        .collect();
    let lowered: Vec<Lowered> = bench
        .pipelines
        .iter()
        .map(|p| lower(p).expect("lowered in set-up already"))
        .collect();
    let replay = |hit_ms: &mut Vec<f64>, miss_ms: &mut Vec<f64>| {
        for &op in &bench.sequence {
            let session = &sessions[bench.lane_of(op)];
            let program = &lowered[bench.ops[op].start];
            let t0 = Instant::now();
            let result = session
                .compile(program)
                .expect("compiled in set-up already");
            let elapsed = ms(t0.elapsed());
            match result.report.cache {
                CacheOutcome::Hit => hit_ms.push(elapsed),
                CacheOutcome::Miss => miss_ms.push(elapsed),
                CacheOutcome::Bypass => {}
            }
        }
    };
    replay(&mut Vec::new(), &mut Vec::new());
    let before = cache.stats();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    replay(&mut hit_ms, &mut miss_ms);
    let after = cache.stats();
    values.extend([
        (
            "core.cache.hit_share",
            hit_ms.len() as f64 / (hit_ms.len() + miss_ms.len()) as f64,
        ),
        ("core.cache.hit_ms_p50", median(&hit_ms)),
        ("core.cache.miss_ms_p50", median(&miss_ms)),
        (
            "core.cache.evictions",
            (after.evictions - before.evictions) as f64,
        ),
        (
            "core.cache.bypasses",
            (after.bypasses - before.bypasses) as f64,
        ),
    ]);
}

/// `core.service.*`: one round through the service, read from the
/// service's own registry.
fn service_round(bench: &Bench, values: &mut Values) {
    let Engine::Service(service) = &bench.engine else {
        unreachable!("called for service_mixed only")
    };
    let totals = || {
        let snapshot = service.metrics_snapshot();
        let histogram = |name: &str| {
            snapshot
                .histogram(name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        (
            histogram("service.wait_ns"),
            histogram("service.run_ns"),
            snapshot.counter("service.rejected_busy").unwrap_or(0),
        )
    };
    let (wait0, run0, busy0) = totals();
    let round = bench.run_round();
    let (wait1, run1, busy1) = totals();
    let mean_ms = |(c0, s0): (u64, u64), (c1, s1): (u64, u64)| {
        (s1 - s0) as f64 / (c1 - c0).max(1) as f64 / 1e6
    };
    values.extend([
        ("core.service.submit_ms_p50", median(&round.submit_ms)),
        ("core.service.wait_ms_mean", mean_ms(wait0, wait1)),
        ("core.service.run_ms_mean", mean_ms(run0, run1)),
        (
            "core.service.worker_busy_share",
            (run1.1 - run0.1) as f64 / 1e9 / (SERVICE_WORKERS as f64 * round.wall_s),
        ),
        ("core.service.rejected_busy", (busy1 - busy0) as f64),
    ]);
}

/// `egraph.snapshot.*` and the warm/cold suite pair: the first suite's
/// saturated graph exported and restored, then that suite plus one new
/// program compiled warm from the snapshot and cold.
fn snapshots(bench: &Bench, lane: &Lane, values: &mut Values) {
    let suite = lowered_of(bench, 0);
    let (_, leaves) = lane.stager.annotate(&suite);
    let (graph, _) = lane.stager.saturate(&leaves, &mut Counts::default());
    let t0 = Instant::now();
    let bytes = graph.snapshot();
    let export_ms = ms(t0.elapsed());
    let t0 = Instant::now();
    black_box(HbGraph::restore(&bytes).expect("a snapshot just taken"));
    let restore_ms = ms(t0.elapsed());

    fn refs(programs: &[Lowered]) -> Vec<(&Stmt, &Placements)> {
        programs.iter().map(|l| (&l.stmt, &l.placements)).collect()
    }
    let (_, snapshot) = lane.session.compile_ir_suite_exporting(&refs(&suite));
    let snapshot = snapshot.expect("a batched session that saturated");
    let mut grown = suite;
    grown.push(lowered_of(bench, 1).swap_remove(0));
    let grown = refs(&grown);
    let (mut warm_ms, mut cold_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let (_, rejection) = black_box(lane.session.compile_ir_suite_warm(&grown, &snapshot));
        warm_ms.push(ms(t0.elapsed()));
        assert!(rejection.is_none(), "warm start rejected: {rejection:?}");
        let t0 = Instant::now();
        black_box(lane.session.compile_ir_suite(&grown));
        cold_ms.push(ms(t0.elapsed()));
    }
    values.extend([
        ("egraph.snapshot.export_ms", export_ms),
        ("egraph.snapshot.bytes", bytes.len() as f64),
        ("egraph.snapshot.restore_ms", restore_ms),
        ("core.session.warm_suite_ms", median(&warm_ms)),
        ("core.session.cold_suite_ms", median(&cold_ms)),
    ]);
}

/// Runs `workload` under the tracer and reports every per-layer metric.
/// `out_dir` receives `trace-<workload>.json`.
#[must_use]
pub fn per_layer(
    workload: &'static Workload,
    options: Options,
    out_dir: &std::path::Path,
) -> RunResult {
    let bench = Bench::set_up(workload, options.seed, options.round_fraction());
    let verified = verify(&bench);
    report_failures(&verified);

    let tracer = Tracer::new();
    let mut rules_build_ms = 0.0;
    let lanes: Vec<Lane> = workload
        .lanes
        .iter()
        .map(|&(target, batching)| {
            let profile = target_by_name(target).expect("built in").rule_profile();
            let builds: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(RuleSet::for_profile(profile));
                    ms(t0.elapsed())
                })
                .collect();
            rules_build_ms += median(&builds);
            let stager = |profiled| {
                Stager::new(
                    target_by_name(target).expect("built in"),
                    batching == Batching::Batched,
                    profiled,
                    tracer.clone(),
                )
            };
            Lane {
                session: session((target, batching), |b| b),
                stager: stager(false),
                profiled: stager(true),
            }
        })
        .collect();
    let tracing = Tracing {
        bench: &bench,
        lanes,
        tracer: tracer.clone(),
        verified: &verified,
    };

    // Timings: plain, staged and profiled passes in turn, so all see the
    // same machine, until the time is spent.
    let (mut plain, mut staged) = (Samples::default(), Samples::default());
    let (mut stage_sum_ms, mut coverage) = (0.0, Vec::new());
    let mut counts = Counts::default();
    let (mut mismatches, mut attempted) = (0usize, 0usize);
    let mut profiles: Vec<[u64; 4]> = Vec::new();
    let mut first_pass_spans = Vec::new();
    let seconds = if options.smoke { 0.0 } else { options.seconds };
    let started = Instant::now();
    while profiles.is_empty() || started.elapsed().as_secs_f64() < seconds {
        tracing.plain_pass(&mut plain, &mut stage_sum_ms);
        let mut pass_counts = Counts::default();
        mismatches += tracing.staged_pass(false, &mut pass_counts, &mut 0);
        let spans = tracer.finished();
        tracer.clear();
        coverage.extend(fold_spans(&spans, &mut staged));
        mismatches += tracing.staged_pass(true, &mut Counts::default(), &mut 0);
        tracer.clear();
        attempted += 2 * bench.ops.len();
        let mut profile = [0u64; 4];
        for lane in &tracing.lanes {
            for (total, part) in profile.iter_mut().zip(lane.profiled.take_profile()) {
                *total += part;
            }
        }
        if profiles.is_empty() {
            counts = pass_counts;
            first_pass_spans = spans;
        }
        profiles.push(profile);
    }
    let passes = profiles.len();
    let profile_median =
        |i: usize| median(&profiles.iter().map(|p| p[i] as f64).collect::<Vec<_>>());
    let mut side = Samples::default();
    tracing.side_pass(&mut side);

    // Counts: one staged and one session pass with the allocator counting.
    let mut lower_allocs = 0;
    let mut counted = Counts::default();
    alloc::start();
    mismatches += tracing.staged_pass(false, &mut counted, &mut lower_allocs);
    tracer.clear();
    let before = alloc::counters();
    tracing.plain_pass(&mut Samples::default(), &mut 0.0);
    let per_op = alloc::counters() - before;
    alloc::stop();
    attempted += bench.ops.len();

    let ops = bench.ops.len() as f64;
    let plain_wall = plain.sum("op");
    let staged_parts: f64 = STAGES[1..].iter().map(|name| staged.sum(name)).sum();
    let run = &counts.saturate;
    let mut values: Values = vec![
        ("lang.lower_ms_p50", plain.p50("lang.lower")),
        ("lang.lower_share", plain.sum("lang.lower") / plain_wall),
        ("lang.lowered_ir_nodes", counts.lowered_ir_nodes as f64),
        ("lang.lower_allocs", lower_allocs as f64),
        ("ir.simplify_stmt_ms_p50", side.p50("ir.simplify_stmt")),
        (
            "core.movement.annotate_ms_p50",
            staged.p50("core.movement.annotate"),
        ),
        ("core.movement.leaves", counts.leaves as f64),
        ("core.encode.encode_ms_p50", staged.p50("core.encode")),
        ("core.encode.nodes", counts.encode_nodes as f64),
        ("core.rules.build_ms", rules_build_ms),
        (
            "core.rules.rules",
            tracing
                .lanes
                .iter()
                .map(|l| l.stager.rule_count())
                .sum::<usize>() as f64,
        ),
        ("egraph.saturate.run_ms_p50", staged.p50("egraph.saturate")),
        (
            "egraph.saturate.share",
            staged.sum("egraph.saturate") / plain_wall,
        ),
        ("egraph.saturate.search_ms", profile_median(0) / 1e6),
        ("egraph.saturate.rebuild_ms", profile_median(1) / 1e6),
        ("egraph.saturate.iterations", run.iterations as f64),
        ("egraph.saturate.nodes", run.nodes as f64),
        ("egraph.saturate.classes", run.classes as f64),
        ("egraph.saturate.applied", run.applied as f64),
        (
            "egraph.saturate.delta_probed_rows",
            run.delta_probed_rows as f64,
        ),
        (
            "egraph.saturate.delta_skipped_rows",
            run.delta_skipped_rows as f64,
        ),
        ("egraph.saturate.full_searches", run.full_searches as f64),
        ("egraph.saturate.delta_searches", run.delta_searches as f64),
        (
            "egraph.saturate.skipped_searches",
            run.skipped_searches as f64,
        ),
        (
            "egraph.saturate.fruitless_search_share",
            profile_median(3) / profile_median(2).max(1.0),
        ),
        ("egraph.saturate.allocs", counted.saturate_allocs as f64),
        (
            "egraph.extract.solve_ms_p50",
            staged.p50("egraph.extract.solve"),
        ),
        (
            "egraph.extract.readout_ms_p50",
            staged.p50("egraph.extract.readout"),
        ),
        ("egraph.extract.table_entries", counts.table_entries as f64),
        (
            "egraph.extract.reused_readouts",
            counts.reused_readouts as f64,
        ),
        ("egraph.extract.root_cost_sum", counts.root_cost_sum as f64),
        ("core.decode.decode_ms_p50", staged.p50("core.decode")),
        (
            "core.postprocess.materialize_ms_p50",
            staged.p50("core.postprocess.materialize"),
        ),
        (
            "core.postprocess.selected_ir_nodes",
            verified.iter().map(|v| v.selected_ir_nodes).sum::<u64>() as f64,
        ),
        (
            "core.session.compile_ms_p50",
            plain.p50("core.session.compile"),
        ),
        (
            "core.session.splice_ms_p50",
            staged.p50("core.session.splice"),
        ),
        (
            "core.session.overhead_share",
            1.0 - staged_parts / plain.sum("core.session.compile"),
        ),
        (
            "core.session.stage_sum_share",
            stage_sum_ms / plain.sum("core.session.compile"),
        ),
        ("core.cache.hash_ms_p50", side.p50("core.cache.hash")),
        (
            "exec.run_ms_p50",
            median(&verified.iter().map(|v| v.exec_ms).collect::<Vec<_>>()),
        ),
        ("exec.tensor_fma_share", {
            let tensor: u64 = verified.iter().map(|v| v.counters.tensor_fmas).sum();
            let cuda: u64 = verified.iter().map(|v| v.counters.cuda_flops / 2).sum();
            tensor as f64 / (tensor + cuda).max(1) as f64
        }),
        (
            "exec.dram_bytes",
            verified
                .iter()
                .map(|v| v.counters.dram_bytes())
                .sum::<u64>() as f64,
        ),
        (
            "exec.l1_bytes",
            verified.iter().map(|v| v.counters.l1_bytes).sum::<u64>() as f64,
        ),
        ("obs.overhead_share", obs_overhead(&bench)),
        (
            "bench.trace_overhead_share",
            staged.sum("op") / plain_wall - 1.0,
        ),
        ("alloc.allocs_per_op", per_op.allocs as f64 / ops),
        ("alloc.bytes_per_op", per_op.bytes as f64 / ops),
    ];
    if matches!(bench.engine, Engine::Service(_)) {
        cache_replay(&bench, &mut values);
        service_round(&bench, &mut values);
    }
    if workload.name == "suite_batched" {
        snapshots(&bench, &tracing.lanes[0], &mut values);
    }
    for metric in &PER_LAYER {
        if !values.iter().any(|(name, _)| *name == metric.name) {
            values.push((metric.name, 0.0));
        }
    }

    let trace_path = out_dir.join(format!("trace-{}.json", workload.name));
    if let Err(e) = write_trace(&trace_path, &first_pass_spans) {
        println!("could not write {}: {e}", trace_path.display());
    }
    println!(
        "{}: {passes} plain, staged and profiled passes over {} ops; staged parts cover {:.1}% of the \
         session call, children cover {:.1}% of an op span (p50); {} spans of the first pass in {}",
        workload.name,
        bench.ops.len(),
        100.0 * staged_parts / plain.sum("core.session.compile"),
        100.0 * median(&coverage),
        first_pass_spans.len(),
        trace_path.display(),
    );
    let unverified = verified.iter().filter(|v| v.failure.is_some()).count();
    if mismatches > 0 {
        println!("FAILED identity: {mismatches} staged operations differ from the session's");
    }
    RunResult {
        correct: mismatches == 0 && unverified == 0,
        attempted,
        failed: mismatches.max(unverified),
        values,
    }
}
