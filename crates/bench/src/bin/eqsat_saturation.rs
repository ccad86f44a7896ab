//! End-to-end equality-saturation benchmark, written to `BENCH_eqsat.json`
//! so future PRs can track the engine's performance trajectory.
//!
//! Three measurements (all through the `Session` API):
//!
//! 1. **selector workloads** — full per-leaf `Session::compile` per
//!    pipeline (encode + saturate + extract + decode per leaf statement)
//!    on representative conv1d / GEMM / AMX-MatMul encodings, once with
//!    the indexed/delta matcher and once with the retained naive reference
//!    matcher (`Runner::use_naive_matcher`), asserting identical selected
//!    programs.
//! 2. **batched selection** — per workload through a
//!    `Batching::Batched` session (all of a program's leaves in ONE shared
//!    e-graph), and the whole suite through `Session::compile_ir_suite`
//!    (every leaf of every workload in one graph, one saturation for the
//!    entire batch), asserting byte-identical selected programs against
//!    the per-leaf path in both shapes. The suite number is the headline:
//!    the rule set's fixed costs and the saturation are paid once for the
//!    batch, and cross-program subterm sharing collapses the repeated
//!    index algebra of the conv1d/GEMM/AMX family. The suite run's
//!    per-stage timings (encode / saturate / extract / splice, from
//!    `CompileReport::stages`) are recorded in the JSON so future PRs can
//!    target the slowest stage.
//! 3. **batched saturation** — every leaf statement of an enlarged
//!    workload pool encoded into one e-graph and saturated with the phased
//!    schedule, indexed vs naive (the engine-level speedup), plus the
//!    run's delta/full/skipped search counters and the per-op delta-probe
//!    row counts (probed vs skipped op rows).
//!
//! Passing `--check` runs only the equivalence oracles (per-leaf vs
//! batched programs, indexed vs naive saturation)
//! without repetitions, timing assertions or the JSON write — CI runs
//! this on every PR.
//!
//! Passing `--compare <path>` additionally reloads a previously committed
//! `BENCH_eqsat.json` before the run and exits nonzero if any tracked
//! speedup ratio regressed by more than 25% against it — the CI
//! bench-regression guard (the fresh JSON is still written, so CI can
//! upload it as an artifact). In this mode the absolute wall-clock floors
//! below are demoted to warnings: they are calibrated on the dev machine
//! and would double-fail a noisy shared runner that the 25% ratio
//! comparison already polices. Either way a missed floor is remembered,
//! not raised, until the JSON is on disk: a run never loses its numbers
//! to one.
//!
//! Every measured session is serial (a compile has no threads); the core
//! count the run saw is recorded in the JSON's `metadata` block.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hardboiled::encode::encode_stmt;
use hardboiled::lang::HbGraph;
use hardboiled::postprocess::normalize_temps;
use hardboiled::rules;
use hardboiled::{Batching, CompileOutcome, CompileReport, Session};
use hb_bench::guard::{compare_against_baseline, timing_floors};
use hb_bench::workloads::{metadata_json, saturation_leaves, saturation_pool, workloads, Workload};
use hb_egraph::schedule::Runner;
use hb_egraph::unionfind::Id;
use hb_ir::stmt::Stmt;
use hb_obs::{MetricsRegistry, NullSink};

struct Measurement {
    selected: Stmt,
    report: CompileReport,
    wall_ms: f64,
}

/// Best-of-N wall clock for one session (selection is deterministic; the
/// minimum is the least-noisy estimate).
fn run_session(w: &Workload, session: &Session, reps: usize) -> Measurement {
    let _ = session.compile_ir(&w.lowered.stmt, &w.lowered.placements);
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = session.compile_ir(&w.lowered.stmt, &w.lowered.placements);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|b| wall_ms < b.wall_ms) {
            best = Some(Measurement {
                selected: result.program,
                report: result.report,
                wall_ms,
            });
        }
    }
    best.expect("at least one measurement")
}

/// The per-leaf reference session, optionally on the naive matcher.
fn per_leaf_session(naive: bool) -> Session {
    Session::builder()
        .runner(Runner::new(16, 200_000).with_naive_matcher(naive))
        .build()
        .expect("valid session")
}

/// The shared-e-graph session.
fn batched_session() -> Session {
    Session::builder()
        .batching(Batching::Batched)
        .build()
        .expect("valid session")
}

struct BatchRun {
    encode_ms: f64,
    saturate_ms: f64,
    nodes: usize,
    classes: usize,
    iterations: usize,
    delta_searches: usize,
    full_searches: usize,
    skipped_searches: usize,
    probed_rows: usize,
    skipped_rows: usize,
    /// find() of every leaf root — the semantic outcome to cross-check.
    root_classes: Vec<Id>,
    graph: HbGraph,
}

fn run_batched_saturation(leaves: &[Stmt], naive: bool, reps: usize) -> BatchRun {
    let runner = Runner::new(16, 500_000).with_naive_matcher(naive);
    run_batched_with(&runner, leaves, reps)
}

/// The observability-overhead A/B: an uninstrumented runner vs one with
/// a no-op profiling sink installed (the hook sites pay per-rule clock
/// reads and a dynamic dispatch per search), one rep of each per pass so
/// slow drift hits both arms equally. Returns the best-of-`reps`
/// saturate time per arm and the instrumented side's last run for the
/// graph-equivalence oracle.
fn run_obs_overhead_ab(leaves: &[Stmt], reps: usize) -> (f64, f64, BatchRun) {
    let uninstrumented = Runner::new(16, 500_000);
    let instrumented = Runner::new(16, 500_000).with_profile_sink(Arc::new(NullSink));
    let mut plain_sat_ms = f64::INFINITY;
    let mut profiled_sat_ms = f64::INFINITY;
    let mut profiled: Option<BatchRun> = None;
    for _ in 0..reps {
        plain_sat_ms = plain_sat_ms.min(run_batched_with(&uninstrumented, leaves, 1).saturate_ms);
        let run = run_batched_with(&instrumented, leaves, 1);
        profiled_sat_ms = profiled_sat_ms.min(run.saturate_ms);
        profiled = Some(run);
    }
    (
        plain_sat_ms,
        profiled_sat_ms,
        profiled.expect("at least one rep"),
    )
}

fn run_batched_with(runner: &Runner, leaves: &[Stmt], reps: usize) -> BatchRun {
    let rule_set = rules::RuleSet::build();
    let mut best: Option<BatchRun> = None;
    for _ in 0..reps {
        let t = Instant::now();
        let mut eg = HbGraph::default();
        rules::app_specific::declare_relations(&mut eg);
        let roots: Vec<Id> = leaves.iter().map(|s| encode_stmt(&mut eg, s)).collect();
        let encode_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let report = runner.run_phased(&mut eg, &rule_set.main, &rule_set.support, 8);
        let saturate_ms = t.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|b| saturate_ms < b.saturate_ms) {
            best = Some(BatchRun {
                encode_ms,
                saturate_ms,
                nodes: report.nodes,
                classes: report.classes,
                iterations: report.iterations,
                delta_searches: report.delta_searches,
                full_searches: report.full_searches,
                skipped_searches: report.skipped_searches,
                probed_rows: report.delta_probed_rows,
                skipped_rows: report.delta_skipped_rows,
                root_classes: roots.iter().map(|&r| eg.find(r)).collect(),
                graph: eg,
            });
        }
    }
    best.expect("at least one batch run")
}

/// The PR-1 selector baseline: per-leaf e-graphs with the rule set (and
/// its compiled queries) rebuilt for **every leaf**, exactly as
/// `select_leaf` worked before rule hoisting. Kept as a measured baseline
/// so the whole-program trajectory (prehoist per-leaf → hoisted per-leaf
/// → shared-graph batch) stays visible in `BENCH_eqsat.json`.
fn run_prehoist_baseline(all: &[Workload], reps: usize) -> f64 {
    use hardboiled::cost::HbCost;
    use hardboiled::decode::decode_stmt;
    use hardboiled::postprocess::materialize_stmt;
    use hb_egraph::extract::WorklistExtractor;

    let leaves: Vec<Stmt> = all
        .iter()
        .flat_map(|w| saturation_leaves(&w.lowered))
        .collect();
    let runner = Runner::new(16, 200_000);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for leaf in &leaves {
            let mut eg = HbGraph::default();
            rules::app_specific::declare_relations(&mut eg);
            let root = encode_stmt(&mut eg, leaf);
            // The defining cost of the baseline: rules rebuilt per leaf.
            let rule_set = rules::RuleSet::build();
            let _ = runner.run_phased(&mut eg, &rule_set.main, &rule_set.support, 8);
            let extractor = WorklistExtractor::new(&eg, HbCost);
            let term = extractor.extract(root);
            let decoded = decode_stmt(&term).unwrap_or_else(|_| leaf.clone());
            let _ = materialize_stmt(&decoded);
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One whole-suite batched compilation (`Session::compile_ir_suite` under
/// `Batching::Batched`): every leaf of every workload in one shared
/// e-graph, one saturation. Returns the selected programs, the report and
/// the wall time, best of `reps`. Like the wall time, the report's
/// extraction `readout_time` is the **minimum across reps** (readout
/// totals are sub-millisecond, so a single-rep sample is scheduler
/// noise); all other report fields come from the best-wall rep.
fn run_suite_batched(
    all: &[Workload],
    session: &Session,
    reps: usize,
) -> (Vec<Stmt>, CompileReport, f64) {
    let programs: Vec<(&Stmt, &hardboiled::movement::Placements)> = all
        .iter()
        .map(|w| (&w.lowered.stmt, &w.lowered.placements))
        .collect();
    let _ = session.compile_ir_suite(&programs);
    let mut best: Option<(Vec<Stmt>, CompileReport, f64)> = None;
    let mut best_readout: Option<std::time::Duration> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let result = session.compile_ir_suite(&programs);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(ex) = &result.report.extraction {
            if best_readout.is_none_or(|b| ex.readout_time < b) {
                best_readout = Some(ex.readout_time);
            }
        }
        if best.as_ref().is_none_or(|(_, _, b)| wall_ms < *b) {
            best = Some((result.programs, result.report, wall_ms));
        }
    }
    let (outs, mut report, wall) = best.expect("at least one suite run");
    if let (Some(ex), Some(min)) = (report.extraction.as_mut(), best_readout) {
        ex.readout_time = min;
    }
    (outs, report, wall)
}

/// Asserts the engine-level oracles on one batched-saturation pair: same
/// saturated sizes and the same equivalence relation over all leaf roots.
fn assert_saturation_equivalent(fast: &BatchRun, naive: &BatchRun) {
    assert_eq!(fast.nodes, naive.nodes, "batched node counts diverged");
    assert_eq!(fast.classes, naive.classes, "batched class counts diverged");
    for i in 0..fast.root_classes.len() {
        for j in i + 1..fast.root_classes.len() {
            assert_eq!(
                fast.root_classes[i] == fast.root_classes[j],
                naive.root_classes[i] == naive.root_classes[j],
                "root equivalence {i}≡{j} diverged between matchers"
            );
        }
    }
    fast.graph.check_op_index();
}

/// `--check`: equivalence oracles only — no repetitions, no timing
/// assertions, no JSON. This is what CI runs on every PR.
fn check_mode(all: &[Workload]) {
    let indexed_session = per_leaf_session(false);
    let naive_session = per_leaf_session(true);
    let shared_session = batched_session();
    let mut canonical_programs = Vec::new();
    for w in all {
        let per_leaf = run_session(w, &indexed_session, 1);
        let naive = run_session(w, &naive_session, 1);
        let batched = run_session(w, &shared_session, 1);
        let canonical = normalize_temps(&per_leaf.selected.to_string());
        assert_eq!(
            canonical,
            normalize_temps(&naive.selected.to_string()),
            "{}: naive-matcher selection diverged",
            w.name
        );
        assert_eq!(
            canonical,
            normalize_temps(&batched.selected.to_string()),
            "{}: batched selection diverged",
            w.name
        );
        assert_eq!(
            per_leaf.report.num_statements(),
            batched.report.num_statements(),
            "{}: leaf counts diverged",
            w.name
        );
        println!(
            "{:<26} ok ({} stmts, batched identical, naive oracle identical)",
            w.name,
            per_leaf.report.num_statements()
        );
        canonical_programs.push(canonical);
    }
    let (suite_outs, _, _) = run_suite_batched(all, &batched_session(), 1);
    for ((w, canonical), out) in all.iter().zip(&canonical_programs).zip(&suite_outs) {
        assert_eq!(
            *canonical,
            normalize_temps(&out.to_string()),
            "{}: whole-suite batched selection diverged",
            w.name
        );
    }
    println!(
        "whole-suite batch          ok ({} workloads in one shared graph, identical programs)",
        all.len()
    );
    let leaves = saturation_pool(all);
    let fast = run_batched_saturation(&leaves, false, 1);
    let naive = run_batched_saturation(&leaves, true, 1);
    assert_saturation_equivalent(&fast, &naive);
    println!(
        "batched saturation     ok ({} leaves, {} nodes, {} classes, indexed ≡ naive)",
        leaves.len(),
        fast.nodes,
        fast.classes
    );
    fast.graph.check_op_epochs();
    println!(
        "delta tracking         ok (op-epoch rows consistent; probed rows {}, skipped {})",
        fast.probed_rows, fast.skipped_rows
    );
    println!("all equivalence oracles passed");
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_only = args.iter().any(|a| a == "--check");
    // Read the committed baseline *before* the run: the fresh JSON is
    // written to the same default path, and CI uploads it afterwards.
    let compare_baseline: Option<String> = args.iter().position(|a| a == "--compare").map(|i| {
        let path = args
            .get(i + 1)
            .expect("--compare requires a path to the committed BENCH_eqsat.json");
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--compare: cannot read {path}: {e}"))
    });
    let strict_timing = compare_baseline.is_none();
    // Wall-clock floors that did not hold, reported after the JSON write.
    let mut missed_floors: Vec<String> = Vec::new();
    let all = workloads();
    if check_only {
        check_mode(&all);
        return;
    }

    let mut rows = String::new();
    println!("EqSat benchmark — indexed/delta matcher vs naive reference\n");
    println!("[1] selector workloads (per-leaf e-graphs, full Session::compile)");
    println!(
        "{:<22} {:>12} {:>12} {:>8}   {:>6} {:>8}",
        "workload", "indexed (ms)", "naive (ms)", "speedup", "stmts", "nodes"
    );
    let indexed_session = per_leaf_session(false);
    let naive_session = per_leaf_session(true);
    let shared_session = batched_session();
    let mut sel_indexed = 0.0;
    let mut sel_naive = 0.0;
    let mut per_leaf_runs: Vec<Measurement> = Vec::new();
    for w in &all {
        let fast = run_session(w, &indexed_session, 3);
        let naive = run_session(w, &naive_session, 3);
        assert_eq!(
            normalize_temps(&fast.selected.to_string()),
            normalize_temps(&naive.selected.to_string()),
            "{}: the two matcher paths selected different programs",
            w.name
        );
        let nodes: usize = fast.report.stmts.iter().map(|s| s.eqsat.nodes).sum();
        let iters: usize = fast.report.stmts.iter().map(|s| s.eqsat.iterations).sum();
        let speedup = naive.wall_ms / fast.wall_ms;
        sel_indexed += fast.wall_ms;
        sel_naive += naive.wall_ms;
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>7.1}x   {:>6} {:>8}",
            w.name,
            fast.wall_ms,
            naive.wall_ms,
            speedup,
            fast.report.num_statements(),
            nodes
        );
        let _ = write!(
            rows,
            r#"{}    {{
      "workload": "{}",
      "statements": {},
      "nodes": {},
      "iterations": {},
      "indexed": {{ "total_ms": {:.3}, "eqsat_ms": {:.3} }},
      "naive": {{ "total_ms": {:.3}, "eqsat_ms": {:.3} }},
      "speedup": {:.2}
    }}"#,
            if rows.is_empty() { "" } else { ",\n" },
            w.name,
            fast.report.num_statements(),
            nodes,
            iters,
            fast.wall_ms,
            fast.report.eqsat_time.as_secs_f64() * 1e3,
            naive.wall_ms,
            naive.report.eqsat_time.as_secs_f64() * 1e3,
            speedup
        );
        per_leaf_runs.push(fast);
    }

    // [2] per-leaf vs batched (shared e-graph) selection, both indexed.
    println!("\n[2] batched selection (shared e-graph, same programs asserted)");
    println!(
        "{:<26} {:>14} {:>13} {:>8}   {:>6} {:>8}",
        "workload", "per-leaf (ms)", "batched (ms)", "speedup", "stmts", "delta/full"
    );
    let mut batch_rows = String::new();
    for (w, per_leaf) in all.iter().zip(&per_leaf_runs) {
        let batched = run_session(w, &shared_session, 3);
        assert_eq!(
            normalize_temps(&per_leaf.selected.to_string()),
            normalize_temps(&batched.selected.to_string()),
            "{}: batched selection produced a different program",
            w.name
        );
        let run = batched
            .report
            .batch
            .as_ref()
            .expect("batched mode must report the shared run");
        let speedup = per_leaf.wall_ms / batched.wall_ms;
        println!(
            "{:<26} {:>14.2} {:>13.2} {:>7.1}x   {:>6} {:>5}/{}",
            w.name,
            per_leaf.wall_ms,
            batched.wall_ms,
            speedup,
            batched.report.num_statements(),
            run.delta_searches,
            run.full_searches
        );
        let _ = write!(
            batch_rows,
            r#"{}    {{
      "workload": "{}",
      "statements": {},
      "shared_nodes": {},
      "shared_classes": {},
      "per_leaf_ms": {:.3},
      "batched_ms": {:.3},
      "batched_eqsat_ms": {:.3},
      "delta_searches": {},
      "full_searches": {},
      "skipped_searches": {},
      "delta_probed_rows": {},
      "delta_skipped_rows": {},
      "speedup": {:.2}
    }}"#,
            if batch_rows.is_empty() { "" } else { ",\n" },
            w.name,
            batched.report.num_statements(),
            run.nodes,
            run.classes,
            per_leaf.wall_ms,
            batched.wall_ms,
            batched.report.eqsat_time.as_secs_f64() * 1e3,
            run.delta_searches,
            run.full_searches,
            run.skipped_searches,
            run.delta_probed_rows,
            run.delta_skipped_rows,
            speedup
        );
    }

    // The headline: the whole suite as ONE batch (`compile_ir_suite`) —
    // every leaf of every workload in one shared e-graph, one saturation —
    // against the per-leaf path's total from [1].
    let (suite_outs, suite_report, suite_batched) = run_suite_batched(&all, &batched_session(), 5);
    for ((w, per_leaf), out) in all.iter().zip(&per_leaf_runs).zip(&suite_outs) {
        assert_eq!(
            normalize_temps(&per_leaf.selected.to_string()),
            normalize_temps(&out.to_string()),
            "{}: whole-suite batched selection produced a different program",
            w.name
        );
    }
    let suite_run = suite_report
        .batch
        .as_ref()
        .expect("suite batch must report the shared run");
    let suite_stages = suite_report.stages;
    let suite_per_leaf = sel_indexed;
    let suite_speedup = suite_per_leaf / suite_batched;
    let prehoist = run_prehoist_baseline(&all, 2);
    let prehoist_speedup = prehoist / suite_batched;
    println!(
        "    whole suite, one shared graph: batched {suite_batched:.2} ms  ({} nodes, {} classes, searches d/f/s {}/{}/{})",
        suite_run.nodes,
        suite_run.classes,
        suite_run.delta_searches,
        suite_run.full_searches,
        suite_run.skipped_searches
    );
    println!(
        "      stages: encode {:.2} ms, saturate {:.2} ms, extract {:.2} ms, splice {:.2} ms",
        suite_stages.encode.as_secs_f64() * 1e3,
        suite_stages.saturate.as_secs_f64() * 1e3,
        suite_stages.extract.as_secs_f64() * 1e3,
        suite_stages.splice.as_secs_f64() * 1e3,
    );
    println!(
        "      vs per-leaf (rules hoisted, this PR):   {suite_per_leaf:.2} ms — {suite_speedup:.1}x"
    );
    println!(
        "      vs per-leaf (rules per leaf, PR-1 path): {prehoist:.2} ms — {prehoist_speedup:.1}x"
    );
    // Acceptance bars for the shared-graph selector mode: ≥3x over the
    // per-leaf path as it stood when this work was scoped (rules rebuilt
    // per leaf), ≥1.8x over the per-leaf path after this PR's own rule
    // hoisting (measured ~2.5x; the hoist eats part of the batch's edge).
    // Soft under `--compare`: on shared CI runners the guard's 25% ratio
    // comparison is the gate, and dev-machine floors would double-fail it.
    if prehoist_speedup < 3.0 {
        missed_floors.push(format!(
            "whole-suite batched selection speedup {prehoist_speedup:.2}x below the 3x bar \
             (vs the per-leaf-rule-build baseline)"
        ));
    }
    if suite_speedup < 1.8 {
        missed_floors.push(format!(
            "whole-suite batched selection speedup {suite_speedup:.2}x below the 1.8x floor \
             (vs the hoisted per-leaf path)"
        ));
    }

    // The extract stage of the suite compile: one cost table, one worklist
    // readout per root.
    let suite_extraction = suite_report
        .extraction
        .as_ref()
        .expect("suite compile must report extraction");
    let extract_stage_ms = suite_stages.extract.as_secs_f64() * 1e3;
    let readout_ms = suite_extraction.readout_time.as_secs_f64() * 1e3;
    println!(
        "      extract stage: {extract_stage_ms:.2} ms, of which readouts {readout_ms:.2} ms \
         (table {} entries, {} roots)",
        suite_extraction.table_entries,
        suite_extraction.roots()
    );

    // [2b] robustness plumbing: the same whole-suite batch with generous
    // budgets configured (a 120 s deadline plus an effectively-unbounded
    // match budget). The budget clock is amortized — one `Instant` read
    // per 16 rule searches — so the unconstrained suite must come in
    // within 2% of the budget-free run, byte-identical programs asserted.
    let budgeted_session = Session::builder()
        .batching(Batching::Batched)
        .deadline(std::time::Duration::from_secs(120))
        .match_budget(usize::MAX / 2)
        .build()
        .expect("valid session");
    let (budgeted_outs, budgeted_report, budgeted_ms) =
        run_suite_batched(&all, &budgeted_session, 5);
    for ((w, out), budgeted) in all.iter().zip(&suite_outs).zip(&budgeted_outs) {
        assert_eq!(
            normalize_temps(&out.to_string()),
            normalize_temps(&budgeted.to_string()),
            "{}: generous budgets changed the selected program",
            w.name
        );
    }
    assert_eq!(
        budgeted_report.outcome,
        CompileOutcome::Saturated,
        "generous budgets must not truncate the suite"
    );
    let mut outcomes = [0usize; 3]; // saturated / truncated / fallback
    for m in &per_leaf_runs {
        outcomes[match m.report.outcome {
            CompileOutcome::Saturated => 0,
            CompileOutcome::Truncated { .. } => 1,
            CompileOutcome::FallbackUnoptimized => 2,
        }] += 1;
    }
    assert_eq!(
        outcomes,
        [all.len(), 0, 0],
        "an unconstrained selector run degraded"
    );
    let budget_overhead_pct = (budgeted_ms / suite_batched - 1.0) * 100.0;
    println!(
        "      budget plumbing: budgeted {budgeted_ms:.2} ms vs unbudgeted {suite_batched:.2} ms — \
         {budget_overhead_pct:+.2}% overhead (outcomes: {} saturated, 0 truncated, 0 fallback)",
        all.len()
    );
    if budget_overhead_pct >= 2.0 {
        missed_floors.push(format!(
            "deadline/match-budget plumbing costs {budget_overhead_pct:.2}% on the unconstrained \
             suite (bar: 2%)"
        ));
    }

    // [3] batched whole-program saturation: all leaves, one e-graph, engine
    // level (no encode/extract), indexed vs naive.
    let leaves = saturation_pool(&all);
    let fast = run_batched_saturation(&leaves, false, 7);
    let naive = run_batched_saturation(&leaves, true, 2);
    assert_saturation_equivalent(&fast, &naive);
    fast.graph.check_op_epochs();

    let speedup = naive.saturate_ms / fast.saturate_ms;
    println!(
        "\n[3] batched whole-program saturation ({} leaves, one e-graph)",
        leaves.len()
    );
    println!(
        "    indexed {:.2} ms, naive {:.2} ms — {:.1}x speedup  ({} nodes, {} classes, {} iterations)",
        fast.saturate_ms, naive.saturate_ms, speedup, fast.nodes, fast.classes, fast.iterations
    );
    println!(
        "    searches: {} delta, {} full, {} skipped (semi-naive keeps relation rules off the full path)",
        fast.delta_searches, fast.full_searches, fast.skipped_searches
    );
    println!(
        "    delta probes: {} probed / {} skipped rows",
        fast.probed_rows, fast.skipped_rows
    );
    // ≥5x is the engine's target on this workload (measured headroom:
    // ~8x on an idle machine); treat <5x as noise-suspect and <3x as a
    // genuine regression. Soft under `--compare` (see above).
    if speedup < 5.0 {
        eprintln!(
            "warning: saturation speedup {speedup:.2}x below the 5x target — \
             rerun on an idle machine before concluding a regression"
        );
    }
    if speedup < 3.0 {
        missed_floors.push(format!(
            "saturation speedup regressed hard: {speedup:.2}x (target ≥5x)"
        ));
    }

    // [4] observability overhead: the same batched saturation with a
    // no-op profiling sink installed on the runner. The hook contract is
    // "absence is free" (a `None` sink is one branch per site); this
    // measures *presence* — per-rule `Instant` reads plus one dynamic
    // dispatch per search — which must clear the same 2% bar the budget
    // plumbing meets. The arms are interleaved one rep per pass (slow
    // drift hits both equally; `fast` from [3] was measured too long ago
    // to reuse), best-of-7 each, graph equivalence asserted.
    let (plain_sat_ms, profiled_sat_ms, profiled) = run_obs_overhead_ab(&leaves, 7);
    assert_saturation_equivalent(&fast, &profiled);
    let obs_overhead_pct = (profiled_sat_ms / plain_sat_ms - 1.0) * 100.0;
    println!(
        "\n[4] observability: null-sink saturate {profiled_sat_ms:.2} ms vs uninstrumented \
         {plain_sat_ms:.2} ms — {obs_overhead_pct:+.2}% overhead",
    );
    if obs_overhead_pct >= 2.0 {
        missed_floors.push(format!(
            "null-sink profiling hooks cost {obs_overhead_pct:.2}% on the {}-leaf suite (bar: 2%)",
            leaves.len()
        ));
    }
    // One instrumented suite compile so the end-of-run summary shows the
    // session-level metrics (outcome ladder, stage latencies) the
    // registry aggregates — reporting, not a timed measurement.
    let obs_metrics = Arc::new(MetricsRegistry::default());
    let obs_session = Session::builder()
        .batching(Batching::Batched)
        .metrics(Arc::clone(&obs_metrics))
        .build()
        .expect("valid session");
    let _ = run_suite_batched(&all, &obs_session, 1);
    println!("    metrics: {}", obs_metrics.snapshot().summary_line());

    let json = format!(
        r#"{{
  "benchmark": "eqsat_saturation",
  "description": "equality saturation with the indexed/delta matcher vs the retained naive reference matcher, and batched (shared e-graph) selection vs the per-leaf path (identical results asserted for both)",
  {metadata},
  "selector_workloads": [
{rows}
  ],
  "selector_total": {{
    "indexed_ms": {sel_indexed:.3},
    "naive_ms": {sel_naive:.3},
    "speedup": {sel_speedup:.2}
  }},
  "batched_select": [
{batch_rows}
  ],
  "batched_select_suite": {{
    "description": "whole suite as one batch: every leaf of every workload in one shared e-graph (Session::compile_ir_suite, Batching::Batched); per_leaf_ms is the hoisted per-leaf path, per_leaf_prehoist_ms the PR-1 path with rules rebuilt per leaf; stages_ms is the CompileReport per-stage breakdown of the suite compile",
    "per_leaf_ms": {suite_per_leaf:.3},
    "per_leaf_prehoist_ms": {prehoist:.3},
    "batched_ms": {suite_batched:.3},
    "stages_ms": {{ "encode": {stage_encode:.3}, "saturate": {stage_saturate:.3}, "extract": {stage_extract:.3}, "splice": {stage_splice:.3} }},
    "extract_stats": {{
      "description": "the extract stage of the suite compile: one worklist cost table, one readout per root; readout_ms isolates the per-root term readouts from the cost-table solve and the decode/materialize. Sessions used to read batched graphs out through a shared term bank instead (SharedTableExtractor); this block timed both, and the bank's readout_speedup over these per-root readouts read 1.42x, 1.18x, 1.36x, 1.33x, then 0.98x (PR 12, one matcher) and 0.75x (PR 18, after PR 16 made the worklist memo a dense stamped vector); three runs made to size its removal read 0.76x / 0.73x / 0.79x, 0.05 ms of a ~6 ms compile. The arm and the session-level strategy knob are retired",
      "table_entries": {extract_table_entries},
      "roots": {extract_roots},
      "extract_stage_ms": {extract_stage_ms:.3},
      "readout_ms": {readout_ms:.3},
      "per_root_readout_us": {per_root_us:.3}
    }},
    "robustness": {{
      "description": "graceful-degradation plumbing on the unconstrained suite: per-workload compile outcomes (every per-leaf selector run and the batched suite must saturate — no truncation, no fallback) and the wall cost of configuring budgets that never fire (a 120 s deadline plus an effectively-unbounded match budget, best-of-5, byte-identical programs asserted); the amortized budget clock must stay under 2% overhead",
      "outcomes": {{ "saturated": {outcomes_saturated}, "truncated": {outcomes_truncated}, "fallback": {outcomes_fallback} }},
      "unbudgeted_ms": {suite_batched:.3},
      "budgeted_ms": {budgeted_ms:.3},
      "budget_overhead_pct": {budget_overhead_pct:.2}
    }},
    "shared_nodes": {suite_nodes},
    "shared_classes": {suite_classes},
    "searches": {{ "delta": {suite_delta}, "full": {suite_full}, "skipped": {suite_skip}, "probed_rows": {suite_probed}, "skipped_rows": {suite_skipped_rows} }},
    "speedup_vs_per_leaf": {suite_speedup:.2},
    "speedup_vs_prehoist": {prehoist_speedup:.2}
  }},
  "batched_saturation": {{
    "description": "all leaf statements in one e-graph, phased schedule (outer=8)",
    "leaves": {nleaves},
    "nodes": {nodes},
    "classes": {classes},
    "iterations": {iters},
    "indexed": {{ "encode_ms": {f_enc:.3}, "saturate_ms": {f_sat:.3} }},
    "naive": {{ "encode_ms": {n_enc:.3}, "saturate_ms": {n_sat:.3} }},
    "searches": {{ "delta": {f_delta}, "full": {f_full}, "skipped": {f_skip} }},
    "delta_probe_stats": {{
      "description": "candidate op rows visited vs skipped by delta probes: op-keyed tracking probes only classes whose (class, root_op) rows changed since each rule last ran. The per-class baseline it replaced (re-probe every modified class containing the root operator; retired, it reached the identical saturated graph) probed 10519 rows against 9291 on this pool, 1.13x, when last measured",
      "op_keyed": {{ "probed_rows": {f_probed}, "skipped_rows": {f_skipped_rows}, "saturate_ms": {f_sat:.3} }}
    }},
    "speedup": {speedup:.2}
  }},
  "obs_overhead": {{
    "description": "observability cost on the batched saturation pool: the identical run with a no-op ProfileSink installed (per-rule clock reads + one dynamic dispatch per rule search) vs the uninstrumented runner, best-of-7 each with the arms interleaved, identical saturated graph asserted; the bar is <2% like the budget plumbing",
    "leaves": {nleaves},
    "uninstrumented_ms": {plain_sat_ms:.3},
    "null_sink_ms": {profiled_sat_ms:.3},
    "overhead_pct": {obs_overhead_pct:.2}
  }},
  "headline_speedup": {speedup:.2},
  "headline_batched_select_speedup": {prehoist_speedup:.2}
}}
"#,
        metadata = metadata_json(1),
        sel_speedup = sel_naive / sel_indexed,
        outcomes_saturated = outcomes[0],
        outcomes_truncated = outcomes[1],
        outcomes_fallback = outcomes[2],
        extract_table_entries = suite_extraction.table_entries,
        extract_roots = suite_extraction.roots(),
        per_root_us = suite_extraction.per_root_readout().as_secs_f64() * 1e6,
        stage_encode = suite_stages.encode.as_secs_f64() * 1e3,
        stage_saturate = suite_stages.saturate.as_secs_f64() * 1e3,
        stage_extract = suite_stages.extract.as_secs_f64() * 1e3,
        stage_splice = suite_stages.splice.as_secs_f64() * 1e3,
        suite_nodes = suite_run.nodes,
        suite_classes = suite_run.classes,
        suite_delta = suite_run.delta_searches,
        suite_full = suite_run.full_searches,
        suite_skip = suite_run.skipped_searches,
        suite_probed = suite_run.delta_probed_rows,
        suite_skipped_rows = suite_run.delta_skipped_rows,
        nleaves = leaves.len(),
        nodes = fast.nodes,
        classes = fast.classes,
        iters = fast.iterations,
        f_enc = fast.encode_ms,
        f_sat = fast.saturate_ms,
        n_enc = naive.encode_ms,
        n_sat = naive.saturate_ms,
        f_delta = fast.delta_searches,
        f_full = fast.full_searches,
        f_skip = fast.skipped_searches,
        f_probed = fast.probed_rows,
        f_skipped_rows = fast.skipped_rows,
    );
    std::fs::write("BENCH_eqsat.json", json).expect("write BENCH_eqsat.json");
    println!("wrote BENCH_eqsat.json");
    // After the write: a missed floor must not cost the run its numbers.
    // Under `--compare` the ratio guard below is the gate.
    timing_floors(strict_timing, &missed_floors);

    if let Some(baseline) = compare_baseline {
        // The tracked ratios: the engine headline, the whole-suite batched
        // selection ratios and the per-leaf selector total.
        let tracked = [
            ("headline_speedup", "headline_speedup", speedup),
            (
                "headline_batched_select_speedup",
                "headline_batched_select_speedup",
                prehoist_speedup,
            ),
            ("selector_total", "speedup", sel_naive / sel_indexed),
            ("batched_select_suite", "speedup_vs_per_leaf", suite_speedup),
            (
                "batched_select_suite",
                "speedup_vs_prehoist",
                prehoist_speedup,
            ),
        ];
        if !compare_against_baseline(&baseline, &tracked) {
            eprintln!("bench-guard: tracked speedup regressed >25% vs the committed baseline");
            std::process::exit(1);
        }
        println!("bench-guard: all tracked speedups within 25% of the committed baseline");
    }
}
