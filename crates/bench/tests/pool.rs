//! The selector workload pool (`hb_bench::workloads`: 14 workloads, 158
//! saturated roots, 161 leaves at engine level) as one guard that reads no
//! clock:
//!
//! * **counts at equality** — the work the engine does on the pool (nodes,
//!   classes, iterations, searches by kind, probed and skipped rows, cost
//!   table entries), per workload per-leaf and batched, for the whole suite
//!   in one shared graph, and for the engine-level 161-leaf saturation,
//!   pinned in the tables below. None of them has ever moved without a
//!   named cause; a matcher, scheduler or encoder change that moves one
//!   fails here and says which.
//! * **identity oracles at pool scale** — per-leaf ≡ batched ≡ whole-suite
//!   programs; the compiled matcher ≡ the naive reference on the 161-leaf
//!   graph (sizes, the root-equivalence relation, the extracted term of
//!   every root, op-index and op-epoch consistency); observers installed and
//!   budgets that never fire change no program and no counter.
//! * **leaf repetition** — how many distinct report-cache keys the pool's
//!   leaves have (the canonical hash of the annotated leaf), how many
//!   distinct leaves a cache stores for it, and that a second, cached pass
//!   over the pool runs no unit and selects the first pass's programs.
//! * **selected programs** — the FNV-1a hash of every workload's
//!   normalized program under `sim`, `amx` and `wmma` sessions, recorded
//!   at a previous commit, so "byte-identical selection" is checked
//!   against history and not only between configurations of one build.
//!
//! To re-record after an *intended* change of the engine's work, run
//! `HB_PRINT_GOLDEN=1 cargo test -p hb-bench --test pool -- --nocapture`
//! and paste the printed tables. The program table moves only with an
//! intended change of what the selector picks.

use std::sync::Arc;
use std::time::Duration;

use hardboiled::encode::encode_stmt;
use hardboiled::movement::Placements;
use hardboiled::postprocess::normalize_temps;
use hardboiled::rules::{self, RuleSet};
use hardboiled::{
    canonical_program_hash, Batching, CacheOutcome, CompileOutcome, CompileReport, DeviceCost,
    HbGraph, ReportCache, Session, SessionBuilder,
};
use hb_accel::device::DeviceProfile;
use hb_bench::workloads::{saturation_pool, workloads, Workload};
use hb_egraph::extract::WorklistExtractor;
use hb_egraph::rewrite::Atom;
use hb_egraph::schedule::{Budget, RunReport, Runner};
use hb_egraph::unionfind::Id;
use hb_ir::stmt::Stmt;
use hb_obs::{MetricsRegistry, NullSink, Tracer};

/// One saturation run's `[nodes, classes, delta searches, full searches,
/// skipped searches, probed rows, skipped rows]`.
type RunCounts = [usize; 7];

/// Per workload: per-leaf `[statements, nodes, iterations]` (summed over its
/// leaves' own graphs), then the [`RunCounts`] of its one batched graph.
#[rustfmt::skip]
const WORKLOADS: &[(&str, [usize; 3], RunCounts)] = &[
    ("conv1d_tc_k16", [3, 112, 8], [83, 64, 117, 42, 9, 135, 278]),
    ("conv1d_tc_k64", [3, 112, 8], [83, 64, 117, 42, 9, 135, 278]),
    ("conv1d_tc_k32_n4096", [3, 112, 8], [83, 64, 117, 42, 9, 135, 278]),
    ("conv1d_unrolled_k64", [10, 565, 36], [297, 217, 117, 42, 9, 812, 1193]),
    ("conv1d_unrolled_k256", [34, 2148, 132], [1064, 768, 117, 42, 9, 3164, 4505]),
    ("conv1d_unrolled_k128_n2048", [18, 1093, 68], [553, 401, 117, 42, 9, 1596, 2297]),
    ("conv1d_unrolled_k512", [66, 4259, 260], [2087, 1503, 117, 42, 9, 6300, 8921]),
    ("gemm_wmma_32", [3, 138, 8], [113, 81, 117, 42, 9, 248, 570]),
    ("gemm_wmma_64", [3, 138, 8], [113, 81, 117, 42, 9, 248, 570]),
    ("gemm_wmma_96_32_48", [3, 139, 8], [116, 83, 117, 42, 9, 249, 578]),
    ("conv2d_512x64_k16x3", [3, 131, 8], [100, 74, 117, 42, 9, 146, 402]),
    ("conv2d_256x128_k8x5", [3, 113, 8], [86, 66, 117, 42, 9, 136, 286]),
    ("matmul_amx_standard", [3, 148, 9], [125, 91, 139, 42, 29, 284, 747]),
    ("matmul_amx_vnni", [3, 147, 8], [124, 89, 115, 42, 11, 251, 649]),
];

/// The whole suite in one shared graph, then `[table entries, roots]`.
const SUITE: (RunCounts, [usize; 2]) = ([2516, 1794, 139, 42, 29, 7513, 14570], [1794, 158]);

/// Engine level: `[leaves, iterations]`, then the pool graph's counts.
const ENGINE: ([usize; 2], RunCounts) = ([161, 5], [2546, 1811, 139, 42, 29, 7668, 14750]);

/// The pool's leaves: `[leaves, distinct cache keys]` — keys hash leaf
/// content, names included, so equal leaves share one and nothing else
/// does. One more than `CACHED_ENTRIES`: one of the pool's three extra
/// `gemm_wmma` leaves is in no workload (its twin there differs only in a
/// name).
const LEAF_KEYS: [usize; 2] = [161, 85];

/// Entries a cached per-leaf pass over the 14 workloads stores, one per
/// exact leaf.
const CACHED_ENTRIES: usize = 84;

/// Per workload: the FNV-1a hash of its normalized program under the
/// `sim`, `amx` and `wmma` targets, in that order.
#[rustfmt::skip]
const PROGRAMS: &[(&str, [u64; 3])] = &[
    ("conv1d_tc_k16", [0x875267df326c0b6c, 0xd78e67a0fe266a8a, 0x875267df326c0b6c]),
    ("conv1d_tc_k64", [0x59d25e9d337719c6, 0xd0a58cdbcafad530, 0x59d25e9d337719c6]),
    ("conv1d_tc_k32_n4096", [0x35bff601fd822835, 0x2c3a7fee78104c49, 0x35bff601fd822835]),
    ("conv1d_unrolled_k64", [0x82ca1439a96c756b, 0xcfd4dd8694181e91, 0x82ca1439a96c756b]),
    ("conv1d_unrolled_k256", [0x16e196e9b8327a0f, 0x5d6eb4c0400ea883, 0x16e196e9b8327a0f]),
    ("conv1d_unrolled_k128_n2048", [0x913e64964e3bebb3, 0xee40a90e8ef38313, 0x913e64964e3bebb3]),
    ("conv1d_unrolled_k512", [0x801e40181722047d, 0x4f0b3cdff62d9097, 0x801e40181722047d]),
    ("gemm_wmma_32", [0x8558343c3a55ae91, 0x1ced171994e2343e, 0x8558343c3a55ae91]),
    ("gemm_wmma_64", [0x767a54be96a7a06a, 0x941c68c7747811db, 0x767a54be96a7a06a]),
    ("gemm_wmma_96_32_48", [0xa6b61870b0fbb3c3, 0xdc45d60b79fcf5e2, 0xa6b61870b0fbb3c3]),
    ("conv2d_512x64_k16x3", [0x0121d0e49afd9c06, 0x7f151697615939b8, 0x0121d0e49afd9c06]),
    ("conv2d_256x128_k8x5", [0xf38cb472a90aa86c, 0xffbda37a314578b8, 0xf38cb472a90aa86c]),
    ("matmul_amx_standard", [0x1a80a7f05e18c66c, 0x1a80a7f05e18c66c, 0x5a4dd4870946a1cf]),
    ("matmul_amx_vnni", [0x1d33001cc4913b3c, 0x1d33001cc4913b3c, 0x5d8fc5c117795c9c]),
];

/// The targets [`PROGRAMS`] pins, in column order.
const PROGRAM_TARGETS: [&str; 3] = ["sim", "amx", "wmma"];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run_counts(run: &RunReport) -> RunCounts {
    [
        run.nodes,
        run.classes,
        run.delta_searches,
        run.full_searches,
        run.skipped_searches,
        run.delta_probed_rows,
        run.delta_skipped_rows,
    ]
}

/// Everything a run counted and how it stopped: all of a `RunReport` but
/// its wall clock.
fn counted(run: &RunReport) -> (RunCounts, [usize; 2], [bool; 2]) {
    let stopped = [run.saturated, run.truncated()];
    (run_counts(run), [run.iterations, run.applied], stopped)
}

fn batched() -> SessionBuilder {
    Session::builder().batching(Batching::Batched)
}

/// One workload through `session`: its normalized program and its report.
fn compile(w: &Workload, session: &Session) -> (String, CompileReport) {
    let result = session.compile(&w.lowered).unwrap();
    (normalize_temps(&result.program.to_string()), result.report)
}

/// The whole pool as one `compile_ir_suite` call.
fn compile_suite(all: &[Workload], session: &Session) -> (Vec<String>, CompileReport) {
    let programs: Vec<(&Stmt, &Placements)> = all
        .iter()
        .map(|w| (&w.lowered.stmt, &w.lowered.placements))
        .collect();
    let result = session.compile_ir_suite(&programs);
    let texts = result.programs.iter().map(|p| p.to_string());
    (texts.map(|t| normalize_temps(&t)).collect(), result.report)
}

/// The pool through the three compile shapes: every workload per-leaf,
/// every workload in its own shared graph, the suite in one.
struct Shapes {
    per_leaf: Vec<(String, CompileReport)>,
    batched: Vec<(String, CompileReport)>,
    suite: (Vec<String>, CompileReport),
}

fn every_shape(all: &[Workload]) -> Shapes {
    let per_leaf = Session::default();
    let shared = batched().build().expect("valid session");
    Shapes {
        per_leaf: all.iter().map(|w| compile(w, &per_leaf)).collect(),
        batched: all.iter().map(|w| compile(w, &shared)).collect(),
        suite: compile_suite(all, &shared),
    }
}

/// The engine-level run: every leaf encoded into one graph and saturated
/// with the session's rule list and pass cap, no session around it.
struct Saturated {
    graph: HbGraph,
    roots: Vec<Id>,
    report: RunReport,
}

fn saturate(leaves: &[Stmt], runner: &Runner) -> Saturated {
    let rule_set = RuleSet::build();
    let mut graph = HbGraph::default();
    rules::app_specific::declare_relations(&mut graph);
    let roots = leaves.iter().map(|s| encode_stmt(&mut graph, s)).collect();
    let report = runner.run_to_fixpoint(&mut graph, &rule_set.main, Budget::none());
    Saturated {
        graph,
        roots,
        report,
    }
}

fn pool_runner() -> Runner {
    Runner::new(8, 500_000)
}

/// Same saturated sizes, the same equivalence relation over all leaf roots
/// and the same extracted term for every root.
fn assert_same_saturation(a: &Saturated, b: &Saturated, what: &str) {
    assert_eq!(a.report.nodes, b.report.nodes, "{what}: node counts");
    assert_eq!(a.report.classes, b.report.classes, "{what}: class counts");
    let classes = |s: &Saturated| -> Vec<Id> { s.roots.iter().map(|&r| s.graph.find(r)).collect() };
    let (ca, cb) = (classes(a), classes(b));
    for i in 0..ca.len() {
        for j in i + 1..ca.len() {
            let (in_a, in_b) = (ca[i] == ca[j], cb[i] == cb[j]);
            assert_eq!(in_a, in_b, "{what}: root equivalence {i}≡{j}");
        }
    }
    let cost = DeviceCost::from_profile(&DeviceProfile::a100());
    let (ea, eb) = (
        WorklistExtractor::new(&a.graph, cost),
        WorklistExtractor::new(&b.graph, cost),
    );
    for (i, (&ra, &rb)) in a.roots.iter().zip(&b.roots).enumerate() {
        assert_eq!(ea.extract(ra), eb.extract(rb), "{what}: term of root {i}");
    }
}

#[test]
fn pool_counts_equal_the_recorded_tables() {
    let all = workloads();
    let shapes = every_shape(&all);
    let shared_run = |r: &CompileReport| run_counts(r.batch.as_ref().expect("a batched run"));
    let rows: Vec<(&str, [usize; 3], RunCounts)> = (all.iter())
        .zip(shapes.per_leaf.iter().zip(&shapes.batched))
        .map(|(w, ((_, per_leaf), (_, shared)))| {
            assert_eq!(per_leaf.outcome, CompileOutcome::Saturated, "{}", w.name);
            let runs = || per_leaf.stmts.iter().map(|s| &s.eqsat);
            let nodes = runs().map(|r| r.nodes).sum();
            let iterations = runs().map(|r| r.iterations).sum();
            let leafwise = [per_leaf.num_statements(), nodes, iterations];
            (w.name, leafwise, shared_run(shared))
        })
        .collect();
    let report = &shapes.suite.1;
    assert_eq!(report.outcome, CompileOutcome::Saturated);
    let extraction = report.extraction.as_ref().expect("an extraction report");
    let tables = [extraction.table_entries, extraction.roots()];
    let suite = (shared_run(report), tables);
    let leaves = saturation_pool(&all);
    let run = saturate(&leaves, &pool_runner()).report;
    let engine = ([leaves.len(), run.iterations], run_counts(&run));
    let mut keys: Vec<u64> = (leaves.iter())
        .map(|leaf| canonical_program_hash(leaf, &Placements::new()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let leaf_keys = [leaves.len(), keys.len()];

    if std::env::var_os("HB_PRINT_GOLDEN").is_some() {
        for row in &rows {
            println!("    {row:?},");
        }
        println!("SUITE = {suite:?}\nENGINE = {engine:?}\nLEAF_KEYS = {leaf_keys:?}");
        return;
    }
    assert_eq!(rows.len(), WORKLOADS.len(), "count table out of date");
    for (got, want) in rows.iter().zip(WORKLOADS) {
        assert_eq!(got, want, "{}: [per-leaf], [batched] counts moved", want.0);
    }
    assert_eq!(suite, SUITE, "whole-suite counts moved");
    assert_eq!(engine, ENGINE, "engine-level pool counts moved");
    assert_eq!(leaf_keys, LEAF_KEYS, "the pool's leaf repetition moved");
}

#[test]
fn selected_programs_equal_the_recorded_hashes() {
    let all = workloads();
    let sessions: Vec<Session> = (PROGRAM_TARGETS.iter())
        .map(|name| {
            Session::builder()
                .target_name(name)
                .build()
                .expect("valid session")
        })
        .collect();
    let rows: Vec<(&str, [u64; 3])> = (all.iter())
        .map(|w| {
            let hashes = std::array::from_fn(|i| fnv1a(&compile(w, &sessions[i]).0));
            (w.name, hashes)
        })
        .collect();
    if std::env::var_os("HB_PRINT_GOLDEN").is_some() {
        for (name, [sim, amx, wmma]) in &rows {
            println!("    ({name:?}, [{sim:#018x}, {amx:#018x}, {wmma:#018x}]),");
        }
        return;
    }
    assert_eq!(rows.len(), PROGRAMS.len(), "program table out of date");
    for (got, want) in rows.iter().zip(PROGRAMS) {
        assert_eq!(got, want, "{}: a selected program moved", want.0);
    }
}

#[test]
fn a_cached_second_pass_runs_no_unit_and_selects_the_first_pass_programs() {
    let all = workloads();
    let cache = Arc::new(ReportCache::default());
    let session = (Session::builder().report_cache(Arc::clone(&cache)))
        .build()
        .expect("valid session");
    let pass = || -> Vec<_> { all.iter().map(|w| compile(w, &session)).collect() };
    let (first, second) = (pass(), pass());
    assert_eq!(cache.len(), CACHED_ENTRIES, "cached entries moved");
    let uncached = Session::default();
    for (w, ((cold, _), (warm, report))) in all.iter().zip(first.iter().zip(&second)) {
        let direct = compile(w, &uncached).0;
        assert_eq!(cold, &direct, "{}: the first cached pass diverged", w.name);
        assert_eq!(report.cache, CacheOutcome::Hit, "{}", w.name);
        assert_eq!(warm, cold, "{}: the cached pass selected otherwise", w.name);
        let extraction = report.extraction.as_ref().expect("leaves were read out");
        assert_eq!(extraction.table_entries, 0, "{}: a unit ran", w.name);
        assert!(report.stmts.iter().all(|s| s.eqsat == RunReport::default()));
    }
}

#[test]
fn per_leaf_batched_and_whole_suite_select_the_same_programs() {
    let all = workloads();
    let shapes = every_shape(&all);
    for (i, w) in all.iter().enumerate() {
        let ((per_leaf, leaf_report), (shared, shared_report)) =
            (&shapes.per_leaf[i], &shapes.batched[i]);
        assert_eq!(per_leaf, shared, "{}: batched selection", w.name);
        assert_eq!(
            leaf_report.num_statements(),
            shared_report.num_statements(),
            "{}: leaf counts",
            w.name
        );
        let suite = &shapes.suite.0[i];
        assert_eq!(per_leaf, suite, "{}: whole-suite selection", w.name);
    }
}

#[test]
fn indexed_matches_naive_on_the_pool_graph() {
    let leaves = saturation_pool(&workloads());
    let indexed = saturate(&leaves, &pool_runner());
    let naive = saturate(&leaves, &pool_runner().with_naive_matcher(true));
    assert_same_saturation(&indexed, &naive, "indexed vs naive");
    indexed.graph.check_op_index();
    indexed.graph.check_op_epochs();
    // The engine's hook sites with a sink present: nothing but the clock
    // reads may differ.
    let sink = Arc::new(NullSink);
    let profiled = saturate(&leaves, &pool_runner().with_profile_sink(sink));
    assert_same_saturation(&indexed, &profiled, "plain vs null profile sink");
    let (plain, hooked) = (counted(&indexed.report), counted(&profiled.report));
    assert_eq!(plain, hooked, "null profile sink: a counter moved");
}

#[test]
fn every_relation_the_pool_fills_is_read_by_a_rule() {
    // A relation no query names is pure write cost: every relation that
    // holds tuples after saturating the pool must appear as a relation
    // atom of some rule.
    let rule_set = RuleSet::build();
    let read: Vec<&str> = (rule_set.main.iter())
        .flat_map(|r| &r.query.atoms)
        .filter_map(|atom| match atom {
            Atom::Rel { name, .. } => Some(name.as_str()),
            Atom::Pat { .. } => None,
        })
        .collect();
    let pool = saturate(&saturation_pool(&workloads()), &pool_runner());
    let relations = pool.graph.relations();
    let mut filled: Vec<&str> = relations
        .names()
        .filter(|&n| relations.len(n) > 0)
        .collect();
    filled.sort_unstable();
    assert!(!filled.is_empty(), "the pool fills no relation");
    for name in filled {
        assert!(
            read.contains(&name),
            "relation {name:?} is written but no rule reads it"
        );
    }
}

#[test]
fn observers_and_idle_budgets_change_nothing() {
    let all = workloads();
    // Everything the run and the extraction counted.
    let counters = |report: &CompileReport| {
        let run = counted(report.batch.as_ref().expect("a batched run"));
        let extraction = report.extraction.as_ref().expect("an extraction report");
        (run, extraction.table_entries, extraction.root_costs.clone())
    };
    let (reference, plain) = compile_suite(&all, &batched().build().expect("valid session"));
    let metrics = Arc::new(MetricsRegistry::default());
    let arms = [
        (
            "tracer + registry + null profile sink",
            batched()
                .tracer(Tracer::new())
                .metrics(Arc::clone(&metrics))
                .profile_sink(Arc::new(NullSink)),
        ),
        (
            "a 120 s deadline + an unreachable match budget",
            batched()
                .deadline(Duration::from_secs(120))
                .match_budget(usize::MAX / 2),
        ),
    ];
    for (what, builder) in arms {
        let session = builder.build().expect("valid session");
        let (programs, report) = compile_suite(&all, &session);
        assert_eq!(reference, programs, "{what}: a selected program changed");
        assert_eq!(report.outcome, CompileOutcome::Saturated, "{what}");
        assert_eq!(
            counters(&plain),
            counters(&report),
            "{what}: a counter moved"
        );
    }
    let recorded = metrics.snapshot().counter("compile.outcome.saturated");
    assert_eq!(recorded, Some(1), "the instrumented arm recorded nothing");
}
