//! The selector workload pool (`hb_bench::workloads`: 14 workloads, 158
//! leaves in sessions, which saturate one root per leaf shape, 161 leaves
//! at engine level) as one guard that reads no clock:
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
//! * **leaf repetition** — how many distinct contents (the canonical hash
//!   of the annotated leaf) and how many distinct leaf shapes the pool's
//!   leaves have, how many shapes a cache stores for it, and that a second,
//!   cached pass over the pool runs no unit and selects the first pass's
//!   programs.
//! * **selected programs** — the FNV-1a hash of every workload's
//!   normalized program under `sim`, `amx` and `wmma` sessions, recorded
//!   at a previous commit, so "byte-identical selection" is checked
//!   against history and not only between configurations of one build.
//! * **per-rule work** — each rule's searches, probed rows, found and
//!   applied matches, from a `CollectingSink`, on the 161-leaf engine run
//!   (`RULES`) and on a coverage graph whose leaves make the rules the pool
//!   never fires match (`RULES_COVERAGE`), so a matcher or rule change
//!   names the rules whose work it moved. Each rule's share of search time
//!   is printed beside it, never pinned. Every rule must apply a match in
//!   one of the two tables ([`KEPT_IDLE`] lists none that may not).
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
use hardboiled::rules::RuleSet;
use hardboiled::{
    canonical_program_hash, Batching, CacheOutcome, CompileOutcome, CompileReport, DeviceCost,
    HbGraph, HbLang, ReportCache, Session, SessionBuilder,
};
use hb_accel::device::DeviceProfile;
use hb_apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hb_apps::resample_int::{Downsample, Upsample};
use hb_bench::workloads::{saturation_leaves, saturation_pool, workloads, Workload};
use hb_egraph::extract::WorklistExtractor;
use hb_egraph::language::Language;
use hb_egraph::pattern::Pattern;
use hb_egraph::schedule::{Budget, RunReport, Runner};
use hb_egraph::unionfind::Id;
use hb_ir::stmt::Stmt;
use hb_lang::lower::lower;
use hb_obs::{CollectingSink, MetricsRegistry, NullSink, Tracer};

/// One saturation run's `[nodes, classes, delta searches, full searches,
/// skipped searches, probed rows, skipped rows]`. A delta probe filters its
/// root operator's index row by class epoch, so probed + skipped is the
/// row's length. The split was re-pinned, sums unchanged, when the
/// per-operator change rows gave way to one epoch per class: the probes
/// visit 7–9 % more rows (SUITE 1 041 / 2 091 before, ENGINE
/// 5 438 / 9 465) and every other count stayed where it was.
type RunCounts = [usize; 7];

/// Per workload: per-leaf `[statements, nodes, iterations]` (summed over the
/// graphs of its leaf shapes — a session saturates one leaf per shape, so
/// the unrolled conv1d rows do not grow with k), then the [`RunCounts`] of
/// its one batched graph.
#[rustfmt::skip]
const WORKLOADS: &[(&str, [usize; 3], RunCounts)] = &[
    ("conv1d_tc_k16", [3, 112, 8], [83, 64, 83, 30, 7, 102, 156]),
    ("conv1d_tc_k64", [3, 112, 8], [83, 64, 83, 30, 7, 102, 156]),
    ("conv1d_tc_k32_n4096", [3, 112, 8], [83, 64, 83, 30, 7, 102, 156]),
    ("conv1d_unrolled_k64", [10, 172, 12], [108, 82, 83, 30, 7, 173, 202]),
    ("conv1d_unrolled_k256", [34, 172, 12], [108, 82, 83, 30, 7, 173, 202]),
    ("conv1d_unrolled_k128_n2048", [18, 172, 12], [108, 82, 83, 30, 7, 173, 202]),
    ("conv1d_unrolled_k512", [66, 172, 12], [108, 82, 83, 30, 7, 173, 202]),
    ("gemm_wmma_32", [3, 138, 8], [113, 81, 83, 30, 7, 183, 331]),
    ("gemm_wmma_64", [3, 138, 8], [113, 81, 83, 30, 7, 183, 331]),
    ("gemm_wmma_96_32_48", [3, 139, 8], [116, 83, 83, 30, 7, 184, 333]),
    ("conv2d_512x64_k16x3", [3, 131, 8], [100, 74, 83, 30, 7, 113, 262]),
    ("conv2d_256x128_k8x5", [3, 113, 8], [86, 66, 83, 30, 7, 103, 158]),
    ("matmul_amx_standard", [3, 150, 9], [127, 93, 99, 30, 21, 215, 439]),
    ("matmul_amx_vnni", [3, 149, 8], [126, 91, 82, 30, 8, 192, 373]),
];

/// The whole suite in one shared graph, then `[table entries, root costs]`
/// (one cost per leaf). The graph holds one root per leaf shape, a fifth
/// of the engine-level graph below, which encodes every leaf.
const SUITE: (RunCounts, [usize; 2]) = ([543, 379, 99, 30, 21, 1115, 2017], [379, 158]);

/// Engine level: `[leaves, iterations]`, then the pool graph's counts.
const ENGINE: ([usize; 2], RunCounts) = ([161, 5], [2549, 1814, 99, 30, 21, 5946, 8957]);

/// The pool's leaves: `[leaves, distinct contents, distinct shapes]`. A
/// content hash covers the whole annotated leaf, names included, so equal
/// leaves share one and nothing else does; it is not the report cache's
/// key, which hashes a leaf's shape (leaves that differ only in base
/// offsets share one), read here as the units an uncached per-leaf compile
/// of every leaf runs.
const LEAF_KEYS: [usize; 3] = [161, 85, 23];

/// Entries a cached per-leaf pass over the 14 workloads stores, one per
/// leaf shape.
const CACHED_ENTRIES: usize = 22;

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

/// One rule's work over a run: `[searches, probed rows, found, matches]`.
/// Probed rows and `found` (which counts matches a delta search finds
/// again) moved with the class-epoch probes; searches and matches did not.
type RuleWork = [usize; 4];

/// Per rule, in pass order, its [`RuleWork`] in the 161-leaf engine run.
#[rustfmt::skip]
const RULES: &[(&str, RuleWork)] = &[
    ("bcast-flatten", [5, 392, 28, 8]),
    ("bcast-into-load", [5, 376, 144, 72]),
    ("bcast-into-cast", [5, 376, 216, 72]),
    ("ramp-bcast-absorb", [5, 312, 16, 8]),
    ("add-comm", [5, 320, 790, 166]),
    ("mul-comm", [5, 169, 434, 96]),
    ("add-zero", [5, 240, 796, 8]),
    ("bcast-nest-sibling-add", [5, 240, 21, 5]),
    ("ramp-split-2", [5, 385, 446, 149]),
    ("bcast-through-AMX2Mem", [4, 380, 0, 0]),
    ("ramp-merge", [4, 11, 230, 0]),
    ("amx-a-standard", [4, 224, 2, 1]),
    ("amx-a-preloaded", [4, 3, 0, 0]),
    ("amx-b-standard", [4, 224, 1, 1]),
    ("amx-b-vnni", [4, 225, 1, 1]),
    ("amx-b-vnni-preloaded", [4, 3, 0, 0]),
    ("wmma-matmul", [4, 239, 8, 4]),
    ("wmma-conv1d", [4, 239, 134, 67]),
    ("wmma-downsample", [4, 239, 0, 0]),
    ("wmma-upsample", [4, 239, 0, 0]),
    ("amx-matmul", [4, 244, 4, 2]),
    ("cancel-mem-amx", [4, 9, 6, 3]),
    ("cancel-mem-wmma", [4, 222, 150, 75]),
    ("amx-tile-zero", [4, 7, 10, 1]),
    ("wmma-tile-zero", [4, 147, 219, 1]),
    ("amx-reg-load", [4, 6, 0, 0]),
    ("amx-tile-store", [4, 157, 2, 1]),
    ("wmma-tile-store", [4, 156, 15, 6]),
    ("wmma-tile-store-flat", [4, 153, 9, 3]),
    ("multiply-lanes", [4, 9, 12, 6]),
];

/// Per rule, in pass order, its [`RuleWork`] in one graph of the
/// [`coverage_leaves`], where every rule the pool leaves idle among
/// `wmma-downsample`, `wmma-upsample`, `amx-a-preloaded`,
/// `amx-b-vnni-preloaded` and `amx-reg-load` applies.
#[rustfmt::skip]
const RULES_COVERAGE: &[(&str, RuleWork)] = &[
    ("bcast-flatten", [5, 51, 21, 6]),
    ("bcast-into-load", [5, 39, 10, 5]),
    ("bcast-into-cast", [5, 39, 15, 5]),
    ("ramp-bcast-absorb", [5, 36, 12, 6]),
    ("add-comm", [5, 42, 96, 24]),
    ("mul-comm", [5, 29, 81, 23]),
    ("add-zero", [5, 35, 106, 6]),
    ("bcast-nest-sibling-add", [5, 35, 17, 5]),
    ("ramp-split-2", [5, 41, 44, 13]),
    ("bcast-through-AMX2Mem", [4, 42, 3, 1]),
    ("ramp-merge", [4, 14, 32, 5]),
    ("amx-a-standard", [4, 23, 4, 2]),
    ("amx-a-preloaded", [4, 9, 2, 1]),
    ("amx-b-standard", [4, 23, 1, 1]),
    ("amx-b-vnni", [4, 24, 2, 2]),
    ("amx-b-vnni-preloaded", [4, 9, 1, 1]),
    ("wmma-matmul", [4, 33, 2, 0]),
    ("wmma-conv1d", [4, 33, 0, 0]),
    ("wmma-downsample", [4, 33, 2, 1]),
    ("wmma-upsample", [4, 33, 2, 1]),
    ("amx-matmul", [4, 44, 8, 4]),
    ("cancel-mem-amx", [4, 17, 10, 5]),
    ("cancel-mem-wmma", [4, 12, 8, 4]),
    ("amx-tile-zero", [4, 14, 21, 1]),
    ("wmma-tile-zero", [4, 8, 12, 2]),
    ("amx-reg-load", [4, 13, 4, 2]),
    ("amx-tile-store", [4, 20, 2, 1]),
    ("wmma-tile-store", [4, 19, 6, 2]),
    ("wmma-tile-store-flat", [4, 19, 6, 2]),
    ("multiply-lanes", [4, 9, 12, 6]),
];

/// The rules that change neither ledger graph but stay in the set: none. A
/// rule that applies no match on either graph is deleted, not kept.
const KEPT_IDLE: [&str; 0] = [];

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

/// The distinct shapes of `leaves`: the units an uncached per-leaf compile
/// of all of them runs, one per shape.
fn leaf_shapes(leaves: &[Stmt]) -> usize {
    let none = Placements::new();
    let suite: Vec<(&Stmt, &Placements)> = leaves.iter().map(|leaf| (leaf, &none)).collect();
    let report = Session::default().compile_ir_suite(&suite).report;
    assert_eq!(report.num_statements(), leaves.len(), "a leaf was lost");
    report.units.len()
}

/// The run of a compile that ran one shared unit.
fn shared_unit(report: &CompileReport) -> &RunReport {
    let [run] = &report.units[..] else {
        panic!("one shared unit, not {}", report.units.len());
    };
    run
}

#[test]
fn pool_counts_equal_the_recorded_tables() {
    let all = workloads();
    let shapes = every_shape(&all);
    let shared_run = |r: &CompileReport| run_counts(shared_unit(r));
    let rows: Vec<(&str, [usize; 3], RunCounts)> = (all.iter())
        .zip(shapes.per_leaf.iter().zip(&shapes.batched))
        .map(|(w, ((_, per_leaf), (_, shared)))| {
            assert_eq!(per_leaf.outcome, CompileOutcome::Saturated, "{}", w.name);
            let runs = || per_leaf.units.iter();
            let nodes = runs().map(|r| r.nodes).sum();
            let iterations = runs().map(|r| r.iterations).sum();
            let leafwise = [per_leaf.num_statements(), nodes, iterations];
            (w.name, leafwise, shared_run(shared))
        })
        .collect();
    let report = &shapes.suite.1;
    assert_eq!(report.outcome, CompileOutcome::Saturated);
    let extraction = report.extraction.as_ref().expect("an extraction report");
    let tables = [extraction.table_entries, extraction.root_costs.len()];
    let suite = (shared_run(report), tables);
    let leaves = saturation_pool(&all);
    let run = saturate(&leaves, &pool_runner()).report;
    let engine = ([leaves.len(), run.iterations], run_counts(&run));
    let mut keys: Vec<u64> = (leaves.iter())
        .map(|leaf| canonical_program_hash(leaf, &Placements::new()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let leaf_keys = [leaves.len(), keys.len(), leaf_shapes(&leaves)];

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

/// The leaves of the resampling pipelines and of the AMX schedules the pool
/// does not hold: register-resident (preloaded) operands and a reordered
/// loop nest.
fn coverage_leaves() -> Vec<Stmt> {
    let amx = |layout, variant| {
        (AmxMatmul::default().pipeline(layout, variant)).expect("a supported AMX schedule")
    };
    let pipelines = [
        Downsample { n: 256, k: 16 }.pipeline(true),
        Upsample { n: 512, taps: 8 }.pipeline(true),
        amx(Layout::Standard, Variant::PreloadA),
        amx(Layout::Vnni, Variant::PreloadB),
        amx(Layout::Vnni, Variant::PreloadA),
        amx(Layout::Standard, Variant::LoopReorder),
    ];
    (pipelines.iter())
        .flat_map(|p| saturation_leaves(&lower(p).expect("lowering must succeed")))
        .collect()
}

/// Saturates `leaves` in one graph under a [`CollectingSink`]: each rule's
/// [`RuleWork`] in pass order, and its wall time.
fn rule_ledger(leaves: &[Stmt]) -> Vec<(String, RuleWork, Duration)> {
    let sink = Arc::new(CollectingSink::new());
    saturate(leaves, &pool_runner().with_profile_sink(sink.clone()));
    let mut ledger: Vec<(String, RuleWork, Duration)> = (RuleSet::build().main.iter())
        .map(|rule| (rule.name.clone(), [0; 4], Duration::ZERO))
        .collect();
    for sample in sink.samples() {
        let (_, work, time) = (ledger.iter_mut())
            .find(|(name, ..)| *name == sample.rule)
            .expect("a sample names a rule of the set");
        let counts = [1, sample.probed_rows, sample.found, sample.matches];
        for (total, count) in work.iter_mut().zip(counts) {
            *total += count;
        }
        *time += sample.duration;
    }
    ledger
}

#[test]
fn per_rule_work_equals_the_recorded_ledgers() {
    let pool = rule_ledger(&saturation_pool(&workloads()));
    let coverage = rule_ledger(&coverage_leaves());
    let golden = std::env::var_os("HB_PRINT_GOLDEN").is_some();
    for (title, ledger, want) in [
        ("RULES", &pool, RULES),
        ("RULES_COVERAGE", &coverage, RULES_COVERAGE),
    ] {
        let total: Duration = ledger.iter().map(|(.., time)| *time).sum();
        println!("{title} (unpinned: each rule's share of search time)");
        for (name, work, time) in ledger {
            let share = time.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE);
            if golden {
                println!("    ({name:?}, {work:?}),");
            } else {
                let work = format!("{work:?}");
                println!("    {name:<24} {work:<22} {:5.1} %", 100.0 * share);
            }
        }
        if golden {
            continue;
        }
        let got: Vec<(&str, RuleWork)> = (ledger.iter())
            .map(|(name, work, _)| (name.as_str(), *work))
            .collect();
        assert_eq!(got.len(), want.len(), "{title}: rule list out of date");
        for (got, want) in got.iter().zip(want) {
            assert_eq!(
                got, want,
                "{title}: a rule's [searches, probed, found, matches] moved"
            );
        }
    }
}

#[test]
fn every_rule_changes_a_ledger_graph() {
    // A rule that applies no match on the pool or on the coverage graph
    // adds search work and selects nothing. The ledgers are pinned to the
    // live runs by `per_rule_work_equals_the_recorded_ledgers`.
    let names = |table: &[(&'static str, RuleWork)]| -> Vec<&'static str> {
        table.iter().map(|(name, _)| *name).collect()
    };
    assert_eq!(
        names(RULES),
        names(RULES_COVERAGE),
        "the two ledgers list other rules"
    );
    let idle: Vec<&str> = (RULES.iter().zip(RULES_COVERAGE))
        .filter(|((_, pool), (_, coverage))| pool[3] == 0 && coverage[3] == 0)
        .map(|((name, _), _)| *name)
        .collect();
    assert_eq!(
        idle, KEPT_IDLE,
        "the rules idle on both ledger graphs are not the ones kept on purpose"
    );
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
        assert!(report.units.is_empty(), "{}: a unit ran", w.name);
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
    indexed.graph.check_epochs();
    // The engine's hook sites with a sink present: nothing but the clock
    // reads may differ.
    let sink = Arc::new(NullSink);
    let profiled = saturate(&leaves, &pool_runner().with_profile_sink(sink));
    assert_same_saturation(&indexed, &profiled, "plain vs null profile sink");
    let (plain, hooked) = (counted(&indexed.report), counted(&profiled.report));
    assert_eq!(plain, hooked, "null profile sink: a counter moved");
}

/// Whether `node` is a fact — a node rules state for each other to join,
/// never a value.
fn is_fact(node: &HbLang) -> bool {
    matches!(node, HbLang::AmxATile(_) | HbLang::AmxBTile(_))
}

#[test]
fn every_fact_the_pool_fills_is_read_by_a_rule() {
    // A fact no query names is pure write cost: every fact operator the
    // saturated pool graph holds must root an atom of some rule's query.
    let rule_set = RuleSet::build();
    let read = |fact: &HbLang| {
        (rule_set.main.iter())
            .flat_map(|r| r.compiled.decompile().atoms)
            .any(|atom| matches!(&atom.pattern, Pattern::Node(op, _) if op.matches_op(fact)))
    };
    let pool = saturate(&saturation_pool(&workloads()), &pool_runner());
    let mut filled: Vec<String> = Vec::new();
    for fact in (pool.graph.classes().flat_map(|class| &class.nodes)).filter(|&node| is_fact(node))
    {
        assert!(
            read(fact),
            "{} is added but no rule reads it",
            fact.op_name()
        );
        filled.push(fact.op_name());
    }
    filled.sort_unstable();
    filled.dedup();
    assert_eq!(
        filled,
        ["amx-A-tile", "amx-B-tile"],
        "the facts the pool fills"
    );
}

#[test]
fn facts_never_reach_a_program() {
    // Facts are e-nodes, so the extractor sees them: no root's extracted
    // term — what a selected program is decoded from — may contain one.
    let pool = saturate(&saturation_pool(&workloads()), &pool_runner());
    let extractor = WorklistExtractor::new(
        &pool.graph,
        DeviceCost::from_profile(&DeviceProfile::a100()),
    );
    for (i, &root) in pool.roots.iter().enumerate() {
        let term = extractor.extract(root);
        assert!(
            !term.nodes().iter().any(is_fact),
            "root {i}: {}",
            term.to_sexp()
        );
    }
}

#[test]
fn observers_and_idle_budgets_change_nothing() {
    let all = workloads();
    // Everything the run and the extraction counted.
    let counters = |report: &CompileReport| {
        let run = counted(shared_unit(report));
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
