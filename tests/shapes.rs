//! Leaf shapes: unrolled statements that differ only in base offsets.
//!
//! The Fig. 6 schedule unrolls conv1d's reduction loop, so a kernel of `k`
//! taps lowers to `k / 8` multiply-accumulate leaves that differ only in the
//! literal offsets of their ramps. A session saturates one leaf per shape
//! and substitutes each leaf's offsets into the shape's selection. This
//! file holds the oracles of that:
//!
//! * **history** — such programs select what they selected before shapes
//!   were grouped: the FNV-1a hash of each normalized program under `sim`,
//!   `amx` and `wmma` sessions, in both batching modes, recorded at a
//!   previous commit ([`PROGRAMS`]). The table moves only with an intended
//!   change of what the selector picks; re-record it with `HB_PRINT_GOLDEN=1
//!   cargo test --release --test shapes -- --nocapture`.
//! * **semantics** — the selected programs run on the simulator and match
//!   the scalar reference.
//! * **Fig. 6 is flat** — the batched graph of an unrolled conv1d does not
//!   grow with the unroll factor, nor does the number of units an uncached
//!   per-leaf compile of it runs, one per shape.
//! * **unshaped reference** — every leaf of the selector pool, the `hb-apps`
//!   applications and the unrolled ladder selects what it selects when
//!   saturated alone and never parametrized, through public API only
//!   (encode → saturate → extract → decode → materialize), under every
//!   target and both batching modes, with and without a report cache. The
//!   history table pins shapes against themselves; this pins the parameter
//!   rule against the plain selection it must not change.

use std::collections::HashMap;
use std::sync::Arc;

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::harness::{compile_and_run_with, max_rel_error};
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::egraph::extract::WorklistExtractor;
use hardboiled_repro::egraph::schedule::{Budget, Runner};
use hardboiled_repro::hardboiled::decode::decode_stmt;
use hardboiled_repro::hardboiled::encode::encode_stmt;
use hardboiled_repro::hardboiled::movement::{annotate_stmt, collect_placements};
use hardboiled_repro::hardboiled::postprocess::{normalize_temps, try_materialize_owned};
use hardboiled_repro::hardboiled::rules::RuleSet;
use hardboiled_repro::hardboiled::{Batching, DeviceCost, HbGraph, ReportCache, Session};
use hardboiled_repro::ir::expr::Expr;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::lang::lower::{lower, Lowered};

/// The targets [`PROGRAMS`] pins, in column order.
const TARGETS: [&str; 3] = ["sim", "amx", "wmma"];

/// Per program: the FNV-1a hash of its normalized selected program under
/// the `sim`, `amx` and `wmma` targets, per-leaf and batched alike.
#[rustfmt::skip]
const PROGRAMS: &[(&str, [u64; 3])] = &[
    ("conv1d_unrolled_n256_k8", [0xf525557e8a481b3f, 0xa7d680f8aab31a25, 0xf525557e8a481b3f]),
    ("conv1d_unrolled_n256_k16", [0x72515e95815c1cff, 0x36734f9b8a6a28b4, 0x72515e95815c1cff]),
    ("conv1d_unrolled_n256_k24", [0x7e17989b9eccab8a, 0x427b261bb9bbf117, 0x7e17989b9eccab8a]),
    ("conv1d_unrolled_n512_k64", [0x30cd9c5f5500cf09, 0x21d84ecaad66d137, 0x30cd9c5f5500cf09]),
    ("conv1d_unrolled_n512_k120", [0x605cb6887ff88719, 0x0f3f3dd50022d27b, 0x605cb6887ff88719]),
    ("conv1d_unrolled_n512_k176", [0x130d6a8fa148e562, 0x9eaaa7704d62d4bd, 0x130d6a8fa148e562]),
    ("conv1d_unrolled_n512_k232", [0x0ae21052aa8a182f, 0x5a703723beaaff4f, 0x0ae21052aa8a182f]),
    ("conv1d_unrolled_n512_k288", [0x4f4ab868ed689575, 0x1e6399f404eb6dc9, 0x4f4ab868ed689575]),
    ("conv1d_unrolled_n512_k344", [0x7241a9fa830202ae, 0x22e6df0b5fdfe477, 0x7241a9fa830202ae]),
    ("conv1d_unrolled_n512_k400", [0x9a659899d3306272, 0x770317f542a0688d, 0x9a659899d3306272]),
    ("conv1d_unrolled_n512_k456", [0xa7ad27f0dff038d4, 0xabe00fed881e973b, 0xa7ad27f0dff038d4]),
    ("conv1d_unrolled_n512_k512", [0x3fe4a3d303e57907, 0x5373a7de35c76c01, 0x3fe4a3d303e57907]),
    ("conv1d_unrolled_n768_k64", [0xd348e1de89c9ce58, 0x5770796b221f0ac8, 0xd348e1de89c9ce58]),
    ("conv1d_unrolled_n768_k120", [0xfef2df9327542bda, 0x79a15c4bcd4703e0, 0xfef2df9327542bda]),
    ("conv1d_unrolled_n768_k176", [0xe63e13c600009b4f, 0xe9b567491aacf402, 0xe63e13c600009b4f]),
    ("conv1d_unrolled_n768_k232", [0xf1b2342060bc7c44, 0xd6851a2f7ed1f624, 0xf1b2342060bc7c44]),
    ("conv1d_unrolled_n768_k288", [0x56ec929be1b743a8, 0x6d1eaaa661162a0e, 0x56ec929be1b743a8]),
    ("conv1d_unrolled_n768_k344", [0x59d69c075cabd28d, 0x3616731f61d6038c, 0x59d69c075cabd28d]),
    ("conv1d_unrolled_n768_k400", [0x9f52d736bd53c25b, 0x6816eb75ac960b1a, 0x9f52d736bd53c25b]),
    ("conv1d_unrolled_n768_k456", [0x2cbbde2068d07ecb, 0xca02e5b4f3584da8, 0x2cbbde2068d07ecb]),
    ("conv1d_unrolled_n768_k512", [0x2f48021b7cb9f4e2, 0x259ba7ad34ddb3fe, 0x2f48021b7cb9f4e2]),
];

/// The programs [`PROGRAMS`] pins: the small unrolled kernels, whose
/// offsets (8, 16) equal the lane count 8, then the benchmark's Fig. 6
/// ladder `k = 64 + 56 i` at two image widths.
fn programs() -> Vec<Conv1d> {
    let small = [8, 16, 24].map(|k| Conv1d { n: 256, k });
    let ladder = [512, 768]
        .into_iter()
        .flat_map(|n| (0..9).map(move |i| Conv1d { n, k: 64 + 56 * i }));
    small.into_iter().chain(ladder).collect()
}

fn name(app: &Conv1d) -> String {
    format!("conv1d_unrolled_n{}_k{}", app.n, app.k)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn session(target: &str, batching: Batching) -> Session {
    Session::builder()
        .target_name(target)
        .batching(batching)
        .build()
        .expect("valid session")
}

#[test]
fn unrolled_programs_equal_the_recorded_hashes() {
    let modes = [Batching::PerLeaf, Batching::Batched];
    let sessions = modes.map(|b| TARGETS.map(|t| session(t, b)));
    let mut rows = Vec::new();
    for app in programs() {
        let lowered = lower(&app.pipeline_tc_unrolled()).expect("conv1d lowers");
        let [per_leaf, batched] = &sessions;
        let hash = |s: &Session| {
            let program = s.compile(&lowered).expect("conv1d compiles").program;
            fnv1a(&normalize_temps(&program.to_string()))
        };
        let leaf_row: [u64; 3] = std::array::from_fn(|i| hash(&per_leaf[i]));
        let batch_row: [u64; 3] = std::array::from_fn(|i| hash(&batched[i]));
        assert_eq!(leaf_row, batch_row, "{}: per-leaf ≢ batched", name(&app));
        rows.push((name(&app), leaf_row));
    }
    if std::env::var_os("HB_PRINT_GOLDEN").is_some() {
        for (name, [sim, amx, wmma]) in &rows {
            println!("    ({name:?}, [{sim:#018x}, {amx:#018x}, {wmma:#018x}]),");
        }
        return;
    }
    assert_eq!(rows.len(), PROGRAMS.len(), "program table out of date");
    for ((got_name, got), (want_name, want)) in rows.iter().zip(PROGRAMS) {
        assert_eq!(got_name, want_name, "program table out of order");
        assert_eq!(got, want, "{want_name}: a selected program moved");
    }
}

#[test]
fn unrolled_programs_run_within_tolerance_of_the_reference() {
    for target in ["sim", "wmma"] {
        for batching in [Batching::PerLeaf, Batching::Batched] {
            let session = session(target, batching);
            for k in [8, 64, 288, 512] {
                let app = Conv1d { n: 256, k };
                let (i, kernel) = app.inputs();
                let inputs = [("I", &i[..]), ("K", &kernel[..])];
                let run = compile_and_run_with(&session, &app.pipeline_tc_unrolled(), &inputs)
                    .expect("conv1d runs");
                let report = run.selection.as_ref().expect("the selector ran");
                assert!(report.all_lowered(), "{target} {batching:?} k={k}");
                let error = max_rel_error(&run.output, &app.reference());
                assert!(error < 0.05, "{target} {batching:?} k={k}: error {error}");
            }
        }
    }
}

#[test]
fn the_batched_graph_does_not_grow_with_the_unroll_factor() {
    let session = session("sim", Batching::Batched);
    let compile = |k| {
        let lowered = lower(&Conv1d { n: 512, k }.pipeline_tc_unrolled()).unwrap();
        let report = session.compile(&lowered).unwrap().report;
        let [run] = &report.units[..] else {
            panic!("one batched unit");
        };
        let nodes = run.nodes;
        (report.num_statements(), nodes)
    };
    let ((small_leaves, small), (large_leaves, large)) = (compile(64), compile(512));
    assert_eq!((small_leaves, large_leaves), (10, 66));
    assert_eq!(small, large, "the graph grew with k");
}

#[test]
fn per_leaf_units_do_not_grow_with_the_unroll_factor() {
    let session = session("sim", Batching::PerLeaf);
    for n in [512, 768] {
        // (leaves, units) along the ladder.
        let counts: Vec<(usize, usize)> = (0..9)
            .map(|i| {
                let app = Conv1d { n, k: 64 + 56 * i };
                let lowered = lower(&app.pipeline_tc_unrolled()).unwrap();
                let report = session.compile(&lowered).unwrap().report;
                (report.num_statements(), report.units.len())
            })
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "n={n}: the leaves must grow with k: {counts:?}"
        );
        assert!(counts[0].1 > 0, "n={n}: an uncached compile runs a unit");
        assert!(
            counts.iter().all(|&(_, units)| units == counts[0].1),
            "n={n}: the units grew with k: {counts:?}"
        );
    }
}

/// Whether the annotated statement is a leaf a session saturates: a
/// `Store` / `Evaluate` that moves data.
fn is_selection_leaf(s: &Stmt) -> bool {
    let mut moves = false;
    s.for_each_expr(&mut |e| moves |= matches!(e, Expr::LocToLoc { .. }));
    moves && matches!(s, Stmt::Store { .. } | Stmt::Evaluate(_))
}

/// What `session` selects for `lowered` when every leaf is saturated in a
/// graph of its own, as it is, and never parametrized: the annotated
/// program with each leaf replaced by its plain selection. `memo` holds
/// the selections already made under this session's target, by leaf.
fn unshaped(session: &Session, lowered: &Lowered, memo: &mut HashMap<String, Stmt>) -> Stmt {
    let target = session.target();
    let mut placements = collect_placements(&lowered.stmt);
    placements.extend(lowered.placements.iter().map(|(k, v)| (k.clone(), *v)));
    placements.retain(|_, m| target.supports(*m));
    let rules = RuleSet::for_profile(target.rule_profile());
    let cost = DeviceCost::from_profile(target.device());
    // A session's runner: eight passes, the per-leaf node limit.
    let runner = Runner::new(8, 200_000);
    let select = |leaf: &Stmt| {
        let mut graph = HbGraph::default();
        let root = encode_stmt(&mut graph, leaf);
        runner.run_to_fixpoint(&mut graph, &rules.main, Budget::none());
        let extractor = WorklistExtractor::new(&graph, cost);
        let term = extractor.cost_of(root).map(|_| extractor.extract(root));
        let decoded = term.and_then(|t| decode_stmt(&t).ok());
        let materialized = decoded.and_then(|d| try_materialize_owned(d).ok());
        materialized.unwrap_or_else(|| leaf.clone())
    };
    let annotated = annotate_stmt(&lowered.stmt, &placements);
    annotated.rewrite_stmts_bottom_up(&mut |s| {
        is_selection_leaf(s).then(|| {
            let key = format!("{s:?}");
            memo.entry(key).or_insert_with(|| select(s)).clone()
        })
    })
}

/// The selector pool, the `hb-apps` applications and the unrolled ladder.
fn reference_inputs() -> Vec<(String, Lowered)> {
    let pool = hb_bench::workloads::workloads();
    let mut inputs: Vec<(String, Lowered)> = (pool.into_iter())
        .map(|w| (w.name.to_string(), w.lowered))
        .collect();
    let conv2d = Conv2d {
        width: 256,
        height: 64,
        kw: 8,
        kh: 3,
    };
    let gemm = GemmWmma {
        m: 32,
        k: 48,
        n: 64,
    };
    let mut apps = vec![
        ("conv1d".to_string(), Conv1d { n: 512, k: 8 }.pipeline(true)),
        ("conv2d".to_string(), conv2d.pipeline(true)),
        ("gemm_wmma".to_string(), gemm.pipeline(true)),
        (
            "downsample".to_string(),
            Downsample { n: 128, k: 16 }.pipeline(true),
        ),
        (
            "upsample".to_string(),
            Upsample { n: 256, taps: 8 }.pipeline(true),
        ),
    ];
    for layout in [Layout::Standard, Layout::Vnni] {
        for variant in Variant::all() {
            if let Ok(p) = AmxMatmul::default().pipeline(layout, variant) {
                apps.push((format!("amx_{layout:?}_{variant:?}"), p));
            }
        }
    }
    apps.extend(
        programs()
            .iter()
            .map(|app| (name(app), app.pipeline_tc_unrolled())),
    );
    for (name, pipeline) in apps {
        let lowered = lower(&pipeline).unwrap_or_else(|e| panic!("{name}: {e}"));
        inputs.push((name, lowered));
    }
    inputs
}

#[test]
fn every_leaf_selects_as_it_does_unshaped() {
    let inputs = reference_inputs();
    for target in TARGETS {
        let mut memo = HashMap::new();
        // (label, session), the cached ones sharing one cache per mode, so
        // a shape one program stores serves the next ones.
        let mut sessions = Vec::new();
        for batching in [Batching::PerLeaf, Batching::Batched] {
            sessions.push((format!("{batching:?}"), session(target, batching)));
            let cached = Session::builder()
                .target_name(target)
                .batching(batching)
                .report_cache(Arc::new(ReportCache::new(1024)))
                .build()
                .expect("valid session");
            sessions.push((format!("{batching:?} cached"), cached));
        }
        for (name, lowered) in &inputs {
            let want = normalize_temps(&unshaped(&sessions[0].1, lowered, &mut memo).to_string());
            for (label, session) in &sessions {
                // A cached session compiles twice: its shapes miss or hit
                // across programs, then every one of them hits.
                let passes = if label.ends_with("cached") { 2 } else { 1 };
                for _ in 0..passes {
                    let got = session.compile(lowered).expect("a pool program compiles");
                    let got = normalize_temps(&got.program.to_string());
                    assert_eq!(
                        got, want,
                        "{target} {label}: {name} selects otherwise unshaped"
                    );
                }
            }
        }
    }
}
