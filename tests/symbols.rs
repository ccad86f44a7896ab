//! E-nodes carry names as interned `Symbol`s whose numbers depend on what
//! the process happened to compile first. Nothing a compile returns may
//! depend on them: class node lists are sorted by `Ord`, extraction ties
//! and every per-operator table are ordered by `op_key`, and both must go
//! through the name.
//!
//! The end-to-end check compiles one multi-leaf program — several buffers
//! and loop variables, an AMX matmul, and an equal-cost tie between two
//! differently named loads that only content order can break — under both
//! interning orders of the *same* names. One process can intern a name only
//! once, so the test runs itself a second time as a child process that
//! interns in the opposite order, and demands byte-equal programs, root
//! costs, engine reports and snapshot bytes, per leaf and batched.
//! (Comparing two renamed copies of the program instead would compare two
//! different tie-breaks: an op key is a hash of the name.) Renamed copies
//! must still agree on everything a name cannot reach: costs and every
//! saturation counter.

use std::process::Command;
use std::time::Duration;

use proptest::prelude::*;

use hardboiled_repro::egraph::schedule::RunReport;
use hardboiled_repro::egraph::snapshot::payload_checksum;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{Batching, CompileResult, HbLang, Placements, Session, Symbol};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::expr::Expr;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};

/// Buffers, then loop variables, of [`program`].
const NAMES: [&str; 11] = [
    "A", "B", "P", "Q", "mm", "out", "iyo", "ro", "uyo", "xo", "yo",
];

fn named(base: &str, suffix: &str) -> String {
    format!("{base}{suffix}")
}

/// A tiled AMX matmul the way `hb-lang` lowers it — zero the accumulator
/// tile, accumulate over `ro`, add a bias, store — over names ending in
/// `suffix`. The bias statement adds `P[i] + Q[i]`: commutativity puts
/// `Q[i] + P[i]` in the same class at the same cost, and extraction picks
/// between them by the content order of the two buffer names.
fn program(suffix: &str) -> Stmt {
    let n = |base: &str| named(base, suffix);
    let v = |base: &str| b::var(n(base));
    let f32s = |lanes| Type::f32().with_lanes(lanes);
    let bf16s = |lanes| Type::bf16().with_lanes(lanes);
    let tile = |row: &str| -> Expr {
        b::ramp(
            b::ramp(b::mul(v(row), b::int(16)), b::int(1), 16),
            b::bcast(b::int(32), 16),
            16,
        )
    };
    let zero = b::store(n("mm"), tile("iyo"), b::bcast(b::flt(0.0), 256));
    let idx_a = b::add(
        b::bcast(
            b::ramp(
                b::add(
                    b::mul(v("ro"), b::int(32)),
                    b::mul(b::mul(v("xo"), b::int(16)), b::int(64)),
                ),
                b::int(1),
                32,
            ),
            256,
        ),
        b::ramp(b::bcast(b::int(0), 512), b::bcast(b::int(64), 512), 16),
    );
    let idx_b = b::ramp(
        b::ramp(
            b::add(
                b::mul(v("uyo"), b::int(16)),
                b::mul(b::mul(v("ro"), b::int(32)), b::int(32)),
            ),
            b::int(32),
            32,
        ),
        b::bcast(b::int(1), 32),
        16,
    );
    let product = b::mul(
        b::cast(f32s(8192), b::load(bf16s(8192), n("A"), idx_a)),
        b::bcast(b::cast(f32s(512), b::load(bf16s(512), n("B"), idx_b)), 16),
    );
    let update = b::store(
        n("mm"),
        tile("uyo"),
        b::add(
            b::load(f32s(256), n("mm"), tile("uyo")),
            b::vreduce_add(256, product),
        ),
    );
    let row = || b::ramp(b::mul(v("yo"), b::int(256)), b::int(1), 256);
    let bias = b::store(
        n("mm"),
        tile("yo"),
        b::add(
            b::load(f32s(256), n("mm"), tile("yo")),
            b::add(
                b::load(f32s(256), n("P"), row()),
                b::load(f32s(256), n("Q"), row()),
            ),
        ),
    );
    let out_idx = b::ramp(
        b::ramp(
            b::add(
                b::mul(v("yo"), b::int(16)),
                b::mul(b::mul(v("xo"), b::int(16)), b::int(32)),
            ),
            b::int(1),
            16,
        ),
        b::bcast(b::int(32), 16),
        16,
    );
    let write = b::store(n("out"), out_idx, b::load(f32s(256), n("mm"), tile("yo")));
    let two = |var: &str, body: Stmt| b::for_serial(n(var), b::int(0), b::int(2), body);
    two(
        "xo",
        b::allocate(
            n("mm"),
            ScalarType::F32,
            512,
            MemoryType::AmxTile,
            b::block(vec![
                two("iyo", zero),
                two("uyo", two("ro", update)),
                two("yo", b::block(vec![bias, write])),
            ]),
        ),
    )
}

/// Interns every name of the `suffix` program, ascending by name or
/// descending, before anything else can.
fn intern_names(suffix: &str, ascending: bool) {
    let mut names: Vec<String> = NAMES.iter().map(|base| named(base, suffix)).collect();
    names.sort();
    if !ascending {
        names.reverse();
    }
    let symbols: Vec<Symbol> = names.iter().map(Symbol::from).collect();
    for (symbol, name) in symbols.iter().zip(&names) {
        assert_eq!(symbol.as_str(), name);
    }
}

fn timeless(run: &RunReport) -> RunReport {
    RunReport {
        elapsed: Duration::ZERO,
        ..run.clone()
    }
}

/// What a compile produced that a name cannot reach: outcome, which
/// statements lowered, every engine counter, table size and root costs.
fn nameless_digest(result: &CompileResult) -> String {
    let report = &result.report;
    let stmts: Vec<_> = (report.stmts.iter())
        .map(|s| (s.lowered, timeless(&s.eqsat)))
        .collect();
    let extraction = (report.extraction.as_ref()).map(|e| (e.table_entries, &e.root_costs));
    format!(
        "{:?}\n{stmts:?}\n{:?}\n{extraction:?}",
        report.outcome,
        report.batch.as_ref().map(timeless),
    )
}

/// Everything but the wall clock, on one line: the selected program
/// (gensyms renumbered) and the nameless digest.
fn digest(result: &CompileResult) -> String {
    let program = normalize_temps(&result.program.to_string());
    format!("{program}\n{}", nameless_digest(result)).replace('\n', "\u{1f}")
}

fn compile(suffix: &str, batching: Batching) -> CompileResult {
    let session = Session::builder().batching(batching).build().unwrap();
    session.compile(&program(suffix)).unwrap()
}

/// Names interned ascending in the parent process and descending in the
/// child, and the other way round.
const ASCENDING_FIRST: &str = "__sym_fwd";
const DESCENDING_FIRST: &str = "__sym_rev";
const CHILD_ENV: &str = "HB_SYMBOLS_TEST_CHILD";
const MARKER: &str = "symbols-digest:";

#[test]
fn interning_order_is_invisible() {
    let child = std::env::var_os(CHILD_ENV).is_some();
    intern_names(ASCENDING_FIRST, !child);
    intern_names(DESCENDING_FIRST, child);
    let mut digests = Vec::new();
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let fwd = compile(ASCENDING_FIRST, batching);
        let rev = compile(DESCENDING_FIRST, batching);
        for result in [&fwd, &rev] {
            assert!(result.report.num_statements() >= 4, "four leaves select");
            let text = result.program.to_string();
            assert!(text.contains("tile_matmul"), "{batching:?}:\n{text}");
            assert!(text.contains("tile_zero") && text.contains("tile_store"));
        }
        // Renaming moves nothing a name cannot reach.
        assert_eq!(
            nameless_digest(&fwd),
            nameless_digest(&rev),
            "{batching:?}: renamed copies disagree on costs or counters"
        );
        digests.push(format!("{batching:?} fwd {}", digest(&fwd)));
        digests.push(format!("{batching:?} rev {}", digest(&rev)));
    }
    // Symbols never reach the wire: the saturated graph's snapshot is the
    // same bytes whichever numbers its names got.
    for suffix in [ASCENDING_FIRST, DESCENDING_FIRST] {
        let session = Session::builder()
            .batching(Batching::Batched)
            .build()
            .unwrap();
        let (stmt, placements) = (program(suffix), Placements::new());
        let (_, snapshot) = session.compile_ir_suite_exporting(&[(&stmt, &placements)]);
        let bytes = snapshot
            .expect("a saturated batched compile exports")
            .to_bytes();
        digests.push(format!(
            "snapshot{suffix} {} bytes, checksum {:016x}",
            bytes.len(),
            payload_checksum(&bytes)
        ));
    }
    if child {
        for line in &digests {
            println!("{MARKER}{line}");
        }
        return;
    }
    // The same test, in a process that interned in the opposite orders.
    let exe = std::env::current_exe().expect("the test binary has a path");
    let output = Command::new(exe)
        .args(["--exact", "interning_order_is_invisible", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("the test binary runs a second time");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed:\n{stdout}");
    let from_child: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.split_once(MARKER).map(|(_, digest)| digest))
        .collect();
    assert_eq!(from_child.len(), digests.len(), "child printed:\n{stdout}");
    for (ours, theirs) in digests.iter().zip(from_child) {
        assert_eq!(
            ours.replace('\u{1f}', "\n"),
            theirs.replace('\u{1f}', "\n"),
            "the same names interned in the opposite order selected differently"
        );
    }
}

/// Short names over a three-letter alphabet: equal names, prefixes and
/// near misses all occur.
fn arb_name() -> impl Strategy<Value = String> {
    (0usize..5, proptest::collection::vec(0u8..3, 4)).prop_map(|(len, letters)| {
        let text: String = (letters.iter().take(len))
            .map(|&l| char::from(b'a' + l))
            .collect();
        format!("ord-{text}")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn symbols_order_like_their_names(x in arb_name(), y in arb_name()) {
        // Whichever is interned first (the generator decides), order and
        // equality are the strings'.
        let (sx, sy) = (Symbol::from(&x), Symbol::from(&y));
        prop_assert_eq!(sx.cmp(&sy), x.cmp(&y));
        prop_assert_eq!(sx == sy, x == y);
        prop_assert_eq!(HbLang::Str(sx).cmp(&HbLang::Str(sy)), x.cmp(&y));
        prop_assert_eq!(HbLang::VarE(sx).cmp(&HbLang::VarE(sy)), x.cmp(&y));
        prop_assert_eq!(
            HbLang::call(sx, []).cmp(&HbLang::call(sy, [])),
            x.cmp(&y)
        );
    }
}
