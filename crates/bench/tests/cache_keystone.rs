//! The keystone warm-start oracle at paper scale: the full benchmark
//! pool (every leaf of every workload — the 158-root suite `tests/pool.rs`
//! pins) exported as a snapshot, then warm-started with one new workload.
//! Warm selection must be **byte-identical** to a cold compile of the
//! extended suite while probing exactly the recorded, 38x smaller, number
//! of relation rows. Plus the canonical-hash corpus properties the cache's
//! keying rests on, checked against the canonical form built the long way.

use std::collections::HashMap;
use std::fmt::Write as _;

use hardboiled::movement::Placements;
use hardboiled::postprocess::normalize_temps;
use hardboiled::{canonical_program_hash, Batching, Session};
use hb_apps::gemm_wmma::GemmWmma;
use hb_bench::workloads::{saturation_pool, workloads};
use hb_ir::expr::Expr;
use hb_ir::reference::rename_names;
use hb_ir::stmt::Stmt;
use hb_ir::types::MemoryType;
use hb_lang::lower::lower;

fn batched() -> Session {
    Session::builder()
        .batching(Batching::Batched)
        .build()
        .expect("valid session")
}

#[test]
fn warm_start_matches_cold_on_the_full_pool() {
    let all = workloads();
    let known: Vec<(&Stmt, &Placements)> = all
        .iter()
        .map(|w| (&w.lowered.stmt, &w.lowered.placements))
        .collect();
    // The "new arrival": a GEMM shape not in the workload list (the same
    // extra shape `saturation_pool` appends for engine measurements).
    let extra = lower(
        &GemmWmma {
            m: 32,
            k: 96,
            n: 64,
        }
        .pipeline(true),
    )
    .expect("lowering");
    let mut full = known.clone();
    full.push((&extra.stmt, &extra.placements));

    let session = batched();
    let (_, snapshot) = session.compile_ir_suite_exporting(&known);
    let snapshot = snapshot.expect("a saturated batched pool compile exports a snapshot");

    let cold = session.compile_ir_suite(&full);
    let (warm, rejection) = session.compile_ir_suite_warm(&full, &snapshot);
    assert_eq!(rejection, None, "a same-policy snapshot must warm-start");

    // Byte-identical selection, leaf for leaf (modulo the process-global
    // temp counter, like every other equivalence oracle in this repo).
    assert_eq!(warm.programs.len(), cold.programs.len());
    for (i, (c, w)) in cold.programs.iter().zip(&warm.programs).enumerate() {
        assert_eq!(
            normalize_temps(&c.to_string()),
            normalize_temps(&w.to_string()),
            "program {i}: warm selection diverged from cold"
        );
    }
    assert_eq!(warm.report.outcome, cold.report.outcome);
    assert_eq!(
        warm.report.num_statements(),
        cold.report.num_statements(),
        "warm and cold must select the same leaves"
    );
    assert!(warm.report.snapshot_restore.is_some());

    // The point of warm-starting: only the new workload's delta is
    // searched, not the whole pool's. The counts repeat exactly (the cold
    // one is `tests/pool.rs`'s engine-level row count: same 161 leaves).
    let cold_rows = cold.report.batch.as_ref().unwrap().delta_probed_rows;
    let warm_rows = warm.report.batch.as_ref().unwrap().delta_probed_rows;
    assert_eq!((warm_rows, cold_rows), (222, 7671), "probed rows moved");
    assert_eq!(snapshot.size_bytes(), 410_897, "snapshot length moved");
}

/// First-occurrence renamer: the n-th distinct name seen on the canonical
/// walk becomes `c{n}`, whatever it was called. Variables and buffers
/// share one namespace (they share one in the e-graph's `Str`/`VarE`
/// leaves too — a buffer and a loop var with the same name alias).
#[derive(Default)]
struct Renamer {
    map: HashMap<String, String>,
    next: usize,
}

impl Renamer {
    fn rename(&mut self, name: &str) -> String {
        if let Some(canon) = self.map.get(name) {
            return canon.clone();
        }
        let canon = format!("c{}", self.next);
        self.next += 1;
        self.map.insert(name.to_string(), canon.clone());
        canon
    }
}

fn canon_expr(e: &Expr, r: &mut Renamer) -> Expr {
    match e {
        Expr::IntImm(_) | Expr::FloatImm(..) => e.clone(),
        Expr::Var(name, st) => Expr::Var(r.rename(name), *st),
        Expr::Cast(ty, v) => Expr::Cast(*ty, Box::new(canon_expr(v, r))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(canon_expr(a, r)), Box::new(canon_expr(b, r)))
        }
        Expr::Select(c, t, f) => Expr::Select(
            Box::new(canon_expr(c, r)),
            Box::new(canon_expr(t, r)),
            Box::new(canon_expr(f, r)),
        ),
        Expr::Ramp {
            base,
            stride,
            lanes,
        } => Expr::Ramp {
            base: Box::new(canon_expr(base, r)),
            stride: Box::new(canon_expr(stride, r)),
            lanes: *lanes,
        },
        Expr::Broadcast { value, lanes } => Expr::Broadcast {
            value: Box::new(canon_expr(value, r)),
            lanes: *lanes,
        },
        Expr::Load { ty, buffer, index } => Expr::Load {
            ty: *ty,
            // Rename the buffer before descending: pre-order, like `Var`.
            buffer: r.rename(buffer),
            index: Box::new(canon_expr(index, r)),
        },
        Expr::VectorReduceAdd { lanes, value } => Expr::VectorReduceAdd {
            lanes: *lanes,
            value: Box::new(canon_expr(value, r)),
        },
        // Intrinsic names are semantic (they pick the instruction), so
        // they pass through by content, unlike buffer/variable names.
        Expr::Call { ty, name, args } => Expr::Call {
            ty: *ty,
            name: name.clone(),
            args: args.iter().map(|a| canon_expr(a, r)).collect(),
        },
        Expr::LocToLoc { from, to, value } => Expr::LocToLoc {
            from: *from,
            to: *to,
            value: Box::new(canon_expr(value, r)),
        },
    }
}

fn canon_stmt(s: &Stmt, r: &mut Renamer) -> Stmt {
    match s {
        Stmt::Store {
            buffer,
            index,
            value,
        } => Stmt::Store {
            buffer: r.rename(buffer),
            index: canon_expr(index, r),
            value: canon_expr(value, r),
        },
        Stmt::Evaluate(e) => Stmt::Evaluate(canon_expr(e, r)),
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => Stmt::For {
            var: r.rename(var),
            min: canon_expr(min, r),
            extent: canon_expr(extent, r),
            kind: *kind,
            body: Box::new(canon_stmt(body, r)),
        },
        Stmt::Block(stmts) => Stmt::Block(stmts.iter().map(|s| canon_stmt(s, r)).collect()),
        Stmt::Allocate {
            name,
            elem,
            size,
            memory,
            body,
        } => Stmt::Allocate {
            name: r.rename(name),
            elem: *elem,
            size: *size,
            memory: *memory,
            body: Box::new(canon_stmt(body, r)),
        },
        Stmt::If { cond, then_case } => Stmt::If {
            cond: canon_expr(cond, r),
            then_case: Box::new(canon_stmt(then_case, r)),
        },
    }
}

/// The collision oracle: the canonical form `canonical_program_hash`
/// streams without building, built — the statement tree with names
/// replaced by first-occurrence indices, debug-printed, followed by the
/// requested placements sorted by canonical name (names the statement
/// never mentions keep their raw name and sort after the canonical ones).
/// This is the hasher the report cache keyed on until the streaming one
/// replaced it, kept as the reference: two programs must hash equal iff
/// their canonical texts are equal.
fn canonical_text(stmt: &Stmt, placements: &Placements) -> String {
    let mut renamer = Renamer::default();
    let canon = canon_stmt(stmt, &mut renamer);
    let mut entries: Vec<(bool, String, String)> = placements
        .iter()
        .map(|(name, mem)| match renamer.map.get(name) {
            Some(canon_name) => (false, canon_name.clone(), format!("{mem:?}")),
            None => (true, name.clone(), format!("{mem:?}")),
        })
        .collect();
    // Canonical names are `c{index}`; zero-pad so the lexicographic sort
    // matches occurrence order for any count.
    entries.sort_by(|a, b| {
        let key =
            |(unknown, name, _): &(bool, String, String)| (*unknown, name.len(), name.clone());
        key(a).cmp(&key(b))
    });
    let mut text = format!("{canon:?}");
    for (_, name, mem) in entries {
        let _ = write!(text, "\u{1f}{name}={mem}");
    }
    text
}

#[test]
fn canonical_hash_agrees_with_the_canonical_text_on_the_corpus() {
    // Over every leaf of the pool, every whole program with its own
    // placements, the same with every name changed, and every whole
    // program with two placements of names it never mentions (inserted in
    // both orders): equal hashes ⟺ equal canonical forms. Programs that
    // differ only in buffer/variable names collide (that is the design);
    // structurally distinct ones must not.
    let all = workloads();
    let leaves = saturation_pool(&all);
    assert!(leaves.len() > 100, "the pool is the paper-scale corpus");
    let renamed: Vec<(Stmt, Placements)> = all
        .iter()
        .map(|w| {
            let mut stmt = w.lowered.stmt.clone();
            rename_names(&mut stmt, &mut |name| name.insert_str(0, "other_"));
            let placements = w.lowered.placements.iter();
            (
                stmt,
                placements
                    .map(|(n, m)| (format!("other_{n}"), *m))
                    .collect(),
            )
        })
        .collect();
    let empty = Placements::new();
    let mut corpus: Vec<(&Stmt, Placements)> = leaves.iter().map(|l| (l, empty.clone())).collect();
    corpus.extend(
        renamed
            .iter()
            .map(|(stmt, placements)| (stmt, placements.clone())),
    );
    for w in &all {
        corpus.push((&w.lowered.stmt, w.lowered.placements.clone()));
        let strangers = [
            ("never_mentioned", MemoryType::AmxTile),
            ("nor_this_one", MemoryType::WmmaAccumulator),
        ];
        for order in [[0, 1], [1, 0]] {
            let mut placements = w.lowered.placements.clone();
            for i in order {
                placements.insert(strangers[i].0.to_string(), strangers[i].1);
            }
            corpus.push((&w.lowered.stmt, placements));
        }
    }

    let mut text_of: HashMap<u64, String> = HashMap::new();
    let mut hash_of: HashMap<String, (u64, &Stmt)> = HashMap::new();
    let mut renamed_twins = 0usize;
    for (stmt, placements) in &corpus {
        let text = canonical_text(stmt, placements);
        let hash = canonical_program_hash(stmt, placements);
        let known = text_of.entry(hash).or_insert_with(|| text.clone());
        assert_eq!(*known, text, "one hash, two canonical forms");
        let (known, first) = *hash_of.entry(text).or_insert((hash, *stmt));
        assert_eq!(known, hash, "one canonical form, two hashes");
        renamed_twins += usize::from(first != *stmt);
    }
    assert!(text_of.len() > 20, "the corpus is not degenerate");
    // (A renamed program whose placements name a buffer its tree never
    // mentions is a different request: such names count by content.)
    assert!(
        renamed_twins > all.len() / 2,
        "only {renamed_twins} programs share a canonical form with a differently named one"
    );
}

#[test]
fn policy_fingerprints_separate_targets_batching_and_budgets() {
    // Every knob the fingerprint folds must actually separate sessions;
    // a collision here would let a warm-start select under the wrong
    // policy.
    let mut prints: Vec<(String, u64)> = Vec::new();
    let mut add = |label: String, s: &Session| prints.push((label, s.policy_fingerprint()));

    for target in ["amx", "wmma", "scalar", "sim"] {
        for batching in [Batching::PerLeaf, Batching::Batched] {
            let s = Session::builder()
                .target_name(target)
                .batching(batching)
                .build()
                .unwrap();
            add(format!("{target}/{batching:?}"), &s);
        }
    }
    for (label, s) in [
        (
            "sim/match12345",
            Session::builder().match_budget(12_345).build().unwrap(),
        ),
        (
            "sim/deadline",
            Session::builder()
                .deadline(std::time::Duration::from_secs(30))
                .build()
                .unwrap(),
        ),
    ] {
        add(label.to_string(), &s);
    }

    for (i, (la, a)) in prints.iter().enumerate() {
        for (lb, b) in prints.iter().skip(i + 1) {
            assert_ne!(a, b, "fingerprint collision: {la} vs {lb}");
        }
    }

    // Stability: equal configurations, equal fingerprints.
    let one = Session::builder().build().unwrap();
    let again = Session::builder().build().unwrap();
    assert_eq!(one.policy_fingerprint(), again.policy_fingerprint());
}
