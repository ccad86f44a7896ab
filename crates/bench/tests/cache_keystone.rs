//! The keystone warm-start oracle at paper scale: the full benchmark
//! pool (every leaf of every workload — the 158-root suite `tests/pool.rs`
//! pins) exported as a snapshot, then warm-started with one new workload.
//! Warm selection must be **byte-identical** to a cold compile of the
//! extended suite while probing exactly the recorded, 7x smaller, number
//! of index rows. Plus the content-hash corpus properties the cache's
//! keying rests on, checked against the program printed the long way.

use std::collections::HashMap;
use std::fmt::Write as _;

use hardboiled::movement::Placements;
use hardboiled::postprocess::normalize_temps;
use hardboiled::{canonical_program_hash, Batching, Session};
use hb_apps::gemm_wmma::GemmWmma;
use hb_bench::workloads::{saturation_pool, workloads};
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

    // Byte-identical selection, leaf for leaf (modulo temp numbers, like
    // every other equivalence oracle in this repo).
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
    // searched, not the whole pool's. The counts repeat exactly. The cold
    // one is below `tests/pool.rs`'s engine-level row count (5 946 on the
    // same 161 leaves), because a session saturates each leaf shape once:
    // the unrolled conv1d leaves that differ only in base offsets share
    // one root. (The cold count was 1 160 while delta probes read
    // per-operator change rows; a class-epoch filter of the index row
    // probes 74 more and finds the same matches.)
    let ([cold_run], [warm_run]) = (&cold.report.units[..], &warm.report.units[..]) else {
        panic!("a shared unit each");
    };
    let rows = (warm_run.delta_probed_rows, cold_run.delta_probed_rows);
    assert_eq!(rows, (161, 1234), "probed rows moved");
    assert_eq!(snapshot.size_bytes(), 16_767, "snapshot length moved");
}

/// The collision oracle: the program `canonical_program_hash` streams
/// without building, printed — the statement tree debug-printed, names as
/// they are, followed by the requested placements sorted by name. This is
/// the hasher the report cache keyed on until the streaming one replaced
/// it, kept as the reference: two programs must hash equal iff their
/// texts are equal.
fn canonical_text(stmt: &Stmt, placements: &Placements) -> String {
    let mut entries: Vec<(&String, &MemoryType)> = placements.iter().collect();
    entries.sort_by_key(|&(name, _)| name);
    let mut text = format!("{stmt:?}");
    for (name, mem) in entries {
        let _ = write!(text, "\u{1f}{name}={mem:?}");
    }
    text
}

#[test]
fn canonical_hash_agrees_with_the_canonical_text_on_the_corpus() {
    // Over every leaf of the pool, every whole program with its own
    // placements, the same with every name changed, and every whole
    // program with two placements of names it never mentions (inserted in
    // both orders): equal hashes ⟺ equal texts. Programs that differ
    // only in buffer/variable names are different programs and must not
    // collide.
    let all = workloads();
    let leaves = saturation_pool(&all);
    assert!(leaves.len() > 100, "the pool is the paper-scale corpus");
    let renamed: Vec<(Stmt, Placements)> = all
        .iter()
        .map(|w| {
            let mut stmt = w.lowered.stmt.clone();
            rename_names(&mut stmt, &mut |name| {
                *name = format!("other_{name}").into()
            });
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
        assert_eq!(*known, text, "one hash, two texts");
        let (known, first) = *hash_of.entry(text).or_insert((hash, *stmt));
        assert_eq!(known, hash, "one text, two hashes");
        renamed_twins += usize::from(first != *stmt);
    }
    assert!(text_of.len() > 20, "the corpus is not degenerate");
    assert_eq!(renamed_twins, 0, "a renamed twin shares a key");
    for (w, (stmt, placements)) in all.iter().zip(&renamed) {
        assert_ne!(
            canonical_program_hash(stmt, placements),
            canonical_program_hash(&w.lowered.stmt, &w.lowered.placements),
            "{}: renaming left the key where it was",
            w.name
        );
    }
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
