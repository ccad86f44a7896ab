//! The keystone warm-start oracle at paper scale: the full benchmark
//! pool (every leaf of every workload — the 158-root suite `tests/pool.rs`
//! pins) exported as a snapshot, then warm-started with one new workload.
//! Warm selection must be **byte-identical** to a cold compile of the
//! extended suite while probing exactly the recorded, 38x smaller, number
//! of relation rows. Plus the canonical-hash corpus properties the cache's
//! keying rests on.

use std::collections::HashMap;

use hardboiled::cache::canonical_text;
use hardboiled::movement::Placements;
use hardboiled::postprocess::normalize_temps;
use hardboiled::{canonical_program_hash, Batching, Session};
use hb_apps::gemm_wmma::GemmWmma;
use hb_bench::workloads::{saturation_pool, workloads};
use hb_ir::stmt::Stmt;
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
    assert_eq!((warm_rows, cold_rows), (242, 9291), "probed rows moved");
    assert_eq!(snapshot.size_bytes(), 462_545, "snapshot length moved");
}

#[test]
fn canonical_hash_separates_the_corpus() {
    // Over every leaf of the pool: equal hashes ⟺ equal
    // canonical forms. Leaves that differ only in buffer/variable names
    // may collide (that is the design); structurally distinct leaves
    // must not.
    let all = workloads();
    let leaves = saturation_pool(&all);
    assert!(leaves.len() > 100, "the pool is the paper-scale corpus");
    let empty = Placements::new();
    let mut by_hash: HashMap<u64, String> = HashMap::new();
    let mut distinct_forms = 0usize;
    for leaf in &leaves {
        let text = canonical_text(leaf, &empty);
        match by_hash.insert(canonical_program_hash(leaf, &empty), text.clone()) {
            None => distinct_forms += 1,
            Some(prev) => assert_eq!(
                prev, text,
                "hash collision between structurally distinct leaves"
            ),
        }
    }
    assert!(distinct_forms > 1, "the corpus is not degenerate");
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
            "sim/outer4",
            Session::builder().outer_iters(4).build().unwrap(),
        ),
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
