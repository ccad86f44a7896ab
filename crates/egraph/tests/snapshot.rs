//! Snapshot-format and warm-start invariants:
//!
//! * snapshot → restore round-trips exactly: the restored graph passes
//!   `check_op_index` / `check_op_epochs`, extracts byte-identical terms,
//!   answers delta probes identically, and re-snapshots to the very same
//!   bytes (randomized `add`/`union`/`relation`/`rebuild` workouts);
//! * corrupted, truncated and version-bumped bytes are rejected with the
//!   right typed `SnapshotError` — never a panic — and a cold build still
//!   works afterwards;
//! * a restored *saturated* graph warm-starts: new leaves added after the
//!   restore saturate to the same closure and extract byte-identically to
//!   a cold run over the combined input, with zero full searches and
//!   strictly fewer probed rows.

use proptest::prelude::*;

use hb_egraph::egraph::EGraph;
use hb_egraph::extract::{AstSize, WorklistExtractor};
use hb_egraph::math_lang::{pmul, pvar, Math};
use hb_egraph::pattern::MatchScratch;
use hb_egraph::rewrite::Rewrite;
use hb_egraph::schedule::{Budget, Runner};
use hb_egraph::snapshot::{SnapshotError, SNAPSHOT_VERSION};
use hb_egraph::unionfind::Id;

type EG = EGraph<Math, ()>;

/// One step of a randomized workout: `(op_selector, x, y)` with operands
/// interpreted modulo the live id count (mirrors `tests/engine.rs`).
type Step = (u8, u32, u32);

fn replay(steps: &[Step]) -> (EG, Vec<Id>) {
    let mut eg = EG::new();
    let mut ids: Vec<Id> = Vec::new();
    for s in ["a", "b", "c"] {
        ids.push(eg.add(Math::Sym(s.into())));
    }
    for &(op, x, y) in steps {
        let pick = |v: u32| ids[v as usize % ids.len()];
        match op % 8 {
            0 => ids.push(eg.add(Math::Num(i64::from(x % 8)))),
            1 => ids.push(eg.add(Math::Mul([pick(x), pick(y)]))),
            2 => ids.push(eg.add(Math::Add([pick(x), pick(y)]))),
            3 => ids.push(eg.add(Math::Div([pick(x), pick(y)]))),
            4 => {
                eg.union(pick(x), pick(y));
            }
            5 => {
                eg.insert_tuple("rel-a", &[pick(x)]);
            }
            6 => {
                eg.insert_tuple("rel-b", &[pick(x), pick(y)]);
            }
            _ => eg.rebuild(),
        }
    }
    eg.rebuild();
    (eg, ids)
}

fn mul_rules() -> Vec<Rewrite<Math>> {
    vec![
        Rewrite::rewrite(
            "comm-mul",
            pmul(pvar("x"), pvar("y")),
            pmul(pvar("y"), pvar("x")),
        ),
        Rewrite::rewrite(
            "assoc-mul",
            pmul(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pmul(pvar("b"), pvar("c"))),
        ),
    ]
}

/// A left-deep product chain over distinct symbols `s<base>..`.
fn mul_chain(eg: &mut EG, base: usize, len: usize) -> Id {
    let mut acc = eg.add(Math::Sym(format!("s{base}")));
    for i in 1..len {
        let s = eg.add(Math::Sym(format!("s{}", base + i)));
        acc = eg.add(Math::Mul([acc, s]));
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Snapshot → restore is an exact round-trip on arbitrary clean
    // graphs: invariant checkers pass, sizes and relation state match,
    // extraction is byte-identical, and re-snapshotting the restored
    // graph reproduces the original bytes (so *all* persisted state
    // survived, not just what the checkers inspect).
    #[test]
    fn snapshot_roundtrip_is_exact(
        steps in proptest::collection::vec((0u8..8, 0u32..64, 0u32..64), 80),
    ) {
        let (eg, ids) = replay(&steps);
        let bytes = eg.snapshot();
        let back = EG::restore(&bytes).expect("restore of a fresh snapshot");
        back.check_op_index();
        back.check_op_epochs();
        prop_assert_eq!(back.num_nodes(), eg.num_nodes());
        prop_assert_eq!(back.num_classes(), eg.num_classes());
        prop_assert_eq!(back.work_epoch(), eg.work_epoch());
        for id in &ids {
            prop_assert_eq!(back.find(*id), eg.find(*id));
        }
        // Extraction (content-based tie-breaks) must agree everywhere.
        let live = WorklistExtractor::new(&eg, AstSize);
        let restored = WorklistExtractor::new(&back, AstSize);
        for id in &ids {
            let id = eg.find(*id);
            prop_assert_eq!(
                live.extract(id).to_sexp(),
                restored.extract(id).to_sexp()
            );
        }
        prop_assert_eq!(back.snapshot(), bytes, "re-snapshot must be byte-identical");
    }

    // A saturated snapshot stays saturated and delta-quiet after
    // restore: warm-running the same rules applies nothing and probes
    // nothing beyond the quiescence checks.
    #[test]
    fn restored_saturated_graph_is_quiescent(
        len in 3usize..8,
    ) {
        let mut eg = EG::new();
        let root = mul_chain(&mut eg, 0, len);
        let runner = Runner::new(8, 1_000_000);
        let cold = runner.run_to_fixpoint(&mut eg, &mul_rules(), Budget::none());
        prop_assert!(cold.saturated);
        let bytes = eg.snapshot();
        let mut back = EG::restore(&bytes).expect("restore");
        let warm_cutoff = back.bump_epoch();
        let warm = runner.run_in(
            &mut back,
            &mul_rules(),
            Budget::none(),
            Some(warm_cutoff),
            &mut MatchScratch::new(),
        );
        prop_assert!(warm.saturated);
        prop_assert_eq!(warm.applied, 0, "nothing new to apply");
        prop_assert_eq!(warm.full_searches, 0, "warm rules never search in full");
        prop_assert_eq!(back.num_nodes(), eg.num_nodes());
        let live = WorklistExtractor::new(&eg, AstSize);
        let restored = WorklistExtractor::new(&back, AstSize);
        prop_assert_eq!(
            live.extract(eg.find(root)).to_sexp(),
            restored.extract(back.find(root)).to_sexp()
        );
    }
}

/// The keystone oracle at engine level: saturate a base graph, snapshot
/// it, restore, add a new chain, warm-start — the result must be
/// byte-identical to a cold run over base + new material, with zero full
/// searches and strictly fewer probed rows.
#[test]
fn warm_start_matches_cold_and_probes_fewer_rows() {
    let runner = Runner::new(16, 1_000_000);

    // Cold reference: everything in one graph, saturated from scratch.
    let mut cold_eg = EG::new();
    let base_root_cold = mul_chain(&mut cold_eg, 0, 7);
    let new_root_cold = mul_chain(&mut cold_eg, 100, 4);
    let cold = runner.run_to_fixpoint(&mut cold_eg, &mul_rules(), Budget::none());
    assert!(cold.saturated);

    // Warm path: saturate the base alone, snapshot, restore, add the new
    // chain, warm-start.
    let mut base_eg = EG::new();
    let base_root = mul_chain(&mut base_eg, 0, 7);
    let pre = runner.run_to_fixpoint(&mut base_eg, &mul_rules(), Budget::none());
    assert!(pre.saturated);
    let bytes = base_eg.snapshot();
    let mut warm_eg = EG::restore(&bytes).expect("restore");
    let cutoff = warm_eg.bump_epoch();
    let new_root = mul_chain(&mut warm_eg, 100, 4);
    warm_eg.rebuild();
    let warm = runner.run_in(
        &mut warm_eg,
        &mul_rules(),
        Budget::none(),
        Some(cutoff),
        &mut MatchScratch::new(),
    );
    assert!(warm.saturated);
    assert_eq!(warm.full_searches, 0, "warm rules only ever delta-search");
    assert!(
        warm.delta_probed_rows < cold.delta_probed_rows,
        "warm probed {} rows, cold probed {} — warm must be strictly cheaper",
        warm.delta_probed_rows,
        cold.delta_probed_rows
    );

    // Byte-identity: same closure sizes, same extracted terms.
    assert_eq!(warm_eg.num_nodes(), cold_eg.num_nodes());
    assert_eq!(warm_eg.num_classes(), cold_eg.num_classes());
    warm_eg.check_op_epochs();
    let cold_x = WorklistExtractor::new(&cold_eg, AstSize);
    let warm_x = WorklistExtractor::new(&warm_eg, AstSize);
    for (cold_id, warm_id) in [(base_root_cold, base_root), (new_root_cold, new_root)] {
        assert_eq!(
            cold_x.extract(cold_eg.find(cold_id)).to_sexp(),
            warm_x.extract(warm_eg.find(warm_id)).to_sexp()
        );
    }
}

#[test]
fn corrupted_truncated_and_bumped_bytes_are_typed_errors() {
    let mut eg = EG::new();
    let _ = mul_chain(&mut eg, 0, 6);
    eg.insert_tuple("rel-a", &[Id(0)]);
    eg.rebuild();
    let bytes = eg.snapshot();

    assert!(matches!(EG::restore(&[]), Err(SnapshotError::Truncated)));

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] = b'Z';
    assert!(matches!(EG::restore(&bad), Err(SnapshotError::BadMagic)));

    // Version bump.
    let mut bumped = bytes.clone();
    bumped[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        EG::restore(&bumped),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // Every truncation point fails cleanly.
    for cut in (0..bytes.len()).step_by(7) {
        assert!(EG::restore(&bytes[..cut]).is_err(), "cut at {cut}");
    }

    // Every flipped payload byte trips the checksum before structural
    // parsing, and header flips map to their own variants — never panics.
    for i in (24..bytes.len()).step_by(3) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x20;
        assert!(matches!(
            EG::restore(&flipped),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    // After any rejection, a cold build still works (the fallback path).
    let mut cold = EG::new();
    let root = mul_chain(&mut cold, 0, 6);
    let report = Runner::new(8, 1_000_000).run_to_fixpoint(&mut cold, &mul_rules(), Budget::none());
    assert!(report.saturated);
    assert!(cold.find(root).index() < cold.num_nodes() + cold.num_classes());
}
