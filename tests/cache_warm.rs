//! The cache subsystem's end-to-end contract: report-cache hits return
//! byte-identical programs, renamed siblings never serve each other,
//! eviction respects capacity, and warm-started suite compiles are
//! byte-identical to cold ones while probing strictly fewer relation
//! rows. Damaged snapshots degrade to a clean cold compile with a typed
//! rejection — never a panic.

use std::sync::Arc;

use hardboiled_repro::egraph::snapshot::SnapshotError;
use hardboiled_repro::hardboiled::{
    Batching, CacheOutcome, CompileService, Placements, ReportCache, Session, SuiteSnapshot,
    Symbol, WarmRejection,
};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};

/// One accelerator-touching leaf (AMX-tile buffer): a store of a squared
/// load, distinct per name so programs are distinguishable. Deliberately
/// small — the cache tests exercise keying and byte-identity, not
/// saturation scale.
fn tile_leaf(name: &str) -> Stmt {
    let idx = b::ramp(b::int(0), b::int(1), 8);
    let ld = b::load(Type::f32().with_lanes(8), &format!("x_{name}"), idx.clone());
    b::allocate(
        &format!("acc_{name}"),
        ScalarType::F32,
        8,
        MemoryType::AmxTile,
        b::store(&format!("acc_{name}"), idx, b::mul(ld.clone(), ld)),
    )
}

fn cached_session(capacity: usize) -> (Session, Arc<ReportCache>) {
    let cache = Arc::new(ReportCache::new(capacity));
    let session = Session::builder()
        .target_name("sim")
        .report_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    (session, cache)
}

// ---------------------------------------------------------------------------
// Layer 1: the report cache.

#[test]
fn repeat_compile_hits_and_returns_identical_program() {
    let (session, cache) = cached_session(8);
    let stmt = tile_leaf("a");

    let cold = session.compile(&stmt).unwrap();
    assert_eq!(cold.report.cache, CacheOutcome::Miss);

    let hit = session.compile(&stmt).unwrap();
    assert_eq!(hit.report.cache, CacheOutcome::Hit);
    assert_eq!(hit.program, cold.program, "hit must be byte-identical");
    assert_eq!(hit.report.outcome, cold.report.outcome);

    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(cache.len(), 1);
    assert_eq!(stats.hit_rate(), Some(0.5));
}

#[test]
fn renamed_sibling_is_not_served_from_the_cache() {
    // "a" and "b" share a canonical hash (first-occurrence renaming maps
    // both to the same skeleton) but must never serve each other's
    // programs — the stored request is verified exactly.
    let (session, cache) = cached_session(8);

    let a = session.compile(&tile_leaf("a")).unwrap();
    let b_res = session.compile(&tile_leaf("b")).unwrap();
    assert_eq!(a.report.cache, CacheOutcome::Miss);
    assert_eq!(b_res.report.cache, CacheOutcome::Miss);
    assert_ne!(a.program, b_res.program, "programs keep their own names");
    assert_eq!(cache.stats().hits, 0);

    // Both entries coexist under the shared hash bucket.
    let a2 = session.compile(&tile_leaf("a")).unwrap();
    let b2 = session.compile(&tile_leaf("b")).unwrap();
    assert_eq!(a2.report.cache, CacheOutcome::Hit);
    assert_eq!(b2.report.cache, CacheOutcome::Hit);
    assert_eq!(a2.program, a.program);
    assert_eq!(b2.program, b_res.program);
}

#[test]
fn leaf_free_compiles_bypass_the_cache() {
    let (session, cache) = cached_session(8);
    // No accelerator-placed buffer anywhere: nothing to saturate, nothing
    // worth caching.
    let plain = b::store(
        "out",
        b::ramp(b::int(0), b::int(1), 4),
        b::bcast(b::flt(2.0), 4),
    );
    let result = session.compile(&plain).unwrap();
    assert_eq!(result.report.cache, CacheOutcome::Bypass);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 0));
    assert!(stats.bypasses >= 1);
    assert!(cache.is_empty());
}

#[test]
fn eviction_respects_capacity() {
    let (session, cache) = cached_session(1);

    session.compile(&tile_leaf("a")).unwrap();
    session.compile(&tile_leaf("b")).unwrap(); // evicts "a"
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats().evictions, 1);

    // "a" was evicted, so it misses again; "b" is the resident entry.
    let a = session.compile(&tile_leaf("a")).unwrap(); // evicts "b"
    assert_eq!(a.report.cache, CacheOutcome::Miss);
    let a2 = session.compile(&tile_leaf("a")).unwrap();
    assert_eq!(a2.report.cache, CacheOutcome::Hit);
    assert_eq!(cache.len(), 1);
}

#[test]
fn service_workers_share_one_cache() {
    let cache = Arc::new(ReportCache::new(16));
    let service = CompileService::builder()
        .worker_threads(2)
        .register_target("sim")
        .shared_cache(Arc::clone(&cache))
        .build()
        .unwrap();

    let stmt = tile_leaf("svc");
    let first = service.submit("sim", stmt.clone()).unwrap().wait().unwrap();
    let second = service.submit("sim", stmt).unwrap().wait().unwrap();
    assert_eq!(first.report.cache, CacheOutcome::Miss);
    assert_eq!(second.report.cache, CacheOutcome::Hit);
    assert_eq!(second.program, first.program);

    let stats = service
        .shared_cache()
        .expect("service has a shared cache")
        .stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Layer 2: e-graph snapshots and warm-start.

fn batched_session() -> Session {
    Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .build()
        .unwrap()
}

fn suite_refs<'a>(
    stmts: &'a [Stmt],
    placements: &'a Placements,
) -> Vec<(&'a Stmt, &'a Placements)> {
    stmts.iter().map(|s| (s, placements)).collect()
}

#[test]
fn warm_start_is_byte_identical_and_probes_fewer_rows() {
    let session = batched_session();
    let placements = Placements::new();
    let known: Vec<Stmt> = ["a", "b", "c"].map(tile_leaf).to_vec();
    let full: Vec<Stmt> = ["a", "b", "c", "d"].map(tile_leaf).to_vec();

    let (seeded, snapshot) = session.compile_ir_suite_exporting(&suite_refs(&known, &placements));
    let snapshot = snapshot.expect("saturated batched compile exports a snapshot");
    assert_eq!(snapshot.fingerprint(), session.policy_fingerprint());
    assert_eq!(seeded.report.cache, CacheOutcome::Bypass);

    let cold = session.compile_ir_suite(&suite_refs(&full, &placements));
    let (warm, rejection) =
        session.compile_ir_suite_warm(&suite_refs(&full, &placements), &snapshot);
    assert_eq!(rejection, None);

    // The keystone oracle: warm ≡ cold, byte for byte.
    assert_eq!(warm.programs, cold.programs);
    assert_eq!(warm.report.outcome, cold.report.outcome);
    assert!(warm.report.snapshot_restore.is_some());
    assert!(cold.report.snapshot_restore.is_none());

    // ... while searching only the semi-naive delta of the new leaf.
    let cold_probed = cold.report.batch.as_ref().unwrap().delta_probed_rows;
    let warm_probed = warm.report.batch.as_ref().unwrap().delta_probed_rows;
    assert!(cold_probed > 0, "cold run must probe rows");
    assert!(
        warm_probed < cold_probed,
        "warm must probe strictly fewer rows ({warm_probed} vs {cold_probed})"
    );
}

#[test]
fn snapshot_bytes_round_trip_through_serialization() {
    let session = batched_session();
    let placements = Placements::new();
    let stmts: Vec<Stmt> = ["a", "b"].map(tile_leaf).to_vec();
    let (_, snapshot) = session.compile_ir_suite_exporting(&suite_refs(&stmts, &placements));
    let snapshot = snapshot.unwrap();

    let restored = SuiteSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    assert_eq!(restored, snapshot);

    let (warm, rejection) =
        session.compile_ir_suite_warm(&suite_refs(&stmts, &placements), &restored);
    assert_eq!(rejection, None);
    assert_eq!(
        warm.programs,
        session
            .compile_ir_suite(&suite_refs(&stmts, &placements))
            .programs
    );
}

#[test]
fn snapshots_carry_names_not_symbols() {
    // E-nodes hold interned symbols; the wire holds the strings. A snapshot
    // restored into a symbol table that has grown since the export (as in
    // any process other than the exporting one) warm-starts like a cold
    // compile, and exporting again writes the same bytes.
    let session = batched_session();
    let placements = Placements::new();
    let known: Vec<Stmt> = ["wire_a", "wire_b"].map(tile_leaf).to_vec();
    let full: Vec<Stmt> = ["wire_a", "wire_b", "wire_c"].map(tile_leaf).to_vec();
    let (_, snapshot) = session.compile_ir_suite_exporting(&suite_refs(&known, &placements));
    let bytes = snapshot
        .expect("a saturated batched compile exports")
        .to_bytes();
    for name in ["x_wire_a", "acc_wire_b"] {
        assert!(
            bytes.windows(name.len()).any(|w| w == name.as_bytes()),
            "{name} is not on the wire as text"
        );
    }

    let before = Symbol::interned();
    for i in 0..300 {
        let _ = Symbol::from(format!("unrelated-to-the-snapshot-{i}"));
    }
    assert!(Symbol::interned() >= before + 300);

    let restored = SuiteSnapshot::from_bytes(&bytes).unwrap();
    let cold = session.compile_ir_suite(&suite_refs(&full, &placements));
    let (warm, rejection) =
        session.compile_ir_suite_warm(&suite_refs(&full, &placements), &restored);
    assert_eq!(rejection, None);
    assert_eq!(warm.programs, cold.programs);
    assert_eq!(warm.report.outcome, cold.report.outcome);
    assert!(warm.report.snapshot_restore.is_some());

    let (_, again) = session.compile_ir_suite_exporting(&suite_refs(&known, &placements));
    assert_eq!(again.unwrap().to_bytes(), bytes);
}

#[test]
fn damaged_snapshots_fall_back_cold_with_typed_errors() {
    let session = batched_session();
    let placements = Placements::new();
    let stmts: Vec<Stmt> = ["a", "b"].map(tile_leaf).to_vec();
    let refs = suite_refs(&stmts, &placements);
    let (_, snapshot) = session.compile_ir_suite_exporting(&refs);
    let snapshot = snapshot.unwrap();
    let cold = session.compile_ir_suite(&refs);
    let bytes = snapshot.to_bytes();

    // A truncated outer header is rejected at deserialization time.
    assert_eq!(
        SuiteSnapshot::from_bytes(&bytes[..4]),
        Err(SnapshotError::Truncated)
    );

    // Truncated engine payload, flipped payload byte (checksum), and a
    // forged future format version: each restores nothing, falls back to
    // a byte-identical cold compile, and names its typed cause.
    let truncated = SuiteSnapshot::from_bytes(&bytes[..bytes.len() - 7]).unwrap();
    let mut corrupt_bytes = bytes.clone();
    *corrupt_bytes.last_mut().unwrap() ^= 0xff;
    let corrupted = SuiteSnapshot::from_bytes(&corrupt_bytes).unwrap();
    let mut version_bytes = bytes.clone();
    // Outer framing: 8-byte fingerprint, then engine magic (4 bytes) and
    // the format version as a little-endian u32 — forge a future one.
    version_bytes[12] = 0xee;
    let future_version = SuiteSnapshot::from_bytes(&version_bytes).unwrap();

    for (snap, expect) in [
        (truncated, SnapshotError::Truncated),
        (corrupted, SnapshotError::ChecksumMismatch),
        (
            future_version,
            SnapshotError::UnsupportedVersion {
                found: 0xee,
                supported: 1,
            },
        ),
    ] {
        let (result, rejection) = session.compile_ir_suite_warm(&refs, &snap);
        match rejection {
            Some(WarmRejection::Snapshot(e)) => assert_eq!(e, expect),
            other => panic!("expected Snapshot rejection, got {other:?}"),
        }
        assert_eq!(result.programs, cold.programs, "fallback must equal cold");
        assert!(result.report.snapshot_restore.is_none());
        assert!(result
            .report
            .notes
            .iter()
            .any(|n| n.contains("warm-start rejected")));
    }
}

#[test]
fn foreign_policy_snapshots_are_rejected() {
    let placements = Placements::new();
    let stmts: Vec<Stmt> = ["a", "b"].map(tile_leaf).to_vec();
    let refs = suite_refs(&stmts, &placements);

    let exporter = batched_session();
    let (_, snapshot) = exporter.compile_ir_suite_exporting(&refs);
    let snapshot = snapshot.unwrap();

    // Different target ⇒ different fingerprint ⇒ warm-start refused
    // (its rules and costs could select different programs).
    let other = Session::builder()
        .target_name("amx")
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let (result, rejection) = other.compile_ir_suite_warm(&refs, &snapshot);
    assert_eq!(
        rejection,
        Some(WarmRejection::PolicyMismatch {
            expected: other.policy_fingerprint(),
            found: snapshot.fingerprint(),
        })
    );
    assert_eq!(result.programs, other.compile_ir_suite(&refs).programs);
}

#[test]
fn per_leaf_sessions_export_nothing() {
    let session = Session::builder().target_name("sim").build().unwrap();
    assert_eq!(session.batching(), Batching::PerLeaf);
    let placements = Placements::new();
    let stmts: Vec<Stmt> = ["a"].map(tile_leaf).to_vec();
    let (_, snapshot) = session.compile_ir_suite_exporting(&suite_refs(&stmts, &placements));
    assert!(snapshot.is_none(), "per-leaf mode has no shared graph");
}
