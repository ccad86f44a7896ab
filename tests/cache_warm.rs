//! The cache subsystem's end-to-end contract: the report cache stores
//! leaf-shape selections, and a compile served from it — wholly, partly or
//! not at all, at the stored offsets or at others — selects exactly what an
//! uncached compile does; renamed siblings never serve each other,
//! truncated leaves are never stored, and eviction respects capacity. Warm-started suite compiles are byte-identical to
//! cold ones while probing strictly fewer index rows, and damaged
//! snapshots degrade to a clean cold compile with a typed rejection —
//! never a panic.

use std::sync::Arc;

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::apps::conv2d::Conv2d;
use hardboiled_repro::apps::gemm_wmma::GemmWmma;
use hardboiled_repro::apps::harness::max_rel_error;
use hardboiled_repro::apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hardboiled_repro::apps::resample_int::{Downsample, Upsample};
use hardboiled_repro::egraph::schedule::RunReport;
use hardboiled_repro::egraph::snapshot::{SnapshotError, SNAPSHOT_VERSION};
use hardboiled_repro::exec::Interp;
use hardboiled_repro::hardboiled::postprocess::normalize_temps;
use hardboiled_repro::hardboiled::{
    Batching, CacheOutcome, CancelToken, CompileOutcome, CompileReport, CompileService, Placements,
    ReportCache, Session, SessionBuilder, SuiteSnapshot, Symbol, Tracer, TruncationReason,
    WarmRejection,
};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};
use hardboiled_repro::lang::lower::{lower, Lowered};

/// One accelerator-touching leaf (AMX-tile buffer): a store of a squared
/// load, distinct per name so programs are distinguishable. Deliberately
/// small — the cache tests exercise keying and byte-identity, not
/// saturation scale.
fn tile_leaf(name: &str) -> Stmt {
    let idx = b::ramp(b::int(0), b::int(1), 8);
    let ld = b::load(Type::f32().with_lanes(8), format!("x_{name}"), idx.clone());
    b::allocate(
        format!("acc_{name}"),
        ScalarType::F32,
        8,
        MemoryType::AmxTile,
        b::store(format!("acc_{name}"), idx, b::mul(ld.clone(), ld)),
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
// Layer 1: the report cache, one entry per leaf-shape selection.

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
    // No unit ran, and the leaf's cost is the stored one.
    assert_eq!(cold.report.units.len(), 1);
    assert!(hit.report.units.is_empty());
    assert_eq!(root_costs(&hit.report), root_costs(&cold.report));

    let stats = cache.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn renamed_sibling_is_not_served_from_the_cache() {
    // "a" and "b" differ only in their names: different leaves, which
    // must never serve each other's selections.
    let (session, cache) = cached_session(8);

    let a = session.compile(&tile_leaf("a")).unwrap();
    let b_res = session.compile(&tile_leaf("b")).unwrap();
    assert_eq!(a.report.cache, CacheOutcome::Miss);
    assert_eq!(b_res.report.cache, CacheOutcome::Miss);
    assert_ne!(a.program, b_res.program, "programs keep their own names");
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.len(), 2, "siblings occupy separate entries");

    // Both entries coexist.
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

    // A program with more leaf shapes than the cache holds (the unrolled
    // conv1d has four): entries are shapes, so one compile evicts within
    // itself, never overfills, and its recompile still finds some shapes
    // missing.
    let (session, cache) = cached_session(3);
    let unrolled = lower(&Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled()).unwrap();
    for _ in 0..2 {
        let result = session.compile(&unrolled).unwrap();
        assert_eq!(result.report.cache, CacheOutcome::Miss);
        assert_eq!(cache.len(), 3);
    }
    assert!(cache.stats().evictions > 0);
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

fn root_costs(report: &CompileReport) -> Vec<Option<u64>> {
    (report.extraction.as_ref()).map_or_else(Vec::new, |e| e.root_costs.clone())
}

/// The `hb-apps` programs the leaf-cache oracles run over: one or more of
/// every family, with the unrolled conv1d for its renamed-sibling leaves.
fn app_programs() -> Vec<Lowered> {
    let amx = AmxMatmul::default();
    let pipelines = [
        Conv1d { n: 512, k: 16 }.pipeline(true),
        Conv1d { n: 512, k: 32 }.pipeline_tc_unrolled(),
        Conv2d {
            width: 256,
            height: 64,
            kw: 8,
            kh: 3,
        }
        .pipeline(true),
        GemmWmma {
            m: 32,
            k: 32,
            n: 32,
        }
        .pipeline(true),
        amx.pipeline(Layout::Standard, Variant::Reference).unwrap(),
        amx.pipeline(Layout::Vnni, Variant::Reference).unwrap(),
        Downsample { n: 128, k: 16 }.pipeline(true),
        Upsample { n: 256, taps: 8 }.pipeline(true),
    ];
    pipelines.iter().map(|p| lower(p).unwrap()).collect()
}

/// What a cached compile must share with an uncached one: every program's
/// text (gensyms renumbered), every leaf's lowering outcome and every root
/// cost, in order.
type Selected = (Vec<String>, Vec<bool>, Vec<Option<u64>>);

/// The three compile shapes the oracle runs: per-leaf and batched sessions
/// compiling one program per call, and one `compile_suite` call.
#[derive(Debug, Clone, Copy)]
enum Shape {
    PerLeaf,
    Batched,
    Suite,
}

impl Shape {
    fn session(self) -> SessionBuilder {
        let batching = match self {
            Shape::PerLeaf => Batching::PerLeaf,
            Shape::Batched | Shape::Suite => Batching::Batched,
        };
        Session::builder().target_name("sim").batching(batching)
    }

    /// Compiles `programs` through this shape: what was selected, and each
    /// call's cache outcome.
    fn run(self, session: &Session, programs: &[Lowered]) -> (Selected, Vec<CacheOutcome>) {
        let text = |program: &Stmt| normalize_temps(&program.to_string());
        let (texts, reports): (Vec<String>, Vec<CompileReport>) = match self {
            Shape::Suite => {
                let suite = session.compile_suite(programs).unwrap();
                let texts = suite.programs().unwrap().into_iter().map(text);
                (texts.collect(), vec![suite.report])
            }
            Shape::PerLeaf | Shape::Batched => (programs.iter())
                .map(|program| {
                    let result = session.compile(program).unwrap();
                    (text(&result.program), result.report)
                })
                .unzip(),
        };
        let lowered = reports
            .iter()
            .flat_map(|r| r.stmts.iter().map(|s| s.lowered));
        let costs = reports.iter().flat_map(root_costs);
        let outcomes = reports.iter().map(|r| r.cache).collect();
        ((texts, lowered.collect(), costs.collect()), outcomes)
    }
}

/// Leaves the units of the traced compiles since the last call read out:
/// the `roots` of every `extract` span.
fn compiled_leaves(tracer: &Tracer) -> usize {
    let spans = tracer.finished();
    tracer.clear();
    let roots = spans.iter().filter(|s| s.name == "extract").map(|s| {
        let (_, roots) = s.attrs.iter().find(|(k, _)| *k == "roots").unwrap();
        roots.parse::<usize>().unwrap()
    });
    roots.sum()
}

/// The leaf cache's identity oracle: over the `hb-apps` programs, in every
/// compile shape, a cold cache, a warm one and a partly warm one (some
/// leaves hit, some compile — inside one request, too) select exactly what
/// an uncached session does, at the same root costs and lowering outcomes.
#[test]
fn cached_compiles_select_what_uncached_ones_do() {
    let programs = app_programs();
    for shape in [Shape::PerLeaf, Shape::Batched, Shape::Suite] {
        let uncached = shape.session().build().unwrap();
        let (reference, _) = shape.run(&uncached, &programs);
        let leaves = reference.1.len();
        let cached = |capacity: usize| {
            let cache = Arc::new(ReportCache::new(capacity));
            let tracer = Tracer::new();
            let session = (shape.session())
                .report_cache(Arc::clone(&cache))
                .tracer(tracer.clone())
                .build()
                .unwrap();
            (session, cache, tracer)
        };

        let (session, cache, tracer) = cached(1024);
        let (cold, _) = shape.run(&session, &programs);
        assert_eq!(cold, reference, "{shape:?}: cold cache");
        assert!(compiled_leaves(&tracer) > 0, "{shape:?}: nothing compiled");
        let (warm, outcomes) = shape.run(&session, &programs);
        assert_eq!(warm, reference, "{shape:?}: warm cache");
        assert!(
            outcomes.iter().all(|o| *o == CacheOutcome::Hit),
            "{shape:?}"
        );
        assert_eq!(compiled_leaves(&tracer), 0, "{shape:?}: a hit ran a unit");

        // One entry short of every distinct leaf: the second pass finds
        // some leaves and compiles the rest.
        let (session, _, tracer) = cached(cache.len() - 1);
        let _ = shape.run(&session, &programs);
        let _ = compiled_leaves(&tracer);
        let (partly, outcomes) = shape.run(&session, &programs);
        assert_eq!(partly, reference, "{shape:?}: partly warm cache");
        let compiled = compiled_leaves(&tracer);
        assert!(
            0 < compiled && compiled < leaves,
            "{shape:?}: {compiled} of {leaves} leaves compiled"
        );
        assert!(outcomes.contains(&CacheOutcome::Miss), "{shape:?}");
    }
}

/// A shape one program stored serves another program's leaves at other
/// offsets: the unrolled conv1d at k = 128 has leaves the k = 64 kernel
/// never had, which differ from its leaves only in base offsets, so once
/// k = 64 is cached it runs no unit and selects what an uncached session
/// does, in either batching mode.
#[test]
fn a_shape_stored_at_other_offsets_serves_a_hit() {
    let text = |program: &Stmt| normalize_temps(&program.to_string());
    let small = lower(&Conv1d { n: 256, k: 64 }.pipeline_tc_unrolled()).unwrap();
    let large = lower(&Conv1d { n: 256, k: 128 }.pipeline_tc_unrolled()).unwrap();
    for batching in [Batching::PerLeaf, Batching::Batched] {
        let builder = || Session::builder().target_name("sim").batching(batching);
        let uncached = builder().build().unwrap().compile(&large).unwrap();
        let tracer = Tracer::new();
        let session = (builder())
            .report_cache(Arc::new(ReportCache::default()))
            .tracer(tracer.clone())
            .build()
            .unwrap();
        let first = session.compile(&small).unwrap();
        assert_eq!(first.report.cache, CacheOutcome::Miss, "{batching:?}");
        assert!(
            compiled_leaves(&tracer) > 0,
            "{batching:?}: nothing compiled"
        );

        let second = session.compile(&large).unwrap();
        assert_eq!(second.report.cache, CacheOutcome::Hit, "{batching:?}");
        assert_eq!(
            compiled_leaves(&tracer),
            0,
            "{batching:?}: a hit ran a unit"
        );
        assert_eq!(
            text(&second.program),
            text(&uncached.program),
            "{batching:?}"
        );
        assert_eq!(second.report.outcome, uncached.report.outcome);
        assert_eq!(root_costs(&second.report), root_costs(&uncached.report));
    }
}

/// Runs `program`, a compile of `lowered`, on the AMX matmul's inputs under
/// `hb-exec` and returns its output.
fn run_matmul(app: &AmxMatmul, lowered: &Lowered, program: &Stmt) -> Vec<f64> {
    let inputs = app.inputs();
    let data = [
        ("A", &inputs.a_buf),
        ("B", &inputs.b_buf),
        ("Bv", &inputs.b_vnni),
    ];
    let mut it = Interp::new();
    for (name, elem, _) in &lowered.inputs {
        let (_, values) = data.iter().find(|(n, _)| n == name).unwrap();
        it.mem
            .alloc_init(name, *elem, MemoryType::Heap, values)
            .unwrap();
    }
    let len = usize::try_from(lowered.output_len).unwrap();
    let out = &lowered.output_name;
    it.mem
        .alloc(out, lowered.output_elem, len, MemoryType::Heap)
        .unwrap();
    it.run_kernel(program).unwrap();
    it.mem.snapshot(out).unwrap()
}

/// A program holding one leaf twice is served, once warm, from one stored
/// selection: each copy instantiates and materializes it on its own, so the
/// warm program holds as many temporaries as the uncached one, reads the
/// same text once they are renumbered, and computes the same output.
#[test]
fn a_leaf_repeated_in_one_program_is_served_from_one_selection() {
    // The standard layout needs a VNNI swizzle of B, which the selector
    // materializes into an `__hb_tmpN` buffer.
    let app = AmxMatmul::default();
    let once = lower(&app.pipeline(Layout::Standard, Variant::Reference).unwrap()).unwrap();
    let twice = Lowered {
        stmt: b::block(vec![once.stmt.clone(), once.stmt.clone()]),
        ..once.clone()
    };
    let uncached = Session::default().compile(&twice).unwrap();
    let (session, cache) = cached_session(64);
    let _ = session.compile(&twice).unwrap();
    let leaves = cache.len();
    let warm = session.compile(&twice).unwrap();
    assert_eq!(warm.report.cache, CacheOutcome::Hit);
    assert_eq!(warm.report.num_statements(), 2 * leaves, "each leaf twice");

    let text = warm.program.to_string();
    let temps = |text: &str| {
        let mut names: Vec<&str> = (text.match_indices("__hb_tmp"))
            .map(|(i, _)| {
                let digits = text[i + 8..].bytes().take_while(u8::is_ascii_digit);
                &text[i..i + 8 + digits.count()]
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    };
    assert!(temps(&text) > 0, "a temporary was materialized:\n{text}");
    let uncached_text = uncached.program.to_string();
    assert_eq!(temps(&text), temps(&uncached_text));
    assert_eq!(normalize_temps(&text), normalize_temps(&uncached_text));

    let served = run_matmul(&app, &twice, &warm.program);
    assert_eq!(served, run_matmul(&app, &twice, &uncached.program));
    assert!(max_rel_error(&served, &app.reference(&app.inputs())) < 0.05);
}

/// Only a leaf whose own unit fully saturated is stored: a leaf a match
/// budget, a tripped cancel token or an injected fault stopped short is
/// not, so a later clean compile of it is a miss that selects what an
/// uncached compile does.
#[test]
fn truncated_leaves_store_nothing() {
    let cache = Arc::new(ReportCache::new(8));
    let sim = || {
        Session::builder()
            .target_name("sim")
            .report_cache(Arc::clone(&cache))
    };
    let stmt = tile_leaf("cut");
    let uncached = Session::default().compile(&stmt).unwrap();
    let text = |program: &Stmt| normalize_temps(&program.to_string());

    let capped = sim().match_budget(1).build().unwrap();
    let cut = capped.compile(&stmt).unwrap();
    let reason = TruncationReason::MatchBudget;
    assert_eq!(cut.report.outcome, CompileOutcome::Truncated { reason });
    assert_eq!(cut.report.cache, CacheOutcome::Miss);
    assert!(cache.is_empty(), "a match-budget-truncated leaf was stored");

    let clean = sim().build().unwrap();
    let token = CancelToken::new();
    token.cancel();
    let cancelled = clean.compile_cancellable(&stmt, token).unwrap();
    let reason = TruncationReason::Cancelled;
    assert_eq!(
        cancelled.report.outcome,
        CompileOutcome::Truncated { reason }
    );
    assert!(cache.is_empty(), "a cancelled leaf was stored");

    #[cfg(feature = "fault-injection")]
    {
        use hardboiled_repro::egraph::fault::{Fault, FaultPlan};
        let plan = FaultPlan::new(Fault::NodeExplosion { at_iteration: 0 });
        let faulted = sim().fault_plan(plan).build().unwrap();
        let exploded = faulted.compile(&stmt).unwrap();
        assert_ne!(exploded.report.outcome, CompileOutcome::Saturated);
        assert_eq!(exploded.report.cache, CacheOutcome::Bypass);
        assert!(cache.is_empty(), "a fault-injected leaf was stored");
    }

    let later = clean.compile(&stmt).unwrap();
    assert_eq!(later.report.cache, CacheOutcome::Miss);
    assert_eq!(later.report.outcome, CompileOutcome::Saturated);
    assert_eq!(text(&later.program), text(&uncached.program));
    assert_eq!(cache.len(), 1);
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

    // ... while searching only the semi-naive delta of the new leaf. The
    // cold run's first pass searches every rule in full; the warm run runs
    // no full search at all, and probes fewer rows in total — the rows its
    // delta probes visit against the rows the cold run's full searches
    // enumerate and its delta probes visit.
    let ([cold_run], [warm_run]) = (&cold.report.units[..], &warm.report.units[..]) else {
        panic!("a shared unit each");
    };
    assert!(cold_run.full_searches > 0, "cold run must search in full");
    assert_eq!(warm_run.full_searches, 0, "warm run searched in full");
    assert_eq!(warm_run.full_probed_rows, 0, "warm run enumerated in full");
    let total = |run: &RunReport| run.full_probed_rows + run.delta_probed_rows;
    let (cold_probed, warm_probed) = (total(cold_run), total(warm_run));
    assert!(
        cold_run.full_probed_rows > 0,
        "cold run must enumerate rows"
    );
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
                supported: SNAPSHOT_VERSION,
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

#[test]
fn truncated_runs_export_nothing() {
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .match_budget(1)
        .build()
        .unwrap();
    let placements = Placements::new();
    let stmts: Vec<Stmt> = ["a", "b"].map(tile_leaf).to_vec();
    let (result, snapshot) = session.compile_ir_suite_exporting(&suite_refs(&stmts, &placements));
    assert_eq!(
        result.report.outcome,
        CompileOutcome::Truncated {
            reason: TruncationReason::MatchBudget
        }
    );
    assert!(
        snapshot.is_none(),
        "a truncated graph would warm-start later compiles unsaturated"
    );
}
