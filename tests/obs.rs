//! Cross-layer observability contract: deterministic span trees under a
//! test clock, `StageTimings` populated from exactly the tracer's spans,
//! profiling sinks observing the engine through the session API, and one
//! registry aggregating engine, session and service metrics.

use std::sync::{Arc, Condvar, Mutex};

use hardboiled_repro::hardboiled::session::{CompileError, IntoProgram, Program};
use hardboiled_repro::hardboiled::{
    Batching, CollectingSink, MetricsRegistry, ReportCache, Session, Symbol, TestClock, Tracer,
    TracingSink,
};
use hardboiled_repro::ir::builder as b;
use hardboiled_repro::ir::stmt::Stmt;
use hardboiled_repro::ir::types::{MemoryType, ScalarType, Type};

/// One accelerator-touching selection leaf (an AMX-tile buffer), distinct
/// per `i` so repeated compiles can be cache hits or misses at will.
fn tile_leaf(i: i64) -> Stmt {
    let idx = b::ramp(b::int(i), b::int(1), 8);
    let ld = b::load(Type::f32().with_lanes(8), format!("x{i}"), idx.clone());
    b::allocate(
        format!("acc{i}"),
        ScalarType::F32,
        8,
        MemoryType::AmxTile,
        b::store(format!("acc{i}"), idx, b::mul(ld.clone(), ld)),
    )
}

/// The golden span tree: under `TestClock` every clock reading advances
/// by one tick, so the hierarchy *and* the durations are byte-stable.
/// Only the saturate span's attributes depend on the workload/rule set;
/// they are read back from the report so the comparison stays exact.
#[test]
fn span_tree_is_byte_stable_under_the_test_clock() {
    let tracer = Tracer::with_clock(TestClock::new(1));
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .tracer(tracer.clone())
        .build()
        .unwrap();
    let leaf = tile_leaf(0);
    let result = session.compile(&leaf).unwrap();
    let run = result.report.batch.as_ref().expect("batched run report");
    // Clock readings: compile opens at 0; six children each consume an
    // open+close tick pair; compile closes at 13.
    let expected = format!(
        "compile (13ns)\n  \
         lower (1ns)\n  \
         annotate (1ns) [leaves=1]\n  \
         encode (1ns)\n  \
         saturate (1ns) [iterations={} applied={}]\n  \
         extract (1ns) [roots=1]\n  \
         splice (1ns)\n",
        run.iterations, run.applied
    );
    assert_eq!(tracer.render_tree(), expected);
}

/// A disabled tracer records nothing, but its span guards still measure:
/// the report's stage timings stay populated at the old `Instant` cost.
#[test]
fn disabled_tracer_still_populates_stage_timings() {
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .build()
        .unwrap();
    let result = session.compile(&tile_leaf(0)).unwrap();
    let s = result.report.stages;
    assert!(s.encode > std::time::Duration::ZERO, "encode unmeasured");
    assert!(
        s.saturate > std::time::Duration::ZERO,
        "saturate unmeasured"
    );
    assert!(s.extract > std::time::Duration::ZERO, "extract unmeasured");
    assert_eq!(
        session.tracer().finished_count(),
        0,
        "disabled tracer recorded"
    );
}

/// `StageTimings` are populated from exactly the tracer's spans — the
/// two views of one compile can never disagree.
#[test]
fn stage_timings_equal_span_durations() {
    let tracer = Tracer::new();
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .tracer(tracer.clone())
        .build()
        .unwrap();
    let result = session.compile(&tile_leaf(0)).unwrap();
    let spans = tracer.finished();
    let sum = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(hardboiled_repro::obs::SpanRecord::duration)
            .sum::<std::time::Duration>()
    };
    let stages = result.report.stages;
    assert_eq!(stages.encode, sum("annotate") + sum("encode"));
    assert_eq!(stages.saturate, sum("saturate"));
    assert_eq!(stages.extract, sum("extract"));
    assert_eq!(stages.splice, sum("splice"));
}

/// The engine's profiling hooks, driven through the session API: every
/// rule search surfaces with its rule name, row counts and duration, and
/// the per-rule row attribution never exceeds the report's totals.
#[test]
fn collecting_sink_observes_rule_searches() {
    let sink = Arc::new(CollectingSink::new());
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .profile_sink(Arc::clone(&sink) as Arc<_>)
        .build()
        .unwrap();
    let result = session.compile(&tile_leaf(0)).unwrap();
    let run = result.report.batch.as_ref().expect("batched run report");
    let samples = sink.samples();
    assert!(!samples.is_empty(), "no rule searches observed");
    assert!(samples.iter().all(|s| !s.rule.is_empty()));
    assert!(samples.iter().all(|s| s.matches <= s.found));
    assert!(!sink.rebuilds().is_empty(), "no rebuilds observed");
    // Per-rule draining re-attributes rows; it must not invent any.
    let probed: usize = samples.iter().map(|s| s.probed_rows).sum();
    assert!(
        probed <= run.delta_probed_rows,
        "samples probed {probed} rows, report only {}",
        run.delta_probed_rows
    );
}

/// `TracingSink` bridges the two halves: rule-search samples become
/// `rule_search` spans nested under the session's own `saturate` span.
#[test]
fn tracing_sink_nests_rule_searches_under_saturate() {
    let tracer = Tracer::new();
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .tracer(tracer.clone())
        .profile_sink(Arc::new(TracingSink::new(tracer.clone())))
        .build()
        .unwrap();
    let _ = session.compile(&tile_leaf(0)).unwrap();
    let spans = tracer.finished();
    let saturate_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "saturate")
        .map(|s| s.id)
        .collect();
    assert_eq!(saturate_ids.len(), 1);
    let searches: Vec<_> = spans.iter().filter(|s| s.name == "rule_search").collect();
    assert!(!searches.is_empty(), "no rule_search spans recorded");
    assert!(
        searches.iter().all(|s| s.parent == Some(saturate_ids[0])),
        "rule_search spans escaped the saturate span"
    );
    for key in ["rule", "found", "matches"] {
        assert!(searches
            .iter()
            .all(|s| s.attrs.iter().any(|(k, _)| *k == key)));
    }
}

/// One registry, three layers: the session's cache counters mirror the
/// cache's own stats exactly, the outcome ladder counts every compile,
/// and stage histograms only record compiles that ran the pipeline.
#[test]
fn registry_aggregates_session_and_cache_metrics_exactly() {
    let metrics = Arc::new(MetricsRegistry::default());
    let cache = Arc::new(ReportCache::new(8));
    let session = Session::builder()
        .target_name("sim")
        .batching(Batching::Batched)
        .report_cache(Arc::clone(&cache))
        .metrics(Arc::clone(&metrics))
        .build()
        .unwrap();
    let leaf = tile_leaf(0);
    let _ = session.compile(&leaf).unwrap(); // miss
    let _ = session.compile(&leaf).unwrap(); // hit
    let snap = metrics.snapshot();
    let stats = cache.stats();
    assert_eq!(snap.counter("cache.hits"), Some(stats.hits));
    assert_eq!(snap.counter("cache.misses"), Some(stats.misses));
    assert_eq!(snap.counter("cache.bypasses"), Some(stats.bypasses));
    assert_eq!(snap.counter("cache.evictions"), Some(stats.evictions));
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(snap.counter("compile.outcome.saturated"), Some(2));
    // The hit never re-ran the pipeline: one histogram entry per stage.
    for stage in ["stage.saturate_ns", "stage.extract_ns", "stage.splice_ns"] {
        assert_eq!(
            snap.histogram(stage).map(|h| h.count),
            Some(1),
            "{stage} miscounted"
        );
    }
    // The process-wide symbol table holds at least this compile's names
    // (and every other test's: it only grows).
    let interned = snap
        .gauge("core.symbols.interned")
        .expect("set per compile");
    assert!(interned >= 3, "{interned} symbols after a compile");
    assert!(interned <= i64::try_from(Symbol::interned()).unwrap());
    // Rendering includes every metric the compile produced.
    let text = snap.render_text();
    assert!(text.contains("cache_hits 1"));
    assert!(text.contains("compile_outcome_saturated 2"));
}

/// A source that parks the worker in `to_program` until the gate opens, so
/// a request behind it is queued — not racing the worker — when its ticket
/// is dropped.
struct Gated {
    inner: Stmt,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl IntoProgram for Gated {
    fn to_program(&self) -> Result<Program, CompileError> {
        let (open, cv) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        self.inner.to_program()
    }
}

/// Service lifecycle metrics land in the shared registry: the global and
/// per-target queue-depth gauges, the busy/cancel counters and the
/// cancellation latency histogram all resolve — and per-target gauges
/// stay separate per registered target.
#[test]
fn service_lifecycle_metrics_share_the_registry() {
    use hardboiled_repro::hardboiled::CompileService;

    let metrics = Arc::new(MetricsRegistry::default());
    let service = CompileService::builder()
        .worker_threads(1)
        .register_target("sim")
        .register_target("scalar")
        .shared_metrics(Arc::clone(&metrics))
        .build()
        .unwrap();

    // One completed request per target.
    let sim = service.submit("sim", tile_leaf(0)).unwrap();
    let scalar = service.submit("scalar", tile_leaf(1)).unwrap();
    assert!(sim.wait().is_ok());
    assert!(scalar.wait().is_ok());
    // One cancellation: dropped while queued behind a request that holds
    // the single worker (an idle worker could finish the victim before
    // the drop lands).
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let holder = Gated {
        inner: tile_leaf(2),
        gate: Arc::clone(&gate),
    };
    let holder = service.submit("sim", holder).unwrap();
    let victim = service.submit("sim", tile_leaf(3)).unwrap();
    drop(victim);
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    // FIFO per target on one worker: once the holder has replied and a
    // probe after the victim has too, the skip has been processed.
    assert!(holder.wait().is_ok());
    assert!(service.submit("sim", tile_leaf(4)).unwrap().wait().is_ok());

    let snap = metrics.snapshot();
    assert_eq!(snap.counter("service.requests"), Some(5));
    assert_eq!(snap.counter("service.rejected_busy"), Some(0));
    assert_eq!(snap.counter("service.cancelled"), Some(1));
    assert_eq!(
        snap.histogram("service.cancel_latency_ns").map(|h| h.count),
        Some(1)
    );
    // Every request was queued; the run histogram saw the four that ran.
    assert_eq!(snap.histogram("service.run_ns").map(|h| h.count), Some(4));
    // Per-target gauges exist independently and are all drained.
    assert_eq!(snap.gauge("service.queue_depth"), Some(0));
    assert_eq!(snap.gauge("service.queue_depth.sim"), Some(0));
    assert_eq!(snap.gauge("service.queue_depth.scalar"), Some(0));
    // The session-level ledger sits next to the service counters: the
    // cancelled request never compiled.
    assert_eq!(snap.counter("compile.outcome.saturated"), Some(4));
    // Rendering carries the new names.
    let text = snap.render_text();
    assert!(text.contains("service_cancelled 1"), "{text}");
    assert!(text.contains("service_queue_depth_sim 0"), "{text}");
    service.shutdown();
}
