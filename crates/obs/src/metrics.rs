//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms behind one thread-safe handle.
//!
//! Registration returns a cheap-clone handle (`Arc<Atomic…>` inside)
//! that hot paths update lock-free with `Relaxed` atomics; the registry
//! lock is taken only to register a name or take a snapshot.
//! Registering the same name twice returns the same underlying metric,
//! which is what lets many `Session`s share one registry across a
//! `CompileService` and have their counts aggregate.
//!
//! Histograms share one **fixed** bucket ladder, powers of four from 1 µs
//! to ~69 s ([`DEFAULT_DURATION_BOUNDS_NS`]), wide enough for a
//! sub-millisecond cache hit and a multi-second saturation alike.
//! Fixed buckets keep `observe` allocation-free and snapshots mergeable;
//! quantiles are read out as the upper bound of the bucket where the
//! cumulative count crosses the rank, i.e. with bucket-granular error —
//! the standard Prometheus-histogram trade.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Every histogram's bucket upper bounds (nanoseconds): powers of four
/// from 1024 ns (~1 µs) to ~69 s, 14 buckets plus overflow.
pub const DEFAULT_DURATION_BOUNDS_NS: [u64; 14] = [
    1 << 10, // ~1 µs
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18, // ~0.26 ms
    1 << 20, // ~1 ms
    1 << 22,
    1 << 24, // ~17 ms
    1 << 26,
    1 << 28, // ~0.27 s
    1 << 30, // ~1.1 s
    1 << 32,
    1 << 34, // ~17 s
    1 << 36, // ~69 s
];

/// A monotone counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge handle (e.g. a queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramInner {
    /// One count per [`DEFAULT_DURATION_BOUNDS_NS`] bucket, plus the
    /// overflow slot.
    counts: [AtomicU64; DEFAULT_DURATION_BOUNDS_NS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        let bucket = DEFAULT_DURATION_BOUNDS_NS.partition_point(|&b| b < value);
        inner.counts[bucket].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration, in nanoseconds.
    #[allow(clippy::cast_possible_truncation)]
    pub fn observe_duration(&self, duration: Duration) {
        self.observe(duration.as_nanos() as u64);
    }

    /// Observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            name: name.to_string(),
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets: DEFAULT_DURATION_BOUNDS_NS
                .iter()
                .map(|&b| Some(b))
                .chain(std::iter::once(None))
                .zip(inner.counts.iter().map(|c| c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (0 before the first observation).
    pub max: u64,
    /// `(upper bound, count in bucket)`; the final `None` bound is the
    /// overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// where the cumulative count crosses the rank; observations in the
    /// overflow bucket report the observed maximum. `None` before the
    /// first observation.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for &(bound, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return Some(bound.unwrap_or(self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`quantile`](Self::quantile) for granularity).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the observations.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A thread-safe registry of named metrics. Cheap to share behind an
/// `Arc`; see the module docs for the locking discipline.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // Poison-tolerant, like every lock in the serving stack: a
        // panicking worker leaves only ordinary map state behind.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.lock();
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name` with the duration buckets
    /// ([`DEFAULT_DURATION_BOUNDS_NS`]), creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.lock();
        let mut snapshot = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snapshot.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snapshot.histograms.push(h.snapshot(name)),
            }
        }
        snapshot
    }

    /// Prometheus-style text exposition (see
    /// [`MetricsSnapshot::render_text`]).
    #[must_use]
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A point-in-time copy of a whole registry, each section sorted by
/// metric name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// One entry per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The gauge named `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus-style text exposition: `# TYPE` headers, cumulative
    /// `_bucket{le=…}` series, `_sum` and `_count` per histogram. Names
    /// are sanitized (`.` → `_`) to the Prometheus charset.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0;
            for &(bound, count) in &h.buckets {
                cumulative += count;
                match bound {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registering_the_same_name_shares_the_metric() {
        let registry = MetricsRegistry::new();
        registry.counter("requests").inc();
        registry.counter("requests").add(2);
        assert_eq!(registry.snapshot().counter("requests"), Some(3));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("x");
        let _ = registry.gauge("x");
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat");
        for _ in 0..9 {
            h.observe(5); // bucket le=1024
        }
        h.observe(5_000); // bucket le=16384
        let snap = registry.snapshot();
        let lat = snap.histogram("lat").expect("registered");
        assert_eq!(lat.count, 10);
        assert_eq!(lat.p50(), Some(1 << 10));
        assert_eq!(lat.p99(), Some(1 << 14));
        assert_eq!(lat.max, 5_000);
    }

    #[test]
    fn overflow_bucket_reports_the_observed_max() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("big");
        h.observe(1 << 40);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("big").and_then(HistogramSnapshot::p99),
            Some(1 << 40)
        );
    }

    #[test]
    fn render_text_is_prometheus_shaped() {
        let registry = MetricsRegistry::new();
        registry.counter("cache.hits").add(3);
        registry.gauge("queue.depth").set(-2);
        let h = registry.histogram("wait");
        h.observe(4);
        h.observe(1 << 40);
        let text = registry.render_text();
        assert!(text.contains("# TYPE cache_hits counter\ncache_hits 3\n"));
        assert!(text.contains("queue_depth -2"));
        assert!(text.contains("wait_bucket{le=\"1024\"} 1"));
        assert!(text.contains("wait_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains(&format!("wait_sum {}", 4 + (1u64 << 40))));
        assert!(text.contains("wait_count 2"));
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let c = registry.counter("hammered");
                    let h = registry.histogram("hist");
                    for i in 0..per_thread {
                        c.inc();
                        h.observe((i % 100) << 10);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hammered"), Some(threads * per_thread));
        let hist = snap.histogram("hist").expect("registered");
        assert_eq!(hist.count, threads * per_thread);
        let bucketed: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucketed, threads * per_thread);
    }
}
