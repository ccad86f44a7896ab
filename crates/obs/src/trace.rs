//! Structured tracing: named spans with parent/child nesting and
//! per-span attributes.
//!
//! A [`Tracer`] is a cheap-clone handle (an `Arc` internally) shared by
//! everything that wants to record spans for one compile, session, or
//! service. [`Tracer::span`] returns a guard; the guard's lifetime *is*
//! the span, and [`Span::finish`] (or drop) stamps the end time and
//! files the record. Parent/child nesting is inferred from a
//! thread-local stack of open spans, so `session.span("saturate")`
//! followed by engine-side spans on the same thread nests them without
//! any plumbing through call signatures.
//!
//! A **disabled** tracer ([`Tracer::disabled`], the default on a
//! `Session`) records nothing and touches no shared state, but its
//! guards still measure durations — that is what lets `StageTimings`
//! be populated from spans whether or not anyone is listening.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::clock::{Clock, MonotonicClock};

/// One finished span, as stored by a [`Tracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Tracer-unique id, assigned in span *start* order.
    pub id: u64,
    /// The id of the span that was open on the starting thread, if any.
    pub parent: Option<u64>,
    /// The name passed to [`Tracer::span`].
    pub name: &'static str,
    /// Clock reading at span start.
    pub start_ns: u64,
    /// Clock reading at span end.
    pub end_ns: u64,
    /// Attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// The span's wall duration under its tracer's clock.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

struct Inner {
    enabled: bool,
    clock: Box<dyn Clock>,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

// Open spans on this thread, as (tracer identity, span id) pairs. Kept
// per-thread so concurrent compiles sharing one tracer each get their
// own parent chain; records from all threads merge into the tracer.
thread_local! {
    static OPEN_SPANS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A handle to one span store. Clones share the store.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .field("spans", &self.finished_count())
            .finish()
    }
}

impl Default for Tracer {
    /// The default tracer is disabled (see [`Tracer::disabled`]).
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A recording tracer on the production monotonic clock.
    #[must_use]
    pub fn new() -> Self {
        Tracer::with_clock(MonotonicClock::new())
    }

    /// A recording tracer on the given clock (tests pass a
    /// [`TestClock`](crate::TestClock) for byte-stable trees).
    #[must_use]
    pub fn with_clock(clock: impl Clock) -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: true,
                clock: Box::new(clock),
                next_id: AtomicU64::new(0),
                records: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A tracer that records nothing. Its spans still measure durations
    /// (on the monotonic clock), so timing plumbing works unchanged.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                enabled: false,
                clock: Box::new(MonotonicClock::new()),
                next_id: AtomicU64::new(0),
                records: Mutex::new(Vec::new()),
            }),
        }
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Opens a span. The returned guard stamps the end time when
    /// finished or dropped; it nests under whichever span of this tracer
    /// is currently open on the calling thread.
    pub fn span(&self, name: &'static str) -> Span {
        let start_ns = self.inner.clock.now_ns();
        let (id, parent) = if self.inner.enabled {
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            let key = self.identity();
            let parent = OPEN_SPANS.with(|open| {
                let mut open = open.borrow_mut();
                let parent = open
                    .iter()
                    .rev()
                    .find(|(k, _)| *k == key)
                    .map(|&(_, id)| id);
                open.push((key, id));
                parent
            });
            (Some(id), parent)
        } else {
            (None, None)
        };
        Span {
            inner: Arc::clone(&self.inner),
            name,
            id,
            parent,
            start_ns,
            attrs: Vec::new(),
            closed: false,
        }
    }

    /// Records an already-measured interval as a completed child of the
    /// currently open span, back-dating its start by `duration`. This is
    /// how after-the-fact samples (e.g. the engine's per-rule profile
    /// callbacks) appear in the tree without holding a guard open across
    /// the measured region.
    pub fn record_complete(
        &self,
        name: &'static str,
        duration: Duration,
        attrs: Vec<(&'static str, String)>,
    ) {
        if !self.inner.enabled {
            return;
        }
        let end_ns = self.inner.clock.now_ns();
        #[allow(clippy::cast_possible_truncation)]
        let start_ns = end_ns.saturating_sub(duration.as_nanos() as u64);
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let key = self.identity();
        let parent = OPEN_SPANS.with(|open| {
            open.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|&(_, id)| id)
        });
        self.push(SpanRecord {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        });
    }

    fn push(&self, record: SpanRecord) {
        // Poison-tolerant: a panicking compile thread must not take the
        // tracer down with it (the chaos suite relies on this).
        self.inner
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// All finished spans, in finish order.
    #[must_use]
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.inner
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of finished spans.
    #[must_use]
    pub fn finished_count(&self) -> usize {
        self.inner
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Drops all finished spans (open guards are unaffected).
    pub fn clear(&self) {
        self.inner
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Renders the finished spans as an indented tree, children in
    /// start order. Byte-stable under a [`TestClock`](crate::TestClock):
    ///
    /// ```text
    /// compile (13ns)
    ///   lower (1ns)
    ///   saturate (1ns) [iterations=4]
    /// ```
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut records = self.finished();
        records.sort_by_key(|r| r.id);
        let mut out = String::new();
        // Roots are spans whose parent never finished (or was None).
        let finished_ids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
        let roots: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.parent.is_none_or(|p| !finished_ids.contains(&p)))
            .map(|(i, _)| i)
            .collect();
        for root in roots {
            render_into(&mut out, &records, root, 0);
        }
        out
    }
}

fn render_into(out: &mut String, records: &[SpanRecord], index: usize, depth: usize) {
    let r = &records[index];
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = write!(
        out,
        "{} ({}ns)",
        r.name,
        r.end_ns.saturating_sub(r.start_ns)
    );
    if !r.attrs.is_empty() {
        out.push_str(" [");
        for (i, (k, v)) in r.attrs.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push(']');
    }
    out.push('\n');
    let id = r.id;
    for (child, record) in records.iter().enumerate() {
        if record.parent == Some(id) {
            render_into(out, records, child, depth + 1);
        }
    }
}

/// An open span. Ends when [`finish`](Span::finish)ed or dropped.
#[must_use = "a span measures the region its guard is alive for"]
pub struct Span {
    inner: Arc<Inner>,
    name: &'static str,
    /// `None` when the tracer is disabled (nothing will be recorded).
    id: Option<u64>,
    parent: Option<u64>,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
    closed: bool,
}

impl Span {
    /// Attaches a key→value attribute (no-op on a disabled tracer).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if self.id.is_some() {
            self.attrs.push((key, value.to_string()));
        }
    }

    /// Ends the span and returns its measured duration.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        if self.closed {
            return Duration::ZERO;
        }
        self.closed = true;
        let end_ns = self.inner.clock.now_ns();
        if let Some(id) = self.id {
            let key = Arc::as_ptr(&self.inner) as usize;
            OPEN_SPANS.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&e| e == (key, id)) {
                    open.remove(pos);
                }
            });
            let record = SpanRecord {
                id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                attrs: std::mem::take(&mut self.attrs),
            };
            self.inner
                .records
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(record);
        }
        Duration::from_nanos(end_ns.saturating_sub(self.start_ns))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn spans_nest_by_thread_local_stack() {
        let tracer = Tracer::with_clock(TestClock::new(1));
        let outer = tracer.span("outer");
        let inner = tracer.span("inner");
        let sibling_after = {
            drop(inner);
            tracer.span("second")
        };
        drop(sibling_after);
        drop(outer);
        let spans = tracer.finished();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(by_name("outer").parent, None);
        assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
        assert_eq!(by_name("second").parent, Some(by_name("outer").id));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_measures() {
        let tracer = Tracer::disabled();
        let mut span = tracer.span("ignored");
        span.attr("k", "v");
        let duration = span.finish();
        assert_eq!(tracer.finished_count(), 0);
        // Monotonic clock: a well-formed (possibly zero) duration.
        assert!(duration >= Duration::ZERO);
    }

    #[test]
    fn test_clock_tree_is_byte_stable() {
        let tracer = Tracer::with_clock(TestClock::new(1));
        let root = tracer.span("compile"); // start 0
        let mut stage = tracer.span("lower"); // start 1
        stage.attr("stmts", 3);
        assert_eq!(stage.finish(), Duration::from_nanos(1)); // end 2
        drop(root); // end 3
        assert_eq!(
            tracer.render_tree(),
            "compile (3ns)\n  lower (1ns) [stmts=3]\n"
        );
    }

    #[test]
    fn record_complete_nests_under_the_open_span() {
        let tracer = Tracer::with_clock(TestClock::new(1));
        let root = tracer.span("saturate");
        tracer.record_complete(
            "rule_search",
            Duration::from_nanos(1),
            vec![("rule", "mul-comm".to_string())],
        );
        drop(root);
        let spans = tracer.finished();
        let rule = spans
            .iter()
            .find(|s| s.name == "rule_search")
            .expect("recorded");
        let saturate = spans.iter().find(|s| s.name == "saturate").expect("root");
        assert_eq!(rule.parent, Some(saturate.id));
        assert_eq!(rule.duration(), Duration::from_nanos(1));
    }

    #[test]
    fn concurrent_spans_keep_per_thread_parent_chains() {
        let tracer = Tracer::with_clock(TestClock::new(1));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let outer = tracer.span("outer");
                    let inner = tracer.span("inner");
                    drop(inner);
                    drop(outer);
                });
            }
        });
        let spans = tracer.finished();
        assert_eq!(spans.len(), 8);
        for inner in spans.iter().filter(|s| s.name == "inner") {
            let parent = inner.parent.expect("inner spans have a parent");
            let parent = spans.iter().find(|s| s.id == parent).expect("recorded");
            assert_eq!(parent.name, "outer");
        }
    }
}
