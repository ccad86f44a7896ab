//! Profiling hooks: the opt-in callback interface the engine invokes at
//! rule-search boundaries.
//!
//! The engine's scheduler is the hottest loop in the stack, so the hook
//! contract is strict: the engine's `Runner` holds an
//! `Option<ProfileHandle>`, and with `None` every hook site is
//! a single branch — no clock reads, no allocation, no virtual call.
//! With a sink installed the engine times each rule search, drains the
//! per-rule probe counters, and reports a [`RuleSearchSample`] per
//! search plus an [`on_rebuild`](ProfileSink::on_rebuild) call per
//! congruence rebuild. External profilers implement [`ProfileSink`];
//! [`CollectingSink`] (tests) and [`TracingSink`] (span-tree
//! integration) cover the in-tree uses.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::trace::Tracer;

/// One rule search, as reported by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSearchSample<'a> {
    /// The rewrite rule's name.
    pub rule: &'a str,
    /// Candidate index rows the search probed (0 for naive searches,
    /// which scan without the delta index).
    pub probed_rows: usize,
    /// Matches the search found — the rows it left in the match buffer,
    /// every one of which went through the rule's guard and applier.
    pub found: usize,
    /// The found matches whose application changed the graph. A delta
    /// search over dirty roots mostly re-finds what an earlier pass applied,
    /// so `matches == 0` says the search was fruitless, not that it was
    /// empty: that is `found == 0`.
    pub matches: usize,
    /// Wall time of the search + apply.
    pub duration: Duration,
}

/// A receiver for engine profiling callbacks. Implementations must be
/// cheap and must not panic — they run inside the saturation loop.
pub trait ProfileSink: Send + Sync {
    /// Called once per rule search (skipped quiescent rules excluded).
    fn on_rule_search(&self, sample: &RuleSearchSample<'_>);

    /// Called once per congruence rebuild the scheduler runs: between two
    /// rule searches when the first one's unions left the graph dirty, and
    /// at the end of every pass.
    fn on_rebuild(&self, duration: Duration) {
        let _ = duration;
    }
}

/// A cheap-clone, debug-printable wrapper for storing a sink inside the
/// engine's (`Debug + Clone`) `Runner`.
#[derive(Clone)]
pub struct ProfileHandle(Arc<dyn ProfileSink>);

impl ProfileHandle {
    /// Wraps a sink.
    #[must_use]
    pub fn new(sink: Arc<dyn ProfileSink>) -> Self {
        ProfileHandle(sink)
    }

    /// The wrapped sink.
    #[must_use]
    pub fn sink(&self) -> &dyn ProfileSink {
        &*self.0
    }
}

impl std::ops::Deref for ProfileHandle {
    type Target = dyn ProfileSink;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for ProfileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProfileHandle(..)")
    }
}

/// A sink that discards everything — the "instrumented but unobserved"
/// configuration the <2% overhead bar is asserted against.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProfileSink for NullSink {
    fn on_rule_search(&self, _sample: &RuleSearchSample<'_>) {}
}

/// An owned copy of one [`RuleSearchSample`], as stored by
/// [`CollectingSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRuleSearch {
    /// See [`RuleSearchSample::rule`].
    pub rule: String,
    /// See [`RuleSearchSample::probed_rows`].
    pub probed_rows: usize,
    /// See [`RuleSearchSample::found`].
    pub found: usize,
    /// See [`RuleSearchSample::matches`].
    pub matches: usize,
    /// See [`RuleSearchSample::duration`].
    pub duration: Duration,
}

/// A sink that stores every sample, for tests and offline analysis.
#[derive(Debug, Default)]
pub struct CollectingSink {
    samples: Mutex<Vec<OwnedRuleSearch>>,
    rebuilds: Mutex<Vec<Duration>>,
}

impl CollectingSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// All rule-search samples so far, in callback order.
    #[must_use]
    pub fn samples(&self) -> Vec<OwnedRuleSearch> {
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All rebuild durations so far.
    #[must_use]
    pub fn rebuilds(&self) -> Vec<Duration> {
        self.rebuilds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl ProfileSink for CollectingSink {
    fn on_rule_search(&self, sample: &RuleSearchSample<'_>) {
        self.samples
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(OwnedRuleSearch {
                rule: sample.rule.to_string(),
                probed_rows: sample.probed_rows,
                found: sample.found,
                matches: sample.matches,
                duration: sample.duration,
            });
    }

    fn on_rebuild(&self, duration: Duration) {
        self.rebuilds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(duration);
    }
}

/// A sink that records each callback as a completed span on a
/// [`Tracer`], nesting under whichever span is open on the engine
/// thread (the session's `saturate` span, in a compile).
#[derive(Debug, Clone)]
pub struct TracingSink {
    tracer: Tracer,
}

impl TracingSink {
    /// A sink recording onto `tracer`.
    #[must_use]
    pub fn new(tracer: Tracer) -> Self {
        TracingSink { tracer }
    }
}

impl ProfileSink for TracingSink {
    fn on_rule_search(&self, sample: &RuleSearchSample<'_>) {
        self.tracer.record_complete(
            "rule_search",
            sample.duration,
            vec![
                ("rule", sample.rule.to_string()),
                ("probed_rows", sample.probed_rows.to_string()),
                ("found", sample.found.to_string()),
                ("matches", sample.matches.to_string()),
            ],
        );
    }

    fn on_rebuild(&self, duration: Duration) {
        self.tracer.record_complete("rebuild", duration, Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_stores_samples_in_order() {
        let sink = CollectingSink::new();
        sink.on_rule_search(&RuleSearchSample {
            rule: "a",
            probed_rows: 2,
            found: 4,
            matches: 1,
            duration: Duration::from_nanos(5),
        });
        sink.on_rule_search(&RuleSearchSample {
            rule: "b",
            probed_rows: 0,
            found: 0,
            matches: 0,
            duration: Duration::ZERO,
        });
        sink.on_rebuild(Duration::from_nanos(7));
        let samples = sink.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].rule, "a");
        assert_eq!(samples[0].found, 4);
        assert_eq!(samples[1].matches, 0);
        assert_eq!(sink.rebuilds(), vec![Duration::from_nanos(7)]);
    }

    #[test]
    fn tracing_sink_files_spans() {
        let tracer = Tracer::with_clock(crate::clock::TestClock::new(1));
        let sink = TracingSink::new(tracer.clone());
        let root = tracer.span("saturate");
        sink.on_rule_search(&RuleSearchSample {
            rule: "mul-comm",
            probed_rows: 3,
            found: 5,
            matches: 2,
            duration: Duration::from_nanos(1),
        });
        sink.on_rebuild(Duration::from_nanos(1));
        drop(root);
        let spans = tracer.finished();
        assert!(spans.iter().any(|s| s.name == "rule_search"
            && s.attrs.contains(&("rule", "mul-comm".to_string()))
            && s.attrs.contains(&("found", "5".to_string()))));
        assert!(spans.iter().any(|s| s.name == "rebuild"));
    }
}
