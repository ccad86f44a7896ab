//! `hb-obs` — the observability substrate for the HARDBOILED stack:
//! structured tracing, a metrics registry, and engine profiling hooks.
//!
//! The selector's telemetry grew organically — `RunReport` counters in
//! the engine, `StageTimings` on every compile report, `CacheStats` on
//! the report cache, ticket outcomes on the service — with no way to
//! correlate one request's journey through the pipeline or to aggregate
//! fleet-level behavior across a `CompileService`'s workers. This crate
//! is the shared substrate those layers now report through. It has
//! three parts, usable independently:
//!
//! # Span model ([`trace`])
//!
//! A [`Tracer`] hands out guard-style [`Span`]s:
//! `tracer.span("saturate")` opens a span, dropping (or
//! [`finish`](Span::finish)ing) the guard stamps its end time and files
//! a [`SpanRecord`]. Parent/child nesting is inferred from a
//! **thread-local stack of open spans** rather than threaded through
//! call signatures — the session opens `compile`, each stage opens its
//! own child, and engine-side samples land under whatever stage is open
//! on that thread. Records carry ordered key→value attributes and merge
//! into one store across threads, so concurrent compiles sharing a tracer
//! yield one coherent trace. `Span::finish` returns the measured
//! [`Duration`](std::time::Duration), which is how the session
//! populates its public `StageTimings` from
//! the very same spans: tracing and stage timing cannot drift apart.
//! A **disabled** tracer ([`Tracer::disabled`], the default) records
//! nothing but its guards still measure, so the plumbing is always on
//! and recording is the only opt-in.
//!
//! # Clock abstraction ([`clock`])
//!
//! Spans read a pluggable [`Clock`] instead of [`std::time::Instant`]:
//! [`MonotonicClock`] in production, [`TestClock`] in tests. The test
//! clock advances a fixed step per reading, which makes span trees —
//! ids, timestamps, durations, and the [`Tracer::render_tree`] text —
//! byte-stable across runs and machines. Golden-tree tests assert the
//! session's exact span hierarchy this way.
//!
//! # Histogram bucketing ([`metrics`])
//!
//! [`MetricsRegistry`] names three metric kinds: monotone [`Counter`]s,
//! signed [`Gauge`]s, and fixed-bucket [`Histogram`]s. Handles are
//! cheap clones updated with `Relaxed` atomics — the registry lock is
//! only for registration and snapshots, so sessions and service workers
//! share one registry without contention on the hot path. Histograms
//! share one fixed bucket ladder (powers of four from ~1 µs to ~69 s,
//! [`DEFAULT_DURATION_BOUNDS_NS`]) so `observe` is allocation-free and
//! snapshots merge; quantiles (p50/p99) read out as the upper bound of
//! the bucket where the cumulative count crosses the rank —
//! bucket-granular by design, the same trade Prometheus histograms make.
//! Snapshots render as Prometheus-style text
//! ([`MetricsSnapshot::render_text`]).
//!
//! # Profiling hooks ([`profile`])
//!
//! [`ProfileSink`] is the opt-in callback interface the engine invokes
//! at rule-search boundaries (rule name, probed rows, matches,
//! duration) and congruence rebuilds, so external profilers attach
//! without forking the engine. The contract is that **absence is
//! free**: the engine stores an `Option<`[`ProfileHandle`]`>` and every
//! hook site is one branch when it is `None` — no clock reads, no
//! virtual calls. That observers change no output is asserted at pool
//! scale by `hb-bench`'s `pool.rs::observers_and_idle_budgets_change_nothing`
//! (programs and run-report counters identical with a tracer, registry
//! and sink installed); what they cost is read from outside, as
//! `obs.overhead_share` in `benchmark/`.
//!
//! # Why no external dependencies
//!
//! The obvious alternative is the `tracing` + `metrics`/`prometheus`
//! crate stack. This crate deliberately reimplements the ~1 100 lines it
//! actually needs instead: (1) the workspace's engine crates are
//! dependency-free and vendored-only by policy — determinism and
//! auditability of the paper reproduction outrank ecosystem features;
//! (2) byte-stable span trees need a pluggable clock, which `tracing`'s
//! subscriber model does not expose without a shim of comparable size;
//! (3) the engine hook must be provably near-free when disabled, which
//! is easiest to audit when the entire mechanism is a branch on an
//! `Option` in this workspace rather than a global subscriber lookup.

pub mod clock;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use clock::{Clock, MonotonicClock, TestClock};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    DEFAULT_DURATION_BOUNDS_NS,
};
pub use profile::{
    CollectingSink, NullSink, OwnedRuleSearch, ProfileHandle, ProfileSink, RuleSearchSample,
    TracingSink,
};
pub use trace::{Span, SpanRecord, Tracer};
