//! The compile cache subsystem: memoized compiles and warm-start
//! snapshots for saturation-as-a-service.
//!
//! Suite compilation is deterministic — the same programs, target, cost
//! model, batching mode and budgets always select the
//! same programs (the byte-identity oracles in `tests/` pin this down).
//! That determinism is what makes caching sound, and this module exploits
//! it at two granularities:
//!
//! * **Layer 1 — the report cache** ([`ReportCache`]): a bounded,
//!   thread-safe, content-addressed map from *(canonical program hashes,
//!   policy fingerprint)* to the finished compile. A hit skips the whole
//!   pipeline — rule search, extraction, splicing — and returns the
//!   stored programs and [`CompileReport`](crate::session::CompileReport)
//!   verbatim (only the report's [`CacheOutcome`] differs).
//! * **Layer 2 — e-graph snapshots** ([`SuiteSnapshot`]): a saturated
//!   suite e-graph serialized through `hb_egraph::snapshot`, tagged with
//!   the exporting session's policy fingerprint. A policy-compatible
//!   session restores it and **warm-starts**: new leaves are hash-consed
//!   into the restored graph and only the semi-naive delta runs — rules
//!   probe the rows the new leaves added, not the whole saturated graph
//!   (`RunReport::delta_probed_rows` drops accordingly), while selections
//!   stay byte-identical to a cold compile.
//!
//! ## Cache keying
//!
//! The key is content-addressed, never identity-addressed:
//!
//! * Each program hashes through [`canonical_program_hash`] — a
//!   first-occurrence renaming of every buffer/variable name over a
//!   pre-order walk of the statement tree, folded with the requested
//!   placements (sorted by canonical name). Two structurally identical
//!   programs that differ only in the names of their temporaries — the
//!   unrolled bodies a front end stamps out — hash equal; intrinsic call
//!   names are semantic and hash by content. The hash is a plain
//!   `splitmix64` chain over the canonical rendering, so it is stable
//!   across processes, `HashMap` iteration orders and id assignments.
//! * The policy fingerprint folds in everything else that can change the
//!   output: target name, batching mode, outer
//!   iterations, node/match/deadline budgets, matcher choice, and a probe
//!   of the cost model over representative e-nodes. Observers (tracer,
//!   metrics registry, profile sink) are deliberately excluded — they
//!   never change an output, so cached results and snapshots port across
//!   instrumented and plain sessions.
//!
//! Hash collisions cannot corrupt results: a hit additionally requires
//! the stored request (exact statements and placements) to equal the
//! incoming one, so canonically-colliding renamed siblings occupy
//! separate entries and each caller gets back its own names.
//!
//! ## Eviction and observability
//!
//! The cache is bounded ([`ReportCache::new`] takes a capacity) with
//! generation-clocked least-recently-used eviction: every hit or store
//! advances a logical clock, and inserting into a full cache evicts the
//! entry with the oldest clock value. [`CacheStats`] exposes monotone
//! hit/miss/bypass/eviction counters; each compile's own treatment lands
//! on its report as a [`CacheOutcome`]. Compiles that never consult the
//! cache — leaf-free programs, warm-starts, snapshot-exporting compiles,
//! and fault-injected sessions — count as bypasses, and only fully
//! [`Saturated`](crate::session::CompileOutcome::Saturated) compiles are
//! stored (a truncated or degraded result must not shadow a later clean
//! one).

mod hash;
mod snapshot;
mod store;

pub use hash::{canonical_program_hash, canonical_text};
pub(crate) use hash::{policy_fingerprint, request_hash};
pub use snapshot::{SuiteSnapshot, WarmRejection};
pub use store::{CacheOutcome, CacheStats, ReportCache};
