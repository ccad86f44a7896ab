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
//! * Each program hashes through [`canonical_program_hash`]: one
//!   pre-order walk over the borrowed statement tree that feeds a
//!   `splitmix64` chain, word by word, with each node's tag, its payload
//!   (operator, type, lane count, immediate, intrinsic name by content) and
//!   — in place of every buffer/variable name — the index of that name's
//!   first occurrence on the walk; then the requested placements in
//!   first-occurrence order of the names they place. Nothing is copied,
//!   rendered or sorted. Two structurally identical programs that differ
//!   only in the names of their temporaries — the unrolled bodies a front
//!   end stamps out — hash equal; intrinsic call names are semantic and
//!   hash by content, as do placements of names the tree never mentions.
//!   The chain is stable across processes, `HashMap` iteration orders and
//!   id assignments. A request's key chains its programs' streams and the
//!   policy fingerprint the same way.
//! * The policy fingerprint folds in everything else a session can set
//!   that can change the output: target name, batching mode, outer
//!   iterations, iteration / node / match / deadline budgets, and a probe
//!   of the cost model over representative e-nodes. Observers (tracer,
//!   metrics registry, profile sink) are deliberately excluded — they
//!   never change an output, so cached results and snapshots port across
//!   instrumented and plain sessions.
//!
//! Hash collisions cannot corrupt results: a hit additionally requires
//! the stored request (exact statements and placements) to equal the
//! incoming one — on every lookup, a service's front door included — so
//! canonically-colliding renamed siblings occupy separate entries and
//! each caller gets back its own names.
//!
//! The consult runs first, on the request as the caller holds it: a hit
//! clones nothing but the stored result, and a miss hands its key to the
//! compile, which stores the request it owns by value (see `Session`'s
//! "One path through a compile" and the service's "Front door").
//!
//! ## Eviction and observability
//!
//! The cache is bounded ([`ReportCache::new`] takes a capacity) with
//! generation-clocked least-recently-used eviction: every hit or store
//! advances a logical clock, and inserting into a full cache evicts the
//! entry with the oldest clock value. [`CacheStats`] exposes monotone
//! hit/miss/bypass/eviction counters; each compile's own treatment lands
//! on its report as a [`CacheOutcome`]. Compiles the cache has nothing for
//! by construction — leaf-free programs (never stored), warm-starts,
//! snapshot-exporting compiles, and fault-injected sessions — count as
//! bypasses; every request counts as exactly one hit, miss or bypass,
//! however often it was looked up; and only fully
//! [`Saturated`](crate::session::CompileOutcome::Saturated) compiles are
//! stored (a truncated or degraded result must not shadow a later clean
//! one).

mod hash;
mod snapshot;
mod store;

pub use hash::canonical_program_hash;
pub(crate) use hash::{policy_fingerprint, request_hash};
pub use snapshot::{SuiteSnapshot, WarmRejection};
pub use store::{CacheOutcome, CacheStats, ReportCache};
