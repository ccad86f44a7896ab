//! The compile cache subsystem: memoized leaf-shape selections and
//! warm-start snapshots for saturation-as-a-service.
//!
//! Selection is deterministic — the same leaf, target, device cost, batching
//! mode and budgets always select the same statement at the same cost,
//! whichever leaves share its e-graph, and leaves that differ only in base
//! offsets select one term with their own offsets substituted (the
//! per-leaf ≡ batched ≡ suite-batched oracles in `tests/` and
//! `crates/bench/tests/pool.rs`, and `tests/shapes.rs`, pin this down). That determinism is what makes caching sound, and this
//! module exploits it at two granularities:
//!
//! * **Layer 1 — the report cache** ([`ReportCache`]): a bounded,
//!   thread-safe, content-addressed map from *(leaf-shape content hash,
//!   policy fingerprint)* to one **shape selection** — the shape's root
//!   (the leaf with its base-offset literals parametrized; see
//!   `shape.rs`), the term decoded from it and its root cost. The
//!   compile frame groups every leaf of a request by shape, looks every
//!   shape up at once, encodes and saturates only the missed shapes, and
//!   stores each one whose own compile unit fully saturated. A request that
//!   changes one leaf of sixty compiles at most one shape, and none when
//!   an earlier request stored that shape at any offsets; a request whose
//!   every shape hits runs no unit at all. The report describes the work
//!   the compile did: a hit leaf's
//!   [`StmtReport`](crate::session::StmtReport) carries no engine run, and
//!   its shape's stored cost lands in the extraction report's root costs.
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
//! * A program hashes through [`canonical_program_hash`]: one pre-order
//!   walk over the borrowed statement tree that feeds a `splitmix64`
//!   chain, word by word, with each node's tag and its payload (operator,
//!   type, lane count, immediate, and every buffer, variable and intrinsic
//!   name by content); then the requested placements as one order-free sum
//!   of per-entry hashes. Nothing is copied, rendered or sorted. The chain
//!   is stable across processes, `HashMap` iteration orders and id
//!   assignments.
//! * A leaf shape's key is that hash of its root — the *annotated* leaf
//!   with its base-offset literals replaced by parameters, and no
//!   placements (annotation has already baked them into its `LocToLoc`
//!   nodes) — chained with the policy fingerprint. The frame groups leaves
//!   by the same key, so a request computes one key per leaf, and leaves
//!   that differ only in base offsets share one entry.
//! * The policy fingerprint folds in everything else a session can set
//!   that can change the output: target name, batching mode, deadline,
//!   match budget, the runner's node limit, and the two prices of the
//!   session's [`DeviceCost`](crate::cost::DeviceCost). What every session
//!   shares (the runner's one iteration limit) is left out,
//!   and so are the observers (tracer, metrics registry, profile sink) —
//!   they never change an output, so cached results and snapshots port
//!   across instrumented and plain sessions.
//!
//! Key collisions cannot corrupt results: the cache holds one entry per
//! key, and a hit additionally requires the stored root to equal the
//! incoming shape's root exactly. Two different shapes can share a key only
//! on a genuine 64-bit collision; the later store then replaces the earlier
//! entry, and the earlier shape misses. A hit takes the path a fresh
//! selection takes: every member of the shape gets a copy of the stored
//! term with its own literals substituted, materialized on its own, so
//! each leaf gets the `__hb_tmpN` names the compile's counter reaches, and
//! a hit returns the program an uncached compile returns, byte for byte.
//!
//! The lookup takes every shape of a request under one lock acquisition,
//! after annotation and grouping; the store takes every storable missed
//! shape under one more, each moving its root into its entry (see
//! `Session`'s "One path through a compile").
//!
//! ## Eviction and observability
//!
//! The cache is bounded ([`ReportCache::new`] takes a capacity, in shape
//! entries) with generation-clocked least-recently-used eviction: every
//! lookup or store advances a logical clock, and inserting into a full
//! cache evicts the entry with the oldest clock value. [`CacheStats`]
//! exposes monotone hit/miss/bypass counters, one per *request* —
//! [`CacheOutcome::Hit`] when every shape hit, [`CacheOutcome::Miss`] when
//! at least one shape compiled — and evictions per *shape entry*; each
//! compile's own treatment lands on its report as a [`CacheOutcome`].
//! Compiles the cache has nothing for by construction — leaf-free
//! programs, warm-starts, snapshot-exporting compiles, and fault-injected
//! sessions — count as bypasses and neither look up nor store. Only a shape
//! whose own unit reached
//! [`Saturated`](crate::session::CompileOutcome::Saturated) and whose term
//! materialized is stored (a truncated or degraded selection must not
//! shadow a later clean one), so one truncated shape never blocks the store
//! of its clean neighbours in other units.

mod hash;
mod snapshot;
mod store;

pub use hash::canonical_program_hash;
pub(crate) use hash::{leaf_key, policy_fingerprint};
pub use snapshot::{SuiteSnapshot, WarmRejection};
pub(crate) use store::Selection;
pub use store::{CacheOutcome, CacheStats, ReportCache};
