//! The compile cache subsystem: memoized leaf selections and warm-start
//! snapshots for saturation-as-a-service.
//!
//! Selection is deterministic — the same leaf, target, device cost, batching
//! mode and budgets always select the same statement at the same cost,
//! whichever leaves share its e-graph (the per-leaf ≡ batched ≡
//! suite-batched oracles in `tests/` and `crates/bench/tests/pool.rs` pin
//! this down). That determinism is what makes caching sound, and this
//! module exploits it at two granularities:
//!
//! * **Layer 1 — the report cache** ([`ReportCache`]): a bounded,
//!   thread-safe, content-addressed map from *(leaf content hash, policy
//!   fingerprint)* to one **leaf selection** — the annotated leaf it was
//!   selected for, the selected statement, whether it lowered, and its
//!   root cost. The compile frame looks every leaf of a request up at once,
//!   splices the hits, encodes and saturates only the misses, and stores
//!   each miss whose own compile unit fully saturated. A request that
//!   changes one leaf of sixty compiles one leaf; a request whose every
//!   leaf hits runs no unit at all. The report describes the work the
//!   compile did: a hit leaf's [`StmtReport`](crate::session::StmtReport)
//!   carries its stored lowering outcome and no engine run, and its stored
//!   cost lands in the extraction report's root costs.
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
//! * A leaf's key is that hash of the *annotated* leaf with no placements
//!   — annotation has already baked the placements into its `LocToLoc`
//!   nodes — chained with the policy fingerprint.
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
//! key, and a hit additionally requires the stored annotated leaf to equal
//! the incoming one exactly. Two different leaves can share a key only on
//! a genuine 64-bit collision; the later store then replaces the earlier
//! entry, and the earlier leaf misses. A hit's statement is spliced as
//! stored, its `__hb_tmpN` temporaries inside their own `Allocate` scopes —
//! a program holding one leaf twice splices one stored selection twice.
//!
//! The lookup takes every leaf of a request under one lock acquisition,
//! after annotation; the store takes every storable miss under one more
//! (see `Session`'s "One path through a compile").
//!
//! ## Eviction and observability
//!
//! The cache is bounded ([`ReportCache::new`] takes a capacity, in leaf
//! entries) with generation-clocked least-recently-used eviction: every
//! lookup or store advances a logical clock, and inserting into a full
//! cache evicts the entry with the oldest clock value. [`CacheStats`]
//! exposes monotone hit/miss/bypass counters, one per *request* —
//! [`CacheOutcome::Hit`] when every leaf hit, [`CacheOutcome::Miss`] when
//! at least one leaf compiled — and evictions per *leaf entry*; each
//! compile's own treatment lands on its report as a [`CacheOutcome`].
//! Compiles the cache has nothing for by construction — leaf-free
//! programs, warm-starts, snapshot-exporting compiles, and fault-injected
//! sessions — count as bypasses and neither look up nor store. Only a leaf
//! whose own unit reached
//! [`Saturated`](crate::session::CompileOutcome::Saturated) and whose term
//! materialized is stored (a truncated or degraded selection must not
//! shadow a later clean one), so one truncated leaf never blocks the store
//! of its clean neighbours in other units.

mod hash;
mod snapshot;
mod store;

pub use hash::canonical_program_hash;
pub(crate) use hash::{leaf_keys, policy_fingerprint, shape_key};
pub use snapshot::{SuiteSnapshot, WarmRejection};
pub(crate) use store::Selection;
pub use store::{CacheOutcome, CacheStats, ReportCache};
