//! # hardboiled — an EqSat-based tensor instruction selector
//!
//! The paper's primary contribution: a flexible instruction selector that
//! maps vectorized Halide-style IR onto tensor accelerators (Intel AMX and
//! Nvidia Tensor Core WMMA) using equality saturation, robust to the
//! syntactic obfuscation introduced by the simplifier (the phase-ordering
//! problem of §III-B).
//!
//! ## The `Session` API
//!
//! All compilation goes through a [`Session`], built once and reused:
//!
//! ```
//! use hardboiled::{Batching, Session};
//! use hb_ir::builder::*;
//!
//! let session = Session::builder()
//!     .target_name("sim")          // "amx" | "wmma" | "scalar" | "sim"
//!     .batching(Batching::Batched) // one shared e-graph per compile call
//!     .build()
//!     .unwrap();
//!
//! // Statements that do not touch accelerator buffers pass through.
//! let s = store("out", ramp(int(0), int(1), 4), bcast(flt(2.0), 4));
//! let result = session.compile(&s).unwrap();
//! assert_eq!(result.program, s);
//! assert_eq!(result.report.num_statements(), 0);
//! ```
//!
//! The session drives the full pipeline for every leaf statement touching
//! accelerator-placed buffers:
//!
//! 1. [`movement`] injects `loc_to_loc` data-movement markers (for the
//!    placements the target's policy honors),
//! 2. [`encode`] builds the e-graph term ([`lang::HbLang`], paper Fig. 9),
//! 3. [`rules`] saturate in one loop — axiomatic, application-specific,
//!    lowering (the families the target's rule profile selects), then the
//!    supporting rule, last in every pass (§III-D2),
//! 4. extraction picks the cheapest equivalent under the session's
//!    [`DeviceCost`] (§III-D3),
//! 5. [`decode`] + [`postprocess`] splice the result (materializing
//!    `ExprVar` swizzle buffers) back into the loop nest.
//!
//! A compile's leaves take one path: one walk takes every leaf out of its
//! tree, leaving a hole, and groups it by shape → report-cache lookup, one
//! per shape → compile unit(s) over the missed shapes → instantiate each
//! leaf → cache store → fill the holes. Leaves that differ only in
//! base-offset literals — the statements of an unrolled loop — share a
//! *shape*: the leaf with those literals replaced by parameters, which the
//! rules treat like loop variables. The shape owns its first leaf as its
//! root and keeps only the literals of the others, whose copies the walk
//! drops, so a compile holds one leaf per shape, not one per leaf. A unit
//! saturates one root per shape; each leaf of the shape, whether its shape
//! hit or was just selected, then gets the shape's term with its own
//! literals substituted back and materializes on its own, byte-identical
//! to what it selects alone. So the Fig. 6 conv1d's graph stays the same
//! size as its unroll factor grows (108 e-nodes at k = 64 and at k = 512),
//! and a shape the cache stored at one set of offsets serves every other.
//!
//! [`Session::compile_suite`] batches entire suites: with
//! [`Batching::Batched`], every leaf of every program shares one e-graph
//! and one saturation run, with results byte-identical to per-leaf
//! compilation. The [`CompileReport`] unifies statement outcomes, engine
//! saturation statistics, front-end diagnostics, per-stage timings
//! (lower / encode / saturate / extract / splice) and an
//! [`ExtractionReport`] (cost-table size, per-root costs, readout time).
//!
//! For server-style use, [`CompileService`] stacks a fixed worker pool on
//! top: one long-lived session per registered target, `compile` requests
//! (one [`CompileService::submit`] each) fanned across `std::thread`
//! workers with per-request panic isolation and a drain/shutdown path — see
//! [`service`]. The service's workers are the one concurrency axis: a
//! single compile is serial. A worker's unit of work is a whole compile
//! (0.2 ms and up on the benchmark when it saturates; 0.06 ms on average
//! on `service_mixed`, whose report cache answers most requests), which
//! outweighs a queue hand-off, while
//! the largest grain *inside* a compile — one rule's join over a wide
//! index row — averages ~12 µs even on the 161-leaf shared suite graph
//! (and no per-leaf graph has a row wide enough to split at all), so a
//! scatter/barrier per rule search costs about what it could save.
//!
//! ## Compile contexts
//!
//! A compile *unit* — one leaf shape in [`Batching::PerLeaf`] mode, the
//! shared graph of a call in [`Batching::Batched`] mode — builds its e-graph,
//! runs its searches and solves its extraction in a `CompileCtx`: an
//! [`HbGraph`], the engine's matcher scratch and its extraction scratch.
//! A session keeps these between units in a small pool (a mutex around a
//! vector, held only to pop and to push): a unit pops one — a fresh one
//! when none is at rest — and, when it is done, clears the graph
//! (`EGraph::clear`: everything observable reset, every table's capacity
//! kept) and pushes the context back. Units that run at once — service
//! workers, or callers sharing the session from several threads — each
//! pop their own, so the pool's size follows the concurrency actually
//! seen (up to 8); a [`CompileService`] gives all of its sessions *one*
//! pool, because a context is target-independent and a worker runs one
//! compile at a time — one context per worker, not per worker and target.
//! A warmed session therefore compiles without rebuilding its tables:
//! `tests/compile_allocs.rs` budgets the allocations of a steady-state
//! compile (5.7 per encoded e-node on its set; 30.3 before the pool),
//! `tests/compile_peak.rs` its peak live bytes against the program it
//! returns, and
//! `tests/reuse.rs` pins that a reused context is invisible — programs,
//! report counters and engine run reports equal those of fresh sessions,
//! also after truncated, cancelled and panicked compiles.
//!
//! Two rules bound what the pool holds. *Discard on panic:* the unit runs
//! between the pop and the push, so a panic unwinds past the push and
//! drops the context it was working in — a half-rewritten graph is never
//! cleared and reused; the frame's `catch_unwind` around its units then
//! degrades that compile to the unoptimized program (no later unit runs,
//! every leaf gets its annotated original back), a panic outside any unit
//! becomes the request's `CompileError::Engine` one level up, and the next
//! compile starts from a fresh context.
//! *Retention bound:* a context whose unit made more than 4 096 e-class
//! ids (`MAX_RETAINED_IDS`) is dropped instead of pooled — the smallest
//! power of two above every graph the benchmark built before leaves were
//! grouped by shape: per-leaf graphs make 16–100 ids, small batched
//! programs a few hundred, the suites and large unrolled programs made
//! 1 600–2 100 (grouped, unrolled programs build 108 e-nodes and the
//! suites 860–980). A pooled context carries the capacity envelope of the
//! largest graph it ever held (power-of-two
//! tables stay doubled for every later, smaller graph), so what the bound
//! admits is paid for in resident bytes: with 48-byte e-nodes, pooling the
//! large graphs read `peak_live_bytes` +4.2 % on `unrolled_large` and
//! +6.2 % on `suite_batched` against the benchmark's 5 % bound, and the
//! bound sat at 1 024. With 24-byte nodes (see [`lang`]) the same graphs
//! peak 18 % and 12 % lower, pooling them takes back 3–4 points of that —
//! −15.0 % / −7.6 % against the 48-byte unpooled tree, −8.9 % and −2.9 % on
//! the two small-graph workloads — and their table set-up leaves every
//! compile after the first. The bound stays so that one pathological
//! program cannot pin megabytes for the life of a service. There is no
//! option for any of this: the pool size follows use, the bounds are the
//! two constants in `session/frame.rs`.
//!
//! What a context does *not* own is names. The IR and the e-nodes carry
//! one name type, [`hb_ir::Symbol`] (re-exported as [`lang::Symbol`]) — an
//! index into one process-wide, append-only table — because the session's
//! rule patterns are built once and must equal nodes of every pooled
//! graph, and `op_key`, `Ord`, `Display` and the snapshot codec have no
//! context to ask; encoding and decoding copy names. The table grows with
//! the distinct identifiers the process has compiled and never shrinks
//! (gauge `core.symbols.interned`), so the names a compile makes up are
//! numbered per compile: temporaries (`__hb_tmpN`, [`postprocess`]) and
//! shape parameters (`__hb_paramN`) come from numbered tables, and a
//! repeated compile interns nothing. The [`hb_ir::symbol`] and [`lang`]
//! module docs say why a symbol's number never reaches a selected program.
//!
//! Because selection is deterministic per leaf, repeated work can be
//! memoized: the [`cache`] subsystem adds a bounded content-addressed
//! [`ReportCache`] of leaf-shape selections — a compile encodes only the
//! shapes it has not selected before (attach with [`SessionBuilder::report_cache`]
//! or share one across a service with
//! [`CompileServiceBuilder::shared_cache`]) — and e-graph
//! [`SuiteSnapshot`]s for warm-starting suite compiles
//! ([`Session::compile_ir_suite_exporting`] /
//! [`Session::compile_ir_suite_warm`]) — warm results are byte-identical
//! to cold ones while searching only the semi-naive delta of the new
//! leaves. See the [`cache`] module docs for the keying and eviction
//! scheme.
//!
//! ## Extension points
//!
//! * **Targets** ([`hb_accel::target::Target`]) bundle a device profile, a
//!   placement policy and a rule profile. Built-ins: `amx`, `wmma`, the
//!   no-accelerator `scalar` fallback, and `sim` (both families — the
//!   default). Plug in a new backend by implementing the trait and passing
//!   it to [`SessionBuilder::target`].
//! * **Extraction** is not an extension point: every compile unit solves
//!   one [`hb_egraph::extract::WorklistExtractor`] cost table over its
//!   saturated graph and reads every root out of it — one root per leaf
//!   graph, every root of a batched graph. It is the only extractor
//!   `hb_egraph` has.
//! * **The cost model** is not an extension point either: a session
//!   extracts with the [`cost::DeviceCost`] *derived from its target's
//!   device profile* — intrinsics are priced by how the device's tensor
//!   units compare to its general-purpose cores, so a device with slow
//!   tensor units makes extraction keep the vector code. A different
//!   price comes from a different target (the first bullet).
//! * **Front ends** implement [`session::IntoProgram`]; `hb-lang` does so
//!   for its `Pipeline` and `Lowered` types, which makes
//!   `session.compile(&pipeline)` lower and select in one call.

pub mod cache;
pub mod cost;
pub mod decode;
pub mod encode;
pub mod lang;
pub mod movement;
pub mod postprocess;
pub mod rules;
pub mod service;
pub mod session;
mod shape;

pub use cache::{
    canonical_program_hash, CacheOutcome, CacheStats, ReportCache, SuiteSnapshot, WarmRejection,
};
pub use cost::DeviceCost;
pub use hb_accel::target::{AmxTarget, RuleProfile, ScalarTarget, SimTarget, Target, WmmaTarget};
pub use hb_egraph::schedule::CancelToken;
pub use hb_obs::{
    CollectingSink, MetricsRegistry, MetricsSnapshot, NullSink, ProfileSink, TestClock, Tracer,
    TracingSink,
};
pub use lang::{HbAnalysis, HbGraph, HbLang, Symbol};
pub use movement::Placements;
pub use postprocess::MaterializeError;
pub use service::{
    CompileService, CompileServiceBuilder, ServiceError, Ticket, DEFAULT_QUEUE_CAPACITY,
};
pub use session::{
    Batching, BuildError, CompileError, CompileOutcome, CompileReport, CompileResult,
    ExtractionReport, IntoProgram, IrSuiteResult, Program, Session, SessionBuilder, StageTimings,
    StmtReport, SuiteResult, TruncationReason,
};
