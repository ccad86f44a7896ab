//! # hb-egraph — equality saturation engine
//!
//! A from-scratch reimplementation of the egg/egglog machinery the paper
//! builds HARDBOILED on: hash-consed [`egraph::EGraph`]s with congruence
//! rebuilding, [`pattern::Pattern`] e-matching, pure
//! [`rewrite::Rewrite`] rules over multi-atom queries, one-loop
//! [`schedule::Runner`] scheduling (§III-D2), per-class
//! [`egraph::Analysis`] lattices, and cost-based term extraction
//! (§III-D3; [`extract::WorklistExtractor`]).
//!
//! There is one data model: a fact one rule derives for another to join
//! against — egglog's relation tuple, such as the paper's
//! `(amx-A-tile A tileA m k)` — is an ordinary e-node its language
//! declares, and a query reads it with a pattern atom rooted at a fresh
//! variable. Hash-consing dedups facts, rebuilding canonicalizes them,
//! class epochs carry their deltas and the snapshot carries them as
//! nodes, as for every other node.
//!
//! The engine is generic over a [`language::Language`]; the HARDBOILED
//! tensor language lives in the `hardboiled` crate, and a small arithmetic
//! demo language reproducing the paper's Fig. 1 lives in [`math_lang`].
//!
//! ## Performance design
//!
//! The engine keeps every hot path indexed and incremental (the work it
//! does on the ~1.8k-class whole-program pool — nodes, classes, searches
//! by kind, probed and skipped rows — is pinned at equality by
//! `crates/bench/tests/pool.rs`; its timings are read from `benchmark/`
//! at the repo root):
//!
//! * **One backtracking e-matcher.** [`rewrite::Query::compile`] interns
//!   variables to `u32` slots and flattens every pattern atom into a
//!   two-instruction program (`Bind`: for
//!   each e-node of this class with that operator, load its children into
//!   registers; `Var`: compare with the variable's binding, or bind it) —
//!   the e-matching abstract machine of de Moura & Bjørner, as egg uses
//!   it. A whole query — first atom, later atoms rooted at bound or fresh
//!   variables — runs as *one* depth-first walk over a
//!   single binding buffer and register file, undoing bindings as it
//!   backtracks; a binding row is copied out — appended to the search's
//!   flat match buffer — only at a complete match, so a candidate that
//!   fails costs no copy, and no match costs an allocation. The same walk
//!   serves full searches, single-root delta probes and semi-naive rounds
//!   (which start at their delta atom), and — pre-order depth-first
//!   search being the lexicographic order of the naive matcher's nested
//!   loops — returns the reference matcher's exact match *sequence* in
//!   all of them. One entry point per job:
//!   [`rewrite::CompiledQuery::search`] searches and
//!   [`rewrite::Rewrite::run`] searches and applies, each in full
//!   (`since: None`) or against one delta cutoff epoch (`Some(epoch)`);
//!   [`schedule::Runner::run_in`] saturates under the caller's
//!   [`schedule::Budget`] in one loop ([`schedule::Runner::run_to_fixpoint`]
//!   is it, cold, in a scratch of its own). The scheduler holds one
//!   [`pattern::MatchScratch`] (the buffers, the registers, the probe
//!   counters) per saturation run — or, through
//!   [`schedule::Runner::run_in`], the caller's, across runs. [`pattern::Subst`] keeps the string-keyed `get`/`bind` API as a
//!   compatibility shim for rule appliers (a linear scan of the shared
//!   name table — patterns bind a handful of variables).
//!
//! * **Dense, reusable storage.** E-class ids are consecutive `u32`s, so
//!   nothing keyed by one is a hash table. The class table is a *slot
//!   vector* (id → position, 4 bytes per id ever made) over a *compact
//!   slab* of classes: a union moves the slab's last class into the
//!   loser's place, so the slab's size follows the live class count —
//!   a `Vec<Option<EClass>>` would pay a ~110-byte slot for every id a
//!   union retired. [`egraph::EGraph::class`] is a `find` and two array
//!   reads. The matcher writes its matches into one flat buffer and hands
//!   them to appliers through one reused [`pattern::Subst`]
//!   ([`pattern::MatchScratch`]); delta probes fill a scratch vector; the
//!   extractor keeps cost table, parent index, queue marks, tie-break
//!   ranks and readout memo in vectors indexed by class id
//!   ([`extract::ExtractScratch`]), the cost table holding node
//!   *positions*, not node clones. The node counter is maintained, not
//!   recounted (`check_op_index` recounts it).
//!
//!   [`egraph::EGraph::clear`] empties a graph for the next one. It
//!   **resets** everything a caller can observe — ids restart at 0, the
//!   epoch clock at 1, memo, index rows and worklists are
//!   empty — so a cleared graph is
//!   indistinguishable from a new one: same ids for the same `add`s, same
//!   match sequences, same epochs, index rows and delta probes, same
//!   snapshot bytes (pinned by
//!   `cleared_context_rebuilds_the_fresh_graph` in `tests/engine.rs`). It
//!   **keeps** capacity: the union-find, slot, slab and worklist
//!   vectors, the memo's and the op index's buckets. The classes
//!   themselves stay in the slab as *shells* past the live prefix, their
//!   two vectors (nodes, parents) emptied, and the next `add`s
//!   fill them again — the slab's dead tail is the free list; emptied
//!   index rows wait on a free list of their own. A shell
//!   or a free list keeps only small vectors (four elements; new ones
//!   start at one): they are handed to new owners in no particular order,
//!   so a hub's 300-entry parent list would otherwise end up under every
//!   class of a long-reused graph. The scratches need no clearing — every
//!   search and every solve resets what it reads.
//!
//!   Whole-graph scans ([`egraph::EGraph::classes`], the snapshot writer,
//!   the extractors' solve, variable-rooted searches) walk the slot vector,
//!   i.e. ascending canonical id — the order the hash-map version had to
//!   *sort into* before every such scan to be deterministic. The order is
//!   now a property of the layout rather than of each call site
//!   remembering to sort.
//!
//! * **Node size is what `add` pays.** A new node is stored 2 + arity
//!   times — its class's node list, the memo key, one `(node, id)` parent
//!   entry per child — and hashed and compared on every lookup, so
//!   `size_of::<L>()` and whatever `L::clone` allocates multiply through
//!   the saturation loop. Keep a language's nodes small and free of owned
//!   strings: `hardboiled`'s `HbLang` interns its names and boxes its one
//!   variable-arity child list, which took it from 48 to 24 bytes (a
//!   parent entry from 56 to 32) and, on the benchmark's largest graphs,
//!   0.72x the allocations of a saturation run and 0.82x the peak bytes.
//!
//! * **A cheap deterministic hasher.** The tables that are still hashed —
//!   the hash-cons memo (keyed by e-node) and the operator index (keyed
//!   by op key) — and [`language::Language::op_key`]
//!   itself hash with
//!   [`hash::WordHasher`], an unkeyed multiply-rotate word hash: the keys
//!   are e-nodes the program made itself, so SipHash's flooding
//!   resistance bought nothing on the `add` / memo hot paths.
//!   No behaviour depends on table iteration order (every enumeration is
//!   sorted first); being unkeyed only makes op keys and allocation
//!   counts repeat exactly from run to run.
//!
//! * **Operator index.** [`egraph::EGraph`] maintains `op_key → classes`
//!   rows ([`language::Language::op_key`] is a payload-aware discriminant;
//!   `matches_op(a, b)` implies equal keys). `add` appends strictly
//!   increasing fresh ids, unions mark the loser's ops dirty, and rebuild
//!   compacts exactly the dirty rows — so on a clean graph
//!   [`egraph::EGraph::candidates_for`] is a zero-cost borrow of a sorted,
//!   canonical row, and a pattern search enumerates only classes that can
//!   match its root operator.
//!
//! * **Incremental rebuild.** [`egraph::EGraph::rebuild`] re-canonicalizes
//!   only classes dirtied since the last rebuild (union winners and the
//!   classes holding parents of losers) instead of draining the entire
//!   class map.
//!
//! * **Modification epochs + delta search.** Every class carries one
//!   epoch, the last change that could affect matches rooted at it: an
//!   `add`, a union (the merged class's matches change through either
//!   side's nodes) or an analysis-data change stamps the class, and
//!   rebuild lifts the stamp to its transitive parents — the per-class
//!   change stamp egg's rebuild keeps. A delta probe of a pattern rooted
//!   at operator `k` is `k`'s index row filtered by epoch (every class,
//!   for a variable root; [`egraph::EGraph::modified_since`]), and
//!   [`schedule::Runner`] records a per-rule epoch, so a rule re-probes
//!   only classes changed since it last ran and a pass over a saturated
//!   graph costs almost nothing. One watermark — the epoch of the last
//!   class change — is the quiescence check.
//!   Probed vs skipped row counts land in `RunReport::delta_probed_rows` /
//!   `delta_skipped_rows`; their sum is the length of the probed index
//!   rows. (One
//!   epoch per `(class, operator)` with per-operator change logs probed
//!   7–9 % fewer rows on the benchmark pool and cost more allocations and
//!   bytes than it saved.) Soundness rests on every rule being pure
//!   ([`rewrite::Rewrite::rule`]) and is documented in [`schedule`].
//!
//! * **Semi-naive joins.** Queries with atoms rooted at fresh variables
//!   (a rule joining a fact node, not coverable by a single root probe)
//!   are delta-evaluated Datalog-style: a delta
//!   [`rewrite::CompiledQuery::search`] runs one join round per atom with
//!   that atom restricted to — and the join re-ordered to start from —
//!   the classes of its root operator's index row changed since the
//!   cutoff. A rule keeps *one* cutoff,
//!   the epoch it last searched at, for all of its atoms; on a graph no
//!   class of which changed since, every round is skipped, so these rules
//!   too cost nearly nothing at quiescence.
//!
//! * **One extraction solver.** [`extract::WorklistExtractor`] solves
//!   costs once at construction, by parent-propagation from the leaves up
//!   instead of repeated full passes to a fixpoint,
//!   then finalizes equal-cost ties by *content* (operator key + recursive
//!   child comparison — realized as per-class ranks assigned one cost level
//!   at a time, so a comparison is a few table reads) rather than by
//!   e-class id order — two
//!   graphs holding the same equivalences extract identical terms however
//!   their ids were assigned, which is what lets the selector's shared
//!   (batched) e-graph mode reproduce the per-leaf output byte for byte.
//!   Each root is then read out through a dense stamped memo. It is the
//!   only extractor, and compile sessions run it in every mode;
//!   [`extract::SharedTableExtractor`] is a name for it and
//!   [`extract::Extract`] a one-implementation trait, both kept only for
//!   the `benchmark/` package's staged path (see the [`extract`] module
//!   docs).
//!
//! ## Cancellation
//!
//! Runs are **cancellable**: a [`schedule::CancelToken`] attached to
//! the run's [`schedule::Budget`] is polled (one atomic load) at every
//! rule-search boundary — the same safe stopping points the deadline
//! uses — so an external holder aborts a run mid-saturation with the
//! graph left rebuilt and valid and `RunReport::cancelled` recording the
//! stop truthfully. The `hardboiled` compile service hangs its
//! dropped-ticket cancellation off exactly this hook.
//!
//! ## Snapshots and warm-started saturation
//!
//! [`egraph::EGraph::snapshot`] serializes a clean (rebuilt) graph's
//! content — the union-find parents and each class's id, nodes and
//! analysis data — into a versioned, checksummed, dependency-free byte
//! format ([`snapshot`]); [`egraph::EGraph::restore`]
//! rebuilds the graph from those bytes, rejecting truncated, corrupted or
//! version-bumped input with a typed [`snapshot::SnapshotError`] (never a
//! panic, so callers can fall back to a cold build). Design points:
//!
//! * **Only content is stored.** On a clean graph the memo, the parent
//!   lists and the operator index are functions of the class node lists
//!   (the rebuilding invariant), so restore derives them, and it cannot
//!   accept an index that disagrees with the nodes. No op key is written
//!   either: keys are hashes, stable within one binary but not across
//!   builds, and restore computes them from the nodes it reads.
//! * **Restored graphs are built before the clock started.** Every class
//!   is at epoch 0 and the clock is at 1. To
//!   warm-start a restored *saturated* graph, bump the epoch, encode the
//!   new material (hash-consing dedups everything already present), and
//!   pass the bumped epoch to [`schedule::Runner::run_in`] — every rule
//!   starts "as if it had just searched the old graph" and only the
//!   semi-naive delta for the new leaves is evaluated. Warm results are
//!   byte-identical to cold ones (same closure, same content-based
//!   extraction tie-breaks) while `RunReport::delta_probed_rows` shows
//!   strictly fewer probed rows; both are asserted by the snapshot
//!   round-trip proptests and the warm-vs-cold oracles downstream.
//!
//! ## Robustness design
//!
//! Saturation is **bounded** by more than the iteration/node caps: a
//! [`schedule::Budget`] carries an absolute wall-clock deadline and an
//! applied-match cap, enforced by the scheduler between rule searches
//! through an amortized clock (one real `Instant::now` read every 16
//! searches, plus one unamortized check per pass, bounding deadline
//! overshoot to a fraction of one pass). A budget stop
//! breaks out of the rule loop *before* the pass's probe-counter drain
//! and congruence rebuild, never instead of them — so a truncated run
//! always leaves the e-graph rebuilt and valid, and extraction proceeds
//! on the best-so-far graph. `RunReport::{deadline_hit, match_budget_hit,
//! node_limit_hit}` (summarized by [`schedule::RunReport::truncated`])
//! record which budget fired; a budget stop never claims saturation.
//! Budgets are deliberately *absolute* (`Instant`, not `Duration`) so one
//! deadline can span every per-leaf run of a single compile call — the
//! `hardboiled` session layer builds its degradation ladder
//! (`Saturated` → `Truncated` → `FallbackUnoptimized`) on exactly this
//! contract.
//!
//! The cargo feature `fault-injection` compiles the deterministic
//! `fault::FaultPlan` hooks (panic in the *n*th rule search, forced
//! budget stops at the *n*th iteration) the chaos suite uses to prove the
//! ladder holds under seeded faults; the hooks cost nothing when the
//! feature is off.
//!
//! The pre-overhaul naive matcher is kept
//! ([`pattern::Pattern::search`], [`rewrite::Query::search`],
//! `Runner::use_naive_matcher`) as the reference oracle, run on the query
//! each rule's compiled form decompiles to
//! ([`rewrite::CompiledQuery::decompile`]; a rule keeps no uncompiled
//! copy) — algorithmically unchanged (full class scans, string-keyed
//! binding, a fresh list of substitutions per pattern node), with one
//! amendment: class enumeration is sorted by id so equal-cost extraction
//! tie-breaks downstream are reproducible across runs. Equivalence tests
//! in `tests/engine.rs` assert identical match *sequences* on random
//! graphs and random queries of every shape, and identical saturation
//! outcomes, and
//! `crates/bench/tests/pool.rs` holds the compiled matcher to it on the
//! 161-leaf whole-program graph (sizes, root equivalences, extracted
//! terms).
//!
//! ## Example
//!
//! ```
//! use hb_egraph::egraph::EGraph;
//! use hb_egraph::extract::{AstSize, WorklistExtractor};
//! use hb_egraph::math_lang::{n, pdiv, pmul, pvar, Math};
//! use hb_egraph::rewrite::Rewrite;
//! use hb_egraph::schedule::{Budget, Runner};
//!
//! // Fig. 1: prove (a*2)/2 == a and extract the small form.
//! let mut eg = EGraph::<Math>::new();
//! let a = eg.add(Math::Sym("a".into()));
//! let two = eg.add(Math::Num(2));
//! let m = eg.add(Math::Mul([a, two]));
//! let d = eg.add(Math::Div([m, two]));
//! let rules = vec![
//!     Rewrite::rewrite(
//!         "assoc",
//!         pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
//!         pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
//!     ),
//!     Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
//!     Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
//! ];
//! Runner::default().run_to_fixpoint(&mut eg, &rules, Budget::none());
//! let best = WorklistExtractor::new(&eg, AstSize).extract(d);
//! assert_eq!(best.to_sexp(), "a");
//! ```

pub mod egraph;
pub mod extract;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod hash;
pub mod language;
pub mod math_lang;
pub mod pattern;
pub mod rewrite;
pub mod schedule;
pub mod snapshot;
pub mod unionfind;

pub use egraph::{Analysis, EClass, EGraph};
pub use extract::{
    AstSize, CostFunction, Extract, ExtractScratch, ExtractionStats, FnCost, SharedTableExtractor,
    WorklistExtractor,
};
#[cfg(feature = "fault-injection")]
pub use fault::{Fault, FaultPlan, InjectedStop};
pub use language::{Language, RecExpr};
pub use pattern::{MatchScratch, Pattern, Subst};
pub use rewrite::{Atom, CompiledQuery, Query, Rewrite};
pub use schedule::{Budget, CancelToken, RunReport, Runner};
pub use snapshot::{SnapshotAnalysis, SnapshotError, SnapshotNode, SnapshotReader, SnapshotWriter};
pub use unionfind::{Id, UnionFind};
