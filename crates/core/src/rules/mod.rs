//! HARDBOILED's rewrite rules, organized by the paper's four categories
//! (Appendix A):
//!
//! * [`axiomatic`] — lane-algebra identities making pattern matching robust
//!   to Halide's simplifier (Fig. 10c),
//! * [`app_specific`] — tile-discovery rules for MatMul layouts and
//!   convolution-like patterns (Fig. 10b, Appendix B),
//! * [`lowering`] — rules emitting accelerator intrinsics (Fig. 10a),
//! * [`supporting`] — the type computation (Fig. 10d): one rule,
//!   `multiply-lanes`, which [`RuleSet::for_profile`] appends last to the
//!   one list a session saturates with (§III-D2, in one loop).
//!
//! Each rule shape is written once. The five rules that emit a tensor
//! intrinsic — `wmma-{matmul,conv1d,downsample,upsample}` and `amx-matmul`
//! — build their queries from one multiply-accumulate query,
//! `mac_query`, adding their operand atoms with `.also(…)`; the three
//! convolution-like ones come from one builder whose kind (Conv,
//! Downsample, Upsample) picks what differs, and the three tile stores from
//! one table. A rule's name, its place in the pass order, its query atoms
//! and the order its applier creates nodes in are what the engine's
//! counts depend on; `crates/bench/tests/pool.rs` pins each rule's work,
//! and fails on a rule that applies no match on either of its ledger graphs
//! (but for two kept on purpose, named there).
//!
//! A fact one rule states for another is an e-node, so a fact no rule reads
//! is pure write cost: the only ones are the AMX tile facts
//! [`HbLang::AmxATile`] / [`HbLang::AmxBTile`], added by the app-specific
//! rules and joined by `amx-matmul` (`crates/bench/tests/pool.rs` checks
//! that every fact the pool holds is read).

pub mod app_specific;
pub mod axiomatic;
pub mod lowering;
pub mod supporting;

use std::sync::atomic::{AtomicUsize, Ordering};

use hb_accel::target::RuleProfile;
use hb_egraph::pattern::{Pattern, Subst};
use hb_egraph::rewrite::{ApplyFn, Query, Rewrite};
use hb_egraph::unionfind::Id;
use hb_ir::types::ScalarType;

use crate::encode::{padd, pcast, pmul, pty, pv, pvra};
use crate::lang::{const_int, HbAnalysis, HbGraph, HbLang, Symbol};

/// The rewrite type all rule sets share.
pub type Rw = Rewrite<HbLang, HbAnalysis>;

/// What a rule runs on each match.
type Applier = ApplyFn<HbLang, HbAnalysis>;

/// Integer constant of the class bound to `var`, if known.
#[must_use]
pub fn ci(eg: &HbGraph, s: &Subst, var: &str) -> Option<i64> {
    s.get(var).and_then(|id| const_int(eg, id))
}

/// All integer constants bound to the listed variables, or `None` if any is
/// unknown.
#[must_use]
pub fn cis<const N: usize>(eg: &HbGraph, s: &Subst, vars: [&str; N]) -> Option<[i64; N]> {
    let mut out = [0i64; N];
    for (slot, var) in out.iter_mut().zip(vars) {
        *slot = ci(eg, s, var)?;
    }
    Some(out)
}

/// Adds a `Num` node.
pub fn num(eg: &mut HbGraph, v: i64) -> Id {
    eg.add(HbLang::Num(v))
}

/// Adds a `Ty` node.
pub fn ty(eg: &mut HbGraph, st: ScalarType, lanes: i64) -> Id {
    let l = num(eg, lanes);
    eg.add(HbLang::Ty(st, [l]))
}

/// The multiply-accumulate every tensor-intrinsic selection rule starts
/// from (Fig. 10a/b): `e = (Add C (VectorReduceAdd mn (Mul (Cast f32×mnk A)
/// (Cast f32×mnk2 B))))`.
pub(crate) fn mac_query() -> Query<HbLang> {
    let widen = |lanes, operand| pcast(pty(ScalarType::F32, pv(lanes)), pv(operand));
    let product = pmul(widen("mnk", "A"), widen("mnk2", "B"));
    Query::single("e", padd(pv("C"), pvra(pv("mn"), product)))
}

/// The intrinsic names the appliers emit, interned once per rule-set build
/// and captured by value, so applying a rule builds its call nodes without
/// looking a name up.
#[derive(Clone, Copy)]
pub(crate) struct Intrinsics {
    pub tile_load: Symbol,
    pub tile_store: Symbol,
    pub tile_zero: Symbol,
    pub tile_matmul: Symbol,
    pub kway_interleave: Symbol,
    pub wmma_load_a: Symbol,
    pub wmma_load_b: Symbol,
    pub wmma_mma: Symbol,
    pub wmma_mma_cols: Symbol,
    pub wmma_store: Symbol,
    pub convolution_shuffle: Symbol,
    pub upsample_shuffle: Symbol,
}

impl Intrinsics {
    pub(crate) fn intern() -> Self {
        Intrinsics {
            tile_load: "tile_load".into(),
            tile_store: "tile_store".into(),
            tile_zero: "tile_zero".into(),
            tile_matmul: "tile_matmul".into(),
            kway_interleave: "kway_interleave".into(),
            wmma_load_a: "wmma_load_a".into(),
            wmma_load_b: "wmma_load_b".into(),
            wmma_mma: "wmma_mma".into(),
            wmma_mma_cols: "wmma_mma_cols".into(),
            wmma_store: "wmma_store".into(),
            convolution_shuffle: "convolution_shuffle".into(),
            upsample_shuffle: "upsample_shuffle".into(),
        }
    }
}

/// The complete main rule set (axiomatic + app-specific + lowering).
#[must_use]
pub fn main_rules() -> Vec<Rw> {
    RuleList::all(add_main)
}

/// Adds the main rules `out` keeps, in pass order.
fn add_main(out: &mut RuleList) {
    axiomatic::add(out);
    app_specific::add(out);
    lowering::add(out);
}

/// The rules one build constructs. A rule is stated by name first, and one
/// whose name mentions a dropped family is never constructed, so its query
/// is never compiled.
pub(crate) struct RuleList {
    /// The accelerator families (lowercase) whose rules are dropped.
    dropped: &'static [&'static str],
    rules: Vec<Rw>,
}

#[cfg(test)]
thread_local! {
    /// Rules constructed on this thread: what a build paid for.
    static CONSTRUCTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// The query of every rule constructed on this thread, as it was
    /// stated, for the decompile round trip.
    static STATED: std::cell::RefCell<Vec<Query<HbLang>>> = const {
        std::cell::RefCell::new(Vec::new())
    };
}

impl RuleList {
    /// Every rule `add` states, none dropped.
    fn all(add: fn(&mut RuleList)) -> Vec<Rw> {
        let mut out = RuleList {
            dropped: &[],
            rules: Vec::new(),
        };
        add(&mut out);
        out.rules
    }

    /// Constructs the rule `build` makes, unless `name` is dropped.
    fn push(&mut self, name: &str, build: impl FnOnce() -> Rw) {
        if self.dropped.iter().any(|family| names_family(name, family)) {
            return;
        }
        #[cfg(test)]
        CONSTRUCTED.with(|n| n.set(n.get() + 1));
        self.rules.push(build());
    }

    /// States a rule: `query` joined, then `applier` run on each match.
    pub(crate) fn rule(&mut self, name: &str, query: Query<HbLang>, applier: Applier) {
        self.push(name, || {
            #[cfg(test)]
            STATED.with_borrow_mut(|stated| stated.push(query.clone()));
            Rw::rule(name, query, applier)
        });
    }

    /// States a plain rewrite `lhs => rhs`.
    pub(crate) fn rewrite(&mut self, name: &str, lhs: Pattern<HbLang>, rhs: Pattern<HbLang>) {
        self.push(name, || {
            #[cfg(test)]
            STATED.with_borrow_mut(|stated| stated.push(Query::single("$root", lhs.clone())));
            Rw::rewrite(name, lhs, rhs)
        });
    }
}

/// Number of [`RuleSet`] constructions performed by this process. Rule
/// construction compiles dozens of queries, so the `Session` builds rule
/// sets lazily (once per session, and only when a program actually has
/// selection leaves); this counter lets tests assert that leaf-free
/// compilations do zero rule-compile work.
static RULE_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// How many times a [`RuleSet`] has been built in this process.
#[must_use]
pub fn rule_build_count() -> usize {
    RULE_BUILDS.load(Ordering::SeqCst)
}

/// The rule list a session saturates with, built — and its queries
/// compiled — once and shared across every leaf statement of a `Session`
/// (and of every `compile` it runs). Rule construction compiles a few
/// dozen queries; doing it per leaf used to dominate small-statement
/// selection.
///
/// A session keeps its set for as long as it lives, so its size is part of
/// every session's resident bytes. Each rule holds its query once,
/// compiled (the naive reference path decompiles it): a build keeps
/// 30 101 bytes live for [`RuleProfile::All`], 17 364 for
/// [`RuleProfile::Amx`], 19 082 for [`RuleProfile::Wmma`] and 6 345 for
/// [`RuleProfile::None`], names already interned. `tests/rule_bytes.rs`
/// gates each profile at its reading plus 10 %.
pub struct RuleSet {
    /// Every rule, in pass order: axiomatic + app-specific + lowering,
    /// then the supporting rule last.
    pub main: Vec<Rw>,
    /// Always empty: the supporting rule runs last in [`RuleSet::main`].
    /// Kept only because `benchmark/` names it; goes with ROADMAP 2(iii).
    pub support: Vec<Rw>,
}

impl RuleSet {
    /// Builds (and compiles) the complete rule list.
    #[must_use]
    pub fn build() -> Self {
        Self::for_profile(RuleProfile::All)
    }

    /// Builds the rule list for one target's [`RuleProfile`]: the
    /// accelerator families the target cannot lower are dropped by rule
    /// name before they are constructed (no query of theirs is compiled),
    /// in any case (`amx-*` / `wmma-*` across the app-specific and
    /// lowering sets, and the axiomatic `bcast-through-*` rules named
    /// after a movement such as `AMX2Mem`), so an AMX-only session never
    /// saturates with WMMA rules and vice versa. The other axiomatic rules
    /// and the supporting rule are target-neutral and always included,
    /// the supporting rule appended last, after the filtering.
    #[must_use]
    pub fn for_profile(profile: RuleProfile) -> Self {
        RULE_BUILDS.fetch_add(1, Ordering::SeqCst);
        let mut out = RuleList {
            dropped: match profile {
                RuleProfile::All => &[],
                RuleProfile::Amx => &["wmma"],
                RuleProfile::Wmma => &["amx"],
                RuleProfile::None => &["wmma", "amx"],
            },
            rules: Vec::new(),
        };
        add_main(&mut out);
        supporting::add(&mut out);
        // Held for the session's lifetime: no spare capacity.
        out.rules.shrink_to_fit();
        RuleSet {
            main: out.rules,
            support: Vec::new(),
        }
    }
}

/// Whether a rule name mentions accelerator family `family` (lowercase),
/// in any case.
fn names_family(name: &str, family: &str) -> bool {
    name.to_ascii_lowercase().contains(family)
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_keep_the_family_prefix_convention() {
        // Profile filtering is name-based: a rule belongs to the AMX
        // family iff its name mentions "amx" in any case, to WMMA iff it
        // mentions "wmma". A name mentioning BOTH (e.g. a hypothetical
        // "amx-to-wmma-copy") would silently vanish from *both*
        // single-target profiles, so this test makes that situation loud:
        // give such a rule a neutral name or extend `for_profile` with an
        // explicit family tag first.
        for r in main_rules() {
            assert!(
                !(names_family(&r.name, "amx") && names_family(&r.name, "wmma")),
                "rule {:?} names both families; profile filtering would drop it everywhere",
                r.name
            );
        }
    }

    #[test]
    fn profiles_keep_no_rule_of_a_dropped_family() {
        for (profile, dropped) in [
            (RuleProfile::Amx, &["wmma"][..]),
            (RuleProfile::Wmma, &["amx"][..]),
            (RuleProfile::None, &["amx", "wmma"][..]),
        ] {
            let set = RuleSet::for_profile(profile);
            for r in &set.main {
                let upper = r.name.to_ascii_uppercase();
                for family in dropped {
                    assert!(
                        !upper.contains(&family.to_ascii_uppercase()),
                        "{profile:?} keeps {:?}, a rule of the dropped {family} family",
                        r.name
                    );
                }
            }
        }
    }

    // Each profile's rule names in pass order. Filtering goes by name and
    // the pass order fixes every count the engine reports, so a rule that
    // is renamed, dropped or moved fails here by name.
    #[rustfmt::skip]
    const ALL: &[&str] = &[
        "bcast-flatten", "bcast-into-load", "bcast-into-cast", "ramp-bcast-absorb", "add-comm",
        "mul-comm", "add-zero", "bcast-nest-sibling-add", "ramp-split-2", "bcast-through-AMX2Mem",
        "ramp-merge", "amx-a-standard", "amx-a-preloaded", "amx-b-standard", "amx-b-vnni",
        "amx-b-vnni-preloaded", "wmma-matmul", "wmma-conv1d", "wmma-downsample", "wmma-upsample",
        "amx-matmul", "cancel-mem-amx", "cancel-mem-wmma", "amx-tile-zero", "wmma-tile-zero",
        "amx-reg-load", "amx-tile-store", "wmma-tile-store", "wmma-tile-store-flat",
        "multiply-lanes",
    ];
    #[rustfmt::skip]
    const AMX: &[&str] = &[
        "bcast-flatten", "bcast-into-load", "bcast-into-cast", "ramp-bcast-absorb", "add-comm",
        "mul-comm", "add-zero", "bcast-nest-sibling-add", "ramp-split-2", "bcast-through-AMX2Mem",
        "ramp-merge", "amx-a-standard", "amx-a-preloaded", "amx-b-standard", "amx-b-vnni",
        "amx-b-vnni-preloaded", "amx-matmul", "cancel-mem-amx", "amx-tile-zero", "amx-reg-load",
        "amx-tile-store", "multiply-lanes",
    ];
    #[rustfmt::skip]
    const WMMA: &[&str] = &[
        "bcast-flatten", "bcast-into-load", "bcast-into-cast", "ramp-bcast-absorb", "add-comm",
        "mul-comm", "add-zero", "bcast-nest-sibling-add", "ramp-split-2", "ramp-merge",
        "wmma-matmul", "wmma-conv1d", "wmma-downsample", "wmma-upsample", "cancel-mem-wmma",
        "wmma-tile-zero", "wmma-tile-store", "wmma-tile-store-flat", "multiply-lanes",
    ];
    #[rustfmt::skip]
    const NONE: &[&str] = &[
        "bcast-flatten", "bcast-into-load", "bcast-into-cast", "ramp-bcast-absorb", "add-comm",
        "mul-comm", "add-zero", "bcast-nest-sibling-add", "ramp-split-2", "ramp-merge",
        "multiply-lanes",
    ];

    #[test]
    fn a_profile_constructs_only_the_rules_it_keeps() {
        for profile in PROFILES {
            let before = CONSTRUCTED.with(std::cell::Cell::get);
            let set = RuleSet::for_profile(profile);
            let built = CONSTRUCTED.with(std::cell::Cell::get) - before;
            assert_eq!(
                built,
                set.main.len(),
                "{profile:?}: rules built to be dropped"
            );
        }
    }

    const PROFILES: [RuleProfile; 4] = [
        RuleProfile::All,
        RuleProfile::Amx,
        RuleProfile::Wmma,
        RuleProfile::None,
    ];

    #[test]
    fn every_rule_decompiles_to_the_query_it_was_stated_with() {
        // The naive reference path runs the decompiled query, so the
        // matcher oracles test the stated rules only if this holds.
        for profile in PROFILES {
            STATED.take();
            let set = RuleSet::for_profile(profile);
            let stated = STATED.take();
            assert_eq!(stated.len(), set.main.len(), "{profile:?}");
            for (rule, query) in set.main.iter().zip(&stated) {
                assert!(
                    rule.compiled.decompile() == *query,
                    "{profile:?}: {} does not decompile to its query",
                    rule.name
                );
            }
        }
    }

    #[test]
    fn profiles_partition_the_main_rules() {
        let names = |profile| -> Vec<String> {
            let set = RuleSet::for_profile(profile);
            set.main.iter().map(|r| r.name.clone()).collect()
        };
        for (profile, want) in [
            (RuleProfile::All, ALL),
            (RuleProfile::Amx, AMX),
            (RuleProfile::Wmma, WMMA),
            (RuleProfile::None, NONE),
        ] {
            assert_eq!(
                names(profile),
                want,
                "{profile:?}: rule names or order moved"
            );
        }
        let [all, amx, wmma, none] = [ALL, AMX, WMMA, NONE].map(<[&str]>::len);
        assert!(amx < all && wmma < all, "{amx}/{wmma}/{all}");
        // Neutral rules (axiomatic + shared app rules) appear in every
        // profile; family rules in exactly one.
        assert_eq!(amx + wmma, all + none, "family rules must partition");
        assert_eq!(
            [all, amx, wmma, none],
            [30, 22, 19, 11],
            "main rule counts moved"
        );
        assert_eq!(supporting::rules().len(), 1);
        for profile in PROFILES {
            let set = RuleSet::for_profile(profile);
            let last = set.main.last().map(|r| r.name.as_str());
            assert_eq!(last, Some("multiply-lanes"), "{profile:?}");
            assert!(set.support.is_empty(), "{profile:?}");
        }
    }
}
