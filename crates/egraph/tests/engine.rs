//! Engine-internal invariants:
//!
//! * the operator index stays exactly consistent with a from-scratch
//!   recomputation under randomized `add`/`union`/`rebuild` sequences;
//! * the compiled/indexed matcher returns the same `(Id, Subst)` sets as
//!   the retained naive reference matcher, on random graphs and across
//!   full saturation of the `math_lang` rule suite;
//! * saturation with the indexed + delta scheduler reaches the same
//!   e-graph (nodes, classes, equivalences) and extracts the same terms as
//!   the naive matcher path;
//! * op-keyed delta probes skip classes whose probed-operator rows were
//!   untouched (counter-based), and modification-log compaction is
//!   deterministic and exact;
//! * on random graphs and random queries of every shape the backtracking
//!   matcher emits the naive reference's match *sequence* and its delta
//!   search covers every match created since the cutoffs — also on index
//!   rows of well over a hundred roots;
//! * a graph, matcher scratch and extraction scratch that served one graph
//!   and were cleared rebuild another exactly as fresh ones do: same ids,
//!   same saturation report, same match sequences, same extraction, same
//!   snapshot bytes.

use proptest::prelude::*;

use hb_egraph::egraph::EGraph;
use hb_egraph::extract::{AstSize, Extract, WorklistExtractor};
use hb_egraph::language::Language;
use hb_egraph::math_lang::{n, padd, pdiv, pmul, pshl, pvar, Math};
use hb_egraph::pattern::{MatchScratch, Pattern, Subst};
use hb_egraph::rewrite::{Query, Rewrite};
use hb_egraph::schedule::{Budget, Runner};
use hb_egraph::unionfind::Id;

type EG = EGraph<Math, ()>;

/// One step of a randomized e-graph workout: `(op_selector, x, y)` with the
/// payload operands interpreted modulo the live id count.
type Step = (u8, u32, u32);

/// Applies a step sequence to an existing graph, extending `ids`.
fn apply_steps(eg: &mut EG, ids: &mut Vec<Id>, steps: &[Step]) {
    for &(op, x, y) in steps {
        let pick = |v: u32| ids[v as usize % ids.len()];
        match op % 6 {
            0 => ids.push(eg.add(Math::Num(i64::from(x % 8)))),
            1 => ids.push(eg.add(Math::Mul([pick(x), pick(y)]))),
            2 => ids.push(eg.add(Math::Add([pick(x), pick(y)]))),
            3 => ids.push(eg.add(Math::Div([pick(x), pick(y)]))),
            4 => {
                eg.union(pick(x), pick(y));
            }
            _ => eg.rebuild(),
        }
    }
    eg.rebuild();
}

/// Replays a step sequence into an empty graph, returning the ids it
/// created.
fn replay_into(eg: &mut EG, steps: &[Step]) -> Vec<Id> {
    assert!(eg.is_empty());
    let mut ids: Vec<Id> = Vec::new();
    // Seed a few leaves so binary ops always have operands.
    for s in ["a", "b", "c"] {
        ids.push(eg.add(Math::Sym(s.into())));
    }
    apply_steps(eg, &mut ids, steps);
    ids
}

/// Replays a step sequence, returning the graph and the ids it created.
fn replay(steps: &[Step]) -> (EG, Vec<Id>) {
    let mut eg = EG::new();
    let ids = replay_into(&mut eg, steps);
    (eg, ids)
}

/// The Fig. 1 rule suite plus a strength-reduction rule, exercising
/// literal payloads and multi-level patterns. (No commutativity — paired
/// with `assoc` it would mint fresh divisions forever and never saturate.)
fn math_rules() -> Vec<Rewrite<Math>> {
    vec![
        Rewrite::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        ),
        Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
        Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
        Rewrite::rewrite("mul-two-shl", pmul(pvar("a"), n(2)), pshl(pvar("a"), n(1))),
    ]
}

/// Patterns from the rule suite's left-hand sides (plus a bare variable),
/// used to cross-check the two matchers directly.
fn probe_patterns() -> Vec<Pattern<Math>> {
    vec![
        pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
        pmul(pvar("a"), pvar("b")),
        pmul(pvar("a"), pvar("a")),
        pdiv(n(2), n(2)),
        pmul(pvar("a"), n(1)),
        pmul(pvar("a"), n(2)),
        pvar("e"),
    ]
}

/// Asserts two match lists are equal as sets of `(root, subst)`.
fn assert_same_matches(naive: &[(Id, Subst)], indexed: &[(Id, Subst)], ctx: &str) {
    assert_eq!(naive.len(), indexed.len(), "{ctx}: match count differs");
    for m in naive {
        assert!(indexed.contains(m), "{ctx}: indexed matcher missed {m:?}");
    }
    for m in indexed {
        assert!(naive.contains(m), "{ctx}: indexed matcher invented {m:?}");
    }
}

/// Cross-checks the compiled matcher on one pattern: a full search of its
/// single-atom query (root bound to `$root`) emits `Query::search`'s
/// sequence and `Pattern::search`'s match set.
fn assert_pattern_matchers_agree(eg: &EG, pat: &Pattern<Math>) {
    let query = Query::single("$root", pat.clone());
    let compiled = query.compile().search(eg, None, &mut MatchScratch::new());
    assert_eq!(
        compiled,
        query.search(eg),
        "{pat:?}: compiled vs naive query"
    );
    let naive: Vec<(Id, Subst)> = pat
        .search(eg)
        .into_iter()
        .map(|(root, mut s)| {
            assert!(s.bind("$root", root));
            (root, s)
        })
        .collect();
    let indexed: Vec<(Id, Subst)> = compiled
        .into_iter()
        .map(|s| (s.get("$root").expect("root bound"), s))
        .collect();
    assert_same_matches(&naive, &indexed, &format!("{pat:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn op_index_consistent_under_random_workouts(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 80),
    ) {
        let (eg, _) = replay(&steps);
        // check_op_index panics if the maintained index differs anywhere
        // from a from-scratch recomputation over the class table;
        // check_op_epochs pins the op-keyed row invariants (row keys ==
        // node operators, class epoch == max row, rows log-covered).
        eg.check_op_index();
        eg.check_op_epochs();
    }

    #[test]
    fn indexed_matcher_equals_naive_on_random_graphs(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
    ) {
        let (eg, _) = replay(&steps);
        for pat in probe_patterns() {
            assert_pattern_matchers_agree(&eg, &pat);
        }
    }

    #[test]
    fn saturation_agrees_between_matchers(
        steps in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 40),
    ) {
        // Saturate two copies of the same graph — the indexed + delta
        // scheduler and the naive matcher — and compare the resulting
        // e-graphs and extracted terms.
        let (mut fast, ids) = replay(&steps);
        let mut naive = fast.clone();
        let runner = Runner::new(16, 20_000);
        let rules = math_rules();
        let r1 = runner.run_to_fixpoint(&mut fast, &rules, Budget::none());
        let r2 = runner
            .with_naive_matcher(true)
            .run_to_fixpoint(&mut naive, &rules, Budget::none());
        prop_assert_eq!(r1.saturated, r2.saturated);
        prop_assert_eq!(r1.nodes, r2.nodes, "node counts diverged");
        prop_assert_eq!(r1.classes, r2.classes, "class counts diverged");
        fast.check_op_epochs();
        // Same equivalences between all tracked ids.
        for &x in &ids {
            for &y in &ids {
                prop_assert_eq!(
                    fast.find(x) == fast.find(y),
                    naive.find(x) == naive.find(y),
                    "equivalence of {} and {} diverged", x, y
                );
            }
        }
        // Same extraction costs from every root, and each fast-path
        // extraction must be a member of the naive path's equivalent class
        // (ids are numbered differently between runs, so equal-cost ties
        // can break toward different — equally minimal — representatives).
        let fast_results: Vec<_> = {
            let ex = WorklistExtractor::new(&fast, AstSize);
            ids.iter()
                .map(|&x| ex.cost_of(x).map(|c| (c, ex.extract(x))))
                .collect()
        };
        let naive_costs: Vec<_> = {
            let ex = WorklistExtractor::new(&naive, AstSize);
            ids.iter().map(|&x| ex.cost_of(x)).collect()
        };
        for ((&x, fast_result), naive_cost) in
            ids.iter().zip(&fast_results).zip(&naive_costs)
        {
            prop_assert_eq!(fast_result.as_ref().map(|(c, _)| *c), *naive_cost);
            if let Some((_, term)) = fast_result {
                let reimported = naive.add_recexpr(term);
                naive.rebuild();
                prop_assert_eq!(
                    naive.find(reimported),
                    naive.find(x),
                    "fast extraction {} is not in naive's class of {}",
                    term.to_sexp(),
                    x
                );
            }
        }
    }
}

#[test]
fn matchers_agree_after_full_math_saturation() {
    // Deterministic end-to-end: saturate Fig. 1, then cross-check every
    // probe pattern's match set on the saturated graph.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let d = eg.add(Math::Div([m, two]));
    let report = Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &math_rules(), Budget::none());
    assert!(report.saturated);
    assert_eq!(eg.find(d), eg.find(a));
    for pat in probe_patterns() {
        assert_pattern_matchers_agree(&eg, &pat);
    }
    eg.check_op_index();
}

/// Queries exercising every non-delta-eligible shape: pattern⋈relation,
/// relation-only, fresh-variable pattern atoms, relation-extended bindings.
fn relation_queries() -> Vec<Query<Math>> {
    vec![
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
        Query { atoms: vec![] }.with_relation("pair", &["x", "y"]),
        Query::single("e", padd(pvar("x"), pvar("y"))).also("q", pmul(pvar("p"), pvar("p2"))),
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("pair", &["y", "z"]),
    ]
}

/// Random tuple insertions into the `good` (unary) and `pair` (binary)
/// relations, operands modulo the live id count.
fn insert_tuples(eg: &mut EG, ids: &[Id], tuples: &[(u8, u32, u32)]) {
    for &(which, x, y) in tuples {
        let pick = |v: u32| ids[v as usize % ids.len()];
        if which % 2 == 0 {
            eg.insert_tuple("good", &[pick(x)]);
        } else {
            eg.insert_tuple("pair", &[pick(x), pick(y)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Semi-naive delta evaluation must be sound (no invented matches) and
    // complete (every match that appeared after the cutoffs is reported)
    // for relation-atom queries, under randomized graph workouts and
    // tuple insertions on both sides of the cutoff.
    #[test]
    fn semi_naive_delta_covers_new_matches(
        steps1 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 40),
        tuples1 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        steps2 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 25),
        tuples2 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
    ) {
        let (mut eg, mut ids) = replay(&steps1);
        insert_tuples(&mut eg, &ids, &tuples1);
        eg.rebuild();
        let queries = relation_queries();
        let compiled: Vec<_> = queries.iter().map(Query::compile).collect();
        for c in &compiled {
            prop_assert!(!c.delta_eligible(), "these queries must need semi-naive");
        }
        let before: Vec<Vec<Subst>> = compiled.iter().map(|c| c.search(&eg, None, &mut MatchScratch::new())).collect();
        let cutoff = eg.bump_epoch();

        apply_steps(&mut eg, &mut ids, &steps2);
        insert_tuples(&mut eg, &ids, &tuples2);
        eg.rebuild();

        let mut scratch = MatchScratch::new();
        for ((query, c), before) in queries.iter().zip(&compiled).zip(&before) {
            let full = c.search(&eg, None, &mut scratch);
            let naive = query.search(&eg);
            assert_same_matches(
                &full.iter().map(|s| (Id(0), s.clone())).collect::<Vec<_>>(),
                &naive.iter().map(|s| (Id(0), s.clone())).collect::<Vec<_>>(),
                "full vs naive",
            );
            let delta = c.search(&eg, Some(cutoff), &mut scratch);
            for m in &delta {
                prop_assert!(full.contains(m), "delta invented {m:?}");
            }
            for m in &full {
                if !before.contains(m) {
                    prop_assert!(
                        delta.contains(m),
                        "semi-naive missed the new match {m:?}"
                    );
                }
            }
        }
        eg.check_op_epochs();
    }
}

/// Variables pattern leaves draw from — few, so nonlinear repeats and
/// variables shared between atoms are the common case.
const PAT_VARS: [&str; 4] = ["x", "y", "z", "e"];
/// Variables atoms are rooted at: fresh roots (`f`), roots an earlier
/// pattern bound (`x`, `y`), and roots the atom's own pattern mentions.
const ROOT_VARS: [&str; 4] = ["e", "f", "x", "y"];

/// Decodes a pattern of at most `depth` operator levels from a gene
/// stream: variables, literals and binary operators.
fn gen_pattern(genes: &mut impl Iterator<Item = u32>, depth: u32) -> Pattern<Math> {
    let g = genes.next().unwrap_or(0);
    let pick = (g / 8) as usize;
    match g % 8 {
        0..=2 => pvar(PAT_VARS[pick % 4]),
        3 => n((pick % 3) as i64 + 1),
        _ if depth == 0 => pvar(PAT_VARS[pick % 4]),
        _ => {
            let lhs = gen_pattern(genes, depth - 1);
            let rhs = gen_pattern(genes, depth - 1);
            match pick % 3 {
                0 => pmul(lhs, rhs),
                1 => padd(lhs, rhs),
                _ => pdiv(lhs, rhs),
            }
        }
    }
}

/// Decodes a query of one to `max_atoms` atoms from a gene stream. Every
/// shape the matcher distinguishes comes up: operator- and variable-rooted
/// patterns, nonlinear variables, later atoms rooted at bound and at fresh
/// variables, and relation atoms (unary and binary, possibly nonlinear) in
/// any position — including first.
fn gen_query(genes: &[u32], max_atoms: u32) -> Query<Math> {
    let mut genes = genes.iter().copied();
    let atoms = 1 + genes.next().unwrap_or(0) % max_atoms;
    let mut query = Query { atoms: vec![] };
    for _ in 0..atoms {
        let g = genes.next().unwrap_or(0) as usize;
        let root = ROOT_VARS[(g / 8) % 4];
        query = match g % 8 {
            0 => query.with_relation("good", &[root]),
            1 => query.with_relation("pair", &[root, PAT_VARS[(g / 32) % 4]]),
            2 => query.also(root, pvar(PAT_VARS[(g / 32) % 4])),
            _ => query.also(root, gen_pattern(&mut genes, 2)),
        };
    }
    query
}

/// Asserts `delta` is sound (⊆ `full`) and complete (⊇ `full` − `before`).
fn assert_delta_covers(before: &[Subst], full: &[Subst], delta: &[Subst], ctx: &str) {
    // `Subst` equality is by bound pairs; key by them once instead of
    // comparing every pair of matches.
    let key = |m: &Subst| {
        let mut pairs: Vec<(String, Id)> = m.iter().map(|(v, &id)| (v.clone(), id)).collect();
        pairs.sort();
        pairs
    };
    let keys = |ms: &[Subst]| ms.iter().map(key).collect::<std::collections::HashSet<_>>();
    let (before, full_keys, delta_keys) = (keys(before), keys(full), keys(delta));
    for m in delta {
        assert!(full_keys.contains(&key(m)), "{ctx}: delta invented {m:?}");
    }
    for m in full {
        let k = key(m);
        assert!(
            before.contains(&k) || delta_keys.contains(&k),
            "{ctx}: delta missed the new match {m:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Full searches: not just the same match set — the same *sequence* as
    // the naive nested loops (pre-order depth-first search is their
    // lexicographic order), which is what keeps rule application order,
    // and with it every id and tie-break downstream, matcher-independent.
    #[test]
    fn matcher_emits_the_naive_sequence_on_random_queries(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 40),
        tuples in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 8),
        genes in proptest::collection::vec(proptest::collection::vec(0u32..256, 24), 6),
    ) {
        let (mut eg, ids) = replay(&steps);
        insert_tuples(&mut eg, &ids, &tuples);
        eg.rebuild();
        let mut scratch = MatchScratch::new();
        for g in &genes {
            let query = gen_query(g, 3);
            let naive = query.search(&eg);
            // One scratch across queries of different widths, as the
            // scheduler holds it.
            let compiled = query.compile().search(&eg, None, &mut scratch);
            prop_assert_eq!(&naive, &compiled, "genes {:?}", g);
        }
    }

    // Delta searches, single-root and semi-naive alike, report every match
    // that appeared after the cutoffs.
    #[test]
    fn delta_search_covers_new_matches_on_random_queries(
        steps1 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 40),
        tuples1 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        steps2 in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 25),
        tuples2 in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        genes in proptest::collection::vec(proptest::collection::vec(0u32..256, 24), 6),
    ) {
        let (mut eg, mut ids) = replay(&steps1);
        insert_tuples(&mut eg, &ids, &tuples1);
        eg.rebuild();
        let compiled: Vec<_> = genes.iter().map(|g| gen_query(g, 3).compile()).collect();
        let before: Vec<Vec<Subst>> = compiled.iter().map(|c| c.search(&eg, None, &mut MatchScratch::new())).collect();
        let cutoff = eg.bump_epoch();

        apply_steps(&mut eg, &mut ids, &steps2);
        insert_tuples(&mut eg, &ids, &tuples2);
        eg.rebuild();

        let mut scratch = MatchScratch::new();
        for ((c, before), g) in compiled.iter().zip(&before).zip(&genes) {
            let full = c.search(&eg, None, &mut scratch);
            let delta = c.search(&eg, Some(cutoff), &mut scratch);
            assert_delta_covers(before, &full, &delta, &format!("genes {g:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Wide index rows: two generations of 70 products put well over a
    // hundred roots in the Mul row (and in every variable-rooted
    // enumeration). The compiled full search still emits the naive
    // sequence, the delta search is sound and complete across the
    // generations, and a second run of both — in the scratch the first
    // left behind — repeats the matches and the probe counters exactly.
    #[test]
    fn wide_rows_search_like_the_naive_matcher(
        steps1 in proptest::collection::vec((0u8..6, 0u32..256, 0u32..256), 30),
        steps2 in proptest::collection::vec((0u8..6, 0u32..256, 0u32..256), 30),
        tuples in proptest::collection::vec((0u8..2, 0u32..256, 0u32..256), 12),
        genes in proptest::collection::vec(proptest::collection::vec(0u32..256, 16), 4),
    ) {
        let mut eg = EG::new();
        let mut ids = vec![eg.add(Math::Sym("a".into()))];
        let widen = |eg: &mut EG, ids: &mut Vec<Id>, generation: &str| {
            for i in 0..70 {
                let s = eg.add(Math::Sym(format!("{generation}{i}")));
                ids.push(eg.add(Math::Mul([ids[0], s])));
            }
        };
        widen(&mut eg, &mut ids, "old");
        apply_steps(&mut eg, &mut ids, &steps1);
        insert_tuples(&mut eg, &ids, &tuples[..6]);
        eg.rebuild();
        let queries: Vec<_> = genes.iter().map(|g| gen_query(g, 2)).collect();
        let compiled: Vec<_> = queries.iter().map(Query::compile).collect();
        let before: Vec<Vec<Subst>> = compiled.iter().map(|c| c.search(&eg, None, &mut MatchScratch::new())).collect();
        let cutoff = eg.bump_epoch();
        widen(&mut eg, &mut ids, "new");
        apply_steps(&mut eg, &mut ids, &steps2);
        insert_tuples(&mut eg, &ids, &tuples[6..]);
        eg.rebuild();

        let mut scratch = MatchScratch::new();
        for (((query, c), before), g) in queries.iter().zip(&compiled).zip(&before).zip(&genes) {
            let full = c.search(&eg, None, &mut scratch);
            prop_assert_eq!(&query.search(&eg), &full, "genes {:?}", g);
            let delta = c.search(&eg, Some(cutoff), &mut scratch);
            assert_delta_covers(before, &full, &delta, &format!("genes {g:?}"));
            let probes = scratch.take_probe_counters();
            prop_assert_eq!(&full, &c.search(&eg, None, &mut scratch), "rerun, genes {:?}", g);
            prop_assert_eq!(
                &delta,
                &c.search(&eg, Some(cutoff), &mut scratch),
                "delta rerun, genes {:?}", g
            );
            prop_assert_eq!(probes, scratch.take_probe_counters());
        }
    }
}

/// Saturates `eg` with the math rules in `scratch`, then checks the engine
/// invariants; the report with its wall clock zeroed.
fn saturate_in(eg: &mut EG, scratch: &mut MatchScratch) -> hb_egraph::schedule::RunReport {
    let runner = Runner::new(4, 5_000);
    let mut report = runner.run_in(eg, &math_rules(), Budget::none(), None, scratch);
    report.elapsed = std::time::Duration::ZERO;
    eg.check_op_index();
    eg.check_op_epochs();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Reuse safety: a context — graph, matcher scratch, extraction scratch —
    // that built, saturated and extracted one graph and was cleared must
    // build the next graph exactly as a fresh context does. Nothing the
    // first graph left behind (ids, rows, logs, relation tuples, epochs,
    // match rows, cost-table entries, readout memo) may show.
    #[test]
    fn cleared_context_rebuilds_the_fresh_graph(
        earlier in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 50),
        earlier_tuples in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        steps in proptest::collection::vec((0u8..5, 0u32..64, 0u32..64), 40),
        tuples in proptest::collection::vec((0u8..2, 0u32..64, 0u32..64), 6),
        genes in proptest::collection::vec(proptest::collection::vec(0u32..256, 24), 4),
    ) {
        // The used context: another graph, all the way through.
        let mut eg = EG::new();
        let mut scratch = MatchScratch::new();
        let earlier_ids = replay_into(&mut eg, &earlier);
        insert_tuples(&mut eg, &earlier_ids, &earlier_tuples);
        saturate_in(&mut eg, &mut scratch);
        let used = WorklistExtractor::new(&eg, AstSize);
        for &id in &earlier_ids {
            let _ = used.extract(id);
        }
        let used_tables = used.into_scratch();
        eg.clear();
        prop_assert!(eg.is_empty() && eg.is_clean());
        prop_assert_eq!((eg.num_nodes(), eg.id_bound(), eg.work_epoch()), (0, 0, 1));

        // The same graph in the used and in a fresh context.
        let ids = replay_into(&mut eg, &steps);
        let (mut fresh, fresh_ids) = replay(&steps);
        prop_assert_eq!(&ids, &fresh_ids);
        insert_tuples(&mut eg, &ids, &tuples);
        insert_tuples(&mut fresh, &fresh_ids, &tuples);
        let report = saturate_in(&mut eg, &mut scratch);
        let fresh_report = saturate_in(&mut fresh, &mut MatchScratch::new());
        prop_assert_eq!(report, fresh_report);
        prop_assert_eq!(eg.snapshot(), fresh.snapshot());

        for g in &genes {
            let query = gen_query(g, 3).compile();
            prop_assert_eq!(
                query.search(&eg, None, &mut scratch),
                query.search(&fresh, None, &mut MatchScratch::new()),
                "genes {:?}", g
            );
        }

        let reused = WorklistExtractor::with_scratch(&eg, AstSize, used_tables);
        let reference = WorklistExtractor::new(&fresh, AstSize);
        for &id in &ids {
            prop_assert_eq!(reused.cost_of(id), reference.cost_of(id));
            prop_assert_eq!(reused.extract(id).nodes(), reference.extract(id).nodes());
        }
        let again = WorklistExtractor::with_scratch(&eg, AstSize, reused.into_scratch());
        for &id in &ids {
            prop_assert_eq!(again.extract(id).nodes(), reference.extract(id).nodes());
        }
        prop_assert_eq!(again.stats().table_entries, reference.stats().table_entries);
    }
}

#[test]
fn scheduler_semi_naive_finds_late_tuples_without_full_research() {
    // The main rule joins against a relation that is *empty* when the rule
    // first (full-)searches; a second rule derives the tuple afterwards.
    // The scheduler must surface the join match purely through the
    // semi-naive delta rounds — no second full search.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let main = Rewrite::<Math>::rule(
        "mark-good-products",
        Query::single("e", pmul(pvar("x"), pvar("y"))).with_relation("good", &["y"]),
        Box::new(|eg, s| {
            let e = hb_egraph::rewrite::bound(s, "e");
            eg.insert_tuple("marked", &[e])
        }),
    );
    let derive = Rewrite::<Math>::rule(
        "two-is-good",
        Query::single("e", n(2)),
        Box::new(|eg, s| {
            let e = hb_egraph::rewrite::bound(s, "e");
            eg.insert_tuple("good", &[e])
        }),
    );
    // Order matters: `main` searches before `good` is populated.
    let report = Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &[main, derive], Budget::none());
    assert!(report.saturated);
    assert!(
        eg.relations().contains("marked", &[eg.find(m)]),
        "the late-tuple join match was missed"
    );
    assert_eq!(
        report.full_searches, 2,
        "only each rule's first search may be full"
    );
    assert!(
        report.delta_searches >= 2,
        "later passes must run as delta probes"
    );
    assert_eq!(
        report.skipped_searches, 1,
        "a rule over a quiescent graph and relation store is skipped"
    );
}

#[test]
fn untouched_op_rows_are_not_probed() {
    // Epoch exactness, counter-based: a class holding both a Mul and a Div
    // node sees a change under its Mul subtree only. The Div-rooted
    // query's delta probe must visit zero rows, although the class is
    // modified and contains a Div node; the Mul-rooted one must visit the
    // changed row.
    let mut eg = EG::new();
    let two = eg.add(Math::Num(2));
    let three = eg.add(Math::Num(3));
    let mut mul_roots = Vec::new();
    for i in 0..8 {
        let a = eg.add(Math::Sym(format!("a{i}")));
        let b = eg.add(Math::Sym(format!("b{i}")));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, three]));
        eg.union(m, d); // every class holds a Mul node and a Div node
        mul_roots.push((a, m));
    }
    eg.rebuild();
    let q_mul = Query::single("e", pmul(pvar("x"), pvar("y"))).compile();
    let q_div = Query::single("e", pdiv(pvar("x"), pvar("y"))).compile();
    let since = Some(eg.bump_epoch());
    // One change, strictly under one class's Mul subtree.
    let c = eg.add(Math::Sym("c".into()));
    eg.union(mul_roots[0].0, c);
    eg.rebuild();

    let mut scratch = MatchScratch::new();
    let _ = q_div.search(&eg, since, &mut scratch);
    let (div_probed, _) = scratch.take_probe_counters();
    assert_eq!(
        div_probed, 0,
        "no Div row changed — the op-keyed Div probe must visit nothing"
    );
    let _ = q_mul.search(&eg, since, &mut scratch);
    let (mul_probed, _) = scratch.take_probe_counters();
    assert!(
        mul_probed > 0,
        "the changed Mul row must be probed under op-keyed tracking"
    );
    eg.check_op_epochs();
}

#[test]
fn runner_delta_probes_skip_the_untouched_operator() {
    // Runner-level pin: multi-op classes u_i hold a Mul node and a Div
    // node with disjoint subtrees. A rule that only changes the Div
    // side's shared leaf (`3` gains a Div node) restamps the u_i through
    // their Div parent nodes alone, so the Mul-rooted rule's delta probe
    // skips all eight u_i (each is modified and contains a Mul node) and
    // only the Div- and literal-rooted probes visit rows.
    let mut eg = EG::new();
    let two = eg.add(Math::Num(2));
    let three = eg.add(Math::Num(3));
    for i in 0..8 {
        let a = eg.add(Math::Sym(format!("a{i}")));
        let b = eg.add(Math::Sym(format!("b{i}")));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, three]));
        eg.union(m, d);
    }
    eg.rebuild();
    let rules: Vec<Rewrite<Math>> = vec![
        // Never fires; its delta probes of the Mul rows are under test.
        // Runs first so the Div-side change below lands *after* its first
        // full search and must be covered by its delta window.
        Rewrite::rewrite("mul-one", pmul(pvar("x"), n(1)), pvar("x")),
        // Never fires; keeps a Div-rooted probe in the mix for realism.
        Rewrite::rewrite("div-threes", pdiv(n(3), n(3)), n(1)),
        // Fires once: `3` ≡ `3/1`, a change strictly on the Div side.
        Rewrite::rewrite("three-div-one", n(3), pdiv(n(3), n(1))),
    ];
    let report = Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &rules, Budget::none());
    assert!(report.saturated);
    assert_eq!((report.nodes, report.classes, report.applied), (36, 27, 1));
    assert_eq!((report.full_searches, report.delta_searches), (3, 3));
    assert_eq!(report.delta_probed_rows, 10);
    assert_eq!(
        report.delta_skipped_rows, 8,
        "the Mul-rooted probe must skip every u_i"
    );
    eg.check_op_epochs();
}

#[test]
fn compaction_is_deterministic_and_exact() {
    // Regression: modification-log compaction folds the log through a
    // by-id scratch kept between rebuilds (and across `clear()`); the
    // compacted log must be fully ordered by (epoch, id) and the scratch
    // must come back all zero, so delta replay depends on neither. The
    // second replica of the workout is built in a graph that already
    // compacted another workout's logs, so a leak diverges their probes.
    let mul_key = Math::Mul([Id(0), Id(0)]).op_key();
    let build = |mut eg: EG| {
        eg.clear();
        let two = eg.add(Math::Num(2));
        // A Mul chain deep enough that every union propagates ~40 epochs.
        let mut chain = vec![eg.add(Math::Sym("x".into()))];
        for _ in 0..40 {
            let top = *chain.last().unwrap();
            chain.push(eg.add(Math::Mul([top, two])));
        }
        eg.rebuild();
        let mut cutoffs = Vec::new();
        // Enough stamped epochs that rebuild compacts the logs repeatedly.
        for i in 0..60 {
            cutoffs.push(eg.bump_epoch());
            let s = eg.add(Math::Sym(format!("s{i}")));
            eg.union(s, chain[0]);
            eg.rebuild();
        }
        (eg, cutoffs)
    };
    let (a, cutoffs_a) = build(EG::new());
    let (used, _) = build(EG::new());
    let (b, cutoffs_b) = build(used);
    assert_eq!(cutoffs_a, cutoffs_b, "replicas must replay identically");
    fn collect(read: impl FnOnce(&mut Vec<Id>)) -> Vec<Id> {
        let mut out = Vec::new();
        read(&mut out);
        out
    }
    for &cutoff in &cutoffs_a {
        let class_level = collect(|out| a.modified_since(cutoff, out));
        assert_eq!(
            class_level,
            collect(|out| b.modified_since(cutoff, out)),
            "class epochs diverged between replicas at cutoff {cutoff}"
        );
        let per_op = collect(|out| a.modified_candidates_for(mul_key, cutoff, out));
        assert!(
            per_op.iter().all(|id| class_level.contains(id)),
            "the per-op log names a class whose epoch predates cutoff {cutoff}"
        );
        assert_eq!(
            per_op,
            collect(|out| b.modified_candidates_for(mul_key, cutoff, out)),
            "per-op log diverged between replicas at cutoff {cutoff}"
        );
        // Exactness after compaction: the whole chain was restamped after
        // every cutoff, so every chain class must still be reported.
        assert_eq!(
            per_op.len(),
            40,
            "compaction lost chain entries at cutoff {cutoff}"
        );
    }
    a.check_op_epochs();
    b.check_op_epochs();
}

#[test]
fn delta_runner_skips_saturated_phases_but_finds_late_matches() {
    // After saturation, feeding a brand-new term into the graph must be
    // picked up by the (delta) runner on the next call.
    let mut eg = EG::new();
    let a = eg.add(Math::Sym("a".into()));
    let two = eg.add(Math::Num(2));
    let m = eg.add(Math::Mul([a, two]));
    let _d = eg.add(Math::Div([m, two]));
    let rules = math_rules();
    let runner = Runner::new(16, 20_000);
    let first = runner.run_to_fixpoint(&mut eg, &rules, Budget::none());
    assert!(first.saturated);
    // New work arrives.
    let b = eg.add(Math::Sym("b".into()));
    let mb = eg.add(Math::Mul([b, two]));
    let second = runner.run_to_fixpoint(&mut eg, &rules, Budget::none());
    assert!(second.saturated);
    // mul-two-shl must have fired on the new product.
    let one = eg.add(Math::Num(1));
    let shifted = eg.lookup(&Math::Shl([b, one]));
    assert_eq!(shifted, Some(eg.find(mb)), "late-arriving match was missed");
}
