//! The extraction strategies' cross-strategy contracts:
//!
//! * cyclic classes (`x = f(x)`) extract through their acyclic members
//!   under **both** strategies;
//! * equal-cost tie-breaks are deterministic: the worklist and
//!   shared-table strategies are *content*-deterministic (identical terms
//!   from differently-id'd graphs holding the same equivalences) — on a
//!   fixed pair of graphs, and as a property over random graphs whose ids
//!   are shifted by interleaved decoys, reused after `EGraph::clear()` or
//!   assigned in a seed-chosen order;
//! * property test: on randomized saturated graphs, every root's
//!   shared-table readout is byte-identical to the worklist readout and
//!   the two report the same cost — the oracle that keeps the `benchmark/`
//!   package's staged path (shared-table on batched graphs) comparable
//!   with compile sessions (worklist everywhere);
//! * property test: the worklist strategy's dense tables and per-class
//!   tie-break ranks choose, class by class, what the reference solver —
//!   hash maps, and a recursive, pairwise-memoized content comparison —
//!   chooses;
//! * property test, ground truth: every class's `cost_of` is the minimum a
//!   Bellman-Ford relaxation over plain vectors finds (nothing shared with
//!   the extractor: no worklist, no parent index, no tie-breaks), every
//!   extracted term costs what `cost_of` says and is a member of its
//!   class — also through a reused `ExtractScratch` and on a graph rebuilt
//!   after `EGraph::clear()`.

use proptest::prelude::*;

use hb_egraph::egraph::EGraph;
use std::cmp::Ordering;
use std::collections::HashMap;

use hb_egraph::extract::{
    AstSize, CostFunction, Extract, ExtractScratch, FnCost, SharedTableExtractor, WorklistExtractor,
};
use hb_egraph::language::{Language, RecExpr};
use hb_egraph::math_lang::{n, pdiv, pmul, pvar, Math};
use hb_egraph::rewrite::Rewrite;
use hb_egraph::schedule::{Budget, Runner};
use hb_egraph::unionfind::Id;

type EG = EGraph<Math, ()>;

/// One step of a randomized e-graph workout (see `engine.rs`).
type Step = (u8, u32, u32);

fn replay(steps: &[Step]) -> (EG, Vec<Id>) {
    let mut eg = EG::new();
    let ids = replay_into(&mut eg, steps);
    (eg, ids)
}

fn replay_into(eg: &mut EG, steps: &[Step]) -> Vec<Id> {
    replay_with_decoys(eg, steps, &[])
}

/// [`replay_into`] with unrelated decoy nodes interleaved: before step `i`
/// (or after the last, for `i == steps.len()`), one decoy for every
/// position in `decoys` equal to `i` modulo `steps.len() + 1` — a fresh
/// symbol and its product with the previous decoy. Decoys share no node
/// with the replay, no rule matches them and they are never picked as
/// operands, so they shift every later id and index-row position while
/// the replayed classes hold exactly what they hold without them. Returns
/// the replayed ids only.
fn replay_with_decoys(eg: &mut EG, steps: &[Step], decoys: &[u32]) -> Vec<Id> {
    let mut ids: Vec<Id> = Vec::new();
    let mut last_decoy = None;
    let mut add_decoys = |eg: &mut EG, at: usize| {
        for _ in decoys
            .iter()
            .filter(|&&d| d as usize % (steps.len() + 1) == at)
        {
            let decoy = eg.add(Math::Sym(format!("decoy{}", eg.id_bound())));
            let partner = last_decoy.unwrap_or(decoy);
            eg.add(Math::Mul([decoy, partner]));
            last_decoy = Some(decoy);
        }
    };
    for s in ["a", "b", "c"] {
        ids.push(eg.add(Math::Sym(s.into())));
    }
    for (at, &(op, x, y)) in steps.iter().enumerate() {
        add_decoys(eg, at);
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
    add_decoys(eg, steps.len());
    eg.rebuild();
    ids
}

fn math_rules() -> Vec<Rewrite<Math>> {
    vec![
        Rewrite::rewrite(
            "assoc",
            pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
            pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
        ),
        Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
        Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
    ]
}

/// A graph where one class is cyclic (`x = x * 1` via saturation) and
/// another is cyclic by construction.
fn cyclic_graph() -> (EG, Id, Id) {
    let mut eg = EG::new();
    let x = eg.add(Math::Sym("x".into()));
    let one = eg.add(Math::Num(1));
    let fx = eg.add(Math::Mul([x, one]));
    eg.union(x, fx);
    let y = eg.add(Math::Sym("y".into()));
    let d = eg.add(Math::Div([fx, one]));
    eg.union(d, y);
    eg.rebuild();
    (eg, x, d)
}

#[test]
fn cyclic_classes_extract_under_every_strategy() {
    let (eg, x, d) = cyclic_graph();
    let strategies: Vec<Box<dyn Extract<Math> + '_>> = vec![
        Box::new(WorklistExtractor::new(&eg, AstSize)),
        Box::new(SharedTableExtractor::new(&eg, AstSize)),
    ];
    for ex in &strategies {
        let name = ex.stats().strategy;
        assert_eq!(ex.extract(x).to_sexp(), "x", "{name}");
        assert_eq!(ex.cost_of(x), Some(1), "{name}");
        assert_eq!(ex.extract(d).to_sexp(), "y", "{name}");
    }
}

/// Two graphs holding the same equivalences with ids assigned in opposite
/// orders: an equal-cost two-member class (`a * 2` vs `a << 1` under a
/// cost function pricing both at 3).
fn tied_graphs() -> (EG, Id, EG, Id) {
    let mut g1 = EG::new();
    let a = g1.add(Math::Sym("a".into()));
    let one = g1.add(Math::Num(1));
    let two = g1.add(Math::Num(2));
    let m = g1.add(Math::Mul([a, two]));
    let s = g1.add(Math::Shl([a, one]));
    g1.union(m, s);
    g1.rebuild();

    let mut g2 = EG::new();
    let a2 = g2.add(Math::Sym("a".into()));
    let one2 = g2.add(Math::Num(1));
    let s2 = g2.add(Math::Shl([a2, one2]));
    let two2 = g2.add(Math::Num(2));
    let m2 = g2.add(Math::Mul([a2, two2]));
    g2.union(s2, m2);
    g2.rebuild();
    (g1, m, g2, m2)
}

#[test]
fn tree_strategies_break_ties_by_content_across_id_orders() {
    let (g1, r1, g2, r2) = tied_graphs();
    let w1 = WorklistExtractor::new(&g1, AstSize).extract(r1);
    let w2 = WorklistExtractor::new(&g2, AstSize).extract(r2);
    assert_eq!(
        w1.to_sexp(),
        w2.to_sexp(),
        "worklist tie-break depended on id order"
    );
    let s1 = SharedTableExtractor::new(&g1, AstSize).extract(r1);
    let s2 = SharedTableExtractor::new(&g2, AstSize).extract(r2);
    assert_eq!(s1.to_sexp(), w1.to_sexp(), "shared-table diverged (g1)");
    assert_eq!(s2.to_sexp(), w2.to_sexp(), "shared-table diverged (g2)");
}

/// A graph holding exactly `eg`'s classes with ids assigned in a
/// seed-chosen order: each step adds one node, picked by `order` among
/// those whose children's classes the copy already holds, and unions it
/// into its class's first node. `eg` is congruence-closed, so the copy is
/// too and merges nothing else. Returns the copy and `eg`'s class ids
/// mapped to it.
fn permuted_copy(eg: &EG, order: &[u32]) -> (EG, HashMap<Id, Id>) {
    let mut pending: Vec<(Id, Math)> = (eg.classes())
        .flat_map(|class| class.nodes.iter().map(|node| (class.id, node.clone())))
        .collect();
    let mut picks = order.iter().cycle();
    let (mut copy, mut map) = (EG::new(), HashMap::new());
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].1.children().iter().all(|c| map.contains_key(c)))
            .collect();
        let pick = picks.next().map_or(0, |&p| p as usize) % ready.len();
        let (class, node) = pending.swap_remove(ready[pick]);
        let id = copy.add(node.map_children(|c| map[&c]));
        match map.get(&class) {
            Some(&first) => {
                copy.union(first, id);
            }
            None => {
                map.insert(class, id);
            }
        }
    }
    copy.rebuild();
    (copy, map)
}

/// Every root's cost and extracted term under `cost_fn` (`None` for a
/// root with no finite term).
fn readouts<C: CostFunction<Math>>(
    eg: &EG,
    roots: &[Id],
    cost_fn: C,
) -> Vec<Option<(u64, String)>> {
    let extractor = WorklistExtractor::new(eg, cost_fn);
    roots
        .iter()
        .map(|&root| Some((extractor.cost_of(root)?, extractor.extract(root).to_sexp())))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Tie-break determinism as a property: equal-cost candidates resolve
    // by content, never by id or insertion order. One step sequence is
    // replayed into a fresh graph, into a graph with decoys interleaved
    // (every id and index-row position shifted) and into a graph cleared
    // after holding and saturating another. A shift keeps the replayed
    // classes' relative id order, so a fourth graph holds the fresh one's
    // classes re-added in a seed-chosen order. Every root reads the same
    // cost and term in all four — raw and saturated, under `AstSize` and
    // under a weighted function.
    // `tree_strategies_break_ties_by_content_across_id_orders` is the
    // fixed, readable instance.
    #[test]
    fn tie_breaks_follow_content_not_ids(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
        decoys in proptest::collection::vec(0u32..61, 8),
        order in proptest::collection::vec(0u32..1024, 16),
        saturate in 0u8..2,
        weighted in 0u8..2,
    ) {
        let (mut fresh, ids) = replay(&steps);
        let mut decoyed = EG::new();
        let decoyed_ids = replay_with_decoys(&mut decoyed, &steps, &decoys);
        let decoy_nodes = decoyed.num_nodes() - fresh.num_nodes();
        let mut cleared = EG::new();
        let earlier: Vec<Step> = steps.iter().rev().copied().collect();
        replay_into(&mut cleared, &earlier);
        Runner::new(16, 20_000).run_to_fixpoint(&mut cleared, &math_rules(), Budget::none());
        cleared.clear();
        let cleared_ids = replay_into(&mut cleared, &steps);
        let (mut permuted, map) = permuted_copy(&fresh, &order);
        let permuted_ids: Vec<Id> = ids.iter().map(|id| map[&fresh.find(*id)]).collect();
        if saturate == 1 {
            let saturate = |eg: &mut EG, node_limit: usize| {
                Runner::new(16, node_limit).run_to_fixpoint(eg, &math_rules(), Budget::none());
            };
            saturate(&mut fresh, 20_000);
            saturate(&mut cleared, 20_000);
            saturate(&mut permuted, 20_000);
            // The node limit counts the decoys too; they never grow.
            saturate(&mut decoyed, 20_000 + decoy_nodes);
        }
        let weigh = |node: &Math| match node {
            Math::Mul(_) if weighted == 1 => 2,
            _ => 1,
        };
        let read = |eg: &EG, roots: &[Id]| match weighted {
            1 => readouts(eg, roots, FnCost(weigh)),
            _ => readouts(eg, roots, AstSize),
        };
        let want = read(&fresh, &ids);
        prop_assert_eq!(&read(&decoyed, &decoyed_ids), &want, "decoys at {:?}", decoys);
        prop_assert_eq!(&read(&cleared, &cleared_ids), &want, "cleared graph");
        prop_assert_eq!(&read(&permuted, &permuted_ids), &want, "order {:?}", order);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The strategy-equivalence oracle: on randomized graphs — raw and
    // saturated — the shared-table readout of every root is byte-identical
    // to the worklist readout, at the same cost, whatever order roots are
    // read in.
    #[test]
    fn shared_table_equals_worklist_per_root(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
        saturate in 0u8..2,
    ) {
        let (mut eg, ids) = replay(&steps);
        if saturate == 1 {
            Runner::new(16, 20_000).run_to_fixpoint(&mut eg, &math_rules(), Budget::none());
        }
        let worklist = WorklistExtractor::new(&eg, AstSize);
        let shared = SharedTableExtractor::new(&eg, AstSize);
        for &root in &ids {
            prop_assert_eq!(worklist.cost_of(root), shared.cost_of(root));
            if worklist.cost_of(root).is_none() {
                continue;
            }
            let w = worklist.extract(root);
            let s = shared.extract(root);
            prop_assert_eq!(
                w.nodes(), s.nodes(),
                "root {}: shared-table readout diverged", root
            );
        }
    }
}

/// The reference tree-cost solver the dense [`WorklistExtractor`] must
/// agree with: full passes to a fixpoint over a `class → (cost, node)`
/// map, then equal-cost ties re-picked by content — operator key, arity,
/// children compared recursively through their representatives, descending
/// only into strictly cheaper classes, class pairs memoized.
struct ReferenceTable<'a, C> {
    eg: &'a EG,
    cost_fn: C,
    best: HashMap<Id, (u64, Math)>,
}

impl<'a, C: CostFunction<Math>> ReferenceTable<'a, C> {
    fn solve(eg: &'a EG, cost_fn: C) -> Self {
        let mut table = ReferenceTable {
            eg,
            cost_fn,
            best: HashMap::new(),
        };
        loop {
            let mut changed = false;
            for class in eg.classes() {
                let winner = (class.nodes.iter())
                    .filter_map(|node| Some((table.node_cost(node)?, node)))
                    .reduce(|w, c| if c.0 < w.0 { c } else { w });
                if let Some((cost, node)) = winner {
                    let new = (cost, node.clone());
                    changed |= table.best.get(&class.id).is_none_or(|old| old.0 != cost);
                    table.best.insert(class.id, new);
                }
            }
            if !changed {
                break;
            }
        }
        let mut order: Vec<(u64, Id)> = table.best.iter().map(|(&id, e)| (e.0, id)).collect();
        order.sort_unstable();
        let mut memo = HashMap::new();
        for (cost, id) in order {
            let nodes = &eg.class(id).nodes;
            let mut winner: Option<&Math> = None;
            for node in nodes.iter().filter(|_| nodes.len() > 1) {
                let cheaper = |c: &Id| table.best.get(&eg.find(*c)).is_some_and(|e| e.0 < cost);
                if table.node_cost(node) == Some(cost)
                    && node.children().iter().all(cheaper)
                    && winner
                        .is_none_or(|w| table.cmp_nodes(node, w, cost, &mut memo) == Ordering::Less)
                {
                    winner = Some(node);
                }
            }
            if let Some(node) = winner {
                table.best.insert(id, (cost, node.clone()));
            }
        }
        table
    }

    fn node_cost(&self, node: &Math) -> Option<u64> {
        let mut feasible = true;
        let cost = self.cost_fn.cost(node, &mut |c| {
            let known = self.best.get(&self.eg.find(c)).map(|e| e.0);
            feasible &= known.is_some();
            known.unwrap_or(u64::MAX / 4)
        });
        feasible.then_some(cost)
    }

    fn cmp_nodes(
        &self,
        a: &Math,
        b: &Math,
        limit: u64,
        memo: &mut HashMap<(Id, Id), Ordering>,
    ) -> Ordering {
        (a.op_key().cmp(&b.op_key()))
            .then(a.children().len().cmp(&b.children().len()))
            .then_with(|| {
                let pairs = a.children().iter().zip(b.children());
                pairs
                    .map(|(&ca, &cb)| self.cmp_classes(ca, cb, limit, memo))
                    .find(|&ord| ord != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            })
    }

    fn cmp_classes(
        &self,
        a: Id,
        b: Id,
        limit: u64,
        memo: &mut HashMap<(Id, Id), Ordering>,
    ) -> Ordering {
        let (a, b) = (self.eg.find(a), self.eg.find(b));
        if a == b {
            return Ordering::Equal;
        }
        if let Some(&ord) = memo.get(&(a, b)) {
            return ord;
        }
        let ord = match (self.best.get(&a), self.best.get(&b)) {
            (Some((ca, na)), Some((cb, nb))) => ca.cmp(cb).then_with(|| {
                if *ca >= limit {
                    Ordering::Equal
                } else {
                    self.cmp_nodes(na, nb, *ca, memo)
                }
            }),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        };
        memo.insert((a, b), ord);
        memo.insert((b, a), ord.reverse());
        ord
    }

    /// The chosen term of `id`, as an s-expression.
    fn term(&self, id: Id) -> String {
        let (_, node) = &self.best[&self.eg.find(id)];
        if node.children().is_empty() {
            return node.op_name();
        }
        let children: Vec<String> = node.children().iter().map(|&c| self.term(c)).collect();
        format!("({} {})", node.op_name(), children.join(" "))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Saturated graphs are where ties live: `a * 2` beside `a << 1`,
    // re-associated products of equal size. Under `AstSize` every node
    // costs 1, so equal-cost alternatives are the common case; the weighted
    // function moves the ties elsewhere.
    #[test]
    fn worklist_choices_equal_the_reference_solver(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
        weighted in 0u8..2,
    ) {
        let (mut eg, ids) = replay(&steps);
        let mut rules = math_rules();
        rules.push(Rewrite::rewrite("comm-mul", pmul(pvar("a"), pvar("b")), pmul(pvar("b"), pvar("a"))));
        Runner::new(6, 4_000).run_to_fixpoint(&mut eg, &rules, Budget::none());
        let weigh = |node: &Math| match node {
            Math::Mul(_) if weighted == 1 => 2,
            _ => 1,
        };
        let dense = WorklistExtractor::new(&eg, FnCost(weigh));
        let reference = ReferenceTable::solve(&eg, FnCost(weigh));
        for &root in &ids {
            let want = reference.best.get(&eg.find(root)).map(|e| e.0);
            prop_assert_eq!(dense.cost_of(root), want);
            if want.is_some() {
                prop_assert_eq!(dense.extract(root).to_sexp(), reference.term(root), "root {}", root);
            }
        }
    }
}

/// Ground truth for [`AstSize`]: every class starts unreachable, a pass
/// lowers each class to the cheapest of its nodes whose children are all
/// reachable (one plus the children's costs), and passes repeat until one
/// lowers nothing.
fn min_ast_sizes(eg: &EG) -> Vec<Option<u64>> {
    let mut best: Vec<Option<u64>> = vec![None; eg.id_bound()];
    loop {
        let mut lowered = false;
        for class in eg.classes() {
            for node in &class.nodes {
                let mut children = node.children().iter().map(|&c| best[eg.find(c).index()]);
                let cost = children.try_fold(1u64, |sum, c| Some(sum.saturating_add(c?)));
                let slot = &mut best[class.id.index()];
                if cost.is_some_and(|cost| slot.is_none_or(|old| cost < old)) {
                    *slot = cost;
                    lowered = true;
                }
            }
        }
        if !lowered {
            return best;
        }
    }
}

/// A term's cost as a tree: one per node, shared subterms counted at
/// every use.
fn tree_size(term: &RecExpr<Math>) -> u64 {
    let mut sizes: Vec<u64> = Vec::with_capacity(term.len());
    for node in term.nodes() {
        let children = node.children().iter().map(|c| sizes[c.index()]);
        sizes.push(children.fold(1, u64::saturating_add));
    }
    *sizes.last().expect("an extracted term has a root")
}

/// Checks every class of `eg` against [`min_ast_sizes`] with an extractor
/// built over `scratch`, and hands the scratch back.
fn assert_ground_truth(
    eg: &mut EG,
    scratch: ExtractScratch<Math>,
    ctx: &str,
) -> ExtractScratch<Math> {
    let truth = min_ast_sizes(eg);
    let extractor = WorklistExtractor::with_scratch(eg, AstSize, scratch);
    let mut terms = Vec::new();
    for class in eg.classes() {
        let want = truth[class.id.index()];
        assert_eq!(
            extractor.cost_of(class.id),
            want,
            "{ctx}: class {}",
            class.id
        );
        if let Some(want) = want {
            let term = extractor.extract(class.id);
            assert_eq!(tree_size(&term), want, "{ctx}: term of class {}", class.id);
            terms.push((class.id, term));
        }
    }
    let scratch = extractor.into_scratch();
    // A term is made of its class's own nodes: adding it back finds them.
    let nodes = eg.num_nodes();
    for (id, term) in &terms {
        let landed = eg.add_recexpr(term);
        assert_eq!(eg.find(landed), eg.find(*id), "{ctx}: class {id}");
    }
    assert_eq!(eg.num_nodes(), nodes, "{ctx}: re-adding grew the graph");
    scratch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Raw replays hold unions that make classes cyclic (a class among its
    // own descendants) and classes no root reaches; saturated ones add the
    // equal-cost ties. Every class is checked, not just the replay's ids.
    #[test]
    fn worklist_costs_equal_the_bellman_ford_ground_truth(
        steps in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 60),
        saturate in 0u8..2,
    ) {
        let (mut eg, _) = replay(&steps);
        if saturate == 1 {
            Runner::new(6, 4_000).run_to_fixpoint(&mut eg, &math_rules(), Budget::none());
        }
        let scratch = assert_ground_truth(&mut eg, ExtractScratch::default(), "fresh scratch");
        let scratch = assert_ground_truth(&mut eg, scratch, "reused scratch");
        // Another graph in the cleared storage, solved in the same scratch.
        eg.clear();
        let reversed: Vec<Step> = steps.iter().rev().copied().collect();
        replay_into(&mut eg, &reversed);
        assert_ground_truth(&mut eg, scratch, "cleared graph");
    }
}
