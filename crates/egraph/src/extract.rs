//! Cost-based extraction of the optimal term from an e-graph.
//!
//! The paper's cost model (§III-D3) is AST size — instruction selection under
//! a user-given schedule is "hit or miss", so smaller terms (which use the
//! coarse accelerator intrinsics) always win. Extraction is generic over a
//! [`CostFunction`] (what a node costs), and there is one extractor,
//! [`WorklistExtractor`]: the bottom-up tree-cost solver with
//! content-deterministic tie-breaks. It settles one cost table per graph,
//! then reads each root out of it by walking the chosen sub-dag through a
//! dense stamped memo. Compile sessions run it on one-root per-leaf graphs
//! and on multi-root suite graphs alike.
//!
//! Readouts share nothing across roots: a term bank that shared chosen
//! sub-dags between them read 0.73–0.79x as fast as the dense memo on the
//! 158-root suite graph.
//! [`SharedTableExtractor`], the one-implementation [`Extract`] trait and
//! [`ExtractionStats::reused_readouts`] remain only because the
//! `benchmark/` package names them; they go with ROADMAP 2(iii).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::egraph::{Analysis, EClass, EGraph};
use crate::language::{Language, RecExpr};
use crate::unionfind::Id;

/// Assigns a cost to an e-node given the best costs of its children.
pub trait CostFunction<L: Language> {
    /// Cost of `node`; `child_cost(id)` is the best known cost of a child
    /// class. Implementations must fold child costs with **saturating**
    /// arithmetic: the solver feeds `u64::MAX / 4` for not-yet-constructible
    /// children, and deep terms legitimately approach the integer range.
    fn cost(&self, node: &L, child_cost: &mut dyn FnMut(Id) -> u64) -> u64;
}

/// AST size: every node costs 1 plus its children (saturating).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl<L: Language> CostFunction<L> for AstSize {
    fn cost(&self, node: &L, child_cost: &mut dyn FnMut(Id) -> u64) -> u64 {
        let mut total: u64 = 1;
        for &c in node.children() {
            total = total.saturating_add(child_cost(c));
        }
        total
    }
}

/// Cost function defined by a closure over the node's op with child costs
/// pre-summed (saturating) — handy for weighting specific operators.
pub struct FnCost<F>(pub F);

impl<L: Language, F: Fn(&L) -> u64> CostFunction<L> for FnCost<F> {
    fn cost(&self, node: &L, child_cost: &mut dyn FnMut(Id) -> u64) -> u64 {
        let mut total = (self.0)(node);
        for &c in node.children() {
            total = total.saturating_add(child_cost(c));
        }
        total
    }
}

/// Counters an extractor reports about its own work, surfaced by the
/// selector's `ExtractionReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Classes with a settled cost-table entry.
    pub table_entries: usize,
    /// Always 0: readouts share nothing across roots. Goes with ROADMAP
    /// 2(iii), once `benchmark/` stops reading it.
    pub reused_readouts: usize,
}

/// An extractor behind an object-safe interface: costs are solved once at
/// construction, then any root can be priced ([`Extract::cost_of`]) or
/// read out ([`Extract::extract`]) against the settled solution.
/// [`WorklistExtractor`] is its one implementation; the trait goes with
/// ROADMAP 2(iii), once `benchmark/` stops naming it.
pub trait Extract<L: Language> {
    /// Best cost for a class, if any term is constructible.
    fn cost_of(&self, id: Id) -> Option<u64>;

    /// Extracts the best term rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    fn extract(&self, id: Id) -> RecExpr<L>;

    /// Counters describing the work done so far.
    fn stats(&self) -> ExtractionStats;
}

/// Marks "no node": a class without a cost-table entry.
const NONE: u32 = u32::MAX;

/// An `index → Id` memo over a dense index space, valid for one readout
/// and emptied in O(1) by moving to the next generation — cheaper than a
/// fresh index-sized memo per root when terms are much smaller than the
/// space.
#[derive(Debug, Default)]
struct StampedMemo {
    value: Vec<Id>,
    /// `value[i]` belongs to the current readout iff `stamp[i] == gen`.
    stamp: Vec<u32>,
    gen: u32,
}

impl StampedMemo {
    /// Starts a readout over indices `0..len` with nothing memoized.
    fn begin(&mut self, len: usize) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Practically unreachable; keep the stamps sound anyway.
            self.stamp.fill(0);
            self.gen = 1;
        }
        if self.value.len() < len {
            self.value.resize(len, Id(0));
            self.stamp.resize(len, 0);
        }
    }

    fn get(&self, i: usize) -> Option<Id> {
        (self.stamp[i] == self.gen).then(|| self.value[i])
    }

    fn set(&mut self, i: usize, id: Id) {
        self.value[i] = id;
        self.stamp[i] = self.gen;
    }
}

/// The solved cost table and what solving it needs — every part a vector
/// indexed by class id (or a queue of ids), sized by
/// [`EGraph::id_bound`] and refilled, not reallocated, by the next solve.
#[derive(Debug, Default)]
struct CostTable {
    /// By class id: `(best cost, position of the chosen node in the
    /// class's node list)`, the position [`NONE`] while the class has no
    /// constructible term. Positions instead of nodes: the graph is
    /// borrowed for the extractor's whole life, so nothing is cloned.
    best: Vec<(u64, u32)>,
    /// Classes with an entry in `best`.
    entries: usize,
    /// The entries as `(cost, class)`, by ascending cost — the order ties
    /// are finalized in.
    order: Vec<(u64, Id)>,
    /// Tie-break memo, by class id: the class's place in the content
    /// order of all classes with an entry — cost first, then the
    /// representative's content; equal for classes of equal content. Final
    /// for every class cheaper than the cost level being finalized.
    rank: Vec<u32>,
    /// By class id: [`Language::op_key`] of the class's representative.
    rep_key: Vec<u64>,
    /// Parent index, compressed rows: the classes holding a node with
    /// child `c` are `parent_edges[parent_start[c]..parent_start[c + 1]]`,
    /// ascending (repeats possible).
    parent_start: Vec<u32>,
    parent_edges: Vec<Id>,
    /// The solver's worklist, and by class id whether the class is on it.
    queue: VecDeque<Id>,
    queued: Vec<bool>,
}

impl CostTable {
    /// `(best cost, chosen node's position)` of a canonical class.
    fn entry(&self, id: Id) -> Option<(u64, u32)> {
        let (cost, node) = self.best[id.index()];
        (node != NONE).then_some((cost, node))
    }
}

/// The tables of an extraction — cost table, parent index, queue marks,
/// tie-break ranks and readout memo — kept from one extractor to the next:
/// `into_scratch` hands them back, `with_scratch` takes them, and a caller
/// that extracts from graph after graph (a compile session) stops
/// allocating them. Contents never carry over; only capacity does.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    table: CostTable,
    memo: StampedMemo,
}

/// Bottom-up tree-cost extractor: computes, for every class, the cheapest
/// constructible node, then reads out the best term for any root.
///
/// Cost solving is worklist-driven: a class is (re)evaluated only when one
/// of its children's best costs improves, and improvements propagate along
/// the e-graph's parent edges. Leaves settle first, then their parents —
/// the classic egg algorithm — instead of repeated full passes to a
/// fixpoint, which re-scanned every class per improvement wave.
///
/// Equal-cost ties are broken by **content**, not by e-class ids: after the
/// cost table settles, a canonicalization pass re-picks each class's
/// representative as the minimum-cost node with the smallest
/// `(op_key, children…)` term ([`Language::op_key`] digests only the
/// operator and payload), comparing children recursively by their (already
/// canonical) representatives. Two e-graphs holding the same equivalences
/// therefore extract the *same term* regardless of how their ids were
/// assigned — which is what lets batched/shared-graph users (and re-runs)
/// get byte-identical output.
pub struct WorklistExtractor<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    cost_fn: C,
    /// Settled at construction, read-only afterwards.
    table: CostTable,
    /// The readout memo (class id → position in the term being written),
    /// in a cell so that `extract(&self)` can reuse it from one readout to
    /// the next; an extractor is never shared between threads.
    memo: RefCell<StampedMemo>,
}

impl<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> WorklistExtractor<'a, L, N, C> {
    /// Builds the cost table (worklist propagation over classes) in fresh
    /// tables.
    #[must_use]
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: C) -> Self {
        Self::with_scratch(egraph, cost_fn, ExtractScratch::default())
    }

    /// [`WorklistExtractor::new`] in the tables an earlier extractor
    /// handed back.
    #[must_use]
    pub fn with_scratch(egraph: &'a EGraph<L, N>, cost_fn: C, scratch: ExtractScratch) -> Self {
        let ExtractScratch { table, memo } = scratch;
        let mut ex = WorklistExtractor {
            egraph,
            cost_fn,
            table,
            memo: RefCell::new(memo),
        };
        ex.solve();
        ex.canonicalize_ties();
        ex
    }

    /// Hands the tables back (see [`ExtractScratch`]).
    #[must_use]
    pub fn into_scratch(self) -> ExtractScratch {
        ExtractScratch {
            table: self.table,
            memo: self.memo.into_inner(),
        }
    }

    /// The node the table chose for canonical class `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term.
    fn chosen(&self, id: Id) -> &'a L {
        match self.table.entry(id) {
            Some((_, node)) => &self.egraph.class(id).nodes[node as usize],
            None => panic!("no constructible term for {id}"),
        }
    }

    /// Cost of one node under the current table, or `None` if a child has
    /// no constructible term.
    fn node_cost(&self, node: &L) -> Option<u64> {
        let mut feasible = true;
        let cost = self.cost_fn.cost(
            node,
            &mut |cid| match self.table.entry(self.egraph.find(cid)) {
                Some((c, _)) => c,
                None => {
                    feasible = false;
                    u64::MAX / 4
                }
            },
        );
        feasible.then_some(cost)
    }

    /// The best `(cost, node position)` for one class under the current
    /// table: the *first* minimum-cost feasible node in the class's
    /// (sorted) node list. Depending only on the table contents — never on
    /// visit order — keeps equal-cost tie-breaks deterministic across runs.
    fn best_of(&self, id: Id) -> Option<(u64, u32)> {
        let mut winner: Option<(u64, u32)> = None;
        for (at, node) in self.egraph.class(id).nodes.iter().enumerate() {
            if let Some(cost) = self.node_cost(node) {
                if winner.is_none_or(|(w, _)| cost < w) {
                    // A class holds fewer nodes than the graph has ids.
                    winner = Some((cost, at as u32));
                }
            }
        }
        winner
    }

    fn solve(&mut self) {
        let egraph = self.egraph;
        let n = egraph.id_bound();
        let table = &mut self.table;
        table.best.clear();
        table.best.resize(n, (0, NONE));
        table.entries = 0;
        // Parent index over canonical ids: child class -> classes holding a
        // node with that child (the edges improvements propagate along).
        // Counted into `[child + 2]`, summed, then filled through
        // `[child + 1]`, which leaves row `c` at `[c]..[c + 1]`; classes
        // are walked in ascending id order, so every row is ascending.
        let children_of = |class: &'a EClass<L, N::Data>| {
            let nodes = class.nodes.iter();
            nodes.flat_map(|node| node.children().iter().map(|&c| egraph.find(c).index()))
        };
        table.parent_start.clear();
        table.parent_start.resize(n + 2, 0);
        for class in egraph.classes() {
            for child in children_of(class) {
                table.parent_start[child + 2] += 1;
            }
        }
        for i in 1..table.parent_start.len() {
            table.parent_start[i] += table.parent_start[i - 1];
        }
        table.parent_edges.clear();
        table
            .parent_edges
            .resize(table.parent_start[n + 1] as usize, Id(0));
        for class in egraph.classes() {
            for child in children_of(class) {
                let at = &mut table.parent_start[child + 1];
                table.parent_edges[*at as usize] = class.id;
                *at += 1;
            }
        }
        let mut queue = std::mem::take(&mut table.queue);
        queue.clear();
        queue.extend(egraph.classes().map(|class| class.id));
        table.queued.clear();
        table.queued.resize(n, false);
        for &id in &queue {
            table.queued[id.index()] = true;
        }
        while let Some(id) = queue.pop_front() {
            self.table.queued[id.index()] = false;
            let Some((cost, node)) = self.best_of(id) else {
                continue;
            };
            let table = &mut self.table;
            match table.entry(id) {
                // Cost unchanged: keep the canonical (first-in-node-list)
                // winner but don't re-propagate.
                Some((old, _)) if old == cost => table.best[id.index()].1 = node,
                Some((old, _)) if old < cost => {}
                old => {
                    table.entries += usize::from(old.is_none());
                    table.best[id.index()] = (cost, node);
                    let row = table.parent_start[id.index()]..table.parent_start[id.index() + 1];
                    for &parent in &table.parent_edges[row.start as usize..row.end as usize] {
                        if !std::mem::replace(&mut table.queued[parent.index()], true) {
                            queue.push_back(parent);
                        }
                    }
                }
            }
        }
        self.table.queue = queue;
    }

    /// Re-picks each class's representative among its minimum-cost nodes by
    /// content order (see the type docs) and ranks the classes by it.
    /// Classes are finalized one cost level at a time, ascending: any cost
    /// function whose nodes cost strictly more than their children (true
    /// of [`AstSize`] and everything built on additive positive weights)
    /// then guarantees a node's children are already final — ranked — when
    /// the node is compared, so a comparison is a few table reads: no
    /// recursion, no pairwise memo.
    fn canonicalize_ties(&mut self) {
        let n = self.egraph.id_bound();
        let mut order = std::mem::take(&mut self.table.order);
        order.clear();
        order.extend(
            (self.egraph.classes())
                .filter_map(|class| self.table.entry(class.id).map(|(cost, _)| (cost, class.id))),
        );
        order.sort_unstable();
        self.table.rank.clear();
        self.table.rank.resize(n, 0);
        self.table.rep_key.clear();
        self.table.rep_key.resize(n, 0);
        let mut next_rank = 0;
        let mut rest = &mut order[..];
        while let Some(&(cost, _)) = rest.first() {
            let (level, above) = rest.split_at_mut(rest.partition_point(|&(c, _)| c == cost));
            rest = above;
            for &(_, id) in level.iter() {
                if let Some(node) = self.tie_winner(id, cost) {
                    self.table.best[id.index()].1 = node;
                }
                self.table.rep_key[id.index()] = self.chosen(id).op_key();
            }
            // Classes of equal content share a rank; the level's ranks
            // follow every cheaper level's.
            level.sort_unstable_by(|&(_, a), &(_, b)| self.cmp_reps(a, b, cost));
            for i in 0..level.len() {
                if i > 0 && self.cmp_reps(level[i - 1].1, level[i].1, cost) != Ordering::Equal {
                    next_rank += 1;
                }
                self.table.rank[level[i].1.index()] = next_rank;
            }
            next_rank += 1;
        }
        self.table.order = order;
    }

    /// The content-smallest of class `id`'s minimum-cost nodes, by
    /// position — `None` to let the solve()'s choice stand.
    fn tie_winner(&self, id: Id, cost: u64) -> Option<u32> {
        let nodes = &self.egraph.class(id).nodes;
        if nodes.len() <= 1 {
            return None; // nothing to tie-break, table entry is already it
        }
        let mut winner: Option<(usize, &L)> = None;
        for (at, node) in nodes.iter().enumerate() {
            if self.node_cost(node) != Some(cost) {
                continue;
            }
            // The determinism argument needs strict monotonicity: a
            // min-cost node's children must already be finalized, i.e.
            // strictly cheaper than this class. Nodes violating it
            // (possible only under non-monotone cost functions, e.g.
            // zero own-cost nodes — where a node can even be its own
            // descendant) are skipped so the pass never installs a
            // representative extraction could cycle through; if no
            // node qualifies, the solve() winner stands.
            let child_cost = |&c: &Id| self.table.entry(self.egraph.find(c));
            if !(node.children().iter()).all(|c| child_cost(c).is_some_and(|(cc, _)| cc < cost)) {
                continue;
            }
            if winner.is_none_or(|(_, w)| self.cmp_nodes(node, w, cost) == Ordering::Less) {
                winner = Some((at, node));
            }
        }
        winner.map(|(at, _)| at as u32)
    }

    /// Content order on two nodes of one class, or the representatives of
    /// two classes, of cost `limit`: operator key (a content-only payload
    /// digest — deterministic across graphs, unlike e-class ids), then
    /// arity, then children pairwise by [`WorklistExtractor::cmp_classes`].
    fn cmp_nodes(&self, a: &L, b: &L, limit: u64) -> Ordering {
        self.cmp_content((a.op_key(), a), (b.op_key(), b), limit)
    }

    /// [`WorklistExtractor::cmp_nodes`] on the representatives of classes
    /// `a` and `b`, both of cost `limit`.
    fn cmp_reps(&self, a: Id, b: Id, limit: u64) -> Ordering {
        let keyed = |id: Id| (self.table.rep_key[id.index()], self.chosen(id));
        self.cmp_content(keyed(a), keyed(b), limit)
    }

    fn cmp_content(&self, (ka, a): (u64, &L), (kb, b): (u64, &L), limit: u64) -> Ordering {
        ka.cmp(&kb)
            .then(a.children().len().cmp(&b.children().len()))
            .then_with(|| {
                let pairs = a.children().iter().zip(b.children());
                pairs
                    .map(|(&ca, &cb)| self.cmp_classes(ca, cb, limit))
                    .find(|&ord| ord != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            })
    }

    /// Content order on two classes, as children of nodes of cost `limit`:
    /// best cost first, then — for classes strictly cheaper than `limit`,
    /// whose levels are final — their ranks, which stand for the recursive
    /// comparison of their representatives. Under a non-monotone cost
    /// function a child can cost as much as its parent; such classes are
    /// not ranked yet and compare `Equal` beyond their cost (no content
    /// guarantee there, which is documented to require monotonicity);
    /// under monotone ones the gate never triggers.
    fn cmp_classes(&self, a: Id, b: Id, limit: u64) -> Ordering {
        let (a, b) = (self.egraph.find(a), self.egraph.find(b));
        if a == b {
            return Ordering::Equal;
        }
        match (self.table.entry(a), self.table.entry(b)) {
            (Some((ca, _)), Some((cb, _))) => ca.cmp(&cb).then_with(|| {
                if ca >= limit {
                    Ordering::Equal
                } else {
                    self.table.rank[a.index()].cmp(&self.table.rank[b.index()])
                }
            }),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        }
    }

    /// Best cost for a class, if any term is constructible.
    #[must_use]
    pub fn cost_of(&self, id: Id) -> Option<u64> {
        self.table.entry(self.egraph.find(id)).map(|(c, _)| c)
    }

    /// Extracts the best term rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    #[must_use]
    pub fn extract(&self, id: Id) -> RecExpr<L> {
        // A readout that panicked released the borrow as it unwound, and
        // this one begins by resetting the memo, so it is sound.
        let mut memo = self.memo.borrow_mut();
        memo.begin(self.egraph.id_bound());
        let mut out = RecExpr::new();
        let root = self.read_out(id, &mut out, &mut memo);
        debug_assert_eq!(root, out.root_id());
        out
    }

    /// Appends the best term for `id` to `out`, sharing nothing across
    /// readouts (each re-walks the chosen sub-dag; `memo`, keyed by class
    /// id, keeps it from walking a shared subterm twice).
    fn read_out(&self, id: Id, out: &mut RecExpr<L>, memo: &mut StampedMemo) -> Id {
        let id = self.egraph.find(id);
        if let Some(done) = memo.get(id.index()) {
            // RecExpr is append-only, and children must reference earlier
            // nodes, so a memoized position stays valid.
            return done;
        }
        let node = (self.chosen(id)).map_children(|c| self.read_out(c, out, memo));
        let new_id = out.add(node);
        memo.set(id.index(), new_id);
        new_id
    }
}

impl<L: Language, N: Analysis<L>, C: CostFunction<L>> Extract<L>
    for WorklistExtractor<'_, L, N, C>
{
    fn cost_of(&self, id: Id) -> Option<u64> {
        WorklistExtractor::cost_of(self, id)
    }

    fn extract(&self, id: Id) -> RecExpr<L> {
        WorklistExtractor::extract(self, id)
    }

    fn stats(&self) -> ExtractionStats {
        ExtractionStats {
            table_entries: self.table.entries,
            reused_readouts: 0,
        }
    }
}

/// The name `benchmark/`'s staged path constructs on batched graphs; the
/// same extractor. Goes with ROADMAP 2(iii).
pub type SharedTableExtractor<'a, L, N, C> = WorklistExtractor<'a, L, N, C>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, pdiv, pmul, pvar, Math};
    use crate::rewrite::Rewrite;
    use crate::schedule::{Budget, Runner};

    type EG = EGraph<Math, ()>;

    #[test]
    fn extracts_smallest_term_after_saturation() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));
        let rules = vec![
            Rewrite::rewrite(
                "assoc",
                pdiv(pmul(pvar("a"), pvar("b")), pvar("c")),
                pmul(pvar("a"), pdiv(pvar("b"), pvar("c"))),
            ),
            Rewrite::rewrite("div-self", pdiv(n(2), n(2)), n(1)),
            Rewrite::rewrite("mul-one", pmul(pvar("a"), n(1)), pvar("a")),
        ];
        Runner::default().run_to_fixpoint(&mut eg, &rules, Budget::none());
        let ex = WorklistExtractor::new(&eg, AstSize);
        assert_eq!(ex.cost_of(d), Some(1));
        assert_eq!(ex.extract(d).to_sexp(), "a");
    }

    #[test]
    fn custom_costs_change_the_winner() {
        // mul is free, shl costs 10: prefer  a * 2  over  a << 1.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let one = eg.add(Math::Num(1));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let s = eg.add(Math::Shl([a, one]));
        eg.union(m, s);
        eg.rebuild();
        let ex = WorklistExtractor::new(
            &eg,
            FnCost(|node: &Math| match node {
                Math::Shl(_) => 10,
                _ => 1,
            }),
        );
        assert_eq!(ex.extract(m).to_sexp(), "(* a 2)");
        // And the opposite weighting picks the shift.
        let ex2 = WorklistExtractor::new(
            &eg,
            FnCost(|node: &Math| match node {
                Math::Mul(_) => 10,
                _ => 1,
            }),
        );
        assert_eq!(ex2.extract(m).to_sexp(), "(<< a 1)");
    }

    #[test]
    fn shared_subterms_extract_once() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Add([m, m]));
        let ex = WorklistExtractor::new(&eg, AstSize);
        let term = ex.extract(d);
        // a, 2, (* a 2), (+ ..): sharing keeps the node count at 4.
        assert_eq!(term.len(), 4);
        assert_eq!(term.to_sexp(), "(+ (* a 2) (* a 2))");
    }

    #[test]
    fn cyclic_classes_are_skipped() {
        // Create x = f(x) by unioning; extraction must still work via the
        // leaf member of the class.
        let mut eg = EG::new();
        let x = eg.add(Math::Sym("x".into()));
        let one = eg.add(Math::Num(1));
        let fx = eg.add(Math::Mul([x, one]));
        eg.union(x, fx);
        eg.rebuild();
        let ex = WorklistExtractor::new(&eg, AstSize);
        assert_eq!(ex.extract(x).to_sexp(), "x");
    }

    #[test]
    fn a_panicked_readout_leaves_the_extractor_usable() {
        // No graph built through `add`/`union` holds a class without a
        // constructible term, so take one class's table entry away.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([a, two]));
        let r = eg.add(Math::Add([d, m]));
        let mut ex = WorklistExtractor::new(&eg, AstSize);
        ex.table.best[m.index()].1 = NONE;
        // The readout memoizes `d` before `m` panics.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.extract(r)));
        assert!(panicked.is_err(), "a root over a term-less class panics");
        assert_eq!(ex.extract(d).to_sexp(), "(/ a 2)");
        assert_eq!(ex.extract(two).to_sexp(), "2");
    }

    #[test]
    fn deep_terms_saturate_instead_of_overflowing() {
        // A 64-deep chain where every node claims half the u64 range: any
        // unchecked summation would overflow (and panic in debug builds);
        // the saturating fold must settle at u64::MAX.
        let mut eg = EG::new();
        let mut cur = eg.add(Math::Sym("x".into()));
        let one = eg.add(Math::Num(1));
        for _ in 0..64 {
            cur = eg.add(Math::Mul([cur, one]));
        }
        let ex = WorklistExtractor::new(&eg, FnCost(|_: &Math| u64::MAX / 2));
        assert_eq!(ex.cost_of(cur), Some(u64::MAX));
        // AstSize on a deep-but-cheap chain stays exact: 2 nodes per level
        // plus the root symbol as a tree (the shared `1` is re-charged per
        // level).
        let sized = WorklistExtractor::new(&eg, AstSize);
        assert_eq!(sized.cost_of(cur), Some(129));
    }

    #[test]
    fn extracts_through_the_trait_object() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let ex: Box<dyn Extract<Math> + '_> = Box::new(WorklistExtractor::new(&eg, AstSize));
        assert_eq!(ex.cost_of(m), Some(3));
        assert_eq!(ex.extract(m).to_sexp(), "(* a 2)");
        assert_eq!(ex.stats().table_entries, 3);
        assert_eq!(ex.stats().reused_readouts, 0);
    }
}
