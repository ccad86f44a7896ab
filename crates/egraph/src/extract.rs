//! Cost-based extraction of the optimal term from an e-graph — a pluggable
//! strategy API.
//!
//! The paper's cost model (§III-D3) is AST size — instruction selection under
//! a user-given schedule is "hit or miss", so smaller terms (which use the
//! coarse accelerator intrinsics) always win. Extraction is nonetheless
//! generic twice over: over a [`CostFunction`] (what a node costs) and over an
//! [`Extract`] strategy (how the e-graph is solved and read out). Three
//! strategies ship with the engine:
//!
//! * [`WorklistExtractor`] — the reference bottom-up tree-cost solver with
//!   content-deterministic tie-breaks. One cost table, per-root readouts that
//!   each re-walk the chosen sub-dag.
//! * [`SharedTableExtractor`] — the same cost table (identical choices,
//!   byte-identical terms), but readouts go through a shared **term bank**:
//!   the first root to touch a class materializes its chosen node once, and
//!   every later root — in a multi-root suite graph — copies it out of the
//!   bank instead of re-deriving it. This is the batched/suite mode's
//!   extractor: with hundreds of roots sharing one saturated graph, per-root
//!   readout cost drops to an arena copy.
//! * [`DagCostExtractor`] — a genuinely different cost *semantics*: shared
//!   subterms are charged **once** per readout dag rather than once per use,
//!   which models CSE-performing backends and flips winners on unrolled
//!   workloads where a slightly larger term with heavy internal sharing beats
//!   a smaller tree without it.
//!
//! All three implement the object-safe [`Extract`] trait (solve costs at
//! construction, then `cost_of`/`extract` readouts plus [`ExtractionStats`]
//! counters), which is what lets the selector treat the strategy as a
//! session-level plug-in.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::egraph::{Analysis, EGraph};
use crate::hash::{FastMap, FastSet};
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

/// Counters an extraction strategy reports about its own work, surfaced by
/// the selector's `ExtractionReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Strategy name (`"worklist"`, `"shared-table"`, `"dag-cost"`).
    pub strategy: &'static str,
    /// Classes with a settled cost-table entry.
    pub table_entries: usize,
    /// Nodes materialized in the shared term bank (0 for strategies without
    /// one).
    pub bank_nodes: usize,
    /// Readout lookups served from sub-dags banked by *earlier* readouts —
    /// the cross-root reuse the shared-table strategy exists for.
    /// Intra-root sharing is excluded (any strategy's per-root cache
    /// already memoizes it).
    pub reused_readouts: usize,
}

/// An extraction strategy: costs are solved once at construction, then any
/// root can be priced ([`Extract::cost_of`]) or read out
/// ([`Extract::extract`]) against the settled solution.
///
/// Object-safe, so pipeline drivers can hold `Box<dyn Extract<L> + '_>` and
/// make the strategy a runtime plug-in.
pub trait Extract<L: Language> {
    /// Best cost for a class, if any term is constructible.
    fn cost_of(&self, id: Id) -> Option<u64>;

    /// Extracts the best term rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    fn extract(&self, id: Id) -> RecExpr<L>;

    /// Counters describing the work done so far (table size, bank reuse).
    fn stats(&self) -> ExtractionStats;
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
    best: FastMap<Id, (u64, L)>,
}

/// The pre-strategy-API name of [`WorklistExtractor`].
#[deprecated(
    since = "0.3.0",
    note = "use WorklistExtractor (or another Extract strategy) directly"
)]
pub type Extractor<'a, L, N, C> = WorklistExtractor<'a, L, N, C>;

impl<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> WorklistExtractor<'a, L, N, C> {
    /// Builds the cost table (worklist propagation over classes).
    #[must_use]
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: C) -> Self {
        let mut ex = WorklistExtractor {
            egraph,
            cost_fn,
            best: FastMap::default(),
        };
        ex.solve();
        ex.canonicalize_ties();
        ex
    }

    /// The best (cost, node) for one class under the current table: the
    /// *first* minimum-cost feasible node in the class's (sorted) node
    /// list. Depending only on the table contents — never on visit order —
    /// keeps equal-cost tie-breaks deterministic across runs.
    fn best_of(&self, id: Id) -> Option<(u64, L)> {
        let class = self.egraph.class(id);
        let mut winner: Option<(u64, L)> = None;
        for node in &class.nodes {
            let mut feasible = true;
            let best = &self.best;
            let cost = self.cost_fn.cost(node, &mut |cid| {
                let cid = self.egraph.find(cid);
                match best.get(&cid) {
                    Some((c, _)) => *c,
                    None => {
                        feasible = false;
                        u64::MAX / 4
                    }
                }
            });
            if !feasible {
                continue;
            }
            if winner.as_ref().is_none_or(|(w, _)| cost < *w) {
                winner = Some((cost, node.clone()));
            }
        }
        winner
    }

    fn solve(&mut self) {
        // Parent index over canonical ids: child class -> classes holding a
        // node with that child (the edges improvements propagate along).
        let mut parents: FastMap<Id, Vec<Id>> = FastMap::default();
        for class in self.egraph.classes() {
            let cid = self.egraph.find(class.id);
            for node in &class.nodes {
                for &child in node.children() {
                    parents
                        .entry(self.egraph.find(child))
                        .or_default()
                        .push(cid);
                }
            }
        }
        for row in parents.values_mut() {
            row.sort_unstable();
            row.dedup();
        }
        let mut queue = VecDeque::from(self.egraph.sorted_class_ids());
        let mut queued: FastSet<Id> = queue.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            queued.remove(&id);
            let Some((cost, node)) = self.best_of(id) else {
                continue;
            };
            match self.best.get(&id) {
                // Cost unchanged: keep the canonical (first-in-node-list)
                // winner but don't re-propagate.
                Some((old, old_node)) if *old == cost => {
                    if *old_node != node {
                        self.best.insert(id, (cost, node));
                    }
                }
                Some((old, _)) if *old < cost => {}
                _ => {
                    self.best.insert(id, (cost, node));
                    for &parent in parents.get(&id).map(Vec::as_slice).unwrap_or_default() {
                        if queued.insert(parent) {
                            queue.push_back(parent);
                        }
                    }
                }
            }
        }
    }

    /// Cost of one node under the settled table, or `None` if a child has
    /// no constructible term.
    fn node_cost(&self, node: &L) -> Option<u64> {
        let mut feasible = true;
        let best = &self.best;
        let egraph = self.egraph;
        let cost = self
            .cost_fn
            .cost(node, &mut |cid| match best.get(&egraph.find(cid)) {
                Some((c, _)) => *c,
                None => {
                    feasible = false;
                    u64::MAX / 4
                }
            });
        feasible.then_some(cost)
    }

    /// Re-picks each class's representative among its minimum-cost nodes by
    /// content order (see the type docs). Classes are finalized in
    /// ascending cost order: any cost function whose nodes cost strictly
    /// more than their children (true of [`AstSize`] and everything built
    /// on additive positive weights) then guarantees a node's children are
    /// already final when the node is compared.
    fn canonicalize_ties(&mut self) {
        let mut order: Vec<(u64, Id)> = self.best.iter().map(|(&id, &(c, _))| (c, id)).collect();
        order.sort_unstable();
        // Class-vs-class orderings recur under every tied parent; memoize
        // them across the pass.
        let mut memo: FastMap<(Id, Id), std::cmp::Ordering> = FastMap::default();
        for (cost, id) in order {
            let class = self.egraph.class(id);
            if class.nodes.len() <= 1 {
                continue; // nothing to tie-break, table entry is already it
            }
            let mut winner: Option<L> = None;
            for node in &class.nodes {
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
                if !node.children().iter().all(|&c| {
                    self.best
                        .get(&self.egraph.find(c))
                        .is_some_and(|(child_cost, _)| *child_cost < cost)
                }) {
                    continue;
                }
                let better = match &winner {
                    None => true,
                    Some(w) => self.cmp_nodes(node, w, cost, &mut memo) == std::cmp::Ordering::Less,
                };
                if better {
                    winner = Some(node.clone());
                }
            }
            if let Some(node) = winner {
                self.best.insert(id, (cost, node));
            }
        }
    }

    /// Content order on two nodes of the same class (or of classes already
    /// compared equal): operator key (a content-only payload digest —
    /// deterministic across graphs, unlike e-class ids), then arity, then
    /// children pairwise by their canonical representatives. `limit` is
    /// the cost of the class the nodes belong to; comparisons only descend
    /// into strictly cheaper classes (see [`WorklistExtractor::cmp_classes`]).
    fn cmp_nodes(
        &self,
        a: &L,
        b: &L,
        limit: u64,
        memo: &mut FastMap<(Id, Id), std::cmp::Ordering>,
    ) -> std::cmp::Ordering {
        a.op_key()
            .cmp(&b.op_key())
            .then(a.children().len().cmp(&b.children().len()))
            .then_with(|| {
                for (&ca, &cb) in a.children().iter().zip(b.children()) {
                    let ord = self.cmp_classes(ca, cb, limit, memo);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            })
    }

    /// Content order on two classes: best cost first, then the canonical
    /// representatives recursively. Descent is gated on the classes being
    /// strictly cheaper than `limit` (the cost of the class whose nodes
    /// are being compared), so every recursion strictly decreases the
    /// cost and terminates even under a non-monotone cost function —
    /// where a solve()-installed representative may reference equal-cost
    /// classes cyclically. Under such functions equal-cost chains compare
    /// `Equal` here (no content guarantee, which is documented to require
    /// monotonicity); under monotone ones the gate never triggers.
    fn cmp_classes(
        &self,
        a: Id,
        b: Id,
        limit: u64,
        memo: &mut FastMap<(Id, Id), std::cmp::Ordering>,
    ) -> std::cmp::Ordering {
        let a = self.egraph.find(a);
        let b = self.egraph.find(b);
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        if let Some(&ord) = memo.get(&(a, b)) {
            return ord;
        }
        let ord = match (self.best.get(&a), self.best.get(&b)) {
            (Some((ca, na)), Some((cb, nb))) => ca.cmp(cb).then_with(|| {
                if *ca >= limit {
                    std::cmp::Ordering::Equal
                } else {
                    self.cmp_nodes(na, nb, *ca, memo)
                }
            }),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        };
        memo.insert((a, b), ord);
        memo.insert((b, a), ord.reverse());
        ord
    }

    /// Best cost for a class, if any term is constructible.
    #[must_use]
    pub fn cost_of(&self, id: Id) -> Option<u64> {
        self.best.get(&self.egraph.find(id)).map(|(c, _)| *c)
    }

    /// Extracts the best term rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    #[must_use]
    pub fn extract(&self, id: Id) -> RecExpr<L> {
        extract_from_table(self.egraph, &self.best, id)
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
            strategy: "worklist",
            table_entries: self.best.len(),
            bank_nodes: 0,
            reused_readouts: 0,
        }
    }
}

/// Reads the best term for `id` out of a settled `class -> (cost, node)`
/// table, sharing nothing across calls (each readout re-walks the chosen
/// sub-dag with its own memo).
fn extract_from_table<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    table: &FastMap<Id, (u64, L)>,
    id: Id,
) -> RecExpr<L> {
    let mut out = RecExpr::new();
    let mut cache: FastMap<Id, Id> = FastMap::default();
    let root = extract_into(egraph, table, id, &mut out, &mut cache);
    debug_assert_eq!(root, out.root_id());
    out
}

fn extract_into<L: Language, N: Analysis<L>>(
    egraph: &EGraph<L, N>,
    table: &FastMap<Id, (u64, L)>,
    id: Id,
    out: &mut RecExpr<L>,
    cache: &mut FastMap<Id, Id>,
) -> Id {
    let id = egraph.find(id);
    if let Some(&done) = cache.get(&id) {
        // Re-add the cached subtree's root? RecExpr is append-only, and
        // children must reference earlier nodes, so a cached index stays
        // valid.
        return done;
    }
    let (_, node) = table
        .get(&id)
        .unwrap_or_else(|| panic!("no constructible term for {id}"));
    let child_ids: Vec<Id> = node
        .children()
        .iter()
        .map(|&c| extract_into(egraph, table, c, out, cache))
        .collect();
    let mut k = 0;
    let remapped = node.map_children(|_| {
        let cid = child_ids[k];
        k += 1;
        cid
    });
    let new_id = out.add(remapped);
    cache.insert(id, new_id);
    new_id
}

/// The shared term bank behind [`SharedTableExtractor`]: each class's chosen
/// node is materialized (children remapped to bank slots) at most once, on
/// the first readout that reaches it; later readouts copy.
#[derive(Debug)]
struct TermBank<L> {
    /// Materialized nodes; children reference earlier bank slots.
    nodes: Vec<L>,
    /// Canonical class → bank slot.
    slot: FastMap<Id, Id>,
    /// Lookups served from sub-dags banked by **earlier** readouts — the
    /// cross-root reuse the bank exists for. Hits on slots created within
    /// the current readout are not counted: that intra-root sharing is
    /// memoized by any strategy's per-root cache.
    reused: usize,
    /// Readout memo, reused across readouts: `copy_memo[s]` is valid for
    /// the current readout iff `copy_gen[s] == gen`. Generation stamping
    /// beats a fresh (bank-sized) memo per root — terms are usually much
    /// smaller than the bank.
    copy_memo: Vec<Id>,
    copy_gen: Vec<u32>,
    gen: u32,
}

impl<L: Language> TermBank<L> {
    fn new() -> Self {
        TermBank {
            nodes: Vec::new(),
            slot: FastMap::default(),
            reused: 0,
            copy_memo: Vec::new(),
            copy_gen: Vec::new(),
            gen: 0,
        }
    }

    /// Materializes the chosen sub-dag of `id` into the bank (memoized
    /// across every readout of this extractor) and returns its slot.
    /// `preexisting` is the bank size when the current readout started;
    /// only hits below it count as cross-root reuse.
    fn ensure<N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        table: &FastMap<Id, (u64, L)>,
        id: Id,
        preexisting: usize,
    ) -> Id {
        let id = egraph.find(id);
        if let Some(&slot) = self.slot.get(&id) {
            if (slot.0 as usize) < preexisting {
                self.reused += 1;
            }
            return slot;
        }
        let (_, node) = table
            .get(&id)
            .unwrap_or_else(|| panic!("no constructible term for {id}"));
        let node = node.clone();
        let child_slots: Vec<Id> = node
            .children()
            .iter()
            .map(|&c| self.ensure(egraph, table, c, preexisting))
            .collect();
        let mut k = 0;
        let remapped = node.map_children(|_| {
            let s = child_slots[k];
            k += 1;
            s
        });
        let slot = Id(u32::try_from(self.nodes.len()).expect("term bank overflow"));
        self.nodes.push(remapped);
        self.slot.insert(id, slot);
        slot
    }

    /// Starts a new readout: bumps the memo generation and sizes the memo
    /// to the bank (growth only — existing stamps stay valid-by-absence).
    fn begin_readout(&mut self) {
        if self.gen == u32::MAX {
            // Practically unreachable; keep the stamp sound anyway.
            self.gen = 0;
            self.copy_gen.iter_mut().for_each(|g| *g = u32::MAX);
        }
        self.gen += 1;
        self.copy_memo.resize(self.nodes.len(), Id(0));
        self.copy_gen
            .resize(self.nodes.len(), self.gen.wrapping_sub(1));
    }
}

/// Copies the banked sub-dag at `slot` into a fresh [`RecExpr`]. The
/// traversal is the same children-first first-visit DFS as
/// [`extract_into`], so the emitted node sequence — and therefore the
/// term — is byte-identical to a direct table readout; but unlike a table
/// readout it needs no union-find chasing and no hashing — the memo is a
/// dense slot-indexed table validated by generation stamp, which is what
/// makes warm readouts cheap.
fn copy_from_bank<L: Language>(
    nodes: &[L],
    slot: Id,
    out: &mut RecExpr<L>,
    memo: &mut [Id],
    stamps: &mut [u32],
    gen: u32,
) -> Id {
    let i = slot.0 as usize;
    if stamps[i] == gen {
        return memo[i];
    }
    let node = &nodes[i];
    let child_ids: Vec<Id> = node
        .children()
        .iter()
        .map(|&c| copy_from_bank(nodes, c, out, memo, stamps, gen))
        .collect();
    let mut k = 0;
    let remapped = node.map_children(|_| {
        let cid = child_ids[k];
        k += 1;
        cid
    });
    let new_id = out.add(remapped);
    memo[i] = new_id;
    stamps[i] = gen;
    new_id
}

/// Shared-table extraction for multi-root (batched/suite) graphs: one cost
/// table — the same [`WorklistExtractor`] solve, so node choices and output
/// terms are **byte-identical** — plus a term bank that materializes each
/// class's chosen node once across *all* readouts. The per-root recompute of
/// shared sub-dags, which dominates the extract stage when hundreds of suite
/// roots read out of one saturated graph, becomes a memoized arena copy.
///
/// `extract` takes `&self`; the bank lives behind a [`RefCell`] (readouts
/// are not re-entrant, which a `&self`-recursive readout cannot be anyway).
pub struct SharedTableExtractor<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> {
    table: WorklistExtractor<'a, L, N, C>,
    bank: RefCell<TermBank<L>>,
}

impl<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> SharedTableExtractor<'a, L, N, C> {
    /// Solves the cost table (identically to [`WorklistExtractor::new`])
    /// and prepares an empty bank.
    #[must_use]
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: C) -> Self {
        SharedTableExtractor {
            table: WorklistExtractor::new(egraph, cost_fn),
            bank: RefCell::new(TermBank::new()),
        }
    }

    /// Best cost for a class, if any term is constructible.
    #[must_use]
    pub fn cost_of(&self, id: Id) -> Option<u64> {
        self.table.cost_of(id)
    }

    /// Extracts the best term rooted at `id`, reusing every sub-dag any
    /// earlier readout already materialized.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    #[must_use]
    pub fn extract(&self, id: Id) -> RecExpr<L> {
        let mut bank = self.bank.borrow_mut();
        let preexisting = bank.nodes.len();
        let slot = bank.ensure(self.table.egraph, &self.table.best, id, preexisting);
        bank.begin_readout();
        let TermBank {
            nodes,
            copy_memo,
            copy_gen,
            gen,
            ..
        } = &mut *bank;
        let mut out = RecExpr::new();
        let root = copy_from_bank(nodes, slot, &mut out, copy_memo, copy_gen, *gen);
        debug_assert_eq!(root, out.root_id());
        out
    }
}

impl<L: Language, N: Analysis<L>, C: CostFunction<L>> Extract<L>
    for SharedTableExtractor<'_, L, N, C>
{
    fn cost_of(&self, id: Id) -> Option<u64> {
        SharedTableExtractor::cost_of(self, id)
    }

    fn extract(&self, id: Id) -> RecExpr<L> {
        SharedTableExtractor::extract(self, id)
    }

    fn stats(&self) -> ExtractionStats {
        let bank = self.bank.borrow();
        ExtractionStats {
            strategy: "shared-table",
            table_entries: self.table.best.len(),
            bank_nodes: bank.nodes.len(),
            reused_readouts: bank.reused,
        }
    }
}

/// DAG-cost extraction: the cost of a readout is the sum of its **distinct**
/// nodes' own costs — a subterm used five times is charged once, as a
/// CSE-performing backend would execute it. Under tree cost, `f(x, x)` pays
/// for `x` twice and loses to a marginally smaller unshared term; under dag
/// cost it wins, which is the right call on unrolled loop bodies full of
/// repeated index algebra.
///
/// A node's *own* cost is obtained from the [`CostFunction`] by folding
/// zero-cost children (`cost(node, |_| 0)`), so any existing cost model
/// works unchanged.
///
/// The solve is two-phase and deterministic:
///
/// 1. the [`WorklistExtractor`] tree table settles (content-canonical
///    choices — the baseline every class starts from);
/// 2. classes are finalized in ascending tree-cost order; each class
///    re-picks, among its nodes whose children are all **strictly cheaper**
///    (tree cost) than the class itself, the node minimizing the dag cost
///    of `{class} ∪ children's chosen dags`. The strict-descent gate makes
///    every chosen dag acyclic by construction and guarantees children are
///    final before parents ask for their dags. Ties keep the tree-canonical
///    incumbent; classes where no node passes the gate (possible only under
///    non-monotone cost functions) keep their tree choice, priced at tree
///    cost.
///
/// Unlike the other two strategies, dag cost is a different optimization
/// objective: extracted terms may legitimately differ from the worklist
/// output, and the greedy per-class finalization is a heuristic (globally
/// optimal dag extraction is NP-hard). Candidate evaluation merges the
/// children's class sets — O(sub-dag size) per candidate with per-class
/// charges cached — which is fine at selector scale (thousands of
/// classes) but makes this the most expensive of the three strategies on
/// very large graphs.
pub struct DagCostExtractor<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> {
    tree: WorklistExtractor<'a, L, N, C>,
    /// Canonical class → (dag cost, chosen node).
    dag: FastMap<Id, (u64, L)>,
    /// Canonical class → sorted classes in its chosen dag (incl. itself).
    sets: FastMap<Id, Vec<Id>>,
    /// Canonical class → what a parent dag pays for including it: the
    /// chosen node's own cost normally, or the full tree cost for
    /// fallback classes, whose `sets` entry is *opaque* (just the class
    /// itself — charging only an own cost there would silently drop the
    /// whole subtree from parents' accounting). Also a cache: the cost
    /// function runs once per class, not once per set membership.
    charges: FastMap<Id, u64>,
}

impl<'a, L: Language, N: Analysis<L>, C: CostFunction<L>> DagCostExtractor<'a, L, N, C> {
    /// Solves the tree table, then finalizes dag choices bottom-up.
    #[must_use]
    pub fn new(egraph: &'a EGraph<L, N>, cost_fn: C) -> Self {
        let mut ex = DagCostExtractor {
            tree: WorklistExtractor::new(egraph, cost_fn),
            dag: FastMap::default(),
            sets: FastMap::default(),
            charges: FastMap::default(),
        };
        ex.solve();
        ex
    }

    /// The node's own cost: the cost function folded over zero-cost
    /// children.
    fn own_cost(&self, node: &L) -> u64 {
        self.tree.cost_fn.cost(node, &mut |_| 0)
    }

    /// Evaluates one candidate node for `cid`: `None` if any child is
    /// infeasible or not strictly cheaper (tree cost) than `limit`;
    /// otherwise the dag cost and the merged class set.
    fn dag_candidate(&self, cid: Id, node: &L, limit: u64) -> Option<(u64, Vec<Id>)> {
        let mut set: Vec<Id> = vec![cid];
        for &child in node.children() {
            let child = self.tree.egraph.find(child);
            let (child_tree_cost, _) = self.tree.best.get(&child)?;
            if *child_tree_cost >= limit {
                return None;
            }
            set.extend_from_slice(self.sets.get(&child)?);
        }
        set.sort_unstable();
        set.dedup();
        let mut cost = self.own_cost(node);
        for &d in &set {
            if d == cid {
                continue;
            }
            cost = cost.saturating_add(self.charges[&d]);
        }
        Some((cost, set))
    }

    fn solve(&mut self) {
        let mut order: Vec<(u64, Id)> = self
            .tree
            .best
            .iter()
            .map(|(&id, &(c, _))| (c, id))
            .collect();
        order.sort_unstable();
        for (tree_cost, id) in order {
            let tree_node = self.tree.best[&id].1.clone();
            // The tree-canonical winner is the incumbent; other nodes must
            // strictly beat it on dag cost, keeping ties deterministic and
            // aligned with the tree strategy's content order.
            let mut winner = self
                .dag_candidate(id, &tree_node, tree_cost)
                .map(|(cost, set)| (cost, tree_node.clone(), set));
            for node in &self.tree.egraph.class(id).nodes {
                if *node == tree_node {
                    continue;
                }
                let Some((cost, set)) = self.dag_candidate(id, node, tree_cost) else {
                    continue;
                };
                let better = match &winner {
                    None => true,
                    Some((w, _, _)) => cost < *w,
                };
                if better {
                    winner = Some((cost, node.clone(), set));
                }
            }
            match winner {
                Some((cost, node, set)) => {
                    self.charges.insert(id, self.own_cost(&node));
                    self.dag.insert(id, (cost, node));
                    self.sets.insert(id, set);
                }
                None => {
                    // Non-monotone fallback: keep the tree choice at tree
                    // cost with an opaque one-element set, and charge
                    // parents the *whole* tree cost — the set carries no
                    // subtree detail to share or double-count against.
                    self.charges.insert(id, tree_cost);
                    self.dag.insert(id, (tree_cost, tree_node));
                    self.sets.insert(id, vec![id]);
                }
            }
        }
    }

    /// Best dag cost for a class, if any term is constructible.
    #[must_use]
    pub fn cost_of(&self, id: Id) -> Option<u64> {
        self.dag.get(&self.tree.egraph.find(id)).map(|(c, _)| *c)
    }

    /// Extracts the dag-cheapest term rooted at `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no constructible term (cyclic-only class).
    #[must_use]
    pub fn extract(&self, id: Id) -> RecExpr<L> {
        extract_from_table(self.tree.egraph, &self.dag, id)
    }
}

impl<L: Language, N: Analysis<L>, C: CostFunction<L>> Extract<L> for DagCostExtractor<'_, L, N, C> {
    fn cost_of(&self, id: Id) -> Option<u64> {
        DagCostExtractor::cost_of(self, id)
    }

    fn extract(&self, id: Id) -> RecExpr<L> {
        DagCostExtractor::extract(self, id)
    }

    fn stats(&self) -> ExtractionStats {
        ExtractionStats {
            strategy: "dag-cost",
            table_entries: self.dag.len(),
            bank_nodes: 0,
            reused_readouts: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, pdiv, pmul, pvar, Math};
    use crate::rewrite::Rewrite;
    use crate::schedule::Runner;

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
        Runner::default().run_to_fixpoint(&mut eg, &rules);
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
    fn deprecated_extractor_alias_still_resolves() {
        #![allow(deprecated)]
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let ex: Extractor<'_, Math, (), AstSize> = Extractor::new(&eg, AstSize);
        assert_eq!(ex.cost_of(a), Some(1));
    }

    #[test]
    fn shared_table_readouts_are_byte_identical_and_reused() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let r1 = eg.add(Math::Add([m, m]));
        let r2 = eg.add(Math::Div([m, two]));
        let worklist = WorklistExtractor::new(&eg, AstSize);
        let shared = SharedTableExtractor::new(&eg, AstSize);
        for &root in &[r1, r2, m, a] {
            assert_eq!(worklist.cost_of(root), shared.cost_of(root));
            let w = worklist.extract(root);
            let s = shared.extract(root);
            assert_eq!(w.nodes(), s.nodes(), "readout diverged for {root}");
        }
        let stats = Extract::stats(&shared);
        assert_eq!(stats.strategy, "shared-table");
        // Bank holds each class's chosen node exactly once: a, 2, *, +, /.
        assert_eq!(stats.bank_nodes, 5);
        // Cross-root reuse only: r1 banks everything it needs (its intra-
        // root second use of `m` is not reuse the bank provides), then r2
        // re-hits m and 2, and the m and a readouts hit one each.
        assert_eq!(stats.reused_readouts, 4);
    }

    #[test]
    fn dag_cost_charges_shared_subterms_once() {
        // One class holding both  big + big  (a shared 3-node subterm) and
        // x / y  over two *distinct* 3-node subterms. Tree cost: the add is
        // 7, the div is 7 — the tie-break decides. Dag cost: the add's dag
        // is {+, big's 3 nodes} = 4, the div's is {/, 3, 3} = 7: the add
        // must win outright.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let big = eg.add(Math::Mul([a, two]));
        let add = eg.add(Math::Add([big, big]));
        let b = eg.add(Math::Sym("b".into()));
        let three = eg.add(Math::Num(3));
        let x = eg.add(Math::Mul([b, three]));
        let c = eg.add(Math::Sym("c".into()));
        let four = eg.add(Math::Num(4));
        let y = eg.add(Math::Mul([c, four]));
        let div = eg.add(Math::Div([x, y]));
        eg.union(add, div);
        eg.rebuild();
        let dag = DagCostExtractor::new(&eg, AstSize);
        assert_eq!(dag.cost_of(add), Some(4));
        assert_eq!(dag.extract(add).to_sexp(), "(+ (* a 2) (* a 2))");
        // The tree strategies are allowed to pick either (both cost 7);
        // dag cost is the genuinely different objective.
        let tree = WorklistExtractor::new(&eg, AstSize);
        assert_eq!(tree.cost_of(add), Some(7));
    }

    #[test]
    fn dag_fallback_classes_charge_parents_their_full_tree_cost() {
        // A non-monotone cost function (Mul and Num are free) makes the
        // strict-descent gate fail for  big = a * 0  (its child `a` costs
        // as much as the class), so `big` takes the fallback path with an
        // opaque one-element set. A parent including `big` must then be
        // charged big's whole tree cost — not just the free Mul node,
        // which would price  big + big  at 1 and shadow every real
        // alternative.
        let weigh = || {
            FnCost(|node: &Math| match node {
                Math::Sym(_) => 5,
                Math::Add(_) => 1,
                _ => 0,
            })
        };
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let zero = eg.add(Math::Num(0));
        let big = eg.add(Math::Mul([a, zero]));
        let add = eg.add(Math::Add([big, big]));
        let tree = WorklistExtractor::new(&eg, weigh());
        assert_eq!(tree.cost_of(big), Some(5));
        let dag = DagCostExtractor::new(&eg, weigh());
        // own(Add) + charge(big) = 1 + 5; the buggy accounting said 1.
        assert_eq!(dag.cost_of(add), Some(6));
        assert_eq!(dag.extract(add).to_sexp(), "(+ (* a 0) (* a 0))");
    }

    #[test]
    fn dag_cost_handles_cycles_and_trivial_graphs() {
        let mut eg = EG::new();
        let x = eg.add(Math::Sym("x".into()));
        let one = eg.add(Math::Num(1));
        let fx = eg.add(Math::Mul([x, one]));
        eg.union(x, fx);
        eg.rebuild();
        let dag = DagCostExtractor::new(&eg, AstSize);
        assert_eq!(dag.extract(x).to_sexp(), "x");
        assert_eq!(dag.cost_of(x), Some(1));
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
        let dag = DagCostExtractor::new(&eg, FnCost(|_: &Math| u64::MAX / 2));
        assert_eq!(dag.cost_of(cur), Some(u64::MAX));
        // AstSize on a deep-but-cheap chain stays exact: 2 nodes per level
        // plus the root symbol as a tree (the shared `1` is re-charged per
        // level), 66 distinct nodes as a dag.
        let sized = WorklistExtractor::new(&eg, AstSize);
        assert_eq!(sized.cost_of(cur), Some(129));
        let sized_dag = DagCostExtractor::new(&eg, AstSize);
        assert_eq!(sized_dag.cost_of(cur), Some(66));
    }

    #[test]
    fn strategies_agree_through_the_trait_object() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let strategies: Vec<Box<dyn Extract<Math> + '_>> = vec![
            Box::new(WorklistExtractor::new(&eg, AstSize)),
            Box::new(SharedTableExtractor::new(&eg, AstSize)),
            Box::new(DagCostExtractor::new(&eg, AstSize)),
        ];
        for ex in &strategies {
            assert_eq!(ex.cost_of(m), Some(3), "{}", ex.stats().strategy);
            assert_eq!(ex.extract(m).to_sexp(), "(* a 2)");
            assert_eq!(ex.stats().table_entries, 3);
        }
    }
}
