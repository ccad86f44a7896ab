//! The e-graph: hash-consed e-nodes grouped into equivalence classes,
//! with congruence maintained by explicit rebuilding (the egg algorithm).
//!
//! Performance machinery on top of the basic algorithm (see the crate docs
//! for the design):
//!
//! * an **operator index** (`op_key` → candidate classes) kept current
//!   through [`EGraph::add`] / [`EGraph::union`] / [`EGraph::rebuild`], so
//!   indexed e-matching visits only classes that can possibly match;
//! * **incremental rebuilding**: only classes dirtied by unions since the
//!   last rebuild have their node lists re-canonicalized;
//! * **op-keyed modification epochs**: every `(class, op_key)` row carries
//!   the epoch of the last change that could affect matches rooted at that
//!   class *through a node with that operator*. Changes propagate to
//!   transitive parents on rebuild, but each ancestor is stamped only in
//!   the rows of the parent-node operators the change actually flows
//!   through — so a union near a widely shared leaf does not mark every
//!   op row of every ancestor. Per-op append-only delta logs (compacted
//!   deterministically on rebuild) make "classes whose `k` rows changed
//!   since epoch `e`" an O(changes-to-`k`) query
//!   ([`EGraph::modified_candidates_for`]). A class-level epoch (the max
//!   over its rows) and a global log are kept alongside: they serve
//!   variable-rooted patterns, the scheduler's quiescence check, and the
//!   retained per-class read path
//!   ([`EGraph::modified_candidates_per_class`], the
//!   [`DeltaTracking::PerClass`] A/B baseline).

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::hash::{FastMap, FastSet};
use crate::language::{Language, RecExpr};
use crate::relation::Relations;
use crate::snapshot::{
    frame_payload, unframe_payload, SnapshotAnalysis, SnapshotError, SnapshotNode, SnapshotReader,
    SnapshotWriter,
};
use crate::unionfind::{Id, UnionFind};

/// Which change-tracking granularity a delta search reads.
///
/// Both granularities are maintained by every graph; this only selects the
/// read path. [`DeltaTracking::OpKeyed`] probes the per-`(class, op_key)`
/// rows — a pattern rooted at operator `k` re-probes only classes whose
/// `k` rows changed. [`DeltaTracking::PerClass`] is the pre-op-keying
/// behavior (any change to a class re-probes it for every root operator it
/// contains), retained as the A/B baseline the same way the naive matcher
/// is retained (`Runner::use_per_class_deltas`). Match sets are identical;
/// only the number of probed rows differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaTracking {
    /// Probe per-`(class, op_key)` rows (the default).
    #[default]
    OpKeyed,
    /// Probe per-class epochs intersected with the operator index — the
    /// pre-op-keying baseline.
    PerClass,
}

/// An e-class analysis: a lattice value maintained per e-class
/// (constants, types, …). See egg's `Analysis`.
pub trait Analysis<L: Language>: Sized {
    /// Per-class data.
    type Data: Clone + PartialEq + Debug;

    /// Computes the data for a single e-node whose children are canonical.
    fn make(egraph: &EGraph<L, Self>, enode: &L) -> Self::Data;

    /// Merges `b` into `a` when two classes are unified; returns whether `a`
    /// changed (triggering re-propagation to parents).
    fn merge(a: &mut Self::Data, b: Self::Data) -> bool;
}

/// The trivial analysis.
impl<L: Language> Analysis<L> for () {
    type Data = ();
    fn make(_: &EGraph<L, Self>, _: &L) -> Self::Data {}
    fn merge(_: &mut Self::Data, _: Self::Data) -> bool {
        false
    }
}

/// An equivalence class of e-nodes.
#[derive(Debug, Clone)]
pub struct EClass<L, D> {
    /// Canonical id of this class.
    pub id: Id,
    /// E-nodes in the class (children canonical as of the last rebuild).
    pub nodes: Vec<L>,
    /// Analysis data.
    pub data: D,
    /// Parent e-nodes (and the class they live in), possibly stale.
    parents: Vec<(L, Id)>,
    /// Epoch of the last change that could affect matches rooted here
    /// (directly or in a descendant — propagated on rebuild). The max over
    /// `op_epochs` rows.
    modified: u64,
    /// Per-operator modification rows: `(op_key, epoch)` where `epoch` is
    /// the last change that could affect matches rooted here *through a
    /// node with that operator*. Keys are exactly the distinct op keys of
    /// `nodes`; classes hold a handful of operators, so a linear scan
    /// beats hashing.
    op_epochs: Vec<(u64, u64)>,
}

impl<L, D> EClass<L, D> {
    /// Epoch of the last modification affecting matches rooted at this
    /// class. Valid after a rebuild; see [`EGraph::work_epoch`].
    #[must_use]
    pub fn modified_epoch(&self) -> u64 {
        self.modified
    }

    /// Epoch of the last modification affecting matches rooted at this
    /// class through a node with the given [`Language::op_key`], or `None`
    /// if the class holds no such node. Valid after a rebuild.
    #[must_use]
    pub fn op_modified_epoch(&self, key: u64) -> Option<u64> {
        self.op_epochs
            .iter()
            .find_map(|&(k, e)| (k == key).then_some(e))
    }

    /// Advances the `(class, key)` row to `epoch`; returns whether the row
    /// moved (callers log the change only then, keeping the per-op delta
    /// logs duplicate-light).
    fn bump_op_epoch(&mut self, key: u64, epoch: u64) -> bool {
        match self.op_epochs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, e)) => {
                if *e < epoch {
                    *e = epoch;
                    true
                } else {
                    false
                }
            }
            None => {
                self.op_epochs.push((key, epoch));
                true
            }
        }
    }

    /// Ids of classes containing a parent e-node of this class (possibly
    /// stale — canonicalize with [`EGraph::find`] before use).
    pub fn parent_classes(&self) -> impl Iterator<Item = Id> + '_ {
        self.parents.iter().map(|(_, id)| *id)
    }
}

/// The e-graph.
#[derive(Debug, Clone)]
pub struct EGraph<L: Language, N: Analysis<L> = ()> {
    unionfind: UnionFind,
    memo: FastMap<L, Id>,
    classes: FastMap<Id, EClass<L, N::Data>>,
    pending: Vec<(L, Id)>,
    analysis_pending: Vec<(L, Id)>,
    /// Datalog-style relations over e-class ids (egglog's `relation`s).
    pub relations: Relations,
    clean: bool,
    /// Operator index: `op_key` → classes containing a node with that key.
    /// Entries may be stale (non-canonical) or duplicated between rebuilds;
    /// readers canonicalize and dedup ([`EGraph::candidates_for`]).
    classes_by_op: FastMap<u64, Vec<Id>>,
    /// Op keys whose index rows need compaction on the next rebuild.
    dirty_ops: FastSet<u64>,
    /// Classes whose node lists need re-canonicalization on the next
    /// rebuild (union winners and classes containing parents of losers).
    dirty_classes: Vec<Id>,
    /// Classes stamped since the last rebuild, awaiting upward epoch
    /// propagation.
    touched: Vec<Id>,
    /// Append-only log of `(epoch, class)` modification events, epochs
    /// nondecreasing — the class-granular delta read path
    /// ([`EGraph::modified_since`], variable-rooted patterns, the
    /// quiescence check). Compacted on rebuild once it outgrows the class
    /// table.
    modified_log: Vec<(u64, Id)>,
    /// Per-operator append-only logs of `(epoch, class)` row-modification
    /// events, epochs nondecreasing within each log — the op-keyed delta
    /// read path ([`EGraph::modified_candidates_for`]). A class appears in
    /// log `k` when its `(class, k)` row was stamped: a `k`-node was added,
    /// a union merged `k`-nodes into it, or a change propagated up through
    /// a parent node with op `k`. Compacted deterministically on rebuild
    /// once a log outgrows its index row.
    modified_log_by_op: FastMap<u64, Vec<(u64, Id)>>,
    /// Monotone modification clock; see [`EGraph::bump_epoch`].
    work_epoch: u64,
    /// Whether any union happened since the last rebuild (gates relation
    /// canonicalization).
    unioned_since_rebuild: bool,
}

impl<L: Language, N: Analysis<L>> Default for EGraph<L, N> {
    fn default() -> Self {
        EGraph {
            unionfind: UnionFind::new(),
            memo: FastMap::default(),
            classes: FastMap::default(),
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            relations: Relations::default(),
            clean: true,
            classes_by_op: FastMap::default(),
            dirty_ops: FastSet::default(),
            dirty_classes: Vec::new(),
            touched: Vec::new(),
            modified_log: Vec::new(),
            modified_log_by_op: FastMap::default(),
            work_epoch: 1,
            unioned_since_rebuild: false,
        }
    }
}

impl<L: Language, N: Analysis<L>> EGraph<L, N> {
    /// Creates an empty e-graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical id for `id`.
    #[must_use]
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Number of e-classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of e-nodes across classes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.classes.values().map(|c| c.nodes.len()).sum()
    }

    /// Whether the graph has no classes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates over all e-classes.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, N::Data>> {
        self.classes.values()
    }

    /// Canonical ids of all e-classes, ascending — the deterministic
    /// enumeration order of every whole-graph scan.
    #[must_use]
    pub fn sorted_class_ids(&self) -> Vec<Id> {
        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The class with canonical id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn class(&self, id: Id) -> &EClass<L, N::Data> {
        let id = self.find(id);
        self.classes.get(&id).expect("unknown e-class id")
    }

    /// Analysis data of a class.
    #[must_use]
    pub fn data(&self, id: Id) -> &N::Data {
        &self.class(id).data
    }

    /// The current modification epoch. Classes created or modified from now
    /// on carry an epoch `>=` this value.
    #[must_use]
    pub fn work_epoch(&self) -> u64 {
        self.work_epoch
    }

    /// Advances the modification clock and returns the new epoch. A caller
    /// that records the returned value `e` and later asks for classes with
    /// `modified_epoch() >= e` sees exactly the classes (transitively)
    /// modified after the bump.
    pub fn bump_epoch(&mut self) -> u64 {
        self.work_epoch += 1;
        self.work_epoch
    }

    /// Canonical ids of classes that contain at least one e-node whose
    /// [`Language::op_key`] equals `key` — the operator index read path.
    /// Sorted and deduplicated.
    ///
    /// Zero-cost borrow: on a rebuilt graph every index row is already
    /// canonical (fresh `add`s append strictly increasing fresh ids; rows
    /// touched by unions are compacted during rebuild), so no per-query
    /// canonicalization is needed. Only valid on a clean graph, like every
    /// search entry point.
    #[must_use]
    pub fn candidates_for(&self, key: u64) -> &[Id] {
        debug_assert!(self.clean, "candidates_for requires a rebuilt e-graph");
        self.classes_by_op
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or_default()
    }

    /// Stamps `id` (which must be canonical) as modified now: the class
    /// epoch, and every one of its op rows. Called at union sites (the
    /// merged class's matches can change through any of its nodes —
    /// including cross-matcher root-id changes for ops that only one side
    /// contributed; `union` merges the loser's row keys into the winner
    /// first, so the rows cover the merged node list) and on analysis-data
    /// changes (guards may read the data under any root operator). Walks
    /// the existing rows, not the node list — O(distinct ops), no
    /// allocation.
    fn stamp(&mut self, id: Id) {
        let epoch = self.work_epoch;
        let Some(class) = self.classes.get_mut(&id) else {
            return;
        };
        class.modified = epoch;
        for &mut (key, ref mut row) in &mut class.op_epochs {
            if *row < epoch {
                *row = epoch;
                self.modified_log_by_op
                    .entry(key)
                    .or_default()
                    .push((epoch, id));
            }
        }
        self.touched.push(id);
        self.modified_log.push((epoch, id));
    }

    /// Canonical ids of classes (transitively) modified at or after
    /// `cutoff`, via the modification log — O(changes), not O(classes), so
    /// a delta probe over a saturated graph is free. May contain classes
    /// whose last modification is slightly older than `cutoff` (log entries
    /// are stamped at append time); such false positives only cost the
    /// matcher a probe.
    #[must_use]
    pub fn modified_since(&self, cutoff: u64) -> Vec<Id> {
        let start = self.modified_log.partition_point(|&(e, _)| e < cutoff);
        if start == self.modified_log.len() {
            return Vec::new();
        }
        let mut out: Vec<Id> = self.modified_log[start..]
            .iter()
            .map(|&(_, id)| self.find(id))
            .collect();
        out.sort_unstable();
        out.dedup();
        // No liveness filter needed: `find` maps every logged id to a
        // canonical root, and every root has a live class entry.
        out
    }

    /// Whether any class was (transitively) modified at or after `cutoff`.
    /// O(log changes) — the scheduler's cheap quiescence check.
    #[must_use]
    pub fn any_modified_since(&self, cutoff: u64) -> bool {
        self.modified_log.partition_point(|&(e, _)| e < cutoff) < self.modified_log.len()
    }

    /// Canonical ids of classes whose `(class, key)` rows were stamped at
    /// or after `cutoff` — the **op-keyed** delta-probe enumeration for a
    /// pattern rooted at that operator. Reads the per-op log tail, so the
    /// cost is O(changes to `key` rows), zero when that operator was
    /// untouched — a union in a region with no `key` activity no longer
    /// widens this probe. Sorted and deduplicated; may over-approximate
    /// like [`EGraph::modified_since`] (false positives cost the matcher a
    /// probe).
    #[must_use]
    pub fn modified_candidates_for(&self, key: u64, cutoff: u64) -> Vec<Id> {
        let Some(log) = self.modified_log_by_op.get(&key) else {
            return Vec::new();
        };
        let start = log.partition_point(|&(e, _)| e < cutoff);
        if start == log.len() {
            return Vec::new();
        }
        let mut out: Vec<Id> = log[start..].iter().map(|&(_, id)| self.find(id)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`EGraph::modified_since`] restricted to classes that contain a node
    /// with the given [`Language::op_key`] — the retained **per-class**
    /// delta-probe enumeration ([`DeltaTracking::PerClass`]): any change to
    /// a class re-surfaces it for every root operator it contains.
    /// Sorted-merge intersection of the global log tail with the operator
    /// index row; empty tail short-circuits to zero work. Always a
    /// superset of [`EGraph::modified_candidates_for`] at the same cutoff.
    #[must_use]
    pub fn modified_candidates_per_class(&self, key: u64, cutoff: u64) -> Vec<Id> {
        let tail = self.modified_since(cutoff);
        if tail.is_empty() {
            return tail;
        }
        let row: &[Id] = self.candidates_for(key);
        let mut out = Vec::with_capacity(tail.len().min(row.len()));
        let (mut i, mut j) = (0, 0);
        while i < tail.len() && j < row.len() {
            match tail[i].cmp(&row[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(tail[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    fn canonicalize(&self, node: &L) -> L {
        node.map_children(|c| self.find(c))
    }

    /// Canonicalization with path compression (for `&mut self` hot paths).
    fn canonicalize_mut(&mut self, node: &L) -> L {
        let uf = &mut self.unionfind;
        node.map_children(|c| uf.find_mut(c))
    }

    /// Looks up an e-node (children need not be canonical) without inserting.
    #[must_use]
    pub fn lookup(&self, node: &L) -> Option<Id> {
        let canon = self.canonicalize(node);
        self.memo.get(&canon).map(|&id| self.find(id))
    }

    /// Adds an e-node, returning the id of its class (hash-consed).
    pub fn add(&mut self, node: L) -> Id {
        let canon = self.canonicalize_mut(&node);
        if let Some(&existing) = self.memo.get(&canon) {
            return self.find(existing);
        }
        let id = self.unionfind.make_set();
        let data = N::make(self, &canon);
        for &child in canon.children() {
            let child = self.find(child);
            self.classes
                .get_mut(&child)
                .expect("child class must exist")
                .parents
                .push((canon.clone(), id));
        }
        let key = canon.op_key();
        self.classes.insert(
            id,
            EClass {
                id,
                nodes: vec![canon.clone()],
                data,
                parents: Vec::new(),
                modified: self.work_epoch,
                op_epochs: vec![(key, self.work_epoch)],
            },
        );
        self.classes_by_op.entry(key).or_default().push(id);
        self.modified_log.push((self.work_epoch, id));
        self.modified_log_by_op
            .entry(key)
            .or_default()
            .push((self.work_epoch, id));
        self.memo.insert(canon, id);
        id
    }

    /// Adds a whole term bottom-up; returns the id of the root's class.
    pub fn add_recexpr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let remapped = node.map_children(|c| ids[c.index()]);
            ids.push(self.add(remapped));
        }
        *ids.last().expect("cannot add an empty RecExpr")
    }

    /// Unions two classes; returns the surviving canonical id and whether
    /// anything changed. Requires a [`EGraph::rebuild`] before the next
    /// search (tracked by an internal dirty flag).
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.unionfind.find_mut(a);
        let b = self.unionfind.find_mut(b);
        if a == b {
            return (a, false);
        }
        self.clean = false;
        self.unioned_since_rebuild = true;
        // Keep the class with more parents as the winner to move less data.
        let (winner, loser) = {
            let pa = self.classes[&a].parents.len();
            let pb = self.classes[&b].parents.len();
            if pa >= pb {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind.union_roots(winner, loser);
        let loser_class = self.classes.remove(&loser).expect("loser class exists");
        // Loser's parents must be re-canonicalized and re-hashed, and the
        // classes holding those parent nodes re-canonicalized.
        self.pending.extend(loser_class.parents.iter().cloned());
        for &(_, parent_class) in &loser_class.parents {
            self.dirty_classes.push(parent_class);
        }
        // The loser's index rows now resolve to the winner; compact them on
        // the next rebuild.
        for node in &loser_class.nodes {
            self.dirty_ops.insert(node.op_key());
        }
        self.dirty_classes.push(winner);
        let winner_class = self.classes.get_mut(&winner).expect("winner class exists");
        winner_class.nodes.extend(loser_class.nodes);
        // Carry the loser's op rows over so the winner's row keys keep
        // covering its (now merged) node list; the stamp below then lifts
        // every row to the current epoch.
        for &(key, epoch) in &loser_class.op_epochs {
            winner_class.bump_op_epoch(key, epoch);
        }
        winner_class.parents.extend(loser_class.parents);
        let data_changed = N::merge(&mut winner_class.data, loser_class.data);
        if data_changed {
            self.analysis_pending
                .extend(self.classes[&winner].parents.iter().cloned());
        }
        self.stamp(winner);
        (winner, true)
    }

    /// Restores the congruence invariant and canonicalizes memo entries,
    /// class node lists and relation tuples. Must be called after a batch of
    /// unions before the next search.
    ///
    /// Incremental: only classes dirtied since the last rebuild (union
    /// winners, classes holding parents of union losers) have their node
    /// lists re-canonicalized; only index rows for operators touched by
    /// unions are compacted; relation tuples are only re-canonicalized when
    /// a union actually happened. A saturated rebuild is near-free.
    pub fn rebuild(&mut self) {
        while !self.pending.is_empty() || !self.analysis_pending.is_empty() {
            while let Some((node, cls)) = self.pending.pop() {
                let cls = self.unionfind.find_mut(cls);
                self.memo.remove(&node);
                let canon = self.canonicalize_mut(&node);
                if let Some(&other) = self.memo.get(&canon) {
                    let other = self.find(other);
                    if other != cls {
                        self.union(other, cls);
                    }
                } else {
                    self.memo.insert(canon, cls);
                }
            }
            while let Some((node, cls)) = self.analysis_pending.pop() {
                let cls = self.unionfind.find_mut(cls);
                let canon = self.canonicalize(&node);
                let new_data = N::make(self, &canon);
                let class = self.classes.get_mut(&cls).expect("class exists");
                if N::merge(&mut class.data, new_data) {
                    self.analysis_pending
                        .extend(self.classes[&cls].parents.iter().cloned());
                    self.stamp(cls);
                }
            }
        }
        // Canonicalize node lists and dedup — only where unions could have
        // left stale children or congruent duplicates.
        let mut dirty: Vec<Id> = std::mem::take(&mut self.dirty_classes)
            .into_iter()
            .map(|id| self.unionfind.find_mut(id))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        for id in dirty {
            let Some(mut class) = self.classes.remove(&id) else {
                continue; // merged away by a congruence union above
            };
            for n in &mut class.nodes {
                *n = n.map_children(|c| self.unionfind.find_mut(c));
            }
            class.nodes.sort();
            class.nodes.dedup();
            self.classes.insert(id, class);
        }
        // Compact index rows touched by unions.
        for key in std::mem::take(&mut self.dirty_ops) {
            if let Some(row) = self.classes_by_op.get_mut(&key) {
                for id in row.iter_mut() {
                    *id = self.unionfind.find_mut(*id);
                }
                row.sort_unstable();
                row.dedup();
            }
        }
        if self.unioned_since_rebuild {
            let uf = &self.unionfind;
            self.relations.canonicalize(|id| uf.find(id));
            self.unioned_since_rebuild = false;
        }
        self.propagate_epochs();
        self.compact_modified_log();
        self.clean = true;
    }

    /// Bounds the modification logs: keep one entry per live class (per
    /// op row, for the per-op logs) at its maximum logged epoch. Exact
    /// (not lossy) for every future cutoff, and **deterministic**: the
    /// intermediate max-epoch map is a `HashMap`, so the compacted log is
    /// fully ordered by `(epoch, id)` before it replaces the old one —
    /// epochs are unique per id, so hash-iteration order can never leak
    /// into the log (and thence into delta probe order). Pinned by
    /// `compaction_is_deterministic_and_exact` in `tests/engine.rs`.
    fn compact_modified_log(&mut self) {
        if self.modified_log.len() > 1024.max(4 * self.classes.len()) {
            let mut max_epoch: FastMap<Id, u64> = FastMap::default();
            for &(e, id) in &self.modified_log {
                let id = self.unionfind.find(id);
                if self.classes.contains_key(&id) {
                    let slot = max_epoch.entry(id).or_insert(e);
                    *slot = (*slot).max(e);
                }
            }
            self.modified_log = Self::sorted_log(max_epoch);
        }
        for (key, log) in &mut self.modified_log_by_op {
            let row_len = self.classes_by_op.get(key).map_or(0, Vec::len);
            if log.len() <= 64.max(4 * row_len) {
                continue;
            }
            let mut max_epoch: FastMap<Id, u64> = FastMap::default();
            for &(e, id) in log.iter() {
                // No liveness filter needed: `find` maps every logged id
                // to a live root, and node lists only ever grow, so the
                // root still holds a node with this op key.
                let id = self.unionfind.find(id);
                let slot = max_epoch.entry(id).or_insert(e);
                *slot = (*slot).max(e);
            }
            *log = Self::sorted_log(max_epoch);
        }
    }

    /// A compacted log in its canonical order: strictly sorted by
    /// `(epoch, id)` (ids are unique keys, so this is a total order
    /// independent of the map's hash-iteration order).
    fn sorted_log(max_epoch: FastMap<Id, u64>) -> Vec<(u64, Id)> {
        let mut log: Vec<(u64, Id)> = max_epoch.into_iter().map(|(id, e)| (e, id)).collect();
        log.sort_unstable();
        log
    }

    /// Pushes modification epochs to transitive parents so that delta
    /// searches see every class whose match results could have changed.
    ///
    /// Op-keyed: a change in class `c` flows to a parent class only
    /// through the actual parent e-nodes, so each parent is stamped in the
    /// rows of those nodes' operators — `(parent, Mul)` stays untouched
    /// when the change arrived under the parent's `Div` node. The
    /// class-level epoch (max over rows) drives the worklist: a parent is
    /// re-traversed only when its max advanced, which is exactly when its
    /// own parents' rows (keyed by *their* parent-node ops, independent of
    /// which row advanced here) could still be behind. Row stamps are
    /// gated per row, not on the class max: a second path into an
    /// already-traversed parent through a different-op parent node must
    /// still stamp that op's row.
    fn propagate_epochs(&mut self) {
        let mut worklist: Vec<Id> = std::mem::take(&mut self.touched)
            .into_iter()
            .map(|id| self.unionfind.find_mut(id))
            .collect();
        worklist.sort_unstable();
        worklist.dedup();
        let mut parent_rows: Vec<(Id, u64)> = Vec::new();
        while let Some(id) = worklist.pop() {
            let Some(class) = self.classes.get(&id) else {
                continue;
            };
            let epoch = class.modified;
            parent_rows.clear();
            parent_rows.extend(
                class
                    .parents
                    .iter()
                    .map(|(node, pid)| (*pid, node.op_key())),
            );
            parent_rows.sort_unstable();
            parent_rows.dedup();
            for &(pid, key) in &parent_rows {
                let pid = self.unionfind.find_mut(pid);
                if let Some(parent) = self.classes.get_mut(&pid) {
                    if parent.bump_op_epoch(key, epoch) {
                        // Logged at the clock's current value to keep the
                        // log sorted; any cutoff ≤ `epoch` still sees it.
                        self.modified_log_by_op
                            .entry(key)
                            .or_default()
                            .push((self.work_epoch, pid));
                    }
                    if parent.modified < epoch {
                        parent.modified = epoch;
                        self.modified_log.push((self.work_epoch, pid));
                        worklist.push(pid);
                    }
                }
            }
        }
    }

    /// Whether the graph is rebuilt (safe to search).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Asserts that the operator index is exactly consistent with a
    /// from-scratch recomputation: for every op key, the canonicalized
    /// index row equals the set of classes containing a node with that key.
    ///
    /// Testing/debugging aid (used by the engine's property tests).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if the index and the recomputation differ.
    pub fn check_op_index(&self) {
        assert!(self.is_clean(), "check_op_index requires a rebuilt e-graph");
        let mut expected: FastMap<u64, Vec<Id>> = FastMap::default();
        for class in self.classes.values() {
            for node in &class.nodes {
                expected.entry(node.op_key()).or_default().push(class.id);
            }
        }
        for row in expected.values_mut() {
            row.sort_unstable();
            row.dedup();
        }
        for (key, want) in &expected {
            let got = self.candidates_for(*key);
            assert_eq!(
                got,
                want.as_slice(),
                "op index row for key {key:#x} diverged from recomputation"
            );
        }
        // No phantom rows — and every stored row must itself be canonical,
        // sorted and deduplicated (candidates_for borrows rows as-is).
        for (key, row) in &self.classes_by_op {
            let want = expected.get(key).map(Vec::as_slice).unwrap_or_default();
            assert_eq!(
                row.as_slice(),
                want,
                "op index row for key {key:#x} is not canonical/sorted/deduped"
            );
        }
    }

    /// Asserts the op-keyed epoch invariants on a rebuilt graph:
    ///
    /// * every class's row keys are exactly the distinct op keys of its
    ///   node list;
    /// * the class-level epoch is the maximum over its rows;
    /// * every row is **log-covered**: a delta probe for its op at a
    ///   cutoff at or below the row's epoch re-surfaces the class.
    ///
    /// Testing/debugging aid (used by the engine's property tests).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if any invariant is violated.
    pub fn check_op_epochs(&self) {
        assert!(
            self.is_clean(),
            "check_op_epochs requires a rebuilt e-graph"
        );
        // One pass over the per-op logs: canonical id → max logged epoch.
        // A probe at cutoff `c` re-surfaces a class iff its max logged
        // epoch is ≥ `c`, so this is exactly the coverage the row check
        // below needs — without an O(rows × log) probe per row.
        let mut coverage: FastMap<u64, FastMap<Id, u64>> = FastMap::default();
        for (key, log) in &self.modified_log_by_op {
            let map = coverage.entry(*key).or_default();
            for &(e, id) in log {
                let id = self.find(id);
                let slot = map.entry(id).or_insert(e);
                *slot = (*slot).max(e);
            }
        }
        for class in self.classes.values() {
            let mut want: Vec<u64> = class.nodes.iter().map(Language::op_key).collect();
            want.sort_unstable();
            want.dedup();
            let mut got: Vec<u64> = class.op_epochs.iter().map(|&(k, _)| k).collect();
            got.sort_unstable();
            assert_eq!(
                got, want,
                "class {}: op rows diverge from its node operators",
                class.id
            );
            let max_row = class.op_epochs.iter().map(|&(_, e)| e).max().unwrap_or(0);
            assert_eq!(
                class.modified, max_row,
                "class {}: class epoch is not the max over its op rows",
                class.id
            );
            for &(key, epoch) in &class.op_epochs {
                let covered = coverage
                    .get(&key)
                    .and_then(|m| m.get(&class.id))
                    .copied()
                    .unwrap_or(0);
                assert!(
                    covered >= epoch,
                    "class {}: row (key {key:#x}, epoch {epoch}) is not log-covered \
                     (max logged epoch {covered})",
                    class.id
                );
            }
        }
    }

    /// Extracts *some* term from a class (first constructible node, depth
    /// first). Mainly for tests; use a [`crate::extract::Extract`]
    /// strategy (e.g. [`crate::extract::WorklistExtractor`]) for
    /// cost-aware extraction.
    #[must_use]
    pub fn any_term(&self, id: Id) -> Option<RecExpr<L>> {
        let mut out = RecExpr::new();
        let mut on_stack = FastSet::default();
        fn go<L: Language, N: Analysis<L>>(
            eg: &EGraph<L, N>,
            id: Id,
            out: &mut RecExpr<L>,
            on_stack: &mut FastSet<Id>,
        ) -> Option<Id> {
            let id = eg.find(id);
            if !on_stack.insert(id) {
                return None; // cycle
            }
            let class = eg.classes.get(&id)?;
            for node in &class.nodes {
                let mut child_ids = Vec::new();
                let mut ok = true;
                for &c in node.children() {
                    match go(eg, c, out, on_stack) {
                        Some(cid) => child_ids.push(cid),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let mut k = 0;
                    let remapped = node.map_children(|_| {
                        let id = child_ids[k];
                        k += 1;
                        id
                    });
                    on_stack.remove(&id);
                    return Some(out.add(remapped));
                }
            }
            on_stack.remove(&id);
            None
        }
        go(self, id, &mut out, &mut on_stack).map(|_| out)
    }
}

/// Resolves an operator-key table index read from a snapshot.
fn key_at(op_keys: &[u64], idx: u64) -> Result<u64, SnapshotError> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| op_keys.get(i).copied())
        .ok_or_else(|| SnapshotError::Corrupt("operator key index out of range".into()))
}

impl<L, N> EGraph<L, N>
where
    L: SnapshotNode,
    N: SnapshotAnalysis<L>,
{
    /// Serializes the whole graph into the versioned snapshot byte format
    /// (see [`crate::snapshot`] for the framing and the operator-key
    /// indirection). The graph must be clean: a snapshot is the state a
    /// search could run against, and only rebuilt graphs have canonical
    /// node lists, compacted index rows and propagated epochs.
    ///
    /// The bytes are deterministic — hash maps are walked in sorted order
    /// — so two structurally identical graphs snapshot identically within
    /// one build.
    ///
    /// # Panics
    ///
    /// Panics if the graph has not been rebuilt since the last union.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(self.clean, "snapshot requires a rebuilt e-graph");
        let mut w = SnapshotWriter::new();
        w.u64(self.work_epoch);

        let parents = self.unionfind.parents();
        w.len(parents.len());
        for &p in parents {
            w.id(p);
        }

        // Operator-key table: one representative node per distinct key
        // (minimal by `Ord` for determinism). Every key the graph tracks
        // appears in some node list — node lists only ever grow — so the
        // table covers the op rows, index rows and per-op logs below.
        let mut reps: BTreeMap<u64, &L> = BTreeMap::new();
        for class in self.classes.values() {
            for node in &class.nodes {
                let rep = reps.entry(node.op_key()).or_insert(node);
                if node < *rep {
                    *rep = node;
                }
            }
        }
        w.len(reps.len());
        for node in reps.values() {
            node.write_node(&mut w);
        }
        let index_of: FastMap<u64, u64> = reps
            .keys()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let index_of = |key: u64| -> u64 {
            *index_of
                .get(&key)
                .expect("every tracked op key has a representative node")
        };

        let mut ids: Vec<Id> = self.classes.keys().copied().collect();
        ids.sort_unstable();
        w.len(ids.len());
        for id in ids {
            let class = &self.classes[&id];
            w.id(id);
            w.len(class.nodes.len());
            for node in &class.nodes {
                node.write_node(&mut w);
            }
            N::write_data(&class.data, &mut w);
            w.len(class.parents.len());
            for (node, pid) in &class.parents {
                node.write_node(&mut w);
                w.id(*pid);
            }
            w.u64(class.modified);
            w.len(class.op_epochs.len());
            for &(key, epoch) in &class.op_epochs {
                w.u64(index_of(key));
                w.u64(epoch);
            }
        }

        let mut op_rows: Vec<(u64, &Vec<Id>)> = self
            .classes_by_op
            .iter()
            .map(|(&k, row)| (k, row))
            .collect();
        op_rows.sort_unstable_by_key(|&(k, _)| k);
        w.len(op_rows.len());
        for (key, row) in op_rows {
            w.u64(index_of(key));
            w.len(row.len());
            for &id in row {
                w.id(id);
            }
        }

        w.len(self.modified_log.len());
        for &(e, id) in &self.modified_log {
            w.u64(e);
            w.id(id);
        }

        let mut op_logs: Vec<(u64, &Vec<(u64, Id)>)> = self
            .modified_log_by_op
            .iter()
            .map(|(&k, log)| (k, log))
            .collect();
        op_logs.sort_unstable_by_key(|&(k, _)| k);
        w.len(op_logs.len());
        for (key, log) in op_logs {
            w.u64(index_of(key));
            w.len(log.len());
            for &(e, id) in log {
                w.u64(e);
                w.id(id);
            }
        }

        self.relations.write_snapshot(&mut w);
        frame_payload(w.into_bytes())
    }

    /// Rebuilds a graph from bytes written by [`EGraph::snapshot`].
    ///
    /// Never panics on untrusted input: framing problems (truncation, bad
    /// magic, version bump, checksum mismatch) and every structural
    /// violation (non-root class ids, dangling children, cyclic
    /// union-find, unsorted delta logs, …) are rejected with a typed
    /// [`SnapshotError`] so the caller can fall back to a cold build. The
    /// restored graph is clean and search-ready; its memo is
    /// reconstructed from the class node lists, which is exact on the
    /// clean graphs [`EGraph::snapshot`] accepts.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = unframe_payload(bytes)?;
        let mut r = SnapshotReader::new(payload);
        let corrupt = |what: &str| SnapshotError::Corrupt(what.into());

        let work_epoch = r.u64()?;
        if work_epoch == 0 {
            return Err(corrupt("work epoch must be at least 1"));
        }

        let n = r.len()?;
        if u32::try_from(n).is_err() {
            return Err(corrupt("union-find too large for u32 ids"));
        }
        let mut parents = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.id()?;
            if p.index() >= n {
                return Err(corrupt("union-find parent out of bounds"));
            }
            parents.push(p);
        }
        // Reject cycles (other than root self-loops): `find` on a cyclic
        // forest would spin forever. One linear pass with tri-state marks.
        {
            let mut state = vec![0u8; n]; // 0 unvisited, 1 on path, 2 done
            for start in 0..n {
                if state[start] != 0 {
                    continue;
                }
                let mut path = Vec::new();
                let mut cur = start;
                loop {
                    match state[cur] {
                        2 => break,
                        1 => return Err(corrupt("union-find contains a cycle")),
                        _ => {}
                    }
                    state[cur] = 1;
                    path.push(cur);
                    let p = parents[cur].index();
                    if p == cur {
                        break;
                    }
                    cur = p;
                }
                for i in path {
                    state[i] = 2;
                }
            }
        }
        let unionfind = UnionFind::from_parents(parents);
        let n_roots = (0..n)
            .filter(|&i| unionfind.find(Id::from(i)) == Id::from(i))
            .count();

        let n_ops = r.len()?;
        let mut op_keys = Vec::with_capacity(n_ops);
        let mut seen_keys = FastSet::with_capacity_and_hasher(n_ops, Default::default());
        for _ in 0..n_ops {
            let node = L::read_node(&mut r)?;
            let key = node.op_key();
            if !seen_keys.insert(key) {
                return Err(corrupt("duplicate operator in key table"));
            }
            op_keys.push(key);
        }

        let n_classes = r.len()?;
        if n_classes != n_roots {
            return Err(corrupt("class count does not match union-find roots"));
        }
        let mut classes: FastMap<Id, EClass<L, N::Data>> =
            FastMap::with_capacity_and_hasher(n_classes, Default::default());
        let mut last_id: Option<Id> = None;
        for _ in 0..n_classes {
            let id = r.id()?;
            if id.index() >= n || unionfind.find(id) != id {
                return Err(corrupt("class id is not a canonical root"));
            }
            if last_id.is_some_and(|prev| id <= prev) {
                return Err(corrupt("class ids are not strictly ascending"));
            }
            last_id = Some(id);
            let n_nodes = r.len()?;
            if n_nodes == 0 {
                return Err(corrupt("class with no nodes"));
            }
            let mut nodes = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                let node = L::read_node(&mut r)?;
                for &c in node.children() {
                    if c.index() >= n || unionfind.find(c) != c {
                        return Err(corrupt("node child is not a canonical class"));
                    }
                }
                nodes.push(node);
            }
            let data = N::read_data(&mut r)?;
            let n_parents = r.len()?;
            let mut class_parents = Vec::with_capacity(n_parents);
            for _ in 0..n_parents {
                let node = L::read_node(&mut r)?;
                let pid = r.id()?;
                // Parent entries may be stale (non-canonical) by design;
                // only bounds are checked.
                if pid.index() >= n || node.children().iter().any(|c| c.index() >= n) {
                    return Err(corrupt("parent entry out of bounds"));
                }
                class_parents.push((node, pid));
            }
            let modified = r.u64()?;
            if modified > work_epoch {
                return Err(corrupt("class epoch is past the clock"));
            }
            let n_rows = r.len()?;
            let mut op_epochs = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let key = key_at(&op_keys, r.u64()?)?;
                let epoch = r.u64()?;
                if epoch > work_epoch {
                    return Err(corrupt("op row epoch is past the clock"));
                }
                op_epochs.push((key, epoch));
            }
            classes.insert(
                id,
                EClass {
                    id,
                    nodes,
                    data,
                    parents: class_parents,
                    modified,
                    op_epochs,
                },
            );
        }

        // The memo is derivable state on a clean graph: every canonical
        // node maps to the class whose node list holds it.
        let mut memo: FastMap<L, Id> = FastMap::default();
        for class in classes.values() {
            for node in &class.nodes {
                if memo.insert(node.clone(), class.id).is_some() {
                    return Err(corrupt("one e-node appears in two classes"));
                }
            }
        }

        let n_rows = r.len()?;
        let mut classes_by_op: FastMap<u64, Vec<Id>> =
            FastMap::with_capacity_and_hasher(n_rows, Default::default());
        for _ in 0..n_rows {
            let key = key_at(&op_keys, r.u64()?)?;
            let len = r.len()?;
            let mut row = Vec::with_capacity(len);
            let mut prev: Option<Id> = None;
            for _ in 0..len {
                let id = r.id()?;
                if !classes.contains_key(&id) {
                    return Err(corrupt("op index row names a dead class"));
                }
                if prev.is_some_and(|p| id <= p) {
                    return Err(corrupt("op index row is not sorted and deduplicated"));
                }
                prev = Some(id);
                row.push(id);
            }
            if classes_by_op.insert(key, row).is_some() {
                return Err(corrupt("duplicate op index row"));
            }
        }

        let read_log = |r: &mut SnapshotReader<'_>| -> Result<Vec<(u64, Id)>, SnapshotError> {
            let len = r.len()?;
            let mut log = Vec::with_capacity(len);
            let mut last = 0u64;
            for _ in 0..len {
                let e = r.u64()?;
                if e < last || e > work_epoch {
                    return Err(SnapshotError::Corrupt(
                        "modification log is not sorted within the clock".into(),
                    ));
                }
                last = e;
                let id = r.id()?;
                if id.index() >= n {
                    return Err(SnapshotError::Corrupt("logged id out of bounds".into()));
                }
                log.push((e, id));
            }
            Ok(log)
        };
        let modified_log = read_log(&mut r)?;
        let n_logs = r.len()?;
        let mut modified_log_by_op: FastMap<u64, Vec<(u64, Id)>> =
            FastMap::with_capacity_and_hasher(n_logs, Default::default());
        for _ in 0..n_logs {
            let key = key_at(&op_keys, r.u64()?)?;
            let log = read_log(&mut r)?;
            if modified_log_by_op.insert(key, log).is_some() {
                return Err(corrupt("duplicate per-op modification log"));
            }
        }

        let relations = Relations::read_snapshot(&mut r)?;
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after payload"));
        }

        Ok(EGraph {
            unionfind,
            memo,
            classes,
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            relations,
            clean: true,
            classes_by_op,
            dirty_ops: FastSet::default(),
            dirty_classes: Vec::new(),
            touched: Vec::new(),
            modified_log,
            modified_log_by_op,
            work_epoch,
            unioned_since_rebuild: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::Math;

    type EG = EGraph<Math, ()>;

    #[test]
    fn hashconsing_dedups() {
        let mut eg = EG::new();
        let a1 = eg.add(Math::Sym("a".into()));
        let a2 = eg.add(Math::Sym("a".into()));
        assert_eq!(a1, a2);
        assert_eq!(eg.num_classes(), 1);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let (_, changed) = eg.union(a, b);
        assert!(changed);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        let (_, changed2) = eg.union(a, b);
        assert!(!changed2);
    }

    #[test]
    fn congruence_closure_via_rebuild() {
        // If a ≡ b then f(a) ≡ f(b) after rebuild.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let fa = eg.add(Math::Mul([a, two]));
        let fb = eg.add(Math::Mul([b, two]));
        assert_ne!(eg.find(fa), eg.find(fb));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(fa), eg.find(fb), "congruence must unify f(a), f(b)");
    }

    #[test]
    fn transitive_congruence() {
        // g(f(a)) ≡ g(f(b)) needs two congruence steps.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let fa = eg.add(Math::Mul([a, two]));
        let fb = eg.add(Math::Mul([b, two]));
        let gfa = eg.add(Math::Div([fa, two]));
        let gfb = eg.add(Math::Div([fb, two]));
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.find(gfa), eg.find(gfb));
    }

    #[test]
    fn lookup_respects_canonical_children() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let _fa = eg.add(Math::Mul([a, two]));
        eg.union(a, b);
        eg.rebuild();
        // Looking up f(b) must find f(a)'s class.
        assert!(eg.lookup(&Math::Mul([b, two])).is_some());
    }

    #[test]
    fn add_recexpr_roundtrip() {
        let mut r = RecExpr::new();
        let a = r.add(Math::Sym("a".into()));
        let two = r.add(Math::Num(2));
        let m = r.add(Math::Mul([a, two]));
        let _d = r.add(Math::Div([m, two]));
        let mut eg = EG::new();
        let root = eg.add_recexpr(&r);
        let back = eg.any_term(root).expect("extractable");
        assert_eq!(back.to_sexp(), "(/ (* a 2) 2)");
    }

    #[test]
    fn num_nodes_counts() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let two = eg.add(Math::Num(2));
        let _ = eg.add(Math::Mul([a, two]));
        assert_eq!(eg.num_nodes(), 3);
        assert!(!eg.is_empty());
    }

    #[test]
    fn op_index_tracks_adds_and_unions() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let ma = eg.add(Math::Mul([a, two]));
        let mb = eg.add(Math::Mul([b, two]));
        let key = Math::Mul([Id(0), Id(0)]).op_key();
        assert_eq!(eg.candidates_for(key), {
            let mut v = vec![ma, mb];
            v.sort_unstable();
            v
        });
        eg.check_op_index();
        // Union a ≡ b: congruence merges the two Muls; the index row must
        // compact to the single surviving class.
        eg.union(a, b);
        eg.rebuild();
        assert_eq!(eg.candidates_for(key), vec![eg.find(ma)]);
        eg.check_op_index();
    }

    #[test]
    fn op_rows_track_only_the_changed_operator() {
        // A class holding nodes of two operators with disjoint subtrees:
        // a change under one subtree must stamp only that operator's row,
        // while the per-class baseline re-surfaces the class for both.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let c = eg.add(Math::Sym("c".into()));
        let two = eg.add(Math::Num(2));
        let three = eg.add(Math::Num(3));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, three]));
        eg.union(m, d); // the class now holds a Mul node and a Div node
        eg.rebuild();
        let u = eg.find(m);
        let mul_key = Math::Mul([Id(0), Id(0)]).op_key();
        let div_key = Math::Div([Id(0), Id(0)]).op_key();
        assert!(eg.class(u).op_modified_epoch(mul_key).is_some());
        assert!(eg.class(u).op_modified_epoch(div_key).is_some());
        let cutoff = eg.bump_epoch();
        // Change strictly under the Div node's subtree.
        eg.union(b, c);
        eg.rebuild();
        assert!(
            eg.modified_candidates_for(div_key, cutoff).contains(&u),
            "the Div row must re-surface the class"
        );
        assert!(
            !eg.modified_candidates_for(mul_key, cutoff).contains(&u),
            "the untouched Mul row must not re-surface the class"
        );
        assert!(
            eg.modified_candidates_per_class(mul_key, cutoff)
                .contains(&u),
            "the per-class baseline re-surfaces the class for every op it contains"
        );
        eg.check_op_epochs();
    }

    #[test]
    fn union_near_shared_leaf_stamps_only_flow_through_ops() {
        // The motivating workload shape: one widely shared leaf (`two`)
        // with Mul parents in one region and Div parents in another. A
        // union inside the Mul region must not stamp the Div parents'
        // rows, even though per-class ancestor propagation from the shared
        // leaf would have.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, two]));
        eg.rebuild();
        let cutoff = eg.bump_epoch();
        // Union at the shared leaf's sibling inside the Mul region.
        let c = eg.add(Math::Sym("c".into()));
        eg.union(a, c);
        eg.rebuild();
        let mul_key = Math::Mul([Id(0), Id(0)]).op_key();
        let div_key = Math::Div([Id(0), Id(0)]).op_key();
        assert!(eg
            .modified_candidates_for(mul_key, cutoff)
            .contains(&eg.find(m)));
        assert!(
            eg.modified_candidates_for(div_key, cutoff).is_empty(),
            "no Div row changed, so the Div probe must be empty"
        );
        assert!(
            eg.class(d).op_modified_epoch(div_key).unwrap() < cutoff,
            "the Div parent's row must keep its old epoch"
        );
        eg.check_op_epochs();
    }

    #[test]
    fn epochs_mark_modified_classes_and_ancestors() {
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([m, two]));
        eg.rebuild();
        let cutoff = eg.bump_epoch();
        // Nothing modified since the bump.
        assert!(eg.classes().all(|c| c.modified_epoch() < cutoff));
        // Union deep in the graph: the union site and its transitive
        // ancestors (m, d) must carry the new epoch after rebuild.
        eg.union(a, b);
        eg.rebuild();
        for id in [a, m, d] {
            assert!(
                eg.class(id).modified_epoch() >= cutoff,
                "{id} should be marked modified"
            );
        }
        assert!(
            eg.class(two).modified_epoch() < cutoff,
            "unrelated leaf must not be marked"
        );
    }
}
