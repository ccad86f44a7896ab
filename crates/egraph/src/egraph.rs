//! The e-graph: hash-consed e-nodes grouped into equivalence classes,
//! with congruence maintained by explicit rebuilding (the egg algorithm).
//!
//! Performance machinery on top of the basic algorithm (see the crate docs
//! for the design):
//!
//! * **dense, reusable storage**: the class table is a slot vector indexed
//!   by id over a compact slab of classes, and [`EGraph::clear`] empties
//!   the graph while keeping every table's capacity and parking the
//!   per-class vectors for the next graph built in it;
//! * an **operator index** (`op_key` → candidate classes) kept current
//!   through [`EGraph::add`] / [`EGraph::union`] / [`EGraph::rebuild`], so
//!   indexed e-matching visits only classes that can possibly match;
//! * **incremental rebuilding**: only classes dirtied by unions since the
//!   last rebuild have their node lists re-canonicalized;
//! * **modification epochs**: every class carries the epoch of the last
//!   change that could affect matches rooted at it, lifted to its
//!   transitive parents on rebuild (egg's per-class change stamp). A delta
//!   probe is an index row filtered by that epoch
//!   ([`EGraph::modified_since`]), and one watermark — the epoch of the
//!   last class change — is the scheduler's quiescence check.
//!
//! A fact a rule derives for another to join against is an e-node like
//! any other: hash-consing dedups it, [`EGraph::rebuild`] canonicalizes
//! it, its class epoch carries its deltas and [`EGraph::snapshot`] writes
//! it with its class.

use std::fmt::Debug;

use crate::hash::{FastMap, FastSet};
use crate::language::{Language, RecExpr};
use crate::snapshot::{
    frame_payload, unframe_payload, SnapshotAnalysis, SnapshotError, SnapshotNode, SnapshotReader,
    SnapshotWriter,
};
use crate::unionfind::{Id, UnionFind};

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
    /// Parent e-nodes (and the class they live in), possibly stale: an
    /// entry's ids may lag the union-find, but after a rebuild no two
    /// entries are equal once canonicalized.
    parents: Vec<(L, Id)>,
    /// Epoch of the last change that could affect matches rooted here
    /// (directly or in a descendant — propagated on rebuild).
    modified: u64,
}

impl<L, D> EClass<L, D> {
    /// Epoch of the last modification affecting matches rooted at this
    /// class. Valid after a rebuild; see [`EGraph::work_epoch`].
    #[must_use]
    pub fn modified_epoch(&self) -> u64 {
        self.modified
    }

    /// Turns the class into a shell: its vectors emptied, the small ones
    /// kept for the class that takes its place (see [`SPARE_CAPACITY`]).
    fn empty(&mut self) {
        park(&mut self.nodes);
        park(&mut self.parents);
    }
}

/// Slot value of an id that has no class of its own: it lost a union.
const NO_CLASS: u32 = u32::MAX;

/// Largest capacity, in elements, a class vector or an index row keeps
/// when what held it is cleared away for reuse. Reuse pairs vectors with
/// new owners in no particular order, so anything larger — a hub's parent
/// list, a common operator's index row — would in time sit under every
/// class and every row of a long-reused graph. Nearly all need no more: a
/// class holds a node or two under one operator and has a parent or two, a
/// literal's row holds one class. (New vectors start at one element and
/// grow to four next, so a reused graph's vectors creep from the first
/// size to the second at most: ~0.3 KB a class.)
const SPARE_CAPACITY: usize = 4;

/// Empties `vector` for reuse (see [`SPARE_CAPACITY`]).
fn park<T>(vector: &mut Vec<T>) {
    vector.clear();
    if vector.capacity() > SPARE_CAPACITY {
        *vector = Vec::new();
    }
}

/// The operator index's `op_key → classes` rows. [`OpRows::clear`]
/// empties the table but parks the row vectors, so a reused graph refills
/// its rows without allocating. A row exists only while it is non-empty.
#[derive(Debug, Clone, Default)]
struct OpRows {
    rows: FastMap<u64, Vec<Id>>,
    spare: Vec<Vec<Id>>,
}

impl OpRows {
    fn row(&self, key: u64) -> &[Id] {
        self.rows.get(&key).map(Vec::as_slice).unwrap_or_default()
    }

    fn push(&mut self, key: u64, item: Id) {
        let spare = &mut self.spare;
        self.rows
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_else(|| Vec::with_capacity(1)))
            .push(item);
    }

    fn clear(&mut self) {
        for (_, mut row) in self.rows.drain() {
            park(&mut row);
            self.spare.push(row);
        }
    }
}

/// The e-graph.
///
/// Storage is dense and reusable (see "Dense, reusable storage" in the
/// crate docs): ids
/// index a slot vector over a compact class slab, and [`EGraph::clear`]
/// empties the graph while keeping every table's capacity.
#[derive(Debug, Clone)]
pub struct EGraph<L: Language, N: Analysis<L> = ()> {
    unionfind: UnionFind,
    memo: FastMap<L, Id>,
    /// Class table, by id: the position of the id's class in `slab`, or
    /// [`NO_CLASS`] once the id lost a union. One `u32` per id ever made.
    slots: Vec<u32>,
    /// Class table, the classes themselves: `slab[..live]` are the graph's,
    /// compact (a union moves the last of them into the loser's place), so
    /// the slab's size follows the class count, not the ids ever made.
    /// `slab[live..]` are shells — classes that are gone (merged away, or
    /// cleared), kept for their emptied vectors, which the next `add`s
    /// fill again; nothing else of a shell is ever read.
    slab: Vec<EClass<L, N::Data>>,
    live: usize,
    /// Total e-nodes across classes (`add` and the rebuild's dedup keep it;
    /// [`EGraph::check_op_index`] checks it against a recount).
    num_nodes: usize,
    pending: Vec<(L, Id)>,
    analysis_pending: Vec<(L, Id)>,
    clean: bool,
    /// Operator index: `op_key` → classes containing a node with that key.
    /// Entries may be stale (non-canonical) or duplicated between rebuilds;
    /// a rebuild compacts the rows unions touched
    /// ([`EGraph::candidates_for`]).
    classes_by_op: OpRows,
    /// Op keys whose index rows need compaction on the next rebuild.
    dirty_ops: FastSet<u64>,
    /// Classes whose node lists need re-canonicalization on the next
    /// rebuild (union winners and classes containing parents of losers).
    dirty_classes: Vec<Id>,
    /// Classes whose parent lists may hold one parent twice by the next
    /// rebuild: union winners the loser brought parents to, then the
    /// children of nodes the rebuild found congruent to another.
    dirty_parents: Vec<Id>,
    /// Classes stamped since the last rebuild, awaiting upward epoch
    /// propagation.
    touched: Vec<Id>,
    /// Epoch of the last class modification (an add, a stamp, or a
    /// propagation step), 0 before the first — the whole-graph
    /// quiescence watermark behind [`EGraph::any_modified_since`].
    last_modified: u64,
    /// Monotone modification clock; see [`EGraph::bump_epoch`].
    work_epoch: u64,
}

impl<L: Language, N: Analysis<L>> Default for EGraph<L, N> {
    fn default() -> Self {
        EGraph {
            unionfind: UnionFind::new(),
            memo: FastMap::default(),
            slots: Vec::new(),
            slab: Vec::new(),
            live: 0,
            num_nodes: 0,
            pending: Vec::new(),
            analysis_pending: Vec::new(),
            clean: true,
            classes_by_op: OpRows::default(),
            dirty_ops: FastSet::default(),
            dirty_classes: Vec::new(),
            dirty_parents: Vec::new(),
            touched: Vec::new(),
            last_modified: 0,
            work_epoch: 1,
        }
    }
}

impl<L: Language, N: Analysis<L>> EGraph<L, N> {
    /// Creates an empty e-graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the graph — no ids or classes, the clock
    /// back at 1: indistinguishable from [`EGraph::new`] to every caller —
    /// while keeping the capacity of every table and turning the classes
    /// into shells whose (small) vectors the classes to come fill again,
    /// so building the next graph in it allocates little.
    pub fn clear(&mut self) {
        self.unionfind.clear();
        self.memo.clear();
        self.slots.clear();
        self.slab[..self.live].iter_mut().for_each(EClass::empty);
        self.live = 0;
        self.num_nodes = 0;
        self.pending.clear();
        self.analysis_pending.clear();
        self.clean = true;
        self.classes_by_op.clear();
        self.dirty_ops.clear();
        self.dirty_classes.clear();
        self.dirty_parents.clear();
        self.touched.clear();
        self.last_modified = 0;
        self.work_epoch = 1;
    }

    /// Canonical id for `id`.
    #[must_use]
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Number of e-classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.live
    }

    /// Total number of e-nodes across classes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// One past the largest id ever made: the length of a table indexed by
    /// class id.
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.slots.len()
    }

    /// Whether the graph has no classes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over all e-classes, by ascending canonical id — the
    /// deterministic enumeration order of every whole-graph scan.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, N::Data>> {
        self.slots
            .iter()
            .filter(|&&slot| slot != NO_CLASS)
            .map(|&slot| &self.slab[slot as usize])
    }

    /// Canonical ids of all e-classes, ascending.
    #[must_use]
    pub fn sorted_class_ids(&self) -> Vec<Id> {
        self.classes().map(|class| class.id).collect()
    }

    /// Position in `slab` of the class with *canonical* id `id`.
    fn slot(&self, id: Id) -> usize {
        self.slots[id.index()] as usize
    }

    /// The class with canonical id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[must_use]
    pub fn class(&self, id: Id) -> &EClass<L, N::Data> {
        &self.slab[self.slot(self.find(id))]
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
        self.classes_by_op.row(key)
    }

    /// Stamps `id` (which must be canonical) as modified now. Called at
    /// union sites (the merged class's matches can change through any of
    /// its nodes) and on analysis-data changes; the rebuild lifts the
    /// stamp to the class's transitive parents.
    fn stamp(&mut self, id: Id) {
        let epoch = self.work_epoch;
        let slot = self.slot(id);
        self.slab[slot].modified = epoch;
        self.touched.push(id);
        self.last_modified = epoch;
    }

    /// Writes to `out` (replacing its contents) the canonical ids,
    /// ascending, of the classes whose epoch is at or after `cutoff` among
    /// those that hold a node with [`Language::op_key`] `key` — or among
    /// every class, for `None` — and returns how many classes that was:
    /// the delta enumeration of a pattern rooted at that operator (or at a
    /// bare variable), and the size of the universe it was filtered from.
    pub fn modified_since(&self, key: Option<u64>, cutoff: u64, out: &mut Vec<Id>) -> usize {
        out.clear();
        match key {
            Some(key) => {
                let row = self.candidates_for(key);
                out.extend(
                    row.iter()
                        .copied()
                        .filter(|&id| self.slab[self.slot(id)].modified >= cutoff),
                );
                row.len()
            }
            None => {
                out.extend(
                    self.classes()
                        .filter(|c| c.modified >= cutoff)
                        .map(|c| c.id),
                );
                self.live
            }
        }
    }

    /// Whether any class was (transitively) modified at or after `cutoff`.
    /// O(1) — the scheduler's cheap quiescence check.
    #[must_use]
    pub fn any_modified_since(&self, cutoff: u64) -> bool {
        self.last_modified >= cutoff
    }

    /// Canonicalizes the children of `node` in place, compressing paths.
    fn canonicalize(&mut self, node: &mut L) {
        for child in node.children_mut() {
            *child = self.unionfind.find_mut(*child);
        }
    }

    /// Looks up an e-node (children need not be canonical) without inserting.
    #[must_use]
    pub fn lookup(&self, node: &L) -> Option<Id> {
        let canon = node.map_children(|c| self.find(c));
        self.memo.get(&canon).map(|&id| self.find(id))
    }

    /// Adds an e-node, returning the id of its class (hash-consed).
    pub fn add(&mut self, mut node: L) -> Id {
        self.canonicalize(&mut node);
        if let Some(&existing) = self.memo.get(&node) {
            return self.find(existing);
        }
        let id = self.unionfind.make_set();
        let data = N::make(self, &node);
        for (i, &child) in node.children().iter().enumerate() {
            if node.children()[..i].contains(&child) {
                continue;
            }
            let slot = self.slot(child);
            let parents = &mut self.slab[slot].parents;
            if parents.capacity() == 0 {
                parents.reserve_exact(1);
            }
            parents.push((node.clone(), id));
        }
        let epoch = self.work_epoch;
        debug_assert_eq!(id.index(), self.slots.len(), "ids are dense");
        self.slots
            .push(u32::try_from(self.live).expect("no more classes than ids"));
        // The first shell becomes the class; past the last shell, a new
        // one.
        match self.slab.get_mut(self.live) {
            Some(shell) => {
                shell.id = id;
                shell.data = data;
                shell.modified = epoch;
            }
            None => self.slab.push(EClass {
                id,
                nodes: Vec::with_capacity(1),
                data,
                parents: Vec::new(),
                modified: epoch,
            }),
        }
        self.slab[self.live].nodes.push(node.clone());
        self.live += 1;
        self.num_nodes += 1;
        self.classes_by_op.push(node.op_key(), id);
        self.last_modified = epoch;
        self.memo.insert(node, id);
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
        // Keep the class with more parents as the winner to move less data.
        let parents_of = |id: Id| self.slab[self.slot(id)].parents.len();
        let (winner, loser) = if parents_of(a) >= parents_of(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.unionfind.union_roots(winner, loser);
        // The slab stays compact: the last class takes the loser's place,
        // and the loser becomes the first shell.
        let hole = std::mem::replace(&mut self.slots[loser.index()], NO_CLASS) as usize;
        self.live -= 1;
        self.slab.swap(hole, self.live);
        if hole != self.live {
            let moved = self.slab[hole].id;
            self.slots[moved.index()] = u32::try_from(hole).expect("was a slot value");
        }
        let (classes, shells) = self.slab.split_at_mut(self.live);
        let winner_class = &mut classes[self.slots[winner.index()] as usize];
        let lost = &mut shells[0];
        // Loser's parents must be re-canonicalized and re-hashed, and the
        // classes holding those parent nodes re-canonicalized.
        self.pending.extend(lost.parents.iter().cloned());
        self.dirty_classes
            .extend(lost.parents.iter().map(|&(_, parent_class)| parent_class));
        self.dirty_classes.push(winner);
        if !lost.parents.is_empty() {
            self.dirty_parents.push(winner);
        }
        // The loser's index rows now resolve to the winner: compact them
        // on the next rebuild.
        self.dirty_ops
            .extend(lost.nodes.iter().map(Language::op_key));
        winner_class.nodes.append(&mut lost.nodes);
        winner_class.parents.append(&mut lost.parents);
        if N::merge(&mut winner_class.data, lost.data.clone()) {
            self.analysis_pending
                .extend(winner_class.parents.iter().cloned());
        }
        lost.empty();
        self.stamp(winner);
        (winner, true)
    }

    /// Restores the congruence invariant and canonicalizes memo entries and
    /// class node lists. Must be called after a batch of unions before the
    /// next search.
    ///
    /// Incremental: only classes dirtied since the last rebuild (union
    /// winners, classes holding parents of union losers) have their node
    /// lists re-canonicalized, and only index rows for operators touched by
    /// unions are compacted. A saturated rebuild is near-free.
    pub fn rebuild(&mut self) {
        while !self.pending.is_empty() || !self.analysis_pending.is_empty() {
            while let Some((mut node, cls)) = self.pending.pop() {
                let cls = self.unionfind.find_mut(cls);
                self.memo.remove(&node);
                self.canonicalize(&mut node);
                if let Some(&other) = self.memo.get(&node) {
                    let other = self.find(other);
                    if other != cls {
                        self.union(other, cls);
                    }
                } else {
                    self.memo.insert(node, cls);
                }
            }
            while let Some((mut node, cls)) = self.analysis_pending.pop() {
                let cls = self.unionfind.find_mut(cls);
                self.canonicalize(&mut node);
                let new_data = N::make(self, &node);
                let slot = self.slot(cls);
                let class = &mut self.slab[slot];
                if N::merge(&mut class.data, new_data) {
                    self.analysis_pending.extend(class.parents.iter().cloned());
                    self.stamp(cls);
                }
            }
        }
        // Canonicalize node lists and dedup — only where unions could have
        // left stale children or congruent duplicates.
        let mut dirty = std::mem::take(&mut self.dirty_classes);
        for id in &mut dirty {
            *id = self.unionfind.find_mut(*id);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for id in dirty.drain(..) {
            let slot = self.slot(id);
            let nodes = &mut self.slab[slot].nodes;
            for node in nodes.iter_mut() {
                for child in node.children_mut() {
                    *child = self.unionfind.find_mut(*child);
                }
            }
            nodes.sort();
            let before = nodes.len();
            // A node dropped here left one parent entry too many in each of
            // its children's lists.
            let dirty_parents = &mut self.dirty_parents;
            nodes.dedup_by(|dropped, kept| {
                let same = dropped == kept;
                if same {
                    dirty_parents.extend_from_slice(dropped.children());
                }
                same
            });
            self.num_nodes -= before - nodes.len();
        }
        self.dirty_classes = dirty;
        self.dedup_parents();
        // Compact index rows touched by unions.
        for key in self.dirty_ops.drain() {
            if let Some(row) = self.classes_by_op.rows.get_mut(&key) {
                for id in row.iter_mut() {
                    *id = self.unionfind.find_mut(*id);
                }
                row.sort_unstable();
                row.dedup();
            }
        }
        self.propagate_epochs();
        self.clean = true;
    }

    /// Canonicalizes the parent lists that may hold a parent twice (see
    /// `dirty_parents`) and keeps each entry once, so every rebuilt list
    /// holds exactly the parents the node lists derive and `union` picks
    /// its winner by the true count. Other lists are left as they are: a
    /// hub whose parents did not change is not re-sorted.
    fn dedup_parents(&mut self) {
        let mut ids = std::mem::take(&mut self.dirty_parents);
        for id in &mut ids {
            *id = self.unionfind.find_mut(*id);
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids.drain(..) {
            let slot = self.slot(id);
            let parents = &mut self.slab[slot].parents;
            for (node, class) in parents.iter_mut() {
                for child in node.children_mut() {
                    *child = self.unionfind.find_mut(*child);
                }
                *class = self.unionfind.find_mut(*class);
            }
            parents.sort_unstable();
            parents.dedup();
        }
        self.dirty_parents = ids;
    }

    /// Lifts the epochs of the classes stamped since the last rebuild to
    /// their transitive parents, so that delta searches see every class
    /// whose match results could have changed. A parent is re-traversed
    /// only when its epoch advanced.
    fn propagate_epochs(&mut self) {
        let mut worklist = std::mem::take(&mut self.touched);
        for id in &mut worklist {
            *id = self.unionfind.find_mut(*id);
        }
        worklist.sort_unstable();
        worklist.dedup();
        while let Some(id) = worklist.pop() {
            let slot = self.slot(id);
            let epoch = self.slab[slot].modified;
            for i in 0..self.slab[slot].parents.len() {
                let pid = self.unionfind.find_mut(self.slab[slot].parents[i].1);
                let parent_slot = self.slot(pid);
                let parent = &mut self.slab[parent_slot];
                if parent.modified < epoch {
                    parent.modified = epoch;
                    self.last_modified = self.work_epoch;
                    worklist.push(pid);
                }
            }
        }
        self.touched = worklist;
    }

    /// Whether the graph is rebuilt (safe to search).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Asserts that the operator index is exactly consistent with a
    /// from-scratch recomputation — for every op key, the canonicalized
    /// index row equals the set of classes containing a node with that key
    /// — and that the maintained node counter equals a recount.
    ///
    /// Testing/debugging aid (used by the engine's property tests).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if the index and the recomputation differ.
    pub fn check_op_index(&self) {
        assert!(self.is_clean(), "check_op_index requires a rebuilt e-graph");
        let mut expected: FastMap<u64, Vec<Id>> = FastMap::default();
        let mut nodes = 0;
        // Ascending class ids: every expected row comes out sorted.
        for class in self.classes() {
            nodes += class.nodes.len();
            for node in &class.nodes {
                let row = expected.entry(node.op_key()).or_default();
                if row.last() != Some(&class.id) {
                    row.push(class.id);
                }
            }
        }
        assert_eq!(
            self.num_nodes, nodes,
            "maintained node counter diverged from a recount"
        );
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
        for (key, row) in &self.classes_by_op.rows {
            let want = expected.get(key).map(Vec::as_slice).unwrap_or_default();
            assert_eq!(
                row.as_slice(),
                want,
                "op index row for key {key:#x} is not canonical/sorted/deduped"
            );
        }
    }

    /// Asserts the epoch invariants on a rebuilt graph: every class's
    /// epoch is at or after the epoch of each of its children (a change
    /// reached every ancestor), and the quiescence watermark is at or
    /// after every class epoch.
    ///
    /// Testing/debugging aid (used by the engine's property tests).
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if either invariant is violated.
    pub fn check_epochs(&self) {
        assert!(self.is_clean(), "check_epochs requires a rebuilt e-graph");
        for class in self.classes() {
            assert!(
                self.last_modified >= class.modified,
                "class {}: epoch {} is past the watermark {}",
                class.id,
                class.modified,
                self.last_modified
            );
            for &child in class.nodes.iter().flat_map(Language::children) {
                let child = self.class(child);
                assert!(
                    class.modified >= child.modified,
                    "class {}: epoch {} is before its child {}'s {}",
                    class.id,
                    class.modified,
                    child.id,
                    child.modified
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
        fn go<L: Language, N: Analysis<L>>(
            eg: &EGraph<L, N>,
            id: Id,
            out: &mut RecExpr<L>,
            on_stack: &mut [bool],
        ) -> Option<Id> {
            let id = eg.find(id);
            if std::mem::replace(&mut on_stack[id.index()], true) {
                return None; // cycle
            }
            let found = eg.class(id).nodes.iter().find_map(|node| {
                let mut ok = true;
                let remapped = node.map_children(|c| {
                    let child = if ok { go(eg, c, out, on_stack) } else { None };
                    ok &= child.is_some();
                    child.unwrap_or(c)
                });
                ok.then(|| out.add(remapped))
            });
            on_stack[id.index()] = false;
            found
        }
        let mut out = RecExpr::new();
        let mut on_stack = vec![false; self.id_bound()];
        go(self, id, &mut out, &mut on_stack).map(|_| out)
    }
}

impl<L, N> EGraph<L, N>
where
    L: SnapshotNode,
    N: SnapshotAnalysis<L>,
{
    /// Serializes the graph's content into the versioned snapshot byte
    /// format (see [`crate::snapshot`]): the union-find parents, then each
    /// class, by ascending id, as its id, its nodes and its analysis data.
    /// Nothing derived is written — [`EGraph::restore`] rebuilds the memo,
    /// the parent lists and the operator index from the node lists. The graph must be clean: only a rebuilt graph has canonical
    /// node lists.
    ///
    /// The bytes are deterministic: two structurally identical graphs
    /// snapshot identically.
    ///
    /// # Panics
    ///
    /// Panics if the graph has not been rebuilt since the last union.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        assert!(self.clean, "snapshot requires a rebuilt e-graph");
        let mut w = SnapshotWriter::new();
        let parents = self.unionfind.parents();
        w.len(parents.len());
        for &p in parents {
            w.id(p);
        }
        w.len(self.live);
        for class in self.classes() {
            w.id(class.id);
            w.len(class.nodes.len());
            for node in &class.nodes {
                node.write_node(&mut w);
            }
            N::write_data(&class.data, &mut w);
        }
        frame_payload(w.into_bytes())
    }

    /// Rebuilds a graph from bytes written by [`EGraph::snapshot`].
    ///
    /// Never panics on untrusted input: framing problems (truncation, bad
    /// magic, another format version, checksum mismatch) and every
    /// structural violation (cyclic or out-of-bounds union-find, class ids
    /// that are not the ascending roots, an empty class, a child that is
    /// not a canonical class, an e-node listed twice, trailing bytes)
    /// are rejected with a typed [`SnapshotError`] so the caller can fall
    /// back to a cold build.
    ///
    /// Everything else is derived from the node lists, as a rebuild leaves
    /// it on a clean graph: the memo, the parent lists and the operator
    /// index. Every class is at epoch 0 and the clock at 1, so the restored
    /// graph was built "before the clock started": a cutoff taken with
    /// [`EGraph::bump_epoch`] after the restore sees exactly what changes
    /// after it.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload = unframe_payload(bytes)?;
        let mut r = SnapshotReader::new(payload);
        let corrupt = |what: &str| SnapshotError::Corrupt(what.into());

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
        let mut eg = EGraph {
            unionfind: UnionFind::from_parents(parents),
            slots: vec![NO_CLASS; n],
            ..Self::default()
        };
        let n_roots = (0..n)
            .filter(|&i| eg.find(Id::from(i)) == Id::from(i))
            .count();

        let n_classes = r.len()?;
        if n_classes != n_roots {
            return Err(corrupt("class count does not match union-find roots"));
        }
        let mut last_id: Option<Id> = None;
        for _ in 0..n_classes {
            let id = r.id()?;
            if id.index() >= n || eg.find(id) != id {
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
            let mut nodes: Vec<L> = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                let node = L::read_node(&mut r)?;
                if node
                    .children()
                    .iter()
                    .any(|&c| c.index() >= n || eg.find(c) != c)
                {
                    return Err(corrupt("node child is not a canonical class"));
                }
                if eg.memo.insert(node.clone(), id).is_some() {
                    return Err(corrupt("an e-node appears twice"));
                }
                // Ascending class ids: every index row comes out sorted.
                let key = node.op_key();
                if !nodes.iter().any(|other| other.op_key() == key) {
                    eg.classes_by_op.push(key, id);
                }
                nodes.push(node);
            }
            let data = N::read_data(&mut r)?;
            eg.num_nodes += nodes.len();
            eg.slots[id.index()] = u32::try_from(eg.live).expect("fewer classes than ids");
            eg.slab.push(EClass {
                id,
                nodes,
                data,
                parents: Vec::new(),
                modified: 0,
            });
            eg.live += 1;
        }
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after payload"));
        }

        // Parent lists, as `add` builds them: one entry per distinct child.
        for pos in 0..eg.live {
            let id = eg.slab[pos].id;
            for i in 0..eg.slab[pos].nodes.len() {
                let node = eg.slab[pos].nodes[i].clone();
                for (j, &child) in node.children().iter().enumerate() {
                    if node.children()[..j].contains(&child) {
                        continue;
                    }
                    let slot = eg.slot(child);
                    eg.slab[slot].parents.push((node.clone(), id));
                }
            }
        }
        Ok(eg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math_lang::{n, pdiv, pmul, pvar, Math};
    use crate::pattern::MatchScratch;
    use crate::rewrite::Query;

    type EG = EGraph<Math, ()>;

    /// Seeded add / union / rebuild workouts over `Math`: after every
    /// rebuild, each class's parent list — canonicalized — holds exactly the
    /// `(node, class)` pairs the node lists derive, each once.
    #[test]
    fn rebuilt_parent_lists_hold_each_parent_once() {
        for seed in 1..=5u64 {
            let mut state = seed;
            let mut pick = |bound: usize| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                usize::try_from(state >> 33).expect("31 bits") % bound
            };
            let mut eg = EG::new();
            let mut ids: Vec<Id> = (0..4).map(|v| eg.add(Math::Num(v))).collect();
            for _ in 0..12 {
                for _ in 0..10 {
                    let (a, b) = (ids[pick(ids.len())], ids[pick(ids.len())]);
                    let node = match pick(3) {
                        0 => Math::Add([a, b]),
                        1 => Math::Mul([a, b]),
                        _ => Math::Div([a, a]),
                    };
                    ids.push(eg.add(node));
                }
                for _ in 0..3 {
                    eg.union(ids[pick(ids.len())], ids[pick(ids.len())]);
                }
                eg.rebuild();
                let (mut live, mut derived) = (0, 0);
                for class in eg.classes() {
                    let mut held: Vec<(Math, Id)> = (class.parents.iter())
                        .map(|(node, parent)| (node.map_children(|c| eg.find(c)), eg.find(*parent)))
                        .collect();
                    live += held.len();
                    held.sort();
                    let mut want: Vec<(Math, Id)> = (eg.classes())
                        .flat_map(|p| p.nodes.iter().map(move |node| (node.clone(), p.id)))
                        .filter(|(node, _)| node.children().contains(&class.id))
                        .collect();
                    want.sort();
                    derived += want.len();
                    held.dedup();
                    assert_eq!(held, want, "seed {seed}: class {} parents", class.id);
                }
                assert_eq!(
                    live, derived,
                    "seed {seed}: live vs derivable parent entries"
                );
                eg.check_epochs();
            }
            eg.check_op_index();
        }
    }

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
    fn a_union_under_a_shared_leaf_resurfaces_its_ancestors_to_every_probe() {
        // One leaf (`two`) shared by a Mul parent and a Div parent, each
        // parent's class also holding a node of the other operator.
        let mut eg = EG::new();
        let a = eg.add(Math::Sym("a".into()));
        let b = eg.add(Math::Sym("b".into()));
        let c = eg.add(Math::Sym("c".into()));
        let two = eg.add(Math::Num(2));
        let m = eg.add(Math::Mul([a, two]));
        let d = eg.add(Math::Div([b, two]));
        let m_div = eg.add(Math::Div([a, c]));
        let d_mul = eg.add(Math::Mul([b, c]));
        eg.union(m, m_div);
        eg.union(d, d_mul);
        eg.rebuild();
        let queries = [
            (Math::Mul([a, a]), Query::single("e", pmul(pvar("x"), n(3)))),
            (Math::Div([a, a]), Query::single("e", pdiv(pvar("x"), n(3)))),
        ];
        let before: Vec<_> = queries.iter().map(|(_, q)| q.search(&eg)).collect();
        let cutoff = eg.bump_epoch();
        // The union is at the shared leaf: `2 = 3` makes new matches
        // under both operators.
        let three = eg.add(Math::Num(3));
        eg.union(two, three);
        eg.rebuild();
        eg.check_epochs();
        let mut ancestors = vec![eg.find(m), eg.find(d)];
        ancestors.sort_unstable();
        let mut scratch = MatchScratch::new();
        for ((op, query), before) in queries.iter().zip(before) {
            let mut probed = Vec::new();
            eg.modified_since(Some(op.op_key()), cutoff, &mut probed);
            assert_eq!(probed, ancestors, "both ancestors re-surface");
            // Every match the naive matcher finds that did not exist at the
            // cutoff, under its ids of then or now, the delta search finds.
            let delta = query.compile().search(&eg, Some(cutoff), &mut scratch);
            let canon = |m: &crate::pattern::Subst| {
                let mut ids: Vec<(String, Id)> =
                    m.iter().map(|(v, &id)| (v.clone(), eg.find(id))).collect();
                ids.sort();
                ids
            };
            let old: Vec<_> = before.iter().map(canon).collect();
            let new: Vec<_> = (query.search(&eg).iter())
                .filter(|m| !old.contains(&canon(m)))
                .cloned()
                .collect();
            assert!(!new.is_empty());
            for m in &new {
                assert!(delta.contains(m), "delta search missed {m:?}");
            }
        }
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
        eg.check_epochs();
    }
}
