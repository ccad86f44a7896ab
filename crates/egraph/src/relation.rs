//! Datalog-style relations over e-class ids (egglog's `relation`).
//!
//! HARDBOILED uses relations such as `amx-B-tile` to decouple
//! application-specific tile-discovery rules from hardware lowering rules.
//! Tuples store e-class ids and are re-canonicalized on every rebuild.
//!
//! ## Change stamps (the semi-naive delta protocol)
//!
//! The store has no clock of its own. Every tuple carries the e-graph
//! **epoch** of its last change ([`crate::egraph::EGraph::work_epoch`],
//! passed in by the graph that owns the store), where a "change" is either
//! the tuple's insertion or a canonicalization that rewrote its ids (a
//! remapped tuple can join with pattern matches it could not join with
//! before, so delta evaluation must treat it as new).
//! [`Relations::tuples_since`] enumerates the tuples of one relation
//! stamped at or after a cutoff epoch — the same cutoff, read the same
//! way, as the e-graph's class epochs — so a rule keeps one number, the
//! epoch it last searched at, for its pattern atoms and its relation atoms
//! alike. See `rewrite::CompiledQuery::search` for the delta join rounds
//! built on top of this.
//!
//! Change reads are **log-backed**, mirroring the e-graph's per-op delta
//! logs: every relation keeps an append-only `(epoch, tuple)` change log
//! (compacted deterministically from the table once it outgrows it), so a
//! [`Relations::tuples_since`] delta round costs O(changes to that
//! relation) — not a scan of its whole table — and the log's last entry
//! is the relation's newest stamp.

use std::collections::BTreeMap;

use crate::hash::FastMap;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::unionfind::Id;

/// One relation: its tuples, each with the epoch of its last change, and
/// the append-only change log behind [`Relations::tuples_since`]. A log
/// entry is *current* while the table still stamps its tuple at that
/// epoch; superseded and merged-away entries are filtered on read and
/// dropped by compaction. Epochs are nondecreasing along the log, so its
/// last entry carries the newest stamp in the table.
#[derive(Debug, Clone, Default)]
struct Table {
    tuples: BTreeMap<Vec<Id>, u64>,
    log: Vec<(u64, Vec<Id>)>,
}

impl Table {
    /// Whether a tuple was stamped at or after `cutoff`.
    fn changed_since(&self, cutoff: u64) -> bool {
        self.log.last().is_some_and(|&(epoch, _)| epoch >= cutoff)
    }

    /// Rebuilds the change log from the table once the log outgrows it:
    /// one entry per live tuple at its current stamp, ordered by
    /// `(epoch, tuple)` — deterministic (the table is a `BTreeMap`) and
    /// exact for every future cutoff.
    fn compact(&mut self) {
        if self.log.len() <= 64.max(4 * self.tuples.len()) {
            return;
        }
        let mut fresh: Vec<(u64, Vec<Id>)> = self
            .tuples
            .iter()
            .map(|(tuple, &epoch)| (epoch, tuple.clone()))
            .collect();
        fresh.sort_unstable();
        self.log = fresh;
    }
}

/// A set of named relations, each a set of id tuples stamped with the
/// epoch of their last change.
#[derive(Debug, Clone, Default)]
pub struct Relations {
    tables: FastMap<String, Table>,
}

impl Relations {
    /// `tables[name]`, default-inserted first if absent. Looked up by
    /// `&str`: the key is allocated (and hashed a second time) only for a
    /// new name, not on every tuple a rule re-derives.
    fn table(&mut self, name: &str) -> &mut Table {
        if !self.tables.contains_key(name) {
            self.tables.insert(name.to_string(), Table::default());
        }
        self.tables
            .get_mut(name)
            .expect("present: inserted just above")
    }

    /// Forgets every relation and tuple, keeping the name table's
    /// capacity: the store is indistinguishable from a new one.
    pub(crate) fn clear(&mut self) {
        self.tables.clear();
    }

    /// Declares a relation (idempotent). Insertion auto-declares, so this is
    /// only needed when emptiness of an undeclared relation matters.
    pub(crate) fn declare(&mut self, name: &str) {
        self.table(name);
    }

    /// Inserts a tuple stamped `epoch`; returns whether it was new. A tuple
    /// already present (what a rule re-deriving its facts offers) is not
    /// copied and keeps its stamp.
    pub(crate) fn insert(&mut self, name: &str, tuple: &[Id], epoch: u64) -> bool {
        let table = self.table(name);
        if table.tuples.contains_key(tuple) {
            return false;
        }
        table.log.push((epoch, tuple.to_vec()));
        table.tuples.insert(tuple.to_vec(), epoch);
        table.compact();
        true
    }

    /// Whether the tuple is present.
    #[must_use]
    pub fn contains(&self, name: &str, tuple: &[Id]) -> bool {
        self.tables
            .get(name)
            .is_some_and(|t| t.tuples.contains_key(tuple))
    }

    /// All tuples of a relation (empty iterator if undeclared).
    pub fn tuples(&self, name: &str) -> impl Iterator<Item = &Vec<Id>> {
        self.tables
            .get(name)
            .into_iter()
            .flat_map(|t| t.tuples.keys())
    }

    /// Whether the relation has a tuple stamped at or after epoch
    /// `cutoff`. O(1) — the probe semi-naive evaluation uses to skip
    /// empty delta rounds without scanning the table.
    #[must_use]
    pub fn changed_since(&self, name: &str, cutoff: u64) -> bool {
        self.tables
            .get(name)
            .is_some_and(|t| t.changed_since(cutoff))
    }

    /// Whether any relation has a tuple stamped at or after epoch
    /// `cutoff`. O(relations).
    #[must_use]
    pub(crate) fn any_changed_since(&self, cutoff: u64) -> bool {
        self.tables.values().any(|t| t.changed_since(cutoff))
    }

    /// Tuples of a relation changed (inserted or canonicalized-rewritten)
    /// at or after epoch `cutoff` — the semi-naive delta read path.
    /// Reads the change-log tail, so the cost is O(changes since
    /// `cutoff`), not O(table); a log entry yields its tuple only while
    /// the table still stamps that tuple at the entry's epoch, which
    /// filters superseded and merged-away entries. Check
    /// [`Relations::changed_since`] first to avoid even the tail walk when
    /// nothing changed.
    pub fn tuples_since(&self, name: &str, cutoff: u64) -> impl Iterator<Item = &Vec<Id>> {
        let table = self.tables.get(name);
        let log = table.map_or(&[][..], |t| t.log.as_slice());
        let start = log.partition_point(|&(epoch, _)| epoch < cutoff);
        log[start..].iter().filter_map(move |(epoch, tuple)| {
            (table?.tuples.get(tuple) == Some(epoch)).then_some(tuple)
        })
    }

    /// Names of every relation declared or written, in no particular
    /// order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Number of tuples in a relation.
    #[must_use]
    pub fn len(&self, name: &str) -> usize {
        self.tables.get(name).map_or(0, |t| t.tuples.len())
    }

    /// Rewrites every id in every tuple with `find`, merging tuples that
    /// become equal. Called by the e-graph on rebuild, at its current
    /// `epoch`.
    ///
    /// Tuples whose ids actually change are stamped `epoch` (they can join
    /// differently now); unchanged tuples keep their stamp, so a saturated
    /// store stays invisible to delta probes. When a changed and an
    /// unchanged tuple merge, the merged tuple keeps the *newest* stamp.
    /// Only restamped tuples are logged, in tuple order — a tuple already
    /// logged at `epoch` is not logged twice.
    pub(crate) fn canonicalize(&mut self, find: impl Fn(Id) -> Id, epoch: u64) {
        for table in self.tables.values_mut() {
            if !table
                .tuples
                .keys()
                .any(|t| t.iter().any(|&id| find(id) != id))
            {
                continue;
            }
            let mut merged: BTreeMap<Vec<Id>, u64> = BTreeMap::new();
            // Unchanged tuples the log already holds at `epoch` (inserted
            // this epoch), ascending: they are not logged a second time.
            let mut logged: Vec<Vec<Id>> = Vec::new();
            for (tuple, stamp) in std::mem::take(&mut table.tuples) {
                let canon: Vec<Id> = tuple.iter().map(|&id| find(id)).collect();
                let stamp = if canon != tuple {
                    epoch
                } else {
                    if stamp == epoch {
                        logged.push(tuple);
                    }
                    stamp
                };
                let slot = merged.entry(canon).or_insert(stamp);
                *slot = (*slot).max(stamp);
            }
            for (tuple, &stamp) in &merged {
                if stamp == epoch && logged.binary_search(tuple).is_err() {
                    table.log.push((epoch, tuple.clone()));
                }
            }
            table.tuples = merged;
            table.compact();
        }
    }

    /// Serializes the whole store into a snapshot payload. The name table
    /// is walked in sorted order so the bytes are deterministic.
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort_unstable();
        w.len(names.len());
        for name in names {
            let table = &self.tables[name];
            w.str(name);
            w.len(table.tuples.len());
            for (tuple, &epoch) in &table.tuples {
                write_tuple(w, tuple);
                w.u64(epoch);
            }
            w.len(table.log.len());
            for (epoch, tuple) in &table.log {
                w.u64(*epoch);
                write_tuple(w, tuple);
            }
        }
    }

    /// Deserializes a store written by [`Relations::write_snapshot`] for a
    /// graph whose clock reads `work_epoch`. Validates what the delta read
    /// paths rely on: every stamp at or below the clock, and change-log
    /// epochs nondecreasing (`tuples_since` uses `partition_point`).
    pub(crate) fn read_snapshot(
        r: &mut SnapshotReader<'_>,
        work_epoch: u64,
    ) -> Result<Self, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(what.into());
        let mut tables: FastMap<String, Table> = FastMap::default();
        let n_tables = r.len()?;
        for _ in 0..n_tables {
            let name = r.str()?;
            let mut table = Table::default();
            let n_tuples = r.len()?;
            for _ in 0..n_tuples {
                let tuple = read_tuple(r)?;
                let epoch = r.u64()?;
                if epoch > work_epoch {
                    return Err(corrupt("relation tuple stamped past the clock"));
                }
                table.tuples.insert(tuple, epoch);
            }
            let n_entries = r.len()?;
            let mut last = 0u64;
            for _ in 0..n_entries {
                let epoch = r.u64()?;
                if epoch < last || epoch > work_epoch {
                    return Err(corrupt(
                        "relation change log is not sorted within the clock",
                    ));
                }
                last = epoch;
                table.log.push((epoch, read_tuple(r)?));
            }
            if tables.insert(name, table).is_some() {
                return Err(corrupt("duplicate relation table"));
            }
        }
        Ok(Relations { tables })
    }
}

fn write_tuple(w: &mut SnapshotWriter, tuple: &[Id]) {
    w.len(tuple.len());
    for &id in tuple {
        w.id(id);
    }
}

fn read_tuple(r: &mut SnapshotReader<'_>) -> Result<Vec<Id>, SnapshotError> {
    let arity = r.len()?;
    let mut tuple = Vec::with_capacity(arity);
    for _ in 0..arity {
        tuple.push(r.id()?);
    }
    Ok(tuple)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut r = Relations::default();
        assert!(r.insert("amx-B-tile", &[Id(1), Id(2)], 1));
        assert!(!r.insert("amx-B-tile", &[Id(1), Id(2)], 1), "duplicate");
        assert!(r.contains("amx-B-tile", &[Id(1), Id(2)]));
        assert!(!r.contains("amx-B-tile", &[Id(2), Id(1)]));
        assert_eq!(r.len("amx-B-tile"), 1);
        assert_eq!(r.len("missing"), 0);
    }

    #[test]
    fn canonicalize_merges_tuples() {
        let mut r = Relations::default();
        r.insert("rel", &[Id(1), Id(5)], 1);
        r.insert("rel", &[Id(2), Id(5)], 1);
        // Pretend 2 was unioned into 1.
        r.canonicalize(|id| if id == Id(2) { Id(1) } else { id }, 2);
        assert_eq!(r.len("rel"), 1);
        assert!(r.contains("rel", &[Id(1), Id(5)]));
    }

    #[test]
    fn declare_makes_visible_empty_relation() {
        let mut r = Relations::default();
        r.declare("declared");
        assert_eq!(r.len("declared"), 0);
        assert_eq!(r.tuples("declared").count(), 0);
        assert!(!r.any_changed_since(0));
    }

    #[test]
    fn tuples_since_sees_only_tuples_stamped_at_or_after_the_cutoff() {
        let mut r = Relations::default();
        r.insert("rel", &[Id(1)], 1);
        let cutoff = 2;
        assert_eq!(r.tuples_since("rel", cutoff).count(), 0);
        assert!(!r.changed_since("rel", cutoff));
        r.insert("rel", &[Id(2)], cutoff);
        let delta: Vec<_> = r.tuples_since("rel", cutoff).cloned().collect();
        assert_eq!(delta, vec![vec![Id(2)]]);
        assert!(r.changed_since("rel", cutoff));
        // Re-inserting an existing tuple is not a change.
        let cutoff2 = 3;
        r.insert("rel", &[Id(2)], cutoff2);
        assert_eq!(r.tuples_since("rel", cutoff2).count(), 0);
        assert!(!r.changed_since("rel", cutoff2));
        assert!(!r.any_changed_since(cutoff2));
        // The probe is per-relation: changes elsewhere don't leak in.
        r.insert("other", &[Id(3)], cutoff2);
        assert!(!r.changed_since("rel", cutoff2));
        assert!(r.changed_since("other", cutoff2));
        assert!(r.any_changed_since(cutoff2));
    }

    #[test]
    fn canonicalization_restamps_rewritten_tuples_only() {
        let mut r = Relations::default();
        r.insert("rel", &[Id(1)], 1);
        r.insert("rel", &[Id(2)], 1);
        r.insert("rel", &[Id(7)], 2);
        let cutoff = 2;
        // 2 unioned into 1: tuple [2] is rewritten to [1] and merges with
        // the unchanged [1]; the merged tuple must look new to a delta
        // probe (it can join differently now). [7], inserted this epoch
        // and untouched, is reported once, not logged a second time.
        r.canonicalize(|id| if id == Id(2) { Id(1) } else { id }, cutoff);
        let delta: Vec<_> = r.tuples_since("rel", cutoff).cloned().collect();
        assert_eq!(delta, vec![vec![Id(7)], vec![Id(1)]]);
        // An identity canonicalization changes nothing.
        let cutoff2 = 3;
        r.canonicalize(|id| id, cutoff2);
        assert_eq!(r.tuples_since("rel", cutoff2).count(), 0);
    }
}
