//! Datalog-style relations over e-class ids (egglog's `relation`).
//!
//! HARDBOILED uses relations such as `amx-B-tile` to decouple
//! application-specific tile-discovery rules from hardware lowering rules.
//! Tuples store e-class ids and are re-canonicalized on every rebuild.
//!
//! ## Change ticks (the semi-naive delta protocol)
//!
//! Every tuple carries the **tick** of its last change, where a "change" is
//! either the tuple's insertion or a canonicalization that rewrote its ids
//! (a remapped tuple can join with pattern matches it could not join with
//! before, so delta evaluation must treat it as new). [`Relations::tick`]
//! exposes the monotone clock; [`Relations::tuples_since`] enumerates the
//! tuples of one relation changed *after* a recorded tick. The scheduler
//! records the tick before each rule's search, so a relation atom's delta
//! probe sees exactly the tuples that changed since that rule last ran —
//! see `rewrite::CompiledQuery::search` for the delta join rounds built on
//! top of this.
//!
//! [`Relations::version`] is different and unchanged: it counts *new facts*
//! only (canonicalization never bumps it) and tells the scheduler's
//! quiescence skip whether a rule could see a new fact since it last ran.
//!
//! Change reads are **log-backed**, mirroring the e-graph's per-op delta
//! logs: every relation keeps an append-only `(tick, tuple)` change log
//! (compacted deterministically from the table once it outgrows it), so a
//! [`Relations::tuples_since`] delta round costs O(changes to that
//! relation) — not a scan of its whole table.

use std::collections::BTreeMap;

use crate::hash::FastMap;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::unionfind::Id;

/// A set of named relations, each a set of id tuples stamped with the tick
/// of their last change.
#[derive(Debug, Clone, Default)]
pub struct Relations {
    tables: FastMap<String, BTreeMap<Vec<Id>, u64>>,
    /// Highest tuple stamp per relation — the O(1) "anything changed since
    /// tick t?" probe backing [`Relations::changed_since`].
    max_ticks: FastMap<String, u64>,
    /// Per-relation append-only `(tick, tuple)` change logs, ticks
    /// nondecreasing — the delta read path behind
    /// [`Relations::tuples_since`]. A log entry is *current* while the
    /// table still stamps its tuple at that tick; superseded and
    /// merged-away entries are filtered on read and dropped by compaction.
    change_logs: FastMap<String, Vec<(u64, Vec<Id>)>>,
    version: u64,
    tick: u64,
}

/// Rebuilds a relation's change log from its table once the log outgrows
/// it: one entry per live tuple at its current stamp, ordered by
/// `(tick, tuple)` — deterministic (the table is a `BTreeMap`) and exact
/// for every future cutoff.
fn compact_change_log(log: &mut Vec<(u64, Vec<Id>)>, table: &BTreeMap<Vec<Id>, u64>) {
    if log.len() <= 64.max(4 * table.len()) {
        return;
    }
    let mut fresh: Vec<(u64, Vec<Id>)> = table
        .iter()
        .map(|(tuple, &tick)| (tick, tuple.clone()))
        .collect();
    fresh.sort_unstable();
    *log = fresh;
}

/// `map[name]`, default-inserted first if absent. Looked up by `&str`: the
/// key is allocated (and hashed a second time) only for a new name, not
/// on every tuple a rule re-derives.
fn entry<'a, V: Default>(map: &'a mut FastMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present: inserted just above")
}

impl Relations {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every relation, tuple and tick, keeping the name tables'
    /// capacity: the store is indistinguishable from [`Relations::new`].
    pub fn clear(&mut self) {
        self.tables.clear();
        self.max_ticks.clear();
        self.change_logs.clear();
        self.version = 0;
        self.tick = 0;
    }

    /// Declares a relation (idempotent). Insertion auto-declares, so this is
    /// only needed when emptiness of an undeclared relation matters.
    pub fn declare(&mut self, name: &str) {
        entry(&mut self.tables, name);
    }

    /// Inserts a tuple; returns whether it was new. A tuple already present
    /// (what a rule re-deriving its facts offers) is not copied.
    pub fn insert(&mut self, name: &str, tuple: &[Id]) -> bool {
        let table = entry(&mut self.tables, name);
        if table.contains_key(tuple) {
            return false;
        }
        self.tick += 1;
        let log = entry(&mut self.change_logs, name);
        log.push((self.tick, tuple.to_vec()));
        table.insert(tuple.to_vec(), self.tick);
        compact_change_log(log, table);
        *entry(&mut self.max_ticks, name) = self.tick;
        self.version += 1;
        true
    }

    /// A counter bumped every time a genuinely new tuple is inserted.
    ///
    /// Canonicalization does not bump it: merging tuples never creates new
    /// facts. The scheduler skips a rule only while this (and the graph)
    /// stayed unchanged since the rule last ran.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The change clock: advanced on every insertion *and* whenever
    /// canonicalization rewrites at least one tuple. A caller that records
    /// `tick()` and later asks [`Relations::tuples_since`] for that value
    /// sees exactly the tuples changed after the recording.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether the tuple is present.
    #[must_use]
    pub fn contains(&self, name: &str, tuple: &[Id]) -> bool {
        self.tables.get(name).is_some_and(|t| t.contains_key(tuple))
    }

    /// All tuples of a relation (empty iterator if undeclared).
    pub fn tuples(&self, name: &str) -> impl Iterator<Item = &Vec<Id>> {
        self.tables.get(name).into_iter().flatten().map(|(t, _)| t)
    }

    /// Whether the relation has any tuple changed strictly after tick
    /// `cutoff`. O(1) — the probe semi-naive evaluation uses to skip
    /// empty delta rounds without scanning the table.
    #[must_use]
    pub fn changed_since(&self, name: &str, cutoff: u64) -> bool {
        self.max_ticks.get(name).is_some_and(|&max| max > cutoff)
    }

    /// Tuples of a relation changed (inserted or canonicalized-rewritten)
    /// strictly after tick `cutoff` — the semi-naive delta read path.
    /// Reads the change-log tail, so the cost is O(changes after
    /// `cutoff`), not O(table); a log entry yields its tuple only while
    /// the table still stamps that tuple at the entry's tick, which
    /// filters superseded and merged-away entries and deduplicates in one
    /// check. Check [`Relations::changed_since`] first to avoid even the
    /// tail walk when nothing changed.
    pub fn tuples_since(&self, name: &str, cutoff: u64) -> impl Iterator<Item = &Vec<Id>> {
        let table = self.tables.get(name);
        let log = self.change_logs.get(name).map_or(&[][..], Vec::as_slice);
        let start = log.partition_point(|&(t, _)| t <= cutoff);
        log[start..]
            .iter()
            .filter_map(move |(tick, tuple)| (table?.get(tuple) == Some(tick)).then_some(tuple))
    }

    /// Number of tuples in a relation.
    #[must_use]
    pub fn len(&self, name: &str) -> usize {
        self.tables.get(name).map_or(0, BTreeMap::len)
    }

    /// Whether the relation has no tuples.
    #[must_use]
    pub fn is_empty(&self, name: &str) -> bool {
        self.len(name) == 0
    }

    /// Total number of tuples across all relations.
    #[must_use]
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(BTreeMap::len).sum()
    }

    /// Rewrites every id in every tuple with `find`, merging tuples that
    /// become equal. Called by the e-graph on rebuild.
    ///
    /// Tuples whose ids actually change are stamped with a fresh tick
    /// (they can join differently now); unchanged tuples keep their stamp,
    /// so a saturated store stays invisible to delta probes. When a changed
    /// and an unchanged tuple merge, the merged tuple keeps the *newest*
    /// stamp.
    pub fn canonicalize(&mut self, find: impl Fn(Id) -> Id) {
        let mut bumped = false;
        for (name, table) in &mut self.tables {
            let needs_rewrite = table.keys().any(|t| t.iter().any(|&id| find(id) != id));
            if !needs_rewrite {
                continue;
            }
            if !bumped {
                self.tick += 1;
                bumped = true;
            }
            let mut new: BTreeMap<Vec<Id>, u64> = BTreeMap::new();
            for (tuple, changed) in std::mem::take(table) {
                let canon: Vec<Id> = tuple.iter().map(|&id| find(id)).collect();
                let stamp = if canon == tuple { changed } else { self.tick };
                let slot = new.entry(canon).or_insert(stamp);
                *slot = (*slot).max(stamp);
            }
            *table = new;
            let log = entry(&mut self.change_logs, name);
            // Log the restamped tuples (ordered table walk → entries with
            // the shared tick are appended in deterministic tuple order).
            for (tuple, &stamp) in table.iter() {
                if stamp == self.tick {
                    log.push((stamp, tuple.clone()));
                }
            }
            compact_change_log(log, table);
            *entry(&mut self.max_ticks, name) = self.tick;
        }
    }

    /// Serializes the whole store into a snapshot payload. Hash maps are
    /// walked in sorted name order so the bytes are deterministic.
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort_unstable();
        w.len(names.len());
        for name in names {
            w.str(name);
            let table = &self.tables[name];
            w.len(table.len());
            for (tuple, &tick) in table {
                w.len(tuple.len());
                for &id in tuple {
                    w.id(id);
                }
                w.u64(tick);
            }
        }
        let mut names: Vec<&String> = self.max_ticks.keys().collect();
        names.sort_unstable();
        w.len(names.len());
        for name in names {
            w.str(name);
            w.u64(self.max_ticks[name]);
        }
        let mut names: Vec<&String> = self.change_logs.keys().collect();
        names.sort_unstable();
        w.len(names.len());
        for name in names {
            w.str(name);
            let log = &self.change_logs[name];
            w.len(log.len());
            for (tick, tuple) in log {
                w.u64(*tick);
                w.len(tuple.len());
                for &id in tuple {
                    w.id(id);
                }
            }
        }
        w.u64(self.version);
        w.u64(self.tick);
    }

    /// Deserializes a store written by [`Relations::write_snapshot`].
    /// Validates what the delta read paths rely on: change-log ticks
    /// nondecreasing (`tuples_since` uses `partition_point`) and every
    /// stamp at or below the restored clock.
    pub(crate) fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut tables: FastMap<String, BTreeMap<Vec<Id>, u64>> = FastMap::default();
        let n_tables = r.len()?;
        for _ in 0..n_tables {
            let name = r.str()?;
            let mut table = BTreeMap::new();
            let n_tuples = r.len()?;
            for _ in 0..n_tuples {
                let arity = r.len()?;
                let mut tuple = Vec::with_capacity(arity);
                for _ in 0..arity {
                    tuple.push(r.id()?);
                }
                let tick = r.u64()?;
                table.insert(tuple, tick);
            }
            if tables.insert(name, table).is_some() {
                return Err(SnapshotError::Corrupt("duplicate relation table".into()));
            }
        }
        let mut max_ticks: FastMap<String, u64> = FastMap::default();
        let n_max = r.len()?;
        for _ in 0..n_max {
            let name = r.str()?;
            let tick = r.u64()?;
            max_ticks.insert(name, tick);
        }
        let mut change_logs: FastMap<String, Vec<(u64, Vec<Id>)>> = FastMap::default();
        let n_logs = r.len()?;
        for _ in 0..n_logs {
            let name = r.str()?;
            let n_entries = r.len()?;
            let mut log = Vec::with_capacity(n_entries);
            let mut last_tick = 0u64;
            for _ in 0..n_entries {
                let tick = r.u64()?;
                if tick < last_tick {
                    return Err(SnapshotError::Corrupt(
                        "relation change log is not sorted by tick".into(),
                    ));
                }
                last_tick = tick;
                let arity = r.len()?;
                let mut tuple = Vec::with_capacity(arity);
                for _ in 0..arity {
                    tuple.push(r.id()?);
                }
                log.push((tick, tuple));
            }
            change_logs.insert(name, log);
        }
        let version = r.u64()?;
        let tick = r.u64()?;
        for (name, table) in &tables {
            if table.values().any(|&stamp| stamp > tick) {
                return Err(SnapshotError::Corrupt(format!(
                    "relation {name:?} stamps a tuple past the clock"
                )));
            }
        }
        Ok(Relations {
            tables,
            max_ticks,
            change_logs,
            version,
            tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut r = Relations::new();
        assert!(r.insert("amx-B-tile", &[Id(1), Id(2)]));
        assert!(!r.insert("amx-B-tile", &[Id(1), Id(2)]), "duplicate");
        assert!(r.contains("amx-B-tile", &[Id(1), Id(2)]));
        assert!(!r.contains("amx-B-tile", &[Id(2), Id(1)]));
        assert_eq!(r.len("amx-B-tile"), 1);
        assert_eq!(r.len("missing"), 0);
        assert!(r.is_empty("missing"));
        assert_eq!(r.total_tuples(), 1);
    }

    #[test]
    fn canonicalize_merges_tuples() {
        let mut r = Relations::new();
        r.insert("rel", &[Id(1), Id(5)]);
        r.insert("rel", &[Id(2), Id(5)]);
        // Pretend 2 was unioned into 1.
        r.canonicalize(|id| if id == Id(2) { Id(1) } else { id });
        assert_eq!(r.len("rel"), 1);
        assert!(r.contains("rel", &[Id(1), Id(5)]));
    }

    #[test]
    fn declare_makes_visible_empty_relation() {
        let mut r = Relations::new();
        r.declare("has-type");
        assert!(r.is_empty("has-type"));
        assert_eq!(r.tuples("has-type").count(), 0);
    }

    #[test]
    fn tuples_since_sees_only_new_insertions() {
        let mut r = Relations::new();
        r.insert("rel", &[Id(1)]);
        let cutoff = r.tick();
        assert_eq!(r.tuples_since("rel", cutoff).count(), 0);
        assert!(!r.changed_since("rel", cutoff));
        r.insert("rel", &[Id(2)]);
        let delta: Vec<_> = r.tuples_since("rel", cutoff).cloned().collect();
        assert_eq!(delta, vec![vec![Id(2)]]);
        assert!(r.changed_since("rel", cutoff));
        // Re-inserting an existing tuple is not a change.
        let cutoff2 = r.tick();
        r.insert("rel", &[Id(2)]);
        assert_eq!(r.tuples_since("rel", cutoff2).count(), 0);
        assert!(!r.changed_since("rel", cutoff2));
        // The probe is per-relation: changes elsewhere don't leak in.
        r.insert("other", &[Id(3)]);
        assert!(!r.changed_since("rel", cutoff2));
        assert!(r.changed_since("other", cutoff2));
    }

    #[test]
    fn canonicalization_restamps_rewritten_tuples_only() {
        let mut r = Relations::new();
        r.insert("rel", &[Id(1)]);
        r.insert("rel", &[Id(2)]);
        let cutoff = r.tick();
        // 2 unioned into 1: tuple [2] is rewritten to [1] and merges with
        // the unchanged [1]; the merged tuple must look new to a delta
        // probe (it can join differently now), and version must not move.
        let version = r.version();
        r.canonicalize(|id| if id == Id(2) { Id(1) } else { id });
        assert_eq!(r.version(), version, "canonicalization mints no facts");
        let delta: Vec<_> = r.tuples_since("rel", cutoff).cloned().collect();
        assert_eq!(delta, vec![vec![Id(1)]]);
        // An identity canonicalization changes nothing.
        let cutoff2 = r.tick();
        r.canonicalize(|id| id);
        assert_eq!(r.tuples_since("rel", cutoff2).count(), 0);
    }
}
