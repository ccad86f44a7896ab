//! The bounded, thread-safe report cache (layer 1 of the subsystem; see
//! the module docs in [`super`] for the keying and eviction scheme).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hb_ir::stmt::Stmt;

/// How the report cache treated one compile. Lands on
/// [`CompileReport::cache`](crate::session::CompileReport::cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// Every selection leaf came from the cache: no compile unit ran.
    Hit,
    /// The cache was consulted and at least one leaf was compiled (and,
    /// where its own unit fully saturated, stored).
    Miss,
    /// The cache had nothing to offer by construction: none is attached,
    /// the request had no selection leaves, the compile warm-started from a
    /// snapshot or exported one, or the session carries a fault plan.
    #[default]
    Bypass,
}

/// Monotone, process-lifetime counters for one [`ReportCache`]. Each
/// request counts once, however many leaves it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests whose every leaf came from the cache.
    pub hits: u64,
    /// Consulted requests that compiled at least one leaf.
    pub misses: u64,
    /// Requests that skipped the cache (see [`CacheOutcome::Bypass`]).
    pub bypasses: u64,
    /// Leaf entries evicted to stay within capacity.
    pub evictions: u64,
}

/// One leaf's selection: the statement spliced in its place, whether it
/// absorbed every data movement, and its extraction cost. What a compile
/// unit makes of each leaf it was given, and what the cache stores and a
/// hit returns.
#[derive(Debug, Clone)]
pub(crate) struct Selection {
    pub(crate) stmt: Stmt,
    pub(crate) lowered: bool,
    pub(crate) cost: Option<u64>,
}

/// One stored leaf selection under its key. The annotated leaf rides
/// along so a 64-bit key collision can never serve the wrong selection.
struct Entry {
    leaf: Stmt,
    selection: Selection,
    last_used: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    clock: u64,
}

/// A bounded, thread-safe, content-addressed cache of leaf selections,
/// shared across sessions (and [`CompileService`] workers) behind an
/// `Arc`. See the module docs in [`super`] for keying, verification and
/// eviction.
///
/// [`CompileService`]: crate::service::CompileService
pub struct ReportCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ReportCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ReportCache {
    fn default() -> Self {
        ReportCache::new(Self::DEFAULT_CAPACITY)
    }
}

impl ReportCache {
    /// Capacity of [`ReportCache::default`].
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` leaf selections (clamped to at
    /// least one). Inserting into a full cache evicts the least-recently-used
    /// entry.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity, in leaf selections.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of leaf selections currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the monotone counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock leaves only ordinary map state
        // behind; the cache stays usable.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counts one request as the hit, miss or bypass it was.
    pub(crate) fn note(&self, outcome: CacheOutcome) {
        let counter = match outcome {
            CacheOutcome::Hit => &self.hits,
            CacheOutcome::Miss => &self.misses,
            CacheOutcome::Bypass => &self.bypasses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up every leaf of one request under one lock acquisition, by
    /// key, answering only a leaf equal to the one that stored the entry (a
    /// key collision can never serve a wrong selection). Counts nothing
    /// (see [`ReportCache::note`]).
    pub(crate) fn lookup(&self, keys: &[u64], leaves: &[&Stmt]) -> Vec<Option<Selection>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let found = keys.iter().zip(leaves).map(|(key, &leaf)| {
            let entry = inner.entries.get_mut(key).filter(|e| e.leaf == *leaf)?;
            entry.last_used = clock;
            Some(entry.selection.clone())
        });
        found.collect()
    }

    /// Stores `(key, annotated leaf, selection)` triples under one lock
    /// acquisition, evicting the least-recently-used entry for each new key
    /// that finds the cache full. A store under a key already held replaces
    /// that entry — the same leaf re-stored, or, on a genuine 64-bit
    /// collision, a different one. Returns how many entries were evicted,
    /// so callers mirroring [`CacheStats`] into a metrics registry can
    /// count evictions without re-reading stats.
    pub(crate) fn store(&self, fresh: Vec<(u64, Stmt, Selection)>) -> u64 {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let mut evicted = 0;
        for (key, leaf, selection) in fresh {
            if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
                evict_lru(&mut inner);
                evicted += 1;
            }
            let entry = Entry {
                leaf,
                selection,
                last_used: clock,
            };
            inner.entries.insert(key, entry);
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }
}

fn evict_lru(inner: &mut Inner) {
    // O(len) scan; capacities are small (hundreds) and eviction is off
    // the compile fast path, so a heap isn't worth the bookkeeping.
    let victim = (inner.entries.iter())
        .min_by_key(|(&key, e)| (e.last_used, key))
        .map(|(&key, _)| key);
    if let Some(key) = victim {
        inner.entries.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_ir::builder::{int, store};

    fn selected(leaf: &Stmt) -> Selection {
        Selection {
            stmt: leaf.clone(),
            lowered: true,
            cost: Some(1),
        }
    }

    #[test]
    fn a_key_collision_replaces_the_entry_and_serves_only_its_leaf() {
        let cache = ReportCache::new(4);
        let (earlier, later) = (store("a", int(0), int(1)), store("b", int(0), int(2)));
        cache.store(vec![(7, earlier.clone(), selected(&earlier))]);
        cache.store(vec![(7, later.clone(), selected(&later))]);
        assert_eq!(cache.len(), 1, "the later store replaces the earlier one");
        let found = cache.lookup(&[7, 7], &[&earlier, &later]);
        assert!(found[0].is_none(), "the earlier leaf was served");
        let hit = found[1].as_ref().expect("the later leaf hits");
        assert_eq!(hit.stmt, later);
        assert_eq!(cache.stats().evictions, 0);
    }
}
