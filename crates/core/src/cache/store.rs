//! The bounded, thread-safe report cache (layer 1 of the subsystem; see
//! the module docs in [`super`] for the keying and eviction scheme).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hb_ir::stmt::Stmt;

use crate::movement::Placements;
use crate::session::CompiledPrograms;

/// How the report cache treated one compile. Lands on
/// [`CompileReport::cache`](crate::session::CompileReport::cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// The finished compile came straight from the cache.
    Hit,
    /// The cache was consulted, missed, and (for fully saturated
    /// outcomes) the fresh result was stored.
    Miss,
    /// The cache had nothing to offer by construction: none is attached,
    /// the request had no selection leaves (such compiles are never
    /// stored), the compile warm-started from a snapshot or exported one,
    /// or the session carries a fault plan.
    #[default]
    Bypass,
}

/// Monotone, process-lifetime counters for one [`ReportCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compiles answered from the cache.
    pub hits: u64,
    /// Consulted compiles that ran the pipeline.
    pub misses: u64,
    /// Compiles that skipped the cache (see [`CacheOutcome::Bypass`]).
    pub bypasses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of consulted compiles (`None` before the first
    /// consult).
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let consulted = self.hits + self.misses;
        #[allow(clippy::cast_precision_loss)]
        (consulted > 0).then(|| self.hits as f64 / consulted as f64)
    }
}

/// One stored compile, bucketed under its content hash. The exact
/// request rides along so a hash collision (including the intentional
/// renamed-sibling collisions) can never serve the wrong entry.
struct Entry {
    request: Vec<(Stmt, Placements)>,
    value: CompiledPrograms,
    last_used: u64,
}

struct Inner {
    buckets: HashMap<u64, Vec<Entry>>,
    len: usize,
    clock: u64,
}

/// A bounded, thread-safe, content-addressed cache of finished compiles,
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

    /// A cache holding at most `capacity` compiles (clamped to at least
    /// one). Inserting into a full cache evicts the least-recently-used
    /// entry.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ReportCache {
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                len: 0,
                clock: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of compiles currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len
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

    /// Records a compile that intentionally skipped the cache.
    pub(crate) fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a consulted compile that ran the pipeline. Apart from
    /// [`ReportCache::lookup`] because one request may be looked up twice
    /// (at a service's front door, then by the worker it was queued for)
    /// and must still count once — when its compile starts.
    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a request by content hash, verifying the stored request
    /// matches exactly (hash collisions can never serve a wrong entry).
    /// Counts a hit; an unanswered lookup counts nothing (see
    /// [`ReportCache::note_miss`]).
    pub(crate) fn lookup(
        &self,
        key: u64,
        request: &[(&Stmt, &Placements)],
    ) -> Option<CompiledPrograms> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.buckets.get_mut(&key).and_then(|entries| {
            entries
                .iter_mut()
                .find(|e| matches_request(&e.request, request))
        })?;
        entry.last_used = clock;
        let value = entry.value.clone();
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Stores a finished compile under the request that produced it (by
    /// value: the entry keeps it for [`ReportCache::lookup`]'s exact
    /// check), evicting the least-recently-used entry when at capacity.
    /// Re-storing an existing request refreshes its value and recency
    /// instead of duplicating it. Returns whether an entry was evicted, so
    /// callers mirroring [`CacheStats`] into a metrics registry can count
    /// evictions without re-reading stats.
    pub(crate) fn store(
        &self,
        key: u64,
        request: Vec<(Stmt, Placements)>,
        value: CompiledPrograms,
    ) -> bool {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner
            .buckets
            .get_mut(&key)
            .and_then(|entries| entries.iter_mut().find(|e| e.request == request))
        {
            entry.value = value;
            entry.last_used = clock;
            return false;
        }
        let evicted = inner.len >= self.capacity;
        if evicted {
            evict_lru(&mut inner);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.buckets.entry(key).or_default().push(Entry {
            request,
            value,
            last_used: clock,
        });
        inner.len += 1;
        evicted
    }
}

fn matches_request(stored: &[(Stmt, Placements)], request: &[(&Stmt, &Placements)]) -> bool {
    stored.len() == request.len()
        && stored
            .iter()
            .zip(request)
            .all(|((s, p), (rs, rp))| s == *rs && p == *rp)
}

fn evict_lru(inner: &mut Inner) {
    // O(len) scan; capacities are small (hundreds) and eviction is off
    // the compile fast path, so a heap isn't worth the bookkeeping.
    let victim = inner
        .buckets
        .iter()
        .flat_map(|(&key, entries)| {
            entries
                .iter()
                .enumerate()
                .map(move |(i, e)| (e.last_used, key, i))
        })
        .min()
        .map(|(_, key, i)| (key, i));
    if let Some((key, i)) = victim {
        let entries = inner.buckets.get_mut(&key).expect("victim bucket exists");
        entries.remove(i);
        if entries.is_empty() {
            inner.buckets.remove(&key);
        }
        inner.len -= 1;
    }
}
