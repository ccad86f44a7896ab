//! Bytes a rule set keeps live: what `RuleSet::for_profile` leaves
//! allocated for each target profile. A session builds its set once and
//! holds it for as long as it lives, so the set is part of every
//! session's resident bytes (about a seventh of the benchmark's
//! `peak_live_bytes` on its small workloads). A rule that keeps a second,
//! uncompiled copy of its query, or a matcher instruction that grows,
//! fails here.
//!
//! Each profile is built once before counting, so every name its rules
//! intern is already interned and the reading is the set's own bytes; the
//! counting allocator reads bytes, not time, so it repeats exactly.
//!
//! This file holds one test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use hardboiled_repro::accel::target::RuleProfile;
use hardboiled_repro::hardboiled::rules::RuleSet;

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

/// Moves the live bytes by `delta` while counting is on.
fn moved(delta: i64) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            moved(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        moved(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System` and `new_size` is the
        // caller's, unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            moved(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Bytes each profile's built set may keep live: measured 30 101 / 17 364
/// / 19 082 / 6 345 (`All` / `Amx` / `Wmma` / `None`) with every query
/// held once, compiled, 32-byte matcher instructions and no spare rule
/// capacity, plus 10 %. History on these sets: 61 409 / 35 918 / 40 186 /
/// 13 031 bytes while each rule also kept its uncompiled query and a
/// `Bind` its arity.
const BUDGETS: [(RuleProfile, i64); 4] = [
    (RuleProfile::All, 33_111),
    (RuleProfile::Amx, 19_100),
    (RuleProfile::Wmma, 20_990),
    (RuleProfile::None, 6_979),
];

#[test]
fn rule_sets_stay_within_their_byte_budgets() {
    for (profile, _) in BUDGETS {
        drop(RuleSet::for_profile(profile));
    }
    let mut over = Vec::new();
    for (profile, budget) in BUDGETS {
        LIVE.store(0, Ordering::Relaxed);
        ENABLED.store(true, Ordering::Relaxed);
        let set = RuleSet::for_profile(profile);
        ENABLED.store(false, Ordering::Relaxed);
        let bytes = LIVE.load(Ordering::Relaxed);
        println!(
            "{profile:?}: {} rules, {bytes} bytes live (budget {budget})",
            set.main.len()
        );
        if bytes > budget {
            over.push(format!("{profile:?} keeps {bytes} bytes, budget {budget}"));
        }
        drop(set);
    }
    assert!(over.is_empty(), "rule sets over budget: {over:?}");
}
