//! Alone in its test binary: the allocator's counters are process-wide, so
//! no other test may allocate while this one counts.

use hb_benchmark::measure::{counted_round, Options};
use hb_benchmark::workloads::by_name;

#[test]
fn two_counted_rounds_of_interactive_small_agree() {
    let workload = by_name("interactive_small").expect("listed");
    let options = Options {
        seed: 1,
        seconds: 0.0,
        smoke: true,
    };
    // As in a real run, the counted round is not the process's first:
    // lazy statics and thread-locals are paid for before it.
    let _ = counted_round(workload, options);
    let first = counted_round(workload, options);
    let second = counted_round(workload, options);
    assert!(first.allocs > 0 && first.peak_live_bytes > 0);
    // Not `assert_eq`: the engine's randomly keyed hash maps make a few
    // allocations in a million come and go (see `metrics::near_count`).
    let close = |a: u64, b: u64| a.abs_diff(b) as f64 <= 1e-3 * a as f64;
    assert!(close(first.allocs, second.allocs), "{first:?} {second:?}");
    assert!(
        close(first.peak_live_bytes, second.peak_live_bytes),
        "{first:?} {second:?}"
    );
    assert_eq!(first.round.failed + second.round.failed, 0);
}
