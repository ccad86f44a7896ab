//! The bench-regression guard helpers shared by the JSON-writing bench
//! binaries (`eqsat_saturation`, `serve_throughput`): a dependency-free
//! number extractor for the committed baseline files, the 25% ratio
//! comparison, and the strict-locally/soft-in-CI wall-clock floor.

/// Extracts the number following `"key":` in `json`, searching from the
/// first occurrence of `"anchor"`. A two-level scope is all the committed
/// bench JSON needs (the benches write the files themselves, so the shape
/// is known) — no JSON parser, no new dependency.
#[must_use]
pub fn json_number(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = json.find(&format!("\"{anchor}\""))?;
    let tail = &json[start..];
    let kpos = tail.find(&format!("\"{key}\":"))?;
    let after = tail[kpos + key.len() + 3..].trim_start();
    let num: String = after
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The bench-regression guard: every tracked `(anchor, key, fresh)` ratio
/// must stay within 25% of its committed value. Keys missing from the
/// committed baseline are reported and skipped, so the guard tolerates
/// schema growth. Returns whether all tracked ratios held.
#[must_use]
pub fn compare_against_baseline(baseline: &str, tracked: &[(&str, &str, f64)]) -> bool {
    let mut ok = true;
    for &(anchor, key, fresh) in tracked {
        match json_number(baseline, anchor, key) {
            Some(committed) => {
                let floor = committed * 0.75;
                if fresh < floor {
                    eprintln!(
                        "bench-guard: {anchor}.{key} REGRESSED — fresh {fresh:.2} is below 75% \
                         of the committed {committed:.2} (floor {floor:.2})"
                    );
                    ok = false;
                } else {
                    println!(
                        "bench-guard: {anchor}.{key} ok — fresh {fresh:.2} vs committed {committed:.2}"
                    );
                }
            }
            None => {
                println!("bench-guard: {anchor}.{key} not in the committed baseline — skipped");
            }
        }
    }
    ok
}

/// Wall-clock acceptance floors, reported once the run's JSON is on disk
/// (a missed floor must not cost a run its numbers): every missed floor is
/// printed, then the run fails when running locally (strict) and carries on
/// when running as the CI bench-guard (`--compare`) — absolute floors
/// calibrated on the dev machine don't transfer to shared CI runners, where
/// the guard's 25% ratio comparison is the gate instead.
///
/// # Panics
///
/// When `strict` and any floor was missed.
pub fn timing_floors(strict: bool, missed: &[String]) {
    for msg in missed {
        let soft = if strict {
            ""
        } else {
            " (soft under --compare)"
        };
        eprintln!("warning: {msg}{soft}");
    }
    assert!(
        !strict || missed.is_empty(),
        "{} wall-clock floor(s) missed — the numbers are written; see the warnings above",
        missed.len()
    );
}
