//! Order statistics over timing samples.

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
///
/// # Panics
///
/// On an empty slice: every caller measures at least one operation.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, as the 50th nearest-rank percentile.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive samples.
#[must_use]
pub fn geomean(samples: &[f64]) -> f64 {
    let logs: f64 = samples.iter().map(|v| v.ln()).sum();
    (logs / samples.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.95), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
