//! Exact order statistics over raw samples. No histograms: every
//! percentile is read from the sorted samples themselves.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `pct` percent of the samples at or below
/// it. Integer rank arithmetic, so `pct = 90` over 10 samples is exactly
/// the 9th.
///
/// # Panics
///
/// Panics if `sorted` is empty or `pct` is not in `1..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let rank = (pct * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Samples strictly greater than `value` in an ascending-sorted slice.
#[must_use]
pub fn beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample vector ascending.
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 99), 10.0);
        assert_eq!(percentile(&s, 100), 10.0);
        assert_eq!(percentile(&s, 1), 1.0);
        let one = [7.5];
        assert_eq!(percentile(&one, 50), 7.5);
        assert_eq!(percentile(&one, 99), 7.5);
        // 1000 samples: p99 is the 990th, leaving exactly 10 beyond it.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 99), 990.0);
        assert_eq!(beyond(&s, percentile(&s, 99)), 10);
    }

    #[test]
    fn beyond_counts_strictly_greater_with_ties() {
        let s = [1.0, 2.0, 2.0, 2.0, 3.0];
        assert_eq!(beyond(&s, 2.0), 1);
        assert_eq!(beyond(&s, 0.0), 5);
        assert_eq!(beyond(&s, 3.0), 0);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
