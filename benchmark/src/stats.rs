//! Order statistics for timing samples: percentiles, quartiles, the
//! "which percentile may I report" rule and the `unresolved` label.

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample
/// — the same "inclusive" rule as numpy's default, so p50 of an even
/// sample is the midpoint of the two middle values.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50.0)
}

/// Arithmetic mean of a sample.
pub fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len() as f64
}

/// `(q1, median, q3)` of a sample.
pub fn quartiles(sample: &[f64]) -> (f64, f64, f64) {
    (
        percentile(sample, 25.0),
        median(sample),
        percentile(sample, 75.0),
    )
}

/// Interquartile range as a share of the median — the spread the
/// regression bounds are held against.
pub fn relative_iqr(sample: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(sample);
    (q3 - q1) / q2
}

/// The highest rung of the p50/p75/p90/p95/p99 ladder that still has at
/// least ten samples beyond it in a sample of `n` (`None` below n = 20,
/// where not even the median qualifies). A tail percentile resting on
/// fewer samples measures the neighbours on a shared host, not the
/// program.
pub fn highest_reportable_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// A timing whose within-run spread is wider than the bound it is gated
/// by cannot show a regression of that size: it is reported, but marked.
pub fn resolution_label(sample: &[f64], bound: f64) -> &'static str {
    if relative_iqr(sample) > bound {
        "unresolved"
    } else {
        "resolved"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 6.0);
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 11.0);
        // even length: the median interpolates, order does not matter
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((percentile(&[4.0, 1.0, 3.0, 2.0], 10.0) - 1.3).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50));
        assert_eq!(highest_reportable_percentile(24), Some(50));
        assert_eq!(highest_reportable_percentile(40), Some(75));
        assert_eq!(highest_reportable_percentile(48), Some(75));
        assert_eq!(highest_reportable_percentile(100), Some(90));
        assert_eq!(highest_reportable_percentile(200), Some(95));
        assert_eq!(highest_reportable_percentile(1000), Some(99));
    }

    #[test]
    fn iqr_and_unresolved_labelling() {
        let tight: Vec<f64> = (0..21).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        assert!((relative_iqr(&tight) - 0.01 / 1.01).abs() < 1e-12);
        assert_eq!(resolution_label(&tight, 0.05), "resolved");
        let wide: Vec<f64> = (0..21).map(|i| 1.0 + 0.02 * f64::from(i)).collect();
        assert!(relative_iqr(&wide) > 0.1);
        assert_eq!(resolution_label(&wide, 0.10), "unresolved");
        assert_eq!(resolution_label(&wide, 0.25), "resolved");
    }
}
