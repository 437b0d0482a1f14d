//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest
/// sample with at least `p` % of the samples at or below it. Returns NaN
/// on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (the tail a sample count can support), or `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
}

/// Geometric mean of positive values; NaN on an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(percentile(&v, 95.0), 38.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of the input does not matter.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 75.0), 30.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_averages_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(3000), Some(99.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
