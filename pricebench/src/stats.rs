//! Exact order statistics over raw samples.
//!
//! Percentiles are computed from every recorded sample (linear
//! interpolation between order statistics), never from histogram
//! buckets, and a tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it: a p90 needs 100 samples, a p99
//! needs 1000.

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: f64 = 10.0;

/// The fewest samples that support percentile `q` (in `(0, 1)`): one for
/// the median and below, else enough to leave [`MIN_BEYOND`] beyond it.
pub fn min_samples(q: f64) -> usize {
    if q <= 0.5 {
        return 1;
    }
    (MIN_BEYOND / (1.0 - q) - 1e-9).ceil() as usize
}

/// Percentile `q` of `samples`, or `None` when fewer than
/// [`min_samples`]`(q)` samples support it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < min_samples(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median with no minimum sample count (for repeated set-up timings and
/// the host reference kernel, which are summaries of a handful of runs).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (`NaN` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_minimums_leave_ten_beyond_the_percentile() {
        assert_eq!(min_samples(0.5), 1);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.5));
        assert!((percentile(&samples, 0.9).unwrap() - 90.1).abs() < 1e-12);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((percentile(&samples, 0.99).unwrap() - 989.01).abs() < 1e-9);
        // An odd count lands on a sample exactly.
        let samples: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.0));
    }

    #[test]
    fn tail_percentiles_refuse_thin_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), None);
        assert!(percentile(&samples, 0.5).is_some());
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), None);
        assert!(percentile(&samples, 0.9).is_some());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
