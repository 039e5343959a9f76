//! Descriptive statistics used by the evaluation harness.
//!
//! The paper reports averages, standard deviations, medians, 90th/95th/99th
//! percentiles and empirical CDFs of the *cost normalized with respect to the
//! optimum* (CNO) and of the number of explorations (NEX). This module holds
//! the corresponding estimators so that every figure uses the same
//! definitions.

/// Arithmetic mean of a sample. Returns 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a sample (divides by `n`). Returns 0 when the sample
/// has fewer than two elements.
#[must_use]
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation of a sample.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Percentile of a sample using linear interpolation between closest ranks.
///
/// `q` is expressed in percent (e.g. `90.0` for the 90th percentile).
///
/// Samples are ranked by [`f64::total_cmp`], so a stray NaN (e.g. from a
/// degenerate oracle) sorts deterministically to the extremes instead of
/// panicking mid-report.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 100]`.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile {q} out of [0, 100]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let frac = rank - lower as f64;
        sorted[lower] * (1.0 - frac) + sorted[upper] * frac
    }
}

/// One point of an empirical CDF: `fraction` of the sample is `<= value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// Sample value.
    pub value: f64,
    /// Cumulative fraction in `(0, 1]`.
    pub fraction: f64,
}

/// Empirical CDF of a sample, as a sorted list of [`CdfPoint`]s.
///
/// Returns an empty vector for an empty sample.
#[must_use]
pub fn empirical_cdf(values: &[f64]) -> Vec<CdfPoint> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &value)| CdfPoint {
            value,
            fraction: (i + 1) as f64 / n,
        })
        .collect()
}

/// Evaluates an empirical CDF at a threshold: the fraction of the sample that
/// is `<= threshold`.
#[must_use]
pub fn cdf_at(values: &[f64], threshold: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v <= threshold).count() as f64 / values.len() as f64
}

/// Summary statistics of a sample, in the shape the paper reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of an empty sample");
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count: values.len(),
            mean: mean(values),
            std_dev: std_dev(values),
            min,
            median: percentile(values, 50.0),
            p90: percentile(values, 90.0),
            p95: percentile(values, 95.0),
            p99: percentile(values, 99.0),
            max,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p90={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.median,
            self.p90,
            self.p95,
            self.p99,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // order of the input must not matter
        let shuffled = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 75.0), percentile(&shuffled, 75.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_sample_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let xs = [5.0, 1.0, 3.0, 3.0, 2.0];
        let cdf = empirical_cdf(&xs);
        assert_eq!(cdf.len(), xs.len());
        for w in cdf.windows(2) {
            assert!(w[0].value <= w[1].value);
            assert!(w[0].fraction <= w[1].fraction);
        }
        assert!((cdf.last().unwrap().fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_matches_manual_count() {
        let xs = [1.0, 2.0, 2.0, 3.0, 10.0];
        assert!((cdf_at(&xs, 2.0) - 0.6).abs() < 1e-12);
        assert_eq!(cdf_at(&xs, 0.5), 0.0);
        assert_eq!(cdf_at(&xs, 100.0), 1.0);
        assert_eq!(cdf_at(&[], 1.0), 0.0);
    }

    #[test]
    fn summary_is_consistent_with_component_estimators() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!((s.p90 - percentile(&xs, 90.0)).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        // Display must mention the count and not be empty.
        let text = s.to_string();
        assert!(text.contains("n=100"));
    }
}
