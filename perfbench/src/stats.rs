//! Order statistics with the benchmark's reporting rule: a tail percentile
//! is only trusted when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile before it is reported
/// as a tail figure.
pub const MIN_BEYOND: usize = 10;

/// `part ÷ whole`, 0 when `whole` is 0.
pub fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A sorted, finite sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts the values. Non-finite values are kept so that
    /// [`Sample::all_finite_non_negative`] can reject them.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`): the smallest value with at
    /// least `p · n` samples at or below it. `None` for an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = rank_of(n, p);
        Some(self.sorted[rank.max(1) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Samples strictly beyond the `p` percentile.
    pub fn beyond(&self, p: f64) -> usize {
        beyond(self.sorted.len(), p)
    }

    /// True when the `p` percentile has at least [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn tail_is_sampled(&self, p: f64) -> bool {
        self.beyond(p) >= MIN_BEYOND
    }

    pub fn all_finite_non_negative(&self) -> bool {
        self.sorted.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

/// A uniform random sample of at most [`Reservoir::CAPACITY`] values out of
/// a stream of any length (Algorithm R), so memory stays flat however many
/// sessions a fast program completes in a run.
#[derive(Debug, Clone)]
pub struct Reservoir {
    values: Vec<f64>,
    seen: u64,
    state: u64,
    /// Values pushed that were negative or not finite.
    pub invalid: u64,
}

impl Default for Reservoir {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            seen: 0,
            state: 0x0005_EED5,
            invalid: 0,
        }
    }
}

impl Reservoir {
    pub const CAPACITY: usize = 100_000;

    pub fn push(&mut self, value: f64) {
        if !(value.is_finite() && value >= 0.0) {
            self.invalid += 1;
        }
        self.seen += 1;
        if self.values.len() < Self::CAPACITY {
            self.values.push(value);
            return;
        }
        self.state = crate::session::mix(self.state, self.seen);
        let slot = self.state % self.seen;
        if let Ok(slot) = usize::try_from(slot) {
            if slot < Self::CAPACITY {
                self.values[slot] = value;
            }
        }
    }

    /// Values pushed so far (not only those kept).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn sample(&self) -> Sample {
        Sample::new(self.values.clone())
    }
}

/// The 1-based nearest rank `⌈p·n⌉`, computed so that exact products such
/// as `0.9 · 100` are not pushed up by floating-point error.
fn rank_of(n: usize, p: f64) -> usize {
    let exact = p * n as f64;
    let rounded = exact.round();
    if (exact - rounded).abs() < 1e-9 {
        rounded as usize
    } else {
        exact.ceil() as usize
    }
}

/// Of `n` samples, those strictly beyond the `p` percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank_of(n, p).min(n)
}

/// The highest of the usual reporting percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it: the tail a sample of `n` can support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Sample {
        Sample::new((1..=n).map(|v| v as f64).rev().collect())
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(ramp(3).median(), Some(2.0));
        assert_eq!(Sample::new(Vec::new()).median(), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples leave exactly 10 beyond the 90th percentile.
        assert_eq!(ramp(100).beyond(0.9), 10);
        assert!(ramp(100).tail_is_sampled(0.9));
        // 99 samples put the 90th percentile at rank 90: only 9 beyond.
        assert_eq!(ramp(99).beyond(0.9), 9);
        assert!(!ramp(99).tail_is_sampled(0.9));
        assert!(ramp(20).tail_is_sampled(0.5));
        assert!(!ramp(19).tail_is_sampled(0.5));
    }

    #[test]
    fn highest_supported_percentile_follows_the_rule() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn a_reservoir_keeps_everything_up_to_capacity_then_a_sample() {
        let mut small = Reservoir::default();
        for v in 0..10 {
            small.push(f64::from(v));
        }
        assert_eq!(small.sample().len(), 10);
        assert_eq!(small.sample().median(), Some(4.0));
        let mut big = Reservoir::default();
        let n = Reservoir::CAPACITY as u32 * 3;
        for v in 0..n {
            big.push(f64::from(v));
        }
        assert_eq!(big.seen(), u64::from(n));
        let sample = big.sample();
        assert_eq!(sample.len(), Reservoir::CAPACITY);
        // A uniform sample of 0..n has its median near n / 2.
        let median = sample.median().unwrap() / f64::from(n);
        assert!((median - 0.5).abs() < 0.01, "median at {median}");
        assert_eq!(big.invalid, 0);
        big.push(-1.0);
        big.push(f64::NAN);
        assert_eq!(big.invalid, 2);
    }

    #[test]
    fn negative_or_non_finite_values_are_flagged() {
        assert!(ramp(5).all_finite_non_negative());
        assert!(!Sample::new(vec![1.0, -0.5]).all_finite_non_negative());
        assert!(!Sample::new(vec![f64::NAN]).all_finite_non_negative());
        assert!(!Sample::new(vec![f64::INFINITY]).all_finite_non_negative());
    }
}
