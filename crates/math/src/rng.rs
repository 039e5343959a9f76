//! Deterministic random number generation.
//!
//! Every experiment in the repository must be reproducible from a single
//! `u64` seed: the paper's evaluation repeats each optimization at least 100
//! times with different bootstrap samples and compares optimizers *on the same
//! bootstrap samples* for fairness (Section 5.2). [`SeededRng`] is a thin
//! wrapper over a splitmix64-seeded xoshiro256** generator so that seeding,
//! forking (one independent stream per run / per job) and the handful of
//! sampling primitives the project needs live in one place.

/// A small, fast, deterministic PRNG (xoshiro256**) with convenience sampling
/// methods used across the workspace.
///
/// The generator is intentionally self-contained: optimizer runs and dataset
/// generation must produce bit-identical results across platforms and across
/// releases of third-party crates.
///
/// # Example
///
/// ```
/// use lynceus_math::rng::SeededRng;
///
/// let mut a = SeededRng::new(7);
/// let mut b = SeededRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.uniform(0.0, 10.0);
/// assert!((0.0..10.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    state: [u64; 4],
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Expand the seed with splitmix64 so that nearby seeds produce
        // unrelated streams.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = [next(), next(), next(), next()];
        if state.iter().all(|&s| s == 0) {
            state[0] = 0x1234_5678_9ABC_DEF0;
        }
        Self { state }
    }

    /// Derives an independent generator for a sub-task (e.g. run `i` of an
    /// experiment) without correlating the parent and child streams.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        Self::new(
            self.state[0]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ self.state[2].rotate_left(17),
        )
    }

    /// The raw xoshiro256** state, for checkpointing. Together with
    /// [`SeededRng::from_state`] this round-trips the exact stream position:
    /// a restored generator continues with bit-identical draws.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Rebuilds a generator from a state captured with [`SeededRng::state`].
    ///
    /// The all-zero state is the one fixed point of xoshiro256** (the stream
    /// would be constant zero); it is mapped to the same fallback state
    /// [`SeededRng::new`] uses, so a zeroed checkpoint cannot wedge the
    /// stream.
    #[must_use]
    pub fn from_state(mut state: [u64; 4]) -> Self {
        if state.iter().all(|&s| s == 0) {
            state[0] = 0x1234_5678_9ABC_DEF0;
        }
        Self { state }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits mapped to [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is not finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low < high && low.is_finite() && high.is_finite(),
            "invalid uniform range [{low}, {high})"
        );
        low + (high - low) * self.next_f64()
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        // Rejection-free multiply-shift (Lemire); bias is negligible for the
        // small bounds used here but we keep a widening multiply anyway.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A standard-normal sample (Box–Muller, one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        // Marsaglia polar method; loop terminates with probability 1.
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// A sample from `N(mean, std²)`.
    pub fn gaussian(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.next_gaussian()
    }

    /// A sample from the log-normal distribution whose *logarithm* has the
    /// given mean and standard deviation. Used by the job simulators to add
    /// multiplicative measurement noise.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.gaussian(mu, sigma).exp()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `0..n` (partial Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool = Vec::new();
        self.sample_indices_into(n, k, &mut pool);
        pool
    }

    /// [`SeededRng::sample_indices`] into a reused buffer (cleared first):
    /// the same draws from the same stream, without allocating once `out`
    /// holds `n` indices.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} distinct indices out of {n}");
        out.clear();
        out.extend(0..n);
        for i in 0..k {
            let j = i + self.below(n - i);
            out.swap(i, j);
        }
        out.truncate(k);
    }

    /// Picks one element of a slice uniformly at random.
    ///
    /// Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(123);
        let mut b = SeededRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let parent = SeededRng::new(99);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let mut c1_again = parent.fork(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn state_round_trip_resumes_the_stream_exactly() {
        let mut rng = SeededRng::new(42);
        for _ in 0..17 {
            let _ = rng.next_u64();
        }
        let mut resumed = SeededRng::from_state(rng.state());
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn from_state_guards_the_all_zero_fixed_point() {
        let mut rng = SeededRng::from_state([0; 4]);
        assert_ne!(rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeededRng::new(5);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_the_whole_range() {
        let mut rng = SeededRng::new(17);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            seen.insert(rng.below(7));
        }
        assert_eq!(seen.len(), 7);
    }

    #[test]
    fn gaussian_mean_and_spread_are_plausible() {
        let mut rng = SeededRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(4.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "sample mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "sample variance {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = SeededRng::new(8);
        let sample = rng.sample_indices(30, 12);
        assert_eq!(sample.len(), 12);
        let distinct: HashSet<_> = sample.iter().collect();
        assert_eq!(distinct.len(), 12);
        assert!(sample.iter().all(|&i| i < 30));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversampling() {
        let mut rng = SeededRng::new(8);
        let _ = rng.sample_indices(3, 4);
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = SeededRng::new(21);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SeededRng::new(13);
        for _ in 0..200 {
            assert!(rng.lognormal(0.0, 0.5) > 0.0);
        }
    }
}
