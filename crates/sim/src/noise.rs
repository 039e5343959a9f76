//! Measurement-noise model.
//!
//! Cloud measurements are noisy: multi-tenant interference, network jitter
//! and placement variability routinely perturb runtimes by a few percent.
//! The datasets of the paper were measured once per configuration; to
//! reproduce that, the dataset generators draw one multiplicative noise
//! factor per configuration from this model (deterministically, from the
//! dataset seed), freeze it into the lookup table, and the optimizers then
//! see a fixed — but realistically wobbly — cost surface.

use lynceus_math::rng::SeededRng;

/// Multiplicative log-normal noise with a configurable coefficient of
/// variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Approximate coefficient of variation of the noise factor (e.g. `0.05`
    /// for ±5% typical deviation).
    pub coefficient_of_variation: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            coefficient_of_variation: 0.05,
        }
    }
}

impl NoiseModel {
    /// A noiseless model (factor always exactly 1).
    #[must_use]
    pub fn none() -> Self {
        Self {
            coefficient_of_variation: 0.0,
        }
    }

    /// Creates a model with the given coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics if `cv` is negative or not finite.
    #[must_use]
    pub fn with_cv(cv: f64) -> Self {
        assert!(cv >= 0.0 && cv.is_finite(), "cv must be finite and >= 0");
        Self {
            coefficient_of_variation: cv,
        }
    }

    /// Draws one multiplicative noise factor (mean ≈ 1).
    ///
    /// The factor is log-normal so it is always strictly positive.
    #[must_use]
    pub fn factor(&self, rng: &mut SeededRng) -> f64 {
        if self.coefficient_of_variation <= 0.0 {
            return 1.0;
        }
        // For a log-normal with parameters (mu, sigma), the mean is
        // exp(mu + sigma²/2) and the CV is sqrt(exp(sigma²) - 1). Solve for a
        // unit mean and the requested CV.
        let cv2 = self.coefficient_of_variation * self.coefficient_of_variation;
        let sigma2 = (1.0 + cv2).ln();
        let mu = -0.5 * sigma2;
        rng.lognormal(mu, sigma2.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cv_means_no_noise() {
        let mut rng = SeededRng::new(1);
        let model = NoiseModel::none();
        for _ in 0..10 {
            assert_eq!(model.factor(&mut rng), 1.0);
        }
    }

    #[test]
    fn factors_are_positive_and_near_one() {
        let mut rng = SeededRng::new(2);
        let model = NoiseModel::with_cv(0.05);
        for _ in 0..1000 {
            let f = model.factor(&mut rng);
            assert!(f > 0.0);
            assert!(f > 0.7 && f < 1.4, "factor {f} is implausibly far from 1");
        }
    }

    #[test]
    fn empirical_mean_and_cv_match_the_request() {
        let mut rng = SeededRng::new(3);
        let cv = 0.1;
        let model = NoiseModel::with_cv(cv);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| model.factor(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() / mean - cv).abs() < 0.01,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn default_model_has_five_percent_cv() {
        assert!((NoiseModel::default().coefficient_of_variation - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cv must be finite")]
    fn negative_cv_panics() {
        let _ = NoiseModel::with_cv(-0.1);
    }
}
