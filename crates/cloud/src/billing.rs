//! Billing arithmetic.
//!
//! The paper assumes a pay-by-the-second (or by-the-minute) pricing scheme,
//! which all major providers now offer (Section 2 of the paper). The billing
//! granularity matters: with per-minute billing a 61-second run costs two
//! minutes. The datasets use per-second billing by default, matching the
//! paper's EC2 setup, but the coarser granularities are provided so the
//! sensitivity of the results to billing can be explored.
//!
//! [`SpotPriceSeries`] adds the market dimension the paper's on-demand
//! setup abstracts away: a seeded, *step-indexed* series of price
//! multipliers (a bounded geometric walk), so fault-injection experiments
//! can price profiling runs off a spot market that moves deterministically
//! with the profiling step count — never with wall-clock time.

use lynceus_math::rng::SeededRng;

/// The granularity at which usage is rounded up before being charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BillingGranularity {
    /// Bill exact seconds (EC2 Linux, per the paper's assumption).
    #[default]
    PerSecond,
    /// Round up to whole minutes (Azure-style).
    PerMinute,
    /// Round up to whole hours (legacy EC2).
    PerHour,
}

impl BillingGranularity {
    /// The billable duration, in seconds, for an actual usage duration.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or not finite.
    #[must_use]
    pub fn billable_seconds(self, seconds: f64) -> f64 {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "usage duration must be a finite non-negative number of seconds"
        );
        match self {
            BillingGranularity::PerSecond => seconds,
            BillingGranularity::PerMinute => (seconds / 60.0).ceil() * 60.0,
            BillingGranularity::PerHour => (seconds / 3600.0).ceil() * 3600.0,
        }
    }
}

/// Cost, in dollars, of using a resource priced at `price_per_hour` for
/// `seconds` seconds under the given billing granularity.
///
/// # Panics
///
/// Panics if `seconds` is negative/not finite or `price_per_hour` is negative.
#[must_use]
pub fn cost_for(seconds: f64, price_per_hour: f64, granularity: BillingGranularity) -> f64 {
    assert!(price_per_hour >= 0.0, "price must be non-negative");
    granularity.billable_seconds(seconds) * price_per_hour / 3600.0
}

/// A precomputed, seeded series of spot-price multipliers indexed by
/// profiling step.
///
/// The series is a geometric random walk clamped to a band: at each step the
/// multiplier moves by a lognormal factor of the given volatility and is
/// clamped to `[floor, ceiling]`. Indexing past the horizon holds the last
/// value, so a price exists for every step regardless of how long a session
/// runs. Two series with the same seed and parameters are identical —
/// the price a run pays depends only on its step index, which is what keeps
/// price-shocked sessions exactly replayable after a checkpoint restore.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotPriceSeries {
    multipliers: Vec<f64>,
}

impl SpotPriceSeries {
    /// Builds a series of `horizon` multipliers starting at 1.0.
    ///
    /// `volatility` is the per-step lognormal σ (0 freezes the price at
    /// 1.0); the walk is clamped to `band = (floor, ceiling)`.
    ///
    /// # Panics
    ///
    /// Panics unless `volatility` is finite and non-negative and
    /// `0 < floor ≤ ceiling` with both finite.
    #[must_use]
    pub fn geometric(seed: u64, horizon: usize, volatility: f64, band: (f64, f64)) -> Self {
        let (floor, ceiling) = band;
        assert!(
            volatility.is_finite() && volatility >= 0.0,
            "volatility must be a finite non-negative σ"
        );
        assert!(
            floor > 0.0 && floor <= ceiling && ceiling.is_finite(),
            "the price band must satisfy 0 < floor <= ceiling, both finite"
        );
        let mut rng = SeededRng::new(seed);
        let mut price = 1.0f64.clamp(floor, ceiling);
        let mut multipliers = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            multipliers.push(price);
            price = (price * rng.lognormal(0.0, volatility)).clamp(floor, ceiling);
        }
        Self { multipliers }
    }

    /// The price multiplier in effect at a profiling step. Steps past the
    /// horizon hold the last value; an empty series is a flat 1.0.
    #[must_use]
    pub fn multiplier_at(&self, step: u64) -> f64 {
        let index = usize::try_from(step).unwrap_or(usize::MAX);
        self.multipliers
            .get(index)
            .or_else(|| self.multipliers.last())
            .copied()
            .unwrap_or(1.0)
    }

    /// Number of precomputed steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.multipliers.len()
    }

    /// True when no steps were precomputed (flat 1.0 pricing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.multipliers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_second_billing_is_linear() {
        let a = cost_for(100.0, 3.6, BillingGranularity::PerSecond);
        let b = cost_for(200.0, 3.6, BillingGranularity::PerSecond);
        assert!((a - 0.1).abs() < 1e-12);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn per_minute_billing_rounds_up() {
        assert_eq!(BillingGranularity::PerMinute.billable_seconds(61.0), 120.0);
        assert_eq!(BillingGranularity::PerMinute.billable_seconds(60.0), 60.0);
        assert_eq!(BillingGranularity::PerMinute.billable_seconds(0.0), 0.0);
    }

    #[test]
    fn per_hour_billing_rounds_up() {
        assert_eq!(BillingGranularity::PerHour.billable_seconds(3601.0), 7200.0);
        let cost = cost_for(10.0, 1.0, BillingGranularity::PerHour);
        assert!((cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coarser_granularities_never_cost_less() {
        for seconds in [1.0, 59.0, 61.0, 3599.0, 3600.0, 5000.0] {
            let s = cost_for(seconds, 2.0, BillingGranularity::PerSecond);
            let m = cost_for(seconds, 2.0, BillingGranularity::PerMinute);
            let h = cost_for(seconds, 2.0, BillingGranularity::PerHour);
            assert!(s <= m + 1e-12);
            assert!(m <= h + 1e-12);
        }
    }

    #[test]
    fn zero_usage_costs_nothing() {
        for g in [
            BillingGranularity::PerSecond,
            BillingGranularity::PerMinute,
            BillingGranularity::PerHour,
        ] {
            assert_eq!(cost_for(0.0, 10.0, g), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_duration_panics() {
        let _ = cost_for(-1.0, 1.0, BillingGranularity::PerSecond);
    }

    #[test]
    fn spot_series_is_seeded_banded_and_holds_past_the_horizon() {
        let a = SpotPriceSeries::geometric(42, 64, 0.2, (0.5, 2.0));
        let b = SpotPriceSeries::geometric(42, 64, 0.2, (0.5, 2.0));
        assert_eq!(a, b, "same seed, same series");
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        assert_eq!(a.multiplier_at(0), 1.0, "the walk starts at par");
        for step in 0..200u64 {
            let m = a.multiplier_at(step);
            assert!(
                (0.5..=2.0).contains(&m),
                "step {step} escaped the band: {m}"
            );
        }
        assert_eq!(
            a.multiplier_at(64),
            a.multiplier_at(1_000_000),
            "past the horizon the last price holds"
        );
        let c = SpotPriceSeries::geometric(43, 64, 0.2, (0.5, 2.0));
        assert_ne!(a, c, "different seeds move differently");
    }

    #[test]
    fn zero_volatility_freezes_the_price() {
        let flat = SpotPriceSeries::geometric(7, 16, 0.0, (0.5, 2.0));
        for step in 0..16 {
            assert_eq!(flat.multiplier_at(step), 1.0);
        }
        let empty = SpotPriceSeries::geometric(7, 0, 0.3, (0.5, 2.0));
        assert!(empty.is_empty());
        assert_eq!(empty.multiplier_at(3), 1.0, "an empty series prices at par");
    }

    #[test]
    #[should_panic(expected = "price band")]
    fn an_inverted_band_panics() {
        let _ = SpotPriceSeries::geometric(0, 8, 0.1, (2.0, 0.5));
    }
}
