//! Profiling-budget bookkeeping.

/// The monetary budget `B` available for profiling runs.
///
/// Every run charges its cost against the budget (Algorithm 1's
/// `β ← β − c`); the optimizer stops when no candidate configuration can be
/// afforded any more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    initial: f64,
    remaining: f64,
}

impl Budget {
    /// Creates a budget of `initial` dollars. `f64::INFINITY` means
    /// "unlimited budget" (no profiling-cost constraint).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is negative or NaN.
    #[must_use]
    pub fn new(initial: f64) -> Self {
        assert!(
            initial >= 0.0 && !initial.is_nan(),
            "budget must be a non-negative amount"
        );
        Self {
            initial,
            remaining: initial,
        }
    }

    /// Rebuilds a budget from checkpointed values. Unlike [`Budget::new`],
    /// `remaining` may be negative (a budget-unaware baseline's last run can
    /// overshoot before the checkpoint is written) — but neither value may be
    /// NaN, and `remaining` must not exceed `initial`.
    ///
    /// # Panics
    ///
    /// Panics on NaN inputs, a negative `initial`, or `remaining > initial`.
    #[must_use]
    pub(crate) fn from_parts(initial: f64, remaining: f64) -> Self {
        assert!(
            initial >= 0.0 && !initial.is_nan(),
            "budget must be a non-negative amount"
        );
        assert!(
            remaining <= initial && !remaining.is_nan(),
            "remaining budget must be a non-NaN amount of at most the initial budget"
        );
        Self { initial, remaining }
    }

    /// The budget the optimizer started with.
    #[must_use]
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// The budget still available.
    #[must_use]
    pub fn remaining(&self) -> f64 {
        self.remaining
    }

    /// The amount already spent.
    #[must_use]
    pub fn spent(&self) -> f64 {
        self.initial - self.remaining
    }

    /// True when there is any budget left.
    #[must_use]
    pub fn has_remaining(&self) -> bool {
        self.remaining > 0.0
    }

    /// Charges a cost against the budget. The remaining budget may become
    /// negative (the final profiling run of a budget-unaware baseline can
    /// overshoot); the overshoot is reported rather than hidden.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is negative or not finite. The profiling driver
    /// validates oracle and switching-model outputs *before* charging, so a
    /// misbehaving oracle surfaces as a recoverable
    /// `optimizer::ProfileError` (and, under the multi-session service, a
    /// per-session `Failed` state) instead of reaching this assertion.
    pub fn charge(&mut self, cost: f64) {
        assert!(
            cost >= 0.0 && cost.is_finite(),
            "cost must be a finite non-negative amount"
        );
        self.remaining -= cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut budget = Budget::new(10.0);
        assert_eq!(budget.initial(), 10.0);
        assert!(budget.has_remaining());
        budget.charge(4.0);
        budget.charge(1.5);
        assert!((budget.remaining() - 4.5).abs() < 1e-12);
        assert!((budget.spent() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn overshoot_goes_negative_but_is_tracked() {
        let mut budget = Budget::new(1.0);
        budget.charge(2.5);
        assert!(budget.remaining() < 0.0);
        assert!(!budget.has_remaining());
        assert!((budget.spent() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_has_nothing_remaining() {
        let budget = Budget::new(0.0);
        assert!(!budget.has_remaining());
    }

    #[test]
    #[should_panic(expected = "non-negative amount")]
    fn negative_budget_panics() {
        let _ = Budget::new(-1.0);
    }

    #[test]
    fn infinite_budget_never_runs_out() {
        let mut budget = Budget::new(f64::INFINITY);
        budget.charge(1e12);
        assert!(budget.has_remaining());
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_charge_panics() {
        let mut budget = Budget::new(1.0);
        budget.charge(-0.5);
    }
}
