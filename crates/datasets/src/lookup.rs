//! Lookup datasets: frozen `configuration → (runtime, cost)` tables.

use lynceus_core::{CostOracle, Observation};
use lynceus_space::{ConfigId, ConfigSpace};
use std::collections::BTreeMap;

/// The measured outcome of one configuration of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigOutcome {
    /// Runtime in seconds (capped at the dataset's timeout when `timed_out`).
    pub runtime_seconds: f64,
    /// Cost in dollars.
    pub cost: f64,
    /// True if the run hit the dataset's hard timeout.
    pub timed_out: bool,
    /// Price rate of the configuration in dollars per second.
    pub price_per_second: f64,
}

/// A frozen dataset: a configuration space, the subset of it that was
/// actually profiled, one [`ConfigOutcome`] per profiled configuration and a
/// runtime constraint `Tmax`.
///
/// The type implements [`CostOracle`], so optimizers run against it exactly
/// as they would run against a live cloud deployment — except that "running
/// the job" is a table lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupDataset {
    name: String,
    space: ConfigSpace,
    outcomes: BTreeMap<ConfigId, ConfigOutcome>,
    tmax_seconds: f64,
}

impl LookupDataset {
    /// Builds a dataset from its measurements.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is empty or `tmax_seconds` is not positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        space: ConfigSpace,
        outcomes: BTreeMap<ConfigId, ConfigOutcome>,
        tmax_seconds: f64,
    ) -> Self {
        assert!(
            !outcomes.is_empty(),
            "a dataset needs at least one configuration"
        );
        assert!(tmax_seconds > 0.0, "tmax must be positive");
        Self {
            name: name.into(),
            space,
            outcomes,
            tmax_seconds,
        }
    }

    /// Dataset name (e.g. `"tensorflow/cnn"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The runtime constraint `Tmax` in seconds.
    #[must_use]
    pub fn tmax_seconds(&self) -> f64 {
        self.tmax_seconds
    }

    /// Overrides the runtime constraint (used by sensitivity experiments).
    ///
    /// # Panics
    ///
    /// Panics if `tmax_seconds` is not positive.
    pub fn set_tmax_seconds(&mut self, tmax_seconds: f64) {
        assert!(tmax_seconds > 0.0, "tmax must be positive");
        self.tmax_seconds = tmax_seconds;
    }

    /// Number of profiled configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True if the dataset has no configurations (never the case for a
    /// successfully constructed dataset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The outcome of one configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not part of the dataset.
    #[must_use]
    pub fn outcome(&self, id: ConfigId) -> ConfigOutcome {
        self.outcomes[&id]
    }

    /// True if the configuration satisfies the runtime constraint.
    #[must_use]
    pub fn is_feasible(&self, id: ConfigId) -> bool {
        let o = self.outcomes[&id];
        !o.timed_out && o.runtime_seconds <= self.tmax_seconds
    }

    /// The cheapest feasible configuration and its cost, if any configuration
    /// is feasible.
    #[must_use]
    pub fn optimum(&self) -> Option<(ConfigId, f64)> {
        self.outcomes
            .iter()
            .filter(|(id, _)| self.is_feasible(**id))
            .map(|(id, o)| (*id, o.cost))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Cost of a configuration normalized w.r.t. the optimum (the paper's CNO
    /// metric). Returns `None` when no configuration is feasible.
    #[must_use]
    pub fn cno(&self, cost: f64) -> Option<f64> {
        self.optimum().map(|(_, best)| cost / best)
    }

    /// The average cost of running the job on a configuration (`m̃` in the
    /// paper's budget rule `B = N·m̃·b`).
    #[must_use]
    pub fn mean_cost(&self) -> f64 {
        self.outcomes.values().map(|o| o.cost).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Fraction of configurations that satisfy the runtime constraint.
    #[must_use]
    pub fn feasible_fraction(&self) -> f64 {
        let feasible = self
            .outcomes
            .keys()
            .filter(|&&id| self.is_feasible(id))
            .count();
        feasible as f64 / self.outcomes.len() as f64
    }

    /// The paper's budget rule: `B = N·m̃·b`, where `N` is the bootstrap
    /// count, `m̃` the mean configuration cost and `b` the budget multiplier
    /// (1 = low, 3 = medium, 5 = high).
    #[must_use]
    pub fn budget_for(&self, bootstrap_samples: usize, multiplier: f64) -> f64 {
        bootstrap_samples as f64 * self.mean_cost() * multiplier
    }

    /// All costs, sorted ascending and normalized by the optimum cost (the
    /// data behind Figure 1a). Returns an empty vector when no configuration
    /// is feasible.
    #[must_use]
    pub fn normalized_cost_landscape(&self) -> Vec<f64> {
        let Some((_, best)) = self.optimum() else {
            return Vec::new();
        };
        let mut costs: Vec<f64> = self.outcomes.values().map(|o| o.cost / best).collect();
        costs.sort_by(|a, b| a.total_cmp(b));
        costs
    }

    /// Sets `Tmax` to the median runtime of the dataset, so that roughly half
    /// of the configurations satisfy the constraint (the paper's methodology:
    /// "we set the time constraint for each job in such a way that it is
    /// satisfied by roughly half of the possible configurations").
    pub fn set_tmax_to_median_runtime(&mut self) {
        let mut runtimes: Vec<f64> = self.outcomes.values().map(|o| o.runtime_seconds).collect();
        runtimes.sort_by(|a, b| a.total_cmp(b));
        let median = runtimes[runtimes.len() / 2];
        // Nudge just above the median so the median configuration itself is
        // feasible.
        self.tmax_seconds = median * 1.000_001;
    }
}

impl CostOracle for LookupDataset {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.outcomes.keys().copied().collect()
    }

    fn run(&self, id: ConfigId) -> Observation {
        let o = self.outcomes[&id];
        Observation::new(o.runtime_seconds, o.cost)
    }

    fn price_rate(&self, id: ConfigId) -> f64 {
        self.outcomes[&id].price_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_space::SpaceBuilder;

    fn toy_dataset() -> LookupDataset {
        let space = SpaceBuilder::new()
            .numeric("x", (0..4).map(f64::from))
            .build();
        let mut outcomes = BTreeMap::new();
        for (i, (rt, cost)) in [(10.0, 5.0), (20.0, 3.0), (40.0, 2.0), (80.0, 10.0)]
            .iter()
            .enumerate()
        {
            outcomes.insert(
                ConfigId(i),
                ConfigOutcome {
                    runtime_seconds: *rt,
                    cost: *cost,
                    timed_out: false,
                    price_per_second: cost / rt,
                },
            );
        }
        LookupDataset::new("toy", space, outcomes, 30.0)
    }

    #[test]
    fn optimum_is_the_cheapest_feasible_configuration() {
        let d = toy_dataset();
        // Feasible: ids 0 (rt 10, cost 5) and 1 (rt 20, cost 3).
        let (best, cost) = d.optimum().unwrap();
        assert_eq!(best, ConfigId(1));
        assert_eq!(cost, 3.0);
        assert!(d.is_feasible(ConfigId(0)));
        assert!(!d.is_feasible(ConfigId(2)));
        assert_eq!(d.cno(6.0), Some(2.0));
    }

    #[test]
    fn oracle_interface_replays_the_table() {
        let d = toy_dataset();
        assert_eq!(d.candidates().len(), 4);
        let obs = d.run(ConfigId(2));
        assert_eq!(obs.runtime_seconds, 40.0);
        assert_eq!(obs.cost, 2.0);
        assert!((d.price_rate(ConfigId(2)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn mean_cost_and_budget_rule() {
        let d = toy_dataset();
        assert!((d.mean_cost() - 5.0).abs() < 1e-12);
        assert!((d.budget_for(3, 2.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn median_tmax_makes_roughly_half_the_space_feasible() {
        let mut d = toy_dataset();
        d.set_tmax_to_median_runtime();
        let frac = d.feasible_fraction();
        assert!((0.4..=0.8).contains(&frac), "feasible fraction {frac}");
    }

    #[test]
    fn normalized_landscape_is_sorted_and_starts_at_one() {
        let d = toy_dataset();
        let landscape = d.normalized_cost_landscape();
        assert_eq!(landscape.len(), 4);
        assert!((landscape[0] - 2.0 / 3.0).abs() < 1e-12); // infeasible cheaper config
        for w in landscape.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn timed_out_configurations_are_infeasible_even_if_fast() {
        let space = SpaceBuilder::new().numeric("x", [0.0, 1.0]).build();
        let mut outcomes = BTreeMap::new();
        outcomes.insert(
            ConfigId(0),
            ConfigOutcome {
                runtime_seconds: 5.0,
                cost: 1.0,
                timed_out: true,
                price_per_second: 0.2,
            },
        );
        outcomes.insert(
            ConfigId(1),
            ConfigOutcome {
                runtime_seconds: 8.0,
                cost: 2.0,
                timed_out: false,
                price_per_second: 0.25,
            },
        );
        let d = LookupDataset::new("t", space, outcomes, 10.0);
        assert!(!d.is_feasible(ConfigId(0)));
        assert_eq!(d.optimum().unwrap().0, ConfigId(1));
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_dataset_panics() {
        let space = SpaceBuilder::new().numeric("x", [0.0]).build();
        let _ = LookupDataset::new("empty", space, BTreeMap::new(), 1.0);
    }
}
