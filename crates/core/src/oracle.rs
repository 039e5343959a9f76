//! The black-box environment that the optimizers profile.

use crate::faults::OracleFault;
use lynceus_space::{ConfigId, ConfigSpace};

/// What the profiling harness observes after running the job once on a
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Wall-clock runtime of the job in seconds.
    pub runtime_seconds: f64,
    /// Monetary cost of the run in dollars (`runtime × price rate`).
    pub cost: f64,
    /// Optional secondary metrics (e.g. energy) used by the multi-constraint
    /// extension; empty for the standard single-constraint problem.
    pub metrics: Vec<f64>,
}

impl Observation {
    /// Creates an observation with no secondary metrics.
    #[must_use]
    pub fn new(runtime_seconds: f64, cost: f64) -> Self {
        Self {
            runtime_seconds,
            cost,
            metrics: Vec::new(),
        }
    }

    /// Attaches secondary metric values (for the multi-constraint extension).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Vec<f64>) -> Self {
        self.metrics = metrics;
        self
    }
}

/// The environment the optimizer interacts with: a job that can be profiled
/// on any candidate configuration.
///
/// Implementations replay measured datasets (`lynceus-datasets`), drive a
/// simulator, or — in a production deployment — actually submit the job to
/// the cloud. The optimizer only ever calls these four methods; it has no
/// other knowledge of the job (the paper's *black-box* requirement).
pub trait CostOracle: Send + Sync {
    /// The configuration grid.
    fn space(&self) -> &ConfigSpace;

    /// The candidate configurations (a subset of the grid for irregular
    /// spaces; the whole grid otherwise).
    fn candidates(&self) -> Vec<ConfigId>;

    /// Runs the job once on a configuration and reports what was measured.
    fn run(&self, id: ConfigId) -> Observation;

    /// Runs the job once, reporting a recoverable [`OracleFault`] instead of
    /// panicking when the run fails transiently (spot revocation, timeout).
    ///
    /// The default forwards to [`CostOracle::run`] — an infallible oracle
    /// needs no changes. Fallible oracles (real clouds, the `sim` crate's
    /// `TurbulentOracle`) override this; the service's retry policy handles
    /// the `Err` channel, and a faulted run charges nothing against β.
    ///
    /// # Errors
    ///
    /// Returns the fault that aborted the run.
    fn try_run(&self, id: ConfigId) -> Result<Observation, OracleFault> {
        Ok(self.run(id))
    }

    /// Opaque durable state to ride inside session checkpoints (e.g. a
    /// fault-plan cursor or an accumulated price multiplier). `None` — the
    /// default — means the oracle is stateless and needs nothing persisted.
    fn durable_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`CostOracle::durable_state`], returning
    /// `false` if the bytes are not recognized (the session then fails with
    /// a corrupt-checkpoint error instead of resuming wrongly). Oracles are
    /// shared behind `&self`, so stateful implementations use interior
    /// mutability. The default accepts anything: a stateless oracle has
    /// nothing to restore.
    fn restore_durable_state(&self, _bytes: &[u8]) -> bool {
        true
    }

    /// The price rate `U(x)` of a configuration in dollars per second.
    ///
    /// The optimizer needs it to convert the runtime constraint
    /// `T(x) ≤ Tmax` into a cost constraint `C(x) ≤ Tmax·U(x)` (Section 3),
    /// so it can reuse the cost model instead of training a second model.
    fn price_rate(&self, id: ConfigId) -> f64;
}

/// A simple in-memory oracle backed by a function of the feature vector,
/// with a uniform price rate. Useful for tests, examples and synthetic
/// problems.
#[derive(Debug, Clone, PartialEq)]
pub struct TableOracle {
    space: ConfigSpace,
    price_rate: f64,
    runtimes: Vec<f64>,
}

impl TableOracle {
    /// Builds the oracle by evaluating `runtime_of` on every configuration's
    /// feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `price_rate` is not positive or a produced runtime is not
    /// finite and positive.
    pub fn from_fn<F>(space: ConfigSpace, price_rate: f64, mut runtime_of: F) -> Self
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(price_rate > 0.0, "price rate must be positive");
        let runtimes: Vec<f64> = space
            .ids()
            .map(|id| {
                let rt = runtime_of(&space.features_of(id));
                assert!(
                    rt.is_finite() && rt > 0.0,
                    "runtimes must be finite and positive"
                );
                rt
            })
            .collect();
        Self {
            space,
            price_rate,
            runtimes,
        }
    }

    /// The runtime stored for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn runtime(&self, id: ConfigId) -> f64 {
        self.runtimes[id.index()]
    }

    /// The true optimum cost over all configurations whose runtime is within
    /// `tmax_seconds` (ignoring the budget), if any configuration qualifies.
    #[must_use]
    pub fn optimum_cost(&self, tmax_seconds: f64) -> Option<f64> {
        self.runtimes
            .iter()
            .filter(|&&rt| rt <= tmax_seconds)
            .map(|&rt| rt * self.price_rate)
            .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.min(c))))
    }
}

impl CostOracle for TableOracle {
    fn space(&self) -> &ConfigSpace {
        &self.space
    }

    fn candidates(&self) -> Vec<ConfigId> {
        self.space.ids().collect()
    }

    fn run(&self, id: ConfigId) -> Observation {
        let rt = self.runtimes[id.index()];
        Observation::new(rt, rt * self.price_rate)
    }

    fn price_rate(&self, _id: ConfigId) -> f64 {
        self.price_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_space::SpaceBuilder;

    fn toy_oracle() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", [1.0, 2.0, 3.0, 4.0])
            .numeric("y", [0.0, 1.0])
            .build();
        TableOracle::from_fn(space, 2.0, |f| 10.0 + f[0] * 3.0 + f[1] * 5.0)
    }

    #[test]
    fn table_oracle_replays_its_function() {
        let oracle = toy_oracle();
        assert_eq!(oracle.candidates().len(), 8);
        for id in oracle.candidates() {
            let features = oracle.space().features_of(id);
            let expected_rt = 10.0 + features[0] * 3.0 + features[1] * 5.0;
            let obs = oracle.run(id);
            assert!((obs.runtime_seconds - expected_rt).abs() < 1e-12);
            assert!((obs.cost - expected_rt * 2.0).abs() < 1e-12);
            assert_eq!(oracle.price_rate(id), 2.0);
            assert_eq!(oracle.runtime(id), expected_rt);
        }
    }

    #[test]
    fn optimum_respects_the_time_constraint() {
        let oracle = toy_oracle();
        // Unconstrained optimum: x=1, y=0 → runtime 13, cost 26.
        assert_eq!(oracle.optimum_cost(1_000.0), Some(26.0));
        // Infeasible threshold: nothing qualifies.
        assert_eq!(oracle.optimum_cost(1.0), None);
        // Tight threshold excludes the cheapest configurations.
        let constrained = oracle.optimum_cost(13.0).unwrap();
        assert!((constrained - 26.0).abs() < 1e-12);
    }

    #[test]
    fn observations_can_carry_secondary_metrics() {
        let obs = Observation::new(10.0, 1.0).with_metrics(vec![3.0, 4.0]);
        assert_eq!(obs.metrics, vec![3.0, 4.0]);
        assert_eq!(Observation::new(1.0, 1.0).metrics.len(), 0);
    }

    #[test]
    #[should_panic(expected = "price rate must be positive")]
    fn zero_price_rate_panics() {
        let space = SpaceBuilder::new().numeric("x", [1.0]).build();
        let _ = TableOracle::from_fn(space, 0.0, |_| 1.0);
    }
}
