//! Multiple-constraint extension (paper Section 4.4).
//!
//! Beyond the runtime constraint `T(x) ≤ Tmax`, a user may want to enforce
//! additional constraints such as "energy consumed ≤ E" or "peak memory ≤
//! M". Each additional constraint gets its own surrogate model trained on the
//! corresponding metric reported by the oracle, and the acquisition function
//! multiplies the satisfaction probabilities of all constraints (assumed
//! independent, as in the paper).

use crate::acquisition::feasibility_probability;
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Prediction, Surrogate, TrainingSet};
use lynceus_space::ConfigSpace;

/// One additional constraint: "metric `metric_index` must be ≤ `threshold`".
///
/// `metric_index` refers to the position of the metric in
/// [`crate::Observation::metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryConstraint {
    /// Index of the metric in the oracle's observations.
    pub metric_index: usize,
    /// Upper bound the metric must satisfy.
    pub threshold: f64,
}

impl SecondaryConstraint {
    /// Creates a constraint on the metric at `metric_index`.
    #[must_use]
    pub fn new(metric_index: usize, threshold: f64) -> Self {
        Self {
            metric_index,
            threshold,
        }
    }
}

/// The surrogate models of the secondary constraints, refit alongside the
/// cost model at every iteration.
pub(crate) struct ConstraintModels {
    constraints: Vec<SecondaryConstraint>,
    models: Vec<BaggingEnsemble>,
}

impl ConstraintModels {
    /// Creates (unfitted) models for the given constraints.
    pub(crate) fn new(
        constraints: &[SecondaryConstraint],
        ensemble_size: usize,
        seed: u64,
    ) -> Self {
        let models = constraints
            .iter()
            .enumerate()
            .map(|(i, _)| {
                BaggingEnsemble::with_seed(ensemble_size, seed.wrapping_add(1000 + i as u64))
            })
            .collect();
        Self {
            constraints: constraints.to_vec(),
            models,
        }
    }

    /// True when there are no secondary constraints (the common case).
    pub(crate) fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Refits every constraint model on the profiled metric values.
    ///
    /// `observed` provides, for each profiled configuration, its feature
    /// vector and its metric vector.
    pub(crate) fn fit(&mut self, space: &ConfigSpace, observed: &[(Vec<f64>, Vec<f64>)]) {
        for (constraint, model) in self.constraints.iter().zip(&mut self.models) {
            let mut data = TrainingSet::new(space.dims());
            for (features, metrics) in observed {
                if let Some(&value) = metrics.get(constraint.metric_index) {
                    data.push(features.clone(), value);
                }
            }
            if !data.is_empty() {
                model.fit(&data);
            }
        }
    }

    /// Joint probability that every secondary constraint is satisfied at a
    /// configuration (1.0 when there are none, or before any data exists).
    pub(crate) fn satisfaction_probability(&self, features: &[f64]) -> f64 {
        self.constraints
            .iter()
            .zip(&self.models)
            .map(|(constraint, model)| {
                if model.is_fitted() {
                    feasibility_probability(model.predict(features), constraint.threshold)
                } else {
                    1.0
                }
            })
            .product()
    }

    /// Joint satisfaction probabilities for a batch of rows, written into
    /// `out` (cleared first, aligned with `rows`).
    ///
    /// Each constraint model is evaluated once per batch via
    /// [`Surrogate::predict_rows`] (tree-major), and the per-row products
    /// multiply in constraint order — element-wise bit-identical to
    /// [`ConstraintModels::satisfaction_probability`].
    pub(crate) fn satisfaction_rows(
        &self,
        features: &FeatureMatrix,
        rows: &[usize],
        out: &mut Vec<f64>,
        scratch: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.resize(rows.len(), 1.0);
        for (constraint, model) in self.constraints.iter().zip(&self.models) {
            if !model.is_fitted() {
                continue;
            }
            model.predict_rows(features, rows, scratch);
            for (slot, prediction) in out.iter_mut().zip(scratch.iter()) {
                *slot *= feasibility_probability(*prediction, constraint.threshold);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_space::SpaceBuilder;

    fn space() -> ConfigSpace {
        SpaceBuilder::new()
            .numeric("x", (0..10).map(f64::from))
            .build()
    }

    #[test]
    fn no_constraints_means_probability_one() {
        let models = ConstraintModels::new(&[], 5, 0);
        assert!(models.is_empty());
        assert_eq!(models.satisfaction_probability(&[1.0]), 1.0);
    }

    #[test]
    fn unfitted_models_are_optimistic() {
        let models = ConstraintModels::new(&[SecondaryConstraint::new(0, 5.0)], 5, 0);
        assert_eq!(models.satisfaction_probability(&[1.0]), 1.0);
    }

    #[test]
    fn fitted_models_separate_satisfying_and_violating_regions() {
        let space = space();
        let constraint = SecondaryConstraint::new(0, 10.0);
        let mut models = ConstraintModels::new(&[constraint], 8, 3);
        // metric = 2*x: satisfied for x <= 5, violated for larger x.
        let observed: Vec<(Vec<f64>, Vec<f64>)> = (0..10)
            .map(|x| (vec![f64::from(x)], vec![f64::from(2 * x)]))
            .collect();
        models.fit(&space, &observed);
        let low = models.satisfaction_probability(&[1.0]);
        let high = models.satisfaction_probability(&[9.0]);
        assert!(
            low > high,
            "low-x {low} should satisfy more often than high-x {high}"
        );
        assert!(low > 0.5);
        assert!(high < 0.5);
    }

    #[test]
    fn several_constraints_multiply() {
        let space = space();
        let constraints = [
            SecondaryConstraint::new(0, 10.0),
            SecondaryConstraint::new(1, 1.0),
        ];
        let mut models = ConstraintModels::new(&constraints, 8, 3);
        // First metric always satisfied, second always violated.
        let observed: Vec<(Vec<f64>, Vec<f64>)> = (0..10)
            .map(|x| (vec![f64::from(x)], vec![0.0, 5.0]))
            .collect();
        models.fit(&space, &observed);
        let p = models.satisfaction_probability(&[4.0]);
        assert!(
            p < 0.1,
            "joint probability {p} should be dominated by the violated constraint"
        );
    }

    #[test]
    fn missing_metrics_are_tolerated() {
        let space = space();
        let mut models = ConstraintModels::new(&[SecondaryConstraint::new(3, 1.0)], 4, 1);
        let observed = vec![(vec![1.0], vec![0.5])]; // no metric at index 3
        models.fit(&space, &observed);
        // Nothing to learn from: stays optimistic instead of panicking.
        assert_eq!(models.satisfaction_probability(&[1.0]), 1.0);
    }
}
