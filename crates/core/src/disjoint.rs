//! The "ideal disjoint optimization" analysis (paper Section 2.1, Figure 1b).
//!
//! A tempting simplification of the joint tuning/provisioning problem is to
//! optimize the job parameters and the cloud configuration *separately*:
//! first find the best job parameters on a reference cloud configuration
//! `c†`, then find the best cloud configuration for those parameters. The
//! paper shows that even an *ideal* disjoint optimizer — one that gets both
//! sub-problems exactly right — frequently misses the jointly optimal
//! configuration, because the best parameters depend on the cloud
//! configuration.
//!
//! [`disjoint_optimization`] reproduces that analysis: for a given reference
//! cloud configuration it exhaustively finds the best parameters on `c†`,
//! then exhaustively finds the best cloud configuration for those parameters,
//! and reports the cost of the final configuration. Running it once per
//! possible `c†` yields the CDF of Figure 1b.

use crate::oracle::CostOracle;
use lynceus_space::ConfigId;
use std::collections::BTreeMap;

/// Outcome of one ideal disjoint optimization (one reference cloud
/// configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct DisjointOutcome {
    /// The configuration the disjoint procedure ends up selecting.
    pub selected: ConfigId,
    /// Its cost.
    pub cost: f64,
    /// Whether it satisfies the runtime constraint.
    pub feasible: bool,
}

/// Key identifying the "cloud part" or "parameter part" of a configuration:
/// the levels of the corresponding dimensions.
fn sub_key(levels: &[usize], dims: &[usize]) -> Vec<usize> {
    dims.iter().map(|&d| levels[d]).collect()
}

/// Runs the ideal disjoint optimization for one reference cloud
/// configuration.
///
/// * `cloud_dims` — indices of the dimensions that describe the cloud
///   configuration (VM type, cluster size).
/// * `param_dims` — indices of the dimensions that describe the job
///   parameters.
/// * `reference_cloud` — the levels of the cloud dimensions that make up the
///   reference configuration `c†` (same order as `cloud_dims`).
/// * `tmax_seconds` — runtime constraint used to pick "the best" in both
///   phases (configurations violating it are only chosen if nothing
///   satisfies it).
///
/// Returns `None` if no candidate matches the reference cloud configuration.
///
/// # Panics
///
/// Panics if `cloud_dims`/`param_dims` reference dimensions outside the
/// space, or if the two sets overlap or do not cover all dimensions.
#[must_use]
pub fn disjoint_optimization(
    oracle: &dyn CostOracle,
    cloud_dims: &[usize],
    param_dims: &[usize],
    reference_cloud: &[usize],
    tmax_seconds: f64,
) -> Option<DisjointOutcome> {
    let space = oracle.space();
    let dims = space.dims();
    let mut coverage = vec![false; dims];
    for &d in cloud_dims.iter().chain(param_dims) {
        assert!(d < dims, "dimension index {d} out of range");
        assert!(!coverage[d], "dimension {d} listed twice");
        coverage[d] = true;
    }
    assert!(
        coverage.iter().all(|&c| c),
        "cloud_dims and param_dims must cover every dimension"
    );
    assert_eq!(
        reference_cloud.len(),
        cloud_dims.len(),
        "reference cloud must give one level per cloud dimension"
    );

    // Pre-compute every candidate's outcome once.
    let candidates = oracle.candidates();
    let outcomes: BTreeMap<ConfigId, (f64, bool)> = candidates
        .iter()
        .map(|&id| {
            let obs = oracle.run(id);
            (id, (obs.cost, obs.runtime_seconds <= tmax_seconds))
        })
        .collect();

    // Picks the cheapest entry, preferring feasible ones.
    let pick_best = |ids: &[ConfigId]| -> Option<ConfigId> {
        let best_feasible = ids
            .iter()
            .filter(|id| outcomes[id].1)
            .min_by(|a, b| outcomes[a].0.total_cmp(&outcomes[b].0));
        best_feasible
            .or_else(|| {
                ids.iter()
                    .min_by(|a, b| outcomes[a].0.total_cmp(&outcomes[b].0))
            })
            .copied()
    };

    // Phase 1: best parameters on the reference cloud configuration.
    let on_reference: Vec<ConfigId> = candidates
        .iter()
        .copied()
        .filter(|&id| {
            let config = space.config_of(id);
            sub_key(config.levels(), cloud_dims) == reference_cloud
        })
        .collect();
    let best_on_reference = pick_best(&on_reference)?;
    let best_params = sub_key(space.config_of(best_on_reference).levels(), param_dims);

    // Phase 2: best cloud configuration for those parameters.
    let with_params: Vec<ConfigId> = candidates
        .iter()
        .copied()
        .filter(|&id| {
            let config = space.config_of(id);
            sub_key(config.levels(), param_dims) == best_params
        })
        .collect();
    let selected = pick_best(&with_params)?;
    let (cost, feasible) = outcomes[&selected];
    Some(DisjointOutcome {
        selected,
        cost,
        feasible,
    })
}

/// Runs [`disjoint_optimization`] for every possible reference cloud
/// configuration and returns the outcomes (the data behind Figure 1b's CDF).
#[must_use]
pub fn disjoint_optimization_all_references(
    oracle: &dyn CostOracle,
    cloud_dims: &[usize],
    param_dims: &[usize],
    tmax_seconds: f64,
) -> Vec<DisjointOutcome> {
    let space = oracle.space();
    let mut references: Vec<Vec<usize>> = oracle
        .candidates()
        .iter()
        .map(|&id| sub_key(space.config_of(id).levels(), cloud_dims))
        .collect();
    references.sort();
    references.dedup();
    references
        .iter()
        .filter_map(|reference| {
            disjoint_optimization(oracle, cloud_dims, param_dims, reference, tmax_seconds)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TableOracle;
    use lynceus_space::SpaceBuilder;

    /// A surface where the best parameter depends on the cloud configuration:
    /// on small clusters the small batch wins, on large clusters the large
    /// batch wins, and the joint optimum is (large cluster, large batch).
    fn interacting_oracle() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("workers", [2.0, 8.0])
            .numeric("batch", [16.0, 256.0])
            .build();
        TableOracle::from_fn(space, 1.0, |f| {
            match (f[0] as u32, f[1] as u32) {
                (2, 16) => 50.0,
                (2, 256) => 80.0,
                (8, 16) => 60.0,
                (8, 256) => 30.0, // joint optimum
                _ => unreachable!("grid only has these four configurations"),
            }
        })
    }

    #[test]
    fn disjoint_optimization_can_miss_the_joint_optimum() {
        let oracle = interacting_oracle();
        // Reference cloud = 2 workers (level 0): best batch there is 16,
        // then the best cluster for batch 16 costs 50 — not the optimum 30.
        let outcome = disjoint_optimization(&oracle, &[0], &[1], &[0], f64::INFINITY).unwrap();
        assert_eq!(outcome.cost, 50.0);
        // Reference cloud = 8 workers (level 1): the disjoint procedure gets
        // lucky and finds the joint optimum.
        let outcome = disjoint_optimization(&oracle, &[0], &[1], &[1], f64::INFINITY).unwrap();
        assert_eq!(outcome.cost, 30.0);
    }

    #[test]
    fn all_references_produce_one_outcome_each() {
        let oracle = interacting_oracle();
        let outcomes = disjoint_optimization_all_references(&oracle, &[0], &[1], f64::INFINITY);
        assert_eq!(outcomes.len(), 2);
        let costs: Vec<f64> = outcomes.iter().map(|o| o.cost).collect();
        assert!(costs.contains(&50.0));
        assert!(costs.contains(&30.0));
    }

    #[test]
    fn respects_the_time_constraint_when_possible() {
        let space = SpaceBuilder::new()
            .numeric("workers", [2.0, 8.0])
            .numeric("batch", [16.0, 256.0])
            .build();
        // The joint optimum (8, 256) violates the constraint (runtime 30 > 25
        // is fine, but let's make it slow): runtime = cost here, so use
        // tmax = 55 to exclude configs above 55.
        let oracle = TableOracle::from_fn(space, 1.0, |f| match (f[0] as u32, f[1] as u32) {
            (2, 16) => 50.0,
            (2, 256) => 80.0,
            (8, 16) => 60.0,
            (8, 256) => 70.0,
            _ => unreachable!(),
        });
        let outcome = disjoint_optimization(&oracle, &[0], &[1], &[1], 55.0).unwrap();
        // On the 8-worker reference, batch 16 (60) beats 256 (70) — neither is
        // feasible, so the cheapest is taken; then for batch 16 the feasible
        // 2-worker config (50) wins over the infeasible 8-worker one (60).
        assert_eq!(outcome.cost, 50.0);
        assert!(outcome.feasible);
    }

    #[test]
    #[should_panic(expected = "must cover every dimension")]
    fn incomplete_dimension_partition_panics() {
        let oracle = interacting_oracle();
        let _ = disjoint_optimization(&oracle, &[0], &[], &[0], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn overlapping_dimension_partition_panics() {
        let oracle = interacting_oracle();
        let _ = disjoint_optimization(&oracle, &[0, 1], &[1], &[0, 0], f64::INFINITY);
    }
}
