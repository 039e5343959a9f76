//! Setup / switching costs (paper Section 4.4, "Setup costs" extension).
//!
//! Profiling the same configurations in different orders can incur different
//! costs: moving from one cluster shape to another requires booting new VMs,
//! reloading data and warming the deployed system, whereas back-to-back runs
//! on the same cluster only pay for the job itself. [`SetupCostModel`]
//! approximates those switching costs analytically, as the paper suggests, so
//! the optimizer extension can fold them into the cost of each exploration
//! step.

use crate::cluster::ClusterSpec;

/// Analytic model of the cost of switching the deployed cluster.
///
/// Switching from cluster `a` to cluster `b` requires:
///
/// * booting the VMs of `b` that are not already running (same VM type only:
///   changing VM type reboots everything);
/// * reloading the dataset onto the new nodes;
/// * a fixed warm-up of the framework.
///
/// During all of that, the *new* cluster is already being billed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupCostModel {
    /// Seconds to boot one VM (boots happen in parallel, so the boot phase
    /// lasts this long whenever at least one new VM is needed).
    pub vm_boot_seconds: f64,
    /// Seconds to load the input dataset onto a fresh cluster.
    pub data_load_seconds: f64,
    /// Seconds of framework warm-up after any change.
    pub warmup_seconds: f64,
}

impl Default for SetupCostModel {
    fn default() -> Self {
        Self {
            vm_boot_seconds: 60.0,
            data_load_seconds: 90.0,
            warmup_seconds: 30.0,
        }
    }
}

impl SetupCostModel {
    /// A model with no switching costs (the paper's default setting, where
    /// setup costs are ignored).
    #[must_use]
    pub fn free() -> Self {
        Self {
            vm_boot_seconds: 0.0,
            data_load_seconds: 0.0,
            warmup_seconds: 0.0,
        }
    }

    /// Setup *time* (seconds) incurred when moving from `previous` (if any)
    /// to `next`.
    #[must_use]
    pub fn setup_seconds(&self, previous: Option<&ClusterSpec>, next: &ClusterSpec) -> f64 {
        match previous {
            None => self.vm_boot_seconds + self.data_load_seconds + self.warmup_seconds,
            Some(prev) => {
                if prev == next {
                    // Same cluster: only the warm-up (e.g. new parameters).
                    self.warmup_seconds
                } else if prev.vm() == next.vm() && next.count() <= prev.count() {
                    // Shrinking a cluster of the same VM type: no boot, no
                    // reload, just warm-up.
                    self.warmup_seconds
                } else if prev.vm() == next.vm() {
                    // Growing a cluster of the same VM type: boot the extra
                    // nodes and load data onto them.
                    self.vm_boot_seconds + self.data_load_seconds + self.warmup_seconds
                } else {
                    // Different VM type: full redeployment.
                    self.vm_boot_seconds + self.data_load_seconds + self.warmup_seconds
                }
            }
        }
    }

    /// Setup *cost* (dollars) incurred when moving from `previous` to `next`,
    /// billed at the new cluster's price.
    #[must_use]
    pub fn setup_cost(&self, previous: Option<&ClusterSpec>, next: &ClusterSpec) -> f64 {
        next.cost_for_seconds(self.setup_seconds(previous, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::cluster::ClusterSpec;

    fn cluster(name: &str, count: u32) -> ClusterSpec {
        ClusterSpec::new(Catalog::aws().get(name).unwrap().clone(), count)
    }

    #[test]
    fn free_model_costs_nothing() {
        let model = SetupCostModel::free();
        let a = cluster("m4.large", 4);
        let b = cluster("c4.xlarge", 8);
        assert_eq!(model.setup_cost(None, &a), 0.0);
        assert_eq!(model.setup_cost(Some(&a), &b), 0.0);
    }

    #[test]
    fn first_deployment_pays_the_full_setup() {
        let model = SetupCostModel::default();
        let a = cluster("m4.large", 4);
        let expected = model.vm_boot_seconds + model.data_load_seconds + model.warmup_seconds;
        assert_eq!(model.setup_seconds(None, &a), expected);
        assert!(model.setup_cost(None, &a) > 0.0);
    }

    #[test]
    fn same_cluster_only_pays_warmup() {
        let model = SetupCostModel::default();
        let a = cluster("m4.large", 4);
        assert_eq!(model.setup_seconds(Some(&a), &a), model.warmup_seconds);
    }

    #[test]
    fn shrinking_is_cheaper_than_growing() {
        let model = SetupCostModel::default();
        let big = cluster("m4.large", 8);
        let small = cluster("m4.large", 2);
        let shrink = model.setup_seconds(Some(&big), &small);
        let grow = model.setup_seconds(Some(&small), &big);
        assert!(shrink < grow);
    }

    #[test]
    fn changing_vm_type_pays_the_full_setup() {
        let model = SetupCostModel::default();
        let a = cluster("m4.large", 4);
        let b = cluster("r4.large", 4);
        let full = model.vm_boot_seconds + model.data_load_seconds + model.warmup_seconds;
        assert_eq!(model.setup_seconds(Some(&a), &b), full);
    }

    #[test]
    fn setup_cost_scales_with_the_new_cluster_price() {
        let model = SetupCostModel::default();
        let cheap = cluster("t2.small", 2);
        let pricey = cluster("i2.2xlarge", 2);
        let from = cluster("m4.large", 4);
        assert!(model.setup_cost(Some(&from), &pricey) > model.setup_cost(Some(&from), &cheap));
    }
}
