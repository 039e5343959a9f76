//! Cluster specifications: `N` identical VMs.

use crate::billing::{cost_for, BillingGranularity};
use crate::vm::VmType;

/// A homogeneous cluster: `count` VMs of one [`VmType`].
///
/// The paper's configurations always rent identical machines (plus one extra
/// VM for the TensorFlow parameter server, which the dataset generator adds
/// explicitly when computing prices).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    vm: VmType,
    count: u32,
}

impl ClusterSpec {
    /// Creates a cluster of `count` VMs.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn new(vm: VmType, count: u32) -> Self {
        assert!(count > 0, "a cluster needs at least one VM");
        Self { vm, count }
    }

    /// The VM shape of every node.
    #[must_use]
    pub fn vm(&self) -> &VmType {
        &self.vm
    }

    /// Number of VMs.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Total number of virtual CPUs.
    #[must_use]
    pub fn total_vcpus(&self) -> u32 {
        self.vm.vcpus * self.count
    }

    /// Total RAM in GiB.
    #[must_use]
    pub fn total_ram_gb(&self) -> f64 {
        self.vm.ram_gb * f64::from(self.count)
    }

    /// Aggregate compute throughput in "normalized core" units (vCPUs scaled
    /// by the per-core speed of the family). Used by the job simulators.
    #[must_use]
    pub fn compute_units(&self) -> f64 {
        f64::from(self.total_vcpus()) * self.vm.relative_core_speed
    }

    /// Aggregate network bandwidth in Gbit/s.
    #[must_use]
    pub fn total_network_gbps(&self) -> f64 {
        self.vm.network_gbps * f64::from(self.count)
    }

    /// Price of the whole cluster in dollars per hour.
    #[must_use]
    pub fn price_per_hour(&self) -> f64 {
        self.vm.price_per_hour * f64::from(self.count)
    }

    /// Price of the whole cluster in dollars per second.
    #[must_use]
    pub fn price_per_second(&self) -> f64 {
        self.price_per_hour() / 3600.0
    }

    /// Cost of holding the cluster for a duration, under per-second billing.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or not finite.
    #[must_use]
    pub fn cost_for_seconds(&self, seconds: f64) -> f64 {
        cost_for(
            seconds,
            self.price_per_hour(),
            BillingGranularity::PerSecond,
        )
    }

    /// Returns a cluster with the same VM shape but a different node count.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn resized(&self, count: u32) -> Self {
        Self::new(self.vm.clone(), count)
    }
}

impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x {}", self.count, self.vm.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn cluster(name: &str, count: u32) -> ClusterSpec {
        ClusterSpec::new(Catalog::aws().get(name).unwrap().clone(), count)
    }

    #[test]
    fn totals_scale_with_the_node_count() {
        let c = cluster("m4.xlarge", 6);
        assert_eq!(c.total_vcpus(), 24);
        assert!((c.total_ram_gb() - 96.0).abs() < 1e-12);
        assert!((c.price_per_hour() - 1.2).abs() < 1e-12);
        assert!((c.compute_units() - 24.0).abs() < 1e-12);
        assert!(c.total_network_gbps() > 0.0);
    }

    #[test]
    fn cost_is_price_times_time() {
        let c = cluster("c4.large", 4);
        let one_hour = c.cost_for_seconds(3600.0);
        assert!((one_hour - c.price_per_hour()).abs() < 1e-9);
        let half_hour = c.cost_for_seconds(1800.0);
        assert!((half_hour * 2.0 - one_hour).abs() < 1e-9);
    }

    #[test]
    fn resizing_keeps_the_vm_shape() {
        let c = cluster("r4.large", 2);
        let bigger = c.resized(10);
        assert_eq!(bigger.count(), 10);
        assert_eq!(bigger.vm().name(), "r4.large");
    }

    #[test]
    fn display_shows_count_and_type() {
        assert_eq!(cluster("t2.small", 8).to_string(), "8x t2.small");
    }

    #[test]
    #[should_panic(expected = "at least one VM")]
    fn zero_node_cluster_panics() {
        let _ = cluster("t2.small", 0);
    }
}
