//! Batch-analytics performance model (Hadoop / Spark jobs).
//!
//! The Scout dataset (18 HiBench / spark-perf jobs) and the CherryPick
//! dataset (TPC-H, TPC-DS, TeraSort, KMeans, Regression) only vary the
//! *cluster composition* — VM family, VM size and node count — so their
//! performance model is the classic batch-analytics decomposition:
//!
//! * a serial fraction that does not speed up with more nodes (Amdahl),
//! * a parallel compute phase that scales with the speed-weighted cores,
//! * an input-scan phase bound by aggregate I/O bandwidth,
//! * a shuffle phase bound by the network, with a coordination overhead that
//!   grows with the node count,
//! * a memory-pressure penalty (spilling) when the per-node working set does
//!   not fit in RAM.
//!
//! Each of the 23 jobs gets its own [`AnalyticsJobProfile`]; the profiles are
//! chosen so that the set covers CPU-bound, memory-bound, network-bound and
//! I/O-bound behaviours ("These jobs stress differently CPU, network and
//! memory resources", Section 5.1.2).

use crate::execution::Execution;
use lynceus_cloud::ClusterSpec;

/// Resource profile of one batch-analytics job.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsJobProfile {
    /// Job name (e.g. `"terasort"`, `"kmeans"`).
    pub name: String,
    /// Total compute demand in reference-core seconds.
    pub compute_core_seconds: f64,
    /// Fraction of the compute that cannot be parallelized.
    pub serial_fraction: f64,
    /// Input data scanned from storage, in GB.
    pub input_gb: f64,
    /// Data shuffled across the network, in GB.
    pub shuffle_gb: f64,
    /// Working-set memory per (reference) core, in GB.
    pub memory_per_core_gb: f64,
    /// Fraction of the input scan that can be served from local storage when
    /// the VM family has fast local disks (the `i2` family).
    pub local_disk_affinity: f64,
    /// Fixed job startup/teardown seconds.
    pub startup_seconds: f64,
}

impl AnalyticsJobProfile {
    /// A CPU-dominated profile (e.g. regression, k-means iterations).
    #[must_use]
    pub fn cpu_bound(name: impl Into<String>, compute_core_seconds: f64) -> Self {
        Self {
            name: name.into(),
            compute_core_seconds,
            serial_fraction: 0.03,
            input_gb: 20.0,
            shuffle_gb: 2.0,
            memory_per_core_gb: 1.0,
            local_disk_affinity: 0.2,
            startup_seconds: 25.0,
        }
    }

    /// A shuffle-heavy profile (e.g. TeraSort, joins).
    #[must_use]
    pub fn shuffle_bound(name: impl Into<String>, shuffle_gb: f64) -> Self {
        Self {
            name: name.into(),
            compute_core_seconds: 3_000.0,
            serial_fraction: 0.02,
            input_gb: shuffle_gb,
            shuffle_gb,
            memory_per_core_gb: 1.5,
            local_disk_affinity: 0.5,
            startup_seconds: 25.0,
        }
    }

    /// A memory-hungry profile (e.g. in-memory aggregation, caching-heavy
    /// Spark SQL).
    #[must_use]
    pub fn memory_bound(name: impl Into<String>, memory_per_core_gb: f64) -> Self {
        Self {
            name: name.into(),
            compute_core_seconds: 4_000.0,
            serial_fraction: 0.05,
            input_gb: 60.0,
            shuffle_gb: 10.0,
            memory_per_core_gb,
            local_disk_affinity: 0.3,
            startup_seconds: 30.0,
        }
    }
}

/// The analytic runtime model: evaluates an [`AnalyticsJobProfile`] on a
/// cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsModel {
    profile: AnalyticsJobProfile,
}

impl AnalyticsModel {
    /// Wraps a job profile.
    #[must_use]
    pub fn new(profile: AnalyticsJobProfile) -> Self {
        Self { profile }
    }

    /// The wrapped profile.
    #[must_use]
    pub fn profile(&self) -> &AnalyticsJobProfile {
        &self.profile
    }

    /// Wall-clock runtime in seconds on the given cluster.
    #[must_use]
    pub fn runtime_seconds(&self, cluster: &ClusterSpec) -> f64 {
        let p = &self.profile;
        let vm = cluster.vm();
        let nodes = f64::from(cluster.count());

        // Serial phase: runs on a single core of this family.
        let serial = p.compute_core_seconds * p.serial_fraction / vm.relative_core_speed;

        // Parallel phase.
        let parallel_work = p.compute_core_seconds * (1.0 - p.serial_fraction);
        let mut parallel = parallel_work / cluster.compute_units();

        // Memory pressure: spilling slows the parallel phase down.
        let needed_per_node = p.memory_per_core_gb * f64::from(vm.vcpus);
        if needed_per_node > vm.ram_gb {
            let deficit = (needed_per_node - vm.ram_gb) / vm.ram_gb;
            parallel *= 1.0 + 2.5 * deficit;
        }

        // Input scan: remote reads over the network unless the family has
        // fast local storage (i2) and the job can exploit it.
        let local_fraction = if vm.family == lynceus_cloud::VmFamily::I2 {
            p.local_disk_affinity
        } else {
            0.0
        };
        let remote_input_gb = p.input_gb * (1.0 - local_fraction);
        let scan = remote_input_gb * 8.0 / cluster.total_network_gbps();

        // Shuffle: all-to-all exchange plus a coordination overhead that
        // grows with the number of nodes.
        let shuffle =
            p.shuffle_gb * 8.0 / cluster.total_network_gbps() * (1.0 + 0.04 * nodes.sqrt());

        p.startup_seconds + serial + parallel + scan + shuffle
    }

    /// Simulates one run on the cluster, with per-second billing and an
    /// optional timeout.
    #[must_use]
    pub fn execute(&self, cluster: &ClusterSpec, timeout_seconds: Option<f64>) -> Execution {
        let runtime = self.runtime_seconds(cluster);
        Execution::from_runtime(runtime, cluster.price_per_second(), timeout_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_cloud::Catalog;

    fn cluster(name: &str, count: u32) -> ClusterSpec {
        ClusterSpec::new(Catalog::aws().get(name).unwrap().clone(), count)
    }

    #[test]
    fn cpu_bound_jobs_prefer_compute_optimized_vms() {
        let model = AnalyticsModel::new(AnalyticsJobProfile::cpu_bound("regression", 20_000.0));
        let on_c4 = model.runtime_seconds(&cluster("c4.xlarge", 8));
        let on_r3 = model.runtime_seconds(&cluster("r3.xlarge", 8));
        assert!(on_c4 < on_r3, "c4 {on_c4} should beat r3 {on_r3}");
    }

    #[test]
    fn memory_bound_jobs_prefer_memory_optimized_vms() {
        let model = AnalyticsModel::new(AnalyticsJobProfile::memory_bound("sql-agg", 5.0));
        let on_c4 = model.runtime_seconds(&cluster("c4.xlarge", 8));
        let on_r4 = model.runtime_seconds(&cluster("r4.xlarge", 8));
        assert!(on_r4 < on_c4, "r4 {on_r4} should beat c4 {on_c4}");
    }

    #[test]
    fn disk_heavy_jobs_benefit_from_local_storage() {
        let mut profile = AnalyticsJobProfile::shuffle_bound("terasort", 100.0);
        profile.local_disk_affinity = 0.8;
        let model = AnalyticsModel::new(profile);
        let on_i2 = model.runtime_seconds(&cluster("i2.xlarge", 8));
        let on_r3 = model.runtime_seconds(&cluster("r3.xlarge", 8));
        assert!(on_i2 < on_r3, "i2 {on_i2} should beat r3 {on_r3}");
    }

    #[test]
    fn more_nodes_reduce_runtime_but_with_diminishing_returns() {
        let model = AnalyticsModel::new(AnalyticsJobProfile::cpu_bound("kmeans", 40_000.0));
        let r4 = model.runtime_seconds(&cluster("m4.xlarge", 4));
        let r16 = model.runtime_seconds(&cluster("m4.xlarge", 16));
        let r48 = model.runtime_seconds(&cluster("m4.xlarge", 48));
        assert!(r16 < r4);
        assert!(r48 < r16);
        // Diminishing returns: the second 4x scaling gains less than the first.
        assert!((r4 - r16) > (r16 - r48));
    }

    #[test]
    fn amdahl_limits_the_speedup() {
        let mut profile = AnalyticsJobProfile::cpu_bound("serial-ish", 10_000.0);
        profile.serial_fraction = 0.5;
        let model = AnalyticsModel::new(profile);
        let small = model.runtime_seconds(&cluster("m4.large", 4));
        let huge = model.runtime_seconds(&cluster("m4.large", 48));
        // Even a 12x bigger cluster cannot get past the serial half.
        assert!(huge > small / 12.0 * 4.0);
    }

    #[test]
    fn memory_pressure_slows_down_undersized_vms() {
        let profile = AnalyticsJobProfile::memory_bound("cache-heavy", 6.0);
        let model = AnalyticsModel::new(profile);
        // c4.2xlarge has 15 GB for 8 cores: 1.9 GB/core < 6 GB/core needed.
        let starved = model.runtime_seconds(&cluster("c4.2xlarge", 8));
        // r4.2xlarge has 61 GB for 8 cores: 7.6 GB/core, no spilling.
        let comfortable = model.runtime_seconds(&cluster("r4.2xlarge", 8));
        assert!(starved > comfortable * 1.3);
    }

    #[test]
    fn execution_uses_cluster_pricing_and_timeout() {
        let model = AnalyticsModel::new(AnalyticsJobProfile::cpu_bound("quick", 1_000.0));
        let c = cluster("m4.large", 4);
        let exec = model.execute(&c, None);
        assert!((exec.cost - exec.runtime_seconds * c.price_per_second()).abs() < 1e-9);
        let strict = model.execute(&c, Some(1.0));
        assert!(strict.timed_out);
    }

    #[test]
    fn profile_constructors_set_their_signature_resources() {
        let cpu = AnalyticsJobProfile::cpu_bound("a", 1.0);
        let shuffle = AnalyticsJobProfile::shuffle_bound("b", 200.0);
        let memory = AnalyticsJobProfile::memory_bound("c", 4.0);
        assert!(shuffle.shuffle_gb > cpu.shuffle_gb);
        assert!(memory.memory_per_core_gb > cpu.memory_per_core_gb);
        assert_eq!(cpu.name, "a");
    }
}
