//! Parameter-server model of distributed TensorFlow training.
//!
//! The paper's first dataset trains three neural networks (Multilayer, CNN,
//! RNN) on MNIST with distributed TensorFlow until they reach accuracy 0.85,
//! across 384 configurations: 12 hyper-parameter combinations (Table 1) × 32
//! cluster shapes (Table 2). This module provides the analytic substitute for
//! those measurements (see `DESIGN.md`): a parameter-server performance model
//! whose runtime is the sum of
//!
//! * a fixed startup/warm-up term,
//! * a **compute** term — samples to convergence × per-sample work, divided
//!   by the cluster's aggregate (speed-weighted) cores, inflated by a
//!   synchronization/straggler factor in `sync` mode,
//! * a **communication** term — gradient/parameter exchange through the
//!   parameter server, whose bandwidth is the bottleneck, and
//! * a **memory-pressure** penalty when the per-worker working set exceeds
//!   the VM's RAM.
//!
//! Convergence (the number of samples that must be processed) depends on the
//! learning rate, the batch size, the training mode and the network kind, and
//! it *interacts* with the cluster: asynchronous training suffers a staleness
//! penalty that grows with the number of workers. These interactions are what
//! makes joint optimization necessary (paper Figure 1b).

use crate::execution::Execution;
use lynceus_cloud::ClusterSpec;

/// The three neural-network training jobs of the TensorFlow dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// A small fully-connected network.
    Multilayer,
    /// A convolutional network.
    Cnn,
    /// A recurrent network.
    Rnn,
}

impl NetworkKind {
    /// All three kinds, in the order the paper lists them.
    #[must_use]
    pub fn all() -> [NetworkKind; 3] {
        [NetworkKind::Multilayer, NetworkKind::Cnn, NetworkKind::Rnn]
    }

    /// Human-readable name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::Multilayer => "Multilayer",
            NetworkKind::Cnn => "CNN",
            NetworkKind::Rnn => "RNN",
        }
    }
}

impl std::fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Worker/parameter-server update mode (Table 1's `training mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingMode {
    /// Workers update the model in synchronized rounds.
    Sync,
    /// Workers update the model asynchronously.
    Async,
}

impl TrainingMode {
    /// The label used in the configuration space (`"sync"` / `"async"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TrainingMode::Sync => "sync",
            TrainingMode::Async => "async",
        }
    }

    /// Parses a label produced by [`TrainingMode::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "sync" => Some(TrainingMode::Sync),
            "async" => Some(TrainingMode::Async),
            _ => None,
        }
    }
}

impl std::fmt::Display for TrainingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The hyper-parameters of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfHyperParams {
    /// Learning rate (one of `1e-3`, `1e-4`, `1e-5` in the dataset grid).
    pub learning_rate: f64,
    /// Batch size per worker (16 or 256 in the dataset grid).
    pub batch_size: u32,
    /// Synchronous or asynchronous updates.
    pub training_mode: TrainingMode,
}

/// Analytic performance model of one TensorFlow training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorflowModel {
    kind: NetworkKind,
    /// Number of training samples per epoch (MNIST: 55 000).
    samples_per_epoch: f64,
    /// Per-sample compute on one reference core, in milliseconds.
    ms_per_sample: f64,
    /// Model size exchanged with the parameter server, in megabytes.
    params_mb: f64,
    /// Epochs to reach the target accuracy in the best hyper-parameter
    /// setting.
    base_epochs: f64,
    /// Fixed startup + warm-up seconds (cluster allocation is not billed, but
    /// graph construction and data sharding are).
    startup_seconds: f64,
}

impl TensorflowModel {
    /// The model for a given network kind, with the calibration used by the
    /// dataset generator.
    #[must_use]
    pub fn new(kind: NetworkKind) -> Self {
        let (ms_per_sample, params_mb, base_epochs) = match kind {
            NetworkKind::Multilayer => (10.0, 2.0, 1.2),
            NetworkKind::Cnn => (25.0, 4.0, 2.0),
            NetworkKind::Rnn => (18.0, 4.0, 2.2),
        };
        Self {
            kind,
            samples_per_epoch: 55_000.0,
            ms_per_sample,
            params_mb,
            base_epochs,
            startup_seconds: 20.0,
        }
    }

    /// The network kind this model simulates.
    #[must_use]
    pub fn kind(&self) -> NetworkKind {
        self.kind
    }

    /// Epochs needed to reach the target accuracy for a hyper-parameter
    /// setting on a given number of workers.
    ///
    /// Captures the convergence behaviour that couples hyper-parameters and
    /// cluster size: asynchronous staleness grows with the worker count, a
    /// low learning rate needs many more passes, and RNNs are unstable at the
    /// highest learning rate.
    #[must_use]
    pub fn epochs_to_converge(&self, params: &TfHyperParams, workers: u32) -> f64 {
        let lr_factor = if params.learning_rate >= 1e-3 {
            match self.kind {
                // RNNs destabilize at the aggressive rate and need extra
                // passes to settle.
                NetworkKind::Rnn => 2.5,
                _ => 1.0,
            }
        } else if params.learning_rate >= 1e-4 {
            1.6
        } else {
            5.0
        };
        let batch_factor = if params.batch_size >= 256 { 1.5 } else { 1.0 };
        let mode_factor = match params.training_mode {
            TrainingMode::Sync => 1.0,
            // Gradient staleness: each additional worker adds a little.
            TrainingMode::Async => 1.0 + 0.012 * f64::from(workers),
        };
        self.base_epochs * lr_factor * batch_factor * mode_factor
    }

    /// Wall-clock runtime, in seconds, of training to the target accuracy on
    /// the given cluster (workers only; the parameter server runs on one
    /// additional VM of the same type).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has zero workers (impossible by construction of
    /// [`ClusterSpec`]).
    #[must_use]
    pub fn runtime_seconds(&self, cluster: &ClusterSpec, params: &TfHyperParams) -> f64 {
        let workers = cluster.count();
        let epochs = self.epochs_to_converge(params, workers);
        let total_samples = self.samples_per_epoch * epochs;

        // Compute: total per-sample work spread over the speed-weighted cores.
        let mut compute_seconds =
            total_samples * self.ms_per_sample / 1000.0 / cluster.compute_units();
        if params.training_mode == TrainingMode::Sync {
            // Synchronization barrier: stragglers inflate every round.
            compute_seconds *= 1.0 + 0.02 * f64::from(workers).sqrt();
        }

        // Communication: every batch pushes gradients and pulls parameters
        // through the parameter server, whose NIC is the bottleneck. The
        // volume per processed sample is 2·params/batch, so small batches are
        // communication-hungry.
        let ps_bandwidth_gbps = cluster.vm().network_gbps;
        let updates = total_samples / f64::from(params.batch_size);
        let comm_gbit = updates * 2.0 * self.params_mb * 8.0 / 1000.0;
        let mut comm_seconds = comm_gbit / ps_bandwidth_gbps;
        if params.training_mode == TrainingMode::Async {
            // Asynchronous updates overlap communication with compute.
            comm_seconds *= 0.6;
        }

        // Memory pressure: the working set per worker must fit in RAM.
        let working_set_gb =
            0.5 + self.params_mb * 4.0 / 1000.0 + f64::from(params.batch_size) * 0.004;
        let ram = cluster.vm().ram_gb;
        let memory_penalty = if working_set_gb > ram {
            1.0 + 3.0 * (working_set_gb - ram) / ram
        } else {
            1.0
        };

        self.startup_seconds + (compute_seconds + comm_seconds) * memory_penalty
    }

    /// Simulates one run, including pricing and the dataset's timeout.
    ///
    /// The cluster price includes one extra VM of the same type for the
    /// parameter server, matching the paper's deployment ("One additional VM
    /// is deployed for the parameter server").
    #[must_use]
    pub fn execute(
        &self,
        cluster: &ClusterSpec,
        params: &TfHyperParams,
        timeout_seconds: Option<f64>,
    ) -> Execution {
        let runtime = self.runtime_seconds(cluster, params);
        let billed_vms = f64::from(cluster.count()) + 1.0;
        let price_per_second = cluster.vm().price_per_second() * billed_vms;
        Execution::from_runtime(runtime, price_per_second, timeout_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_cloud::Catalog;

    fn cluster(name: &str, count: u32) -> ClusterSpec {
        ClusterSpec::new(Catalog::aws().get(name).unwrap().clone(), count)
    }

    fn params(lr: f64, batch: u32, mode: TrainingMode) -> TfHyperParams {
        TfHyperParams {
            learning_rate: lr,
            batch_size: batch,
            training_mode: mode,
        }
    }

    #[test]
    fn more_compute_means_less_runtime_for_compute_bound_jobs() {
        let model = TensorflowModel::new(NetworkKind::Rnn);
        let p = params(1e-4, 256, TrainingMode::Sync);
        let small = model.runtime_seconds(&cluster("t2.2xlarge", 2), &p);
        let large = model.runtime_seconds(&cluster("t2.2xlarge", 14), &p);
        assert!(large < small, "large cluster {large} vs small {small}");
    }

    #[test]
    fn lower_learning_rates_need_more_epochs() {
        let model = TensorflowModel::new(NetworkKind::Cnn);
        let fast = model.epochs_to_converge(&params(1e-3, 16, TrainingMode::Sync), 8);
        let medium = model.epochs_to_converge(&params(1e-4, 16, TrainingMode::Sync), 8);
        let slow = model.epochs_to_converge(&params(1e-5, 16, TrainingMode::Sync), 8);
        assert!(fast < medium && medium < slow);
    }

    #[test]
    fn rnn_is_unstable_at_the_aggressive_learning_rate() {
        let rnn = TensorflowModel::new(NetworkKind::Rnn);
        let cnn = TensorflowModel::new(NetworkKind::Cnn);
        let aggressive = params(1e-3, 16, TrainingMode::Sync);
        let moderate = params(1e-4, 16, TrainingMode::Sync);
        // For the RNN the aggressive rate is worse than the moderate one...
        assert!(rnn.epochs_to_converge(&aggressive, 8) > rnn.epochs_to_converge(&moderate, 8));
        // ...while the CNN still prefers the aggressive rate.
        assert!(cnn.epochs_to_converge(&aggressive, 8) < cnn.epochs_to_converge(&moderate, 8));
    }

    #[test]
    fn async_staleness_grows_with_the_worker_count() {
        let model = TensorflowModel::new(NetworkKind::Multilayer);
        let p = params(1e-3, 16, TrainingMode::Async);
        let few = model.epochs_to_converge(&p, 4);
        let many = model.epochs_to_converge(&p, 112);
        assert!(many > few);
        // Sync convergence does not depend on the worker count.
        let p_sync = params(1e-3, 16, TrainingMode::Sync);
        assert_eq!(
            model.epochs_to_converge(&p_sync, 4),
            model.epochs_to_converge(&p_sync, 112)
        );
    }

    #[test]
    fn small_batches_pay_more_communication() {
        let model = TensorflowModel::new(NetworkKind::Cnn);
        let c = cluster("t2.xlarge", 8);
        let small_batch = model.runtime_seconds(&c, &params(1e-3, 16, TrainingMode::Sync));
        let large_batch = model.runtime_seconds(&c, &params(1e-3, 256, TrainingMode::Sync));
        // Despite needing more epochs, the large batch is faster here because
        // the parameter server stops being the bottleneck.
        assert!(large_batch < small_batch);
    }

    #[test]
    fn execution_includes_the_parameter_server_in_the_price() {
        let model = TensorflowModel::new(NetworkKind::Multilayer);
        let c = cluster("t2.medium", 4);
        let p = params(1e-3, 256, TrainingMode::Sync);
        let exec = model.execute(&c, &p, None);
        let expected_price_per_second = c.vm().price_per_second() * 5.0;
        assert!((exec.cost - exec.runtime_seconds * expected_price_per_second).abs() < 1e-9);
    }

    #[test]
    fn timeout_marks_slow_configurations() {
        let model = TensorflowModel::new(NetworkKind::Rnn);
        // Tiny cluster + tiny learning rate: hopeless within 10 minutes.
        let exec = model.execute(
            &cluster("t2.small", 8),
            &params(1e-5, 16, TrainingMode::Sync),
            Some(600.0),
        );
        assert!(exec.timed_out);
        assert_eq!(exec.runtime_seconds, 600.0);
    }

    #[test]
    fn runtime_is_always_positive_and_finite() {
        for kind in NetworkKind::all() {
            let model = TensorflowModel::new(kind);
            for lr in [1e-3, 1e-4, 1e-5] {
                for batch in [16, 256] {
                    for mode in [TrainingMode::Sync, TrainingMode::Async] {
                        let rt = model
                            .runtime_seconds(&cluster("t2.medium", 16), &params(lr, batch, mode));
                        assert!(rt.is_finite() && rt > 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn training_mode_labels_round_trip() {
        for mode in [TrainingMode::Sync, TrainingMode::Async] {
            assert_eq!(TrainingMode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(TrainingMode::from_label("other"), None);
        assert_eq!(NetworkKind::Cnn.to_string(), "CNN");
        assert_eq!(TrainingMode::Sync.to_string(), "sync");
    }
}
