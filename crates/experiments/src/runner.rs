//! Repeated, seeded optimization runs and the CNO/NEX metrics.

use lynceus_core::CostOracle;
use lynceus_core::{
    BoOptimizer, LynceusOptimizer, OptimizationReport, Optimizer, OptimizerSettings,
    RandomOptimizer,
};
use lynceus_datasets::LookupDataset;

/// Which optimizer to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Lynceus with the given lookahead window (`LA = 0` is the cost-aware
    /// myopic variant of the paper's breakdown analysis).
    Lynceus {
        /// Lookahead window.
        lookahead: usize,
    },
    /// The CherryPick-style greedy constrained-EI baseline.
    Bo,
    /// Random search.
    Random,
}

impl OptimizerKind {
    /// Label used in figures (matches the paper's legends).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            OptimizerKind::Lynceus { lookahead: 2 } => "Lynceus".to_owned(),
            OptimizerKind::Lynceus { lookahead } => format!("Lynceus, LA={lookahead}"),
            OptimizerKind::Bo => "BO".to_owned(),
            OptimizerKind::Random => "RND".to_owned(),
        }
    }
}

/// How an experiment is executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of repetitions per (job, optimizer) pair. The paper uses ≥100;
    /// the default keeps the reproduction affordable, and `repro --runs N`
    /// sets it.
    pub runs: usize,
    /// Budget multiplier `b` of the paper's rule `B = N·m̃·b`
    /// (1 = low, 3 = medium, 5 = high).
    pub budget_multiplier: f64,
    /// Gauss–Hermite nodes used by the Lynceus lookahead.
    pub gauss_hermite_nodes: usize,
    /// Worker threads used to parallelize independent runs.
    pub threads: usize,
    /// Base seed; run `i` uses seed `base_seed + i` for every optimizer, so
    /// all optimizers see the same bootstrap samples (Section 5.2).
    pub base_seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            runs: 20,
            budget_multiplier: 3.0,
            gauss_hermite_nodes: 3,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            base_seed: 1,
        }
    }
}

impl ExperimentConfig {
    /// A configuration with a different number of runs.
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// A configuration with a different budget multiplier.
    #[must_use]
    pub fn with_budget_multiplier(mut self, b: f64) -> Self {
        self.budget_multiplier = b;
        self
    }

    /// Builds the optimizer settings for a given dataset: the budget follows
    /// the paper's `B = N·m̃·b` rule and `Tmax` comes from the dataset.
    #[must_use]
    pub fn settings_for(&self, dataset: &LookupDataset, lookahead: usize) -> OptimizerSettings {
        let defaults = OptimizerSettings::default();
        let n = defaults.bootstrap_count(dataset.len(), dataset.space().dims());
        OptimizerSettings {
            budget: dataset.budget_for(n, self.budget_multiplier),
            tmax_seconds: dataset.tmax_seconds(),
            lookahead,
            gauss_hermite_nodes: self.gauss_hermite_nodes,
            // Runs are parallelized across threads already; keeping the path
            // evaluation sequential avoids oversubscription.
            parallel_paths: self.threads <= 1,
            ..defaults
        }
    }

    fn build_optimizer(&self, dataset: &LookupDataset, kind: OptimizerKind) -> Box<dyn Optimizer> {
        match kind {
            OptimizerKind::Lynceus { lookahead } => {
                Box::new(LynceusOptimizer::new(self.settings_for(dataset, lookahead)))
            }
            OptimizerKind::Bo => Box::new(BoOptimizer::new(self.settings_for(dataset, 0))),
            OptimizerKind::Random => Box::new(RandomOptimizer::new(self.settings_for(dataset, 0))),
        }
    }
}

/// The metrics of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Cost normalized w.r.t. the optimum (`None` if the run found no
    /// feasible configuration).
    pub cno: Option<f64>,
    /// Number of explorations performed.
    pub nex: usize,
    /// Total profiling spend.
    pub budget_spent: f64,
}

/// Evaluates one report against its dataset.
#[must_use]
pub fn evaluate(dataset: &LookupDataset, report: &OptimizationReport) -> RunMetrics {
    let cno = report.recommended_cost.and_then(|cost| dataset.cno(cost));
    RunMetrics {
        cno,
        nex: report.num_explorations(),
        budget_spent: report.budget_spent,
    }
}

/// Runs an optimizer `config.runs` times against a dataset, parallelizing the
/// independent runs across threads. Run `i` always uses seed
/// `config.base_seed + i`, so different optimizers are compared on identical
/// bootstrap samples.
#[must_use]
pub fn run_many(
    dataset: &LookupDataset,
    kind: OptimizerKind,
    config: &ExperimentConfig,
) -> Vec<OptimizationReport> {
    let optimizer = config.build_optimizer(dataset, kind);
    let seeds: Vec<u64> = (0..config.runs as u64)
        .map(|i| config.base_seed + i)
        .collect();
    // Runs are independent and identically seeded whether they execute
    // inline or on the pool; the work-stealing schedule cannot change the
    // per-seed results, and the pool returns them in seed order.
    lynceus_core::pool::map_slice(&seeds, config.threads, |&seed| {
        optimizer.optimize(dataset, seed)
    })
}

/// Convenience: runs an optimizer and returns the per-run metrics.
#[must_use]
pub fn run_metrics(
    dataset: &LookupDataset,
    kind: OptimizerKind,
    config: &ExperimentConfig,
) -> Vec<RunMetrics> {
    run_many(dataset, kind, config)
        .iter()
        .map(|report| evaluate(dataset, report))
        .collect()
}

/// Extracts the CNO values of a set of run metrics, substituting the worst
/// observed CNO for runs that found no feasible configuration (so failed runs
/// penalize, rather than silently improve, the aggregate statistics).
#[must_use]
pub fn cno_sample(metrics: &[RunMetrics]) -> Vec<f64> {
    let worst = metrics.iter().filter_map(|m| m.cno).fold(1.0_f64, f64::max);
    metrics.iter().map(|m| m.cno.unwrap_or(worst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_datasets::scout;

    fn small_dataset() -> LookupDataset {
        scout::dataset(&scout::job_profiles()[0], 7)
    }

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::default().with_runs(4)
    }

    #[test]
    fn optimizer_labels_match_the_paper_legends() {
        assert_eq!(OptimizerKind::Lynceus { lookahead: 2 }.label(), "Lynceus");
        assert_eq!(
            OptimizerKind::Lynceus { lookahead: 0 }.label(),
            "Lynceus, LA=0"
        );
        assert_eq!(OptimizerKind::Bo.label(), "BO");
        assert_eq!(OptimizerKind::Random.label(), "RND");
    }

    #[test]
    fn settings_follow_the_budget_rule() {
        let dataset = small_dataset();
        let config = quick_config();
        let settings = config.settings_for(&dataset, 1);
        let n = OptimizerSettings::default().bootstrap_count(dataset.len(), 3);
        assert!((settings.budget - dataset.budget_for(n, 3.0)).abs() < 1e-9);
        assert_eq!(settings.lookahead, 1);
        assert!((settings.tmax_seconds - dataset.tmax_seconds()).abs() < 1e-12);
    }

    #[test]
    fn run_many_produces_one_report_per_seed_and_is_deterministic() {
        let dataset = small_dataset();
        let config = quick_config();
        let a = run_many(&dataset, OptimizerKind::Random, &config);
        let b = run_many(&dataset, OptimizerKind::Random, &config);
        assert_eq!(a.len(), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_and_sequential_execution_agree() {
        let dataset = small_dataset();
        let mut config = quick_config();
        config.threads = 4;
        let parallel = run_many(&dataset, OptimizerKind::Bo, &config);
        config.threads = 1;
        let sequential = run_many(&dataset, OptimizerKind::Bo, &config);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn metrics_report_cno_at_least_one() {
        let dataset = small_dataset();
        let config = quick_config();
        for m in run_metrics(&dataset, OptimizerKind::Random, &config) {
            assert!(m.nex > 0);
            assert!(m.budget_spent > 0.0);
            if let Some(cno) = m.cno {
                assert!(cno >= 1.0 - 1e-9, "CNO {cno} below 1");
            }
        }
    }

    #[test]
    fn cno_sample_substitutes_failures_with_the_worst_observed_value() {
        let metrics = vec![
            RunMetrics {
                cno: Some(1.0),
                nex: 5,
                budget_spent: 1.0,
            },
            RunMetrics {
                cno: Some(2.5),
                nex: 5,
                budget_spent: 1.0,
            },
            RunMetrics {
                cno: None,
                nex: 5,
                budget_spent: 1.0,
            },
        ];
        assert_eq!(cno_sample(&metrics), vec![1.0, 2.5, 2.5]);
    }

    #[test]
    fn lynceus_runs_end_to_end_on_a_small_dataset() {
        let dataset = small_dataset();
        let config = ExperimentConfig::default().with_runs(2);
        let metrics = run_metrics(&dataset, OptimizerKind::Lynceus { lookahead: 1 }, &config);
        assert_eq!(metrics.len(), 2);
        assert!(metrics.iter().all(|m| m.cno.is_some()));
    }
}
