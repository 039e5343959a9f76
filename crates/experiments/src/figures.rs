//! One function per figure/table of the paper's evaluation.
//!
//! Every function returns plain data ([`FigureData`] series or [`Table`]
//! rows) so the bench harness, the `repro` binary and the integration tests
//! can all consume the same definitions. The figure functions take the
//! datasets as arguments: the full reproduction passes the TensorFlow /
//! Scout / CherryPick collections, while quick runs (CI, criterion benches)
//! can pass fewer jobs or use fewer repetitions through
//! [`ExperimentConfig`].

use crate::runner::{cno_sample, evaluate, run_many, ExperimentConfig, OptimizerKind};
use lynceus_core::disjoint::disjoint_optimization_all_references;
use lynceus_datasets::{tensorflow, LookupDataset};
use lynceus_math::stats::{empirical_cdf, mean, percentile, std_dev};
use std::time::Instant;

/// One plotted series: a label and `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The `(x, y)` points, in plotting order.
    pub points: Vec<(f64, f64)>,
}

/// The data behind one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier (e.g. `"fig4-cnn"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

/// The data behind one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Identifier (e.g. `"table3"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
}

/// Figure 1a: normalized cost of every configuration, sorted by quality, for
/// each of the given datasets.
#[must_use]
pub fn fig1a(datasets: &[LookupDataset]) -> FigureData {
    let series = datasets
        .iter()
        .map(|d| Series {
            label: d.name().to_owned(),
            points: d
                .normalized_cost_landscape()
                .into_iter()
                .enumerate()
                .map(|(rank, cost)| (rank as f64, cost))
                .collect(),
        })
        .collect();
    FigureData {
        id: "fig1a".to_owned(),
        title: "Normalized cost per configuration (sorted by quality)".to_owned(),
        x_label: "Configuration (by quality)".to_owned(),
        y_label: "Cost / optimal cost".to_owned(),
        series,
    }
}

/// Figure 1b: CDF of the normalized cost achieved by *ideal disjoint
/// optimization* over every possible reference cloud configuration, for the
/// TensorFlow datasets.
#[must_use]
pub fn fig1b(datasets: &[LookupDataset]) -> FigureData {
    let series = datasets
        .iter()
        .map(|d| {
            let outcomes = disjoint_optimization_all_references(
                d,
                &tensorflow::CLOUD_DIMS,
                &tensorflow::PARAM_DIMS,
                d.tmax_seconds(),
            );
            let optimum = d.optimum().map_or(1.0, |(_, c)| c);
            let normalized: Vec<f64> = outcomes.iter().map(|o| o.cost / optimum).collect();
            Series {
                label: d.name().to_owned(),
                points: empirical_cdf(&normalized)
                    .into_iter()
                    .map(|p| (p.value, p.fraction))
                    .collect(),
            }
        })
        .collect();
    FigureData {
        id: "fig1b".to_owned(),
        title: "CDF of the normalized cost achieved by ideal disjoint optimization".to_owned(),
        x_label: "Cost / optimal cost".to_owned(),
        y_label: "CDF".to_owned(),
        series,
    }
}

/// The three optimizers compared in Figure 4 (and Figure 5).
#[must_use]
pub fn headline_optimizers() -> Vec<OptimizerKind> {
    vec![
        OptimizerKind::Lynceus { lookahead: 2 },
        OptimizerKind::Bo,
        OptimizerKind::Random,
    ]
}

/// The three Lynceus variants compared in Figure 6.
#[must_use]
pub fn lookahead_variants() -> Vec<OptimizerKind> {
    vec![
        OptimizerKind::Lynceus { lookahead: 2 },
        OptimizerKind::Lynceus { lookahead: 1 },
        OptimizerKind::Lynceus { lookahead: 0 },
    ]
}

/// CDF-of-CNO figures (Figures 4 and 6 share this shape): one figure per
/// dataset, one series per optimizer.
#[must_use]
pub fn cno_cdf_figures(
    id_prefix: &str,
    datasets: &[LookupDataset],
    optimizers: &[OptimizerKind],
    config: &ExperimentConfig,
) -> Vec<FigureData> {
    datasets
        .iter()
        .map(|dataset| {
            let series = optimizers
                .iter()
                .map(|&kind| {
                    let metrics: Vec<_> = run_many(dataset, kind, config)
                        .iter()
                        .map(|r| evaluate(dataset, r))
                        .collect();
                    Series {
                        label: kind.label(),
                        points: empirical_cdf(&cno_sample(&metrics))
                            .into_iter()
                            .map(|p| (p.value, p.fraction))
                            .collect(),
                    }
                })
                .collect();
            FigureData {
                id: format!("{id_prefix}-{}", dataset.name().replace('/', "-")),
                title: format!("CDF of the CNO on {}", dataset.name()),
                x_label: "CNO".to_owned(),
                y_label: "CDF".to_owned(),
                series,
            }
        })
        .collect()
}

/// Figure 4: CDFs of the CNO achieved by Lynceus, BO and RND.
#[must_use]
pub fn fig4(datasets: &[LookupDataset], config: &ExperimentConfig) -> Vec<FigureData> {
    cno_cdf_figures("fig4", datasets, &headline_optimizers(), config)
}

/// Figure 6: CDFs of the CNO achieved by Lynceus with LA = 2, 1 and 0.
#[must_use]
pub fn fig6(datasets: &[LookupDataset], config: &ExperimentConfig) -> Vec<FigureData> {
    cno_cdf_figures("fig6", datasets, &lookahead_variants(), config)
}

/// Figure 5: average, 50th and 90th percentile of the CNO for the Scout and
/// CherryPick job collections, per optimizer (each cell averages the per-job
/// statistics, and the `±` column is the standard deviation across jobs, as
/// in the paper's error bars).
#[must_use]
pub fn fig5(
    scout: &[LookupDataset],
    cherrypick: &[LookupDataset],
    config: &ExperimentConfig,
) -> Table {
    let mut rows = Vec::new();
    for (collection_name, datasets) in [("Scout", scout), ("CherryPick", cherrypick)] {
        for &kind in &headline_optimizers() {
            let mut avgs = Vec::new();
            let mut p50s = Vec::new();
            let mut p90s = Vec::new();
            for dataset in datasets {
                let metrics: Vec<_> = run_many(dataset, kind, config)
                    .iter()
                    .map(|r| evaluate(dataset, r))
                    .collect();
                let sample = cno_sample(&metrics);
                avgs.push(mean(&sample));
                p50s.push(percentile(&sample, 50.0));
                p90s.push(percentile(&sample, 90.0));
            }
            rows.push(vec![
                collection_name.to_owned(),
                kind.label(),
                format!("{:.3} ± {:.3}", mean(&avgs), std_dev(&avgs)),
                format!("{:.3} ± {:.3}", mean(&p50s), std_dev(&p50s)),
                format!("{:.3} ± {:.3}", mean(&p90s), std_dev(&p90s)),
            ]);
        }
    }
    Table {
        id: "fig5".to_owned(),
        title: "CNO on the Scout and CherryPick jobs (medium budget)".to_owned(),
        headers: vec![
            "Collection".to_owned(),
            "Optimizer".to_owned(),
            "avg CNO".to_owned(),
            "50th pct".to_owned(),
            "90th pct".to_owned(),
        ],
        rows,
    }
}

/// Figure 7: 90th percentile of the CNO of the best configuration found so
/// far, as a function of the number of explorations, for every Lynceus
/// variant and BO on one dataset (the paper uses CNN).
#[must_use]
pub fn fig7(dataset: &LookupDataset, config: &ExperimentConfig) -> FigureData {
    let optimizers = vec![
        OptimizerKind::Lynceus { lookahead: 2 },
        OptimizerKind::Lynceus { lookahead: 1 },
        OptimizerKind::Lynceus { lookahead: 0 },
        OptimizerKind::Bo,
    ];
    let optimum = dataset.optimum().map_or(1.0, |(_, c)| c);
    let series = optimizers
        .into_iter()
        .map(|kind| {
            let reports = run_many(dataset, kind, config);
            let trajectories: Vec<Vec<Option<f64>>> = reports
                .iter()
                .map(OptimizationReportExt::trajectory)
                .collect();
            let max_len = trajectories.iter().map(Vec::len).max().unwrap_or(0);
            let points = (0..max_len)
                .map(|k| {
                    // For runs that stopped before exploration k, carry their
                    // final incumbent forward (they spent their budget).
                    let sample: Vec<f64> = trajectories
                        .iter()
                        .filter_map(|t| {
                            let entry = if k < t.len() { t[k] } else { *t.last()? };
                            entry.map(|cost| cost / optimum)
                        })
                        .collect();
                    let p90 = if sample.is_empty() {
                        f64::NAN
                    } else {
                        percentile(&sample, 90.0)
                    };
                    ((k + 1) as f64, p90)
                })
                .collect();
            Series {
                label: kind.label(),
                points,
            }
        })
        .collect();
    FigureData {
        id: format!("fig7-{}", dataset.name().replace('/', "-")),
        title: format!(
            "90th percentile CNO of the incumbent vs. explorations on {}",
            dataset.name()
        ),
        x_label: "No. explorations".to_owned(),
        y_label: "90th percentile CNO".to_owned(),
        series,
    }
}

/// Figures 8 and 9: 90th percentile CNO (Figure 8) and average NEX (Figure 9)
/// as a function of the budget multiplier `b`, for Lynceus and BO on every
/// given dataset.
#[must_use]
pub fn budget_sensitivity(
    datasets: &[LookupDataset],
    budgets: &[f64],
    config: &ExperimentConfig,
) -> Table {
    let optimizers = [OptimizerKind::Lynceus { lookahead: 2 }, OptimizerKind::Bo];
    let mut rows = Vec::new();
    for dataset in datasets {
        for &b in budgets {
            let budget_config = config.clone().with_budget_multiplier(b);
            for &kind in &optimizers {
                let metrics: Vec<_> = run_many(dataset, kind, &budget_config)
                    .iter()
                    .map(|r| evaluate(dataset, r))
                    .collect();
                let sample = cno_sample(&metrics);
                let nex: Vec<f64> = metrics.iter().map(|m| m.nex as f64).collect();
                rows.push(vec![
                    dataset.name().to_owned(),
                    format!("{b}"),
                    kind.label(),
                    format!("{:.3}", percentile(&sample, 90.0)),
                    format!("{:.1}", mean(&nex)),
                ]);
            }
        }
    }
    Table {
        id: "fig8-fig9".to_owned(),
        title: "Budget sensitivity: 90th pct CNO (Fig. 8) and average NEX (Fig. 9)".to_owned(),
        headers: vec![
            "Job".to_owned(),
            "b".to_owned(),
            "Optimizer".to_owned(),
            "90th pct CNO".to_owned(),
            "avg NEX".to_owned(),
        ],
        rows,
    }
}

/// Table 3: average wall-clock time to decide the next configuration for BO
/// (equal to Lynceus LA=0 in cost), LA=1 and LA=2, measured on one dataset.
///
/// The decision time is estimated as the run's wall-clock time divided by the
/// number of post-bootstrap explorations (oracle lookups are table reads and
/// contribute nothing).
#[must_use]
pub fn table3(dataset: &LookupDataset, config: &ExperimentConfig) -> Table {
    let optimizers = [
        OptimizerKind::Bo,
        OptimizerKind::Lynceus { lookahead: 1 },
        OptimizerKind::Lynceus { lookahead: 2 },
    ];
    let single_run = ExperimentConfig {
        runs: config.runs.min(3),
        threads: 1,
        ..config.clone()
    };
    let rows = optimizers
        .iter()
        .map(|&kind| {
            // lint: allow(wall-clock) -- report-only timing column; never feeds a decision
            let start = Instant::now();
            let reports = run_many(dataset, kind, &single_run);
            let elapsed = start.elapsed().as_secs_f64();
            let decisions: usize = reports
                .iter()
                .map(|r| {
                    r.explorations
                        .iter()
                        .filter(|e| !e.bootstrap)
                        .count()
                        .max(1)
                })
                .sum();
            vec![kind.label(), format!("{:.4}", elapsed / decisions as f64)]
        })
        .collect();
    Table {
        id: "table3".to_owned(),
        title: format!(
            "Average seconds to compute the next configuration ({})",
            dataset.name()
        ),
        headers: vec!["Optimizer".to_owned(), "Avg seconds to next()".to_owned()],
        rows,
    }
}

/// Private helper so `fig7` can use the incumbent trajectory without
/// importing the core type by name everywhere.
trait OptimizationReportExt {
    fn trajectory(&self) -> Vec<Option<f64>>;
}

impl OptimizationReportExt for lynceus_core::OptimizationReport {
    fn trajectory(&self) -> Vec<Option<f64>> {
        self.incumbent_trajectory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_datasets::{cherrypick, scout};

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            runs: 3,
            threads: 2,
            ..ExperimentConfig::default()
        }
    }

    fn small_datasets() -> Vec<LookupDataset> {
        vec![scout::dataset(&scout::job_profiles()[0], 1)]
    }

    #[test]
    fn fig1a_has_one_series_per_dataset_with_monotone_costs() {
        let datasets = small_datasets();
        let fig = fig1a(&datasets);
        assert_eq!(fig.series.len(), 1);
        let points = &fig.series[0].points;
        assert_eq!(points.len(), datasets[0].len());
        assert!(points.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn cno_cdfs_are_valid_distributions() {
        let datasets = small_datasets();
        let figs = fig4(&datasets, &quick_config());
        assert_eq!(figs.len(), 1);
        for series in &figs[0].series {
            assert!(!series.points.is_empty());
            let last = series.points.last().unwrap();
            assert!((last.1 - 1.0).abs() < 1e-9);
            assert!(series.points.iter().all(|p| p.0 >= 1.0 - 1e-9));
        }
        assert_eq!(figs[0].series.len(), 3);
    }

    #[test]
    fn fig5_has_one_row_per_collection_and_optimizer() {
        let scout_ds = small_datasets();
        let cherry_ds = vec![cherrypick::dataset(&cherrypick::jobs()[4], 1)];
        let table = fig5(&scout_ds, &cherry_ds, &quick_config());
        assert_eq!(table.rows.len(), 6);
        assert_eq!(table.headers.len(), 5);
    }

    #[test]
    fn fig7_trajectories_do_not_increase() {
        let datasets = small_datasets();
        let fig = fig7(&datasets[0], &quick_config());
        assert_eq!(fig.series.len(), 4);
        for series in &fig.series {
            let ys: Vec<f64> = series
                .points
                .iter()
                .map(|p| p.1)
                .filter(|y| y.is_finite())
                .collect();
            assert!(!ys.is_empty());
            // The 90th percentile of the incumbent can only improve or stay.
            for w in ys.windows(2) {
                assert!(w[1] <= w[0] + 1e-9);
            }
        }
    }

    #[test]
    fn budget_sensitivity_covers_every_budget_and_optimizer() {
        let datasets = small_datasets();
        let table = budget_sensitivity(&datasets, &[1.0, 3.0], &quick_config());
        assert_eq!(table.rows.len(), 4);
    }

    #[test]
    fn table3_orders_decision_times_by_lookahead() {
        let datasets = small_datasets();
        let table = table3(&datasets[0], &quick_config());
        assert_eq!(table.rows.len(), 3);
        let times: Vec<f64> = table
            .rows
            .iter()
            .map(|r| r[1].parse::<f64>().unwrap())
            .collect();
        // Deeper lookahead must not be cheaper than BO.
        assert!(times[2] >= times[0]);
    }
}
