//! Tuning quality judged by the dataset itself: a recommendation counts only
//! when `LookupDataset::is_feasible` agrees that it meets the constraint.

use crate::stats::fraction;
use lynceus_core::{CostOracle, OptimizationReport};
use lynceus_datasets::LookupDataset;
use std::collections::BTreeSet;

/// How one session ended, from the tuning user's point of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// A recommendation the dataset calls feasible, with its CNO.
    Feasible { cno: f64 },
    /// A recommendation the dataset calls infeasible (for example a run
    /// capped at the dataset's timeout that the optimizer took as feasible).
    Infeasible,
    /// The session finished without recommending anything.
    NothingFound,
    /// The session failed or never delivered a report.
    Error,
}

pub fn judge(dataset: &LookupDataset, report: Option<&OptimizationReport>) -> Verdict {
    let Some(report) = report else {
        return Verdict::Error;
    };
    match (report.recommended, report.recommended_cost) {
        (Some(id), Some(cost)) if dataset.is_feasible(id) => Verdict::Feasible {
            cno: dataset
                .cno(cost)
                .expect("a feasible recommendation implies a feasible optimum"),
        },
        (Some(_), _) => Verdict::Infeasible,
        (None, _) => Verdict::NothingFound,
    }
}

/// Quality over a fixed set of sessions.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    pub sessions: usize,
    pub infeasible: usize,
    pub nothing_found: usize,
    pub errors: usize,
    pub cnos: Vec<f64>,
    /// Profiling spend ÷ the job's optimal run cost, per session with a
    /// report (partial reports of failed sessions included).
    pub profiling: Vec<f64>,
}

impl Quality {
    pub fn add(&mut self, dataset: &LookupDataset, report: Option<&OptimizationReport>) {
        self.sessions += 1;
        match judge(dataset, report) {
            Verdict::Feasible { cno } => self.cnos.push(cno),
            Verdict::Infeasible => self.infeasible += 1,
            Verdict::NothingFound => self.nothing_found += 1,
            Verdict::Error => self.errors += 1,
        }
        if let (Some(report), Some((_, optimum))) = (report, dataset.optimum()) {
            self.profiling.push(report.budget_spent / optimum);
        }
    }

    pub fn failed(&self) -> usize {
        self.infeasible + self.nothing_found + self.errors
    }

    /// Sessions without a feasible recommendation ÷ sessions attempted.
    pub fn failed_frac(&self) -> f64 {
        fraction(self.failed() as u64, self.sessions as u64)
    }
}

/// Where a report's spending went past its budget, if it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overdraw {
    None,
    /// The LHS bootstrap plan, which runs in full whatever it costs
    /// (Algorithm 1, lines 6–8), spent past the budget.
    Bootstrap,
    /// A model-driven run admitted with budget left cost more than was left.
    /// The Γ filter admits a run when `P(cost ≤ β) ≥ 0.99` under the
    /// surrogate, so this is expected now and then.
    FinalRun,
}

/// Checks what the program promises about every report: explored ids are
/// distinct candidates of the job, and a model-driven run starts only while
/// budget is left, so that spending past the budget after the bootstrap is
/// at most the final run. Returns the violations and where the report
/// overdrew, if it did.
pub fn report_violations(
    dataset: &LookupDataset,
    report: &OptimizationReport,
) -> (Vec<String>, Overdraw) {
    let mut problems = Vec::new();
    let candidates: BTreeSet<_> = dataset.candidates().into_iter().collect();
    let mut seen = BTreeSet::new();
    let mut remaining = report.budget_initial;
    let mut overdraw = Overdraw::None;
    for exploration in &report.explorations {
        if !candidates.contains(&exploration.id) {
            problems.push(format!("explored {:?}, not a candidate", exploration.id));
        }
        if !seen.insert(exploration.id) {
            problems.push(format!("explored {:?} twice", exploration.id));
        }
        if !exploration.bootstrap && remaining <= 0.0 {
            problems.push(format!(
                "a model-driven run of {:?} started with the budget gone (β = {remaining})",
                exploration.id
            ));
        }
        remaining -= exploration.observation.cost;
        if remaining < 0.0 && overdraw == Overdraw::None {
            overdraw = if exploration.bootstrap {
                Overdraw::Bootstrap
            } else {
                Overdraw::FinalRun
            };
        }
    }
    (problems, overdraw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_core::{Exploration, Observation};
    use lynceus_datasets::ConfigOutcome;
    use lynceus_space::{ConfigId, SpaceBuilder};
    use std::collections::BTreeMap;

    /// Three configurations: 0 is feasible at cost 10 (the optimum), 1 is
    /// feasible at 15, and 2 is cheap but capped at the timeout.
    fn dataset() -> LookupDataset {
        let space = SpaceBuilder::new().numeric("x", [0.0, 1.0, 2.0]).build();
        let outcome = |runtime: f64, cost: f64, timed_out: bool| ConfigOutcome {
            runtime_seconds: runtime,
            cost,
            timed_out,
            price_per_second: cost / runtime,
        };
        let outcomes = BTreeMap::from([
            (ConfigId(0), outcome(50.0, 10.0, false)),
            (ConfigId(1), outcome(60.0, 15.0, false)),
            (ConfigId(2), outcome(100.0, 5.0, true)),
        ]);
        LookupDataset::new("toy", space, outcomes, 100.5)
    }

    fn report(recommended: Option<usize>, explored: &[usize], spent: f64) -> OptimizationReport {
        let data = dataset();
        OptimizationReport {
            optimizer: "Lynceus".into(),
            explorations: explored
                .iter()
                .map(|&i| {
                    let o = data.outcome(ConfigId(i));
                    Exploration {
                        id: ConfigId(i),
                        observation: Observation::new(o.runtime_seconds, o.cost),
                        bootstrap: false,
                    }
                })
                .collect(),
            recommended: recommended.map(ConfigId),
            recommended_cost: recommended.map(|i| data.outcome(ConfigId(i)).cost),
            budget_initial: 30.0,
            budget_spent: spent,
            tmax_seconds: 100.5,
        }
    }

    #[test]
    fn failures_count_errors_nothing_found_and_infeasible_recommendations() {
        let data = dataset();
        let mut q = Quality::default();
        q.add(&data, Some(&report(Some(1), &[1], 15.0)));
        // The timed-out run is under Tmax, so the optimizer recommends it;
        // the dataset does not count it as feasible.
        q.add(&data, Some(&report(Some(2), &[2], 5.0)));
        q.add(&data, Some(&report(None, &[], 0.0)));
        q.add(&data, None);
        assert_eq!(q.sessions, 4);
        assert_eq!(q.cnos, vec![1.5]);
        assert_eq!(
            (q.infeasible, q.nothing_found, q.errors, q.failed()),
            (1, 1, 1, 3)
        );
        assert_eq!(q.failed_frac(), 0.75);
        // An infeasible recommendation never yields a CNO below 1.
        assert!(q.cnos.iter().all(|&c| c >= 1.0));
        assert_eq!(q.profiling, vec![1.5, 0.5, 0.0]);
        assert_eq!(
            judge(&data, Some(&report(Some(0), &[0], 10.0))),
            Verdict::Feasible { cno: 1.0 }
        );
    }

    /// A report with budget 30 over `(config, cost, bootstrap)` runs.
    fn spending(runs: &[(usize, f64, bool)]) -> OptimizationReport {
        let mut r = report(None, &[], runs.iter().map(|r| r.1).sum());
        r.explorations = runs
            .iter()
            .map(|&(i, cost, bootstrap)| Exploration {
                id: ConfigId(i),
                observation: Observation::new(1.0, cost),
                bootstrap,
            })
            .collect();
        r
    }

    #[test]
    fn report_checks_allow_only_a_final_run_overdraw() {
        let data = dataset();
        let check = |runs: &[(usize, f64, bool)]| report_violations(&data, &spending(runs));
        let (problems, overdraw) = check(&[(0, 10.0, true), (1, 15.0, false)]);
        assert!(problems.is_empty());
        assert_eq!(overdraw, Overdraw::None);
        // The final run started with 5 left and cost 15.
        let (problems, overdraw) = check(&[(0, 10.0, true), (1, 15.0, false), (2, 15.0, false)]);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(overdraw, Overdraw::FinalRun);
        // Nothing model-driven may start once the budget is gone.
        let (problems, _) = check(&[(0, 20.0, true), (1, 15.0, false), (2, 1.0, false)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("budget gone"));
        // The bootstrap plan runs in full even past the budget.
        let (problems, overdraw) = check(&[(0, 20.0, true), (1, 20.0, true), (2, 20.0, true)]);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(overdraw, Overdraw::Bootstrap);
        // Duplicate and unknown ids are reported.
        let (problems, _) = check(&[(1, 1.0, true), (1, 1.0, false), (9, 1.0, false)]);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
