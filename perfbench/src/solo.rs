//! The solo workloads: one `LynceusOptimizer::optimize` at a time at
//! lookahead 2 — `scout-cherrypick` (18 Scout + 5 CherryPick jobs, many
//! cheap decisions) and `tensorflow` (3 jobs of 384 configurations,
//! expensive decisions).

use crate::oracle::{CallLog, StampingOracle};
use crate::replay;
use crate::session::{self, identical, Pass, SessionRecord};
use crate::stats::fraction;
use crate::trace::{self, Layer};
use crate::Args;
use lynceus_core::{
    LynceusOptimizer, Optimizer, OptimizerSettings, Pool, SessionSpec, TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use std::sync::Arc;

const LOOKAHEAD: usize = 2;
/// Rounds of the quality prefix replayed through a 1-lane `TuningService`
/// on a traced run, for the Γ sizes its receipts carry.
const SERVICE_REPLAY_ROUNDS: usize = 5;

pub struct Solo {
    datasets: Vec<LookupDataset>,
    settings: Vec<OptimizerSettings>,
    pool: Arc<Pool>,
    /// Rounds of the job list that every pass completes; quality covers
    /// exactly these sessions.
    prefix_rounds: usize,
}

pub fn setup(tensorflow: bool) -> Solo {
    let (datasets, prefix_rounds) = if tensorflow {
        (catalog::tensorflow_datasets(), 1)
    } else {
        let mut all = catalog::scout_datasets();
        all.extend(catalog::cherrypick_datasets());
        (all, session::QUALITY_ROUNDS)
    };
    let settings = datasets
        .iter()
        .map(|d| session::settings(d, LOOKAHEAD))
        .collect();
    let solo = Solo {
        datasets,
        settings,
        pool: Arc::new(Pool::new(session::workers())),
        prefix_rounds,
    };
    // Warm-up: one session of the sequence, so lazy allocation and the
    // pool's first fan-out are paid here.
    solo.run_one(session::spec(session::WARMUP_SEED, solo.datasets.len(), 0));
    solo
}

impl Solo {
    pub fn datasets(&self) -> &[LookupDataset] {
        &self.datasets
    }

    pub fn settings(&self) -> &[OptimizerSettings] {
        &self.settings
    }

    fn run_one(&self, spec: session::Spec) -> (SessionRecord, lynceus_core::PruneStats) {
        let dataset = &self.datasets[spec.job];
        let log = Arc::new(CallLog::default());
        let id = spec.index as u64;
        let oracle = StampingOracle::new(dataset.clone(), Arc::clone(&log), id);
        let optimizer = LynceusOptimizer::new(self.settings[spec.job].clone())
            .with_pool(Arc::clone(&self.pool));
        let root = trace::scope(Layer::Client, "session", id);
        let start = trace::now_ns();
        let report = {
            let _span = trace::scope(Layer::Engine, "optimize", id);
            optimizer.optimize(&oracle, spec.seed)
        };
        let end = trace::now_ns();
        let prune = {
            let _span = trace::scope(Layer::Engine, "prune_stats", id);
            optimizer.prune_stats()
        };
        drop(root);
        let record = SessionRecord {
            index: spec.index,
            job: spec.job,
            seed: spec.seed,
            start,
            end,
            calls: log.snapshot(),
            report: Some(report),
            end_is_decision: true,
            ..SessionRecord::default()
        };
        (record, prune)
    }

    pub fn pass(&self, args: &Args, traced: bool) -> Pass {
        let jobs = self.datasets.len();
        let prefix = jobs * self.prefix_rounds;
        let mut pass = Pass::default();
        let (mut decisions, mut candidates, mut pruned, mut deep) = (0u64, 0u64, 0u64, 0u64);
        let cpu = session::process_cpu_ns();
        let start = trace::now_ns();
        let deadline = start + args.seconds * 1_000_000_000;
        let mut index = 0;
        while index < prefix || trace::now_ns() < deadline {
            let (record, prune) = self.run_one(session::spec(args.seed, jobs, index));
            decisions += prune.decisions;
            candidates += prune.candidates;
            pruned += prune.pruned;
            deep += prune.deep_pruned();
            let dataset = &self.datasets[record.job];
            let report = record.report.as_ref().expect("solo sessions always report");
            pass.audit(dataset, index, report);
            pass.timing.add(&record);
            if index < prefix {
                pass.quality.add(dataset, Some(report));
                pass.sessions.push(record);
            }
            index += 1;
        }
        pass.wall_ns = trace::now_ns() - start;
        pass.cpu_ns = session::process_cpu_ns() - cpu;

        // The same session run again is bit-identical.
        let (again, _) = self.run_one(session::spec(args.seed, jobs, 0));
        if !identical(&again.report, &pass.sessions[0].report) {
            pass.problems
                .push("a repeated session produced a different report".to_owned());
        }

        pass.layer.extend([
            ("engine.decisions", decisions as f64),
            ("engine.candidates", candidates as f64),
            ("engine.pruned_frac", fraction(pruned, candidates)),
            ("engine.deep_cut_frac", fraction(deep, candidates)),
        ]);
        if traced {
            self.traced_extras(&mut pass, prefix.min(jobs * SERVICE_REPLAY_ROUNDS));
        }
        pass
    }

    /// Γ sizes for the traced run, from the receipts of a 1-lane
    /// `TuningService` replay of the first `sessions` sessions, whose
    /// reports must equal the solo ones.
    fn traced_extras(&self, pass: &mut Pass, sessions: usize) {
        let service = TuningService::with_threads(1);
        let mut gamma = Vec::new();
        for record in pass.sessions.iter().take(sessions) {
            let dataset = &self.datasets[record.job];
            service.submit(SessionSpec::new(
                format!("replay-{}", record.index),
                self.settings[record.job].clone(),
                Box::new(dataset.clone()),
                record.seed,
            ));
            for outcome in service.run_until_idle() {
                if !identical(&outcome.report(), &record.report.as_ref()) {
                    pass.problems.push(format!(
                        "session {}: the 1-lane service replay reported differently",
                        record.index
                    ));
                }
                gamma.extend(
                    outcome
                        .receipts
                        .iter()
                        .filter(|r| !r.bootstrap)
                        .map(|r| r.gamma_size as f64),
                );
            }
        }
        pass.layer.push(("engine.gamma.mean", replay::mean(&gamma)));
    }
}
