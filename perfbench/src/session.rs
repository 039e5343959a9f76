//! What every workload records per session, the spec sequence a seed
//! generates, and the measurements derived from the oracle stamps.

use crate::oracle::{Call, CallOutcome};
use crate::quality::{report_violations, Overdraw, Quality};
use crate::stats::Reservoir;
use lynceus_core::{CostOracle, DecisionReceipt, OptimizationReport, OptimizerSettings};
use lynceus_datasets::LookupDataset;

/// The paper's medium budget multiplier `b` of `B = N·m̃·b`.
pub const BUDGET_MULTIPLIER: f64 = 3.0;
/// Gauss–Hermite nodes of the lookahead.
pub const GAUSS_HERMITE_NODES: usize = 2;

/// Optimizer settings for one dataset: the paper's budget rule at the
/// medium budget, the dataset's own `Tmax`, parallel paths on.
pub fn settings(dataset: &LookupDataset, lookahead: usize) -> OptimizerSettings {
    let defaults = OptimizerSettings::default();
    let n = defaults.bootstrap_count(dataset.len(), dataset.space().dims());
    OptimizerSettings {
        budget: dataset.budget_for(n, BUDGET_MULTIPLIER),
        tmax_seconds: dataset.tmax_seconds(),
        lookahead,
        gauss_hermite_nodes: GAUSS_HERMITE_NODES,
        parallel_paths: true,
        ..defaults
    }
}

/// Rounds of the job list whose sessions every workload's quality figures
/// cover: a fixed prefix of the spec sequence, however fast the program.
pub const QUALITY_ROUNDS: usize = 30;
/// Sessions a traced run records spans for: the quality prefix.
pub fn traced_sessions(jobs: usize) -> u64 {
    (jobs * QUALITY_ROUNDS) as u64
}

/// Seed of the set-up warm-up session, fixed so that set-up does the same
/// work under every `--seed`.
pub const WARMUP_SEED: u64 = 0;

/// SplitMix64 over two words: the benchmark's only source of randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One entry of a workload's spec sequence.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub index: usize,
    /// Every job appears once per round, in a seeded order.
    pub round: usize,
    pub job: usize,
    pub seed: u64,
}

pub fn spec(seed: u64, jobs: usize, index: usize) -> Spec {
    let round = index / jobs;
    // Fisher–Yates shuffle of the jobs for this round.
    let mut order: Vec<usize> = (0..jobs).collect();
    let mut state = mix(seed, round as u64);
    for i in (1..jobs).rev() {
        state = mix(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    Spec {
        index,
        round,
        job: order[index % jobs],
        seed: mix(seed ^ 0x5EED, index as u64),
    }
}

/// One session as the benchmark saw it.
#[derive(Debug, Default)]
pub struct SessionRecord {
    pub index: usize,
    pub job: usize,
    pub seed: u64,
    /// Session start (call or submission) and end (report in hand), ns.
    pub start: u64,
    pub end: u64,
    pub calls: Vec<Call>,
    pub report: Option<OptimizationReport>,
    pub receipts: Vec<DecisionReceipt>,
    pub error: Option<String>,
    /// When a killed session was restored: the gap across it is the kill
    /// and the restore, not a decision.
    pub resumed_at: Option<u64>,
    /// `end` is `optimize()` returning, so the gap from the last run to it
    /// is the session's final decision.
    pub end_is_decision: bool,
}

/// Bit-for-bit equality of two values through their `Debug` form, which
/// prints every `f64` in its shortest round-trip representation.
pub fn identical<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

pub fn ms(from: u64, to: u64) -> f64 {
    (i128::from(to) - i128::from(from)) as f64 / 1e6
}

impl SessionRecord {
    pub fn session_ms(&self) -> f64 {
        ms(self.start, self.end)
    }

    /// Bootstrap runs of the session (replayed prior observations of a warm
    /// start are not runs).
    pub fn bootstrap_runs(&self) -> usize {
        self.report
            .as_ref()
            .map_or(0, |r| r.explorations.iter().filter(|e| e.bootstrap).count())
    }

    /// Decision latencies: for every model-driven run, the gap from the
    /// previous completed run's return to its start, unless a restore falls
    /// in it; plus, for solo sessions, the gap from the last return to
    /// `optimize()` returning.
    pub fn decision_ms(&self) -> Vec<f64> {
        let bootstrap = self.bootstrap_runs();
        let mut gaps = Vec::new();
        let mut completed = 0;
        let mut previous: Option<&Call> = None;
        for call in &self.calls {
            if let Some(p) = previous {
                let restored = self
                    .resumed_at
                    .is_some_and(|t| p.exit <= t && t <= call.enter);
                if p.outcome == CallOutcome::Ran && completed >= bootstrap && !restored {
                    gaps.push(ms(p.exit, call.enter));
                }
            }
            if call.outcome == CallOutcome::Ran {
                completed += 1;
            }
            previous = Some(call);
        }
        if let (true, Some(p)) = (self.end_is_decision, previous) {
            if p.outcome == CallOutcome::Ran && completed >= bootstrap {
                gaps.push(ms(p.exit, self.end));
            }
        }
        gaps
    }

    /// From the session start to the return of its last bootstrap run.
    pub fn bootstrap_ms(&self) -> Option<f64> {
        let runs = self.bootstrap_runs();
        let last = self
            .calls
            .iter()
            .filter(|c| c.outcome == CallOutcome::Ran)
            .nth(runs.checked_sub(1)?)?;
        Some(ms(self.start, last.exit))
    }

    /// Start → first run (queue), first → last run (compute), last run →
    /// report in hand (tail). `None` for a session that never ran the job.
    pub fn split_ms(&self) -> Option<(f64, f64, f64)> {
        let first = self.calls.first()?;
        let last = self.calls.last()?;
        Some((
            ms(self.start, first.enter),
            ms(first.enter, last.exit),
            ms(last.exit, self.end),
        ))
    }
}

/// Timings of every session a pass completed, kept as fixed-size samples.
#[derive(Debug, Default)]
pub struct Timing {
    pub completed: usize,
    pub decision_ms: Reservoir,
    pub session_ms: Reservoir,
    pub queue_ms: Reservoir,
    pub compute_ms: Reservoir,
    pub tail_ms: Reservoir,
    pub bootstrap_ms: Reservoir,
}

impl Timing {
    /// Adds a session that delivered its outcome; errored sessions have no
    /// latency and count only as failures.
    pub fn add(&mut self, record: &SessionRecord) {
        if record.error.is_some() {
            return;
        }
        self.completed += 1;
        for gap in record.decision_ms() {
            self.decision_ms.push(gap);
        }
        self.session_ms.push(record.session_ms());
        if let Some((queue, compute, tail)) = record.split_ms() {
            self.queue_ms.push(queue);
            self.compute_ms.push(compute);
            self.tail_ms.push(tail);
        }
        if let Some(bootstrap) = record.bootstrap_ms() {
            self.bootstrap_ms.push(bootstrap);
        }
    }

    /// Timings that came out negative or not finite.
    pub fn invalid(&self) -> u64 {
        [
            &self.decision_ms,
            &self.session_ms,
            &self.queue_ms,
            &self.compute_ms,
            &self.tail_ms,
            &self.bootstrap_ms,
        ]
        .iter()
        .map(|r| r.invalid)
        .sum()
    }
}

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Full records of the quality prefix, in spec order; later sessions
    /// are checked as they finish and kept only in `timing`.
    pub sessions: Vec<SessionRecord>,
    pub timing: Timing,
    /// Wall time from the first session start to the last session end.
    pub wall_ns: u64,
    /// Quality over the workload's fixed prefix of the spec sequence.
    pub quality: Quality,
    /// Sessions that errored (session error or transport failure).
    pub errors: usize,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Sessions whose final run overdrew the budget.
    pub overdrawn: usize,
    /// Sessions whose bootstrap plan overdrew the budget.
    pub overdrawn_in_bootstrap: usize,
    /// Process CPU time over the pass, ns.
    pub cpu_ns: u64,
    /// Per-layer figures only this workload can measure.
    pub layer: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Runs the report checks of one session and counts its overdraw.
    pub fn audit(&mut self, dataset: &LookupDataset, session: usize, report: &OptimizationReport) {
        let (problems, overdraw) = report_violations(dataset, report);
        match overdraw {
            Overdraw::None => {}
            Overdraw::Bootstrap => self.overdrawn_in_bootstrap += 1,
            Overdraw::FinalRun => self.overdrawn += 1,
        }
        self.problems.extend(
            problems
                .into_iter()
                .map(|p| format!("session {session}: {p}")),
        );
    }
}

/// Process CPU time (user + system, every thread) in ns, from
/// `/proc/self/stat`; 0 where that file does not exist.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in USER_HZ (100 per second) ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..13)
        .map_or(0, |f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum());
    ticks * 10_000_000
}

/// Peak resident memory of the process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The number of CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Client threads, connections, service lanes and pool threads of every
/// workload: one per CPU, at most two, so the load is the same on any
/// machine with two CPUs or more.
pub fn workers() -> usize {
    nproc().min(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(enter: u64, exit: u64, outcome: CallOutcome) -> Call {
        Call {
            enter,
            exit,
            outcome,
        }
    }

    #[test]
    fn spec_sequences_repeat_per_seed_and_cover_every_job_each_round() {
        let a: Vec<usize> = (0..46).map(|i| spec(7, 23, i).job).collect();
        let b: Vec<usize> = (0..46).map(|i| spec(7, 23, i).job).collect();
        assert_eq!(a, b);
        let mut round0 = a[..23].to_vec();
        round0.sort_unstable();
        assert_eq!(round0, (0..23).collect::<Vec<_>>());
        assert_ne!(a, (0..46).map(|i| spec(8, 23, i).job).collect::<Vec<_>>());
        assert_ne!(spec(7, 23, 0).seed, spec(7, 23, 1).seed);
    }

    #[test]
    fn decisions_skip_bootstrap_faults_panics_and_restores() {
        let record = SessionRecord {
            start: 0,
            end: 100,
            calls: vec![
                call(1, 2, CallOutcome::Ran),        // bootstrap
                call(5, 6, CallOutcome::Ran),        // decision 2 → 5 = 3 ns
                call(10, 11, CallOutcome::Faulted),  // decision 6 → 10
                call(20, 21, CallOutcome::Ran),      // retry after a fault: no decision
                call(30, 31, CallOutcome::Panicked), // decision 21 → 30
                call(40, 41, CallOutcome::Ran),      // after a panic: no decision
                call(60, 61, CallOutcome::Ran),      // restored at 50: no decision
            ],
            resumed_at: Some(50),
            report: Some(OptimizationReport {
                optimizer: "Lynceus".into(),
                explorations: vec![lynceus_core::Exploration {
                    id: lynceus_space::ConfigId(0),
                    observation: lynceus_core::Observation::new(1.0, 1.0),
                    bootstrap: true,
                }],
                recommended: None,
                recommended_cost: None,
                budget_initial: 1.0,
                budget_spent: 1.0,
                tmax_seconds: 1.0,
            }),
            end_is_decision: true,
            ..SessionRecord::default()
        };
        let gaps: Vec<f64> = record.decision_ms().iter().map(|g| g * 1e6).collect();
        assert_eq!(gaps, vec![3.0, 4.0, 9.0, 39.0]);
        let (queue, compute, tail) = record.split_ms().unwrap();
        assert_eq!((queue * 1e6, compute * 1e6, tail * 1e6), (1.0, 60.0, 39.0));
    }
}
