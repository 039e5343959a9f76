//! The durable-storm workload: an in-process `TuningService` with a
//! checkpoint store, kept busy by one client that holds one session in
//! flight per lane. The seed draws a batch of lookahead-0 Scout/CherryPick
//! specs, each with its own seeded `TurbulentOracle` storm (the program's
//! default fault profile without price shocks) under a generous retry
//! policy; every third spec is killed by a step limit and resumed with
//! `restore`. Checkpoint saves, decoding on restore, panic recovery and
//! retries carry the session.

use crate::oracle::{CallLog, CallOutcome, StampingOracle};
use crate::panics;
use crate::replay;
use crate::session::{self, mix, Pass, SessionRecord};
use crate::stats::fraction;
use crate::stores::{Counters, CountingCheckpoints};
use crate::trace::{self, Layer};
use crate::Args;
use lynceus_core::faults::FaultProfile;
use lynceus_core::{
    CheckpointStore, CostOracle, LynceusOptimizer, OptimizationReport, Optimizer,
    OptimizerSettings, RetryPolicy, SessionSpec, SessionStatus, TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use lynceus_sim::TurbulentOracle;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One spec in this many is killed at a step limit and restored. The
/// program's fault model covers oracle faults, not process kills, so the
/// share is the benchmark's own: a third of the batch goes through a kill
/// and a restore, two thirds run through.
const KILL_EVERY: usize = 3;
/// Oracle calls a storm plan covers; far more than a session makes.
const HORIZON: u64 = 1_024;

/// The program's own mild storm, `FaultProfile::default()`, without its
/// price shocks: a shock changes the costs a session sees, so a recovered
/// report could no longer equal the calm one.
fn storm() -> FaultProfile {
    FaultProfile {
        price_shock: 0.0,
        ..FaultProfile::default()
    }
}

/// The step a killed spec stops at: a decision boundary drawn uniformly
/// from those strictly inside its calm run, so the kill always lands.
fn kill_step(seed: u64, spec: &session::Spec, calm: &OptimizationReport) -> Option<u64> {
    let steps = calm.num_explorations() as u64;
    (spec.index % KILL_EVERY == 1 && steps >= 2)
        .then(|| 1 + mix(seed, spec.index as u64) % (steps - 1))
}

/// Enough attempts that no storm exhausts them; no surcharge, so a
/// recovered session reports exactly what a calm one does.
fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        backoff_steps: 1,
        retry_cost: 0.0,
    }
}

pub struct Storm {
    datasets: Vec<LookupDataset>,
    settings: Vec<OptimizerSettings>,
    lanes: usize,
    store: Arc<CountingCheckpoints>,
}

/// Storm figures and checks accumulated as sessions finish.
#[derive(Debug, Default)]
struct Tally {
    injected: usize,
    retries: u64,
    stormed: usize,
    recovered: usize,
}

impl Tally {
    /// Every report, stormed or killed and restored, must equal the calm
    /// solo run of its spec.
    fn check(
        &mut self,
        storm: &Storm,
        pass: &mut Pass,
        record: &SessionRecord,
        calm: &OptimizationReport,
    ) {
        let faults = record
            .calls
            .iter()
            .filter(|c| c.outcome != CallOutcome::Ran)
            .count();
        self.injected += faults;
        self.retries += record
            .receipts
            .iter()
            .map(|r| u64::from(r.retries_consumed))
            .sum::<u64>();
        let matches = record.report.as_ref() == Some(calm);
        self.stormed += usize::from(faults > 0);
        self.recovered += usize::from(faults > 0 && matches);
        if let Some(error) = &record.error {
            pass.errors += 1;
            pass.problems
                .push(format!("session {}: {error}", record.index));
        } else if !matches {
            pass.problems.push(format!(
                "session {}: the stormed report differs from the calm solo run",
                record.index
            ));
        }
        if let Some(report) = &record.report {
            pass.audit(&storm.datasets[record.job], record.index, report);
        }
    }
}

/// A session the client is waiting on.
struct Flight {
    /// Position in the pass (session names and trace ids are unique).
    run: usize,
    spec: session::Spec,
    log: Arc<CallLog>,
    start: u64,
    /// Picked to be killed at a step limit.
    killed: bool,
    /// When a killed session was restored.
    resumed_at: Option<u64>,
    _span: trace::Guard,
}

pub fn setup() -> Storm {
    let mut datasets = catalog::scout_datasets();
    datasets.extend(catalog::cherrypick_datasets());
    let settings = datasets.iter().map(|d| session::settings(d, 0)).collect();
    let storm = Storm {
        datasets,
        settings,
        lanes: session::workers(),
        store: Arc::new(CountingCheckpoints::default()),
    };
    // Warm-up: one calm session through a service and the store.
    let service = storm.service();
    let spec = session::spec(session::WARMUP_SEED, storm.datasets.len(), 0);
    service.submit(SessionSpec::new(
        "warmup",
        storm.settings[spec.job].clone(),
        Box::new(storm.datasets[spec.job].clone()),
        spec.seed,
    ));
    let _ = service.run_until_idle();
    storm
}

impl Storm {
    /// A fresh service per run of the batch: each batch is one job of a
    /// batch runner, and what a service keeps per finished session stays
    /// bounded by the batch instead of growing with throughput.
    fn service(&self) -> TuningService {
        TuningService::with_threads(self.lanes)
            .with_checkpoints(Arc::clone(&self.store) as Arc<dyn CheckpointStore>)
    }

    fn session_spec(
        &self,
        seed: u64,
        run: usize,
        spec: &session::Spec,
        log: &Arc<CallLog>,
        limit: Option<u64>,
    ) -> SessionSpec {
        let oracle = TurbulentOracle::seeded(
            self.datasets[spec.job].clone(),
            mix(seed ^ 0x5707, spec.index as u64),
            &storm(),
            HORIZON,
        );
        let session = SessionSpec::new(
            format!("storm-{run}"),
            self.settings[spec.job].clone(),
            Box::new(StampingOracle::new(oracle, Arc::clone(log), run as u64))
                as Box<dyn CostOracle>,
            spec.seed,
        )
        .with_retry_policy(retry());
        match limit {
            Some(steps) => session.with_step_limit(steps),
            None => session,
        }
    }

    pub fn pass(&self, args: &Args, traced: bool) -> Pass {
        let jobs = self.datasets.len();
        // A pass runs the batch, then runs it again until the time is up;
        // quality covers the first run of the batch.
        let batch: Vec<session::Spec> = (0..jobs * session::QUALITY_ROUNDS)
            .map(|i| session::spec(args.seed, jobs, i))
            .collect();
        // The calm solo report of every spec in the batch: the reference
        // each stormed or killed-and-restored run must reproduce.
        let calm: Vec<OptimizationReport> = batch
            .iter()
            .map(|spec| {
                LynceusOptimizer::new(self.settings[spec.job].clone())
                    .optimize(&self.datasets[spec.job], spec.seed)
            })
            .collect();
        let panics_before = panics::planned();
        let (saves_before, hits_before, bytes_before) = {
            let c = &self.store.counters;
            (
                Counters::get(&c.saves),
                Counters::get(&c.hits),
                Counters::get(&c.saved_bytes),
            )
        };
        let mut pass = Pass::default();
        let mut tally = Tally::default();
        let mut dispatches = 0;
        let cpu = session::process_cpu_ns();
        let start = trace::now_ns();
        let deadline = start + args.seconds * 1_000_000_000;
        let mut next = 0;
        while next < batch.len() || trace::now_ns() < deadline {
            let service = self.service();
            let mut flights: BTreeMap<usize, Flight> = BTreeMap::new();
            let end_of_batch = next + batch.len();
            loop {
                while flights.len() < self.lanes
                    && next < end_of_batch
                    && (next < batch.len() || trace::now_ns() < deadline)
                {
                    let spec = batch[next % batch.len()];
                    let limit = kill_step(args.seed, &spec, &calm[spec.index]);
                    let log = Arc::new(CallLog::default());
                    let span = trace::scope(Layer::Service, "session", next as u64);
                    let start = trace::now_ns();
                    let id = {
                        let _submit = trace::scope(Layer::Service, "submit", next as u64);
                        service.submit(self.session_spec(args.seed, next, &spec, &log, limit))
                    };
                    flights.insert(
                        id.0,
                        Flight {
                            run: next,
                            spec,
                            log,
                            start,
                            killed: limit.is_some(),
                            resumed_at: None,
                            _span: span,
                        },
                    );
                    next += 1;
                }
                if flights.is_empty() {
                    break;
                }
                let outcome = service
                    .take_next_outcome()
                    .expect("the service runs until its batch ends");
                let end = trace::now_ns();
                let mut flight = flights
                    .remove(&outcome.id.0)
                    .expect("every outcome belongs to a session in flight");
                if let SessionStatus::Suspended { .. } = outcome.status {
                    if !flight.killed || flight.resumed_at.is_some() {
                        pass.problems.push(format!(
                            "session {}: suspended without a pending kill",
                            flight.run
                        ));
                    }
                    flight.resumed_at = Some(trace::now_ns());
                    let id = {
                        let _restore = trace::scope(Layer::Service, "restore", flight.run as u64);
                        service.restore(self.session_spec(
                            args.seed,
                            flight.run,
                            &flight.spec,
                            &flight.log,
                            None,
                        ))
                    };
                    flights.insert(id.0, flight);
                    continue;
                }
                if flight.killed && flight.resumed_at.is_none() {
                    pass.problems.push(format!(
                        "session {}: finished without being killed",
                        flight.run
                    ));
                }
                let error = match &outcome.status {
                    SessionStatus::Failed { error, .. } => Some(error.to_string()),
                    _ => None,
                };
                let record = SessionRecord {
                    index: flight.run,
                    job: flight.spec.job,
                    seed: flight.spec.seed,
                    start: flight.start,
                    end,
                    calls: flight.log.snapshot(),
                    report: outcome.report().cloned(),
                    receipts: outcome.receipts,
                    error,
                    resumed_at: flight.resumed_at,
                    end_is_decision: false,
                };
                tally.check(self, &mut pass, &record, &calm[flight.spec.index]);
                pass.timing.add(&record);
                if flight.run < batch.len() {
                    pass.quality
                        .add(&self.datasets[record.job], record.report.as_ref());
                    pass.sessions.push(record);
                }
            }
            dispatches += service.load().dispatches;
        }
        pass.wall_ns = trace::now_ns() - start;
        pass.cpu_ns = session::process_cpu_ns() - cpu;
        pass.sessions.sort_by_key(|s| s.index);

        let c = &self.store.counters;
        let saves = Counters::get(&c.saves) - saves_before;
        let completed = pass.timing.completed.max(1) as f64;
        pass.layer.extend([
            ("service.dispatches", dispatches as f64 / completed),
            ("checkpoint.saves", saves as f64),
            (
                "checkpoint.bytes.mean",
                (Counters::get(&c.saved_bytes) - bytes_before) as f64 / saves.max(1) as f64,
            ),
            (
                "checkpoint.restores",
                (Counters::get(&c.hits) - hits_before) as f64,
            ),
            ("faults.injected", tally.injected as f64),
            ("faults.retries", tally.retries as f64),
            (
                "faults.panics_contained",
                (panics::planned() - panics_before) as f64,
            ),
            (
                "faults.recovered_frac",
                fraction(tally.recovered as u64, tally.stormed as u64),
            ),
        ]);
        if traced {
            let codec =
                replay::checkpoints(&self.store.saved_sample.lock().expect("sample poisoned"));
            if codec.mismatches > 0 {
                pass.problems.push(format!(
                    "replay: {} checkpoints did not survive decode and encode",
                    codec.mismatches
                ));
            }
            pass.layer.extend([
                ("checkpoint.encode_us.p50", replay::p50(&codec.encode_us)),
                ("checkpoint.decode_us.p50", replay::p50(&codec.decode_us)),
            ]);
        }
        pass
    }

    pub fn datasets(&self) -> &[LookupDataset] {
        &self.datasets
    }

    pub fn settings(&self) -> &[OptimizerSettings] {
        &self.settings
    }
}
