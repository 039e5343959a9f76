//! Fault-matrix suite: every injected fault class against the service's
//! retry and checkpoint machinery, under concurrency.
//!
//! Properties pinned here (the acceptance bar of the robustness work):
//!
//! * transparent recovery — revocations and transient errors retried with a
//!   zero-cost policy leave the report **bit-identical** to a storm-free run;
//! * exact β accounting — a priced retry charges its surcharge exactly once
//!   per retry, never double-charging the budget;
//! * panic recovery — a planned mid-step panic is replayed from the last
//!   decision-boundary checkpoint and the session still finishes clean;
//! * graceful degradation — when the retry budget runs dry the session fails
//!   with `RetriesExhausted`, a partial report, and its full receipt trail;
//! * sibling isolation — none of the above perturbs the bit-identical
//!   reports of healthy sessions sharing the pool;
//! * storm determinism — the same seeded fault plan produces the same
//!   outcome at every thread count;
//! * real jobs — a seeded storm over four Scout jobs, with one planted
//!   panic, recovers every report bit-identically through a checkpoint
//!   store.
//!
//! Faults are keyed by oracle call index (never wall-clock), so everything
//! here is deterministic under any scheduler interleave.

use lynceus::core::{
    CheckpointStore, FaultKind, FaultPlan, FaultProfile, LynceusOptimizer, MemoryStore, Optimizer,
    OptimizerSettings, RetryPolicy, SessionError, SessionSpec, SessionStatus, TuningService,
};
use lynceus::datasets::{catalog, LookupDataset};
use lynceus::experiments::ExperimentConfig;
use lynceus::sim::TurbulentOracle;
use lynceus::space::SpaceBuilder;
use std::sync::Arc;

fn valley_oracle(shift: f64) -> lynceus::core::TableOracle {
    let space = SpaceBuilder::new()
        .numeric("x", (0..10).map(f64::from))
        .numeric("y", (0..4).map(f64::from))
        .build();
    lynceus::core::TableOracle::from_fn(space, 1.0, move |f| {
        20.0 + (f[0] - shift).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
    })
}

fn settings(budget: f64, lookahead: usize) -> OptimizerSettings {
    OptimizerSettings {
        budget,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(3),
        lookahead,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    }
}

fn solo_report(shift: f64, seed: u64) -> lynceus::core::OptimizationReport {
    LynceusOptimizer::new(settings(800.0, 0)).optimize(&valley_oracle(shift), seed)
}

fn turbulent_spec(name: &str, shift: f64, seed: u64, plan: FaultPlan) -> SessionSpec {
    SessionSpec::new(
        name,
        settings(800.0, 0),
        Box::new(TurbulentOracle::new(valley_oracle(shift), plan)),
        seed,
    )
}

fn healthy_spec(name: &str, shift: f64, seed: u64) -> SessionSpec {
    SessionSpec::new(
        name,
        settings(800.0, 0),
        Box::new(valley_oracle(shift)),
        seed,
    )
}

/// The concurrent half of the matrix; single-threaded coverage lives in the
/// service unit tests.
const THREAD_COUNTS: [usize; 2] = [2, 8];

#[test]
fn revocations_and_transient_errors_recover_bit_identically_beside_healthy_siblings() {
    let stormy_solo = solo_report(4.0, 11);
    let calm_solo_a = solo_report(7.0, 23);
    let calm_solo_b = solo_report(2.0, 37);
    let plan = FaultPlan::new()
        .with_fault(2, FaultKind::Revocation)
        .with_fault(5, FaultKind::TransientError);

    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(turbulent_spec("stormy", 4.0, 11, plan.clone()));
        service.submit(healthy_spec("calm-a", 7.0, 23));
        service.submit(healthy_spec("calm-b", 2.0, 37));
        let outcomes = service.run();
        let by_name = |name: &str| outcomes.iter().find(|o| o.name == name).unwrap();

        let stormy = by_name("stormy");
        assert_eq!(
            stormy.report(),
            Some(&stormy_solo),
            "{threads} threads: free retries must make the storm invisible in the report"
        );
        let faults: u32 = stormy.receipts.iter().map(|r| r.faults_observed).sum();
        let retries: u32 = stormy.receipts.iter().map(|r| r.retries_consumed).sum();
        assert_eq!(
            (faults, retries),
            (2, 2),
            "both faults recovered, once each"
        );

        assert_eq!(by_name("calm-a").report(), Some(&calm_solo_a));
        assert_eq!(by_name("calm-b").report(), Some(&calm_solo_b));
        for calm in ["calm-a", "calm-b"] {
            assert!(
                by_name(calm)
                    .receipts
                    .iter()
                    .all(|r| r.faults_observed == 0),
                "the storm leaked into {calm}'s receipts"
            );
        }
    }
}

#[test]
fn a_priced_retry_charges_beta_exactly_once_per_retry() {
    let plan = FaultPlan::new()
        .with_fault(2, FaultKind::Revocation)
        .with_fault(5, FaultKind::TransientError);

    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(
            turbulent_spec("priced", 4.0, 11, plan.clone()).with_retry_policy(RetryPolicy {
                max_attempts: 3,
                backoff_steps: 1,
                retry_cost: 2.5,
            }),
        );
        let outcomes = service.run();
        let report = outcomes[0].report().expect("the storm is survivable");
        let retries: u32 = outcomes[0]
            .receipts
            .iter()
            .map(|r| r.retries_consumed)
            .sum();
        assert_eq!(retries, 2, "{threads} threads: both faults must be retried");
        // β accounting closes exactly: realized spend is the sum of the run
        // costs plus one surcharge per retry — nothing double-charged,
        // nothing forgotten.
        let run_costs: f64 = report.explorations.iter().map(|e| e.observation.cost).sum();
        let books = run_costs + 2.5 * f64::from(retries);
        assert!(
            (report.budget_spent - books).abs() < 1e-9,
            "{threads} threads: spent {} but the books say {books}",
            report.budget_spent
        );
    }
}

#[test]
fn a_planned_panic_is_replayed_from_the_last_checkpoint() {
    let stormy_solo = solo_report(4.0, 11);
    let calm_solo = solo_report(7.0, 23);
    // Call 5 is past bootstrap: the panic lands mid-decision with real
    // in-flight context to lose.
    let plan = FaultPlan::new().with_fault(5, FaultKind::Panic);

    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(turbulent_spec("crasher", 4.0, 11, plan.clone()));
        service.submit(healthy_spec("calm", 7.0, 23));
        let outcomes = service.run();
        let by_name = |name: &str| outcomes.iter().find(|o| o.name == name).unwrap();

        let crasher = by_name("crasher");
        assert_eq!(
            crasher.report(),
            Some(&stormy_solo),
            "{threads} threads: checkpoint replay must erase the panic from the report"
        );
        let retries: u32 = crasher.receipts.iter().map(|r| r.retries_consumed).sum();
        assert_eq!(retries, 1, "exactly one checkpoint replay");
        assert_eq!(by_name("calm").report(), Some(&calm_solo));
    }
}

#[test]
fn retry_exhaustion_degrades_gracefully_without_corrupting_siblings() {
    let calm_solo = solo_report(7.0, 23);
    // Four consecutive faults against the default budget of three retries.
    let plan = FaultPlan::new()
        .with_fault(3, FaultKind::TransientError)
        .with_fault(4, FaultKind::Revocation)
        .with_fault(5, FaultKind::TransientError)
        .with_fault(6, FaultKind::Revocation);

    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(turbulent_spec("doomed", 4.0, 11, plan.clone()));
        service.submit(healthy_spec("calm", 7.0, 23));
        let outcomes = service.run();
        let by_name = |name: &str| outcomes.iter().find(|o| o.name == name).unwrap();

        let doomed = by_name("doomed");
        match &doomed.status {
            SessionStatus::Failed { error, partial } => {
                assert!(
                    matches!(error, SessionError::RetriesExhausted { attempts: 3, .. }),
                    "expected exhaustion after 3 attempts, got {error}"
                );
                let partial = partial.as_ref().expect("partial progress must be reported");
                assert!(
                    !partial.explorations.is_empty(),
                    "bootstrap work must survive"
                );
            }
            other => panic!("{threads} threads: expected graceful failure, got {other:?}"),
        }
        // The receipts cover every step that actually completed, as one
        // contiguous trail; the granted-retry count rides in the error.
        assert!(
            !doomed.receipts.is_empty(),
            "receipts must survive the failure"
        );
        let steps: Vec<u64> = doomed.receipts.iter().map(|r| r.step).collect();
        assert_eq!(steps, (0..steps.len() as u64).collect::<Vec<_>>());

        assert_eq!(by_name("calm").report(), Some(&calm_solo));
    }
}

#[test]
fn price_shocks_are_deterministic_and_visible_in_beta() {
    let calm_solo = solo_report(4.0, 11);
    let plan = FaultPlan::new().with_fault(4, FaultKind::PriceShock(1.5));

    let mut reports = Vec::new();
    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(turbulent_spec("shocked", 4.0, 11, plan.clone()));
        let outcomes = service.run();
        reports.push(outcomes[0].report().expect("shocks are not errors").clone());
    }
    assert_eq!(reports[0], reports[1], "the shock must replay identically");
    assert_ne!(
        reports[0], calm_solo,
        "a 1.5× shock must be visible in the report"
    );
    // Accounting still closes: the shocked (realized) costs are what β paid.
    let run_costs: f64 = reports[0]
        .explorations
        .iter()
        .map(|e| e.observation.cost)
        .sum();
    assert!(
        (reports[0].budget_spent - run_costs).abs() < 1e-9,
        "realized spend must equal the sum of shocked run costs"
    );
}

#[test]
fn the_same_seeded_storm_rages_identically_at_every_thread_count() {
    // A storm drawn from the seeded generator (no panics, to keep the
    // comparison on the retry path) with a generous retry budget.
    let profile = FaultProfile {
        revocation: 0.08,
        transient: 0.08,
        panic: 0.0,
        price_shock: 0.06,
        shock_range: (0.8, 1.3),
    };
    let storm = FaultPlan::seeded(99, &profile, 64);
    assert!(!storm.is_empty(), "the fixture storm must contain weather");

    let mut outcomes_by_threads = Vec::new();
    for threads in THREAD_COUNTS {
        let service = TuningService::with_threads(threads);
        service.submit(
            turbulent_spec("seeded-storm", 4.0, 11, storm.clone()).with_retry_policy(RetryPolicy {
                max_attempts: 32,
                backoff_steps: 2,
                retry_cost: 0.0,
            }),
        );
        let outcomes = service.run();
        let report = outcomes[0]
            .report()
            .expect("a 32-retry budget must outlast this storm")
            .clone();
        let tallies: Vec<(u64, u32, u32)> = outcomes[0]
            .receipts
            .iter()
            .map(|r| (r.step, r.faults_observed, r.retries_consumed))
            .collect();
        outcomes_by_threads.push((report, tallies));
    }
    assert_eq!(
        outcomes_by_threads[0], outcomes_by_threads[1],
        "the seeded storm must be invariant to the thread count"
    );
}

/// The `(faults, panics)` a session meets under `plan` while completing
/// `runs` oracle runs. A revocation or transient error burns its call index
/// and the run is retried at the next one. A panic is replayed from the
/// checkpoint taken at its call index, so that index is re-issued and,
/// the fault being spent, runs clean.
fn faults_met(plan: &FaultPlan, runs: usize) -> (usize, usize) {
    let (mut call, mut done, mut faults, mut panics) = (0u64, 0usize, 0usize, 0usize);
    while done < runs {
        match plan.fault_at(call) {
            Some(FaultKind::Revocation | FaultKind::TransientError) => faults += 1,
            Some(FaultKind::Panic) => {
                faults += 1;
                panics += 1;
                done += 1;
            }
            Some(FaultKind::PriceShock(_)) | None => done += 1,
        }
        call += 1;
    }
    (faults, panics)
}

#[test]
fn a_scout_storm_with_a_planted_panic_recovers_every_report_bit_identically() {
    let jobs: Vec<LookupDataset> = catalog::scout_datasets().into_iter().take(4).collect();
    let config = ExperimentConfig {
        gauss_hermite_nodes: 2,
        budget_multiplier: 3.0,
        ..ExperimentConfig::default()
    };
    let job_settings = |dataset: &LookupDataset| {
        let mut settings = config.settings_for(dataset, 1);
        // Sequential paths on every host (`settings_for` enables the pool
        // only on one CPU), so the storm runs alike everywhere.
        settings.parallel_paths = false;
        settings
    };
    let seed_of = |index: usize| 11 + index as u64;
    // Revocations, transient errors and the odd panic; no price shocks, so a
    // recovered run must equal the calm one.
    let profile = FaultProfile {
        revocation: 0.06,
        transient: 0.06,
        panic: 0.02,
        price_shock: 0.0,
        shock_range: (1.0, 1.0),
    };
    let mut plans: Vec<FaultPlan> = (0..jobs.len())
        .map(|i| FaultPlan::seeded(1000 + i as u64, &profile, 256))
        .collect();
    // The seeded panics sit past where the sessions stop, so plant one at a
    // call the first job reaches after its bootstrap.
    plans[0] = plans[0].clone().with_fault(8, FaultKind::Panic);
    let solo: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, dataset)| {
            LynceusOptimizer::new(job_settings(dataset)).optimize(dataset, seed_of(i))
        })
        .collect();
    let met: Vec<(usize, usize)> = plans
        .iter()
        .zip(&solo)
        .map(|(plan, report)| faults_met(plan, report.explorations.len()))
        .collect();
    assert!(
        met[0].1 >= 1,
        "the planted panic must sit on a call job 0 makes"
    );

    for threads in THREAD_COUNTS {
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        let service = TuningService::with_threads(threads).with_checkpoints(store);
        for (i, dataset) in jobs.iter().enumerate() {
            service.submit(
                SessionSpec::new(
                    dataset.name(),
                    job_settings(dataset),
                    Box::new(TurbulentOracle::new(dataset.clone(), plans[i].clone())),
                    seed_of(i),
                )
                .with_retry_policy(RetryPolicy {
                    max_attempts: 64,
                    backoff_steps: 1,
                    retry_cost: 0.0,
                }),
            );
        }
        let outcomes = service.run();
        assert_eq!(outcomes.len(), jobs.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                outcome.report(),
                Some(&solo[i]),
                "{threads} threads: recovery changed the report of {}",
                outcome.name
            );
            let faults: u32 = outcome.receipts.iter().map(|r| r.faults_observed).sum();
            let retries: u32 = outcome.receipts.iter().map(|r| r.retries_consumed).sum();
            assert_eq!(
                (faults as usize, retries as usize),
                (met[i].0, met[i].0),
                "{threads} threads: {} must meet and recover every planned fault it reaches, \
                 the planted panic included",
                outcome.name
            );
        }
    }
}
