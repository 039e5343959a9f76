//! Acceptance suite for the concurrent session scheduler.
//!
//! Three properties are pinned here:
//!
//! 1. **Determinism guard rail** — every session's report is bit-identical
//!    to its solo run regardless of worker-thread count (`{1, 2, 8}` plus
//!    `LYNCEUS_TEST_THREADS` from the CI matrix), scheduling policy, or how
//!    the steps interleaved — including sessions submitted from multiple
//!    threads while the service is mid-run.
//! 2. **Genuine concurrency** — with ≥ 2 worker slots, two sessions are
//!    observed *inside* their oracles at the same time. The observer is an
//!    in-flight counter with a rendezvous (each early oracle call waits —
//!    with a loud 60 s failure timeout — until a second session has entered),
//!    not a wall-clock heuristic: a cooperative scheduler can never satisfy
//!    the rendezvous, a concurrent one satisfies it on the first overlapping
//!    pair of steps.
//! 3. **Policy semantics** — with a single lane the dispatch order *is* the
//!    policy order: `Priority` drains higher priorities first,
//!    `EarliestDeadline` drains nearer deadlines first, and the
//!    `STARVATION_LIMIT` aging guard bounds how long any session can be
//!    passed over.

use lynceus::core::switching::FnSwitching;
use lynceus::core::{
    CostOracle, LynceusOptimizer, Observation, Optimizer, OptimizerSettings, PathEngine,
    ProfileError, SchedulePolicy, SessionError, SessionSpec, SessionStatus, TuningService,
    STARVATION_LIMIT,
};
use lynceus::space::{ConfigId, ConfigSpace, SpaceBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// The thread counts under test: the fixed matrix plus `LYNCEUS_TEST_THREADS`.
fn thread_matrix() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(extra) = std::env::var("LYNCEUS_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&extra) && extra > 0 {
            counts.push(extra);
        }
    }
    counts
}

const ALL_POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::RoundRobin,
    SchedulePolicy::Priority,
    SchedulePolicy::EarliestDeadline,
];

/// The scheduling policy the CI `service-stress` matrix selects via
/// `LYNCEUS_TEST_POLICY` (defaults to round-robin locally).
fn policy_from_env() -> SchedulePolicy {
    match std::env::var("LYNCEUS_TEST_POLICY").as_deref() {
        Ok("Priority") => SchedulePolicy::Priority,
        Ok("EarliestDeadline") => SchedulePolicy::EarliestDeadline,
        _ => SchedulePolicy::RoundRobin,
    }
}

/// The heterogeneous 6-session mix of the determinism matrix, with its solo
/// reference reports.
fn session_mix() -> Vec<(SessionSpec, lynceus::core::OptimizationReport)> {
    (0..6u64)
        .map(|i| {
            let shift = 1.0 + (i % 5) as f64;
            let s = settings(350.0 + 40.0 * i as f64, (i % 2) as usize);
            let engine = match i % 3 {
                0 => PathEngine::BoundAndPrune,
                1 => PathEngine::Batched,
                _ => PathEngine::NaiveReference,
            };
            let mut solo = LynceusOptimizer::new(s.clone()).with_engine(engine);
            let mut spec =
                SessionSpec::new(format!("mix-{i}"), s, Box::new(valley_oracle(shift)), i)
                    .with_engine(engine)
                    // Scheduling keys must shuffle the order without
                    // touching the reports.
                    .with_priority((i as i64 * 5) % 7 - 3)
                    .with_deadline(((i * 13) % 6) as f64);
            if i == 4 {
                let switching =
                    |from: Option<ConfigId>, to: ConfigId| if from == Some(to) { 0.0 } else { 2.0 };
                solo = solo.with_switching_cost(Box::new(FnSwitching(switching)));
                spec = spec.with_switching_cost(Box::new(FnSwitching(switching)));
            }
            let reference = solo.optimize(&valley_oracle(shift), i);
            (spec, reference)
        })
        .collect()
}

#[test]
fn reports_are_bit_identical_across_thread_counts_and_policies() {
    for threads in thread_matrix() {
        for policy in ALL_POLICIES {
            let service = TuningService::with_threads(threads).with_policy(policy);
            let mut expected = Vec::new();
            for (spec, reference) in session_mix() {
                service.submit(spec);
                expected.push(reference);
            }
            let outcomes = service.run();
            assert_eq!(outcomes.len(), expected.len());
            for (outcome, reference) in outcomes.iter().zip(&expected) {
                assert_eq!(
                    outcome.report(),
                    Some(reference),
                    "session {} diverged from its solo run at {threads} thread(s) under {policy:?}",
                    outcome.name
                );
            }
        }
    }
}

/// The interleaving observer: an in-flight counter with a rendezvous. Every
/// oracle call increments the counter, records the peak, and — until a peak
/// of 2 has ever been observed — waits for a second session to arrive
/// (bounded by a generous timeout so a scheduling regression fails the
/// assertion instead of hanging CI).
struct Rendezvous {
    in_flight: Mutex<usize>,
    peak: AtomicUsize,
    arrived: Condvar,
}

impl Rendezvous {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            in_flight: Mutex::new(0),
            peak: AtomicUsize::new(0),
            arrived: Condvar::new(),
        })
    }

    fn enter(&self) {
        let mut in_flight = self.in_flight.lock().expect("observer poisoned");
        *in_flight += 1;
        // ordering: SeqCst — cross-thread test oracle with no lock of its own;
        // strongest order keeps the peak monotone from every thread's view.
        self.peak.fetch_max(*in_flight, Ordering::SeqCst);
        if *in_flight >= 2 {
            self.arrived.notify_all();
        }
        // lint: allow(wall-clock) -- watchdog deadline so a scheduling regression fails the test instead of hanging CI; never feeds a decision
        let deadline = Instant::now() + Duration::from_secs(60);
        // ordering: SeqCst — pairs with the fetch_max above (test oracle).
        while self.peak.load(Ordering::SeqCst) < 2 {
            // lint: allow(wall-clock) -- watchdog countdown only; never feeds a decision
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break; // the test's peak assertion reports the failure
            }
            in_flight = self
                .arrived
                .wait_timeout(in_flight, left)
                .expect("observer poisoned")
                .0;
        }
        *in_flight -= 1;
    }
}

struct ObservedOracle {
    inner: lynceus::core::TableOracle,
    observer: Arc<Rendezvous>,
}

impl CostOracle for ObservedOracle {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }
    fn run(&self, id: ConfigId) -> Observation {
        self.observer.enter();
        self.inner.run(id)
    }
    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

#[test]
fn sessions_step_genuinely_concurrently_under_every_policy() {
    for policy in ALL_POLICIES {
        let observer = Rendezvous::new();
        let service = TuningService::with_threads(2).with_policy(policy);
        let mut expected = Vec::new();
        for seed in 0..2u64 {
            let shift = 2.0 + seed as f64;
            expected.push(
                LynceusOptimizer::new(settings(450.0, 0)).optimize(&valley_oracle(shift), seed),
            );
            service.submit(SessionSpec::new(
                format!("concurrent-{seed}"),
                settings(450.0, 0),
                Box::new(ObservedOracle {
                    inner: valley_oracle(shift),
                    observer: Arc::clone(&observer),
                }),
                seed,
            ));
        }
        let outcomes = service.run();
        assert!(
            // ordering: SeqCst — pairs with the observer's fetch_max; run() has joined every lane by now.
            observer.peak.load(Ordering::SeqCst) >= 2,
            "under {policy:?}, no two sessions were ever in flight at once: \
             the scheduler is not stepping sessions concurrently"
        );
        // Concurrency must not cost determinism.
        for (outcome, reference) in outcomes.iter().zip(&expected) {
            assert_eq!(outcome.report(), Some(reference));
        }
    }
}

/// A start gate plus a per-run log: the gate holds every oracle run until
/// the test has finished submitting (so the single lane cannot drain the
/// first session before its competitors exist), and the log records the
/// global dispatch order the policy produced.
struct GatedLog {
    open: Mutex<bool>,
    opened: Condvar,
    log: Mutex<Vec<&'static str>>,
}

impl GatedLog {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            opened: Condvar::new(),
            log: Mutex::new(Vec::new()),
        })
    }

    fn open(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.opened.notify_all();
    }

    fn record(&self, tag: &'static str) {
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.opened.wait(open).expect("gate poisoned");
        }
        drop(open);
        self.log.lock().expect("gate poisoned").push(tag);
    }
}

struct GatedOracle {
    inner: lynceus::core::TableOracle,
    tag: &'static str,
    gate: Arc<GatedLog>,
}

impl CostOracle for GatedOracle {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }
    fn run(&self, id: ConfigId) -> Observation {
        self.gate.record(self.tag);
        self.inner.run(id)
    }
    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

fn gated_spec(name: &'static str, gate: &Arc<GatedLog>, budget: f64, seed: u64) -> SessionSpec {
    SessionSpec::new(
        name,
        settings(budget, 0),
        Box::new(GatedOracle {
            inner: valley_oracle(3.0),
            tag: name,
            gate: Arc::clone(gate),
        }),
        seed,
    )
}

/// First position of `tag` in the log, or the log length when absent.
fn first_index(log: &[&str], tag: &str) -> usize {
    log.iter().position(|&t| t == tag).unwrap_or(log.len())
}

#[test]
fn priority_policy_drains_higher_priorities_first_on_a_single_lane() {
    let gate = GatedLog::new();
    let service = TuningService::with_threads(1).with_policy(SchedulePolicy::Priority);
    // Short sessions (well under STARVATION_LIMIT steps each) so the aging
    // guard never interferes with the pure policy order.
    service.submit(gated_spec("low", &gate, 150.0, 1).with_priority(0));
    service.submit(gated_spec("high", &gate, 150.0, 2).with_priority(5));
    service.submit(gated_spec("mid", &gate, 150.0, 3).with_priority(1));
    gate.open();
    let outcomes = service.run();
    assert!(outcomes.iter().all(|o| !o.is_failed()));

    let log = gate.log.lock().expect("gate poisoned").clone();
    // The lane may have dispatched the first-submitted session before its
    // competitors existed; everything past that head start must follow
    // strict priority order: all "high" steps, then all "mid", then "low".
    let tail_start = log
        .iter()
        .position(|&t| t != "low")
        .expect("the higher-priority sessions must step");
    assert!(
        tail_start <= 1,
        "the head start can be at most the single pre-submission dispatch: {log:?}"
    );
    let tail = &log[tail_start..];
    let high_last = tail.iter().rposition(|&t| t == "high").unwrap();
    let mid_first = first_index(tail, "mid");
    let mid_last = tail.iter().rposition(|&t| t == "mid").unwrap();
    let low_first = first_index(tail, "low");
    assert!(
        high_last < mid_first && mid_last < low_first,
        "priority order violated: {log:?}"
    );
}

#[test]
fn earliest_deadline_policy_drains_nearer_deadlines_first_on_a_single_lane() {
    let gate = GatedLog::new();
    let service = TuningService::with_threads(1).with_policy(SchedulePolicy::EarliestDeadline);
    service.submit(gated_spec("far", &gate, 150.0, 1).with_deadline(30.0));
    service.submit(gated_spec("near", &gate, 150.0, 2).with_deadline(10.0));
    service.submit(gated_spec("none", &gate, 150.0, 3)); // no deadline
    gate.open();
    let outcomes = service.run();
    assert!(outcomes.iter().all(|o| !o.is_failed()));

    let log = gate.log.lock().expect("gate poisoned").clone();
    let tail_start = log.iter().position(|&t| t != "far").unwrap();
    assert!(tail_start <= 1, "head start too long: {log:?}");
    let tail = &log[tail_start..];
    let near_last = tail.iter().rposition(|&t| t == "near").unwrap();
    let far_first = first_index(tail, "far");
    let far_last = tail.iter().rposition(|&t| t == "far").unwrap();
    let none_first = first_index(tail, "none");
    assert!(
        near_last < far_first && far_last < none_first,
        "deadline order violated: {log:?}"
    );
}

#[test]
fn the_starvation_guard_bounds_how_long_a_session_waits() {
    let gate = GatedLog::new();
    let service = TuningService::with_threads(1).with_policy(SchedulePolicy::Priority);
    // A long high-priority session (comfortably more steps than the limit)
    // and a short low-priority one: without aging, "starved" would not run
    // until "greedy" exhausted its budget.
    service.submit(gated_spec("greedy", &gate, 2_500.0, 1).with_priority(10));
    service.submit(gated_spec("starved", &gate, 150.0, 2).with_priority(0));
    gate.open();
    let outcomes = service.run();
    assert!(outcomes.iter().all(|o| !o.is_failed()));

    let log = gate.log.lock().expect("gate poisoned").clone();
    let starved_first = first_index(&log, "starved");
    let greedy_steps = log.iter().filter(|&&t| t == "greedy").count();
    assert!(
        greedy_steps as u64 > STARVATION_LIMIT + 2,
        "the greedy session is too short ({greedy_steps} steps) to demonstrate starvation"
    );
    assert!(
        starved_first > 2,
        "the high-priority session never got ahead: {log:?}"
    );
    assert!(
        (starved_first as u64) <= STARVATION_LIMIT + 2,
        "the aging guard let a session wait {starved_first} dispatches \
         (limit {STARVATION_LIMIT}): {log:?}"
    );
}

#[test]
fn starving_sessions_are_served_longest_waiting_first_not_by_policy() {
    let gate = GatedLog::new();
    let service = TuningService::with_threads(1).with_policy(SchedulePolicy::Priority);
    // One greedy top-priority session plus two starvers whose *policy*
    // order (priorities 0 vs 5) is the reverse of their wait order (equal
    // `enqueued_at`, so submission/registry order breaks the tie). Both
    // cross STARVATION_LIMIT in the same dispatch window; the guard must
    // serve them oldest-first — here the tie-break — and must NOT let the
    // higher-priority starver leapfrog, which would unbound the other's
    // wait again.
    service.submit(gated_spec("greedy", &gate, 2_500.0, 1).with_priority(10));
    service.submit(gated_spec("starved-low", &gate, 150.0, 2).with_priority(0));
    service.submit(gated_spec("starved-high", &gate, 150.0, 3).with_priority(5));
    gate.open();
    let outcomes = service.run();
    assert!(outcomes.iter().all(|o| !o.is_failed()));

    let log = gate.log.lock().expect("gate poisoned").clone();
    let low_first = first_index(&log, "starved-low");
    let high_first = first_index(&log, "starved-high");
    assert!(
        low_first < log.len() && high_first < log.len(),
        "both starved sessions must be aged into service: {log:?}"
    );
    assert!(
        low_first < high_first,
        "the starvation guard must serve the longest-waiting session first \
         (equal waits: registry order), not the policy's favourite: {log:?}"
    );
    // And the guard still bounds both waits.
    assert!(
        (high_first as u64) <= STARVATION_LIMIT + 4,
        "second starver waited {high_first} dispatches: {log:?}"
    );
}

#[test]
fn prune_stats_snapshots_stay_decision_consistent_under_concurrency() {
    // A shared optimizer stepped from several threads while another thread
    // polls (and occasionally resets) the pruning counters: every snapshot
    // must describe a whole number of decisions — `pruned ≤
    // candidates`, `candidates ≥ decisions` — never a torn intermediate
    // from a half-applied decision or reset, which the previous field-wise
    // relaxed atomics could expose.
    let optimizer = Arc::new(LynceusOptimizer::new(settings(700.0, 2)));
    let stop = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for seed in 0..2u64 {
            let optimizer = Arc::clone(&optimizer);
            let stop = Arc::clone(&stop);
            // lint: allow(thread-spawn) -- test harness: the subject here IS concurrent access from foreign threads; the scope joins them
            scope.spawn(move || {
                let oracle = valley_oracle(2.0 + seed as f64);
                for run in 0..3 {
                    let _ = optimizer.optimize(&oracle, seed * 7 + run);
                }
                // ordering: Relaxed — a done-flag the poller only compares to
                // its target; the scope join is the real synchronization.
                stop.fetch_add(1, Ordering::Relaxed);
            });
        }
        let mut checked = 0usize;
        // ordering: Relaxed — pairs with the done-flag fetch_add above; a
        // stale read only makes the poller check one more snapshot.
        while stop.load(Ordering::Relaxed) < 2 {
            let stats = optimizer.prune_stats();
            assert!(
                stats.pruned <= stats.candidates,
                "torn snapshot: more pruned than candidates: {stats:?}"
            );
            assert!(
                stats.candidates >= stats.decisions,
                "torn snapshot: a decision without candidates: {stats:?}"
            );
            checked += 1;
            if checked.is_multiple_of(64) {
                optimizer.reset_prune_stats();
                assert_eq!(
                    {
                        let s = optimizer.prune_stats();
                        (s.pruned <= s.candidates, s.candidates >= s.decisions)
                    },
                    (true, true),
                    "snapshot right after a reset must still be whole"
                );
            }
            std::thread::yield_now();
        }
        assert!(checked > 0);
        // The final quiescent snapshot is whole too.
        let final_stats = optimizer.prune_stats();
        assert!(final_stats.pruned <= final_stats.candidates);
    });
}

/// An oracle that reports NaN after a number of clean runs — the
/// error-isolation probe of the steady-submission test.
struct NanAfter {
    inner: lynceus::core::TableOracle,
    clean_runs: AtomicUsize,
}

impl CostOracle for NanAfter {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }
    fn candidates(&self) -> Vec<ConfigId> {
        self.inner.candidates()
    }
    fn run(&self, id: ConfigId) -> Observation {
        // ordering: Relaxed — one lane steps this session at a time, and the
        // scheduler's lock hand-offs order the load/store pair.
        let left = self.clean_runs.load(Ordering::Relaxed);
        if left == 0 {
            return Observation::new(1.0, f64::NAN);
        }
        // ordering: Relaxed — same single-stepper argument as the load above.
        self.clean_runs.store(left - 1, Ordering::Relaxed);
        self.inner.run(id)
    }
    fn price_rate(&self, id: ConfigId) -> f64 {
        self.inner.price_rate(id)
    }
}

#[test]
fn steady_submission_from_many_threads_is_deterministic_and_isolated() {
    let service = Arc::new(TuningService::with_threads(2));

    // Solo references, keyed by session name (submission ids are racy
    // across submitter threads; names are not).
    let spec_of = |submitter: u64, j: u64| {
        let seed = submitter * 100 + j;
        let shift = 1.0 + ((submitter + j) % 5) as f64;
        let s = settings(350.0 + 25.0 * j as f64, (j % 2) as usize);
        (format!("steady-{submitter}-{j}"), s, shift, seed)
    };
    let mut expected = std::collections::HashMap::new();
    for submitter in 0..4u64 {
        for j in 0..2u64 {
            let (name, s, shift, seed) = spec_of(submitter, j);
            expected.insert(
                name,
                LynceusOptimizer::new(s).optimize(&valley_oracle(shift), seed),
            );
        }
    }

    // Kick the scheduler off, then submit the rest from four competing
    // threads while it is mid-run — plus one NaN session to re-verify error
    // isolation under concurrency.
    service.submit(SessionSpec::new(
        "nan-under-concurrency",
        settings(500.0, 0),
        Box::new(NanAfter {
            inner: valley_oracle(2.0),
            clean_runs: AtomicUsize::new(4),
        }),
        77,
    ));
    std::thread::scope(|scope| {
        for submitter in 0..4u64 {
            let service = Arc::clone(&service);
            // lint: allow(thread-spawn) -- test harness: steady submission from foreign threads is the behavior under test; the scope joins them
            scope.spawn(move || {
                for j in 0..2u64 {
                    let (name, s, shift, seed) = spec_of(submitter, j);
                    service.submit(SessionSpec::new(
                        name,
                        s,
                        Box::new(valley_oracle(shift)),
                        seed,
                    ));
                }
            });
        }
    });

    let outcomes = service.run_until_idle();
    assert_eq!(outcomes.len(), 9);
    let mut healthy = 0;
    for outcome in &outcomes {
        if outcome.name == "nan-under-concurrency" {
            let SessionStatus::Failed { error, partial } = &outcome.status else {
                panic!("the NaN session must fail");
            };
            assert!(matches!(
                error,
                SessionError::Profile(ProfileError::InvalidCost { cost, .. }) if cost.is_nan()
            ));
            assert_eq!(
                partial.as_ref().map(|p| p.num_explorations()),
                Some(4),
                "the partial report covers exactly the clean runs"
            );
            continue;
        }
        let reference = expected
            .get(&outcome.name)
            .expect("every submitted session has a solo reference");
        assert_eq!(
            outcome.report(),
            Some(reference),
            "steady-submitted session {} diverged from its solo run",
            outcome.name
        );
        healthy += 1;
    }
    assert_eq!(healthy, 8);
}

/// The CI `service-stress` leg: policy from `LYNCEUS_TEST_POLICY`, worker
/// count from `LYNCEUS_TEST_THREADS`, a dozen mixed-key sessions plus one
/// poisoned oracle, everything checked against solo runs.
#[test]
fn service_stress_leg_matches_solo_runs_under_the_env_matrix() {
    let threads = std::env::var("LYNCEUS_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    let service = TuningService::with_threads(threads).with_policy(policy_from_env());
    let mut expected = Vec::new();
    for i in 0..12u64 {
        let shift = (i % 5) as f64;
        let s = settings(300.0 + 20.0 * i as f64, 0);
        expected.push(LynceusOptimizer::new(s.clone()).optimize(&valley_oracle(shift), i));
        service.submit(
            SessionSpec::new(format!("stress-{i}"), s, Box::new(valley_oracle(shift)), i)
                .with_priority((i % 4) as i64)
                .with_deadline((i % 3) as f64 * 7.0),
        );
    }
    service.submit(SessionSpec::new(
        "stress-poisoned",
        settings(400.0, 0),
        Box::new(NanAfter {
            inner: valley_oracle(1.0),
            // Poisoned on the third run, mid-bootstrap: the failure is
            // guaranteed to fire before the budget can end the session.
            clean_runs: AtomicUsize::new(2),
        }),
        99,
    ));
    let outcomes = service.run();
    assert_eq!(outcomes.len(), 13);
    for (outcome, reference) in outcomes[..12].iter().zip(&expected) {
        assert_eq!(
            outcome.report(),
            Some(reference),
            "stress session {} diverged under the env matrix",
            outcome.name
        );
    }
    assert!(outcomes[12].is_failed());
}
