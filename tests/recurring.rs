//! Recurring-job acceptance suite: the cross-run knowledge layer.
//!
//! Five properties are pinned here:
//!
//! 1. **Codec robustness** — seeded [`JobKnowledge`] records (empty,
//!    single-run, K-run chained, adversarial floats) round-trip bit-exactly
//!    or fail decode cleanly; a corrupt blob can never poison a session.
//! 2. **Cross-engine / cross-thread bit-identity of warm runs** — a K=3
//!    chain of successive runs of one recurring job produces, run for run,
//!    the identical report and receipt trail on every speculation engine
//!    and every worker-thread count. Warm starts are an optimization of
//!    *where evidence comes from*, never of what gets decided.
//! 3. **Store equivalence** — the same chain through a [`DirStore`]
//!    (surviving the death of everything but the directory, as across
//!    process boundaries) matches the in-memory chain bit for bit.
//! 4. **Warm durability** — a warm run killed at a decision boundary and
//!    resumed from its checkpoint finishes bit-identical to the
//!    uninterrupted warm run, and the suspension itself never harvests
//!    (the checkpoint carries the attached prior instead).
//! 5. **Format upgrades** — golden blobs written by the previous formats
//!    (a KNOW v1 record, a checkpoint v2 blob) still decode, and the
//!    suspended session they describe resumes bit-identically; golden blobs
//!    of the current formats (KNOW v2, checkpoint v3) are written byte for
//!    byte by today's encoders, so a byte change without a version bump
//!    fails here.

use lynceus::core::transfer::{DirStore, MemoryStore};
use lynceus::core::{
    CheckpointStore, CodecError, DecisionReceipt, JobKnowledge, KnowledgeStore, LynceusOptimizer,
    OptimizationReport, Optimizer, OptimizerSettings, PathEngine, PriorObservation,
    SessionCheckpoint, SessionSpec, SessionStatus, TuningService,
};
use lynceus::space::{ConfigId, SpaceBuilder};
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

const ALL_ENGINES: [PathEngine; 3] = [
    PathEngine::BoundAndPrune,
    PathEngine::Batched,
    PathEngine::NaiveReference,
];

const JOB: &str = "nightly-valley";

/// Per-run session seed of the K-run chain. Distinct on purpose: the job's
/// *ensemble* seed is fixed at run 1 by the knowledge record, while the
/// session seed (candidate-selection RNG) varies run to run.
fn run_seed(run: u64) -> u64 {
    900 + run * 7
}

fn chain_spec(engine: PathEngine, run: u64) -> SessionSpec {
    SessionSpec::new(
        format!("recurring-{engine:?}-run{run}"),
        settings(500.0, 1),
        Box::new(valley_oracle(4.0)),
        run_seed(run),
    )
    .with_engine(engine)
    .with_job_key(JOB)
}

/// Runs the K-run chain of the recurring job on one engine / thread count,
/// asserting the knowledge record advances run by run, and returns the
/// per-run artifacts.
fn run_chain(
    engine: PathEngine,
    threads: usize,
    store: &Arc<dyn KnowledgeStore>,
    runs: u64,
) -> Vec<(OptimizationReport, Vec<DecisionReceipt>)> {
    let mut artifacts = Vec::new();
    let mut prior_observations = 0usize;
    for run in 0..runs {
        let service = TuningService::with_threads(threads).with_knowledge_store(Arc::clone(store));
        service.submit(chain_spec(engine, run));
        let mut outcomes = service.run();
        assert_eq!(outcomes.len(), 1);
        let outcome = outcomes.remove(0);
        let report = outcome
            .report()
            .unwrap_or_else(|| panic!("{engine:?} run {run} did not finish: {:?}", outcome.status))
            .clone();
        let knowledge =
            JobKnowledge::decode(&store.load(JOB).expect("every completed run harvests"))
                .expect("the harvested record decodes");
        assert_eq!(knowledge.runs, run + 1, "{engine:?} run counter");
        assert_eq!(
            knowledge.ensemble_seed,
            run_seed(0),
            "the ensemble seed is fixed at the first run's session seed"
        );
        assert!(
            knowledge.observations.len() > prior_observations,
            "{engine:?} run {run} contributed no new evidence"
        );
        prior_observations = knowledge.observations.len();
        artifacts.push((report, outcome.receipts));
    }
    artifacts
}

#[test]
fn recurring_chains_are_bit_identical_across_engines_and_threads() {
    let store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let reference = run_chain(PathEngine::BoundAndPrune, 1, &store, 3);

    // Run 1 of the chain is a genuinely cold run: attaching an *empty*
    // knowledge record must cost nothing — bit-identical to the solo
    // optimizer with no knowledge layer at all.
    let solo = LynceusOptimizer::new(settings(500.0, 1)).optimize(&valley_oracle(4.0), run_seed(0));
    assert_eq!(
        reference[0].0, solo,
        "an empty prior changed the first run's decisions"
    );

    // Warm runs replay prior evidence into Σ instead of spending oracle
    // charges on LHS bootstrap: the bootstrap receipt count must shrink.
    let cold_bootstrap = reference[0].1.iter().filter(|r| r.bootstrap).count();
    let warm_bootstrap = reference[1].1.iter().filter(|r| r.bootstrap).count();
    assert!(
        warm_bootstrap < cold_bootstrap,
        "warm run still paid the full bootstrap ({warm_bootstrap} vs {cold_bootstrap})"
    );

    for engine in ALL_ENGINES {
        // Reports (decisions, spend, recommendation) are identical across
        // *engines*; the receipt trail additionally pins the per-engine
        // effort counters, so it is compared within an engine across
        // thread counts.
        let store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
        let engine_reference = run_chain(engine, 1, &store, 3);
        for (run, ((report, _), (ref_report, _))) in
            engine_reference.iter().zip(&reference).enumerate()
        {
            assert_eq!(
                report, ref_report,
                "{engine:?} diverged from the reference chain at run {run}"
            );
        }
        for threads in thread_matrix() {
            let store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
            let chain = run_chain(engine, threads, &store, 3);
            for (run, ((report, receipts), (ref_report, ref_receipts))) in
                chain.iter().zip(&engine_reference).enumerate()
            {
                assert_eq!(
                    report, ref_report,
                    "{engine:?}/{threads}t diverged from the 1-thread chain at run {run}"
                );
                assert_eq!(
                    receipts, ref_receipts,
                    "{engine:?}/{threads}t receipt trail diverged at run {run}"
                );
            }
        }
    }
}

#[test]
fn dir_store_chains_match_memory_chains_across_service_deaths() {
    let memory: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let reference = run_chain(PathEngine::BoundAndPrune, 2, &memory, 3);

    let dir = std::env::temp_dir().join(format!("lynceus-recurring-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut disk = Vec::new();
    for run in 0..3 {
        // A brand-new store *and* service per run: only the directory
        // survives between runs, exactly like separate processes.
        let store: Arc<dyn KnowledgeStore> =
            Arc::new(DirStore::new(&dir).expect("the knowledge directory is creatable"));
        let service = TuningService::with_threads(2).with_knowledge_store(store);
        service.submit(chain_spec(PathEngine::BoundAndPrune, run));
        let mut outcomes = service.run();
        let outcome = outcomes.remove(0);
        let report = outcome
            .report()
            .expect("the disk-backed run finished")
            .clone();
        disk.push((report, outcome.receipts));
    }
    assert_eq!(
        disk, reference,
        "the disk-backed chain diverged from the in-memory chain"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_run_killed_mid_run_resumes_bit_identically_and_suspension_never_harvests() {
    // Run 1 produces the knowledge every trial starts from.
    let seed_store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let service = TuningService::with_threads(2).with_knowledge_store(Arc::clone(&seed_store));
    service.submit(chain_spec(PathEngine::BoundAndPrune, 0));
    assert!(matches!(
        service.run()[0].status,
        SessionStatus::Finished(_)
    ));
    let run1_bytes = seed_store.load(JOB).expect("run 1 harvested");

    // A fresh store pre-seeded with exactly the run-1 knowledge.
    let warm_store = || -> Arc<dyn KnowledgeStore> {
        let store = MemoryStore::new();
        store.save(JOB, &run1_bytes);
        Arc::new(store)
    };

    // The uninterrupted warm run 2 is the reference.
    let service = TuningService::with_threads(2).with_knowledge_store(warm_store());
    service.submit(chain_spec(PathEngine::BoundAndPrune, 1));
    let mut outcomes = service.run();
    let reference = outcomes.remove(0);
    let total = reference.receipts.len() as u64;
    assert!(total > 2, "the warm fixture must take several steps");

    for kill_at in [1, total / 2, total - 1] {
        let knowledge = warm_store();
        let checkpoints: Arc<dyn lynceus::core::CheckpointStore> =
            Arc::new(lynceus::core::MemoryStore::new());

        let doomed = TuningService::with_threads(2)
            .with_knowledge_store(Arc::clone(&knowledge))
            .with_checkpoints(Arc::clone(&checkpoints));
        doomed.submit(chain_spec(PathEngine::BoundAndPrune, 1).with_step_limit(kill_at));
        assert!(matches!(
            doomed.run()[0].status,
            SessionStatus::Suspended { steps } if steps == kill_at
        ));
        // Suspension is not a terminal outcome: the store still holds the
        // run-1 record (the checkpoint carries the attached prior instead).
        assert_eq!(
            knowledge.load(JOB),
            Some(run1_bytes.clone()),
            "a suspension at step {kill_at} harvested"
        );

        let revived = TuningService::with_threads(2)
            .with_knowledge_store(Arc::clone(&knowledge))
            .with_checkpoints(checkpoints);
        revived.restore(chain_spec(PathEngine::BoundAndPrune, 1));
        let mut outcomes = revived.run();
        let resumed = outcomes.remove(0);
        assert_eq!(
            resumed.report(),
            reference.report(),
            "warm run killed at boundary {kill_at}/{total} did not resume bit-identically"
        );
        assert_eq!(resumed.receipts, reference.receipts);
        // Completion after the resume *does* harvest: the record advances
        // to run 2 exactly as if the kill never happened.
        let harvested = JobKnowledge::decode(&knowledge.load(JOB).expect("the resume harvested"))
            .expect("the harvested record decodes");
        assert_eq!(harvested.runs, 2);
        assert_eq!(harvested.ensemble_seed, run_seed(0));
    }
}

/// A deterministic xorshift64* stream for the seeded codec sweep.
struct SweepRng(u64);

impl SweepRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A finite non-negative f64, occasionally subnormal.
    fn finite(&mut self) -> f64 {
        match self.next() % 5 {
            0 => 0.0,
            1 => f64::MIN_POSITIVE / ((self.next() % 7 + 1) as f64),
            _ => (self.next() % 1_000_000) as f64 / 64.0,
        }
    }
}

/// A pseudo-random record shaped like `chained` runs of harvests.
fn sweep_record(rng: &mut SweepRng, chained: u64) -> JobKnowledge {
    let mut record = JobKnowledge::new(format!("job-{}", rng.next() % 97), rng.next());
    record.runs = chained;
    for _ in 0..(chained * (rng.next() % 6 + 1)) {
        record.observations.push(PriorObservation {
            id: ConfigId((rng.next() % 40) as usize),
            runtime_seconds: rng.finite(),
            cost: rng.finite(),
            metrics: (0..rng.next() % 4).map(|_| rng.finite()).collect(),
        });
    }
    record
}

#[test]
fn seeded_codec_sweep_round_trips_and_rejects_adversarial_floats() {
    // Empty and single-run records.
    let empty = JobKnowledge::new("fresh", 11);
    assert_eq!(JobKnowledge::decode(&empty.encode()).unwrap(), empty);
    let mut rng = SweepRng(0x5EED_0001);
    for chained in [1u64, 3, 7] {
        for _ in 0..16 {
            let record = sweep_record(&mut rng, chained);
            let bytes = record.encode();
            assert_eq!(
                JobKnowledge::decode(&bytes).unwrap(),
                record,
                "a {chained}-run record failed to round-trip"
            );
            // Every truncation of a valid encoding fails decode cleanly.
            for cut in [0, bytes.len() / 3, bytes.len() - 1] {
                assert!(JobKnowledge::decode(&bytes[..cut]).is_err());
            }
        }
    }
    // Adversarial floats: any non-finite (or negative runtime/cost) value
    // anywhere in the observation stream is rejected at decode.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for field in 0..3 {
            let mut record = sweep_record(&mut rng, 2);
            record.observations.push(PriorObservation {
                id: ConfigId(1),
                runtime_seconds: if field == 0 { bad } else { 1.0 },
                cost: if field == 1 { bad } else { 1.0 },
                metrics: vec![if field == 2 { bad } else { 1.0 }],
            });
            assert!(
                JobKnowledge::decode(&record.encode()).is_err(),
                "field {field} = {bad} must be rejected"
            );
        }
    }
    let mut negative = sweep_record(&mut rng, 1);
    negative.observations.push(PriorObservation {
        id: ConfigId(0),
        runtime_seconds: -1.0,
        cost: 1.0,
        metrics: Vec::new(),
    });
    assert!(JobKnowledge::decode(&negative.encode()).is_err());
}

/// Golden blobs written by the previous formats, which both carried two
/// anchor keys the current formats dropped: the KNOW v1 record run 1 of
/// the chain above harvests, and the checkpoint v2 blob of warm run 2
/// suspended by `with_step_limit(6)`. At `LA = 1` nothing is pruned, so
/// the sessions they describe decide exactly as they did when written.
const KNOW_V1: &[u8] = include_bytes!("fixtures/formats/know_v1.bin");
const CHECKPOINT_V2: &[u8] = include_bytes!("fixtures/formats/checkpoint_v2.bin");
/// The step at which the checkpoint fixture's session was suspended.
const FIXTURE_SUSPENDED_AT: usize = 6;

/// Golden blobs of the current formats, for the same chain: the KNOW v2
/// record run 1 harvests, and the checkpoint v3 blob of warm run 2 (started
/// from that record) suspended by `with_step_limit(6)`.
const KNOW_V2: &[u8] = include_bytes!("fixtures/formats/know_v2.bin");
const CHECKPOINT_V3: &[u8] = include_bytes!("fixtures/formats/checkpoint_v3.bin");

/// The version word of a KNOW or checkpoint blob: it follows the magic's
/// 8-byte length prefix and 4 bytes.
fn version_of(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[12..16].try_into().expect("four version bytes"))
}

fn with_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut patched = bytes.to_vec();
    patched[12..16].copy_from_slice(&version.to_le_bytes());
    patched
}

#[test]
fn previous_format_fixtures_decode_and_resume_bit_identically() {
    // KNOW v1 decodes, discarding its anchor keys; encoding writes v2.
    assert_eq!(version_of(KNOW_V1), 1);
    let knowledge = JobKnowledge::decode(KNOW_V1).expect("a KNOW v1 record decodes");
    assert_eq!(knowledge.job_key, JOB);
    assert_eq!(knowledge.runs, 1);
    assert_eq!(knowledge.ensemble_seed, run_seed(0));
    assert!(!knowledge.observations.is_empty());
    let upgraded = knowledge.encode();
    assert_eq!(version_of(&upgraded), 2);
    assert_eq!(upgraded.len() + 16, KNOW_V1.len(), "two u64 keys dropped");
    assert_eq!(JobKnowledge::decode(&upgraded).unwrap(), knowledge);

    // Checkpoint v2 decodes, nested KNOW v1 prior included; encoding
    // writes v3 (two keys dropped by the checkpoint, two by its prior).
    assert_eq!(version_of(CHECKPOINT_V2), 2);
    let checkpoint =
        SessionCheckpoint::decode(CHECKPOINT_V2).expect("a checkpoint v2 blob decodes");
    assert_eq!(checkpoint.steps(), FIXTURE_SUSPENDED_AT as u64);
    let upgraded = checkpoint.encode();
    assert_eq!(version_of(&upgraded), 3);
    assert_eq!(upgraded.len() + 32, CHECKPOINT_V2.len());
    assert_eq!(SessionCheckpoint::decode(&upgraded).unwrap(), checkpoint);

    // The uninterrupted warm run 2, starting from the v1 record.
    let warm_store = || -> Arc<dyn KnowledgeStore> {
        let store = MemoryStore::new();
        store.save(JOB, KNOW_V1);
        Arc::new(store)
    };
    let service = TuningService::with_threads(2).with_knowledge_store(warm_store());
    service.submit(chain_spec(PathEngine::BoundAndPrune, 1));
    let reference = service.run().remove(0);
    assert!(reference.report().is_some(), "{:?}", reference.status);
    assert_eq!(
        checkpoint.receipts(),
        &reference.receipts[..FIXTURE_SUSPENDED_AT],
        "the fixture's decisions differ from this code's"
    );

    // Resuming the v2 checkpoint finishes bit-identically and harvests a
    // v2 record.
    let knowledge_store = warm_store();
    let checkpoints: Arc<dyn CheckpointStore> = Arc::new(lynceus::core::MemoryStore::new());
    checkpoints.save(
        &format!("recurring-{:?}-run1", PathEngine::BoundAndPrune),
        CHECKPOINT_V2,
    );
    let revived = TuningService::with_threads(2)
        .with_knowledge_store(Arc::clone(&knowledge_store))
        .with_checkpoints(checkpoints);
    revived.restore(chain_spec(PathEngine::BoundAndPrune, 1));
    let resumed = revived.run().remove(0);
    assert_eq!(resumed.report(), reference.report());
    assert_eq!(resumed.receipts, reference.receipts);
    let harvested = knowledge_store.load(JOB).expect("the resume harvested");
    assert_eq!(version_of(&harvested), 2);
    assert_eq!(JobKnowledge::decode(&harvested).unwrap().runs, 2);

    // Truncated fixtures and unknown versions still fail cleanly.
    for cut in [0, 15, KNOW_V1.len() / 2, KNOW_V1.len() - 1] {
        assert!(JobKnowledge::decode(&KNOW_V1[..cut]).is_err(), "cut {cut}");
    }
    for cut in [0, 15, CHECKPOINT_V2.len() / 2, CHECKPOINT_V2.len() - 1] {
        assert!(
            SessionCheckpoint::decode(&CHECKPOINT_V2[..cut]).is_err(),
            "cut {cut}"
        );
    }
    for version in [0, 3] {
        assert_eq!(
            JobKnowledge::decode(&with_version(KNOW_V1, version)),
            Err(CodecError::Invalid("unsupported knowledge version"))
        );
    }
    for version in [1, 4] {
        assert_eq!(
            SessionCheckpoint::decode(&with_version(CHECKPOINT_V2, version)),
            Err(CodecError::Invalid("unsupported checkpoint version"))
        );
    }
}

#[test]
fn current_format_fixtures_are_rewritten_byte_for_byte_and_resume_bit_identically() {
    assert_eq!(version_of(KNOW_V2), 2);
    assert_eq!(version_of(CHECKPOINT_V3), 3);

    // Decoding and re-encoding each fixture is the identity.
    let knowledge = JobKnowledge::decode(KNOW_V2).expect("a KNOW v2 record decodes");
    assert_eq!(knowledge.encode(), KNOW_V2);
    let checkpoint =
        SessionCheckpoint::decode(CHECKPOINT_V3).expect("a checkpoint v3 blob decodes");
    assert_eq!(checkpoint.encode(), CHECKPOINT_V3);
    assert_eq!(checkpoint.steps(), FIXTURE_SUSPENDED_AT as u64);

    // This code's encoders write the same bytes for the same run: run 1
    // harvests the KNOW fixture…
    let cold_store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let service = TuningService::with_threads(2).with_knowledge_store(Arc::clone(&cold_store));
    service.submit(chain_spec(PathEngine::BoundAndPrune, 0));
    assert!(matches!(
        service.run()[0].status,
        SessionStatus::Finished(_)
    ));
    assert_eq!(
        cold_store.load(JOB).as_deref(),
        Some(KNOW_V2),
        "run 1 harvested different KNOW bytes"
    );

    // …and warm run 2, suspended at the fixture's step, checkpoints the
    // checkpoint fixture.
    let warm_store = || -> Arc<dyn KnowledgeStore> {
        let store = MemoryStore::new();
        store.save(JOB, KNOW_V2);
        Arc::new(store)
    };
    let key = format!("recurring-{:?}-run1", PathEngine::BoundAndPrune);
    let checkpoints: Arc<dyn CheckpointStore> = Arc::new(lynceus::core::MemoryStore::new());
    let doomed = TuningService::with_threads(2)
        .with_knowledge_store(warm_store())
        .with_checkpoints(Arc::clone(&checkpoints));
    doomed.submit(
        chain_spec(PathEngine::BoundAndPrune, 1).with_step_limit(FIXTURE_SUSPENDED_AT as u64),
    );
    assert!(matches!(
        doomed.run()[0].status,
        SessionStatus::Suspended { steps } if steps == FIXTURE_SUSPENDED_AT as u64
    ));
    assert_eq!(
        checkpoints.load(&key).as_deref(),
        Some(CHECKPOINT_V3),
        "the suspension wrote different checkpoint bytes"
    );

    // Resuming the fixture finishes bit-identically to the uninterrupted
    // warm run 2.
    let service = TuningService::with_threads(2).with_knowledge_store(warm_store());
    service.submit(chain_spec(PathEngine::BoundAndPrune, 1));
    let reference = service.run().remove(0);
    assert!(reference.report().is_some(), "{:?}", reference.status);
    let checkpoints: Arc<dyn CheckpointStore> = Arc::new(lynceus::core::MemoryStore::new());
    checkpoints.save(&key, CHECKPOINT_V3);
    let revived = TuningService::with_threads(2)
        .with_knowledge_store(warm_store())
        .with_checkpoints(checkpoints);
    revived.restore(chain_spec(PathEngine::BoundAndPrune, 1));
    let resumed = revived.run().remove(0);
    assert_eq!(resumed.report(), reference.report());
    assert_eq!(resumed.receipts, reference.receipts);
}
