//! Recurring-job transfer: what cross-run knowledge buys.
//!
//! The paper's premise is that data-analytic jobs recur, so the cost of
//! tuning is amortized across executions. This bench measures that
//! amortization directly: a K=3 chain of successive runs of one Scout job
//! through a `TuningService` with a knowledge store attached, against the
//! cold first run as its own baseline. Two figures of merit per run:
//!
//! * **cost-to-target** — profiling dollars spent until the evidence
//!   available to the session (replayed prior observations are free, this
//!   run's explorations are charged in order) first contains a feasible
//!   configuration at least as cheap as the cold run's final
//!   recommendation. Warm runs inherit the prior Σ, so the chain's
//!   cost-to-target must fall run over run — that *is* the recurring-job
//!   story.
//! * **first-decision pruning** — the fraction of branch-and-bound
//!   candidates cut at the first non-bootstrap decision. The chain runs
//!   under a tight runtime constraint (the dataset's 10th-percentile
//!   runtime), so a cold bootstrap rarely observes a feasible
//!   configuration and the pruning guard stays disarmed at decision one; a
//!   warm session replays the prior run's feasible observations into Σ, so
//!   pruning bites immediately.
//!
//! Before any cell is written, the whole chain is re-run on the exhaustive
//! `Batched` engine and the per-run reports are asserted bit-identical —
//! warm starts change where evidence comes from, never what gets decided.
//! Writes `BENCH_recurring.json` in the artifact directory (see
//! `lynceus_bench::artifact_dir`); `bench_check` gates the cells via
//! `recurring_violations`.

use lynceus_bench::{object, write_artifact};
use lynceus_core::transfer::MemoryStore;
use lynceus_core::{
    CostOracle, DecisionReceipt, JobKnowledge, KnowledgeStore, OptimizationReport,
    OptimizerSettings, PathEngine, SessionSpec, TuningService,
};
use lynceus_datasets::{catalog, LookupDataset};
use lynceus_experiments::ExperimentConfig;
use lynceus_serve::json::Value;
use std::sync::Arc;
use std::time::Instant;

const RUNS_CHAINED: u64 = 3;
const LOOKAHEAD: usize = 2;
const JOB_KEY: &str = "recurring-scout";

fn run_seed(run: u64) -> u64 {
    1234 + run * 17
}

fn chain_settings(dataset: &LookupDataset) -> OptimizerSettings {
    let config = ExperimentConfig {
        gauss_hermite_nodes: 2,
        budget_multiplier: 3.0,
        ..ExperimentConfig::default()
    };
    let mut settings = config.settings_for(dataset, LOOKAHEAD);
    // Sequential dispatch keeps the pruning-effort counters deterministic
    // (decisions are engine- and dispatch-invariant either way).
    settings.parallel_paths = false;
    // A lean bootstrap: under the tight constraint the LHS phase rarely
    // lands on a feasible configuration, so the cold run demonstrably
    // starts its model-driven decisions with the pruning guard disarmed.
    settings.bootstrap_samples = Some(5);
    settings
}

struct RunCell {
    prior_observations: usize,
    report: OptimizationReport,
    receipts: Vec<DecisionReceipt>,
}

/// Runs the K-run chain on one engine, returning per-run artifacts plus
/// the chain's wall-clock seconds.
fn run_chain(dataset: &LookupDataset, engine: PathEngine) -> (Vec<RunCell>, f64) {
    let store: Arc<dyn KnowledgeStore> = Arc::new(MemoryStore::new());
    let mut cells = Vec::new();
    let start = Instant::now();
    for run in 0..RUNS_CHAINED {
        let prior_observations = store
            .load(JOB_KEY)
            .and_then(|bytes| JobKnowledge::decode(&bytes).ok())
            .map_or(0, |k| k.observations.len());
        let service = TuningService::with_threads(2).with_knowledge_store(Arc::clone(&store));
        service.submit(
            SessionSpec::new(
                format!("{}-run{run}", dataset.name()),
                chain_settings(dataset),
                Box::new(dataset.clone()),
                run_seed(run),
            )
            .with_engine(engine)
            .with_job_key(JOB_KEY),
        );
        let mut outcomes = service.run();
        let outcome = outcomes.remove(0);
        let report = match outcome.status {
            lynceus_core::SessionStatus::Finished(report) => report,
            other => panic!("chain run {run} did not finish: {other:?}"),
        };
        cells.push(RunCell {
            prior_observations,
            report,
            receipts: outcome.receipts,
        });
    }
    (cells, start.elapsed().as_secs_f64())
}

/// Profiling dollars spent until the session's evidence (free prior rows
/// first, then this run's explorations in order) contains a feasible
/// configuration with cost ≤ `target`. `None` if the run never gets there.
fn cost_to_target(
    prior: &[(f64, f64)], // (runtime, cost) of replayed observations
    report: &OptimizationReport,
    target: f64,
) -> Option<f64> {
    let feasible_at = |runtime: f64, cost: f64| runtime <= report.tmax_seconds && cost <= target;
    if prior.iter().any(|&(r, c)| feasible_at(r, c)) {
        return Some(0.0);
    }
    let mut spent = 0.0;
    for exploration in &report.explorations {
        spent += exploration.observation.cost;
        if feasible_at(
            exploration.observation.runtime_seconds,
            exploration.observation.cost,
        ) {
            return Some(spent);
        }
    }
    None
}

/// The first non-bootstrap receipt's `(candidates, pruned)`.
fn first_decision_pruning(receipts: &[DecisionReceipt]) -> (u64, u64) {
    receipts
        .iter()
        .find(|r| !r.bootstrap)
        .map_or((0, 0), |r| (r.candidates, r.pruned))
}

/// Tightens the runtime constraint to the dataset's 10th-percentile
/// runtime: feasible configurations become rare, so the cold run's first
/// model-driven decision lands before any feasibility evidence — the
/// cold-start waste the replayed prior removes (its feasible observations
/// arm pruning from the warm run's first decision).
fn tighten_tmax(dataset: &mut LookupDataset) {
    let mut runtimes: Vec<f64> = dataset
        .candidates()
        .into_iter()
        .map(|id| dataset.outcome(id).runtime_seconds)
        .collect();
    runtimes.sort_by(f64::total_cmp);
    dataset.set_tmax_seconds(runtimes[runtimes.len() / 20] * 1.000_001);
}

fn main() {
    let mut dataset = catalog::scout_datasets()
        .into_iter()
        .next()
        .expect("the bench catalog always carries a Scout job");
    tighten_tmax(&mut dataset);
    let dataset = dataset;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let (chain, chain_seconds) = run_chain(&dataset, PathEngine::BoundAndPrune);

    // Bit-identity leg: the exhaustive engine must make the same chain of
    // decisions, run for run.
    let (exhaustive, _) = run_chain(&dataset, PathEngine::Batched);
    let reports_identical = chain
        .iter()
        .zip(&exhaustive)
        .all(|(a, b)| a.report == b.report);
    assert!(
        reports_identical,
        "the warm chain diverged between the pruned and exhaustive engines"
    );

    let target = chain[0]
        .report
        .recommended_cost
        .expect("the cold run found a feasible recommendation");

    // Re-derive each run's free prior rows from the previous runs'
    // explorations (exactly what the knowledge layer replays).
    let mut prior_rows: Vec<(f64, f64)> = Vec::new();
    let mut cell_values = Vec::new();
    let mut costs = Vec::new();
    let mut fractions = Vec::new();
    for (run, cell) in chain.iter().enumerate() {
        let cost = cost_to_target(&prior_rows, &cell.report, target)
            .expect("every run's evidence eventually reaches the cold target");
        let (candidates, cut) = first_decision_pruning(&cell.receipts);
        let fraction = if candidates == 0 {
            0.0
        } else {
            cut as f64 / candidates as f64
        };
        println!(
            "run {run}: {} prior rows, {} explorations, cost-to-target {cost:.2}, \
             first-decision pruning {cut}/{candidates} ({:.1}%)",
            cell.prior_observations,
            cell.report.num_explorations(),
            fraction * 100.0
        );
        cell_values.push(object([
            ("run", Value::from_usize(run)),
            (
                "prior_observations",
                Value::from_usize(cell.prior_observations),
            ),
            (
                "explorations",
                Value::from_usize(cell.report.num_explorations()),
            ),
            ("budget_spent", Value::from_f64(cell.report.budget_spent)),
            ("cost_to_target", Value::from_f64(cost)),
            ("first_decision_candidates", Value::from_u64(candidates)),
            ("first_decision_cut", Value::from_u64(cut)),
            ("first_decision_prune_fraction", Value::from_f64(fraction)),
        ]));
        costs.push(cost);
        fractions.push(fraction);
        prior_rows.extend(
            cell.report
                .explorations
                .iter()
                .map(|e| (e.observation.runtime_seconds, e.observation.cost)),
        );
    }

    let cold_cost = costs[0];
    let final_cost = *costs.last().expect("the chain is non-empty");
    let cold_fraction = fractions[0];
    let warm_fraction = fractions[1..]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "cost-to-target {cold_cost:.2} -> {final_cost:.2}; first-decision pruning \
         {:.1}% cold -> {:.1}% warm; chain {chain_seconds:.2}s",
        cold_fraction * 100.0,
        warm_fraction * 100.0
    );

    let artifact = object([
        ("benchmark", Value::Str("recurring".to_owned())),
        ("job", Value::Str(dataset.name().to_owned())),
        ("cpus", Value::from_usize(cpus)),
        ("runs_chained", Value::from_u64(RUNS_CHAINED)),
        ("lookahead", Value::from_usize(LOOKAHEAD)),
        ("target_cost", Value::from_f64(target)),
        ("cells", Value::Arr(cell_values)),
        ("cold_cost_to_target", Value::from_f64(cold_cost)),
        ("final_cost_to_target", Value::from_f64(final_cost)),
        (
            "cold_first_decision_prune_fraction",
            Value::from_f64(cold_fraction),
        ),
        (
            "warm_first_decision_prune_fraction",
            Value::from_f64(warm_fraction),
        ),
        ("chain_seconds", Value::from_f64(chain_seconds)),
        ("chain_reports_identical", Value::Bool(reports_identical)),
    ]);
    write_artifact("BENCH_recurring.json", &artifact);
}
