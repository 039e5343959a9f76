//! Micro-benchmarks of the optimizer's hot components: surrogate refits,
//! per-candidate predictions, the constrained-EI acquisition — and, most
//! importantly, a full lookahead-2 decision under the batched speculation
//! engine versus the retained naive refit-per-branch reference.
//!
//! These are the operations whose cost multiplies inside the lookahead
//! recursion (Table 3's decision times are built out of them). The harness is
//! self-contained (`harness = false`; no registry access for criterion) and
//! writes its measurements to `BENCH_baseline.json` in the artifact
//! directory (see `lynceus_bench::artifact_dir`) so every change has a perf
//! trajectory.

use lynceus_bench::{object, write_artifact};
use lynceus_core::acquisition::constrained_ei;
use lynceus_core::{LynceusOptimizer, Optimizer, PathEngine, Pool};
use lynceus_datasets::scout;
use lynceus_experiments::ExperimentConfig;
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Prediction, Surrogate, TrainingSet};
use lynceus_math::quadrature::{gauss_hermite, GaussHermiteRule};
use lynceus_math::rng::SeededRng;
use lynceus_serve::json::Value;
use std::hint::black_box;
use std::time::Instant;

/// One measured component.
struct Measurement {
    name: &'static str,
    iterations: usize,
    nanos_per_iteration: f64,
}

/// Times `f` over enough iterations to fill ~`budget_ms`, after one warm-up
/// call.
fn bench<F: FnMut()>(name: &'static str, budget_ms: u64, mut f: F) -> Measurement {
    f(); // warm-up
    let probe_start = Instant::now();
    f();
    let probe = probe_start.elapsed().as_nanos().max(1);
    let budget = u128::from(budget_ms) * 1_000_000;
    let iterations = (budget / probe).clamp(1, 1_000_000) as usize;
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    let nanos_per_iteration = start.elapsed().as_nanos() as f64 / iterations as f64;
    Measurement {
        name,
        iterations,
        nanos_per_iteration,
    }
}

fn training_set(n: usize, dims: usize) -> TrainingSet {
    let mut rng = SeededRng::new(42);
    let mut data = TrainingSet::new(dims);
    for _ in 0..n {
        let features: Vec<f64> = (0..dims).map(|_| rng.uniform(0.0, 100.0)).collect();
        let target = features.iter().sum::<f64>() + rng.gaussian(0.0, 5.0);
        data.push(features, target);
    }
    data
}

fn feature_matrix(rows: usize, dims: usize) -> FeatureMatrix {
    let mut rng = SeededRng::new(7);
    FeatureMatrix::from_rows(
        dims,
        (0..rows).map(|_| {
            (0..dims)
                .map(|_| rng.uniform(0.0, 100.0))
                .collect::<Vec<_>>()
        }),
    )
}

/// Times one full lookahead-2 optimization on a Scout job and returns
/// `(nanos per decision, report, prune stats)`. A "decision" is one
/// `NextConfig` call: every non-bootstrap exploration plus the final call
/// that returns `None`. The prune stats are all zero for the engines that
/// never prune.
fn lookahead2_run(
    engine: PathEngine,
    parallel: bool,
    threads: Option<usize>,
) -> (
    f64,
    lynceus_core::OptimizationReport,
    lynceus_core::PruneStats,
) {
    let dataset = scout::dataset(&scout::job_profiles()[0], 7);
    // The paper's high-budget setting (b = 5): enough explorations that the
    // surrogate's training set reaches a realistic size, where the
    // refit-per-branch asymptotics actually bite.
    let config = ExperimentConfig {
        gauss_hermite_nodes: 2,
        budget_multiplier: 5.0,
        ..ExperimentConfig::default()
    };
    let mut settings = config.settings_for(&dataset, 2);
    settings.parallel_paths = parallel;
    let mut optimizer = LynceusOptimizer::new(settings).with_engine(engine);
    if let Some(lanes) = threads {
        optimizer = optimizer.with_pool(std::sync::Arc::new(Pool::new(lanes)));
    }
    // Best of three runs: a single optimization is long enough to be hit by
    // scheduler noise on small containers.
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..3 {
        optimizer.reset_prune_stats();
        let start = Instant::now();
        let run = optimizer.optimize(&dataset, 1);
        let elapsed = start.elapsed().as_nanos() as f64;
        let decisions = run.explorations.iter().filter(|e| !e.bootstrap).count() + 1;
        best = best.min(elapsed / decisions as f64);
        report = Some(run);
    }
    (
        best,
        report.expect("at least one run"),
        optimizer.prune_stats(),
    )
}

fn main() {
    let mut measurements = Vec::new();

    let data = training_set(40, 5);
    measurements.push(bench("bagging_fit_40x5", 200, || {
        let mut model = BaggingEnsemble::with_seed(10, 7);
        model.fit(black_box(&data));
        black_box(&model);
    }));

    measurements.push(bench("bagging_fit_reference_40x5", 200, || {
        let mut model = BaggingEnsemble::with_seed(10, 7);
        model.fit_reference(black_box(&data));
        black_box(&model);
    }));

    let mut fitted = BaggingEnsemble::with_seed(10, 7);
    fitted.fit(&data);
    measurements.push(bench("bagging_refit_with_1", 200, || {
        black_box(fitted.refit_with(black_box(&[(&[10.0, 20.0, 30.0, 40.0, 50.0][..], 150.0)])));
    }));

    measurements.push(bench("bagging_predict", 100, || {
        black_box(fitted.predict(black_box(&[10.0, 20.0, 30.0, 40.0, 50.0])));
    }));

    let matrix = feature_matrix(256, 5);
    let rows: Vec<usize> = (0..matrix.rows()).collect();
    let mut batch_out = Vec::new();
    measurements.push(bench("bagging_predict_rows_256x5", 200, || {
        fitted.predict_rows(black_box(&matrix), black_box(&rows), &mut batch_out);
        black_box(&batch_out);
    }));

    // The pre-flattening pointer walk, retained as the comparison baseline
    // for the struct-of-arrays block traversal. Both passes must agree
    // bit-for-bit — checked below before the numbers are persisted.
    let mut pointer_out = Vec::new();
    measurements.push(bench("bagging_predict_rows_pointer_256x5", 200, || {
        fitted.predict_rows_pointer(black_box(&matrix), black_box(&rows), &mut pointer_out);
        black_box(&pointer_out);
    }));
    fitted.predict_rows(&matrix, &rows, &mut batch_out);
    fitted.predict_rows_pointer(&matrix, &rows, &mut pointer_out);
    let flat_identical = batch_out.len() == pointer_out.len()
        && batch_out.iter().zip(&pointer_out).all(|(a, b)| {
            a.mean.to_bits() == b.mean.to_bits() && a.std.to_bits() == b.std.to_bits()
        });
    assert!(
        flat_identical,
        "flat block traversal must be bit-identical to the pointer walk"
    );

    let mut memo = lynceus_learners::RowValueMemo::new();
    fitted.predict_rows_memo(&matrix, &rows, &mut batch_out, &mut memo);
    measurements.push(bench("bagging_predict_rows_memo_256x5", 200, || {
        fitted.predict_rows_memo(
            black_box(&matrix),
            black_box(&rows),
            &mut batch_out,
            &mut memo,
        );
        black_box(&batch_out);
    }));

    measurements.push(bench("bagging_predict_reference_256x5", 200, || {
        for i in 0..matrix.rows() {
            black_box(fitted.predict_reference(black_box(matrix.row(i))));
        }
    }));

    measurements.push(bench("constrained_ei", 50, || {
        black_box(constrained_ei(
            black_box(100.0),
            Prediction {
                mean: black_box(80.0),
                std: black_box(12.0),
            },
            black_box(150.0),
        ));
    }));

    measurements.push(bench("gauss_hermite_8", 50, || {
        black_box(gauss_hermite(black_box(8)));
    }));

    let rule = GaussHermiteRule::new(4);
    let mut nodes = Vec::new();
    measurements.push(bench("gauss_hermite_rule_discretize_4", 50, || {
        rule.discretize_clamped_into(black_box(80.0), black_box(12.0), 1e-9, &mut nodes);
        black_box(&nodes);
    }));

    for m in &measurements {
        println!(
            "{:<34} {:>12.1} ns/iter   ({} iters)",
            m.name, m.nanos_per_iteration, m.iterations
        );
    }

    // The headline comparison: a full lookahead-2 decision on a Scout job,
    // batched speculation engine vs. the naive refit-per-branch reference.
    // The batched engine's remaining lever — the pool fan-out of candidate
    // expansions — needs more than one CPU to show up in wall-clock
    // numbers; the JSON records the core count alongside the ratio so
    // baselines from different machines are comparable.
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (naive_ns, naive_report, _) = lookahead2_run(PathEngine::NaiveReference, false, None);
    let (batched_seq_ns, batched_seq_report, _) = lookahead2_run(PathEngine::Batched, false, None);
    let (batched_ns, batched_report, _) = lookahead2_run(PathEngine::Batched, true, None);
    let (pruned_ns, pruned_report, prune_stats) =
        lookahead2_run(PathEngine::BoundAndPrune, true, None);
    assert_eq!(
        naive_report, batched_report,
        "engines must make bit-identical decisions"
    );
    assert_eq!(naive_report, batched_seq_report);
    assert_eq!(
        naive_report, pruned_report,
        "the branch-and-bound engine must make bit-identical decisions"
    );
    let speedup = naive_ns / batched_ns;
    let speedup_sequential = naive_ns / batched_seq_ns;
    let speedup_pruned = naive_ns / pruned_ns;
    let pruned_fraction = prune_stats.pruned_fraction();
    println!(
        "{:<34} {:>12.1} ns/decision",
        "lookahead2_decision_naive", naive_ns
    );
    println!(
        "{:<34} {:>12.1} ns/decision   ({speedup_sequential:.2}x vs naive)",
        "lookahead2_decision_batched_seq", batched_seq_ns
    );
    println!(
        "{:<34} {:>12.1} ns/decision   ({speedup:.2}x vs naive, {cpus} cpu(s))",
        "lookahead2_decision_batched", batched_ns
    );
    println!(
        "{:<34} {:>12.1} ns/decision   ({speedup_pruned:.2}x vs naive, {:.0}% of candidates pruned)",
        "lookahead2_decision_pruned", pruned_ns, pruned_fraction * 100.0
    );
    println!(
        "recommended: {:?} (identical across engines)",
        batched_report.recommended
    );
    if cpus == 1 {
        println!(
            "note: single-CPU machine — the work-stealing pool cannot \
             contribute; the ratio above is the purely algorithmic speedup"
        );
    }

    // Multicore cells: the same lookahead-2 decision driven through an
    // explicit 4-lane pool. On a box with ≥ 4 CPUs this measures real
    // parallel speedup; on smaller machines the cell is still recorded
    // (flagged `oversubscribed`) so the JSON schema is stable across
    // machines and a multicore runner fills in honest numbers.
    const MULTICORE_THREADS: usize = 4;
    let (mc_batched_ns, mc_batched_report, _) =
        lookahead2_run(PathEngine::Batched, true, Some(MULTICORE_THREADS));
    let (mc_pruned_ns, mc_pruned_report, _) =
        lookahead2_run(PathEngine::BoundAndPrune, true, Some(MULTICORE_THREADS));
    assert_eq!(
        naive_report, mc_batched_report,
        "pool size must not change decisions"
    );
    assert_eq!(naive_report, mc_pruned_report);
    let oversubscribed = MULTICORE_THREADS > cpus;
    println!(
        "{:<34} {:>12.1} ns/decision   ({} threads, {cpus} cpu(s){})",
        "lookahead2_batched_pool4",
        mc_batched_ns,
        MULTICORE_THREADS,
        if oversubscribed {
            ", oversubscribed"
        } else {
            ""
        }
    );
    println!(
        "{:<34} {:>12.1} ns/decision   ({} threads, {cpus} cpu(s){})",
        "lookahead2_pruned_pool4",
        mc_pruned_ns,
        MULTICORE_THREADS,
        if oversubscribed {
            ", oversubscribed"
        } else {
            ""
        }
    );

    let component = |name: &str| {
        measurements
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.nanos_per_iteration)
    };
    let refit_speedup = component("bagging_fit_reference_40x5") / component("bagging_refit_with_1");
    let predict_speedup =
        component("bagging_predict_reference_256x5") / component("bagging_predict_rows_memo_256x5");
    let pointer_ns = component("bagging_predict_rows_pointer_256x5");
    let flat_ns = component("bagging_predict_rows_256x5");
    let flat_speedup = pointer_ns / flat_ns;
    let artifact = object([
        ("benchmark", Value::Str("micro_components".to_owned())),
        (
            "components",
            object(measurements.iter().map(|m| {
                (
                    m.name,
                    object([
                        ("ns_per_iter", Value::from_f64(m.nanos_per_iteration)),
                        ("iterations", Value::from_usize(m.iterations)),
                    ]),
                )
            })),
        ),
        (
            "component_speedups",
            object([
                (
                    "speculative_refit_vs_reference_fit",
                    Value::from_f64(refit_speedup),
                ),
                (
                    "memoized_batch_predict_vs_reference_predict",
                    Value::from_f64(predict_speedup),
                ),
                (
                    "flat_block_predict_vs_pointer_predict",
                    Value::from_f64(flat_speedup),
                ),
            ]),
        ),
        (
            "flat_traversal",
            object([
                ("pointer_ns", Value::from_f64(pointer_ns)),
                ("flat_ns", Value::from_f64(flat_ns)),
                ("speedup", Value::from_f64(flat_speedup)),
                ("identical", Value::Bool(flat_identical)),
            ]),
        ),
        (
            "lookahead2_decision",
            object([
                ("cpus", Value::from_usize(cpus)),
                ("naive_ns", Value::from_f64(naive_ns)),
                ("batched_sequential_ns", Value::from_f64(batched_seq_ns)),
                ("batched_ns", Value::from_f64(batched_ns)),
                ("pruned_ns", Value::from_f64(pruned_ns)),
                ("speedup_sequential", Value::from_f64(speedup_sequential)),
                ("speedup", Value::from_f64(speedup)),
                ("speedup_pruned", Value::from_f64(speedup_pruned)),
                ("pruned_fraction", Value::from_f64(pruned_fraction)),
                ("identical_recommendation", Value::Bool(true)),
            ]),
        ),
        (
            "lookahead2_multicore",
            object([
                ("cpus", Value::from_usize(cpus)),
                ("threads", Value::from_usize(MULTICORE_THREADS)),
                ("oversubscribed", Value::Bool(oversubscribed)),
                ("batched_pool_ns", Value::from_f64(mc_batched_ns)),
                ("pruned_pool_ns", Value::from_f64(mc_pruned_ns)),
                (
                    "speedup_batched_pool",
                    Value::from_f64(naive_ns / mc_batched_ns),
                ),
                (
                    "speedup_pruned_pool",
                    Value::from_f64(naive_ns / mc_pruned_ns),
                ),
                ("identical_recommendation", Value::Bool(true)),
            ]),
        ),
    ]);
    write_artifact("BENCH_baseline.json", &artifact);
}
