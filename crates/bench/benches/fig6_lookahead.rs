//! Lookahead benchmark: how far the branch-and-bound speculation engine
//! opens the lookahead window.
//!
//! The engine's branch count grows as `|Γ|·k^LA`, which is why the paper's
//! evaluation stops at `LA = 2`. This bench sweeps `LA ∈ {2, 3, 4}` on two
//! spaces — a paper dataset (Scout wordcount, the cold-start regime) and a
//! 128-point synthetic space entered with a warm bootstrap (the
//! deep-planning regime the ROADMAP's "deeper lookahead / larger spaces"
//! item asks for) — timing the production [`PathEngine::BoundAndPrune`]
//! engine against the exhaustive [`PathEngine::Batched`] baseline and
//! recording the pruned-candidate fractions. The sweep runs with
//! `parallel_paths` off, so its pruning counts are exact: on a pool, which
//! candidates get pruned depends on the thread schedule. Reports are asserted
//! bit-identical wherever the exhaustive baseline is run; on the largest
//! sweep cell the exhaustive engine is intractable by construction, so the
//! cell publishes `"identical": null` and the pruned fraction is the
//! recorded evidence.
//!
//! Results go to `BENCH_lookahead.json` in the artifact directory (see
//! `lynceus_bench::artifact_dir`), alongside the CPU count so multicore
//! re-measurement is a re-run away. The Figure 6 CNO CDFs are
//! `repro fig6`.

use lynceus_bench::{object, write_artifact};
use lynceus_core::{
    CostOracle, LynceusOptimizer, OptimizationReport, Optimizer, OptimizerSettings, PathEngine,
    Pool, PruneStats, TableOracle,
};
use lynceus_datasets::scout;
use lynceus_experiments::ExperimentConfig;
use lynceus_serve::json::Value;
use lynceus_space::SpaceBuilder;
use std::time::Instant;

/// One measured sweep cell.
struct Cell {
    space: &'static str,
    lookahead: usize,
    seed: u64,
    decisions: u64,
    pruned_ns_per_decision: f64,
    exhaustive_ns_per_decision: Option<f64>,
    speedup: Option<f64>,
    stats: PruneStats,
    /// `Some(true)` once the exhaustive report matched; `None` when the
    /// exhaustive run was skipped and nothing was compared.
    identical: Option<bool>,
}

/// The warm synthetic space: 16×8 grid with a wide cost spread (~5–600),
/// entered after a 50-point LHS bootstrap so the surrogate is already sharp
/// — the "plan deeply on a well-explored space" scenario.
fn wide_synthetic() -> TableOracle {
    let space = SpaceBuilder::new()
        .numeric("x", (0..16).map(f64::from))
        .numeric("y", (0..8).map(f64::from))
        .build();
    TableOracle::from_fn(space, 1.0, |f| {
        5.0 + f[0].powi(2) * 2.0 + (f[1] - 3.0).powi(2) * 12.0 + f[0] * f[1]
    })
}

fn wide_settings(lookahead: usize) -> OptimizerSettings {
    OptimizerSettings {
        budget: 14_000.0,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(50),
        lookahead,
        // The paper-default rule size: deep subtrees dominate (`k^LA`), the
        // regime pruning exists for.
        gauss_hermite_nodes: 4,
        ..OptimizerSettings::default()
    }
}

/// Times a run (best of two samples — container timing noise regularly
/// exceeds ±15%, and a single polluted sample would land in the committed
/// artifact as a phantom regression) and returns nanoseconds per decision
/// plus the report. The two samples double as a free determinism check.
fn timed_run(
    oracle: &dyn CostOracle,
    settings: &OptimizerSettings,
    engine: PathEngine,
    seed: u64,
) -> (f64, OptimizationReport, PruneStats, u64) {
    let mut best: Option<(f64, OptimizationReport, PruneStats)> = None;
    for _ in 0..2 {
        let optimizer = LynceusOptimizer::new(settings.clone()).with_engine(engine);
        let start = Instant::now();
        let report = optimizer.optimize(oracle, seed);
        let elapsed = start.elapsed().as_nanos() as f64;
        let stats = optimizer.prune_stats();
        if let Some((best_ns, best_report, _)) = &best {
            assert_eq!(
                report, *best_report,
                "a repeated run produced a different report"
            );
            if elapsed >= *best_ns {
                continue;
            }
        }
        best = Some((elapsed, report, stats));
    }
    let (elapsed, report, stats) = best.expect("at least one sample");
    let decisions = (report.explorations.iter().filter(|e| !e.bootstrap).count() + 1) as u64;
    (elapsed / decisions as f64, report, stats, decisions)
}

/// The sweep's settings: `parallel_paths` off, for reproducible counts.
fn sequential(settings: OptimizerSettings) -> OptimizerSettings {
    OptimizerSettings {
        parallel_paths: false,
        ..settings
    }
}

fn sweep_cell(
    space: &'static str,
    oracle: &dyn CostOracle,
    settings: &OptimizerSettings,
    seed: u64,
    run_exhaustive: bool,
) -> Cell {
    let (pruned_ns, pruned_report, stats, decisions) =
        timed_run(oracle, settings, PathEngine::BoundAndPrune, seed);
    let (exhaustive_ns, identical) = if run_exhaustive {
        let (ns, exhaustive_report, _, _) = timed_run(oracle, settings, PathEngine::Batched, seed);
        assert_eq!(
            pruned_report, exhaustive_report,
            "bound-and-prune diverged from exhaustive expansion on {space} at \
             LA={}, seed {seed}",
            settings.lookahead
        );
        (Some(ns), Some(true))
    } else {
        (None, None)
    };
    Cell {
        space,
        lookahead: settings.lookahead,
        seed,
        decisions,
        pruned_ns_per_decision: pruned_ns,
        exhaustive_ns_per_decision: exhaustive_ns,
        speedup: exhaustive_ns.map(|ns| ns / pruned_ns),
        stats,
        identical,
    }
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut cells: Vec<Cell> = Vec::new();

    // Paper dataset, cold start (the regime the paper evaluates).
    let dataset = scout::dataset(&scout::job_profiles()[0], 7);
    let config = ExperimentConfig {
        gauss_hermite_nodes: 2,
        budget_multiplier: 5.0,
        ..ExperimentConfig::default()
    };
    for lookahead in [2usize, 3, 4] {
        let settings = sequential(config.settings_for(&dataset, lookahead));
        cells.push(sweep_cell("scout/wordcount", &dataset, &settings, 1, true));
    }

    // Warm synthetic space: deep planning with the paper-default 4-node
    // rule. Exhaustive LA=4 expands 340 states per candidate per decision
    // here — the intractable regime; the pruned fraction is the evidence.
    let wide = wide_synthetic();
    for lookahead in [2usize, 3, 4] {
        let settings = sequential(wide_settings(lookahead));
        let run_exhaustive = lookahead < 4;
        cells.push(sweep_cell(
            "synthetic/wide128-warm",
            &wide,
            &settings,
            1,
            run_exhaustive,
        ));
    }

    // Multicore cells: the LA=2 sweep points re-run with parallel paths
    // through an explicit 4-lane pool. With ≥ 4 CPUs these are real
    // parallel numbers; on smaller machines they are recorded anyway and
    // flagged `oversubscribed` so a multicore runner only has to re-run the
    // bench. The reports are asserted identical to the sequential sweep —
    // the pool changes wall-clock only, never decisions.
    const MULTICORE_THREADS: usize = 4;
    struct MulticoreCell {
        space: &'static str,
        lookahead: usize,
        seed: u64,
        pool_ns_per_decision: f64,
        identical: bool,
    }
    let mut multicore_cells = Vec::new();
    {
        let pool_run = |space: &'static str,
                        oracle: &dyn CostOracle,
                        settings: &OptimizerSettings,
                        seed: u64,
                        baseline: &OptimizationReport| {
            let mut settings = settings.clone();
            settings.parallel_paths = true;
            let optimizer = LynceusOptimizer::new(settings)
                .with_engine(PathEngine::BoundAndPrune)
                .with_pool(std::sync::Arc::new(Pool::new(MULTICORE_THREADS)));
            let mut best = f64::INFINITY;
            let mut identical = true;
            for _ in 0..2 {
                let start = Instant::now();
                let report = optimizer.optimize(oracle, seed);
                let elapsed = start.elapsed().as_nanos() as f64;
                let decisions =
                    (report.explorations.iter().filter(|e| !e.bootstrap).count() + 1) as f64;
                best = best.min(elapsed / decisions);
                identical &= report == *baseline;
            }
            assert!(identical, "pooled run diverged on {space} seed {seed}");
            MulticoreCell {
                space,
                lookahead: 2,
                seed,
                pool_ns_per_decision: best,
                identical,
            }
        };
        let la2_settings = sequential(config.settings_for(&dataset, 2));
        let (_, la2_report, _, _) =
            timed_run(&dataset, &la2_settings, PathEngine::BoundAndPrune, 1);
        multicore_cells.push(pool_run(
            "scout/wordcount",
            &dataset,
            &la2_settings,
            1,
            &la2_report,
        ));
        let wide_la2 = sequential(wide_settings(2));
        let (_, wide_report, _, _) = timed_run(&wide, &wide_la2, PathEngine::BoundAndPrune, 1);
        multicore_cells.push(pool_run(
            "synthetic/wide128-warm",
            &wide,
            &wide_la2,
            1,
            &wide_report,
        ));
    }

    for cell in &cells {
        let speedup = cell
            .speedup
            .map_or("    (exhaustive not run)".to_owned(), |s| {
                format!("{s:>6.2}x vs exhaustive")
            });
        println!(
            "{:<24} LA={} seed={} {:>12.0} ns/decision {speedup}  pruned {:>3.0}% of {} candidates over {} decisions",
            cell.space,
            cell.lookahead,
            cell.seed,
            cell.pruned_ns_per_decision,
            cell.stats.pruned_fraction() * 100.0,
            cell.stats.candidates,
            cell.decisions,
        );
    }
    let oversubscribed = MULTICORE_THREADS > cpus;
    for cell in &multicore_cells {
        println!(
            "{:<24} LA={} seed={} {:>12.0} ns/decision  ({MULTICORE_THREADS} threads, {cpus} cpu(s){})",
            cell.space,
            cell.lookahead,
            cell.seed,
            cell.pool_ns_per_decision,
            if oversubscribed { ", oversubscribed" } else { "" },
        );
    }

    // Pruning cells: `bench_check` validates that `pruned ≤ candidates`
    // and that `pruned_fraction` lies in [0, 1].
    let sweep = cells.iter().map(|cell| {
        object([
            ("space", Value::Str(cell.space.to_owned())),
            ("lookahead", Value::from_usize(cell.lookahead)),
            ("seed", Value::from_u64(cell.seed)),
            ("decisions", Value::from_u64(cell.decisions)),
            (
                "pruned_ns_per_decision",
                Value::from_f64(cell.pruned_ns_per_decision),
            ),
            (
                "exhaustive_ns_per_decision",
                cell.exhaustive_ns_per_decision
                    .map_or(Value::Null, Value::from_f64),
            ),
            ("speedup", cell.speedup.map_or(Value::Null, Value::from_f64)),
            ("candidates", Value::from_u64(cell.stats.candidates)),
            ("pruned", Value::from_u64(cell.stats.pruned)),
            (
                "pruned_fraction",
                Value::from_f64(cell.stats.pruned_fraction()),
            ),
            ("identical", cell.identical.map_or(Value::Null, Value::Bool)),
        ])
    });
    // Timing-only multicore cells: the pruning counters belong to the
    // sequential sweep above.
    let multicore = multicore_cells.iter().map(|cell| {
        object([
            ("space", Value::Str(cell.space.to_owned())),
            ("lookahead", Value::from_usize(cell.lookahead)),
            ("seed", Value::from_u64(cell.seed)),
            (
                "pool_ns_per_decision",
                Value::from_f64(cell.pool_ns_per_decision),
            ),
            ("identical", Value::Bool(cell.identical)),
        ])
    });
    let artifact = object([
        ("benchmark", Value::Str("fig6_lookahead".to_owned())),
        ("cpus", Value::from_usize(cpus)),
        ("cells", Value::Arr(sweep.collect())),
        ("multicore_threads", Value::from_usize(MULTICORE_THREADS)),
        ("oversubscribed", Value::Bool(oversubscribed)),
        ("multicore_cells", Value::Arr(multicore.collect())),
    ]);
    write_artifact("BENCH_lookahead.json", &artifact);
}
