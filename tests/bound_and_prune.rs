//! Pruning-soundness suite: the branch-and-bound speculation engine must
//! recommend the **identical** exploration sequence, charges and report as
//! the exhaustive batched engine and the naive reference engine, for any
//! seed, at every lookahead depth — including the `LA = 3` depths the
//! pruning exists to open up.
//!
//! The spaces are small random cost surfaces (so the naive engine's
//! refit-per-branch recursion stays affordable at `LA = 3`) drawn from a
//! seeded generator: each case gets its own cost landscape, budget and
//! price structure, which is what exercises the bound across regimes —
//! flat and spiky EIc landscapes, wide and narrow cost spreads, decisions
//! before and after the first feasible observation.

use lynceus::core::switching::FnSwitching;
use lynceus::core::{
    CostOracle, LynceusOptimizer, Optimizer, OptimizerSettings, PathEngine, TableOracle,
};
use lynceus::math::rng::SeededRng;
use lynceus::space::{ConfigId, SpaceBuilder};

/// A small random cost surface: 2 dimensions, up to ~18 configurations,
/// quadratic valley plus seeded noise, cost scale drawn per case.
fn random_oracle(rng: &mut SeededRng) -> TableOracle {
    let nx = 3 + (rng.uniform(0.0, 3.0) as usize); // 3..=5
    let ny = 2 + (rng.uniform(0.0, 2.0) as usize); // 2..=3
    let cx = rng.uniform(0.0, nx as f64);
    let cy = rng.uniform(0.0, ny as f64);
    let base = rng.uniform(5.0, 40.0);
    let sx = rng.uniform(1.0, 8.0);
    let sy = rng.uniform(1.0, 12.0);
    let noise_seed = rng.uniform(0.0, 1e6) as u64;
    let space = SpaceBuilder::new()
        .numeric("x", (0..nx).map(|v| v as f64))
        .numeric("y", (0..ny).map(|v| v as f64))
        .build();
    TableOracle::from_fn(space, 1.0, move |f| {
        let mut noise = SeededRng::new(noise_seed ^ ((f[0] as u64) << 8) ^ f[1] as u64);
        base + (f[0] - cx).powi(2) * sx + (f[1] - cy).powi(2) * sy + noise.uniform(0.0, 3.0)
    })
}

fn settings(rng: &mut SeededRng, lookahead: usize) -> OptimizerSettings {
    OptimizerSettings {
        budget: rng.uniform(250.0, 900.0),
        // Roughly half the cases get a binding runtime constraint, so both
        // incumbent regimes (feasible found early / late) are exercised.
        tmax_seconds: if rng.uniform(0.0, 1.0) < 0.5 {
            rng.uniform(30.0, 120.0)
        } else {
            1e6
        },
        bootstrap_samples: Some(4),
        lookahead,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    }
}

/// Runs all three engines on one case and asserts full-report equality.
fn assert_all_engines_agree(
    oracle: &TableOracle,
    settings: &OptimizerSettings,
    seed: u64,
    with_switching: bool,
    case: &str,
) {
    let make = |engine: PathEngine| {
        let mut optimizer = LynceusOptimizer::new(settings.clone()).with_engine(engine);
        if with_switching {
            optimizer = optimizer.with_switching_cost(Box::new(FnSwitching(
                |from: Option<ConfigId>, to: ConfigId| match from {
                    Some(f) if f != to => 2.0 + (f.index().abs_diff(to.index())) as f64 * 0.5,
                    _ => 0.0,
                },
            )));
        }
        optimizer.optimize(oracle, seed)
    };
    let pruned = make(PathEngine::BoundAndPrune);
    let batched = make(PathEngine::Batched);
    assert_eq!(
        pruned, batched,
        "bound-and-prune diverged from the exhaustive engine ({case})"
    );
    let naive = make(PathEngine::NaiveReference);
    assert_eq!(
        batched, naive,
        "batched engine diverged from the naive reference ({case})"
    );
}

#[test]
fn engines_are_bit_identical_on_random_spaces_up_to_lookahead_three() {
    let mut rng = SeededRng::new(0xB0B5);
    for lookahead in [1usize, 2, 3] {
        // LA=3 triples the naive engine's recursion depth; fewer cases keep
        // the suite affordable while still sweeping distinct landscapes.
        let cases = if lookahead == 3 { 3 } else { 5 };
        for case in 0..cases {
            let oracle = random_oracle(&mut rng);
            let settings = settings(&mut rng, lookahead);
            let seed = 1 + case as u64 * 7;
            assert_all_engines_agree(
                &oracle,
                &settings,
                seed,
                false,
                &format!("LA={lookahead}, case {case}, seed {seed}"),
            );
        }
    }
}

#[test]
fn engines_are_bit_identical_under_switching_costs_at_lookahead_three() {
    let mut rng = SeededRng::new(0x5EED);
    for case in 0..3 {
        let oracle = random_oracle(&mut rng);
        let settings = settings(&mut rng, 3);
        assert_all_engines_agree(
            &oracle,
            &settings,
            11 + case,
            true,
            &format!("switching, case {case}"),
        );
    }
}

/// Non-finite switching costs must be survivable at every speculation
/// site: `FnSwitching` deliberately passes `+inf` through for the real
/// profiling driver to reject as a recoverable error, so the speculation
/// engines — which simulate the same charges against *speculated* budgets —
/// must saturate it rather than subtract it (a `-inf` remaining budget
/// NaN-contaminates every speculated score; the naive engine's
/// materialized state even panicked). All three engines must agree
/// bit-identically under such a model at the depths the pruning engine
/// opens.
#[test]
fn engines_agree_under_infinite_switching_costs_at_lookahead_two_and_three() {
    let mut rng = SeededRng::new(0x1F1F);
    for lookahead in [2usize, 3] {
        for case in 0..2u64 {
            let oracle = random_oracle(&mut rng);
            let settings = settings(&mut rng, lookahead);
            // Switching onto the most expensive configuration costs `+inf`:
            // the budget filter's `β − switch` arithmetic must exclude it
            // from Γ at *every* speculated state (a real profiling of it
            // would be rejected by the driver), while every other
            // configuration keeps the speculation trees alive. The seeds
            // are chosen so the unfiltered LHS bootstrap never lands on the
            // trap (deterministic per seed; `optimize` would panic loudly
            // otherwise).
            let trap = oracle
                .candidates()
                .into_iter()
                .max_by(|&a, &b| oracle.run(a).cost.total_cmp(&oracle.run(b).cost))
                .expect("non-empty space");
            let seed = 3 + case * 5;
            let make = |engine: PathEngine| {
                LynceusOptimizer::new(settings.clone())
                    .with_engine(engine)
                    .with_switching_cost(Box::new(FnSwitching(
                        move |from: Option<ConfigId>, to: ConfigId| match from {
                            Some(_) if to == trap => f64::INFINITY,
                            Some(f) if f != to => 1.5,
                            _ => 0.0,
                        },
                    )))
                    .optimize(&oracle, seed)
            };
            let pruned = make(PathEngine::BoundAndPrune);
            let batched = make(PathEngine::Batched);
            assert_eq!(
                pruned, batched,
                "bound-and-prune diverged under inf switching at LA={lookahead}, case {case}"
            );
            assert_eq!(
                batched,
                make(PathEngine::NaiveReference),
                "engines diverged under inf switching at LA={lookahead}, case {case}"
            );
            assert!(pruned.budget_spent.is_finite());
            // The infinitely-expensive-to-reach configuration was never
            // profiled after the bootstrap.
            assert!(pruned
                .explorations
                .iter()
                .all(|e| e.bootstrap || e.id != trap));
        }
    }
}

#[test]
fn pruning_reports_skipped_candidates_and_matches_exhaustive_counts() {
    // A wider valley with enough budget that the decision loop runs long
    // past the first feasible observation — the regime where pruning fires.
    let space = SpaceBuilder::new()
        .numeric("x", (0..10).map(f64::from))
        .numeric("y", (0..4).map(f64::from))
        .build();
    let oracle = TableOracle::from_fn(space, 1.0, |f| {
        20.0 + (f[0] - 6.0).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
    });
    let settings = OptimizerSettings {
        budget: 1_800.0,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(5),
        lookahead: 3,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    };
    let bnb = LynceusOptimizer::new(settings.clone());
    let report = bnb.optimize(&oracle, 3);
    let stats = bnb.prune_stats();
    assert!(stats.decisions > 0);
    assert!(
        stats.pruned > 0,
        "no candidate was pruned over {} candidates at LA=3",
        stats.candidates
    );
    assert!(stats.pruned <= stats.candidates);
    assert!(stats.pruned_fraction() <= 1.0);
    // A candidate that starts its deep recursion finishes it.
    assert_eq!(stats.deep_pruned(), 0);
    // And the pruned run is still bit-identical to exhaustive expansion.
    let exhaustive = LynceusOptimizer::new(settings)
        .with_engine(PathEngine::Batched)
        .optimize(&oracle, 3);
    assert_eq!(report, exhaustive);
}

/// A broader random surface than [`random_oracle`] (up to ~6×4
/// configurations, per-case noise amplitude): the generator of the wide
/// pruned-vs-exhaustive sweep below, which runs pruned-vs-batched only so
/// it can afford many more landscapes than the three-engine matrix above.
fn broad_random_oracle(rng: &mut SeededRng) -> TableOracle {
    let nx = 3 + (rng.uniform(0.0, 4.0) as usize);
    let ny = 2 + (rng.uniform(0.0, 3.0) as usize);
    let cx = rng.uniform(0.0, nx as f64);
    let cy = rng.uniform(0.0, ny as f64);
    let base = rng.uniform(5.0, 60.0);
    let sx = rng.uniform(0.5, 10.0);
    let sy = rng.uniform(0.5, 14.0);
    let noise_seed = rng.uniform(0.0, 1e6) as u64;
    let noise_amp = rng.uniform(0.0, 8.0);
    let space = SpaceBuilder::new()
        .numeric("x", (0..nx).map(|v| v as f64))
        .numeric("y", (0..ny).map(|v| v as f64))
        .build();
    TableOracle::from_fn(space, 1.0, move |f| {
        let mut noise = SeededRng::new(noise_seed ^ ((f[0] as u64) << 8) ^ f[1] as u64);
        base + (f[0] - cx).powi(2) * sx + (f[1] - cy).powi(2) * sy + noise.uniform(0.0, noise_amp)
    })
}

/// The wide randomized sweep: 60 random landscapes at LA ∈ {2, 3}, half
/// with switching costs and tight budgets where speculated paths die early,
/// pruned-vs-batched at the fixed drift allowance κ = 1.5. A tighter
/// κ = 1.0 diverged on one of these landscapes (case 45: LA = 3, switching
/// costs, a binding `tmax`), which is why the allowance carries a margin.
#[test]
fn pruned_matches_exhaustive_on_the_wide_random_matrix() {
    let mut rng = SeededRng::new(0xDEAD_BEEF);
    let mut divergences = Vec::new();
    for case in 0..60u64 {
        let lookahead = 2 + (case % 2) as usize; // LA in {2,3}
        let oracle = broad_random_oracle(&mut rng);
        // Deliberately include tight budgets where speculated paths die early.
        let budget = rng.uniform(120.0, 1_500.0);
        let tmax = if rng.uniform(0.0, 1.0) < 0.5 {
            rng.uniform(20.0, 150.0)
        } else {
            1e6
        };
        let settings = OptimizerSettings {
            budget,
            tmax_seconds: tmax,
            bootstrap_samples: Some(4),
            lookahead,
            gauss_hermite_nodes: 2,
            ..OptimizerSettings::default()
        };
        let with_switching = case % 3 == 0;
        let seed = 1 + case * 13;
        let make = |engine: PathEngine| {
            let mut optimizer = LynceusOptimizer::new(settings.clone()).with_engine(engine);
            if with_switching {
                optimizer = optimizer.with_switching_cost(Box::new(FnSwitching(
                    |from: Option<ConfigId>, to: ConfigId| match from {
                        Some(f) if f != to => 1.0 + (f.index().abs_diff(to.index())) as f64 * 0.7,
                        _ => 0.0,
                    },
                )));
            }
            optimizer.optimize(&oracle, seed)
        };
        let batched = make(PathEngine::Batched);
        if make(PathEngine::BoundAndPrune) != batched {
            divergences.push(format!(
                "case {case}: LA={lookahead} budget={budget:.0} tmax={tmax:.0} \
                 switching={with_switching} seed={seed}"
            ));
        }
    }
    assert!(
        divergences.is_empty(),
        "divergences:\n{}",
        divergences.join("\n")
    );
}

#[test]
fn thread_counts_do_not_change_pruned_decisions() {
    // The shared-incumbent pruning must be schedule-independent: the pool
    // replays its prune tests in dispatch order, so neither the selected
    // configurations nor which candidates get pruned may depend on the
    // thread count. `LYNCEUS_TEST_THREADS` is how the CI thread matrix
    // reaches this test; parallel_paths toggles the pool entirely.
    let space = SpaceBuilder::new()
        .numeric("x", (0..8).map(f64::from))
        .numeric("y", (0..3).map(f64::from))
        .build();
    let oracle = TableOracle::from_fn(space, 1.0, |f| {
        15.0 + (f[0] - 5.0).powi(2) * 5.0 + (f[1] - 1.0).powi(2) * 9.0
    });
    let mut settings = OptimizerSettings {
        budget: 1_200.0,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(5),
        lookahead: 3,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    };
    settings.parallel_paths = false;
    let sequential_optimizer = LynceusOptimizer::new(settings.clone());
    let sequential = sequential_optimizer.optimize(&oracle, 9);
    settings.parallel_paths = true;
    let parallel_optimizer = LynceusOptimizer::new(settings.clone());
    let parallel = parallel_optimizer.optimize(&oracle, 9);
    assert_eq!(sequential, parallel);
    assert_eq!(
        sequential_optimizer.prune_stats(),
        parallel_optimizer.prune_stats()
    );
    let exhaustive = LynceusOptimizer::new(settings)
        .with_engine(PathEngine::Batched)
        .optimize(&oracle, 9);
    assert_eq!(parallel, exhaustive);
}
