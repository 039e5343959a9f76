//! The Lynceus optimizer: budget-aware, long-sighted Bayesian optimization
//! (paper Section 4, Algorithms 1 and 2).
//!
//! At every iteration Lynceus:
//!
//! 1. filters the untested configurations down to `Γ`, those whose predicted
//!    cost fits the remaining budget with probability ≥ 0.99 (budget
//!    awareness);
//! 2. for every `x ∈ Γ`, simulates an *exploration path* rooted at `x`: the
//!    surrogate's predictive cost distribution at `x` is discretized with a
//!    Gauss–Hermite rule, each speculated cost branches the path into a new
//!    state (training set extended with the speculated sample, budget reduced
//!    accordingly), the next step of the path is the EIc-maximizing
//!    budget-feasible configuration under the refitted surrogate, and the
//!    recursion continues up to the lookahead depth `LA` (long-sightedness);
//! 3. profiles the first configuration of the path with the best
//!    reward-to-cost ratio, where the reward aggregates the (discounted)
//!    `EIc` of every step of the path and the cost aggregates the predicted
//!    profiling costs.
//!
//! With `LA = 0` the algorithm degenerates into the cost-aware but myopic
//! `argmax EIc(x)/E[cost(x)]` baseline the paper uses in its breakdown
//! analysis, and with `LA = 0` *and* no budget filter it would be classic BO.
//!
//! # Speculation engines
//!
//! Three implementations of the exploration-path simulation coexist; all of
//! them make **bit-identical** decisions for a fixed seed (asserted by the
//! cross-engine equivalence suites):
//!
//! * [`PathEngine::BoundAndPrune`] (the default) — the production engine: a
//!   best-first branch-and-bound over the root candidates. Before any
//!   exploration tree is expanded, every candidate gets an admissible upper
//!   bound on its reward-to-cost score (best-case continuation: each future
//!   step collects the next-largest root EIc, undamped by switching costs or
//!   branch deaths; the score's denominator is bounded below by the
//!   candidate's own first-step cost). Candidates are then expanded in bound
//!   order — through the priority dispatch of [`crate::pool`] — while the
//!   best exact score seen so far is shared across workers through one
//!   atomic cell ([`crate::acquisition::score_key`]); a candidate whose
//!   bound cannot beat the incumbent is pruned without expanding its
//!   `k^LA`-branch subtree. Because a pruned candidate's exact score is
//!   provably below the incumbent, the selected configuration is identical
//!   to exhaustive expansion — which is what opens `LA ≥ 3`. Pruning is
//!   automatically disabled for the (rare, early) decisions where the bound
//!   argument does not hold — see [`PathEngine::BoundAndPrune`].
//!
//!   Every (real or speculated) state is scored with **one** tree-major
//!   [`Surrogate::predict_rows`] pass over the untested set into reusable
//!   buffers; speculated states are a [`SpeculativeCursor`] push/pop
//!   overlay instead of full-state clones;
//!   speculative surrogates are produced with
//!   [`BaggingEnsemble::refit_with`], which extends the fitted ensemble by
//!   one sample and rebuilds only the member trees whose bootstrap resample
//!   draws it; the per-decision Gauss–Hermite rule is precomputed once; and
//!   candidate expansions fan out over the worker pool ([`crate::pool`])
//!   with a Γ-ordered reduction.
//! * [`PathEngine::Batched`] — the same expansion, every optimization
//!   above included, with pruning switched off: every candidate's full
//!   `k + k² + … + k^LA` subtree is expanded. Retained as the exhaustive
//!   baseline the pruning speedup is measured against.
//! * [`PathEngine::NaiveReference`] — the textbook transcription of
//!   Algorithm 2: every branch clones the state, refits the full ensemble
//!   from scratch and re-predicts configuration-by-configuration. It is kept
//!   as the executable specification.

use crate::acquisition::{
    budget_filter_z, constrained_ei, fits_budget, incumbent_cost, score_cmp, score_from_key,
    score_key,
};
use crate::budget::Budget;
use crate::checkpoint::SessionCheckpoint;
use crate::codec::CodecError;
use crate::constraints::ConstraintModels;
use crate::optimizer::{Driver, OptimizationReport, Optimizer, OptimizerSettings, ProfileError};
use crate::oracle::CostOracle;
use crate::pool;
use crate::receipt::DecisionReceipt;
use crate::state::{SearchState, SpeculativeCursor};
use crate::switching::{FreeSwitching, SwitchingCost};
use crate::transfer::{JobKnowledge, PriorObservation};
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Prediction, RowValueMemo, Surrogate};
use lynceus_math::quadrature::{discretize_normal_clamped, GaussHermiteRule, WeightedValue};
use lynceus_math::rng::SeededRng;
use lynceus_space::ConfigId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Smallest cost used when predictions collapse to zero, so reward/cost
/// ratios stay finite.
const MIN_STEP_COST: f64 = 1e-9;

/// Default drift allowance `κ` of the branch-and-bound deep-tail bound
/// (override per optimizer with [`LynceusOptimizer::with_drift_allowance`]):
/// how much larger than the **largest deep tail measured this decision**
/// (among the candidates already expanded) a not-yet-expanded candidate's
/// deep tail is allowed to be before the bound would under-estimate.
///
/// The deep tail of a candidate — the discounted EIc its path collects
/// below the first speculation level — is dominated by the same few
/// high-EIc configurations regardless of which root candidate was
/// speculated, so tails are tightly clustered *within* a decision; the
/// measured anchor tracks them across regimes (cold/flat landscapes where
/// tails rival the first-step reward, warm/sharp landscapes where they are
/// tiny) far better than any bound assembled from the EIc landscape alone,
/// whose worst case is exponentially sensitive to speculative σ-inflation.
/// Empirically the cross-candidate tail spread stays well below this
/// allowance; the seeded cross-engine suites pin the resulting decisions to
/// the exhaustive engine's, and any future violation would surface there as
/// a bit-identity failure, not silent corruption. Raising κ trades pruning
/// power for margin.
const PRUNE_TAIL_DRIFT: f64 = 1.5;

/// Extra slack factor of the **in-search** (per-branch) bound, on top of
/// the shared `κ·T` tail allowance: during a candidate's deep recursion the
/// bound grants the *remaining* (not yet accounted) work up to
/// `DEEP_TAIL_SLACK · κ · T` of reward.
///
/// The in-search bound is strictly tighter than the pre-expansion
/// candidate bound in its denominator — every measured deep cost is exact,
/// where the candidate bound optimistically assumes zero — which *removes*
/// a self-scaling tolerance the candidate bound enjoys: a candidate with a
/// large unmeasured tail also has large deep costs, and those costs inflate
/// the candidate bound's effective tail headroom proportionally. Stripping
/// that slack exposed real tail drifts on the wide 60-landscape sweep
/// (`tests/bound_and_prune.rs`): with no extra factor (slack 1.0, the
/// naive "admissible by construction" reading) four landscapes diverge
/// from the exhaustive engine, at 1.5 one still does, and 2.0 is the
/// measured minimum that keeps every pair bit-identical. 3.0 ships —
/// the same minimum-times-1.5 margin policy that picked `κ = 1.5` —
/// because the margin is what absorbs unseen regimes; the cross-engine
/// suites would surface any future violation as a bit-identity failure.
const DEEP_TAIL_SLACK: f64 = 3.0;

/// Which exploration-path implementation drives the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathEngine {
    /// Best-first branch-and-bound over the root candidates, on top of every
    /// batched-engine optimization. The production engine.
    ///
    /// # How a candidate is pruned, and when that is admissible
    ///
    /// Every candidate expands its **first** speculation level exactly (the
    /// `|Γ|·k` work the exhaustive engine performs anyway, with the branch
    /// surrogates cached), which yields its exact first-step rewards `r₁ₖ`
    /// and expected costs `c₁ₖ`. From those the engine assembles an upper
    /// bound on the candidate's full score,
    ///
    /// ```text
    /// UB = (EIc(x) + Σ_k γ·w_k·r₁ₖ + κ·T) / (c₀ + Σ_k w_k·c₁ₖ)
    /// ```
    ///
    /// where `T` is the largest deep-tail reward *measured* among the
    /// candidates already expanded this decision (shared through an atomic
    /// [`crate::acquisition::score_key`] cell, like the incumbent score)
    /// and `κ` a cross-candidate drift allowance. A candidate whose bound
    /// cannot beat the incumbent skips its `k² + … + k^LA` deep recursion —
    /// the exponential part of the `|Γ|·k^LA` growth — entirely; candidates
    /// are dispatched best-bound-first (`pool::run_order_with`) so the
    /// incumbent and the tail anchor tighten as early as possible.
    ///
    /// Candidates that *do* start their deep recursion are pruned **per
    /// branch** as well: every selected step of the exploration tree folds
    /// its exact discounted contributions into an accounted prefix of the
    /// candidate's score, and an in-search bound — the accounted prefix
    /// plus a calibrated remaining-tail allowance
    /// ([`DEEP_TAIL_SLACK`]`·κ·T`), over the exactly-accounted cost — is
    /// re-tested at every level of the recursion (cut depths are counted
    /// in [`PruneStats::deep_cuts`]). A subtree is abandoned the moment
    /// the candidate cannot beat the shared incumbent under that premise,
    /// so pruning reaches *inside* the `k² + … + k^LA` recursion instead
    /// of only in front of it.
    ///
    /// The bound errs high whenever no candidate's deep tail exceeds `κ`
    /// times the largest tail already measured — the reliable regime,
    /// because a decision's deep tails are collected from near-identical
    /// speculated states (they differ in one root sample) and are dominated
    /// by the same few high-EIc configurations. Guard rails where the
    /// premise could fail: until a first tail is measured every candidate
    /// expands unconditionally; before the first feasible observation the
    /// fallback incumbent (`max cost + 3σ`) can grow along a path, so those
    /// decisions disable pruning and expand exhaustively; and at `LA = 1`
    /// the bound is the exact score, making pruning exact by construction.
    /// The seeded cross-engine suites (`tests/bound_and_prune.rs`,
    /// `tests/engine_equivalence.rs`, `tests/pool_matrix.rs`) enforce
    /// bit-identical reports against both retained engines at
    /// `LA ∈ {1, 2, 3}` across seeds, switching models and worker counts.
    #[default]
    BoundAndPrune,
    /// The [`PathEngine::BoundAndPrune`] expansion with pruning switched
    /// off: every candidate is expanded exhaustively, with the same batched
    /// predictions, fit caching, overlay states and pool fan-out. Retained
    /// as the unpruned baseline of the pruning benchmarks; decisions are
    /// bit-identical to [`PathEngine::BoundAndPrune`].
    Batched,
    /// Refit-from-scratch per branch, one prediction call per configuration,
    /// full state clones, sequential. Retained as the executable
    /// specification and the baseline of the speedup benchmark; decisions
    /// are bit-identical to [`PathEngine::Batched`].
    NaiveReference,
}

/// Number of speculation depths the per-branch cut counters distinguish:
/// [`PruneStats::deep_cuts`]`[d]` counts cuts taken at depth `d + 1` (depth
/// 1 = between a candidate's first-level branches, depth 2 = between the
/// Gauss–Hermite nodes of a branch, …); cuts deeper than the last bin are
/// clamped into it.
pub const DEEP_CUT_LEVELS: usize = 6;

/// Cumulative branch-and-bound counters of a [`LynceusOptimizer`] (summed
/// over every decision of every run the optimizer instance has performed
/// since construction or the last [`LynceusOptimizer::reset_prune_stats`]).
///
/// Decisions made by [`PathEngine::BoundAndPrune`] or
/// [`PathEngine::Batched`] with `LA ≥ 1` are counted: both run the same
/// expansion, and Batched counts its candidates with `pruned` and
/// `deep_cuts` left at zero. [`PathEngine::NaiveReference`] counts nothing,
/// and at `LA = 0` there is no subtree to skip.
///
/// Snapshots are **decision-consistent**: [`LynceusOptimizer::prune_stats`]
/// can never observe a half-updated or half-reset state (e.g.
/// `pruned > candidates`), because the counters live behind one lock and
/// every decision publishes all of its fields in one critical section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Number of lookahead decisions.
    pub decisions: u64,
    /// Total `Γ` candidates across those decisions.
    pub candidates: u64,
    /// How many of those candidates were pruned at the candidate level:
    /// their deep exploration subtree was never started.
    pub pruned: u64,
    /// Candidates whose deep recursion was *cut mid-expansion* by the
    /// per-branch in-search bound, by the speculation depth at which the
    /// cut fired (see [`DEEP_CUT_LEVELS`] for the binning).
    pub deep_cuts: [u64; DEEP_CUT_LEVELS],
}

impl PruneStats {
    /// Candidates cut mid-expansion by the per-branch bound, over all
    /// depths.
    #[must_use]
    pub fn deep_pruned(&self) -> u64 {
        self.deep_cuts.iter().sum()
    }

    /// Candidates whose subtree was skipped entirely (candidate-level) or
    /// abandoned mid-expansion (per-branch).
    #[must_use]
    pub fn total_pruned(&self) -> u64 {
        self.pruned + self.deep_pruned()
    }

    /// Fraction of candidates whose subtree was pruned at the candidate
    /// level (0 when nothing was counted yet). Deep cuts are *not* included
    /// — see [`PruneStats::cut_fraction`] for the combined figure.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.pruned as f64 / self.candidates as f64
        }
    }

    /// Fraction of candidates whose deep recursion was skipped or
    /// abandoned: candidate-level prunes plus per-branch cuts over the
    /// candidate total (0 when nothing was counted yet).
    #[must_use]
    pub fn cut_fraction(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.total_pruned() as f64 / self.candidates as f64
        }
    }

    /// Folds another decision's counts into this accumulator.
    fn absorb(&mut self, other: &PruneStats) {
        self.decisions += other.decisions;
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        for (level, &count) in other.deep_cuts.iter().enumerate() {
            self.deep_cuts[level] += count;
        }
    }
}

/// Branch-and-bound counters, shared across the worker threads of a
/// decision. The counts are diagnostics: scheduling can shift *which*
/// candidates get pruned (a slow worker publishes the incumbent later), but
/// must never shift the selected configuration — that invariant holds under
/// the bound's tail premise and is what the cross-engine suites enforce.
///
/// One mutex guards the whole [`PruneStats`] record instead of a field-wise
/// set of relaxed atomics: a decision adds all of its counts in one critical
/// section and a snapshot copies the record in one, so concurrent readers
/// (e.g. a [`crate::service::TuningService`] polling a shared optimizer
/// mid-run) can never observe a torn state such as `pruned > candidates` or
/// a half-applied reset. The lock is touched once per *decision*, far off
/// the per-branch hot path.
#[derive(Debug, Default)]
struct EngineCounters(Mutex<PruneStats>);

/// The Lynceus optimizer.
pub struct LynceusOptimizer {
    settings: OptimizerSettings,
    switching: Box<dyn SwitchingCost>,
    engine: PathEngine,
    /// When set, branch evaluations lease workers from this shared pool
    /// instead of spawning up to one per CPU per decision — the mechanism by
    /// which [`crate::service::TuningService`] multiplexes many concurrent
    /// sessions over one thread budget.
    pool: Option<Arc<pool::Pool>>,
    /// Report name, derived from the lookahead depth at construction.
    name: String,
    /// Drift allowance `κ` of the deep-tail bound (see [`PRUNE_TAIL_DRIFT`]).
    tail_drift: f64,
    counters: EngineCounters,
}

impl LynceusOptimizer {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if the settings are invalid; use
    /// [`OptimizerSettings::validate`] to check them first.
    #[must_use]
    pub fn new(settings: OptimizerSettings) -> Self {
        // lint: allow(no-panic) -- documented constructor contract: invalid settings are a caller bug, rejected before any session exists
        settings.validate().expect("invalid optimizer settings");
        let name = match settings.lookahead {
            // The paper's default depth carries the bare name.
            2 => "Lynceus".to_owned(),
            depth => format!("Lynceus[LA={depth}]"),
        };
        Self {
            settings,
            switching: Box::new(FreeSwitching),
            engine: PathEngine::BoundAndPrune,
            pool: None,
            name,
            tail_drift: PRUNE_TAIL_DRIFT,
            counters: EngineCounters::default(),
        }
    }

    /// Convenience constructor that overrides the lookahead window.
    #[must_use]
    pub fn with_lookahead(settings: OptimizerSettings, lookahead: usize) -> Self {
        Self::new(OptimizerSettings {
            lookahead,
            ..settings
        })
    }

    /// Uses a switching-cost model: the model's cost is charged on every real
    /// profiling run and added to the predicted cost of simulated steps.
    #[must_use]
    pub fn with_switching_cost(mut self, switching: Box<dyn SwitchingCost>) -> Self {
        self.switching = switching;
        self
    }

    /// Selects the exploration-path engine (default:
    /// [`PathEngine::BoundAndPrune`]).
    #[must_use]
    pub fn with_engine(mut self, engine: PathEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the drift allowance `κ` of the branch-and-bound deep-tail
    /// bound (default 1.5). Lower values prune more candidates with thinner
    /// empirical margins — `κ = 1.0` stayed divergence-free across the full
    /// validation matrix, but 1.5 is the shipped default because the margin
    /// is what absorbs unseen regimes. Only [`PathEngine::BoundAndPrune`]
    /// reads it.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is negative, NaN or infinite.
    #[must_use]
    pub fn with_drift_allowance(mut self, kappa: f64) -> Self {
        assert!(
            kappa.is_finite() && kappa >= 0.0,
            "drift allowance must be a finite non-negative factor, got {kappa}"
        );
        self.tail_drift = kappa;
        self
    }

    /// The drift allowance `κ` in use (see
    /// [`LynceusOptimizer::with_drift_allowance`]).
    #[must_use]
    pub fn drift_allowance(&self) -> f64 {
        self.tail_drift
    }

    /// Routes parallel branch evaluation through a shared [`pool::Pool`]
    /// instead of the per-decision default of one worker per CPU. Results
    /// are bit-identical either way; only scheduling changes.
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<pool::Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The engine in use.
    #[must_use]
    pub fn engine(&self) -> PathEngine {
        self.engine
    }

    /// The settings in use.
    #[must_use]
    pub fn settings(&self) -> &OptimizerSettings {
        &self.settings
    }

    /// Snapshot of the cumulative branch-and-bound counters (see
    /// [`PruneStats`]). The snapshot is decision-consistent: it reflects a
    /// whole number of decisions (and either all or none of a concurrent
    /// [`LynceusOptimizer::reset_prune_stats`]), never a torn intermediate.
    #[must_use]
    pub fn prune_stats(&self) -> PruneStats {
        *crate::poison::lock(&self.counters.0)
    }

    /// Resets the cumulative branch-and-bound counters (e.g. between the
    /// measured phases of a benchmark). Atomic with respect to concurrent
    /// decisions and snapshots: a reset never leaves a partial record
    /// behind.
    pub fn reset_prune_stats(&self) {
        *crate::poison::lock(&self.counters.0) = PruneStats::default();
    }

    // =====================================================================
    // Naive reference engine (Algorithm 2, transcribed literally)
    // =====================================================================

    /// Fits a fresh surrogate on an arbitrary (possibly speculative) state.
    fn fit_model(&self, driver: &Driver<'_>, state: &SearchState) -> BaggingEnsemble {
        let mut model =
            BaggingEnsemble::with_seed(self.settings.ensemble_size, driver.model_seed());
        let data = state.training_set(driver.oracle().space());
        if !data.is_empty() {
            // Reference components: materializing fit and collecting
            // predictions preserve the original implementation's cost
            // profile (and are bit-identical to the optimized paths).
            model.fit_reference(&data);
        }
        model
    }

    /// The incumbent `y*` for a state under a fitted model.
    fn incumbent(&self, driver: &Driver<'_>, state: &SearchState, model: &BaggingEnsemble) -> f64 {
        let profiled = state.profiled_pairs();
        if profiled.iter().any(|(_, feasible)| *feasible) {
            incumbent_cost(&profiled, 0.0)
        } else {
            let max_std = state
                .untested()
                .iter()
                .map(|&id| model.predict_reference(driver.features_of(id)).std)
                .fold(0.0_f64, f64::max);
            incumbent_cost(&profiled, max_std)
        }
    }

    /// Budget filter `Γ`: the untested configurations whose predicted cost
    /// fits the remaining budget with the configured confidence.
    ///
    /// Profiling `x` charges the budget with the run cost *and* the cost of
    /// switching the deployed configuration `χ → x`, so the filter tests the
    /// prediction against `β − switch(χ, x)` — the budget actually left for
    /// the run itself. Ignoring the switching term here (the bug this
    /// comment replaces) admitted configurations the remaining budget could
    /// not pay for.
    fn budget_feasible(
        &self,
        driver: &Driver<'_>,
        state: &SearchState,
        model: &BaggingEnsemble,
        z: f64,
    ) -> Vec<ConfigId> {
        let beta = state.budget().remaining();
        let current = state.current();
        let free = self.switching.is_free();
        state
            .untested()
            .iter()
            .copied()
            .filter(|&id| {
                let cap = if free {
                    beta
                } else {
                    beta - self.switching.cost(current, id)
                };
                let prediction = model.predict_reference(driver.features_of(id));
                fits_budget(prediction, cap, z)
            })
            .collect()
    }

    /// `EIc(x)` under a given state/model, including the secondary-constraint
    /// satisfaction probability when the extension is active.
    fn eic(
        &self,
        driver: &Driver<'_>,
        constraint_models: &ConstraintModels,
        model: &BaggingEnsemble,
        y_star: f64,
        id: ConfigId,
    ) -> f64 {
        let features = driver.features_of(id);
        let prediction = model.predict_reference(features);
        let mut score = constrained_ei(y_star, prediction, driver.constraint_cost_cap(id));
        if !constraint_models.is_empty() {
            score *= constraint_models.satisfaction_probability(features);
        }
        score
    }

    /// `NextStep` (Algorithm 2, lines 21–25): the EIc-maximizing
    /// budget-feasible configuration of a (speculative) state.
    fn next_step(
        &self,
        driver: &Driver<'_>,
        constraint_models: &ConstraintModels,
        state: &SearchState,
        model: &BaggingEnsemble,
        z: f64,
    ) -> Option<ConfigId> {
        let gamma = self.budget_feasible(driver, state, model, z);
        if gamma.is_empty() {
            return None;
        }
        let y_star = self.incumbent(driver, state, model);
        gamma
            .into_iter()
            .map(|id| (id, self.eic(driver, constraint_models, model, y_star, id)))
            .max_by(|a, b| score_cmp(a.1, b.1))
            .map(|(id, _)| id)
    }

    /// `ExplorePaths` (Algorithm 2): expected reward and cost of the
    /// exploration path that starts by profiling `x` from `state`.
    #[allow(clippy::too_many_arguments)]
    fn explore_path(
        &self,
        driver: &Driver<'_>,
        constraint_models: &ConstraintModels,
        state: &SearchState,
        model: &BaggingEnsemble,
        x: ConfigId,
        depth_left: usize,
        z: f64,
    ) -> (f64, f64) {
        let features = driver.features_of(x);
        let prediction = model.predict_reference(features);
        let y_star = self.incumbent(driver, state, model);
        let switch = self.switching.cost(state.current(), x);

        let mut reward = self.eic(driver, constraint_models, model, y_star, x);
        let mut cost = (prediction.mean + switch).max(MIN_STEP_COST);

        if depth_left == 0 {
            return (reward, cost);
        }

        // Discretize the speculated cost of x with the Gauss–Hermite rule.
        let nodes = discretize_normal_clamped(
            prediction.mean,
            prediction.std,
            self.settings.gauss_hermite_nodes,
            MIN_STEP_COST,
        );
        let constraint_cap = driver.constraint_cost_cap(x);
        for node in nodes {
            let speculated_feasible = node.value <= constraint_cap;
            let mut next_state = state.speculate(x, node.value, speculated_feasible);
            // Speculated steps pay the switching cost like real ones do
            // (`Driver::try_profile` charges it after the run cost), so the
            // β seen by deeper filters is the budget actually left. The
            // charge is saturated against non-finite model outputs —
            // `SearchState::charge_extra` would otherwise panic on the
            // `inf` a misbehaving model can emit, which the real driver
            // rejects as a recoverable error — identically at every
            // engine's speculation site.
            let charge = speculation_charge(switch);
            if charge > 0.0 {
                next_state.charge_extra(charge);
            }
            let next_model = self.fit_model(driver, &next_state);
            let Some(next_x) =
                self.next_step(driver, constraint_models, &next_state, &next_model, z)
            else {
                // Budget exhausted along this branch: the path ends here.
                continue;
            };
            let (r, c) = self.explore_path(
                driver,
                constraint_models,
                &next_state,
                &next_model,
                next_x,
                depth_left - 1,
                z,
            );
            cost += node.weight * c;
            reward += self.settings.discount * node.weight * r;
        }
        (reward, cost)
    }

    /// `NextConfig` (Algorithm 1, lines 22–28) under the naive reference
    /// engine: the first configuration of the exploration path with the best
    /// reward-to-cost ratio, every branch refit from scratch.
    /// Also returns `|Γ|`, the size of the budget filter the decision chose
    /// from (0 for the unfitted first decision), for the decision receipt.
    fn next_config_naive(
        &self,
        driver: &Driver<'_>,
        constraint_models: &ConstraintModels,
        z: f64,
    ) -> (Option<ConfigId>, usize) {
        let model = self.fit_model(driver, &driver.state);
        if !model.is_fitted() {
            return (driver.state.untested().first().copied(), 0);
        }
        let gamma = self.budget_feasible(driver, &driver.state, &model, z);
        if gamma.is_empty() {
            return (None, 0);
        }
        let gamma_size = gamma.len();
        let id = gamma
            .into_iter()
            .map(|id| {
                let (reward, cost) = self.explore_path(
                    driver,
                    constraint_models,
                    &driver.state,
                    &model,
                    id,
                    self.settings.lookahead,
                    z,
                );
                (id, reward / cost.max(MIN_STEP_COST))
            })
            .max_by(|a, b| score_cmp(a.1, b.1))
            .map(|(id, _)| id);
        (id, gamma_size)
    }

    // =====================================================================
    // Branch-and-bound engine (pruning off: the exhaustive Batched engine)
    // =====================================================================

    /// `NextConfig` under the overlay engines: one batched root pass, then
    /// best-first expansion of the candidates with incumbent pruning.
    /// [`PathEngine::Batched`] runs the same code with pruning off, so
    /// every candidate is expanded exhaustively; under the bound's tail
    /// premise (see [`PathEngine::BoundAndPrune`]) the selected
    /// configuration is the same either way and only the amount of work
    /// (and therefore wall-clock time) differs. `model` is the incrementally maintained
    /// root surrogate (bit-identical to a from-scratch fit on the current
    /// training set); `scratch` is the Driver-owned per-decision arena,
    /// reused across decisions.
    #[allow(clippy::too_many_arguments)]
    fn next_config_pruned(
        &self,
        driver: &Driver<'_>,
        constraint_models: &ConstraintModels,
        model: &BaggingEnsemble,
        rule: &GaussHermiteRule,
        z: f64,
        scratch: &mut DecisionScratch,
        warm: &mut WarmAnchors,
    ) -> Option<ConfigId> {
        scratch.last_gamma = 0;
        if !model.is_fitted() {
            return driver.state.untested().first().copied();
        }
        let DecisionScratch {
            base_ids,
            block,
            block_rows,
            positions,
            satisfaction,
            satisfaction_scratch,
            root,
            root_memo,
            root_mask,
            gamma,
            ranked,
            bounds,
            cont,
            order,
            workers,
            last_gamma,
            ..
        } = scratch;
        let ctx = prepare_root(
            self,
            driver,
            constraint_models,
            model,
            rule,
            z,
            RootBuffers {
                base_ids,
                block,
                block_rows,
                positions,
                satisfaction,
                satisfaction_scratch: &mut *satisfaction_scratch,
                root: &mut *root,
                root_memo: &mut *root_memo,
                root_mask: &mut *root_mask,
                gamma: &mut *gamma,
            },
        );
        if gamma.is_empty() {
            return None;
        }
        *last_gamma = gamma.len();
        let lookahead = self.settings.lookahead;
        if lookahead == 0 {
            // Myopic variant: the score is known in closed form, nothing to
            // bound or expand.
            return gamma
                .iter()
                .map(|candidate| {
                    let switch = self.switching.cost(driver.state.current(), candidate.id);
                    let cost = (candidate.prediction.mean + switch).max(MIN_STEP_COST);
                    (candidate.id, candidate.eic / cost.max(MIN_STEP_COST))
                })
                .max_by(|a, b| score_cmp(a.1, b.1))
                .map(|(id, _)| id);
        }

        // ------------------------------------------------------------------
        // Priority phase. Candidates are *dispatched* best-first so the
        // shared incumbent tightens as early as possible; the priority is a
        // cheap estimate assembled from the root pass alone (own EIc plus a
        // best-case continuation from the largest root EIc values, over the
        // first-step cost). Priorities influence scheduling only — pruning
        // decisions are made inside each candidate's expansion from exact
        // first-level quantities — so they can be heuristic without
        // endangering bit-identity.
        // ------------------------------------------------------------------
        ranked.clear();
        {
            let y_star = ctx.root_y_star;
            ranked.extend(ctx.base_ids.iter().enumerate().map(|(index, &id)| {
                let member = Member {
                    id,
                    index,
                    prediction: root.predictions[index],
                };
                (ctx.eic_of(member, y_star), index as u32)
            }));
            ranked.sort_by(|a, b| score_cmp(b.0, a.0).then(a.1.cmp(&b.1)));
            ranked.truncate(lookahead + 1);
        }
        bounds.clear();
        bounds.reserve(ctx.base_ids.len());
        for candidate in gamma.iter() {
            let switch = self.switching.cost(driver.state.current(), candidate.id);
            let first_step_cost = (candidate.prediction.mean + switch).max(MIN_STEP_COST);
            cont.clear();
            cont.extend(
                ranked
                    .iter()
                    .filter(|(_, index)| ctx.base_ids[*index as usize] != candidate.id)
                    .take(lookahead)
                    .map(|&(eic, _)| eic),
            );
            let mut continuation = 0.0;
            for &eic in cont.iter().rev() {
                continuation = eic + ctx.discounted_mass * continuation;
            }
            bounds.push((candidate.eic + ctx.discounted_mass * continuation) / first_step_cost);
        }

        // Best-first dispatch order: highest priority first, ties in Γ order.
        order.clear();
        order.reserve(ctx.base_ids.len());
        order.extend(0..gamma.len());
        order.sort_by(|&a, &b| score_cmp(bounds[b], bounds[a]).then(a.cmp(&b)));

        // ------------------------------------------------------------------
        // Expansion phase. Every candidate expands its first level exactly
        // (that work is the `|Γ|·k` part exhaustive expansion pays too) and
        // assembles an upper bound on its full score from those exact
        // quantities plus a bounded tail; only the `k² + … + k^LA` deep
        // recursion is skipped when the bound cannot beat the incumbent.
        // The incumbent (best exact score so far) lives in one atomic cell,
        // encoded with the order-preserving `score_key` mapping so
        // `fetch_max` implements the lock-free monotone maximum; 0 is the
        // "no incumbent yet" sentinel below every real key. A stale read
        // only reduces pruning, never changes any result.
        // ------------------------------------------------------------------
        // The incumbent cell always restarts at zero: scores decay as Σ
        // grows, so seeding it with a stale (prior-decision or prior-run)
        // key could prune every candidate and end the session early. The
        // measured-tail anchor has the opposite asymmetry — tails decay
        // too, so a stale anchor is *larger* and bounds built from it err
        // high (admissible) — which is why a warm session may preload it
        // from the previous run's harvest and pruning bites from decision
        // one instead of relearning the anchor per decision.
        let incumbent = AtomicU64::new(0);
        let observed_tail = AtomicU64::new(warm.tail_preload);
        // Only the BoundAndPrune engine prunes; Batched expands every
        // candidate. Before the first feasible observation the incumbent
        // fallback (`max cost + 3σ`) can grow along a speculated path,
        // voiding the tail bound's premise; those (rare, early) decisions
        // expand exhaustively. A warm session's prior run is feasibility
        // evidence of the same strength, so its anchor arms the guard
        // immediately.
        let prunable = self.engine == PathEngine::BoundAndPrune
            && lookahead > 1
            && (warm.feasible_prior || driver.state.tested().iter().any(|t| t.feasible));
        let base_len = ctx.base_ids.len();
        let gamma = &*gamma;
        let init = || WorkerLease::take(workers, base_len);
        let expand = |lease: &mut WorkerLease<'_>, g: usize| -> CandidateOutcome {
            ctx.expand_candidate(
                model,
                &gamma[g],
                lookahead,
                lease.get(),
                &incumbent,
                &observed_tail,
                prunable,
            )
        };
        let threads = if self.settings.parallel_paths && gamma.len() > 4 {
            usize::MAX // capped at available parallelism by the pool
        } else {
            1
        };
        let outcomes: Vec<CandidateOutcome> = match &self.pool {
            Some(shared) => shared.run_order_with(gamma.len(), threads, order, init, expand),
            None => pool::run_order_with(gamma.len(), threads, order, init, expand),
        };

        let mut decision = PruneStats {
            decisions: 1,
            candidates: gamma.len() as u64,
            ..PruneStats::default()
        };
        for outcome in &outcomes {
            match outcome {
                CandidateOutcome::Pruned => decision.pruned += 1,
                CandidateOutcome::CutDeep { depth } => {
                    decision.deep_cuts[(depth.saturating_sub(1)).min(DEEP_CUT_LEVELS - 1)] += 1;
                }
                CandidateOutcome::Scored(_) => {}
            }
        }
        crate::poison::lock(&self.counters.0).absorb(&decision);

        // Harvest the final cell values for the cross-run knowledge layer.
        // The *latest publishing* decision wins, not a running maximum:
        // measured tails shrink as Σ grows, so the most recent measurement
        // is the tightest anchor that still errs high for the next run
        // (whose Σ starts as a superset of this run's). Zero cells are
        // skipped — end-of-budget decisions whose branches all die early
        // never publish, and must not erase the anchor. The incumbent key
        // is recorded for statistics and as feasibility evidence only.
        // ordering: Relaxed — the pool joined all workers above, so these
        // loads observe the final published values; no ordering is derived.
        let final_incumbent = incumbent.load(Ordering::Relaxed);
        if final_incumbent != 0 {
            warm.harvest_incumbent = final_incumbent;
        }
        // ordering: Relaxed — same post-join argument as the incumbent load.
        let final_tail = observed_tail.load(Ordering::Relaxed);
        if final_tail != 0 {
            warm.harvest_tail = final_tail;
        }

        // Reduction in Γ order over the expanded candidates. A pruned (or
        // mid-expansion cut) candidate's bound was strictly below some
        // incumbent ≤ the final maximum, so under the tail premise (its
        // not-yet-measured deep tail stays within the κ·T allowance minus
        // what it already measured) its exact score can neither win nor
        // tie: skipping it reproduces the exhaustive argmax (including the
        // last-of-equals tie-break) for any schedule. The premise is
        // empirical — κ is calibrated with margin and the cross-engine
        // suites pin the behaviour — so a drift beyond κ would surface as a
        // test failure, not silent corruption.
        let mut best: Option<(ConfigId, f64)> = None;
        for (g, outcome) in outcomes.iter().enumerate() {
            if let CandidateOutcome::Scored(score) = outcome {
                let replace = best
                    .as_ref()
                    .is_none_or(|(_, incumbent)| score_cmp(*score, *incumbent).is_ge());
                if replace {
                    best = Some((gamma[g].id, *score));
                }
            }
        }
        best.map(|(id, _)| id)
    }
}

/// What happened to one root candidate during branch-and-bound expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CandidateOutcome {
    /// The candidate's pre-expansion bound could not beat the incumbent;
    /// its deep subtree was never started.
    Pruned,
    /// The candidate's deep recursion was started but cut mid-expansion:
    /// the in-search bound (exact accounted prefix plus the remaining-tail
    /// allowance) fell below the incumbent at the given speculation depth.
    CutDeep {
        /// Depth of the speculated prefix at the cut: 1 = between
        /// first-level branches, 2 = between the Gauss–Hermite nodes of a
        /// branch, and so on down the lookahead.
        depth: usize,
    },
    /// The candidate was expanded exhaustively; its exact score.
    Scored(f64),
}

/// The speculated switching charge actually applied along a speculation
/// path. Finite positive charges pass through; non-finite ones are
/// saturated to zero instead of being subtracted from the speculated β —
/// an `inf` from a misbehaving [`SwitchingCost`] model would otherwise
/// collapse the remaining budget to `-inf` (NaN-contaminating every score
/// arithmetic downstream) in the overlay engines and panic the naive
/// engine's materialized `Budget::charge`. The real profiling driver
/// rejects such a model explicitly
/// ([`crate::optimizer::ProfileError::InvalidSwitchingCost`]); speculation
/// merely has to survive it, and every engine saturates identically so
/// cross-engine decisions stay bit-identical. Negative charges never reach
/// here (call sites only charge positive values).
fn speculation_charge(switch: f64) -> f64 {
    if switch.is_finite() {
        switch
    } else {
        0.0
    }
}

/// In-search pruning state of one candidate's deep expansion: the exact
/// accounted prefix of the candidate's reward/cost score plus the shared
/// cells the bound is checked against. Inactive (a no-op) on the exhaustive
/// engine and on decisions where pruning's premise does not hold.
///
/// The bound refines the candidate-level one *during* the deep recursion.
/// Every selected step of the exploration tree contributes its exact
/// discounted first-step reward and expected cost the moment it is known
/// (phase A seeds the accumulators with the level-0/level-1 totals), so at
/// any instant
///
/// ```text
/// bound = (done_reward + DEEP_TAIL_SLACK·κ·T) / done_cost
/// ```
///
/// where `done_reward`/`done_cost` are the exact accounted sums so far and
/// `T` is the decision's shared tail anchor (reloaded at every check, so
/// the bound tightens as siblings publish). The numerator grants the
/// *remaining* work a tail allowance; the denominator is where the
/// in-search bound beats the pre-expansion one — every accounted deep cost
/// is exact where the candidate bound assumed zero. That very tightness is
/// why the allowance carries the measured [`DEEP_TAIL_SLACK`] factor: the
/// exact denominator strips the candidate bound's self-scaling cost
/// headroom, and the wide-sweep calibration (see the constant's docs)
/// showed the bare `κ·T` premise is not enough there. A cut therefore
/// fires only where the candidate cannot beat the incumbent under the
/// calibrated premise — the same epistemic footing as candidate-level
/// pruning, enforced by the same bit-identity suites.
struct DeepPrune<'a> {
    /// The decision's shared incumbent and tail-anchor cells; `None`
    /// deactivates the probe (Batched engine, non-prunable decisions).
    shared: Option<(&'a AtomicU64, &'a AtomicU64)>,
    /// Drift allowance κ shared with the candidate-level bound.
    kappa: f64,
    /// Phase-A totals: the exact level-0 + level-1 reward of the candidate
    /// (`tail_done` is measured relative to this).
    exact_reward: f64,
    /// Exact accounted reward/cost so far (phase-A totals plus every deeper
    /// selected step folded in at its selection site).
    done_reward: f64,
    done_cost: f64,
    /// Depth at which a cut fired; the recursion unwinds when set.
    cut_depth: Option<usize>,
}

impl<'a> DeepPrune<'a> {
    /// A probe that accounts and checks nothing (Batched engine, or
    /// pruning disabled for this decision).
    fn inactive() -> Self {
        Self {
            shared: None,
            kappa: 0.0,
            exact_reward: 0.0,
            done_reward: 0.0,
            done_cost: 0.0,
            cut_depth: None,
        }
    }

    /// An armed probe, seeded with the candidate's exact phase-A totals.
    fn armed(
        incumbent: &'a AtomicU64,
        observed_tail: &'a AtomicU64,
        kappa: f64,
        exact_reward: f64,
        exact_cost: f64,
    ) -> Self {
        Self {
            shared: Some((incumbent, observed_tail)),
            kappa,
            exact_reward,
            done_reward: exact_reward,
            done_cost: exact_cost,
            cut_depth: None,
        }
    }

    /// True when accounting and cut checks should run at all.
    fn active(&self) -> bool {
        self.shared.is_some()
    }

    /// True once a cut has fired; callers at every level unwind on it.
    fn cut(&self) -> bool {
        self.cut_depth.is_some()
    }

    /// Folds one selected step's exact contributions (already scaled by the
    /// prefix weights) into the accounted totals.
    fn account(&mut self, reward: f64, cost: f64) {
        self.done_reward += reward;
        self.done_cost += cost;
    }

    /// Re-evaluates the in-search bound against the (freshly reloaded)
    /// shared incumbent; on failure records the cut depth and returns true.
    /// Without a measured tail anchor there is nothing to bound remaining
    /// work with, so the candidate keeps expanding.
    fn check(&mut self, depth: usize) -> bool {
        let Some((incumbent, observed_tail)) = self.shared else {
            return false;
        };
        // ordering: Relaxed — the u64 score_key is the whole message and the
        // cells are monotone fetch_max bounds; a stale read only weakens the
        // cut (pruned candidates provably cannot win), never a decision.
        let anchor = observed_tail.load(Ordering::Relaxed);
        if anchor == 0 {
            return false;
        }
        let remaining = DEEP_TAIL_SLACK * self.kappa * score_from_key(anchor);
        let bound = (self.done_reward + remaining) / self.done_cost.max(MIN_STEP_COST);
        // A NaN bound signals degenerate arithmetic; expanding is always
        // safe (the exact score decides), cutting on it would not be.
        // ordering: Relaxed — same monotone-bound argument as the anchor load above.
        if !bound.is_nan() && score_key(bound) < incumbent.load(Ordering::Relaxed) {
            self.cut_depth = Some(depth);
            true
        } else {
            false
        }
    }

    /// The exact deep tail measured before the cut (what the abandoned
    /// expansion already collected beyond phase A) — a lower bound of the
    /// candidate's full tail, safe to feed the shared anchor's `fetch_max`.
    fn measured_tail(&self) -> f64 {
        self.done_reward - self.exact_reward
    }
}

/// A `Γ` member at the root of the decision, with the shared-pass data the
/// reduction needs.
struct RootCandidate {
    id: ConfigId,
    prediction: Prediction,
    eic: f64,
}

/// Shared read-only context of one overlay-engine decision.
struct BatchedCtx<'a> {
    driver: &'a Driver<'a>,
    constraint_models: &'a ConstraintModels,
    settings: &'a OptimizerSettings,
    switching: &'a dyn SwitchingCost,
    rule: &'a GaussHermiteRule,
    /// Precomputed budget-filter threshold (see
    /// [`crate::acquisition::budget_filter_z`]).
    budget_z: f64,
    /// Untested ids of the real state, in state order: the row universe of
    /// every evaluation this decision.
    base_ids: &'a [ConfigId],
    /// The untested feature rows gathered into one dense block aligned with
    /// `base_ids`, filled once per decision: every state evaluation of
    /// every Gauss–Hermite branch of every candidate streams this
    /// contiguous block instead of scattering through the full feature
    /// matrix row by row.
    block: &'a FeatureMatrix,
    /// Identity row list `0..block.rows()` (the row universe *is* the
    /// block), aligned with `base_ids`.
    block_rows: &'a [usize],
    /// Inverse of `base_ids` (`ConfigId::index` → position, or
    /// [`SearchState::NOT_UNTESTED`]): the per-path speculated-membership
    /// masks are indexed by these positions.
    positions: &'a [u32],
    /// Joint secondary-constraint satisfaction probabilities aligned with
    /// `base_ids` (empty when no secondary constraints are configured);
    /// constant for the whole decision.
    satisfaction: &'a [f64],
    /// The root state's incumbent `y*`, from the shared root pass.
    root_y_star: f64,
    /// `γ·W`: the discount times the Gauss–Hermite mass cap
    /// (`weight_sum().max(1.0)`), the per-level factor of the bound folds.
    discounted_mass: f64,
    /// Drift allowance `κ` of the deep-tail bound
    /// ([`LynceusOptimizer::with_drift_allowance`]).
    tail_drift: f64,
}

/// Mutable views into the [`DecisionScratch`] fields the root pass fills.
///
/// Two lifetimes keep the borrows honest: the `'ctx` buffers back the
/// returned [`BatchedCtx`] (immutably, for the rest of the decision), while
/// the `'tmp` buffers are only written during the root pass and hand back to
/// the caller when `prepare_root` returns.
struct RootBuffers<'ctx, 'tmp> {
    base_ids: &'ctx mut Vec<ConfigId>,
    block: &'ctx mut FeatureMatrix,
    block_rows: &'ctx mut Vec<usize>,
    positions: &'ctx mut Vec<u32>,
    satisfaction: &'ctx mut Vec<f64>,
    satisfaction_scratch: &'tmp mut Vec<Prediction>,
    root: &'tmp mut Scratch,
    root_memo: &'tmp mut RowValueMemo,
    root_mask: &'tmp mut Vec<bool>,
    gamma: &'tmp mut Vec<RootCandidate>,
}

/// Shared setup of an overlay-engine decision: fixes the row universe,
/// evaluates the root state with one batched pass, and extracts `Γ` with
/// each member's prediction and EIc. Returns the decision context borrowing
/// the now-filled buffers.
fn prepare_root<'a>(
    optimizer: &'a LynceusOptimizer,
    driver: &'a Driver<'a>,
    constraint_models: &'a ConstraintModels,
    model: &BaggingEnsemble,
    rule: &'a GaussHermiteRule,
    z: f64,
    buffers: RootBuffers<'a, '_>,
) -> BatchedCtx<'a> {
    let RootBuffers {
        base_ids,
        block,
        block_rows,
        positions,
        satisfaction,
        satisfaction_scratch,
        root,
        root_memo,
        root_mask,
        gamma,
    } = buffers;
    // The untested set of the real state, fixed for the whole decision:
    // speculative states are subsets of it, so every evaluation predicts
    // at these rows and skips the (at most `lookahead + 1`) speculated
    // entries during selection.
    base_ids.clear();
    base_ids.extend_from_slice(driver.state.untested());
    // Gather the untested rows into one dense, contiguous block. Every
    // state evaluation of the decision — the root pass plus every
    // Gauss–Hermite branch of every candidate — predicts over this block
    // with identity row indices, so the surrogate streams sequential
    // memory instead of scattering through the full feature matrix.
    let matrix = driver.feature_matrix();
    block.reset(matrix.dims());
    for id in base_ids.iter() {
        block.push_row(matrix.row(id.index()));
    }
    block_rows.clear();
    block_rows.extend(0..base_ids.len());
    driver
        .state
        .untested_positions(driver.feature_matrix().rows(), positions);
    // Secondary-constraint models are fitted once per decision and the
    // row universe is fixed, so their satisfaction probabilities are
    // computed once here and shared by every speculated state.
    satisfaction.clear();
    if !constraint_models.is_empty() {
        constraint_models.satisfaction_rows(block, block_rows, satisfaction, satisfaction_scratch);
    }
    // The memoized tree values of the previous decision belong to a
    // different row set; drop them before the root pass repopulates.
    root_memo.clear();
    root_mask.clear();
    root_mask.resize(base_ids.len(), false);

    let ctx = BatchedCtx {
        driver,
        constraint_models,
        settings: &optimizer.settings,
        switching: optimizer.switching.as_ref(),
        rule,
        budget_z: z,
        base_ids,
        block,
        block_rows,
        positions,
        satisfaction,
        root_y_star: 0.0,
        discounted_mass: optimizer.settings.discount * rule.weight_sum().max(1.0),
        tail_drift: optimizer.tail_drift,
    };

    // Evaluate the root state once: one batched prediction pass serves
    // the budget filter, the incumbent fallback and every EIc score.
    let cursor = SpeculativeCursor::new(&driver.state);
    let y_star = ctx.eval_state(&cursor, model, root, root_mask, root_memo);
    let beta = cursor.remaining_budget();

    // Γ with each member's prediction and EIc extracted from the shared
    // pass. Γ can *grow* between decisions (a sharper surrogate admits more
    // configurations), so the buffer is reserved to its upper bound — the
    // untested set, which only shrinks — and the first decision establishes
    // the high-water capacity for the whole run.
    gamma.clear();
    gamma.reserve(ctx.base_ids.len());
    gamma.extend(
        ctx.gamma_members(root, root_mask, driver.state.current(), beta, z)
            .map(|member| RootCandidate {
                id: member.id,
                prediction: member.prediction,
                eic: ctx.eic_of(member, y_star),
            }),
    );
    BatchedCtx {
        root_y_star: y_star,
        ..ctx
    }
}

/// Per-worker state of branch evaluation: one [`Scratch`] per recursion
/// level, the decision-wide tree-value memo, the speculated-membership mask
/// and the candidate-level Gauss–Hermite buffer.
#[derive(Default)]
struct BranchScratch {
    levels: Vec<Scratch>,
    memo: RowValueMemo,
    /// `mask[p]` is true iff `base_ids[p]` is currently speculated on the
    /// worker's path — the incremental form of `Γ` membership across
    /// depths, updated in `O(1)` per cursor push/pop instead of re-scanning
    /// the speculation stack for every candidate of every re-filtered state.
    mask: Vec<bool>,
    /// First-level Gauss–Hermite nodes of the candidate under expansion
    /// (deeper levels use their [`Scratch`]'s own buffer).
    root_nodes: Vec<WeightedValue>,
    /// The branch surrogates built during phase A of
    /// [`BatchedCtx::expand_candidate`], reused verbatim by phase B.
    branch_models: Vec<BaggingEnsemble>,
    /// Each branch's selected next step, its EIc and its switching charge
    /// from phase A (`None` when the branch died on an empty Γ), so phase
    /// B resumes the deep recursion directly instead of re-evaluating the
    /// first level (or re-querying the switching model).
    branch_next: Vec<Option<(Member, f64, f64)>>,
}

/// A per-worker [`BranchScratch`] checked out of the decision's recycler:
/// taken when a pool worker initializes, returned (with capacities intact)
/// when the worker finishes — which is what makes the arena survive across
/// decisions instead of being reallocated per `select_next` fan-out.
struct WorkerLease<'a> {
    home: &'a Mutex<Vec<BranchScratch>>,
    scratch: Option<BranchScratch>,
}

impl<'a> WorkerLease<'a> {
    fn take(home: &'a Mutex<Vec<BranchScratch>>, base_len: usize) -> Self {
        let mut scratch = crate::poison::lock(home).pop().unwrap_or_default();
        // The previous decision's memo refers to a different row set.
        scratch.memo.clear();
        scratch.mask.clear();
        scratch.mask.resize(base_len, false);
        Self {
            home,
            scratch: Some(scratch),
        }
    }

    fn get(&mut self) -> &mut BranchScratch {
        // lint: allow(no-panic) -- lease invariant: scratch is Some from take() until drop; get() after drop is unreachable by construction
        self.scratch.as_mut().expect("lease already returned")
    }
}

impl Drop for WorkerLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            if let Ok(mut home) = self.home.lock() {
                home.push(scratch);
            }
        }
    }
}

/// The Driver-owned per-decision arena of the overlay engines. Every buffer
/// is `clear()`ed and refilled per decision, so across the decisions of a
/// run the engine performs a bounded number of heap allocations: capacities
/// are established by the first (largest) decision and reused from then on
/// (`tests` assert the signature stabilizes).
#[derive(Default)]
pub(crate) struct DecisionScratch {
    base_ids: Vec<ConfigId>,
    /// Dense per-decision feature block of the untested rows ([`prepare_root`]
    /// gathers it once; every state evaluation streams it).
    block: FeatureMatrix,
    block_rows: Vec<usize>,
    positions: Vec<u32>,
    satisfaction: Vec<f64>,
    satisfaction_scratch: Vec<Prediction>,
    root: Scratch,
    root_memo: RowValueMemo,
    root_mask: Vec<bool>,
    gamma: Vec<RootCandidate>,
    /// `(EIc, base position)` ranking, per-candidate bounds, the
    /// continuation fold buffer and the dispatch order.
    ranked: Vec<(f64, u32)>,
    bounds: Vec<f64>,
    cont: Vec<f64>,
    order: Vec<usize>,
    /// Recycler of per-worker branch scratches (leased at worker init,
    /// returned on completion).
    workers: Mutex<Vec<BranchScratch>>,
    /// `|Γ|` of the most recent decision (0 for unfitted early-outs), read
    /// by the session's receipt emission. Plain data, not a buffer — it does
    /// not participate in the capacity signature.
    last_gamma: usize,
}

impl DecisionScratch {
    /// A coarse fingerprint of the arena's reserved capacities, used by the
    /// reuse tests: once the first decisions have sized the buffers, the
    /// signature must stay constant — per-decision heap growth would show up
    /// as a growing signature.
    #[cfg(test)]
    pub(crate) fn capacity_signature(&self) -> usize {
        let workers = self.workers.lock().expect("scratch recycler poisoned");
        let worker_capacity: usize = workers
            .iter()
            .map(|w| {
                w.mask.capacity()
                    + w.root_nodes.capacity()
                    + w.branch_models.capacity()
                    + w.branch_next.capacity()
                    + w.levels.capacity()
                    + w.levels
                        .iter()
                        .map(|level| {
                            level.predictions.capacity()
                                + level.pairs.capacity()
                                + level.nodes.capacity()
                        })
                        .sum::<usize>()
            })
            .sum();
        self.base_ids.capacity()
            + self.block.capacity()
            + self.block_rows.capacity()
            + self.positions.capacity()
            + self.satisfaction.capacity()
            + self.satisfaction_scratch.capacity()
            + self.root.predictions.capacity()
            + self.root.pairs.capacity()
            + self.root.nodes.capacity()
            + self.root_mask.capacity()
            + self.gamma.capacity()
            + self.ranked.capacity()
            + self.bounds.capacity()
            + self.cont.capacity()
            + self.order.capacity()
            + workers.capacity()
            + worker_capacity
    }
}

/// Reusable per-state evaluation buffers. One `Scratch` lives per recursion
/// level of a branch, so the whole subtree of a branch task performs a
/// bounded number of allocations regardless of how many states it scores.
#[derive(Default)]
struct Scratch {
    // (rows are fixed per decision and live in `BatchedCtx::{block, block_rows}`)
    /// Predictions aligned with the decision's base ids (one tree-major
    /// batch pass).
    predictions: Vec<Prediction>,
    /// `(cost, feasible)` pairs of the evaluated state.
    pairs: Vec<(f64, bool)>,
    /// Gauss–Hermite nodes of the level's discretization.
    nodes: Vec<WeightedValue>,
}

/// One untested configuration inside a [`Scratch`] evaluation.
#[derive(Clone, Copy)]
struct Member {
    id: ConfigId,
    /// Position in the scratch's aligned buffers.
    index: usize,
    prediction: Prediction,
}

impl BatchedCtx<'_> {
    /// The state's untested configurations whose predicted cost fits the
    /// budget `beta` at the precomputed confidence threshold `z`, in base
    /// untested order. `mask` flags the base positions the path has
    /// speculated (present in the base ids but tested in the speculated
    /// state), and `current` is the state's deployed configuration `χ`:
    /// profiling a member also pays `switch(χ, x)`, so each prediction is
    /// tested against `β − switch(χ, x)`, mirroring the reference engine's
    /// `budget_feasible`.
    fn gamma_members<'s>(
        &'s self,
        scratch: &'s Scratch,
        mask: &'s [bool],
        current: Option<ConfigId>,
        beta: f64,
        z: f64,
    ) -> impl Iterator<Item = Member> + 's {
        let free = self.switching.is_free();
        self.base_ids
            .iter()
            .zip(&scratch.predictions)
            .enumerate()
            .filter(move |(index, (id, prediction))| {
                if mask[*index] {
                    return false;
                }
                let cap = if free {
                    beta
                } else {
                    beta - self.switching.cost(current, **id)
                };
                fits_budget(**prediction, cap, z)
            })
            .map(|(index, (&id, &prediction))| Member {
                id,
                index,
                prediction,
            })
    }
    /// Scores a state: one batched prediction pass over its untested set
    /// (plus one per secondary-constraint model), then the incumbent `y*`.
    /// Everything downstream (budget filter, EIc, argmax) reads the buffers.
    fn eval_state(
        &self,
        cursor: &SpeculativeCursor<'_>,
        model: &BaggingEnsemble,
        scratch: &mut Scratch,
        mask: &[bool],
        memo: &mut RowValueMemo,
    ) -> f64 {
        model.predict_rows_memo(self.block, self.block_rows, &mut scratch.predictions, memo);
        // The pair list tracks the training set, which grows by one per
        // decision; reserving its run-constant upper bound (every
        // configuration profiled) up front keeps the buffer from
        // reallocating as the run progresses. Clear before reserving so the
        // request is measured against an empty buffer (a no-op once the
        // capacity is established), not on top of the previous state's
        // leftover length.
        scratch.pairs.clear();
        scratch.pairs.reserve(self.driver.feature_matrix().rows());
        cursor.profiled_pairs_into(&mut scratch.pairs);
        if scratch.pairs.iter().any(|(_, feasible)| *feasible) {
            incumbent_cost(&scratch.pairs, 0.0)
        } else {
            // Fold over the *state's* untested set: speculated entries are
            // predicted (their rows are in the fixed base list) but must not
            // contribute, mirroring the reference engine's iteration.
            let max_std = scratch
                .predictions
                .iter()
                .zip(mask)
                .filter(|(_, &speculated)| !speculated)
                .map(|(p, _)| p.std)
                .fold(0.0_f64, f64::max);
            incumbent_cost(&scratch.pairs, max_std)
        }
    }

    /// `EIc` of a member of an evaluated state.
    fn eic_of(&self, member: Member, y_star: f64) -> f64 {
        let mut score = constrained_ei(
            y_star,
            member.prediction,
            self.driver.constraint_cost_cap(member.id),
        );
        if !self.constraint_models.is_empty() {
            score *= self.satisfaction[member.index];
        }
        score
    }

    /// `NextStep` on an evaluated state: the EIc-maximizing budget-feasible
    /// member (`None` when the budget excludes everything). Ties resolve to
    /// the later member, matching `Iterator::max_by` in the reference
    /// engine.
    fn select_next(
        &self,
        scratch: &Scratch,
        mask: &[bool],
        current: Option<ConfigId>,
        y_star: f64,
        beta: f64,
    ) -> Option<(Member, f64)> {
        let mut best: Option<(Member, f64)> = None;
        for member in self.gamma_members(scratch, mask, current, beta, self.budget_z) {
            let score = self.eic_of(member, y_star);
            let replace = best
                .as_ref()
                .is_none_or(|(_, incumbent)| score_cmp(score, *incumbent).is_ge());
            if replace {
                best = Some((member, score));
            }
        }
        best
    }

    /// Branch-and-bound expansion of one root candidate.
    ///
    /// **Phase A** expands the candidate's first level exactly: every
    /// Gauss–Hermite branch gets its incremental surrogate, its batched
    /// state evaluation and its exact selected step — the same `|Γ|·k` work
    /// exhaustive expansion performs, with the branch surrogates cached for
    /// reuse. Those exact quantities yield an upper bound on the candidate's
    /// full score:
    ///
    /// ```text
    /// UB = (EIc(x) + Σ_k γ·w_k·r₁ₖ + κ·T) / (c₀ + Σ_k w_k·c₁ₖ)
    /// ```
    ///
    /// with `r₁ₖ`/`c₁ₖ` branch `k`'s exact first-step reward/expected cost,
    /// `T` the largest deep-tail reward measured among the candidates
    /// already expanded this decision (shared through an atomic cell), and
    /// `κ` the cross-candidate drift allowance ([`PRUNE_TAIL_DRIFT`]). The
    /// true score only *adds* non-negative deeper costs to the denominator,
    /// so the bound errs high whenever no candidate's deep tail exceeds `κ`
    /// times the largest one seen. Until a first tail has been measured the
    /// candidate expands unconditionally (best-first dispatch makes that
    /// first expansion the likely winner), and at `LA = 1` there is no
    /// tail: the "bound" *is* the exact score and phase B is skipped.
    ///
    /// **Phase B** (only when the bound survives the incumbent) resumes
    /// each live branch from its cached surrogate and selected step
    /// straight into the deep recursion — the naive recursion's arithmetic,
    /// in the same order — and publishes the candidate's exact score and
    /// measured deep tail. With `prunable` false (the Batched engine, and
    /// decisions where the bound's premise does not hold) phase B always
    /// runs and never cuts, which is exhaustive expansion.
    ///
    /// Otherwise an armed [`DeepPrune`] probe rides the recursion: every selected
    /// step folds its exact contributions into an accounted prefix and the
    /// in-search bound is re-tested between branches and at every level
    /// inside them, so the remaining subtree is abandoned
    /// ([`CandidateOutcome::CutDeep`], with the partial tail published to
    /// the shared anchor) as soon as the candidate provably cannot beat
    /// the incumbent.
    #[allow(clippy::too_many_arguments)]
    fn expand_candidate(
        &self,
        root_model: &BaggingEnsemble,
        candidate: &RootCandidate,
        lookahead: usize,
        scratch: &mut BranchScratch,
        incumbent: &AtomicU64,
        observed_tail: &AtomicU64,
        prunable: bool,
    ) -> CandidateOutcome {
        let depth_left = lookahead - 1;
        let switch = self
            .switching
            .cost(self.driver.state.current(), candidate.id);
        let first_step_cost = (candidate.prediction.mean + switch).max(MIN_STEP_COST);
        let constraint_cap = self.driver.constraint_cost_cap(candidate.id);
        let BranchScratch {
            levels,
            memo,
            mask,
            root_nodes,
            branch_models,
            branch_next,
        } = scratch;
        self.rule.discretize_clamped_into(
            candidate.prediction.mean,
            candidate.prediction.std,
            MIN_STEP_COST,
            root_nodes,
        );
        if levels.len() < depth_left + 2 {
            levels.resize_with(depth_left + 2, Scratch::default);
        }
        let x_position = self.positions[candidate.id.index()] as usize;

        // Phase A: exact first level.
        branch_models.clear();
        branch_next.clear();
        let mut exact_reward = candidate.eic;
        let mut exact_cost = first_step_cost;
        {
            let (first, _) = levels
                .split_first_mut()
                // lint: allow(no-panic) -- arena invariant: levels was resized to depth_left + 2 ≥ 2 entries just above
                .expect("at least one scratch level");
            for &node in root_nodes.iter() {
                let mut cursor = SpeculativeCursor::new(&self.driver.state);
                cursor.push(candidate.id, node.value, node.value <= constraint_cap);
                mask[x_position] = true;
                // Mirror the reference engine (and the real driver): a
                // speculated run charges its switching cost after its run
                // cost — saturated against non-finite model outputs, which
                // the real driver rejects and a speculated β must survive.
                let charge = speculation_charge(switch);
                if charge > 0.0 {
                    cursor.charge_extra(charge);
                }
                let model =
                    root_model.refit_with(&[(self.driver.features_of(candidate.id), node.value)]);
                let y_star = self.eval_state(&cursor, &model, first, mask, memo);
                let selected = self.select_next(
                    first,
                    mask,
                    cursor.current(),
                    y_star,
                    cursor.remaining_budget(),
                );
                let stored = selected.map(|(next, r1)| {
                    // The branch's exact first-step contributions, in the
                    // naive recursion's accumulation order and expressions
                    // (`explore` returns `(r₁, c₁)` verbatim at the leaf).
                    // The switching charge is kept with the selection so
                    // phase B hands it to `explore` instead of querying the
                    // model again.
                    let next_switch = self.switching.cost(cursor.current(), next.id);
                    let c1 = (next.prediction.mean + next_switch).max(MIN_STEP_COST);
                    exact_cost += node.weight * c1;
                    exact_reward += self.settings.discount * node.weight * r1;
                    (next, r1, next_switch)
                });
                mask[x_position] = false;
                branch_models.push(model);
                branch_next.push(stored);
            }
        }
        if depth_left == 0 {
            // No tail: the assembled quantities are the exact reward and
            // cost, so the candidate is fully scored already.
            let score = exact_reward / exact_cost.max(MIN_STEP_COST);
            if !score.is_nan() {
                // ordering: Relaxed — the monotone u64 score_key is the whole
                // message and fetch_max is an atomic RMW; readers that miss it
                // merely prune less, never differently.
                incumbent.fetch_max(score_key(score), Ordering::Relaxed);
            }
            return CandidateOutcome::Scored(score);
        }
        // The bound needs a measured tail anchor; until one exists (the
        // first best-first expansion publishes it) the candidate expands
        // unconditionally. A NaN bound signals degenerate arithmetic;
        // expanding is always safe (the exact score decides), pruning on it
        // would not be.
        // ordering: Relaxed — monotone fetch_max bound cells carry the whole
        // message in their u64 key; a stale view only weakens pruning.
        let observed = observed_tail.load(Ordering::Relaxed);
        let bound = if observed == 0 {
            f64::NAN
        } else {
            (exact_reward + self.tail_drift * score_from_key(observed))
                / exact_cost.max(MIN_STEP_COST)
        };
        // ordering: Relaxed — same monotone-bound argument as the load above.
        if prunable && !bound.is_nan() && score_key(bound) < incumbent.load(Ordering::Relaxed) {
            return CandidateOutcome::Pruned;
        }

        // Phase B: deep expansion only — each live branch resumes from its
        // phase-A surrogate and selected step straight into the `explore`
        // recursion, so the first level is never evaluated twice. Reward and
        // cost accumulate in Gauss–Hermite node order, the naive recursion's
        // order, so the score is bit-identical to it. An armed [`DeepPrune`]
        // probe rides along: every selected step folds its exact
        // contributions into the accounted prefix and re-tests the
        // in-search bound, so a subtree is abandoned the moment the
        // candidate provably (under the shared tail premise) cannot beat
        // the incumbent — per-branch pruning inside the `k² + … + k^LA`
        // recursion, not just in front of it.
        let mut probe = if prunable {
            DeepPrune::armed(
                incumbent,
                observed_tail,
                self.tail_drift,
                exact_reward,
                exact_cost,
            )
        } else {
            DeepPrune::inactive()
        };
        let mut reward = candidate.eic;
        let mut cost = first_step_cost;
        {
            let (first, rest) = levels
                .split_first_mut()
                // lint: allow(no-panic) -- arena invariant: levels still holds the depth_left + 2 entries sized in phase A
                .expect("at least one scratch level");
            for k in 0..root_nodes.len() {
                let Some((next, r1, next_switch)) = branch_next[k] else {
                    // Budget exhausted along this branch: the path ends here.
                    continue;
                };
                // Between first-level branches the accounted prefix has
                // grown by the finished branch's deep contributions;
                // re-test before paying for the next branch's subtree.
                if k > 0 && probe.check(1) {
                    break;
                }
                let node = root_nodes[k];
                let mut cursor = SpeculativeCursor::new(&self.driver.state);
                cursor.push(candidate.id, node.value, node.value <= constraint_cap);
                mask[x_position] = true;
                let charge = speculation_charge(switch);
                if charge > 0.0 {
                    cursor.charge_extra(charge);
                }
                let (r, c) = self.explore(
                    &mut cursor,
                    &branch_models[k],
                    next,
                    r1,
                    next_switch,
                    depth_left,
                    first,
                    rest,
                    mask,
                    memo,
                    &mut probe,
                    self.settings.discount * node.weight,
                    node.weight,
                );
                mask[x_position] = false;
                if probe.cut() {
                    break;
                }
                cost += node.weight * c;
                reward += self.settings.discount * node.weight * r;
            }
        }
        if let Some(depth) = probe.cut_depth {
            // The abandoned expansion still measured part of its deep tail
            // exactly; publishing that partial tail can only raise the
            // shared anchor toward the true tail scale, keeping later
            // candidates' bounds as well-fed as full expansion would have.
            let tail = probe.measured_tail();
            if tail > 0.0 {
                // ordering: Relaxed — monotone fetch_max publication; the u64
                // key is the whole message, missed updates only weaken pruning.
                observed_tail.fetch_max(score_key(tail), Ordering::Relaxed);
            }
            return CandidateOutcome::CutDeep { depth };
        }
        let score = reward / cost.max(MIN_STEP_COST);
        if !score.is_nan() {
            // ordering: Relaxed — monotone fetch_max publication of a
            // self-contained u64 score key; staleness only weakens pruning.
            incumbent.fetch_max(score_key(score), Ordering::Relaxed);
        }
        // Publish the measured deep tail (what the deep recursion added on
        // top of the exact first level) as the decision's shared anchor —
        // but only a *positive* one: a zero tail (every branch died early)
        // would anchor the allowance `κ·T` at zero and strip later
        // candidates of any tail headroom, the opposite of what an anchor
        // is for. Until some candidate measures a positive tail, everyone
        // keeps expanding unconditionally.
        let tail = reward - exact_reward;
        if tail > 0.0 {
            // ordering: Relaxed — monotone fetch_max publication; the u64
            // key is the whole message, missed updates only weaken pruning.
            observed_tail.fetch_max(score_key(tail), Ordering::Relaxed);
        }
        CandidateOutcome::Scored(score)
    }

    /// The overlay-based transcription of `ExplorePaths`: reward and cost of
    /// the path that continues by speculatively profiling `x` (whose
    /// prediction and EIc come from `level`, the already-evaluated scratch of
    /// the cursor's current state).
    ///
    /// `switch` is the switching charge `χ → x` at the cursor's current
    /// state, computed by the caller at the selection site (every selected
    /// step's charge is needed there anyway — by phase A's exact sums and
    /// by the probe's accounting — so handing it down avoids querying the
    /// switching model twice per step).
    ///
    /// `probe` is the in-search pruning state of the enclosing candidate
    /// (inactive when pruning is off): every selected step accounts its
    /// exact contributions — scaled to candidate-total units by
    /// `reward_scale`/`cost_scale`, the products of `γ·w` and `w` along the
    /// prefix — and re-tests the bound. The accounting is a side channel:
    /// the returned `(reward, cost)` are accumulated exactly as with pruning
    /// off, so scores stay bit-identical; on a cut the
    /// return value is meaningless and callers at every level unwind (each
    /// popping its own cursor frame and mask bit) without folding it in.
    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        cursor: &mut SpeculativeCursor<'_>,
        model: &BaggingEnsemble,
        x: Member,
        eic_x: f64,
        switch: f64,
        depth_left: usize,
        level: &mut Scratch,
        deeper: &mut [Scratch],
        mask: &mut [bool],
        memo: &mut RowValueMemo,
        probe: &mut DeepPrune<'_>,
        reward_scale: f64,
        cost_scale: f64,
    ) -> (f64, f64) {
        let mut reward = eic_x;
        let mut cost = (x.prediction.mean + switch).max(MIN_STEP_COST);
        if depth_left == 0 {
            return (reward, cost);
        }

        self.rule.discretize_clamped_into(
            x.prediction.mean,
            x.prediction.std,
            MIN_STEP_COST,
            &mut level.nodes,
        );
        let constraint_cap = self.driver.constraint_cost_cap(x.id);
        // `level.nodes` would be clobbered by deeper recursion levels writing
        // into their own scratch — but each level owns its scratch, so moving
        // the node list out is unnecessary; the recursion only touches
        // `deeper`.
        for node_index in 0..level.nodes.len() {
            let node = level.nodes[node_index];
            cursor.push(x.id, node.value, node.value <= constraint_cap);
            mask[x.index] = true;
            // The speculated β pays the switch `χ → x` too (same charge
            // order as `Driver::try_profile`), saturated against non-finite
            // model outputs like every other speculation site.
            let charge = speculation_charge(switch);
            if charge > 0.0 {
                cursor.charge_extra(charge);
            }
            let next_model = model.refit_with(&[(self.driver.features_of(x.id), node.value)]);
            let (child, grandchildren) = deeper
                .split_first_mut()
                // lint: allow(no-panic) -- arena invariant: the entry sizing reserved depth_left + 2 levels, one per recursion step
                .expect("scratch levels cover the lookahead depth");
            let y_star = self.eval_state(cursor, &next_model, child, mask, memo);
            if let Some((next, next_eic)) = self.select_next(
                child,
                mask,
                cursor.current(),
                y_star,
                cursor.remaining_budget(),
            ) {
                let child_rs = reward_scale * self.settings.discount * node.weight;
                let child_cs = cost_scale * node.weight;
                // The selected step's switching charge, computed once here
                // and handed to the recursion below (which folds the
                // identical `c₁` expression into its own return value).
                let next_switch = self.switching.cost(cursor.current(), next.id);
                if probe.active() {
                    // The selected step's exact first-step reward and cost
                    // are known now; fold them into the accounted prefix
                    // and re-test the in-search bound before paying for
                    // the subtree underneath.
                    let c1 = (next.prediction.mean + next_switch).max(MIN_STEP_COST);
                    probe.account(child_rs * next_eic, child_cs * c1);
                    if probe.check(cursor.depth()) {
                        cursor.pop();
                        mask[x.index] = false;
                        return (reward, cost);
                    }
                }
                let (r, c) = self.explore(
                    cursor,
                    &next_model,
                    next,
                    next_eic,
                    next_switch,
                    depth_left - 1,
                    child,
                    grandchildren,
                    mask,
                    memo,
                    probe,
                    child_rs,
                    child_cs,
                );
                if probe.cut() {
                    cursor.pop();
                    mask[x.index] = false;
                    return (reward, cost);
                }
                cost += node.weight * c;
                reward += self.settings.discount * node.weight * r;
            }
            // Budget exhausted along this branch: the path ends here.
            cursor.pop();
            mask[x.index] = false;
        }
        (reward, cost)
    }
}

/// What one scheduling turn of a [`LynceusSession`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionStep {
    /// One configuration was profiled (bootstrap or decision run).
    Profiled(ConfigId),
    /// The optimization is complete: no candidate fits the remaining budget.
    Done,
}

/// The warm-start anchors a session carries across decisions — and, through
/// the knowledge layer ([`crate::transfer`]), across runs of a recurring
/// job. All zeros for a cold session, which reproduces the pre-transfer
/// behaviour exactly.
///
/// Only the *tail* anchor feeds back into pruning: tails decay as Σ grows,
/// so a stale anchor errs high and the bounds built from it stay
/// admissible. The incumbent key is harvested for statistics and as
/// feasibility evidence (arming the `prunable` guard from decision one) —
/// it is never preloaded into the incumbent cell, where staleness would
/// over-prune.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WarmAnchors {
    /// Prior evidence that a feasible configuration exists (prior run
    /// observed one under the current `tmax`): arms pruning immediately.
    pub(crate) feasible_prior: bool,
    /// The prior **run's** tail anchor, preloaded into every decision's
    /// tail cell. Constant within a run — a cold session's zero reproduces
    /// the pre-transfer per-decision relearning exactly, and a warm
    /// session's decisions stay bit-identical in prune *behaviour* to the
    /// guarantees the cross-engine suites pin.
    pub(crate) tail_preload: u64,
    /// The latest decision's incumbent cell this run (statistics and
    /// feasibility evidence only — never preloaded).
    pub(crate) harvest_incumbent: u64,
    /// The latest decision's tail cell (the cell is seeded with the
    /// preload, so this never drops below the prior anchor): the next
    /// run's `tail_preload`.
    pub(crate) harvest_tail: u64,
}

/// How a [`LynceusSession`] holds its optimizer: borrowed for the standalone
/// `optimize()` path, owned for the service's registry sessions (which must
/// be `'static` and [`Send`] so scheduler lanes can step them from any
/// thread).
pub(crate) enum OptimizerHandle<'a> {
    Borrowed(&'a LynceusOptimizer),
    Owned(Box<LynceusOptimizer>),
}

impl OptimizerHandle<'_> {
    fn get(&self) -> &LynceusOptimizer {
        match self {
            OptimizerHandle::Borrowed(optimizer) => optimizer,
            OptimizerHandle::Owned(optimizer) => optimizer.as_ref(),
        }
    }
}

/// One in-flight Lynceus optimization, advanced one profiling run at a time.
///
/// [`LynceusOptimizer::optimize`] is exactly `new` + `step` to completion +
/// `finish`; the stepped form exists so the multi-session
/// [`crate::service::TuningService`] can interleave many sessions on one
/// concurrent scheduler while each session's own sequence of random draws,
/// model refits and profiling runs stays identical to a standalone run —
/// which is what makes multiplexed reports bit-identical to solo reports.
///
/// The owned form ([`LynceusSession::owned`]) is self-contained (`'static`)
/// and `Send`: the scheduler checks a session out of its registry, steps it
/// on whichever lane thread picked it up, and puts it back — per-session
/// state (RNG, surrogate, decision arena) moves with the session, so no
/// interleaving can leak state across sessions.
pub(crate) struct LynceusSession<'a> {
    optimizer: OptimizerHandle<'a>,
    driver: Driver<'a>,
    rng: SeededRng,
    constraint_models: ConstraintModels,
    /// Pending LHS bootstrap samples, consumed one per step.
    bootstrap_plan: VecDeque<Vec<usize>>,
    // Decision-loop caches: the Gauss–Hermite rule of the configured size,
    // the budget-filter quantile, and (overlay engines) the root surrogate
    // extended incrementally with each newly profiled sample (bit-identical
    // to refitting from scratch, see `BaggingEnsemble::refit_with`).
    rule: GaussHermiteRule,
    z: f64,
    model: BaggingEnsemble,
    model_len: usize,
    // Durability bookkeeping: the session seed (checkpoints re-derive the
    // session from it), the profiling-step counter, the receipt trail and
    // the fault/retry tallies accumulated since the last receipt.
    seed: u64,
    steps: u64,
    receipts: Vec<DecisionReceipt>,
    pending_faults: u32,
    pending_retries: u32,
    attempts_used: u32,
    // Cross-run transfer: the knowledge record attached at admission (its
    // observations are already replayed into `Σ`; kept so the terminal
    // harvest extends it and the checkpoint round-trips it), and the warm
    // anchors threaded through the branch-and-bound engine.
    prior: Option<JobKnowledge>,
    warm: WarmAnchors,
}

impl<'a> LynceusSession<'a> {
    pub(crate) fn new(
        optimizer: &'a LynceusOptimizer,
        oracle: &'a dyn CostOracle,
        seed: u64,
    ) -> Self {
        let driver = Driver::new(oracle, &optimizer.settings, seed);
        Self::from_parts(OptimizerHandle::Borrowed(optimizer), driver, seed)
    }

    /// A self-contained session owning both its optimizer and its oracle:
    /// `'static` and `Send`, so the service scheduler can store it in a
    /// registry and step it from any lane thread.
    pub(crate) fn owned(
        optimizer: LynceusOptimizer,
        oracle: Box<dyn CostOracle>,
        seed: u64,
    ) -> LynceusSession<'static> {
        let driver = Driver::owned(oracle, &optimizer.settings, seed);
        LynceusSession::from_parts(OptimizerHandle::Owned(Box::new(optimizer)), driver, seed)
    }

    /// [`LynceusSession::owned`] warm-started from a recurring job's
    /// knowledge: the prior observations are replayed into `Σ` (no budget
    /// or oracle charges), the LHS bootstrap shrinks by the replayed count,
    /// the surrogate extends the prior run's fits bit-identically
    /// ([`BaggingEnsemble::warm_from`] under the job's stable ensemble
    /// seed), and the branch-and-bound tail anchor is preloaded so pruning
    /// bites from decision one.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the prior references non-candidate or
    /// duplicate configurations or violates the knowledge float policy.
    pub(crate) fn owned_warm(
        optimizer: LynceusOptimizer,
        oracle: Box<dyn CostOracle>,
        seed: u64,
        prior: JobKnowledge,
    ) -> Result<LynceusSession<'static>, CodecError> {
        let mut driver = Driver::owned(oracle, &optimizer.settings, seed);
        driver.replay_prior(&prior.observations)?;
        driver.set_model_seed(prior.ensemble_seed);
        Ok(LynceusSession::from_parts_warm(
            OptimizerHandle::Owned(Box::new(optimizer)),
            driver,
            seed,
            Some(prior),
        ))
    }

    fn from_parts(optimizer: OptimizerHandle<'a>, driver: Driver<'a>, seed: u64) -> Self {
        Self::from_parts_warm(optimizer, driver, seed, None)
    }

    /// Shared constructor; `prior`'s observations must already be replayed
    /// into the driver when present.
    fn from_parts_warm(
        optimizer: OptimizerHandle<'a>,
        driver: Driver<'a>,
        seed: u64,
        prior: Option<JobKnowledge>,
    ) -> Self {
        let settings = &optimizer.get().settings;
        // The driver carries its own settings copy (it must own one to be
        // 'static for the service registry); the engine reads the
        // optimizer's. Both are cloned from the same value before any
        // stepping, and nothing may mutate either afterwards — a future
        // post-construction settings setter would break this invariant and
        // trips here.
        debug_assert_eq!(
            &driver.settings, settings,
            "driver and optimizer settings diverged"
        );
        let mut rng = SeededRng::new(seed);
        let constraint_models = ConstraintModels::new(
            &settings.secondary_constraints,
            settings.ensemble_size,
            seed,
        );
        let replayed = prior.as_ref().map_or(0, |p| p.observations.len());
        let bootstrap_plan: VecDeque<Vec<usize>> =
            driver.bootstrap_plan_shrunk(&mut rng, replayed).into();
        let rule = GaussHermiteRule::new(settings.gauss_hermite_nodes);
        let z = budget_filter_z(settings.budget_confidence);
        // A warm session's surrogate extends the prior run's fits under the
        // job's stable ensemble seed (already installed as the driver's
        // model seed) — bit-identical to a from-scratch fit on the union
        // (the Poisson resample counts are counter-based).
        let (model, model_len, warm) = match prior.as_ref().filter(|p| !p.observations.is_empty()) {
            Some(p) => {
                let tested = driver.state.tested();
                let rows: Vec<(&[f64], f64)> = tested
                    .iter()
                    .map(|t| (driver.features_of(t.id), t.cost))
                    .collect();
                let model =
                    BaggingEnsemble::warm_from(settings.ensemble_size, driver.model_seed(), &rows);
                let warm = WarmAnchors {
                    feasible_prior: tested.iter().any(|t| t.feasible),
                    tail_preload: p.last_tail_key,
                    harvest_incumbent: 0,
                    harvest_tail: p.last_tail_key,
                };
                (model, tested.len(), warm)
            }
            None => {
                let model = BaggingEnsemble::with_seed(settings.ensemble_size, driver.model_seed());
                (model, 0, WarmAnchors::default())
            }
        };
        Self {
            optimizer,
            driver,
            rng,
            constraint_models,
            bootstrap_plan,
            rule,
            z,
            model,
            model_len,
            seed,
            steps: 0,
            receipts: Vec::new(),
            pending_faults: 0,
            pending_retries: 0,
            attempts_used: 0,
            prior,
            warm,
        }
    }

    /// The optimizer driving this session.
    pub(crate) fn optimizer(&self) -> &LynceusOptimizer {
        self.optimizer.get()
    }

    /// Runs one profiling step: the next bootstrap sample while the plan
    /// lasts, then one decision of the configured engine. A misbehaving
    /// oracle or switching model surfaces as a [`ProfileError`] with the
    /// session state untouched by the failed run — including the RNG and
    /// the bootstrap plan, so re-calling `step` after a transient fault
    /// replays the identical attempt (the retry transparency the service's
    /// [`crate::service::RetryPolicy`] relies on).
    pub(crate) fn step(&mut self) -> Result<SessionStep, ProfileError> {
        let optimizer = self.optimizer.get();
        let switching = optimizer.switching.as_ref();
        let budget_before = self.driver.state.budget().remaining();
        while let Some(sample) = self.bootstrap_plan.front().cloned() {
            // `bootstrap_step` may advance the RNG (random fallback draw)
            // before the profiling run; snapshot it so a faulted run leaves
            // no trace and the retry draws the same stream.
            let rng_before = self.rng.clone();
            match self
                .driver
                .bootstrap_step(&sample, &mut self.rng, switching)
            {
                Ok(Some(id)) => {
                    self.bootstrap_plan.pop_front();
                    self.emit_receipt(id, true, 0, budget_before, (0, 0, 0));
                    return Ok(SessionStep::Profiled(id));
                }
                Ok(None) => {
                    // Untested set exhausted: drop the rest of the plan and
                    // fall through to the decision loop (which will stop).
                    self.bootstrap_plan.clear();
                }
                Err(error) => {
                    self.rng = rng_before;
                    return Err(error);
                }
            }
        }

        if !self.constraint_models.is_empty() {
            self.constraint_models
                .fit(self.driver.oracle().space(), self.driver.observed_metrics());
        }
        let prune_before = optimizer.prune_stats();
        let (id, gamma_size) = match optimizer.engine {
            PathEngine::Batched | PathEngine::BoundAndPrune => {
                let tested = self.driver.state.tested();
                if tested.len() > self.model_len {
                    let extra: Vec<(&[f64], f64)> = tested[self.model_len..]
                        .iter()
                        .map(|t| (self.driver.features_of(t.id), t.cost))
                        .collect();
                    self.model = self.model.refit_with(&extra);
                    self.model_len = tested.len();
                }
                // The Driver owns the decision arena so it survives across
                // decisions; taking it out for the call keeps the borrows
                // disjoint and moves only empty-capacity-preserving `Vec`
                // headers.
                let mut scratch = std::mem::take(&mut self.driver.decision_scratch);
                let id = optimizer.next_config_pruned(
                    &self.driver,
                    &self.constraint_models,
                    &self.model,
                    &self.rule,
                    self.z,
                    &mut scratch,
                    &mut self.warm,
                );
                let gamma_size = scratch.last_gamma;
                self.driver.decision_scratch = scratch;
                (id, gamma_size)
            }
            PathEngine::NaiveReference => {
                optimizer.next_config_naive(&self.driver, &self.constraint_models, self.z)
            }
        };
        let Some(id) = id else {
            return Ok(SessionStep::Done);
        };
        // A faulted decision run is transparent too: `try_profile` records
        // and charges nothing on the `Err` path, the engine selection is a
        // deterministic recomputation, and the decision loop draws no RNG.
        self.driver.try_profile(id, false, switching)?;
        let prune_after = optimizer.prune_stats();
        // Saturating: `reset_prune_stats` may race this decision when the
        // optimizer is shared across threads, shrinking the counters between
        // the two snapshots. The receipt then under-reports that one step
        // instead of underflowing.
        let deltas = (
            prune_after
                .candidates
                .saturating_sub(prune_before.candidates),
            prune_after.pruned.saturating_sub(prune_before.pruned),
            prune_after
                .deep_pruned()
                .saturating_sub(prune_before.deep_pruned()),
        );
        self.emit_receipt(id, false, gamma_size, budget_before, deltas);
        Ok(SessionStep::Profiled(id))
    }

    /// Appends the audit record of a just-profiled step and consumes the
    /// fault/retry tallies accumulated since the previous receipt.
    fn emit_receipt(
        &mut self,
        chosen: ConfigId,
        bootstrap: bool,
        gamma_size: usize,
        budget_before: f64,
        (candidates, pruned, deep_pruned): (u64, u64, u64),
    ) {
        self.receipts.push(DecisionReceipt {
            step: self.steps,
            chosen,
            bootstrap,
            gamma_size: gamma_size as u64,
            incumbent: self.driver.state.best_feasible().map(|t| t.cost),
            budget_before,
            budget_after: self.driver.state.budget().remaining(),
            candidates,
            pruned,
            deep_pruned,
            faults_observed: std::mem::take(&mut self.pending_faults),
            retries_consumed: std::mem::take(&mut self.pending_retries),
        });
        self.steps += 1;
    }

    /// The decision arena (for the scratch-reuse assertions in the tests).
    #[cfg(test)]
    pub(crate) fn decision_scratch(&self) -> &DecisionScratch {
        &self.driver.decision_scratch
    }

    /// Builds the final report from whatever has been profiled so far (also
    /// used to produce the partial report of a failed session).
    pub(crate) fn finish(self, optimizer_name: &str) -> OptimizationReport {
        self.driver.finish(optimizer_name)
    }

    /// Number of profiling steps completed so far.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Takes the receipt trail out of the session (for delivery with the
    /// session outcome).
    pub(crate) fn take_receipts(&mut self) -> Vec<DecisionReceipt> {
        std::mem::take(&mut self.receipts)
    }

    /// Retry attempts consumed across the session's lifetime (checkpointed,
    /// so a restored session cannot reset its retry budget).
    pub(crate) fn attempts_used(&self) -> u32 {
        self.attempts_used
    }

    /// Records one recovered fault: a fault was observed, a retry attempt
    /// was consumed, and the next receipt will carry both tallies.
    pub(crate) fn note_recovery(&mut self) {
        self.pending_faults += 1;
        self.pending_retries += 1;
        self.attempts_used += 1;
    }

    /// Charges the retry surcharge against the session budget `β` (retries
    /// are never free when the policy prices them; a zero surcharge charges
    /// nothing, keeping recovered runs bit-identical to fault-free ones).
    pub(crate) fn charge_retry(&mut self, cost: f64) {
        if cost > 0.0 {
            self.driver.state.charge_extra(cost);
        }
    }

    /// The knowledge record this run leaves behind for the job's next run:
    /// the attached prior extended with this run's (policy-clean)
    /// explorations, the run counter bumped, and the warm anchors replaced
    /// by this run's harvest. `None` when the session was admitted without
    /// a job key.
    pub(crate) fn harvest_knowledge(&self) -> Option<JobKnowledge> {
        let mut knowledge = self.prior.clone()?;
        knowledge.runs += 1;
        for e in &self.driver.explorations {
            let o = &e.observation;
            // The knowledge float policy is enforced at harvest too, so a
            // weird-but-tolerated live observation (e.g. a NaN runtime the
            // session merely marked infeasible) never poisons the record.
            let clean = o.runtime_seconds.is_finite()
                && o.runtime_seconds >= 0.0
                && o.cost.is_finite()
                && o.cost >= 0.0
                && o.metrics.iter().all(|m| m.is_finite());
            if clean {
                knowledge.observations.push(PriorObservation {
                    id: e.id,
                    runtime_seconds: o.runtime_seconds,
                    cost: o.cost,
                    metrics: o.metrics.clone(),
                });
            }
        }
        knowledge.last_incumbent_key = self.warm.harvest_incumbent;
        knowledge.last_tail_key = self.warm.harvest_tail;
        Some(knowledge)
    }

    /// Serializes the session's full durable state at a decision boundary.
    pub(crate) fn encode_checkpoint(&self) -> Vec<u8> {
        let state = &self.driver.state;
        SessionCheckpoint {
            seed: self.seed,
            steps: self.steps,
            attempts_used: self.attempts_used,
            pending_faults: self.pending_faults,
            pending_retries: self.pending_retries,
            rng_state: self.rng.state(),
            bootstrap_plan: self.bootstrap_plan.iter().cloned().collect(),
            tested: state.tested().to_vec(),
            untested: state.untested().to_vec(),
            budget_initial: state.budget().initial(),
            budget_remaining: state.budget().remaining(),
            current: state.current(),
            explorations: self.driver.explorations.clone(),
            receipts: self.receipts.clone(),
            oracle_state: self.driver.oracle().durable_state(),
            prior: self.prior.clone(),
            harvest_incumbent_key: self.warm.harvest_incumbent,
            harvest_tail_key: self.warm.harvest_tail,
        }
        .encode()
    }

    /// Rebuilds a self-contained session from a checkpoint. The optimizer
    /// and oracle are reconstructed by the caller exactly as at submission;
    /// everything history-dependent comes from the checkpoint. The surrogate
    /// is left unfitted with `model_len = 0` — the first decision refits the
    /// whole checkpointed training set, which is bit-identical to the
    /// incremental refits of the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the bytes do not decode, describe
    /// configurations outside the oracle's space, carry an out-of-range
    /// budget, or the oracle rejects its durable state.
    pub(crate) fn owned_from_checkpoint(
        optimizer: LynceusOptimizer,
        oracle: Box<dyn CostOracle>,
        bytes: &[u8],
    ) -> Result<LynceusSession<'static>, CodecError> {
        let checkpoint = SessionCheckpoint::decode(bytes)?;
        let universe = oracle.space().len();
        let id_ok = |id: ConfigId| id.index() < universe;
        if !checkpoint.tested.iter().all(|t| id_ok(t.id))
            || !checkpoint.untested.iter().all(|&id| id_ok(id))
            || !checkpoint.explorations.iter().all(|e| id_ok(e.id))
            || !checkpoint.current.is_none_or(id_ok)
        {
            return Err(CodecError::Invalid(
                "checkpoint references configurations outside the space",
            ));
        }
        if checkpoint.budget_initial.is_nan()
            || checkpoint.budget_initial < 0.0
            || checkpoint.budget_remaining.is_nan()
            || checkpoint.budget_remaining > checkpoint.budget_initial
        {
            return Err(CodecError::Invalid("checkpoint budget out of range"));
        }
        if !checkpoint
            .tested
            .iter()
            .all(|t| t.cost.is_finite() && t.cost >= 0.0)
        {
            return Err(CodecError::Invalid(
                "checkpoint training costs out of range",
            ));
        }
        if let Some(state) = &checkpoint.oracle_state {
            if !oracle.restore_durable_state(state) {
                return Err(CodecError::Invalid(
                    "oracle rejected its checkpointed durable state",
                ));
            }
        }
        let mut session = LynceusSession::owned(optimizer, oracle, checkpoint.seed);
        let budget = Budget::from_parts(checkpoint.budget_initial, checkpoint.budget_remaining);
        let state = SearchState::from_parts(
            checkpoint.tested,
            checkpoint.untested,
            budget,
            checkpoint.current,
        );
        // A warm session's checkpoint carries the attached prior verbatim:
        // the resume replays its metric rows ahead of the explorations
        // (matching the live construction order), rebuilds the unfitted
        // surrogate under the job's stable ensemble seed — the first
        // decision's whole-set refit is then bit-identical to the warm
        // chain — and restores the ratcheted anchors, so a killed warm
        // session resumes and harvests bit-identically even if the
        // knowledge store mutated underneath it.
        match &checkpoint.prior {
            Some(prior) => {
                if !prior.observations.iter().all(|o| id_ok(o.id)) {
                    return Err(CodecError::Invalid(
                        "checkpoint prior references configurations outside the space",
                    ));
                }
                session.driver.restore_with_prior(
                    state,
                    checkpoint.explorations,
                    &prior.observations,
                );
                session.driver.set_model_seed(prior.ensemble_seed);
                session.model = BaggingEnsemble::with_seed(
                    session.optimizer.get().settings.ensemble_size,
                    prior.ensemble_seed,
                );
                session.warm = WarmAnchors {
                    feasible_prior: prior.feasible_count(session.driver.settings.tmax_seconds) > 0,
                    tail_preload: prior.last_tail_key,
                    harvest_incumbent: checkpoint.harvest_incumbent_key,
                    harvest_tail: checkpoint.harvest_tail_key,
                };
            }
            None => session.driver.restore(state, checkpoint.explorations),
        }
        session.prior = checkpoint.prior;
        session.rng = SeededRng::from_state(checkpoint.rng_state);
        session.bootstrap_plan = checkpoint.bootstrap_plan.into_iter().collect();
        session.steps = checkpoint.steps;
        session.attempts_used = checkpoint.attempts_used;
        session.pending_faults = checkpoint.pending_faults;
        session.pending_retries = checkpoint.pending_retries;
        session.receipts = checkpoint.receipts;
        Ok(session)
    }

    /// Takes a self-contained session apart into its optimizer and oracle,
    /// so the service can rebuild it from a checkpoint after a contained
    /// panic left the in-memory state untrustworthy. `None` for borrowed
    /// sessions (the standalone `optimize()` path never dismantles).
    pub(crate) fn dismantle(self) -> Option<(LynceusOptimizer, Box<dyn CostOracle>)> {
        let LynceusSession {
            optimizer, driver, ..
        } = self;
        let oracle = driver.into_oracle()?;
        match optimizer {
            OptimizerHandle::Owned(optimizer) => Some((*optimizer, oracle)),
            OptimizerHandle::Borrowed(_) => None,
        }
    }
}

impl Optimizer for LynceusOptimizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn optimize(&self, oracle: &dyn CostOracle, seed: u64) -> OptimizationReport {
        let mut session = LynceusSession::new(self, oracle, seed);
        loop {
            match session.step() {
                Ok(SessionStep::Profiled(_)) => {}
                Ok(SessionStep::Done) => break,
                // The standalone entry point has no failure channel; the
                // service drives sessions through `LynceusSession` directly
                // and recovers instead.
                Err(e) => panic!("{e}"),
            }
        }
        session.finish(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TableOracle;
    use lynceus_space::SpaceBuilder;

    /// A small 2-d cost surface with a narrow valley.
    fn valley_oracle() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", (0..10).map(f64::from))
            .numeric("y", (0..4).map(f64::from))
            .build();
        TableOracle::from_fn(space, 1.0, |f| {
            20.0 + (f[0] - 6.0).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 8.0
        })
    }

    fn settings(budget: f64, lookahead: usize) -> OptimizerSettings {
        OptimizerSettings {
            budget,
            tmax_seconds: 1e6,
            bootstrap_samples: Some(5),
            lookahead,
            gauss_hermite_nodes: 3,
            ..OptimizerSettings::default()
        }
    }

    #[test]
    fn finds_a_near_optimal_configuration() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(1_500.0, 1));
        let report = optimizer.optimize(&oracle, 3);
        let best = report.recommended_cost.unwrap();
        assert!(best <= 40.0, "Lynceus found {best} (optimum is 20)");
    }

    #[test]
    fn overdraw_is_bounded_by_one_filtered_exploration() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(600.0, 1));
        let report = optimizer.optimize(&oracle, 7);
        // The budget filter is probabilistic (`P(c ≤ β) ≥ 0.99`), so a run
        // whose cost the surrogate underestimates can overshoot — but every
        // post-bootstrap run starts only if the model says it fits the
        // *remaining* budget, so the overdraw can never exceed the cost of
        // the final exploration, and the loop stops immediately after.
        let last_cost = report
            .explorations
            .last()
            .map_or(0.0, |e| e.observation.cost);
        assert!(
            report.budget_spent <= 600.0 + last_cost + 1e-9,
            "spent {} with budget 600 and final run {last_cost}",
            report.budget_spent
        );
    }

    #[test]
    fn lookahead_zero_is_the_cost_aware_myopic_variant() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(800.0, 0));
        assert_eq!(optimizer.name(), "Lynceus[LA=0]");
        let report = optimizer.optimize(&oracle, 5);
        assert!(report.feasible_found());
    }

    #[test]
    fn names_render_the_actual_lookahead_depth() {
        let optimizer = LynceusOptimizer::new(settings(100.0, 2));
        assert_eq!(optimizer.name(), "Lynceus");
        let optimizer = LynceusOptimizer::with_lookahead(settings(100.0, 2), 1);
        assert_eq!(optimizer.name(), "Lynceus[LA=1]");
        assert_eq!(optimizer.settings().lookahead, 1);
        // Depths beyond the paper's default are reachable now that the
        // branch-and-bound engine makes them affordable; the name must say
        // which one is running instead of a catch-all "LA>2".
        for depth in [3usize, 4, 7] {
            let optimizer = LynceusOptimizer::with_lookahead(settings(100.0, 2), depth);
            assert_eq!(optimizer.name(), format!("Lynceus[LA={depth}]"));
        }
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(500.0, 1));
        assert_eq!(
            optimizer.optimize(&oracle, 9),
            optimizer.optimize(&oracle, 9)
        );
    }

    #[test]
    fn parallel_and_sequential_path_evaluation_agree() {
        let oracle = valley_oracle();
        let mut s = settings(500.0, 1);
        s.parallel_paths = true;
        let parallel = LynceusOptimizer::new(s.clone()).optimize(&oracle, 13);
        s.parallel_paths = false;
        let sequential = LynceusOptimizer::new(s).optimize(&oracle, 13);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn all_three_engines_make_identical_decisions() {
        let oracle = valley_oracle();
        for lookahead in 0..=2 {
            for seed in [1, 5, 9] {
                let s = settings(700.0, lookahead);
                let pruned = LynceusOptimizer::new(s.clone()).optimize(&oracle, seed);
                let batched = LynceusOptimizer::new(s.clone())
                    .with_engine(PathEngine::Batched)
                    .optimize(&oracle, seed);
                let naive = LynceusOptimizer::new(s)
                    .with_engine(PathEngine::NaiveReference)
                    .optimize(&oracle, seed);
                assert_eq!(
                    pruned, batched,
                    "bound-and-prune diverged from exhaustive at LA={lookahead}, seed {seed}"
                );
                assert_eq!(
                    batched, naive,
                    "engines diverged at LA={lookahead}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn pruning_skips_candidates_and_reports_stats() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(1_500.0, 2));
        assert_eq!(optimizer.prune_stats(), PruneStats::default());
        let report = optimizer.optimize(&oracle, 3);
        let stats = optimizer.prune_stats();
        assert!(stats.decisions > 0, "no lookahead decisions were counted");
        assert!(stats.candidates >= stats.pruned);
        assert!(
            stats.pruned > 0,
            "expected at least one pruned candidate over {} candidates",
            stats.candidates
        );
        assert!(stats.pruned_fraction() > 0.0 && stats.pruned_fraction() <= 1.0);
        // The pruned run still matches the exhaustive engine.
        let exhaustive = LynceusOptimizer::new(settings(1_500.0, 2))
            .with_engine(PathEngine::Batched)
            .optimize(&oracle, 3);
        assert_eq!(report, exhaustive);
        optimizer.reset_prune_stats();
        assert_eq!(optimizer.prune_stats(), PruneStats::default());
    }

    #[test]
    fn batched_counts_candidates_but_never_prunes() {
        // Batched is the branch-and-bound expansion with pruning off: its
        // decisions are counted like BoundAndPrune's, with zero prunes.
        let oracle = valley_oracle();
        let optimizer =
            LynceusOptimizer::new(settings(1_500.0, 2)).with_engine(PathEngine::Batched);
        let _ = optimizer.optimize(&oracle, 3);
        let stats = optimizer.prune_stats();
        assert!(stats.decisions > 0 && stats.candidates > 0, "{stats:?}");
        assert_eq!(stats.total_pruned(), 0, "{stats:?}");
    }

    #[test]
    fn per_branch_cuts_fire_at_depth_and_stay_bit_identical() {
        // A long warm run at LA=3: the in-search bound must abandon at
        // least one candidate mid-expansion (the counters say at which
        // depth), and the run must still reproduce the exhaustive engine.
        let oracle = valley_oracle();
        let s = OptimizerSettings {
            budget: 2_500.0,
            tmax_seconds: 1e6,
            bootstrap_samples: Some(5),
            lookahead: 3,
            gauss_hermite_nodes: 3,
            ..OptimizerSettings::default()
        };
        let bnb = LynceusOptimizer::new(s.clone());
        let report = bnb.optimize(&oracle, 3);
        let stats = bnb.prune_stats();
        assert!(
            stats.deep_pruned() > 0,
            "no per-branch cut fired over {} candidates: {stats:?}",
            stats.candidates
        );
        assert!(stats.total_pruned() <= stats.candidates);
        assert!(stats.cut_fraction() >= stats.pruned_fraction());
        assert!(stats.cut_fraction() <= 1.0);
        let exhaustive = LynceusOptimizer::new(s)
            .with_engine(PathEngine::Batched)
            .optimize(&oracle, 3);
        assert_eq!(report, exhaustive);
    }

    #[test]
    fn prune_stats_reset_clears_deep_cut_counters_too() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(1_500.0, 2));
        let _ = optimizer.optimize(&oracle, 3);
        assert!(optimizer.prune_stats().candidates > 0);
        optimizer.reset_prune_stats();
        assert_eq!(optimizer.prune_stats(), PruneStats::default());
        assert_eq!(optimizer.prune_stats().deep_pruned(), 0);
    }

    #[test]
    fn speculation_saturates_non_finite_switching_charges() {
        // A model that *lies* about being free while emitting an infinite
        // charge for switches onto the valley's most expensive corner: the
        // free fast path keeps that corner inside Γ (the filter never sees
        // the cost), so every engine *speculates* it — reaching the
        // speculation charge sites with `+inf` — while its tiny EIc keeps
        // it from ever being profiled for real (which the driver would
        // reject). Pre-saturation, the naive engine's materialized
        // `Budget::charge` panicked on that inf while the overlay engines
        // silently collapsed the speculated β to `-inf`; post-saturation
        // all three engines survive it bit-identically.
        struct LyingFree(ConfigId);
        impl SwitchingCost for LyingFree {
            fn cost(&self, _from: Option<ConfigId>, to: ConfigId) -> f64 {
                if to == self.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
            fn is_free(&self) -> bool {
                true
            }
        }
        let oracle = valley_oracle();
        // The most expensive corner of the valley, located by asking the
        // oracle itself so the test cannot drift from the cost surface.
        let trap = oracle
            .candidates()
            .into_iter()
            .max_by(|&a, &b| oracle.run(a).cost.total_cmp(&oracle.run(b).cost))
            .expect("non-empty space");
        for lookahead in [2usize, 3] {
            let make = |engine| {
                LynceusOptimizer::new(settings(900.0, lookahead))
                    .with_engine(engine)
                    .with_switching_cost(Box::new(LyingFree(trap)))
                    .optimize(&oracle, 5)
            };
            let pruned = make(PathEngine::BoundAndPrune);
            let batched = make(PathEngine::Batched);
            let naive = make(PathEngine::NaiveReference);
            assert_eq!(
                pruned, batched,
                "engines diverged under a non-finite switching model at LA={lookahead}"
            );
            assert_eq!(
                batched, naive,
                "naive engine diverged under a non-finite switching model at LA={lookahead}"
            );
            // The trap was speculated, never profiled; nothing non-finite
            // leaked into the budget bookkeeping.
            assert!(pruned.explorations.iter().all(|e| e.id != trap));
            assert!(pruned.budget_spent.is_finite());
        }
    }

    #[test]
    fn decision_arena_stops_growing_after_the_first_decisions() {
        let oracle = valley_oracle();
        let optimizer = LynceusOptimizer::new(settings(1_500.0, 2));
        let mut session = LynceusSession::new(&optimizer, &oracle, 3);
        let mut signatures = Vec::new();
        while let SessionStep::Profiled(_) = session.step().expect("healthy oracle") {
            signatures.push(session.decision_scratch().capacity_signature());
        }
        // Bootstrap steps never touch the arena; the first decision sizes it
        // for the largest untested set of the run and later (smaller)
        // decisions must reuse those buffers without growing them.
        let decisions: Vec<usize> = signatures.into_iter().filter(|&s| s > 0).collect();
        assert!(
            decisions.len() >= 3,
            "run too short to observe reuse: {decisions:?}"
        );
        let settled = decisions[1];
        assert!(settled > 0);
        for (i, &signature) in decisions.iter().enumerate().skip(2) {
            assert_eq!(
                signature, settled,
                "decision {i} grew the arena: {decisions:?}"
            );
        }
    }

    #[test]
    fn drift_allowance_defaults_and_overrides() {
        let optimizer = LynceusOptimizer::new(settings(100.0, 2));
        assert!((optimizer.drift_allowance() - PRUNE_TAIL_DRIFT).abs() < 1e-12);
        let optimizer = optimizer.with_drift_allowance(1.0);
        assert!((optimizer.drift_allowance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "drift allowance")]
    fn drift_allowance_rejects_nan() {
        let _ = LynceusOptimizer::new(settings(100.0, 2)).with_drift_allowance(f64::NAN);
    }

    #[test]
    fn tight_drift_allowance_prunes_more_and_stays_bit_identical_here() {
        // κ trades pruning power for empirical margin; on this valley the
        // tightest allowance must still reproduce the exhaustive decisions
        // (the broad random-matrix check lives in tests/bound_and_prune.rs).
        let oracle = valley_oracle();
        let s = settings(1_500.0, 2);
        let exhaustive = LynceusOptimizer::new(s.clone())
            .with_engine(PathEngine::Batched)
            .optimize(&oracle, 3);
        let default_kappa = LynceusOptimizer::new(s.clone());
        let report = default_kappa.optimize(&oracle, 3);
        assert_eq!(report, exhaustive);
        let tight = LynceusOptimizer::new(s).with_drift_allowance(1.0);
        assert_eq!(tight.optimize(&oracle, 3), exhaustive);
        assert!(
            tight.prune_stats().pruned >= default_kappa.prune_stats().pruned,
            "a tighter κ must never prune fewer candidates: {:?} vs {:?}",
            tight.prune_stats(),
            default_kappa.prune_stats()
        );
    }

    #[test]
    fn engine_accessor_reports_the_selection() {
        let optimizer = LynceusOptimizer::new(settings(100.0, 1));
        assert_eq!(optimizer.engine(), PathEngine::BoundAndPrune);
        let optimizer = optimizer.with_engine(PathEngine::NaiveReference);
        assert_eq!(optimizer.engine(), PathEngine::NaiveReference);
    }

    #[test]
    fn respects_the_time_constraint_when_recommending() {
        let space = SpaceBuilder::new()
            .numeric("x", (0..16).map(f64::from))
            .build();
        // Runtime shrinks as x grows; cheap-but-slow configurations are
        // infeasible.
        let oracle = TableOracle::from_fn(space, 1.0, |f| 90.0 - f[0] * 5.0);
        let s = OptimizerSettings {
            budget: 2_000.0,
            tmax_seconds: 60.0,
            bootstrap_samples: Some(4),
            lookahead: 1,
            gauss_hermite_nodes: 3,
            ..OptimizerSettings::default()
        };
        let report = LynceusOptimizer::new(s).optimize(&oracle, 2);
        let id = report.recommended.unwrap();
        assert!(oracle.runtime(id) <= 60.0);
    }

    #[test]
    fn budget_filter_subtracts_the_switching_cost() {
        use crate::switching::FnSwitching;

        // Constant-cost surface: every run costs 10, so the fitted model
        // predicts ~10 everywhere and the filter outcome is driven entirely
        // by the budget arithmetic.
        let space = SpaceBuilder::new()
            .numeric("x", (0..8).map(f64::from))
            .build();
        let oracle = TableOracle::from_fn(space, 1.0, |_| 10.0);
        let s = settings(1_000.0, 0);
        let free = LynceusOptimizer::new(s.clone());

        let mut driver = Driver::new(&oracle, &free.settings, 1);
        let mut rng = SeededRng::new(1);
        driver.bootstrap(&mut rng, &FreeSwitching);
        let remaining = driver.state.budget().remaining();
        assert!(remaining > 100.0, "bootstrap left {remaining}");

        // A configuration that is cheap to run but whose switching cost
        // alone overshoots the remaining budget.
        let target = driver.state.untested()[0];
        let expensive = LynceusOptimizer::new(s).with_switching_cost(Box::new(FnSwitching(
            move |_, to: ConfigId| if to == target { remaining } else { 0.0 },
        )));

        let model = free.fit_model(&driver, &driver.state);
        let z = budget_filter_z(free.settings.budget_confidence);
        let gamma_free = free.budget_feasible(&driver, &driver.state, &model, z);
        let gamma_charged = expensive.budget_feasible(&driver, &driver.state, &model, z);

        assert!(
            gamma_free.contains(&target),
            "cheap-to-run config must be admitted when switching is free"
        );
        assert!(
            !gamma_charged.contains(&target),
            "a switch cost of {remaining} on top of a ~10 run must exclude the config from Γ"
        );
        // The filter only tightens for the expensive-to-switch target; every
        // other configuration is unaffected.
        let rest: Vec<ConfigId> = gamma_free
            .iter()
            .copied()
            .filter(|&c| c != target)
            .collect();
        assert_eq!(rest, gamma_charged);
    }

    #[test]
    fn unaffordable_switching_stops_the_loop_after_bootstrap() {
        use crate::switching::FnSwitching;

        let oracle = valley_oracle();
        // Every switch costs far more than the whole budget: once the
        // (unfiltered) bootstrap is done, Γ must come back empty and the
        // optimizer must stop instead of admitting configurations whose
        // switch-inclusive cost can never fit.
        let optimizer = LynceusOptimizer::new(settings(1_500.0, 1)).with_switching_cost(Box::new(
            FnSwitching(|from: Option<ConfigId>, _| if from.is_some() { 1e7 } else { 0.0 }),
        ));
        let report = optimizer.optimize(&oracle, 3);
        assert!(
            report.explorations.iter().all(|e| e.bootstrap),
            "budget filter admitted a run it could not pay the switch for: {:?}",
            report
                .explorations
                .iter()
                .map(|e| (e.id, e.bootstrap))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn engines_agree_under_switching_costs() {
        use crate::switching::FnSwitching;

        // The switching-aware budget accounting (Γ filter and the charges
        // against speculated budgets) must be implemented identically by
        // every engine at every lookahead depth: a per-step charge shifts Γ
        // membership, and any asymmetry would diverge the exploration
        // sequences.
        let oracle = valley_oracle();
        for (seed, lookahead) in [(2, 1), (11, 1), (5, 2)] {
            let make = |engine| {
                LynceusOptimizer::new(settings(900.0, lookahead))
                    .with_engine(engine)
                    .with_switching_cost(Box::new(FnSwitching(
                        |from: Option<ConfigId>, to: ConfigId| match from {
                            Some(f) if f != to => 7.5 + (f.index().abs_diff(to.index())) as f64,
                            _ => 0.0,
                        },
                    )))
                    .optimize(&oracle, seed)
            };
            let pruned = make(PathEngine::BoundAndPrune);
            let batched = make(PathEngine::Batched);
            assert_eq!(
                pruned, batched,
                "bound-and-prune diverged under switching costs at seed {seed}"
            );
            assert_eq!(
                batched,
                make(PathEngine::NaiveReference),
                "engines diverged under switching costs at seed {seed}"
            );
        }
    }

    #[test]
    fn stops_when_no_configuration_fits_the_remaining_budget() {
        let oracle = valley_oracle();
        // Budget barely covers the bootstrap: the main loop must stop almost
        // immediately rather than keep overdrawing.
        let optimizer = LynceusOptimizer::new(settings(120.0, 1));
        let report = optimizer.optimize(&oracle, 1);
        assert!(report.num_explorations() <= 8);
    }

    /// Drives a session to completion and returns its harvested knowledge.
    fn run_to_done(session: &mut LynceusSession<'static>) {
        while let SessionStep::Profiled(_) = session.step().expect("oracle never faults here") {}
    }

    #[test]
    fn warm_anchors_arm_first_decision_pruning_without_changing_decisions() {
        // A tight runtime constraint: only the valley floor is feasible, so
        // a cold session's early decisions carry no feasible observation and
        // the pruning guard stays disarmed — the cold-start waste this warm
        // path removes. Single-threaded dispatch keeps the prune counters
        // deterministic.
        let s = OptimizerSettings {
            tmax_seconds: 24.0,
            parallel_paths: false,
            ..settings(1_500.0, 2)
        };

        // Run 1 of a recurring job: harvest knowledge (incl. a tail anchor
        // and feasible observations under the tight constraint).
        let mut first = LynceusSession::owned_warm(
            LynceusOptimizer::new(s.clone()),
            Box::new(valley_oracle()),
            3,
            JobKnowledge::new("valley", 3),
        )
        .expect("fresh knowledge is valid");
        run_to_done(&mut first);
        let knowledge = first.harvest_knowledge().expect("job key attached");
        assert_eq!(knowledge.runs, 1);
        assert!(!knowledge.observations.is_empty());
        assert!(
            knowledge.last_tail_key > 0,
            "run 1 harvested no tail anchor"
        );
        assert!(knowledge.last_incumbent_key > 0);
        assert!(
            knowledge.feasible_count(s.tmax_seconds) > 0,
            "run 1 never reached the valley floor"
        );

        // A cold session under the same settings: its first model-driven
        // decision lands before any feasible observation, so the guard is
        // disarmed and the whole Γ expands exhaustively — zero prunes.
        let mut cold = LynceusSession::owned(
            LynceusOptimizer::new(s.clone()),
            Box::new(valley_oracle()),
            17,
        );
        let cold_first = loop {
            match cold.step().expect("oracle never faults here") {
                SessionStep::Profiled(_) => {
                    let receipt = cold.receipts.last().expect("step pushed a receipt");
                    if !receipt.bootstrap {
                        break receipt.clone();
                    }
                }
                SessionStep::Done => panic!("cold session finished during bootstrap"),
            }
        };
        assert!(
            cold_first.incumbent.is_none(),
            "seed 17's bootstrap found the valley floor; pick a blinder seed"
        );
        assert_eq!(
            cold_first.pruned + cold_first.deep_pruned,
            0,
            "the guard armed without a feasible observation"
        );

        // Run 2 twice from the same prior: anchors live vs anchors zeroed.
        // Everything else (Σ, surrogate, RNG, budget) is identical, so this
        // isolates exactly what the warm anchors contribute.
        let second = |anchored: bool| {
            let mut session = LynceusSession::owned_warm(
                LynceusOptimizer::new(s.clone()),
                Box::new(valley_oracle()),
                17,
                knowledge.clone(),
            )
            .expect("harvested knowledge is valid");
            if !anchored {
                session.warm = WarmAnchors::default();
            }
            let step = session.step().expect("oracle never faults here");
            let receipt = session.receipts[0].clone();
            (step, receipt)
        };
        let (warm_step, warm_receipt) = second(true);
        let (zeroed_step, zeroed_receipt) = second(false);

        // The prior replay already covers the bootstrap quota: the first
        // step is a model-driven decision, not an LHS sample.
        assert!(!warm_receipt.bootstrap, "bootstrap was not skipped");
        // Anchors influence pruning effort only — never the decision.
        assert_eq!(warm_step, zeroed_step);
        assert_eq!(warm_receipt.chosen, zeroed_receipt.chosen);
        assert_eq!(warm_receipt.candidates, zeroed_receipt.candidates);
        // The satellite claim: the prior run's feasibility evidence arms the
        // guard from decision one, so the warm session prunes immediately
        // where the cold session's disarmed first decision pruned nothing.
        assert!(
            warm_receipt.pruned + warm_receipt.deep_pruned > 0,
            "warm first decision pruned {}+{} of {} candidates",
            warm_receipt.pruned,
            warm_receipt.deep_pruned,
            warm_receipt.candidates,
        );
    }

    #[test]
    fn warm_session_decisions_match_across_engines() {
        // A warm prior must preserve the engine-equivalence guard rail: the
        // replayed Σ and warm surrogate feed all three engines identically,
        // and the anchors (BoundAndPrune-only) never change decisions.
        let s = settings(900.0, 2);
        let mut first = LynceusSession::owned_warm(
            LynceusOptimizer::new(s.clone()),
            Box::new(valley_oracle()),
            5,
            JobKnowledge::new("valley-engines", 5),
        )
        .expect("fresh knowledge is valid");
        run_to_done(&mut first);
        let knowledge = first.harvest_knowledge().expect("job key attached");

        let run = |engine: PathEngine| {
            let mut session = LynceusSession::owned_warm(
                LynceusOptimizer::new(s.clone()).with_engine(engine),
                Box::new(valley_oracle()),
                23,
                knowledge.clone(),
            )
            .expect("harvested knowledge is valid");
            run_to_done(&mut session);
            session.finish("warm")
        };
        let pruned = run(PathEngine::BoundAndPrune);
        let batched = run(PathEngine::Batched);
        let naive = run(PathEngine::NaiveReference);
        assert_eq!(pruned, batched, "warm bound-and-prune diverged");
        assert_eq!(batched, naive, "warm engines diverged");
    }
}
