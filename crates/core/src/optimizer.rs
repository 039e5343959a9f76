//! The optimizer abstraction: settings, reports and the shared driver used by
//! every search strategy.

use crate::budget::Budget;
use crate::codec::CodecError;
use crate::constraints::SecondaryConstraint;
use crate::faults::OracleFault;
use crate::oracle::{CostOracle, Observation};
use crate::state::SearchState;
use crate::switching::SwitchingCost;
use lynceus_learners::{BaggingEnsemble, FeatureMatrix, Surrogate};
use lynceus_math::lhs::latin_hypercube_levels;
use lynceus_math::rng::SeededRng;
use lynceus_space::ConfigId;

/// Settings shared by every optimizer.
///
/// The defaults follow the paper's default configuration (Section 5.2):
/// lookahead 2, discount factor 0.9, an ensemble of 10 random trees, a
/// bootstrap of `max(3%·|C|, dims)` configurations and a 0.99 confidence
/// level for the budget filter. The Gauss–Hermite rule size is not stated in
/// the paper; 4 nodes keeps the lookahead tractable and is configurable.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerSettings {
    /// Total profiling budget `B` in dollars.
    pub budget: f64,
    /// Runtime constraint `Tmax` in seconds.
    pub tmax_seconds: f64,
    /// Number of bootstrap configurations; `None` uses the paper's rule
    /// `max(3%·|C|, dims)`.
    pub bootstrap_samples: Option<usize>,
    /// Lookahead window `LA` (0 = cost-aware but myopic, the paper's LA=0
    /// baseline; ≥1 = long-sighted Lynceus).
    pub lookahead: usize,
    /// Number of Gauss–Hermite nodes `K` used to discretize speculated costs.
    pub gauss_hermite_nodes: usize,
    /// Discount factor `γ` applied to rewards of deeper exploration steps.
    pub discount: f64,
    /// Confidence level of the budget filter `P(c(x) ≤ β) ≥ confidence`.
    pub budget_confidence: f64,
    /// Number of trees in the bagging ensemble surrogate.
    pub ensemble_size: usize,
    /// Evaluate exploration paths in parallel across worker threads.
    pub parallel_paths: bool,
    /// Additional constraints (Section 4.4 extension); empty by default.
    pub secondary_constraints: Vec<SecondaryConstraint>,
}

impl Default for OptimizerSettings {
    fn default() -> Self {
        Self {
            budget: f64::INFINITY,
            tmax_seconds: f64::INFINITY,
            bootstrap_samples: None,
            lookahead: 2,
            gauss_hermite_nodes: 4,
            discount: 0.9,
            budget_confidence: 0.99,
            ensemble_size: 10,
            parallel_paths: true,
            secondary_constraints: Vec::new(),
        }
    }
}

impl OptimizerSettings {
    /// Checks the settings for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidSetting`] describing the first
    /// offending field.
    // The negated comparisons deliberately treat NaN as invalid.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), OptimizerError> {
        if !(self.budget > 0.0) {
            return Err(OptimizerError::InvalidSetting(
                "budget must be positive".into(),
            ));
        }
        if !(self.tmax_seconds > 0.0) {
            return Err(OptimizerError::InvalidSetting(
                "tmax_seconds must be positive".into(),
            ));
        }
        if self.gauss_hermite_nodes == 0 {
            return Err(OptimizerError::InvalidSetting(
                "gauss_hermite_nodes must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.discount) {
            return Err(OptimizerError::InvalidSetting(
                "discount must be within [0, 1]".into(),
            ));
        }
        if !(self.budget_confidence > 0.0 && self.budget_confidence < 1.0) {
            return Err(OptimizerError::InvalidSetting(
                "budget_confidence must be within (0, 1)".into(),
            ));
        }
        if self.ensemble_size == 0 {
            return Err(OptimizerError::InvalidSetting(
                "ensemble_size must be at least 1".into(),
            ));
        }
        if let Some(0) = self.bootstrap_samples {
            return Err(OptimizerError::InvalidSetting(
                "bootstrap_samples must be at least 1 when specified".into(),
            ));
        }
        Ok(())
    }

    /// The number of bootstrap samples for a problem with `candidates`
    /// configurations and `dims` dimensions: the explicit setting if present,
    /// otherwise the paper's `max(⌈3%·|C|⌉, dims)` rule, capped at the number
    /// of candidates.
    #[must_use]
    pub fn bootstrap_count(&self, candidates: usize, dims: usize) -> usize {
        let n = self
            .bootstrap_samples
            .unwrap_or_else(|| ((candidates as f64 * 0.03).ceil() as usize).max(dims));
        n.clamp(1, candidates.max(1))
    }
}

/// Errors reported by the optimizers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizerError {
    /// A settings field is out of range.
    InvalidSetting(String),
    /// The oracle exposes no candidate configurations.
    NoCandidates,
}

impl std::fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerError::InvalidSetting(reason) => write!(f, "invalid setting: {reason}"),
            OptimizerError::NoCandidates => write!(f, "the oracle has no candidate configurations"),
        }
    }
}

impl std::error::Error for OptimizerError {}

/// A recoverable error raised while profiling a configuration: the oracle (or
/// the switching-cost model) produced a value the budget bookkeeping cannot
/// accept. [`Budget::charge`] panics on such input; the driver validates
/// *before* charging so a misbehaving oracle surfaces as a per-session error
/// (see [`crate::service`]) instead of killing the whole process.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The oracle reported a cost that is negative, NaN or infinite.
    InvalidCost {
        /// The configuration that was profiled.
        id: ConfigId,
        /// The unusable cost the oracle reported.
        cost: f64,
    },
    /// The switching-cost model produced a charge that is negative, NaN or
    /// infinite.
    InvalidSwitchingCost {
        /// The configuration deployed before the switch (`None` when nothing
        /// was deployed yet).
        from: Option<ConfigId>,
        /// The configuration being switched to.
        to: ConfigId,
        /// The unusable switching cost the model produced.
        cost: f64,
    },
    /// The profiling run itself failed with a recoverable fault (spot
    /// revocation, transient oracle error). Nothing was recorded or charged;
    /// the service's retry policy decides whether to run it again.
    Fault {
        /// The configuration whose run faulted.
        id: ConfigId,
        /// The fault the oracle reported.
        fault: OracleFault,
    },
}

impl ProfileError {
    /// True when a retry of the same run may succeed (oracle faults), false
    /// for contract violations (unusable costs) where retrying would just
    /// reproduce the bad value.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            ProfileError::Fault { .. } => true,
            ProfileError::InvalidCost { .. } | ProfileError::InvalidSwitchingCost { .. } => false,
        }
    }
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::InvalidCost { id, cost } => write!(
                f,
                "oracle reported an unusable cost {cost} for configuration {}",
                id.index()
            ),
            ProfileError::InvalidSwitchingCost { from, to, cost } => write!(
                f,
                "switching-cost model produced an unusable charge {cost} for {:?} -> {}",
                from.map(ConfigId::index),
                to.index()
            ),
            ProfileError::Fault { id, fault } => write!(
                f,
                "profiling run of configuration {} faulted: {fault}",
                id.index()
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// One profiling run performed during an optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// The configuration that was profiled.
    pub id: ConfigId,
    /// What the oracle reported.
    pub observation: Observation,
    /// True for the initial LHS bootstrap runs.
    pub bootstrap: bool,
}

/// The outcome of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationReport {
    /// Name of the optimizer that produced the report.
    pub optimizer: String,
    /// Every profiling run, in order.
    pub explorations: Vec<Exploration>,
    /// The recommended configuration: the cheapest profiled configuration
    /// whose runtime satisfies `Tmax`. `None` when no profiled configuration
    /// was feasible.
    pub recommended: Option<ConfigId>,
    /// Cost of the recommended configuration.
    pub recommended_cost: Option<f64>,
    /// The budget the run started with.
    pub budget_initial: f64,
    /// Total amount spent on profiling (can exceed the budget slightly for
    /// budget-unaware baselines whose last run overshoots).
    pub budget_spent: f64,
    /// The runtime constraint used.
    pub tmax_seconds: f64,
}

impl OptimizationReport {
    /// Number of profiling runs performed (the paper's NEX metric).
    #[must_use]
    pub fn num_explorations(&self) -> usize {
        self.explorations.len()
    }

    /// True when at least one feasible configuration was found.
    #[must_use]
    pub fn feasible_found(&self) -> bool {
        self.recommended.is_some()
    }

    /// The cheapest *feasible* cost seen after each exploration, in order:
    /// entry `i` covers explorations `0..=i`. `None` while nothing feasible
    /// has been profiled yet. This is the data behind the paper's Figure 7.
    #[must_use]
    pub fn incumbent_trajectory(&self) -> Vec<Option<f64>> {
        let mut best: Option<f64> = None;
        self.explorations
            .iter()
            .map(|e| {
                if e.observation.runtime_seconds <= self.tmax_seconds {
                    best = Some(best.map_or(e.observation.cost, |b| b.min(e.observation.cost)));
                }
                best
            })
            .collect()
    }
}

/// How a [`Driver`] holds its oracle: borrowed for the standalone
/// `optimize()` entry points, owned for the service's long-lived sessions
/// (which outlive the submission call and hop between scheduler threads).
pub(crate) enum OracleHandle<'a> {
    Borrowed(&'a dyn CostOracle),
    Owned(Box<dyn CostOracle>),
}

impl OracleHandle<'_> {
    fn get(&self) -> &dyn CostOracle {
        match self {
            OracleHandle::Borrowed(oracle) => *oracle,
            OracleHandle::Owned(oracle) => oracle.as_ref(),
        }
    }
}

/// The shared optimization driver: bootstrap, profiling, bookkeeping and
/// report generation. Each optimizer plugs its own "pick the next
/// configuration" policy into this scaffold.
pub(crate) struct Driver<'a> {
    oracle: OracleHandle<'a>,
    pub(crate) settings: OptimizerSettings,
    pub(crate) state: SearchState,
    pub(crate) explorations: Vec<Exploration>,
    /// Row-major feature matrix of the whole grid: row `i` is the feature
    /// vector of `ConfigId(i)`. Computed once per run so the surrogate's
    /// batched prediction paths never re-slice or re-derive features.
    features: FeatureMatrix,
    /// Price rates `U(x)` in dollars/second, indexed by `ConfigId::index`.
    price_rates: Vec<f64>,
    /// Metric vectors of profiled configurations (for secondary constraints).
    observed_metrics: Vec<(Vec<f64>, Vec<f64>)>,
    model_seed: u64,
    /// The per-decision arena of the batched / branch-and-bound speculation
    /// engines (prediction buffers, Γ extraction, bound and dispatch
    /// buffers, per-worker scratch recycler). Driver-owned — like the
    /// feature matrix above — so capacities established by the first
    /// decision are reused by every later `select_next` call instead of
    /// being reallocated per decision.
    pub(crate) decision_scratch: crate::lynceus::DecisionScratch,
}

impl<'a> Driver<'a> {
    pub(crate) fn new(oracle: &'a dyn CostOracle, settings: &OptimizerSettings, seed: u64) -> Self {
        Self::build(OracleHandle::Borrowed(oracle), settings, seed)
    }

    /// A driver that owns its oracle, so the resulting `Driver<'static>` can
    /// live in the service's session registry and be stepped from any
    /// scheduler thread.
    pub(crate) fn owned(
        oracle: Box<dyn CostOracle>,
        settings: &OptimizerSettings,
        seed: u64,
    ) -> Driver<'static> {
        Driver::build(OracleHandle::Owned(oracle), settings, seed)
    }

    fn build(oracle: OracleHandle<'a>, settings: &OptimizerSettings, seed: u64) -> Self {
        let space = oracle.get().space();
        let candidates = oracle.get().candidates();
        let features =
            FeatureMatrix::from_rows(space.dims(), space.ids().map(|id| space.features_of(id)));
        // Price rates are only defined for candidate configurations (the grid
        // may be larger than the measured space); non-candidates are never
        // queried.
        let mut price_rates = vec![0.0; space.len()];
        for &id in &candidates {
            price_rates[id.index()] = oracle.get().price_rate(id);
        }
        let state = SearchState::new(candidates, Budget::new(settings.budget));
        Self {
            oracle,
            settings: settings.clone(),
            state,
            explorations: Vec::new(),
            features,
            price_rates,
            observed_metrics: Vec::new(),
            model_seed: seed,
            decision_scratch: crate::lynceus::DecisionScratch::default(),
        }
    }

    /// The oracle this run profiles.
    pub(crate) fn oracle(&self) -> &dyn CostOracle {
        self.oracle.get()
    }

    /// Reclaims an owned oracle from the driver (e.g. to rebuild a session
    /// from a checkpoint after a contained panic). `None` for drivers that
    /// merely borrow their oracle.
    pub(crate) fn into_oracle(self) -> Option<Box<dyn CostOracle>> {
        match self.oracle {
            OracleHandle::Owned(oracle) => Some(oracle),
            OracleHandle::Borrowed(_) => None,
        }
    }

    /// Overwrites the driver's bookkeeping with checkpointed state: the
    /// search state `Σ` and the exploration log are taken verbatim, and the
    /// observed-metrics table (a pure function of the explorations and the
    /// feature matrix) is rebuilt to match. Everything else on the driver —
    /// feature matrix, price rates, settings, model seed — is derived from
    /// the oracle and settings, which the caller reconstructs identically.
    pub(crate) fn restore(&mut self, state: SearchState, explorations: Vec<Exploration>) {
        self.restore_with_prior(state, explorations, &[]);
    }

    /// [`Driver::restore`] for warm sessions: the observed-metrics table is
    /// rebuilt as *replayed prior rows first, then explorations* — the exact
    /// order the live warm run built it in, which constraint-model fits
    /// depend on. (`Σ` already contains the replayed prior configurations;
    /// only the metrics table has to be re-derived here, because prior
    /// observations never enter the exploration log.)
    pub(crate) fn restore_with_prior(
        &mut self,
        state: SearchState,
        explorations: Vec<Exploration>,
        prior: &[crate::transfer::PriorObservation],
    ) {
        self.observed_metrics = prior
            .iter()
            .map(|o| (self.features.row(o.id.index()).to_vec(), o.metrics.clone()))
            .chain(explorations.iter().map(|e| {
                (
                    self.features.row(e.id.index()).to_vec(),
                    e.observation.metrics.clone(),
                )
            }))
            .collect();
        self.state = state;
        self.explorations = explorations;
    }

    /// Replays a prior run's observations into `Σ` and the metrics table —
    /// training points the recurring job already paid for, so no budget
    /// charge, no switching charge and no exploration-log entry. Called
    /// once, before the session's first own step.
    ///
    /// # Errors
    ///
    /// Rejects (driver untouched for the failing entry onward) observations
    /// naming non-candidate or duplicate configurations, or violating the
    /// knowledge float policy — a hand-built prior gets the same scrutiny
    /// as a decoded one.
    pub(crate) fn replay_prior(
        &mut self,
        observations: &[crate::transfer::PriorObservation],
    ) -> Result<(), CodecError> {
        for o in observations {
            if !(o.cost.is_finite()
                && o.cost >= 0.0
                && o.runtime_seconds.is_finite()
                && o.runtime_seconds >= 0.0)
                || o.metrics.iter().any(|m| !m.is_finite())
            {
                return Err(CodecError::Invalid("non-finite prior observation"));
            }
            if !self.state.untested().contains(&o.id) {
                return Err(CodecError::Invalid(
                    "prior observation is not an untested candidate",
                ));
            }
            let feasible = o.runtime_seconds <= self.settings.tmax_seconds;
            self.state.replay(o.id, o.cost, feasible);
            self.observed_metrics
                .push((self.features.row(o.id.index()).to_vec(), o.metrics.clone()));
        }
        Ok(())
    }

    /// Feature vector of a configuration (cached).
    pub(crate) fn features_of(&self, id: ConfigId) -> &[f64] {
        self.features.row(id.index())
    }

    /// The precomputed feature matrix of the whole grid (row `i` =
    /// `ConfigId(i)`), the backing store of every batched prediction.
    pub(crate) fn feature_matrix(&self) -> &FeatureMatrix {
        &self.features
    }

    /// `Tmax·U(x)`: the cost cap that encodes the runtime constraint.
    pub(crate) fn constraint_cost_cap(&self, id: ConfigId) -> f64 {
        self.settings.tmax_seconds * self.price_rates[id.index()]
    }

    /// Seed used to build surrogate models for this run.
    pub(crate) fn model_seed(&self) -> u64 {
        self.model_seed
    }

    /// Overrides the surrogate seed with a recurring job's canonical
    /// ensemble seed, so *every* surrogate construction path (the session's
    /// incremental chain, the naive engine's per-decision scratch fits, a
    /// checkpoint restore's whole-set refit) extends the prior run's fits
    /// bit-identically.
    pub(crate) fn set_model_seed(&mut self, seed: u64) {
        self.model_seed = seed;
    }

    /// Metric vectors observed so far (for the multi-constraint extension).
    pub(crate) fn observed_metrics(&self) -> &[(Vec<f64>, Vec<f64>)] {
        &self.observed_metrics
    }

    /// Profiles the job on a configuration, charging the observation cost and
    /// any switching cost, and recording the exploration.
    ///
    /// # Panics
    ///
    /// Panics if the oracle or the switching model produce a cost the budget
    /// cannot be charged with (negative, NaN or infinite). Use
    /// [`Driver::try_profile`] to surface that as a recoverable error
    /// instead.
    pub(crate) fn profile(
        &mut self,
        id: ConfigId,
        bootstrap: bool,
        switching: &dyn SwitchingCost,
    ) -> &Observation {
        self.try_profile(id, bootstrap, switching)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`Driver::profile`]: validates the observation
    /// cost and the switching charge *before* anything is recorded, so a
    /// misbehaving oracle (e.g. one returning `inf` or NaN) is reported as a
    /// [`ProfileError`] with the driver state untouched — the multi-session
    /// service turns this into a per-session `Failed` state instead of a
    /// process-wide panic.
    pub(crate) fn try_profile(
        &mut self,
        id: ConfigId,
        bootstrap: bool,
        switching: &dyn SwitchingCost,
    ) -> Result<&Observation, ProfileError> {
        let switch_cost = switching.cost(self.state.current(), id);
        if !(switch_cost.is_finite() && switch_cost >= 0.0) {
            return Err(ProfileError::InvalidSwitchingCost {
                from: self.state.current(),
                to: id,
                cost: switch_cost,
            });
        }
        let observation = self
            .oracle
            .get()
            .try_run(id)
            .map_err(|fault| ProfileError::Fault { id, fault })?;
        if !(observation.cost.is_finite() && observation.cost >= 0.0) {
            return Err(ProfileError::InvalidCost {
                id,
                cost: observation.cost,
            });
        }
        let feasible = observation.runtime_seconds <= self.settings.tmax_seconds;
        self.state.record(id, observation.cost, feasible);
        if switch_cost > 0.0 {
            self.state.charge_extra(switch_cost);
        }
        self.observed_metrics.push((
            self.features.row(id.index()).to_vec(),
            observation.metrics.clone(),
        ));
        self.explorations.push(Exploration {
            id,
            observation,
            bootstrap,
        });
        Ok(&self.explorations.last().expect("just pushed").observation)
    }

    /// Draws the LHS bootstrap plan (Algorithm 1, lines 6–8) without running
    /// anything. Consuming the plan one sample at a time with
    /// [`Driver::bootstrap_step`] reproduces [`Driver::bootstrap`] exactly —
    /// the split exists so the multi-session scheduler can interleave
    /// bootstrap runs of different sessions fairly.
    pub(crate) fn bootstrap_plan(&self, rng: &mut SeededRng) -> Vec<Vec<usize>> {
        self.bootstrap_plan_shrunk(rng, 0)
    }

    /// [`Driver::bootstrap_plan`] minus `replayed` samples: a warm session
    /// counts the prior run's replayed observations against the bootstrap
    /// quota, so a prior at least as large as the quota skips the LHS phase
    /// entirely and the first decision is model-driven.
    pub(crate) fn bootstrap_plan_shrunk(
        &self,
        rng: &mut SeededRng,
        replayed: usize,
    ) -> Vec<Vec<usize>> {
        let space = self.oracle.get().space();
        let n = self
            .settings
            .bootstrap_count(self.state.untested().len(), space.dims())
            .saturating_sub(replayed);
        if n == 0 {
            // Prior covers the whole quota: skip the LHS phase (and its
            // RNG draws) entirely — the first step is a model decision.
            return Vec::new();
        }
        latin_hypercube_levels(n, &space.cardinalities(), rng)
    }

    /// Profiles one sample of the bootstrap plan. Returns the configuration
    /// that was profiled, or `None` when the untested set is exhausted (the
    /// remaining plan should then be dropped).
    pub(crate) fn bootstrap_step(
        &mut self,
        sample: &[usize],
        rng: &mut SeededRng,
        switching: &dyn SwitchingCost,
    ) -> Result<Option<ConfigId>, ProfileError> {
        let space = self.oracle.get().space();
        let config = lynceus_space::Config::new(sample.to_vec());
        let id = space.id_of(&config).map(ConfigId);
        // Fall back to a random untested candidate when the LHS point is
        // outside the candidate set (irregular spaces) or already chosen.
        let id = match id {
            Some(id) if self.state.untested().contains(&id) => id,
            _ => {
                if self.state.untested().is_empty() {
                    return Ok(None);
                }
                *rng.choose(self.state.untested()).expect("non-empty")
            }
        };
        self.try_profile(id, true, switching)?;
        Ok(Some(id))
    }

    /// Runs the LHS bootstrap phase (Algorithm 1, lines 6–8).
    pub(crate) fn bootstrap(&mut self, rng: &mut SeededRng, switching: &dyn SwitchingCost) {
        for sample in self.bootstrap_plan(rng) {
            let profiled = self
                .bootstrap_step(&sample, rng, switching)
                .unwrap_or_else(|e| panic!("{e}"));
            if profiled.is_none() {
                break;
            }
        }
    }

    /// Fits the cost surrogate on the current training set.
    pub(crate) fn fit_cost_model(&self) -> BaggingEnsemble {
        let mut model = BaggingEnsemble::with_seed(self.settings.ensemble_size, self.model_seed);
        let data = self.state.training_set(self.oracle.get().space());
        if !data.is_empty() {
            model.fit(&data);
        }
        model
    }

    /// Builds the final report (Algorithm 1, line 12: return the cheapest
    /// configuration tried whose runtime satisfies `Tmax` and whose observed
    /// metrics satisfy every secondary constraint).
    pub(crate) fn finish(self, optimizer: &str) -> OptimizationReport {
        let satisfies_secondary = |e: &Exploration| {
            self.settings.secondary_constraints.iter().all(|c| {
                e.observation
                    .metrics
                    .get(c.metric_index)
                    .is_some_and(|&value| value <= c.threshold)
            })
        };
        let recommended = self
            .explorations
            .iter()
            .filter(|e| e.observation.runtime_seconds <= self.settings.tmax_seconds)
            .filter(|e| satisfies_secondary(e))
            .min_by(|a, b| a.observation.cost.total_cmp(&b.observation.cost));
        OptimizationReport {
            optimizer: optimizer.to_owned(),
            recommended: recommended.map(|e| e.id),
            recommended_cost: recommended.map(|e| e.observation.cost),
            budget_initial: self.settings.budget,
            budget_spent: self.state.budget().spent(),
            explorations: self.explorations,
            tmax_seconds: self.settings.tmax_seconds,
        }
    }
}

/// A search strategy that can be run against any [`CostOracle`].
pub trait Optimizer: Send + Sync {
    /// Short name used in reports and figures (e.g. `"Lynceus"`, `"BO"`).
    fn name(&self) -> &str;

    /// Runs one full optimization with the given random seed (the seed drives
    /// the bootstrap sampling and any stochastic choice of the strategy).
    fn optimize(&self, oracle: &dyn CostOracle, seed: u64) -> OptimizationReport;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TableOracle;
    use crate::switching::FreeSwitching;
    use lynceus_space::SpaceBuilder;

    fn toy_oracle() -> TableOracle {
        let space = SpaceBuilder::new()
            .numeric("x", (0..8).map(f64::from))
            .numeric("y", [0.0, 1.0])
            .build();
        TableOracle::from_fn(space, 1.0, |f| 10.0 + f[0] + 5.0 * f[1])
    }

    #[test]
    fn default_settings_are_valid_and_match_the_paper() {
        let settings = OptimizerSettings::default();
        assert!(settings.validate().is_ok());
        assert_eq!(settings.lookahead, 2);
        assert_eq!(settings.ensemble_size, 10);
        assert!((settings.discount - 0.9).abs() < 1e-12);
        assert!((settings.budget_confidence - 0.99).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let invalid = |s: OptimizerSettings| s.validate().is_err();
        assert!(matches!(
            OptimizerSettings {
                budget: 0.0,
                ..OptimizerSettings::default()
            }
            .validate(),
            Err(OptimizerError::InvalidSetting(_))
        ));
        assert!(invalid(OptimizerSettings {
            discount: 1.5,
            ..OptimizerSettings::default()
        }));
        assert!(invalid(OptimizerSettings {
            budget_confidence: 1.0,
            ..OptimizerSettings::default()
        }));
        assert!(invalid(OptimizerSettings {
            gauss_hermite_nodes: 0,
            ..OptimizerSettings::default()
        }));
        assert!(invalid(OptimizerSettings {
            ensemble_size: 0,
            ..OptimizerSettings::default()
        }));
        assert!(invalid(OptimizerSettings {
            bootstrap_samples: Some(0),
            ..OptimizerSettings::default()
        }));
        assert!(OptimizerError::NoCandidates
            .to_string()
            .contains("candidate"));
    }

    #[test]
    fn bootstrap_count_follows_the_paper_rule() {
        let settings = OptimizerSettings::default();
        // max(3% of 384 = 11.52 → 12, 5 dims) = 12
        assert_eq!(settings.bootstrap_count(384, 5), 12);
        // max(3% of 69 = 2.07 → 3, 3 dims) = 3
        assert_eq!(settings.bootstrap_count(69, 3), 3);
        // Dimensions dominate tiny spaces.
        assert_eq!(settings.bootstrap_count(40, 5), 5);
        // Explicit override wins, but is capped at the number of candidates.
        let explicit = OptimizerSettings {
            bootstrap_samples: Some(100),
            ..OptimizerSettings::default()
        };
        assert_eq!(explicit.bootstrap_count(30, 3), 30);
    }

    #[test]
    fn driver_bootstrap_profiles_distinct_configurations() {
        let oracle = toy_oracle();
        let settings = OptimizerSettings {
            budget: 1_000.0,
            tmax_seconds: 100.0,
            bootstrap_samples: Some(6),
            ..OptimizerSettings::default()
        };
        let mut driver = Driver::new(&oracle, &settings, 3);
        let mut rng = SeededRng::new(3);
        driver.bootstrap(&mut rng, &FreeSwitching);
        assert_eq!(driver.explorations.len(), 6);
        let distinct: std::collections::HashSet<_> =
            driver.explorations.iter().map(|e| e.id).collect();
        assert_eq!(distinct.len(), 6);
        assert!(driver.explorations.iter().all(|e| e.bootstrap));
        assert!(driver.state.budget().spent() > 0.0);
    }

    #[test]
    fn finish_recommends_the_cheapest_feasible_configuration() {
        let oracle = toy_oracle();
        let settings = OptimizerSettings {
            budget: 1_000.0,
            // Only configurations with runtime <= 13 are feasible.
            tmax_seconds: 13.0,
            ..OptimizerSettings::default()
        };
        let mut driver = Driver::new(&oracle, &settings, 0);
        // Profile a feasible config (runtime 11) and an infeasible one (16).
        driver.profile(ConfigId(1), false, &FreeSwitching); // x=0? id 1 → x=0,y=1 → 15 infeasible
        driver.profile(ConfigId(2), false, &FreeSwitching); // x=1,y=0 → 11 feasible
        driver.profile(ConfigId(6), false, &FreeSwitching); // x=3,y=0 → 13 feasible
        let report = driver.finish("test");
        assert_eq!(report.recommended, Some(ConfigId(2)));
        assert_eq!(report.recommended_cost, Some(11.0));
        assert!(report.feasible_found());
        assert_eq!(report.num_explorations(), 3);
        let trajectory = report.incumbent_trajectory();
        assert_eq!(trajectory, vec![None, Some(11.0), Some(11.0)]);
    }

    #[test]
    fn finish_with_no_feasible_configuration_recommends_nothing() {
        let oracle = toy_oracle();
        let settings = OptimizerSettings {
            budget: 1_000.0,
            tmax_seconds: 1.0,
            ..OptimizerSettings::default()
        };
        let mut driver = Driver::new(&oracle, &settings, 0);
        driver.profile(ConfigId(0), false, &FreeSwitching);
        let report = driver.finish("test");
        assert!(report.recommended.is_none());
        assert!(!report.feasible_found());
        assert_eq!(report.incumbent_trajectory(), vec![None]);
    }

    /// An oracle whose configuration 0 reports a non-finite cost.
    struct PoisonOracle {
        inner: TableOracle,
        poison_cost: f64,
    }

    impl CostOracle for PoisonOracle {
        fn space(&self) -> &lynceus_space::ConfigSpace {
            self.inner.space()
        }
        fn candidates(&self) -> Vec<ConfigId> {
            self.inner.candidates()
        }
        fn run(&self, id: ConfigId) -> Observation {
            if id == ConfigId(0) {
                Observation::new(1.0, self.poison_cost)
            } else {
                self.inner.run(id)
            }
        }
        fn price_rate(&self, id: ConfigId) -> f64 {
            self.inner.price_rate(id)
        }
    }

    #[test]
    fn try_profile_surfaces_non_finite_costs_without_touching_state() {
        for poison in [f64::INFINITY, f64::NAN, -3.0] {
            let oracle = PoisonOracle {
                inner: toy_oracle(),
                poison_cost: poison,
            };
            let settings = OptimizerSettings {
                budget: 1_000.0,
                tmax_seconds: 100.0,
                ..OptimizerSettings::default()
            };
            let mut driver = Driver::new(&oracle, &settings, 0);
            driver.profile(ConfigId(1), false, &FreeSwitching);
            let before_remaining = driver.state.budget().remaining();
            let err = driver
                .try_profile(ConfigId(0), false, &FreeSwitching)
                .unwrap_err();
            assert!(
                matches!(err, ProfileError::InvalidCost { id: ConfigId(0), cost } if cost.is_nan() == poison.is_nan()),
                "unexpected error {err} for poison cost {poison}"
            );
            // The failed run left no trace: no exploration, no budget charge,
            // the configuration is still untested.
            assert_eq!(driver.explorations.len(), 1);
            assert_eq!(driver.state.budget().remaining(), before_remaining);
            assert!(!driver.state.is_tested(ConfigId(0)));
            assert!(err.to_string().contains("unusable cost"));
        }
    }

    #[test]
    fn try_profile_rejects_non_finite_switching_charges() {
        let oracle = toy_oracle();
        let settings = OptimizerSettings {
            budget: 1_000.0,
            tmax_seconds: 100.0,
            ..OptimizerSettings::default()
        };
        let mut driver = Driver::new(&oracle, &settings, 0);
        driver.profile(ConfigId(1), false, &FreeSwitching);
        let bad = crate::switching::FnSwitching(
            |from: Option<ConfigId>, _| {
                if from.is_some() {
                    f64::INFINITY
                } else {
                    0.0
                }
            },
        );
        let err = driver.try_profile(ConfigId(2), false, &bad).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::InvalidSwitchingCost {
                from: Some(ConfigId(1)),
                to: ConfigId(2),
                ..
            }
        ));
        assert!(err.to_string().contains("switching-cost"));
        assert!(!driver.state.is_tested(ConfigId(2)));
    }

    #[test]
    fn constraint_cost_cap_combines_tmax_and_price() {
        let oracle = toy_oracle();
        let settings = OptimizerSettings {
            tmax_seconds: 20.0,
            ..OptimizerSettings::default()
        };
        let driver = Driver::new(&oracle, &settings, 0);
        assert!((driver.constraint_cost_cap(ConfigId(0)) - 20.0).abs() < 1e-12);
        assert_eq!(driver.features_of(ConfigId(3)).len(), 2);
    }
}
