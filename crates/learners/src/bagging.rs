//! Bootstrap-aggregated (bagging) ensembles of regression trees.
//!
//! This is the surrogate model the Lynceus paper uses: an ensemble of 10
//! random regression trees, each fitted on a bootstrap resample of the
//! training set. The prediction mean is the average of the member
//! predictions; the predictive standard deviation is the spread of the member
//! predictions, which is how SMAC-style systems (and the paper, per its
//! references [29, 50]) obtain an uncertainty estimate from tree ensembles.
//!
//! # Resampling scheme
//!
//! Member trees resample the training set with *Poisson(1) counts*: sample
//! `i` appears in tree `t`'s resample `k(t, i)` times, where `k(t, i)` is a
//! Poisson(1) draw derived from a counter-based hash of `(seed, t, i)`. For
//! large `n` this is the classical online-bagging approximation of the
//! `n`-draws-with-replacement bootstrap (Oza & Russell), and it has a
//! property the optimizer's speculation engine depends on: the count of a
//! sample does not depend on how many samples exist. Extending the training
//! set therefore leaves every existing count untouched, so
//! [`BaggingEnsemble::refit_with`] can extend a fitted ensemble by rebuilding
//! *only* the trees whose resample actually draws a new sample (in
//! expectation `1 - e^{-m}` of them for `m` new samples) while reusing the
//! rest — and the result is bit-identical to fitting from scratch on the
//! extended set.
//!
//! [`SpeculativeFit`] applies the same extension to an ensemble that exists
//! only as its members' values at a fixed row block, which is all the
//! speculation engine ever reads of a speculated surrogate.

use crate::model::{reserve_total, FeatureMatrix, Prediction, Surrogate, TrainingSet};
use crate::tree::{RegressionTree, RouteWorkspace};
use std::sync::Arc;

/// Poisson(1) resample count of `sample` in tree `tree` of an ensemble
/// seeded with `seed`.
///
/// Counter-based (stateless): splitmix64-style mixing of the three inputs
/// into a uniform, then an inverse-CDF walk. Depends only on
/// `(seed, tree, sample)`, never on the training-set size — the property
/// that makes incremental refits exact.
fn resample_count(seed: u64, tree: u64, sample: u64) -> usize {
    let mut z = seed
        ^ tree.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ sample.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut k = 0usize;
    let mut p = (-1.0_f64).exp();
    let mut cumulative = p;
    // The walk terminates quickly: P(k > 12) < 1e-9 for Poisson(1).
    while u > cumulative && k < 16 {
        k += 1;
        p /= k as f64;
        cumulative += p;
    }
    k
}

/// The configuration every member tree of an ensemble shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Members {
    count: usize,
    seed: u64,
    min_samples_leaf: usize,
    max_depth: usize,
}

impl Members {
    /// The unfitted member tree `index` for `dims`-dimensional data.
    fn tree(&self, dims: usize, index: usize) -> RegressionTree {
        RegressionTree::new()
            .with_max_depth(self.max_depth)
            .with_min_samples_leaf(self.min_samples_leaf)
            .with_feature_subsample(feature_subsample(dims))
            .with_seed(self.seed.wrapping_add(index as u64 * 7919 + 1))
    }

    /// How many times member `index`'s resample draws `sample`.
    fn draws(&self, index: usize, sample: usize) -> usize {
        resample_count(self.seed, index as u64, sample as u64)
    }

    /// The Poisson resample multiset of member `index` over samples
    /// `range` (ascending).
    fn resample(&self, index: usize, range: std::ops::Range<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        for i in range {
            out.extend(std::iter::repeat_n(i, self.draws(index, i)));
        }
        out
    }
}

/// A bagging ensemble of random regression trees.
///
/// # Example
///
/// ```
/// use lynceus_learners::{BaggingEnsemble, Surrogate, TrainingSet};
///
/// let mut data = TrainingSet::new(1);
/// for i in 0..30 {
///     data.push(vec![i as f64], (i as f64).sqrt());
/// }
/// let mut model = BaggingEnsemble::with_seed(10, 1);
/// model.fit(&data);
/// // Uncertainty exists away from dense training data.
/// let p = model.predict(&[29.0]);
/// assert!(p.std >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BaggingEnsemble {
    members: Members,
    /// Member trees behind `Arc`, so an incremental refit shares the
    /// members whose resample is unchanged instead of deep-copying them.
    trees: Vec<Arc<RegressionTree>>,
    /// Each member's bootstrap resample (index multiset into `data`, in
    /// ascending order), aligned with `trees`. Stored so an incremental
    /// refit extends the multiset with the new samples' draws instead of
    /// re-hashing a Poisson count for every existing observation.
    resamples: Vec<Arc<Vec<usize>>>,
    /// The training set the ensemble was fitted on; retained so
    /// [`BaggingEnsemble::refit_with`] can extend it incrementally.
    data: Option<TrainingSet>,
    fitted: bool,
}

impl Default for BaggingEnsemble {
    fn default() -> Self {
        Self::new(10)
    }
}

impl BaggingEnsemble {
    /// Creates an ensemble of `n_estimators` trees with seed 0.
    ///
    /// # Panics
    ///
    /// Panics if `n_estimators == 0`.
    #[must_use]
    pub fn new(n_estimators: usize) -> Self {
        Self::with_seed(n_estimators, 0)
    }

    /// Creates an ensemble with an explicit seed for the bootstrap resampling
    /// and the per-tree randomization.
    ///
    /// # Panics
    ///
    /// Panics if `n_estimators == 0`.
    #[must_use]
    pub fn with_seed(n_estimators: usize, seed: u64) -> Self {
        assert!(n_estimators > 0, "an ensemble needs at least one tree");
        Self::unfitted(Members {
            count: n_estimators,
            seed,
            min_samples_leaf: 1,
            max_depth: 32,
        })
    }

    fn unfitted(members: Members) -> Self {
        Self {
            members,
            trees: Vec::new(),
            resamples: Vec::new(),
            data: None,
            fitted: false,
        }
    }

    /// Sets the minimum number of samples per leaf of every member tree.
    #[must_use]
    pub fn with_min_samples_leaf(mut self, min: usize) -> Self {
        self.members.min_samples_leaf = min.max(1);
        self
    }

    /// Sets the maximum depth of every member tree.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.members.max_depth = depth.max(1);
        self
    }

    /// Number of member trees.
    #[must_use]
    pub fn n_estimators(&self) -> usize {
        self.members.count
    }

    /// Number of training observations the ensemble was fitted on.
    #[must_use]
    pub fn training_len(&self) -> usize {
        self.data.as_ref().map_or(0, TrainingSet::len)
    }

    /// Per-member predictions at a point, one per member whose bootstrap
    /// resample was non-empty (useful for diagnostics and tests).
    #[must_use]
    pub fn member_predictions(&self, features: &[f64]) -> Vec<f64> {
        self.trees
            .iter()
            .filter(|t| t.is_fitted())
            .map(|t| t.predict_value(features))
            .collect()
    }

    /// Builds the member tree `index` on a resample multiset of `data`.
    fn make_tree(&self, data: &TrainingSet, index: usize, resample: &[usize]) -> RegressionTree {
        let mut tree = self.members.tree(data.dims(), index);
        tree.fit_indexed(data, resample);
        tree
    }

    /// Returns a new ensemble fitted on this ensemble's training set extended
    /// with `extra` observations, reusing every member tree whose bootstrap
    /// resample does not draw any of the new samples.
    ///
    /// Because the resample counts are counter-based (see the module docs),
    /// the result is **bit-identical** to calling [`Surrogate::fit`] from
    /// scratch on the extended training set — only cheaper: in expectation a
    /// fraction `e^{-m}` of the trees (`m = extra.len()`) is reused
    /// unchanged, and the surviving trees skip the resample-and-rebuild
    /// entirely. The optimizer extends its real surrogate this way after
    /// every profiling run; speculated observations go through
    /// [`SpeculativeFit::extend_into`] instead, which builds no tree.
    ///
    /// Calling this on an unfitted ensemble is equivalent to fitting on
    /// `extra` alone.
    ///
    /// # Panics
    ///
    /// Panics if `extra` is empty or a feature vector has the wrong length.
    #[must_use]
    pub fn refit_with(&self, extra: &[(&[f64], f64)]) -> Self {
        assert!(
            !extra.is_empty(),
            "refit_with needs at least one new observation"
        );
        let mut extended = match &self.data {
            Some(data) => data.clone(),
            None => TrainingSet::new(extra[0].0.len()),
        };
        let base_len = extended.len();
        for (features, target) in extra {
            extended.push_row(features, *target);
        }

        let mut next = Self::unfitted(self.members);
        next.trees.reserve(self.members.count);
        next.resamples.reserve(self.members.count);
        for t in 0..self.members.count {
            // Extend the stored multiset (ascending base indices) with the
            // new draws (ascending, all >= base_len): the result is exactly
            // the multiset a full Poisson scan would produce. The extension
            // is built lazily so the common no-draw case allocates nothing.
            let mut resample: Option<Vec<usize>> = None;
            for i in base_len..extended.len() {
                let count = self.members.draws(t, i);
                if count > 0 {
                    let draws = resample.get_or_insert_with(|| {
                        if self.fitted {
                            (*self.resamples[t]).clone()
                        } else {
                            Vec::new()
                        }
                    });
                    draws.extend(std::iter::repeat_n(i, count));
                }
            }
            match resample {
                None if self.fitted => {
                    // The resample multiset is unchanged: the existing tree
                    // *is* the tree a from-scratch fit would build. Sharing
                    // the `Arc` makes the reuse a reference-count bump.
                    next.trees.push(Arc::clone(&self.trees[t]));
                    next.resamples.push(Arc::clone(&self.resamples[t]));
                }
                resample => {
                    let resample = resample.unwrap_or_default();
                    next.trees
                        .push(Arc::new(next.make_tree(&extended, t, &resample)));
                    next.resamples.push(Arc::new(resample));
                }
            }
        }
        next.data = Some(extended);
        next.fitted = true;
        next
    }

    /// The exact warm-start path for recurring jobs: an ensemble seeded
    /// with `seed` and pre-fitted on `rows` (a prior run's training set, in
    /// recording order) through [`BaggingEnsemble::refit_with`].
    ///
    /// Because the bootstrap resample counts are counter-based, later
    /// `refit_with` extensions of the returned ensemble are bit-identical
    /// to a from-scratch [`Surrogate::fit`] on the union of `rows` and the
    /// extensions — which is what lets run N+1 of a recurring job extend
    /// run N's surrogate instead of relearning it, with zero drift. The
    /// one requirement is a stable `seed` across the runs of one job (the
    /// job's knowledge record carries it).
    ///
    /// With empty `rows` this is just [`BaggingEnsemble::with_seed`].
    ///
    /// # Panics
    ///
    /// Panics if `n_estimators == 0` or a feature vector has the wrong
    /// length.
    #[must_use]
    pub fn warm_from(n_estimators: usize, seed: u64, rows: &[(&[f64], f64)]) -> Self {
        let base = Self::with_seed(n_estimators, seed);
        if rows.is_empty() {
            base
        } else {
            base.refit_with(rows)
        }
    }

    /// Mean of the training targets; the prediction fallback when every
    /// member resample came up empty (possible only for tiny training sets).
    fn target_mean_fallback(&self) -> f64 {
        self.data.as_ref().map_or(0.0, TrainingSet::target_mean)
    }

    /// Reference fit: materializes every member's bootstrap resample into a
    /// standalone [`TrainingSet`] (one copied row per draw) before building
    /// the tree — the implementation style of the original
    /// refit-from-scratch optimizer, preserved so the naive reference engine
    /// and the benchmarks measure the cost profile the speculation-engine
    /// overhaul removed.
    ///
    /// Bit-identical to [`Surrogate::fit`]: the materialized resample holds
    /// the same observation multiset in the same order, so tree construction
    /// performs the same arithmetic on it.
    pub fn fit_reference(&mut self, data: &TrainingSet) {
        self.trees.clear();
        self.resamples.clear();
        self.data = None;
        self.fitted = false;
        if data.is_empty() {
            return;
        }
        for t in 0..self.members.count {
            let indices = self.members.resample(t, 0..data.len());
            // The original resample layout: one heap-allocated row per draw.
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut targets: Vec<f64> = Vec::new();
            for &i in &indices {
                let (features, target) = data.observation(i);
                rows.push(features.to_vec());
                targets.push(target);
            }
            let mut tree = self.members.tree(data.dims(), t);
            tree.fit_reference(&rows, &targets);
            self.trees.push(Arc::new(tree));
            self.resamples.push(Arc::new(indices));
        }
        self.data = Some(data.clone());
        self.fitted = true;
    }

    /// Batched prediction over the retained **pointer** tree walk — the
    /// pre-flattening traversal, preserved as the comparison baseline the
    /// `micro_components` bench measures the flat block traversal against
    /// (the `flat_traversal` cell of `BENCH_baseline.json`). Element-wise
    /// bit-identical to [`Surrogate::predict_rows`]; only the node layout
    /// walked (and therefore the time taken) differs.
    pub fn predict_rows_pointer(
        &self,
        features: &FeatureMatrix,
        rows: &[usize],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        if !self.fitted || self.trees.is_empty() {
            out.extend(rows.iter().map(|_| Prediction::certain(0.0)));
            return;
        }
        out.resize(
            rows.len(),
            Prediction {
                mean: 0.0,
                std: 0.0,
            },
        );
        let mut members = 0usize;
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            members += 1;
            for (slot, &row) in out.iter_mut().zip(rows) {
                slot.mean += tree.predict_value_pointer(features.row(row));
            }
        }
        if members == 0 {
            let fallback = Prediction::certain(self.target_mean_fallback());
            for slot in out.iter_mut() {
                *slot = fallback;
            }
            return;
        }
        let n = members as f64;
        for slot in out.iter_mut() {
            slot.mean /= n;
        }
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            for (slot, &row) in out.iter_mut().zip(rows) {
                let d = tree.predict_value_pointer(features.row(row)) - slot.mean;
                slot.std += d * d;
            }
        }
        for slot in out.iter_mut() {
            slot.std = (slot.std / n).sqrt();
        }
    }

    /// Reference prediction: collects the member predictions into a fresh
    /// vector before aggregating — the per-call allocation profile of the
    /// original implementation, preserved for the naive reference engine and
    /// the benchmarks. Bit-identical to [`Surrogate::predict`].
    #[must_use]
    pub fn predict_reference(&self, features: &[f64]) -> Prediction {
        if !self.fitted || self.trees.is_empty() {
            return Prediction::certain(0.0);
        }
        let preds = self.member_predictions(features);
        if preds.is_empty() {
            return Prediction::certain(self.target_mean_fallback());
        }
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }
}

/// Number of features examined per split, like Weka's `RandomTree`:
/// `ceil(sqrt(dims)) + 1` (all of them for tiny spaces).
fn feature_subsample(dims: usize) -> usize {
    ((dims as f64).sqrt().ceil() as usize + 1).min(dims)
}

/// Row-chunk width of the block traversal in [`Surrogate::predict_rows`]:
/// large enough to amortize the per-chunk dispatch and feed the 4-wide
/// flat descent, small enough to live on the stack.
const ROW_BLOCK: usize = 64;

/// Room an extendable [`SpeculativeFit`] reserves per member resample and
/// in its [`RouteWorkspace`], in multiples of its training-set bound: a
/// Poisson(1) resample of `n` samples averages `n` draws, and more than
/// `2n` is rare once `n` passes a handful.
const RESAMPLE_HEADROOM: usize = 2;

/// A bagging ensemble as its members' leaf values at a fixed row block: the
/// speculation engine's tree-free surrogate.
///
/// The engine scores every speculated state of a decision at the same rows
/// (the decision's untested configurations) and never queries a speculated
/// surrogate anywhere else. A `SpeculativeFit` keeps only what those scores
/// and one more extension need: each member tree's values at the block
/// rows, the training set, and each member's Poisson resample multiset.
/// [`SpeculativeFit::extend_into`] adds one speculated observation the way
/// [`BaggingEnsemble::refit_with`] does. A member whose resample does not
/// draw the new sample keeps its values (a copy). A member that does is
/// rebuilt by a fused fit-and-route builder, which routes the block rows
/// through each split as it chooses the split and stores no node.
/// [`SpeculativeFit::predict_into`] aggregates the values in the order
/// [`Surrogate::predict_rows`] aggregates member predictions, so a fit and
/// its extension chains predict bit-identically to the ensembles
/// `refit_with` chains build.
///
/// Every buffer is reused: a fit refilled through
/// [`SpeculativeFit::set_root`] or [`SpeculativeFit::extend_into`] stops
/// allocating once it has grown to the largest block and training set it
/// serves.
///
/// # Example
///
/// ```
/// use lynceus_learners::{
///     BaggingEnsemble, FeatureMatrix, RouteWorkspace, SpeculativeFit, Surrogate, TrainingSet,
/// };
///
/// let mut data = TrainingSet::new(1);
/// for i in 0..8 {
///     data.push(vec![i as f64], (i * i) as f64);
/// }
/// let mut model = BaggingEnsemble::with_seed(10, 3);
/// model.fit(&data);
/// let block = FeatureMatrix::from_rows(1, [[2.5], [9.0]]);
/// let rows = [0, 1];
///
/// // The model's values at the block, extendable up to 16 observations…
/// let mut root = SpeculativeFit::default();
/// root.set_root(&model, &block, &rows, Some(16));
/// // …extended by one speculated observation without building a tree.
/// let mut child = SpeculativeFit::default();
/// let mut workspace = RouteWorkspace::default();
/// root.extend_into(&block, &rows, &[9.0], 81.0, &mut child, &mut workspace);
///
/// let (mut speculated, mut refit) = (Vec::new(), Vec::new());
/// child.predict_into(&mut speculated);
/// model
///     .refit_with(&[(&[9.0][..], 81.0)])
///     .predict_rows(&block, &rows, &mut refit);
/// assert_eq!(speculated, refit);
/// ```
#[derive(Debug, Clone)]
pub struct SpeculativeFit {
    members: Members,
    /// Rows in the block the member values cover.
    rows: usize,
    /// Member-major leaf values: member `t` at block row `r` is
    /// `values[t * rows + r]`, meaningful only where `fitted[t]`.
    values: Vec<f64>,
    /// Whether each member's resample is non-empty; an unfitted member
    /// does not vote.
    fitted: Vec<bool>,
    /// Target mean of the training set: the prediction when no member is
    /// fitted (0 for an unfitted ensemble, which has no member and no
    /// training set, exactly as it predicts).
    fallback: f64,
    /// The training-set bound of an extendable fit; `None` when the fit
    /// only predicts (`data` and `resamples` are then stale).
    max_training_rows: Option<usize>,
    data: TrainingSet,
    /// Each member's resample multiset over `data`, ascending.
    resamples: Vec<Vec<usize>>,
}

impl Default for SpeculativeFit {
    /// An empty fit, predicting nothing until it is set or extended into.
    fn default() -> Self {
        Self {
            members: Members::default(),
            rows: 0,
            values: Vec::new(),
            fitted: Vec::new(),
            fallback: 0.0,
            max_training_rows: None,
            data: TrainingSet::new(1),
            resamples: Vec::new(),
        }
    }
}

impl SpeculativeFit {
    /// Refills the fit with `model`'s member values at `rows` of `features`:
    /// one block descent per fitted member.
    ///
    /// With `max_training_rows` set, the fit also copies the model's
    /// training set and resamples, so it can be extended, and reserves room
    /// for a training set of that many rows; its extensions inherit the
    /// bound. With `None` it copies only what
    /// [`SpeculativeFit::predict_into`] reads.
    pub fn set_root(
        &mut self,
        model: &BaggingEnsemble,
        features: &FeatureMatrix,
        rows: &[usize],
        max_training_rows: Option<usize>,
    ) {
        let members = model.members;
        let width = rows.len();
        self.members = members;
        self.rows = width;
        self.fallback = model.target_mean_fallback();
        self.values.resize(members.count * width, 0.0);
        self.fitted.clear();
        self.fitted.resize(members.count, false);
        for (t, tree) in model.trees.iter().enumerate() {
            if tree.is_fitted() {
                self.fitted[t] = true;
                tree.predict_values_into(
                    features,
                    rows,
                    &mut self.values[t * width..(t + 1) * width],
                );
            }
        }
        self.max_training_rows = max_training_rows;
        let Some(bound) = max_training_rows else {
            return;
        };
        match &model.data {
            Some(data) => self.data.clone_from(data),
            None => self.data = TrainingSet::new(features.dims()),
        }
        self.data.reserve(bound);
        self.resamples.resize_with(members.count, Vec::new);
        for (t, resample) in self.resamples.iter_mut().enumerate() {
            match model.resamples.get(t) {
                Some(drawn) => resample.clone_from(drawn),
                None => resample.clear(),
            }
            reserve_total(resample, RESAMPLE_HEADROOM * bound);
        }
    }

    /// Writes into `child` this fit extended by the observation
    /// `(sample, target)`: the fit of the ensemble
    /// [`BaggingEnsemble::refit_with`] builds from the same observation, at
    /// the same rows. `features` and `rows` must be the block this fit
    /// covers; `workspace` holds the rebuilds' buffers. Once
    /// [`SpeculativeFit::reserve_extension`] has sized `child` and
    /// `workspace`, the call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the fit was set without a training-set bound, if `rows` is
    /// not the size of the fit's block, or if `sample` has the wrong length
    /// or a non-finite value.
    pub fn extend_into(
        &self,
        features: &FeatureMatrix,
        rows: &[usize],
        sample: &[f64],
        target: f64,
        child: &mut SpeculativeFit,
        workspace: &mut RouteWorkspace,
    ) {
        let Some(bound) = self.max_training_rows else {
            panic!("only a fit set with a training-set bound can be extended");
        };
        assert_eq!(rows.len(), self.rows, "the fit covers another row block");
        let members = self.members;
        let width = self.rows;
        child.members = members;
        child.rows = width;
        child.max_training_rows = Some(bound);
        child.data.clone_from(&self.data);
        child.data.push_row(sample, target);
        child.fallback = child.data.target_mean();
        child.values.resize(members.count * width, 0.0);
        child.fitted.clone_from(&self.fitted);
        child.resamples.resize_with(members.count, Vec::new);
        let new_sample = self.data.len();
        for t in 0..members.count {
            let span = t * width..(t + 1) * width;
            let resample = &mut child.resamples[t];
            resample.clone_from(&self.resamples[t]);
            let draws = members.draws(t, new_sample);
            if draws == 0 {
                // The resample is unchanged, and so is the member.
                if self.fitted[t] {
                    child.values[span.clone()].copy_from_slice(&self.values[span]);
                }
                continue;
            }
            resample.extend(std::iter::repeat_n(new_sample, draws));
            child.fitted[t] = members.tree(child.data.dims(), t).fit_predict_rows(
                &child.data,
                resample,
                features,
                rows,
                &mut child.values[span],
                workspace,
            );
        }
    }

    /// Grows `child` and `workspace` to hold any extension of this fit over
    /// a block of up to `rows` rows, so [`SpeculativeFit::extend_into`]
    /// fills them without reallocating. The capacities depend only on
    /// `rows` and this fit's members, dimensions and training-set bound, not
    /// on which extensions the buffers serve.
    pub fn reserve_extension(
        &self,
        rows: usize,
        child: &mut SpeculativeFit,
        workspace: &mut RouteWorkspace,
    ) {
        let count = self.members.count;
        reserve_total(&mut child.values, count * rows);
        reserve_total(&mut child.fitted, count);
        let Some(bound) = self.max_training_rows else {
            return;
        };
        let dims = self.data.dims();
        if child.data.dims() != dims {
            child.data = TrainingSet::new(dims);
        }
        child.data.reserve(bound);
        child.resamples.resize_with(count, Vec::new);
        for resample in &mut child.resamples {
            reserve_total(resample, RESAMPLE_HEADROOM * bound);
        }
        workspace.reserve(RESAMPLE_HEADROOM * bound, rows, dims);
    }

    /// The ensemble's predictions at the block rows, in block order:
    /// element-wise bit-identical to [`Surrogate::predict_rows`] of the
    /// ensemble the fit stands for. `out` is cleared and refilled.
    pub fn predict_into(&self, out: &mut Vec<Prediction>) {
        out.clear();
        out.resize(self.rows, Prediction::certain(0.0));
        // A mean pass, then a deviation pass, each over the fitted members
        // in member order: the accumulation order of `predict_rows`.
        let mut members = 0usize;
        for values in self.fitted_values() {
            members += 1;
            for (slot, &value) in out.iter_mut().zip(values) {
                slot.mean += value;
            }
        }
        if members == 0 {
            out.fill(Prediction::certain(self.fallback));
            return;
        }
        let n = members as f64;
        for slot in out.iter_mut() {
            slot.mean /= n;
        }
        for values in self.fitted_values() {
            for (slot, &value) in out.iter_mut().zip(values) {
                let d = value - slot.mean;
                slot.std += d * d;
            }
        }
        for slot in out.iter_mut() {
            slot.std = (slot.std / n).sqrt();
        }
    }

    /// The fitted members' values at the block, in member order.
    fn fitted_values(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.members.count)
            .filter(|&t| self.fitted[t])
            .map(|t| &self.values[t * self.rows..(t + 1) * self.rows])
    }

    /// Number of slots the buffers hold without growing (a capacity
    /// fingerprint for buffer-reuse tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.values.capacity()
            + self.fitted.capacity()
            + self.data.capacity()
            + self.resamples.capacity()
            + self.resamples.iter().map(Vec::capacity).sum::<usize>()
    }
}

impl Surrogate for BaggingEnsemble {
    fn fit(&mut self, data: &TrainingSet) {
        self.trees.clear();
        self.resamples.clear();
        self.data = None;
        self.fitted = false;
        if data.is_empty() {
            return;
        }
        for t in 0..self.members.count {
            let resample = self.members.resample(t, 0..data.len());
            let tree = self.make_tree(data, t, &resample);
            self.trees.push(Arc::new(tree));
            self.resamples.push(Arc::new(resample));
        }
        self.data = Some(data.clone());
        self.fitted = true;
    }

    fn predict(&self, features: &[f64]) -> Prediction {
        if !self.fitted || self.trees.is_empty() {
            return Prediction::certain(0.0);
        }
        let mut sum = 0.0;
        let mut members = 0usize;
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            sum += tree.predict_value(features);
            members += 1;
        }
        if members == 0 {
            return Prediction::certain(self.target_mean_fallback());
        }
        let n = members as f64;
        let mean = sum / n;
        let mut var = 0.0;
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            let d = tree.predict_value(features) - mean;
            var += d * d;
        }
        var /= n;
        Prediction {
            mean,
            std: var.sqrt(),
        }
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn predict_batch(&self, features: &FeatureMatrix) -> Vec<Prediction> {
        let rows: Vec<usize> = (0..features.rows()).collect();
        let mut out = Vec::new();
        self.predict_rows(features, &rows, &mut out);
        out
    }

    fn predict_rows(&self, features: &FeatureMatrix, rows: &[usize], out: &mut Vec<Prediction>) {
        out.clear();
        if !self.fitted || self.trees.is_empty() {
            out.extend(rows.iter().map(|_| Prediction::certain(0.0)));
            return;
        }
        out.resize(
            rows.len(),
            Prediction {
                mean: 0.0,
                std: 0.0,
            },
        );
        // Tree-major, block-traversal pass 1: each chunk of rows descends
        // through the tree together (four in flight on the flat table) into
        // a fixed stack buffer, then accumulates in row order — per row the
        // additions still happen in member order, so the resulting mean is
        // bit-identical to the row-at-a-time `predict`, and the pass stays
        // allocation-free.
        let mut block = [0.0f64; ROW_BLOCK];
        let mut members = 0usize;
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            members += 1;
            for (row_chunk, slot_chunk) in rows.chunks(ROW_BLOCK).zip(out.chunks_mut(ROW_BLOCK)) {
                let block = &mut block[..row_chunk.len()];
                tree.predict_values_into(features, row_chunk, block);
                for (slot, &value) in slot_chunk.iter_mut().zip(block.iter()) {
                    slot.mean += value;
                }
            }
        }
        if members == 0 {
            let fallback = Prediction::certain(self.target_mean_fallback());
            for slot in out.iter_mut() {
                *slot = fallback;
            }
            return;
        }
        let n = members as f64;
        for slot in out.iter_mut() {
            slot.mean /= n;
        }
        // Tree-major pass 2: accumulate the squared deviations in the same
        // member order, again matching `predict` bit for bit.
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            for (row_chunk, slot_chunk) in rows.chunks(ROW_BLOCK).zip(out.chunks_mut(ROW_BLOCK)) {
                let block = &mut block[..row_chunk.len()];
                tree.predict_values_into(features, row_chunk, block);
                for (slot, &value) in slot_chunk.iter_mut().zip(block.iter()) {
                    let d = value - slot.mean;
                    slot.std += d * d;
                }
            }
        }
        for slot in out.iter_mut() {
            slot.std = (slot.std / n).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lynceus_math::rng::SeededRng;

    fn noisy_quadratic(n: usize) -> TrainingSet {
        let mut data = TrainingSet::new(1);
        let mut rng = SeededRng::new(3);
        for i in 0..n {
            let x = i as f64 / n as f64 * 10.0;
            data.push(vec![x], x * x + rng.gaussian(0.0, 0.5));
        }
        data
    }

    #[test]
    fn ensemble_tracks_the_underlying_function() {
        let mut model = BaggingEnsemble::with_seed(10, 42);
        model.fit(&noisy_quadratic(60));
        for x in [1.0, 3.0, 7.0, 9.0] {
            let p = model.predict(&[x]);
            assert!(
                (p.mean - x * x).abs() < 8.0,
                "prediction at {x} was {} (expected ~{})",
                p.mean,
                x * x
            );
        }
    }

    #[test]
    fn predictions_have_nonnegative_std() {
        let mut model = BaggingEnsemble::with_seed(8, 1);
        model.fit(&noisy_quadratic(40));
        for x in [0.0, 2.5, 5.0, 12.0] {
            assert!(model.predict(&[x]).std >= 0.0);
        }
    }

    #[test]
    fn deterministic_given_the_seed() {
        let data = noisy_quadratic(30);
        let mut a = BaggingEnsemble::with_seed(10, 7);
        let mut b = BaggingEnsemble::with_seed(10, 7);
        a.fit(&data);
        b.fit(&data);
        for x in [0.5, 4.5, 8.5] {
            assert_eq!(a.predict(&[x]), b.predict(&[x]));
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let data = noisy_quadratic(30);
        let mut a = BaggingEnsemble::with_seed(10, 1);
        let mut b = BaggingEnsemble::with_seed(10, 2);
        a.fit(&data);
        b.fit(&data);
        let differs = [0.5, 2.5, 4.5, 6.5, 8.5]
            .iter()
            .any(|&x| a.predict(&[x]) != b.predict(&[x]));
        assert!(differs);
    }

    #[test]
    fn unfitted_ensemble_predicts_zero() {
        let model = BaggingEnsemble::new(5);
        assert!(!model.is_fitted());
        assert_eq!(model.predict(&[1.0]).mean, 0.0);
    }

    #[test]
    fn member_count_matches_configuration() {
        let mut model = BaggingEnsemble::with_seed(7, 0);
        model.fit(&noisy_quadratic(20));
        assert_eq!(model.n_estimators(), 7);
        // With 20 samples the probability of an empty resample is e^-20 per
        // tree: every member participates.
        assert_eq!(model.member_predictions(&[1.0]).len(), 7);
    }

    #[test]
    fn fitting_on_empty_data_leaves_the_model_unfitted() {
        let mut model = BaggingEnsemble::new(3);
        model.fit(&TrainingSet::new(2));
        assert!(!model.is_fitted());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_estimators_panics() {
        let _ = BaggingEnsemble::new(0);
    }

    #[test]
    fn resample_counts_are_deterministic_and_size_independent() {
        for t in 0..8u64 {
            for i in 0..64u64 {
                let a = resample_count(17, t, i);
                let b = resample_count(17, t, i);
                assert_eq!(a, b);
                assert!(a <= 16);
            }
        }
        // Roughly Poisson(1): the empirical mean over many draws is near 1.
        let total: usize = (0..4000u64).map(|i| resample_count(5, 0, i)).sum();
        let mean = total as f64 / 4000.0;
        assert!((mean - 1.0).abs() < 0.1, "empirical count mean {mean}");
    }

    #[test]
    fn refit_with_matches_fitting_from_scratch() {
        let data = noisy_quadratic(25);
        let mut base = BaggingEnsemble::with_seed(10, 21);
        base.fit(&data);

        // Extend incrementally…
        let extra_features = [vec![11.0], vec![12.5]];
        let extended = base
            .refit_with(&[(&extra_features[0][..], 121.0)])
            .refit_with(&[(&extra_features[1][..], 156.25)]);

        // …and from scratch.
        let mut full = data.clone();
        full.push(vec![11.0], 121.0);
        full.push(vec![12.5], 156.25);
        let mut scratch_fit = BaggingEnsemble::with_seed(10, 21);
        scratch_fit.fit(&full);

        for x in [0.5, 3.0, 7.5, 11.0, 12.5, 14.0] {
            assert_eq!(
                extended.predict(&[x]),
                scratch_fit.predict(&[x]),
                "incremental and from-scratch fits diverge at {x}"
            );
        }
        assert_eq!(extended.training_len(), 27);
    }

    #[test]
    fn refit_with_reuses_trees_that_skip_the_new_sample() {
        let data = noisy_quadratic(30);
        let mut base = BaggingEnsemble::with_seed(32, 3);
        base.fit(&data);
        let refit = base.refit_with(&[(&[15.0][..], 225.0)]);
        // With 32 trees, in expectation ~e^-1 ≈ 37% skip the new sample; the
        // chance of *none* skipping is astronomically small. Reuse means
        // sharing the very same allocation, not an equal copy.
        let reused = refit
            .trees
            .iter()
            .zip(&base.trees)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert!(reused > 0, "no member tree was reused");
        assert!(reused < 32, "every member tree was reused");
    }

    #[test]
    fn warm_from_extension_chain_equals_scratch_fit_on_union() {
        // Run N's training set…
        let prior = noisy_quadratic(20);
        let prior_rows: Vec<(&[f64], f64)> =
            (0..prior.len()).map(|i| prior.observation(i)).collect();
        // …warm-starts run N+1, which then observes two more points.
        let warm = BaggingEnsemble::warm_from(9, 33, &prior_rows)
            .refit_with(&[(&[21.0][..], 441.0)])
            .refit_with(&[(&[22.5][..], 506.25)]);

        let mut union = prior.clone();
        union.push(vec![21.0], 441.0);
        union.push(vec![22.5], 506.25);
        let mut scratch_fit = BaggingEnsemble::with_seed(9, 33);
        scratch_fit.fit(&union);

        assert_eq!(warm.training_len(), 22);
        for x in [0.0, 4.5, 10.0, 19.0, 21.0, 22.5, 25.0] {
            let (w, s) = (warm.predict(&[x]), scratch_fit.predict(&[x]));
            assert_eq!(
                (w.mean.to_bits(), w.std.to_bits()),
                (s.mean.to_bits(), s.std.to_bits()),
                "warm chain and union fit diverge at {x}"
            );
        }

        // Empty prior degrades to a plain unfitted ensemble.
        assert!(!BaggingEnsemble::warm_from(9, 33, &[]).is_fitted());
    }

    #[test]
    fn refit_with_on_unfitted_ensemble_equals_plain_fit() {
        let mut data = TrainingSet::new(1);
        data.push(vec![1.0], 2.0);
        data.push(vec![3.0], 4.0);
        let unfitted = BaggingEnsemble::with_seed(6, 5);
        let refit = unfitted.refit_with(&[(&[1.0][..], 2.0), (&[3.0][..], 4.0)]);
        let mut plain = BaggingEnsemble::with_seed(6, 5);
        plain.fit(&data);
        for x in [0.0, 1.0, 2.0, 3.0, 4.0] {
            assert_eq!(refit.predict(&[x]), plain.predict(&[x]));
        }
    }

    #[test]
    fn batched_predictions_are_bit_identical_to_single_predictions() {
        let data = noisy_quadratic(40);
        let mut model = BaggingEnsemble::with_seed(10, 11);
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..50).map(|i| [i as f64 * 0.3]));
        let batch = model.predict_batch(&matrix);
        assert_eq!(batch.len(), 50);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(*p, model.predict(matrix.row(i)), "row {i} diverges");
        }
        // Subset form, reusing a caller-owned buffer.
        let rows = [3usize, 17, 42];
        let mut out = Vec::new();
        model.predict_rows(&matrix, &rows, &mut out);
        assert_eq!(out.len(), 3);
        for (slot, &row) in out.iter().zip(&rows) {
            assert_eq!(*slot, model.predict(matrix.row(row)));
        }
    }

    #[test]
    fn reference_fit_and_predict_are_bit_identical_to_the_optimized_paths() {
        let data = noisy_quadratic(35);
        let mut optimized = BaggingEnsemble::with_seed(10, 13);
        optimized.fit(&data);
        let mut reference = BaggingEnsemble::with_seed(10, 13);
        reference.fit_reference(&data);
        for x in [0.0, 1.5, 4.0, 9.5, 12.0] {
            assert_eq!(optimized.predict(&[x]), reference.predict(&[x]));
            assert_eq!(reference.predict_reference(&[x]), reference.predict(&[x]));
        }
        // Degenerate cases agree too.
        let unfitted = BaggingEnsemble::new(3);
        assert_eq!(unfitted.predict_reference(&[1.0]), unfitted.predict(&[1.0]));
    }

    /// Bit patterns of a prediction batch, so `-0.0`/`0.0` and NaN
    /// payloads cannot compare equal by accident.
    fn bits(predictions: &[Prediction]) -> Vec<(u64, u64)> {
        predictions
            .iter()
            .map(|p| (p.mean.to_bits(), p.std.to_bits()))
            .collect()
    }

    #[test]
    fn flat_pointer_and_speculative_batches_agree_bitwise() {
        let data = noisy_quadratic(45);
        let mut model = BaggingEnsemble::with_seed(12, 19);
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..77).map(|i| [i as f64 * 0.21 - 3.0]));
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let (mut flat, mut pointer, mut speculative) = (Vec::new(), Vec::new(), Vec::new());
        model.predict_rows(&matrix, &rows, &mut flat);
        model.predict_rows_pointer(&matrix, &rows, &mut pointer);
        let mut fit = SpeculativeFit::default();
        fit.set_root(&model, &matrix, &rows, None);
        fit.predict_into(&mut speculative);
        assert_eq!(bits(&flat), bits(&pointer), "flat diverged from pointer");
        assert_eq!(bits(&flat), bits(&speculative), "speculative fit diverged");
        for (slot, &row) in flat.iter().zip(&rows) {
            assert_eq!(*slot, model.predict(matrix.row(row)));
        }
        // Unfitted/degenerate paths agree too.
        let unfitted = BaggingEnsemble::new(3);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        unfitted.predict_rows(&matrix, &rows, &mut a);
        unfitted.predict_rows_pointer(&matrix, &rows, &mut b);
        fit.set_root(&unfitted, &matrix, &rows, None);
        fit.predict_into(&mut speculative);
        assert_eq!(a, b);
        assert_eq!(bits(&a), bits(&speculative));
    }

    #[test]
    fn speculative_root_without_a_bound_copies_no_training_set() {
        // The LA = 0 root: member values only.
        let data = noisy_quadratic(30);
        let mut model = BaggingEnsemble::with_seed(10, 4);
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..9).map(|i| [f64::from(i)]));
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let mut fit = SpeculativeFit::default();
        fit.set_root(&model, &matrix, &rows, None);
        assert_eq!(fit.data.capacity(), 0, "the training set was copied");
        assert!(fit.resamples.is_empty(), "the resamples were copied");
        let (mut expected, mut got) = (Vec::new(), Vec::new());
        model.predict_rows(&matrix, &rows, &mut expected);
        fit.predict_into(&mut got);
        assert_eq!(bits(&expected), bits(&got));
    }

    #[test]
    #[should_panic(expected = "training-set bound")]
    fn speculative_extension_of_a_predict_only_fit_panics() {
        let mut model = BaggingEnsemble::with_seed(4, 4);
        model.fit(&noisy_quadratic(6));
        let matrix = FeatureMatrix::from_rows(1, [[1.0]]);
        let mut fit = SpeculativeFit::default();
        fit.set_root(&model, &matrix, &[0], None);
        let mut child = SpeculativeFit::default();
        fit.extend_into(
            &matrix,
            &[0],
            &[2.0],
            4.0,
            &mut child,
            &mut RouteWorkspace::default(),
        );
    }

    #[test]
    fn speculative_extension_of_an_unfitted_root_equals_refit_with() {
        // `refit_with` on an unfitted ensemble fits the new sample alone;
        // most members draw nothing and stay unfitted, so the prediction
        // falls back to the target mean or averages the few that did.
        let matrix = FeatureMatrix::from_rows(1, [[0.5], [3.0]]);
        let rows = [0usize, 1];
        for seed in 0..16 {
            let unfitted = BaggingEnsemble::with_seed(3, seed);
            let mut root = SpeculativeFit::default();
            root.set_root(&unfitted, &matrix, &rows, Some(4));
            let mut child = SpeculativeFit::default();
            let mut workspace = RouteWorkspace::default();
            root.extend_into(&matrix, &rows, &[2.0], 7.0, &mut child, &mut workspace);
            let (mut expected, mut got) = (Vec::new(), Vec::new());
            unfitted
                .refit_with(&[(&[2.0][..], 7.0)])
                .predict_rows(&matrix, &rows, &mut expected);
            child.predict_into(&mut got);
            assert_eq!(bits(&expected), bits(&got), "seed {seed}");
        }
    }

    #[test]
    fn speculative_fits_stop_growing_once_sized() {
        let data = noisy_quadratic(12);
        let mut model = BaggingEnsemble::with_seed(10, 8);
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..20).map(|i| [f64::from(i) * 0.5]));
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let mut root = SpeculativeFit::default();
        root.set_root(&model, &matrix, &rows, Some(30));
        let root_capacity = root.capacity();
        // Reserved for the whole matrix up front, the child and the
        // workspace hold every extension over any narrower block and any
        // training set within the bound without growing, and the
        // reservation depends on nothing else.
        let (mut child, mut workspace) = (SpeculativeFit::default(), RouteWorkspace::default());
        root.reserve_extension(matrix.rows(), &mut child, &mut workspace);
        let reserved = child.capacity() + workspace.capacity();
        for step in 0..12 {
            let width = matrix.rows() - step;
            root.set_root(&model, &matrix, &rows[..width], Some(30));
            root.extend_into(
                &matrix,
                &rows[..width],
                &[7.5],
                50.0 + step as f64,
                &mut child,
                &mut workspace,
            );
            assert_eq!(root.capacity(), root_capacity, "step {step}");
            assert_eq!(child.capacity() + workspace.capacity(), reserved);
            let mut fresh = (SpeculativeFit::default(), RouteWorkspace::default());
            root.reserve_extension(matrix.rows(), &mut fresh.0, &mut fresh.1);
            assert_eq!(fresh.0.capacity() + fresh.1.capacity(), reserved);
            model = model.refit_with(&[(&[step as f64][..], (step * step) as f64)]);
        }
    }

    #[test]
    fn batched_predictions_on_unfitted_model_are_zero() {
        let model = BaggingEnsemble::new(4);
        let matrix = FeatureMatrix::from_rows(1, [[1.0], [2.0]]);
        let batch = model.predict_batch(&matrix);
        assert!(batch.iter().all(|p| *p == Prediction::certain(0.0)));
    }
}
