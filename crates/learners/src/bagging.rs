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

use crate::model::{FeatureMatrix, Prediction, Surrogate, TrainingSet};
use crate::tree::RegressionTree;
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
    n_estimators: usize,
    seed: u64,
    min_samples_leaf: usize,
    max_depth: usize,
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
        Self {
            n_estimators,
            seed,
            min_samples_leaf: 1,
            max_depth: 32,
            trees: Vec::new(),
            resamples: Vec::new(),
            data: None,
            fitted: false,
        }
    }

    /// Sets the minimum number of samples per leaf of every member tree.
    #[must_use]
    pub fn with_min_samples_leaf(mut self, min: usize) -> Self {
        self.min_samples_leaf = min.max(1);
        self
    }

    /// Sets the maximum depth of every member tree.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Number of member trees.
    #[must_use]
    pub fn n_estimators(&self) -> usize {
        self.n_estimators
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

    /// The Poisson resample multiset of member `index` over samples
    /// `range` (ascending).
    fn resample_indices(&self, index: usize, range: std::ops::Range<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        for i in range {
            let count = resample_count(self.seed, index as u64, i as u64);
            for _ in 0..count {
                out.push(i);
            }
        }
        out
    }

    /// Builds the member tree `index` on a resample multiset of `data`.
    fn make_tree(&self, data: &TrainingSet, index: usize, resample: &[usize]) -> RegressionTree {
        let mut tree = RegressionTree::new()
            .with_max_depth(self.max_depth)
            .with_min_samples_leaf(self.min_samples_leaf)
            .with_feature_subsample(feature_subsample(data.dims()))
            .with_seed(self.seed.wrapping_add(index as u64 * 7919 + 1));
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
    /// entirely. This is the workhorse of the optimizer's speculation engine,
    /// which extends the model by one speculated observation per simulated
    /// branch.
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
            extended.push(features.to_vec(), *target);
        }

        let mut next = Self {
            n_estimators: self.n_estimators,
            seed: self.seed,
            min_samples_leaf: self.min_samples_leaf,
            max_depth: self.max_depth,
            trees: Vec::with_capacity(self.n_estimators),
            resamples: Vec::with_capacity(self.n_estimators),
            data: None,
            fitted: false,
        };
        for t in 0..self.n_estimators {
            // Extend the stored multiset (ascending base indices) with the
            // new draws (ascending, all >= base_len): the result is exactly
            // the multiset a full Poisson scan would produce. The extension
            // is built lazily so the common no-draw case allocates nothing.
            let mut resample: Option<Vec<usize>> = None;
            for i in base_len..extended.len() {
                let count = resample_count(self.seed, t as u64, i as u64);
                if count > 0 {
                    let draws = resample.get_or_insert_with(|| {
                        if self.fitted {
                            (*self.resamples[t]).clone()
                        } else {
                            Vec::new()
                        }
                    });
                    for _ in 0..count {
                        draws.push(i);
                    }
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
        for t in 0..self.n_estimators {
            let indices = self.resample_indices(t, 0..data.len());
            // The original resample layout: one heap-allocated row per draw.
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut targets: Vec<f64> = Vec::new();
            for &i in &indices {
                let (features, target) = data.observation(i);
                rows.push(features.to_vec());
                targets.push(target);
            }
            let mut tree = RegressionTree::new()
                .with_max_depth(self.max_depth)
                .with_min_samples_leaf(self.min_samples_leaf)
                .with_feature_subsample(feature_subsample(data.dims()))
                .with_seed(self.seed.wrapping_add(t as u64 * 7919 + 1));
            tree.fit_reference(&rows, &targets);
            self.trees.push(Arc::new(tree));
            self.resamples.push(Arc::new(indices));
        }
        self.data = Some(data.clone());
        self.fitted = true;
    }

    /// Batched prediction with a cross-call memo of per-tree row values.
    ///
    /// The speculation engine scores hundreds of speculative ensembles per
    /// decision **at the same fixed row set**, and those ensembles share
    /// most member trees (an incremental refit reuses every tree whose
    /// resample skips the new sample). The memo caches each distinct tree's
    /// leaf values over the row set — keyed by the tree's `Arc` address,
    /// with the `Arc` kept alive inside the cache so an address can never be
    /// recycled while its entry exists — so a shared tree is traversed once
    /// per decision instead of once per ensemble evaluation. A memoized
    /// traversal descends the whole row block through the tree
    /// ([`RegressionTree::predict_values_into`]), and the value vectors
    /// collected during the mean pass are replayed by the deviation pass,
    /// so each member costs one hash lookup per call, not two.
    ///
    /// The caller owns the cache and must use it only while `rows` is
    /// unchanged (the engine keeps one per worker per decision).
    /// Element-wise bit-identical to [`Surrogate::predict`].
    pub fn predict_rows_memo(
        &self,
        features: &FeatureMatrix,
        rows: &[usize],
        out: &mut Vec<Prediction>,
        memo: &mut RowValueMemo,
    ) {
        out.clear();
        if !self.fitted || self.trees.is_empty() {
            out.extend(rows.iter().map(|_| Prediction::certain(0.0)));
            return;
        }
        let RowValueMemo { map, passes } = memo;
        // Bound the memo so a pathological decision cannot hold thousands of
        // retired trees alive — but evict only *retired* entries (the memo's
        // `Arc` is the last one standing): live trees are shared with
        // ensembles still in play this decision, and dropping their cached
        // values would defeat the memo exactly when ensembles are largest.
        // Fall back to a full clear only if retiring frees nothing.
        if map.len() > MEMO_SOFT_CAPACITY {
            let before = map.len();
            // lint: allow(hash-iteration) -- retain is order-independent here: survivors form a set keyed by tree address and no value is read during the sweep
            map.retain(|_, (tree, _)| Arc::strong_count(tree) > 1);
            if map.len() == before {
                map.clear();
            }
        }
        passes.clear();
        let mut members = 0usize;
        out.resize(
            rows.len(),
            Prediction {
                mean: 0.0,
                std: 0.0,
            },
        );
        for tree in self.trees.iter().filter(|t| t.is_fitted()) {
            members += 1;
            let key = Arc::as_ptr(tree) as usize;
            let entry = map.entry(key).or_insert_with(|| {
                let mut values = vec![0.0; rows.len()];
                tree.predict_values_into(features, rows, &mut values);
                (Arc::clone(tree), Arc::new(values))
            });
            let values = Arc::clone(&entry.1);
            for (slot, &value) in out.iter_mut().zip(values.iter()) {
                slot.mean += value;
            }
            passes.push(values);
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
        // Deviation pass over the value vectors collected above, in the
        // same member order — no second map resolution per tree.
        for values in passes.iter() {
            for (slot, &value) in out.iter_mut().zip(values.iter()) {
                let d = value - slot.mean;
                slot.std += d * d;
            }
        }
        passes.clear();
        for slot in out.iter_mut() {
            slot.std = (slot.std / n).sqrt();
        }
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

/// Entry bound above which [`BaggingEnsemble::predict_rows_memo`] evicts
/// retired trees (and, only if that frees nothing, clears outright).
const MEMO_SOFT_CAPACITY: usize = 8192;

/// Tree address → `(tree, leaf values over the memo's row set)`. The entry
/// keeps the tree's `Arc` alive both to pin the address key and to let the
/// overflow policy tell live trees (strong count > 1) from retired ones.
type MemoMap = std::collections::HashMap<
    usize,
    (Arc<RegressionTree>, Arc<Vec<f64>>),
    std::hash::BuildHasherDefault<PointerHasher>,
>;

/// Cross-ensemble memo of per-tree leaf values over a fixed row set, used by
/// [`BaggingEnsemble::predict_rows_memo`]. Entries keep their tree's `Arc`
/// alive, so the address key is stable for the memo's lifetime. Keys are
/// already well-distributed allocator addresses, so the map hashes them with
/// an identity hasher instead of SipHash.
#[derive(Default)]
pub struct RowValueMemo {
    map: MemoMap,
    /// Per-call scratch: the value vectors of the ensemble under
    /// evaluation, collected by the mean pass and replayed by the deviation
    /// pass so the second pass performs no hash lookups. Cleared at the end
    /// of every call (the `Arc`s are shared with `map`, so holding them
    /// here costs nothing but a count).
    passes: Vec<Arc<Vec<f64>>>,
}

/// Identity hasher for pointer-valued keys (with a multiplicative mix so the
/// low alignment bits do not collide every bucket).
#[derive(Default)]
pub struct PointerHasher(u64);

impl std::hash::Hasher for PointerHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, i: usize) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl RowValueMemo {
    /// Creates an empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every memoized tree (and the `Arc`s keeping them alive) while
    /// retaining the map's capacity. Callers that reuse one memo across
    /// decisions **must** clear it whenever the row set changes — the cached
    /// values are per-row, keyed only by tree identity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.passes.clear();
    }

    /// Number of distinct trees memoized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        for t in 0..self.n_estimators {
            let resample = self.resample_indices(t, 0..data.len());
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
        // Memoized single-traversal form.
        let mut memoized = Vec::new();
        let mut memo = RowValueMemo::new();
        model.predict_rows_memo(&matrix, &rows, &mut memoized, &mut memo);
        assert_eq!(memoized, out);
        // Memo hits on a repeat call produce the same values.
        model.predict_rows_memo(&matrix, &rows, &mut memoized, &mut memo);
        assert_eq!(memoized, out);
        // Clearing empties the memo (for reuse under a new row set) and the
        // next pass repopulates it with identical results.
        assert!(!memo.is_empty());
        memo.clear();
        assert!(memo.is_empty());
        model.predict_rows_memo(&matrix, &rows, &mut memoized, &mut memo);
        assert_eq!(memoized, out);
        assert_eq!(memo.len(), 10);
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

    fn tiny_set() -> TrainingSet {
        let mut data = TrainingSet::new(1);
        data.push(vec![0.0], 1.0);
        data.push(vec![1.0], 2.0);
        data.push(vec![2.0], 4.0);
        data
    }

    #[test]
    fn flat_pointer_and_memoized_batches_agree_bitwise() {
        let data = noisy_quadratic(45);
        let mut model = BaggingEnsemble::with_seed(12, 19);
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..77).map(|i| [i as f64 * 0.21 - 3.0]));
        let rows: Vec<usize> = (0..matrix.rows()).collect();
        let (mut flat, mut pointer, mut memoized) = (Vec::new(), Vec::new(), Vec::new());
        model.predict_rows(&matrix, &rows, &mut flat);
        model.predict_rows_pointer(&matrix, &rows, &mut pointer);
        let mut memo = RowValueMemo::new();
        model.predict_rows_memo(&matrix, &rows, &mut memoized, &mut memo);
        assert_eq!(flat, pointer, "flat block traversal diverged from pointer");
        assert_eq!(flat, memoized, "memoized traversal diverged");
        for (slot, &row) in flat.iter().zip(&rows) {
            assert_eq!(*slot, model.predict(matrix.row(row)));
        }
        // Unfitted/degenerate paths agree too.
        let unfitted = BaggingEnsemble::new(3);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        unfitted.predict_rows(&matrix, &rows, &mut a);
        unfitted.predict_rows_pointer(&matrix, &rows, &mut b);
        assert_eq!(a, b);
    }

    /// Regression test for the memo overflow policy: crossing the soft
    /// capacity used to `clear()` the whole memo, evicting *live* shared
    /// trees mid-decision. Now only retired entries (whose memo `Arc` is
    /// the last owner) are evicted; the live ensembles' cached values
    /// survive.
    #[test]
    fn memo_overflow_evicts_retired_trees_but_keeps_live_ones() {
        let data = tiny_set();
        let matrix = FeatureMatrix::from_rows(1, [[0.5], [1.5]]);
        let rows = [0usize, 1];
        let mut out = Vec::new();
        let mut memo = RowValueMemo::new();

        let mut live_a = BaggingEnsemble::with_seed(64, 1);
        live_a.fit(&data);
        live_a.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        let a_entries = memo.len();
        let mut live_b = BaggingEnsemble::with_seed(64, 2);
        live_b.fit(&data);
        live_b.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        let b_entries = memo.len() - a_entries;

        // Churn: fit-and-drop ensembles until the memo exceeds the bound.
        // Every call during the loop starts at or below the bound, so the
        // eviction first fires on the probe call after the loop.
        let mut churn_seed = 1000u64;
        while memo.len() <= MEMO_SOFT_CAPACITY {
            let mut retired = BaggingEnsemble::with_seed(64, churn_seed);
            churn_seed += 1;
            retired.fit(&data);
            retired.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
            // `retired` drops here: its entries' memo `Arc`s become sole owners.
        }
        assert!(memo.len() > MEMO_SOFT_CAPACITY);

        let mut expected = Vec::new();
        live_a.predict_rows(&matrix, &rows, &mut expected);
        live_a.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        assert_eq!(out, expected, "eviction corrupted a live ensemble's values");
        assert_eq!(
            memo.len(),
            a_entries + b_entries,
            "only the two live ensembles' trees may survive the eviction"
        );
        // B's cached values survived without B being re-memoized: its call
        // inserts nothing new.
        live_b.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        assert_eq!(memo.len(), a_entries + b_entries);
    }

    /// The fallback half of the overflow policy: when every entry is live
    /// (nothing to retire), the memo falls back to the old full clear so it
    /// cannot grow without bound.
    #[test]
    fn memo_overflow_falls_back_to_full_clear_when_nothing_is_retired() {
        let data = tiny_set();
        let matrix = FeatureMatrix::from_rows(1, [[0.5], [1.5]]);
        let rows = [0usize, 1];
        let mut out = Vec::new();
        let mut memo = RowValueMemo::new();

        let mut live = BaggingEnsemble::with_seed(64, 1);
        live.fit(&data);
        live.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        let live_entries = memo.len();

        let mut held = Vec::new();
        let mut seed = 2000u64;
        while memo.len() <= MEMO_SOFT_CAPACITY {
            let mut other = BaggingEnsemble::with_seed(64, seed);
            seed += 1;
            other.fit(&data);
            other.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
            held.push(other); // kept alive: every entry stays live
        }
        assert!(memo.len() > MEMO_SOFT_CAPACITY);

        let mut expected = Vec::new();
        live.predict_rows(&matrix, &rows, &mut expected);
        live.predict_rows_memo(&matrix, &rows, &mut out, &mut memo);
        assert_eq!(out, expected);
        assert_eq!(
            memo.len(),
            live_entries,
            "a full clear (then one re-memoized ensemble) was expected"
        );
        drop(held);
    }

    #[test]
    fn batched_predictions_on_unfitted_model_are_zero() {
        let model = BaggingEnsemble::new(4);
        let matrix = FeatureMatrix::from_rows(1, [[1.0], [2.0]]);
        let batch = model.predict_batch(&matrix);
        assert!(batch.iter().all(|p| *p == Prediction::certain(0.0)));
    }
}
