//! The surrogate-model abstraction and its training data.

/// A labelled training set: one feature vector (the encoded configuration)
/// and one target (the measured cost) per profiled configuration.
///
/// Features are stored row-major in one flat allocation, so cloning a
/// training set — which the speculation engine does once per speculated
/// observation — is two `memcpy`s instead of one heap allocation per
/// observation (none at all through `clone_from` into a buffer that has
/// grown), and row access during tree construction stays cache-friendly.
#[derive(Debug, PartialEq)]
pub struct TrainingSet {
    dims: usize,
    features: Vec<f64>,
    targets: Vec<f64>,
}

impl Clone for TrainingSet {
    fn clone(&self) -> Self {
        Self {
            dims: self.dims,
            features: self.features.clone(),
            targets: self.targets.clone(),
        }
    }

    /// Reuses `self`'s buffers.
    fn clone_from(&mut self, source: &Self) {
        self.dims = source.dims;
        self.features.clone_from(&source.features);
        self.targets.clone_from(&source.targets);
    }
}

impl TrainingSet {
    /// Creates an empty training set for feature vectors of length `dims`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "feature vectors need at least one dimension");
        Self {
            dims,
            features: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if the feature vector has the wrong length or contains
    /// non-finite values, or if the target is not finite.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert_eq!(
            features.len(),
            self.dims,
            "expected {} features, got {}",
            self.dims,
            features.len()
        );
        assert!(
            features.iter().all(|f| f.is_finite()),
            "features must be finite"
        );
        assert!(target.is_finite(), "target must be finite");
        self.features.extend_from_slice(&features);
        self.targets.push(target);
    }

    /// Adds one observation from a borrowed feature row (no intermediate
    /// `Vec` required).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TrainingSet::push`].
    pub fn push_row(&mut self, features: &[f64], target: f64) {
        assert_eq!(
            features.len(),
            self.dims,
            "expected {} features, got {}",
            self.dims,
            features.len()
        );
        assert!(
            features.iter().all(|f| f.is_finite()),
            "features must be finite"
        );
        assert!(target.is_finite(), "target must be finite");
        self.features.extend_from_slice(features);
        self.targets.push(target);
    }

    /// Grows the buffers to hold `rows` observations in total without
    /// reallocating.
    pub(crate) fn reserve(&mut self, rows: usize) {
        reserve_total(&mut self.features, rows * self.dims);
        reserve_total(&mut self.targets, rows);
    }

    /// Number of `f64` slots the buffers hold without growing (a capacity
    /// fingerprint for buffer-reuse tests).
    pub(crate) fn capacity(&self) -> usize {
        self.features.capacity() + self.targets.capacity()
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if no observation has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Dimensionality of the feature vectors.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Iterates the feature vectors, in insertion order.
    pub fn feature_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.features.chunks_exact(self.dims)
    }

    /// The feature row of observation `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn feature_row(&self, index: usize) -> &[f64] {
        &self.features[index * self.dims..(index + 1) * self.dims]
    }

    /// One feature value of one observation (the hot accessor of tree
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn feature(&self, index: usize, dim: usize) -> f64 {
        debug_assert!(dim < self.dims);
        self.features[index * self.dims + dim]
    }

    /// The targets, in insertion order.
    #[must_use]
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The observation at `index` as a `(features, target)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn observation(&self, index: usize) -> (&[f64], f64) {
        (self.feature_row(index), self.targets[index])
    }

    /// Mean of the targets; 0 for an empty set.
    #[must_use]
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }

    /// Minimum of the targets, if any observation exists.
    #[must_use]
    pub fn target_min(&self) -> Option<f64> {
        self.targets
            .iter()
            .copied()
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Maximum of the targets, if any observation exists.
    #[must_use]
    pub fn target_max(&self) -> Option<f64> {
        self.targets
            .iter()
            .copied()
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }
}

/// Grows `buffer`'s capacity to at least `total` elements (`Vec::reserve`
/// counts from the current length instead).
pub(crate) fn reserve_total<T>(buffer: &mut Vec<T>, total: usize) {
    buffer.reserve(total.saturating_sub(buffer.len()));
}

/// A dense, row-major matrix of feature vectors.
///
/// The optimizer evaluates the surrogate at *every* untested configuration on
/// every (real or speculated) iteration; handing the model one contiguous
/// matrix instead of one `&[f64]` at a time lets tree ensembles traverse
/// tree-major (every row through tree 0, then every row through tree 1, …),
/// which touches each tree's nodes once per batch instead of once per row and
/// performs no per-row allocation.
///
/// Rows are indexed positionally; the optimizer stores one row per
/// configuration id so `row(id.index())` is the configuration's features.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    dims: usize,
    data: Vec<f64>,
}

impl Default for FeatureMatrix {
    /// An empty single-column matrix — a placeholder for buffers that are
    /// [`FeatureMatrix::reset`] to the real dimensionality before use (the
    /// optimizer's per-decision row-block buffer is one).
    fn default() -> Self {
        Self {
            dims: 1,
            data: Vec::new(),
        }
    }
}

impl FeatureMatrix {
    /// Creates an empty matrix for feature vectors of length `dims`.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "feature vectors need at least one dimension");
        Self {
            dims,
            data: Vec::new(),
        }
    }

    /// Drops every row and re-dimensions the matrix, keeping the backing
    /// allocation — for row-block buffers refilled once per batch.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    pub fn reset(&mut self, dims: usize) {
        assert!(dims > 0, "feature vectors need at least one dimension");
        self.dims = dims;
        self.data.clear();
    }

    /// Number of `f64` slots the backing allocation can hold without
    /// growing (a capacity fingerprint for buffer-reuse tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Builds a matrix from an iterator of rows.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or a row has the wrong length.
    pub fn from_rows<I, R>(dims: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut matrix = Self::new(dims);
        for row in rows {
            matrix.push_row(row.as_ref());
        }
        matrix
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row has the wrong length.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dims,
            "expected {} features, got {}",
            self.dims,
            row.len()
        );
        self.data.extend_from_slice(row);
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len() / self.dims
    }

    /// True when the matrix holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of the rows.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The row at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn row(&self, index: usize) -> &[f64] {
        &self.data[index * self.dims..(index + 1) * self.dims]
    }
}

/// A Gaussian predictive distribution produced by a surrogate model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted mean.
    pub mean: f64,
    /// Predictive standard deviation (0 when the model is certain).
    pub std: f64,
}

impl Prediction {
    /// A point prediction with no uncertainty.
    #[must_use]
    pub fn certain(mean: f64) -> Self {
        Self { mean, std: 0.0 }
    }
}

/// A regression model that maps feature vectors to Gaussian predictive
/// distributions.
///
/// Implementations must tolerate repeated refitting (the optimizer refits
/// after every profiled configuration and inside every simulated exploration
/// step) and must be `Send + Sync` so path simulations can run in parallel.
pub trait Surrogate: Send + Sync {
    /// Fits the model to the training set, replacing any previous fit.
    fn fit(&mut self, data: &TrainingSet);

    /// Predicts the target distribution at a feature vector.
    ///
    /// Calling `predict` before the first `fit` returns an uninformative
    /// prediction (`mean = 0`, `std = 0`); the optimizer never does this, but
    /// implementations must not panic.
    fn predict(&self, features: &[f64]) -> Prediction;

    /// True once `fit` has been called with at least one observation.
    fn is_fitted(&self) -> bool;

    /// Predicts the target distribution at every row of a feature matrix.
    ///
    /// The default implementation loops over [`Surrogate::predict`];
    /// ensemble models override it with a tree-major traversal that visits
    /// each member once per batch and allocates nothing beyond the returned
    /// vector. The result is element-wise bit-identical to calling
    /// [`Surrogate::predict`] on each row.
    fn predict_batch(&self, features: &FeatureMatrix) -> Vec<Prediction> {
        (0..features.rows())
            .map(|i| self.predict(features.row(i)))
            .collect()
    }

    /// Predicts the target distribution at a subset of rows of a feature
    /// matrix, writing the results (aligned with `rows`) into `out`.
    ///
    /// `out` is cleared and refilled, so a caller that keeps the buffer
    /// around pays no allocation once the buffer has grown to the working-set
    /// size — this is the hot entry point of the optimizer's speculation
    /// engine, which re-scores the untested set on every simulated branch.
    /// The results are element-wise bit-identical to [`Surrogate::predict`].
    fn predict_rows(&self, features: &FeatureMatrix, rows: &[usize], out: &mut Vec<Prediction>) {
        out.clear();
        out.extend(rows.iter().map(|&r| self.predict(features.row(r))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_accumulates_observations() {
        let mut data = TrainingSet::new(2);
        assert!(data.is_empty());
        data.push(vec![1.0, 2.0], 10.0);
        data.push(vec![3.0, 4.0], 20.0);
        assert_eq!(data.len(), 2);
        assert_eq!(data.dims(), 2);
        assert_eq!(data.observation(1), (&[3.0, 4.0][..], 20.0));
        assert_eq!(data.target_mean(), 15.0);
        assert_eq!(data.target_min(), Some(10.0));
        assert_eq!(data.target_max(), Some(20.0));
    }

    #[test]
    fn empty_training_set_statistics() {
        let data = TrainingSet::new(3);
        assert_eq!(data.target_mean(), 0.0);
        assert_eq!(data.target_min(), None);
        assert_eq!(data.target_max(), None);
    }

    #[test]
    #[should_panic(expected = "expected 2 features")]
    fn wrong_dimensionality_panics() {
        let mut data = TrainingSet::new(2);
        data.push(vec![1.0], 5.0);
    }

    #[test]
    #[should_panic(expected = "target must be finite")]
    fn non_finite_target_panics() {
        let mut data = TrainingSet::new(1);
        data.push(vec![1.0], f64::NAN);
    }

    #[test]
    fn certain_prediction_has_zero_std() {
        let p = Prediction::certain(4.2);
        assert_eq!(p.mean, 4.2);
        assert_eq!(p.std, 0.0);
    }
}
