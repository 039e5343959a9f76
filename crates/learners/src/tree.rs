//! CART-style regression trees.
//!
//! The bagging ensemble used as Lynceus' default surrogate is built out of
//! *random* regression trees: each tree is trained on a bootstrap resample of
//! the training set and, optionally, considers only a random subset of the
//! features at every split (the Weka `RandomTree` behaviour). The splitting
//! criterion is variance reduction, the standard CART criterion for
//! regression.

use crate::model::{reserve_total, FeatureMatrix, Prediction, Surrogate, TrainingSet};
use lynceus_math::rng::SeededRng;

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Internal split: go left when `features[feature] <= threshold`.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf: predict the mean of the samples that reached it.
    Leaf { value: f64, count: usize },
}

/// Sentinel in [`FlatNodes::feature`] marking a leaf.
const FLAT_LEAF: u32 = u32::MAX;

/// The flat struct-of-arrays form of a fitted tree, derived from the
/// pointer/enum [`Node`] representation at fit time and used by every hot
/// traversal.
///
/// Nodes are renumbered so a split's two children are *adjacent*
/// (`child[n]` and `child[n] + 1`), which turns descent into an arithmetic
/// select — `node = child[n] + (features[feature[n]] > threshold[n])` — with
/// no enum discriminant to decode and no branch to mispredict on the
/// left/right decision. Leaves reuse the `threshold` lane for their value,
/// so one cache line of `threshold` serves both node kinds.
///
/// The pointer form in [`RegressionTree::nodes`] stays the authoritative
/// (and serialized) representation; this table is a derived cache, excluded
/// from equality so flat-carrying and pointer-only fits of the same data
/// still compare equal.
#[derive(Debug, Clone, Default)]
struct FlatNodes {
    /// Split feature per node; [`FLAT_LEAF`] marks a leaf.
    feature: Vec<u32>,
    /// Split threshold per split node; the leaf *value* per leaf node.
    threshold: Vec<f64>,
    /// Base index of the node's two adjacent children (left child at
    /// `child[n]`, right child at `child[n] + 1`); 0 (never read) for
    /// leaves.
    child: Vec<u32>,
}

impl FlatNodes {
    /// Builds the flat table from the pointer nodes, renumbering so each
    /// split's children are adjacent.
    fn build(nodes: &[Node]) -> Self {
        let mut flat = Self {
            feature: vec![0; nodes.len()],
            threshold: vec![0.0; nodes.len()],
            child: vec![0; nodes.len()],
        };
        if nodes.is_empty() {
            return flat;
        }
        let mut next = 1u32;
        let mut work = vec![(0usize, 0u32)];
        while let Some((ptr, slot)) = work.pop() {
            let slot = slot as usize;
            match &nodes[ptr] {
                Node::Leaf { value, .. } => {
                    flat.feature[slot] = FLAT_LEAF;
                    flat.threshold[slot] = *value;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let base = next;
                    next += 2;
                    flat.feature[slot] =
                        u32::try_from(*feature).expect("feature index exceeds u32");
                    flat.threshold[slot] = *threshold;
                    flat.child[slot] = base;
                    work.push((*left, base));
                    work.push((*right, base + 1));
                }
            }
        }
        flat
    }

    fn is_empty(&self) -> bool {
        self.feature.is_empty()
    }

    /// Branchless-select descent of one row. Matches the pointer walk bit
    /// for bit: out-of-range features read as 0.0 and a NaN comparison is
    /// false, so `!(x <= threshold)` sends NaN right exactly like the
    /// pointer form's `if x <= threshold { left } else { right }`.
    // The negated partial-ord comparison is the point: `partial_cmp` would
    // reintroduce a branch and obscure the NaN-goes-right equivalence.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn descend(&self, features: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            let feature = self.feature[node];
            if feature == FLAT_LEAF {
                return self.threshold[node];
            }
            let x = features.get(feature as usize).copied().unwrap_or(0.0);
            node = self.child[node] as usize + usize::from(!(x <= self.threshold[node]));
        }
    }

    /// Block traversal: descends `rows` through the tree four at a time.
    /// The four in-flight descents are independent memory chains, so the
    /// loads of one lane overlap the latency of the others; each row's
    /// value is computed independently (no accumulation), so the result is
    /// position-for-position identical to calling [`FlatNodes::descend`]
    /// per row.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // same NaN semantic as `descend`
    fn descend_rows_into(&self, features: &FeatureMatrix, rows: &[usize], out: &mut [f64]) {
        debug_assert_eq!(rows.len(), out.len());
        let mut row_chunks = rows.chunks_exact(4);
        let mut out_chunks = out.chunks_exact_mut(4);
        for (row4, out4) in (&mut row_chunks).zip(&mut out_chunks) {
            let lanes = [
                features.row(row4[0]),
                features.row(row4[1]),
                features.row(row4[2]),
                features.row(row4[3]),
            ];
            let mut node = [0usize; 4];
            loop {
                let mut active = false;
                for lane in 0..4 {
                    let feature = self.feature[node[lane]];
                    if feature != FLAT_LEAF {
                        active = true;
                        let x = lanes[lane].get(feature as usize).copied().unwrap_or(0.0);
                        node[lane] = self.child[node[lane]] as usize
                            + usize::from(!(x <= self.threshold[node[lane]]));
                    }
                }
                if !active {
                    break;
                }
            }
            for lane in 0..4 {
                out4[lane] = self.threshold[node[lane]];
            }
        }
        for (slot, &row) in out_chunks
            .into_remainder()
            .iter_mut()
            .zip(row_chunks.remainder())
        {
            *slot = self.descend(features.row(row));
        }
    }
}

/// A regression tree with variance-reduction splits.
///
/// # Example
///
/// ```
/// use lynceus_learners::{RegressionTree, Surrogate, TrainingSet};
///
/// let mut data = TrainingSet::new(1);
/// for i in 0..16 {
///     let x = i as f64;
///     data.push(vec![x], if x < 8.0 { 1.0 } else { 100.0 });
/// }
/// let mut tree = RegressionTree::new();
/// tree.fit(&data);
/// assert!(tree.predict(&[2.0]).mean < 10.0);
/// assert!(tree.predict(&[14.0]).mean > 50.0);
/// ```
#[derive(Debug, Clone)]
pub struct RegressionTree {
    max_depth: usize,
    min_samples_leaf: usize,
    /// Number of features examined at each split; `None` means all of them.
    feature_subsample: Option<usize>,
    seed: u64,
    nodes: Vec<Node>,
    /// Derived struct-of-arrays traversal cache (see [`FlatNodes`]), built
    /// by the optimized fit path; empty on pointer-only fits
    /// ([`RegressionTree::fit_reference`]). Never serialized or compared:
    /// the pointer `nodes` stay the authoritative representation.
    flat: FlatNodes,
    fitted: bool,
}

/// Equality over the authoritative state only: the derived [`FlatNodes`]
/// cache is excluded, so an optimized fit (which carries the flat table)
/// and a reference fit of the same data still compare equal — the
/// `reference_build_is_bit_identical` test depends on this.
impl PartialEq for RegressionTree {
    fn eq(&self, other: &Self) -> bool {
        self.max_depth == other.max_depth
            && self.min_samples_leaf == other.min_samples_leaf
            && self.feature_subsample == other.feature_subsample
            && self.seed == other.seed
            && self.nodes == other.nodes
            && self.fitted == other.fitted
    }
}

impl Default for RegressionTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RegressionTree {
    /// Creates a tree with the default hyper-parameters (unbounded depth
    /// capped at 32, leaves of at least one sample, all features considered at
    /// every split).
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_depth: 32,
            min_samples_leaf: 1,
            feature_subsample: None,
            seed: 0,
            nodes: Vec::new(),
            flat: FlatNodes::default(),
            fitted: false,
        }
    }

    /// Sets the maximum tree depth.
    #[must_use]
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Sets the minimum number of samples per leaf.
    #[must_use]
    pub fn with_min_samples_leaf(mut self, min: usize) -> Self {
        self.min_samples_leaf = min.max(1);
        self
    }

    /// Considers only `k` randomly chosen features at each split (the
    /// "random tree" behaviour used inside bagging ensembles).
    #[must_use]
    pub fn with_feature_subsample(mut self, k: usize) -> Self {
        self.feature_subsample = Some(k.max(1));
        self
    }

    /// Sets the seed driving the random feature selection.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of nodes in the fitted tree (0 before fitting).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fits the tree on a multiset of observations: `indices` lists rows of
    /// `data`, possibly with repetitions (the shape produced by bootstrap
    /// resampling — a row drawn `k` times appears `k` times). An empty index
    /// list leaves the tree unfitted.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn fit_indexed(&mut self, data: &TrainingSet, indices: &[usize]) {
        self.nodes.clear();
        self.flat = FlatNodes::default();
        self.fitted = false;
        if indices.is_empty() {
            return;
        }
        assert!(
            indices.iter().all(|&i| i < data.len()),
            "resample index out of range"
        );
        let mut rng = SeededRng::new(self.seed);
        let mut owned: Vec<usize> = indices.to_vec();
        let mut buffers = SplitBuffers::default();
        let root = self.build(data, &mut owned, 0, &mut rng, &mut buffers);
        debug_assert_eq!(root, 0, "the root must be the first node");
        // Flatten once per fit: every subsequent traversal of the tree runs
        // on the contiguous table instead of chasing enum nodes.
        self.flat = FlatNodes::build(&self.nodes);
        self.fitted = true;
    }

    /// The fused fit-and-route builder: builds the tree this configuration
    /// would fit on the resample multiset `indices` of `data` (exactly as
    /// [`RegressionTree::fit_indexed`] does), sends rows `rows` of `features`
    /// down each split as the split is chosen, and writes each row's leaf
    /// value into `out` — storing no node. Returns false, leaving `out`
    /// untouched, when `indices` is empty (the tree would be unfitted).
    ///
    /// Bit-identical to `fit_indexed` followed by
    /// [`RegressionTree::predict_values_into`]: both builders run the same
    /// split search, and rows are routed with the flat descent's select
    /// (`x <= threshold` goes left, NaN goes right, a missing feature reads
    /// 0.0). This `self` is only read for its hyper-parameters and seed.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` have different lengths or an index is out
    /// of range.
    pub(crate) fn fit_predict_rows(
        &self,
        data: &TrainingSet,
        indices: &[usize],
        features: &FeatureMatrix,
        rows: &[usize],
        out: &mut [f64],
        workspace: &mut RouteWorkspace,
    ) -> bool {
        assert_eq!(rows.len(), out.len(), "one output slot per row");
        if indices.is_empty() {
            return false;
        }
        assert!(
            indices.iter().all(|&i| i < data.len()),
            "resample index out of range"
        );
        let RouteWorkspace {
            indices: owned,
            route,
            split,
        } = workspace;
        owned.clear();
        owned.extend_from_slice(indices);
        route.clear();
        route.extend(0..rows.len());
        let build = RouteBuild {
            tree: self,
            data,
            features,
            rows,
            // Without a feature draw the build consumes no randomness, so a
            // subtree no row reaches can be skipped without shifting any
            // later node's draws.
            draws: self.draws_features(data.dims()),
        };
        let mut rng = SeededRng::new(self.seed);
        build.node(owned, route, 0, &mut rng, split, out);
        true
    }

    /// True when the split search draws a random feature subset (and so
    /// consumes the build's random stream) on `dims`-dimensional data.
    fn draws_features(&self, dims: usize) -> bool {
        matches!(self.feature_subsample, Some(k) if k < dims)
    }

    /// The original (pre-overhaul) tree construction, retained verbatim so
    /// the optimizer's naive reference engine and the speedup benchmarks
    /// measure the cost profile the speculation-engine rewrite replaced:
    /// one heap-allocated feature vector per observation (the original
    /// training-set layout), a materialized target vector, per-feature
    /// `(value, target)` collections and prefix-sum arrays allocated at
    /// every node.
    ///
    /// Produces **bit-identical** nodes to [`Surrogate::fit`] on the same
    /// observations (the optimized build performs the same arithmetic in
    /// the same order, just flat and without the allocations); asserted by
    /// the `reference_build_is_bit_identical` test.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `targets` have different lengths.
    pub fn fit_reference(&mut self, rows: &[Vec<f64>], targets: &[f64]) {
        assert_eq!(rows.len(), targets.len(), "one target per row");
        self.nodes.clear();
        // No flat table: reference-fitted trees keep the original
        // pointer-walk cost profile the benchmarks compare against.
        self.flat = FlatNodes::default();
        self.fitted = false;
        if rows.is_empty() {
            return;
        }
        let indices: Vec<usize> = (0..rows.len()).collect();
        let mut rng = SeededRng::new(self.seed);
        let root = self.build_reference(rows, targets, &indices, 0, &mut rng);
        debug_assert_eq!(root, 0, "the root must be the first node");
        self.fitted = true;
    }

    /// The retained original node construction behind
    /// [`RegressionTree::fit_reference`].
    #[allow(clippy::too_many_lines)]
    fn build_reference(
        &mut self,
        rows: &[Vec<f64>],
        all_targets: &[f64],
        indices: &[usize],
        depth: usize,
        rng: &mut SeededRng,
    ) -> usize {
        let targets: Vec<f64> = indices.iter().map(|&i| all_targets[i]).collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                value: mean,
                count: indices.len(),
            });
            nodes.len() - 1
        };

        if depth >= self.max_depth
            || indices.len() < 2 * self.min_samples_leaf
            || targets.iter().all(|&t| (t - targets[0]).abs() < 1e-12)
        {
            return make_leaf(&mut self.nodes);
        }

        let dims = rows[0].len();
        let candidate_features: Vec<usize> = match self.feature_subsample {
            Some(k) if k < dims => rng.sample_indices(dims, k),
            _ => (0..dims).collect(),
        };

        let parent_sse: f64 = targets.iter().map(|t| (t - mean) * (t - mean)).sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in &candidate_features {
            let mut values: Vec<(f64, f64)> = indices
                .iter()
                .map(|&i| (rows[i][feature], all_targets[i]))
                .collect();
            values.sort_by(|a, b| a.0.total_cmp(&b.0));

            // Prefix sums over the sorted order let us evaluate every split
            // in O(n) per feature.
            let n = values.len();
            let mut prefix_sum = vec![0.0; n + 1];
            let mut prefix_sq = vec![0.0; n + 1];
            for (i, &(_, t)) in values.iter().enumerate() {
                prefix_sum[i + 1] = prefix_sum[i] + t;
                prefix_sq[i + 1] = prefix_sq[i] + t * t;
            }
            for split in self.min_samples_leaf..=(n - self.min_samples_leaf) {
                if split == 0 || split == n {
                    continue;
                }
                // Only split between distinct feature values.
                if (values[split - 1].0 - values[split].0).abs() < 1e-12 {
                    continue;
                }
                let left_n = split as f64;
                let right_n = (n - split) as f64;
                let left_sum = prefix_sum[split];
                let right_sum = prefix_sum[n] - left_sum;
                let left_sq = prefix_sq[split];
                let right_sq = prefix_sq[n] - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n;
                let right_sse = right_sq - right_sum * right_sum / right_n;
                let total = left_sse + right_sse;
                if best.map_or(total < parent_sse - 1e-12, |(_, _, b)| total < b) {
                    let threshold = 0.5 * (values[split - 1].0 + values[split].0);
                    best = Some((feature, threshold, total));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| rows[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }

        // Reserve this node's slot before recursing so children indices are
        // stable.
        self.nodes.push(Node::Leaf {
            value: mean,
            count: indices.len(),
        });
        let me = self.nodes.len() - 1;
        let left = self.build_reference(rows, all_targets, &left_idx, depth + 1, rng);
        let right = self.build_reference(rows, all_targets, &right_idx, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// The point prediction at a feature vector (0 for an unfitted tree).
    ///
    /// This is the allocation-free core of [`Surrogate::predict`], exposed so
    /// ensembles can traverse tree-major without building a [`Prediction`]
    /// per member. Runs on the flat struct-of-arrays table when the tree
    /// carries one (every optimized fit does), falling back to the pointer
    /// walk otherwise; the two are bit-identical
    /// (`flat_descent_is_bit_identical_to_pointer_descent`).
    #[must_use]
    pub fn predict_value(&self, features: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        if self.flat.is_empty() {
            return self.predict_value_pointer(features);
        }
        self.flat.descend(features)
    }

    /// The original pointer/enum descent (0 for an unfitted tree), retained
    /// as the comparison baseline for the flat traversal: the equivalence
    /// sweeps pin [`RegressionTree::predict_value`] bit-identical to this
    /// walk, and the `micro_components` bench measures the flat speedup
    /// against it.
    #[must_use]
    pub fn predict_value_pointer(&self, features: &[f64]) -> f64 {
        if !self.fitted {
            return 0.0;
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value, .. } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if features.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Fills `out[i]` with the point prediction at row `rows[i]` of the
    /// matrix — the block-traversal form of [`RegressionTree::predict_value`]:
    /// the whole row block descends through this one tree (four rows in
    /// flight at a time on the flat table) before the caller moves to the
    /// next tree, keeping the tree's node table hot in cache for the whole
    /// block. Position-for-position bit-identical to calling
    /// [`RegressionTree::predict_value`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` have different lengths.
    pub fn predict_values_into(&self, features: &FeatureMatrix, rows: &[usize], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "one output slot per row");
        if !self.fitted {
            out.fill(0.0);
            return;
        }
        if self.flat.is_empty() {
            for (slot, &row) in out.iter_mut().zip(rows) {
                *slot = self.predict_value_pointer(features.row(row));
            }
        } else {
            self.flat.descend_rows_into(features, rows, out);
        }
    }

    /// The node split search, shared by both builders ([`RegressionTree::build`]
    /// and the fused [`RegressionTree::fit_predict_rows`]) so their
    /// arithmetic cannot drift apart: the node mean, the leaf tests, the
    /// feature draw, the running-sum scan, the threshold and the stable
    /// partition. Returns the node mean and, when a split wins, the split —
    /// with `indices` partitioned so its first `left_len` entries are the
    /// left child's samples.
    fn split_node(
        &self,
        data: &TrainingSet,
        indices: &mut [usize],
        depth: usize,
        rng: &mut SeededRng,
        buffers: &mut SplitBuffers,
    ) -> (f64, Option<NodeSplit>) {
        // Aggregate the node's targets in index order (the same accumulation
        // order a materialized target vector would produce).
        let target_of = |i: usize| data.targets()[i];
        let mean = indices.iter().map(|&i| target_of(i)).sum::<f64>() / indices.len() as f64;

        let first_target = target_of(indices[0]);
        if depth >= self.max_depth
            || indices.len() < 2 * self.min_samples_leaf
            || indices
                .iter()
                .all(|&i| (target_of(i) - first_target).abs() < 1e-12)
        {
            return (mean, None);
        }

        let dims = data.dims();
        let SplitBuffers {
            values,
            partition,
            features: candidate_features,
        } = buffers;
        match self.feature_subsample {
            Some(k) if k < dims => rng.sample_indices_into(dims, k, candidate_features),
            _ => {
                candidate_features.clear();
                candidate_features.extend(0..dims);
            }
        }

        let parent_sse: f64 = indices
            .iter()
            .map(|&i| {
                let d = target_of(i) - mean;
                d * d
            })
            .sum();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &feature in candidate_features.iter() {
            // `values` is reusable: split selection finishes before the
            // caller recurses, so one buffer serves every node of the tree.
            values.clear();
            values.extend(
                indices
                    .iter()
                    .map(|&i| (data.feature(i, feature), target_of(i))),
            );
            values.sort_by(|a, b| a.0.total_cmp(&b.0));

            // Running sums over the sorted order evaluate every split in
            // O(n) per feature without materializing prefix arrays; the
            // accumulation order (and hence every float) is identical to the
            // prefix-array formulation.
            let n = values.len();
            let mut total_sum = 0.0;
            let mut total_sq = 0.0;
            for &(_, t) in values.iter() {
                total_sum += t;
                total_sq += t * t;
            }
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let t = values[split - 1].1;
                left_sum += t;
                left_sq += t * t;
                if split < self.min_samples_leaf || split > n - self.min_samples_leaf {
                    continue;
                }
                // Only split between distinct feature values.
                if (values[split - 1].0 - values[split].0).abs() < 1e-12 {
                    continue;
                }
                let left_n = split as f64;
                let right_n = (n - split) as f64;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let left_sse = left_sq - left_sum * left_sum / left_n;
                let right_sse = right_sq - right_sum * right_sum / right_n;
                let total = left_sse + right_sse;
                if best.map_or(total < parent_sse - 1e-12, |(_, _, b)| total < b) {
                    let threshold = 0.5 * (values[split - 1].0 + values[split].0);
                    best = Some((feature, threshold, total));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return (mean, None);
        };

        let goes_left = |i: usize| data.feature(i, feature) <= threshold;
        let left_len = indices.iter().filter(|&&i| goes_left(i)).count();
        if left_len == 0 || left_len == indices.len() {
            return (mean, None);
        }
        // Stable in-place partition via the shared scratch buffer: the same
        // sequences `Iterator::partition` would produce, without allocating
        // per node.
        stable_partition_in_place(indices, partition, goes_left);
        (
            mean,
            Some(NodeSplit {
                feature,
                threshold,
                left_len,
            }),
        )
    }

    fn build(
        &mut self,
        data: &TrainingSet,
        indices: &mut [usize],
        depth: usize,
        rng: &mut SeededRng,
        buffers: &mut SplitBuffers,
    ) -> usize {
        let (mean, split) = self.split_node(data, indices, depth, rng, buffers);
        // A leaf, or this split node's reserved slot: reserving it before
        // recursing keeps the children's indices stable.
        self.nodes.push(Node::Leaf {
            value: mean,
            count: indices.len(),
        });
        let me = self.nodes.len() - 1;
        let Some(NodeSplit {
            feature,
            threshold,
            left_len,
        }) = split
        else {
            return me;
        };
        let (left_idx, right_idx) = indices.split_at_mut(left_len);
        let left = self.build(data, left_idx, depth + 1, rng, buffers);
        let right = self.build(data, right_idx, depth + 1, rng, buffers);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }
}

/// A split chosen by [`RegressionTree::split_node`]: go left when
/// `features[feature] <= threshold`; after the partition the node's first
/// `left_len` samples are the left child's.
struct NodeSplit {
    feature: usize,
    threshold: f64,
    left_len: usize,
}

/// The read-only inputs of one [`RegressionTree::fit_predict_rows`] build.
struct RouteBuild<'a> {
    tree: &'a RegressionTree,
    data: &'a TrainingSet,
    features: &'a FeatureMatrix,
    rows: &'a [usize],
    /// Whether the split search draws features (see
    /// [`RegressionTree::draws_features`]).
    draws: bool,
}

impl RouteBuild<'_> {
    /// Builds the node over the samples `indices` in pre-order (left
    /// subtree before right, so random draws happen in the build's order)
    /// and writes the leaf value of every routed row: `route` holds the
    /// positions in `rows`/`out` of the rows that reach this node.
    fn node(
        &self,
        indices: &mut [usize],
        route: &mut [usize],
        depth: usize,
        rng: &mut SeededRng,
        buffers: &mut SplitBuffers,
        out: &mut [f64],
    ) {
        if route.is_empty() && !self.draws {
            return;
        }
        let (mean, split) = self
            .tree
            .split_node(self.data, indices, depth, rng, buffers);
        let Some(NodeSplit {
            feature,
            threshold,
            left_len,
        }) = split
        else {
            for &position in route.iter() {
                out[position] = mean;
            }
            return;
        };
        // The flat descent's select: `x <= threshold` goes left, so NaN
        // goes right, and a missing feature reads 0.0. Row order within a
        // node never matters (each row's value is written on its own), so
        // an unstable in-place partition will do.
        let mut routed_left = 0usize;
        for i in 0..route.len() {
            let row = self.features.row(self.rows[route[i]]);
            let x = row.get(feature).copied().unwrap_or(0.0);
            if x <= threshold {
                route.swap(i, routed_left);
                routed_left += 1;
            }
        }
        let (left_idx, right_idx) = indices.split_at_mut(left_len);
        let (left_route, right_route) = route.split_at_mut(routed_left);
        self.node(left_idx, left_route, depth + 1, rng, buffers, out);
        self.node(right_idx, right_route, depth + 1, rng, buffers, out);
    }
}

/// Stable in-place partition: elements satisfying `keep_left` move to the
/// front, the rest to the back, both sides preserving relative order — the
/// sequences `Iterator::partition` would produce, without allocating per
/// call (`scratch` is reused).
fn stable_partition_in_place<F: Fn(usize) -> bool>(
    items: &mut [usize],
    scratch: &mut Vec<usize>,
    keep_left: F,
) {
    scratch.clear();
    let mut write = 0usize;
    for read in 0..items.len() {
        let i = items[read];
        if keep_left(i) {
            items[write] = i;
            write += 1;
        } else {
            scratch.push(i);
        }
    }
    items[write..].copy_from_slice(scratch);
}

/// Reusable buffers of the node split search.
#[derive(Debug, Default)]
struct SplitBuffers {
    /// `(feature value, target)` pairs of the node under consideration.
    values: Vec<(f64, f64)>,
    /// Scratch for the stable in-place index partition.
    partition: Vec<usize>,
    /// The node's candidate split features.
    features: Vec<usize>,
}

/// Reusable buffers of the member rebuilds in
/// [`SpeculativeFit::extend_into`](crate::SpeculativeFit::extend_into): a
/// caller that keeps one per thread rebuilds allocation-free once the
/// buffers have grown to its largest resample and row block.
#[derive(Debug, Default)]
pub struct RouteWorkspace {
    /// The resample multiset, partitioned in place as the build descends.
    indices: Vec<usize>,
    /// Positions of the routed rows, partitioned in place per split.
    route: Vec<usize>,
    split: SplitBuffers,
}

impl RouteWorkspace {
    /// Grows the buffers to hold a resample of `samples` draws of
    /// `dims`-dimensional data routing `rows` rows without reallocating.
    pub(crate) fn reserve(&mut self, samples: usize, rows: usize, dims: usize) {
        reserve_total(&mut self.indices, samples);
        reserve_total(&mut self.split.values, samples);
        reserve_total(&mut self.split.partition, samples);
        reserve_total(&mut self.split.features, dims);
        reserve_total(&mut self.route, rows);
    }

    /// Number of slots the buffers hold without growing (a capacity
    /// fingerprint for buffer-reuse tests).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.indices.capacity()
            + self.route.capacity()
            + self.split.values.capacity()
            + self.split.partition.capacity()
            + self.split.features.capacity()
    }
}

impl Surrogate for RegressionTree {
    fn fit(&mut self, data: &TrainingSet) {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_indexed(data, &indices);
    }

    fn predict(&self, features: &[f64]) -> Prediction {
        Prediction::certain(self.predict_value(features))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn predict_rows(
        &self,
        features: &crate::model::FeatureMatrix,
        rows: &[usize],
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        out.extend(
            rows.iter()
                .map(|&r| Prediction::certain(self.predict_value(features.row(r)))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> TrainingSet {
        let mut data = TrainingSet::new(2);
        for i in 0..20 {
            let x = i as f64;
            let y = if x < 10.0 { 5.0 } else { 50.0 };
            data.push(vec![x, 0.0], y);
        }
        data
    }

    #[test]
    fn learns_a_step_function() {
        let mut tree = RegressionTree::new();
        tree.fit(&step_data());
        assert!(tree.is_fitted());
        assert!((tree.predict(&[3.0, 0.0]).mean - 5.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0, 0.0]).mean - 50.0).abs() < 1e-9);
    }

    #[test]
    fn interpolates_training_points_exactly_with_deep_tree() {
        let mut data = TrainingSet::new(1);
        for i in 0..10 {
            data.push(vec![i as f64], (i * i) as f64);
        }
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        for i in 0..10 {
            let p = tree.predict(&[i as f64]);
            assert!(
                (p.mean - (i * i) as f64).abs() < 1e-9,
                "prediction at {i} was {}",
                p.mean
            );
        }
    }

    #[test]
    fn depth_limit_produces_a_stump() {
        let mut tree = RegressionTree::new().with_max_depth(1);
        tree.fit(&step_data());
        // A depth-1 tree has at most 3 nodes: root + two leaves.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let mut tree = RegressionTree::new().with_min_samples_leaf(10);
        let data = step_data();
        tree.fit(&data);
        // With 20 samples and 10 per leaf, only one split is possible.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn unfitted_and_empty_fits_predict_zero() {
        let tree = RegressionTree::new();
        assert!(!tree.is_fitted());
        assert_eq!(tree.predict(&[1.0]).mean, 0.0);
        let mut tree = RegressionTree::new();
        tree.fit(&TrainingSet::new(1));
        assert!(!tree.is_fitted());
    }

    #[test]
    fn constant_targets_yield_a_single_leaf() {
        let mut data = TrainingSet::new(1);
        for i in 0..8 {
            data.push(vec![i as f64], 7.0);
        }
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[3.0]).mean, 7.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let mut data = TrainingSet::new(3);
        for i in 0..30 {
            let x = i as f64;
            data.push(vec![x, -x, x * 2.0], if x < 15.0 { 0.0 } else { 10.0 });
        }
        let mut tree = RegressionTree::new().with_feature_subsample(1).with_seed(5);
        tree.fit(&data);
        let low = tree.predict(&[2.0, -2.0, 4.0]).mean;
        let high = tree.predict(&[25.0, -25.0, 50.0]).mean;
        assert!(high > low);
    }

    #[test]
    fn reference_build_is_bit_identical() {
        use lynceus_math::rng::SeededRng;
        let mut rng = SeededRng::new(77);
        for _ in 0..20 {
            let mut data = TrainingSet::new(3);
            let n = 3 + rng.below(40);
            for _ in 0..n {
                data.push(
                    vec![
                        rng.uniform(-10.0, 10.0),
                        rng.uniform(0.0, 5.0),
                        rng.uniform(-1.0, 1.0),
                    ],
                    rng.uniform(-100.0, 100.0),
                );
            }
            let mut optimized = RegressionTree::new()
                .with_feature_subsample(2)
                .with_seed(rng.next_u64());
            let mut reference = optimized.clone();
            optimized.fit(&data);
            let rows: Vec<Vec<f64>> = data.feature_rows().map(<[f64]>::to_vec).collect();
            reference.fit_reference(&rows, data.targets());
            assert_eq!(optimized, reference, "builds diverged on {n} samples");
        }
    }

    /// Seeded property sweep pinning the flat struct-of-arrays descent
    /// bit-identical to the retained pointer walk, over random fitted trees
    /// and adversarial feature values: NaN (must go right — the comparison
    /// is false), ±infinity, subnormals, signed zero, rows hitting split
    /// thresholds *exactly* (the `<=` boundary) and one ULP past them, and
    /// short rows whose missing features read as 0.0.
    #[test]
    fn flat_descent_is_bit_identical_to_pointer_descent() {
        use crate::model::FeatureMatrix;
        use lynceus_math::rng::SeededRng;
        let mut rng = SeededRng::new(0xF1A7);
        for round in 0..30usize {
            let dims = 1 + round % 4;
            let n = 2 + rng.below(60);
            let mut data = TrainingSet::new(dims);
            for _ in 0..n {
                data.push(
                    (0..dims).map(|_| rng.uniform(-50.0, 50.0)).collect(),
                    rng.uniform(-100.0, 100.0),
                );
            }
            let mut tree = RegressionTree::new()
                .with_max_depth(1 + rng.below(12))
                .with_min_samples_leaf(1 + rng.below(3))
                .with_feature_subsample(1 + rng.below(dims))
                .with_seed(rng.next_u64());
            tree.fit(&data);
            assert!(!tree.flat.is_empty(), "optimized fit must carry the table");

            let mut queries: Vec<Vec<f64>> = (0..20)
                .map(|_| (0..dims).map(|_| rng.uniform(-60.0, 60.0)).collect())
                .collect();
            for special in [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,       // smallest normal
                f64::MIN_POSITIVE / 2.0, // subnormal
                5e-324,                  // smallest subnormal
                -5e-324,
                -0.0,
            ] {
                queries.push(vec![special; dims]);
                let mut mixed = vec![1.0; dims];
                mixed[rng.below(dims)] = special;
                queries.push(mixed);
            }
            for node in &tree.nodes {
                let Node::Split {
                    feature, threshold, ..
                } = node
                else {
                    continue;
                };
                let mut exact = vec![0.0; dims];
                exact[*feature] = *threshold; // exactly on the `<=` boundary
                queries.push(exact.clone());
                exact[*feature] = f64::from_bits(threshold.to_bits() + 1); // one ULP off
                queries.push(exact);
            }
            queries.push(Vec::new()); // every feature out of range → 0.0

            for query in &queries {
                let flat = tree.predict_value(query);
                let pointer = tree.predict_value_pointer(query);
                assert_eq!(
                    flat.to_bits(),
                    pointer.to_bits(),
                    "flat {flat} != pointer {pointer} on {query:?} (round {round})"
                );
            }

            // The block traversal (including the 4-wide interleaved path and
            // its remainder tail) must match the per-row walk bit for bit.
            let matrix = FeatureMatrix::from_rows(dims, queries.iter().filter(|q| q.len() == dims));
            let rows: Vec<usize> = (0..matrix.rows()).collect();
            let mut block = vec![0.0; rows.len()];
            tree.predict_values_into(&matrix, &rows, &mut block);
            for (&row, &value) in rows.iter().zip(&block) {
                let pointer = tree.predict_value_pointer(matrix.row(row));
                assert_eq!(
                    value.to_bits(),
                    pointer.to_bits(),
                    "block row {row} diverged (round {round})"
                );
            }
        }
    }

    /// The fused fit-and-route builder against `fit_indexed` followed by
    /// the block descent: random resample multisets with repeats, feature
    /// draws (`feature_subsample < dims` from 4 dims up), tied features and
    /// repeated targets, adversarial rows (NaN, ±infinity, signed zero,
    /// rows exactly on a threshold) in a permuted row order, and rows
    /// narrower than the training data (a missing feature reads 0.0).
    #[test]
    fn speculative_fused_builder_matches_fit_then_block_descent() {
        use crate::model::FeatureMatrix;
        use lynceus_math::rng::SeededRng;
        let mut rng = SeededRng::new(0x5EC7);
        let mut workspace = RouteWorkspace::default();
        let mut built_any = false;
        for round in 0..120usize {
            let dims = 1 + round % 6;
            let n = 1 + rng.below(25);
            let mut data = TrainingSet::new(dims);
            for _ in 0..n {
                data.push(
                    (0..dims).map(|_| rng.below(5) as f64).collect(),
                    rng.below(4) as f64 * 10.0,
                );
            }
            let indices: Vec<usize> = (0..n)
                .flat_map(|i| std::iter::repeat_n(i, rng.below(3)))
                .collect();
            let tree = RegressionTree::new()
                .with_max_depth(1 + rng.below(10))
                .with_min_samples_leaf(1 + rng.below(2))
                .with_feature_subsample(1 + rng.below(dims))
                .with_seed(rng.next_u64());
            let mut fitted = tree.clone();
            fitted.fit_indexed(&data, &indices);

            let mut queries: Vec<Vec<f64>> = (0..30)
                .map(|_| (0..dims).map(|_| rng.uniform(-1.0, 5.0)).collect())
                .collect();
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 2.0] {
                queries.push(vec![special; dims]);
            }
            for node in &fitted.nodes {
                if let Node::Split {
                    feature, threshold, ..
                } = node
                {
                    let mut exact = vec![1.0; dims];
                    exact[*feature] = *threshold;
                    queries.push(exact);
                }
            }
            let narrow_dims = dims.max(2) - 1;
            for block in [
                FeatureMatrix::from_rows(dims, &queries),
                FeatureMatrix::from_rows(narrow_dims, queries.iter().map(|q| &q[..narrow_dims])),
            ] {
                let rows: Vec<usize> = (0..block.rows()).rev().collect();
                let mut expected = vec![0.0; rows.len()];
                fitted.predict_values_into(&block, &rows, &mut expected);
                let mut routed = vec![f64::NAN; rows.len()];
                let built = tree.fit_predict_rows(
                    &data,
                    &indices,
                    &block,
                    &rows,
                    &mut routed,
                    &mut workspace,
                );
                assert_eq!(built, fitted.is_fitted(), "round {round}");
                if built {
                    built_any = true;
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&routed), bits(&expected), "round {round}");
                }
            }
        }
        assert!(built_any);
    }

    #[test]
    fn flat_table_is_rebuilt_per_fit_and_absent_on_reference_fits() {
        let data = step_data();
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert!(!tree.flat.is_empty());
        assert_eq!(tree.flat.feature.len(), tree.nodes.len());
        let mut reference = RegressionTree::new();
        let rows: Vec<Vec<f64>> = data.feature_rows().map(<[f64]>::to_vec).collect();
        reference.fit_reference(&rows, data.targets());
        assert!(
            reference.flat.is_empty(),
            "reference fits stay pointer-only"
        );
        // …and still predict identically through the dispatching entry point.
        for x in [-3.0, 2.0, 9.99, 10.0, 10.01, 25.0] {
            assert_eq!(
                tree.predict_value(&[x, 0.0]).to_bits(),
                reference.predict_value(&[x, 0.0]).to_bits()
            );
        }
        // Refitting on an empty index list drops the stale table.
        tree.fit_indexed(&data, &[]);
        assert!(tree.flat.is_empty());
        assert!(!tree.is_fitted());
    }

    #[test]
    fn single_sample_fit_is_a_leaf() {
        let mut data = TrainingSet::new(2);
        data.push(vec![1.0, 2.0], 42.0);
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[9.0, 9.0]).mean, 42.0);
    }
}
