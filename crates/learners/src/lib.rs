//! Surrogate models for the Lynceus reproduction.
//!
//! Lynceus and the CherryPick-style baseline both rely on a regression model
//! that maps a configuration's feature vector to a *distribution* over the
//! cost of running the job on it: the acquisition function needs a mean `µ(x)`
//! and an uncertainty `σ(x)` for every untested configuration.
//!
//! The paper's implementation uses a **bagging ensemble of 10 random
//! regression trees** (Weka), and so does this crate, behind the
//! [`Surrogate`] trait:
//!
//! * [`RegressionTree`] — a CART-style regression tree with optional random
//!   feature sub-sampling at each split;
//! * [`BaggingEnsemble`] — bootstrap aggregation of randomized trees, the
//!   paper's surrogate;
//! * [`SpeculativeFit`] — a bagging ensemble reduced to its members' values
//!   at a fixed row block, which the optimizer's speculation engine extends
//!   by one speculated observation at a time without building a tree,
//!   bit-identically to
//!   [`BaggingEnsemble::refit_with`] followed by
//!   [`Surrogate::predict_rows`].
//!
//! # Example
//!
//! ```
//! use lynceus_learners::{BaggingEnsemble, Surrogate, TrainingSet};
//!
//! let mut data = TrainingSet::new(1);
//! for i in 0..20 {
//!     let x = i as f64;
//!     data.push(vec![x], 3.0 * x + 1.0);
//! }
//! let mut model = BaggingEnsemble::with_seed(10, 7);
//! model.fit(&data);
//! let p = model.predict(&[10.0]);
//! assert!((p.mean - 31.0).abs() < 8.0);
//! assert!(p.std >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bagging;
pub mod model;
pub mod tree;

pub use bagging::{BaggingEnsemble, SpeculativeFit};
pub use model::{FeatureMatrix, Prediction, Surrogate, TrainingSet};
pub use tree::{RegressionTree, RouteWorkspace};
