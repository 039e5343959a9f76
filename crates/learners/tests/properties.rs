//! Property-based tests for the surrogate models.
//!
//! The environment has no registry access, so instead of `proptest` these
//! tests draw their cases from [`SeededRng`]: every property is checked over
//! a deterministic stream of randomized datasets.

use lynceus_learners::{BaggingEnsemble, FeatureMatrix, RegressionTree, Surrogate, TrainingSet};
use lynceus_math::rng::SeededRng;

/// A small random one-dimensional regression problem.
fn random_dataset(rng: &mut SeededRng) -> TrainingSet {
    let len = 2 + rng.below(38);
    let mut data = TrainingSet::new(1);
    for _ in 0..len {
        data.push(vec![rng.uniform(-50.0, 50.0)], rng.uniform(-100.0, 100.0));
    }
    data
}

const CASES: usize = 64;

#[test]
fn tree_predictions_stay_within_target_range() {
    let mut rng = SeededRng::new(0x21);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng);
        let x = rng.uniform(-60.0, 60.0);
        let mut tree = RegressionTree::new();
        tree.fit(&data);
        let p = tree.predict(&[x]);
        let min = data.target_min().unwrap();
        let max = data.target_max().unwrap();
        assert!(p.mean >= min - 1e-9 && p.mean <= max + 1e-9);
        assert_eq!(p.std, 0.0);
    }
}

#[test]
fn ensemble_predictions_stay_within_target_range() {
    let mut rng = SeededRng::new(0x22);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng);
        let x = rng.uniform(-60.0, 60.0);
        let mut model = BaggingEnsemble::with_seed(8, 11);
        model.fit(&data);
        let p = model.predict(&[x]);
        let min = data.target_min().unwrap();
        let max = data.target_max().unwrap();
        assert!(p.mean >= min - 1e-9 && p.mean <= max + 1e-9);
        assert!(p.std >= 0.0);
        assert!(p.std <= (max - min).abs() + 1e-9);
    }
}

#[test]
fn ensemble_is_deterministic() {
    let mut rng = SeededRng::new(0x23);
    for _ in 0..CASES {
        let data = random_dataset(&mut rng);
        let x = rng.uniform(-60.0, 60.0);
        let seed = rng.next_u64();
        let mut a = BaggingEnsemble::with_seed(5, seed);
        let mut b = BaggingEnsemble::with_seed(5, seed);
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict(&[x]), b.predict(&[x]));
    }
}

#[test]
fn surrogates_survive_refitting() {
    let mut rng = SeededRng::new(0x25);
    for _ in 0..CASES {
        // The optimizer refits after every observation; make sure repeated
        // fits do not accumulate state.
        let data = random_dataset(&mut rng);
        let mut model = BaggingEnsemble::with_seed(4, 3);
        model.fit(&data);
        let first = model.predict(&[0.0]);
        model.fit(&data);
        let second = model.predict(&[0.0]);
        assert_eq!(first, second);
    }
}

#[test]
fn incremental_refits_match_from_scratch_fits_on_random_data() {
    let mut rng = SeededRng::new(0x26);
    for _ in 0..32 {
        let data = random_dataset(&mut rng);
        let seed = rng.next_u64();
        let extra_x = rng.uniform(-50.0, 50.0);
        let extra_y = rng.uniform(-100.0, 100.0);

        let mut base = BaggingEnsemble::with_seed(6, seed);
        base.fit(&data);
        let incremental = base.refit_with(&[(&[extra_x][..], extra_y)]);

        let mut full = data.clone();
        full.push(vec![extra_x], extra_y);
        let mut scratch = BaggingEnsemble::with_seed(6, seed);
        scratch.fit(&full);

        for _ in 0..8 {
            let x = rng.uniform(-60.0, 60.0);
            assert_eq!(incremental.predict(&[x]), scratch.predict(&[x]));
        }
    }
}

#[test]
fn batched_predictions_match_single_predictions_on_random_data() {
    let mut rng = SeededRng::new(0x27);
    for _ in 0..32 {
        let data = random_dataset(&mut rng);
        let mut model = BaggingEnsemble::with_seed(7, rng.next_u64());
        model.fit(&data);
        let matrix = FeatureMatrix::from_rows(1, (0..40).map(|_| [rng.uniform(-60.0, 60.0)]));
        for (i, p) in model.predict_batch(&matrix).iter().enumerate() {
            assert_eq!(*p, model.predict(matrix.row(i)));
        }
    }
}
