//! Property-based tests for the surrogate models.
//!
//! The environment has no registry access, so instead of `proptest` these
//! tests draw their cases from [`SeededRng`]: every property is checked over
//! a deterministic stream of randomized datasets.

use lynceus_learners::{
    BaggingEnsemble, FeatureMatrix, Prediction, RegressionTree, SpeculativeFit, SpeculativePath,
    Surrogate, TrainingSet,
};
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

/// A configuration-space-shaped row: features on a small integer grid, so
/// values tie across rows.
fn grid_row(rng: &mut SeededRng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| rng.below(4) as f64).collect()
}

/// A target from a small set, so targets repeat.
fn grid_target(rng: &mut SeededRng) -> f64 {
    10.0 + rng.below(3) as f64 * 5.0
}

fn bits(predictions: &[Prediction]) -> Vec<(u64, u64)> {
    predictions
        .iter()
        .map(|p| (p.mean.to_bits(), p.std.to_bits()))
        .collect()
}

/// A root fit and its extensions 1–3 observations deep predict bit for bit
/// what the `refit_with` chains they stand for predict, over seeds × {1, 10}
/// trees × {1, 3, 6} dims (6 draws features at every split) × training sets
/// of {1, 2, 7, 15} rows (1–2 rows leave members unfitted). The path is
/// walked as the engine walks it: every parent is extended into two
/// siblings, each pushed and popped in turn, and the chain then descends
/// from the first sibling, whose row is pushed again.
#[test]
fn speculative_extension_chains_match_refit_chains_bitwise() {
    const EXTENSIONS: usize = 3;
    const SIBLINGS: usize = 2;
    let mut rng = SeededRng::new(0x5BEC);
    let mut path = SpeculativePath::default();
    let mut chain = vec![SpeculativeFit::default(); EXTENSIONS + 1];
    let mut sibling = SpeculativeFit::default();
    let (mut expected, mut got) = (Vec::new(), Vec::new());
    let mut fits = 0usize;
    let mut fallbacks = 0usize;
    for _ in 0..40 {
        for trees in [1usize, 10] {
            for dims in [1usize, 3, 6] {
                for len in [1usize, 2, 7, 15] {
                    let mut data = TrainingSet::new(dims);
                    for _ in 0..len {
                        data.push(grid_row(&mut rng, dims), grid_target(&mut rng));
                    }
                    let mut model = BaggingEnsemble::with_seed(trees, rng.next_u64());
                    model.fit(&data);
                    // The block: grid rows, rows exactly between grid values
                    // (where thresholds fall), and NaN/infinite rows.
                    let mut block_rows: Vec<Vec<f64>> =
                        (0..12).map(|_| grid_row(&mut rng, dims)).collect();
                    block_rows.push(vec![1.5; dims]);
                    block_rows.push(vec![f64::NAN; dims]);
                    block_rows.push(vec![f64::INFINITY; dims]);
                    let block = FeatureMatrix::from_rows(dims, &block_rows);
                    let rows: Vec<usize> = (0..block.rows()).collect();

                    chain[0].set_root(&model, &block, &rows);
                    path.set_root(&model, dims, len + EXTENSIONS);
                    model.predict_rows(&block, &rows, &mut expected);
                    chain[0].predict_into(&mut got);
                    assert_eq!(bits(&expected), bits(&got), "root, {len} rows");
                    fits += 1;

                    let mut refit = model;
                    for depth in 1..=EXTENSIONS {
                        let (parents, children) = chain.split_at_mut(depth);
                        let mut first = None;
                        for k in 0..SIBLINGS {
                            // Speculated costs are Gauss–Hermite nodes:
                            // arbitrary floats, or a repeat of an observed
                            // cost.
                            let sample = grid_row(&mut rng, dims);
                            let target = if depth == 2 {
                                grid_target(&mut rng)
                            } else {
                                rng.uniform(1.0, 40.0)
                            };
                            let child = if k == 0 {
                                &mut children[0]
                            } else {
                                &mut sibling
                            };
                            path.push(&sample, target);
                            parents[depth - 1].extend_into(&mut path, &block, &rows, child);
                            path.pop();
                            let child_refit = refit.refit_with(&[(&sample[..], target)]);
                            child_refit.predict_rows(&block, &rows, &mut expected);
                            child.predict_into(&mut got);
                            assert_eq!(
                                bits(&expected),
                                bits(&got),
                                "extension {depth}, sibling {k}: {trees} trees, {dims} dims, \
                                 {len} rows"
                            );
                            if child_refit.member_predictions(&sample).len() < trees {
                                fallbacks += 1;
                            }
                            fits += 1;
                            if k == 0 {
                                first = Some((sample, target, child_refit));
                            }
                        }
                        let (sample, target, first_refit) =
                            first.expect("every parent has siblings");
                        path.push(&sample, target);
                        refit = first_refit;
                    }
                }
            }
        }
    }
    assert_eq!(fits, 40 * 2 * 3 * 4 * (1 + EXTENSIONS * SIBLINGS));
    assert!(fallbacks > 0, "no chain left a member unfitted");
}
