//! Thread-count determinism matrix for the fork-join pool.
//!
//! `tests/engine_equivalence.rs` proves the two speculation engines agree;
//! these tests pin down the property that makes that possible at the pool
//! layer: for a pure task function, `core::pool::run_indexed{,_with}` (and
//! the shared-budget [`Pool`] wrapper the tuning service multiplexes
//! sessions through) return bit-identical outputs for *any* worker count —
//! including workloads with wildly skewed task costs, where workers take
//! tasks from the shared cursor and finish them out of order.
//!
//! The matrix covers `threads ∈ {1, 2, 8}` plus an optional extra count
//! from the `LYNCEUS_TEST_THREADS` environment variable, which the CI
//! workflow sweeps so the suite is exercised under an explicit thread
//! matrix.

use lynceus::core::pool::{map_slice, run_indexed, run_indexed_with, run_order_with, Pool};
use lynceus::core::{LynceusOptimizer, Optimizer, OptimizerSettings, PathEngine, TableOracle};
use lynceus::space::SpaceBuilder;
use std::sync::Arc;

/// The thread counts under test: the fixed matrix plus `LYNCEUS_TEST_THREADS`.
fn thread_matrix() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Some(extra) = std::env::var("LYNCEUS_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&extra) && extra > 0 {
            counts.push(extra);
        }
    }
    counts
}

/// A task whose cost is wildly skewed across indices (three orders of
/// magnitude), so that any multi-worker run finishes tasks out of order,
/// and whose result depends on floating-point accumulation order — exactly
/// the kind of computation that would expose a schedule-dependent pool.
fn skewed_task(i: usize) -> f64 {
    let spins = match i % 13 {
        0 => 50_000,
        1..=3 => 2_000,
        _ => 17,
    };
    let mut acc = i as f64 + 0.1;
    for j in 0..spins {
        acc += (acc * 1e-7 + j as f64).sin() * 1e-3;
    }
    acc
}

#[test]
fn run_indexed_is_bit_identical_across_the_thread_matrix() {
    let n = 160;
    let reference: Vec<u64> = run_indexed(n, 1, skewed_task)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    for threads in thread_matrix() {
        let out: Vec<u64> = run_indexed(n, threads, skewed_task)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            out, reference,
            "run_indexed diverged from the sequential reference at {threads} thread(s)"
        );
    }
}

#[test]
fn run_indexed_with_scratch_is_bit_identical_across_the_thread_matrix() {
    // Per-worker scratch buffers are reused across every task a worker
    // takes; the scratch must never leak into results.
    let n = 96;
    let task = |scratch: &mut Vec<f64>, i: usize| -> u64 {
        scratch.clear();
        let len = if i.is_multiple_of(11) { 4_096 } else { 8 };
        let base = skewed_task(i % 7);
        scratch.extend((0..len).map(|j| base * (j as f64 + 1.0)));
        scratch.iter().sum::<f64>().to_bits()
    };
    let reference = run_indexed_with(n, 1, Vec::new, task);
    for threads in thread_matrix() {
        assert_eq!(
            run_indexed_with(n, threads, Vec::new, task),
            reference,
            "run_indexed_with diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn shared_pool_grants_are_bit_identical_across_capacities() {
    // The tuning service leases workers from a shared Pool whose grant
    // depends on how busy the neighbours are; the result must not.
    let n = 120;
    let reference: Vec<u64> = run_indexed(n, 1, skewed_task)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    for capacity in thread_matrix() {
        let pool = Pool::new(capacity);
        let out: Vec<u64> = pool
            .run_indexed(n, 8, skewed_task)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            out, reference,
            "a Pool of capacity {capacity} changed results"
        );
    }
}

#[test]
fn ordered_dispatch_is_bit_identical_across_the_thread_matrix() {
    // The branch-and-bound engine dispatches candidates best-bound-first
    // through run_order_with; like the indexed form, its results must be
    // independent of worker count and of the dispatch order itself.
    let n = 96;
    let order: Vec<usize> = (0..n).rev().collect();
    let reference: Vec<u64> = run_indexed(n, 1, skewed_task)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    for threads in thread_matrix() {
        let out: Vec<u64> = run_order_with(n, threads, &order, || (), |(), i| skewed_task(i))
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            out, reference,
            "run_order_with diverged at {threads} thread(s)"
        );
    }
}

/// LA=3 smoke for the CI thread matrix: on a small space, the
/// branch-and-bound engine must match the exhaustive batched engine
/// bit-for-bit no matter how many workers the shared pool grants (the grant
/// changes which candidates are pruned, never the selected configuration).
#[test]
fn lookahead_three_pruning_is_bit_identical_across_pool_capacities() {
    let space = SpaceBuilder::new()
        .numeric("x", (0..8).map(f64::from))
        .numeric("y", (0..3).map(f64::from))
        .build();
    let oracle = TableOracle::from_fn(space, 1.0, |f| {
        16.0 + (f[0] - 5.0).powi(2) * 4.0 + (f[1] - 1.0).powi(2) * 7.0
    });
    let settings = OptimizerSettings {
        budget: 1_000.0,
        tmax_seconds: 1e6,
        bootstrap_samples: Some(5),
        lookahead: 3,
        gauss_hermite_nodes: 2,
        ..OptimizerSettings::default()
    };
    let seed = 5;
    let exhaustive = LynceusOptimizer::new(settings.clone())
        .with_engine(PathEngine::Batched)
        .optimize(&oracle, seed);
    for capacity in thread_matrix() {
        let pool = Arc::new(Pool::new(capacity));
        let pruned = LynceusOptimizer::new(settings.clone())
            .with_pool(pool)
            .optimize(&oracle, seed);
        assert_eq!(
            pruned, exhaustive,
            "LA=3 pruning diverged from exhaustive expansion with a pool of capacity {capacity}"
        );
    }
}

#[test]
fn map_slice_follows_the_same_contract() {
    let items: Vec<usize> = (0..64).rev().collect();
    let reference = map_slice(&items, 1, |&i| skewed_task(i).to_bits());
    for threads in thread_matrix() {
        assert_eq!(
            map_slice(&items, threads, |&i| skewed_task(i).to_bits()),
            reference,
            "map_slice diverged at {threads} thread(s)"
        );
    }
}
