//! A small fork-join pool with deterministic reduction order.
//!
//! The speculation engine fans out over root candidates whose expansion
//! costs vary wildly (a branch dies immediately when its speculated budget
//! is exhausted, or recurses through the whole lookahead), and the
//! experiment runner over whole optimizations. Fixed chunking would leave
//! workers idle behind the unluckiest chunk; instead every worker takes the
//! next task from one shared cursor whenever it is free, over the identity
//! order ([`run_indexed_with`]) or a batch's own dispatch order
//! ([`run_order_with`]), so tasks start in that order on any number of
//! workers.
//!
//! Results are written back *by task index*, so the output order (and
//! therefore any subsequent reduction) is independent of the schedule: for
//! a pure task function the result is bit-identical to the sequential loop,
//! which is what keeps optimizer runs reproducible for a fixed seed
//! regardless of thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

/// Upper bound on workers: one per available CPU.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// A shared worker-thread budget for concurrent batch submissions and
/// stepping sessions.
///
/// The free functions below spawn up to one worker per CPU *per call*: fine
/// for a single optimization, but N concurrent tuning sessions would
/// oversubscribe the machine N-fold. A `Pool` fixes a global capacity of
/// worker *slots* and arbitrates them at two levels:
///
/// * **Per stepping session** ([`Pool::acquire`]): a scheduler lane blocks
///   until one slot is free and holds it for the duration of one session
///   step — the lane's own thread is the computing thread the slot pays
///   for. This is what lets M concurrent decisions share N workers: at most
///   `capacity` sessions compute at once.
/// * **Per batch fan-out** ([`Pool::run_indexed_with`] and friends): the
///   calling thread always participates as worker 0 and *extra* workers are
///   taken non-blockingly — whatever of the remaining budget is free at
///   submission time, possibly none. A batch therefore never waits for
///   slots, which makes the two-level arbitration deadlock-free by
///   construction: the only blocking acquisition ([`Pool::acquire`]) is
///   taken while holding no other slot, and every batch grant is returned
///   when its fork-join completes.
///
/// The hard cap on computing threads therefore comes from the blocking
/// slot leases: callers that hold one slot per computing thread (as the
/// service's scheduler lanes do) are collectively bounded by `capacity`.
/// For a bare batch submission the capacity bounds only the *extra*
/// workers — the calling thread itself is admitted unconditionally, so K
/// independent threads driving standalone optimizers through one busy pool
/// compute as K callers plus at most `capacity` leased workers. A caller
/// that wants the hard cap without the service takes [`Pool::acquire`]
/// around its own compute, exactly like a lane.
///
/// Because [`run_indexed_with`] writes results back by task index, the
/// output of a batch is independent of how many workers it was granted — a
/// session multiplexed through a busy shared pool produces bit-identical
/// results to the same session running alone.
#[derive(Debug)]
pub struct Pool {
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

/// One worker slot held out of a [`Pool`], released on drop. The scheduler
/// of [`crate::service::TuningService`] holds one per stepping session.
#[derive(Debug)]
pub struct PoolSlot<'a> {
    pool: &'a Pool,
}

impl Drop for PoolSlot<'_> {
    fn drop(&mut self) {
        self.pool.release(1);
    }
}

impl Pool {
    /// Creates a pool with a fixed worker-thread capacity (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            available: Mutex::new(capacity),
            freed: Condvar::new(),
        }
    }

    /// A pool sized to the machine: one worker slot per available CPU.
    #[must_use]
    pub fn with_default_capacity() -> Self {
        Self::new(default_threads())
    }

    /// The total worker-thread budget.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks until one worker slot is free and takes it. The returned guard
    /// releases the slot on drop.
    ///
    /// This is the per-stepping-session lease of the two-level arbitration:
    /// hold a slot while a session computes on the calling thread, so at
    /// most `capacity` sessions step at once. Never call it while already
    /// holding a slot from the same pool — the batch fan-outs are
    /// non-blocking precisely so that this is the only acquisition that can
    /// wait.
    #[must_use]
    pub fn acquire(&self) -> PoolSlot<'_> {
        let mut available = crate::poison::lock(&self.available);
        while *available == 0 {
            available = crate::poison::wait(&self.freed, available);
        }
        *available -= 1;
        PoolSlot { pool: self }
    }

    /// Takes up to `want` slots without blocking (possibly zero): the extra
    /// workers of a batch fan-out beyond the calling thread.
    fn try_extra(&self, want: usize) -> usize {
        let mut available = crate::poison::lock(&self.available);
        let granted = want.min(*available);
        *available -= granted;
        granted
    }

    /// Returns slots to the budget and wakes blocked [`Pool::acquire`]s.
    fn release(&self, granted: usize) {
        if granted == 0 {
            return;
        }
        let mut available = crate::poison::lock(&self.available);
        *available += granted;
        self.freed.notify_all();
    }

    /// [`run_indexed`] through the shared budget: leases up to `threads`
    /// worker slots for the duration of the batch.
    pub fn run_indexed<R, F>(&self, n: usize, threads: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_indexed_with(n, threads, || (), |(), i| task(i))
    }

    /// [`run_indexed_with`] through the shared budget: the calling thread
    /// runs as worker 0 and up to `threads - 1` extra worker slots are taken
    /// non-blockingly (a fully busy pool grants none and the batch runs
    /// inline). Results are bit-identical for any grant, so contention
    /// affects only wall-clock time.
    pub fn run_indexed_with<S, R, I, F>(&self, n: usize, threads: usize, init: I, task: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        self.leased(n, threads, |granted| {
            run_indexed_with(n, granted, &init, &task)
        })
    }

    /// [`run_order_with`] through the shared budget: like
    /// [`Pool::run_indexed_with`], but tasks are *dispatched* in the order
    /// given by `order` while results still come back in index order. The
    /// branch-and-bound speculation engine uses it to expand candidates
    /// best-bound-first so its shared incumbent tightens as early as
    /// possible.
    pub fn run_order_with<S, R, I, F>(
        &self,
        n: usize,
        threads: usize,
        order: &[usize],
        init: I,
        task: F,
    ) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        self.leased(n, threads, |granted| {
            run_order_with(n, granted, order, &init, &task)
        })
    }

    /// Runs `batch` with the calling thread plus a non-blocking grant of up
    /// to `threads - 1` extra slots (inline for trivial batches), returning
    /// the slots before propagating any panic.
    fn leased<R>(&self, n: usize, threads: usize, batch: impl FnOnce(usize) -> R) -> R {
        let want = threads.min(default_threads()).min(n.max(1));
        if want <= 1 || n <= 1 {
            // Trivial batches run inline without touching the shared budget:
            // the calling thread is always available.
            return batch(1);
        }
        let extra = self.try_extra(want - 1);
        // The fork-join below must not panic past the release; results are
        // collected first and the slots returned before propagating.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch(1 + extra)));
        self.release(extra);
        match outcome {
            Ok(results) => results,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// Applies `task` to every index in `0..n` on at most `threads` workers
/// (capped at the available parallelism and at `n`), and returns the
/// results in index order.
///
/// `threads <= 1` (or a trivial `n`) runs inline on the calling thread. The
/// reduction order seen by the caller is always `0, 1, …, n-1`.
///
/// # Panics
///
/// Propagates panics from `task`.
pub fn run_indexed<R, F>(n: usize, threads: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed_with(n, threads, || (), |(), i| task(i))
}

/// Like [`run_indexed`], but each worker lazily creates one reusable state
/// value with `init` and threads it through its tasks — the map-with-scratch
/// pattern. The speculation engine uses it to reuse per-branch evaluation
/// buffers across every branch a worker processes instead of reallocating
/// them per task.
///
/// The state must not influence results (it is a scratch space, not an
/// accumulator), otherwise the output would depend on the schedule.
///
/// # Panics
///
/// Propagates panics from `init` and `task`.
pub fn run_indexed_with<S, R, I, F>(n: usize, threads: usize, init: I, task: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    fork_join(n, threads, |rank| (rank < n).then_some(rank), init, task)
}

/// Like [`run_indexed_with`], but tasks are *dispatched* in the order given
/// by `order` (a permutation of `0..n`) while results still come back in
/// index order `0, 1, …, n-1`.
///
/// Priority dispatch matters for batches whose tasks share monotone state —
/// the branch-and-bound speculation engine publishes its incumbent score
/// through an atomic cell, and expanding the highest-bound candidates first
/// maximizes how much of the remaining batch the incumbent can prune. The
/// order affects *scheduling only*: for tasks whose results do not depend on
/// execution order the output is bit-identical to [`run_indexed_with`].
/// Every worker takes the next task of `order` from one shared cursor, so
/// tasks start strictly in dispatch order on any number of workers, and a
/// worker that starts late (or is descheduled) leaves the others running
/// the order's prefix as one worker would, rather than dealing them a
/// scrambled share of it.
///
/// # Panics
///
/// Panics if `order` is not `n` elements long (a permutation is the caller's
/// responsibility; a repeated index would make a task run twice and another
/// not at all) and propagates panics from `init` and `task`.
pub fn run_order_with<S, R, I, F>(
    n: usize,
    threads: usize,
    order: &[usize],
    init: I,
    task: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    assert_eq!(order.len(), n, "dispatch order must cover every task index");
    fork_join(n, threads, |rank| order.get(rank).copied(), init, task)
}

/// The shared fork-join core: runs the tasks `dispatch(0), dispatch(1), …`
/// (until `dispatch` returns `None`) on at most `threads` workers (capped
/// at the available parallelism and at `n`), each taking the next rank from
/// one shared cursor, and collects the results in index order. The calling
/// thread participates as worker 0 — only the extra workers are spawned —
/// so a batch granted no extra pool slots runs inline instead of blocking
/// for a worker.
fn fork_join<S, R, D, I, F>(n: usize, threads: usize, dispatch: D, init: I, task: F) -> Vec<R>
where
    R: Send,
    D: Fn(usize) -> Option<usize> + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = threads.min(default_threads()).min(n).max(1);
    // One cursor over the ranks: the next task any worker takes is the
    // first one not yet started.
    let cursor = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only hands out distinct ranks; the
    // tasks' own data reaches the caller through the result channel.
    let next = || dispatch(cursor.fetch_add(1, Ordering::Relaxed));
    let (sender, receiver) = mpsc::channel::<(usize, R)>();
    let worker_loop = |sender: &mpsc::Sender<(usize, R)>| {
        let mut state = init();
        while let Some(index) = next() {
            // Send failures are impossible: the receiver outlives every
            // sender. Ignore the result to keep the worker loop infallible.
            let _ = sender.send((index, task(&mut state, index)));
        }
    };

    std::thread::scope(|scope| {
        for _ in 1..workers {
            let worker_loop = &worker_loop;
            let sender = sender.clone();
            scope.spawn(move || worker_loop(&sender));
        }
        worker_loop(&sender);
        drop(sender);

        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (index, result) in receiver {
            results[index] = Some(result);
        }
        results
            .into_iter()
            // lint: allow(no-panic) -- slot invariant: the channel delivers one result per dispatched index; a None is a pool bug worth a loud stop
            .map(|r| r.expect("every task index produces exactly one result"))
            .collect()
    })
}

/// Applies `task` to every item of `items` on the pool; results come back
/// in item order. Convenience wrapper over [`run_indexed`].
pub fn map_slice<T, R, F>(items: &[T], threads: usize, task: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed(items.len(), threads, |i| task(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn matches_the_sequential_path_for_uneven_workloads() {
        let work = |i: usize| -> u64 {
            // Wildly uneven task costs, so workers finish out of order.
            let spins = if i.is_multiple_of(7) { 20_000 } else { 10 };
            (0..spins).fold(i as u64, |acc, j| acc.wrapping_mul(31).wrapping_add(j))
        };
        let parallel = run_indexed(200, 8, work);
        let sequential = run_indexed(200, 1, work);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(500, 4, |i| {
            // ordering: Relaxed — a pure execution counter; the batch join
            // (scope exit) publishes it before the assertion reads it.
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        // ordering: Relaxed — read after the batch joined; see above.
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn map_slice_preserves_item_order() {
        let items: Vec<i64> = (0..64).map(|i| i - 32).collect();
        let doubled = map_slice(&items, 4, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn shared_pool_matches_the_free_functions() {
        let pool = Pool::new(4);
        assert_eq!(pool.capacity(), 4);
        let work = |i: usize| -> u64 {
            let spins = if i.is_multiple_of(5) { 5_000 } else { 3 };
            (0..spins).fold(i as u64, |acc, j| acc.wrapping_mul(31).wrapping_add(j))
        };
        let via_pool = pool.run_indexed(128, 8, work);
        let direct = run_indexed(128, 8, work);
        assert_eq!(via_pool, direct);
        // The budget is fully restored once the batch completes.
        assert_eq!(*pool.available.lock().unwrap(), 4);
    }

    #[test]
    fn concurrent_submissions_complete_correctly_and_restore_the_budget() {
        // Batch fan-outs are non-blocking: concurrent submitters race for
        // the extra-worker budget, every batch completes with index-ordered
        // results regardless of what it was granted, and the budget is
        // whole again afterwards. (The hard cap on computing threads is the
        // slot lease, exercised by the `held_slots_*` and `acquire_*`
        // tests, not the batch path.)
        let pool = Pool::new(2);
        let expected: Vec<usize> = (0..64).map(|i| i * 3).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6)
                .map(|_| scope.spawn(|| pool.run_indexed(64, 8, |i| i * 3)))
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), expected);
            }
        });
        assert_eq!(*pool.available.lock().unwrap(), 2);
    }

    #[test]
    fn shared_pool_capacity_is_clamped_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert_eq!(
            pool.run_indexed(10, 4, |i| i + 1),
            run_indexed(10, 1, |i| i + 1)
        );
        assert!(Pool::with_default_capacity().capacity() >= 1);
    }

    #[test]
    fn ordered_dispatch_returns_index_ordered_results() {
        let work = |i: usize| -> u64 {
            let spins = if i.is_multiple_of(9) { 10_000 } else { 5 };
            (0..spins).fold(i as u64, |acc, j| acc.wrapping_mul(31).wrapping_add(j))
        };
        let n = 120;
        // Reverse-priority order: the last index is dispatched first.
        let order: Vec<usize> = (0..n).rev().collect();
        let reference = run_indexed(n, 1, work);
        for threads in [1, 4, 8] {
            let out = run_order_with(n, threads, &order, || (), |(), i| work(i));
            assert_eq!(
                out, reference,
                "ordered dispatch diverged at {threads} threads"
            );
        }
        let via_pool = Pool::new(3).run_order_with(n, 8, &order, || (), |(), i| work(i));
        assert_eq!(via_pool, reference);
    }

    #[test]
    fn ordered_dispatch_runs_high_priority_tasks_first_sequentially() {
        // Single-threaded, the dispatch order IS the execution order: record
        // it through the scratch state and check against the given ranking.
        let n = 16;
        let order: Vec<usize> = (0..n).rev().collect();
        let executed = Mutex::new(Vec::new());
        let _ = run_order_with(
            n,
            1,
            &order,
            || (),
            |(), i| executed.lock().unwrap().push(i),
        );
        assert_eq!(*executed.lock().unwrap(), order);
    }

    #[test]
    fn ordered_dispatch_hands_every_worker_increasing_ranks() {
        // Workers take tasks from one cursor over the order, so each
        // worker's ranks increase on any schedule. The worker holding rank 0
        // stalls until the others have run half the order (or a bounded
        // number of yields, so one worker alone never waits on itself);
        // dealt deques would hand them a thief's share from the back.
        let n = 64;
        let order: Vec<usize> = (0..n).map(|rank| (rank * 37) % n).collect();
        let mut rank_of = vec![0; n];
        for (rank, &index) in order.iter().enumerate() {
            rank_of[index] = rank;
        }
        let workers = AtomicUsize::new(0);
        let log = Mutex::new(Vec::new());
        let _ = run_order_with(
            n,
            4,
            &order,
            // ordering: Relaxed — the counter only names the workers.
            || workers.fetch_add(1, Ordering::Relaxed),
            |&mut worker, index| {
                if rank_of[index] == 0 {
                    for _ in 0..100_000 {
                        if log.lock().unwrap().len() >= n / 2 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                log.lock().unwrap().push((worker, rank_of[index]));
            },
        );
        let log = log.into_inner().unwrap();
        let mut seen: Vec<usize> = log.iter().map(|&(_, rank)| rank).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        for worker in 0..workers.into_inner() {
            let ranks: Vec<usize> = log
                .iter()
                .filter(|&&(w, _)| w == worker)
                .map(|&(_, rank)| rank)
                .collect();
            assert!(
                ranks.windows(2).all(|pair| pair[0] < pair[1]),
                "worker {worker} ran ranks out of order: {ranks:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dispatch order must cover")]
    fn ordered_dispatch_rejects_short_orders() {
        let _ = run_order_with(4, 2, &[0, 1], || (), |(), i| i);
    }

    #[test]
    fn held_slots_shrink_batch_grants_without_blocking_or_changing_results() {
        let pool = Pool::new(2);
        let expected: Vec<usize> = (0..40).map(|i| i + 7).collect();
        let slot_a = pool.acquire();
        let slot_b = pool.acquire();
        assert_eq!(*pool.available.lock().unwrap(), 0);
        // Every slot is held: a batch must still complete (the calling
        // thread is worker 0) instead of waiting for a grant.
        assert_eq!(pool.run_indexed(40, 8, |i| i + 7), expected);
        drop(slot_a);
        assert_eq!(*pool.available.lock().unwrap(), 1);
        assert_eq!(pool.run_indexed(40, 8, |i| i + 7), expected);
        drop(slot_b);
        assert_eq!(*pool.available.lock().unwrap(), 2);
    }

    #[test]
    fn acquire_blocks_until_a_slot_is_released() {
        let pool = Pool::new(1);
        let slot = pool.acquire();
        let (started, observed) = (std::sync::mpsc::channel(), std::sync::mpsc::channel());
        std::thread::scope(|scope| {
            let pool = &pool;
            let observed_tx = observed.0.clone();
            scope.spawn(move || {
                started.0.send(()).unwrap();
                let _slot = pool.acquire();
                observed_tx.send(()).unwrap();
            });
            started.1.recv().unwrap();
            // The waiter is alive and cannot have a slot yet.
            assert!(observed
                .1
                .recv_timeout(std::time::Duration::from_millis(50))
                .is_err());
            drop(slot);
            observed
                .1
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("releasing the held slot must wake the waiter");
        });
        assert_eq!(*pool.available.lock().unwrap(), 1);
    }

    #[test]
    fn per_worker_state_is_reused_as_scratch() {
        // The scratch buffer must not leak into results, but reusing it
        // should work across tasks on the same worker.
        let out = run_indexed_with(64, 4, Vec::<usize>::new, |scratch, i| {
            scratch.clear();
            scratch.extend(0..=i);
            scratch.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(out, expected);
    }
}
