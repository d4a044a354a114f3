//! Offline stand-in for `rayon`: the parallel-iterator surface used by this
//! workspace, executed on a real `std::thread` **work-stealing** pool. See
//! `stubs/README.md`.
//!
//! The API mirrors `rayon` 1.x exactly where the workspace uses it, so swapping in
//! the upstream crate stays a one-line `Cargo.toml` change. Like upstream, the
//! scheduler is a per-worker-deque work stealer with true nested parallelism:
//! `join` and parallel drives issued *from inside a pool job* push their sub-tasks
//! onto the running worker's own deque, where idle workers steal them — nesting
//! fans out instead of degrading to sequential execution (`pool` module docs
//! describe the scheduler). Results are **bit-identical to sequential
//! execution** by construction regardless: producers split into contiguous index
//! ranges and every driver merges piece results in index order, so stealing decides
//! *who* runs a piece, never *where its result merges*.
//!
//! Thread count: `RAYON_NUM_THREADS` (read once; unset/`0` means the machine's
//! available parallelism, `1` forces the pre-pool sequential path), scoped overrides
//! via [`ThreadPool::install`]; nested drives inherit the parallelism of the drive
//! that spawned them. Drives shorter than [`SMALL_DRIVE_CUTOFF`] skip the pool
//! entirely. [`pool_stats`] exposes scheduler counters for bench observability.

mod pool;
pub mod producer;

pub use pool::{PoolStats, SMALL_DRIVE_CUTOFF};

use producer::{
    ChunksMutProducer, MapProducer, Producer, RangeProducer, SliceMutProducer, SliceProducer,
    VecProducer, ZipProducer,
};
use std::sync::Arc;

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator, ParallelSliceMut,
    };
}

/// A parallel iterator: a splittable [`Producer`] plus rayon's method surface.
pub struct ParIter<P> {
    producer: P,
}

/// Marker trait mirroring `rayon::iter::ParallelIterator`; implemented by
/// [`ParIter`] so `use rayon::prelude::*` keeps working.
pub trait ParallelIterator {}

impl<P: Producer> ParallelIterator for ParIter<P> {}

impl<P: Producer> ParIter<P> {
    pub fn map<F, R>(self, f: F) -> ParIter<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> R + Send + Sync,
        R: Send,
    {
        ParIter {
            producer: MapProducer {
                base: self.producer,
                f: Arc::new(f),
            },
        }
    }

    pub fn zip<Q: Producer>(self, other: ParIter<Q>) -> ParIter<ZipProducer<P, Q>> {
        ParIter {
            producer: ZipProducer {
                a: self.producer,
                b: other.producer,
            },
        }
    }

    /// Order-preserving collection: parallel pieces are merged in index order, so the
    /// result is bit-identical to sequential collection.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<P::Item>,
    {
        if pool::run_sequentially(self.producer.len()) {
            self.producer.into_seq().collect()
        } else {
            pool::run_parallel(self.producer, &|piece: P| {
                piece.into_seq().collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        }
    }

    /// Reduction. Per-piece partials fold left-to-right and combine left-to-right in
    /// piece order, so any *associative* `op` with a true identity gives results
    /// bit-identical to sequential execution at every thread count (all reductions in
    /// this workspace — `f64::max`, integer sums — qualify).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        if pool::run_sequentially(self.producer.len()) {
            self.producer.into_seq().fold(identity(), &op)
        } else {
            pool::run_parallel(self.producer, &|piece: P| {
                piece.into_seq().fold(identity(), &op)
            })
            .into_iter()
            .fold(identity(), &op)
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        if pool::run_sequentially(self.producer.len()) {
            self.producer.into_seq().for_each(&f);
        } else {
            pool::run_parallel(self.producer, &|piece: P| piece.into_seq().for_each(&f));
        }
    }
}

/// Mirror of `rayon::join`: runs both closures, potentially in parallel, and returns
/// both results.
///
/// The stub executes `b` as one stealable pool job while the caller runs `a` — when
/// the caller is itself a pool worker the job goes onto *its own deque*, so nested
/// joins fan back out to idle workers exactly like upstream. If no thief takes `b`,
/// the caller claims it back itself, so the pair never waits on pool capacity, and
/// each arm may start further parallel work (it inherits the caller's parallelism).
/// Under `RAYON_NUM_THREADS=1` or an `install(1)` scope both closures run
/// sequentially on the current thread with zero pool involvement and zero
/// allocation. Panics propagate to the caller, `a`'s first — even when a stolen
/// `b`'s panic landed chronologically earlier.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join(oper_a, oper_b)
}

/// Mirror of `rayon::current_num_threads`: the *effective* parallelism a drive
/// started on this thread right now would get — an [`ThreadPool::install`] override
/// first, then the parallelism inherited from the enclosing pool job, then the
/// process default. `perfbench` checks its pool width against this rather than
/// against `RAYON_NUM_THREADS`, which an `install` may override.
pub fn current_num_threads() -> usize {
    pool::current_parallelism()
}

/// Scheduler diagnostics: per-worker counters (tasks executed, steal scans
/// attempted/succeeded, parks) summed into one snapshot. Counters are cumulative
/// for the process lifetime and cost one relaxed `fetch_add` per event; they never
/// feed results — `perfbench` reports their deltas as its `rayon.*` metrics.
pub fn pool_stats() -> PoolStats {
    pool::pool_stats()
}

/// Mirror of `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: Producer<Item = Self::Item>;
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecProducer<T>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter {
            producer: VecProducer { vec: self },
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    type Iter = RangeProducer<u64>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter {
            producer: RangeProducer { range: self },
        }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeProducer<usize>;
    fn into_par_iter(self) -> ParIter<Self::Iter> {
        ParIter {
            producer: RangeProducer { range: self },
        }
    }
}

/// Mirror of `rayon::iter::IntoParallelRefIterator` (`.par_iter()` on slices).
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a + Send;
    type Iter: Producer<Item = Self::Item>;
    fn par_iter(&'a self) -> ParIter<Self::Iter>;
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceProducer<'a, T>;
    fn par_iter(&'a self) -> ParIter<Self::Iter> {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceProducer<'a, T>;
    fn par_iter(&'a self) -> ParIter<Self::Iter> {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

/// Mirror of `rayon::iter::IntoParallelRefMutIterator` (`.par_iter_mut()` on slices).
pub trait IntoParallelRefMutIterator<'a> {
    type Item: 'a + Send;
    type Iter: Producer<Item = Self::Item>;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Iter>;
}

impl<'a, T: 'a + Send> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = SliceMutProducer<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Iter> {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

impl<'a, T: 'a + Send> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = SliceMutProducer<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Iter> {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

/// Mirror of `rayon::slice::ParallelSliceMut` (`.par_chunks_mut()`).
pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>
    where
        T: Send;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMutProducer<'_, T>>
    where
        T: Send,
    {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParIter {
            producer: ChunksMutProducer {
                slice: self,
                chunk_size,
            },
        }
    }
}

/// Mirror of `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` (the default) means "pick for me": `RAYON_NUM_THREADS` or the machine's
    /// available parallelism.
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 {
            pool::default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads })
    }
}

/// Mirror of `rayon::ThreadPool`: [`ThreadPool::install`] scopes the parallelism of
/// every parallel call made inside the closure to this pool's thread count.
///
/// Unlike upstream, the closure runs on the *calling* thread (workers come from the
/// shared global set); the observable effect — `num_threads(1)` forces sequential
/// execution, `num_threads(n)` caps a drive at `n` executors — matches.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _guard = pool::enter_install(self.threads);
        op()
    }

    /// The parallelism this pool grants to drives under [`ThreadPool::install`].
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Mirror of `rayon::ThreadPoolBuildError` (the stub never produces one).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error (stub)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn with_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(op)
    }

    #[test]
    fn combinators_match_sequential_semantics() {
        let v = vec![3u32, 1, 2];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![6, 2, 4]);

        let pairs: Vec<(u32, u64)> = v
            .par_iter()
            .map(|&x| x)
            .zip((10..13u64).into_par_iter())
            .collect();
        assert_eq!(pairs, vec![(3, 10), (1, 11), (2, 12)]);

        let total = v.clone().into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 6);

        let max = v.par_iter().map(|&x| x as f64).reduce(|| 0.0, f64::max);
        assert!((max - 3.0).abs() < 1e-12);

        let mut buf = vec![0u32; 6];
        buf.par_chunks_mut(2)
            .zip(v.par_iter())
            .for_each(|(chunk, &x)| chunk.fill(x));
        assert_eq!(buf, vec![3, 3, 1, 1, 2, 2]);

        let mut incr = vec![1u32, 2, 3];
        incr.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(incr, vec![11, 12, 13]);
    }

    #[test]
    fn thread_pool_installs() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(pool.install(|| 41 + 1), 42);
        assert_eq!(pool.current_num_threads(), 4);
        assert_eq!(pool.install(current_num_threads), 4);
        // Pool jobs inherit the width of the drive that spawned them.
        let widths: Vec<usize> = with_threads(3, || {
            (0..64usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(widths.iter().all(|&w| w == 3), "widths = {widths:?}");
    }

    #[test]
    fn collect_order_is_identical_across_thread_counts() {
        // Enough items to force many pieces; zip + map on both sides exercises the
        // combinator stack. The merged output must equal plain sequential iteration.
        let input: Vec<u64> = (0..10_000).map(|x| x * 7 % 10_007).collect();
        let expected: Vec<(u64, u64, bool)> = input
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as u64, x * 3 + 1, (x * 3 + 1) % 7 == 0))
            .collect();
        for threads in [1, 2, 4, 7] {
            let got: Vec<(u64, u64, bool)> = with_threads(threads, || {
                (0..input.len() as u64)
                    .into_par_iter()
                    .zip(input.par_iter().map(|&x| x * 3 + 1))
                    .map(|(i, x)| (i, x, x % 7 == 0))
                    .collect()
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn zipped_chunks_stay_aligned_under_splitting() {
        // chunk i must pair with seed i exactly, no matter where pieces split —
        // including the ragged final chunk.
        let seeds: Vec<u32> = (0..1001).collect();
        let mut buf = vec![0u32; 1001 * 3 - 2]; // last chunk has 1 element
        buf.par_chunks_mut(3)
            .zip(seeds.par_iter())
            .for_each(|(chunk, &seed)| chunk.fill(seed));
        for (i, chunk) in buf.chunks(3).enumerate() {
            assert!(chunk.iter().all(|&x| x == i as u32), "chunk {i}");
        }
    }

    #[test]
    fn pieces_actually_run_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // 64 sleeping pieces per batch give idle workers ample time to claim a token
        // even on a loaded single-CPU machine (sleeping needs no extra cores).
        // Tokens queue FIFO behind other tests' drives, so one batch can
        // legitimately end up all-driver — retry batches until a second executor
        // shows up rather than asserting on wall-clock time, which is flaky under
        // CI load. A pool that never runs pieces on workers fails the final assert.
        let ids = Mutex::new(HashSet::new());
        for _ in 0..50 {
            with_threads(4, || {
                (0..64usize).into_par_iter().for_each(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            });
            if ids.lock().unwrap().len() >= 2 {
                break;
            }
        }
        let distinct = ids.lock().unwrap().len();
        assert!(
            distinct >= 2,
            "expected >= 2 executor threads across 50 batches, saw {distinct}"
        );
    }

    #[test]
    fn num_threads_one_forces_the_sequential_path() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        with_threads(1, || {
            (0..256usize).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(ids.lock().unwrap().len(), 1);
        assert!(ids.lock().unwrap().contains(&std::thread::current().id()));
    }

    #[test]
    fn nested_drives_fan_out_to_other_workers_via_stealing() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // The acceptance test for true nested parallelism: an inner drive issued
        // from a pool worker must execute at least one sub-task on a *different*
        // thread than the worker driving it, and the steal counters must move —
        // nested tokens live on the owning worker's deque, so the only way another
        // thread runs one is by stealing it. Sleeping inner items give idle workers
        // ample time to steal even on a loaded single-CPU machine; like
        // `pieces_actually_run_on_multiple_threads`, retry batches rather than
        // asserting on timing. A pool where nesting degrades to sequential (the
        // pre-work-stealing behaviour) fails the final assert no matter how many
        // retries run.
        let steals_before = pool_stats().steals_succeeded;
        let fanned_out = Mutex::new(false);
        for _ in 0..50 {
            with_threads(4, || {
                (0..4usize).into_par_iter().for_each(|_| {
                    let outer = std::thread::current().id();
                    let inner_ids = Mutex::new(HashSet::new());
                    (0..32usize).into_par_iter().for_each(|_| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        inner_ids
                            .lock()
                            .unwrap()
                            .insert(std::thread::current().id());
                    });
                    let inner_ids = inner_ids.lock().unwrap();
                    if inner_ids.iter().any(|&id| id != outer) {
                        *fanned_out.lock().unwrap() = true;
                    }
                });
            });
            if *fanned_out.lock().unwrap() {
                break;
            }
        }
        assert!(
            *fanned_out.lock().unwrap(),
            "no inner drive ever executed a sub-task off its driving worker"
        );
        let steals_after = pool_stats().steals_succeeded;
        assert!(
            steals_after > steals_before,
            "fan-out without steals should be impossible: {steals_before} -> {steals_after}"
        );
    }

    #[test]
    fn small_drives_run_inline_and_are_bit_identical_across_the_cutoff() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Below the cutoff there is no job setup at all: every item runs on the
        // calling thread even with a 4-thread pool available.
        let ids = Mutex::new(HashSet::new());
        with_threads(4, || {
            (0..SMALL_DRIVE_CUTOFF - 1).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(ids.lock().unwrap().len(), 1);
        assert!(ids.lock().unwrap().contains(&std::thread::current().id()));

        // And the results on both sides of the cutoff are bit-identical to
        // sequential execution — the cutoff is a scheduling decision, not a
        // semantic one.
        for len in [SMALL_DRIVE_CUTOFF - 1, SMALL_DRIVE_CUTOFF] {
            let expected: Vec<usize> = (0..len).map(|x| x * 31 + 7).collect();
            for threads in [1, 2, 4, 8] {
                let got: Vec<usize> = with_threads(threads, || {
                    (0..len).into_par_iter().map(|x| x * 31 + 7).collect()
                });
                assert_eq!(got, expected, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn reduce_and_sum_match_sequential_at_any_thread_count() {
        let input: Vec<u64> = (0..5000).map(|x| x * x % 997).collect();
        let seq_sum: u64 = input.iter().sum();
        let seq_max = input.iter().map(|&x| x as f64).fold(0.0, f64::max);
        let seq_count = input.iter().filter(|&&x| x % 3 == 0).count();
        for threads in [1, 3, 8] {
            let (sum, max, count) = with_threads(threads, || {
                (
                    input.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b),
                    input.par_iter().map(|&x| x as f64).reduce(|| 0.0, f64::max),
                    input
                        .par_iter()
                        .map(|&x| usize::from(x % 3 == 0))
                        .reduce(|| 0, |a, b| a + b),
                )
            });
            assert_eq!(sum, seq_sum, "threads = {threads}");
            assert_eq!(max.to_bits(), seq_max.to_bits(), "threads = {threads}");
            assert_eq!(count, seq_count, "threads = {threads}");
        }
    }

    #[test]
    fn join_returns_both_results_at_any_thread_count() {
        for threads in [1, 2, 4] {
            let (a, b) = with_threads(threads, || {
                join(
                    || (0..1000u64).sum::<u64>(),
                    || (0..1000u64).map(|x| x * 2).sum::<u64>(),
                )
            });
            assert_eq!(a, 499_500, "threads = {threads}");
            assert_eq!(b, 999_000, "threads = {threads}");
        }
    }

    #[test]
    fn join_arms_can_mutate_disjoint_borrows() {
        let mut left = vec![0u32; 512];
        let mut right = vec![0u32; 512];
        with_threads(4, || {
            join(
                || left.iter_mut().enumerate().for_each(|(i, x)| *x = i as u32),
                || right.iter_mut().for_each(|x| *x = 7),
            )
        });
        assert_eq!(left[511], 511);
        assert!(right.iter().all(|&x| x == 7));
    }

    #[test]
    fn join_nested_inside_par_iter_preserves_result_order_at_every_thread_count() {
        // A join inside every piece of an outer drive — results must merge in index
        // order and match sequential execution bit-for-bit at every thread count,
        // whether the b-arms were stolen or claimed back.
        let expected: Vec<(usize, u64, u64)> = (0..64)
            .map(|i| {
                let a: u64 = (0..100).map(|x| x * i as u64).sum();
                let b: u64 = (0..100).map(|x| x ^ i as u64).sum();
                (i, a, b)
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let got: Vec<(usize, u64, u64)> = with_threads(threads, || {
                (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        let (a, b) = join(
                            || (0..100u64).map(|x| x * i as u64).sum::<u64>(),
                            || (0..100u64).map(|x| x ^ i as u64).sum::<u64>(),
                        );
                        (i, a, b)
                    })
                    .collect()
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn join_panics_are_raised_a_first_even_when_both_arms_panic() {
        // Panic-first semantics: `a` runs on the caller and its payload wins even if
        // a (possibly stolen) `b` panicked chronologically earlier. With `b` forced
        // to panic before `a` does, the caller must still re-raise `a`'s payload.
        use std::sync::mpsc;
        let err = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let (tx, rx) = mpsc::channel::<()>();
                join(
                    move || {
                        // Wait until `b` has certainly panicked (channel closes when
                        // the sender is dropped by `b`'s unwinding).
                        let _ = rx.recv();
                        panic!("a arm boom");
                    },
                    move || {
                        let _tx = tx;
                        panic!("b arm boom");
                    },
                )
            })
        })
        .expect_err("panic must propagate");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("a arm boom"), "got: {message}");
    }

    #[test]
    fn pool_stats_counters_move_when_parallel_work_runs() {
        let before = pool_stats();
        with_threads(4, || {
            (0..512usize).into_par_iter().for_each(|_| {
                std::hint::black_box(());
            });
        });
        let after = pool_stats();
        assert!(after.workers >= 1);
        assert!(
            after.tasks_executed + after.steals_attempted + after.parks
                >= before.tasks_executed + before.steals_attempted + before.parks,
            "counters must be monotone"
        );
    }

    #[test]
    fn join_propagates_panics_from_either_arm() {
        let err = std::panic::catch_unwind(|| {
            with_threads(4, || join(|| 1, || panic!("right arm boom")))
        })
        .expect_err("panic must propagate");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("right arm boom"), "got: {message}");

        let err =
            std::panic::catch_unwind(|| with_threads(4, || join(|| panic!("left arm boom"), || 2)))
                .expect_err("panic must propagate");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("left arm boom"), "got: {message}");
    }

    #[test]
    fn piece_panics_propagate_to_the_driver() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                (0..1000usize).into_par_iter().for_each(|i| {
                    assert!(i != 613, "boom at {i}");
                });
            });
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 613"), "got: {message}");
    }
}
