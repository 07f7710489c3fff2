//! Offline-compatible subset of the `rayon` 1.x API — **genuinely
//! parallel**, built on `std::thread::scope` with no external
//! dependencies.
//!
//! The build environment has no network access, so the real `rayon`
//! crate cannot be resolved; this workspace-local crate (wired in
//! through `[patch.crates-io]`) implements the parallel-iterator surface
//! the workspace uses — `par_iter`, `into_par_iter`, `map`,
//! `filter_map`, `copied`/`cloned`, `collect`, `reduce_with`,
//! `for_each` — as a real order-preserving parallel executor:
//!
//! * the source is split into index-ordered chunks, one scoped worker
//!   thread per chunk (at most [`current_num_threads`] of them);
//! * each chunk folds sequentially in source order, so `collect` is
//!   byte-for-byte identical to the sequential result and `reduce_with`
//!   matches sequential `reduce` for associative operators;
//! * nested parallel calls made from inside a worker run inline, capping
//!   the live thread count at one level of parallelism;
//! * a worker panic is re-thrown on the caller after every other worker
//!   has been joined;
//! * `RAYON_NUM_THREADS` (read once, like real rayon's global pool)
//!   overrides the hardware thread count, and
//!   [`ThreadPoolBuilder`]/[`ThreadPool::install`] force a count for a
//!   scoped region in-process — that is how the workspace's determinism
//!   differential tests compare 1-thread and N-thread runs.
//!
//! Sources below a small spawn threshold run inline with zero thread
//! overhead, so peppering tiny loops with `par_iter` stays cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executor;
pub mod iter;

pub use executor::{
    current_num_threads, current_thread_index, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};

pub mod prelude {
    //! The glob-import surface: `use rayon::prelude::*;`.

    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// The pre-parallel stub's surface test, unchanged: the upgrade must
    /// be source- and value-compatible with every existing call shape.
    #[test]
    fn surface_matches_usage() {
        let v: Vec<u64> = (0..5u64).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8]);

        let ids = [(1usize, 2usize), (3, 4)];
        let sums: Vec<usize> = ids.par_iter().map(|&(a, b)| a + b).collect();
        assert_eq!(sums, vec![3, 7]);

        let best = ids
            .par_iter()
            .filter_map(|&(a, b)| (a > 0).then_some(a + b))
            .reduce_with(|x, y| x.max(y));
        assert_eq!(best, Some(7));

        let none = Vec::<u32>::new().par_iter().copied().reduce_with(|a, b| a + b);
        assert_eq!(none, None);
    }

    #[test]
    fn collect_preserves_order_across_threads() {
        let input: Vec<u32> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let out: Vec<u32> = pool.install(|| input.par_iter().map(|&x| x * 3).collect());
            assert_eq!(out, input.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn work_actually_spreads_over_workers() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen = Mutex::new(HashSet::new());
        pool.install(|| {
            (0..64u32).into_par_iter().for_each(|_| {
                // Every item runs on a worker (index set), and a 64-item
                // source over a 4-thread pool uses all four chunks.
                let index = crate::current_thread_index().expect("on a worker");
                seen.lock().unwrap().insert(index);
            });
        });
        assert_eq!(*seen.lock().unwrap(), HashSet::from([0, 1, 2, 3]));
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let inner: Vec<Vec<usize>> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let outer = crate::current_thread_index().expect("on a worker");
                    let v: Vec<usize> = (0..16usize)
                        .into_par_iter()
                        .map(|j| {
                            // Inline policy: the nested iterator stays on
                            // the same worker thread.
                            assert_eq!(crate::current_thread_index(), Some(outer));
                            i * 16 + j
                        })
                        .collect();
                    v
                })
                .collect()
        });
        let flat: Vec<usize> = inner.into_iter().flatten().collect();
        assert_eq!(flat, (0..128).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                (0..100u32)
                    .into_par_iter()
                    .map(|x| {
                        assert!(x != 37, "boom at {x}");
                        x
                    })
                    .collect::<Vec<u32>>()
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = crate::ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let inner = crate::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ambient = crate::current_num_threads();
        outer.install(|| {
            assert_eq!(crate::current_num_threads(), 7);
            inner.install(|| assert_eq!(crate::current_num_threads(), 2));
            assert_eq!(crate::current_num_threads(), 7);
        });
        assert_eq!(crate::current_num_threads(), ambient);
    }

    #[test]
    fn builder_zero_means_default() {
        let pool = crate::ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }
}
