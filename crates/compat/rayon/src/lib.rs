//! Offline-compatible subset of the `rayon` 1.x API — **genuinely
//! parallel**, built on `std::thread::scope` with no external
//! dependencies.
//!
//! The build environment has no network access, so the real `rayon`
//! crate cannot be resolved; this workspace-local crate (wired in
//! through `[patch.crates-io]`) implements the parallel-iterator surface
//! the workspace uses — `par_iter` over slices, `map`, `map_init` and
//! `collect` — as a real order-preserving parallel executor:
//!
//! * the source is split into index-ordered chunks, one scoped worker
//!   thread per chunk (at most [`current_num_threads`] of them);
//! * each chunk folds sequentially in source order, so `collect` is
//!   byte-for-byte identical to the sequential result;
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
//! overhead.

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

    pub use crate::iter::{IntoParallelRefIterator, ParallelIterator};
}
