//! The thread engine behind the parallel iterators.
//!
//! Work arrives as one borrowed slice, is split into at most
//! [`current_num_threads`] index-ordered chunks, and each chunk is
//! folded **sequentially, in source order** on its own
//! `std::thread::scope` worker. Per-chunk accumulators come back
//! ordered by chunk index, so `collect` on top is order-preserving by
//! construction.
//!
//! Three policies live here:
//!
//! * **Sequential fast path** — fewer than [`SPAWN_THRESHOLD`] items, a
//!   single configured thread, or a call made *from inside a worker*
//!   runs inline on the calling thread with zero spawns.
//! * **Nested parallelism runs inline.** A worker that itself calls
//!   `par_iter` folds sequentially instead of spawning, so a nest of
//!   parallel loops is capped at one level of real threads
//!   (`current_num_threads` live workers, never `n × m`).
//! * **Panic propagation.** A panicking item poisons only its own
//!   worker; every other worker is still joined (the scope guarantees
//!   it) and the first payload in chunk order is re-thrown on the
//!   caller.

use std::cell::Cell;
use std::sync::OnceLock;

/// Sources shorter than this never spawn: the items are too few for the
/// thread setup cost to pay for itself.
pub(crate) const SPAWN_THRESHOLD: usize = 2;

thread_local! {
    /// `Some(i)` on the i-th worker of the parallel call currently
    /// executing on this thread, `None` elsewhere.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };

    /// Thread count forced by [`ThreadPool::install`], if any.
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default thread count: `RAYON_NUM_THREADS` when set
/// to a positive integer (read once, like real rayon's global pool),
/// otherwise the machine's available parallelism.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n,
            // 0, unset or unparseable: fall back to the hardware.
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// Number of threads parallel iterators will use on this thread: the
/// innermost [`ThreadPool::install`] override if one is active,
/// otherwise the `RAYON_NUM_THREADS`/hardware default.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

/// `Some(index)` when called from inside a parallel-iterator worker
/// (mirrors real rayon's pool-thread index), `None` on ordinary threads.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// How many workers a source of `items` elements should fold on.
pub(crate) fn effective_workers(items: usize) -> usize {
    if items < SPAWN_THRESHOLD || current_thread_index().is_some() {
        1
    } else {
        current_num_threads().min(items).max(1)
    }
}

/// Fold a borrowed slice in parallel chunks (driver for `par_iter`):
/// one scoped thread per chunk, results in chunk order.
pub(crate) fn fold_slice<'a, T, A, ID, F>(slice: &'a [T], init: &ID, fold: &F) -> Vec<A>
where
    T: Sync,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, &'a T) -> A + Sync,
{
    let workers = effective_workers(slice.len());
    if workers <= 1 {
        return vec![slice.iter().fold(init(), fold)];
    }
    let per_chunk = slice.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = slice
            .chunks(per_chunk)
            .enumerate()
            .map(|(index, chunk)| {
                scope.spawn(move || {
                    WORKER_INDEX.with(|slot| slot.set(Some(index)));
                    chunk.iter().fold(init(), fold)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(acc) => acc,
                // Re-throw the worker's panic on the caller. The scope
                // still joins the remaining threads before unwinding out,
                // so no worker is leaked and nothing deadlocks.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// An explicitly sized thread pool, mirroring real rayon's
/// `ThreadPoolBuilder`. `num_threads(0)` (or not calling it) resolves to
/// the `RAYON_NUM_THREADS`/hardware default at `build` time.
#[derive(Clone, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Builder with the default (env/hardware) thread count.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Force a thread count; `0` keeps the default.
    pub fn num_threads(mut self, num_threads: usize) -> ThreadPoolBuilder {
        self.num_threads = num_threads;
        self
    }

    /// Resolve the pool. Infallible here; the `Result` mirrors real
    /// rayon's signature so call sites stay source-compatible.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: if self.num_threads == 0 {
                default_threads()
            } else {
                self.num_threads
            },
        })
    }
}

/// A handle forcing a thread count for the duration of
/// [`install`](ThreadPool::install) — the in-process way to compare
/// 1-thread and N-thread executions (the determinism differential tests
/// and the benchmark's one-thread `campaign_tune` both rely on it).
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }

    /// Run `op` with every parallel iterator it reaches (on this thread)
    /// using this pool's thread count. Overrides nest; the previous
    /// count is restored even if `op` panics.
    pub fn install<R, OP: FnOnce() -> R>(&self, op: OP) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_OVERRIDE.with(|slot| slot.set(self.0));
            }
        }
        let _restore = Restore(POOL_OVERRIDE.with(|slot| slot.replace(Some(self.threads))));
        op()
    }
}

/// Pool construction error (never produced; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}
