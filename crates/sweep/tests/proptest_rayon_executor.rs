//! Tests for the workspace rayon executor itself, driven from
//! `grid-sweep` (the compat crate is outside the workspace, so tests
//! placed there would not run under `cargo test --workspace`; these do).
//!
//! Properties, each across arbitrary input lengths (including 0 and 1)
//! and arbitrary thread counts 1–16:
//!
//! * `map`/`collect` preserves source order exactly;
//! * `map_init` preserves source order and creates at most one state per
//!   chunk (so at most one per configured thread).
//!
//! Plain tests: a panic in one item propagates to the caller instead of
//! deadlocking (completion is the deadlock evidence), work spreads over
//! every worker, `install` nests and restores, and `num_threads(0)`
//! means the default. The inline policy for nested calls is covered by
//! `nested_parallelism.rs`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rayon::prelude::*;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_collect_preserves_order(
        v in prop::collection::vec(any::<u64>(), 0..200),
        threads in 1usize..=16,
    ) {
        let expected: Vec<u64> = v.iter().map(|&x| x.wrapping_mul(3).rotate_left(7)).collect();
        let got: Vec<u64> = pool(threads)
            .install(|| v.par_iter().map(|&x| x.wrapping_mul(3).rotate_left(7)).collect());
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn map_init_preserves_order_with_one_state_per_chunk(
        v in prop::collection::vec(any::<u32>(), 0..200),
        threads in 1usize..=16,
    ) {
        let inits = AtomicUsize::new(0);
        let expected: Vec<u64> = v.iter().map(|&x| u64::from(x) * 2).collect();
        let got: Vec<u64> = pool(threads).install(|| {
            v.par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0usize
                    },
                    |calls, &x| {
                        *calls += 1; // the state's history must not reach results
                        u64::from(x) * 2
                    },
                )
                .collect()
        });
        prop_assert_eq!(got, expected);
        let inits = inits.load(Ordering::Relaxed);
        // States are created lazily: none for an empty source, and at
        // most one per chunk (chunks never outnumber the threads).
        prop_assert!(inits <= threads.min(v.len()), "{} states for {} threads", inits, threads);
        prop_assert_eq!(inits == 0, v.is_empty());
    }

    #[test]
    fn tiny_sources_hit_the_inline_fast_path(
        v in prop::collection::vec(any::<u16>(), 0..=2),
        threads in 1usize..=16,
    ) {
        // Lengths 0, 1 and 2 straddle the spawn threshold; all must be
        // exact regardless of the configured thread count.
        let expected: Vec<u32> = v.iter().map(|&x| u32::from(x) + 1).collect();
        let got: Vec<u32> = pool(threads)
            .install(|| v.par_iter().map(|&x| u32::from(x) + 1).collect());
        prop_assert_eq!(got, expected);
    }
}

#[test]
fn panic_in_one_item_propagates_not_deadlocks() {
    // One poisoned item out of 64 on 8 threads: the panic must surface
    // on the caller. This test *finishing* is the no-deadlock evidence —
    // the scope joins every other worker before the payload is rethrown.
    let items: Vec<u32> = (0..64).collect();
    for threads in [1usize, 2, 8] {
        let result = std::panic::catch_unwind(|| {
            pool(threads).install(|| {
                items
                    .par_iter()
                    .map(|&x| {
                        assert!(x != 41, "poisoned item");
                        x
                    })
                    .collect::<Vec<u32>>()
            })
        });
        assert!(result.is_err(), "panic swallowed at {threads} threads");
    }
}

#[test]
fn work_spreads_over_every_worker() {
    // Every item runs on a worker (index set), and a 64-item source over
    // a 4-thread pool uses all four chunks.
    let items: Vec<u32> = (0..64).collect();
    let indices: Vec<usize> = pool(4).install(|| {
        items
            .par_iter()
            .map(|_| rayon::current_thread_index().expect("on a worker"))
            .collect()
    });
    let seen: HashSet<usize> = indices.into_iter().collect();
    assert_eq!(seen, HashSet::from([0, 1, 2, 3]));
}

#[test]
fn install_nests_and_restores() {
    let outer = pool(7);
    let inner = pool(2);
    let ambient = rayon::current_num_threads();
    outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 7);
        inner.install(|| assert_eq!(rayon::current_num_threads(), 2));
        assert_eq!(rayon::current_num_threads(), 7);
    });
    assert_eq!(rayon::current_num_threads(), ambient);
}

#[test]
fn zero_threads_means_the_default() {
    let p = pool(0);
    assert!(p.current_num_threads() >= 1);
    let ambient = rayon::current_num_threads();
    assert_eq!(p.current_num_threads(), ambient);
}
