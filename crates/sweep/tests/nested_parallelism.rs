//! Nested-parallelism stress: `campaign` runs `weight_search` (itself a
//! `par_iter` over weight candidates) inside a `par_iter` over
//! scenarios. The executor's policy is **run-inline**: a parallel call
//! made from inside a worker folds sequentially on that worker, so the
//! live thread count is capped at one level of parallelism and nesting
//! can neither deadlock nor oversubscribe unboundedly. Both halves are
//! asserted here — on a synthetic nest that mirrors the campaign shape,
//! and end-to-end on the real weight search.

use std::sync::atomic::{AtomicUsize, Ordering};

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{ScenarioParams, ScenarioSet};
use grid_sweep::weight_search::weight_stats;
use grid_sweep::Heuristic;
use rayon::prelude::*;

const POOL_THREADS: usize = 4;

fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(POOL_THREADS)
        .build()
        .expect("pool")
}

#[test]
fn nested_par_iter_is_capped_and_inline() {
    // Campaign shape: outer par_iter over "scenarios", inner par_iter
    // over "candidates", with enough items on both levels that an
    // unbounded nest would spawn outer × inner threads.
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);

    let scenarios: Vec<usize> = (0..2 * POOL_THREADS).collect();
    let candidates: Vec<usize> = (0..32).collect();
    let results: Vec<Vec<usize>> = pool().install(|| {
        scenarios
            .par_iter()
            .map(|&scenario| {
                let outer_worker =
                    rayon::current_thread_index().expect("outer items run on pool workers");
                candidates
                    .par_iter()
                    .map(|&candidate| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        // Run-inline policy: the nested item stays on the
                        // worker that owns the outer item.
                        assert_eq!(
                            rayon::current_thread_index(),
                            Some(outer_worker),
                            "nested par_iter escaped its worker"
                        );
                        live.fetch_sub(1, Ordering::SeqCst);
                        scenario * 32 + candidate
                    })
                    .collect()
            })
            .collect()
    });

    // No oversubscription: at most one in-flight item per pool worker.
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak <= POOL_THREADS,
        "{peak} concurrent nested items exceeds the {POOL_THREADS}-thread cap"
    );

    // And the nest still computes the right thing, in order.
    let flat: Vec<usize> = results.into_iter().flatten().collect();
    assert_eq!(flat, (0..2 * POOL_THREADS * 32).collect::<Vec<_>>());
}

#[test]
fn real_weight_search_nest_completes_and_matches_sequential() {
    // End-to-end: weight_stats par-iterates scenarios, and each
    // scenario's optimal_weights_with_steps par-iterates candidate
    // weights on its worker. Completion proves no deadlock; equality
    // against the 1-thread run proves the nest changes nothing.
    let run = || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 2, 2);
        format!(
            "{:?}",
            weight_stats(Heuristic::Slrh1, GridCase::A, &set, 0.25, 0.25)
        )
    };
    let nested = pool().install(run);
    let sequential = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(run);
    assert_eq!(nested, sequential);
}
