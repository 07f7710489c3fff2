//! Differential determinism: every sweep report must be **byte-identical**
//! under 1 thread and under N threads.
//!
//! This is the canary for the parallel executor: if chunked folding ever
//! reorders items, or if any sweep code grows a hidden dependence on
//! sequential execution, one of these comparisons breaks. Thread counts
//! are forced in-process with
//! `rayon::ThreadPoolBuilder::install`, so a single `cargo test` run
//! exercises both sides regardless of `RAYON_NUM_THREADS` (CI
//! additionally runs the whole suite under a `RAYON_NUM_THREADS={1,4}`
//! matrix to cover the env-var path).
//!
//! Wall-clock-derived fields (`mean_wall`, `mean_t100_per_second`) are
//! excluded via `canonical_report` — they vary between *any* two runs,
//! threaded or not. Everything else must match to the byte.

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{ScenarioParams, ScenarioSet};
use grid_sweep::weight_search::{optimal_weights_with_steps, weight_stats};
use grid_sweep::{canonical_report, run_campaign, CampaignConfig, Heuristic};
use rayon::ThreadPool;

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Run `f` under 1 thread and under 4, returning both serialized results.
fn differential<F: Fn() -> String>(f: F) -> (String, String) {
    let sequential = pool(1).install(&f);
    let parallel = pool(4).install(&f);
    (sequential, parallel)
}

#[test]
fn campaign_report_is_byte_identical_across_thread_counts() {
    let run = || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 1, 2);
        let cfg = CampaignConfig {
            set,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A, GridCase::C],
            coarse: 0.25,
            fine: 0.25,
        };
        canonical_report(&run_campaign(&cfg))
    };
    let (sequential, parallel) = differential(run);
    assert!(!sequential.is_empty(), "campaign produced no rows");
    assert_eq!(
        sequential, parallel,
        "campaign canonical report differs between 1 and 4 threads"
    );
}

#[test]
fn weight_search_is_byte_identical_across_thread_counts() {
    // Per-scenario two-stage searches: the full outcome (weights, T100,
    // evaluation count) is deterministic, so `{:?}` is byte-comparable.
    let run = || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 2, 2);
        let mut out = String::new();
        for case in [GridCase::A, GridCase::B] {
            for (e, d) in set.ids() {
                let sc = set.scenario(case, e, d);
                let found = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.25, 0.25);
                out.push_str(&format!("{case} {e} {d}: {found:?}\n"));
            }
        }
        out
    };
    let (sequential, parallel) = differential(run);
    assert_eq!(
        sequential, parallel,
        "optimal_weights_with_steps differs between 1 and 4 threads"
    );
}

#[test]
fn weight_stats_are_byte_identical_across_thread_counts() {
    // The Figure 3 suite-level statistics go through the other parallel
    // entry point (`par_iter` + `map_init` + `collect`).
    let run = || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 2, 2);
        let stats = weight_stats(Heuristic::MaxMax, GridCase::A, &set, 0.25, 0.25);
        format!("{stats:?}")
    };
    let (sequential, parallel) = differential(run);
    assert_eq!(
        sequential, parallel,
        "weight_stats differs between 1 and 4 threads"
    );
}

#[test]
fn campaign_rejects_invocation_from_a_worker() {
    // The timing-pass contract: run_campaign asserts it is not inside a
    // parallel worker (its Figure 6/7 wall-clock pass needs an
    // uncontended thread).
    use rayon::prelude::*;
    let result = std::panic::catch_unwind(|| {
        let units = [0u64; 4];
        pool(2).install(|| {
            units
                .par_iter()
                .map(|_| {
                    let set = ScenarioSet::new(ScenarioParams::paper_scaled(16), 1, 1);
                    let cfg = CampaignConfig {
                        set,
                        heuristics: vec![Heuristic::MaxMax],
                        cases: vec![GridCase::A],
                        coarse: 0.5,
                        fine: 0.5,
                    };
                    run_campaign(&cfg).len()
                })
                .collect::<Vec<usize>>()
        })
    });
    assert!(result.is_err(), "run_campaign inside a worker must panic");
}
