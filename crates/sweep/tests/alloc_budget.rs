//! Allocation budget for run-context reuse (feature `alloc-counter`).
//!
//! The point of [`slrh::RunContext`] is that consecutive heuristic runs
//! recycle one allocation footprint. These tests pin that claim with a
//! counting global allocator: after a warm-up evaluation, ten further
//! weight evaluations through the same context must allocate strictly
//! less than ten fresh-context evaluations (the whole per-run setup is
//! recycled) and stay under a pinned absolute budget, as must ten warm
//! Max-Max evaluations (per evaluation, not per commit); the map loop of a
//! warm paper-scale run must allocate next to nothing at all, and a warm
//! churn run next to nothing per unmapped subtask; a warm scale-path
//! run allocates nothing; and generating a paper-scale scenario
//! allocates per table, not per task.
//!
//! Gated behind the `alloc-counter` cargo feature because installing a
//! process-global allocator wrapper should not ride along with ordinary
//! test runs:
//!
//! ```text
//! cargo test --release -p grid-sweep --features alloc-counter --test alloc_budget
//! ```
//!
//! `--release`, because the absolute budgets describe the program that
//! ships: a debug build audits the energy ledger after every commit and
//! inside every settlement (`debug_assert!(check_invariants())`, one
//! scratch vector per audit — some 2 900 on a paper-scale run), so
//! there only the fresh-versus-reused differential is asserted.
//!
//! Every measured run is sequential, so each test counts only what its
//! own thread allocates: the tests run concurrently, and the harness
//! allocates on a thread of its own whenever a test finishes.
#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adhoc_grid::config::GridCase;
use adhoc_grid::scale::ScaleParams;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_sweep::{optimal_weights_with_steps_in, Heuristic};
use lagrange::weights::Weights;
use slrh::{run_slrh_with, Adaptation, Churn, RunContext, SlrhConfig, SlrhVariant};

/// Counts every `alloc`/`realloc` the measuring thread makes inside a
/// [`count_allocs`] window, while delegating to [`System`].
struct CountingAlloc;

thread_local! {
    /// Set by [`count_allocs`] for the length of its window.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    /// What this thread allocated while `MEASURING` was set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: pure delegation to `System`; the counter increment has no
// allocation-relevant side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether the absolute budgets apply (see the module docs).
const PINNED: bool = !cfg!(debug_assertions);

/// Allocations the calling thread performed while running `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn reused_context_stays_within_allocation_budget() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0);
    let weights: Vec<Weights> = (0..10)
        .map(|i| Weights::new(0.05 * i as f64, 0.4).expect("simplex"))
        .collect();

    let mut ctx = RunContext::new();
    // Warm-up: the first run through a fresh context pays for every
    // buffer; steady state starts at the second run.
    let _ = Heuristic::Slrh1.run_in(&sc, weights[0], &mut ctx);

    let reused = count_allocs(|| {
        for &w in &weights {
            let r = Heuristic::Slrh1.run_in(&sc, w, &mut ctx);
            assert!(r.valid);
        }
    });

    let fresh = count_allocs(|| {
        for &w in &weights {
            let r = Heuristic::Slrh1.run(&sc, w);
            assert!(r.valid);
        }
    });

    // Differential: the per-run setup (state vectors, schedule and
    // timeline storage, ledger, the frontier's tables) is what the
    // context amortises. Ten runs of setup cost some 1 400 allocations
    // — require reuse to recover a conservative floor of them, and to
    // never lose.
    assert!(
        reused < fresh,
        "context reuse allocated more than fresh contexts: {reused} vs {fresh}"
    );
    assert!(
        fresh - reused >= 300,
        "context reuse recovered too little setup churn: {reused} reused vs {fresh} fresh"
    );

    // Absolute pin. Measured 300: what is left is per evaluation, not
    // per candidate, commit or tick — validation's working set and the
    // result record, some 30 allocations each. (It was 3 566 while every
    // candidate was planned twice on fresh vectors and every commit and
    // swept tick allocated, and 323 while the validator indexed
    // transfers in a hash map; the margin is below the latter, so the
    // map coming back trips it.)
    const BUDGET: u64 = 320;
    assert!(
        !PINNED || reused <= BUDGET,
        "10 reused-context evaluations allocated {reused} times (budget {BUDGET})"
    );
}

/// Max-Max, the Figures 3–7 baseline, warm: the same ten 32-subtask
/// evaluations through one context. A commit judges only the triplets
/// whose objective bound reaches the incumbent, re-costs only the (task,
/// machine) pairs whose timelines it changed, completes them per version
/// without building a plan, and plans the winner alone on recycled
/// storage; what is left is per evaluation — the run's guard tables,
/// machine orders and kept costings, validation and the result record.
#[test]
fn warm_maxmax_evaluations_allocate_per_evaluation() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0);
    let weights: Vec<Weights> = (0..10)
        .map(|i| Weights::new(0.05 * i as f64, 0.4).expect("simplex"))
        .collect();
    let mut ctx = RunContext::new();
    let _ = Heuristic::MaxMax.run_in(&sc, weights[0], &mut ctx);
    let allocs = count_allocs(|| {
        for &w in &weights {
            let r = Heuristic::MaxMax.run_in(&sc, w, &mut ctx);
            assert!(r.valid);
        }
    });
    // Measured 535, some 54 per evaluation (545 before the guard's
    // per-machine and per-task tables were merged; 23 833 while every
    // commit planned every feasible triplet on fresh vectors). One
    // allocation per commit coming back (320 over the ten) trips it.
    const BUDGET: u64 = 630;
    assert!(
        !PINNED || allocs <= BUDGET,
        "10 warm Max-Max evaluations allocated {allocs} times (budget {BUDGET})"
    );
}

/// A warm weight search, on one rayon thread (how the benchmark's
/// campaigns run): the paper's 0.1 → 0.02 search on a 32-subtask
/// scenario, through the caller's context, for SLRH-1 and Max-Max. Both
/// batches run as one chunk on the caller's warm context, a run that can
/// no longer reach the incumbent is cut and never validated, and a
/// finished run is validated only when its metrics already score.
///
/// Measured 79 for SLRH-1 (its warm runs allocate nothing; what is left
/// is the search's grids, memo and batches, the scenario's tables built
/// once, and the few runs validated), 1 527 for Max-Max (its per-run
/// kept costings; 2 775 while every run built its own guard tables and
/// machine orders, 2 901 before the guard's tables were merged). Each of
/// these coming back trips a budget: validating every finished run
/// (SLRH-1 1 100), a cold context per batch (SLRH-1 330, Max-Max 128
/// more), running every run to the end at floor 0 (Max-Max 5 166),
/// building the statics per run again (Max-Max 2 775).
#[test]
fn warm_weight_search_validates_only_runs_that_can_score() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    for (h, budget) in [(Heuristic::Slrh1, 96u64), (Heuristic::MaxMax, 1_600)] {
        let mut ctx = RunContext::new();
        let search = |ctx: &mut RunContext| {
            one.install(|| optimal_weights_with_steps_in(h, &sc, 0.1, 0.02, ctx))
                .map(|o| (o.weights, o.t100, o.evaluations))
        };
        let cold = search(&mut ctx);
        let mut warm = None;
        let allocs = count_allocs(|| warm = search(&mut ctx));
        assert!(cold.is_some() && warm == cold, "{h}");
        assert!(
            !PINNED || allocs <= budget,
            "a warm {h} weight search allocated {allocs} times (budget {budget})"
        );
    }
}

/// The map loop itself, at paper scale: one warm 1 024-subtask Case A
/// SLRH-1 run (`lrh-grid run --case A --tasks 1024 --etc 3 --dag 7
/// --seed 0x1234 --alpha 0.5 --beta 0.25`), counted from
/// `run_slrh_with`'s entry to its return. The loop costs some 1 850
/// candidates, commits ~970 plans and sweeps ~6 100 ticks; on a warm
/// context none of that allocates — plans and deltas are built on
/// recycled storage. Nor
/// does the same run under `--adapt-every 10` (`paper_churn`'s adaptive
/// third): an adaptation step works on the stack.
#[test]
fn warm_paper_scale_map_loop_allocates_next_to_nothing() {
    let params = ScenarioParams::paper_scaled(1024).with_seed(0x1234);
    let sc = Scenario::generate(&params, GridCase::A, 3, 7);
    let fixed = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).expect("simplex"));
    let adaptive = fixed.with_adaptation(Adaptation {
        every: 10,
        ..Adaptation::default()
    });
    let frozen = Churn::default();
    for config in [fixed, adaptive] {
        let mut ctx = RunContext::new();
        let run = |ctx: &mut RunContext| {
            let outcome = run_slrh_with(&sc, &config, &frozen, ctx, None);
            let stats = outcome.stats;
            ctx.reclaim(outcome.state);
            stats
        };
        let cold = run(&mut ctx);
        let mut warm = cold;
        let allocs = count_allocs(|| warm = run(&mut ctx));
        assert!(cold.commits > 900 && warm == cold, "{config}");
        assert_eq!(
            warm.weight_updates > 0,
            config.adaptation.is_some(),
            "{config}"
        );
        // Measured 0; 18 614 when this budget was first set, and 2 490
        // more per adaptive run while every adaptation step built a
        // multiplier vector.
        const BUDGET: u64 = 8;
        assert!(
            !PINNED || allocs <= BUDGET,
            "a warm paper-scale run allocated {allocs} times inside the map loop \
             (budget {BUDGET}; {config})"
        );
    }
}

/// The scenario `warm_paper_scale_map_loop_allocates_next_to_nothing`
/// and the churn pin below run.
fn paper_scale_scenario() -> Scenario {
    let params = ScenarioParams::paper_scaled(1024).with_seed(0x1234);
    Scenario::generate(&params, GridCase::A, 3, 7)
}

/// Generating a paper-scale scenario allocates per table, not per task:
/// the data sizes are one vector indexed by edge id (they were one
/// vector per task, 1 009 of the 1 077 allocations this measured
/// before), and the DAG's CSR build a handful.
#[test]
fn paper_scale_scenario_generation_allocates_per_table() {
    let mut sc = None;
    let allocs = count_allocs(|| sc = Some(paper_scale_scenario()));
    assert_eq!(sc.expect("generated").tasks(), 1024);
    // Measured 71.
    const BUDGET: u64 = 100;
    assert!(
        !PINNED || allocs <= BUDGET,
        "generating a paper-scale scenario allocated {allocs} times (budget {BUDGET})"
    );
}

/// The churn path, warm: the same 1 024-subtask SLRH-1 run losing
/// machine 0 at τ/3 and machine 2 at 2τ/3 while machine 1 joins at τ/4
/// (`lrh-grid churn --case A --tasks 1024 --etc 3 --dag 7 --seed 0x1234
/// --alpha 0.5 --beta 0.25 --lose 0@113583 --lose 2@227166 --join
/// 1@85187`), counted from `run_slrh_with`'s entry to its return. Each
/// unmap's delta goes back to the state and the cascade's working set is
/// allocated once per loss, so hundreds of unmaps cost no allocation of
/// their own (it was 2 713, about four per unmap).
#[test]
fn warm_paper_scale_churn_run_allocates_per_loss_not_per_unmap() {
    let sc = paper_scale_scenario();
    let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).expect("simplex"));
    let tau = sc.tau.0;
    let churn = Churn::from_pairs(
        [(0, tau / 3), (2, 2 * tau / 3)],
        [(1, tau / 4)],
        sc.grid.len(),
    )
    .expect("a valid trace");
    let mut ctx = RunContext::new();
    let run = |ctx: &mut RunContext| {
        let outcome = run_slrh_with(&sc, &config, &churn, ctx, None);
        let invalidated: usize = outcome.disruptions.iter().map(|&(_, n)| n).sum();
        let stats = outcome.stats;
        ctx.reclaim(outcome.state);
        (stats, invalidated)
    };
    let cold = run(&mut ctx);
    let mut warm = cold;
    let allocs = count_allocs(|| warm = run(&mut ctx));
    assert_eq!(warm, cold);
    assert!(
        cold.1 > 600,
        "the trace invalidates hundreds of subtasks ({})",
        cold.1
    );
    // Measured 11 for 655 invalidated subtasks: five per loss (the
    // cascade's working set) and the disruption list.
    const BUDGET: u64 = 16;
    assert!(
        !PINNED || allocs <= BUDGET,
        "a warm paper-scale churn run allocated {allocs} times for {} unmapped subtasks \
         (budget {BUDGET})",
        cold.1
    );
}

/// The scale path, warm: a 4 096-subtask, 32-machine SLRH-1 run
/// (`ScaleParams::new(4096, 32)` under the 16 384 × 64 benchmark's
/// weights), twice on one context, the second counted from
/// `run_slrh_with`'s entry to its return. Its views hold hundreds of
/// entries, so this is where the frontier's cached orders would
/// allocate if an update kept storage of its own instead of the
/// context's.
#[test]
fn warm_scale_run_allocates_next_to_nothing() {
    let sc = ScaleParams::new(4096, 32).generate(0, 0);
    let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).expect("simplex"));
    let frozen = Churn::default();
    let mut ctx = RunContext::new();
    let run = |ctx: &mut RunContext| {
        let outcome = run_slrh_with(&sc, &config, &frozen, ctx, None);
        let stats = outcome.stats;
        ctx.reclaim(outcome.state);
        stats
    };
    let cold = run(&mut ctx);
    let mut warm = cold;
    let allocs = count_allocs(|| warm = run(&mut ctx));
    assert!(cold.commits == 4096 && warm == cold);
    // Measured 0, before and after the cached orders were repaired by
    // merging instead of re-sorting.
    const BUDGET: u64 = 0;
    assert!(
        !PINNED || allocs <= BUDGET,
        "a warm 4096x32 run allocated {allocs} times inside the map loop (budget {BUDGET})"
    );
}
