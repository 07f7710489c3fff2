//! The (α, β) optimality search (§VII, Figure 3).
//!
//! The paper's procedure: "independently varying the α and β values across
//! their \[0,1\] range in steps of 0.1 until a general range was found that
//! produced the best T100 performance, subject to the energy and time
//! constraints ... The values were then varied by 0.02 across this smaller
//! range until an optimal performance point was determined." A weight pair
//! only counts if the heuristic "successfully map\[s\] all 1024 subtasks
//! within both the specified energy and time constraints."
//!
//! The two stages overlap: every coarse point inside the winner's ±coarse
//! neighbourhood reappears in the fine grid. The search therefore memoises
//! evaluations per scenario, keyed on the weights snapped to the
//! [`ordered`] 1e-9 lattice, so the fine stage never re-runs a pair the
//! coarse stage already scored. [`WeightSearchOutcome::evaluations`]
//! counts the distinct pairs run.
//!
//! Most runs cannot win, and the search stops them early (branch and
//! bound). On a frozen grid every commit is final, so a run's `T100`
//! never exceeds its current primaries plus its unmapped subtasks
//! (`SimState::t100_ceiling`). Each batch is scored against a running
//! incumbent, raised as scores arrive, one per executor chunk. The coarse
//! batch starts it at 0 and the fine batch at the coarse winner's
//! `T100`, and the coarse winner competes in the fine argmax, so the
//! incumbent never exceeds the batch's winning `T100`. SLRH checks the
//! ceiling once per clock tick and Max-Max once per commit, and a run
//! whose ceiling falls strictly below the incumbent stops: it goes into
//! the memo as not scored, since it could never win. A tie is never
//! cut. Fresh points run α-descending, then β-ascending, so a high
//! incumbent appears early, while [`best_from_memo`] still folds in grid
//! order. A run is validated only when it met both constraints, since
//! validation is the costliest thing a warm run allocates for.
//!
//! Every run of one search maps the same scenario, so what only the
//! scenario decides is built once per search ([`Heuristic`]'s
//! `prepare`): the §IV tables every SLRH and Max-Max state reads, and
//! Max-Max's downgrade guard and machine energy orders. The runs borrow
//! it and recycle only capacity from the context, so each reads the
//! values it would have built itself.
//!
//! The contract: the winning weights, their `T100` and `evaluations` are
//! those of the unpruned search, for any steps and at any thread count
//! (`tests/pruned_search_oracle.rs`). How many runs are cut depends on
//! the chunking, so that number never enters a report, a golden or CLI
//! output. Runs outside the search never stop early: the floor is
//! reachable only through the search-only entry points
//! `slrh::mapper::run_slrh_floored` and
//! `grid_baselines::maxmax::run_maxmax_floored`.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{Scenario, ScenarioSet};
use lagrange::weights::Weights;
use rayon::prelude::*;
use slrh::RunContext;

use crate::heuristic::{Heuristic, Prepared};
use crate::stats::Summary;

/// The outcome of one scenario's weight search.
#[derive(Copy, Clone, Debug)]
pub struct WeightSearchOutcome {
    /// The best constraint-compliant weights found.
    pub weights: Weights,
    /// The `T100` those weights achieve.
    pub t100: usize,
    /// Number of distinct weight pairs the search ran (step-aligned
    /// points shared by the coarse and fine grids count once).
    pub evaluations: usize,
}

/// Retired selector: the two-stage grid search is the only weight
/// searcher. This one-variant enum stays only so callers that spell
/// `SearcherKind::Grid` in a campaign request keep compiling.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SearcherKind {
    /// The Figure 3 two-stage grid search.
    #[default]
    Grid,
}

/// Enumerate the valid simplex grid points with the given step.
///
/// No two returned pairs compare equal under the [`ordered`] key: float
/// snapping could otherwise reconstruct near-duplicate points from a
/// degenerate (tiny or denormal) step, and downstream memoisation keys
/// on that lattice. First occurrence wins, which leaves the output
/// bit-identical for any step coarser than the 1e-9 lattice.
fn grid(step: f64, alpha_range: (f64, f64), beta_range: (f64, f64)) -> Vec<Weights> {
    let snap = |v: f64| (v / step).round() as i64;
    let mut points = Vec::new();
    let mut seen = HashSet::new();
    for ai in snap(alpha_range.0.max(0.0))..=snap(alpha_range.1.min(1.0)) {
        for bi in snap(beta_range.0.max(0.0))..=snap(beta_range.1.min(1.0)) {
            let (a, b) = (ai as f64 * step, bi as f64 * step);
            if let Ok(w) = Weights::new(a, b) {
                if a + b <= 1.0 + 1e-9 && seen.insert(memo_key(&w)) {
                    points.push(w);
                }
            }
        }
    }
    points
}

/// Per-scenario evaluation memo: snapped weight pair → its `T100` when
/// the run scored (mapped every subtask within both constraints and
/// validated), `None` when it failed or was cut. A pair is never run
/// twice.
type EvalMemo = HashMap<(i64, i64), Option<usize>>;

/// The memo key: weights snapped to the 1e-9 [`ordered`] lattice. Coarse
/// and fine reconstructions of the same grid point differ in the last few
/// ulps (3 × 0.1 vs 15 × 0.02) but share this key.
fn memo_key(w: &Weights) -> (i64, i64) {
    (ordered(w.alpha()), ordered(w.beta()))
}

/// Run every candidate the memo has no entry for and record the scores.
/// Returns the number of pairs run.
///
/// `incumbent` is a `T100` the caller already holds (0 for the coarse
/// batch, the coarse winner's for the fine one), so it never exceeds this
/// batch's winning `T100`. Fresh points run α-descending, then
/// β-ascending: the T100-rich end of the simplex first, so a high
/// incumbent appears early. Each executor chunk carries its own
/// incumbent, raised by every score the chunk records, and passes it to
/// [`Heuristic::score_in`] as the floor. Every point cut is strictly
/// below the batch's winning `T100`, so [`best_from_memo`] picks the same
/// winner whatever the chunking; only the number of runs cut depends on
/// it.
///
/// The first chunk to start takes the caller's context, so a batch that
/// runs as one chunk (on a one-thread pool, or inline on a worker when a
/// campaign fans out over scenarios) keeps the caller's buffers warm.
fn eval_fresh(
    heuristic: Heuristic,
    prepared: &Prepared<'_>,
    candidates: &[Weights],
    incumbent: usize,
    memo: &mut EvalMemo,
    ctx: &mut RunContext,
) -> usize {
    let mut fresh: Vec<Weights> = candidates
        .iter()
        .copied()
        .filter(|w| !memo.contains_key(&memo_key(w)))
        .collect();
    fresh.sort_by_key(|w| (Reverse(ordered(w.alpha())), ordered(w.beta())));
    let caller = Mutex::new(Some(ctx));
    let scored: Vec<((i64, i64), Option<usize>)> = fresh
        .par_iter()
        .map_init(
            || {
                let caller = caller.lock().expect("held only to take the context").take();
                (caller, RunContext::new(), incumbent)
            },
            |(caller, own, incumbent), &w| {
                let ctx = caller.as_deref_mut().unwrap_or(own);
                let score = heuristic.score_in(prepared, w, ctx, *incumbent);
                if let Some(t100) = score {
                    *incumbent = (*incumbent).max(t100);
                }
                (memo_key(&w), score)
            },
        )
        .collect();
    memo.extend(scored);
    fresh.len()
}

/// Pick the best compliant candidate from the memo. "Best" = highest
/// `T100`, ties broken toward lower (α, β) for determinism.
///
/// This is the same argmax the search historically computed with a
/// parallel `reduce_with`, now a sequential fold over the candidates in
/// grid order: the comparator is a total order on the [`ordered`]
/// lattice, and a pair listed twice keeps its first copy, so the winner
/// is identical — pinned by the differential tests in
/// `tests/differential_determinism.rs`. On a memo hit the candidate's
/// own float bits are reported, not the bits the score was computed
/// under; the two differ by under 1e-9, within the heuristics'
/// weight-resolution (pinned by `tests/golden_run_context.rs`).
fn best_from_memo<'a>(
    candidates: impl IntoIterator<Item = &'a Weights>,
    memo: &EvalMemo,
) -> Option<(Weights, usize)> {
    let key =
        |(w, t): &(Weights, usize)| (*t, Reverse(ordered(w.alpha())), Reverse(ordered(w.beta())));
    candidates
        .into_iter()
        .filter_map(|&w| Some((w, (*memo.get(&memo_key(&w))?)?)))
        .fold(None, |best: Option<(Weights, usize)>, cand| match best {
            Some(b) if key(&cand) <= key(&b) => Some(b),
            _ => Some(cand),
        })
}

/// Total order for weight tie-breaking (weights are always finite).
fn ordered(v: f64) -> i64 {
    (v * 1e9).round() as i64
}

/// The one rule for a pair of search steps, wherever they come from (a
/// `tune` flag, a campaign frame, a caller): both positive and finite,
/// the fine step no larger than the coarse one. The search functions
/// assert it; anything that takes steps from outside calls it first.
pub fn check_steps(coarse: f64, fine: f64) -> Result<(), String> {
    // Written so NaN steps fail too (the comparisons come out false).
    if coarse > 0.0 && coarse.is_finite() && fine > 0.0 && fine <= coarse {
        Ok(())
    } else {
        Err(format!(
            "search steps must be positive and finite with fine <= coarse \
             (got coarse {coarse}, fine {fine})"
        ))
    }
}

/// Run the two-stage search for one heuristic on one scenario.
///
/// Returns `None` when no weight pair lets the heuristic map every
/// subtask within the constraints (the paper's experience with SLRH-2).
pub fn optimal_weights(heuristic: Heuristic, scenario: &Scenario) -> Option<WeightSearchOutcome> {
    optimal_weights_with_steps(heuristic, scenario, 0.1, 0.02)
}

/// [`optimal_weights`] with explicit coarse/fine steps. The answer is the
/// best of the fine window around the coarse winner and the coarse
/// winner itself, which the window holds whenever the fine step divides
/// the coarse one. A heuristic that ignores the weights
/// ([`Heuristic::uses_weights`]) is run once, at (0, 0): `Some` only
/// when that run met both constraints and validated.
pub fn optimal_weights_with_steps(
    heuristic: Heuristic,
    scenario: &Scenario,
    coarse: f64,
    fine: f64,
) -> Option<WeightSearchOutcome> {
    optimal_weights_with_steps_in(heuristic, scenario, coarse, fine, &mut RunContext::new())
}

/// [`optimal_weights_with_steps`] on a reusable [`RunContext`]: every
/// sequential heuristic run in the search recycles the context's
/// buffers, and callers evaluating many scenarios can carry one context
/// across searches.
pub fn optimal_weights_with_steps_in(
    heuristic: Heuristic,
    scenario: &Scenario,
    coarse: f64,
    fine: f64,
    ctx: &mut RunContext,
) -> Option<WeightSearchOutcome> {
    if let Err(e) = check_steps(coarse, fine) {
        panic!("{e}");
    }
    if !heuristic.uses_weights() {
        // Every pair maps the same schedule: the search is its one run,
        // reported at the grid's first point.
        let weights = Weights::new(0.0, 0.0).expect("the simplex corner");
        let t100 = heuristic.score_in(&heuristic.prepare(scenario), weights, ctx, 0)?;
        return Some(WeightSearchOutcome {
            weights,
            t100,
            evaluations: 1,
        });
    }
    // What only the scenario decides is built once and lent to every run.
    let prepared = heuristic.prepare(scenario);
    let mut memo = EvalMemo::new();
    let coarse_points = grid(coarse, (0.0, 1.0), (0.0, 1.0));
    let mut evaluations = eval_fresh(heuristic, &prepared, &coarse_points, 0, &mut memo, ctx);
    let (cw, cw_t100) = best_from_memo(&coarse_points, &memo)?;

    let fine_points = grid(
        fine,
        (cw.alpha() - coarse, cw.alpha() + coarse),
        (cw.beta() - coarse, cw.beta() + coarse),
    );
    evaluations += eval_fresh(heuristic, &prepared, &fine_points, cw_t100, &mut memo, ctx);
    // The coarse winner folds in last: when the window holds it, the
    // window's copy (its own float bits) comes first and wins the tie.
    let (weights, t100) =
        best_from_memo(fine_points.iter().chain([&cw]), &memo).expect("the coarse winner scored");
    Some(WeightSearchOutcome {
        weights,
        t100,
        evaluations,
    })
}

/// Figure 3 data: summary of the optimal α and β over a scenario suite.
#[derive(Clone, Debug)]
pub struct WeightStats {
    /// Which heuristic.
    pub heuristic: Heuristic,
    /// Which grid case.
    pub case: GridCase,
    /// Summary of optimal α over the feasible scenarios.
    pub alpha: Summary,
    /// Summary of optimal β over the feasible scenarios.
    pub beta: Summary,
    /// Scenarios with at least one compliant weight pair.
    pub feasible: usize,
    /// Total scenarios searched.
    pub total: usize,
}

/// Compute Figure 3 statistics for `heuristic` on `case` over the suite.
/// Returns `None` when no scenario has compliant weights.
pub fn weight_stats(
    heuristic: Heuristic,
    case: GridCase,
    set: &ScenarioSet,
    coarse: f64,
    fine: f64,
) -> Option<WeightStats> {
    let ids: Vec<(usize, usize)> = set.ids().collect();
    let found: Vec<WeightSearchOutcome> = ids
        .par_iter()
        .map_init(RunContext::new, |ctx, &(e, d)| {
            let sc = set.scenario(case, e, d);
            optimal_weights_with_steps_in(heuristic, &sc, coarse, fine, ctx)
        })
        .collect::<Vec<Option<WeightSearchOutcome>>>()
        .into_iter()
        .flatten()
        .collect();
    if found.is_empty() {
        return None;
    }
    let alphas: Vec<f64> = found.iter().map(|o| o.weights.alpha()).collect();
    let betas: Vec<f64> = found.iter().map(|o| o.weights.beta()).collect();
    Some(WeightStats {
        heuristic,
        case,
        alpha: Summary::of(&alphas),
        beta: Summary::of(&betas),
        feasible: found.len(),
        total: ids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::workload::ScenarioParams;

    #[test]
    fn grid_respects_simplex() {
        let g = grid(0.5, (0.0, 1.0), (0.0, 1.0));
        // (0,0) (0,.5) (0,1) (.5,0) (.5,.5) (1,0) = 6 points.
        assert_eq!(g.len(), 6);
        for w in &g {
            assert!(w.alpha() + w.beta() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn grid_clamps_ranges() {
        let g = grid(0.1, (-0.5, 0.1), (0.95, 2.0));
        for w in &g {
            assert!(w.alpha() <= 0.1 + 1e-9);
            assert!(w.beta() >= 1.0 - w.alpha() - 0.1 - 1e-9);
        }
    }

    #[test]
    fn grid_never_repeats_a_point() {
        // A step just above the 1e-9 lattice resolution forces the float
        // reconstruction `index * step` to collide after snapping; the
        // dedup must keep exactly one of each.
        let g = grid(5e-10, (0.0, 2e-9), (0.0, 2e-9));
        let mut seen = HashSet::new();
        for w in &g {
            assert!(
                seen.insert(memo_key(w)),
                "duplicate grid point α={:?} β={:?}",
                w.alpha(),
                w.beta()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// No step/range combination — including steps below the 1e-9
        /// ordered-key lattice, where `index * step` reconstructions
        /// collide after snapping — may make [`grid`] emit two pairs
        /// that compare equal under the memo key.
        #[test]
        fn grid_points_distinct_under_ordered_key(
            step in 1e-10f64..0.25,
            a0 in -0.1f64..1.0,
            an in 0i64..40,
            b0 in -0.1f64..1.0,
            bn in 0i64..40,
        ) {
            let g = grid(
                step,
                (a0, a0 + an as f64 * step),
                (b0, b0 + bn as f64 * step),
            );
            let mut seen = HashSet::new();
            for w in &g {
                proptest::prop_assert!(
                    seen.insert(memo_key(w)),
                    "duplicate grid point α={:?} β={:?} at step {step:?}",
                    w.alpha(),
                    w.beta()
                );
            }
        }
    }

    #[test]
    fn step_rule_accepts_ordered_positive_finite_pairs_only() {
        for (coarse, fine) in [(0.1, 0.02), (0.25, 0.25), (1.0, 1e-3)] {
            assert_eq!(check_steps(coarse, fine), Ok(()), "{coarse}/{fine}");
        }
        for (coarse, fine) in [
            (0.1, 0.2),
            (0.0, 0.0),
            (-0.1, 0.02),
            (0.1, -0.02),
            (0.1, 0.0),
            (f64::INFINITY, 0.1),
            (f64::INFINITY, f64::INFINITY),
            (f64::NAN, 0.1),
            (0.1, f64::NAN),
        ] {
            let err = check_steps(coarse, fine).unwrap_err();
            assert!(err.contains("fine <= coarse"), "{coarse}/{fine}: {err}");
        }
    }

    /// The library keeps the rule as its contract: a caller that skips
    /// [`check_steps`] gets the same sentence as a panic.
    #[test]
    #[should_panic(expected = "fine <= coarse")]
    fn search_panics_on_steps_the_rule_rejects() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let _ = optimal_weights_with_steps(Heuristic::Greedy, &sc, 0.1, 0.2);
    }

    #[test]
    fn fine_stage_skips_coarse_aligned_points() {
        // SLRH-1's coarse winner here is the corner (1, 0), and no fine
        // point beats it. Coarse 0.1 yields the 66-point simplex; the
        // fine ±0.1 window at step 0.02, clipped to α ≤ 1 and α + β ≤ 1,
        // holds the 21 points with α ≥ 0.9 and β ≤ 0.1, of which 3 —
        // (0.9, 0), (1, 0), (0.9, 0.1) — are step-aligned with the coarse
        // grid and must not be re-run.
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
        let out = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.1, 0.02)
            .expect("SLRH-1 has compliant weights");
        assert_eq!(out.weights, Weights::new(1.0, 0.0).unwrap());
        assert_eq!(out.evaluations, 66 + 21 - 3);
    }

    /// A heuristic that ignores the weights is searched by its one run:
    /// `Some` at (0, 0) when that run complies, `None` when it does not.
    #[test]
    fn a_weightless_heuristic_is_searched_by_its_one_run() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
        let out = optimal_weights_with_steps(Heuristic::Greedy, &sc, 0.1, 0.02)
            .expect("the greedy meets both constraints here");
        let run = Heuristic::Greedy.run(&sc, out.weights);
        assert!(run.valid && run.metrics.constraints_met());
        assert_eq!(
            (out.weights, out.t100, out.evaluations),
            (Weights::new(0.0, 0.0).unwrap(), run.metrics.t100, 1)
        );
        assert!(!Heuristic::DbcCost
            .run(&sc, out.weights)
            .metrics
            .constraints_met());
        assert!(optimal_weights_with_steps(Heuristic::DbcCost, &sc, 0.1, 0.02).is_none());
    }

    /// With a fine step that does not divide the coarse one, the fine
    /// window around the coarse winner (0.75, 0.25) holds no point that
    /// scores as high; the coarse winner still competes, so refining
    /// never answers worse than the coarse stage found (`tune --tasks 16
    /// --case C --etc 0 --dag 1 --heuristic maxmax --coarse 0.25 --fine
    /// 0.1`).
    #[test]
    fn the_coarse_winner_competes_in_the_fine_argmax() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::C, 0, 1);
        let coarse = optimal_weights_with_steps(Heuristic::MaxMax, &sc, 0.25, 0.25).unwrap();
        let refined = optimal_weights_with_steps(Heuristic::MaxMax, &sc, 0.25, 0.1).unwrap();
        assert_eq!(
            (coarse.weights, coarse.t100),
            (Weights::new(0.75, 0.25).unwrap(), 10)
        );
        assert_eq!(
            (refined.weights, refined.t100),
            (coarse.weights, coarse.t100)
        );
    }

    #[test]
    fn search_finds_compliant_weights_for_slrh1() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(48), GridCase::A, 0, 0);
        let out = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.25, 0.25)
            .expect("SLRH-1 should have compliant weights");
        assert!(out.t100 > 0);
        assert!(out.evaluations > 0);
        // Verify the reported pair really is compliant.
        let r = Heuristic::Slrh1.run(&sc, out.weights);
        assert!(r.metrics.constraints_met());
        assert_eq!(r.metrics.t100, out.t100);
    }

    #[test]
    fn search_is_deterministic() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 1, 1);
        let a = optimal_weights_with_steps(Heuristic::MaxMax, &sc, 0.25, 0.25).unwrap();
        let b = optimal_weights_with_steps(Heuristic::MaxMax, &sc, 0.25, 0.25).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.t100, b.t100);
    }

    #[test]
    fn reused_context_matches_fresh_context_search() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::B, 2, 0);
        let mut ctx = RunContext::new();
        // Dirty the context on a different scenario first.
        let other = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
        let _ = optimal_weights_with_steps_in(Heuristic::Slrh1, &other, 0.25, 0.25, &mut ctx);
        let reused =
            optimal_weights_with_steps_in(Heuristic::Slrh1, &sc, 0.25, 0.25, &mut ctx).unwrap();
        let fresh = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.25, 0.25).unwrap();
        assert_eq!(reused.weights, fresh.weights);
        assert_eq!(reused.t100, fresh.t100);
        assert_eq!(reused.evaluations, fresh.evaluations);
    }
}
