//! Shrinking: reduce a failing case to a minimal reproducer.
//!
//! Classic greedy delta-debugging to a fixpoint. Candidate reductions,
//! in order of how much they simplify the reproducer:
//!
//! 0. drop the open-system block outright, then one open job at a time
//!    (keeping at least one), then neutralize its background model —
//!    most failures a closed-system arm can reproduce shed the whole
//!    stream in one step;
//! 1. drop one churn event (losses first, then arrivals);
//! 2. walk the task count down a ladder — the workload generator derives
//!    the DAG from `|T|`, so shrinking the task count prunes DAG
//!    suffixes while keeping the case on the same seed streams;
//! 3. tighten the deadline to ¾ (smaller runs, earlier stopping).
//!
//! A candidate is accepted when the case *still fails* (any oracle — the
//! canonical "interesting" predicate). Every accepted candidate restarts
//! the scan, and the whole search is bounded by an evaluation budget so
//! a pathological case cannot stall the campaign.

use slrh::RunContext;

use crate::runner::run_seed;
use crate::spec::CaseSpec;

/// Task-count ladder the shrinker walks down (never below the floor the
/// generator uses, so shrunk cases stay inside the generated envelope).
const TASK_LADDER: [usize; 6] = [28, 24, 20, 16, 12, 8];

/// Shrink `spec` (which must currently fail) to a smaller failing case,
/// evaluating at most `budget` candidate cases.
///
/// Returns the smallest failing spec found; if no reduction reproduces
/// the failure the original spec comes back unchanged.
pub fn shrink(spec: &CaseSpec, budget: usize) -> CaseSpec {
    let mut ctx = RunContext::new();
    let mut best = spec.clone();
    let mut evals = 0usize;

    let mut still_fails = |candidate: &CaseSpec, evals: &mut usize| -> bool {
        if candidate.check().is_err() {
            return false;
        }
        *evals += 1;
        !run_seed(candidate, &mut ctx).passed()
    };

    'outer: loop {
        if evals >= budget {
            break;
        }

        // 0. Drop the open block outright.
        if best.open.is_some() {
            let mut candidate = best.clone();
            candidate.open = None;
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // 0b. Drop one open job (keeping at least one — an empty trace
        // fails the precondition check and would be rejected anyway).
        let n_open_jobs = best.open.as_ref().map_or(0, |o| o.jobs.len());
        if n_open_jobs > 1 {
            for i in 0..n_open_jobs {
                let mut candidate = best.clone();
                candidate.open.as_mut().unwrap().jobs.remove(i);
                if evals >= budget {
                    break 'outer;
                }
                if still_fails(&candidate, &mut evals) {
                    best = candidate;
                    continue 'outer;
                }
            }
        }

        // 0c. Neutralize the background model.
        if best.open.as_ref().is_some_and(|o| !o.bg.is_none()) {
            let mut candidate = best.clone();
            candidate.open.as_mut().unwrap().bg = adhoc_grid::arrival::BackgroundParams::none();
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // 1. Drop one loss.
        for i in 0..best.losses.len() {
            let mut candidate = best.clone();
            candidate.losses.remove(i);
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // 1b. Drop one arrival.
        for i in 0..best.arrivals.len() {
            let mut candidate = best.clone();
            candidate.arrivals.remove(i);
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // 2. Prune the DAG by stepping the task count down the ladder.
        for &tasks in TASK_LADDER.iter().filter(|&&t| t < best.tasks) {
            let mut candidate = best.clone();
            candidate.tasks = tasks;
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // 3. Tighten the deadline.
        let tighter = (best.tau / 4) * 3;
        if tighter >= best.dt && tighter < best.tau {
            let mut candidate = best.clone();
            candidate.tau = tighter;
            if evals >= budget {
                break 'outer;
            }
            if still_fails(&candidate, &mut evals) {
                best = candidate;
                continue 'outer;
            }
        }

        // Fixpoint: no candidate reproduced the failure.
        break;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    /// The shrinker must leave a *passing* case untouched (nothing
    /// "still fails", so every candidate is rejected and the fixpoint is
    /// the input itself).
    #[test]
    fn passing_case_survives_unchanged() {
        let spec = generate(5);
        let mut ctx = RunContext::new();
        assert!(run_seed(&spec, &mut ctx).passed(), "seed 5 must be green");
        assert_eq!(shrink(&spec, 50), spec);
    }

    /// A case that fails its precondition check never runs and never
    /// shrinks onto an invalid candidate.
    #[test]
    fn shrinking_respects_spec_preconditions() {
        let mut spec = generate(6);
        // Force an arrive-after-loss inconsistency: check() rejects it,
        // so the shrinker must reject every candidate too and return the
        // input unchanged without panicking.
        spec.losses = vec![crate::spec::ChurnEvent { machine: 0, at: 5 }];
        spec.arrivals = vec![crate::spec::ChurnEvent { machine: 0, at: 9 }];
        assert!(spec.check().is_err());
        let out = shrink(&spec, 20);
        assert_eq!(out.losses.len() + out.arrivals.len(), 2);
    }
}
