//! The per-triplet Max-Max scan, kept as the test oracle of the product
//! scan ([`super::run_maxmax`]): on every commit it plans every feasible
//! (task, version, machine) triplet from scratch with
//! [`SimState::plan`] and scores the plan with
//! [`slrh::pool::plan_objective`]. Nothing is carried from one commit
//! to the next and nothing is skipped on a bound, so it is the definition
//! the product's bound-ordered scan over kept costings must replay: the
//! same assignments, transfers and metrics bit for bit. Its
//! `candidates_evaluated` counts every triplet that passes the downgrade
//! guard, so it is at least the product's, which counts only the
//! triplets its bounds let it judge.

use adhoc_grid::task::Version;
use adhoc_grid::workload::Scenario;
use gridsim::plan::{MappingPlan, Placement};
use gridsim::state::SimState;
use lagrange::weights::Objective;
use slrh::pool::plan_objective;

use super::DowngradeGuard;
use crate::outcome::StaticOutcome;

/// Run Max-Max to completion on `scenario` through the per-triplet scan.
pub fn run<'a>(scenario: &'a Scenario, objective: &Objective) -> StaticOutcome<'a> {
    let mut state = SimState::new(scenario);
    let mut evaluated = 0u64;
    let guard = DowngradeGuard::new(scenario);
    let mut headroom = Vec::new();
    let mut unmapped = scenario.tasks();
    while let Some(plan) = find_best_triplet(
        &state,
        objective,
        &guard,
        &mut headroom,
        unmapped,
        &mut evaluated,
    ) {
        unmapped -= 1;
        state.commit(&plan);
    }
    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

/// The best feasible (task, version, machine) plan by objective value, or
/// `None` when no feasible pair remains. Triplets finishing after their
/// deadline are not mappable; equal objectives break toward the earliest
/// finish, then the lower task id, primary version, and lower machine id
/// — fully deterministic.
fn find_best_triplet(
    state: &SimState<'_>,
    objective: &Objective,
    guard: &DowngradeGuard,
    headroom: &mut Vec<(f64, f64, f64)>,
    unmapped: usize,
    evaluated: &mut u64,
) -> Option<MappingPlan> {
    let sc = state.scenario();
    let mut best: Option<(f64, MappingPlan)> = None;
    guard.headroom(state, headroom);

    for &t in state.ready_tasks() {
        let deadline = guard.deadline[t.0];
        for j in sc.grid.ids() {
            for v in Version::BOTH {
                if !state.version_feasible(t, v, j) {
                    continue;
                }
                let cost = state.feasibility_demand(t, v, j);
                let exec_secs = sc.etc.exec_dur(t, j, v).as_seconds();
                if guard.capacity_after(headroom, j, cost, exec_secs) < (unmapped - 1) as f64 {
                    continue;
                }
                let plan = state.plan(t, v, j, Placement::Insert);
                *evaluated += 1;
                if plan.finish() > deadline {
                    continue;
                }
                let obj = plan_objective(state, objective, &plan);
                let better = match &best {
                    None => true,
                    Some((b, bp)) => {
                        obj > *b
                            || (obj == *b
                                && (
                                    plan.finish(),
                                    plan.task,
                                    !plan.version.is_primary(),
                                    plan.machine,
                                ) < (bp.finish(), bp.task, !bp.version.is_primary(), bp.machine))
                    }
                };
                if better {
                    best = Some((obj, plan));
                }
            }
        }
    }
    best.map(|(_, p)| p)
}
