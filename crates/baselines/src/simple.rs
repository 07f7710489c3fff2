//! Classic list-scheduling baselines: OLB, Min-Min.
//!
//! These are the standard comparators of the heterogeneous-computing
//! mapping literature (Ibarra & Kim [IbK77] and descendants), next to the
//! greedy (MCT) of [`crate::greedy`]. They are not in the paper's study
//! but provide context for where the SLRH and Max-Max land; all use
//! primary versions when the battery allows, falling back to the
//! secondary, and all schedule with hole insertion.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::plan::{MappingPlan, Placement};
use gridsim::state::{SimState, StateBuffers};

use crate::outcome::StaticOutcome;

/// Pick the best-fitting version of `t` on `j`: primary when it fits,
/// secondary when only it fits, `None` otherwise. The one version rule
/// of every primary-else-secondary baseline (greedy (MCT), HEFT, DBC,
/// OLB, Min-Min).
pub(crate) fn feasible_version(state: &SimState<'_>, t: TaskId, j: MachineId) -> Option<Version> {
    if state.version_feasible(t, Version::Primary, j) {
        Some(Version::Primary)
    } else if state.version_feasible(t, Version::Secondary, j) {
        Some(Version::Secondary)
    } else {
        None
    }
}

/// Opportunistic Load Balancing: ready tasks in id order, each to the
/// machine that becomes *available* earliest, ignoring execution times.
pub fn run_olb(scenario: &Scenario) -> StaticOutcome<'_> {
    run_olb_in(scenario, &mut StateBuffers::default())
}

/// [`run_olb`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
#[allow(clippy::while_let_loop)] // the loop also breaks on placement failure
pub fn run_olb_in<'a>(scenario: &'a Scenario, buffers: &mut StateBuffers) -> StaticOutcome<'a> {
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut evaluated = 0u64;

    loop {
        let Some(&t) = state.ready_tasks().iter().min() else {
            break;
        };
        // Machine with the earliest availability among feasible ones.
        let mut choice: Option<(Time, MachineId, Version)> = None;
        for j in scenario.grid.ids() {
            let Some(v) = feasible_version(&state, t, j) else {
                continue;
            };
            evaluated += 1;
            let ready = state.compute_ready(j);
            let better = match choice {
                None => true,
                Some((br, bj, _)) => ready < br || (ready == br && j < bj),
            };
            if better {
                choice = Some((ready, j, v));
            }
        }
        match choice {
            Some((_, j, v)) => {
                let plan = state.plan(t, v, j, Placement::Insert);
                state.commit(&plan);
            }
            None => break,
        }
    }

    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

/// Min-Min: among all ready tasks, the one whose best-machine completion
/// time is smallest is mapped first — small tasks seed the schedule.
pub fn run_minmin(scenario: &Scenario) -> StaticOutcome<'_> {
    run_minmin_in(scenario, &mut StateBuffers::default())
}

/// [`run_minmin`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
pub fn run_minmin_in<'a>(scenario: &'a Scenario, buffers: &mut StateBuffers) -> StaticOutcome<'a> {
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut evaluated = 0u64;

    loop {
        let mut best: Option<(Time, MappingPlan)> = None;
        for &t in state.ready_tasks() {
            for j in scenario.grid.ids() {
                let Some(v) = feasible_version(&state, t, j) else {
                    continue;
                };
                let plan = state.plan(t, v, j, Placement::Insert);
                evaluated += 1;
                let finish = plan.finish();
                let better = match &best {
                    None => true,
                    Some((bf, bp)) => {
                        finish < *bf
                            || (finish == *bf && (plan.task, plan.machine) < (bp.task, bp.machine))
                    }
                };
                if better {
                    best = Some((finish, plan));
                }
            }
        }
        match best {
            Some((_, plan)) => {
                state.commit(&plan);
            }
            None => break,
        }
    }

    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 2, 2)
    }

    #[test]
    fn olb_and_minmin_produce_valid_full_mappings() {
        let sc = scenario(48);
        for (name, out) in [("olb", run_olb(&sc)), ("minmin", run_minmin(&sc))] {
            assert!(out.metrics().fully_mapped(), "{name} left tasks unmapped");
            let errs = validate(&out.state);
            assert!(errs.is_empty(), "{name}: {errs:?}");
        }
    }

    #[test]
    fn minmin_never_finishes_later_than_olb() {
        // Min-Min considers execution times; OLB does not. On ETC matrices
        // with 10x machine disparity Min-Min should not lose on makespan.
        let sc = scenario(64);
        let mm = run_minmin(&sc).metrics();
        let olb = run_olb(&sc).metrics();
        assert!(
            mm.aet <= olb.aet,
            "Min-Min AET {} vs OLB AET {}",
            mm.aet,
            olb.aet
        );
    }

    #[test]
    fn deterministic() {
        let sc = scenario(32);
        assert_eq!(run_olb(&sc).metrics(), run_olb(&sc).metrics());
        assert_eq!(run_minmin(&sc).metrics(), run_minmin(&sc).metrics());
    }
}
