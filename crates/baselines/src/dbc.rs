//! Deadline-and-budget-constrained (DBC) list heuristics, after Buyya,
//! Abramson & Giddy's Nimrod/G economy scheduler.
//!
//! The grid-economy literature prices machine time instead of energy:
//! every second a machine computes or transmits for a job is billed at
//! the machine's [`adhoc_grid::machine::MachineSpec::price_rate`]. The
//! two classic scheduling modes trade the deadline against the budget:
//!
//! * **cost optimization** ([`DbcMode::Cost`]) — complete within the
//!   deadline as *cheaply* as possible: each subtask goes to the
//!   cheapest feasible placement that still finishes by τ, falling back
//!   to the earliest finish when no placement meets τ;
//! * **time optimization** ([`DbcMode::Time`]) — complete as *fast* as
//!   the budget allows: each subtask goes to the earliest-finishing
//!   feasible placement, breaking ties toward the cheaper machine.
//!
//! Both walk the ready set lowest-id first like [`crate::greedy`], use
//! the same primary-else-secondary energy fallback, and drive the same
//! [`gridsim::SimState`], so the validator and every schedule oracle
//! apply unchanged. A placement's price is its *marginal* cost — the
//! execution seconds on the target plus the transfer seconds its
//! senders pay — so the sum over commits equals
//! [`gridsim::cost::schedule_cost`] up to float summation order.

use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::plan::{MappingPlan, Placement};
use gridsim::state::{SimState, StateBuffers};

use crate::greedy::feasible_version;
use crate::outcome::StaticOutcome;

/// Which constraint a DBC run optimizes against (the other is spent).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum DbcMode {
    /// Cheapest placement meeting the deadline (cost optimization).
    Cost,
    /// Fastest placement, cheaper machine on ties (time optimization).
    Time,
}

/// Marginal grid-dollars of one placement: execution seconds billed at
/// the target's rate plus each planned transfer's seconds billed at its
/// sender's rate — the increment [`gridsim::cost::schedule_cost`]
/// observes once the plan commits (equal up to float summation order).
pub fn plan_cost(sc: &Scenario, plan: &MappingPlan) -> f64 {
    let mut cost = sc.grid.machine(plan.machine).price_rate() * plan.exec_dur.as_seconds();
    for tr in &plan.transfers {
        cost += sc.grid.machine(tr.from).price_rate() * tr.dur.as_seconds();
    }
    cost
}

/// Run a DBC heuristic. See the module docs for the two modes.
pub fn run_dbc(scenario: &Scenario, mode: DbcMode) -> StaticOutcome<'_> {
    run_dbc_in(scenario, mode, &mut StateBuffers::default())
}

/// [`run_dbc`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
pub fn run_dbc_in<'a>(
    scenario: &'a Scenario,
    mode: DbcMode,
    buffers: &mut StateBuffers,
) -> StaticOutcome<'a> {
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut evaluated = 0u64;
    let tau = scenario.tau;

    while let Some(t) = state.ready_tasks().iter().min().copied() {
        // (meets deadline, cost, finish, plan) per feasible machine.
        let mut best: Option<(bool, f64, Time, MappingPlan)> = None;
        for j in scenario.grid.ids() {
            let Some(v) = feasible_version(&state, t, j) else {
                continue;
            };
            let plan = state.plan(t, v, j, Placement::Insert);
            evaluated += 1;
            let finish = plan.finish();
            let cost = plan_cost(scenario, &plan);
            let in_time = finish <= tau;
            let better = match &best {
                None => true,
                Some((bin, bcost, bfin, bplan)) => match mode {
                    // Deadline first, then price, then finish, then the
                    // lowest machine id so ties are deterministic.
                    DbcMode::Cost => {
                        (in_time, cost, finish, plan.machine) < (*bin, *bcost, *bfin, bplan.machine)
                    }
                    // Finish first, then price, then machine id. A
                    // placement past the deadline still loses to any
                    // in-time one, mirroring Cost mode's fallback.
                    DbcMode::Time => {
                        (!in_time, finish, cost, plan.machine)
                            < (!*bin, *bfin, *bcost, bplan.machine)
                    }
                },
            };
            if better {
                best = Some((in_time, cost, finish, plan));
            }
        }
        match best {
            Some((_, _, _, plan)) => {
                state.commit(&plan);
            }
            None => break, // energy-infeasible everywhere: leave unmapped
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
    use adhoc_grid::task::Version;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::cost::schedule_cost;
    use gridsim::validate::validate;

    fn scenario(tasks: usize, etc: usize, dag: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, etc, dag)
    }

    #[test]
    fn both_modes_map_everything_and_validate() {
        let sc = scenario(64, 0, 0);
        for mode in [DbcMode::Cost, DbcMode::Time] {
            let out = run_dbc(&sc, mode);
            assert!(out.metrics().fully_mapped(), "{mode:?}");
            assert!(validate(&out.state).is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn cost_mode_is_cheaper_given_deadline_slack() {
        // Per-subtask choices are myopic, so global dominance only
        // emerges when the deadline leaves room to choose the cheap
        // machines at all. With 100x slack, cost mode should undercut
        // time mode decisively.
        for (etc, dag) in [(0, 0), (1, 1), (2, 2)] {
            let mut params = ScenarioParams::paper_scaled(48);
            params.tau = Time(params.tau.0 * 100);
            let sc = Scenario::generate(&params, GridCase::A, etc, dag);
            let cheap = run_dbc(&sc, DbcMode::Cost);
            let fast = run_dbc(&sc, DbcMode::Time);
            assert!(cheap.metrics().fully_mapped() && fast.metrics().fully_mapped());
            let c = schedule_cost(&sc, cheap.state.schedule());
            let f = schedule_cost(&sc, fast.state.schedule());
            assert!(
                c < f,
                "cost mode paid {c} >= time mode's {f} on etc{etc}/dag{dag}"
            );
        }
    }

    #[test]
    fn time_mode_is_never_slower_than_cost_mode() {
        for (etc, dag) in [(0, 0), (1, 1)] {
            let sc = scenario(48, etc, dag);
            let cheap = run_dbc(&sc, DbcMode::Cost);
            let fast = run_dbc(&sc, DbcMode::Time);
            assert!(cheap.metrics().fully_mapped() && fast.metrics().fully_mapped());
            assert!(
                fast.metrics().aet <= cheap.metrics().aet,
                "time mode finished at {} after cost mode's {} on etc{etc}/dag{dag}",
                fast.metrics().aet,
                cheap.metrics().aet
            );
        }
    }

    #[test]
    fn cost_mode_prefers_the_cheap_machines_under_slack() {
        // With the deadline far away, cost mode should send work to the
        // 1 G$/s slow machines that time mode avoids.
        let mut params = ScenarioParams::paper_scaled(24);
        params.tau = Time(params.tau.0 * 100);
        let sc = Scenario::generate(&params, GridCase::A, 0, 0);
        let cheap = run_dbc(&sc, DbcMode::Cost);
        assert!(cheap.metrics().fully_mapped());
        let slow_work = cheap
            .state
            .schedule()
            .assignments()
            .filter(|a| sc.grid.machine(a.machine).price_rate() == 1.0)
            .count();
        assert!(slow_work > 0, "cost mode never used a slow machine");
    }

    #[test]
    fn plan_cost_sums_to_schedule_cost() {
        let sc = scenario(32, 3, 3);
        let mut state = SimState::new(&sc);
        let mut total = 0.0;
        while let Some(&t) = state.ready_tasks().iter().min() {
            let Some(j) = sc
                .grid
                .ids()
                .find(|&j| state.version_feasible(t, Version::Primary, j))
            else {
                break;
            };
            let plan = state.plan(t, Version::Primary, j, Placement::Insert);
            total += plan_cost(&sc, &plan);
            state.commit(&plan);
        }
        assert!(total > 0.0);
        // Same terms, different summation order (per-plan interleaved vs
        // assignments-then-transfers) — equal up to rounding.
        let whole = schedule_cost(&sc, state.schedule());
        assert!(
            (total - whole).abs() <= 1e-9 * whole.abs(),
            "{total} vs {whole}"
        );
    }

    #[test]
    fn buffers_round_trip_identically() {
        let sc = scenario(40, 1, 0);
        let fresh = run_dbc(&sc, DbcMode::Cost);
        let mut buffers = StateBuffers::default();
        let a = run_dbc_in(&sc, DbcMode::Cost, &mut buffers);
        let m = a.metrics();
        drop(a);
        let b = run_dbc_in(&sc, DbcMode::Cost, &mut buffers);
        assert_eq!(m, b.metrics());
        assert_eq!(m, fresh.metrics());
    }
}
