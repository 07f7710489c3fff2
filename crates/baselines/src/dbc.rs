//! Deadline-and-budget-constrained (DBC) cost optimization, after
//! Buyya, Abramson & Giddy's Nimrod/G economy scheduler.
//!
//! The grid-economy literature prices machine time instead of energy:
//! every second a machine computes or transmits for a job is billed at
//! the machine's [`adhoc_grid::machine::MachineSpec::price_rate`]. Cost
//! optimization completes within the deadline as *cheaply* as possible:
//! each subtask goes to the cheapest feasible placement that still
//! finishes by τ, falling back to the earliest finish when no placement
//! meets τ. (The literature's time optimization, the fastest placement
//! within the budget, is the greedy (MCT) of [`crate::greedy`] with a
//! price tie-break, and is not kept beside it.)
//!
//! DBC-Cost is the [`crate::greedy`] list walk under its own key, so it
//! walks the ready set lowest-id first, uses the same
//! primary-else-secondary energy fallback, and drives the same
//! [`gridsim::SimState`]; the validator and every schedule oracle apply
//! unchanged. A placement's price is its *marginal* cost — the execution
//! seconds on the target plus the transfer seconds its senders pay — so
//! the sum over commits equals [`gridsim::cost::schedule_cost`] up to
//! float summation order.

use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::plan::MappingPlan;
use slrh::RunContext;

use crate::greedy::list_walk;
use crate::outcome::StaticOutcome;

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

/// Run DBC cost optimization. See the module docs.
pub fn run_dbc(scenario: &Scenario) -> StaticOutcome<'_> {
    run_dbc_in(scenario, &mut RunContext::new())
}

/// [`run_dbc`] building its state on `ctx`'s recycled storage; results
/// are identical.
pub fn run_dbc_in<'a>(scenario: &'a Scenario, ctx: &mut RunContext) -> StaticOutcome<'a> {
    let tau = scenario.tau;
    list_walk(scenario, ctx, |plan| {
        let (finish, cost) = (plan.finish(), plan_cost(scenario, plan));
        if finish <= tau {
            Rank::InTime { cost, finish }
        } else {
            Rank::Late { finish, cost }
        }
    })
}

/// DBC-Cost's order on one subtask's placements (least first): every
/// placement that finishes by τ before every late one; in time the
/// cheaper first, then the earlier finish; late the earlier finish
/// first, then the cheaper. The walk keeps the lower machine id on
/// ties.
#[derive(PartialEq, PartialOrd)]
enum Rank {
    InTime { cost: f64, finish: Time },
    Late { finish: Time, cost: f64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::task::Version;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::cost::schedule_cost;
    use gridsim::plan::Placement;
    use gridsim::state::SimState;
    use gridsim::validate::validate;

    use crate::greedy::{feasible_version, run_greedy};

    fn scenario(tasks: usize, etc: usize, dag: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, etc, dag)
    }

    #[test]
    fn maps_everything_and_validates() {
        let sc = scenario(64, 0, 0);
        let out = run_dbc(&sc);
        assert!(out.metrics().fully_mapped());
        assert!(validate(&out.state).is_empty());
    }

    /// Replay a run's commits in the walk's order (lowest-id ready
    /// subtask first) and name each one that broke the deadline rule: a
    /// late placement while one that finished by τ existed, or, when
    /// none did, a placement finishing after the earliest one.
    fn deadline_rule_breaks(sc: &Scenario, out: &StaticOutcome<'_>) -> Vec<String> {
        let mut state = SimState::new(sc);
        let mut breaks = Vec::new();
        while let Some(t) = state.ready_tasks().iter().min().copied() {
            let Some(a) = out.state.schedule().assignment(t).copied() else {
                break;
            };
            let earliest = sc
                .grid
                .ids()
                .filter_map(|j| {
                    let v = feasible_version(&state, t, j)?;
                    Some(state.plan(t, v, j, Placement::Insert).finish())
                })
                .min()
                .expect("the run placed the subtask somewhere");
            let plan = state.plan(t, a.version, a.machine, Placement::Insert);
            assert_eq!(plan.finish(), a.finish(), "the replay diverged at {t:?}");
            let in_time = earliest <= sc.tau;
            if (in_time && plan.finish() > sc.tau) || (!in_time && plan.finish() > earliest) {
                breaks.push(format!(
                    "{t:?} finished at {} (earliest {earliest}, tau {})",
                    plan.finish(),
                    sc.tau
                ));
            }
            state.commit(&plan);
        }
        breaks
    }

    #[test]
    fn commits_meet_the_deadline_whenever_a_placement_can() {
        // (16, A, 0, 0) is the dbc_report.txt golden's scenario.
        for case in GridCase::ALL {
            for (tasks, etc, dag) in [(16, 0, 0), (64, 1, 2), (128, 2, 1)] {
                let params = ScenarioParams::paper_scaled(tasks);
                let sc = Scenario::generate(&params, case, etc, dag);
                let out = run_dbc(&sc);
                let breaks = deadline_rule_breaks(&sc, &out);
                assert!(
                    breaks.is_empty(),
                    "{case:?} |T|={tasks} etc{etc}/dag{dag}: {breaks:?}"
                );
            }
        }
    }

    #[test]
    fn cheaper_than_the_greedy_given_deadline_slack() {
        // Per-subtask choices are myopic, so global dominance only
        // emerges when the deadline leaves room to choose the cheap
        // machines at all. With 100x slack, DBC-Cost should undercut
        // the greedy (MCT) decisively.
        for (etc, dag) in [(0, 0), (1, 1), (2, 2)] {
            let mut params = ScenarioParams::paper_scaled(48);
            params.tau = Time(params.tau.0 * 100);
            let sc = Scenario::generate(&params, GridCase::A, etc, dag);
            let cheap = run_dbc(&sc);
            let fast = run_greedy(&sc);
            assert!(cheap.metrics().fully_mapped() && fast.metrics().fully_mapped());
            let c = schedule_cost(&sc, cheap.state.schedule());
            let f = schedule_cost(&sc, fast.state.schedule());
            assert!(
                c < f,
                "DBC-Cost paid {c} >= the greedy's {f} on etc{etc}/dag{dag}"
            );
        }
    }

    #[test]
    fn the_greedy_is_never_slower() {
        for (etc, dag) in [(0, 0), (1, 1)] {
            let sc = scenario(48, etc, dag);
            let cheap = run_dbc(&sc);
            let fast = run_greedy(&sc);
            assert!(cheap.metrics().fully_mapped() && fast.metrics().fully_mapped());
            assert!(
                fast.metrics().aet <= cheap.metrics().aet,
                "the greedy finished at {} after DBC-Cost's {} on etc{etc}/dag{dag}",
                fast.metrics().aet,
                cheap.metrics().aet
            );
        }
    }

    #[test]
    fn cost_mode_prefers_the_cheap_machines_under_slack() {
        // With the deadline far away, DBC-Cost should send work to the
        // 1 G$/s slow machines that the greedy avoids.
        let mut params = ScenarioParams::paper_scaled(24);
        params.tau = Time(params.tau.0 * 100);
        let sc = Scenario::generate(&params, GridCase::A, 0, 0);
        let cheap = run_dbc(&sc);
        assert!(cheap.metrics().fully_mapped());
        let slow_work = cheap
            .state
            .schedule()
            .assignments()
            .filter(|a| sc.grid.machine(a.machine).price_rate() == 1.0)
            .count();
        assert!(slow_work > 0, "DBC-Cost never used a slow machine");
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
        let fresh = run_dbc(&sc);
        let mut ctx = RunContext::new();
        let a = run_dbc_in(&sc, &mut ctx);
        let m = a.metrics();
        drop(a);
        let b = run_dbc_in(&sc, &mut ctx);
        assert_eq!(m, b.metrics());
        assert_eq!(m, fresh.metrics());
    }
}
