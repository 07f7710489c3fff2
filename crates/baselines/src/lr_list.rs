//! Static Lagrangian relaxation + list scheduling ([LuH93] / [CaS03]).
//!
//! The manufacturing-scheduling lineage the paper builds on maps like
//! this onto the ad hoc grid problem:
//!
//! 1. **Relax** the coupling machine constraints. Each subtask must pick
//!    one `(machine, version)` option; options use two scarce resources
//!    per machine — *compute time* (capacity τ, the deadline) and
//!    *energy* (capacity `B(j)`). Pricing those `2·|M|` capacities with
//!    multipliers makes the problem separable
//!    ([`lagrange::dual::SeparableProblem`]).
//! 2. **Optimize the dual** with projected subgradient descent, yielding
//!    near-optimal prices and a (typically infeasible) relaxed selection.
//! 3. **List-schedule** the repair: walk the precedence frontier, always
//!    taking the ready subtask with the highest *marginal value* (its
//!    priced reduced value, the [LuH93] ordering criterion) and committing
//!    it at its relaxed option when feasible, else at its best feasible
//!    fallback.
//!
//! This gives a static mapper that shares its optimization DNA with the
//! SLRH but none of its receding-horizon machinery — exactly the prior
//! art the paper positions itself against.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::Version;
use adhoc_grid::workload::Scenario;
use gridsim::plan::Placement;
use lagrange::dual::{Choice, Selection, SeparableProblem};
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use slrh::RunContext;

use crate::outcome::StaticOutcome;

/// Subgradient iterations for the dual phase.
const DUAL_ITERS: usize = 120;

/// The dual phase's step schedule, `0.5/√k`.
const DUAL_STEP: StepRule = StepRule::Diminishing { a: 0.5 };

/// Option index layout: `machine * 2 + (0 primary | 1 secondary)`.
fn decode(option: usize) -> (MachineId, Version) {
    let v = if option.is_multiple_of(2) {
        Version::Primary
    } else {
        Version::Secondary
    };
    (MachineId(option / 2), v)
}

/// Build the separable relaxation of `scenario`.
///
/// Resources `0..|M|` are compute seconds (capacity τ each); resources
/// `|M|..2|M|` are energy units (capacity `B(j)`).
fn build_problem(scenario: &Scenario, weights: &Weights) -> SeparableProblem {
    let m = scenario.grid.len();
    let tse = scenario.grid.total_system_energy().units();
    let tau = scenario.tau.as_seconds();
    let n = scenario.tasks() as f64;

    let options = scenario
        .dag
        .tasks()
        .map(|t| {
            (0..m)
                .flat_map(|j| {
                    Version::BOTH.map(|v| {
                        let jd = MachineId(j);
                        let secs = scenario.etc.exec_dur(t, jd, v).as_seconds();
                        let energy = scenario.grid.machine(jd).compute_power * secs;
                        let mut usage = vec![0.0; 2 * m];
                        usage[j] = secs;
                        usage[m + j] = energy;
                        Choice {
                            value: weights.alpha() * f64::from(v.is_primary()) / n
                                - weights.beta() * energy / tse,
                            usage,
                        }
                    })
                })
                .collect()
        })
        .collect();

    let mut capacities = vec![tau; m];
    capacities.extend(
        scenario
            .grid
            .machines()
            .iter()
            .map(|spec| spec.battery.units()),
    );
    SeparableProblem::new(options, capacities)
}

/// The marginal (priced) value of every task's relaxed option — the list
/// scheduling priority.
fn marginal_values(problem: &SeparableProblem, lambda: &[f64], selection: &Selection) -> Vec<f64> {
    (0..problem.items())
        .map(|i| problem.options_of(i)[selection.0[i]].reduced(lambda))
        .collect()
}

/// Run the static LR + list-scheduling mapper. Of the objective
/// `weights`, α rewards primaries and β discounts energy; the γ time term
/// is handled by the τ capacity constraint instead.
pub fn run_lr_list<'a>(scenario: &'a Scenario, weights: &Weights) -> StaticOutcome<'a> {
    run_lr_list_in(scenario, weights, &mut RunContext::new())
}

/// [`run_lr_list`] building its state on `ctx`'s recycled storage;
/// results are identical.
#[allow(clippy::while_let_loop)] // the loop also breaks on placement failure
pub fn run_lr_list_in<'a>(
    scenario: &'a Scenario,
    weights: &Weights,
    ctx: &mut RunContext,
) -> StaticOutcome<'a> {
    // Phase 1–2: price the capacities.
    let problem = build_problem(scenario, weights);
    let dual = problem.minimize_dual(DUAL_STEP, DUAL_ITERS, vec![0.0; problem.resources()]);
    let priority = marginal_values(&problem, &dual.lambda, &dual.selection);

    // Phase 3: precedence-respecting repair.
    let mut state = ctx.state(scenario);
    let mut evaluated = dual.iterations as u64 * scenario.tasks() as u64;

    loop {
        // Highest-priority ready task first.
        let Some(&t) = state.ready_tasks().iter().max_by(|&&a, &&b| {
            priority[a.0]
                .partial_cmp(&priority[b.0])
                .expect("priorities are finite")
                .then(b.cmp(&a)) // lower id wins ties
        }) else {
            break;
        };

        // Preferred placement: the relaxed selection's option.
        let (pj, pv) = decode(dual.selection.0[t.0]);
        let plan = if state.version_feasible(t, pv, pj) {
            evaluated += 1;
            Some(state.plan(t, pv, pj, Placement::Insert))
        } else {
            // Fallback: earliest completion among feasible options.
            let mut best: Option<gridsim::plan::MappingPlan> = None;
            for j in scenario.grid.ids() {
                for v in Version::BOTH {
                    if !state.version_feasible(t, v, j) {
                        continue;
                    }
                    let p = state.plan(t, v, j, Placement::Insert);
                    evaluated += 1;
                    if best.as_ref().is_none_or(|b| p.finish() < b.finish()) {
                        best = Some(p);
                    }
                }
            }
            best
        };

        let Some(p) = plan else { break };
        state.commit(&p);
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
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn weights() -> Weights {
        Weights::new(0.6, 0.2).unwrap()
    }

    #[test]
    fn decode_layout() {
        assert_eq!(decode(0), (MachineId(0), Version::Primary));
        assert_eq!(decode(1), (MachineId(0), Version::Secondary));
        assert_eq!(decode(5), (MachineId(2), Version::Secondary));
    }

    #[test]
    fn problem_dimensions() {
        let sc = scenario(16);
        let p = build_problem(&sc, &weights());
        assert_eq!(p.items(), 16);
        assert_eq!(p.resources(), 2 * sc.grid.len());
        for i in 0..16 {
            assert_eq!(p.options_of(i).len(), 2 * sc.grid.len());
        }
    }

    #[test]
    fn maps_everything_and_validates() {
        let sc = scenario(64);
        let out = run_lr_list(&sc, &weights());
        assert!(out.metrics().fully_mapped());
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn deterministic() {
        let sc = scenario(32);
        assert_eq!(
            run_lr_list(&sc, &weights()).metrics(),
            run_lr_list(&sc, &weights()).metrics()
        );
    }
}
