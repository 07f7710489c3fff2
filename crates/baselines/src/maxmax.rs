//! The Max-Max static baseline (§V).
//!
//! Max-Max follows the two-phase greedy structure of Ibarra & Kim's
//! Min-Min [IbK77], but *maximizes* the paper's global objective instead
//! of minimizing completion time:
//!
//! 1. build the pool `U` of feasible (subtask, version) pairs — unlike the
//!    SLRH pool, **both** versions of a subtask may be in `U`
//!    simultaneously, each assessed independently against the machine's
//!    remaining energy;
//! 2. for each machine, find the pair giving the maximum objective
//!    increase; among those per-machine champions, commit the best
//!    (subtask, version, machine) triplet;
//! 3. repeat until every subtask is mapped or nothing feasible remains.
//!
//! Being static, Max-Max sees no clock: a triplet "may be scheduled for a
//! time prior to the target machine's availability time if a sufficiently
//! large hole in the existing schedule" fits it
//! ([`gridsim::plan::Placement::Insert`]).
//!
//! Two interpretation choices the paper leaves implicit, both needed for
//! the heuristic to ever satisfy the τ constraint:
//!
//! * a triplet whose execution would **finish after τ** is not mappable —
//!   the static analogue of the SLRH clock loop stopping at τ (without
//!   it, the positive γ·AET/τ term drives the schedule arbitrarily late
//!   and no (α, β) pair is ever compliant);
//! * equal-objective ties (ubiquitous when γ = 0, where every primary
//!   placement raises the objective identically) break toward the
//!   **earliest finish**, consistent with the heuristic's Min-Min
//!   ancestry — a fixed arbitrary tie-break would serialize every subtask
//!   onto one machine;
//! * a **bottom-level slack gate**: a triplet must finish by τ minus the
//!   optimistic critical path from the subtask to the DAG's sinks (each
//!   descendant costed at its fastest secondary execution). The dynamic
//!   SLRH gets this for free — late slots are filled by subtasks that
//!   *become ready* late, i.e. leaves — but a static greedy will happily
//!   park an interior subtask against the deadline and strangle its
//!   descendants. This is the classic upward-rank guard of deadline list
//!   scheduling;
//! * a **downgrade guard**, the static analogue of the SLRH pool's
//!   conservatism: a triplet is only mappable if afterwards the grid
//!   retains enough *capacity* — per machine, the lesser of its remaining
//!   energy divided by the mean secondary energy cost and its remaining
//!   pre-τ timeline divided by the mean secondary duration — to absorb
//!   every still-unmapped subtask at the secondary level. Without it the
//!   α-heavy (T100-rich) region greedily drains the fast batteries on
//!   early primaries while the slow machines' timelines fill, and no
//!   weight pair can ever map all subtasks — the paper's requirement for
//!   a pair to count at all.

use adhoc_grid::task::Version;
use adhoc_grid::units::Energy;
use adhoc_grid::workload::Scenario;
use gridsim::plan::{MappingPlan, Placement};
use gridsim::state::{SimState, StateBuffers};
use lagrange::weights::Objective;
use slrh::pool::plan_objective;

use crate::outcome::StaticOutcome;

/// Run Max-Max to completion on `scenario`.
///
/// ```
/// use adhoc_grid::workload::{Scenario, ScenarioParams};
/// use adhoc_grid::config::GridCase;
/// use grid_baselines::run_maxmax;
/// use lagrange::weights::{Objective, Weights};
///
/// let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
/// let out = run_maxmax(&sc, &Objective::paper(Weights::new(0.6, 0.2).unwrap()));
/// assert!(out.metrics().aet <= sc.tau, "Max-Max never schedules past tau");
/// ```
pub fn run_maxmax<'a>(scenario: &'a Scenario, objective: &Objective) -> StaticOutcome<'a> {
    run_maxmax_in(scenario, objective, &mut StateBuffers::default())
}

/// [`run_maxmax`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
pub fn run_maxmax_in<'a>(
    scenario: &'a Scenario,
    objective: &Objective,
    buffers: &mut StateBuffers,
) -> StaticOutcome<'a> {
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut evaluated = 0u64;

    let guard = DowngradeGuard::new(scenario);
    let mut unmapped = scenario.tasks();

    loop {
        let best = find_best_triplet(&state, objective, &guard, unmapped, &mut evaluated);
        match best {
            Some(plan) => {
                unmapped -= 1;
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

/// Static guard data: per-machine mean secondary footprints (downgrade
/// guard) and per-task bottom-level slacks (deadline gate).
struct DowngradeGuard {
    /// Mean secondary execution energy per machine.
    sec_energy: Vec<f64>,
    /// Mean secondary execution seconds per machine.
    sec_seconds: Vec<f64>,
    /// Optimistic critical path from each task (exclusive) to the sinks,
    /// in ticks: each descendant costed at its fastest secondary run.
    bottom_slack: Vec<adhoc_grid::units::Dur>,
    /// Precedence depth (ASAP level) per task.
    depth: Vec<usize>,
    /// Maximum depth over all tasks.
    max_depth: usize,
}

impl DowngradeGuard {
    fn new(scenario: &Scenario) -> DowngradeGuard {
        let n = scenario.tasks() as f64;
        let (mut sec_energy, mut sec_seconds) = (Vec::new(), Vec::new());
        for (j, spec) in scenario.grid.iter() {
            let secs: f64 = scenario
                .dag
                .tasks()
                .map(|t| {
                    scenario
                        .etc
                        .exec_dur(t, j, Version::Secondary)
                        .as_seconds()
                })
                .sum::<f64>()
                / n;
            sec_seconds.push(secs);
            sec_energy.push(secs * spec.compute_power);
        }

        // Bottom-level slack in reverse topological order.
        let min_sec_ticks: Vec<u64> = scenario
            .dag
            .tasks()
            .map(|t| {
                scenario
                    .grid
                    .ids()
                    .map(|j| scenario.etc.exec_dur(t, j, Version::Secondary).0)
                    .min()
                    .expect("grid is non-empty")
            })
            .collect();
        let order = scenario
            .dag
            .topological_order()
            .expect("scenario DAGs are acyclic");
        let mut bottom_slack = vec![adhoc_grid::units::Dur::ZERO; scenario.tasks()];
        for &t in order.iter().rev() {
            let slack = scenario
                .dag
                .children(t)
                .iter()
                .map(|&c| bottom_slack[c.0].0 + min_sec_ticks[c.0])
                .max()
                .unwrap_or(0);
            bottom_slack[t.0] = adhoc_grid::units::Dur(slack);
        }

        // ASAP level per task.
        let mut depth = vec![0usize; scenario.tasks()];
        let mut max_depth = 0;
        for &t in &order {
            for &c in scenario.dag.children(t) {
                depth[c.0] = depth[c.0].max(depth[t.0] + 1);
                max_depth = max_depth.max(depth[c.0]);
            }
        }

        DowngradeGuard {
            sec_energy,
            sec_seconds,
            bottom_slack,
            depth,
            max_depth,
        }
    }

    /// Latest admissible finish for `t`: the lesser of
    ///
    /// * τ minus its descendants' optimistic remaining work (critical-path
    ///   slack), and
    /// * the proportional level quota `τ·(depth+1)/(max_depth+1)` — the
    ///   wave structure the dynamic SLRH gets from its advancing clock.
    ///   Without it, an interior subtask may legally occupy a slot against
    ///   the deadline on an energy-cheap slow machine, compressing every
    ///   descendant into an ever-thinner window until the schedule
    ///   strangles.
    fn deadline(&self, state: &SimState<'_>, t: adhoc_grid::task::TaskId) -> adhoc_grid::units::Time {
        let tau = state.scenario().tau;
        let slack = self.bottom_slack[t.0];
        let by_slack = if slack.0 >= tau.0 {
            adhoc_grid::units::Time::ZERO
        } else {
            tau - slack
        };
        let quota = adhoc_grid::units::Time(
            (tau.0 as u128 * (self.depth[t.0] as u128 + 1) / (self.max_depth as u128 + 1)) as u64,
        );
        by_slack.min(quota)
    }

    /// Secondary-level subtasks machine `m` can still absorb with
    /// `energy` units and `time` seconds left: the lesser of its
    /// energy-limited and time-limited counts.
    fn capacity(&self, m: usize, energy: f64, time: f64) -> f64 {
        (energy.max(0.0) / self.sec_energy[m]).min(time.max(0.0) / self.sec_seconds[m])
    }

    /// What every machine has left in `state`, and the capacity that
    /// buys: `(energy, seconds before τ, capacity)` per machine.
    fn headroom(&self, state: &SimState<'_>) -> Vec<(f64, f64, f64)> {
        let sc = state.scenario();
        let tau = sc.tau.as_seconds();
        sc.grid
            .ids()
            .map(|m| {
                let energy = state.ledger().available(m).units();
                let time = tau - state.compute_timeline(m).total_busy().as_seconds();
                (energy, time, self.capacity(m.0, energy, time))
            })
            .collect()
    }

    /// Estimated number of secondary-level subtasks the grid can still
    /// absorb if the candidate `(cost, exec_secs)` lands on machine `j`,
    /// given the grid's [`headroom`](Self::headroom) without it: only
    /// `j`'s term is costed again, and the terms are summed in machine
    /// order as if all of them were.
    fn capacity_after(
        &self,
        headroom: &[(f64, f64, f64)],
        j: adhoc_grid::config::MachineId,
        cost: Energy,
        exec_secs: f64,
    ) -> f64 {
        headroom
            .iter()
            .enumerate()
            .map(|(m, &(energy, time, capacity))| {
                if m == j.0 {
                    self.capacity(m, energy - cost.units(), time - exec_secs)
                } else {
                    capacity
                }
            })
            .sum()
    }
}

/// The best feasible (task, version, machine) plan by objective value, or
/// `None` when no feasible pair remains. Triplets finishing after τ are
/// not mappable; equal objectives break toward the earliest finish, then
/// the lower task id, primary version, and lower machine id — fully
/// deterministic.
fn find_best_triplet(
    state: &SimState<'_>,
    objective: &Objective,
    guard: &DowngradeGuard,
    unmapped: usize,
    evaluated: &mut u64,
) -> Option<MappingPlan> {
    let sc = state.scenario();
    let mut best: Option<(f64, MappingPlan)> = None;
    // The state cannot change inside this search, so what the machines
    // have left is read once, not once per triplet.
    let headroom = guard.headroom(state);

    for &t in state.ready_tasks() {
        // Bottom-level slack gate (see module docs).
        let deadline = guard.deadline(state, t);
        for j in sc.grid.ids() {
            for v in Version::BOTH {
                if !state.version_feasible(t, v, j) {
                    continue;
                }
                // Downgrade guard (see module docs): committing this
                // triplet must leave the grid able to absorb the rest of
                // the workload at the secondary level.
                // Same static quantity the feasibility gate compares —
                // served from `SimState`'s precomputed demand table.
                let cost = state.feasibility_demand(t, v, j);
                let exec_secs = sc.etc.exec_dur(t, j, v).as_seconds();
                if guard.capacity_after(&headroom, j, cost, exec_secs) < (unmapped - 1) as f64 {
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
                                ) < (
                                    bp.finish(),
                                    bp.task,
                                    !bp.version.is_primary(),
                                    bp.machine,
                                ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;
    use lagrange::weights::Weights;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn obj(a: f64, b: f64) -> Objective {
        Objective::paper(Weights::new(a, b).unwrap())
    }

    #[test]
    fn schedules_respect_tau_and_validate() {
        let sc = scenario(64);
        let out = run_maxmax(&sc, &obj(0.5, 0.2));
        // Max-Max never commits a triplet past τ, so AET always complies.
        assert!(out.metrics().aet <= sc.tau);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(out.candidates_evaluated > 0);
    }

    #[test]
    fn some_weights_map_everything() {
        // Whether a given (α, β) maps all subtasks depends on the weights
        // (that is what the Figure 3 search is for); a small grid must
        // contain at least one fully-mapping pair.
        let sc = scenario(64);
        let found = [(1.0, 0.0), (0.5, 0.25), (0.5, 0.5), (0.25, 0.25)]
            .iter()
            .any(|&(a, b)| run_maxmax(&sc, &obj(a, b)).metrics().fully_mapped());
        assert!(found, "no grid point fully maps the scenario");
    }

    #[test]
    fn deterministic() {
        let sc = scenario(48);
        let a = run_maxmax(&sc, &obj(0.5, 0.2));
        let b = run_maxmax(&sc, &obj(0.5, 0.2));
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.candidates_evaluated, b.candidates_evaluated);
    }

    #[test]
    fn pure_t100_objective_yields_all_primaries_when_energy_allows() {
        let sc = scenario(32);
        let out = run_maxmax(&sc, &obj(1.0, 0.0));
        let m = out.metrics();
        if m.fully_mapped() && m.tec.units() < m.tse.units() * 0.5 {
            assert_eq!(m.t100, m.mapped, "ample energy: all primaries expected");
        }
    }

    #[test]
    fn hole_insertion_can_backfill() {
        // Max-Max may start a later-discovered pair before the machine's
        // availability time; at minimum the schedule must stay valid and
        // AET must not exceed a serial bound.
        let sc = scenario(48);
        let out = run_maxmax(&sc, &obj(0.6, 0.4));
        assert!(validate(&out.state).is_empty());
    }

    #[test]
    fn respects_per_version_energy_feasibility() {
        let sc = scenario(64);
        let out = run_maxmax(&sc, &obj(0.9, 0.1));
        // However the run went, batteries are never overdrawn (ledger
        // invariants are asserted in commit; validate re-checks).
        assert!(validate(&out.state).is_empty());
    }
}
