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
//! Four interpretation choices the paper leaves implicit, all needed for
//! the heuristic to ever satisfy the τ constraint:
//!
//! * a **τ gate**: a triplet whose execution would **finish after τ** is
//!   not mappable — the static analogue of the SLRH clock loop stopping
//!   at τ (without it, the positive γ·AET/τ term drives the schedule
//!   arbitrarily late and no (α, β) pair is ever compliant);
//! * **earliest-finish tie-breaks**: equal-objective ties (ubiquitous when
//!   γ = 0, where every primary placement raises the objective
//!   identically) break toward the earliest finish, consistent with the
//!   heuristic's Min-Min ancestry — a fixed arbitrary tie-break would
//!   serialize every subtask onto one machine;
//! * a **deadline gate** tightening the τ gate per subtask: a triplet must
//!   finish by τ minus the optimistic critical path from the subtask to
//!   the DAG's sinks (each descendant costed at its fastest secondary
//!   execution), and by its level's proportional share of τ. The dynamic
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
//!
//! **What a commit judges.** Judging a triplet means the downgrade
//! guard, the kept or fresh slot, the deadline gate and the objective;
//! the guards and the objective read the batteries and the grid-wide
//! totals, which every commit moves. A commit judges a triplet only when
//! a cheap upper bound on its objective is not below the best score
//! judged so far (`Search::bound`: the objective of its totals without
//! the transfer energy and, under +γ, with the AET at its deadline).
//! Nothing in the bound but the execution energy depends on the machine,
//! so each (task, version) walks its machines by ascending execution
//! energy, sorted once per run, and stops at the first bound below the
//! incumbent. The task with the highest bound is judged first, to set
//! the incumbent. A skipped triplet can neither beat nor tie the winner,
//! so the winner and its tie-break are the full scan's.
//!
//! **What a commit re-costs.** Where a judged triplet's execution would
//! land is kept. Each ready (task, machine) pair is costed once
//! ([`SimState::cost`] under [`Placement::Insert`]: the transfer walk,
//! which does not depend on the version) and completed per version
//! ([`Costing::at`]: the execution's own gap search). A costing reads
//! the transmit timelines of the task's parents' machines and the
//! target's receive and compute timelines; a commit changes the
//! committed machine's compute and receive timelines and its transfers'
//! senders' transmit timelines, and stamps those machines, so a pair is
//! costed again when its target or one of its task's parents' machines
//! was stamped since. Only the winner is planned. [`reference::run`] is
//! the per-triplet scan without any of this, the oracle the product must
//! replay bit for bit (DESIGN.md §21).

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Energy, Time};
use adhoc_grid::workload::Scenario;
use gridsim::metrics::Metrics;
use gridsim::plan::{Costing, MappingPlan, Placement, PlanScratch, PlanTotals, Slot};
use gridsim::state::SimState;
use gridsim::tables::ScenarioTables;
use lagrange::weights::{AetSign, Objective};
use slrh::pool::{plan_objective, totals_objective};
use slrh::RunContext;

use crate::outcome::StaticOutcome;

#[doc(hidden)]
pub mod reference;

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
    run_maxmax_in(scenario, objective, &mut RunContext::new())
}

/// [`run_maxmax`] building its state on `ctx`'s recycled storage;
/// results are identical.
pub fn run_maxmax_in<'a>(
    scenario: &'a Scenario,
    objective: &Objective,
    ctx: &mut RunContext,
) -> StaticOutcome<'a> {
    let state = ctx.state(scenario);
    map(state, &Statics::new(scenario), objective, 0)
}

/// What every Max-Max run of one scenario reads and none writes: the
/// scenario's [`ScenarioTables`], the downgrade guard's tables and each
/// (task, version)'s machines by execution energy. A single run builds
/// its statics inline; the weight search builds this once per scenario
/// and lends it to every run ([`run_maxmax_floored`]). It borrows the
/// scenario, so it can only describe the scenario it was built from.
pub struct Prepared<'a> {
    tables: ScenarioTables<'a>,
    statics: Statics,
}

impl<'a> Prepared<'a> {
    /// Build `scenario`'s tables and Max-Max statics.
    pub fn new(scenario: &'a Scenario) -> Prepared<'a> {
        Prepared {
            tables: ScenarioTables::new(scenario),
            statics: Statics::new(scenario),
        }
    }
}

/// The weight search's run, and nothing else's: [`run_maxmax_in`] on
/// `prepared`'s scenario, reading its statics from `prepared`, abandoned
/// before the first commit at which
/// [`SimState::t100_ceiling`] is strictly below `floor`. Every commit is
/// final, so the ceiling only falls, and a run it puts below `floor`
/// can never reach `floor`. Such a run (cut, or finished below `floor`)
/// is `None`, its state's storage handed back to `ctx`; any other is
/// exactly [`run_maxmax_in`]'s. `floor` 0 never cuts.
#[doc(hidden)]
pub fn run_maxmax_floored<'a>(
    prepared: &'a Prepared<'a>,
    objective: &Objective,
    ctx: &mut RunContext,
    floor: usize,
) -> Option<StaticOutcome<'a>> {
    let state = ctx.state_on(&prepared.tables);
    let out = map(state, &prepared.statics, objective, floor);
    if out.state.t100_ceiling() < floor {
        ctx.reclaim(out.state);
        return None;
    }
    Some(out)
}

/// The one Max-Max loop on a fresh `state`: commit the best triplet
/// until none is left or, with a non-zero `floor`, the ceiling falls
/// below it. The scenario's statics come from the caller.
fn map<'a>(
    mut state: SimState<'a>,
    statics: &Statics,
    objective: &Objective,
    floor: usize,
) -> StaticOutcome<'a> {
    let mut evaluated = 0u64;
    let mut scan = Scan::new(state.scenario());
    let mut unmapped = state.scenario().tasks();

    while floor == 0 || state.t100_ceiling() >= floor {
        let Some(plan) = scan.best(&state, objective, statics, unmapped, &mut evaluated) else {
            break;
        };
        unmapped -= 1;
        scan.stamp(&plan);
        state.commit(&plan);
        scan.scratch.recycle(plan);
    }

    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

/// Static guard data: per-machine mean secondary footprints (downgrade
/// guard) and per-task latest admissible finishes (deadline gate).
struct DowngradeGuard {
    /// Mean secondary execution `(energy, seconds)` per machine.
    secondary: Vec<(f64, f64)>,
    /// Latest admissible finish per task: the lesser of
    ///
    /// * τ minus its descendants' optimistic remaining work (critical-path
    ///   slack: each descendant costed at its fastest secondary run), and
    /// * the proportional level quota `τ·(depth+1)/(max_depth+1)` — the
    ///   wave structure the dynamic SLRH gets from its advancing clock.
    ///   Without it, an interior subtask may legally occupy a slot against
    ///   the deadline on an energy-cheap slow machine, compressing every
    ///   descendant into an ever-thinner window until the schedule
    ///   strangles.
    deadline: Vec<Time>,
}

impl DowngradeGuard {
    fn new(scenario: &Scenario) -> DowngradeGuard {
        let (dag, etc) = (&scenario.dag, &scenario.etc);
        let n = scenario.tasks() as f64;
        let mut secondary = Vec::with_capacity(scenario.grid.len());
        for (j, spec) in scenario.grid.iter() {
            let secs: f64 = dag
                .tasks()
                .map(|t| etc.exec_dur(t, j, Version::Secondary).as_seconds())
                .sum::<f64>()
                / n;
            secondary.push((secs * spec.compute_power, secs));
        }

        // Upward rank in reverse topological order — a task's fastest
        // secondary run plus the optimistic critical path below it, in
        // ticks — kept in the deadline table until the last pass.
        let fastest = |t: TaskId| {
            scenario
                .grid
                .ids()
                .map(|j| etc.exec_dur(t, j, Version::Secondary).0)
                .min()
                .expect("grid is non-empty")
        };
        let below = |deadline: &[Time], t: TaskId| {
            dag.children(t)
                .iter()
                .map(|&c| deadline[c.0].0)
                .max()
                .unwrap_or(0)
        };
        let order = dag.topological_order().expect("scenario DAGs are acyclic");
        let mut deadline = vec![Time::ZERO; scenario.tasks()];
        for &t in order.iter().rev() {
            deadline[t.0] = Time(below(&deadline, t) + fastest(t));
        }

        // ASAP level per task.
        let mut depth = vec![0usize; scenario.tasks()];
        let mut max_depth = 0;
        for &t in &order {
            for &c in dag.children(t) {
                depth[c.0] = depth[c.0].max(depth[t.0] + 1);
                max_depth = max_depth.max(depth[c.0]);
            }
        }

        // In topological order a task's children still hold their rank,
        // the largest of which is the task's bottom-level slack.
        let tau = scenario.tau.0;
        for &t in &order {
            let by_slack = Time(tau.saturating_sub(below(&deadline, t)));
            let quota = (tau as u128 * (depth[t.0] as u128 + 1) / (max_depth as u128 + 1)) as u64;
            deadline[t.0] = by_slack.min(Time(quota));
        }

        DowngradeGuard {
            secondary,
            deadline,
        }
    }

    /// Secondary-level subtasks machine `m` can still absorb with
    /// `energy` units and `time` seconds left: the lesser of its
    /// energy-limited and time-limited counts.
    fn capacity(&self, m: usize, energy: f64, time: f64) -> f64 {
        let (sec_energy, sec_seconds) = self.secondary[m];
        (energy.max(0.0) / sec_energy).min(time.max(0.0) / sec_seconds)
    }

    /// What every machine has left in `state`, and the capacity that
    /// buys, into `out`: `(energy, seconds before τ, capacity)` per
    /// machine. The state cannot change inside one search, so a search
    /// reads this once, not once per triplet.
    fn headroom(&self, state: &SimState<'_>, out: &mut Vec<(f64, f64, f64)>) {
        let sc = state.scenario();
        let tau = sc.tau.as_seconds();
        out.clear();
        out.extend(sc.grid.ids().map(|m| {
            let energy = state.ledger().available(m).units();
            let time = tau - state.compute_timeline(m).total_busy().as_seconds();
            (energy, time, self.capacity(m.0, energy, time))
        }));
    }

    /// Estimated number of secondary-level subtasks the grid can still
    /// absorb if the candidate `(cost, exec_secs)` lands on machine `j`,
    /// given the grid's [`headroom`](Self::headroom) without it: only
    /// `j`'s term is costed again, and the terms are summed in machine
    /// order as if all of them were.
    fn capacity_after(
        &self,
        headroom: &[(f64, f64, f64)],
        j: MachineId,
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

/// A scenario's Max-Max statics: the downgrade guard and the machine
/// orders the scan's bounds fall along.
struct Statics {
    guard: DowngradeGuard,
    machines: usize,
    /// Per (task, version), every machine with the execution energy of
    /// the task there, by ascending energy (ties by id), at
    /// `(task * 2 + secondary) * machines`: the order along which
    /// [`Search::bound`] only falls.
    by_energy: Vec<(Energy, MachineId)>,
}

impl Statics {
    fn new(scenario: &Scenario) -> Statics {
        let machines = scenario.grid.len();
        let mut by_energy = Vec::with_capacity(scenario.tasks() * 2 * machines);
        for t in scenario.dag.tasks() {
            for v in Version::BOTH {
                let from = by_energy.len();
                // What a slot of (t, v) on j commits there, wherever it lands.
                by_energy.extend(
                    scenario
                        .grid
                        .iter()
                        .map(|(j, spec)| (spec.compute_energy(scenario.etc.exec_dur(t, j, v)), j)),
                );
                by_energy[from..].sort_unstable_by(|(ea, a), (eb, b)| {
                    ea.units().total_cmp(&eb.units()).then(a.cmp(b))
                });
            }
        }
        Statics {
            guard: DowngradeGuard::new(scenario),
            machines,
            by_energy,
        }
    }

    /// `(t, v)`'s machines by ascending execution energy, each with that
    /// energy.
    fn by_energy(&self, t: TaskId, v: Version) -> &[(Energy, MachineId)] {
        let from = (t.0 * 2 + usize::from(!v.is_primary())) * self.machines;
        &self.by_energy[from..from + self.machines]
    }
}

/// One kept costing: a (task, machine) pair's [`Costing`] and, once
/// asked for, each version's [`Slot`].
#[derive(Copy, Clone)]
struct Pair {
    /// The epoch the costing was made at.
    costed_at: u64,
    cost: Costing,
    /// Primary, secondary.
    slots: [Option<Slot>; 2],
}

/// A triplet's tie-break key: `(finish, task, secondary, machine)`.
type Key = (Time, TaskId, bool, MachineId);

/// One commit's search: what every triplet is judged against, and the
/// best triplet judged so far.
struct Search<'s, 'a> {
    state: &'s SimState<'a>,
    objective: &'s Objective,
    statics: &'s Statics,
    /// The state's metrics: no commit happens inside a search.
    metrics: Metrics,
    /// The subtasks left after this commit, which the downgrade guard
    /// requires the grid to absorb.
    rest: f64,
    /// The incumbent's score and key.
    best: Option<(f64, Key)>,
}

impl Search<'_, '_> {
    /// An upper bound on the score of every slot of `(t, v)` the deadline
    /// gate admits on a machine where its execution energy is `exec`: its
    /// totals without the transfer energy (which is never negative) and,
    /// under +γ, with an AET of at least `t`'s deadline, which no admitted
    /// slot finishes after (under −γ a later AET only lowers the score).
    /// The weights are non-negative and rounding is monotone, so the bound
    /// is at or above the exact score bit for bit, and falls as `exec`
    /// rises.
    fn bound(&self, t: TaskId, v: Version, exec: Energy) -> f64 {
        let m = &self.metrics;
        let aet_after = match self.objective.aet_sign {
            AetSign::Positive => m.aet.max(self.statics.guard.deadline[t.0]),
            AetSign::Negative => m.aet,
        };
        let totals = PlanTotals {
            t100_after: m.t100 + usize::from(v.is_primary()),
            tec_after: m.tec + exec,
            aet_after,
        };
        totals_objective(m, self.objective, &totals)
    }

    /// Whether a triplet bounded by `bound` can neither beat nor tie the
    /// incumbent.
    fn below_incumbent(&self, bound: f64) -> bool {
        self.best.is_some_and(|(best, _)| bound < best)
    }

    /// Make the triplet scoring `obj` with tie-break `key` the incumbent
    /// if it beats it: a higher score, or an equal one with a lower key.
    fn offer(&mut self, obj: f64, key: Key) {
        let better = match self.best {
            None => true,
            Some((b, bk)) => obj > b || (obj == b && key < bk),
        };
        if better {
            self.best = Some((obj, key));
        }
    }
}

/// The product scan's memory across commits: the kept costings, the
/// stamps that drop them, and the planner's recycled storage.
#[derive(Default)]
struct Scan {
    /// Per (task, machine) pair, at `task * machines + machine`.
    pairs: Vec<Option<Pair>>,
    machines: usize,
    /// Per machine, the epoch of the last commit onto it: its compute
    /// and receive timelines changed then.
    target_stamp: Vec<u64>,
    /// Per machine, the epoch of the last commit it sent a transfer for:
    /// its transmit timeline changed then.
    sender_stamp: Vec<u64>,
    /// One more than the commits so far, so a costing's epoch is above
    /// every stamp set before it was made and not above any set after.
    epoch: u64,
    headroom: Vec<(f64, f64, f64)>,
    scratch: PlanScratch,
}

impl Scan {
    fn new(scenario: &Scenario) -> Scan {
        let machines = scenario.grid.len();
        Scan {
            pairs: vec![None; scenario.tasks() * machines],
            machines,
            target_stamp: vec![0; machines],
            sender_stamp: vec![0; machines],
            epoch: 1,
            headroom: Vec::with_capacity(machines),
            ..Scan::default()
        }
    }

    /// Stamp the machines whose timelines committing `plan` changes.
    fn stamp(&mut self, plan: &MappingPlan) {
        self.target_stamp[plan.machine.0] = self.epoch;
        for tr in &plan.transfers {
            self.sender_stamp[tr.from.0] = self.epoch;
        }
        self.epoch += 1;
    }

    /// The best feasible (task, version, machine) plan by objective value,
    /// or `None` when no feasible pair remains: [`reference::run`]'s
    /// choice. Triplets finishing after their deadline are not mappable;
    /// equal objectives break toward the earliest finish, then the lower
    /// task id, primary version, and lower machine id — fully
    /// deterministic.
    ///
    /// Only triplets whose [`Search::bound`] reaches the incumbent are
    /// judged, and `evaluated` counts those that pass the downgrade
    /// guard. The task with the highest bound is judged first, to set an
    /// incumbent; every other ready task is then judged up to the first
    /// machine, per version, whose bound falls below the incumbent. A
    /// triplet skipped so can neither beat nor tie the winner.
    fn best(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        statics: &Statics,
        unmapped: usize,
        evaluated: &mut u64,
    ) -> Option<MappingPlan> {
        statics.guard.headroom(state, &mut self.headroom);
        let mut search = Search {
            state,
            objective,
            statics,
            metrics: state.metrics(),
            // No task is ready once none is unmapped.
            rest: unmapped.saturating_sub(1) as f64,
            best: None,
        };
        let mut first: Option<(f64, TaskId)> = None;
        for &t in state.ready_tasks() {
            if let Some(bound) = self.task_bound(&search, t) {
                if first.is_none_or(|(b, _)| bound > b) {
                    first = Some((bound, t));
                }
            }
        }
        let (_, first) = first?;
        self.judge(&mut search, first, evaluated);
        for &t in state.ready_tasks() {
            if t != first {
                self.judge(&mut search, t, evaluated);
            }
        }

        let (obj, (finish, t, secondary, j)) = search.best?;
        let v = if secondary {
            Version::Secondary
        } else {
            Version::Primary
        };
        let plan = state.plan_with(t, v, j, Placement::Insert, &mut self.scratch);
        debug_assert_eq!(plan.finish(), finish, "kept slot of {t} on {j} is stale");
        debug_assert_eq!(
            plan_objective(state, objective, &plan).to_bits(),
            obj.to_bits(),
            "score of {t} on {j} differs from its plan's objective"
        );
        Some(plan)
    }

    /// The highest bound over `t`'s feasible triplets — each version's
    /// at its first feasible machine in [`Statics::by_energy`] order — or
    /// `None` when no version of `t` fits any battery.
    fn task_bound(&self, search: &Search<'_, '_>, t: TaskId) -> Option<f64> {
        Version::BOTH
            .into_iter()
            .filter_map(|v| {
                let &(exec, _) = search
                    .statics
                    .by_energy(t, v)
                    .iter()
                    .find(|&&(_, j)| search.state.version_feasible(t, v, j))?;
                Some(search.bound(t, v, exec))
            })
            .reduce(f64::max)
    }

    /// Judge `t`'s feasible triplets, per version in
    /// [`Statics::by_energy`] order, until the bound falls below the
    /// incumbent: the downgrade guard, the kept or fresh slot, the
    /// deadline gate and the objective.
    fn judge(&mut self, search: &mut Search<'_, '_>, t: TaskId, evaluated: &mut u64) {
        let state = search.state;
        let sc = state.scenario();
        let statics = search.statics;
        let deadline = statics.guard.deadline[t.0];
        let mut senders = None;
        for v in Version::BOTH {
            for k in 0..self.machines {
                let (exec, j) = statics.by_energy(t, v)[k];
                if !state.version_feasible(t, v, j) {
                    continue;
                }
                // The bound only falls along this order, so no later
                // machine can beat or tie the incumbent either.
                if search.below_incumbent(search.bound(t, v, exec)) {
                    break;
                }
                // Downgrade guard (see module docs): committing this
                // triplet must leave the grid able to absorb the rest
                // of the workload at the secondary level.
                let cost = state.feasibility_demand(t, v, j);
                let exec_secs = sc.etc.exec_dur(t, j, v).as_seconds();
                if statics
                    .guard
                    .capacity_after(&self.headroom, j, cost, exec_secs)
                    < search.rest
                {
                    continue;
                }
                *evaluated += 1;
                let senders = *senders.get_or_insert_with(|| self.senders(state, t));
                let slot = self.slot(state, t, j, v, senders);
                if slot.finish() > deadline {
                    continue;
                }
                let obj = totals_objective(&search.metrics, search.objective, &slot.totals(state));
                search.offer(obj, (slot.finish(), t, !v.is_primary(), j));
            }
        }
    }

    /// The latest sender stamp over `t`'s parents' machines: the
    /// transfer walk reads their transmit timelines. (A parent on the
    /// target itself ships nothing, so its stamp may drop a costing that
    /// was still current.)
    fn senders(&self, state: &SimState<'_>, t: TaskId) -> u64 {
        state
            .scenario()
            .dag
            .parents(t)
            .iter()
            .map(|&p| {
                let parent = state.schedule().assignment(p);
                self.sender_stamp[parent.expect("a ready task's parents are mapped").machine.0]
            })
            .max()
            .unwrap_or(0)
    }

    /// The costing kept for `(t, j)`, unless `j` or a sender to it
    /// (`senders`, [`Scan::senders`]) was stamped at or after its epoch.
    fn kept(&self, t: TaskId, j: MachineId, senders: u64) -> Option<&Pair> {
        let stamp = self.target_stamp[j.0].max(senders);
        self.pairs[t.0 * self.machines + j.0]
            .as_ref()
            .filter(|pair| pair.costed_at > stamp)
    }

    /// Where `(t, v)` lands on `j`: the kept slot, or a fresh one from
    /// the kept costing, or from a fresh costing.
    fn slot(
        &mut self,
        state: &SimState<'_>,
        t: TaskId,
        j: MachineId,
        v: Version,
        senders: u64,
    ) -> Slot {
        let at = t.0 * self.machines + j.0;
        if self.kept(t, j, senders).is_none() {
            self.pairs[at] = Some(Pair {
                costed_at: self.epoch,
                cost: state.cost(t, j, Placement::Insert, &mut self.scratch),
                slots: [None; 2],
            });
        }
        let pair = self.pairs[at].as_mut().expect("costed above");
        let cost = pair.cost;
        *pair.slots[usize::from(!v.is_primary())].get_or_insert_with(|| cost.at(state, v))
    }
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

    /// Every costing and slot the stamps keep is what a fresh transfer
    /// walk and gap search return, after each commit of a run, for every
    /// ready task × machine. A memo that misses a timeline a commit
    /// changed — the target's or a sender's — fails here even where it
    /// changes no decision.
    #[test]
    fn kept_costings_equal_fresh_ones() {
        for (case, tasks) in [(GridCase::A, 64), (GridCase::B, 96), (GridCase::C, 48)] {
            let sc = Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, 0, 0);
            let objective = obj(0.5, 0.2);
            let statics = Statics::new(&sc);
            let mut state = SimState::new(&sc);
            let mut scan = Scan::new(&sc);
            let (mut evaluated, mut unmapped, mut kept) = (0, sc.tasks(), 0);
            while let Some(plan) = scan.best(&state, &objective, &statics, unmapped, &mut evaluated)
            {
                unmapped -= 1;
                scan.stamp(&plan);
                state.commit(&plan);
                for &t in state.ready_tasks() {
                    let senders = scan.senders(&state, t);
                    for j in sc.grid.ids() {
                        let Some(pair) = scan.kept(t, j, senders).copied() else {
                            continue;
                        };
                        let fresh = state.cost(t, j, Placement::Insert, &mut scan.scratch);
                        assert_eq!(pair.cost, fresh, "{case:?}: costing of {t} on {j}");
                        for (slot, v) in pair.slots.iter().zip(Version::BOTH) {
                            if let Some(slot) = slot {
                                assert_eq!(
                                    *slot,
                                    fresh.at(&state, v),
                                    "{case:?}: {t}/{v:?} on {j}"
                                );
                            }
                        }
                        kept += 1;
                    }
                }
            }
            assert!(
                kept > 100,
                "{case:?}: only {kept} costings were kept across commits"
            );
        }
    }

    /// After every commit of a run, every feasible ready triplet's bound
    /// is at or above the exact score of its slot — under +γ for the
    /// slots the deadline gate admits, the only ones scored — and falls
    /// along its (task, version)'s machine order, at the simplex's corners
    /// and inside it, under both AET signs. The scan skips a triplet on
    /// its bound alone, so this is what makes the skip exact.
    #[test]
    fn the_bound_dominates_every_slot_it_stands_for() {
        let objectives: Vec<Objective> =
            [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.25), (0.2, 0.6)]
                .into_iter()
                .flat_map(|(a, b)| {
                    [AetSign::Positive, AetSign::Negative].map(|aet_sign| Objective {
                        weights: Weights::new(a, b).unwrap(),
                        aet_sign,
                    })
                })
                .collect();
        for tasks in [32, 64, 128] {
            for case in GridCase::ALL {
                let sc = Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, 0, 0);
                let statics = Statics::new(&sc);
                let mut state = SimState::new(&sc);
                let mut scan = Scan::new(&sc);
                let (mut evaluated, mut unmapped, mut checked) = (0, sc.tasks(), 0);
                while let Some(plan) =
                    scan.best(&state, &obj(0.5, 0.25), &statics, unmapped, &mut evaluated)
                {
                    unmapped -= 1;
                    scan.stamp(&plan);
                    state.commit(&plan);
                    let searches: Vec<Search<'_, '_>> = objectives
                        .iter()
                        .map(|objective| Search {
                            state: &state,
                            objective,
                            statics: &statics,
                            metrics: state.metrics(),
                            rest: 0.0,
                            best: None,
                        })
                        .collect();
                    for &t in state.ready_tasks() {
                        for v in Version::BOTH {
                            for search in &searches {
                                let bounds = statics
                                    .by_energy(t, v)
                                    .iter()
                                    .map(|&(exec, _)| search.bound(t, v, exec));
                                let falls = bounds.clone().zip(bounds.skip(1)).all(|(a, b)| a >= b);
                                assert!(
                                    falls,
                                    "{case:?}: bounds of {t}/{v:?} rise along the order"
                                );
                            }
                            for j in sc.grid.ids() {
                                if !state.version_feasible(t, v, j) {
                                    continue;
                                }
                                let cost = state.cost(t, j, Placement::Insert, &mut scan.scratch);
                                let slot = cost.at(&state, v);
                                let &(exec, _) =
                                    statics.by_energy(t, v).iter().find(|e| e.1 == j).unwrap();
                                assert_eq!(exec, slot.exec_energy, "{case:?}: {t}/{v:?} on {j}");
                                let admitted = slot.finish() <= statics.guard.deadline[t.0];
                                for search in &searches {
                                    if search.objective.aet_sign == AetSign::Positive && !admitted {
                                        continue;
                                    }
                                    let exact = totals_objective(
                                        &search.metrics,
                                        search.objective,
                                        &slot.totals(&state),
                                    );
                                    let bound = search.bound(t, v, exec);
                                    assert!(
                                        bound >= exact,
                                        "{case:?}, {tasks} tasks: bound {bound} < score {exact} \
                                         of {t}/{v:?} on {j} under {:?}",
                                        search.objective
                                    );
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
                assert!(
                    checked > 1000,
                    "{case:?}, {tasks} tasks: only {checked} slots checked"
                );
            }
        }
    }

    /// The weight search lends one scenario's statics to every run: each
    /// run over the coarse grid of weights, on buffers the previous run
    /// handed back, equals a run that built its own statics — the same
    /// assignments, transfers and judged triplets.
    #[test]
    fn shared_statics_replay_runs_that_build_their_own() {
        for case in GridCase::ALL {
            let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), case, 0, 0);
            let prepared = Prepared::new(&sc);
            let mut ctx = RunContext::new();
            let weights = (0..=10).flat_map(|a| (0..=10).map(move |b| (a, b)));
            for w in weights.filter_map(|(a, b)| Weights::new(a as f64 * 0.1, b as f64 * 0.1).ok())
            {
                let objective = Objective::paper(w);
                let own = run_maxmax(&sc, &objective);
                let shared = run_maxmax_floored(&prepared, &objective, &mut ctx, 0)
                    .expect("floor 0 never cuts");
                let what = format!("{case:?} at {w:?}");
                assert_eq!(
                    shared.candidates_evaluated, own.candidates_evaluated,
                    "{what}"
                );
                assert_eq!(
                    shared.state.schedule().transfers(),
                    own.state.schedule().transfers(),
                    "{what}"
                );
                for t in sc.dag.tasks() {
                    assert_eq!(
                        shared.state.schedule().assignment(t),
                        own.state.schedule().assignment(t),
                        "{what}: {t}"
                    );
                }
                ctx.reclaim(shared.state);
            }
        }
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
