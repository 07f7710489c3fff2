//! The candidate pool `U` (§IV).
//!
//! For a target machine `j` at clock `now`, the pool contains every
//! unmapped subtask that
//!
//! 1. has all parents mapped, and
//! 2. passes the conservative energy feasibility test: `j` can afford the
//!    subtask's **secondary** execution plus the worst-case shipment of
//!    all its output data items over the grid's lowest-bandwidth link.
//!
//! Each pool member is then evaluated at both versions against the global
//! objective and keeps only the better version ("the other version was no
//! longer considered during this iteration"), with the restriction —
//! implicit in the paper, necessary for physical soundness — that the
//! primary version is only considered if it, too, fits the machine's
//! remaining energy. Finally the pool is ordered by objective value from
//! maximum to minimum (ties broken toward the lower task id for
//! determinism).
//!
//! This from-scratch walk is the paper's definition and the **reference
//! oracle**: the product clock loop selects candidates through the
//! incremental frontier kernel, which is pinned to pick exactly
//! [`Pool::first_startable`]'s entry; only [`crate::reference`] (tests,
//! the stress harness, benches) still drives a run through this module.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::Time;
use gridsim::metrics::Metrics;
use gridsim::plan::{MappingPlan, Placement, PlanScratch, PlanTotals};
use gridsim::state::SimState;
use lagrange::weights::{Objective, ObjectiveInputs};

/// One evaluated pool member: the chosen version, its ready-to-commit
/// plan, and its objective value.
#[derive(Clone, PartialEq, Debug)]
pub struct PoolEntry {
    /// The candidate subtask.
    pub task: TaskId,
    /// The objective-maximizing (feasible) version.
    pub version: Version,
    /// The plan whose commitment realises this entry.
    pub plan: MappingPlan,
    /// The global objective value after the hypothetical commit.
    pub objective: f64,
}

/// An ordered candidate pool.
///
/// # Sort invariant
///
/// Entries are ordered by **objective value, maximum first**, with ties
/// broken toward the lower task id. The order is what the paper's pool walk consumes;
/// note that plan *start times* are **not** monotone along it — a
/// high-objective candidate may start late (big transfers) while a
/// low-objective one starts now — so the mapper's "first entry able to
/// start within the horizon" query cannot use `partition_point` on the
/// sorted order. Instead the pool precomputes the minimum start over all
/// entries at build time, which gives [`Pool::first_startable`] an O(1)
/// *negative* answer (nothing can start — the common case in the
/// horizon-missing ticks the clock loop spins through near τ) and leaves
/// the linear walk only for queries that will actually commit.
///
/// Dereferences to `[PoolEntry]`, so slice methods (`len`, `iter`,
/// `first`, indexing) work directly.
#[derive(Clone, Debug, Default)]
pub struct Pool {
    entries: Vec<PoolEntry>,
    /// `min(entry.plan.start)`, or `Time::MAX` for an empty pool.
    min_start: Time,
}

impl Pool {
    /// Wrap entries already sorted by the pool comparator.
    fn from_sorted(entries: Vec<PoolEntry>) -> Pool {
        let min_start = entries
            .iter()
            .map(|e| e.plan.start)
            .min()
            .unwrap_or(Time::MAX);
        Pool { entries, min_start }
    }

    /// First entry (maximum objective first) whose plan can start within
    /// the horizon, i.e. `plan.start <= horizon_end`. O(1) when no entry
    /// can (see the type docs), O(pool) otherwise.
    pub fn first_startable(&self, horizon_end: Time) -> Option<&PoolEntry> {
        if self.min_start > horizon_end {
            return None;
        }
        self.entries.iter().find(|e| e.plan.start <= horizon_end)
    }
}

impl std::ops::Deref for Pool {
    type Target = [PoolEntry];

    fn deref(&self) -> &[PoolEntry] {
        &self.entries
    }
}

impl<'a> IntoIterator for &'a Pool {
    type Item = &'a PoolEntry;
    type IntoIter = std::slice::Iter<'a, PoolEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Evaluate the global objective a plan would produce.
pub fn plan_objective(state: &SimState<'_>, objective: &Objective, plan: &MappingPlan) -> f64 {
    totals_objective(&state.metrics(), objective, &plan.totals)
}

/// The global objective of a commit that moves the state whose metrics
/// are `m` to `totals`: the one expression [`plan_objective`], every
/// costing's score (the frontier's, Max-Max's) and the frontier's
/// objective bound evaluate, so a costing scores its plan's objective
/// bit for bit.
pub fn totals_objective(m: &Metrics, objective: &Objective, totals: &PlanTotals) -> f64 {
    objective.evaluate(&ObjectiveInputs {
        t100_frac: totals.t100_after as f64 / m.tasks as f64,
        tec_frac: totals.tec_after / m.tse,
        aet_frac: totals.aet_after.as_seconds() / m.tau.as_seconds(),
    })
}

/// Build the ordered candidate pool for machine `j` at clock `now`.
///
/// Every plan is [`Placement::Append`]`{ not_before: now }` — the SLRH
/// never looks backward in time.
pub fn build_pool_with(
    state: &SimState<'_>,
    objective: &Objective,
    j: MachineId,
    now: Time,
) -> Pool {
    let placement = Placement::Append { not_before: now };
    // One scratch for the whole build: every plan below reuses its
    // buffer capacity instead of allocating fresh overlay vectors.
    let mut scratch = PlanScratch::default();
    let mut pool: Vec<PoolEntry> = Vec::new();

    for &t in state.ready_tasks() {
        // Feasibility gate (§IV): at least the cheapest version, the
        // secondary, must fit.
        if !state.version_feasible(t, Version::Secondary, j) {
            continue;
        }
        let secondary = state.plan_with(t, Version::Secondary, j, placement, &mut scratch);
        let mut best = PoolEntry {
            task: t,
            version: Version::Secondary,
            objective: plan_objective(state, objective, &secondary),
            plan: secondary,
        };

        // The primary is considered only when it fits the battery too.
        if state.version_feasible(t, Version::Primary, j) {
            let primary = state.plan_with(t, Version::Primary, j, placement, &mut scratch);
            let primary_obj = plan_objective(state, objective, &primary);
            // Ties go to the primary: T100 is the study's objective.
            if primary_obj >= best.objective {
                best = PoolEntry {
                    task: t,
                    version: Version::Primary,
                    plan: primary,
                    objective: primary_obj,
                };
            }
        }
        pool.push(best);
    }

    // Maximum objective first; deterministic tie-break on task id (the
    // [`Pool`] sort invariant).
    pool.sort_by(|a, b| {
        b.objective
            .partial_cmp(&a.objective)
            .expect("objective values are finite")
            .then(a.task.cmp(&b.task))
    });
    Pool::from_sorted(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use lagrange::weights::Weights;

    fn scenario() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0)
    }

    fn obj(alpha: f64, beta: f64) -> Objective {
        Objective::paper(Weights::new(alpha, beta).unwrap())
    }

    #[test]
    fn pool_contains_only_ready_tasks() {
        let sc = scenario();
        let state = SimState::new(&sc);
        let pool = build_pool_with(&state, &obj(0.6, 0.2), MachineId(0), Time::ZERO);
        assert!(!pool.is_empty());
        for e in &pool {
            assert!(sc.dag.parents(e.task).is_empty(), "only roots are ready");
        }
        assert_eq!(pool.len(), state.ready_tasks().len());
    }

    #[test]
    fn pool_is_sorted_by_objective_desc() {
        let sc = scenario();
        let state = SimState::new(&sc);
        let pool = build_pool_with(&state, &obj(0.6, 0.2), MachineId(2), Time::ZERO);
        for w in pool.windows(2) {
            assert!(w[0].objective >= w[1].objective);
        }
    }

    #[test]
    fn high_alpha_selects_primaries() {
        let sc = scenario();
        let state = SimState::new(&sc);
        // α = 1: only T100 matters, primary always wins when feasible.
        let pool = build_pool_with(&state, &obj(1.0, 0.0), MachineId(0), Time::ZERO);
        assert!(pool.iter().all(|e| e.version == Version::Primary));
    }

    #[test]
    fn high_beta_selects_secondaries() {
        let sc = scenario();
        let state = SimState::new(&sc);
        // β = 1: only energy matters, the 10x cheaper secondary wins on
        // the energy-expensive fast machine.
        let pool = build_pool_with(&state, &obj(0.0, 1.0), MachineId(0), Time::ZERO);
        assert!(pool.iter().all(|e| e.version == Version::Secondary));
    }

    #[test]
    fn plans_respect_now() {
        let sc = scenario();
        let state = SimState::new(&sc);
        let now = Time::from_seconds(50);
        let pool = build_pool_with(&state, &obj(0.6, 0.2), MachineId(1), now);
        for e in &pool {
            assert!(e.plan.start >= now);
        }
    }

    #[test]
    fn energy_gate_empties_pool_on_drained_machine() {
        let sc = scenario();
        let mut state = SimState::new(&sc);
        // Drain machine 2 (slow, 58 eu) by mapping primaries onto it until
        // the pool rejects everything.
        let mut guard = 0;
        loop {
            let pool = build_pool_with(&state, &obj(1.0, 0.0), MachineId(2), Time::ZERO);
            let Some(e) = pool.first() else { break };
            state.commit(&e.plan);
            guard += 1;
            assert!(guard < 64, "drain did not terminate");
        }
        // Either all tasks mapped (energy was ample) or the gate closed.
        if !state.all_mapped() {
            let pool = build_pool_with(&state, &obj(1.0, 0.0), MachineId(2), Time::ZERO);
            assert!(pool.is_empty());
            assert!(!state.ready_tasks().is_empty());
        }
    }
}
