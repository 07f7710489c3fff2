//! Reusable per-run storage for campaign-style drivers.
//!
//! A single SLRH (or baseline) run allocates a [`SimState`]'s dozen-odd
//! backing vectors plus the candidate frontier's per-task and
//! per-(task, machine) tables and planner scratch. The Figure 3 weight
//! search executes *hundreds* of complete runs per scenario, the
//! campaign thousands overall, and an open-system stream one run per
//! arriving job, so that per-run churn dominates the allocator. A
//! [`RunContext`] owns all of it once: build each run's state on the
//! context ([`RunContext::state`]), run, snapshot what you need, and
//! hand the state back ([`RunContext::reclaim`]) so the next run
//! recycles the same footprint.
//!
//! # Why reuse cannot leak state between runs
//!
//! The context carries **capacity, never content**: every run begins by
//! resetting each buffer from the scenario ([`SimState::new_in`],
//! `Frontier::reset`), re-deriving all values exactly as the fresh
//! constructors do. What one scenario fixes for all its runs — its
//! `ScenarioTables` — is content, so it never rides in the context: a
//! driver that maps a scenario many times builds the tables once and
//! lends them by borrow ([`RunContext::state_on`]). The golden differential suite
//! (`grid-sweep/tests/golden_run_context.rs`) pins byte-identical
//! campaign and weight-search reports against pre-reuse references, at
//! 1 and 4 worker threads, and the stress harness compares a fresh
//! context against a campaign-long one on every case.

use adhoc_grid::workload::Scenario;
use gridsim::state::{SimState, StateBuffers};
use gridsim::tables::ScenarioTables;

use crate::frontier::Frontier;

/// Every buffer a heuristic run needs, reusable across consecutive runs.
///
/// A context is plain storage with no run-to-run semantics: using one
/// context for a thousand runs and a fresh context per run produce
/// bit-identical results. Forgetting to [`reclaim`](RunContext::reclaim)
/// a run's state merely forfeits the reuse (the next run re-allocates);
/// it can never corrupt results.
#[derive(Default)]
pub struct RunContext {
    buffers: StateBuffers,
    frontier: Frontier,
}

impl RunContext {
    /// An empty context. Cheap: no buffer is sized until first use.
    pub fn new() -> RunContext {
        RunContext::default()
    }

    /// Build a fresh [`SimState`] for `scenario` on this context's
    /// donated buffers — equivalent to [`SimState::new`] in every
    /// observable way. Hand the state back with
    /// [`RunContext::reclaim`] when the run is finished.
    pub fn state<'a>(&mut self, scenario: &'a Scenario) -> SimState<'a> {
        SimState::new_in(scenario, std::mem::take(&mut self.buffers))
    }

    /// [`RunContext::state`] reading the scenario's static tables from
    /// `tables` ([`SimState::with_tables`]): for a driver that maps one
    /// scenario many times and builds its tables once.
    pub fn state_on<'a>(&mut self, tables: &'a ScenarioTables<'a>) -> SimState<'a> {
        SimState::with_tables(tables, std::mem::take(&mut self.buffers))
    }

    /// The raw state buffers, for drivers that construct their own
    /// [`SimState`] via [`SimState::new_in`] (the baseline crate's
    /// `run_*_in` entry points take these without depending on `slrh`).
    pub fn buffers_mut(&mut self) -> &mut StateBuffers {
        &mut self.buffers
    }

    /// Reclaim the backing storage of a finished run's state. The run's
    /// results are discarded — snapshot metrics first.
    pub fn reclaim(&mut self, state: SimState<'_>) {
        self.buffers = state.into_buffers();
    }

    /// The context's candidate frontier, re-synchronised to `state` for
    /// a new run (see `Frontier::reset`).
    pub(crate) fn frontier_for(&mut self, state: &SimState<'_>) -> &mut Frontier {
        self.frontier.reset(state);
        &mut self.frontier
    }
}
