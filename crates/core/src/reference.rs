//! Reference oracles for the candidate-selection kernel.
//!
//! Every product driver selects candidates through the cached-order
//! frontier. This module drives the *same* clock loop, churn segments
//! and loss cascades over two independent answers to "best startable
//! candidate for machine `j` now", so differential tests can pin the
//! kernel without trusting it:
//!
//! * [`Kind::Scratch`] — the paper's definition: rebuild the whole
//!   candidate pool from the ready set on every query
//!   ([`crate::pool::build_pool_with`]) and take its first startable
//!   entry. Shares no code with the frontier, which must replay it
//!   bit for bit.
//! * [`Kind::Resort`] — the frontier with every cached bound order
//!   shed, so each query re-gates, re-bounds and re-sorts the ready
//!   set from scratch. Same membership as the product kernel, none of
//!   its view caching.
//!
//! SLRH-2 and the stuck check read the state, so under SLRH-2 all three
//! kernels run the same code; the frozen order's oracle is `mapper`'s
//! `slrh2_order_is_the_pool_inside_the_horizon` proptest.
//!
//! Nothing here is reachable from an [`SlrhConfig`] field, a config
//! string, a wire key or a CLI flag; the callers are the stress
//! harness, the proptests, the golden fixtures and the scale benchmark.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::plan::MappingPlan;
use gridsim::state::SimState;
use lagrange::weights::Objective;

use crate::config::SlrhConfig;
use crate::context::RunContext;
use crate::dynamic::{drive_segments, Churn};
use crate::frontier::Frontier;
use crate::mapper::{Kernel, RunStats, SlrhOutcome, TickEvent};
use crate::pool::build_pool_with;

/// Which reference kernel to run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Kind {
    /// The from-scratch pool walk.
    Scratch,
    /// The frontier with every view shed to the per-query resort scan.
    Resort,
}

/// [`crate::mapper::run_slrh_with`] with the candidate kernel replaced
/// by reference `kind`. Schedule, metrics, disruptions, `clock_steps` and
/// `commits` must equal the product run's — and so must the
/// [`TickEvent`] stream `observer` sees, tick for tick, adapted weights
/// included: neither reference kernel ever hands the loop a wake time,
/// so they run every sweep the product loop elides. The work counters
/// legitimately differ.
pub fn run<'a>(
    kind: Kind,
    scenario: &'a Scenario,
    config: &SlrhConfig,
    churn: &Churn,
    ctx: &mut RunContext,
    observer: Option<&mut dyn FnMut(TickEvent)>,
) -> SlrhOutcome<'a> {
    let state = churn.initial_state(scenario, ctx);
    let losses = churn.losses();
    match kind {
        Kind::Scratch => drive_segments(state, config, losses, &mut Scratch, Time::ZERO, observer),
        Kind::Resort => {
            let mut frontier = Frontier::new(&state).resort_only();
            drive_segments(state, config, losses, &mut frontier, Time::ZERO, observer)
        }
    }
}

/// The stateless from-scratch kernel: every query rebuilds the pool.
struct Scratch;

impl Kernel for Scratch {
    fn apply(&mut self, _newly_ready: &[TaskId]) {}

    fn best_startable(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        allow_secondary: bool,
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        let pool = build_pool_with(state, objective, j, now, allow_secondary);
        stats.queries += 1;
        stats.candidates_evaluated += pool.len() as u64;
        pool.first_startable(horizon_end).map(|e| e.plan.clone())
    }

    /// Stateless: nothing is remembered, so nothing is proven. Keeps
    /// the oracle ticking every tick, which is what makes its
    /// `clock_steps`/`queries`/event-stream differentials against the
    /// eliding product loop a proof that elision is exact.
    fn wake(&self, _state: &SimState<'_>, _j: MachineId) -> Option<Time> {
        None
    }
}
