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
//! Both run under [`Ticking`], which switches wake-time elision off: the
//! oracle loop sweeps every tick the product loop skips, so the
//! differentials also prove the skips exact (DESIGN.md §19).
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
/// included: both reference loops run under [`Ticking`], so they sweep
/// every tick the product loop elides. The work counters legitimately
/// differ.
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
        Kind::Scratch => drive_segments(
            state,
            config,
            losses,
            &mut Ticking(Scratch),
            Time::ZERO,
            observer,
        ),
        Kind::Resort => {
            let mut resort = Ticking(Frontier::new(&state).resort_only());
            drive_segments(state, config, losses, &mut resort, Time::ZERO, observer)
        }
    }
}

/// Kernel `K` with wake-time elision off: the loop sweeps every tick,
/// all-busy ones included, and never asks for a wake time.
pub(crate) struct Ticking<K>(pub(crate) K);

impl<K: Kernel> Kernel for Ticking<K> {
    const ELIDES: bool = false;

    fn apply(&mut self, newly_ready: &[TaskId]) {
        self.0.apply(newly_ready);
    }

    fn recycle(&mut self, plan: MappingPlan) {
        self.0.recycle(plan);
    }

    fn best_startable(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        self.0
            .best_startable(state, objective, j, now, horizon_end, stats)
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
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        let pool = build_pool_with(state, objective, j, now);
        stats.queries += 1;
        stats.candidates_evaluated += pool.len() as u64;
        pool.first_startable(horizon_end).map(|e| e.plan.clone())
    }
}
