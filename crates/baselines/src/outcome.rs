//! Shared result type for the static baselines.

use gridsim::metrics::Metrics;
use gridsim::state::SimState;

/// The result of a static mapping run.
#[derive(Debug)]
pub struct StaticOutcome<'a> {
    /// Final simulation state (schedule, ledger, metrics).
    pub state: SimState<'a>,
    /// Number of candidate (task, version, machine) plans evaluated — the
    /// host-independent work proxy, comparable to the SLRH run stats.
    pub candidates_evaluated: u64,
}

impl StaticOutcome<'_> {
    /// The run's metrics.
    pub fn metrics(&self) -> Metrics {
        self.state.metrics()
    }
}
