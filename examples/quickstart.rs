//! Quickstart: map one workload with the SLRH-1 heuristic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a paper-shaped scenario (Case A grid: two notebook-class and
//! two PDA-class machines; 256 communicating subtasks with primary and
//! 10 %-cost secondary versions), runs the Simplified Lagrangian Receding
//! Horizon heuristic with paper-default ΔT and horizon, validates the
//! resulting schedule against the physical model, and prints the metrics
//! the paper reports.

use lrh_grid::grid::{GridCase, Scenario, ScenarioParams};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::validate::validate;
use lrh_grid::{run_slrh, SlrhConfig, SlrhVariant};

fn main() {
    // A reduced-scale paper workload: |T| = 256 subtasks, deadline and
    // batteries scaled so the energy/time trade-off matches the paper's.
    let params = ScenarioParams::paper_scaled(256);
    let scenario = Scenario::generate(&params, GridCase::A, /*etc_id*/ 0, /*dag_id*/ 0);
    println!(
        "scenario: {} subtasks on {} machines, tau = {}, TSE = {}",
        scenario.tasks(),
        scenario.grid.len(),
        scenario.tau,
        scenario.grid.total_system_energy(),
    );

    // Objective weights: alpha rewards primary versions, beta penalizes
    // energy, gamma = 1 - alpha - beta rewards using the available time.
    // (0.5, 0.3) is a constraint-compliant point for this scenario; the
    // paper tunes the pair per scenario — see `repro fig3`.
    let weights = Weights::new(0.5, 0.3).expect("weights on the simplex");
    // The paper defaults (ΔT = 10, H = 100); the `with_*` setters
    // override one knob each and validate as they go.
    let config = SlrhConfig::paper(SlrhVariant::V1, weights);

    let outcome = run_slrh(&scenario, &config);
    let m = outcome.metrics();
    println!(
        "SLRH-1 mapped {}/{} subtasks, T100 = {} primaries ({:.1}%)",
        m.mapped,
        m.tasks,
        m.t100,
        100.0 * m.t100_fraction()
    );
    println!(
        "AET = {:.0}s of tau = {:.0}s, TEC = {:.1} of TSE = {:.1} energy units",
        m.aet.as_seconds(),
        m.tau.as_seconds(),
        m.tec.units(),
        m.tse.units()
    );
    println!(
        "heuristic work: {} clock steps, {} kernel queries, {} candidates planned",
        outcome.stats.clock_steps, outcome.stats.queries, outcome.stats.candidates_evaluated
    );

    // Every example double-checks its schedule against the independent
    // validator (precedence, link capacity, machine exclusivity, energy).
    let errors = validate(&outcome.state);
    assert!(errors.is_empty(), "validation failed: {errors:?}");
    println!(
        "schedule validated: OK; constraints met: {}",
        m.constraints_met()
    );
}
