//! Execution traces and Gantt charts: the §IV "historical record of all
//! critical parameters".
//!
//! ```text
//! cargo run --release --example trace_gantt
//! ```
//!
//! Maps a small workload with SLRH-1 and reconstructs the execution
//! history: an ASCII Gantt chart of machine occupation, per-machine
//! utilisation and battery summaries, and the battery drain series of the
//! busiest machine.

use lrh_grid::grid::{GridCase, Scenario, ScenarioParams};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::trace::Trace;
use lrh_grid::slrh::{run_slrh, SlrhConfig, SlrhVariant};

fn main() {
    let params = ScenarioParams::paper_scaled(96);
    let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
    let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
    let outcome = run_slrh(&scenario, &config);
    let m = outcome.metrics();
    println!(
        "SLRH-1 on Case A, |T| = {}: T100 = {}, AET = {:.0}s\n",
        m.tasks,
        m.t100,
        m.aet.as_seconds()
    );

    let trace = Trace::from_state(&outcome.state);
    println!("compute occupation over [0, AET):");
    print!("{}", trace.render_gantt(outcome.state.schedule(), 64));

    println!("\nper-machine summary:");
    for s in trace.machine_summaries() {
        let spec = scenario.grid.machine(s.machine);
        println!(
            "  {} ({}): {:>3} tasks, busy {:>7.0}s, used {:>6.2} of {:>6.2} eu",
            s.machine,
            spec.class.label(),
            s.tasks,
            s.busy.as_seconds(),
            s.energy_used.units(),
            spec.battery.units()
        );
    }

    // Battery drain of the machine that did the most work.
    let busiest = trace
        .machine_summaries()
        .iter()
        .max_by(|a, b| a.energy_used.partial_cmp(&b.energy_used).unwrap())
        .expect("grid is non-empty");
    let series = trace.battery_series(
        busiest.machine,
        scenario.grid.machine(busiest.machine).battery,
    );
    println!(
        "\nbattery drain on {} ({} drains, showing every {}th):",
        busiest.machine,
        series.len() - 1,
        (series.len() / 8).max(1)
    );
    for (t, level) in series.iter().step_by((series.len() / 8).max(1)) {
        let full = scenario.grid.machine(busiest.machine).battery;
        let bars = ((level.units() / full.units()) * 40.0) as usize;
        println!(
            "  t = {:>7.0}s  [{}{}] {:>6.2} eu",
            t.as_seconds(),
            "█".repeat(bars),
            " ".repeat(40 - bars),
            level.units()
        );
    }

    println!(
        "\nevents recorded: {} (execution and transfer starts/ends)",
        trace.events().len()
    );
}
