//! Full ad hoc churn: machines joining *and* leaving mid-run.
//!
//! ```text
//! cargo run --release --example ad_hoc_churn
//! ```
//!
//! The paper's opening scenario — assets that "appear and disappear from
//! the grid at unanticipated times" — end to end: a Case A grid starts
//! with only one fast and one slow machine; the second fast machine joins
//! a quarter of the way in, the second slow machine joins halfway; then
//! the *first* fast machine dies at the three-quarter mark. SLRH-1 maps
//! through all of it, and the run is validated against both the physical
//! model and the churn timeline.

use lrh_grid::grid::{GridCase, MachineId, Scenario, ScenarioParams, Time};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::trace::Trace;
use lrh_grid::sim::validate::validate;
use lrh_grid::slrh::{
    run_slrh, run_slrh_churn, MachineArrivalEvent, MachineLossEvent, SlrhConfig, SlrhVariant,
};

fn main() {
    let params = ScenarioParams::paper_scaled(192);
    let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
    let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
    let tau = scenario.tau;

    let arrivals = [
        MachineArrivalEvent {
            machine: MachineId(1), // second fast machine
            at: Time(tau.0 / 4),
        },
        MachineArrivalEvent {
            machine: MachineId(3), // second slow machine
            at: Time(tau.0 / 2),
        },
    ];
    let losses = [MachineLossEvent {
        machine: MachineId(0), // first fast machine dies late
        at: Time(3 * tau.0 / 4),
    }];

    println!("churn timeline (tau = {:.0}s):", tau.as_seconds());
    for a in &arrivals {
        println!("  t = {:>6.0}s  {} joins", a.at.as_seconds(), a.machine);
    }
    for l in &losses {
        println!("  t = {:>6.0}s  {} dies", l.at.as_seconds(), l.machine);
    }

    let stable = run_slrh(&scenario, &config).metrics();
    let out = run_slrh_churn(&scenario, &config, &losses, &arrivals);
    let m = out.metrics();

    println!(
        "\nstable grid : mapped {}/{}, T100 = {}",
        stable.mapped, stable.tasks, stable.t100
    );
    println!(
        "under churn : mapped {}/{}, T100 = {} ({} mappings invalidated by the loss)",
        m.mapped,
        m.tasks,
        m.t100,
        out.disruptions.iter().map(|&(_, n)| n).sum::<usize>()
    );

    // The state records each machine's window (joined, lost), so one
    // call checks the physical model and the churn timeline.
    let errs = validate(&out.state);
    assert!(errs.is_empty(), "validation failed: {errs:?}");
    println!("validated: physical model, arrival times, loss times — OK\n");

    let trace = Trace::from_state(&out.state);
    println!("occupation under churn (note m1/m3 idle heads, m0 idle tail):");
    print!("{}", trace.render_gantt(out.state.schedule(), 64));
}
