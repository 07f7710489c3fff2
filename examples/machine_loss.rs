//! Ad hoc machine loss: the scenario the paper's introduction motivates.
//!
//! ```text
//! cargo run --release --example machine_loss
//! ```
//!
//! Runs SLRH-1 on a Case A grid and, a quarter of the way to the deadline,
//! drops one machine. Everything disrupted by the loss — executions killed
//! mid-flight, data stranded on the vanished machine, descendants of
//! re-executed subtasks — is invalidated and remapped on the fly by the
//! continuing clock loop. Compares against the undisturbed run and the
//! static "Case B/C-style" grid that never had the machine.

use lrh_grid::grid::{GridCase, MachineId, Scenario, ScenarioParams, Time};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::validate::validate;
use lrh_grid::slrh::{run_slrh, run_slrh_churn, MachineLossEvent, SlrhConfig, SlrhVariant};

fn main() {
    let params = ScenarioParams::paper_scaled(256);
    let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
    let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).unwrap());

    // Undisturbed baseline.
    let baseline = run_slrh(&scenario, &config);
    let bm = baseline.metrics();
    println!(
        "undisturbed Case A: mapped {}/{}, T100 = {}, AET = {:.0}s",
        bm.mapped,
        bm.tasks,
        bm.t100,
        bm.aet.as_seconds()
    );

    // Lose machines of each class a quarter of the way in.
    for (label, machine) in [
        ("fast machine m0", MachineId(0)),
        ("slow machine m3", MachineId(3)),
    ] {
        let at = Time(scenario.tau.0 / 4);
        let events = [MachineLossEvent { machine, at }];
        let out = run_slrh_churn(&scenario, &config, &events, &[]);
        let m = out.metrics();
        let (when, invalidated) = out.disruptions[0];
        println!(
            "\nlosing {label} at {:.0}s: {} mappings invalidated and remapped",
            when.as_seconds(),
            invalidated
        );
        println!(
            "  result: mapped {}/{}, T100 = {} (vs {} undisturbed), AET = {:.0}s",
            m.mapped,
            m.tasks,
            m.t100,
            bm.t100,
            m.aet.as_seconds()
        );
        // The state records the loss, so one call checks the schedule
        // and that nothing outlives the machine.
        let errors = validate(&out.state);
        assert!(errors.is_empty(), "validation failed: {errors:?}");
        println!("  schedule + loss-consistency validated: OK");
    }

    println!(
        "\n(the dynamic heuristic keeps a valid schedule through the loss — the paper's\n\
         Cases B and C approximate this by statically removing the machine up front)"
    );
}
