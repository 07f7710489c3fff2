//! Beyond the paper's three cases: a custom ad hoc grid.
//!
//! ```text
//! cargo run --release --example custom_grid
//! ```
//!
//! Builds a grid the paper never studied — one notebook, one PDA, and a
//! hand-specified "sensor hub" machine (slow CPU, generous battery, fat
//! radio) — generates a matching workload, and maps it with SLRH-1 and
//! SLRH-3. Demonstrates the public API for custom machines, custom
//! generator parameters, and scenario assembly from parts.

use lrh_grid::grid::dag_gen::{self, DagGenParams};
use lrh_grid::grid::data::DataGenParams;
use lrh_grid::grid::etc_gen::{self, EtcGenParams};
use lrh_grid::grid::units::Energy;
use lrh_grid::grid::{
    Dag, DataSizes, EtcMatrix, GridCase, GridConfig, MachineClass, MachineSpec, Scenario, TaskId,
    Time,
};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::validate::validate_schedule;
use lrh_grid::{run_slrh, SlrhConfig, SlrhVariant};

fn main() {
    // A machine the paper's Table 2 does not have: slow-ish CPU, big
    // battery, 16 Mb/s radio.
    let sensor_hub = MachineSpec {
        class: MachineClass::Slow,
        battery: Energy(40.0),
        compute_power: 0.004,
        comm_power: 0.001,
        bandwidth_mbps: 16.0,
    };
    // Table 2's machines at the scaled suite's eighth of a battery.
    let eighth = |spec: MachineSpec| MachineSpec {
        battery: spec.battery * 0.125,
        ..spec
    };
    let grid = GridConfig::from_machines(vec![
        eighth(MachineSpec::fast()), // one notebook
        eighth(MachineSpec::slow()), // one PDA
        sensor_hub,
    ]);
    println!(
        "custom grid: {} machines, TSE = {}, min bandwidth {} Mb/s",
        grid.len(),
        grid.total_system_energy(),
        grid.min_bandwidth_mbps()
    );

    // Workload: 128 subtasks. ETC columns must match the machine classes;
    // generate for fast+slow+slow and assemble the scenario by hand.
    let tasks = 128;
    let etc: EtcMatrix = etc_gen::generate(
        &EtcGenParams::paper(tasks),
        &[MachineClass::Fast, MachineClass::Slow, MachineClass::Slow],
        42,
    );
    let dag: Dag = dag_gen::generate(&DagGenParams::paper(tasks), 42);
    let data = DataSizes::generate(&dag, &DataGenParams::paper(), 42);
    let scenario = Scenario {
        case: GridCase::C, // closest named case, for reporting only
        grid,
        etc,
        dag,
        data,
        tau: Time::from_seconds(6_000),
        etc_id: 0,
        dag_id: 0,
    };

    for variant in [SlrhVariant::V1, SlrhVariant::V3] {
        let config = SlrhConfig::paper(variant, Weights::new(0.5, 0.25).unwrap());
        let out = run_slrh(&scenario, &config);
        let m = out.metrics();
        println!(
            "{variant}: mapped {}/{}, T100 = {}, AET = {:.0}s / {:.0}s, TEC = {:.1}",
            m.mapped,
            m.tasks,
            m.t100,
            m.aet.as_seconds(),
            m.tau.as_seconds(),
            m.tec.units()
        );
        let errors = validate_schedule(&scenario, out.state.schedule());
        assert!(errors.is_empty(), "validation failed: {errors:?}");
    }

    // Where did work land? Machine utilisation summary.
    let out = run_slrh(
        &scenario,
        &SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).unwrap()),
    );
    println!("\nper-machine load (SLRH-1):");
    for j in scenario.grid.ids() {
        let (count, busy): (usize, f64) = out
            .state
            .schedule()
            .assignments()
            .filter(|a| a.machine == j)
            .fold((0, 0.0), |(c, b), a| (c + 1, b + a.dur.as_seconds()));
        let spec = scenario.grid.machine(j);
        println!(
            "  {j} ({}): {count} subtasks, {busy:.0}s busy, {:.2} of {} energy used",
            spec.class.label(),
            out.state.ledger().committed(j).units(),
            spec.battery
        );
    }
    let _ = TaskId(0); // (re-exported API surface touch for the docs)
}
