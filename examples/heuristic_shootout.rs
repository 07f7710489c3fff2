//! Every mapper in the workspace on one workload, side by side.
//!
//! ```text
//! cargo run --release --example heuristic_shootout
//! ```
//!
//! Runs the paper's heuristics (SLRH-1/2/3, Max-Max) and the context
//! baselines (greedy MCT, Lagrangian-relaxation list scheduling, DBC
//! cost) on the same Case A scenario, printing the paper's metrics
//! plus the §VI upper bound, wall-clock time and the Figure 7 value
//! metric. EXPERIMENTS.md ("Context baselines") records the same
//! baselines over the full suite, where none of them meets τ.

use lrh_grid::bounds::upper_bound;
use lrh_grid::grid::{GridCase, Scenario, ScenarioParams};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sweep::heuristic::Heuristic;
use lrh_grid::sweep::report::{fmt_duration, Table};

fn main() {
    let params = ScenarioParams::paper_scaled(256);
    let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
    let weights = Weights::new(0.5, 0.25).unwrap();
    let ub = upper_bound(&scenario.etc, &scenario.grid, scenario.tau);
    println!(
        "Case A, |T| = {}, tau = {:.0}s, upper bound on T100 = {} ({:?}-limited)\n",
        scenario.tasks(),
        scenario.tau.as_seconds(),
        ub.t100,
        ub.limit
    );

    let mut table = Table::new([
        "heuristic",
        "mapped",
        "T100",
        "T100/UB",
        "AET (s)",
        "TEC (eu)",
        "time",
        "T100/sec",
    ]);
    for h in Heuristic::ALL {
        let r = h.run(&scenario, weights);
        assert!(r.valid, "{h} produced an invalid schedule");
        let m = r.metrics;
        table.row([
            h.name().to_string(),
            format!("{}/{}", m.mapped, m.tasks),
            m.t100.to_string(),
            format!("{:.3}", m.t100 as f64 / ub.t100 as f64),
            format!("{:.0}", m.aet.as_seconds()),
            format!("{:.1}", m.tec.units()),
            fmt_duration(r.wall),
            format!("{:.0}", r.t100_per_second()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\n(all at the same untuned weights {weights}; the paper tunes (α, β) per\n\
         scenario — run `cargo run -p bench --release --bin repro -- fig3` for that)"
    );
}
