//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <target> [--full]
//!
//! targets:
//!   table1 table2 table3 table4        the paper's tables
//!   fig2 fig3 fig4 fig5 fig6 fig7      the paper's figures
//!   ablate-gamma-sign ablate-comm      ablations beyond the paper
//!   ablate-horizon ablate-adaptive
//!   ablate-consistency
//!   all                                everything above in order
//! ```
//!
//! By default experiments run at a reduced scale (|T| = 256, 3 ETC × 3
//! DAG) that preserves every qualitative shape; `--full` runs the paper's
//! |T| = 1024 with the 10 × 10 suite and 0.1/0.02 weight search; `--etcs
//! N` / `--dags N` override the suite dimensions at either scale.

use std::time::Instant;

use adhoc_grid::config::{GridCase, GridConfig};
use adhoc_grid::etc_gen;
use adhoc_grid::machine::{paper_constants, MachineSpec};
use adhoc_grid::seed::{self, stream};
use adhoc_grid::workload::Scenario;
use bench::Scale;
use grid_bounds::{min_ratio_stats, upper_bound, upper_bound_sound};
use grid_sweep::ablate;
use grid_sweep::campaign::{run_campaign, CampaignConfig};
use grid_sweep::dt_sweep::{dt_sweep, horizon_sweep};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::report::{fmt3, fmt_duration, BarChart, Table};
use grid_sweep::weight_search::{optimal_weights_with_steps, weight_stats};
use lagrange::weights::Weights;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut scale = if full { Scale::Full } else { Scale::Reduced };
    // Optional suite-size overrides, e.g. `--etcs 2 --dags 2` to run a
    // smaller cross product at the chosen task scale.
    let flag = |name: &str| -> Option<usize> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    if let Some(e) = flag("--etcs") {
        scale = scale.with_etc_count(e);
    }
    if let Some(d) = flag("--dags") {
        scale = scale.with_dag_count(d);
    }
    let target = args
        .iter()
        .find(|a| !a.starts_with("--") && a.parse::<usize>().is_err())
        .map(String::as_str)
        .unwrap_or("help");

    let started = Instant::now();
    match target {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(scale),
        "table4" => table4(scale),
        "fig2" => fig2(scale),
        "fig3" => fig3(scale),
        "fig4" | "fig5" | "fig6" | "fig7" => figs4_to_7(scale),
        "ablate-gamma-sign" => ablate_gamma_sign(scale),
        "ablate-comm" => ablate_comm(scale),
        "ablate-horizon" => ablate_horizon(scale),
        "ablate-adaptive" => ablate_adaptive(scale),
        "ablate-consistency" => ablate_consistency(scale),
        "all" => {
            table1();
            table2();
            table3(scale);
            table4(scale);
            fig2(scale);
            fig3(scale);
            figs4_to_7(scale);
            ablate_gamma_sign(scale);
            ablate_comm(scale);
            ablate_horizon(scale);
            ablate_adaptive(scale);
            ablate_consistency(scale);
        }
        _ => {
            eprintln!(
                "usage: repro <table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|\
                 ablate-gamma-sign|ablate-comm|ablate-horizon|ablate-adaptive|ablate-consistency|all> [--full]"
            );
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[{}] done in {}",
        scale.label(),
        fmt_duration(started.elapsed())
    );
}

fn heading(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Table 1: simulation configurations.
fn table1() {
    heading("Table 1. Simulation configurations");
    let mut t = Table::new([
        "Configuration",
        "# \"Fast\" Machines",
        "# \"Slow\" Machines",
    ]);
    for case in GridCase::ALL {
        let (f, s) = case.counts();
        t.row([case.name().to_string(), f.to_string(), s.to_string()]);
    }
    print!("{}", t.render());
}

/// Table 2: machine parameters.
fn table2() {
    heading("Table 2. B(j), C(j), E(j), BW(j) for fast and slow machines");
    let fast = MachineSpec::fast();
    let slow = MachineSpec::slow();
    let mut t = Table::new(["", "\"Fast\" Machines", "\"Slow\" Machines"]);
    t.row([
        "B(j)".to_string(),
        format!("{} energy units", fast.battery.units()),
        format!("{} energy units", slow.battery.units()),
    ]);
    t.row([
        "C(j)".to_string(),
        format!("{} eu/sec", fast.comm_power),
        format!("{} eu/sec", slow.comm_power),
    ]);
    t.row([
        "E(j)".to_string(),
        format!("{} eu/sec", fast.compute_power),
        format!("{} eu/sec", slow.compute_power),
    ]);
    t.row([
        "BW(j)".to_string(),
        format!("{} megabits/sec", fast.bandwidth_mbps),
        format!("{} megabits/sec", slow.bandwidth_mbps),
    ]);
    print!("{}", t.render());
}

fn etc_suite(scale: Scale, case: GridCase) -> Vec<adhoc_grid::etc::EtcMatrix> {
    let params = scale.params();
    (0..scale.etc_count())
        .map(|e| {
            let s = seed::derive2(params.master_seed, stream::ETC, e as u64);
            etc_gen::generate_for_case(&params.etc, case, s)
        })
        .collect()
}

/// Table 3: average minimum relative speed per machine per case.
fn table3(scale: Scale) {
    heading("Table 3. Average minimum relative speed MR(j) (mean (std))");
    let mut t = Table::new(["Case", "Fast m1", "Slow m1", "Slow m2"]);
    for case in GridCase::ALL {
        let stats = min_ratio_stats(&etc_suite(scale, case));
        // Column 0 is the reference machine (MR <= 1 by construction);
        // report the non-reference machines as the paper does.
        let cell = |idx: usize| -> String {
            stats
                .get(idx)
                .map(|(m, s)| format!("{m:.2} ({s:.2})"))
                .unwrap_or_else(|| "-".into())
        };
        match case {
            GridCase::A | GridCase::B => {
                t.row([
                    case.name().to_string(),
                    cell(1),
                    cell(2),
                    if case == GridCase::A {
                        cell(3)
                    } else {
                        "-".into()
                    },
                ]);
            }
            GridCase::C => {
                // Case C keeps one fast machine (the reference) + 2 slow.
                t.row([case.name().to_string(), "-".into(), cell(1), cell(2)]);
            }
        }
    }
    print!("{}", t.render());
    println!(
        "(paper: fast ~0.26-0.28, slow ~1.55-1.74; reference machine 0 is fast in every case)"
    );
}

/// Table 4: the upper bound per ETC per case.
fn table4(scale: Scale) {
    heading("Table 4. Upper bound on T100 per ETC matrix");
    let params = scale.params();
    let mut t = Table::new([
        "ETC",
        "Case A (2 fast, 2 slow)",
        "Case B (2 fast, 1 slow)",
        "Case C (1 fast, 2 slow)",
        "C sound-bound",
    ]);
    for e in 0..scale.etc_count() {
        let s = seed::derive2(params.master_seed, stream::ETC, e as u64);
        let mut cells = vec![e.to_string()];
        for case in GridCase::ALL {
            let etc = etc_gen::generate_for_case(&params.etc, case, s);
            let ub = upper_bound(&etc, &GridConfig::case(case), params.tau);
            cells.push(ub.t100.to_string());
        }
        let etc_c = etc_gen::generate_for_case(&params.etc, GridCase::C, s);
        cells.push(
            upper_bound_sound(&etc_c, &GridConfig::case(GridCase::C), params.tau).to_string(),
        );
        t.row(cells);
    }
    print!("{}", t.render());
    println!(
        "(paper at |T|=1024: A and B saturate at 1024, C averages ~790 and is cycles-limited)"
    );
}

fn tuned_weights(scale: Scale, sc: &Scenario) -> Weights {
    let (coarse, fine) = scale.search_steps();
    optimal_weights_with_steps(Heuristic::Slrh1, sc, coarse, fine)
        .map(|o| o.weights)
        .unwrap_or_else(|| Weights::new(0.5, 0.3).expect("fallback weights"))
}

/// Figure 2: ΔT sensitivity of SLRH-1 (T100 and execution time).
fn fig2(scale: Scale) {
    heading("Figure 2. Impact of dT on SLRH-1 (ETC 0, DAGs 0 and 1, Case A)");
    let params = scale.params();
    let dts = [1u64, 2, 5, 10, 20, 50, 100, 200, 500];
    let mut t = Table::new([
        "dT (cycles)",
        "T100 (DAG 0)",
        "time (DAG 0)",
        "T100 (DAG 1)",
        "time (DAG 1)",
    ]);
    let mut rows: Vec<Vec<String>> = dts.iter().map(|d| vec![d.to_string()]).collect();
    for dag in [0usize, 1] {
        let sc = Scenario::generate(&params, GridCase::A, 0, dag.min(scale.dag_count() - 1));
        let w = tuned_weights(scale, &sc);
        for (i, p) in dt_sweep(&sc, w, &dts).iter().enumerate() {
            rows[i].push(p.t100.to_string());
            rows[i].push(fmt_duration(p.wall));
        }
    }
    for r in rows {
        t.row(r);
    }
    print!("{}", t.render());
    println!("(paper: T100 flat for mid-range dT; execution time explodes for small dT)");
}

/// Figure 3: optimal (α, β) statistics per heuristic per case.
fn fig3(scale: Scale) {
    heading("Figure 3. Optimal objective weights (avg [min, max])");
    let set = scale.set();
    let (coarse, fine) = scale.search_steps();
    let mut t = Table::new([
        "Heuristic",
        "Case",
        "alpha avg [min,max]",
        "beta avg [min,max]",
        "feasible",
    ]);
    for h in [
        Heuristic::Slrh1,
        Heuristic::Slrh3,
        Heuristic::MaxMax,
        Heuristic::Slrh2,
    ] {
        for case in GridCase::ALL {
            match weight_stats(h, case, &set, coarse, fine) {
                Some(ws) => {
                    t.row([
                        h.name().to_string(),
                        case.name().to_string(),
                        format!(
                            "{:.2} [{:.2}, {:.2}]",
                            ws.alpha.mean, ws.alpha.min, ws.alpha.max
                        ),
                        format!(
                            "{:.2} [{:.2}, {:.2}]",
                            ws.beta.mean, ws.beta.min, ws.beta.max
                        ),
                        format!("{}/{}", ws.feasible, ws.total),
                    ]);
                }
                None => {
                    t.row([
                        h.name().to_string(),
                        case.name().to_string(),
                        "-".into(),
                        "-".into(),
                        format!("0/{}", set.len()),
                    ]);
                }
            }
        }
    }
    print!("{}", t.render());
    println!("(paper: SLRH-1/3 cluster tightly, alpha shifts in Case C; Max-Max scatters; SLRH-2 rarely feasible)");
}

/// Figures 4–7: the campaign (T100, T100/UB, execution time, T100/time).
fn figs4_to_7(scale: Scale) {
    heading("Figures 4-7. Heuristic comparison at tuned weights");
    let (coarse, fine) = scale.search_steps();
    let cfg = CampaignConfig::paper(scale.set()).with_steps(coarse, fine);
    let rows = run_campaign(&cfg);
    let mut t = Table::new([
        "Heuristic",
        "Case",
        "mean T100 (Fig 4)",
        "T100/UB (Fig 5)",
        "exec time (Fig 6)",
        "T100/sec (Fig 7)",
        "feasible",
    ]);
    for r in &rows {
        t.row([
            r.heuristic.name().to_string(),
            r.case.name().to_string(),
            format!("{:.1}", r.mean_t100),
            fmt3(r.mean_ub_fraction),
            fmt_duration(r.mean_wall),
            format!("{:.1}", r.mean_t100_per_second),
            format!("{}/{}", r.feasible, r.total),
        ]);
    }
    print!("{}", t.render());

    // The paper's bar-figure renditions.
    type RowValue = fn(&grid_sweep::campaign::CaseRow) -> f64;
    let figs: [(&str, RowValue); 4] = [
        ("Figure 4: mean T100", |r| r.mean_t100),
        ("Figure 5: mean T100 / upper bound", |r| r.mean_ub_fraction),
        ("Figure 6: mean execution time (ms)", |r| {
            r.mean_wall.as_secs_f64() * 1e3
        }),
        ("Figure 7: T100 per second of heuristic time", |r| {
            r.mean_t100_per_second
        }),
    ];
    for (title, value) in figs {
        let mut chart = BarChart::new(title);
        for r in &rows {
            chart.bar(
                format!("{} {}", r.heuristic.name(), r.case.name()),
                value(r),
            );
        }
        println!("\n{}", chart.render(48));
    }

    println!(
        "(paper: SLRH-1 ~ Max-Max on Case A at ~60% of UB, both drop when a machine is lost,\n\
         SLRH-3 lower but loss-insensitive; Max-Max time ~case-independent; SLRH-1 wins Fig 7 in Case B)"
    );
}

fn ablate_gamma_sign(scale: Scale) {
    heading("Ablation A2. Sign of the gamma*AET/tau term (SLRH-1)");
    let params = scale.params();
    let mut t = Table::new(["Case", "sign", "T100", "mapped", "AET (s)", "TEC (eu)"]);
    for case in GridCase::ALL {
        let sc = Scenario::generate(&params, case, 0, 0);
        let w = tuned_weights(scale, &sc);
        let (pos, neg) = ablate::gamma_sign(&sc, w);
        for (sign, m) in [("+ (paper)", pos), ("-", neg)] {
            t.row([
                case.name().to_string(),
                sign.to_string(),
                m.t100.to_string(),
                m.mapped.to_string(),
                format!("{:.0}", m.aet.as_seconds()),
                format!("{:.1}", m.tec.units()),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(paper's claim: the negative sign yields shorter AET but lower T100)");
}

fn ablate_comm(scale: Scale) {
    heading("Ablation A1. Communication scale (SLRH-1, Case A)");
    let params = scale.params();
    let sc = Scenario::generate(&params, GridCase::A, 0, 0);
    let w = tuned_weights(scale, &sc);
    let mut t = Table::new(["data scale", "T100", "mapped", "AET (s)", "TEC (eu)"]);
    for (k, m) in ablate::comm_scale(&params, GridCase::A, 0, 0, w, &[1.0, 10.0, 100.0, 1000.0]) {
        t.row([
            format!("x{k}"),
            m.t100.to_string(),
            m.mapped.to_string(),
            format!("{:.0}", m.aet.as_seconds()),
            format!("{:.1}", m.tec.units()),
        ]);
    }
    print!("{}", t.render());
    println!("(paper's claim: at x1 communication energy is negligible)");
}

fn ablate_horizon(scale: Scale) {
    heading("Ablation A3. Horizon H sensitivity (SLRH-1, Case A)");
    let params = scale.params();
    let sc = Scenario::generate(&params, GridCase::A, 0, 0);
    let w = tuned_weights(scale, &sc);
    let mut t = Table::new(["H (cycles)", "T100", "mapped", "exec time"]);
    for p in horizon_sweep(&sc, w, &[10, 50, 100, 500, 2000, 10_000]) {
        t.row([
            p.value.to_string(),
            p.t100.to_string(),
            p.mapped.to_string(),
            fmt_duration(p.wall),
        ]);
    }
    print!("{}", t.render());
    println!("(paper's claim: negligible impact of H on both T100 and execution time)");
}

fn ablate_adaptive(scale: Scale) {
    heading("Ablation A4. Adaptive weights vs fixed (SLRH-1)");
    let params = scale.params();
    let default_w = Weights::new(0.5, 0.3).expect("static weights");
    let mut t = Table::new(["Case", "mode", "T100", "mapped", "AET (s)"]);
    for case in GridCase::ALL {
        let sc = Scenario::generate(&params, case, 0, 0);
        let tuned = tuned_weights(scale, &sc);
        let (d, tu, a) = ablate::adaptive_vs_fixed(&sc, default_w, tuned);
        for (mode, m) in [("fixed default", d), ("fixed tuned", tu), ("adaptive", a)] {
            t.row([
                case.name().to_string(),
                mode.to_string(),
                m.t100.to_string(),
                m.mapped.to_string(),
                format!("{:.0}", m.aet.as_seconds()),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(paper's future work: online alpha adjustment should recover tuned performance)");
}

fn ablate_consistency(scale: Scale) {
    heading("Ablation A7. ETC consistency class (SLRH-1)");
    let params = scale.params();
    let mut t = Table::new(["Case", "consistency", "T100", "mapped", "AET (s)"]);
    for case in GridCase::ALL {
        let sc = Scenario::generate(&params, case, 0, 0);
        let w = tuned_weights(scale, &sc);
        for (consistency, m) in ablate::consistency_classes(&params, case, 0, 0, w) {
            t.row([
                case.name().to_string(),
                format!("{consistency:?}"),
                m.t100.to_string(),
                m.mapped.to_string(),
                format!("{:.0}", m.aet.as_seconds()),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "(the paper's regime is inconsistent; consistent matrices fix the machine speed order)"
    );
}

const _: () = {
    // Compile-time reminder that the paper constants stay wired into the
    // binary: |T| and tau drive every full-scale target above.
    assert!(paper_constants::NUM_SUBTASKS == 1024);
    assert!(paper_constants::TAU_SECONDS == 34_075);
};
