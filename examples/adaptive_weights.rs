//! On-the-fly multiplier adjustment — the paper's stated future work.
//!
//! ```text
//! cargo run --release --example adaptive_weights
//! ```
//!
//! The paper concludes (§VIII) that the T100 multiplier α "requires
//! adjustment whenever the system environment changes". This example runs
//! SLRH-1 three ways on each grid case:
//!
//! 1. fixed default weights (what a deployment that cannot re-tune uses),
//! 2. fixed per-case tuned weights (the paper's exhaustive search), and
//! 3. the adaptive controller: an `Adaptation` block on the same
//!    configuration, re-deriving the weights every 50 simulated seconds
//!    by projected dual ascent on the predicted energy/time constraint
//!    violations,
//!
//! and prints how close adaptation gets to the tuned optimum without any
//! per-case search. The weight trajectory is what an observer samples
//! from the loop's events at the adaptation ticks: the loop reports one
//! event per swept tick and one per span of ticks it slept through, and
//! a span starts at its only adaptation tick.

use lrh_grid::grid::{GridCase, Scenario, ScenarioParams};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::slrh::{
    run_slrh, run_slrh_with, Adaptation, Churn, RunContext, SlrhConfig, SlrhVariant, TickEvent,
};
use lrh_grid::sweep::heuristic::Heuristic;
use lrh_grid::sweep::weight_search::optimal_weights_with_steps;

fn main() {
    let params = ScenarioParams::paper_scaled(256);
    let default_weights = Weights::new(0.5, 0.3).unwrap();

    for case in GridCase::ALL {
        let scenario = Scenario::generate(&params, case, 0, 0);
        println!("\n== {case} ==");

        let fixed_cfg = SlrhConfig::paper(SlrhVariant::V1, default_weights);
        let fixed = run_slrh(&scenario, &fixed_cfg).metrics();
        println!(
            "fixed default {default_weights}: mapped {}/{} T100 {}",
            fixed.mapped, fixed.tasks, fixed.t100
        );

        let tuned_weights = optimal_weights_with_steps(Heuristic::Slrh1, &scenario, 0.2, 0.1)
            .map(|o| o.weights)
            .unwrap_or(default_weights);
        let tuned = run_slrh(
            &scenario,
            &SlrhConfig::paper(SlrhVariant::V1, tuned_weights),
        )
        .metrics();
        println!(
            "fixed tuned   {tuned_weights}: mapped {}/{} T100 {}",
            tuned.mapped, tuned.tasks, tuned.t100
        );

        // One step per 50 ticks of the loop: 500 clock cycles at ΔT = 10.
        let every = 50;
        let adaptive_cfg = fixed_cfg.with_adaptation(Adaptation {
            every,
            ..Adaptation::default()
        });
        let mut trace = Vec::new();
        let mut sample = |e: TickEvent| {
            if e.tick.is_multiple_of(every) {
                trace.push((e.clock, e.weights));
            }
        };
        let adaptive = run_slrh_with(
            &scenario,
            &adaptive_cfg,
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut sample),
        );
        let am = adaptive.metrics();
        println!(
            "adaptive      {} -> {}: mapped {}/{} T100 {}",
            default_weights, adaptive.final_weights, am.mapped, am.tasks, am.t100
        );
        println!("weight trajectory ({} control steps):", trace.len());
        for (t, w) in trace.iter().step_by(trace.len().div_ceil(5).max(1)) {
            println!("  t = {:>6.0}s  {w}", t.as_seconds());
        }
    }
}
