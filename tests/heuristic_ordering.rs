//! Cross-heuristic sanity orderings: relations that must hold between
//! mappers by construction, checked across several scenarios.

use lrh_grid::grid::{GridCase, Scenario, ScenarioParams};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sweep::heuristic::Heuristic;
use lrh_grid::sweep::weight_search::optimal_weights_with_steps;

fn scenarios() -> Vec<Scenario> {
    let params = ScenarioParams::paper_scaled(64);
    (0..3)
        .map(|d| Scenario::generate(&params, GridCase::A, 0, d))
        .collect()
}

/// Tuning can only help: tuned SLRH-1 dominates an arbitrary fixed weight
/// pair on T100 whenever both are compliant.
#[test]
fn tuning_dominates_fixed_weights() {
    let fixed = Weights::new(0.4, 0.4).unwrap();
    for sc in scenarios() {
        let Some(tuned) = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.2, 0.1) else {
            continue;
        };
        let fixed_run = Heuristic::Slrh1.run(&sc, fixed).metrics;
        if fixed_run.constraints_met() {
            assert!(
                tuned.t100 >= fixed_run.t100,
                "search returned {} but fixed weights achieve {}",
                tuned.t100,
                fixed_run.t100
            );
        }
    }
}

/// Every heuristic maps at least one primary under fresh batteries.
#[test]
fn every_heuristic_maps_some_primaries() {
    let w = Weights::new(0.7, 0.2).unwrap();
    for sc in scenarios().into_iter().take(1) {
        for h in Heuristic::ALL {
            let m = h.run(&sc, w).metrics;
            assert!(m.t100 > 0, "{h} mapped zero primaries");
        }
    }
}
