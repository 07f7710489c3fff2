//! Meta-reproduction tests: the paper's qualitative claims, asserted at a
//! reduced scale that preserves the full-scale resource regime (batteries
//! and τ scale with |T|; layer widths and machine mixes are unchanged).
//!
//! These are deliberately *weak* inequalities over a few scenarios — the
//! `repro` binary regenerates the full tables and figures; these tests
//! guard the shapes against regressions.

use lrh_grid::bounds::{upper_bound, Limit};
use lrh_grid::grid::etc_gen::EtcGenParams;
use lrh_grid::grid::machine::paper_constants;
use lrh_grid::grid::{etc_gen, GridCase, GridConfig, Scenario, ScenarioParams, Time};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::slrh::{run_slrh, SlrhConfig, SlrhVariant};
use lrh_grid::sweep::dt_sweep::dt_sweep;
use lrh_grid::sweep::heuristic::Heuristic;
use lrh_grid::sweep::weight_search::optimal_weights_with_steps;

fn tuned_run(h: Heuristic, sc: &Scenario) -> Option<usize> {
    optimal_weights_with_steps(h, sc, 0.2, 0.1).map(|o| o.t100)
}

/// Table 4's shape at full scale: Cases A and B saturate at |T| while
/// Case C is cycles-limited well below it.
#[test]
fn table4_shape_full_scale() {
    let tau = Time::from_seconds(paper_constants::TAU_SECONDS);
    let gen = EtcGenParams::paper(1024);
    // Exact margins depend on the PRNG stream behind the generators; the
    // shape guarded here is A saturating outright, B close to saturation,
    // and C cycles-limited well below both.
    for seed in 0..2 {
        let etc = etc_gen::generate_for_case(&gen, GridCase::A, seed);
        let ub = upper_bound(&etc, &GridConfig::case(GridCase::A), tau);
        assert_eq!(ub.t100, 1024, "Case A must saturate");
        let etc = etc_gen::generate_for_case(&gen, GridCase::B, seed);
        let ub = upper_bound(&etc, &GridConfig::case(GridCase::B), tau);
        assert!(ub.t100 >= 900, "Case B: {}", ub.t100);
        let etc = etc_gen::generate_for_case(&gen, GridCase::C, seed);
        let ub = upper_bound(&etc, &GridConfig::case(GridCase::C), tau);
        assert!(ub.t100 < 900, "Case C: {}", ub.t100);
        assert_eq!(ub.limit, Limit::Cycles);
    }
}

/// Figure 4/5's headline: with tuned weights, SLRH-1 and Max-Max are
/// comparable in Case A, and both lose T100 when a machine disappears.
#[test]
fn fig4_shape_slrh1_vs_maxmax() {
    let params = ScenarioParams::paper_scaled(128);
    let a = Scenario::generate(&params, GridCase::A, 0, 0);
    let b = Scenario::generate(&params, GridCase::B, 0, 0);
    let c = Scenario::generate(&params, GridCase::C, 0, 0);

    let slrh_a = tuned_run(Heuristic::Slrh1, &a).expect("SLRH-1 feasible in A");
    let maxmax_a = tuned_run(Heuristic::MaxMax, &a).expect("Max-Max feasible in A");
    // "Roughly equivalent": within a factor of 1.5 either way.
    let ratio = slrh_a as f64 / maxmax_a as f64;
    assert!(
        (0.66..=1.5).contains(&ratio),
        "Case A parity broken: SLRH-1 {slrh_a} vs Max-Max {maxmax_a}"
    );

    // Machine loss costs T100 for the dynamic heuristic.
    let slrh_b = tuned_run(Heuristic::Slrh1, &b).expect("SLRH-1 feasible in B");
    let slrh_c = tuned_run(Heuristic::Slrh1, &c).expect("SLRH-1 feasible in C");
    assert!(slrh_b < slrh_a, "losing a slow machine must cost T100");
    assert!(slrh_c < slrh_a, "losing a fast machine must cost T100");
    // Losing a fast machine hurts more than losing a slow one.
    assert!(slrh_c <= slrh_b);
}

/// Figure 2's shape: T100 is insensitive to mid-range ΔT; tiny ΔT costs
/// execution work (clock iterations); huge ΔT costs T100.
#[test]
fn fig2_shape_dt_sensitivity() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(96), GridCase::A, 0, 0);
    let w = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.25, 0.25)
        .map(|o| o.weights)
        .unwrap_or(Weights::new(0.5, 0.3).unwrap());
    let pts = dt_sweep(&sc, w, &[1, 5, 10, 50, 8000]);
    // Mid-range flatness: ΔT in {5, 10, 50} within one task of each other
    // is too strict; allow 10% of |T|.
    let mid: Vec<usize> = pts[1..4].iter().map(|p| p.t100).collect();
    let spread = mid.iter().max().unwrap() - mid.iter().min().unwrap();
    assert!(spread <= sc.tasks() / 10, "mid-range ΔT spread {spread}");
    // Tiny ΔT does far more clock work than mid-range.
    assert!(pts[0].clock_steps > 4 * pts[2].clock_steps);
    // Extreme ΔT cannot beat fine ΔT on T100.
    assert!(pts[4].t100 <= pts[0].t100);
}

/// Figure 6's shape: SLRH-3 does more candidate-selection work than
/// SLRH-1 on the same scenario (it re-queries after every assignment).
#[test]
fn fig6_shape_variant_work_ordering() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(96), GridCase::A, 1, 1);
    let w = Weights::new(0.5, 0.3).unwrap();
    let v1 = run_slrh(&sc, &SlrhConfig::paper(SlrhVariant::V1, w));
    let v3 = run_slrh(&sc, &SlrhConfig::paper(SlrhVariant::V3, w));
    assert!(
        v3.stats.queries >= v1.stats.queries,
        "SLRH-3 must issue at least as many kernel queries ({} vs {})",
        v3.stats.queries,
        v1.stats.queries
    );
}

/// §VII's SLRH-2 finding is statistical ("rarely produced a successful
/// mapping"): our SLRH-2 — which, unlike the paper's, re-verifies energy
/// feasibility for every stale pool entry before committing — complies
/// more often and can edge out SLRH-1 on single scenarios (a deviation
/// recorded in EXPERIMENTS.md). The guarded shape: SLRH-1 is feasible on
/// every scenario, and SLRH-2's mean tuned T100 does not meaningfully
/// beat SLRH-1's across the mini-suite.
#[test]
fn slrh2_does_not_dominate_slrh1() {
    let params = ScenarioParams::paper_scaled(96);
    let (mut sum1, mut sum2, mut n2) = (0usize, 0usize, 0usize);
    for dag_id in 0..3 {
        let sc = Scenario::generate(&params, GridCase::A, 0, dag_id);
        let t1 = tuned_run(Heuristic::Slrh1, &sc).expect("SLRH-1 must be feasible");
        sum1 += t1;
        if let Some(t2) = tuned_run(Heuristic::Slrh2, &sc) {
            sum2 += t2;
            n2 += 1;
        }
    }
    if n2 == 3 {
        assert!(
            (sum2 as f64) <= sum1 as f64 * 1.15,
            "SLRH-2 mean tuned T100 ({sum2}) dominates SLRH-1 ({sum1})"
        );
    }
}
