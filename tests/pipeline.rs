//! Cross-crate integration tests: the full pipeline from scenario
//! generation through every heuristic to validation and bounds.

use lrh_grid::bounds::{upper_bound, upper_bound_sound};
use lrh_grid::grid::{GridCase, MachineId, Scenario, ScenarioParams, Time};
use lrh_grid::lagrange::weights::Weights;
use lrh_grid::sim::validate::{validate, validate_schedule};
use lrh_grid::slrh::{
    run_slrh, run_slrh_churn, run_slrh_with, Adaptation, Churn, MachineLossEvent, RunContext,
    SlrhConfig, SlrhVariant,
};
use lrh_grid::sweep::heuristic::Heuristic;

fn scenario(case: GridCase) -> Scenario {
    Scenario::generate(&ScenarioParams::paper_scaled(48), case, 0, 0)
}

fn weights() -> Weights {
    Weights::new(0.5, 0.3).expect("on simplex")
}

#[test]
fn every_heuristic_on_every_case_validates() {
    for case in GridCase::ALL {
        let sc = scenario(case);
        for h in Heuristic::ALL {
            let r = h.run(&sc, weights());
            assert!(r.valid, "{h} on {case} failed validation");
            assert!(r.metrics.mapped > 0, "{h} on {case} mapped nothing");
            assert!(r.metrics.t100 <= r.metrics.mapped);
        }
    }
}

#[test]
fn achieved_t100_never_exceeds_sound_bound() {
    for case in GridCase::ALL {
        let sc = scenario(case);
        let sound = upper_bound_sound(&sc.etc, &sc.grid, sc.tau);
        for h in Heuristic::ALL {
            let r = h.run(&sc, weights());
            // Only constraint-compliant runs are bounded: a run that blows
            // past τ is outside the bound's premise.
            if r.metrics.constraints_met() {
                assert!(
                    r.metrics.t100 <= sound,
                    "{h} on {case}: T100 {} exceeds sound bound {sound}",
                    r.metrics.t100
                );
            }
        }
    }
}

#[test]
fn paper_bound_reported_alongside_sound_bound() {
    let sc = scenario(GridCase::C);
    let paper = upper_bound(&sc.etc, &sc.grid, sc.tau);
    let sound = upper_bound_sound(&sc.etc, &sc.grid, sc.tau);
    assert!(paper.t100 <= sc.tasks());
    assert!(sound <= sc.tasks());
}

#[test]
fn slrh_then_dynamic_then_adaptive_share_substrate() {
    let sc = scenario(GridCase::A);
    let cfg = SlrhConfig::paper(SlrhVariant::V1, weights());

    let plain = run_slrh(&sc, &cfg);
    assert!(validate(&plain.state).is_empty());

    let events = [MachineLossEvent {
        machine: MachineId(1),
        at: Time(sc.tau.0 / 3),
    }];
    let dynamic = run_slrh_churn(&sc, &cfg, &events, &[]);
    let errs = validate(&dynamic.state);
    assert!(errs.is_empty(), "{errs:?}");

    // Adaptation is a block on the same configuration, through the same
    // entry; an observer sees the weights every tick ran on.
    let adaptive_cfg = cfg.with_adaptation(Adaptation {
        every: 50,
        ..Adaptation::default()
    });
    let mut weight_trace = Vec::new();
    let adaptive = run_slrh_with(
        &sc,
        &adaptive_cfg,
        &Churn::default(),
        &mut RunContext::new(),
        Some(&mut |e| weight_trace.push(e.weights)),
    );
    assert!(validate(&adaptive.state).is_empty());
    assert_eq!(weight_trace.last(), Some(&adaptive.final_weights));
}

#[test]
fn facade_reexports_compose() {
    // The README quickstart path, via the facade crate only.
    let params = ScenarioParams::paper_scaled(32);
    let sc = Scenario::generate(&params, GridCase::B, 1, 1);
    let out = run_slrh(&sc, &SlrhConfig::paper(SlrhVariant::V3, weights()));
    let errs = validate_schedule(&sc, out.state.schedule());
    assert!(errs.is_empty(), "{errs:?}");
}

#[test]
fn schedules_are_reproducible_across_processes_by_seed() {
    // Same master seed => identical scenario => identical schedule digest.
    let a = scenario(GridCase::A);
    let b = scenario(GridCase::A);
    let ra = run_slrh(&a, &SlrhConfig::paper(SlrhVariant::V1, weights()));
    let rb = run_slrh(&b, &SlrhConfig::paper(SlrhVariant::V1, weights()));
    let digest = |s: &lrh_grid::sim::SimState<'_>| {
        s.schedule()
            .assignments()
            .map(|x| (x.task, x.machine, x.version, x.start, x.dur))
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(&ra.state), digest(&rb.state));

    // A different master seed changes the workload.
    let params = ScenarioParams::paper_scaled(48).with_seed(0xDEADBEEF);
    let c = Scenario::generate(&params, GridCase::A, 0, 0);
    assert_ne!(a.etc, c.etc);
}

#[test]
fn weight_search_agrees_with_direct_runs() {
    let sc = scenario(GridCase::A);
    let found = lrh_grid::sweep::weight_search::optimal_weights_with_steps(
        Heuristic::Slrh1,
        &sc,
        0.25,
        0.25,
    );
    if let Some(o) = found {
        let r = Heuristic::Slrh1.run(&sc, o.weights);
        assert!(r.metrics.constraints_met());
        assert_eq!(
            r.metrics.t100, o.t100,
            "search must report a reproducible T100"
        );
    }
}
