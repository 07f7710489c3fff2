//! Soundness of the weight search's cut.
//!
//! The search-only entry points `slrh::mapper::run_slrh_floored` and
//! `grid_baselines::maxmax::run_maxmax_floored` read the scenario's
//! statics from a value the search builds once, and stop a run once its
//! `T100` can no longer reach `floor`. The floor only ever stops a run,
//! never steers one: a floored run that is not cut is the unfloored run,
//! schedule, metrics and counters alike, and a cut run is one the
//! unfloored run shows could not have scored — non-compliant, or `T100`
//! below the floor. Floor 0 never cuts.

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_baselines::maxmax::{run_maxmax_floored, Prepared};
use grid_baselines::run_maxmax_in;
use gridsim::metrics::Metrics;
use gridsim::state::StateBuffers;
use gridsim::tables::ScenarioTables;
use lagrange::weights::{Objective, Weights};
use proptest::prelude::*;
use slrh::mapper::run_slrh_floored;
use slrh::{run_slrh_with, Churn, RunContext, SlrhConfig, SlrhVariant};

/// A finished run as the comparison sees it: metrics, the schedule's
/// debug rendering and the work counters.
type Run = (Metrics, String, String);

/// The unfloored run and the floored one (`None` = cut).
fn runs(
    sc: &Scenario,
    variant: Option<SlrhVariant>,
    w: Weights,
    floor: usize,
) -> (Run, Option<Run>) {
    let Some(variant) = variant else {
        let objective = Objective::paper(w);
        let mut buffers = StateBuffers::default();
        let read = |o: &grid_baselines::StaticOutcome| {
            (
                o.metrics(),
                format!("{:?}", o.state.schedule()),
                o.candidates_evaluated.to_string(),
            )
        };
        let full = read(&run_maxmax_in(sc, &objective, &mut buffers));
        let prepared = Prepared::new(sc);
        let floored =
            run_maxmax_floored(&prepared, &objective, &mut buffers, floor).map(|o| read(&o));
        return (full, floored);
    };
    let config = SlrhConfig::paper(variant, w);
    let read = |o: &slrh::SlrhOutcome| {
        let stats = format!("{:?} {:?} {:?}", o.stats, o.disruptions, o.final_weights);
        (o.metrics(), format!("{:?}", o.state.schedule()), stats)
    };
    let mut ctx = RunContext::new();
    let full = read(&run_slrh_with(
        sc,
        &config,
        &Churn::default(),
        &mut ctx,
        None,
    ));
    let tables = ScenarioTables::new(sc);
    let floored = run_slrh_floored(&tables, &config, &mut ctx, floor).map(|o| read(&o));
    (full, floored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_floor_only_ever_cuts_runs_that_cannot_score(
        tasks in 12usize..40,
        seed in any::<u64>(),
        case in prop::sample::select(&[GridCase::A, GridCase::B, GridCase::C][..]),
        ai in 0u32..=10,
        bi in 0u32..=10,
        floor_frac in 0.0f64..=1.0,
    ) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(tasks).with_seed(seed), case, 0, 0);
        let bi = bi.min(10 - ai);
        let w = Weights::new(f64::from(ai) / 10.0, f64::from(bi) / 10.0).expect("lattice point");
        // 0 ..= |T| + 1: never, anywhere in between, and at once.
        let floor = (floor_frac * (tasks + 1) as f64).round() as usize;
        let heuristics = [Some(SlrhVariant::V1), Some(SlrhVariant::V2), Some(SlrhVariant::V3), None];
        for variant in heuristics {
            for floor in [0, floor] {
                let (full, floored) = runs(&sc, variant, w, floor);
                match floored {
                    Some(run) => prop_assert_eq!(&run, &full, "{:?} floor {}", variant, floor),
                    None => {
                        prop_assert!(floor > 0, "{:?}: floor 0 cut a run", variant);
                        let m = full.0;
                        prop_assert!(
                            !m.constraints_met() || m.t100 < floor,
                            "{:?} floor {}: cut a compliant run reaching T100 {}", variant, floor, m.t100
                        );
                    }
                }
            }
        }
    }
}
