//! Property tests for the upper bounds: soundness of the independent
//! relaxation, dominance relations, and monotonicity in the budgets.

use adhoc_grid::config::{GridCase, GridConfig};
use adhoc_grid::etc_gen::{self, EtcGenParams};
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_bounds::{min_ratios, tecc, upper_bound, upper_bound_sound};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MR(0) <= 1 always, and every MR is positive and finite.
    #[test]
    fn min_ratios_well_formed(seed in any::<u64>(), case_idx in 0usize..3) {
        let case = GridCase::ALL[case_idx];
        let etc = etc_gen::generate_for_case(&EtcGenParams::paper(64), case, seed);
        let mr = min_ratios(&etc);
        prop_assert!(mr[0] <= 1.0 + 1e-12);
        for &m in &mr {
            prop_assert!(m > 0.0 && m.is_finite());
        }
        prop_assert!(tecc(&etc, Time::from_seconds(100)) > 0.0);
    }

    /// Both bounds are monotone in τ: more time can never lower them.
    #[test]
    fn bounds_monotone_in_tau(seed in any::<u64>(), t1 in 100u64..5_000, extra in 1u64..5_000) {
        let etc = etc_gen::generate_for_case(&EtcGenParams::paper(64), GridCase::A, seed);
        let grid = GridConfig::case(GridCase::A);
        let (lo, hi) = (Time::from_seconds(t1), Time::from_seconds(t1 + extra));
        prop_assert!(upper_bound(&etc, &grid, lo).t100 <= upper_bound(&etc, &grid, hi).t100);
        prop_assert!(upper_bound_sound(&etc, &grid, lo) <= upper_bound_sound(&etc, &grid, hi));
    }

    /// Both bounds never exceed |T|.
    #[test]
    fn bounds_capped_at_task_count(seed in any::<u64>(), tau in 10u64..100_000) {
        let etc = etc_gen::generate_for_case(&EtcGenParams::paper(48), GridCase::C, seed);
        let grid = GridConfig::case(GridCase::C);
        let t = Time::from_seconds(tau);
        prop_assert!(upper_bound(&etc, &grid, t).t100 <= 48);
        prop_assert!(upper_bound_sound(&etc, &grid, t) <= 48);
    }

    /// Soundness: any constraint-compliant heuristic run's T100 is below
    /// the sound bound. (The paper's §VI bound can be exceeded when
    /// cycles bind — see the crate docs — so it is deliberately *not*
    /// asserted here.)
    #[test]
    fn sound_bound_dominates_compliant_runs(
        a in 0.0f64..1.0,
        bf in 0.0f64..1.0,
        case_idx in 0usize..3,
        dag_id in 0usize..3,
    ) {
        use grid_sweep::heuristic::Heuristic;
        let case = GridCase::ALL[case_idx];
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), case, 0, dag_id);
        let w = lagrange::weights::Weights::new(a, (1.0 - a) * bf).expect("simplex");
        let sound = upper_bound_sound(&sc.etc, &sc.grid, sc.tau);
        for h in [Heuristic::Slrh1, Heuristic::MaxMax, Heuristic::Greedy] {
            let r = h.run(&sc, w);
            if r.metrics.constraints_met() {
                prop_assert!(
                    r.metrics.t100 <= sound,
                    "{h}: T100 {} exceeds sound bound {sound}",
                    r.metrics.t100
                );
            }
        }
    }
}
