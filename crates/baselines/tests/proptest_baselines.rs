//! Property tests over the static baselines: every mapper, on every
//! random scenario and weight setting, produces a physically valid,
//! deterministic schedule that respects the problem's hard limits.

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_baselines::{maxmax, run_greedy, run_lr_list, run_maxmax, StaticOutcome};
use gridsim::validate::validate;
use lagrange::weights::{AetSign, Objective, Weights};
use proptest::prelude::*;

fn weights() -> impl Strategy<Value = Weights> {
    (0.0f64..1.0, 0.0f64..1.0)
        .prop_map(|(a, bf)| Weights::new(a, (1.0 - a) * bf).expect("on simplex"))
}

/// Interior points and the simplex's corners, α = 1 (β = γ = 0) among
/// them: the corners are where objective ties are densest.
fn weights_with_corners() -> impl Strategy<Value = Weights> {
    (0usize..6, weights()).prop_map(|(pick, w)| match pick {
        0 => Weights::new(1.0, 0.0).expect("corner"),
        1 => Weights::new(0.0, 1.0).expect("corner"),
        2 => Weights::new(0.0, 0.0).expect("corner"),
        _ => w,
    })
}

/// Everything a static run decided, floats as their exact `Debug`
/// rendering: the assignments by task, the transfers in commit order and
/// the metrics.
fn decisions(out: &StaticOutcome<'_>) -> String {
    let schedule = out.state.schedule();
    let mut assignments: Vec<_> = schedule.assignments().copied().collect();
    assignments.sort_unstable_by_key(|a| a.task);
    format!(
        "{assignments:?}\n{:?}\n{:?}",
        schedule.transfers(),
        out.metrics()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-Max's bound-ordered scan over kept costings replays the
    /// per-triplet reference scan, which plans every feasible triplet
    /// from scratch on every commit, under both AET signs: the same
    /// assignments, transfers and metrics bit for bit, having judged no
    /// more triplets than the reference evaluates.
    #[test]
    fn maxmax_matches_its_reference(
        tasks in 8usize..129,
        case_idx in 0usize..3,
        etc_id in 0usize..3,
        dag_id in 0usize..3,
        weights in weights_with_corners(),
        negative in any::<bool>(),
    ) {
        let sc = Scenario::generate(
            &ScenarioParams::paper_scaled(tasks),
            GridCase::ALL[case_idx],
            etc_id,
            dag_id,
        );
        let aet_sign = if negative { AetSign::Negative } else { AetSign::Positive };
        let obj = Objective { weights, aet_sign };
        let product = run_maxmax(&sc, &obj);
        let reference = maxmax::reference::run(&sc, &obj);
        prop_assert_eq!(decisions(&product), decisions(&reference));
        prop_assert!(
            product.candidates_evaluated <= reference.candidates_evaluated,
            "judged {} triplets, the reference evaluated {}",
            product.candidates_evaluated,
            reference.candidates_evaluated
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The weighted baselines and the greedy validate on arbitrary
    /// scenarios.
    #[test]
    fn all_baselines_validate(
        w in weights(),
        case_idx in 0usize..3,
        etc_id in 0usize..3,
        dag_id in 0usize..3,
    ) {
        let sc = Scenario::generate(
            &ScenarioParams::paper_scaled(24),
            GridCase::ALL[case_idx],
            etc_id,
            dag_id,
        );
        let obj = Objective::paper(w);
        let outs = [
            ("maxmax", run_maxmax(&sc, &obj)),
            ("greedy", run_greedy(&sc)),
            ("lrlist", run_lr_list(&sc, &w)),
        ];
        for (name, out) in outs {
            let errs = validate(&out.state);
            prop_assert!(errs.is_empty(), "{name}: {errs:?}");
            let m = out.metrics();
            prop_assert!(m.t100 <= m.mapped);
            prop_assert!(m.tec.units() <= m.tse.units() + 1e-9, "{name} overdrew energy");
        }
    }

    /// Max-Max never schedules past τ (its deadline gate), regardless of
    /// weights.
    #[test]
    fn maxmax_respects_tau(w in weights(), dag_id in 0usize..3) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 0, dag_id);
        let out = run_maxmax(&sc, &Objective::paper(w));
        prop_assert!(out.metrics().aet <= sc.tau);
    }

    /// The weightless baselines are deterministic functions of the
    /// scenario.
    #[test]
    fn weightless_baselines_deterministic(etc_id in 0usize..3, dag_id in 0usize..3) {
        let sc = Scenario::generate(
            &ScenarioParams::paper_scaled(20),
            GridCase::A,
            etc_id,
            dag_id,
        );
        prop_assert_eq!(run_greedy(&sc).metrics(), run_greedy(&sc).metrics());
    }
}
