//! Property tests for the SLRH heuristics: every run over random
//! scenarios and configurations produces a physically valid schedule, the
//! clock discipline holds, and the dynamic driver survives arbitrary
//! machine-loss schedules.

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::units::{Dur, Time};
use adhoc_grid::workload::{Scenario, ScenarioParams};
use gridsim::validate::validate;
use lagrange::weights::Weights;
use proptest::prelude::*;
use slrh::reference::{self, Kind};
use slrh::{
    run_slrh, run_slrh_churn, run_slrh_with, Adaptation, Churn, MachineLossEvent, RunContext,
    SlrhConfig, SlrhVariant,
};

fn weights() -> impl Strategy<Value = Weights> {
    (0.0f64..1.0, 0.0f64..1.0)
        .prop_map(|(a, bf)| Weights::new(a, (1.0 - a) * bf).expect("on simplex"))
}

fn variant() -> impl Strategy<Value = SlrhVariant> {
    prop::sample::select(&SlrhVariant::ALL[..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any variant, any weights, any ΔT/H, any case: valid schedule, no
    /// battery overdraw, AET consistent with the clock discipline.
    #[test]
    fn every_configuration_validates(
        w in weights(),
        v in variant(),
        case_idx in 0usize..3,
        dt in 1u64..300,
        h in 1u64..2_000,
        dag_id in 0usize..3,
    ) {
        let sc = Scenario::generate(
            &ScenarioParams::paper_scaled(24),
            GridCase::ALL[case_idx],
            0,
            dag_id,
        );
        let cfg = SlrhConfig::paper(v, w)
            .with_dt(Dur(dt))
            .with_horizon(Dur(h));
        let out = run_slrh(&sc, &cfg);
        let errs = validate(&out.state);
        prop_assert!(errs.is_empty(), "{v} {w}: {errs:?}");
        let m = out.metrics();
        prop_assert!(m.t100 <= m.mapped);
        prop_assert!(m.mapped <= m.tasks);
        // Clock discipline: mappings happen at clocks <= τ and must start
        // within the horizon of their mapping clock, so no execution can
        // start later than τ + H.
        let limit = sc.tau.saturating_add(Dur(h));
        for a in out.state.schedule().assignments() {
            prop_assert!(a.start <= limit, "{} starts past tau + H", a.task);
        }
    }

    /// Determinism: identical configuration => identical outcome.
    #[test]
    fn runs_are_deterministic(w in weights(), v in variant()) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 1, 1);
        let cfg = SlrhConfig::paper(v, w);
        let a = run_slrh(&sc, &cfg);
        let b = run_slrh(&sc, &cfg);
        prop_assert_eq!(a.metrics(), b.metrics());
        prop_assert_eq!(a.stats, b.stats);
    }

    /// The dynamic driver keeps all invariants through arbitrary loss
    /// schedules (any subset of machines, any times), and never schedules
    /// work on a machine after its loss.
    #[test]
    fn machine_loss_keeps_invariants(
        w in weights(),
        lose_mask in 1usize..7, // non-empty proper subset of Case A's 4 machines
        t1 in 0u64..90_000,
        t2 in 0u64..90_000,
    ) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, w);
        let mut events = Vec::new();
        let times = [Time(t1), Time(t2), Time(t1 / 2)];
        for (bit, &at) in times.iter().enumerate().take(3) {
            if lose_mask & (1 << bit) != 0 {
                events.push(MachineLossEvent { machine: MachineId(bit), at });
            }
        }
        let out = run_slrh_churn(&sc, &cfg, &events, &[]);
        let errs = validate(&out.state);
        prop_assert!(errs.is_empty(), "{errs:?}");
        prop_assert!(out.state.ledger().check_invariants().is_ok());
    }

    /// A machine lost at time zero receives no work at all, and the rest
    /// of the run behaves like a reduced grid.
    #[test]
    fn loss_at_time_zero_excludes_machine(w in weights(), machine in 0usize..4) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 1);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, w);
        let events = [MachineLossEvent {
            machine: MachineId(machine),
            at: Time::ZERO,
        }];
        let out = run_slrh_churn(&sc, &cfg, &events, &[]);
        prop_assert!(out
            .state
            .schedule()
            .assignments()
            .all(|a| a.machine != MachineId(machine)));
        prop_assert!(validate(&out.state).is_empty());
        prop_assert_eq!(out.disruptions[0].1, 0, "nothing to invalidate at t=0");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end: a dynamic run (machine loss mid-flight) through the
    /// frontier kernel is indistinguishable from both reference kernels
    /// — same schedule, metrics, disruption log and loop trajectory.
    #[test]
    fn dynamic_run_matches_the_reference_kernels(
        w in weights(),
        v in variant(),
        machine in 0usize..4,
        frac in 2u64..10,
    ) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let cfg = SlrhConfig::paper(v, w);
        let events = [MachineLossEvent {
            machine: MachineId(machine),
            at: Time(sc.tau.0 / frac),
        }];
        let churn = Churn::new(&events, &[], sc.grid.len()).expect("one loss on four machines");
        let product = run_slrh_with(&sc, &cfg, &churn, &mut RunContext::new(), None);
        for kind in [Kind::Scratch, Kind::Resort] {
            let oracle = reference::run(kind, &sc, &cfg, &churn, &mut RunContext::new(), None);
            prop_assert_eq!(
                format!("{:?}", product.state.schedule()),
                format!("{:?}", oracle.state.schedule()),
                "{:?}", kind
            );
            prop_assert_eq!(product.metrics(), oracle.metrics());
            prop_assert_eq!(&product.disruptions, &oracle.disruptions);
            prop_assert_eq!(product.stats.commits, oracle.stats.commits);
            prop_assert_eq!(product.stats.clock_steps, oracle.stats.clock_steps);
            prop_assert_eq!(product.stats.queries, oracle.stats.queries);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The adaptive controller keeps every physical invariant for any
    /// starting weights and control interval.
    #[test]
    fn adaptive_controller_validates(
        w in weights(),
        interval in 50u64..2_000,
    ) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::C, 1, 0);
        let base = SlrhConfig::paper(SlrhVariant::V1, w);
        let cfg = base.with_adaptation(Adaptation {
            every: interval / base.dt.0,
            ..Adaptation::default()
        });
        let mut trace = Vec::new();
        let out = run_slrh_with(
            &sc,
            &cfg,
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut |e| trace.push(e.weights)),
        );
        let errs = validate(&out.state);
        prop_assert!(errs.is_empty(), "{errs:?}");
        // Every weight the loop ran on stays on the simplex.
        for tw in &trace {
            prop_assert!(tw.alpha() + tw.beta() <= 1.0 + 1e-9);
            prop_assert!(tw.gamma() >= -1e-12);
        }
    }
}
