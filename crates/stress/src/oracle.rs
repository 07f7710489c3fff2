//! Invariant oracles: properties every finished run must satisfy, each
//! checkable from the final state alone (plus, for the horizon gate, the
//! SLRH configuration that produced it).
//!
//! There are two: the independent validator, which also checks the
//! churn rules (the state records each machine's availability window),
//! battery conservation per machine and the metrics against the
//! schedule, and the receding-horizon gate, which only the clock loop's
//! configuration can state.
//!
//! Every oracle returns failures as strings with a stable `oracle-name:`
//! prefix, so a reproducer's verdict is greppable and shrinking can
//! confirm the *same* failure survives a candidate reduction.

use gridsim::state::SimState;
use gridsim::validate::validate;
use slrh::SlrhConfig;

/// The independent schedule validator ([`gridsim::validate::validate`]).
pub fn check_validator(state: &SimState<'_>) -> Vec<String> {
    validate(state)
        .into_iter()
        .map(|e| format!("validator: {e}"))
        .collect()
}

/// The receding-horizon gate. Every commit happens at a clock tick `c`
/// (a multiple of ΔT with `c ≤ τ`), with the committed subtask starting
/// in `[c, c + H]`. So for each assignment there must *exist* an
/// admissible tick: the smallest multiple of ΔT that is ≥ `start − H`
/// must be ≤ `min(start, τ)`.
pub fn check_horizon_gate(state: &SimState<'_>, config: &SlrhConfig) -> Vec<String> {
    let (dt, h) = (config.dt.0, config.horizon.0);
    let tau = state.scenario().tau.0;
    let mut failures = Vec::new();
    for a in state.schedule().assignments() {
        let lo = a.start.0.saturating_sub(h);
        let first_tick = lo.div_ceil(dt) * dt;
        if first_tick > a.start.0.min(tau) {
            failures.push(format!(
                "horizon: {} starts at {} but no clock tick in [{}, {}] (dt={dt}, H={h}, tau={tau}) could have committed it",
                a.task,
                a.start.0,
                lo,
                a.start.0.min(tau),
            ));
        }
    }
    failures
}

/// Every invariant oracle at once. `config` enables the SLRH-only
/// horizon gate; pass `None` for baseline heuristics.
pub fn check_all(state: &SimState<'_>, config: Option<&SlrhConfig>) -> Vec<String> {
    let mut failures = check_validator(state);
    if let Some(config) = config {
        failures.extend(check_horizon_gate(state, config));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::{GridCase, MachineId};
    use adhoc_grid::task::Version;
    use adhoc_grid::units::Time;
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use gridsim::plan::Placement;
    use lagrange::weights::Weights;
    use slrh::{Churn, SlrhVariant};

    fn weights() -> Weights {
        Weights::new(0.6, 0.2).unwrap()
    }

    #[test]
    fn clean_slrh_run_passes_every_oracle() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let config = SlrhConfig::paper(SlrhVariant::V2, weights());
        let out = slrh::run_slrh(&sc, &config);
        let failures = check_all(&out.state, Some(&config));
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn churned_run_passes_every_oracle() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 1, 1);
        let config = SlrhConfig::paper(SlrhVariant::V1, weights());
        let churn = Churn::from_pairs([(1, 57)], [(3, 57)], sc.grid.len()).unwrap();
        let out = slrh::run_slrh_with(&sc, &config, &churn, &mut slrh::RunContext::new(), None);
        let failures = check_all(&out.state, Some(&config));
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn horizon_gate_flags_an_unreachable_start() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let config = SlrhConfig::paper(SlrhVariant::V1, weights());
        let mut st = SimState::new(&sc);
        let &t = st.ready_tasks().first().expect("roots");
        // Start far beyond any admissible commit tick: the last tick is
        // τ, and τ + H < start.
        let start = Time(sc.tau.0 + config.horizon.0 + config.dt.0 * 3);
        let plan = st.plan(
            t,
            Version::Secondary,
            MachineId(0),
            Placement::Append { not_before: start },
        );
        st.commit(&plan);
        let failures = check_horizon_gate(&st, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("horizon:"), "{failures:?}");
    }

    #[test]
    fn validator_flags_post_loss_work() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let mut st = SimState::new(&sc);
        let &t = st.ready_tasks().first().expect("roots");
        let plan = st.plan(
            t,
            Version::Secondary,
            MachineId(0),
            Placement::Append {
                not_before: Time(100),
            },
        );
        st.commit(&plan);
        // Machine 0 is lost before that work finishes, with no cascade.
        st.mark_lost(MachineId(0), Time(110));
        let failures = check_all(&st, None);
        assert!(
            failures
                .iter()
                .any(|f| f.starts_with("validator: [availability]")),
            "{failures:?}"
        );
    }
}
