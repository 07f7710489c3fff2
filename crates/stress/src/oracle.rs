//! Invariant oracles: properties every finished run must satisfy, each
//! checkable from the final state alone (plus the churn trace and the
//! SLRH configuration that produced it).
//!
//! Every oracle returns failures as strings with a stable `oracle-name:`
//! prefix, so a reproducer's verdict is greppable and shrinking can
//! confirm the *same* failure survives a candidate reduction.

use adhoc_grid::units::{Energy, Time};
use gridsim::ledger::ENERGY_EPS;
use gridsim::state::SimState;
use gridsim::trace::{Trace, TraceEvent};
use gridsim::validate::validate;
use lagrange::weights::{Objective, ObjectiveInputs, Weights};
use slrh::{
    dynamic::{validate_arrivals, validate_loss},
    Churn, SlrhConfig, Trigger,
};

/// Relative float tolerance for cross-checks that re-sum energies in a
/// different order than the ledger did.
const REL_EPS: f64 = 1e-6;

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1.0)
}

/// The independent schedule validator plus the ledger's own accounting
/// invariants.
pub fn check_validator(state: &SimState<'_>) -> Vec<String> {
    let mut failures: Vec<String> = validate(state)
        .into_iter()
        .map(|e| format!("validator: {e}"))
        .collect();
    if let Err(e) = state.ledger().check_invariants() {
        failures.push(format!("ledger: {e}"));
    }
    failures
}

/// The churn contract: nothing remains on a lost machine from its loss
/// instant onward, and nothing touches an arriving machine before its
/// arrival instant.
pub fn check_churn(state: &SimState<'_>, churn: &Churn) -> Vec<String> {
    let mut failures: Vec<String> = validate_loss(state, churn.losses())
        .into_iter()
        .map(|e| format!("churn-loss: {e}"))
        .collect();
    failures.extend(
        validate_arrivals(state, churn.arrivals())
            .into_iter()
            .map(|e| format!("churn-arrival: {e}")),
    );
    failures
}

/// Battery conservation, replayed event-by-event against the trace.
///
/// [`Trace::battery_series`] clamps at zero, so this oracle accumulates
/// the *unclamped* per-machine drain itself: at every drain event the
/// cumulative drain must stay within the machine's battery, and the
/// final cumulative drain must equal the ledger's committed total for
/// that machine (the ledger and the trace count the same energy, in
/// different orders).
pub fn check_battery(state: &SimState<'_>) -> Vec<String> {
    let sc = state.scenario();
    let trace = Trace::from_state(state);
    let mut failures = Vec::new();
    let mut drained = vec![0.0f64; sc.grid.len()];

    for &(at, ev) in trace.events() {
        let (j, energy) = match ev {
            TraceEvent::ExecEnd { machine, energy, .. } => (machine, energy),
            TraceEvent::TransferEnd { from, energy, .. } => (from, energy),
            TraceEvent::ExecStart { .. } | TraceEvent::TransferStart { .. } => continue,
        };
        if energy.units() < 0.0 {
            failures.push(format!("battery: negative drain {energy:?} on {j} at {at:?}"));
            continue;
        }
        drained[j.0] += energy.units();
        let battery = sc.grid.machine(j).battery.units();
        if drained[j.0] > battery + ENERGY_EPS {
            failures.push(format!(
                "battery: {j} overdrawn at {at:?}: cumulative drain {:.6} exceeds battery {:.6}",
                drained[j.0], battery
            ));
        }
    }

    for j in sc.grid.ids() {
        let committed = state.ledger().committed(j).units();
        if !approx(drained[j.0], committed) {
            failures.push(format!(
                "battery: {j} trace drain {:.9} disagrees with ledger committed {:.9}",
                drained[j.0], committed
            ));
        }
    }
    failures
}

/// The receding-horizon gate. Under the paper's clock trigger every
/// commit happens at a clock tick `c` (a multiple of ΔT with `c ≤ τ`),
/// with the committed subtask starting in `[c, c + H]`. So for each
/// assignment there must *exist* an admissible tick: the smallest
/// multiple of ΔT that is ≥ `start − H` must be ≤ `min(start, τ)`.
pub fn check_horizon_gate(state: &SimState<'_>, config: &SlrhConfig) -> Vec<String> {
    if config.trigger != Trigger::Clock {
        return Vec::new();
    }
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

/// The objective, recomputed from the schedule alone. `T100` and `AET`
/// must agree exactly with the metrics snapshot; `TEC` re-summed in
/// schedule order (assignments, then transfers) must agree within float
/// re-association tolerance; and the objective value evaluated from the
/// recomputed fractions must match the metrics-based evaluation.
pub fn check_objective(state: &SimState<'_>, weights: Weights) -> Vec<String> {
    let mut failures = Vec::new();
    let metrics = state.metrics();
    let schedule = state.schedule();

    let t100 = schedule.t100();
    if t100 != metrics.t100 {
        failures.push(format!(
            "objective: schedule T100 {t100} != metrics T100 {}",
            metrics.t100
        ));
    }
    let aet = schedule.aet();
    if aet != metrics.aet {
        failures.push(format!(
            "objective: schedule AET {aet:?} != metrics AET {:?}",
            metrics.aet
        ));
    }
    let mut tec = 0.0f64;
    for a in schedule.assignments() {
        tec += a.energy.units();
    }
    for tr in schedule.transfers() {
        tec += tr.energy.units();
    }
    if !approx(tec, metrics.tec.units()) {
        failures.push(format!(
            "objective: schedule TEC {tec:.9} != metrics TEC {:.9}",
            metrics.tec.units()
        ));
    }

    let objective = Objective::paper(weights);
    let from_metrics = objective.evaluate(&ObjectiveInputs {
        t100_frac: metrics.t100_fraction(),
        tec_frac: metrics.tec_fraction(),
        aet_frac: metrics.aet_fraction(),
    });
    let tse = metrics.tse.units();
    let from_schedule = objective.evaluate(&ObjectiveInputs {
        t100_frac: t100 as f64 / metrics.tasks as f64,
        tec_frac: Energy(tec) / Energy(tse),
        aet_frac: aet.as_seconds() / Time(state.scenario().tau.0).as_seconds(),
    });
    if !approx(from_schedule, from_metrics) {
        failures.push(format!(
            "objective: value recomputed from schedule {from_schedule:.12} != metrics value {from_metrics:.12}"
        ));
    }
    failures
}

/// Every invariant oracle at once. `config` enables the SLRH-only
/// horizon gate; pass `None` for baseline heuristics.
pub fn check_all(
    state: &SimState<'_>,
    weights: Weights,
    config: Option<&SlrhConfig>,
    churn: &Churn,
) -> Vec<String> {
    let mut failures = check_validator(state);
    failures.extend(check_churn(state, churn));
    failures.extend(check_battery(state));
    if let Some(config) = config {
        failures.extend(check_horizon_gate(state, config));
    }
    failures.extend(check_objective(state, weights));
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::{GridCase, MachineId};
    use adhoc_grid::task::Version;
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use gridsim::plan::Placement;
    use slrh::SlrhVariant;

    fn weights() -> Weights {
        Weights::new(0.6, 0.2).unwrap()
    }

    #[test]
    fn clean_slrh_run_passes_every_oracle() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let config = SlrhConfig::paper(SlrhVariant::V2, weights());
        let out = slrh::run_slrh(&sc, &config);
        let failures = check_all(&out.state, weights(), Some(&config), &Churn::default());
        assert_eq!(failures, Vec::<String>::new());
    }

    #[test]
    fn churned_run_passes_every_oracle() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 1, 1);
        let config = SlrhConfig::paper(SlrhVariant::V1, weights());
        let churn = Churn::from_pairs([(1, 57)], [(3, 57)], sc.grid.len()).unwrap();
        let out = slrh::run_slrh_with(&sc, &config, &churn, &mut slrh::RunContext::new(), None);
        let failures = check_all(&out.state, weights(), Some(&config), &churn);
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
        let plan = st.plan(t, Version::Secondary, MachineId(0), Placement::Append {
            not_before: start,
        });
        st.commit(&plan);
        let failures = check_horizon_gate(&st, &config);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("horizon:"), "{failures:?}");
    }

    #[test]
    fn churn_oracle_flags_post_loss_work() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let mut st = SimState::new(&sc);
        let &t = st.ready_tasks().first().expect("roots");
        let plan = st.plan(t, Version::Secondary, MachineId(0), Placement::Append {
            not_before: Time(100),
        });
        st.commit(&plan);
        // Claim machine 0 was lost before that work finished.
        let churn = Churn::from_pairs([(0, 10)], [], sc.grid.len()).unwrap();
        let failures = check_churn(&st, &churn);
        assert!(
            failures.iter().any(|f| f.starts_with("churn-loss:")),
            "{failures:?}"
        );
    }
}
