//! On-the-fly adjustment of the objective weights (the paper's §VIII
//! future work).
//!
//! The paper concludes that the `T100` multiplier α "requires adjustment
//! whenever the system environment changes" while the constraint
//! multipliers may be held nearly constant. The mechanism lives inside
//! the clock loop itself — configure it with
//! [`crate::config::Adaptation`] on any [`SlrhConfig`] — where the weight
//! triple is interpreted as the *normalized multiplier vector* of the
//! Lagrangian
//!
//! ```text
//! L = T100/|T| − λ_e · (TEC/TSE − 1) − λ_t · (AET/τ − 1)
//! ```
//!
//! i.e. `(α, β, γ) = (1, λ_e, λ_t) / (1 + λ_e + λ_t)`. On its schedule
//! the loop linearly extrapolates the run's energy and time consumption
//! to completion, treats the predicted constraint violations as
//! subgradients, and takes one projected dual-ascent step on
//! `(λ_e, λ_t)` ([`lagrange::online::adapt_step`]). Tight runs drive the
//! penalty weights up (pushing the heuristic toward cheap secondary
//! versions); slack runs decay them toward zero, recovering α → 1.
//!
//! This module is the trace-recording front end: [`run_adaptive_slrh`]
//! wraps the in-loop controller and additionally samples the live
//! weights at a fixed control interval, producing the
//! [`AdaptiveOutcome::weight_trace`] the ablation study plots.

use adhoc_grid::units::{Dur, Time};
use adhoc_grid::workload::Scenario;
use gridsim::state::SimState;
use lagrange::step::StepRule;
use lagrange::weights::Weights;

use crate::config::{Adaptation, SlrhConfig};
use crate::frontier::Frontier;
use crate::mapper::{drive, RunStats};

/// Configuration of an adaptive SLRH run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AdaptiveConfig {
    /// The underlying SLRH configuration; its weights are the starting
    /// point and are overwritten by the controller as the run progresses.
    pub base: SlrhConfig,
    /// Ticks between controller invocations (rounded down to a whole
    /// number of ΔT clock steps, minimum one step).
    pub control_interval: Dur,
    /// Multiplier step rule (constant steps suit the drifting target).
    pub rule: StepRule,
}

impl AdaptiveConfig {
    /// Reasonable defaults: adjust every 500 ticks (50 s) with constant
    /// steps of 0.25.
    pub fn new(base: SlrhConfig) -> AdaptiveConfig {
        AdaptiveConfig {
            base,
            control_interval: Dur(500),
            rule: StepRule::Constant { a: 0.25 },
        }
    }

    /// The equivalent in-loop configuration: `base` with an
    /// [`Adaptation`] block updating once per control interval.
    pub fn as_slrh_config(&self) -> SlrhConfig {
        assert!(
            !self.control_interval.is_zero(),
            "control interval must be positive"
        );
        let mut config = self.base;
        config.adaptation = Some(Adaptation {
            rule: self.rule,
            every: (self.control_interval.0 / self.base.dt.0).max(1),
            ..Adaptation::default()
        });
        config
    }
}

/// The result of an adaptive run.
#[derive(Debug)]
pub struct AdaptiveOutcome<'a> {
    /// Final simulation state.
    pub state: SimState<'a>,
    /// Work counters (all segments summed).
    pub stats: RunStats,
    /// `(clock, weights)` sampled at every control-interval boundary,
    /// starting with the initial weights at time zero and ending with
    /// the weights in force when the run stopped.
    pub weight_trace: Vec<(Time, Weights)>,
}

impl AdaptiveOutcome<'_> {
    /// The weights in force when the run ended.
    pub fn final_weights(&self) -> Weights {
        self.weight_trace.last().expect("trace is never empty").1
    }

    /// The run's metrics.
    pub fn metrics(&self) -> gridsim::metrics::Metrics {
        self.state.metrics()
    }
}

impl gridsim::MappingOutcome for AdaptiveOutcome<'_> {
    fn state(&self) -> &SimState<'_> {
        &self.state
    }

    fn candidates_evaluated(&self) -> u64 {
        self.stats.candidates_evaluated
    }
}

/// Run SLRH with online weight adaptation, recording the weight trace.
///
/// The run is bit-identical to [`crate::mapper::run_slrh`] on
/// [`AdaptiveConfig::as_slrh_config`] — the segmentation below exists
/// only to *observe* the weights at control-interval boundaries, and the
/// in-loop controller is a pure function of the tick index, which
/// segmentation does not disturb.
pub fn run_adaptive_slrh<'a>(scenario: &'a Scenario, cfg: &AdaptiveConfig) -> AdaptiveOutcome<'a> {
    let mut run = cfg.as_slrh_config().armed();
    let mut state = SimState::new(scenario);
    // One frontier spans every sampling segment, so segmentation costs
    // (and changes) nothing.
    let mut frontier = Frontier::new(&state, run.scale);
    let mut stats = RunStats::default();
    let mut trace = vec![(Time::ZERO, run.objective.weights)];

    let mut now = Time::ZERO;
    loop {
        let stop = now.saturating_add(cfg.control_interval);
        now = drive(&mut state, &mut run, &mut stats, &mut frontier, now, Some(stop), None);
        if state.all_mapped() || now > scenario.tau {
            if trace.last().map(|&(_, w)| w) != Some(run.objective.weights) {
                trace.push((now, run.objective.weights));
            }
            break;
        }
        trace.push((now, run.objective.weights));
    }

    AdaptiveOutcome {
        state,
        stats,
        weight_trace: trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlrhVariant;
    use crate::mapper::{predicted_violations, run_slrh};
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    #[test]
    fn adaptive_run_completes_and_validates() {
        let sc = scenario(64);
        let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap());
        let out = run_adaptive_slrh(&sc, &AdaptiveConfig::new(base));
        assert!(out.metrics().fully_mapped());
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(!out.weight_trace.is_empty());
    }

    #[test]
    fn trace_front_end_matches_the_inloop_run_bit_for_bit() {
        // Segmenting the run to sample the trace must not perturb it:
        // the same adaptive config driven in one piece produces the
        // identical schedule, stats and final weights.
        let sc = scenario(48);
        let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        let mut cfg = AdaptiveConfig::new(base);
        cfg.control_interval = Dur(100);
        let traced = run_adaptive_slrh(&sc, &cfg);
        let plain = run_slrh(&sc, &cfg.as_slrh_config());
        // Except for how many sweeps were elided: a wake time never
        // survives a segment boundary, so each sampling segment opens
        // with a real sweep the one-piece run may have slept through.
        assert!(traced.stats.sweeps_elided <= plain.stats.sweeps_elided);
        assert_eq!(
            RunStats {
                sweeps_elided: plain.stats.sweeps_elided,
                ..traced.stats
            },
            plain.stats
        );
        assert_eq!(traced.final_weights(), plain.final_weights);
        assert_eq!(
            format!("{:?}", traced.state.schedule()),
            format!("{:?}", plain.state.schedule())
        );
    }

    #[test]
    fn slack_run_decays_penalties() {
        // Plenty of time and energy: predicted violations are negative,
        // so λ decays and α grows toward 1.
        let params = ScenarioParams::paper_scaled(48)
            .with_tau(Time::from_seconds(1_000_000));
        let sc = Scenario::generate(&params, GridCase::A, 0, 0);
        let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.4, 0.4).unwrap());
        let mut cfg = AdaptiveConfig::new(base);
        cfg.control_interval = Dur(100);
        let out = run_adaptive_slrh(&sc, &cfg);
        let w = out.final_weights();
        if out.weight_trace.len() > 1 {
            assert!(
                w.alpha() >= 0.4 - 1e-9,
                "alpha should not shrink in a slack run, got {w}"
            );
        }
    }

    #[test]
    fn violation_prediction_extrapolates() {
        let sc = scenario(32);
        let state = SimState::new(&sc);
        // Nothing mapped: no signal.
        assert_eq!(predicted_violations(&state, Time::ZERO), [0.0, 0.0]);
    }
}
