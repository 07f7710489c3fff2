//! Ablations beyond the paper's study.
//!
//! Each function isolates one design choice `DESIGN.md` calls out:
//!
//! * **γ sign** (A2) — the paper chose `+γ·AET/τ` over the intuitive
//!   penalty sign, arguing the negative sign "produced very short AET
//!   solutions, but with correspondingly lower T100";
//! * **communication scale** (A1) — the paper reports communication
//!   energy was "a negligible factor"; scaling the data item sizes shows
//!   where that stops being true and the conservative worst-case pool
//!   check starts to bite;
//! * **adaptive weights** (A4) — whether online multiplier adaptation
//!   recovers tuned performance without a per-case exhaustive search.

use adhoc_grid::config::GridCase;
use adhoc_grid::data::DataGenParams;
use adhoc_grid::etc_gen::Consistency;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use gridsim::metrics::Metrics;
use lagrange::weights::{AetSign, Weights};
use slrh::{run_slrh_with, Adaptation, Churn, RunContext, SlrhConfig, SlrhVariant};

/// Run SLRH on the context's recycled buffers and keep only the metrics.
/// Every ablation arm below runs the mapper several times back to back;
/// sharing one [`RunContext`] keeps those arms allocation-flat.
fn metrics_in(scenario: &Scenario, cfg: &SlrhConfig, ctx: &mut RunContext) -> Metrics {
    let out = run_slrh_with(scenario, cfg, &Churn::default(), ctx, None);
    let m = out.metrics();
    ctx.reclaim(out.state);
    m
}

/// A2: run SLRH-1 with both AET-term signs at the same weights.
/// Returns `(paper_positive, negative)`.
pub fn gamma_sign(scenario: &Scenario, weights: Weights) -> (Metrics, Metrics) {
    let mut pos = SlrhConfig::paper(SlrhVariant::V1, weights);
    pos.objective.aet_sign = AetSign::Positive;
    let mut neg = pos;
    neg.objective.aet_sign = AetSign::Negative;
    let mut ctx = RunContext::new();
    (
        metrics_in(scenario, &pos, &mut ctx),
        metrics_in(scenario, &neg, &mut ctx),
    )
}

/// A1: regenerate the scenario with data item sizes scaled by each factor
/// and run SLRH-1. Returns `(scale, metrics)` pairs.
pub fn comm_scale(
    params: &ScenarioParams,
    case: GridCase,
    etc_id: usize,
    dag_id: usize,
    weights: Weights,
    scales: &[f64],
) -> Vec<(f64, Metrics)> {
    let cfg = SlrhConfig::paper(SlrhVariant::V1, weights);
    let mut ctx = RunContext::new();
    scales
        .iter()
        .map(|&k| {
            let mut p = *params;
            let (lo, hi) = p.data.size_mb;
            p.data = DataGenParams {
                size_mb: (lo * k, hi * k),
            };
            let sc = Scenario::generate(&p, case, etc_id, dag_id);
            (k, metrics_in(&sc, &cfg, &mut ctx))
        })
        .collect()
}

/// Consistency-class ablation: regenerate the scenario's ETC matrix in
/// each consistency class and run SLRH-1. The paper's regime is
/// inconsistent; consistent matrices concentrate the best placements on
/// a fixed machine order, changing the load-balancing problem's shape.
pub fn consistency_classes(
    params: &ScenarioParams,
    case: GridCase,
    etc_id: usize,
    dag_id: usize,
    weights: Weights,
) -> Vec<(Consistency, Metrics)> {
    let cfg = SlrhConfig::paper(SlrhVariant::V1, weights);
    let mut ctx = RunContext::new();
    [
        Consistency::Inconsistent,
        Consistency::SemiConsistent,
        Consistency::Consistent,
    ]
    .into_iter()
    .map(|consistency| {
        let mut p = *params;
        p.etc = p.etc.with_consistency(consistency);
        let sc = Scenario::generate(&p, case, etc_id, dag_id);
        (consistency, metrics_in(&sc, &cfg, &mut ctx))
    })
    .collect()
}

/// A4: on each case, compare SLRH-1 at fixed default weights, at
/// case-tuned weights, and with the adaptive controller started from the
/// defaults (constant steps of 0.25 every 50 ticks of the loop, i.e.
/// every 500 clock cycles). Returns `(fixed_default, fixed_tuned,
/// adaptive)` metrics.
pub fn adaptive_vs_fixed(
    scenario: &Scenario,
    default_weights: Weights,
    tuned_weights: Weights,
) -> (Metrics, Metrics, Metrics) {
    let default_cfg = SlrhConfig::paper(SlrhVariant::V1, default_weights);
    let tuned_cfg = SlrhConfig::paper(SlrhVariant::V1, tuned_weights);
    let adaptive_cfg = default_cfg.with_adaptation(Adaptation {
        every: 50,
        ..Adaptation::default()
    });
    let mut ctx = RunContext::new();
    (
        metrics_in(scenario, &default_cfg, &mut ctx),
        metrics_in(scenario, &tuned_cfg, &mut ctx),
        metrics_in(scenario, &adaptive_cfg, &mut ctx),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(case: GridCase) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(48), case, 0, 0)
    }

    #[test]
    fn gamma_sign_changes_behavior() {
        let sc = scenario(GridCase::A);
        let (pos, neg) = gamma_sign(&sc, Weights::new(0.4, 0.2).unwrap());
        // The negative sign compresses the schedule: AET should not grow.
        assert!(neg.aet <= pos.aet, "neg {} vs pos {}", neg.aet, pos.aet);
    }

    #[test]
    fn comm_scale_harms_monotonically() {
        let params = ScenarioParams::paper_scaled(32);
        let rows = comm_scale(
            &params,
            GridCase::A,
            0,
            0,
            Weights::new(0.5, 0.3).unwrap(),
            &[1.0, 1000.0],
        );
        assert_eq!(rows.len(), 2);
        // Communication a thousand times heavier cannot make the problem
        // easier: coverage and primary count must not improve.
        let (base, big) = (&rows[0].1, &rows[1].1);
        assert!(base.mapped > 0);
        assert!(
            big.mapped <= base.mapped,
            "{} > {}",
            big.mapped,
            base.mapped
        );
        assert!(big.t100 <= base.t100);
    }

    #[test]
    fn consistency_classes_all_run() {
        let params = ScenarioParams::paper_scaled(32);
        let rows = consistency_classes(&params, GridCase::A, 0, 0, Weights::new(0.5, 0.3).unwrap());
        assert_eq!(rows.len(), 3);
        for (_, m) in &rows {
            assert!(m.mapped > 0);
        }
    }

    #[test]
    fn adaptive_runs_all_three_modes() {
        let sc = scenario(GridCase::B);
        let (d, t, a) = adaptive_vs_fixed(
            &sc,
            Weights::new(0.5, 0.3).unwrap(),
            Weights::new(0.6, 0.2).unwrap(),
        );
        for (name, m) in [("default", d), ("tuned", t), ("adaptive", a)] {
            assert!(m.mapped > 0, "{name} mapped nothing");
        }
    }
}
