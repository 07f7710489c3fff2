//! ΔT and horizon sensitivity sweeps (Figure 2, ablation A3).
//!
//! Figure 2 plots, for SLRH-1 on one ETC matrix and two DAGs in Case A,
//! the effect of the clock step ΔT on both `T100` (flat in the mid-range,
//! degrading for large ΔT) and heuristic execution time (exploding for
//! small ΔT). The same machinery sweeps the horizon `H`, which the paper
//! found "negligible".

use std::time::{Duration, Instant};

use adhoc_grid::units::Dur;
use adhoc_grid::workload::Scenario;
use lagrange::weights::Weights;
use slrh::{run_slrh, SlrhConfig, SlrhVariant};

/// One sweep sample.
#[derive(Copy, Clone, Debug)]
pub struct SweepPoint {
    /// The swept parameter's value, in ticks (clock cycles).
    pub value: u64,
    /// `T100` achieved.
    pub t100: usize,
    /// Subtasks mapped.
    pub mapped: usize,
    /// Heuristic wall-clock time.
    pub wall: Duration,
    /// Clock-loop iterations (host-independent execution-time proxy).
    pub clock_steps: u64,
}

/// Sweep the clock step ΔT for SLRH-1 (Figure 2).
pub fn dt_sweep(scenario: &Scenario, weights: Weights, dts: &[u64]) -> Vec<SweepPoint> {
    dts.iter()
        .map(|&dt| {
            let cfg = SlrhConfig::paper(SlrhVariant::V1, weights).with_dt(Dur(dt));
            run_point(scenario, &cfg, dt)
        })
        .collect()
}

/// Sweep the horizon H for SLRH-1 (ablation A3).
pub fn horizon_sweep(scenario: &Scenario, weights: Weights, hs: &[u64]) -> Vec<SweepPoint> {
    hs.iter()
        .map(|&h| {
            let cfg = SlrhConfig::paper(SlrhVariant::V1, weights).with_horizon(Dur(h));
            run_point(scenario, &cfg, h)
        })
        .collect()
}

fn run_point(scenario: &Scenario, cfg: &SlrhConfig, value: u64) -> SweepPoint {
    let start = Instant::now();
    let out = run_slrh(scenario, cfg);
    let wall = start.elapsed();
    let m = out.metrics();
    SweepPoint {
        value,
        t100: m.t100,
        mapped: m.mapped,
        wall,
        clock_steps: out.stats.clock_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;

    fn scenario() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(48), GridCase::A, 0, 0)
    }

    #[test]
    fn figure2_shape_holds() {
        let sc = scenario();
        let w = Weights::new(0.5, 0.3).unwrap();
        let points = dt_sweep(&sc, w, &[1, 10, 100, 4000]);
        assert_eq!(points.len(), 4);
        // Small ΔT does the most clock iterations (execution-time proxy).
        assert!(points[0].clock_steps > points[1].clock_steps);
        assert!(points[1].clock_steps > points[2].clock_steps);
        // Mid-range T100 is insensitive; extreme ΔT can only hurt.
        assert!(points[3].t100 <= points[0].t100);
        assert_eq!(
            points[0].t100,
            points[1].t100.max(points[0].t100).min(points[0].t100)
        );
    }

    #[test]
    fn horizon_effect_is_negligible_midrange() {
        let sc = scenario();
        let w = Weights::new(0.5, 0.3).unwrap();
        let points = horizon_sweep(&sc, w, &[50, 100, 500]);
        let t100s: Vec<usize> = points.iter().map(|p| p.t100).collect();
        let spread = t100s.iter().max().unwrap() - t100s.iter().min().unwrap();
        // The paper found H's impact negligible; allow a small wobble.
        assert!(
            spread * 10 <= sc.tasks(),
            "horizon spread {spread} too large"
        );
    }
}
