//! # grid-sweep — the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (§VII):
//!
//! * [`heuristic`] — a uniform registry over every mapper in the
//!   workspace (SLRH variants, Max-Max, the extra baselines), with
//!   validated, wall-clock-timed runs;
//! * [`weight_search`] — the one (α, β) optimality search: a coarse 0.1
//!   grid refined at 0.02, accepting only runs that map all subtasks
//!   within both constraints (Figure 3);
//! * [`campaign`] — the full 10 ETC × 10 DAG × 3 case study behind
//!   Figures 4–7, with genuinely parallel tuning (the workspace rayon
//!   executor; thread count via `RAYON_NUM_THREADS`) and a
//!   single-threaded timing pass so wall-clock numbers stay clean.
//!   Parallel output is byte-identical to sequential output — the
//!   determinism differential tests under `tests/` pin it;
//! * [`dt_sweep`] — the ΔT and horizon sensitivity sweeps (Figure 2,
//!   ablation A3);
//! * [`ablate`] — ablations beyond the paper: γ-sign, communication
//!   scale, adaptive weights, ETC consistency;
//! * [`stats`], [`report`] — summary statistics and fixed-width text
//!   tables shaped like the paper's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablate;
pub mod campaign;
pub mod dt_sweep;
pub mod heuristic;
pub mod report;
pub mod stats;
pub mod weight_search;

pub use campaign::{canonical_report, run_campaign, run_case_unit, CampaignConfig, CaseRow};
pub use dt_sweep::{dt_sweep, horizon_sweep, SweepPoint};
pub use heuristic::{Heuristic, RunResult};
pub use stats::Summary;
pub use weight_search::{
    optimal_weights, optimal_weights_with_steps, optimal_weights_with_steps_in, weight_stats,
    SearcherKind, WeightSearchOutcome, WeightStats,
};
