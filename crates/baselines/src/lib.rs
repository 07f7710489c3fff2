//! # grid-baselines — static comparators for the SLRH heuristics
//!
//! * [`maxmax`] — the paper's baseline (§V): an Ibarra–Kim-style **Max-Max**
//!   static heuristic driven by the same global objective, with per-version
//!   feasibility and schedule-hole insertion;
//! * [`greedy`] — the "simple greedy static heuristic" the authors used to
//!   pick the τ = 34 075 s time constraint (§III), which is the
//!   literature's minimum-completion-time list heuristic (MCT), plus the
//!   [`greedy::calibrate_tau`] helper that reproduces that selection;
//! * [`lr_list`] — a static **Lagrangian relaxation + list scheduling**
//!   mapper in the spirit of Luh & Hoitomt [LuH93] and the authors' own
//!   prior work [CaS03]: machine time/energy capacities are priced by a
//!   subgradient dual, and the relaxed selection's marginal costs order a
//!   precedence-respecting repair pass;
//! * [`dbc`] — the deadline-and-budget-constrained cost optimizer of the
//!   grid-economy literature (Buyya et al.), pricing machine seconds in
//!   grid-dollars for the open-system mode.
//!
//! Every baseline drives the same [`gridsim::SimState`] as the SLRH and is
//! checked by the same validator. The greedy and DBC-Cost are one list
//! walk under two keys.
//!
//! The literature's other list schedulers (OLB, Min-Min, HEFT) and DBC
//! time optimization are not here: at the paper's scale (|T| = 1 024,
//! 10 × 10 suite) none of them met τ on a single scenario of Cases A, B
//! or C, so a Figure 4–7 row for them reads "feasible 0/100"
//! (EXPERIMENTS.md, "Context baselines"). DBC time optimization was the
//! greedy with a price tie-break, and was never 0.1 % cheaper than it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbc;
pub mod greedy;
pub mod lr_list;
pub mod maxmax;
pub mod outcome;

pub use dbc::{plan_cost, run_dbc, run_dbc_in};
pub use greedy::{calibrate_tau, run_greedy, run_greedy_in};
pub use lr_list::{run_lr_list, run_lr_list_in};
pub use maxmax::{run_maxmax, run_maxmax_in};
pub use outcome::StaticOutcome;
