//! # lagrange — the Lagrangian optimization substrate
//!
//! The paper's heuristic is "simplified" in that its Lagrange multipliers
//! — the objective weights α, β, γ — are held constant during a run (§IV),
//! and its summary calls for "on-the-fly adjustment of the Lagrangian
//! parameters" as future work (§VIII). This crate provides the machinery
//! both halves need, hand-coded because no suitable optimization crate is
//! in the approved dependency set:
//!
//! * [`weights`] — the constrained weight triple `(α, β, γ)` on the unit
//!   simplex and the paper's global objective function
//!   `ObjFn = α·T100/|T| − β·TEC/TSE + γ·AET/τ`;
//! * [`step`] — classic subgradient step-size rules (constant,
//!   diminishing `a/√k`, Polyak) and the one projected multiplier update
//!   `λ ← max(0, λ + s·g)`, [`StepRule::ascend`], that both the dual
//!   solver and the online weight controller take;
//! * [`online`] — the online weight controller itself: a stateless,
//!   lattice-snapped projected subgradient step mapping the live
//!   objective weights and one tick's constraint violations to the next
//!   tick's weights (the §VIII "on-the-fly adjustment", wired into the
//!   SLRH clock loop by the `slrh` crate);
//! * [`dual`] — Lagrangian relaxation of *separable* selection problems
//!   (each item independently picks one option once the coupling
//!   capacity constraints are priced) and its one solver,
//!   [`SeparableProblem::minimize_dual`], which returns the Lagrangian
//!   upper bound directly; the structure used by the [LuH93]-style static
//!   scheduling baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dual;
pub mod online;
pub mod step;
pub mod weights;

pub use dual::{Selection, SeparableProblem};
pub use online::adapt_step;
pub use step::StepRule;
pub use weights::{AetSign, Objective, ObjectiveInputs, WeightError, Weights};
