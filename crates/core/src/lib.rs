//! # slrh — the Simplified Lagrangian Receding Horizon resource manager
//!
//! The paper's core contribution (§IV–V): a *dynamic* (online,
//! clock-driven) heuristic that maps DAG subtasks onto an ad hoc grid by
//! maximizing the Lagrangian objective
//! `ObjFn = α·T100/|T| − β·TEC/TSE + γ·AET/τ` subject to a receding
//! horizon: at each clock tick only subtasks that can *start* within `H`
//! of the current clock may be committed.
//!
//! There is one way to run it: [`run_slrh_with`] takes the scenario, the
//! configuration, a checked churn trace ([`Churn`] — empty for the
//! paper's frozen grid), a reusable [`RunContext`] and an optional
//! observer of the swept ticks and slept spans ([`TickEvent`]), and
//! returns the one outcome type,
//! [`SlrhOutcome`]. [`run_slrh`] (frozen grid) and [`run_slrh_churn`]
//! (event slices) are its two conveniences on a throwaway context. A
//! fixed-weight run is the adaptation that never steps: online weight
//! adjustment (the paper's §VIII future work) is a
//! [`config::Adaptation`] block on the same configuration, and the
//! weight trajectory is whatever an observer samples from
//! [`TickEvent::weights`].
//!
//! Modules:
//!
//! * [`config`] — variants, ΔT, H, objective settings (paper defaults:
//!   ΔT = 10 clock cycles, H = 100 clock cycles) and the opt-in
//!   adaptation block: projected dual ascent on the predicted
//!   energy/time constraint violations, inside the clock loop;
//! * [`pool`] — the paper's candidate pool `U`: ready subtasks that pass
//!   the conservative energy feasibility test, each with its
//!   objective-maximizing version, rebuilt from scratch per query. It
//!   defines what the kernel must answer and survives as the reference
//!   oracle;
//! * `frontier` (private) — the one product kernel: the ready frontier
//!   maintained incrementally from the subtasks each
//!   [`gridsim::state::SimState::commit`] readies, answering "best startable
//!   candidate for machine `j` now" for every driver below, exactly as
//!   the pool walk would;
//! * [`mapper`] — the Figure 1 clock loop, the three variants
//!   SLRH-1 / SLRH-2 / SLRH-3, and the entry point;
//! * [`dynamic`] — ad hoc machine churn *during* a run: the [`Churn`]
//!   trace and its one set of preconditions ([`ChurnError`]),
//!   invalidation of disrupted work, and on-the-fly remapping onto the
//!   surviving grid;
//! * [`open`] — the open system: a stream of jobs with deadlines and
//!   budgets on one shared, churning grid;
//! * [`context`] — [`RunContext`], the recycled state and frontier
//!   storage every run is built on;
//! * `reference` (hidden) — the same loop over the from-scratch pool
//!   walk or the frontier's resort scan, for differential tests only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod dynamic;
mod frontier;
#[doc(hidden)]
pub mod mapper;
pub mod open;
pub mod pool;
#[doc(hidden)]
pub mod reference;

pub use config::{Adaptation, ConfigError, ScaleMode, SlrhConfig, SlrhVariant};
pub use context::RunContext;
pub use dynamic::{run_slrh_churn, Churn, ChurnError, MachineArrivalEvent, MachineLossEvent};
pub use mapper::{run_slrh, run_slrh_with, RunStats, SlrhOutcome, TickEvent};
pub use open::{run_open, run_open_in, JobHook, OpenJobReport, OpenMetrics, OpenOutcome};
pub use pool::{build_pool_with, Pool, PoolEntry};
