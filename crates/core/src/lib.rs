//! # slrh — the Simplified Lagrangian Receding Horizon resource manager
//!
//! The paper's core contribution (§IV–V): a *dynamic* (online,
//! clock-driven) heuristic that maps DAG subtasks onto an ad hoc grid by
//! maximizing the Lagrangian objective
//! `ObjFn = α·T100/|T| − β·TEC/TSE + γ·AET/τ` subject to a receding
//! horizon: at each clock tick only subtasks that can *start* within `H`
//! of the current clock may be committed.
//!
//! Modules:
//!
//! * [`config`] — variants, ΔT, H, objective settings (paper defaults:
//!   ΔT = 10 clock cycles, H = 100 clock cycles);
//! * [`pool`] — the paper's candidate pool `U`: ready subtasks that pass
//!   the conservative energy feasibility test, each with its
//!   objective-maximizing version, rebuilt from scratch per query. It
//!   defines what the kernel must answer and survives as the reference
//!   oracle;
//! * `frontier` (private) — the one product kernel: the ready frontier
//!   maintained incrementally from the simulator's
//!   [`gridsim::state::StateDelta`] stream, answering "best startable
//!   candidate for machine `j` now" for every driver below, exactly as
//!   the pool walk would at `clusters: 1`;
//! * [`mapper`] — the Figure 1 clock loop and the three variants
//!   SLRH-1 / SLRH-2 / SLRH-3;
//! * [`adaptive`] — the paper's stated future work (§VIII): on-the-fly
//!   adjustment of the weights, implemented as projected dual ascent on
//!   the energy/time constraint violations;
//! * [`dynamic`] — ad hoc machine loss *during* a run: invalidation of
//!   disrupted work and on-the-fly remapping onto the surviving grid;
//! * [`open`] — the open system: a stream of jobs with deadlines and
//!   budgets on one shared, churning grid;
//! * [`context`] — [`RunContext`], the recycled state and frontier
//!   storage behind every `*_in` entry point;
//! * `reference` (hidden) — the same loop over the from-scratch pool
//!   walk or the frontier's resort scan, for differential tests only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
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

pub use adaptive::{run_adaptive_slrh, AdaptiveConfig, AdaptiveOutcome};
pub use config::{Adaptation, ConfigError, MachineOrder, ScaleMode, SlrhConfig, SlrhConfigBuilder, SlrhVariant, Trigger};
pub use context::RunContext;
pub use dynamic::{run_slrh_churn, run_slrh_churn_in, run_slrh_churn_observed, run_slrh_dynamic, DynamicOutcome, MachineArrivalEvent, MachineLossEvent};
pub use mapper::{run_slrh, run_slrh_in, run_slrh_observed, RunStats, SlrhOutcome, TickEvent};
pub use open::{run_open, run_open_in, JobHook, OpenJobReport, OpenMetrics, OpenOutcome};
pub use pool::{build_pool, build_pool_with, Pool, PoolEntry};
