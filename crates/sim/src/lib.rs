//! # gridsim — the clock-driven ad hoc grid simulator
//!
//! This crate is the execution substrate under every heuristic in the
//! reproduction: it owns simulated time, machine and link occupation,
//! energy accounting, the produced schedule, and independent validation.
//!
//! The model follows §III of the paper exactly:
//!
//! * each machine executes **one subtask at a time**; computation and
//!   communication do not interfere ([`timeline`]);
//! * each machine handles **one outgoing and one incoming** transfer
//!   simultaneously (separate tx/rx [`timeline::Timeline`]s per machine);
//! * transferring `g` megabits from machine `i` to `j` takes
//!   `g / min(BW_i, BW_j)` seconds and costs the *sender* `C(i)` per
//!   second; receiving and idling are free; same-machine data movement is
//!   instantaneous and free;
//! * energy is tracked by a ledger ([`ledger`]) that also holds the
//!   SLRH worst-case *reservations*: when a subtask is mapped, enough
//!   energy is set aside on its machine to ship every output over the
//!   grid's lowest-bandwidth link, and the difference is refunded when
//!   each child's real placement becomes known. This is what makes the
//!   paper's pool feasibility check (§IV) sound over time: a mapped
//!   subtask can always afford its outgoing communication.
//!
//! Heuristics never touch timelines or the ledger directly: they ask
//! [`state::SimState`] to *plan* a mapping ([`plan::MappingPlan`], a pure
//! computation) and then *commit* it. Every mutation bumps the state's
//! monotonic revision counter, and a commit returns the subtasks it
//! readied, which is what lets the SLRH candidate frontier stay current
//! incrementally instead of rescanning. The [`validate`] module re-checks finished schedules from
//! scratch, so every experiment run can assert its output obeys the
//! physical model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod ledger;
pub mod metrics;
pub mod plan;
pub mod schedule;
pub mod state;
pub mod tables;
pub mod timeline;
pub mod trace;
pub mod validate;

pub use cost::schedule_cost;
pub use ledger::EnergyLedger;
pub use metrics::Metrics;
pub use plan::{Costing, MappingPlan, Placement, PlanScratch, PlanTotals, Slot};
pub use schedule::{Assignment, Schedule, Transfer};
pub use state::{SimState, StateBuffers};
pub use tables::ScenarioTables;
pub use timeline::Timeline;
pub use trace::Trace;
pub use validate::{validate, validate_schedule, Invariant, ValidationError};
