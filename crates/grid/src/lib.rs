//! # adhoc-grid — the ad hoc computing grid model
//!
//! This crate implements the *environment* of Castain, Saylor & Siegel,
//! "Application of Lagrangian Receding Horizon Techniques to Resource
//! Management in Ad Hoc Grid Environments" (IPDPS 2004), §III:
//!
//! * battery-powered **machines** in two classes (fast notebooks, slow PDAs)
//!   characterised by battery capacity `B(j)`, compute power draw `E(j)`,
//!   transmit power draw `C(j)` and link bandwidth `BW(j)` ([`machine`]);
//! * **grid configurations** — the paper's Cases A/B/C plus arbitrary
//!   mixes ([`config`]);
//! * a **workload** of `|T| = 1024` communicating subtasks with *primary*
//!   and *secondary* (10 % cost / 10 % output) versions, precedence given
//!   by a DAG, and per-edge global data items `g(i,k)` ([`task`], [`dag`],
//!   [`data`]);
//! * deterministic **generators** for estimated-time-to-compute (ETC)
//!   matrices using the Gamma-distribution method of [AlS00] ([`etc_gen`],
//!   [`gamma`]) and for layered random DAGs in the spirit of [ShC04]
//!   ([`dag_gen`]);
//! * strongly-typed **units** (ticks of 0.1 s, energy units, megabits) so
//!   mixed-unit arithmetic is a compile error ([`units`]).
//!
//! Everything is seed-deterministic: a [`workload::Scenario`] is fully
//! reproducible from `(etc_id, dag_id)` and the suite master seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod config;
pub mod dag;
pub mod dag_gen;
pub mod data;
pub mod etc;
pub mod etc_gen;
pub mod gamma;
pub mod io;
pub mod machine;
pub mod scale;
pub mod seed;
pub mod task;
pub mod units;
pub mod workload;

pub use arrival::{
    poisson_trace, Background, BackgroundParams, JobArrival, JobKind, OpenParams, PoissonError,
    PoissonParams,
};
pub use config::{GridCase, GridConfig, MachineId};
pub use dag::Dag;
pub use data::DataSizes;
pub use etc::EtcMatrix;
pub use machine::{MachineClass, MachineSpec};
pub use scale::ScaleParams;
pub use task::{TaskId, Version};
pub use units::{Dur, Energy, Megabits, Time, TICKS_PER_SECOND};
pub use workload::{Scenario, ScenarioParams, ScenarioSet};
