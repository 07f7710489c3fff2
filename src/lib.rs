//! # lrh-grid — Lagrangian receding-horizon resource management for ad hoc grids
//!
//! A production-quality Rust reproduction of Castain, Saylor & Siegel,
//! *"Application of Lagrangian Receding Horizon Techniques to Resource
//! Management in Ad Hoc Grid Environments"* (IPDPS 2004).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`grid`] — the ad hoc grid model: machines, DAG workloads, ETC
//!   matrices and their deterministic generators;
//! * [`sim`] — the clock-driven grid simulator: timelines, communication
//!   links, the energy ledger, schedules, validation and metrics;
//! * [`lagrange`] — the Lagrangian optimization substrate: the objective,
//!   one projected multiplier update, dual decomposition;
//! * [`slrh`] — the paper's core contribution: the SLRH-1/2/3 heuristics
//!   behind one entry point, [`slrh::run_slrh_with`], whose inputs cover
//!   the extensions too — a checked churn trace ([`slrh::Churn`]) for
//!   machines leaving and joining mid-run, an [`slrh::Adaptation`] block
//!   for online multiplier adjustment — plus the open-system job stream;
//! * [`baselines`] — static comparators: Max-Max, greedy (MCT), a
//!   Lagrangian-relaxation list scheduler and the DBC cost optimizer;
//! * [`bounds`] — the equivalent-computing-cycles upper bound;
//! * [`sweep`] — the experiment harness regenerating every paper table
//!   and figure;
//! * [`broker`] — scheduler-as-a-service: the broker daemon, its typed
//!   wire protocol, and the shared job executor that makes a submitted
//!   job byte-identical to a local run;
//! * [`cli`] — the typed command/argument layer behind the `lrh-grid`
//!   binary.
//!
//! ## Quickstart
//!
//! The configuration surface ([`SlrhConfig`], built by
//! [`SlrhConfig::paper`] and its `with_*` setters) and the
//! heuristic-agnostic result view ([`MappingOutcome`]) are re-exported
//! at the crate root:
//!
//! ```
//! use lrh_grid::grid::{GridCase, ScenarioParams, Scenario};
//! use lrh_grid::lagrange::Weights;
//! use lrh_grid::{run_slrh, SlrhConfig, SlrhVariant};
//!
//! // A reduced-scale paper scenario: Case A grid, 64 subtasks.
//! let params = ScenarioParams::paper_scaled(64);
//! let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
//!
//! // Map it with the baseline SLRH-1 heuristic at the paper defaults
//! // (ΔT = 10 ticks, H = 100 ticks); the `with_*` setters override one
//! // knob each and validate as they go.
//! let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.6, 0.2).unwrap());
//! let outcome = run_slrh(&scenario, &config);
//! let m = outcome.metrics();
//! println!("mapped {} of {} subtasks at the primary level", m.t100, scenario.tasks());
//! ```
//!
//! [`run_slrh`] is the frozen-grid convenience over the one full-signature
//! entry. The same call with everything spelled out — a churn trace
//! checked once by [`slrh::Churn`], online weight adaptation switched on
//! in the configuration, a reusable context and an observer sampling the
//! weight trajectory. The observer gets one event per swept tick and one
//! per span of ticks the loop slept through, reported at the span's
//! first tick; a span holds no adaptation tick but its first, so
//! sampling the adaptation ticks sees every weight update:
//!
//! ```
//! use lrh_grid::grid::{GridCase, ScenarioParams, Scenario};
//! use lrh_grid::lagrange::Weights;
//! use lrh_grid::slrh::{run_slrh_with, Adaptation, Churn, RunContext, TickEvent};
//! use lrh_grid::{SlrhConfig, SlrhVariant};
//!
//! let scenario = Scenario::generate(&ScenarioParams::paper_scaled(64), GridCase::A, 0, 0);
//! let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.6, 0.2).unwrap())
//!     .with_adaptation(Adaptation { every: 50, ..Adaptation::default() });
//! // Machine 1 vanishes at tick 4000; machine 3 only joins at tick 900.
//! let churn = Churn::from_pairs([(1, 4_000)], [(3, 900)], scenario.grid.len()).unwrap();
//! let mut trajectory = Vec::new();
//! let outcome = run_slrh_with(
//!     &scenario,
//!     &config,
//!     &churn,
//!     &mut RunContext::new(),
//!     Some(&mut |e: TickEvent| {
//!         if e.tick.is_multiple_of(50) {
//!             trajectory.push((e.clock, e.weights));
//!         }
//!     }),
//! );
//! assert_eq!(outcome.disruptions.len(), 1);
//! assert_eq!(trajectory.last().unwrap().1, outcome.final_weights);
//! // A trace the grid cannot honour is an error value, not a panic mid-run.
//! assert!(Churn::from_pairs([(99, 10)], [], scenario.grid.len()).is_err());
//! ```
//!
//! ## Revisions and the one candidate kernel
//!
//! The simulator's [`sim::SimState`] owns the ready set, and every
//! mutation of it — committing a plan, unmapping a subtask, losing a
//! machine, blocking a timeline — bumps a monotonic revision counter. A
//! commit returns the subtasks it readied. Every SLRH run — frozen grid
//! or churn, fixed or adapted weights, one job or the open stream —
//! answers "best startable candidate for machine *j* now" through one
//! kernel: the ready *frontier*, kept alive across clock ticks from
//! what each commit readied (a revision it did not count, such as a
//! loss cascade, makes it rebuild from the state), pruned by start lower bounds and
//! cached §IV gate rejections, and served from cached per-machine bound
//! orders so a query plans one or two candidates instead of the whole
//! ready set. Each commit is exactly the paper's pool walk's pick, at
//! every size up to 100k-subtask grids; the from-scratch walk
//! ([`slrh::build_pool_with`]) survives only as the reference oracle the
//! stress harness and the proptests compare against, and no
//! configuration field, wire key or CLI flag can select it.

pub use adhoc_grid as grid;
pub use grid_baselines as baselines;
pub use grid_bounds as bounds;
pub use grid_broker as broker;
pub use grid_sweep as sweep;
pub use gridsim as sim;
pub use lagrange;
pub use slrh;

// The configuration surface and the heuristic-agnostic result view are
// re-exported at the crate root: they are what almost every user of the
// library touches first.
pub mod cli;

pub use gridsim::MappingOutcome;
pub use slrh::{run_slrh, ConfigError, ScaleMode, SlrhConfig, SlrhVariant};
