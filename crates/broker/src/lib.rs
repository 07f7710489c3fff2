//! # grid-broker — scheduler-as-a-service for the lrh-grid workspace
//!
//! A long-running broker daemon that accepts workload submissions (a
//! scenario spec, a heuristic, an [`slrh::SlrhConfig`] and a deadline)
//! over a line-delimited, versioned TCP wire protocol, executes each on
//! the thread of the connection that submitted it, at most `workers` at
//! once, and streams progress events and a final deterministic report
//! back to the client.
//!
//! Modules, bottom-up:
//!
//! * [`proto`] — the typed message layer ([`proto::MapRequest`],
//!   [`proto::Event`], responses) over the generic frame codec in
//!   `adhoc_grid::io::wire`; every type round-trips through its frame.
//! * [`execute`] — shared job execution. The one-shot CLI and the
//!   daemon call the same functions, which is what makes a submitted
//!   job's report byte-identical to a local run.
//! * [`queue`] — the fair queue the daemon grants execution slots in:
//!   FIFO per client, round-robin across clients.
//! * [`checkpoint`] — campaign batch-job checkpoints: one canonical row
//!   per completed unit, so a killed daemon resumes without re-running
//!   finished cells.
//! * [`server`] — the daemon: accept and connection threads, one
//!   recycled [`slrh::RunContext`] per execution slot, graceful
//!   shutdown.
//! * [`client`] — the blocking client used by `lrh-grid
//!   submit`/`watch`/`status` and the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod execute;
pub mod proto;
pub mod queue;
pub mod server;

pub use checkpoint::Checkpoint;
pub use client::Connection;
pub use execute::{execute_campaign, execute_map, execute_map_counted, execute_open};
pub use proto::{
    CampaignRequest, CampaignResponse, ErrorResponse, Event, MapRequest, MapResponse, OpenRequest,
    Request, ScenarioSpec, ServerMsg, StatusRequest, StatusResponse,
};
pub use queue::JobQueue;
pub use server::{serve, BrokerConfig, BrokerHandle};
