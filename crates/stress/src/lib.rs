//! # stress — the deterministic churn-fuzzing harness
//!
//! The paper's central claim is robustness under ad hoc grid dynamics:
//! machines join and drop mid-run at unanticipated times (§I, §III, §V).
//! This crate hammers exactly that path. From a single `u64` seed it
//! deterministically generates a randomized scenario (grid case, CVB ETC
//! matrix, DAG shape, data-item sizes, deadline, clock step, horizon,
//! objective weights) paired with an adversarial churn trace (machine
//! losses and arrivals at arbitrary ticks, including losses during
//! in-flight transfers and loss + arrival on the same tick), runs every
//! registered heuristic through it, and checks two oracle families:
//!
//! * **invariant oracles** ([`oracle`]) — the independent validator
//!   (`gridsim::validate`: physics, precedence, exclusivity, batteries,
//!   each machine's availability window — nothing touches a machine
//!   before it joined or after it was lost — and the metrics and each
//!   machine's ledger account against the schedule) and the
//!   receding-horizon gate on every SLRH commit;
//! * **differential oracles** ([`runner`]) — fresh `RunContext` vs
//!   reused, the frontier kernel vs the from-scratch pool walk and the
//!   resort scan (`slrh::reference`), and fresh vs reused state buffers
//!   for every static baseline: all byte-identical, compared on
//!   bit-exact (`f64::to_bits`) canonical signatures.
//!
//! A failing seed is shrunk ([`shrink`]) to a minimal reproducer — churn
//! events dropped one at a time, the DAG pruned by walking `|T|` down a
//! ladder (the generator derives the DAG from `|T|`, so shrinking the
//! task count prunes DAG suffixes), the deadline tightened — and the
//! result is persisted under `crates/stress/corpus/` in a line-oriented
//! text codec ([`spec`]) with floats stored as exact bit patterns.
//! Every corpus file replays as a regression test (`tests/corpus_replay`).
//!
//! The CLI (`cargo run -p stress -- --seeds N [--ticks-budget B]`) runs a
//! seed campaign; the same seed always produces the same scenario and the
//! same verdict.
//!
//! A large-scenario mode ([`scale`], `--scale-seeds N`, capped by
//! `--scale-max-tasks`) fuzzes the frontier kernel on grids far beyond
//! the paper's cases — up to 100k subtasks and 1000 machines — with
//! machine losses mid-run, the invariant oracle battery on every final
//! state, a cached-order-vs-resort differential, and a
//! frontier-vs-pool-walk arm on every case small enough to afford the
//! quadratic rebuild.
//!
//! The crate fuzzes the scheduler and nothing else, and depends only on
//! the crates it fuzzes: the broker's wire protocol has its own property
//! suite (`crates/broker/tests/proptest_wire_roundtrip.rs`).
//!
//! About a third of the generated cases additionally carry an
//! **open-system block** ([`spec::OpenSpec`]): a seeded Poisson job
//! trace with per-job deadlines and budgets plus a background-load
//! model, streamed through `slrh::open::run_open_in` on the shared grid
//! under the same churn trace. Each job's final state passes the full
//! invariant battery plus open-specific oracles (no work before the
//! job's arrival; the report's cost/deadline/budget claims recomputed
//! bit-exactly from the schedule; the multi-job energy ledger conserved
//! across the stream), and differential arms pin fresh-vs-reused
//! contexts and the one-job-at-zero degenerate case against the
//! closed-system driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod runner;
pub mod scale;
pub mod shrink;
pub mod spec;

pub use gen::generate;
pub use runner::{run_seed, RunReport};
pub use scale::{generate_scale, run_scale_seed, ScaleCase, ScaleReport};
pub use shrink::shrink;
pub use spec::{CaseSpec, ChurnEvent, OpenSpec};
