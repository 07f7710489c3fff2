//! The typed message layer of the broker wire protocol.
//!
//! Every message is one [`Frame`] (`adhoc_grid::io::wire`); this module
//! decides which kinds and keys exist and converts between frames and
//! typed Rust values. Each type round-trips:
//! `from_frame(&to_frame(&m)) == m`, property-tested in
//! `tests/proptest_wire_roundtrip.rs`, which also feeds every decoder
//! mutated and garbage streams.
//!
//! Scalar values reuse the workspace's stable `Display`/`FromStr`
//! pairs — [`Heuristic`], [`GridCase`], [`SlrhConfig`] (which carries
//! the weights bit-exactly) — so a value printed on either side of the
//! wire re-parses to the identical value on the other.
//!
//! A daemon's messages state their fields once, against
//! [`FieldSink`]: `to_frame()` collects them into a [`Frame`] (the typed
//! API), [`ServerMsg::encode_into`] writes the same bytes straight into
//! a reused buffer (the reply path: one message per committing tick).

use adhoc_grid::arrival::{BackgroundParams, JobArrival, OpenParams};
use adhoc_grid::config::GridCase;
use adhoc_grid::io::kv::{self, KvError};
use adhoc_grid::io::wire::{FieldSink, Frame, FrameWriter};
use adhoc_grid::units::{check_input_tasks, Time, MAX_INPUT_TICKS};
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::SearcherKind;
use slrh::{Churn, ChurnError, MachineArrivalEvent, MachineLossEvent, SlrhConfig};

/// Frame kind of [`MapRequest`].
pub const KIND_MAP_REQUEST: &str = "map-request";
/// Frame kind of [`CampaignRequest`].
pub const KIND_CAMPAIGN_REQUEST: &str = "campaign-request";
/// Frame kind of [`OpenRequest`].
pub const KIND_OPEN_REQUEST: &str = "open-request";
/// Frame kind of [`StatusRequest`].
pub const KIND_STATUS_REQUEST: &str = "status-request";
/// Frame kind of the shutdown request.
pub const KIND_SHUTDOWN_REQUEST: &str = "shutdown-request";
/// Frame kind of [`Event`].
pub const KIND_EVENT: &str = "event";
/// Frame kind of [`MapResponse`].
pub const KIND_MAP_RESPONSE: &str = "map-response";
/// Frame kind of [`CampaignResponse`].
pub const KIND_CAMPAIGN_RESPONSE: &str = "campaign-response";
/// Frame kind of [`StatusResponse`].
pub const KIND_STATUS_RESPONSE: &str = "status-response";
/// Frame kind of [`ErrorResponse`].
pub const KIND_ERROR: &str = "error";
/// Frame kind of the shutdown acknowledgement.
pub const KIND_OK: &str = "ok";

fn bad<T>(msg: impl Into<String>) -> Result<T, KvError> {
    kv::err(0, msg)
}

/// A `kind` frame holding whatever `fields` puts into it.
fn framed(kind: &str, fields: impl FnOnce(&mut Frame)) -> Frame {
    let mut f = Frame::new(kind);
    fields(&mut f);
    f
}

fn expect_kind(frame: &Frame, kind: &str) -> Result<(), KvError> {
    if frame.kind == kind {
        Ok(())
    } else {
        bad(format!("expected a {kind} frame, got {:?}", frame.kind))
    }
}

/// The submitter identity every job request opens with.
fn put_identity(s: &mut impl FieldSink, client: &str, label: &str) {
    s.put("client", client);
    s.put("label", label);
}

/// [`put_identity`] read back, with the defaults of a frame that omits
/// them: `(client, label)`.
fn identity(frame: &Frame) -> (String, String) {
    let or = |key, default: &str| frame.get(key).unwrap_or(default).to_string();
    (or("client", "anon"), or("label", ""))
}

/// The churn trace of a request: `loss` then `arrival` entries.
fn put_churn(s: &mut impl FieldSink, losses: &[(usize, u64)], arrivals: &[(usize, u64)]) {
    for (key, events) in [("loss", losses), ("arrival", arrivals)] {
        for (m, t) in events {
            s.put(key, format_args!("{m}@{t}"));
        }
    }
}

/// How a request names its workload.
#[derive(Clone, PartialEq, Debug)]
pub enum ScenarioSpec {
    /// Generate deterministically from suite coordinates (the same
    /// parameters `lrh-grid run` takes).
    Generate {
        /// Subtask count `|T|` (paper-scaled parameters).
        tasks: usize,
        /// Grid case.
        case: GridCase,
        /// ETC suite member.
        etc: usize,
        /// DAG suite member.
        dag: usize,
        /// Master seed override (default: the paper-scaled default).
        seed: Option<u64>,
        /// Deadline override in ticks (default: paper-scaled τ).
        tau: Option<u64>,
    },
    /// A workload previously exported with `lrh-grid export`
    /// (`adhoc_grid::io` text), carried verbatim in a raw block.
    Inline(String),
}

impl ScenarioSpec {
    /// Materialize the scenario. Deterministic in the spec. The deadline
    /// τ — overridden, scaled from `tasks`, or read from an inline
    /// workload — is held to [`MAX_INPUT_TICKS`] here, the one place
    /// every request's scenario comes from, and `tasks` to
    /// [`adhoc_grid::units::MAX_INPUT_TASKS`] before anything is
    /// generated (an inline workload's reader checks its own header).
    pub fn build(&self) -> Result<Scenario, String> {
        let scenario = match self {
            ScenarioSpec::Generate {
                tasks,
                case,
                etc,
                dag,
                seed,
                tau,
            } => {
                if *tasks == 0 {
                    return Err("tasks must be positive".into());
                }
                check_input_tasks(*tasks)?;
                let mut params = ScenarioParams::paper_scaled(*tasks);
                if let Some(seed) = seed {
                    params = params.with_seed(*seed);
                }
                if let Some(tau) = tau {
                    params = params.with_tau(Time(*tau));
                }
                Scenario::generate(&params, *case, *etc, *dag)
            }
            ScenarioSpec::Inline(text) => {
                adhoc_grid::io::read(text).map_err(|e| format!("inline scenario: {e}"))?
            }
        };
        if scenario.tau.0 > MAX_INPUT_TICKS {
            return Err(format!("tau must be at most {MAX_INPUT_TICKS} ticks"));
        }
        Ok(scenario)
    }

    fn fields(&self, s: &mut impl FieldSink) {
        match self {
            ScenarioSpec::Generate {
                tasks,
                case,
                etc,
                dag,
                seed,
                tau,
            } => {
                s.put("tasks", tasks);
                s.put("case", case);
                s.put("etc", etc);
                s.put("dag", dag);
                if let Some(seed) = seed {
                    s.put("seed", format_args!("0x{seed:016x}"));
                }
                if let Some(tau) = tau {
                    s.put("tau", tau);
                }
            }
            ScenarioSpec::Inline(text) => s.put_block("scenario", text),
        }
    }

    fn decode_from(frame: &Frame) -> Result<ScenarioSpec, KvError> {
        if let Some(text) = frame.raw("scenario") {
            return Ok(ScenarioSpec::Inline(text.to_string()));
        }
        Ok(ScenarioSpec::Generate {
            tasks: frame.parse("tasks", kv::parse_usize)?,
            case: frame.parse("case", str::parse)?,
            etc: frame.parse("etc", kv::parse_usize)?,
            dag: frame.parse("dag", kv::parse_usize)?,
            seed: frame.parse_opt("seed", kv::parse_u64)?,
            tau: frame.parse_opt("tau", kv::parse_u64)?,
        })
    }
}

/// A workload submission: map one scenario with one heuristic under one
/// configuration, optionally under machine churn.
#[derive(Clone, PartialEq, Debug)]
pub struct MapRequest {
    /// Client identity; the daemon queues jobs FIFO per client and
    /// serves clients round-robin.
    pub client: String,
    /// Client-chosen job label, echoed in the report.
    pub label: String,
    /// Which heuristic to run.
    pub heuristic: Heuristic,
    /// The full configuration (carries the objective weights). For the
    /// SLRH heuristics the variant must match `heuristic`; baselines
    /// read only the weights.
    pub config: SlrhConfig,
    /// The workload.
    pub scenario: ScenarioSpec,
    /// Machine losses (ticks); SLRH heuristics only.
    pub losses: Vec<(usize, u64)>,
    /// Machine arrivals (ticks); SLRH heuristics only.
    pub arrivals: Vec<(usize, u64)>,
}

impl MapRequest {
    /// The losses as the churn API's event type (unchecked).
    pub fn loss_events(&self) -> Vec<MachineLossEvent> {
        self.losses.iter().map(|&pair| pair.into()).collect()
    }

    /// The arrivals as the churn API's event type (unchecked).
    pub fn arrival_events(&self) -> Vec<MachineArrivalEvent> {
        self.arrivals.iter().map(|&pair| pair.into()).collect()
    }

    /// The request's churn trace, checked against a grid of `machines`
    /// machines.
    pub fn churn(&self, machines: usize) -> Result<Churn, ChurnError> {
        Churn::from_pairs(
            self.losses.iter().copied(),
            self.arrivals.iter().copied(),
            machines,
        )
    }

    fn fields(&self, s: &mut impl FieldSink) {
        put_identity(s, &self.client, &self.label);
        s.put("heuristic", self.heuristic.flag_name());
        s.put("config", self.config);
        self.scenario.fields(s);
        put_churn(s, &self.losses, &self.arrivals);
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_MAP_REQUEST, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<MapRequest, KvError> {
        expect_kind(frame, KIND_MAP_REQUEST)?;
        let (client, label) = identity(frame);
        Ok(MapRequest {
            client,
            label,
            heuristic: frame.parse("heuristic", str::parse)?,
            config: frame.parse("config", str::parse)?,
            // Written order is error order, and clients see the text: a
            // frame with several bad fields names the churn trace first.
            losses: frame.parse_all("loss", kv::parse_at_pair)?,
            arrivals: frame.parse_all("arrival", kv::parse_at_pair)?,
            scenario: ScenarioSpec::decode_from(frame)?,
        })
    }
}

/// An open-system streaming job: schedule an explicit arrival trace of
/// deadline/budget-constrained jobs on one shared, churning grid
/// ([`slrh::open`]). The trace always travels explicitly — clients
/// expand Poisson parameters *before* submitting — so the daemon's run
/// is a pure function of the frame and byte-identical to the one-shot
/// CLI on the same request.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenRequest {
    /// Client identity (see [`MapRequest::client`]).
    pub client: String,
    /// Client-chosen job label, echoed in the report.
    pub label: String,
    /// The SLRH configuration driving every per-job clock loop.
    pub config: SlrhConfig,
    /// The shared grid case.
    pub case: GridCase,
    /// Master seed for per-job artifact generation.
    pub seed: u64,
    /// The arrival trace, in arrival order.
    pub jobs: Vec<JobArrival>,
    /// Background-load model parameters.
    pub bg: BackgroundParams,
    /// Machine losses (ticks).
    pub losses: Vec<(usize, u64)>,
    /// Machine arrivals (ticks).
    pub arrivals: Vec<(usize, u64)>,
}

impl OpenRequest {
    /// The open-system instance this request names.
    pub fn open_params(&self) -> OpenParams {
        OpenParams {
            case: self.case,
            master_seed: self.seed,
            jobs: self.jobs.clone(),
            bg: self.bg,
        }
    }

    /// Encode to a wire frame. The background key is omitted when the
    /// model is inert, mirroring how every other optional rides the
    /// wire.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_OPEN_REQUEST, |f| self.fields(f))
    }

    fn fields(&self, s: &mut impl FieldSink) {
        put_identity(s, &self.client, &self.label);
        s.put("config", self.config);
        s.put("case", self.case);
        s.put("seed", format_args!("0x{:016x}", self.seed));
        for job in &self.jobs {
            s.put("job", job.encode());
        }
        if !self.bg.is_none() {
            s.put("background", self.bg.encode());
        }
        put_churn(s, &self.losses, &self.arrivals);
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<OpenRequest, KvError> {
        expect_kind(frame, KIND_OPEN_REQUEST)?;
        let (client, label) = identity(frame);
        let config = frame.parse("config", str::parse)?;
        let case = frame.parse("case", str::parse)?;
        let seed = frame.parse("seed", kv::parse_u64)?;
        let jobs = frame.parse_all("job", JobArrival::decode)?;
        if jobs.is_empty() {
            return bad("open-request needs at least one job");
        }
        Ok(OpenRequest {
            client,
            label,
            config,
            case,
            seed,
            jobs,
            bg: frame
                .parse_opt("background", BackgroundParams::decode)?
                .unwrap_or_else(BackgroundParams::none),
            losses: frame.parse_all("loss", kv::parse_at_pair)?,
            arrivals: frame.parse_all("arrival", kv::parse_at_pair)?,
        })
    }
}

/// A campaign sweep submitted as a batch job: the full
/// (heuristic × case) grid over a scenario suite, one checkpointable
/// unit per cell.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignRequest {
    /// Client identity (see [`MapRequest::client`]).
    pub client: String,
    /// Client-chosen job label.
    pub label: String,
    /// Subtask count per scenario (paper-scaled parameters).
    pub tasks: usize,
    /// ETC suite size.
    pub etc_count: usize,
    /// DAG suite size.
    pub dag_count: usize,
    /// Heuristics to evaluate, in order.
    pub heuristics: Vec<Heuristic>,
    /// Cases to evaluate, in order.
    pub cases: Vec<GridCase>,
    /// Coarse weight-search step.
    pub coarse: f64,
    /// Fine weight-search step.
    pub fine: f64,
    /// Per-unit weight searcher: always the Figure 3 grid, which never
    /// rides the wire or the fingerprint. A frame naming any other
    /// searcher is refused.
    pub searcher: SearcherKind,
    /// Checkpoint file path on the daemon host; units already recorded
    /// there are not re-run.
    pub checkpoint: Option<String>,
}

impl CampaignRequest {
    /// Deterministic description of the campaign's parameters. Stored in
    /// the checkpoint header so a checkpoint can only resume the
    /// campaign that wrote it.
    pub fn fingerprint(&self) -> String {
        format!(
            "tasks={};etc={};dag={};heuristics={};cases={};coarse={};fine={}",
            self.tasks,
            self.etc_count,
            self.dag_count,
            self.heuristics
                .iter()
                .map(|h| h.flag_name())
                .collect::<Vec<_>>()
                .join(","),
            self.cases
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(","),
            kv::format_f64(self.coarse),
            kv::format_f64(self.fine),
        )
    }

    /// The (heuristic, case) unit grid, in execution order.
    pub fn units(&self) -> Vec<(Heuristic, GridCase)> {
        let mut out = Vec::new();
        for &h in &self.heuristics {
            for &c in &self.cases {
                out.push((h, c));
            }
        }
        out
    }

    fn fields(&self, s: &mut impl FieldSink) {
        put_identity(s, &self.client, &self.label);
        s.put("tasks", self.tasks);
        s.put("etc-count", self.etc_count);
        s.put("dag-count", self.dag_count);
        s.put("coarse", kv::format_f64(self.coarse));
        s.put("fine", kv::format_f64(self.fine));
        for h in &self.heuristics {
            s.put("heuristic", h.flag_name());
        }
        for c in &self.cases {
            s.put("case", c);
        }
        if let Some(cp) = &self.checkpoint {
            s.put("checkpoint", cp);
        }
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_CAMPAIGN_REQUEST, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<CampaignRequest, KvError> {
        expect_kind(frame, KIND_CAMPAIGN_REQUEST)?;
        let (client, label) = identity(frame);
        let heuristics = frame.parse_all("heuristic", str::parse)?;
        let cases = frame.parse_all("case", str::parse)?;
        if heuristics.is_empty() || cases.is_empty() {
            return bad("campaign-request needs at least one heuristic and one case");
        }
        Ok(CampaignRequest {
            client,
            label,
            tasks: frame.parse("tasks", kv::parse_usize)?,
            etc_count: frame.parse("etc-count", kv::parse_usize)?,
            dag_count: frame.parse("dag-count", kv::parse_usize)?,
            heuristics,
            cases,
            coarse: frame.parse("coarse", kv::parse_f64)?,
            fine: frame.parse("fine", kv::parse_f64)?,
            searcher: frame
                .parse_opt("searcher", parse_searcher)?
                .unwrap_or_default(),
            checkpoint: frame.get("checkpoint").map(str::to_string),
        })
    }
}

/// Decode a `searcher=` value. `grid` is the only searcher (and never
/// emitted); `anneal(S, N)` selected a seeded annealing searcher that
/// was retired. That value changed results, so unlike a retired kernel
/// selector it is refused, never run as the grid.
fn parse_searcher(s: &str) -> Result<SearcherKind, String> {
    match s {
        "grid" => Ok(SearcherKind::Grid),
        _ => Err(format!(
            "{s:?} is not a searcher: the annealing searcher was retired and grid is the only one"
        )),
    }
}

/// A progress event streamed while a job runs. Event payloads are
/// deterministic in the job — they never name wall-clock times or
/// thread identities, so the stream a client sees is byte-identical
/// regardless of the daemon's slot count.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// The job was accepted and queued.
    Queued {
        /// Daemon-assigned job id.
        job: u64,
    },
    /// The job took an execution slot and started executing.
    Started {
        /// Job id.
        job: u64,
    },
    /// One SLRH clock tick that committed mappings, standing also for
    /// the `idle` commit-free ticks before it. A run that ends on
    /// commit-free ticks closes with one frame for its last tick
    /// (`commits: 0`), so over a job's tick frames Σ(1 + `idle`) is the
    /// report's `clock-steps` and Σ `commits` its `commits`.
    Tick {
        /// Job id.
        job: u64,
        /// Simulation clock, in ticks.
        clock: u64,
        /// 0-based tick ordinal ([`slrh::TickEvent::tick`]).
        tick: u64,
        /// Subtasks mapped so far.
        mapped: usize,
        /// Mappings committed during this tick.
        commits: u64,
        /// Commit-free ticks since the job's previous tick frame. On
        /// the wire the key is written only when non-zero and reads as
        /// 0 when absent, so a session recorded before the key existed
        /// still decodes.
        idle: u64,
    },
    /// A churn disruption took effect.
    Disruption {
        /// Job id.
        job: u64,
        /// Effective time, in ticks.
        at: u64,
        /// Subtask mappings invalidated.
        invalidated: usize,
    },
    /// One open-system job finished scheduling. `cost` is a pure
    /// function of the job's final schedule, so the payload stays
    /// deterministic; it rides the wire as an exact f64 bit pattern.
    Job {
        /// Daemon job id.
        job: u64,
        /// Stream job id ([`adhoc_grid::arrival::JobArrival::id`]).
        id: u64,
        /// Subtasks mapped (of `tasks`).
        mapped: usize,
        /// Subtasks in the job.
        tasks: usize,
        /// Completed by its absolute deadline.
        hit: bool,
        /// Grid-dollars billed to the job.
        cost: f64,
    },
    /// One campaign unit finished.
    Unit {
        /// Job id.
        job: u64,
        /// 0-based unit index in the campaign grid.
        index: usize,
        /// Total units in the grid.
        total: usize,
        /// The unit's canonical row ([`grid_sweep::CaseRow::canonical`]).
        row: String,
    },
    /// The job finished; the response frame follows.
    Done {
        /// Job id.
        job: u64,
    },
}

impl Event {
    /// The job this event belongs to.
    pub fn job(&self) -> u64 {
        match *self {
            Event::Queued { job }
            | Event::Started { job }
            | Event::Tick { job, .. }
            | Event::Disruption { job, .. }
            | Event::Job { job, .. }
            | Event::Unit { job, .. }
            | Event::Done { job } => job,
        }
    }

    /// The fields of the event, in wire order.
    fn fields(&self, s: &mut impl FieldSink) {
        s.put("job", self.job());
        match self {
            Event::Queued { .. } => s.put("event", "queued"),
            Event::Started { .. } => s.put("event", "started"),
            Event::Tick {
                clock,
                tick,
                mapped,
                commits,
                idle,
                ..
            } => {
                s.put("event", "tick");
                s.put("clock", clock);
                s.put("tick", tick);
                s.put("mapped", mapped);
                s.put("commits", commits);
                if *idle != 0 {
                    s.put("idle", idle);
                }
            }
            Event::Disruption {
                at, invalidated, ..
            } => {
                s.put("event", "disruption");
                s.put("at", at);
                s.put("invalidated", invalidated);
            }
            Event::Job {
                id,
                mapped,
                tasks,
                hit,
                cost,
                ..
            } => {
                s.put("event", "job");
                s.put("id", id);
                s.put("mapped", mapped);
                s.put("tasks", tasks);
                s.put("hit", if *hit { "yes" } else { "no" });
                s.put("cost", kv::F64Bits(*cost));
            }
            Event::Unit {
                index, total, row, ..
            } => {
                s.put("event", "unit");
                s.put("index", index);
                s.put("total", total);
                s.put("row", row);
            }
            Event::Done { .. } => s.put("event", "done"),
        }
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_EVENT, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<Event, KvError> {
        expect_kind(frame, KIND_EVENT)?;
        let num = |key| frame.parse(key, kv::parse_u64);
        let count = |key| frame.parse(key, kv::parse_usize);
        let job = num("job")?;
        match frame.req("event")? {
            "queued" => Ok(Event::Queued { job }),
            "started" => Ok(Event::Started { job }),
            "tick" => Ok(Event::Tick {
                job,
                clock: num("clock")?,
                tick: num("tick")?,
                mapped: count("mapped")?,
                commits: num("commits")?,
                idle: frame.parse_opt("idle", kv::parse_u64)?.unwrap_or(0),
            }),
            "disruption" => Ok(Event::Disruption {
                job,
                at: num("at")?,
                invalidated: count("invalidated")?,
            }),
            "job" => Ok(Event::Job {
                job,
                id: num("id")?,
                mapped: count("mapped")?,
                tasks: count("tasks")?,
                hit: match frame.req("hit")? {
                    "yes" => true,
                    "no" => false,
                    other => return bad(format!("bad hit flag {other:?}")),
                },
                cost: frame.parse("cost", kv::parse_f64_bits)?,
            }),
            "unit" => Ok(Event::Unit {
                job,
                index: count("index")?,
                total: count("total")?,
                row: frame.req("row")?.to_string(),
            }),
            "done" => Ok(Event::Done { job }),
            other => bad(format!("unknown event type {other:?}")),
        }
    }
}

/// The final answer to a [`MapRequest`]: the deterministic report.
#[derive(Clone, PartialEq, Debug)]
pub struct MapResponse {
    /// Job id.
    pub job: u64,
    /// The deterministic report text (`crate::execute`); byte-identical
    /// to what `lrh-grid run` prints for the same request.
    pub report: String,
}

impl MapResponse {
    fn fields(&self, s: &mut impl FieldSink) {
        s.put("job", self.job);
        s.put_block("report", &self.report);
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_MAP_RESPONSE, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<MapResponse, KvError> {
        expect_kind(frame, KIND_MAP_RESPONSE)?;
        Ok(MapResponse {
            job: frame.parse("job", kv::parse_u64)?,
            report: frame.req_raw("report")?.to_string(),
        })
    }
}

/// The final answer to a [`CampaignRequest`]: the canonical report.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignResponse {
    /// Job id.
    pub job: u64,
    /// Units restored from the checkpoint (not re-run).
    pub resumed: usize,
    /// The canonical campaign report
    /// ([`grid_sweep::campaign::canonical_report`]).
    pub report: String,
}

impl CampaignResponse {
    fn fields(&self, s: &mut impl FieldSink) {
        s.put("job", self.job);
        s.put("resumed", self.resumed);
        s.put_block("report", &self.report);
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_CAMPAIGN_RESPONSE, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<CampaignResponse, KvError> {
        expect_kind(frame, KIND_CAMPAIGN_RESPONSE)?;
        Ok(CampaignResponse {
            job: frame.parse("job", kv::parse_u64)?,
            resumed: frame.parse("resumed", kv::parse_usize)?,
            report: frame.req_raw("report")?.to_string(),
        })
    }
}

/// A daemon status snapshot.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StatusResponse {
    /// Jobs queued but not yet started.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs completed since the daemon started.
    pub completed: u64,
    /// Execution slots: jobs executing at once.
    pub workers: usize,
}

impl StatusResponse {
    fn fields(&self, s: &mut impl FieldSink) {
        s.put("queued", self.queued);
        s.put("running", self.running);
        s.put("completed", self.completed);
        s.put("workers", self.workers);
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_STATUS_RESPONSE, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<StatusResponse, KvError> {
        expect_kind(frame, KIND_STATUS_RESPONSE)?;
        Ok(StatusResponse {
            queued: frame.parse("queued", kv::parse_usize)?,
            running: frame.parse("running", kv::parse_usize)?,
            completed: frame.parse("completed", kv::parse_u64)?,
            workers: frame.parse("workers", kv::parse_usize)?,
        })
    }
}

/// A status request (no payload).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct StatusRequest;

impl StatusRequest {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        Frame::new(KIND_STATUS_REQUEST)
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<StatusRequest, KvError> {
        expect_kind(frame, KIND_STATUS_REQUEST)?;
        Ok(StatusRequest)
    }
}

/// A request the daemon rejected, or a job that failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ErrorResponse {
    /// Job id, when the error concerns an accepted job.
    pub job: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl ErrorResponse {
    /// Error text travels in a raw block so it may contain anything.
    fn fields(&self, s: &mut impl FieldSink) {
        if let Some(job) = self.job {
            s.put("job", job);
        }
        s.put_block("message", &self.message);
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(KIND_ERROR, |f| self.fields(f))
    }

    /// Decode from a wire frame.
    pub fn from_frame(frame: &Frame) -> Result<ErrorResponse, KvError> {
        expect_kind(frame, KIND_ERROR)?;
        Ok(ErrorResponse {
            job: frame.parse_opt("job", kv::parse_u64)?,
            message: frame.req_raw("message")?.trim_end_matches('\n').to_string(),
        })
    }
}

/// Any message a client may send.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Submit a mapping job.
    Map(MapRequest),
    /// Submit a campaign batch job.
    Campaign(CampaignRequest),
    /// Submit an open-system streaming job.
    Open(OpenRequest),
    /// Ask for a status snapshot.
    Status(StatusRequest),
    /// Ask the daemon to shut down.
    Shutdown,
}

impl Request {
    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        match self {
            Request::Map(r) => r.to_frame(),
            Request::Campaign(r) => r.to_frame(),
            Request::Open(r) => r.to_frame(),
            Request::Status(r) => r.to_frame(),
            Request::Shutdown => Frame::new(KIND_SHUTDOWN_REQUEST),
        }
    }

    /// Append the wire text of the request to `out`. Requests travel
    /// once per job, so they go through their frame.
    pub fn encode_into(&self, out: &mut String) {
        self.to_frame().encode_into(out);
    }

    /// Decode from a wire frame, dispatching on the kind.
    pub fn from_frame(frame: &Frame) -> Result<Request, KvError> {
        match frame.kind.as_str() {
            KIND_MAP_REQUEST => MapRequest::from_frame(frame).map(Request::Map),
            KIND_CAMPAIGN_REQUEST => CampaignRequest::from_frame(frame).map(Request::Campaign),
            KIND_OPEN_REQUEST => OpenRequest::from_frame(frame).map(Request::Open),
            KIND_STATUS_REQUEST => StatusRequest::from_frame(frame).map(Request::Status),
            KIND_SHUTDOWN_REQUEST => Ok(Request::Shutdown),
            other => bad(format!("unknown request kind {other:?}")),
        }
    }
}

/// Any message a daemon may send.
#[derive(Clone, PartialEq, Debug)]
pub enum ServerMsg {
    /// A streamed progress event.
    Event(Event),
    /// A mapping job's final report.
    Map(MapResponse),
    /// A campaign job's final report.
    Campaign(CampaignResponse),
    /// A status snapshot.
    Status(StatusResponse),
    /// An error.
    Error(ErrorResponse),
    /// Shutdown acknowledged.
    Ok,
}

impl ServerMsg {
    fn kind(&self) -> &'static str {
        match self {
            ServerMsg::Event(_) => KIND_EVENT,
            ServerMsg::Map(_) => KIND_MAP_RESPONSE,
            ServerMsg::Campaign(_) => KIND_CAMPAIGN_RESPONSE,
            ServerMsg::Status(_) => KIND_STATUS_RESPONSE,
            ServerMsg::Error(_) => KIND_ERROR,
            ServerMsg::Ok => KIND_OK,
        }
    }

    fn fields(&self, s: &mut impl FieldSink) {
        match self {
            ServerMsg::Event(m) => m.fields(s),
            ServerMsg::Map(m) => m.fields(s),
            ServerMsg::Campaign(m) => m.fields(s),
            ServerMsg::Status(m) => m.fields(s),
            ServerMsg::Error(m) => m.fields(s),
            ServerMsg::Ok => {}
        }
    }

    /// Encode to a wire frame.
    pub fn to_frame(&self) -> Frame {
        framed(self.kind(), |f| self.fields(f))
    }

    /// Append the wire text of the message to `out`, whatever it
    /// already holds: the same bytes as `to_frame().encode()`, written
    /// without building the frame. This is the daemon's reply path — a
    /// job streams one of these per committing clock tick.
    pub fn encode_into(&self, out: &mut String) {
        let mut w = FrameWriter::begin(out, self.kind());
        self.fields(&mut w);
        w.end();
    }

    /// Decode from a wire frame, dispatching on the kind.
    pub fn from_frame(frame: &Frame) -> Result<ServerMsg, KvError> {
        match frame.kind.as_str() {
            KIND_EVENT => Event::from_frame(frame).map(ServerMsg::Event),
            KIND_MAP_RESPONSE => MapResponse::from_frame(frame).map(ServerMsg::Map),
            KIND_CAMPAIGN_RESPONSE => CampaignResponse::from_frame(frame).map(ServerMsg::Campaign),
            KIND_STATUS_RESPONSE => StatusResponse::from_frame(frame).map(ServerMsg::Status),
            KIND_ERROR => ErrorResponse::from_frame(frame).map(ServerMsg::Error),
            KIND_OK => Ok(ServerMsg::Ok),
            other => bad(format!("unknown server message kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lagrange::weights::Weights;
    use slrh::SlrhVariant;

    fn map_request() -> MapRequest {
        MapRequest {
            client: "cli".into(),
            label: "demo".into(),
            heuristic: Heuristic::Slrh1,
            config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
            scenario: ScenarioSpec::Generate {
                tasks: 64,
                case: GridCase::A,
                etc: 0,
                dag: 0,
                seed: Some(0xDEAD_BEEF),
                tau: None,
            },
            losses: vec![(1, 500)],
            arrivals: vec![(2, 300)],
        }
    }

    #[test]
    fn map_request_round_trips() {
        let req = map_request();
        let text = req.to_frame().encode();
        let back = MapRequest::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn inline_scenario_round_trips() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::B, 1, 1);
        let mut req = map_request();
        req.scenario = ScenarioSpec::Inline(adhoc_grid::io::write(&sc));
        let text = req.to_frame().encode();
        let back = MapRequest::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(back, req);
        let rebuilt = back.scenario.build().unwrap();
        assert_eq!(rebuilt.etc, sc.etc);
    }

    #[test]
    fn a_task_count_past_the_cap_is_refused_before_anything_is_built() {
        use adhoc_grid::units::MAX_INPUT_TASKS;
        let past = MAX_INPUT_TASKS + 1;
        let refusal = format!("tasks must be at most {MAX_INPUT_TASKS}");
        let mut spec = map_request().scenario;
        let ScenarioSpec::Generate { tasks, .. } = &mut spec else {
            unreachable!()
        };
        *tasks = past;
        assert_eq!(spec.build().unwrap_err(), refusal);
        let inline = format!("lrh-grid-scenario v1\ncase A\ntau 100\netc 0 {past} 4\n");
        let err = ScenarioSpec::Inline(inline).build().unwrap_err();
        assert!(err.ends_with(&refusal), "{err}");
    }

    #[test]
    fn open_request_round_trips() {
        use adhoc_grid::arrival::{poisson_trace, PoissonParams};
        let mut req = OpenRequest {
            client: "cli".into(),
            label: "stream".into(),
            config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
            case: GridCase::B,
            seed: 0x1234_5678,
            jobs: poisson_trace(&PoissonParams {
                jobs: 5,
                mean_gap: 700,
                tasks: (4, 10),
                bag_in_8: 3,
                budget_in_8: 5,
                seed: 9,
            }),
            bg: BackgroundParams::none(),
            losses: vec![(1, 4_000)],
            arrivals: vec![(2, 100)],
        };
        let text = req.to_frame().encode();
        // An inert background model is omitted from the frame entirely.
        assert!(!text.contains("background"), "{text}");
        let back = OpenRequest::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.open_params().jobs, req.jobs);

        req.bg = BackgroundParams {
            max_offset: 500,
            max_util_eighths: 3,
            seed: 77,
        };
        let text = req.to_frame().encode();
        assert!(text.contains("background"), "{text}");
        let back = OpenRequest::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(back, req);

        // Dispatch through the Request enum.
        let dispatched = Request::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(dispatched, Request::Open(req.clone()));

        // An empty trace is rejected.
        req.jobs.clear();
        assert!(
            OpenRequest::from_frame(&Frame::decode(&req.to_frame().encode()).unwrap()).is_err()
        );
    }

    #[test]
    fn job_event_round_trips_bit_exactly() {
        let ev = Event::Job {
            job: 7,
            id: 3,
            mapped: 12,
            tasks: 12,
            hit: true,
            cost: 1234.5678901234567,
        };
        let text = ev.to_frame().encode();
        let back = Event::from_frame(&Frame::decode(&text).unwrap()).unwrap();
        assert_eq!(back, ev);
        let Event::Job { cost, .. } = back else {
            unreachable!()
        };
        assert_eq!(cost.to_bits(), 1234.5678901234567f64.to_bits());
    }

    #[test]
    fn request_dispatch_rejects_unknown_kind() {
        let f = Frame::new("no-such-kind");
        assert!(Request::from_frame(&f).is_err());
        assert!(ServerMsg::from_frame(&f).is_err());
    }

    /// Decode errors reach clients as `ErrorResponse` text, so which of
    /// several bad fields is reported is part of the protocol: a row's
    /// error surfaces once every row above it is repaired.
    #[test]
    fn the_first_decode_error_of_a_frame_is_pinned() {
        let first_error = |kind: &str, rows: &[(&str, &str, &str)], repaired: usize| {
            let mut f = Frame::new(kind);
            for (i, (key, bad, good)) in rows.iter().enumerate() {
                f.push(key, if i < repaired { *good } else { *bad });
            }
            Request::from_frame(&f).unwrap_err().message
        };
        let cfg = map_request().config.to_string();
        let cfg = cfg.as_str();
        // (key, a bad value, a good one), in the order their errors surface.
        let map = [
            ("heuristic", "x", "slrh1"),
            ("config", "x", cfg),
            ("loss", "x", "1@5"),
            ("arrival", "x", "2@3"),
            ("tasks", "x", ""),
        ];
        let open = [
            ("config", "x", cfg),
            ("case", "x", "B"),
            ("seed", "x", "7"),
            ("background", "x", ""),
        ];
        for (kind, rows, keyed) in [
            (KIND_MAP_REQUEST, &map[..], 5),
            (KIND_OPEN_REQUEST, &open[..], 3),
        ] {
            for (i, (key, ..)) in rows.iter().enumerate().take(keyed) {
                let msg = first_error(kind, rows, i);
                assert!(msg.starts_with(&format!("{key}: ")), "{key}: {msg}");
            }
        }
        assert_eq!(
            first_error(KIND_OPEN_REQUEST, &open, 3),
            "open-request needs at least one job"
        );
    }

    /// OLB, Min-Min and HEFT are retired. Their schedules differed from
    /// every remaining heuristic's, so a frame naming one is refused
    /// with a message naming the retirement, never run as another.
    #[test]
    fn a_retired_heuristic_is_refused_not_run_as_another() {
        let map = map_request().to_frame().encode();
        let campaign = CampaignRequest {
            client: "cli".into(),
            label: "sweep".into(),
            tasks: 32,
            etc_count: 2,
            dag_count: 2,
            heuristics: vec![Heuristic::Slrh1],
            cases: vec![GridCase::A],
            coarse: 0.25,
            fine: 0.25,
            searcher: SearcherKind::Grid,
            checkpoint: None,
        }
        .to_frame()
        .encode();
        for (retired, name) in [
            ("heft", "HEFT"),
            ("HEFT", "HEFT"),
            ("minmin", "Min-Min"),
            ("Min-Min", "Min-Min"),
            ("olb", "OLB"),
            ("dbctime", "DBC-Time"),
        ] {
            for text in [&map, &campaign] {
                let swapped = text.replace("heuristic=slrh1\n", &format!("heuristic={retired}\n"));
                assert_ne!(&swapped, text, "the frame names its heuristic");
                let err = Request::from_frame(&Frame::decode(&swapped).unwrap()).unwrap_err();
                assert!(
                    err.message.starts_with("heuristic: ")
                        && err.message.contains(&format!("{name} was retired")),
                    "{retired:?}: {}",
                    err.message
                );
            }
        }
    }

    #[test]
    fn campaign_fingerprint_is_single_line() {
        let req = CampaignRequest {
            client: "cli".into(),
            label: "sweep".into(),
            tasks: 32,
            etc_count: 2,
            dag_count: 2,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A, GridCase::C],
            coarse: 0.25,
            fine: 0.25,
            searcher: SearcherKind::Grid,
            checkpoint: None,
        };
        let fp = req.fingerprint();
        assert!(!fp.contains('\n') && !fp.contains('#'), "{fp}");
        assert!(
            !fp.contains("searcher"),
            "grid keeps the legacy fingerprint: {fp}"
        );
        let back =
            CampaignRequest::from_frame(&Frame::decode(&req.to_frame().encode()).unwrap()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.fingerprint(), fp);
        assert_eq!(back.units().len(), 4);
    }

    #[test]
    fn a_retired_searcher_is_refused_not_run_as_the_grid() {
        let req = CampaignRequest {
            client: "cli".into(),
            label: "sweep".into(),
            tasks: 32,
            etc_count: 2,
            dag_count: 2,
            heuristics: vec![Heuristic::Slrh1],
            cases: vec![GridCase::A],
            coarse: 0.25,
            fine: 0.25,
            searcher: SearcherKind::Grid,
            checkpoint: None,
        };
        let frame = req.to_frame();
        assert_eq!(frame.get("searcher"), None, "grid never rides the wire");
        let fp = "tasks=32;etc=2;dag=2;heuristics=slrh1;cases=Case A;coarse=0.25;fine=0.25";
        assert_eq!(req.fingerprint(), fp, "grid checkpoints keep resuming");

        // An explicit `grid` decodes to the same request and fingerprint
        // as the absent key.
        let with = |value: &str| {
            let mut f = frame.clone();
            f.push("searcher", value);
            CampaignRequest::from_frame(&Frame::decode(&f.encode()).unwrap())
        };
        let explicit = with("grid").unwrap();
        assert_eq!(explicit, req);
        assert_eq!(explicit.fingerprint(), fp);

        for retired in ["anneal(7, 24)", "anneal(24301, 48)", "anneal", "Grid", ""] {
            let err = with(retired).unwrap_err().to_string();
            assert!(
                err.contains("searcher: ") && err.contains("annealing searcher was retired"),
                "{retired:?}: {err}"
            );
        }
    }
}
