//! The only file that calls into the workspace crates.
//!
//! Everything the harness measures goes through the functions below, and
//! they use the most durable public surface only: requests are built by
//! `lrh_grid::cli::parse` from argv strings (so a workload always runs
//! whatever configuration `lrh-grid run/open` would), executed through
//! `grid_broker::{execute_map, execute_open, execute_campaign, serve,
//! Connection}`; the layer functions (`generate`, `map_direct`, the frame
//! codec, the micro-benchmarks) are thin enough that a rename in the
//! workspace is a one-file fix here.

use lrh_grid::broker::proto::ScenarioSpec;
use lrh_grid::broker::{
    self, BrokerConfig, BrokerHandle, CampaignRequest, Checkpoint, Connection, Event, JobQueue,
    MapRequest, OpenRequest,
};
use lrh_grid::cli::{self, Command};
use lrh_grid::grid::io::wire::Frame;
use lrh_grid::grid::workload::{Scenario, ScenarioParams};
use lrh_grid::grid::{GridCase, ScaleParams};
use lrh_grid::lagrange::weights::{Objective, ObjectiveInputs, Weights};
use lrh_grid::sim::validate::validate;
use lrh_grid::slrh::{run_slrh_churn, RunContext};
use lrh_grid::sweep::campaign::CaseRow;
use lrh_grid::sweep::heuristic::Heuristic;
use lrh_grid::sweep::weight_search::optimal_weights_with_steps;
use lrh_grid::sweep::SearcherKind;
use lrh_grid::{run_slrh, ScaleMode, SlrhConfig, SlrhVariant};

pub use lrh_grid::broker::{
    CampaignRequest as Campaign, MapRequest as MapJob, OpenRequest as OpenJob,
};

/// A reusable run context (one per caller, as the daemon's workers and
/// the CLI hold one).
pub struct Ctx(RunContext);

impl Ctx {
    pub fn new() -> Ctx {
        Ctx(RunContext::new())
    }
}

/// What the harness needs to know about a progress event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    Queued,
    Started,
    Done,
    /// One open-system stream job finished.
    StreamJob,
    /// Tick, disruption and campaign-cell events (a cell's row is read
    /// through [`Ev::unit_row`]).
    Progress,
}

fn kind_of(e: &Event) -> EventKind {
    match e {
        Event::Queued { .. } => EventKind::Queued,
        Event::Started { .. } => EventKind::Started,
        Event::Done { .. } => EventKind::Done,
        Event::Job { .. } => EventKind::StreamJob,
        Event::Tick { .. } | Event::Disruption { .. } | Event::Unit { .. } => EventKind::Progress,
    }
}

/// A progress event as the harness sees it. `wire_len` encodes the
/// event again, so it is asked for on traced runs only.
pub struct Ev<'a>(&'a Event);

impl Ev<'_> {
    pub fn kind(&self) -> EventKind {
        kind_of(self.0)
    }

    /// Bytes this event occupies on the wire.
    pub fn wire_len(&self) -> usize {
        self.0.to_frame().encode().len()
    }

    /// The canonical row of a campaign cell.
    pub fn unit_row(&self) -> Option<&str> {
        match self.0 {
            Event::Unit { row, .. } => Some(row),
            _ => None,
        }
    }
}

// ---- cli ------------------------------------------------------------

fn argv(words: &[String]) -> Result<Command, String> {
    cli::parse(words).map_err(|e| format!("cli rejected {words:?}: {e}"))
}

/// `lrh-grid run <flags>` → the request it would execute.
pub fn parse_map(words: &[String]) -> Result<MapRequest, String> {
    match argv(words)? {
        Command::Run(job) => Ok(job.request),
        other => Err(format!("expected a run command, got {other:?}")),
    }
}

/// `lrh-grid open <flags>` → the request it would execute.
pub fn parse_open(words: &[String]) -> Result<OpenRequest, String> {
    match argv(words)? {
        Command::Open(job) => Ok(job.request),
        other => Err(format!("expected an open command, got {other:?}")),
    }
}

/// The CLI has no campaign command; the request is built as the daemon's
/// clients build it. Names go through the same `FromStr` the CLI uses.
pub fn campaign(
    tasks: usize,
    suite: (usize, usize),
    heuristics: &[&str],
    cases: &[&str],
    steps: (f64, f64),
    checkpoint: Option<String>,
) -> Result<CampaignRequest, String> {
    Ok(CampaignRequest {
        client: "bench".into(),
        label: "campaign".into(),
        tasks,
        etc_count: suite.0,
        dag_count: suite.1,
        heuristics: heuristics
            .iter()
            .map(|h| h.parse::<Heuristic>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
        cases: cases
            .iter()
            .map(|c| c.parse::<GridCase>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
        coarse: steps.0,
        fine: steps.1,
        searcher: SearcherKind::Grid,
        checkpoint,
    })
}

/// The paper's deadline τ, in ticks, for a `tasks`-subtask workload.
pub fn paper_tau(tasks: usize) -> u64 {
    ScenarioParams::paper_scaled(tasks).tau.0
}

// ---- broker: in-process execution -----------------------------------

pub fn execute_map(
    req: &MapRequest,
    ctx: &mut Ctx,
    on_event: &mut dyn FnMut(Ev),
) -> Result<String, String> {
    broker::execute_map(0, req, &mut ctx.0, &mut |e| on_event(Ev(&e))).map(|r| r.report)
}

pub fn execute_open(
    req: &OpenRequest,
    ctx: &mut Ctx,
    on_event: &mut dyn FnMut(Ev),
) -> Result<String, String> {
    broker::execute_open(0, req, &mut ctx.0, &mut |e| on_event(Ev(&e))).map(|r| r.report)
}

pub fn execute_campaign(
    req: &CampaignRequest,
    on_event: &mut dyn FnMut(Ev),
) -> Result<String, String> {
    broker::execute_campaign(0, req, &mut |e| on_event(Ev(&e))).map(|r| r.report)
}

/// Run `f` with every rayon parallel iterator it reaches on `threads`
/// threads (`0`: the `RAYON_NUM_THREADS`/hardware default).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a thread pool with a valid thread count")
        .install(f)
}

// ---- broker: daemon and client --------------------------------------

/// An in-process daemon on a loopback port the kernel picks.
pub struct Daemon(BrokerHandle);

impl Daemon {
    pub fn start(workers: usize) -> Result<Daemon, String> {
        broker::serve(&BrokerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
        })
        .map(Daemon)
        .map_err(|e| format!("daemon-bind: the daemon will not bind on loopback: {e}"))
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.0.addr()
    }

    /// Graceful shutdown; returns when every daemon thread has ended.
    pub fn stop(self) {
        self.0.shutdown();
        self.0.join();
    }
}

pub struct Client(Connection);

impl Client {
    pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        Connection::connect(addr)
            .map(Client)
            .map_err(|e| format!("daemon-connect: {e}"))
    }

    /// Submit and wait for the reply: the closed loop `lrh-grid submit` is.
    pub fn submit_map(
        &mut self,
        req: &MapRequest,
        mut on_event: impl FnMut(Ev),
    ) -> Result<String, String> {
        self.0
            .submit_map(req, |e| on_event(Ev(e)))
            .map(|r| r.report)
    }
}

// ---- layer functions, one at a time (traced runs) --------------------

/// `grid`: materialize the request's scenario.
pub fn generate(req: &MapRequest) -> Result<Scenario, String> {
    req.scenario.build()
}

/// What a direct driver call produced.
pub struct Mapped {
    /// Time inside the mapper itself.
    pub map: std::time::Duration,
    /// Time inside `gridsim::validate::validate`.
    pub validate: std::time::Duration,
    pub valid: bool,
    /// True when the mapper was an SLRH driver, false for a baseline.
    pub slrh: bool,
}

/// `slrh`/`baselines` then `sim`: call the driver the request names
/// directly on a pre-built scenario, then the validator on its state.
pub fn map_direct(req: &MapRequest, scenario: &Scenario) -> Mapped {
    use std::time::Instant;
    let slrh = matches!(
        req.heuristic,
        Heuristic::Slrh1 | Heuristic::Slrh2 | Heuristic::Slrh3
    );
    if !slrh {
        // Baselines validate inside `run`; it reports the mapper's own time.
        let t0 = Instant::now();
        let r = req.heuristic.run(scenario, req.config.objective.weights);
        let total = t0.elapsed();
        return Mapped {
            map: r.wall.min(total),
            validate: total.saturating_sub(r.wall),
            valid: r.valid,
            slrh,
        };
    }
    let t0 = Instant::now();
    let state = if req.losses.is_empty() && req.arrivals.is_empty() {
        run_slrh(scenario, &req.config).state
    } else {
        run_slrh_churn(
            scenario,
            &req.config,
            &req.loss_events(),
            &req.arrival_events(),
        )
        .state
    };
    let map = t0.elapsed();
    let t1 = Instant::now();
    let valid = validate(&state).is_empty();
    Mapped {
        map,
        validate: t1.elapsed(),
        valid,
        slrh,
    }
}

/// What the four codec steps a submitted request passes through took,
/// in order, under the names their spans carry.
pub struct RoundTrip {
    pub steps: [(&'static str, std::time::Duration); 4],
    /// Bytes the request occupies on the wire.
    pub bytes: usize,
}

/// `broker::proto` encode, `grid::io::wire` encode, wire decode, proto
/// decode of one request, each timed.
pub fn request_roundtrip(req: &MapRequest) -> Result<RoundTrip, String> {
    use std::time::Instant;
    let t0 = Instant::now();
    let frame = req.to_frame();
    let t1 = Instant::now();
    let text = frame.encode();
    let t2 = Instant::now();
    let decoded = Frame::decode(&text);
    let t3 = Instant::now();
    let decoded = decoded.map_err(|e| format!("wire decode: {e}"))?;
    let t4 = Instant::now();
    let back = MapRequest::from_frame(&decoded);
    let t5 = Instant::now();
    if back.map_err(|e| format!("proto decode: {e}"))? != *req {
        return Err("request did not survive the wire round trip".into());
    }
    Ok(RoundTrip {
        steps: [
            ("broker.proto_encode", t1 - t0),
            ("grid.wire_encode", t2 - t1),
            ("grid.wire_decode", t3 - t2),
            ("broker.proto_decode", t5 - t4),
        ],
        bytes: text.len(),
    })
}

// ---- scale path -----------------------------------------------------

pub struct ScaleJob {
    params: ScaleParams,
    ids: (usize, usize),
    scenario: Scenario,
}

/// The frontier configuration `scale_16k` runs.
fn scale_config() -> SlrhConfig {
    let weights = Weights::new(0.5, 0.25).expect("fixed weights lie on the simplex");
    SlrhConfig::paper(SlrhVariant::V1, weights).with_scale(ScaleMode {
        clusters: 8,
        ..ScaleMode::default()
    })
}

impl ScaleJob {
    pub fn generate(tasks: usize, machines: usize, seed: u64, ids: (usize, usize)) -> ScaleJob {
        let params = ScaleParams::new(tasks, machines).with_seed(seed);
        ScaleJob {
            params,
            ids,
            scenario: params.generate(ids.0, ids.1),
        }
    }

    /// Generate the scenario again (the `grid.generate` span).
    pub fn regenerate(&self) -> usize {
        self.params.generate(self.ids.0, self.ids.1).tasks()
    }

    /// Map on the frontier path and validate. The returned line plays
    /// the part a report plays on the other workloads.
    pub fn run(&self) -> (String, Mapped) {
        use std::time::Instant;
        let t0 = Instant::now();
        let out = run_slrh(&self.scenario, &scale_config());
        let map = t0.elapsed();
        let t1 = Instant::now();
        let valid = validate(&out.state).is_empty();
        let validate = t1.elapsed();
        let m = out.metrics();
        let line = format!(
            "scale report\ntasks={}\nmapped={}/{}\nt100={}\naet={}\nconstraints={}\nvalid={}\n\
             clock-steps={}\ncommits={}\ncandidates={}\n",
            m.tasks,
            m.mapped,
            m.tasks,
            m.t100,
            m.aet.0,
            if m.constraints_met() {
                "met"
            } else {
                "violated"
            },
            if valid { "yes" } else { "no" },
            out.stats.clock_steps,
            out.stats.commits,
            out.stats.candidates_evaluated,
        );
        (
            line,
            Mapped {
                map,
                validate,
                valid,
                slrh: true,
            },
        )
    }
}

// ---- micro-benchmarks of single layers --------------------------------

/// `lagrange`: one `Objective::paper(w).evaluate` call, repeated.
pub fn objective_evaluate(iters: u64) -> f64 {
    let obj = Objective::paper(Weights::new(0.5, 0.25).expect("fixed weights"));
    let mut acc = 0.0;
    for i in 0..iters {
        let inputs = ObjectiveInputs {
            t100_frac: (i % 1024) as f64 / 1024.0,
            tec_frac: (i % 7) as f64 / 8.0,
            aet_frac: (i % 13) as f64 / 16.0,
        };
        acc += obj.evaluate(std::hint::black_box(&inputs));
    }
    acc
}

/// `broker::queue`: push then pop, repeated, one client.
pub fn queue_push_pop(iters: u64) -> u64 {
    let q = JobQueue::new();
    let mut acc = 0;
    for i in 0..iters {
        q.push("bench", i);
        acc += q.pop().expect("just pushed");
    }
    acc
}

/// `broker::checkpoint`: open a fresh checkpoint at `path` and record
/// `rows`; returns the rows recorded.
pub fn checkpoint_record(path: &str, rows: &[String]) -> Result<usize, String> {
    let mut cp = Checkpoint::open(path, "bench")?;
    for line in rows {
        cp.record(&CaseRow::parse_canonical(line)?)?;
    }
    Ok(cp.rows().len())
}

/// One paper-scaled scenario for the `sweep`/`baselines`/`bounds` micros.
pub struct Micro(Scenario);

impl Micro {
    pub fn new(tasks: usize, case: &str) -> Result<Micro, String> {
        let spec = ScenarioSpec::Generate {
            tasks,
            case: case.parse::<GridCase>().map_err(|e| e.to_string())?,
            etc: 0,
            dag: 0,
            seed: None,
            tau: None,
        };
        spec.build().map(Micro)
    }

    /// `sweep`: one Figure-3 weight search; returns its unique evaluations.
    pub fn weight_search(&self, steps: (f64, f64)) -> usize {
        optimal_weights_with_steps(Heuristic::Slrh1, &self.0, steps.0, steps.1)
            .map_or(0, |o| o.evaluations)
    }

    /// `baselines`: one Max-Max run.
    pub fn maxmax(&self) -> usize {
        let w = Weights::new(0.5, 0.25).expect("fixed weights");
        Heuristic::MaxMax.run(&self.0, w).metrics.mapped
    }

    /// `bounds`: one equivalent-cycles upper bound.
    pub fn upper_bound(&self) -> usize {
        lrh_grid::bounds::upper_bound_sound(&self.0.etc, &self.0.grid, self.0.tau)
    }
}
