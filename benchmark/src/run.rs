//! One run of one workload: set-up, the timed window, and on traced runs
//! one traced cycle; then the numbers.
//!
//! All loops are closed: a caller issues its next operation when the
//! last one has completed. Every operation is checked against the
//! reference report its list entry produced during set-up.
//!
//! The timed window is a whole number of rounds, a round being one pass
//! over the job list; how rounds become numbers is the workload's
//! [`Timing`].

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::api::{self, EventKind};
use crate::report::{self, Counts};
use crate::trace::{self, Tracer};
use crate::util::{self, median, ms, percentile};
use crate::workloads::{self, flag, flag_num, Job, Kind, Timing, Workload, DAEMON_WORKERS};

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `key=value` lines for the human-facing commands: the report
    /// digest, the noisy flag, the sample count.
    pub notes: Vec<(&'static str, String)>,
}

/// Set-up is repeated, and the best repetition reported, while the
/// repetitions together stay under this many seconds; then as many times
/// again after the timed window, so that a slow phase of the host has to
/// outlast the whole run to touch every repetition.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 8;
/// Calibration drift beyond which a run is flagged noisy.
const NOISY_DRIFT: f64 = 0.2;
/// Rounds below which a full-length window is flagged noisy.
const MIN_ROUNDS: usize = 3;

/// Where the harness may write: `benchmark/out/`.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

// ---- samples ----------------------------------------------------------

/// What one caller measured: per round, the latency in ms of each of its
/// operations in list order, and the round's wall time in seconds.
struct Lane {
    rounds: Vec<Vec<f64>>,
    walls: Vec<f64>,
    round_start: Instant,
    failed: u64,
    first_failure: Option<String>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            rounds: Vec::new(),
            walls: Vec::new(),
            round_start: Instant::now(),
            failed: 0,
            first_failure: None,
        }
    }

    fn begin_round(&mut self) {
        self.rounds.push(Vec::new());
        self.round_start = Instant::now();
    }

    fn end_round(&mut self) {
        self.walls.push(self.round_start.elapsed().as_secs_f64());
    }

    fn op(&mut self, latency: Duration, outcome: Result<(), String>) {
        self.rounds
            .last_mut()
            .expect("begin_round first")
            .push(ms(latency));
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Each operation of the list at the best time any round saw for it.
    fn best(&self) -> Vec<f64> {
        let mut rounds = self.rounds.iter();
        let mut best = rounds.next().cloned().unwrap_or_default();
        for round in rounds {
            // Rounds differ in length only when an operation failed.
            best.truncate(round.len());
            for (b, &v) in best.iter_mut().zip(round) {
                *b = b.min(v);
            }
        }
        best
    }
}

/// Run rounds of the list on one caller until `seconds` have passed.
fn run_rounds(seconds: f64, mut round: impl FnMut(&mut Lane)) -> Lane {
    let start = Instant::now();
    let mut lane = Lane::new();
    loop {
        lane.begin_round();
        round(&mut lane);
        lane.end_round();
        if start.elapsed().as_secs_f64() >= seconds {
            return lane;
        }
    }
}

/// The timed window of a whole workload.
struct Measured {
    /// Every sample, sorted.
    lat_ms: Vec<f64>,
    /// What `job_p50_ms` is the median of, sorted: every list entry at
    /// its best time ([`Timing::BestOfRounds`]) or every sample.
    typical_ms: Vec<f64>,
    /// Operations per second, summed over callers.
    rate: f64,
    rounds: usize,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

fn merge(lanes: Vec<Lane>, timing: Timing) -> Measured {
    let rounds = lanes.iter().map(|l| l.walls.len()).min().unwrap_or(0);
    let mut m = Measured {
        lat_ms: Vec::new(),
        typical_ms: Vec::new(),
        rate: 0.0,
        rounds,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    // Per round, the callers' rates summed (they run a round together).
    let mut round_rates = vec![0.0; rounds];
    for lane in lanes {
        if timing == Timing::BestOfRounds {
            let best = lane.best();
            m.rate += ratio(best.len() as f64, best.iter().sum::<f64>() / 1e3);
            m.typical_ms.extend(best);
        }
        for (rate, (ops, wall)) in round_rates
            .iter_mut()
            .zip(lane.rounds.iter().zip(&lane.walls))
        {
            *rate += ratio(ops.len() as f64, *wall);
        }
        m.failed += lane.failed;
        m.first_failure = m.first_failure.or(lane.first_failure);
        m.lat_ms.extend(lane.rounds.into_iter().flatten());
    }
    m.attempted = m.lat_ms.len() as u64;
    m.lat_ms.sort_by(f64::total_cmp);
    if timing == Timing::Plain {
        m.rate = if rounds > 0 {
            median(&mut round_rates)
        } else {
            0.0
        };
        m.typical_ms = m.lat_ms.clone();
    }
    m.typical_ms.sort_by(f64::total_cmp);
    m
}

fn check(report: &Result<String, String>, reference: &str) -> Result<(), String> {
    match report {
        Err(e) => Err(format!("operation-error: {e}")),
        Ok(r) if r != reference => Err("report-mismatch: report differs from its reference".into()),
        Ok(_) => Ok(()),
    }
}

// ---- set-up -----------------------------------------------------------

/// A workload after set-up: inputs generated, caches warm, reference
/// reports recorded, daemon (if any) listening.
enum Prepared {
    Map {
        reqs: Vec<api::MapJob>,
        ctx: api::Ctx,
    },
    Scale {
        jobs: Vec<api::ScaleJob>,
    },
    Open {
        reqs: Vec<api::OpenJob>,
        ctx: api::Ctx,
    },
    Campaign {
        job: Job,
        rows: Vec<String>,
    },
    Daemon {
        reqs: Vec<api::MapJob>,
        ctx: api::Ctx,
        daemon: api::Daemon,
        clients: Vec<api::Client>,
    },
}

struct Setup {
    prepared: Prepared,
    /// One reference report per list entry.
    refs: Vec<String>,
}

fn campaign_request(job: &Job, checkpoint: Option<String>) -> Result<api::Campaign, String> {
    let heuristics: Vec<&str> = flag(job, "--heuristics")?.split(',').collect();
    let cases: Vec<&str> = flag(job, "--cases")?.split(',').collect();
    api::campaign(
        flag_num(job, "--tasks")?,
        (flag_num(job, "--etc-count")?, flag_num(job, "--dag-count")?),
        &heuristics,
        &cases,
        (flag_num(job, "--coarse")?, flag_num(job, "--fine")?),
        checkpoint,
    )
}

/// Rayon threads a measured campaign runs on. One: with both of this
/// host's cores busy, same-seed throughput moved by 27 % from run to run
/// (a noisy neighbour takes a core's worth at once), on one thread by
/// 10 %. The traced cycle runs one more campaign on the default count
/// and reports the ratio as `sweep.parallel_speedup`.
const CAMPAIGN_THREADS: usize = 1;

/// Run one campaign with a fresh checkpoint file, calling `on_cell` with
/// each cell's canonical row as it completes.
fn run_campaign(
    job: &Job,
    serial: u64,
    threads: usize,
    on_cell: &mut dyn FnMut(&str),
) -> Result<String, String> {
    let path = out_dir()?.join(format!("checkpoint-{}-{serial}.txt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let req = campaign_request(job, Some(path.to_string_lossy().into_owned()))?;
    let report = api::with_threads(threads, || {
        api::execute_campaign(&req, &mut |ev| {
            if let Some(row) = ev.unit_row() {
                on_cell(row);
            }
        })
    });
    let _ = std::fs::remove_file(&path);
    report
}

fn require_valid(reports: &[String]) -> Result<(), String> {
    match reports.iter().position(|r| !report::parse(r).valid) {
        Some(i) => Err(format!(
            "invalid-reference: list entry {i} did not validate:\n{}",
            reports[i]
        )),
        None => Ok(()),
    }
}

impl Setup {
    fn new(w: &Workload, list: &[Job]) -> Result<Setup, String> {
        let silent = &mut |_: api::Ev| {};
        let setup = match w.kind {
            Kind::Map | Kind::Daemon => {
                let reqs = list
                    .iter()
                    .map(|j| api::parse_map(j))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut ctx = api::Ctx::new();
                let refs = reqs
                    .iter()
                    .map(|r| api::execute_map(r, &mut ctx, silent))
                    .collect::<Result<Vec<_>, _>>()?;
                let prepared = if w.kind == Kind::Map {
                    Prepared::Map { reqs, ctx }
                } else {
                    let daemon = api::Daemon::start(DAEMON_WORKERS)?;
                    let clients = (0..w.clients)
                        .map(|_| api::Client::connect(daemon.addr()))
                        .collect::<Result<Vec<_>, _>>()?;
                    Prepared::Daemon {
                        reqs,
                        ctx,
                        daemon,
                        clients,
                    }
                };
                Setup { prepared, refs }
            }
            Kind::Scale => {
                let jobs = list
                    .iter()
                    .map(|j| {
                        Ok(api::ScaleJob::generate(
                            flag_num(j, "--tasks")?,
                            flag_num(j, "--machines")?,
                            flag_num(j, "--seed")?,
                            (flag_num(j, "--etc")?, flag_num(j, "--dag")?),
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let refs: Vec<String> = jobs.iter().map(|j| j.run().0).collect();
                for r in &refs {
                    let c = report::parse(r);
                    if c.mapped != c.tasks {
                        return Err(format!(
                            "invalid-reference: scale job mapped {}/{}",
                            c.mapped, c.tasks
                        ));
                    }
                }
                Setup {
                    prepared: Prepared::Scale { jobs },
                    refs,
                }
            }
            Kind::Open => {
                let reqs = list
                    .iter()
                    .map(|j| api::parse_open(j))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut ctx = api::Ctx::new();
                let refs = reqs
                    .iter()
                    .map(|r| api::execute_open(r, &mut ctx, silent))
                    .collect::<Result<Vec<_>, _>>()?;
                Setup {
                    prepared: Prepared::Open { reqs, ctx },
                    refs,
                }
            }
            Kind::Campaign => {
                let mut rows = Vec::new();
                let reference = run_campaign(&list[0], 0, CAMPAIGN_THREADS, &mut |row| {
                    rows.push(row.to_string())
                })?;
                let prepared = Prepared::Campaign {
                    job: list[0].clone(),
                    rows,
                };
                Setup {
                    prepared,
                    refs: vec![reference],
                }
            }
        };
        // A campaign report is canonical rows, with no `valid=` line.
        if w.kind != Kind::Campaign {
            require_valid(&setup.refs)?;
        }
        Ok(setup)
    }

    fn teardown(self) {
        if let Prepared::Daemon {
            daemon, clients, ..
        } = self.prepared
        {
            drop(clients);
            daemon.stop();
        }
    }

    // ---- the timed window -------------------------------------------

    fn timed(&mut self, seconds: f64, timing: Timing) -> Measured {
        let refs = &self.refs;
        let silent = &mut |_: api::Ev| {};
        let lane = match &mut self.prepared {
            Prepared::Map { reqs, ctx } => run_rounds(seconds, |lane| {
                for (req, reference) in reqs.iter().zip(refs) {
                    let t = Instant::now();
                    let report = api::execute_map(req, ctx, silent);
                    lane.op(t.elapsed(), check(&report, reference));
                }
            }),
            Prepared::Scale { jobs } => run_rounds(seconds, |lane| {
                for (job, reference) in jobs.iter().zip(refs) {
                    let t = Instant::now();
                    let (report, _) = job.run();
                    lane.op(t.elapsed(), check(&Ok(report), reference));
                }
            }),
            Prepared::Open { reqs, ctx } => run_rounds(seconds, |lane| {
                for (req, reference) in reqs.iter().zip(refs) {
                    // Stream jobs are timed one `Event::Job` to the next.
                    let mut ends = Vec::with_capacity(32);
                    let start = Instant::now();
                    let report = api::execute_open(req, ctx, &mut |ev| {
                        if ev.kind() == EventKind::StreamJob {
                            ends.push(Instant::now());
                        }
                    });
                    record_parts(lane, start, ends, check(&report, reference));
                }
            }),
            Prepared::Campaign { job, .. } => {
                let mut serial = 0;
                run_rounds(seconds, |lane| {
                    serial += 1;
                    let mut ends = Vec::new();
                    let start = Instant::now();
                    let report = run_campaign(job, serial, CAMPAIGN_THREADS, &mut |_| {
                        ends.push(Instant::now())
                    });
                    record_parts(lane, start, ends, check(&report, &refs[0]));
                })
            }
            Prepared::Daemon { reqs, clients, .. } => {
                // Callers start every round together, so a round is the
                // same mix of concurrent jobs each time. The barrier's
                // leader decides when the window is over.
                let stride = clients.len();
                let reqs = &*reqs;
                let barrier = std::sync::Barrier::new(stride);
                let over = std::sync::atomic::AtomicBool::new(false);
                let start = Instant::now();
                let lanes = std::thread::scope(|scope| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .enumerate()
                        .map(|(c, client)| {
                            let (barrier, over) = (&barrier, &over);
                            scope.spawn(move || {
                                let mut lane = Lane::new();
                                loop {
                                    lane.begin_round();
                                    // Client c submits entries c, c + stride, ...
                                    for i in (c..reqs.len()).step_by(stride) {
                                        let t = Instant::now();
                                        let report = client.submit_map(&reqs[i], |_| {});
                                        lane.op(t.elapsed(), check(&report, &refs[i]));
                                    }
                                    lane.end_round();
                                    if barrier.wait().is_leader()
                                        && start.elapsed().as_secs_f64() >= seconds
                                    {
                                        over.store(true, std::sync::atomic::Ordering::SeqCst);
                                    }
                                    barrier.wait();
                                    if over.load(std::sync::atomic::Ordering::SeqCst) {
                                        return lane;
                                    }
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked"))
                        .collect::<Vec<_>>()
                });
                return merge(lanes, timing);
            }
        };
        merge(vec![lane], timing)
    }
}

/// Record a request that completes in parts (stream jobs, campaign
/// cells): one operation per part, the last one running to the request's
/// return and carrying its verdict.
fn record_parts(
    lane: &mut Lane,
    start: Instant,
    mut ends: Vec<Instant>,
    verdict: Result<(), String>,
) {
    let returned = Instant::now();
    match ends.last_mut() {
        Some(last) => *last = returned,
        None => {
            return lane.op(
                returned - start,
                verdict.and(Err("no-parts: the request reported no progress".into())),
            )
        }
    }
    let mut from = start;
    let n = ends.len();
    for (k, end) in ends.into_iter().enumerate() {
        lane.op(
            end - from,
            if k + 1 == n { verdict.clone() } else { Ok(()) },
        );
        from = end;
    }
}

// ---- quality and exact counts, from the reference reports ---------------

struct Reference {
    digest: u64,
    t100_frac: f64,
    deadline_hit_rate: f64,
    /// Per list entry.
    counts: Vec<Counts>,
    /// Operations in one cycle of the list.
    ops: u64,
}

fn reference(setup: &Setup) -> Reference {
    let refs = &setup.refs;
    let counts: Vec<Counts> = refs.iter().map(|r| report::parse(r)).collect();
    // Operations one cycle of the list performs.
    let ops = match &setup.prepared {
        Prepared::Open { .. } => counts.iter().map(|c| c.stream_jobs).sum(),
        Prepared::Campaign { rows, .. } => rows.len() as u64,
        _ => refs.len() as u64,
    };
    let (t100_frac, deadline_hit_rate) = match &setup.prepared {
        Prepared::Campaign { job, rows } => {
            let tasks: f64 = flag_num(job, "--tasks").unwrap_or(1.0);
            let rows: Vec<_> = rows
                .iter()
                .filter_map(|r| report::parse_campaign_row(r))
                .collect();
            let n = rows.len().max(1) as f64;
            let feasible: u64 = rows.iter().map(|r| r.1).sum();
            let total: u64 = rows.iter().map(|r| r.2).sum();
            (
                rows.iter().map(|r| r.0).sum::<f64>() / n / tasks,
                feasible as f64 / total.max(1) as f64,
            )
        }
        Prepared::Open { .. } => {
            // An open report counts stream jobs, not subtasks: T100's
            // place is taken by the share of jobs mapped in full.
            let jobs: u64 = counts.iter().map(|c| c.stream_jobs).sum();
            let hits: u64 = counts.iter().map(|c| c.deadline_hits).sum();
            let completed: u64 = counts.iter().map(|c| c.completed).sum();
            (
                completed as f64 / jobs.max(1) as f64,
                hits as f64 / jobs.max(1) as f64,
            )
        }
        _ => {
            let tasks: u64 = counts.iter().map(|c| c.tasks).sum();
            let t100: u64 = counts.iter().map(|c| c.t100).sum();
            let met = counts.iter().filter(|c| c.constraints_met).count();
            (
                t100 as f64 / tasks.max(1) as f64,
                met as f64 / counts.len() as f64,
            )
        }
    };
    Reference {
        digest: util::digest(refs.iter().map(String::as_str)),
        t100_frac,
        deadline_hit_rate,
        counts,
        ops,
    }
}

// ---- the traced cycle -------------------------------------------------

type Layers = BTreeMap<&'static str, f64>;

/// Mean self time of `name` spans, in ms (0 when there are none).
fn mean_ms(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |&(ns, n)| ns as f64 / n.max(1) as f64 / 1e6)
}

fn total_ms(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spans of the layer-by-layer replay of one map request: generation,
/// the driver called directly, validation.
fn trace_layers(t: &mut Tracer, i: u32, req: &api::MapJob) -> Result<(), String> {
    let root = t.begin("job.layers", i, None);
    let scenario = t.span("grid.generate", i, Some(root), || api::generate(req))?;
    let start = t.now_ns();
    let m = api::map_direct(req, &scenario);
    let mapper = if m.slrh { "slrh.map" } else { "baselines.map" };
    t.add_sequence(
        i,
        Some(root),
        start,
        &[(mapper, m.map), ("sim.validate", m.validate)],
    );
    t.end(root);
    if !m.valid {
        return Err(format!(
            "invalid-schedule: direct run of list entry {i} did not validate"
        ));
    }
    Ok(())
}

/// Spans of the product path of one map request, in-process.
fn trace_execute(
    t: &mut Tracer,
    i: u32,
    words: &Job,
    ctx: &mut api::Ctx,
    reference: &str,
) -> Result<api::MapJob, String> {
    let root = t.begin("job", i, None);
    let req = t.span("cli.parse", i, Some(root), || api::parse_map(words))?;
    let report = t.span("broker.execute", i, Some(root), || {
        api::execute_map(&req, ctx, &mut |_| {})
    });
    t.end(root);
    check(&report, reference)?;
    Ok(req)
}

/// The entries of `items` in order, with their indices, until `budget`
/// has been spent: the first always, each later one only while time is left.
fn within<T>(items: &[T], budget: Duration) -> impl Iterator<Item = (usize, &T)> {
    let started = Instant::now();
    items
        .iter()
        .enumerate()
        .take_while(move |&(i, _)| i == 0 || started.elapsed() < budget)
}

/// Mean duration in ms of the spans called `name`.
fn mean_span_ms(t: &Tracer, name: &str) -> f64 {
    let d: Vec<u64> = t
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    ratio(d.iter().sum::<u64>() as f64 / 1e6, d.len() as f64)
}

impl Setup {
    /// One traced cycle (cut short at `budget`), issuing each job
    /// through the layer functions one at a time. Returns the per-layer
    /// numbers and the traced time of the product path per operation.
    fn traced(
        &mut self,
        list: &[Job],
        reference: &Reference,
        budget: Duration,
        t: &mut Tracer,
    ) -> Result<(Layers, f64), String> {
        let refs = &self.refs;
        let mut layers = Layers::new();
        let mut traced = 0usize;
        let traced_op_ms;
        match &mut self.prepared {
            Prepared::Map { ctx, .. } => {
                for (i, words) in within(list, budget) {
                    let req = trace_execute(t, i as u32, words, ctx, &refs[i])?;
                    trace_layers(t, i as u32, &req)?;
                    traced = i + 1;
                }
                traced_op_ms = mean_span_ms(t, "broker.execute");
            }
            Prepared::Daemon {
                ctx, clients, reqs, ..
            } => {
                let client = &mut clients[0];
                let (mut events, mut bytes) = (0u64, 0u64);
                for (i, words) in within(list, budget) {
                    let id = i as u32;
                    let root = t.begin("job.submit", id, None);
                    let sent = t.now_ns();
                    let mut cuts = [sent; 3];
                    let report = client.submit_map(&reqs[i], |ev| {
                        events += 1;
                        bytes += ev.wire_len() as u64;
                        let slot = match ev.kind() {
                            EventKind::Queued => 0,
                            EventKind::Started => 1,
                            EventKind::Done => 2,
                            _ => return,
                        };
                        cuts[slot] = t.now_ns();
                    });
                    let read = t.now_ns();
                    t.add("broker.submit_to_queued", id, Some(root), sent, cuts[0]);
                    t.add("broker.queue_wait", id, Some(root), cuts[0], cuts[1]);
                    t.add("broker.service", id, Some(root), cuts[1], cuts[2]);
                    t.add("broker.reply", id, Some(root), cuts[2], read);
                    t.end(root);
                    check(&report, &refs[i])?;
                    bytes += report.map_or(0, |r| r.len() as u64);

                    let req = trace_execute(t, id, words, ctx, &refs[i])?;
                    let trip = api::request_roundtrip(&req)?;
                    bytes += trip.bytes as u64;
                    let root = t.begin("job.codec", id, None);
                    let start = t.now_ns();
                    t.add_sequence(id, Some(root), start, &trip.steps);
                    t.end(root);
                    trace_layers(t, id, &req)?;
                    traced = i + 1;
                }
                let n = traced as f64;
                layers.insert("broker.events_per_job", events as f64 / n);
                // Every event, the request and the response are one frame each.
                layers.insert("grid.wire_frames_per_job", events as f64 / n + 2.0);
                layers.insert("grid.wire_bytes_per_job", bytes as f64 / n);
                let t0 = Instant::now();
                std::hint::black_box(api::queue_push_pop(200_000));
                layers.insert(
                    "broker.queue_op_ns",
                    t0.elapsed().as_nanos() as f64 / 200_000.0,
                );
                traced_op_ms = mean_span_ms(t, "job.submit");
            }
            Prepared::Scale { jobs } => {
                for (i, job) in within(jobs, budget) {
                    let id = i as u32;
                    let root = t.begin("job", id, None);
                    t.span("grid.generate", id, Some(root), || {
                        std::hint::black_box(job.regenerate())
                    });
                    let start = t.now_ns();
                    let (report, m) = job.run();
                    t.add_sequence(
                        id,
                        Some(root),
                        start,
                        &[("slrh.map", m.map), ("sim.validate", m.validate)],
                    );
                    t.end(root);
                    check(&Ok(report), &refs[i])?;
                    traced = i + 1;
                }
                let times = trace::self_times(&t.spans);
                traced_op_ms = mean_ms(&times, "slrh.map") + mean_ms(&times, "sim.validate");
            }
            Prepared::Open { ctx, .. } => {
                let mut stream_jobs = 0u64;
                for (i, words) in within(list, budget) {
                    let id = i as u32;
                    let root = t.begin("job", id, None);
                    let req = t.span("cli.parse", id, Some(root), || api::parse_open(words))?;
                    let report = t.span("broker.execute", id, Some(root), || {
                        api::execute_open(&req, ctx, &mut |ev| {
                            stream_jobs += u64::from(ev.kind() == EventKind::StreamJob);
                        })
                    });
                    t.end(root);
                    check(&report, &refs[i])?;
                    traced = i + 1;
                }
                let times = trace::self_times(&t.spans);
                traced_op_ms = ratio(total_ms(&times, "broker.execute"), stream_jobs as f64);
                layers.insert("slrh.open_us_per_stream_job", traced_op_ms * 1e3);
            }
            Prepared::Campaign { job, rows } => {
                let root = t.begin("job", 0, None);
                let mut last = t.now_ns();
                let report = run_campaign(job, u64::MAX, CAMPAIGN_THREADS, &mut |_| {
                    let now = t.now_ns();
                    t.add("broker.execute_unit", 0, Some(root), last, now);
                    last = now;
                });
                t.end(root);
                check(&report, &refs[0])?;
                // The same campaign on every core the host offers.
                let t0 = Instant::now();
                let wide = run_campaign(job, u64::MAX - 1, 0, &mut |_| {});
                let wide_ms = ms(t0.elapsed());
                check(&wide, &refs[0])?;
                layers.insert(
                    "sweep.parallel_speedup",
                    ratio(mean_span_ms(t, "job"), wide_ms),
                );
                traced = 1;
                traced_op_ms = mean_span_ms(t, "broker.execute_unit");

                // The layers under a campaign cell, one call each.
                let tasks = flag_num(job, "--tasks")?;
                let steps = (flag_num(job, "--coarse")?, flag_num(job, "--fine")?);
                let root = t.begin("micro", 0, None);
                let mut evals = 0usize;
                for case in flag(job, "--cases")?.split(',') {
                    let micro = api::Micro::new(tasks, case)?;
                    evals += t.span("sweep.search", 0, Some(root), || micro.weight_search(steps));
                    t.span("baselines.maxmax", 0, Some(root), || {
                        std::hint::black_box(micro.maxmax())
                    });
                    t.span("bounds.upper_bound", 0, Some(root), || {
                        std::hint::black_box(micro.upper_bound())
                    });
                }
                let path = out_dir()?.join(format!("checkpoint-{}-micro.txt", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let recorded = t.span("broker.checkpoint_record", 0, Some(root), || {
                    api::checkpoint_record(&path.to_string_lossy(), rows)
                });
                let _ = std::fs::remove_file(&path);
                t.end(root);
                let times = trace::self_times(&t.spans);
                let searches = times.get("sweep.search").map_or(1, |v| v.1) as f64;
                layers.insert("sweep.search_ms", mean_ms(&times, "sweep.search"));
                layers.insert("sweep.evals_per_search", evals as f64 / searches);
                layers.insert(
                    "sweep.ms_per_eval",
                    ratio(total_ms(&times, "sweep.search"), evals as f64),
                );
                layers.insert("baselines.maxmax_ms", mean_ms(&times, "baselines.maxmax"));
                layers.insert(
                    "bounds.upper_bound_ms",
                    mean_ms(&times, "bounds.upper_bound"),
                );
                layers.insert(
                    "broker.checkpoint_record_ms",
                    ratio(
                        total_ms(&times, "broker.checkpoint_record"),
                        recorded? as f64,
                    ),
                );
            }
        }

        // Numbers every kind derives the same way from its spans.
        let times = trace::self_times(&t.spans);
        let execute = total_ms(&times, "broker.execute");
        let generate = total_ms(&times, "grid.generate");
        let map = total_ms(&times, "slrh.map") + total_ms(&times, "baselines.map");
        let validate = total_ms(&times, "sim.validate");
        // What a job is made of: the in-process execution where the
        // workload has one, else the direct driver call plus validation.
        let whole = if execute > 0.0 {
            execute
        } else {
            map + validate
        };
        let n = traced.max(1) as f64;
        layers.insert("cli.parse_us", mean_ms(&times, "cli.parse") * 1e3);
        layers.insert("grid.generate_ms", mean_ms(&times, "grid.generate"));
        layers.insert("sim.validate_ms", mean_ms(&times, "sim.validate"));
        layers.insert("slrh.map_ms", mean_ms(&times, "slrh.map"));
        layers
            .entry("baselines.maxmax_ms")
            .or_insert(mean_ms(&times, "baselines.map"));
        layers.insert("broker.execute_ms", mean_ms(&times, "broker.execute"));
        // Shares exist where the driver call is a span of its own.
        if map > 0.0 {
            layers.insert("sim.validate_share", ratio(validate, whole));
            layers.insert("slrh.map_share", ratio(map, whole));
            if execute > 0.0 {
                layers.insert("grid.generate_share", ratio(generate, whole));
                layers.insert(
                    "broker.render_ms",
                    ((execute - generate - map - validate) / n).max(0.0),
                );
            }
        }
        layers.insert(
            "grid.wire_encode_us",
            mean_ms(&times, "grid.wire_encode") * 1e3,
        );
        layers.insert(
            "grid.wire_decode_us",
            mean_ms(&times, "grid.wire_decode") * 1e3,
        );
        layers.insert(
            "broker.proto_roundtrip_us",
            (mean_ms(&times, "broker.proto_encode") + mean_ms(&times, "broker.proto_decode")) * 1e3,
        );
        for (metric, span) in [
            ("broker.submit_to_queued_ms", "broker.submit_to_queued"),
            ("broker.queue_wait_ms", "broker.queue_wait"),
            ("broker.service_ms", "broker.service"),
            ("broker.reply_ms", "broker.reply"),
        ] {
            layers.insert(metric, mean_ms(&times, span));
        }
        let events = layers.get("broker.events_per_job").copied().unwrap_or(0.0);
        layers.insert(
            "broker.us_per_event",
            ratio(mean_ms(&times, "broker.service") * 1e3, events),
        );
        // Driver time against the exact counts of the entries traced.
        let slrh_us = total_ms(&times, "slrh.map") * 1e3;
        let traced_counts = &reference.counts[..traced.min(reference.counts.len())];
        let ticks: u64 = traced_counts.iter().map(|c| c.clock_steps).sum();
        let commits: u64 = traced_counts.iter().map(|c| c.commits).sum();
        layers.insert("slrh.us_per_tick", ratio(slrh_us, ticks as f64));
        layers.insert("slrh.us_per_commit", ratio(slrh_us, commits as f64));
        layers.insert("trace_coverage_frac", trace::coverage(&t.spans));
        Ok((layers, traced_op_ms))
    }
}

// ---- one run ------------------------------------------------------------

pub fn run(o: &Options) -> Result<Outcome, String> {
    let w = o.workload;
    let calib_before = util::calibration_ms();
    let list = workloads::job_list(w, o.seed, o.quick);

    let timed_setup = || -> Result<(Setup, f64), String> {
        let t = Instant::now();
        let setup = Setup::new(w, &list)?;
        Ok((setup, t.elapsed().as_secs_f64()))
    };
    let mut setup_times: Vec<f64> = Vec::new();
    let mut setup = loop {
        let (setup, took) = timed_setup()?;
        setup_times.push(took);
        let spent: f64 = setup_times.iter().sum();
        // A traced run reports no set-up time, so it sets up once; a
        // quick run is about the checks, not the numbers.
        if o.trace || o.quick || setup_times.len() >= SETUP_MAX_REPS || spent >= SETUP_BUDGET_S {
            break setup;
        }
        setup.teardown();
    };
    let reference = reference(&setup);

    // A traced run splits its time between the untraced window (the
    // base of trace_overhead_frac) and the traced cycle.
    let window = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let cpu0 = util::process_cpu_ms();
    let m = setup.timed(window, w.timing);
    let cpu_ms = util::process_cpu_ms() - cpu0;
    let peak_rss_mb = util::peak_rss_mb();

    // The second half of the set-up repetitions (the first set-up stays
    // up, idle, for the traced cycle and teardown below).
    if !o.trace && !o.quick {
        for _ in 0..setup_times.len() {
            let (again, took) = timed_setup()?;
            setup_times.push(took);
            again.teardown();
        }
    }
    // The best repetition, as with every timing of compute here.
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);

    let ops = m.attempted.max(1) as f64;
    let p50 = if m.typical_ms.is_empty() {
        0.0
    } else {
        percentile(&m.typical_ms, 50.0)
    };
    let mut notes = vec![
        ("report_digest", format!("0x{:016x}", reference.digest)),
        ("samples", m.lat_ms.len().to_string()),
        ("rounds", m.rounds.to_string()),
        (
            "highest_supported_percentile",
            util::highest_supported_percentile(m.lat_ms.len())
                .map_or("none".into(), |p| format!("p{p}")),
        ),
    ];
    if let Some(why) = &m.first_failure {
        notes.push(("first_failure", why.clone()));
    }

    let mut metrics = Vec::new();
    if !o.trace {
        for (name, value) in [
            ("setup_s", setup_s),
            ("jobs_per_s", m.rate),
            ("job_p50_ms", p50),
            ("peak_rss_mb", peak_rss_mb),
        ] {
            metrics.push(Metric { name, value });
        }
    }

    let mut trace_error = None;
    if o.trace {
        let mut tracer = Tracer::new();
        let budget = Duration::from_secs_f64(o.seconds / 2.0);
        let (mut layers, traced_op_ms) = match setup.traced(&list, &reference, budget, &mut tracer)
        {
            Ok(v) => v,
            Err(e) => {
                trace_error = Some(e);
                (Layers::new(), 0.0)
            }
        };
        let path = out_dir()?.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(("trace_file", path.display().to_string()));

        let per_op = |f: fn(&Counts) -> u64| {
            reference.counts.iter().map(f).sum::<u64>() as f64 / reference.ops.max(1) as f64
        };
        let commits = per_op(|c| c.commits);
        let candidates = per_op(|c| c.candidates);
        let p95_supported = m.lat_ms.len() >= 200;
        layers.insert(
            "job_p95_ms",
            if p95_supported {
                percentile(&m.lat_ms, 95.0)
            } else {
                0.0
            },
        );
        layers.insert("job_samples", m.lat_ms.len() as f64);
        layers.insert("cpu_ms_per_job", cpu_ms / ops);
        layers.insert("fail_rate", m.failed as f64 / ops);
        layers.insert("t100_frac", reference.t100_frac);
        layers.insert("deadline_hit_rate", reference.deadline_hit_rate);
        layers.insert("slrh.clock_steps_per_job", per_op(|c| c.clock_steps));
        layers.insert("slrh.commits_per_job", commits);
        layers.insert("slrh.candidates_per_job", candidates);
        layers.insert("slrh.candidates_per_commit", ratio(candidates, commits));
        layers.insert("slrh.disruptions_per_job", per_op(|c| c.disruptions));
        layers.insert("slrh.invalidated_per_job", per_op(|c| c.invalidated));
        layers.insert(
            "lagrange.weight_updates_per_job",
            per_op(|c| c.weight_updates),
        );
        let t0 = Instant::now();
        std::hint::black_box(api::objective_evaluate(2_000_000));
        layers.insert(
            "lagrange.objective_ns",
            t0.elapsed().as_nanos() as f64 / 2e6,
        );
        if w.kind == Kind::Daemon {
            layers.insert(
                "broker.overhead_ms",
                p50 - layers.get("broker.execute_ms").copied().unwrap_or(0.0),
            );
        }
        // Mean against mean: what one caller spends per operation.
        let untraced_op_ms = ratio(w.clients as f64 * 1e3, m.rate);
        layers.insert(
            "trace_overhead_frac",
            ratio(traced_op_ms, untraced_op_ms) - 1.0,
        );
        let calib_after = util::calibration_ms();
        layers.insert("host.calib_ms", calib_before);
        layers.insert("host.calib_drift_frac", calib_after / calib_before - 1.0);
        for layer in crate::catalog::PER_LAYER {
            // A layer this workload does not pass through reads 0.
            let value = layers.get(layer.name).copied().unwrap_or(0.0);
            metrics.push(Metric {
                name: layer.name,
                value,
            });
        }
    }
    setup.teardown();

    let drift = util::calibration_ms() / calib_before - 1.0;
    // Best-of-rounds needs rounds to choose from.
    let few_rounds = m.rounds < MIN_ROUNDS && !o.quick && !o.trace;
    notes.push((
        "noisy",
        (drift.abs() > NOISY_DRIFT || few_rounds).to_string(),
    ));
    notes.push(("calib_drift", format!("{drift:.3}")));
    if few_rounds {
        notes.push((
            "few_rounds",
            format!(
                "the window completed {} round(s) of the list, fewer than {MIN_ROUNDS}",
                m.rounds
            ),
        ));
    }
    if let Some(e) = &trace_error {
        notes.push(("trace_error", e.clone()));
    }

    Ok(Outcome {
        correct: m.failed == 0 && m.attempted > 0 && trace_error.is_none(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(rounds: &[&[f64]], walls: &[f64]) -> Lane {
        let mut lane = Lane::new();
        lane.rounds = rounds.iter().map(|r| r.to_vec()).collect();
        lane.walls = walls.to_vec();
        lane
    }

    #[test]
    fn best_is_the_elementwise_minimum_over_rounds() {
        let l = lane(
            &[&[10.0, 20.0, 30.0], &[12.0, 15.0, 40.0], &[9.0, 25.0, 35.0]],
            &[0.06; 3],
        );
        assert_eq!(l.best(), vec![9.0, 15.0, 30.0]);
        // A round cut short by a failure shortens the comparison, not the run.
        let l = lane(&[&[10.0, 20.0], &[5.0]], &[0.03, 0.005]);
        assert_eq!(l.best(), vec![5.0]);
        assert!(Lane::new().best().is_empty());
    }

    #[test]
    fn best_of_rounds_rates_each_entry_at_its_best_time() {
        let m = merge(
            vec![lane(&[&[10.0, 40.0], &[20.0, 30.0]], &[0.05, 0.05])],
            Timing::BestOfRounds,
        );
        // Best times 10 ms and 30 ms: 2 operations in 40 ms.
        assert!((m.rate - 50.0).abs() < 1e-9);
        assert_eq!(m.typical_ms, vec![10.0, 30.0]);
        assert_eq!(m.lat_ms, vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!((m.rounds, m.attempted, m.failed), (2, 4, 0));
    }

    #[test]
    fn plain_takes_the_median_round_and_sums_the_callers() {
        let a = lane(
            &[&[10.0, 10.0], &[10.0, 10.0], &[10.0, 10.0]],
            &[0.02, 0.04, 0.1],
        );
        let b = lane(
            &[&[20.0, 20.0], &[20.0, 20.0], &[20.0, 20.0]],
            &[0.04, 0.04, 0.1],
        );
        let m = merge(vec![a, b], Timing::Plain);
        // Rounds run at 100+50, 50+50 and 20+20 operations per second.
        assert!((m.rate - 100.0).abs() < 1e-9);
        assert_eq!(m.typical_ms.len(), 12);
        assert_eq!(percentile(&m.typical_ms, 50.0), 10.0);
    }

    #[test]
    fn a_request_in_parts_is_one_operation_per_part() {
        // A request that began 10 ms ago and reported parts 2 and 5 ms in.
        let start = Instant::now() - Duration::from_millis(10);
        let ends = vec![
            start + Duration::from_millis(2),
            start + Duration::from_millis(5),
        ];
        let mut l = Lane::new();
        l.begin_round();
        record_parts(&mut l, start, ends, Err("report-mismatch".into()));
        assert_eq!(l.rounds[0].len(), 2);
        assert!((l.rounds[0][0] - 2.0).abs() < 1e-9);
        // The last part runs to the request's return and carries its verdict.
        assert!(l.rounds[0][1] >= 8.0);
        assert_eq!(
            (l.failed, l.first_failure.as_deref()),
            (1, Some("report-mismatch"))
        );

        let mut l = Lane::new();
        l.begin_round();
        record_parts(&mut l, start, Vec::new(), Ok(()));
        assert_eq!((l.rounds[0].len(), l.failed), (1, 1));
        assert!(l.first_failure.unwrap().starts_with("no-parts"));
    }

    #[test]
    fn a_reply_must_equal_its_reference() {
        assert!(check(&Ok("a".into()), "a").is_ok());
        assert!(check(&Ok("a".into()), "b")
            .unwrap_err()
            .starts_with("report-mismatch"));
        assert!(check(&Err("boom".into()), "a")
            .unwrap_err()
            .starts_with("operation-error"));
    }
}
