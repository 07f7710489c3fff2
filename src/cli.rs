//! Typed command-line layer for the `lrh-grid` binary.
//!
//! Every command's arguments are parsed into one [`Command`] value
//! before any work happens: unknown flags, missing values and malformed
//! values are hard errors carrying a message suitable for printing
//! above [`USAGE`]. There is no stringly flag scraping — each flag is
//! parsed by the same `FromStr` implementations the wire protocol and
//! checkpoint files use, so the CLI, the broker and the golden fixtures
//! all name heuristics, cases and configurations identically.
//!
//! `run` and `submit` both build a [`MapRequest`] here and execute it
//! through `grid_broker::execute`, which is what makes a submitted
//! job's report byte-identical to a local run of the same flags.

use std::fmt;
use std::str::FromStr;

use adhoc_grid::arrival::{
    poisson_trace, BackgroundParams, JobArrival, PoissonError, PoissonParams,
};
use adhoc_grid::config::GridCase;
use adhoc_grid::io::kv;
use adhoc_grid::units::Dur;
use grid_broker::proto::{MapRequest, OpenRequest, ScenarioSpec};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::weight_search::check_steps;
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use slrh::{Adaptation, ConfigError, SlrhConfig, SlrhVariant};

/// Usage text printed under every argument error (and for `--help`).
pub const USAGE: &str = "\
usage: lrh-grid <command> [options]

workload options (run, tune, export, replay, churn, submit, watch):
  --case A|B|C        grid case (default A)
  --tasks N           subtask count (default 256; tau/batteries scale)
  --etc I  --dag I    suite member ids (default 0, 0)
  --seed S            master seed override (decimal or 0x hex)
  --tau T             deadline override in ticks (10 ticks = 1 s)
  --in FILE           read the workload from FILE instead of generating

mapping options (run, replay, churn, submit, watch):
  --heuristic NAME    slrh1|slrh2|slrh3|maxmax|greedy|lrlist|dbccost
  --alpha X --beta Y  objective weights (default 0.5, 0.3)
  --dt T --horizon T  receding-horizon knobs in ticks (paper defaults)
  --lose M@T          machine M lost at tick T (repeatable; SLRH only)
  --join M@T          machine M arrives at tick T (repeatable; SLRH only)
  --label NAME        job label echoed in the report (default \"job\");
                      no '#' or newline, here or in --client: each
                      travels to a daemon as one wire value
  --gantt             render a Gantt chart to stderr after the report

adaptation options (run, replay, churn, submit, watch; SLRH only):
  --adapt RULE        online weight adaptation: constant(A)|diminishing(A)|
                      polyak(TARGET, MAX)
  --adapt-every N     ticks between updates (default 1); a run starts
                      from --alpha/--beta, alpha stays >= 0.05 and each
                      multiplier <= 8

open-system options (open; submit/watch with --open):
  --case A|B|C        shared grid case (default A)
  --seed S            master seed for per-job artifacts and draws
  --jobs N            Poisson trace length in jobs (default 8)
  --mean-gap T        mean inter-arrival gap in ticks (default 500)
  --tasks-min N       smallest job size (default 4)
  --tasks-max N       largest job size (default 12)
  --bags-in-8 N       bag (task-farming) jobs out of 8 (default 2)
  --budgets-in-8 N    budget-carrying jobs out of 8 (default 4)
  --job SPEC          explicit arrival `id@at;kind;tasks;deadline;budget`
                      (repeatable; replaces the Poisson draw)
  --bg SPEC           background model `max_offset;max_util_eighths;seed`
  --alpha/--beta/--dt/--horizon/--lose/--join/--label as above

commands:
  run      map the workload locally; deterministic report on stdout
  tune     search the compliant (alpha, beta) maximizing T100
           over the paper's two-stage grid
           [--coarse X --fine Y  search steps (default 0.1, 0.02)]
  export   write the generated workload to --out FILE
  replay   map a workload read from --in FILE (alias of run --in)
  churn    run --heuristic slrh1 with churn events and a Gantt chart
  serve    start the broker daemon
           [--addr HOST:PORT (default 127.0.0.1:7171), --workers N (default 2)]
  open     run an open-system streaming workload locally
  submit   send the job to a daemon; identical stdout to `run`
           (with --open: identical stdout to `open`)
           [--addr HOST:PORT, --client NAME]
  watch    submit, narrating queue/tick/disruption events to stderr
  status   print the daemon's queue/slot counters
  stop     ask the daemon to shut down gracefully";

/// Default daemon address for `serve`/`submit`/`watch`/`status`/`stop`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// An argument error: a message to print above [`USAGE`].
#[derive(Debug, PartialEq, Eq)]
pub struct CliError {
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
        }
    }
}

/// A fully parsed invocation.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// Map a workload locally.
    Run(Job),
    /// Run an open-system streaming workload locally.
    Open(OpenJob),
    /// Weight search.
    Tune(Tune),
    /// Write a generated workload to a file.
    Export(Export),
    /// Map a previously exported workload.
    Replay(Job),
    /// SLRH under machine churn, with a Gantt chart.
    Churn(Job),
    /// Start the broker daemon.
    Serve(Serve),
    /// Submit a job to a daemon.
    Submit(Remote),
    /// Submit and narrate the event stream.
    Watch(Remote),
    /// Query daemon counters.
    Status(Addr),
    /// Graceful daemon shutdown.
    Stop(Addr),
}

/// A local mapping job.
#[derive(Debug, PartialEq)]
pub struct Job {
    /// The request — the same type the wire protocol carries.
    pub request: MapRequest,
    /// Render a Gantt chart to stderr after the report.
    pub gantt: bool,
}

/// An open-system streaming job. The request always carries an
/// explicit arrival trace: Poisson flags are expanded at parse time, so
/// a submitted open job is a pure function of the frame — the daemon
/// never re-draws the process.
#[derive(Debug, PartialEq)]
pub struct OpenJob {
    /// The request — the same type the wire protocol carries.
    pub request: OpenRequest,
}

/// A job addressed to a daemon.
#[derive(Debug, PartialEq)]
pub struct Remote {
    /// Daemon address.
    pub addr: String,
    /// The job.
    pub job: RemoteJob,
}

/// What a `submit`/`watch` invocation carries.
#[derive(Debug, PartialEq)]
pub enum RemoteJob {
    /// A closed-system mapping job.
    Map(Job),
    /// An open-system streaming job (`--open`).
    Open(OpenJob),
}

/// `tune` arguments.
#[derive(Debug, PartialEq)]
pub struct Tune {
    /// The workload to tune on.
    pub scenario: ScenarioSpec,
    /// The heuristic whose weights are searched.
    pub heuristic: Heuristic,
    /// Coarse search step.
    pub coarse: f64,
    /// Fine refinement step.
    pub fine: f64,
}

/// `export` arguments.
#[derive(Debug, PartialEq)]
pub struct Export {
    /// The workload to write.
    pub scenario: ScenarioSpec,
    /// Output path.
    pub out: String,
}

/// `serve` arguments.
#[derive(Debug, PartialEq)]
pub struct Serve {
    /// Bind address.
    pub addr: String,
    /// Execution slots: jobs executing at once.
    pub workers: usize,
}

/// A bare daemon address (`status`, `stop`).
#[derive(Debug, PartialEq)]
pub struct Addr {
    /// Daemon address.
    pub addr: String,
}

/// Parse a full argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(CliError::new("missing command"));
    };
    match cmd.as_str() {
        "run" => Ok(Command::Run(parse_job("run", rest, false)?.job)),
        "replay" => {
            let parsed = parse_job("replay", rest, false)?;
            if !matches!(parsed.job.request.scenario, ScenarioSpec::Inline(_)) {
                return Err(CliError::new("replay requires --in FILE"));
            }
            Ok(Command::Replay(parsed.job))
        }
        "churn" => {
            let mut parsed = parse_job("churn", rest, false)?;
            parsed.job.gantt = true;
            Ok(Command::Churn(parsed.job))
        }
        "tune" => parse_tune(rest).map(Command::Tune),
        "export" => parse_export(rest).map(Command::Export),
        "serve" => parse_serve(rest).map(Command::Serve),
        "open" => Ok(Command::Open(parse_open("open", rest, false)?.job)),
        "submit" => parse_remote("submit", rest).map(Command::Submit),
        "watch" => parse_remote("watch", rest).map(Command::Watch),
        "status" => parse_addr("status", rest).map(Command::Status),
        "stop" => parse_addr("stop", rest).map(Command::Stop),
        other => Err(CliError::new(format!("unknown command {other:?}"))),
    }
}

/// Flag cursor over an argument slice.
struct Cursor<'a> {
    argv: &'a [String],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(argv: &'a [String]) -> Cursor<'a> {
        Cursor { argv, i: 0 }
    }

    /// The next flag, or an error for a positional argument.
    fn next_flag(&mut self) -> Result<Option<&'a str>, CliError> {
        let Some(arg) = self.argv.get(self.i) else {
            return Ok(None);
        };
        self.i += 1;
        if !arg.starts_with("--") {
            return Err(CliError::new(format!("unexpected argument {arg:?}")));
        }
        Ok(Some(arg))
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let Some(arg) = self.argv.get(self.i) else {
            return Err(CliError::new(format!("{flag} needs a value")));
        };
        self.i += 1;
        Ok(arg)
    }
}

/// Parse `raw` as a `T`, attributing failures to `flag`.
fn typed<T: FromStr>(flag: &str, raw: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    raw.parse()
        .map_err(|e| CliError::new(format!("bad value {raw:?} for {flag}: {e}")))
}

/// Parse `raw` with one of the wire's value parsers, attributing
/// failures to `flag`: seeds (`kv::parse_u64`) and churn events `M@T`
/// (`kv::parse_at_pair`) take the wire's spelling, decimal or `0x` hex,
/// so a value the daemon accepts the CLI accepts too.
fn wire_value<T>(
    flag: &str,
    raw: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, CliError> {
    parse(raw).map_err(|e| CliError::new(format!("bad value {raw:?} for {flag}: {e}")))
}

/// Parse a job label or client name: free text that rides the wire as
/// one entry value, where `#` starts a comment and a newline ends the
/// entry. Refused for local commands too, so `run` and `submit` accept
/// the same requests.
fn parse_name(flag: &str, raw: &str) -> Result<String, CliError> {
    if raw.contains(['#', '\n']) {
        return Err(CliError::new(format!(
            "bad value {raw:?} for {flag}: must not contain '#' or a newline"
        )));
    }
    Ok(raw.to_string())
}

/// Workload flags shared by every scenario-consuming command.
#[derive(Default)]
struct WorkloadFlags {
    tasks: Option<usize>,
    case: Option<GridCase>,
    etc: Option<usize>,
    dag: Option<usize>,
    seed: Option<u64>,
    tau: Option<u64>,
    input: Option<String>,
}

impl WorkloadFlags {
    /// Try to consume `flag`; `Ok(false)` means it is not a workload flag.
    fn accept(&mut self, flag: &str, cursor: &mut Cursor) -> Result<bool, CliError> {
        match flag {
            "--tasks" => self.tasks = Some(typed(flag, cursor.value(flag)?)?),
            "--case" => self.case = Some(typed(flag, cursor.value(flag)?)?),
            "--etc" => self.etc = Some(typed(flag, cursor.value(flag)?)?),
            "--dag" => self.dag = Some(typed(flag, cursor.value(flag)?)?),
            "--seed" => self.seed = Some(wire_value(flag, cursor.value(flag)?, kv::parse_u64)?),
            "--tau" => self.tau = Some(typed(flag, cursor.value(flag)?)?),
            "--in" => self.input = Some(cursor.value(flag)?.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn build(self) -> Result<ScenarioSpec, CliError> {
        if let Some(path) = self.input {
            if self.tasks.is_some()
                || self.case.is_some()
                || self.etc.is_some()
                || self.dag.is_some()
                || self.seed.is_some()
                || self.tau.is_some()
            {
                return Err(CliError::new(
                    "--in reads a complete workload; it cannot be combined \
                     with --tasks/--case/--etc/--dag/--seed/--tau",
                ));
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::new(format!("reading {path}: {e}")))?;
            return Ok(ScenarioSpec::Inline(text));
        }
        Ok(ScenarioSpec::Generate {
            tasks: self.tasks.unwrap_or(256),
            case: self.case.unwrap_or(GridCase::A),
            etc: self.etc.unwrap_or(0),
            dag: self.dag.unwrap_or(0),
            seed: self.seed,
            tau: self.tau,
        })
    }
}

struct ParsedJob {
    job: Job,
    addr: String,
}

/// `submit`/`watch`: `--open` anywhere in the argument list switches
/// the whole invocation to the open-system parse path; otherwise the
/// flags build a [`MapRequest`] exactly as `run` does.
fn parse_remote(cmd: &str, argv: &[String]) -> Result<Remote, CliError> {
    if argv.iter().any(|a| a == "--open") {
        let parsed = parse_open(cmd, argv, true)?;
        Ok(Remote {
            addr: parsed.addr,
            job: RemoteJob::Open(parsed.job),
        })
    } else {
        let parsed = parse_job(cmd, argv, true)?;
        Ok(Remote {
            addr: parsed.addr,
            job: RemoteJob::Map(parsed.job),
        })
    }
}

struct ParsedOpen {
    job: OpenJob,
    addr: String,
}

fn parse_open(cmd: &str, argv: &[String], remote: bool) -> Result<ParsedOpen, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut case = GridCase::A;
    let mut seed: Option<u64> = None;
    let mut jobs: Option<u32> = None;
    let mut mean_gap = 500u64;
    let mut tasks_min = 4usize;
    let mut tasks_max = 12usize;
    let mut bags_in_8 = 2u8;
    let mut budgets_in_8 = 4u8;
    let mut explicit: Vec<JobArrival> = Vec::new();
    let mut bg = BackgroundParams::none();
    let mut alpha = 0.5f64;
    let mut beta = 0.3f64;
    let mut dt: Option<u64> = None;
    let mut horizon: Option<u64> = None;
    let mut losses: Vec<(usize, u64)> = Vec::new();
    let mut arrivals: Vec<(usize, u64)> = Vec::new();
    let mut label: Option<String> = None;
    let mut client: Option<String> = None;
    let mut addr: Option<String> = None;

    while let Some(flag) = cursor.next_flag()? {
        match flag {
            "--case" => case = typed(flag, cursor.value(flag)?)?,
            "--seed" => seed = Some(wire_value(flag, cursor.value(flag)?, kv::parse_u64)?),
            "--jobs" => jobs = Some(typed(flag, cursor.value(flag)?)?),
            "--mean-gap" => mean_gap = typed(flag, cursor.value(flag)?)?,
            "--tasks-min" => tasks_min = typed(flag, cursor.value(flag)?)?,
            "--tasks-max" => tasks_max = typed(flag, cursor.value(flag)?)?,
            "--bags-in-8" => bags_in_8 = typed(flag, cursor.value(flag)?)?,
            "--budgets-in-8" => budgets_in_8 = typed(flag, cursor.value(flag)?)?,
            "--job" => explicit.push(
                JobArrival::decode(cursor.value(flag)?)
                    .map_err(|e| CliError::new(format!("bad value for --job: {e}")))?,
            ),
            "--bg" => {
                bg = BackgroundParams::decode(cursor.value(flag)?)
                    .map_err(|e| CliError::new(format!("bad value for --bg: {e}")))?
            }
            "--alpha" => alpha = typed(flag, cursor.value(flag)?)?,
            "--beta" => beta = typed(flag, cursor.value(flag)?)?,
            "--dt" => dt = Some(typed(flag, cursor.value(flag)?)?),
            "--horizon" => horizon = Some(typed(flag, cursor.value(flag)?)?),
            "--lose" => losses.push(wire_value(flag, cursor.value(flag)?, kv::parse_at_pair)?),
            "--join" => arrivals.push(wire_value(flag, cursor.value(flag)?, kv::parse_at_pair)?),
            "--label" => label = Some(parse_name(flag, cursor.value(flag)?)?),
            "--open" if remote => {} // the mode marker itself
            "--client" if remote => client = Some(parse_name(flag, cursor.value(flag)?)?),
            "--addr" if remote => addr = Some(cursor.value(flag)?.to_string()),
            other => {
                return Err(CliError::new(format!("unknown flag {other:?} for {cmd}")));
            }
        }
    }

    let master_seed = seed.unwrap_or(adhoc_grid::seed::MASTER_SEED);
    let trace = if explicit.is_empty() {
        let n = jobs.unwrap_or(8);
        if n == 0 {
            return Err(CliError::new("--jobs must be positive"));
        }
        let process = PoissonParams {
            jobs: n,
            mean_gap,
            tasks: (tasks_min, tasks_max),
            bag_in_8: bags_in_8,
            budget_in_8: budgets_in_8,
            seed: master_seed,
        };
        process.check().map_err(|e| {
            let flag = match e {
                PoissonError::MeanGap => "--mean-gap",
                PoissonError::TaskRange => "--tasks-min/--tasks-max",
                PoissonError::Rate => "--bags-in-8/--budgets-in-8",
            };
            CliError::new(format!("{flag}: {e}"))
        })?;
        poisson_trace(&process)
    } else {
        if jobs.is_some() {
            return Err(CliError::new(
                "--job lists an explicit trace; it cannot be combined with --jobs",
            ));
        }
        explicit
    };

    let config = slrh_config(SlrhVariant::V1, (alpha, beta), dt, horizon, None)?;

    let request = OpenRequest {
        client: client.unwrap_or_else(|| "cli".into()),
        label: label.unwrap_or_else(|| "open".into()),
        config,
        case,
        seed: master_seed,
        jobs: trace,
        bg,
        losses,
        arrivals,
    };
    request
        .open_params()
        .check()
        .map_err(|e| CliError::new(format!("bad arrival trace (--job): {e}")))?;

    Ok(ParsedOpen {
        job: OpenJob { request },
        addr: addr.unwrap_or_else(|| DEFAULT_ADDR.into()),
    })
}

/// The SLRH configuration the flags name: paper defaults under the
/// given overrides, validated by the configuration's own rule.
fn slrh_config(
    variant: SlrhVariant,
    (alpha, beta): (f64, f64),
    dt: Option<u64>,
    horizon: Option<u64>,
    adaptation: Option<Adaptation>,
) -> Result<SlrhConfig, CliError> {
    let weights =
        Weights::new(alpha, beta).map_err(|e| CliError::new(format!("invalid weights: {e}")))?;
    let mut config = SlrhConfig::paper(variant, weights);
    config.dt = dt.map_or(config.dt, Dur);
    config.horizon = horizon.map_or(config.horizon, Dur);
    config.adaptation = adaptation;
    config.check().map_err(|e| {
        let flag = match e {
            ConfigError::ZeroDt | ConfigError::DtTooLarge => "--dt: ",
            ConfigError::ZeroHorizon | ConfigError::HorizonTooLarge => "--horizon: ",
            _ => "",
        };
        CliError::new(format!("invalid configuration: {flag}{e}"))
    })?;
    Ok(config)
}

fn parse_job(cmd: &str, argv: &[String], remote: bool) -> Result<ParsedJob, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut workload = WorkloadFlags::default();
    let mut heuristic = Heuristic::Slrh1;
    let mut alpha = 0.5f64;
    let mut beta = 0.3f64;
    let mut dt: Option<u64> = None;
    let mut horizon: Option<u64> = None;
    let mut losses: Vec<(usize, u64)> = Vec::new();
    let mut arrivals: Vec<(usize, u64)> = Vec::new();
    let mut gantt = false;
    let mut label: Option<String> = None;
    let mut client: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut adapt_rule: Option<StepRule> = None;
    let mut adapt_every: Option<u64> = None;

    while let Some(flag) = cursor.next_flag()? {
        if workload.accept(flag, &mut cursor)? {
            continue;
        }
        match flag {
            "--heuristic" => heuristic = typed(flag, cursor.value(flag)?)?,
            "--alpha" => alpha = typed(flag, cursor.value(flag)?)?,
            "--beta" => beta = typed(flag, cursor.value(flag)?)?,
            "--dt" => dt = Some(typed(flag, cursor.value(flag)?)?),
            "--horizon" => horizon = Some(typed(flag, cursor.value(flag)?)?),
            "--lose" => losses.push(wire_value(flag, cursor.value(flag)?, kv::parse_at_pair)?),
            "--join" => arrivals.push(wire_value(flag, cursor.value(flag)?, kv::parse_at_pair)?),
            "--adapt" => adapt_rule = Some(typed(flag, cursor.value(flag)?)?),
            "--adapt-every" => adapt_every = Some(typed(flag, cursor.value(flag)?)?),
            "--gantt" => gantt = true,
            "--label" => label = Some(parse_name(flag, cursor.value(flag)?)?),
            "--client" if remote => client = Some(parse_name(flag, cursor.value(flag)?)?),
            "--addr" if remote => addr = Some(cursor.value(flag)?.to_string()),
            other => {
                return Err(CliError::new(format!("unknown flag {other:?} for {cmd}")));
            }
        }
    }

    // Baselines read only the weights out of the config; the variant
    // field is inert for them.
    let variant = heuristic.slrh_variant().unwrap_or(SlrhVariant::V1);
    let adaptation = Adaptation::from_parts(adapt_rule, adapt_every).map_err(|e| match e {
        ConfigError::AdaptWithoutRule => {
            CliError::new("--adapt-every sets a cadence: adaptive runs require --adapt RULE")
        }
        e => CliError::new(format!("invalid adaptation: {e}")),
    })?;
    let config = slrh_config(variant, (alpha, beta), dt, horizon, adaptation)?;

    Ok(ParsedJob {
        job: Job {
            request: MapRequest {
                client: client.unwrap_or_else(|| "cli".into()),
                label: label.unwrap_or_else(|| "job".into()),
                heuristic,
                config,
                scenario: workload.build()?,
                losses,
                arrivals,
            },
            gantt,
        },
        addr: addr.unwrap_or_else(|| DEFAULT_ADDR.into()),
    })
}

fn parse_tune(argv: &[String]) -> Result<Tune, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut workload = WorkloadFlags::default();
    let mut heuristic = Heuristic::Slrh1;
    let mut coarse = 0.1f64;
    let mut fine = 0.02f64;
    while let Some(flag) = cursor.next_flag()? {
        if workload.accept(flag, &mut cursor)? {
            continue;
        }
        match flag {
            "--heuristic" => heuristic = typed(flag, cursor.value(flag)?)?,
            "--coarse" => coarse = typed(flag, cursor.value(flag)?)?,
            "--fine" => fine = typed(flag, cursor.value(flag)?)?,
            other => return Err(CliError::new(format!("unknown flag {other:?} for tune"))),
        }
    }
    check_steps(coarse, fine).map_err(|e| CliError::new(format!("--coarse/--fine: {e}")))?;
    Ok(Tune {
        scenario: workload.build()?,
        heuristic,
        coarse,
        fine,
    })
}

fn parse_export(argv: &[String]) -> Result<Export, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut workload = WorkloadFlags::default();
    let mut out: Option<String> = None;
    while let Some(flag) = cursor.next_flag()? {
        if workload.accept(flag, &mut cursor)? {
            continue;
        }
        match flag {
            "--out" => out = Some(cursor.value(flag)?.to_string()),
            other => return Err(CliError::new(format!("unknown flag {other:?} for export"))),
        }
    }
    Ok(Export {
        scenario: workload.build()?,
        out: out.ok_or_else(|| CliError::new("export requires --out FILE"))?,
    })
}

fn parse_serve(argv: &[String]) -> Result<Serve, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut addr: Option<String> = None;
    let mut workers = 2usize;
    while let Some(flag) = cursor.next_flag()? {
        match flag {
            "--addr" => addr = Some(cursor.value(flag)?.to_string()),
            "--workers" => workers = typed(flag, cursor.value(flag)?)?,
            other => return Err(CliError::new(format!("unknown flag {other:?} for serve"))),
        }
    }
    if workers == 0 {
        return Err(CliError::new("--workers must be positive"));
    }
    Ok(Serve {
        addr: addr.unwrap_or_else(|| DEFAULT_ADDR.into()),
        workers,
    })
}

fn parse_addr(cmd: &str, argv: &[String]) -> Result<Addr, CliError> {
    let mut cursor = Cursor::new(argv);
    let mut addr: Option<String> = None;
    while let Some(flag) = cursor.next_flag()? {
        match flag {
            "--addr" => addr = Some(cursor.value(flag)?.to_string()),
            other => return Err(CliError::new(format!("unknown flag {other:?} for {cmd}"))),
        }
    }
    Ok(Addr {
        addr: addr.unwrap_or_else(|| DEFAULT_ADDR.into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_defaults_are_typed() {
        let Command::Run(job) = parse(&args("run")).unwrap() else {
            panic!()
        };
        assert!(!job.gantt);
        assert_eq!(job.request.heuristic, Heuristic::Slrh1);
        assert_eq!(job.request.label, "job");
        assert_eq!(
            job.request.scenario,
            ScenarioSpec::Generate {
                tasks: 256,
                case: GridCase::A,
                etc: 0,
                dag: 0,
                seed: None,
                tau: None,
            }
        );
    }

    #[test]
    fn run_and_submit_build_the_same_request() {
        let flags = "--tasks 64 --case B --heuristic slrh2 --alpha 0.4 --beta 0.4 \
                     --seed 0x2a --lose 1@400 --join 2@800";
        let Command::Run(local) = parse(&args(&format!("run {flags}"))).unwrap() else {
            panic!()
        };
        let Command::Submit(remote) = parse(&args(&format!("submit {flags}"))).unwrap() else {
            panic!()
        };
        let RemoteJob::Map(job) = remote.job else {
            panic!()
        };
        // `client` is transport identity, not job identity; everything
        // the report depends on must be identical.
        let mut submitted = job.request.clone();
        submitted.client = local.request.client.clone();
        assert_eq!(submitted, local.request);
        assert_eq!(local.request.losses, vec![(1, 400)]);
        assert_eq!(local.request.arrivals, vec![(2, 800)]);
        assert_eq!(remote.addr, DEFAULT_ADDR);
    }

    #[test]
    fn unknown_flags_are_hard_errors() {
        for line in [
            "run --addr x", // remote-only flag on a local command
            "run --frobnicate x",
            "tune --gantt x",
            // The retired annealing searcher's flags, the grid selector
            // included: there is nothing left to select.
            "tune --sa-seed 1",
            "tune --sa-iters 8",
            "tune --searcher grid",
            // The retired adaptation bounds and warm start: the floor
            // and the cap are constants, and --alpha/--beta start a run.
            "run --adapt constant(0.25) --adapt-amin 0.1",
            "run --adapt constant(0.25) --adapt-lmax 4",
            "run --adapt constant(0.25) --adapt-warm 0.4,0.4",
            "serve --tasks x",
            "status --workers x",
        ] {
            let err = parse(&args(line)).unwrap_err();
            assert!(err.message.contains("unknown flag"), "{line}: {err}");
        }
    }

    /// A label or client name that cannot ride the wire as one entry
    /// value is refused up front — by the local commands too, so `run`
    /// and `submit` accept exactly the same requests (a `#` used to
    /// print a report from `run` and panic in `submit`'s frame encoder).
    #[test]
    fn names_that_cannot_ride_the_wire_are_hard_errors() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        for value in ["a#b", "#", "two\nlines"] {
            for (cmd, flag) in [
                ("run", "--label"),
                ("churn", "--label"),
                ("open", "--label"),
                ("submit", "--label"),
                ("submit", "--client"),
                ("watch", "--client"),
            ] {
                let err = parse(&argv(&[cmd, flag, value])).unwrap_err();
                assert!(
                    err.message.contains(flag) && err.message.contains("'#' or a newline"),
                    "{cmd} {flag} {value:?}: {err}"
                );
            }
            assert!(parse(&argv(&["submit", "--open", "--client", value])).is_err());
        }
        // Everything else is still free text, and survives the frame.
        let Ok(Command::Submit(Remote {
            job: RemoteJob::Map(job),
            ..
        })) = parse(&argv(&["submit", "--label", "a b=c@d;e"]))
        else {
            panic!("a label without '#' or newline parses");
        };
        let decoded = MapRequest::from_frame(&job.request.to_frame()).unwrap();
        assert_eq!(decoded.label, "a b=c@d;e");
    }

    #[test]
    fn malformed_values_are_hard_errors() {
        for bad in [
            "run --tasks many",
            "run --case D",
            "run --heuristic slrh9",
            "run --alpha x",
            "run --lose 1",
            "run --lose one@5",
            "run --dt 0",
            "serve --workers 0",
            "tune --coarse -0.1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Well-typed values that used to reach a panic — search steps out
    /// of order, clock values whose checked sums overflow — are usage
    /// errors naming the flag, for the local and the remote spelling.
    #[test]
    fn values_that_used_to_panic_are_usage_errors_naming_the_flag() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let huge_job = "1@9223372036854775808;dag;4;18446744073709551615;-";
        for (words, flag) in [
            (
                vec!["tune", "--coarse", "0.1", "--fine", "0.2"],
                "--coarse/--fine",
            ),
            (vec!["tune", "--coarse", "inf"], "--coarse/--fine"),
            (
                vec!["run", "--tasks", "64", "--horizon", "18446744073709551615"],
                "--horizon",
            ),
            (
                vec!["submit", "--horizon", "4611686018427387905"],
                "--horizon",
            ),
            (
                vec![
                    "run",
                    "--tau",
                    "18446744073709551615",
                    "--dt",
                    "9223372036854775808",
                ],
                "--dt",
            ),
            (vec!["open", "--dt", "9223372036854775808"], "--dt"),
            (
                vec!["open", "--jobs", "4", "--mean-gap", "18446744073709551615"],
                "--mean-gap",
            ),
            (
                vec!["submit", "--open", "--mean-gap", "4611686018427387905"],
                "--mean-gap",
            ),
            (vec!["open", "--job", huge_job], "--job"),
            (vec!["submit", "--open", "--job", huge_job], "--job"),
        ] {
            let err = parse(&argv(&words)).unwrap_err();
            assert!(err.message.contains(flag), "{words:?}: {err}");
        }
        // The cap itself is accepted everywhere.
        let cap = "4611686018427387904";
        assert!(parse(&argv(&["run", "--dt", cap, "--horizon", cap, "--tau", cap])).is_ok());
        assert!(parse(&argv(&["open", "--job", &format!("1@{cap};dag;4;{cap};-")])).is_ok());
    }

    #[test]
    fn missing_values_and_positionals_are_hard_errors() {
        assert!(parse(&args("run --tasks"))
            .unwrap_err()
            .message
            .contains("needs a value"));
        assert!(parse(&args("run 64"))
            .unwrap_err()
            .message
            .contains("unexpected argument"));
        assert!(parse(&args("frobnicate"))
            .unwrap_err()
            .message
            .contains("unknown command"));
        assert!(parse(&[]).unwrap_err().message.contains("missing command"));
    }

    #[test]
    fn replay_requires_an_input_file() {
        let err = parse(&args("replay --tasks 64")).unwrap_err();
        assert!(err.message.contains("--in"), "{err}");
    }

    #[test]
    fn in_excludes_generation_flags() {
        let err = parse(&args("run --in file.txt --tasks 64")).unwrap_err();
        assert!(err.message.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn churn_always_renders_a_chart() {
        let Command::Churn(job) = parse(&args("churn --lose 1@50")).unwrap() else {
            panic!()
        };
        assert!(job.gantt);
        assert_eq!(job.request.losses, vec![(1, 50)]);
    }

    /// `--lose`/`--join` read `M@T` with the wire's parser, so a hex
    /// tick the daemon accepts parses locally too.
    #[test]
    fn churn_events_take_the_wire_spelling() {
        let Command::Run(job) = parse(&args("run --lose 1@0x10 --join 2@0x20")).unwrap() else {
            panic!()
        };
        assert_eq!(job.request.losses, vec![(1, 16)]);
        assert_eq!(job.request.arrivals, vec![(2, 32)]);
        let err = parse(&args("run --lose 1@x")).unwrap_err();
        assert!(err.message.contains("for --lose"), "{err}");
    }

    #[test]
    fn serve_and_status_parse_addresses() {
        assert_eq!(
            parse(&args("serve --addr 0.0.0.0:9000 --workers 4")).unwrap(),
            Command::Serve(Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 4
            })
        );
        assert_eq!(
            parse(&args("status")).unwrap(),
            Command::Status(Addr {
                addr: DEFAULT_ADDR.into()
            })
        );
    }

    #[test]
    fn config_knobs_reach_the_request() {
        let Command::Run(job) = parse(&args("run --dt 5 --horizon 50")).unwrap() else {
            panic!()
        };
        assert_eq!(job.request.config.dt, Dur(5));
        assert_eq!(job.request.config.horizon, Dur(50));
    }

    #[test]
    fn adaptation_flags_reach_the_request() {
        let Command::Run(plain) = parse(&args("run")).unwrap() else {
            panic!()
        };
        assert_eq!(plain.request.config.adaptation, None);

        let Command::Run(job) = parse(&args("run --adapt constant(0.25) --adapt-every 4")).unwrap()
        else {
            panic!()
        };
        let ad = job.request.config.adaptation.expect("adaptation set");
        assert_eq!(ad.rule, StepRule::Constant { a: 0.25 });
        assert_eq!(ad.every, 4);

        // A cadence without --adapt is a hard error, mirroring the
        // config FromStr contract.
        let err = parse(&args("run --adapt-every 4")).unwrap_err();
        assert!(err.message.contains("require --adapt"), "{err}");
        // And invalid blocks are rejected before a request is built.
        assert!(parse(&args("run --adapt constant(0.25) --adapt-every 0")).is_err());
        assert!(parse(&args("run --adapt nosuch(1.0)")).is_err());
    }

    #[test]
    fn open_and_submit_open_build_the_same_request() {
        let flags = "--case B --seed 0x2a --jobs 5 --mean-gap 300 --tasks-min 3 \
                     --tasks-max 9 --bags-in-8 4 --budgets-in-8 8 \
                     --alpha 0.4 --beta 0.4 --dt 5 --horizon 50 --lose 1@400";
        let Command::Open(local) = parse(&args(&format!("open {flags}"))).unwrap() else {
            panic!()
        };
        let Command::Submit(remote) = parse(&args(&format!("submit --open {flags}"))).unwrap()
        else {
            panic!()
        };
        let RemoteJob::Open(submitted) = remote.job else {
            panic!()
        };
        let mut req = submitted.request.clone();
        req.client = local.request.client.clone();
        assert_eq!(req, local.request);

        // Poisson expansion happened at parse time: the request carries
        // an explicit trace, every job draw already materialized.
        assert_eq!(local.request.jobs.len(), 5);
        assert_eq!(local.request.case, GridCase::B);
        assert_eq!(local.request.seed, 0x2a);
        assert_eq!(local.request.config.dt, Dur(5));
        assert_eq!(local.request.losses, vec![(1, 400)]);
        assert!(local.request.jobs.iter().all(|j| j.budget.is_some()));
    }

    #[test]
    fn open_explicit_jobs_replace_the_poisson_draw() {
        let argv: Vec<String> = [
            "open",
            "--job",
            "0@10;dag;6;2000;-",
            "--job",
            "1@50;bag;4;1500;4093480000000000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Open(job) = parse(&argv).unwrap() else {
            panic!()
        };
        assert_eq!(job.request.jobs.len(), 2);
        assert_eq!(job.request.jobs[0].id, 0);
        assert_eq!(job.request.jobs[1].budget, Some(1234.0));

        // Explicit traces and Poisson knobs are mutually exclusive.
        let mut bad = argv.clone();
        bad.extend(["--jobs".to_string(), "4".to_string()]);
        assert!(parse(&bad)
            .unwrap_err()
            .message
            .contains("cannot be combined"));
    }

    #[test]
    fn open_rejects_malformed_flags() {
        for bad in [
            "open --jobs 0",
            "open --mean-gap 0",
            "open --tasks-min 0",
            "open --tasks-min 9 --tasks-max 4",
            "open --bags-in-8 9",
            "open --bg 1;7;0x0",
            "open --job nonsense",
            "open --dt 0",
            "open --heuristic slrh1", // closed-system flag
            "open --addr x",          // remote-only flag on a local command
            "run --open",             // open marker on a closed-system command
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn tune_searcher_flags_parse() {
        // The grid search is the only searcher; its two steps are its
        // only knobs.
        let Command::Tune(grid) = parse(&args("tune")).unwrap() else {
            panic!()
        };
        assert_eq!((grid.coarse, grid.fine), (0.1, 0.02));
        assert_eq!(grid.heuristic, Heuristic::Slrh1);

        let Command::Tune(t) = parse(&args("tune --coarse 0.25 --fine 0.05")).unwrap() else {
            panic!()
        };
        assert_eq!((t.coarse, t.fine), (0.25, 0.05));
    }

    /// OLB, Min-Min and HEFT are retired: naming one is a usage error
    /// that says so, on every command that takes `--heuristic`.
    #[test]
    fn retired_heuristics_are_usage_errors_naming_the_retirement() {
        for (cmd, name, display) in [
            ("run", "heft", "HEFT"),
            ("replay --in x.lrh", "minmin", "Min-Min"),
            ("submit", "olb", "OLB"),
            ("tune", "HEFT", "HEFT"),
            ("run", "dbctime", "DBC-Time"),
        ] {
            let line = format!("{cmd} --heuristic {name}");
            let err = parse(&args(&line)).unwrap_err();
            assert!(
                err.message.contains("--heuristic")
                    && err.message.contains(&format!("{display} was retired")),
                "{line}: {err}"
            );
        }
        for retired in ["heft", "minmin", "olb", "dbctime"] {
            assert!(!USAGE.contains(retired), "{retired}");
        }
    }

    #[test]
    fn usage_names_every_heuristic() {
        let line = USAGE
            .lines()
            .find(|l| l.trim_start().starts_with("--heuristic NAME"))
            .expect("a --heuristic line");
        let names: Vec<&str> = line.split_whitespace().last().unwrap().split('|').collect();
        for h in Heuristic::ALL {
            let name = h.flag_name();
            assert!(names.contains(&name), "{name} missing from {line:?}");
        }
    }
}
