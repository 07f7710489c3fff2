//! Open-system workloads: seeded job-arrival processes, per-job
//! deadlines and budgets, and background-load models.
//!
//! The paper's motivating environment (§I) is a grid where *work keeps
//! arriving* while resources churn, but its study is closed-system: one
//! DAG, one τ, run to completion. This module supplies the missing
//! workload layer: a deterministic arrival trace of [`JobArrival`]s —
//! each a self-contained DAG or task-farming bag with its own relative
//! deadline and optional cost budget (Buyya et al.'s
//! deadline-and-budget-constrained model) — plus a per-machine
//! [`Background`] availability/load model (Lazarevic & Sacks). Traces
//! are either generated from a seeded Poisson process
//! ([`poisson_trace`]) or replayed verbatim; either way the downstream
//! scheduler consumes the same explicit `Vec<JobArrival>`, so a
//! persisted trace reproduces a run bit for bit.
//!
//! Everything here is integer-deterministic except the exponential
//! inter-arrival draw, which uses the same seeded `StdRng` f64 stream as
//! the scenario generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::GridCase;
use crate::dag::Dag;
use crate::data::DataSizes;
use crate::io::kv;
use crate::seed;
use crate::units::{check_input_tasks, Dur, Energy, Time, MAX_INPUT_TICKS};
use crate::workload::{Scenario, ScenarioParams};

/// Seed stream tag for arrival-process draws (inter-arrival gaps, job
/// shapes, deadlines, budgets).
pub const STREAM_ARRIVAL: u64 = 0x0A44;
/// Seed stream tag for per-job scenario artifacts (ETC, DAG, data).
pub const STREAM_JOB: u64 = 0x0B06;
/// Seed stream tag for the background-load model draws.
pub const STREAM_BG: u64 = 0xB61D;

/// The shape of one arriving job.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// A precedence-constrained DAG (the paper's workload class).
    Dag,
    /// A task-farming bag: independent subtasks, no edges, no data
    /// items.
    Bag,
}

impl JobKind {
    /// Stable one-word label used by codecs and reports.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Dag => "dag",
            JobKind::Bag => "bag",
        }
    }

    /// Inverse of [`JobKind::label`].
    pub fn parse(s: &str) -> Result<JobKind, String> {
        match s {
            "dag" => Ok(JobKind::Dag),
            "bag" => Ok(JobKind::Bag),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// One job entering the open system.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct JobArrival {
    /// Trace-unique job id; also the seed-stream tag of the job's
    /// scenario artifacts, so a job's workload depends only on
    /// `(master seed, id)` — not on when it arrives.
    pub id: u64,
    /// Arrival instant.
    pub at: Time,
    /// DAG or bag.
    pub kind: JobKind,
    /// Number of subtasks.
    pub tasks: usize,
    /// Relative deadline: the job must finish by `at + deadline`.
    pub deadline: Dur,
    /// Optional cost budget in grid-dollar units (see
    /// [`crate::machine::MachineSpec::price_rate`]).
    pub budget: Option<f64>,
}

impl JobArrival {
    /// The job's absolute deadline.
    pub fn absolute_deadline(&self) -> Time {
        self.at + self.deadline
    }

    /// One-line codec: `id@at;kind;tasks;deadline;budget` with the
    /// budget as an exact f64 bit pattern (or `-` when absent).
    /// Bit-exact round trip with [`JobArrival::decode`].
    pub fn encode(&self) -> String {
        let budget = match self.budget {
            Some(b) => kv::format_f64_bits(b),
            None => "-".to_string(),
        };
        format!(
            "{}@{};{};{};{};{}",
            self.id,
            self.at.0,
            self.kind.label(),
            self.tasks,
            self.deadline.0,
            budget
        )
    }

    /// Inverse of [`JobArrival::encode`].
    pub fn decode(s: &str) -> Result<JobArrival, String> {
        let mut parts = s.split(';');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("job line {s:?} missing {what}"))
        };
        let (id, at) = {
            let head = next("id@at")?;
            let (id, at) = head
                .split_once('@')
                .ok_or_else(|| format!("expected id@at, got {head:?}"))?;
            (kv::parse_u64(id)?, kv::parse_u64(at)?)
        };
        let kind = JobKind::parse(next("kind")?)?;
        let tasks = kv::parse_usize(next("tasks")?)?;
        let deadline = kv::parse_u64(next("deadline")?)?;
        let budget = match next("budget")? {
            "-" => None,
            bits => Some(kv::parse_f64_bits(bits)?),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in job line {s:?}"));
        }
        if tasks == 0 {
            return Err("job must have at least one task".into());
        }
        if deadline == 0 {
            return Err("job deadline must be positive".into());
        }
        Ok(JobArrival {
            id,
            at: Time(at),
            kind,
            tasks,
            deadline: Dur(deadline),
            budget,
        })
    }
}

/// Parameters of the seeded Poisson arrival process.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PoissonParams {
    /// Number of jobs to draw.
    pub jobs: u32,
    /// Mean inter-arrival gap in ticks (`1/λ`). Must be positive.
    pub mean_gap: u64,
    /// Inclusive subtask-count range per job.
    pub tasks: (usize, usize),
    /// Out of 8 jobs, how many are bags (0..=8).
    pub bag_in_8: u8,
    /// Out of 8 jobs, how many carry a budget (0..=8).
    pub budget_in_8: u8,
    /// Seed of the draw stream.
    pub seed: u64,
}

/// Which rule of [`PoissonParams::check`] a draw's parameters break.
/// `Display` is the message CLI users see after the flag's name.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PoissonError {
    /// The mean gap is zero or past [`MAX_INPUT_TICKS`].
    MeanGap,
    /// The subtask-count range is empty or starts at zero.
    TaskRange,
    /// A bag or budget rate is more than 8 out of 8.
    Rate,
}

impl std::fmt::Display for PoissonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoissonError::MeanGap => {
                write!(
                    f,
                    "mean gap must be positive and at most {MAX_INPUT_TICKS} ticks"
                )
            }
            PoissonError::TaskRange => {
                f.write_str("the task range must start at 1 or more and not be empty")
            }
            PoissonError::Rate => f.write_str("x-in-8 rates are 0..=8"),
        }
    }
}

impl PoissonParams {
    /// The one validity rule of a draw, for [`poisson_trace`] and the
    /// CLI alike. The mean gap is a clock value like any other a request
    /// carries, so it is held to the same [`MAX_INPUT_TICKS`] cap.
    pub fn check(&self) -> Result<(), PoissonError> {
        if self.mean_gap == 0 || self.mean_gap > MAX_INPUT_TICKS {
            return Err(PoissonError::MeanGap);
        }
        if self.tasks.0 < 1 || self.tasks.0 > self.tasks.1 {
            return Err(PoissonError::TaskRange);
        }
        if self.bag_in_8 > 8 || self.budget_in_8 > 8 {
            return Err(PoissonError::Rate);
        }
        Ok(())
    }
}

/// Draw a Poisson arrival trace: exponential inter-arrival gaps with
/// mean [`PoissonParams::mean_gap`], rounded up to whole ticks. Job
/// deadlines scale the paper's τ to the job's size and stretch it by a
/// factor on the `[0.80, 1.55]` lattice (step 0.05); budgets price the
/// job's subtasks at 150–400 grid-dollars each. Same seed ⇒ identical
/// trace, bit for bit. The arrival clock saturates at [`Time::MAX`]
/// (a long tail of gaps near the cap; [`OpenParams::check`] rejects
/// such a trace) instead of overflowing.
///
/// # Panics
/// Panics with the [`PoissonError`] when [`PoissonParams::check`]
/// rejects `p`.
pub fn poisson_trace(p: &PoissonParams) -> Vec<JobArrival> {
    if let Err(e) = p.check() {
        panic!("{e}");
    }
    let mut rng = StdRng::seed_from_u64(seed::derive(p.seed, STREAM_ARRIVAL));
    let mut jobs = Vec::with_capacity(p.jobs as usize);
    let mut now = Time::ZERO;
    for id in 0..p.jobs as u64 {
        // Exponential gap, quantized up so arrivals strictly advance.
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = (-(1.0 - u).ln() * p.mean_gap as f64).ceil().max(1.0) as u64;
        now = now.saturating_add(Dur(gap));
        let tasks = rng.gen_range(p.tasks.0..=p.tasks.1);
        let kind = if rng.gen_range(0u8..8) < p.bag_in_8 {
            JobKind::Bag
        } else {
            JobKind::Dag
        };
        // Deadline: the paper-scaled τ for this size, stretched on the
        // 0.05 lattice (16..=31 twentieths).
        let base_tau = ScenarioParams::paper_scaled(tasks).tau;
        let twentieths = rng.gen_range(16u64..=31);
        let deadline = Dur(base_tau.0 * twentieths / 20);
        let budget = (rng.gen_range(0u8..8) < p.budget_in_8)
            .then(|| tasks as f64 * rng.gen_range(150u64..=400) as f64);
        jobs.push(JobArrival {
            id,
            at: now,
            kind,
            tasks,
            deadline,
            budget,
        });
    }
    jobs
}

/// Parameters of the per-machine background-load model.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BackgroundParams {
    /// Maximum initial unavailability per machine, in ticks (machines
    /// draw uniformly from `0..=max_offset`).
    pub max_offset: u64,
    /// Maximum background utilization in eighths (0..=6): a machine
    /// with utilization `e/8` stretches every `b` ticks of foreground
    /// occupancy by `ceil(b·e/(8−e))` ticks of interleaved background
    /// work.
    pub max_util_eighths: u8,
    /// Seed of the draw stream.
    pub seed: u64,
}

impl BackgroundParams {
    /// No background load at all (every machine free from `t = 0`).
    pub fn none() -> BackgroundParams {
        BackgroundParams {
            max_offset: 0,
            max_util_eighths: 0,
            seed: 0,
        }
    }

    /// True when the model is inert (no offsets, no utilization).
    pub fn is_none(&self) -> bool {
        self.max_offset == 0 && self.max_util_eighths == 0
    }

    /// One-line codec: `max_offset;max_util_eighths;seed`. Bit-exact
    /// round trip with [`BackgroundParams::decode`].
    pub fn encode(&self) -> String {
        format!(
            "{};{};0x{:016x}",
            self.max_offset, self.max_util_eighths, self.seed
        )
    }

    /// Inverse of [`BackgroundParams::encode`].
    pub fn decode(s: &str) -> Result<BackgroundParams, String> {
        let mut parts = s.split(';');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| format!("background line {s:?} missing {what}"))
        };
        let max_offset = kv::parse_u64(next("max_offset")?)?;
        let max_util_eighths = kv::parse_u64(next("max_util_eighths")?)?;
        let seed = kv::parse_u64(next("seed")?)?;
        if parts.next().is_some() {
            return Err(format!("trailing fields in background line {s:?}"));
        }
        if max_util_eighths > 6 {
            return Err("background utilization capped at 6/8".into());
        }
        Ok(BackgroundParams {
            max_offset,
            max_util_eighths: max_util_eighths as u8,
            seed,
        })
    }
}

/// The materialized background model: per-machine availability offsets
/// and utilizations drawn deterministically from the parameters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Background {
    /// Machine `m` accepts no work before `offset[m]`.
    pub offset: Vec<Time>,
    /// Background utilization of machine `m`, in eighths (0..=6).
    pub util_eighths: Vec<u8>,
}

impl Background {
    /// Draw the model for `machines` machines.
    ///
    /// # Panics
    /// Panics when `max_util_eighths > 6` (the inflation formula needs
    /// `8 − e ≥ 2` to stay bounded).
    pub fn generate(machines: usize, p: &BackgroundParams) -> Background {
        assert!(
            p.max_util_eighths <= 6,
            "background utilization capped at 6/8"
        );
        let mut rng = StdRng::seed_from_u64(seed::derive(p.seed, STREAM_BG));
        let mut offset = Vec::with_capacity(machines);
        let mut util_eighths = Vec::with_capacity(machines);
        for _ in 0..machines {
            offset.push(Time(if p.max_offset == 0 {
                0
            } else {
                rng.gen_range(0..=p.max_offset)
            }));
            util_eighths.push(if p.max_util_eighths == 0 {
                0
            } else {
                rng.gen_range(0..=p.max_util_eighths)
            });
        }
        Background {
            offset,
            util_eighths,
        }
    }

    /// Background work interleaved with `busy` ticks of foreground
    /// occupancy on machine `m`: `ceil(busy·e/(8−e))` extra ticks.
    pub fn inflate(&self, m: usize, busy: Dur) -> Dur {
        let e = self.util_eighths[m] as u64;
        if e == 0 || busy.0 == 0 {
            return Dur(0);
        }
        Dur((busy.0 * e).div_ceil(8 - e))
    }
}

/// One fully-specified open-system instance: the shared grid case, the
/// job trace, and the background model. The per-job scenarios derive
/// deterministically from `master_seed` and each job's id.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenParams {
    /// Which grid case the shared grid uses.
    pub case: GridCase,
    /// Master seed for per-job artifact generation.
    pub master_seed: u64,
    /// The arrival trace (generated or replayed), in arrival order.
    pub jobs: Vec<JobArrival>,
    /// Background-load model parameters.
    pub bg: BackgroundParams,
}

impl OpenParams {
    /// The preconditions of an open-system run, checked here for the
    /// driver, the CLI, the broker and the stress harness alike: a
    /// non-empty trace of uniquely-numbered jobs, each with at least one
    /// and at most [`crate::units::MAX_INPUT_TASKS`] subtasks, a positive
    /// deadline and an arrival and deadline of at most
    /// [`MAX_INPUT_TICKS`], under a background model the inflation
    /// formula can bound.
    pub fn check(&self) -> Result<(), String> {
        if self.jobs.is_empty() {
            return Err("arrival trace needs at least one job".into());
        }
        let mut ids: Vec<u64> = self.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate job id in arrival trace".into());
        }
        for j in &self.jobs {
            if j.tasks == 0 {
                return Err(format!("job {} has no tasks", j.id));
            }
            check_input_tasks(j.tasks).map_err(|e| format!("job {}: {e}", j.id))?;
            if j.deadline.0 == 0 {
                return Err(format!("job {} has a zero deadline", j.id));
            }
            if j.at.0 > MAX_INPUT_TICKS || j.deadline.0 > MAX_INPUT_TICKS {
                return Err(format!(
                    "job {} arrives or is due past {MAX_INPUT_TICKS} ticks",
                    j.id
                ));
            }
        }
        if self.bg.max_util_eighths > 6 {
            return Err("background utilization capped at 6/8".into());
        }
        Ok(())
    }

    /// The job's self-contained scenario on the shared grid: its own
    /// ETC/DAG/data artifacts (seeded by the job id), τ set to the
    /// job's *absolute* deadline, and machines carrying their full
    /// paper batteries (the open-system driver drains them as earlier
    /// jobs spend energy). Bags get an edgeless DAG and no data items.
    pub fn job_scenario(&self, job: &JobArrival) -> Scenario {
        let mut params = ScenarioParams::paper_scaled(job.tasks);
        params.master_seed = seed::derive2(self.master_seed, STREAM_JOB, job.id);
        params.tau = job.absolute_deadline();
        params.battery_scale = 1.0;
        let mut sc = Scenario::generate(&params, self.case, 0, 0);
        if job.kind == JobKind::Bag {
            sc.dag = Dag::independent(job.tasks);
            sc.data = DataSizes::uniform(&sc.dag, 0.0);
        }
        sc
    }

    /// [`OpenParams::job_scenario`] with each machine's battery drained
    /// by the energy earlier jobs committed on it — the shared-grid
    /// depletion the multi-job ledger oracle checks.
    pub fn job_scenario_drained(&self, job: &JobArrival, spent: &[Energy]) -> Scenario {
        let mut sc = self.job_scenario(job);
        sc.grid.drain_batteries(spent);
        sc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> PoissonParams {
        PoissonParams {
            jobs: 6,
            mean_gap: 500,
            tasks: (4, 12),
            bag_in_8: 3,
            budget_in_8: 4,
            seed,
        }
    }

    #[test]
    fn poisson_trace_is_deterministic() {
        let a = poisson_trace(&params(7));
        let b = poisson_trace(&params(7));
        assert_eq!(a, b);
        let c = poisson_trace(&params(8));
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_trace_advances_and_sizes_in_range() {
        let jobs = poisson_trace(&params(3));
        assert_eq!(jobs.len(), 6);
        let mut last = Time::ZERO;
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
            assert!(j.at > last, "arrivals strictly advance");
            last = j.at;
            assert!((4..=12).contains(&j.tasks));
            assert!(j.deadline.0 > 0);
        }
    }

    /// Each rule of the draw's owner, and the cap: a mean gap is a clock
    /// value, and at the cap the arrival clock saturates (a trace
    /// `OpenParams::check` then rejects) where it used to overflow.
    #[test]
    fn draw_parameters_are_checked_and_the_clock_saturates() {
        let broken = |edit: &dyn Fn(&mut PoissonParams)| {
            let mut p = params(1);
            edit(&mut p);
            p.check().unwrap_err()
        };
        assert_eq!(params(1).check(), Ok(()));
        assert_eq!(broken(&|p| p.mean_gap = 0), PoissonError::MeanGap);
        assert_eq!(
            broken(&|p| p.mean_gap = MAX_INPUT_TICKS + 1),
            PoissonError::MeanGap
        );
        assert_eq!(broken(&|p| p.tasks = (0, 4)), PoissonError::TaskRange);
        assert_eq!(broken(&|p| p.tasks = (9, 4)), PoissonError::TaskRange);
        assert_eq!(broken(&|p| p.bag_in_8 = 9), PoissonError::Rate);
        assert_eq!(broken(&|p| p.budget_in_8 = 9), PoissonError::Rate);

        let at_cap = PoissonParams {
            jobs: 64,
            mean_gap: MAX_INPUT_TICKS,
            ..params(1)
        };
        assert_eq!(at_cap.check(), Ok(()));
        let jobs = poisson_trace(&at_cap);
        assert_eq!(jobs.len(), 64);
        assert!(jobs.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            jobs.last().unwrap().at,
            Time::MAX,
            "64 gaps of mean 2^62 pass u64::MAX"
        );
    }

    #[test]
    fn job_codec_round_trips() {
        for job in poisson_trace(&params(11)) {
            let line = job.encode();
            let back = JobArrival::decode(&line).expect("decodes");
            assert_eq!(back, job);
            assert_eq!(back.encode(), line);
        }
    }

    #[test]
    fn job_codec_rejects_malformed_lines() {
        for bad in [
            "",
            "1@2",
            "1@2;dag;4;100",
            "x@2;dag;4;100;-",
            "1@2;cat;4;100;-",
            "1@2;dag;0;100;-",
            "1@2;dag;4;0;-",
            "1@2;dag;4;100;zz",
            "1@2;dag;4;100;-;extra",
        ] {
            assert!(JobArrival::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn background_params_codec_round_trips() {
        for p in [
            BackgroundParams::none(),
            BackgroundParams {
                max_offset: 300,
                max_util_eighths: 5,
                seed: 0xDEAD_BEEF,
            },
        ] {
            let line = p.encode();
            let back = BackgroundParams::decode(&line).expect("decodes");
            assert_eq!(back, p);
            assert_eq!(back.encode(), line);
        }
        for bad in ["", "1;2", "1;7;0x0", "1;2;0x0;extra", "x;2;0x0"] {
            assert!(BackgroundParams::decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn background_is_deterministic_and_bounded() {
        let p = BackgroundParams {
            max_offset: 300,
            max_util_eighths: 5,
            seed: 42,
        };
        let a = Background::generate(8, &p);
        let b = Background::generate(8, &p);
        assert_eq!(a, b);
        for m in 0..8 {
            assert!(a.offset[m].0 <= 300);
            assert!(a.util_eighths[m] <= 5);
        }
        // e/8 utilization stretches b by b*e/(8-e), rounded up.
        let bg = Background {
            offset: vec![Time::ZERO],
            util_eighths: vec![4],
        };
        assert_eq!(bg.inflate(0, Dur(100)), Dur(100));
        let none = Background::generate(4, &BackgroundParams::none());
        assert!(none.offset.iter().all(|&o| o == Time::ZERO));
        assert_eq!(none.inflate(2, Dur(1000)), Dur(0));
    }

    #[test]
    fn job_scenarios_depend_on_id_not_arrival_time() {
        let p = OpenParams {
            case: GridCase::A,
            master_seed: seed::MASTER_SEED,
            jobs: vec![],
            bg: BackgroundParams::none(),
        };
        let job = |at: u64| JobArrival {
            id: 5,
            at: Time(at),
            kind: JobKind::Dag,
            tasks: 16,
            deadline: Dur(4000),
            budget: None,
        };
        let a = p.job_scenario(&job(100));
        let b = p.job_scenario(&job(900));
        assert_eq!(a.etc, b.etc);
        assert_eq!(a.dag, b.dag);
        assert_eq!(a.tau, Time(100 + 4000));
        assert_eq!(b.tau, Time(900 + 4000));

        let bag = p.job_scenario(&JobArrival {
            kind: JobKind::Bag,
            ..job(100)
        });
        assert_eq!(bag.dag.edge_count(), 0);
        assert_eq!(bag.tasks(), 16);
    }

    #[test]
    fn check_names_each_broken_precondition() {
        let job = |id: u64| JobArrival {
            id,
            at: Time(10 * id),
            kind: JobKind::Dag,
            tasks: 8,
            deadline: Dur(1000),
            budget: None,
        };
        let good = OpenParams {
            case: GridCase::A,
            master_seed: seed::MASTER_SEED,
            jobs: vec![job(0), job(1)],
            bg: BackgroundParams::none(),
        };
        assert_eq!(good.check(), Ok(()));
        let broken = |edit: &dyn Fn(&mut OpenParams)| {
            let mut p = good.clone();
            edit(&mut p);
            p.check().unwrap_err()
        };
        assert_eq!(
            broken(&|p| p.jobs.clear()),
            "arrival trace needs at least one job"
        );
        assert_eq!(
            broken(&|p| p.jobs[1].id = 0),
            "duplicate job id in arrival trace"
        );
        assert_eq!(broken(&|p| p.jobs[1].tasks = 0), "job 1 has no tasks");
        use crate::units::MAX_INPUT_TASKS;
        assert_eq!(
            broken(&|p| p.jobs[1].tasks = MAX_INPUT_TASKS + 1),
            format!("job 1: tasks must be at most {MAX_INPUT_TASKS}")
        );
        assert_eq!(
            broken(&|p| p.jobs[0].deadline = Dur(0)),
            "job 0 has a zero deadline"
        );
        let past_cap = format!("job 1 arrives or is due past {MAX_INPUT_TICKS} ticks");
        assert_eq!(
            broken(&|p| p.jobs[1].at = Time(MAX_INPUT_TICKS + 1)),
            past_cap
        );
        assert_eq!(broken(&|p| p.jobs[1].deadline = Dur(u64::MAX)), past_cap);
        let mut at_cap = good.clone();
        at_cap.jobs[1].at = Time(MAX_INPUT_TICKS);
        at_cap.jobs[1].deadline = Dur(MAX_INPUT_TICKS);
        at_cap.jobs[1].tasks = MAX_INPUT_TASKS;
        assert_eq!(at_cap.check(), Ok(()));
        assert_eq!(
            broken(&|p| p.bg.max_util_eighths = 7),
            "background utilization capped at 6/8"
        );
    }

    #[test]
    fn drained_scenario_loses_battery() {
        let p = OpenParams {
            case: GridCase::A,
            master_seed: seed::MASTER_SEED,
            jobs: vec![],
            bg: BackgroundParams::none(),
        };
        let job = JobArrival {
            id: 0,
            at: Time(10),
            kind: JobKind::Dag,
            tasks: 8,
            deadline: Dur(1000),
            budget: None,
        };
        let full = p.job_scenario(&job);
        let spent = vec![Energy(3.0); full.grid.len()];
        let drained = p.job_scenario_drained(&job, &spent);
        for (m, spec) in drained.grid.iter() {
            let b0 = full.grid.machine(m).battery;
            assert!((spec.battery.units() - (b0.units() - 3.0)).abs() < 1e-12);
        }
    }
}
