//! Open-system scheduling: a continuous stream of jobs on one shared,
//! churning grid.
//!
//! Closed-system runs ([`crate::mapper`], [`crate::dynamic`]) map one
//! DAG against one τ and stop. This driver implements the environment
//! the receding-horizon design actually targets (§I): jobs — DAGs and
//! task-farming bags, each with its own deadline and optional budget —
//! arrive continuously per an [`adhoc_grid::arrival`] trace and are
//! scheduled onto a *shared* grid whose machines carry background
//! load/availability models and churn (losses and arrivals) from the
//! existing dynamic machinery.
//!
//! ## Semantics
//!
//! Jobs are scheduled in arrival order by an event-driven receding
//! horizon: when job `k` arrives at `a_k`, its SLRH clock loop runs on
//! the tick lattice starting at the first multiple of ΔT ≥ `a_k`, with
//! τ set to the job's absolute deadline. The shared grid couples the
//! jobs three ways:
//!
//! 1. **Occupancy** — every machine is blocked
//!    ([`SimState::block_until`]) until the latest of the job's own
//!    arrival, the machine's background-availability offset, the
//!    machine's churn arrival, and the instant earlier jobs (plus their
//!    interleaved background work, [`Background::inflate`]) release it.
//! 2. **Energy** — batteries are drained by the energy earlier jobs
//!    committed ([`adhoc_grid::config::GridConfig::drain_batteries`]),
//!    so a depleted machine fails later jobs' feasibility gates.
//! 3. **Churn** — every machine-loss event is applied to every job's
//!    segment run exactly as in [`crate::dynamic`]: losses inside the
//!    job's window split the drive; losses after it still kill
//!    in-flight work.
//!
//! With a single job arriving at `t = 0`, an inert background model and
//! no churn, the driver reduces *bit for bit* to the closed-system
//! loop — the mode-off ≡ legacy differential the stress harness pins.
//!
//! Costs are billed in grid-dollars per machine-second
//! ([`gridsim::cost::schedule_cost`]); the per-job deadline/budget
//! verdicts and the aggregate [`OpenMetrics`] (throughput,
//! deadline-hit rate, cost per job) are pure functions of the final
//! schedules, so oracles recompute them bit for bit.

use adhoc_grid::arrival::{Background, JobArrival, OpenParams};
use adhoc_grid::config::MachineId;
use adhoc_grid::units::{Dur, Energy, Time};
use gridsim::cost::schedule_cost;
use gridsim::state::SimState;

use crate::config::SlrhConfig;
use crate::context::RunContext;
use crate::dynamic::{drive_segments, Churn};
use crate::mapper::RunStats;

/// Slack applied to budget comparisons (float sums of priced seconds).
pub const COST_EPS: f64 = 1e-9;

/// The fate of one job in an open-system run.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenJobReport {
    /// The job as it arrived.
    pub job: JobArrival,
    /// Subtasks mapped (of `job.tasks`).
    pub mapped: usize,
    /// Primary-version mappings.
    pub t100: usize,
    /// Finish of the job's last mapped subtask (`Time::ZERO` when
    /// nothing was mapped).
    pub finish: Time,
    /// Grid-dollars billed to the job (execution + transfers).
    pub cost: f64,
    /// Every subtask mapped.
    pub completed: bool,
    /// Completed *and* finished by the job's absolute deadline.
    pub deadline_hit: bool,
    /// `cost ≤ budget` (None when the job carries no budget).
    pub within_budget: Option<bool>,
    /// Subtasks invalidated by machine losses during this job's run.
    pub invalidated: usize,
}

/// Aggregate open-system metrics.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct OpenMetrics {
    /// Jobs in the trace.
    pub jobs: usize,
    /// Jobs fully mapped.
    pub completed: usize,
    /// Jobs fully mapped by their deadline.
    pub deadline_hits: usize,
    /// Total grid-dollars billed across all jobs.
    pub total_cost: f64,
    /// Finish of the last subtask across all jobs.
    pub makespan: Time,
}

impl OpenMetrics {
    /// `deadline_hits / jobs` (0 for an empty trace).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.deadline_hits as f64 / self.jobs as f64
        }
    }

    /// Completed jobs per 1000 ticks of makespan (0 when nothing ran).
    pub fn throughput(&self) -> f64 {
        if self.makespan == Time::ZERO {
            0.0
        } else {
            self.completed as f64 * 1000.0 / self.makespan.0 as f64
        }
    }

    /// Mean grid-dollars per job (0 for an empty trace).
    pub fn cost_per_job(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_cost / self.jobs as f64
        }
    }
}

/// The result of an open-system run.
#[derive(Clone, PartialEq, Debug)]
pub struct OpenOutcome {
    /// Per-job reports, in scheduling (arrival, id) order.
    pub jobs: Vec<OpenJobReport>,
    /// Work counters summed across every job's segments.
    pub stats: RunStats,
    /// Per machine-loss event: `(loss time, subtasks invalidated across
    /// all jobs)`. Events that disrupted nothing still appear.
    pub disruptions: Vec<(Time, usize)>,
    /// Energy committed per machine across all jobs — the shared-grid
    /// battery drain the multi-job ledger oracle checks.
    pub final_spent: Vec<Energy>,
}

impl OpenOutcome {
    /// Aggregate metrics over the per-job reports.
    pub fn metrics(&self) -> OpenMetrics {
        let mut m = OpenMetrics {
            jobs: self.jobs.len(),
            completed: 0,
            deadline_hits: 0,
            total_cost: 0.0,
            makespan: Time::ZERO,
        };
        for r in &self.jobs {
            m.completed += r.completed as usize;
            m.deadline_hits += r.deadline_hit as usize;
            m.total_cost += r.cost;
            m.makespan = m.makespan.max(r.finish);
        }
        m
    }
}

fn add_stats(total: &mut RunStats, part: &RunStats) {
    total.clock_steps += part.clock_steps;
    total.queries += part.queries;
    total.candidates_evaluated += part.candidates_evaluated;
    total.commits += part.commits;
    total.weight_updates += part.weight_updates;
    total.sweeps_elided += part.sweeps_elided;
}

/// Per-job observation hook: sees each job's final [`SimState`]
/// alongside its report before the state's buffers are recycled.
pub type JobHook<'a> = &'a mut dyn FnMut(&SimState<'_>, &OpenJobReport);

/// Run the open system: schedule every job in `params.jobs` with the
/// SLRH configuration `config` on the shared grid, under the machine
/// churn of `churn` (checked against the grid of `params.case`).
/// `on_job` (when given) observes each job's final [`SimState`]
/// alongside its report before the state's buffers are recycled — the
/// stress harness's per-job oracle hook.
///
/// # Panics
/// Panics when [`OpenParams::check`] rejects the trace.
pub fn run_open_in(
    params: &OpenParams,
    config: &SlrhConfig,
    churn: &Churn,
    ctx: &mut RunContext,
    mut on_job: Option<JobHook<'_>>,
) -> OpenOutcome {
    if let Err(e) = params.check() {
        panic!("{e}");
    }
    let machines = adhoc_grid::config::GridConfig::case(params.case).len();
    churn.assert_fits(machines);
    let (losses, arrivals) = (churn.losses(), churn.arrivals());

    let mut jobs = params.jobs.clone();
    jobs.sort_by_key(|j| (j.at, j.id));

    let bg = Background::generate(machines, &params.bg);
    let mut next_free = vec![Time::ZERO; machines];
    let mut spent = vec![Energy::ZERO; machines];
    let mut reports = Vec::with_capacity(jobs.len());
    let mut stats = RunStats::default();
    let mut disruptions: Vec<(Time, usize)> = losses.iter().map(|e| (e.at, 0)).collect();

    for job in &jobs {
        let sc = params.job_scenario_drained(job, &spent);
        let mut state = ctx.state(&sc);

        // Merge every availability constraint into one block per
        // machine: the job's own arrival, shared occupancy from earlier
        // jobs, the background offset, and the machine's churn arrival.
        for (m, (&free, &offset)) in next_free.iter().zip(&bg.offset).enumerate() {
            let mut avail = job.at.max(free).max(offset);
            if let Some(a) = arrivals.iter().find(|a| a.machine == MachineId(m)) {
                avail = avail.max(a.at);
            }
            if avail > Time::ZERO {
                state.block_until(MachineId(m), avail);
            }
        }

        let frontier = ctx.frontier_for(&state);
        // First tick: the job's arrival rounded up to the ΔT lattice,
        // so every job shares the closed-system tick grid. Each job's
        // loop adapts (when configured) from the configured starting
        // weights, and every loss is applied to every job.
        let start = Time(job.at.0.div_ceil(config.dt.0) * config.dt.0);
        let out = drive_segments(state, config, losses, frontier, start, None);
        let state = out.state;
        let mut job_invalidated = 0usize;
        for (total, &(_, n)) in disruptions.iter_mut().zip(&out.disruptions) {
            total.1 += n;
            job_invalidated += n;
        }

        let cost = schedule_cost(&sc, state.schedule());
        let completed = state.all_mapped();
        let finish = state.aet();
        let report = OpenJobReport {
            job: *job,
            mapped: state.mapped_count(),
            t100: state.t100(),
            finish,
            cost,
            completed,
            deadline_hit: completed && finish <= sc.tau,
            within_budget: job.budget.map(|b| cost <= b + COST_EPS),
            invalidated: job_invalidated,
        };

        // Release shared machine time: each machine stays busy until
        // the job's last touch plus the background work interleaved
        // with its foreground occupancy.
        let mut busy = vec![Dur(0); machines];
        let mut last = vec![Time::ZERO; machines];
        for a in state.schedule().assignments() {
            busy[a.machine.0] += a.dur;
            last[a.machine.0] = last[a.machine.0].max(a.finish());
            spent[a.machine.0] += a.energy;
        }
        for tr in state.schedule().transfers() {
            busy[tr.from.0] += tr.dur;
            last[tr.from.0] = last[tr.from.0].max(tr.finish());
            last[tr.to.0] = last[tr.to.0].max(tr.finish());
            spent[tr.from.0] += tr.energy;
        }
        for m in 0..machines {
            if last[m] > Time::ZERO {
                next_free[m] = next_free[m].max(last[m] + bg.inflate(m, busy[m]));
            }
        }

        add_stats(&mut stats, &out.stats);
        if let Some(hook) = on_job.as_mut() {
            hook(&state, &report);
        }
        reports.push(report);
        ctx.reclaim(state);
    }

    OpenOutcome {
        jobs: reports,
        stats,
        disruptions,
        final_spent: spent,
    }
}

/// [`run_open_in`] on a throwaway context.
pub fn run_open(params: &OpenParams, config: &SlrhConfig, churn: &Churn) -> OpenOutcome {
    run_open_in(params, config, churn, &mut RunContext::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlrhVariant;
    use adhoc_grid::arrival::{poisson_trace, BackgroundParams, JobKind, PoissonParams};
    use adhoc_grid::config::GridCase;
    use adhoc_grid::seed;
    use gridsim::validate::validate;
    use lagrange::weights::Weights;

    fn config() -> SlrhConfig {
        SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap())
    }

    fn open_params(jobs: Vec<JobArrival>, bg: BackgroundParams) -> OpenParams {
        OpenParams {
            case: GridCase::A,
            master_seed: seed::MASTER_SEED,
            jobs,
            bg,
        }
    }

    fn job(id: u64, at: u64, kind: JobKind, tasks: usize, deadline: u64) -> JobArrival {
        JobArrival {
            id,
            at: Time(at),
            kind,
            tasks,
            deadline: Dur(deadline),
            budget: None,
        }
    }

    #[test]
    fn single_job_at_zero_reduces_to_closed_system() {
        let p = open_params(
            vec![job(3, 0, JobKind::Dag, 24, 300_000)],
            BackgroundParams::none(),
        );
        let open = run_open(&p, &config(), &Churn::default());
        assert_eq!(open.jobs.len(), 1);

        let sc = p.job_scenario(&p.jobs[0]);
        let closed = crate::mapper::run_slrh(&sc, &config());
        let r = &open.jobs[0];
        assert_eq!(r.mapped, closed.state.mapped_count());
        assert_eq!(r.t100, closed.state.t100());
        assert_eq!(r.finish, closed.state.aet());
        assert_eq!(
            r.cost.to_bits(),
            schedule_cost(&sc, closed.state.schedule()).to_bits()
        );
        assert_eq!(open.stats.commits, closed.stats.commits);
        assert_eq!(open.stats.clock_steps, closed.stats.clock_steps);
    }

    #[test]
    fn jobs_share_the_grid_in_sequence() {
        let jobs = vec![
            job(0, 0, JobKind::Dag, 16, 200_000),
            job(1, 5_000, JobKind::Bag, 12, 200_000),
        ];
        let p = open_params(jobs, BackgroundParams::none());
        let mut seen = 0;
        let out = run_open_in(
            &p,
            &config(),
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut |state: &SimState<'_>, r: &OpenJobReport| {
                assert!(validate(state).is_empty());
                // Nothing of a job may start before it arrives.
                for a in state.schedule().assignments() {
                    assert!(a.start >= r.job.at, "{} starts before arrival", a.task);
                }
                for tr in state.schedule().transfers() {
                    assert!(tr.start >= r.job.at);
                }
                seen += 1;
            }),
        );
        assert_eq!(seen, 2);
        assert!(out.jobs.iter().all(|r| r.completed), "{:?}", out.jobs);
        let m = out.metrics();
        assert_eq!(m.jobs, 2);
        assert_eq!(m.completed, 2);
        assert!(m.total_cost > 0.0);
        assert!(m.throughput() > 0.0);
        assert!(out.final_spent.iter().any(|e| e.units() > 0.0));
    }

    #[test]
    fn background_offsets_delay_starts() {
        let jobs = vec![job(0, 0, JobKind::Dag, 12, 400_000)];
        let bg = BackgroundParams {
            max_offset: 2_000,
            max_util_eighths: 4,
            seed: 9,
        };
        let p = open_params(jobs, bg);
        let model = Background::generate(4, &bg);
        run_open_in(
            &p,
            &config(),
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut |state: &SimState<'_>, _r: &OpenJobReport| {
                for a in state.schedule().assignments() {
                    assert!(
                        a.start >= model.offset[a.machine.0],
                        "{} starts during {}'s background window",
                        a.task,
                        a.machine
                    );
                }
            }),
        );
    }

    #[test]
    fn budget_verdicts_follow_cost() {
        let mut j = job(0, 0, JobKind::Bag, 10, 300_000);
        j.budget = Some(1e12);
        let generous = run_open(&p_with(j), &config(), &Churn::default());
        assert_eq!(generous.jobs[0].within_budget, Some(true));

        j.budget = Some(0.5);
        let stingy = run_open(&p_with(j), &config(), &Churn::default());
        assert_eq!(stingy.jobs[0].within_budget, Some(false));
        assert!(stingy.jobs[0].cost > 0.5);

        fn p_with(j: JobArrival) -> OpenParams {
            OpenParams {
                case: GridCase::A,
                master_seed: seed::MASTER_SEED,
                jobs: vec![j],
                bg: BackgroundParams::none(),
            }
        }
    }

    #[test]
    fn churn_losses_apply_to_every_job() {
        let jobs = vec![
            job(0, 0, JobKind::Dag, 16, 300_000),
            job(1, 2_000, JobKind::Dag, 16, 300_000),
        ];
        let p = open_params(jobs, BackgroundParams::none());
        let churn = Churn::from_pairs([(3, 10_000)], [], 4).unwrap();
        let out = run_open_in(
            &p,
            &config(),
            &churn,
            &mut RunContext::new(),
            Some(&mut |state: &SimState<'_>, _r: &OpenJobReport| {
                assert!(state.lost_at(MachineId(3)).is_some());
                let errs = validate(state);
                assert!(errs.is_empty(), "{errs:?}");
            }),
        );
        assert_eq!(out.disruptions.len(), 1);
    }

    /// An out-of-range machine cannot reach the driver unchecked (it
    /// used to die in `SimState::mark_lost`): `Churn::new` rejects it,
    /// and a trace checked for a bigger grid is refused up front.
    #[test]
    #[should_panic(expected = "churn trace checked against 4 machines, the grid has 3")]
    fn a_trace_checked_for_a_larger_grid_is_refused() {
        let mut p = open_params(
            vec![job(0, 0, JobKind::Dag, 8, 100_000)],
            BackgroundParams::none(),
        );
        p.case = GridCase::B;
        let churn = Churn::from_pairs([(3, 10_000)], [], 4).unwrap();
        let _ = run_open(&p, &config(), &churn);
    }

    #[test]
    fn poisson_stream_runs_deterministically() {
        let trace = poisson_trace(&PoissonParams {
            jobs: 4,
            mean_gap: 2_000,
            tasks: (6, 12),
            bag_in_8: 4,
            budget_in_8: 4,
            seed: 21,
        });
        let bg = BackgroundParams {
            max_offset: 1_000,
            max_util_eighths: 3,
            seed: 5,
        };
        let p = open_params(trace, bg);
        let a = run_open(&p, &config(), &Churn::default());
        let b = run_open_in(
            &p,
            &config(),
            &Churn::default(),
            &mut RunContext::new(),
            None,
        );
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 4);
    }

    #[test]
    fn a_job_blocked_behind_an_earlier_one_elides_its_blocked_ticks() {
        // Job 1 arrives while job 0 still holds every machine, so every
        // tick after its first finds the grid all busy until the first
        // machine is released to it.
        let first = job(0, 0, JobKind::Dag, 32, 400_000);
        let second = job(1, 10, JobKind::Dag, 16, 400_000);
        let mut release = Time::MAX;
        let alone = run_open_in(
            &open_params(vec![first], BackgroundParams::none()),
            &config(),
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut |state: &SimState<'_>, _: &OpenJobReport| {
                let mut last = vec![Time::ZERO; state.scenario().grid.len()];
                for a in state.schedule().assignments() {
                    last[a.machine.0] = last[a.machine.0].max(a.finish());
                }
                for tr in state.schedule().transfers() {
                    last[tr.from.0] = last[tr.from.0].max(tr.finish());
                    last[tr.to.0] = last[tr.to.0].max(tr.finish());
                }
                release = last.into_iter().min().unwrap();
            }),
        );
        let both = run_open(
            &open_params(vec![first, second], BackgroundParams::none()),
            &config(),
            &Churn::default(),
        );
        assert!(both.jobs.iter().all(|r| r.completed), "{:?}", both.jobs);

        // Job 0 runs the same in both traces, so the difference is job 1.
        let elided = both.stats.sweeps_elided - alone.stats.sweeps_elided;
        let dt = config().dt.0;
        let blocked = release.0.div_ceil(dt) - second.at.0.div_ceil(dt) - 1;
        assert!(blocked > 100, "job 1 waits {blocked} ticks");
        assert!(
            elided >= blocked,
            "{elided} sweeps elided, {blocked} ticks blocked"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn duplicate_job_ids_rejected() {
        let jobs = vec![
            job(0, 0, JobKind::Dag, 8, 1_000),
            job(0, 50, JobKind::Dag, 8, 1_000),
        ];
        let p = open_params(jobs, BackgroundParams::none());
        let _ = run_open(&p, &config(), &Churn::default());
    }
}
