//! Shared job execution: one function per job type, used by both the
//! daemon's connection threads and the one-shot CLI.
//!
//! This is where the broker's byte-identity guarantee comes from: the
//! daemon does not re-implement `lrh-grid run` — both call
//! [`execute_map`] on the same [`MapRequest`], so the report a client
//! receives over the wire is the same bytes the CLI would print
//! locally. Reports are deterministic by construction: they carry only
//! quantities that are functions of the request (metrics, work
//! counters), never wall-clock times or thread identities.

use adhoc_grid::io::kv;
use adhoc_grid::units::{check_input_tasks, MAX_INPUT_SUITE};
use adhoc_grid::workload::{ScenarioParams, ScenarioSet};
use grid_sweep::campaign::{canonical_report, run_case_unit, CampaignConfig, CaseRow};
use grid_sweep::weight_search::check_steps;
use gridsim::metrics::Metrics;
use gridsim::validate::validate;
use slrh::open::{run_open_in, OpenOutcome};
use slrh::{run_slrh_with, Churn, RunContext, RunStats, TickEvent};

use crate::checkpoint::Checkpoint;
use crate::proto::{
    CampaignRequest, CampaignResponse, Event, MapRequest, MapResponse, OpenRequest,
};

/// The run-dependent fields of a report, bundled so call sites read as
/// a literal instead of a positional argument list.
struct ReportBody<'a> {
    metrics: &'a Metrics,
    case: adhoc_grid::config::GridCase,
    /// Work counters. `sweeps_elided` is never rendered: it describes
    /// how the loop did its work, not what the work was.
    stats: RunStats,
    disruptions: &'a [(u64, usize)],
    valid: bool,
    /// Weights in force when the run finished. Rendered (with
    /// `stats.weight_updates`) only for adaptive requests so legacy
    /// reports stay byte-identical.
    final_weights: lagrange::weights::Weights,
}

/// Render the deterministic report for a finished mapping run.
fn render_report(req: &MapRequest, body: &ReportBody) -> String {
    let ReportBody {
        metrics: m,
        case,
        stats,
        disruptions,
        valid,
        final_weights,
    } = *body;
    let mut s = String::new();
    s.push_str("lrh-grid report v1\n");
    s.push_str(&format!("label={}\n", req.label));
    s.push_str(&format!("heuristic={}\n", req.heuristic));
    s.push_str(&format!("config={}\n", req.config));
    s.push_str(&format!("case={case}\n"));
    s.push_str(&format!("tasks={}\n", m.tasks));
    s.push_str(&format!("tau={}\n", m.tau.0));
    s.push_str(&format!("mapped={}/{}\n", m.mapped, m.tasks));
    s.push_str(&format!("t100={}\n", m.t100));
    s.push_str(&format!("aet={}\n", m.aet.0));
    s.push_str(&format!("tec={}\n", kv::format_f64(m.tec.units())));
    s.push_str(&format!("tse={}\n", kv::format_f64(m.tse.units())));
    s.push_str(&format!(
        "constraints={}\n",
        if m.constraints_met() {
            "met"
        } else {
            "violated"
        }
    ));
    s.push_str(&format!("valid={}\n", if valid { "yes" } else { "no" }));
    s.push_str(&format!("clock-steps={}\n", stats.clock_steps));
    s.push_str(&format!("commits={}\n", stats.commits));
    s.push_str(&format!("candidates={}\n", stats.candidates_evaluated));
    if !disruptions.is_empty() {
        let invalidated: usize = disruptions.iter().map(|&(_, n)| n).sum();
        s.push_str(&format!("disruptions={}\n", disruptions.len()));
        s.push_str(&format!("invalidated={invalidated}\n"));
    }
    if req.config.adaptation.is_some() {
        s.push_str(&format!("weight-updates={}\n", stats.weight_updates));
        s.push_str(&format!("final-weights={final_weights}\n"));
    }
    s
}

/// Execute a mapping job, streaming progress through `emit` (tick and
/// disruption events only — queue lifecycle events belong to the
/// server). Returns the job's deterministic report.
pub fn execute_map(
    job: u64,
    req: &MapRequest,
    ctx: &mut RunContext,
    emit: &mut dyn FnMut(Event),
) -> Result<MapResponse, String> {
    execute_map_counted(job, req, ctx, emit).map(|(response, _)| response)
}

/// [`execute_map`] plus the run's work counters, including the one the
/// report leaves out (`sweeps_elided`): the CLI prints it on stderr,
/// nothing puts it on the wire.
pub fn execute_map_counted(
    job: u64,
    req: &MapRequest,
    ctx: &mut RunContext,
    emit: &mut dyn FnMut(Event),
) -> Result<(MapResponse, RunStats), String> {
    req.config.check().map_err(|e| e.to_string())?;
    let scenario = req.scenario.build()?;
    let case = scenario.case;
    let (report, stats) = match req.heuristic.slrh_variant() {
        Some(variant) => {
            if req.config.variant != variant {
                return Err(format!(
                    "config names {} but the requested heuristic is {}",
                    req.config.variant, req.heuristic
                ));
            }
            let churn = req.churn(scenario.grid.len()).map_err(|e| e.to_string())?;
            // Mappings are sparse events on a dense clock: a commit-free
            // tick is counted, not emitted, and rides the next tick frame
            // as `idle` (see [`Event::Tick`]). `pending` is the latest
            // commit-free tick not yet reported and how many precede it;
            // a sleeping span of n ticks folds in one step, as its last
            // tick with n − 1 more before it.
            let dt = req.config.dt;
            let mut pending: Option<(TickEvent, u64)> = None;
            let tick_frame = |t: TickEvent, idle: u64| Event::Tick {
                job,
                clock: t.clock.0,
                tick: t.tick,
                mapped: t.mapped,
                commits: t.commits,
                idle,
            };
            let mut observer = |t: TickEvent| {
                let idle = pending.take().map_or(0, |(_, before)| before + 1);
                if t.commits == 0 {
                    let last = t.ticks(dt).next_back().expect("an event spans a tick");
                    pending = Some((last, idle + t.span - 1));
                } else {
                    emit(tick_frame(t, idle));
                }
            };
            let out = run_slrh_with(&scenario, &req.config, &churn, ctx, Some(&mut observer));
            // A run that ends on commit-free ticks closes with its last one.
            if let Some((t, idle)) = pending {
                emit(tick_frame(t, idle));
            }
            let disruptions: Vec<(u64, usize)> =
                out.disruptions.iter().map(|&(at, n)| (at.0, n)).collect();
            for &(at, invalidated) in &disruptions {
                emit(Event::Disruption {
                    job,
                    at,
                    invalidated,
                });
            }
            let valid = validate(&out.state).is_empty();
            let report = render_report(
                req,
                &ReportBody {
                    metrics: &out.state.metrics(),
                    case,
                    stats: out.stats,
                    disruptions: &disruptions,
                    valid,
                    final_weights: out.final_weights,
                },
            );
            ctx.reclaim(out.state);
            (report, out.stats)
        }
        None => {
            if !req.losses.is_empty() || !req.arrivals.is_empty() {
                return Err(format!(
                    "churn events need an SLRH heuristic, not {}",
                    req.heuristic
                ));
            }
            let r = req
                .heuristic
                .run_in(&scenario, req.config.objective.weights, ctx);
            let stats = RunStats {
                candidates_evaluated: r.work,
                ..RunStats::default()
            };
            let report = render_report(
                req,
                &ReportBody {
                    metrics: &r.metrics,
                    case,
                    stats,
                    disruptions: &[],
                    valid: r.valid,
                    final_weights: req.config.objective.weights,
                },
            );
            (report, stats)
        }
    };
    Ok((MapResponse { job, report }, stats))
}

/// Render the deterministic report for a finished open-system run.
/// Aggregate metrics come first, then one line per job in scheduling
/// order; every float renders through the workspace's shortest-roundtrip
/// formatter so equal runs produce equal bytes.
fn render_open_report(req: &OpenRequest, out: &OpenOutcome, valid: bool) -> String {
    let m = out.metrics();
    let mut s = String::new();
    s.push_str("lrh-grid open report v1\n");
    s.push_str(&format!("label={}\n", req.label));
    s.push_str(&format!("config={}\n", req.config));
    s.push_str(&format!("case={}\n", req.case));
    s.push_str(&format!("seed=0x{:016x}\n", req.seed));
    if !req.bg.is_none() {
        s.push_str(&format!("background={}\n", req.bg.encode()));
    }
    s.push_str(&format!("jobs={}\n", m.jobs));
    s.push_str(&format!("completed={}/{}\n", m.completed, m.jobs));
    s.push_str(&format!("deadline-hits={}\n", m.deadline_hits));
    s.push_str(&format!("hit-rate={}\n", kv::format_f64(m.hit_rate())));
    s.push_str(&format!("throughput={}\n", kv::format_f64(m.throughput())));
    s.push_str(&format!("total-cost={}\n", kv::format_f64(m.total_cost)));
    s.push_str(&format!(
        "cost-per-job={}\n",
        kv::format_f64(m.cost_per_job())
    ));
    s.push_str(&format!("makespan={}\n", m.makespan.0));
    s.push_str(&format!("valid={}\n", if valid { "yes" } else { "no" }));
    s.push_str(&format!("clock-steps={}\n", out.stats.clock_steps));
    s.push_str(&format!("commits={}\n", out.stats.commits));
    s.push_str(&format!("candidates={}\n", out.stats.candidates_evaluated));
    if !out.disruptions.is_empty() {
        let invalidated: usize = out.disruptions.iter().map(|&(_, n)| n).sum();
        s.push_str(&format!("disruptions={}\n", out.disruptions.len()));
        s.push_str(&format!("invalidated={invalidated}\n"));
    }
    for r in &out.jobs {
        let budget = match r.within_budget {
            Some(true) => "ok",
            Some(false) => "over",
            None => "-",
        };
        s.push_str(&format!(
            "job={} at={} kind={} mapped={}/{} finish={} deadline={} hit={} cost={} budget={}\n",
            r.job.id,
            r.job.at.0,
            r.job.kind.label(),
            r.mapped,
            r.job.tasks,
            r.finish.0,
            r.job.absolute_deadline().0,
            if r.deadline_hit { "yes" } else { "no" },
            kv::format_f64(r.cost),
            budget,
        ));
    }
    s
}

/// Execute an open-system streaming job, emitting one [`Event::Job`]
/// per scheduled job (plus [`Event::Disruption`]s for churn losses) and
/// returning the deterministic open report.
pub fn execute_open(
    job: u64,
    req: &OpenRequest,
    ctx: &mut RunContext,
    emit: &mut dyn FnMut(Event),
) -> Result<MapResponse, String> {
    req.config.check().map_err(|e| e.to_string())?;
    let params = req.open_params();
    params.check()?;
    let grid_len = adhoc_grid::config::GridConfig::case(req.case).len();
    let churn = Churn::from_pairs(
        req.losses.iter().copied(),
        req.arrivals.iter().copied(),
        grid_len,
    )
    .map_err(|e| e.to_string())?;

    let mut all_valid = true;
    let out = run_open_in(
        &params,
        &req.config,
        &churn,
        ctx,
        Some(
            &mut |state: &gridsim::state::SimState<'_>, r: &slrh::open::OpenJobReport| {
                all_valid &= validate(state).is_empty();
                emit(Event::Job {
                    job,
                    id: r.job.id,
                    mapped: r.mapped,
                    tasks: r.job.tasks,
                    hit: r.deadline_hit,
                    cost: r.cost,
                });
            },
        ),
    );
    for &(at, invalidated) in &out.disruptions {
        emit(Event::Disruption {
            job,
            at: at.0,
            invalidated,
        });
    }
    let report = render_open_report(req, &out, all_valid);
    Ok(MapResponse { job, report })
}

/// Refuse an empty suite (which `ScenarioSet::new` would assert on) and
/// one of more than [`MAX_INPUT_SUITE`] scenarios, before anything is
/// sized by it.
fn check_suite(etc_count: usize, dag_count: usize) -> Result<(), String> {
    if etc_count == 0 || dag_count == 0 {
        return Err("etc-count and dag-count must be positive".into());
    }
    match etc_count.checked_mul(dag_count) {
        Some(n) if n <= MAX_INPUT_SUITE => Ok(()),
        _ => Err(format!(
            "etc-count x dag-count must be at most {MAX_INPUT_SUITE}"
        )),
    }
}

/// Execute a campaign batch job, one [`run_case_unit`] per
/// (heuristic, case) cell, emitting a [`Event::Unit`] after each and
/// recording it in the checkpoint (when one was requested) so a killed
/// daemon resumes at the first unit without a row.
pub fn execute_campaign(
    job: u64,
    req: &CampaignRequest,
    emit: &mut dyn FnMut(Event),
) -> Result<CampaignResponse, String> {
    if req.tasks == 0 {
        return Err("tasks must be positive".into());
    }
    check_input_tasks(req.tasks)?;
    check_suite(req.etc_count, req.dag_count)?;
    check_steps(req.coarse, req.fine)?;
    let cfg = CampaignConfig {
        set: ScenarioSet::new(
            ScenarioParams::paper_scaled(req.tasks),
            req.etc_count,
            req.dag_count,
        ),
        heuristics: req.heuristics.clone(),
        cases: req.cases.clone(),
        coarse: req.coarse,
        fine: req.fine,
    };
    let units = req.units();
    let mut checkpoint = match &req.checkpoint {
        Some(path) => Some(Checkpoint::open(path, &req.fingerprint())?),
        None => None,
    };
    let mut rows: Vec<CaseRow> = checkpoint
        .as_ref()
        .map(|cp| cp.rows().to_vec())
        .unwrap_or_default();
    if rows.len() > units.len() {
        return Err(format!(
            "checkpoint records {} units but the campaign has {}",
            rows.len(),
            units.len()
        ));
    }
    // A recorded row stands in for its unit only if it is that unit's.
    let total = cfg.set.len();
    for (index, (row, &(h, case))) in rows.iter().zip(&units).enumerate() {
        if (row.heuristic, row.case, row.total) != (h, case, total) {
            return Err(format!(
                "checkpoint row {index} is {} on {} over {} scenarios, \
                 but unit {index} is {h} on {case} over {total}",
                row.heuristic, row.case, row.total
            ));
        }
    }
    let resumed = rows.len();

    // One warm timing context across the campaign's units — the same
    // regime as `run_campaign`, which this loop mirrors unit by unit.
    let mut timing_ctx = RunContext::new();
    for (index, &(h, case)) in units.iter().enumerate().skip(resumed) {
        let row = run_case_unit(&cfg, h, case, &mut timing_ctx);
        if let Some(cp) = checkpoint.as_mut() {
            cp.record(&row)?;
        }
        emit(Event::Unit {
            job,
            index,
            total: units.len(),
            row: row.canonical(),
        });
        rows.push(row);
    }

    Ok(CampaignResponse {
        job,
        resumed,
        report: canonical_report(&rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ScenarioSpec;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::units::{Dur, Time, MAX_INPUT_TICKS};
    use grid_sweep::heuristic::Heuristic;
    use lagrange::weights::{AetSign, Weights};
    use slrh::{SlrhConfig, SlrhVariant};

    fn request(h: Heuristic) -> MapRequest {
        let variant = h.slrh_variant().unwrap_or(SlrhVariant::V1);
        MapRequest {
            client: "test".into(),
            label: "t".into(),
            heuristic: h,
            config: SlrhConfig::paper(variant, Weights::new(0.5, 0.3).unwrap()),
            scenario: ScenarioSpec::Generate {
                tasks: 32,
                case: GridCase::A,
                etc: 0,
                dag: 0,
                seed: None,
                tau: None,
            },
            losses: vec![],
            arrivals: vec![],
        }
    }

    #[test]
    fn map_reports_are_deterministic_and_context_independent() {
        for h in [Heuristic::Slrh1, Heuristic::MaxMax, Heuristic::Greedy] {
            let req = request(h);
            let mut events_a = Vec::new();
            let mut events_b = Vec::new();
            let a =
                execute_map(1, &req, &mut RunContext::new(), &mut |e| events_a.push(e)).unwrap();
            // A warm, reused context must not change a single byte.
            let mut warm = RunContext::new();
            let _ = execute_map(9, &request(Heuristic::Slrh3), &mut warm, &mut |_| {});
            let b = execute_map(1, &req, &mut warm, &mut |e| events_b.push(e)).unwrap();
            assert_eq!(a.report, b.report, "{h}");
            assert_eq!(events_a, events_b, "{h}");
            assert!(a.report.contains("valid=yes"), "{}", a.report);
        }
    }

    #[test]
    fn slrh_map_streams_ticks() {
        let req = request(Heuristic::Slrh1);
        let mut events = Vec::new();
        execute_map(3, &req, &mut RunContext::new(), &mut |e| events.push(e)).unwrap();
        assert!(!events.is_empty());
        let mut last_mapped = 0;
        for e in &events {
            let Event::Tick { job, mapped, .. } = e else {
                panic!("unexpected event {e:?}")
            };
            assert_eq!(*job, 3);
            assert!(*mapped >= last_mapped);
            last_mapped = *mapped;
        }
    }

    #[test]
    fn churn_map_emits_disruptions() {
        let mut req = request(Heuristic::Slrh1);
        req.losses = vec![(1, 2_000)];
        let mut saw_disruption = false;
        let out = execute_map(4, &req, &mut RunContext::new(), &mut |e| {
            if matches!(e, Event::Disruption { .. }) {
                saw_disruption = true;
            }
        })
        .unwrap();
        assert!(saw_disruption);
        assert!(out.report.contains("disruptions=1"), "{}", out.report);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let mut req = request(Heuristic::MaxMax);
        req.losses = vec![(0, 100)];
        assert!(execute_map(1, &req, &mut RunContext::new(), &mut |_| {})
            .unwrap_err()
            .contains("SLRH"));

        let mut req = request(Heuristic::Slrh1);
        req.losses = vec![(99, 100)];
        assert!(execute_map(1, &req, &mut RunContext::new(), &mut |_| {})
            .unwrap_err()
            .contains("machine 99"));

        let mut req = request(Heuristic::Slrh2);
        req.config.variant = SlrhVariant::V1;
        assert!(execute_map(1, &req, &mut RunContext::new(), &mut |_| {})
            .unwrap_err()
            .contains("config names"));
    }

    fn open_request(at: u64, deadline: u64) -> OpenRequest {
        OpenRequest {
            client: "test".into(),
            label: "o".into(),
            config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
            case: GridCase::A,
            seed: 7,
            jobs: vec![adhoc_grid::arrival::JobArrival {
                id: 1,
                at: Time(at),
                kind: adhoc_grid::arrival::JobKind::Dag,
                tasks: 4,
                deadline: Dur(deadline),
                budget: None,
            }],
            bg: adhoc_grid::arrival::BackgroundParams::none(),
            losses: vec![],
            arrivals: vec![],
        }
    }

    fn set_tau(req: &mut MapRequest, value: u64) {
        let ScenarioSpec::Generate { tau, .. } = &mut req.scenario else {
            unreachable!()
        };
        *tau = Some(value);
    }

    fn campaign_request(coarse: f64, fine: f64) -> CampaignRequest {
        CampaignRequest {
            client: "test".into(),
            label: "sweep".into(),
            tasks: 32,
            etc_count: 1,
            dag_count: 2,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A],
            coarse,
            fine,
            searcher: Default::default(),
            checkpoint: None,
        }
    }

    /// What a well-formed frame can carry that used to panic the thread
    /// running it: search steps out of order, and clock values whose
    /// checked sums overflow. Each is refused by its owner's rule.
    #[test]
    fn disordered_steps_and_clock_values_past_the_cap_are_errors() {
        let map = |edit: &dyn Fn(&mut MapRequest)| {
            let mut req = request(Heuristic::Slrh1);
            edit(&mut req);
            execute_map(1, &req, &mut RunContext::new(), &mut |_| {}).unwrap_err()
        };
        assert!(map(&|r| r.config.horizon = Dur(u64::MAX)).contains("horizon H"));
        let err = map(&|r| {
            set_tau(r, u64::MAX);
            r.config.dt = Dur(1 << 63);
        });
        assert!(err.contains("ΔT"), "{err}");
        assert!(map(&|r| set_tau(r, MAX_INPUT_TICKS + 1)).contains("tau must be at most"));
        // A baseline reads only the weights, but the request is refused all the same.
        let mut req = request(Heuristic::MaxMax);
        req.config.dt = Dur(u64::MAX);
        assert!(execute_map(1, &req, &mut RunContext::new(), &mut |_| {}).is_err());

        let open = |req: &OpenRequest| execute_open(1, req, &mut RunContext::new(), &mut |_| {});
        for (at, deadline) in [
            (1 << 63, u64::MAX),
            (MAX_INPUT_TICKS + 1, 100),
            (0, u64::MAX),
        ] {
            let err = open(&open_request(at, deadline)).unwrap_err();
            assert!(err.contains("job 1 arrives or is due past"), "{err}");
        }
        let mut req = open_request(0, 100);
        req.config.horizon = Dur(u64::MAX);
        assert!(open(&req).unwrap_err().contains("horizon H"));

        for (coarse, fine) in [
            (0.1, 0.2),
            (0.0, 0.0),
            (f64::INFINITY, 0.1),
            (f64::NAN, 0.1),
        ] {
            let err =
                execute_campaign(1, &campaign_request(coarse, fine), &mut |_| {}).unwrap_err();
            assert!(err.contains("fine <= coarse"), "{coarse}/{fine}: {err}");
        }
    }

    /// A task count past the cap is refused whichever request carries
    /// it, before its scenarios are generated.
    #[test]
    fn task_counts_past_the_cap_are_errors() {
        use adhoc_grid::units::MAX_INPUT_TASKS;
        let past = MAX_INPUT_TASKS + 1;
        let refusal = format!("tasks must be at most {MAX_INPUT_TASKS}");
        let mut map = request(Heuristic::Slrh1);
        let ScenarioSpec::Generate { tasks, .. } = &mut map.scenario else {
            unreachable!()
        };
        *tasks = past;
        let err = execute_map(1, &map, &mut RunContext::new(), &mut |_| {}).unwrap_err();
        assert_eq!(err, refusal);
        let mut open = open_request(0, 100);
        open.jobs[0].tasks = past;
        let err = execute_open(1, &open, &mut RunContext::new(), &mut |_| {}).unwrap_err();
        assert_eq!(err, format!("job 1: {refusal}"));
        let mut campaign = campaign_request(0.1, 0.05);
        campaign.tasks = past;
        assert_eq!(
            execute_campaign(1, &campaign, &mut |_| {}).unwrap_err(),
            refusal
        );
    }

    /// An empty suite used to reach `ScenarioSet::new`'s `assert!` and
    /// answer "job panicked"; a huge one would have sized its id pairs
    /// before running anything. Both are refused up front: the huge ones
    /// return at once, so this test allocates nothing per suite member.
    #[test]
    fn suite_sizes_that_are_empty_or_past_the_cap_are_errors() {
        let suite = |etc_count, dag_count| {
            let mut req = campaign_request(0.1, 0.05);
            (req.etc_count, req.dag_count) = (etc_count, dag_count);
            execute_campaign(1, &req, &mut |_| panic!("no unit may run")).unwrap_err()
        };
        for (e, d) in [(0, 2), (2, 0), (0, 0)] {
            assert_eq!(
                suite(e, d),
                "etc-count and dag-count must be positive",
                "{e}x{d}"
            );
        }
        let refusal = format!("etc-count x dag-count must be at most {MAX_INPUT_SUITE}");
        for (e, d) in [
            (MAX_INPUT_SUITE + 1, 1),
            (1 << 20, 1 << 20),
            (usize::MAX, 2),
        ] {
            assert_eq!(suite(e, d), refusal, "{e}x{d}");
        }
    }

    /// `valid=` applies the loss rule: the state records the loss, so
    /// work left on a machine past it makes the validator's answer, and
    /// with it the report's `valid=`, false.
    #[test]
    fn schedule_validity_checks_the_loss_rule() {
        use adhoc_grid::config::MachineId;
        use adhoc_grid::task::Version;
        use adhoc_grid::workload::Scenario;
        use gridsim::plan::Placement;
        use gridsim::state::SimState;
        use gridsim::validate::Invariant;

        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let mut st = SimState::new(&sc);
        let &t = st.ready_tasks().first().expect("roots");
        let plan = st.plan(
            t,
            Version::Secondary,
            MachineId(0),
            Placement::Append {
                not_before: Time(100),
            },
        );
        st.commit(&plan);
        assert!(validate(&st).is_empty());
        // Machine 0 is lost at tick 110, before that work finishes.
        st.mark_lost(MachineId(0), Time(110));
        let errs = validate(&st);
        assert!(
            !errs.is_empty() && errs.iter().all(|e| e.invariant == Invariant::Availability),
            "{errs:?}"
        );
    }

    /// The largest ΔT, H, τ, arrival and deadline the rules accept run to
    /// completion, under both AET signs.
    #[test]
    fn clock_values_at_the_cap_run_to_completion() {
        for sign in [AetSign::Positive, AetSign::Negative] {
            let mut config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap())
                .with_dt(Dur(MAX_INPUT_TICKS))
                .with_horizon(Dur(MAX_INPUT_TICKS));
            config.objective.aet_sign = sign;
            for h in [Heuristic::Slrh1, Heuristic::Slrh2, Heuristic::Slrh3] {
                let mut req = request(h);
                req.config = SlrhConfig {
                    variant: req.config.variant,
                    ..config
                };
                set_tau(&mut req, MAX_INPUT_TICKS);
                let out = execute_map(1, &req, &mut RunContext::new(), &mut |_| {}).unwrap();
                assert!(
                    out.report.contains("valid=yes"),
                    "{h} {sign:?}: {}",
                    out.report
                );
            }
            let mut req = open_request(MAX_INPUT_TICKS, MAX_INPUT_TICKS);
            req.config = config;
            let out = execute_open(1, &req, &mut RunContext::new(), &mut |_| {}).unwrap();
            assert!(
                out.report.contains("valid=yes"),
                "open {sign:?}: {}",
                out.report
            );
        }
    }

    #[test]
    fn adaptive_map_reports_weight_lines_and_legacy_reports_do_not() {
        let plain = request(Heuristic::Slrh1);
        let base = execute_map(1, &plain, &mut RunContext::new(), &mut |_| {}).unwrap();
        assert!(!base.report.contains("weight-updates="), "{}", base.report);
        assert!(!base.report.contains("final-weights="), "{}", base.report);

        let mut req = request(Heuristic::Slrh1);
        req.config = req.config.with_adaptation(slrh::Adaptation {
            rule: lagrange::step::StepRule::Constant { a: 0.5 },
            every: 2,
        });
        let a = execute_map(2, &req, &mut RunContext::new(), &mut |_| {}).unwrap();
        assert!(a.report.contains("weight-updates="), "{}", a.report);
        assert!(a.report.contains("final-weights="), "{}", a.report);
        // Adaptive requests survive the wire and stay deterministic.
        let text = req.to_frame().encode();
        let back =
            MapRequest::from_frame(&adhoc_grid::io::wire::Frame::decode(&text).unwrap()).unwrap();
        let b = execute_map(2, &back, &mut RunContext::new(), &mut |_| {}).unwrap();
        assert_eq!(a.report, b.report);
    }

    /// A checkpoint whose rows are out of unit order (or count another
    /// suite) is refused, not spliced into the report under the wrong
    /// unit.
    #[test]
    fn resuming_from_swapped_rows_is_an_error() {
        let path = std::env::temp_dir().join(format!(
            "lrh-execute-swapped-{}.checkpoint",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut req = campaign_request(0.25, 0.25);
        req.checkpoint = Some(path.to_string_lossy().into_owned());
        let first = execute_campaign(1, &req, &mut |_| {}).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let (rows, head): (Vec<&str>, Vec<&str>) =
            text.lines().partition(|l| l.starts_with("row="));
        assert_eq!(rows.len(), 2, "{text}");
        let rewrite = |rows: [&str; 2]| {
            let lines = head.iter().chain(&rows).map(|l| format!("{l}\n"));
            std::fs::write(&path, lines.collect::<String>()).unwrap();
        };

        rewrite([rows[1], rows[0]]);
        let err = execute_campaign(2, &req, &mut |_| {}).unwrap_err();
        assert!(
            err.contains("checkpoint row 0 is Max-Max on Case A over 2 scenarios"),
            "{err}"
        );
        let other_suite = rows[1].replace("/2", "/3");
        rewrite([rows[0], &other_suite]);
        let err = execute_campaign(3, &req, &mut |_| {}).unwrap_err();
        assert!(err.contains("checkpoint row 1"), "{err}");

        // In order, the same rows resume the whole campaign.
        rewrite([rows[0], rows[1]]);
        let resumed = execute_campaign(4, &req, &mut |_| {}).unwrap();
        assert_eq!((resumed.resumed, &resumed.report), (2, &first.report));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn campaign_matches_run_campaign() {
        let req = campaign_request(0.25, 0.25);
        let mut unit_events = 0;
        let out = execute_campaign(5, &req, &mut |e| {
            assert!(matches!(e, Event::Unit { .. }));
            unit_events += 1;
        })
        .unwrap();
        assert_eq!(unit_events, 2);
        assert_eq!(out.resumed, 0);

        let cfg = CampaignConfig {
            set: ScenarioSet::new(ScenarioParams::paper_scaled(32), 1, 2),
            heuristics: req.heuristics.clone(),
            cases: req.cases.clone(),
            coarse: 0.25,
            fine: 0.25,
        };
        let rows = grid_sweep::campaign::run_campaign(&cfg);
        assert_eq!(out.report, canonical_report(&rows));
    }
}
