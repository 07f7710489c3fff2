//! Case execution: every registered heuristic through one fuzz case,
//! invariant oracles on each final state and differential oracles across
//! independently-produced arms.
//!
//! Differential arms per case:
//!
//! * **fresh vs reused context** — `run_slrh_with` on a throwaway
//!   [`RunContext`] against the same call on the campaign's long-lived
//!   context. The context recycles buffers across *every*
//!   case of the campaign, so a single stale carry-over anywhere shows
//!   up as a signature mismatch here.
//! * **frontier vs reference kernels** — the same run through
//!   [`slrh::reference::run`] with the paper's from-scratch pool walk
//!   ([`Kind::Scratch`]) and with the frontier's every view shed to the
//!   per-query resort scan ([`Kind::Resort`]). The cached-order frontier
//!   must replay both bit-for-bit: identical schedule, metrics,
//!   disruptions, final weights, commit count, query count and clock
//!   trajectory (`candidates_evaluated` legitimately differs — the
//!   kernels cost different candidates). The product run is observed,
//!   and its `TickEvent` stream, each sleeping span expanded into its
//!   ticks, must equal the reference loop's, which sweeps and reports
//!   every tick. SLRH-2 queries no kernel, so it runs only the pool-walk
//!   arm, which differs from the product loop in sleeping through no
//!   all-busy tick; its frozen order's oracle is `slrh::mapper`'s
//!   `slrh2_order_is_the_pool_inside_the_horizon`.
//! * **fresh vs reused state buffers** for every static baseline.
//! * **Max-Max vs its reference scan**, under both AET signs — the
//!   product judges only the triplets whose objective bound reaches the
//!   incumbent, on (task, machine) costings kept across commits;
//!   `grid_baselines::maxmax::reference` re-plans every triplet on every
//!   commit. Schedule and metrics must agree byte for byte, and the
//!   product's `candidates_evaluated` must not exceed the reference's.
//!
//! All comparisons are byte-exact on canonical signatures: schedules
//! sorted by task / edge, every float rendered as its `f64` bit pattern,
//! no wall-clock anywhere.

use std::fmt::Write as _;

use adhoc_grid::arrival::{BackgroundParams, JobArrival, OpenParams};
use adhoc_grid::units::{Energy, Time};
use grid_baselines::{
    run_dbc, run_dbc_in, run_greedy, run_greedy_in, run_lr_list, run_lr_list_in, run_maxmax,
    run_maxmax_in, StaticOutcome,
};
use gridsim::cost::schedule_cost;
use gridsim::metrics::Metrics;
use gridsim::schedule::Schedule;
use gridsim::state::SimState;
use lagrange::step::StepRule;
use lagrange::weights::{AetSign, Objective};
use slrh::open::{run_open_in, OpenJobReport, COST_EPS};
use slrh::reference::{self, Kind};
use slrh::{run_slrh_with, Adaptation, Churn, RunContext, SlrhOutcome, SlrhVariant};

use crate::oracle;
use crate::spec::CaseSpec;

/// The verdict of one fuzz case.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The case's fuzz seed.
    pub seed: u64,
    /// Every oracle failure, sorted and deduplicated. Empty = pass.
    pub failures: Vec<String>,
    /// Compact deterministic fingerprint over every arm's canonical
    /// signature — two runs of the same case must produce the same value.
    pub signature: String,
    /// Total SLRH clock steps across the case (the `--ticks-budget`
    /// currency).
    pub clock_steps: u64,
    /// How many of those steps the product loop ran as bookkeeping only.
    /// Every one of them was swept in full by the reference arms, so a
    /// campaign total of zero means the differentials proved nothing
    /// about elision.
    pub sweeps_elided: u64,
}

impl RunReport {
    /// True when every oracle passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run one fuzz case: every heuristic, every oracle.
///
/// `ctx` should be the campaign's long-lived context — its reuse across
/// cases is itself under test.
pub fn run_seed(spec: &CaseSpec, ctx: &mut RunContext) -> RunReport {
    let churn = match spec
        .check()
        .and_then(|()| spec.churn().map_err(|e| e.to_string()))
    {
        Ok(churn) => churn,
        Err(e) => {
            return RunReport {
                seed: spec.seed,
                failures: vec![format!("spec: {e}")],
                signature: String::new(),
                clock_steps: 0,
                sweeps_elided: 0,
            }
        }
    };
    let churn = &churn;
    let no_churn = &Churn::default();

    let sc = spec.scenario();
    let weights = spec.weights();

    let mut failures = Vec::new();
    let mut fingerprint = Fnv::new();
    let mut clock_steps = 0u64;
    let mut sweeps_elided = 0u64;

    // --- SLRH churn arms -------------------------------------------------
    for variant in [SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3] {
        let tag = format!("slrh-{variant:?}");
        let config = spec.config(variant);

        let mut events = Vec::new();
        let fresh = run_slrh_with(
            &sc,
            &config,
            churn,
            &mut RunContext::new(),
            Some(&mut |e| events.push(e)),
        );
        let reused = run_slrh_with(&sc, &config, churn, ctx, None);
        let fresh_sig = dynamic_signature(&fresh, true);
        let reused_sig = dynamic_signature(&reused, true);
        if fresh_sig != reused_sig {
            failures.push(format!(
                "{tag}: differential-context: fresh and reused-context runs diverge"
            ));
        }

        let kinds: &[Kind] = match variant {
            SlrhVariant::V2 => &[Kind::Scratch],
            _ => &[Kind::Scratch, Kind::Resort],
        };
        for &kind in kinds {
            // The reference loop reports every tick on its own; the
            // product's stream, each sleeping span expanded, must match
            // it tick for tick.
            let mut expected = events.iter().flat_map(|e| e.ticks(config.dt));
            let mut diverged = false;
            let oracle = reference::run(
                kind,
                &sc,
                &config,
                churn,
                ctx,
                Some(&mut |e| diverged |= expected.next() != Some(e)),
            );
            if diverged || expected.next().is_some() {
                failures.push(format!(
                    "{tag}: differential-observer: the expanded event stream differs from \
                     the {kind:?} reference's"
                ));
            }
            failures.extend(reference_mismatch(&tag, kind, &fresh, &oracle));
            ctx.reclaim(oracle.state);
        }

        for f in oracle::check_all(&fresh.state, Some(&config)) {
            failures.push(format!("{tag}: {f}"));
        }

        clock_steps += fresh.stats.clock_steps;
        sweeps_elided += fresh.stats.sweeps_elided;
        fingerprint.update(&fresh_sig);
        ctx.reclaim(reused.state);
        ctx.reclaim(fresh.state);
    }

    // --- adaptive differential arms --------------------------------------
    // Inert adaptation ≡ legacy fixed-weight path. An adaptation block
    // with a zero step must leave every byte of the run — schedule,
    // metrics, disruption log, stats, final weights — identical to the
    // run with no adaptation block at all. Checked on every case, not
    // only the ones that sampled an adaptive mode.
    {
        let tag = "slrh-V1-inert-adapt";
        let legacy_cfg = spec.legacy_config(SlrhVariant::V1);
        let inert_cfg = legacy_cfg.with_adaptation(Adaptation {
            rule: StepRule::Constant { a: 0.0 },
            ..Adaptation::default()
        });
        let legacy = run_slrh_with(&sc, &legacy_cfg, churn, ctx, None);
        let inert = run_slrh_with(&sc, &inert_cfg, churn, ctx, None);
        let legacy_sig = dynamic_signature(&legacy, true);
        if legacy_sig != dynamic_signature(&inert, true) {
            failures.push(format!(
                "{tag}: differential-inert: zero-step adaptation diverges from the legacy path"
            ));
        }
        if inert.stats.weight_updates != 0 {
            failures.push(format!(
                "{tag}: accounting: zero-step adaptation reports {} weight updates",
                inert.stats.weight_updates
            ));
        }
        clock_steps += legacy.stats.clock_steps;
        sweeps_elided += legacy.stats.sweeps_elided;
        fingerprint.update(&legacy_sig);
        ctx.reclaim(legacy.state);
        ctx.reclaim(inert.state);
    }

    // --- open-system arms -------------------------------------------------
    // When the case carries an open block, stream its job trace through
    // the open driver under the case's churn trace, with per-job
    // invariant oracles on every final state and differential arms
    // around the whole outcome.
    if let Some(params) = spec.open_params() {
        let tag = "open-V1";
        let config = spec.config(SlrhVariant::V1);
        let machines = crate::gen::grid_len(spec.case);

        // Per-job oracles, observed through the driver's hook before
        // each job's state buffers are recycled: the independent
        // validator (a job's arrival blocks every machine, so work
        // before it is an availability error), the horizon gate, and
        // the report's cost/deadline/budget claims recomputed
        // bit-exactly from the final state alone. The hook also rebuilds
        // the shared-grid energy ledger in the driver's own accumulation
        // order.
        let mut job_failures: Vec<String> = Vec::new();
        let mut ledger = vec![Energy::ZERO; machines];
        let mut hook = |state: &SimState<'_>, r: &OpenJobReport| {
            let jtag = format!("{tag}: job {}", r.job.id);
            for f in oracle::check_all(state, Some(&config)) {
                job_failures.push(format!("{jtag}: {f}"));
            }
            let schedule = state.schedule();
            let cost = schedule_cost(state.scenario(), schedule);
            if cost.to_bits() != r.cost.to_bits() {
                job_failures.push(format!(
                    "{jtag}: reported cost {} != recomputed {cost}",
                    r.cost
                ));
            }
            let completed = state.all_mapped();
            let hit = completed && state.aet() <= state.scenario().tau;
            if r.completed != completed || r.deadline_hit != hit {
                job_failures.push(format!(
                    "{jtag}: completion/deadline flags disagree with the final state"
                ));
            }
            if r.within_budget != r.job.budget.map(|b| cost <= b + COST_EPS) {
                job_failures.push(format!(
                    "{jtag}: budget verdict disagrees with the recomputed cost"
                ));
            }
            for a in schedule.assignments() {
                ledger[a.machine.0] += a.energy;
            }
            for t in schedule.transfers() {
                ledger[t.from.0] += t.energy;
            }
        };
        let fresh = run_open_in(
            &params,
            &config,
            churn,
            &mut RunContext::new(),
            Some(&mut hook),
        );
        failures.extend(job_failures);

        // Multi-job ledger conservation: the outcome's final per-machine
        // drain must equal the sum of every job's schedule, bit for bit.
        let spent_bits =
            |v: &[Energy]| -> Vec<u64> { v.iter().map(|e| e.units().to_bits()).collect() };
        if spent_bits(&fresh.final_spent) != spent_bits(&ledger) {
            failures.push(format!(
                "{tag}: ledger: final spent energies diverge from the per-job schedules"
            ));
        }

        // Fresh vs campaign-long-lived context, on full outcome equality
        // (reports, stats, disruptions and the energy ledger).
        let reused = run_open_in(&params, &config, churn, ctx, None);
        if fresh != reused {
            failures.push(format!(
                "{tag}: differential-context: fresh and reused-context open runs diverge"
            ));
        }

        // Degenerate differential: one job arriving at t = 0 with an
        // inert background on an unchurned grid IS the closed system.
        let first = JobArrival {
            at: Time::ZERO,
            ..params.jobs[0]
        };
        let degenerate = OpenParams {
            jobs: vec![first],
            bg: BackgroundParams::none(),
            ..params.clone()
        };
        let open_one = run_open_in(&degenerate, &config, no_churn, ctx, None);
        let sc_one = degenerate.job_scenario(&first);
        let closed = run_slrh_with(&sc_one, &config, no_churn, ctx, None);
        let oracle = reference::run(Kind::Scratch, &sc_one, &config, no_churn, ctx, None);
        failures.extend(reference_mismatch(tag, Kind::Scratch, &closed, &oracle));
        ctx.reclaim(oracle.state);
        let r = &open_one.jobs[0];
        let m = closed.state.metrics();
        if r.mapped != m.mapped
            || r.t100 != m.t100
            || r.finish != m.aet
            || r.cost.to_bits() != schedule_cost(&sc_one, closed.state.schedule()).to_bits()
            || open_one.stats.commits != closed.stats.commits
            || open_one.stats.clock_steps != closed.stats.clock_steps
        {
            failures.push(format!(
                "{tag}: differential-closed: the one-job-at-zero open run diverges from the \
                 closed system"
            ));
        }
        ctx.reclaim(closed.state);

        let mut sig = String::new();
        for r in &fresh.jobs {
            let _ = write!(
                sig,
                "j:{} at={} mapped={}/{} t100={} fin={} cost={:016x} comp={} hit={} wb={:?} \
                 inval={} ",
                r.job.id,
                r.job.at.0,
                r.mapped,
                r.job.tasks,
                r.t100,
                r.finish.0,
                r.cost.to_bits(),
                r.completed,
                r.deadline_hit,
                r.within_budget,
                r.invalidated,
            );
        }
        for (at, n) in &fresh.disruptions {
            let _ = write!(sig, "d:{}@{} ", n, at.0);
        }
        for e in &fresh.final_spent {
            let _ = write!(sig, "e:{:016x} ", e.units().to_bits());
        }
        let met = fresh.metrics();
        let _ = write!(
            sig,
            "met:{}/{}/{} cost={:016x} mk={} ",
            met.completed,
            met.deadline_hits,
            met.jobs,
            met.total_cost.to_bits(),
            met.makespan.0,
        );
        clock_steps += fresh.stats.clock_steps;
        sweeps_elided += fresh.stats.sweeps_elided;
        fingerprint.update(&sig);
    }

    // --- static baselines: fresh vs reused context ------------------------
    let objective = Objective::paper(weights);
    macro_rules! baseline_arm {
        ($name:literal, $fresh:expr, $reused:expr) => {{
            let fresh = $fresh;
            let reused = $reused;
            let fresh_sig = static_signature(&fresh);
            if fresh_sig != static_signature(&reused) {
                failures.push(format!(
                    "{}: differential-buffers: fresh and reused-buffer runs diverge",
                    $name
                ));
            }
            for f in oracle::check_all(&fresh.state, None) {
                failures.push(format!("{}: {f}", $name));
            }
            fingerprint.update(&fresh_sig);
            ctx.reclaim(reused.state);
            ctx.reclaim(fresh.state);
        }};
    }
    baseline_arm!("greedy", run_greedy(&sc), run_greedy_in(&sc, ctx));
    // Max-Max judges only the triplets whose objective bound reaches the
    // incumbent, on costings kept across commits; the per-triplet scan it
    // must replay re-plans everything on every commit, so it evaluates at
    // least as many triplets. Both AET signs, since the bound differs.
    for aet_sign in [AetSign::Positive, AetSign::Negative] {
        let objective = Objective {
            aet_sign,
            ..objective
        };
        let product = run_maxmax(&sc, &objective);
        let oracle = grid_baselines::maxmax::reference::run(&sc, &objective);
        if decision_signature(&product) != decision_signature(&oracle) {
            failures.push(format!(
                "maxmax: differential-reference: the bound-ordered scan and the per-triplet \
                 reference scan diverge ({aet_sign:?})"
            ));
        }
        if product.candidates_evaluated > oracle.candidates_evaluated {
            failures.push(format!(
                "maxmax: differential-reference: judged {} triplets, more than the \
                 reference's {} ({aet_sign:?})",
                product.candidates_evaluated, oracle.candidates_evaluated
            ));
        }
        ctx.reclaim(oracle.state);
        ctx.reclaim(product.state);
    }
    baseline_arm!(
        "maxmax",
        run_maxmax(&sc, &objective),
        run_maxmax_in(&sc, &objective, ctx)
    );
    baseline_arm!(
        "lrlist",
        run_lr_list(&sc, &weights),
        run_lr_list_in(&sc, &weights, ctx)
    );
    baseline_arm!("dbc-cost", run_dbc(&sc), run_dbc_in(&sc, ctx));

    failures.sort();
    failures.dedup();
    RunReport {
        seed: spec.seed,
        failures,
        signature: format!("{:016x}", fingerprint.finish()),
        clock_steps,
        sweeps_elided,
    }
}

/// The frontier-vs-reference differential: everything but the planning
/// work counter must agree between the product run and the oracle run.
pub(crate) fn reference_mismatch(
    tag: &str,
    kind: Kind,
    product: &SlrhOutcome<'_>,
    oracle: &SlrhOutcome<'_>,
) -> Option<String> {
    if dynamic_signature(product, false) != dynamic_signature(oracle, false) {
        return Some(format!(
            "{tag}: differential-reference: frontier and {kind:?} reference runs diverge"
        ));
    }
    let (p, o) = (&product.stats, &oracle.stats);
    if (p.commits, p.clock_steps, p.queries) != (o.commits, o.clock_steps, o.queries) {
        return Some(format!(
            "{tag}: differential-reference: trajectory differs from the {kind:?} reference \
             ({}/{}/{} commits/steps/queries vs {}/{}/{})",
            p.commits, p.clock_steps, p.queries, o.commits, o.clock_steps, o.queries,
        ));
    }
    None
}

/// Canonical signature of a dynamic (churn) outcome. With `with_stats`
/// the work counters are included (fresh-vs-reused-context must agree on
/// everything); without, only schedule + metrics + disruptions (the
/// reference arms legitimately differ in work accounting).
pub(crate) fn dynamic_signature(out: &SlrhOutcome<'_>, with_stats: bool) -> String {
    let mut s = String::new();
    push_schedule(&mut s, out.state.schedule());
    push_metrics(&mut s, &out.state.metrics());
    let _ = write!(s, "revision={} ", out.state.revision());
    for (at, n) in &out.disruptions {
        let _ = write!(s, "disruption={}@{} ", n, at.0);
    }
    // The weights in force at the end of the run: fixed-weight runs echo
    // their configuration, adaptive runs expose the adapted point — any
    // hidden drift (e.g. an accumulator surviving RunContext reuse)
    // breaks the differential arms here.
    let _ = write!(
        s,
        "fw={:016x}/{:016x} ",
        out.final_weights.alpha().to_bits(),
        out.final_weights.beta().to_bits(),
    );
    if with_stats {
        let st = &out.stats;
        let _ = write!(
            s,
            "steps={} queries={} cand={} commits={} wu={} elided={} ",
            st.clock_steps,
            st.queries,
            st.candidates_evaluated,
            st.commits,
            st.weight_updates,
            st.sweeps_elided,
        );
    }
    s
}

/// Canonical signature of a static baseline outcome.
fn static_signature(out: &StaticOutcome<'_>) -> String {
    let mut s = decision_signature(out);
    let _ = write!(s, "cand={} ", out.candidates_evaluated);
    s
}

/// What a static run decided: [`static_signature`] without the work
/// counter.
fn decision_signature(out: &StaticOutcome<'_>) -> String {
    let mut s = String::new();
    push_schedule(&mut s, out.state.schedule());
    push_metrics(&mut s, &out.state.metrics());
    s
}

fn push_schedule(s: &mut String, schedule: &Schedule) {
    let mut assignments: Vec<_> = schedule.assignments().copied().collect();
    assignments.sort_unstable_by_key(|a| a.task.0);
    for a in assignments {
        let _ = write!(
            s,
            "a:{}/{:?}@{} s={} d={} e={:016x} ",
            a.task.0,
            a.version,
            a.machine.0,
            a.start.0,
            a.dur.0,
            a.energy.units().to_bits(),
        );
    }
    let mut transfers = schedule.transfers().to_vec();
    transfers.sort_unstable_by_key(|t| (t.parent.0, t.child.0));
    for t in transfers {
        let _ = write!(
            s,
            "t:{}->{} {}=>{} s={} d={} sz={:016x} e={:016x} ",
            t.parent.0,
            t.child.0,
            t.from.0,
            t.to.0,
            t.start.0,
            t.dur.0,
            t.size.value().to_bits(),
            t.energy.units().to_bits(),
        );
    }
}

fn push_metrics(s: &mut String, m: &Metrics) {
    let _ = write!(
        s,
        "m:tasks={} mapped={} t100={} aet={} tec={:016x} tse={:016x} tau={} ",
        m.tasks,
        m.mapped,
        m.t100,
        m.aet.0,
        m.tec.units().to_bits(),
        m.tse.units().to_bits(),
        m.tau.0,
    );
}

/// FNV-1a 64-bit, the fingerprint accumulator (no external hash deps).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, data: &str) {
        for b in data.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn a_generated_case_runs_green() {
        let spec = generate(1);
        let mut ctx = RunContext::new();
        let report = run_seed(&spec, &mut ctx);
        assert!(report.passed(), "{:#?}", report.failures);
        assert!(report.clock_steps > 0);
    }

    #[test]
    fn an_open_case_runs_green() {
        let seed = (0..64)
            .find(|&s| generate(s).open.is_some())
            .expect("an open case within 64 seeds");
        let spec = generate(seed);
        let mut ctx = RunContext::new();
        let report = run_seed(&spec, &mut ctx);
        assert!(report.passed(), "seed {seed}: {:#?}", report.failures);
    }

    #[test]
    fn verdict_and_signature_are_deterministic() {
        let spec = generate(2);
        let a = run_seed(&spec, &mut RunContext::new());
        // A context warmed on a different case must not change anything.
        let mut warmed = RunContext::new();
        let _ = run_seed(&generate(3), &mut warmed);
        let b = run_seed(&spec, &mut warmed);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.clock_steps, b.clock_steps);
    }

    #[test]
    fn malformed_spec_reports_instead_of_panicking() {
        let mut spec = generate(4);
        spec.losses = (0..3)
            .map(|m| crate::spec::ChurnEvent { machine: m, at: 5 })
            .collect();
        spec.case = adhoc_grid::config::GridCase::B;
        let report = run_seed(&spec, &mut RunContext::new());
        assert!(!report.passed());
        assert!(
            report.failures[0].starts_with("spec:"),
            "{:?}",
            report.failures
        );
    }
}
