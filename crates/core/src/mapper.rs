//! The SLRH clock loop (Figure 1) and its three variants.
//!
//! The heuristic is clock-driven: it runs at fixed intervals of ΔT ticks
//! rather than whenever a machine frees up. At each invocation it walks
//! the machines in numerical order; for every machine that is *available*
//! (no computation scheduled at or beyond the current clock) it commits
//! what the paper's pool walk ([`crate::pool`]) would pick — the
//! maximum-objective candidate able to start within the horizon `H` —
//! as answered by the incremental frontier kernel. The variants differ
//! only in how many pairs a machine may receive per invocation — see
//! [`crate::config::SlrhVariant`]. SLRH-2 asks the kernel nothing: its
//! frozen pool is one snapshot of the ready set, read off the state.
//!
//! The loop ends when every subtask is mapped, when the clock passes the
//! deadline τ, or — a pure optimization, unreachable in the paper's
//! configurations — when provably no future invocation can make progress
//! (all machines already available, no candidate passing any energy
//! gate: the gates depend only on energy and precedence state, which
//! only mappings can change).
//!
//! The clock keeps its ΔT lattice, but the *work* is event-triggered: a
//! sweep that committed nothing is not repeated until a busy machine
//! frees up or the kernel's answer for an available one can have changed
//! ([`Kernel::wake`]) — so a sweep that found every machine busy sleeps
//! until the first release. The loop crosses the ticks in between in one
//! step, with every counter exactly what the repeated sweeps would have
//! produced and one observer event standing for the whole span
//! ([`RunStats::sweeps_elided`], [`TickEvent::span`], DESIGN.md §19).

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Time};
use adhoc_grid::workload::Scenario;
use gridsim::metrics::Metrics;
use gridsim::plan::{Costing, MappingPlan, Placement, PlanScratch, PlanTotals, Slot};
use gridsim::state::SimState;
use gridsim::tables::ScenarioTables;
use lagrange::weights::{Objective, Weights};

use crate::config::{SlrhConfig, SlrhVariant};
use crate::context::RunContext;
use crate::dynamic::{drive_segments, Churn};
use crate::pool::totals_objective;

/// Counters describing one run's work (the paper's "heuristic execution
/// time" proxy that is independent of the host machine).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Clock-loop iterations executed.
    pub clock_steps: u64,
    /// Candidate queries: one per "best startable candidate for machine
    /// `j` now" question (SLRH-1/3) or SLRH-2 frozen order built, plus
    /// one per machine probed by the stuck check.
    pub queries: u64,
    /// Candidate (task, machine) pairs evaluated against the objective:
    /// for SLRH-1/3 everything the kernel's bounds could not rule out
    /// first, for SLRH-2 every member of the frozen pool (each ready
    /// subtask passing the walk's §IV gate).
    pub candidates_evaluated: u64,
    /// Mappings committed.
    pub commits: u64,
    /// Online weight-adaptation steps that actually changed the weights
    /// (zero whenever [`crate::config::SlrhConfig::adaptation`] is off
    /// — and also when every step was a fixed point).
    pub weight_updates: u64,
    /// Clock ticks slept through: the last sweep had already proven
    /// this one's outcome — every live machine still busy, or every
    /// available one's query latched at `None` — so the loop crossed it
    /// without a sweep, a whole span in one step. Counted inside
    /// [`RunStats::clock_steps`]; a kernel work counter like
    /// `candidates_evaluated`, so the reference oracles — which never
    /// elide — legitimately report 0.
    pub sweeps_elided: u64,
}

/// The result of an SLRH run — the only outcome type, whatever the grid
/// did meanwhile: the final simulation state plus counters.
#[derive(Debug)]
pub struct SlrhOutcome<'a> {
    /// Final state (schedule, ledger, metrics).
    pub state: SimState<'a>,
    /// Work counters, summed across every churn segment.
    pub stats: RunStats,
    /// Per machine loss, in the order applied: `(effective time,
    /// subtasks invalidated)`. Empty on a frozen grid.
    pub disruptions: Vec<(Time, usize)>,
    /// The objective weights in force when the run ended. Identical to
    /// the configured weights unless online adaptation moved them; one
    /// run-local configuration spans the whole run, so adapted weights
    /// carry *across* loss segments.
    pub final_weights: Weights,
}

impl SlrhOutcome<'_> {
    /// The run's metrics.
    pub fn metrics(&self) -> Metrics {
        self.state.metrics()
    }
}

/// Run the configured SLRH variant to completion on `scenario`, on a
/// frozen grid: [`run_slrh_with`] with no churn, a throwaway context
/// and no observer.
///
/// ```
/// use adhoc_grid::workload::{Scenario, ScenarioParams};
/// use adhoc_grid::config::GridCase;
/// use lagrange::weights::Weights;
/// use slrh::{run_slrh, SlrhConfig, SlrhVariant};
///
/// let params = ScenarioParams::paper_scaled(16);
/// let scenario = Scenario::generate(&params, GridCase::A, 0, 0);
/// let config = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
/// let outcome = run_slrh(&scenario, &config);
/// let m = outcome.metrics();
/// assert!(m.mapped > 0);
/// assert!(m.t100 <= m.mapped);
/// ```
pub fn run_slrh<'a>(scenario: &'a Scenario, config: &SlrhConfig) -> SlrhOutcome<'a> {
    run_slrh_with(
        scenario,
        config,
        &Churn::default(),
        &mut RunContext::new(),
        None,
    )
}

/// Executed clock ticks, as seen by [`run_slrh_with`]'s observer: one
/// swept tick, or one sleeping span of ticks the loop crossed in one
/// step (DESIGN.md §19).
///
/// Emitted in clock order (across loss boundaries too): once per swept
/// tick, after its machine sweep, and once per sleeping span, at the
/// span's first tick. A span holds at most one adaptation tick, its
/// first, so sampling `tick.is_multiple_of(every)` sees every weight
/// update. [`TickEvent::ticks`] expands an event into the per-tick
/// events a loop sweeping every tick reports. Observation is pure: an
/// observed run is bit-identical to the same run without an observer.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TickEvent {
    /// The clock value the (first) tick ran at.
    pub clock: Time,
    /// 0-based index of the (first) tick: [`RunStats::clock_steps`]
    /// − `span` at emission.
    pub tick: u64,
    /// Cumulative subtasks mapped after the tick.
    pub mapped: usize,
    /// Mappings committed during this tick (0 across a span).
    pub commits: u64,
    /// The objective weights the tick's sweep ran on — after the tick's
    /// adaptation step, when it had one; a span runs on one set
    /// throughout. Sampling this is how a caller records the weight
    /// trajectory of an adaptive run.
    pub weights: Weights,
    /// How many consecutive ticks, ΔT apart, the event stands for: 1
    /// for a swept tick, n ≥ 1 for a sleeping span.
    pub span: u64,
}

impl TickEvent {
    /// The per-tick events this one stands for, in clock order, `dt`
    /// (the run's [`SlrhConfig::dt`]) apart: the event itself for a
    /// swept tick, `span` commit-free ticks for a sleeping span. From
    /// the back it is O(1): `ticks(dt).next_back()` is a span's last
    /// tick.
    pub fn ticks(self, dt: Dur) -> impl DoubleEndedIterator<Item = TickEvent> {
        (0..self.span).map(move |k| TickEvent {
            clock: self.clock + dt * k,
            tick: self.tick + k,
            span: 1,
            ..self
        })
    }
}

/// The one way to run SLRH: map `scenario` under `config` while the grid
/// churns per `churn` (the default [`Churn`] is the paper's frozen
/// grid), on `ctx`'s recycled buffers, reporting every swept clock tick
/// and every sleeping span to `observer` when one is given ([`TickEvent`];
/// [`TickEvent::ticks`] expands a span into its ticks) — the hook the
/// broker daemon uses to stream live progress while a mapping runs.
///
/// The state and the candidate frontier are built on the context's
/// storage instead of fresh allocations; results are bit-identical
/// whatever the context held before. Reclaim the outcome's state with
/// [`RunContext::reclaim`] to keep the buffers cycling. One frontier
/// spans the whole run, synchronised *after* the arrival blocks, so what
/// it learns survives segment boundaries.
pub fn run_slrh_with<'a>(
    scenario: &'a Scenario,
    config: &SlrhConfig,
    churn: &Churn,
    ctx: &mut RunContext,
    observer: Option<&mut dyn FnMut(TickEvent)>,
) -> SlrhOutcome<'a> {
    let state = churn.initial_state(scenario, ctx);
    let frontier = ctx.frontier_for(&state);
    drive_segments(
        state,
        config,
        churn.losses(),
        frontier,
        Time::ZERO,
        observer,
    )
}

/// The weight search's run, and nothing else's: [`run_slrh_with`] on a
/// frozen grid with no observer, reading the scenario's static tables
/// from `tables` (built once per search, see
/// [`SimState::with_tables`]), abandoned at the first tick where
/// [`SimState::t100_ceiling`] is strictly below `floor`. Every commit is
/// final on a frozen grid, so the ceiling only falls, and a run it puts
/// below `floor` can never reach `floor`. Such a run (cut, or finished
/// below `floor`) is `None`, its state reclaimed into `ctx`; any other
/// is exactly [`run_slrh_with`]'s. `floor` 0 never cuts.
#[doc(hidden)]
pub fn run_slrh_floored<'a>(
    tables: &'a ScenarioTables<'a>,
    config: &SlrhConfig,
    ctx: &mut RunContext,
    floor: usize,
) -> Option<SlrhOutcome<'a>> {
    let mut state = ctx.state_on(tables);
    let mut run = *config;
    let mut stats = RunStats::default();
    let frontier = ctx.frontier_for(&state);
    drive(
        &mut state,
        &mut run,
        &mut stats,
        frontier,
        Time::ZERO,
        None,
        None,
        floor,
    );
    if state.t100_ceiling() < floor {
        ctx.reclaim(state);
        return None;
    }
    Some(SlrhOutcome {
        state,
        stats,
        disruptions: Vec::new(),
        final_weights: run.objective.weights,
    })
}

/// The version the §IV gate tests: at least the cheapest version, the
/// secondary, must fit the machine's remaining energy.
pub(crate) const GATE_VERSION: Version = Version::Secondary;

/// The version the paper's pool keeps for a costing, with its score and
/// slot: the gate version, unless the primary fits the battery too and
/// scores (`score` of its totals) at least as well — ties go to the
/// primary, `T100` being the study's objective. The pool oracle states
/// the rule again on whole plans.
pub(crate) fn choose_version(
    state: &SimState<'_>,
    cost: &Costing,
    score: impl Fn(&PlanTotals) -> f64,
) -> (f64, Slot) {
    let gated = cost.at(state, GATE_VERSION);
    let mut chosen = (score(&gated.totals(state)), gated);
    if state.version_feasible(cost.task, Version::Primary, cost.machine) {
        let primary = cost.at(state, Version::Primary);
        let value = score(&primary.totals(state));
        if value >= chosen.0 {
            chosen = (value, primary);
        }
    }
    debug_assert!(chosen.0.is_finite(), "objective values are finite");
    chosen
}

/// SLRH-2's frozen order for machine `j` at `now`, as `(objective, task,
/// version)`, objective descending then task ascending: the
/// [`crate::pool::build_pool_with`] entries that start within the
/// horizon, each costed once under `Append { now }` with the version
/// [`choose_version`] keeps. Every gated ready subtask is one evaluated
/// candidate. The walk's commits only fill timelines, so an entry past
/// the horizon now stays past it: leaving it out changes no commit.
fn slrh2_order(
    state: &SimState<'_>,
    config: &SlrhConfig,
    j: MachineId,
    now: Time,
    scratch: &mut PlanScratch,
    stats: &mut RunStats,
) -> Vec<(f64, TaskId, Version)> {
    stats.queries += 1;
    let horizon_end = now.saturating_add(config.horizon);
    let m = state.metrics();
    let score = |totals: &PlanTotals| totals_objective(&m, &config.objective, totals);
    let mut order = Vec::new();
    for &t in state.ready_tasks() {
        if !state.version_feasible(t, GATE_VERSION, j) {
            continue;
        }
        stats.candidates_evaluated += 1;
        // No start precedes a parent's finish: past the horizon, skip the costing.
        let finish = |p: &TaskId| {
            state
                .schedule()
                .assignment(*p)
                .map_or(Time::ZERO, |a| a.finish())
        };
        if state
            .scenario()
            .dag
            .parents(t)
            .iter()
            .any(|p| finish(p) > horizon_end)
        {
            continue;
        }
        let cost = state.cost(t, j, Placement::Append { not_before: now }, scratch);
        let (objective, slot) = choose_version(state, &cost, score);
        if slot.start <= horizon_end {
            order.push((objective, t, slot.version));
        }
    }
    order.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("finite objectives")
            .then(a.1.cmp(&b.1))
    });
    order
}

/// The candidate-selection kernel the clock loop asks its one question:
/// SLRH-1/3's best startable candidate. Every product driver runs the
/// [`crate::frontier::Frontier`]; the trait exists so
/// [`crate::reference`] can drive the *same* loop over the paper's
/// from-scratch pool walk as an independent oracle.
///
/// A plan travels in a circle: [`Kernel::best_startable`] hands one
/// out, the loop commits it, and [`Kernel::recycle`] takes it back as
/// the storage of the next — so a kernel builds one plan per commit and
/// a warm run allocates for none of them.
pub(crate) trait Kernel {
    /// Whether the loop may skip the sweeps a commit-free sweep proved
    /// idle (DESIGN.md §19). `false` only for the reference oracles
    /// ([`crate::reference`]): they sweep every tick, so their
    /// differentials against the product loop catch a wrong skip.
    const ELIDES: bool = true;

    /// Ingest a commit the loop just made: the subtasks it readied.
    /// Mutations the loop does not report (a machine-loss cascade
    /// between segments) are noticed through the state's revision
    /// counter.
    fn apply(&mut self, newly_ready: &[TaskId]);

    /// Take a committed plan back: a kernel that plans on reusable
    /// storage keeps the plan's vectors for its next plan.
    fn recycle(&mut self, _plan: MappingPlan) {}

    /// The ready-to-commit plan of the visible, §IV-feasible candidate
    /// maximising the objective among those able to start on `j` by
    /// `horizon_end` (ties toward the lower task id), if any.
    fn best_startable(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        stats: &mut RunStats,
    ) -> Option<MappingPlan>;

    /// After [`Kernel::best_startable`] answered `None` for available
    /// machine `j` on an unchanged `state`: the earliest horizon end at
    /// which that answer can change without a commit ([`Time::MAX`] =
    /// only a commit can change it). The loop does not query `j` again
    /// — and counts the queries it skipped — until its horizon gets
    /// there. `None` means "ask me every tick".
    fn wake(&self, _state: &SimState<'_>, _j: MachineId) -> Option<Time> {
        None
    }
}

/// Advance the SLRH clock loop on an existing state from `start_clock`
/// until completion, τ, `stop_at` (exclusive), or — with a non-zero
/// `floor`, which only [`run_slrh_floored`] passes — the first tick whose
/// [`SimState::t100_ceiling`] is below `floor`. Returns the clock value
/// at which the loop stopped. This is the building block under
/// [`crate::dynamic::drive_segments`], which every driver (closed, churn,
/// open, reference) goes through.
///
/// The configuration is mutable because online adaptation (when the
/// config carries an [`crate::config::Adaptation`] block) rewrites the
/// objective weights in place; callers hand in a run-local copy, never
/// their own configuration. Tick
/// indices — and therefore the adaptation schedule — are carried by
/// `stats.clock_steps`, which is monotone across the segments of a
/// multi-segment (churn) run.
///
/// Every best-startable query goes through `kernel` and every commit's
/// readied subtasks are fed back into it. Multi-segment drivers build the
/// kernel once per run (or per open-system job) and pass it to every
/// segment, so what it has learned — bound orders, start floors, gate
/// rejections — survives segment boundaries, and a zero-tick segment
/// costs nothing. Weight updates invalidate nothing structural: the
/// frontier re-bounds its views when it sees a new objective.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<K: Kernel>(
    state: &mut SimState<'_>,
    config: &mut SlrhConfig,
    stats: &mut RunStats,
    kernel: &mut K,
    start_clock: Time,
    stop_at: Option<Time>,
    mut observer: Option<&mut dyn FnMut(TickEvent)>,
    floor: usize,
) -> Time {
    let tau = state.scenario().tau;
    let mut now = start_clock;
    // Wake-time elision (DESIGN.md §19): after a sweep that committed
    // nothing, `wake` is the earliest clock at which a busy machine
    // frees up or an available machine's answer can change, and
    // `idle_queries` is what every sweep before it would add to
    // `stats.queries`.
    // Locals on purpose: nothing proven about one segment survives a
    // loss cascade or a job boundary.
    let mut wake = Time::ZERO;
    let mut idle_queries = 0;
    loop {
        if state.all_mapped() || now > tau {
            return now;
        }
        if let Some(stop) = stop_at {
            if now >= stop {
                return now;
            }
        }
        if floor > 0 && state.t100_ceiling() < floor {
            return now;
        }
        let tick = stats.clock_steps;
        stats.clock_steps += 1;

        // Online adaptation: one projected subgradient step on the
        // weights every `every`-th tick, from the violations the current
        // partial schedule predicts. Pure in (weights, tick index), so
        // replaying any prefix — or resuming after a churn segment —
        // reproduces the same weight trajectory bit for bit. Tick 0
        // always runs on the starting weights.
        if let Some(ad) = config.adaptation {
            if tick > 0 && tick.is_multiple_of(ad.every) {
                let g = predicted_violations(state, now);
                let next = lagrange::online::adapt_step(
                    &ad.rule,
                    config.objective.weights,
                    tick / ad.every,
                    g,
                );
                if next != config.objective.weights {
                    config.objective.weights = next;
                    stats.weight_updates += 1;
                }
            }
        }
        // The last sweep has already answered this one: the same machines
        // are busy, each available one would be told `None` again, and
        // the stuck probes would find the same gate-feasible candidate.
        // So would every tick up to the first of `wake`, τ's exit, the
        // stop and the next adaptation step (which reads the clock):
        // cross that span in one step, keeping the books exactly as its
        // sweeps would have, and report it as one event.
        if now < wake {
            let mut end = wake.min(Time(tau.0.saturating_add(1)));
            if let Some(stop) = stop_at {
                end = end.min(stop);
            }
            let mut span = (end.0 - now.0).div_ceil(config.dt.0);
            if let Some(ad) = config.adaptation.filter(|ad| ad.every > 0) {
                span = span.min(ad.every - tick % ad.every);
            }
            stats.clock_steps += span - 1;
            stats.sweeps_elided += span;
            stats.queries += span * idle_queries;
            if let Some(obs) = observer.as_mut() {
                obs(TickEvent {
                    clock: now,
                    tick,
                    mapped: state.mapped_count(),
                    commits: 0,
                    weights: config.objective.weights,
                    span,
                });
            }
            now += config.dt * span;
            continue;
        }
        let commits_before = stats.commits;
        let queries_before = stats.queries;
        let mut every_live_machine_available = true;

        for j in state.scenario().grid.ids() {
            if state.all_mapped() {
                break;
            }
            if !state.is_alive(j) {
                continue;
            }
            if state.compute_ready(j) > now {
                every_live_machine_available = false;
                continue;
            }
            map_on_machine(state, config, stats, kernel, j, now);
        }
        let any_commit = stats.commits > commits_before;

        // Observation is pure — it sees the tick, it cannot steer it.
        if let Some(obs) = observer.as_mut() {
            obs(TickEvent {
                clock: now,
                tick,
                mapped: state.mapped_count(),
                commits: stats.commits - commits_before,
                weights: config.objective.weights,
                span: 1,
            });
        }

        // Early exit (pure optimization): nothing was mapped although every
        // live machine was idle. If on top of that no ready candidate
        // passes any live machine's §IV gate, the blocker is energy
        // infeasibility — the gate depends only on energy and precedence,
        // neither of which the clock can change — so no future invocation
        // can make progress. (A gate-feasible candidate here means a
        // horizon miss, which the advancing clock *can* resolve.) The
        // probe plans nothing and reads only the state.
        if !any_commit && every_live_machine_available && !state.all_mapped() {
            let mut live = state.scenario().grid.ids().filter(|&j| state.is_alive(j));
            let stuck = !live.any(|j| {
                stats.queries += 1;
                state.any_feasible_candidate(state.ready_tasks(), GATE_VERSION, j)
            });
            if stuck {
                return now;
            }
        }

        wake = Time::ZERO;
        if !any_commit && K::ELIDES {
            idle_queries = stats.queries - queries_before;
            wake = sweep_wake(state, config, kernel, now);
        }
        now += config.dt;
    }
}

/// The earliest clock at which a machine sweep over the unchanged
/// `state` can differ from the commit-free one just run at `now`: a busy
/// machine frees up, or an available machine's horizon reaches the point
/// the kernel named. [`Time::ZERO`] as soon as one machine's kernel
/// answer carries no such proof; [`Time::MAX`] when no machine is alive.
fn sweep_wake<K: Kernel>(state: &SimState<'_>, config: &SlrhConfig, kernel: &K, now: Time) -> Time {
    let mut wake = Time::MAX;
    for j in state.scenario().grid.ids().filter(|&j| state.is_alive(j)) {
        let ready = state.compute_ready(j);
        let at = if ready > now {
            ready
        } else {
            match kernel.wake(state, j) {
                Some(horizon_end) => Time(horizon_end.0.saturating_sub(config.horizon.0)),
                None => return Time::ZERO,
            }
        };
        wake = wake.min(at);
    }
    wake
}

/// Map candidates onto one available machine at the current clock,
/// following the variant's repetition rule.
fn map_on_machine<K: Kernel>(
    state: &mut SimState<'_>,
    config: &SlrhConfig,
    stats: &mut RunStats,
    kernel: &mut K,
    j: MachineId,
    now: Time,
) {
    let horizon_end = now.saturating_add(config.horizon);
    let objective = &config.objective;
    match config.variant {
        SlrhVariant::V1 => {
            if let Some(plan) = kernel.best_startable(state, objective, j, now, horizon_end, stats)
            {
                commit(state, stats, kernel, plan);
            }
        }
        SlrhVariant::V2 => {
            // One frozen order; each entry is re-costed (earlier commits
            // shift the machine's availability), but membership, versions and
            // order are fixed up front — the defining simplification of SLRH-2.
            let placement = Placement::Append { not_before: now };
            let mut scratch = PlanScratch::default();
            for (_, t, v) in slrh2_order(state, config, j, now, &mut scratch, stats) {
                if state.version_feasible(t, v, j)
                    && state.cost(t, j, placement, &mut scratch).at(state, v).start <= horizon_end
                {
                    let plan = state.plan_with(t, v, j, placement, &mut scratch);
                    commit(state, stats, kernel, plan);
                }
            }
        }
        SlrhVariant::V3 => {
            // Re-query after every assignment, admitting newly-ready
            // children immediately.
            while let Some(plan) =
                kernel.best_startable(state, objective, j, now, horizon_end, stats)
            {
                commit(state, stats, kernel, plan);
            }
        }
    }
}

/// Commit a plan, report the subtasks it readied to the kernel, and
/// hand the plan's storage back to where the next one is built: the
/// loop commits once per subtask and allocates for none of them.
fn commit<K: Kernel>(
    state: &mut SimState<'_>,
    stats: &mut RunStats,
    kernel: &mut K,
    plan: MappingPlan,
) {
    kernel.apply(state.commit(&plan));
    stats.commits += 1;
    kernel.recycle(plan);
}

/// Predicted constraint violations from a mid-run snapshot: the energy
/// and time consumption fractions linearly extrapolated to full mapping,
/// minus 1 (positive = headed for a violation). This is the subgradient
/// estimate the online adaptation hook feeds to
/// [`lagrange::online::adapt_step`]; it reads only the live state and
/// clock, never any accumulator, preserving the purity contract.
pub(crate) fn predicted_violations(state: &SimState<'_>, now: Time) -> [f64; 2] {
    let m = state.metrics();
    let progress = m.mapped as f64 / m.tasks as f64;
    if progress <= 0.0 {
        return [0.0, 0.0];
    }
    let e_pred = m.tec_fraction() / progress;
    let t_pred = (now.as_seconds() / m.tau.as_seconds()) / progress;
    [e_pred - 1.0, t_pred - 1.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::units::Dur;
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use gridsim::validate::validate;
    use lagrange::weights::Weights;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn config(variant: SlrhVariant) -> SlrhConfig {
        SlrhConfig::paper(variant, Weights::new(0.5, 0.2).unwrap())
    }

    /// The per-tick stream an observed run stands for: every sleeping
    /// span expanded into its ticks ([`TickEvent::ticks`]).
    fn expand(events: &[TickEvent], dt: Dur) -> Vec<TickEvent> {
        events.iter().flat_map(|e| e.ticks(dt)).collect()
    }

    /// The observer is pure: an observed run produces a bit-identical
    /// schedule and stats, and the expanded event stream is internally
    /// consistent (one event per clock step, clock-ordered ticks,
    /// monotone mapped counts, commits adding up), as is the stream as
    /// reported (each event starts where the one before it ends).
    #[test]
    fn observed_run_is_bit_identical_and_consistent() {
        let sc = scenario(48);
        for variant in SlrhVariant::ALL {
            let cfg = config(variant);
            let plain = run_slrh(&sc, &cfg);
            let mut reported = Vec::new();
            let observed = run_slrh_with(
                &sc,
                &cfg,
                &Churn::default(),
                &mut RunContext::new(),
                Some(&mut |e| reported.push(e)),
            );
            assert_eq!(
                format!("{:?}", observed.state.schedule()),
                format!("{:?}", plain.state.schedule())
            );
            assert_eq!(observed.stats, plain.stats);
            for w in reported.windows(2) {
                assert_eq!(w[0].tick + w[0].span, w[1].tick, "{variant}");
                assert_eq!(w[0].clock + cfg.dt * w[0].span, w[1].clock, "{variant}");
            }
            assert!(reported.iter().all(|e| e.span == 1 || e.commits == 0));
            let events = expand(&reported, cfg.dt);
            assert_eq!(events.len() as u64, plain.stats.clock_steps, "{variant}");
            for w in events.windows(2) {
                assert!(w[0].clock < w[1].clock, "{variant}: clock not increasing");
                assert!(w[0].mapped <= w[1].mapped);
                assert_eq!(w[0].tick + 1, w[1].tick);
            }
            let total: u64 = events.iter().map(|e| e.commits).sum();
            assert_eq!(total, plain.stats.commits, "{variant}");
            assert_eq!(events.last().unwrap().mapped, plain.state.mapped_count());
            assert!(events.iter().all(|e| e.weights == cfg.objective.weights));
            assert!(plain.disruptions.is_empty());
        }
    }

    /// The sleep is O(1) in the span's length: on the paper-scale Case A
    /// job, where the loop sleeps through most ticks, the observer gets
    /// one event per swept tick and at most one per sleeping span (each
    /// span follows a commit-free sweep), not one per clock step.
    #[test]
    fn the_paper_scale_job_sleeps_each_span_in_one_event() {
        let sc = scenario(1024);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).unwrap());
        let mut events = 0u64;
        let out = run_slrh_with(
            &sc,
            &cfg,
            &Churn::default(),
            &mut RunContext::new(),
            Some(&mut |_| events += 1),
        );
        let swept = out.stats.clock_steps - out.stats.sweeps_elided;
        assert!(out.stats.sweeps_elided > out.stats.clock_steps / 2);
        assert!(
            events <= 2 * swept + 1,
            "{events} events for {swept} swept of {} clock steps",
            out.stats.clock_steps
        );
    }

    #[test]
    fn slrh1_maps_everything_at_some_weights() {
        // Whether a fixed (α, β) maps every subtask within the scaled
        // energy budget is exactly what the Figure 3 search explores; a
        // small grid must contain a fully-mapping, compliant pair.
        let sc = scenario(64);
        let mut found = false;
        for (a, b) in [(0.5, 0.25), (0.25, 0.25), (0.5, 0.5), (1.0, 0.0)] {
            let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(a, b).unwrap());
            let out = run_slrh(&sc, &cfg);
            let errs = validate(&out.state);
            assert!(errs.is_empty(), "(α={a}, β={b}): {errs:?}");
            let m = out.metrics();
            assert!(out.stats.clock_steps > 0);
            if m.constraints_met() {
                found = true;
                assert_eq!(out.stats.commits, 64);
            }
        }
        assert!(found, "no grid point fully maps the scenario");
    }

    #[test]
    fn slrh3_produces_valid_schedules_across_weights() {
        let sc = scenario(64);
        for (a, b) in [(0.5, 0.25), (0.25, 0.25)] {
            let cfg = SlrhConfig::paper(SlrhVariant::V3, Weights::new(a, b).unwrap());
            let out = run_slrh(&sc, &cfg);
            let errs = validate(&out.state);
            assert!(errs.is_empty(), "{errs:?}");
            assert!(out.metrics().mapped > 0);
        }
    }

    #[test]
    fn slrh2_produces_a_valid_schedule() {
        // SLRH-2 rarely maps everything (the paper dropped it for that);
        // whatever it maps must still be physically valid.
        let sc = scenario(64);
        let out = run_slrh(&sc, &config(SlrhVariant::V2));
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn slrh1_one_commit_per_machine_per_step() {
        let sc = scenario(48);
        let out = run_slrh(&sc, &config(SlrhVariant::V1));
        // V1 commits at most |M| pairs per clock step.
        assert!(out.stats.commits <= out.stats.clock_steps * sc.grid.len() as u64);
    }

    #[test]
    fn deterministic_across_runs() {
        let sc = scenario(48);
        let a = run_slrh(&sc, &config(SlrhVariant::V1));
        let b = run_slrh(&sc, &config(SlrhVariant::V1));
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn smaller_dt_never_hurts_t100_much() {
        // Figure 2's premise: T100 is insensitive to mid-range ΔT but
        // degrades for very large ΔT. Compare 1 vs 400 cycles.
        let sc = scenario(64);
        let fine = run_slrh(&sc, &config(SlrhVariant::V1).with_dt(Dur(1)));
        let coarse = run_slrh(&sc, &config(SlrhVariant::V1).with_dt(Dur(2000)));
        assert!(fine.metrics().t100 >= coarse.metrics().t100);
        // Coarse steps do fewer clock iterations.
        assert!(coarse.stats.clock_steps < fine.stats.clock_steps);
    }

    #[test]
    fn inert_adaptation_is_bitexact_with_legacy() {
        // An adaptation block whose step rule never moves (constant 0)
        // must leave the whole run — schedule, stats, weights —
        // byte-identical to the legacy fixed-weight path.
        use crate::config::Adaptation;
        use lagrange::step::StepRule;
        let sc = scenario(64);
        for variant in SlrhVariant::ALL {
            let legacy = config(variant);
            let inert = legacy.with_adaptation(Adaptation {
                rule: StepRule::Constant { a: 0.0 },
                ..Adaptation::default()
            });
            let a = run_slrh(&sc, &legacy);
            let b = run_slrh(&sc, &inert);
            assert_eq!(a.stats, b.stats, "{variant}");
            assert_eq!(b.stats.weight_updates, 0, "{variant}");
            assert_eq!(a.final_weights, b.final_weights, "{variant}");
            assert_eq!(
                format!("{:?}", a.state.schedule()),
                format!("{:?}", b.state.schedule()),
                "{variant}"
            );
        }
    }

    #[test]
    fn live_adaptation_moves_weights_and_stays_valid() {
        use crate::config::Adaptation;
        use lagrange::step::StepRule;
        let sc = scenario(64);
        let cfg = config(SlrhVariant::V1).with_adaptation(Adaptation {
            rule: StepRule::Constant { a: 0.5 },
            every: 2,
        });
        let out = run_slrh(&sc, &cfg);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(out.stats.weight_updates > 0, "no weight ever moved");
        assert_ne!(out.final_weights, cfg.objective.weights);
        // The caller's configuration is never mutated (run-local copies only).
        assert_eq!(
            cfg.objective.weights,
            config(SlrhVariant::V1).objective.weights
        );
        // Determinism: the adaptive trajectory replays exactly.
        let again = run_slrh(&sc, &cfg);
        assert_eq!(again.stats, out.stats);
        assert_eq!(again.final_weights, out.final_weights);
    }

    #[test]
    fn adaptation_off_echoes_configured_weights() {
        let sc = scenario(32);
        let cfg = config(SlrhVariant::V1);
        let out = run_slrh(&sc, &cfg);
        assert_eq!(out.final_weights, cfg.objective.weights);
        assert_eq!(out.stats.weight_updates, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// SLRH-2's frozen order is the paper's pool cut at the horizon:
        /// the [`crate::pool::build_pool_with`] entries whose plans start
        /// by `horizon_end`, in order, objective bits and versions equal,
        /// one evaluated candidate per pool member — on mid-run states,
        /// under both `AET` signs, at drawn weights and at γ = 1 (where a
        /// candidate finishing inside the current `AET` ties its
        /// versions: the primary's tie-break).
        #[test]
        fn slrh2_order_is_the_pool_inside_the_horizon(
            dag_id in 0usize..4,
            commits in 0usize..24,
            alpha in 2u32..=8,
            now in 0u64..400,
            horizon in 1u64..2000,
        ) {
            let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, dag_id);
            let mut state = SimState::new(&sc);
            for step in 0..commits {
                let Some(&t) = state.ready_tasks().first() else { break };
                let j = MachineId(step % sc.grid.len());
                let v = if step % 3 == 0 { Version::Primary } else { Version::Secondary };
                if state.version_feasible(t, v, j) {
                    state.commit(&state.plan(t, v, j, Placement::Append { not_before: Time::ZERO }));
                }
            }
            let (now, mut cfg) = (Time(now), config(SlrhVariant::V2).with_horizon(Dur(horizon)));
            for weights in [Weights::new(f64::from(alpha) * 0.1, 0.1).unwrap(), Weights::new(0.0, 0.0).unwrap()] {
                use lagrange::weights::AetSign::{Negative, Positive};
                for aet_sign in [Positive, Negative] {
                    cfg.objective = Objective { weights, aet_sign };
                    for j in sc.grid.ids() {
                        let pool = crate::pool::build_pool_with(&state, &cfg.objective, j, now);
                        let inside = pool.iter().filter(|e| e.plan.start <= now + Dur(horizon));
                        let expected: Vec<_> = inside.map(|e| (e.objective.to_bits(), e.task, e.version)).collect();
                        let mut stats = RunStats::default();
                        let order = slrh2_order(&state, &cfg, j, now, &mut PlanScratch::default(), &mut stats);
                        let got: Vec<_> = order.iter().map(|&(obj, t, v)| (obj.to_bits(), t, v)).collect();
                        proptest::prop_assert_eq!(got, expected, "{} {:?}", j, cfg);
                        proptest::prop_assert_eq!(stats.candidates_evaluated, pool.len() as u64);
                    }
                }
            }
        }
    }

    /// A kernel with nothing to offer and a scripted answer to "when
    /// could that change": never a candidate, every query recorded. (The
    /// stuck check reads the state, whose ready subtasks pass machine 0's
    /// gate, so it never fires.)
    struct Scripted {
        wake: Option<Time>,
        queried: Vec<Time>,
    }

    impl Kernel for Scripted {
        fn apply(&mut self, _newly_ready: &[TaskId]) {
            unreachable!("the scripted kernel never offers a plan to commit");
        }

        fn best_startable(
            &mut self,
            _state: &SimState<'_>,
            _objective: &Objective,
            _j: MachineId,
            now: Time,
            _horizon_end: Time,
            stats: &mut RunStats,
        ) -> Option<MappingPlan> {
            stats.queries += 1;
            self.queried.push(now);
            None
        }

        fn wake(&self, _state: &SimState<'_>, _j: MachineId) -> Option<Time> {
            self.wake
        }
    }

    /// The loop a scripted run drives: the reference oracles' loop,
    /// which sweeps every tick ([`crate::reference::Ticking`]), or the
    /// product's, with the kernel's scripted answer to "when could that
    /// `None` change".
    #[derive(Copy, Clone)]
    enum Loop {
        Ticking,
        Eliding(Option<Time>),
    }

    /// What one scripted `drive` call left behind.
    struct ScriptedRun {
        /// The clock of every kernel query, in order.
        queried: Vec<Time>,
        stats: RunStats,
        events: Vec<TickEvent>,
        end: Time,
        weights: Weights,
        /// When machine 0 — busy with the one pre-committed subtask —
        /// frees up.
        busy_until: Time,
        /// When the first machine frees up.
        first_release: Time,
    }

    /// Drive the scripted kernel over a state with one subtask already
    /// committed on machine 0 (a busy machine, and progress for the
    /// adaptation step to extrapolate from) — after, with `block` given,
    /// every machine `j` was blocked until `block + j` ticks.
    fn scripted_run(
        mode: Loop,
        block: Option<Time>,
        stop_at: Option<Time>,
        adapt_every: Option<u64>,
    ) -> ScriptedRun {
        use crate::config::Adaptation;
        use crate::reference::Ticking;
        use lagrange::step::StepRule;
        let sc = scenario(16);
        let mut state = SimState::new(&sc);
        if let Some(at) = block {
            for j in sc.grid.ids() {
                state.block_until(j, Time(at.0 + j.0 as u64));
            }
        }
        let root = state.ready_tasks()[0];
        let plan = state.plan(
            root,
            Version::Primary,
            MachineId(0),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        state.commit(&plan);
        let busy_until = state.compute_ready(MachineId(0));
        let first_release = sc.grid.ids().map(|j| state.compute_ready(j)).min().unwrap();
        let mut cfg = config(SlrhVariant::V1);
        if let Some(every) = adapt_every {
            cfg = cfg.with_adaptation(Adaptation {
                rule: StepRule::Constant { a: 0.5 },
                every,
            });
        }
        let mut run = cfg;
        let mut kernel = Scripted {
            wake: None,
            queried: Vec::new(),
        };
        let mut stats = RunStats::default();
        let mut events = Vec::new();
        let mut observer = |e| events.push(e);
        let obs = Some(&mut observer as &mut dyn FnMut(TickEvent));
        let end = match mode {
            Loop::Ticking => {
                let mut ticking = Ticking(kernel);
                let end = drive(
                    &mut state,
                    &mut run,
                    &mut stats,
                    &mut ticking,
                    Time::ZERO,
                    stop_at,
                    obs,
                    0,
                );
                kernel = ticking.0;
                end
            }
            Loop::Eliding(wake) => {
                kernel.wake = wake;
                drive(
                    &mut state,
                    &mut run,
                    &mut stats,
                    &mut kernel,
                    Time::ZERO,
                    stop_at,
                    obs,
                    0,
                )
            }
        };
        ScriptedRun {
            queried: kernel.queried,
            stats,
            events,
            end,
            weights: run.objective.weights,
            busy_until,
            first_release,
        }
    }

    /// Everything an elided span must leave exactly as the ticking loop
    /// leaves it: counters, the observer's stream once expanded, the
    /// exit clock and the adapted weights. The ticking loop reports
    /// every tick on its own; the eliding one reports a span as one
    /// event, and every adaptation tick (a multiple of `adapt_every`) as
    /// the first tick of an event, where a sampling observer sees it.
    fn assert_same_books(ticking: &ScriptedRun, eliding: &ScriptedRun, adapt_every: Option<u64>) {
        let dt = config(SlrhVariant::V1).dt;
        assert_eq!(ticking.stats.sweeps_elided, 0);
        assert!(ticking.events.iter().all(|e| e.span == 1));
        assert_eq!(
            RunStats {
                sweeps_elided: 0,
                ..eliding.stats
            },
            ticking.stats
        );
        assert_eq!(expand(&eliding.events, dt), ticking.events);
        assert_eq!(eliding.end, ticking.end);
        assert_eq!(eliding.weights, ticking.weights);
        for w in ticking.events.windows(2) {
            assert_eq!(w[0].tick + 1, w[1].tick);
            assert!(w[0].clock < w[1].clock);
        }
        assert!(eliding.events.iter().all(|e| e.commits == 0));
        if let Some(every) = adapt_every {
            let sampled = |events: &[TickEvent]| -> Vec<_> {
                events
                    .iter()
                    .filter(|e| e.tick.is_multiple_of(every))
                    .map(|e| (e.clock, e.weights))
                    .collect()
            };
            assert_eq!(sampled(&eliding.events), sampled(&ticking.events));
        }
    }

    #[test]
    fn a_scripted_wake_elides_exactly_the_sweeps_before_it() {
        let cfg = config(SlrhVariant::V1);
        let ticking = scripted_run(Loop::Ticking, None, None, None);
        // The kernel names a horizon end past the busy machine's release,
        // so the loop sleeps twice: until machine 0 frees up, then until
        // the horizon reaches the scripted point; from there on the
        // answer is stale at once and every tick is swept again.
        let horizon_end = Time(ticking.busy_until.0 + 4000);
        let second_wake = Time(horizon_end.0 - cfg.horizon.0);
        let eliding = scripted_run(Loop::Eliding(Some(horizon_end)), None, None, None);
        assert_same_books(&ticking, &eliding, None);
        let tau = scenario(16).tau;
        assert_eq!(
            ticking.end.0,
            tau.0 / cfg.dt.0 * cfg.dt.0 + cfg.dt.0,
            "τ exit"
        );

        let asleep = |clock: Time| {
            (clock > Time::ZERO && clock < ticking.busy_until)
                || (clock >= Time(ticking.busy_until.0.div_ceil(cfg.dt.0) * cfg.dt.0 + cfg.dt.0)
                    && clock < second_wake)
        };
        let clocks = || ticking.events.iter().map(|e| e.clock);
        let slept = clocks().filter(|&c| asleep(c)).count() as u64;
        assert!(
            slept > 100,
            "the script leaves two real spans ({slept} ticks)"
        );
        assert_eq!(eliding.stats.sweeps_elided, slept);
        // Each span crossed in one step: one event per swept tick, one
        // per span.
        assert_eq!(
            eliding.events.len() as u64,
            eliding.stats.clock_steps - slept + 2
        );
        // Not one kernel call inside a span, and every other tick is
        // swept (a sweep always has an idle machine to ask here).
        assert!(eliding.queried.iter().all(|&c| !asleep(c)));
        let mut swept = eliding.queried.clone();
        swept.dedup();
        assert_eq!(swept.len() as u64 + slept, eliding.stats.clock_steps);
        // The stuck probes the skipped sweeps would have made are in
        // `queries` all the same (`assert_same_books`): one per sweep
        // once machine 0 is free, on top of the kernel's queries.
        let probes = ticking.stats.queries - ticking.queried.len() as u64;
        assert_eq!(
            probes,
            clocks().filter(|&c| c >= ticking.busy_until).count() as u64
        );
    }

    #[test]
    fn an_elided_span_keeps_the_stop_and_the_adaptation_schedule() {
        // `Time::MAX`: only a commit could change the answer, so after
        // machine 0 frees up the loop sleeps to whichever exit comes first.
        let forever = Loop::Eliding(Some(Time::MAX));
        let ticking = scripted_run(Loop::Ticking, None, None, Some(7));
        let eliding = scripted_run(forever, None, None, Some(7));
        assert_same_books(&ticking, &eliding, Some(7));
        assert!(eliding.stats.sweeps_elided > eliding.stats.clock_steps / 2);
        // A span ends at the next adaptation tick, and no sooner.
        assert!(eliding.events.iter().any(|e| e.span == 7));
        assert!(eliding.events.iter().all(|e| e.span <= 7));
        assert!(
            eliding.stats.weight_updates > 0
                && eliding.weights != config(SlrhVariant::V1).objective.weights,
            "adaptation steps landed inside the spans"
        );

        // A segment boundary in the middle of a span, on and off the ΔT
        // lattice.
        for past_release in [1000, 1003] {
            let stop = Time(ticking.busy_until.0 + past_release);
            let ticking = scripted_run(Loop::Ticking, None, Some(stop), Some(7));
            let eliding = scripted_run(forever, None, Some(stop), Some(7));
            assert_same_books(&ticking, &eliding, Some(7));
            assert!(eliding.end >= stop && eliding.end.0 < stop.0 + 10);
            assert!(eliding.stats.sweeps_elided > 0);
        }
    }

    #[test]
    fn an_all_busy_span_elides_exactly_the_ticks_before_the_first_release() {
        // Every machine busy from the start — blocked, and machine 0 then
        // runs the root — and a kernel that asks to be queried every
        // tick: the only sweeps the loop may skip are the ones that would
        // find no machine available.
        let block = Some(Time(1503));
        let ticking = scripted_run(Loop::Ticking, block, None, Some(7));
        let eliding = scripted_run(Loop::Eliding(None), block, None, Some(7));
        assert_same_books(&ticking, &eliding, Some(7));
        let release = eliding.first_release;
        assert_eq!(release, Time(1504), "machine 1 frees up first");
        let in_span = |clock: Time| clock > Time::ZERO && clock < release;
        let span: Vec<_> = ticking.events.iter().filter(|e| in_span(e.clock)).collect();
        assert_eq!(eliding.stats.sweeps_elided, span.len() as u64);
        assert!(eliding.queried.first().is_some_and(|&c| c >= release));
        assert!(
            span.windows(2).any(|w| w[0].weights != w[1].weights),
            "an adaptation step landed inside the span"
        );

        // A segment boundary inside the span, on and off the ΔT lattice:
        // only the first tick is swept.
        for stop in [Time(700), Time(703)] {
            let ticking = scripted_run(Loop::Ticking, block, Some(stop), Some(7));
            let eliding = scripted_run(Loop::Eliding(None), block, Some(stop), Some(7));
            assert_same_books(&ticking, &eliding, Some(7));
            assert_eq!(eliding.end, Time(stop.0.div_ceil(10) * 10));
            assert_eq!(eliding.stats.sweeps_elided, eliding.stats.clock_steps - 1);
            assert!(eliding.queried.is_empty());
            // The swept first tick, then one span from tick 1 and one
            // from each adaptation tick after it.
            let adaptation_ticks = (eliding.stats.clock_steps - 1) / 7;
            assert_eq!(eliding.events.len() as u64, 2 + adaptation_ticks);
        }
    }

    /// The adaptive configuration the retired trace front end built:
    /// constant steps of 0.25 once per `interval` ticks of clock.
    fn adaptive(base: SlrhConfig, interval: u64) -> SlrhConfig {
        use crate::config::Adaptation;
        base.with_adaptation(Adaptation {
            every: interval / base.dt.0,
            ..Adaptation::default()
        })
    }

    #[test]
    fn adaptive_run_completes_and_validates() {
        let sc = scenario(64);
        let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap());
        let out = run_slrh(&sc, &adaptive(base, 500));
        assert!(out.metrics().fully_mapped());
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn slack_run_decays_penalties() {
        // Plenty of time and energy: predicted violations are negative,
        // so λ decays and α grows toward 1.
        let params = ScenarioParams::paper_scaled(48).with_tau(Time::from_seconds(1_000_000));
        let sc = Scenario::generate(&params, GridCase::A, 0, 0);
        let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.4, 0.4).unwrap());
        let out = run_slrh(&sc, &adaptive(base, 100));
        if out.stats.weight_updates > 0 {
            let w = out.final_weights;
            assert!(
                w.alpha() >= 0.4 - 1e-9,
                "alpha should not shrink in a slack run, got {w}"
            );
        }
    }

    #[test]
    fn violation_prediction_extrapolates() {
        let sc = scenario(32);
        let state = SimState::new(&sc);
        // Nothing mapped: no signal.
        assert_eq!(predicted_violations(&state, Time::ZERO), [0.0, 0.0]);
    }

    #[test]
    fn respects_tau_cutoff() {
        // With a tiny tau nothing (or almost nothing) can be mapped.
        let params = ScenarioParams::paper_scaled(64).with_tau(adhoc_grid::units::Time(5));
        let sc = Scenario::generate(&params, GridCase::A, 0, 0);
        let out = run_slrh(&sc, &config(SlrhVariant::V1));
        assert!(!out.metrics().fully_mapped());
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }
}
