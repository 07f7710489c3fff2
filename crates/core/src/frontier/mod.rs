//! The candidate-selection kernel: an incrementally maintained
//! ready-frontier answering "best startable candidate for machine `j`
//! now" for every driver ([`crate::mapper`], [`crate::dynamic`],
//! [`crate::open`]).
//!
//! The paper's definition re-derives the candidate pool `U` from the
//! ready set on every `(machine, tick)` query ([`crate::pool`]):
//! O(|U|·|M|) planning work per tick, slow at the paper's 4–16 machines
//! and fatal at 1000. The frontier attacks that product on four fronts,
//! one sequential pipeline split over this module's layers:
//!
//! 1. **Incremental maintenance** (`membership`) — the frontier is kept
//!    alive across ticks and reads readiness from [`SimState`], which
//!    owns the ready set; each commit reports the subtasks it readied
//!    (a worklist, never a rescan). Any other mutation — drivers
//!    deliberately do not report a machine-loss cascade — shows as a
//!    revision the frontier has not counted, and it lazily rebuilds
//!    from [`SimState::ready_tasks`].
//! 2. **Start-lower-bound pruning** (`tables`) — no plan for `t` can
//!    start before any parent's scheduled finish, on *any* machine, so
//!    `lb(t) = max_p finish(p)` past the horizon prunes `t` *before*
//!    planning, exactly. This is what kills the spin phase: SLRH maps
//!    far ahead of the clock, so most ready tasks are waiting for a
//!    parent's finish to drift inside the horizon, and cost one
//!    comparison instead of a placement search. A per-(task, machine)
//!    start floor adds minimum transfer durations and the machine's
//!    availability, discarding transfer-bound candidates too.
//! 3. **Feasibility gating with memory** (`tables`) — newcomers run
//!    the §IV energy gate as one table lookup each
//!    ([`SimState::gate_feasible`]), rejections are remembered in a
//!    self-validating per-machine bitset, and only the survivors are
//!    ever bounded or planned.
//! 4. **Cached bound orders** (`view`, walked by `scan`, put to sleep by
//!    `latch`) — each machine keeps a permutation of the gate-passing
//!    candidates sorted by objective upper bound alive across queries,
//!    served under a conservative drift bound, so a query plans one or
//!    two candidates instead of re-gating, re-bounding and re-sorting
//!    the frontier. A view shed by the memory cap falls back to a
//!    per-query resort of the ready set, bit-identical to the order it
//!    replaces.
//!
//! # Exactness
//!
//! Every machine sees the whole frontier, and each query selects the
//! candidate the paper's [`crate::pool::Pool::first_startable`] walk
//! selects: an argmax over startable candidates under (objective desc,
//! task asc), with the same tie-breaks, plans from the same
//! [`SimState::plan_with`] and [`crate::pool::build_pool_with`]'s
//! primary-competes version choice. The stress harness proves schedule
//! identity against [`crate::reference`] on every generated case.

mod latch;
mod membership;
mod scan;
mod tables;
mod view;

use std::cmp::Ordering;

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use gridsim::plan::{MappingPlan, PlanScratch};
use gridsim::state::SimState;
use lagrange::weights::Objective;

use crate::mapper::{Kernel, RunStats};

use self::scan::{Side, SideBuf};
use self::tables::FLOOR_CACHE_MAX;
use self::view::{Bound, View};

/// Repair a cached order after an update: `order` is sorted under the
/// strict total order `cmp`, `moved` holds the entries that were
/// appended or whose keys changed. Sorts only `moved`, then merges it
/// into `order` from the back — each entry of `order` that sorts after
/// the first moved one is shifted once — and leaves `moved` empty with
/// its capacity kept. The result is what sorting the union would give.
fn merge_sorted<T: Copy>(order: &mut Vec<T>, moved: &mut Vec<T>, cmp: impl Fn(&T, &T) -> Ordering) {
    if moved.is_empty() {
        return;
    }
    moved.sort_unstable_by(&cmp);
    let mut i = order.len();
    order.extend_from_slice(moved);
    for k in (0..order.len()).rev() {
        let Some(&last) = moved.last() else { break };
        if i > 0 && cmp(&order[i - 1], &last) == Ordering::Greater {
            i -= 1;
            order[k] = order[i];
        } else {
            order[k] = last;
            moved.pop();
        }
    }
}

/// The live candidate frontier: every ready task, seen by every
/// machine. See the module docs.
///
/// `Default` is detached storage synchronised to nothing — only useful
/// as the donor for [`Frontier::reset`] ([`crate::RunContext`] keeps one
/// per worker).
#[derive(Default)]
pub(crate) struct Frontier {
    // ---- membership ----
    /// The [`SimState::revision`] the frontier is synchronised to: the
    /// last rebuild's plus one per reported commit.
    last_revision: u64,
    /// Generation counter for views and the startability structures;
    /// bumped by rebuilds. Starts at 1 so every epoch-0 structure is
    /// born stale.
    view_epoch: u64,
    /// Per-task startable generation, bumped on every (re)insert; log,
    /// waiting and view entries carry the generation they were made at
    /// and are stale on mismatch.
    sgen: Vec<u32>,
    /// The [`Frontier::view_epoch`] the log/waiting/fresh structures
    /// are valid for.
    list_epoch: u64,
    /// Inserts not yet scored against the horizon (`(task, gen)`,
    /// drained by [`Frontier::sync_list`]).
    fresh: Vec<(TaskId, u32)>,
    /// Candidates whose start lower bound still exceeds the horizon
    /// (`(lb, task, gen)`, sorted descending so the tail is the next to
    /// become startable). Kept sorted across syncs: each sync's new
    /// waiters are merged in ([`merge_sorted`]), never re-sorted with
    /// the rest.
    waiting: Vec<(Time, TaskId, u32)>,
    /// Reusable merge buffer for `waiting`: one sync's new waiters.
    new_waiting: Vec<(Time, TaskId, u32)>,
    /// The append-only startable log (`(task, gen)`): tasks whose lb
    /// cleared the horizon, in arrival order. Views consume it through
    /// their cursor; cleared on epoch bumps.
    slog: Vec<(TaskId, u32)>,
    /// Low-water mark into `slog`: every record before it is stale for
    /// good — `sgen` only grows, so a record that stopped being current
    /// never becomes current again. A view re-armed by a gate-row flush
    /// starts its re-walk here instead of at index 0; raised by the
    /// walks themselves, zeroed with the log.
    slog_low: usize,

    // ---- tables ----
    /// Per-task start lower bound `max_p finish(p)` ([`Time::MAX`] =
    /// not yet computed). Valid while the task stays on the frontier:
    /// any parent remap removes and reinserts it, resetting the slot.
    lb: Vec<Time>,
    /// Per-(task, machine) lower bound on the execution start any
    /// `Append` plan for that pair can achieve, indexed `j * tasks + t`
    /// ([`Time::ZERO`] = nothing known). Seeded from computed floors and
    /// tightened to actual planned starts: within one churn segment
    /// timelines only fill in, parents never re-assign and the clock
    /// only advances, so a once observed plan start is a valid floor for
    /// every later tick — which stops the query loop from re-planning
    /// the same contention-bound candidate on every tick of a spin
    /// phase. Cleared by every rebuild, the only path on which
    /// occupation can shrink; empty above [`FLOOR_CACHE_MAX`].
    floor_cache: Vec<Time>,
    /// Per-(machine, task) §IV gate-rejection bitset, rows of
    /// `gate_row_words` words per machine. A set bit means the gate
    /// version's demand exceeded the machine's afford limit at some past
    /// query. Demand is static per scenario, so the rejection stays
    /// valid until the limit *rises* above the value it had when the bit
    /// was set — which `gate_limit` watches, making the cache
    /// self-validating: no mutation hooks, no segment-boundary clears.
    gate_dead: Vec<u64>,
    /// `tasks.div_ceil(64)`: rows are word-aligned, so a flush is one
    /// slice fill.
    gate_row_words: usize,
    /// Lowest afford limit at which any of machine `j`'s dead bits was
    /// recorded (`f64::INFINITY` = row empty): while the current limit
    /// stays `≤ gate_limit[j]` every bit still implies rejection.
    /// Reservation settlement *refunds* energy, so the limit can rise; a
    /// query seeing it above the watermark flushes the row.
    gate_limit: Vec<f64>,
    /// Reusable per-query candidate buffer.
    start_buf: Vec<TaskId>,
    /// Reusable planner storage for the query path: the costing's link
    /// overlays, and the vectors of the one plan built per commit
    /// (handed back by [`Kernel::recycle`]).
    scratch: PlanScratch,

    // ---- views + scan + latch ----
    /// Born-shed views: every query is served by the resort scan, as if
    /// the view memory cap were zero. Only [`Frontier::resort_only`]
    /// (the reference oracle) sets it.
    shed_all: bool,
    /// One view per machine.
    views: Vec<View>,
    /// Live entries (alive + deferred) across all views, for the view
    /// memory cap.
    view_entries: usize,
    /// Reusable scan buffers (scratch order, removals, write-backs).
    side_buf: SideBuf,
    /// Per-machine idle latch (see the `latch` layer): the inputs of the
    /// last `None` answer — `(epoch, startable-log length, min deferred
    /// floor)`.
    idle: Vec<Option<(u64, usize, Time)>>,
}

impl Frontier {
    /// Build the frontier for `state`'s current ready set.
    pub fn new(state: &SimState<'_>) -> Frontier {
        let mut frontier = Frontier::default();
        frontier.reset(state);
        frontier
    }

    /// Serve every query through the resort scan instead of the cached
    /// bound orders — the `Resort` reference oracle. Not reachable from
    /// any configuration.
    pub fn resort_only(mut self) -> Frontier {
        self.shed_all = true;
        self
    }

    /// Re-synchronise with `state` for a new run: every value is
    /// re-derived from the scenario exactly as a fresh frontier would
    /// derive it, while the backing vectors keep their heap capacity —
    /// the [`crate::RunContext`] capacity-never-content contract.
    pub fn reset(&mut self, state: &SimState<'_>) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
            v.clear();
            v.resize(n, value);
        }
        let sc = state.scenario();
        let machines = sc.grid.len();
        let tasks = sc.tasks();

        self.last_revision = state.revision();
        self.view_epoch = 1;
        refill(&mut self.sgen, tasks, 0);
        self.list_epoch = 0;
        self.fresh.clear();
        self.waiting.clear();
        self.slog.clear();
        self.slog_low = 0;

        refill(&mut self.lb, tasks, Time::MAX);
        let floors = tasks.saturating_mul(machines);
        refill(
            &mut self.floor_cache,
            if floors <= FLOOR_CACHE_MAX { floors } else { 0 },
            Time::ZERO,
        );
        self.gate_row_words = tasks.div_ceil(64);
        refill(&mut self.gate_dead, machines * self.gate_row_words, 0);
        refill(&mut self.gate_limit, machines, f64::INFINITY);

        self.shed_all = false;
        self.views.resize_with(machines, View::default);
        for v in &mut self.views {
            v.clear();
            // Stale against `view_epoch`: the first sync re-arms the view.
            v.epoch = 0;
        }
        self.view_entries = 0;
        refill(&mut self.idle, machines, None);
        for &t in state.ready_tasks() {
            self.insert(t);
        }
    }

    /// Open a query for machine `j`: catch up with unreported mutations
    /// and validate `j`'s gate-rejection row.
    fn open_query<'q>(
        &mut self,
        state: &'q SimState<'q>,
        objective: &'q Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
    ) -> Query<'q> {
        debug_assert!(state.is_alive(j), "drivers never query a lost machine");
        self.resync(state);
        let limit = self.gate_row_guard(state, j);
        Query {
            state,
            objective,
            j,
            now,
            horizon_end,
            limit,
        }
    }
}

/// One query's constants, as every layer reads them.
#[derive(Copy, Clone)]
struct Query<'q> {
    state: &'q SimState<'q>,
    objective: &'q Objective,
    j: MachineId,
    now: Time,
    horizon_end: Time,
    /// `j`'s afford limit, its gate-rejection row validated against it.
    limit: f64,
}

impl Kernel for Frontier {
    /// Count one commit and start a startable generation for each
    /// subtask it readied. The committed subtask left the state's ready
    /// set, which is what every record of it is checked against
    /// ([`Frontier::is_current`]). A commit only adds occupation, so
    /// every start floor stays valid. A mutation that was not reported
    /// leaves the count behind the state's revision, and the next query
    /// rebuilds ([`Frontier::resync`]).
    fn apply(&mut self, newly_ready: &[TaskId]) {
        self.last_revision += 1;
        for &t in newly_ready {
            self.insert(t);
        }
    }

    /// The committed plan's vectors become the next plan's storage.
    fn recycle(&mut self, plan: MappingPlan) {
        self.scratch.recycle(plan);
    }

    /// The best committable candidate for machine `j`: among the
    /// candidates that pass the §IV gate and whose chosen-version plan
    /// can start within the horizon, the one maximising the objective
    /// (ties toward the lower task id), as a ready-to-commit plan —
    /// [`crate::pool::Pool::first_startable`]'s selection exactly (see
    /// the module docs), in four phases over `j`'s view.
    /// The answer is the all-views-shed resort scan's, so the schedule
    /// and the `commits`, `clock_steps` and `queries` counts are
    /// byte-identical to it. `candidates_evaluated` is not: a cached
    /// order is sorted by bounds from an earlier basis and walked in that
    /// stale-bound order under a drift pad, so it can cost candidates a
    /// freshly sorted order rules out first (it usually counts more).
    fn best_startable(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        stats.queries += 1;
        let q = self.open_query(state, objective, j, now, horizon_end);
        // Filled in place: handing the view to the phases by value
        // through an `Option` measured ~5 % of a paper-scale job.
        let mut side = Side::default();
        if !self.reconcile(&q, &mut side) {
            return None;
        }
        let bound = Bound::new(&q);
        self.refresh(&bound, &mut side);
        let best = self.scan(&bound, &mut side, stats);
        self.settle(&bound, &mut side, best.is_none());
        best
    }

    /// See [`Frontier::latched_until`].
    fn wake(&self, state: &SimState<'_>, j: MachineId) -> Option<Time> {
        self.latched_until(state, j)
    }
}

#[cfg(test)]
mod tests {
    //! Fixtures shared by the layers' unit tests.

    pub(super) use super::*;
    pub(super) use adhoc_grid::config::GridCase;
    pub(super) use adhoc_grid::task::Version;
    pub(super) use adhoc_grid::units::Dur;
    pub(super) use adhoc_grid::workload::{Scenario, ScenarioParams};
    pub(super) use gridsim::plan::Placement;
    use lagrange::weights::Weights;

    pub(super) const DT: Dur = Dur(10);
    pub(super) const H: Dur = Dur(100);

    pub(super) fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    /// Three DAG levels (10 / 12 / 10 subtasks), so committing a child
    /// can ready a grandchild.
    pub(super) fn layered() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 2)
    }

    pub(super) fn objective() -> Objective {
        Objective::paper(Weights::new(0.5, 0.2).unwrap())
    }

    /// Commit `t` at the end of machine `j`'s queue and tell the
    /// frontier; returns the subtasks the commit readied.
    pub(super) fn commit_on(
        fr: &mut Frontier,
        state: &mut SimState<'_>,
        t: TaskId,
        v: Version,
        j: MachineId,
        not_before: Time,
    ) -> Vec<TaskId> {
        let plan = state.plan(t, v, j, Placement::Append { not_before });
        let newly_ready = state.commit(&plan);
        fr.apply(newly_ready);
        newly_ready.to_vec()
    }

    /// A state the clock has to wait on: every root is committed on
    /// machine 1 starting `park` from now, so each ready subtask is a
    /// child whose start lower bound sits at or past `park`.
    pub(super) fn parked<'a>(sc: &'a Scenario, park: Time) -> (SimState<'a>, Frontier) {
        let mut state = SimState::new(sc);
        let mut fr = Frontier::new(&state);
        while let Some(&root) = state
            .ready_tasks()
            .iter()
            .find(|&&t| sc.dag.parents(t).is_empty())
        {
            commit_on(
                &mut fr,
                &mut state,
                root,
                Version::Secondary,
                MachineId(1),
                park,
            );
        }
        assert!(!state.ready_tasks().is_empty(), "the roots have children");
        (state, fr)
    }

    /// One query for machine `j` with secondaries allowed, uncounted.
    pub(super) fn ask(
        fr: &mut Frontier,
        state: &SimState<'_>,
        j: MachineId,
        now: Time,
        horizon_end: Time,
    ) -> Option<MappingPlan> {
        let mut stats = RunStats::default();
        fr.best_startable(state, &objective(), j, now, horizon_end, &mut stats)
    }

    /// [`merge_sorted`] of the sorted `prefix` and an unsorted `tail`,
    /// next to the sort of the whole that it replaces.
    pub(super) fn merged_and_sorted<T: Copy>(
        prefix: &[T],
        tail: &[T],
        cmp: impl Fn(&T, &T) -> Ordering + Copy,
    ) -> (Vec<T>, Vec<T>) {
        let mut merged = prefix.to_vec();
        merged.sort_unstable_by(cmp);
        let mut moved = tail.to_vec();
        merge_sorted(&mut merged, &mut moved, cmp);
        assert!(moved.is_empty(), "the merge consumes what moved");
        let mut sorted = [prefix, tail].concat();
        sorted.sort_unstable_by(cmp);
        (merged, sorted)
    }

    /// What the paper's pool walk answers for the same query.
    pub(super) fn pool_answer(
        state: &SimState<'_>,
        j: MachineId,
        now: Time,
        horizon_end: Time,
    ) -> Option<MappingPlan> {
        crate::pool::build_pool_with(state, &objective(), j, now)
            .first_startable(horizon_end)
            .map(|e| e.plan.clone())
    }
}
