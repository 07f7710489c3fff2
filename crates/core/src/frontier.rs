//! The candidate-selection kernel: an incrementally maintained
//! ready-frontier answering "best startable candidate for machine `j`
//! now" for every driver ([`crate::mapper`], [`crate::dynamic`],
//! [`crate::open`]).
//!
//! The paper's definition re-derives the candidate pool `U` from the
//! ready set on every `(machine, tick)` query ([`crate::pool`]):
//! O(|U|·|M|) planning work per tick, slow at the paper's 4–16 machines
//! and fatal at 1000. The frontier attacks that product on five fronts:
//!
//! 1. **Incremental maintenance** — the ready/candidate frontier is kept
//!    alive across ticks, updated from the [`StateDelta`] stream that
//!    every [`SimState`] mutation already emits (a commit removes one
//!    task and inserts its newly-ready children; a worklist, never a
//!    rescan). If a delta goes missing — drivers deliberately do not
//!    report a machine-loss cascade — the frontier notices the revision
//!    gap and lazily rebuilds from [`SimState::ready_tasks`].
//! 2. **Hierarchical machine clustering** — machines are partitioned
//!    into `clusters` groups by ETC-column similarity (mean column
//!    seconds, ties toward the lower id), and contiguous task-id blocks
//!    — DAG regions, since task ids are topologically ordered — are
//!    homed onto clusters. A machine costs only its own cluster's
//!    frontier slice plus the shared *spill* list, cutting the per-query
//!    candidate count to ~|U|/clusters.
//! 3. **Start-lower-bound pruning** — no plan for task `t` can start
//!    before any parent's scheduled finish on *any* machine (a
//!    same-machine child appends after the parent's execution, a
//!    cross-machine child waits out the transfer, and the transfer
//!    itself starts no earlier than the parent's finish — see
//!    `gridsim::plan`). So `lb(t) = max_p finish(p)` is a
//!    machine-independent lower bound on every plan's start, and a
//!    candidate with `lb(t) > horizon_end` can never pass the receding
//!    horizon this tick: pruning it *before* planning is exact. This is
//!    what kills the spin phase — SLRH maps far ahead of the clock, so
//!    most ready tasks are waiting for a parent's scheduled finish to
//!    drift inside the horizon, and the frontier skips them with one
//!    comparison instead of a full placement search. `lb` is cached
//!    across ticks and invalidated by reinsertion (a parent remap always
//!    removes and reinserts the child, via the delta's `invalidated`
//!    set). A second, per-(task, machine) refinement
//!    ([`SimState::start_floor`]) adds minimum transfer durations and
//!    the machine's compute availability after the gate, discarding
//!    transfer-bound candidates — whose parents have finished but whose
//!    data cannot arrive inside the horizon — before paying for the
//!    planner's placement search.
//! 4. **Batch feasibility gating** — newcomers run the §IV energy gate
//!    as one flat pass over the demand table
//!    ([`SimState::feasible_candidates`]), rejections are remembered in
//!    a self-validating per-machine bitset, and only the survivors are
//!    ever bounded or planned.
//! 5. **Cached bound orders** — each machine's two visible lists keep a
//!    sorted permutation of gate-passing candidates by objective upper
//!    bound alive across queries ([`View`]), served under a conservative
//!    drift bound, so a query plans one or two candidates instead of
//!    re-gating, re-bounding and re-sorting the frontier. A view shed by
//!    the [`VIEW_ENTRY_CAP`] memory cap falls back to a per-query resort
//!    of its list ([`Frontier::build_scratch`]), bit-identical to the
//!    slice it replaces.
//!
//! The spill path is what keeps the partition *complete*: a candidate
//! that has sat on the frontier for `spill_after` ticks without being
//! committed by its home cluster is promoted to the spill list, where
//! every machine sees it. No candidate can be stranded by the
//! clustering — at worst it is delayed by `spill_after` ticks.
//!
//! # Exactness at `clusters = 1`
//!
//! With a single cluster every machine sees the whole frontier, and each
//! query selects the same candidate the paper's
//! [`crate::pool::Pool::first_startable`] walk selects: the pool sorts
//! by (objective desc, task asc) and takes the first entry able to start
//! within the horizon, which is precisely an argmax over startable
//! candidates under that ordering — the comparison in
//! [`Frontier::best_startable`] replays the same tie-breaks, the plans
//! come from the same [`SimState::plan_with`], and the version choice
//! replays [`crate::pool::build_pool_with`]'s primary-competes rule. The
//! stress harness proves schedule identity against [`crate::reference`]
//! on every generated case; `clusters > 1` intentionally trades that
//! identity for the ÷k candidate count.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Energy, Megabits, Time};
use gridsim::plan::{MappingPlan, Placement, PlanScratch};
use gridsim::state::{DeltaKind, SimState, StateDelta};
use lagrange::weights::Objective;

use crate::config::ScaleMode;
use crate::mapper::{Kernel, RunStats};
use crate::pool::plan_objective;
use lagrange::weights::{AetSign, ObjectiveInputs};

/// Sentinel for "not on the frontier" in [`Frontier::list_of`].
const ABSENT: u32 = u32::MAX;

/// Cap on the per-(task, machine) start-floor cache, in entries. At the
/// 65k × 256 design point the cache is 128 MiB of `Time` — acceptable
/// for an opt-in scale run; past the cap the cache is disabled (every
/// probe recomputes, bit-identical results, no memory cliff).
const FLOOR_CACHE_MAX: usize = 1 << 25;

/// Global cap on live cached-order entries (alive + floor-deferred)
/// across every per-(machine, list) view, in entries (16 bytes each).
/// A view whose drain would push the total past the cap is *shed*: its
/// storage is released and its list is served by the per-query resort
/// scan until the next epoch, so worst-case memory is bounded without a
/// correctness cliff — the resort scan is the same bit-exact path the
/// [`crate::reference`] `Resort` oracle forces on every view.
const VIEW_ENTRY_CAP: usize = 1 << 23;

/// Minimum combined upper-bound evaluations per query before the eval
/// batch is chunked over scan workers; below it the per-thread spawn
/// cost (~tens of µs) outweighs the arithmetic and the batch runs
/// inline. Chunking is execution-only: every job computes the same
/// `(index, task)` result at any worker count.
const PAR_EVAL_MIN: usize = 2048;

/// One alive candidate in a per-(machine, list) cached bound order:
/// the §IV-gate-passing, floor-admissible startable task `t` with the
/// objective upper bound any plan for it could reach on the view's
/// machine. `gen` is the task's startable generation
/// ([`Frontier::sgen`]) at entry time; a mismatch means the task left
/// the frontier (or was re-inserted) and the entry is stale.
#[derive(Copy, Clone)]
struct ViewEntry {
    /// Objective upper bound (same arithmetic as the resort scan).
    ub: f64,
    /// Task id (task counts fit u32 at every supported scale).
    t: u32,
    /// [`Frontier::sgen`] stamp at entry time.
    gen: u32,
    /// Smallest / largest chosen exec duration (ticks) over the
    /// versions the bound maximises — per-entry drift is evaluated at
    /// both (the drift is monotone in the duration, so the pair bounds
    /// every considered version).
    dlo: u64,
    dhi: u64,
    /// The metric basis `ub` was computed at. Per-entry bases make the
    /// refined drift bound exact-to-ulps for entries evaluated *after*
    /// the view's last full refresh (log newcomers, lazy write-backs),
    /// which the view-level snapshot would over-charge by the whole
    /// drift since the refresh.
    b_t100: u32,
    b_tec: f64,
    b_aet: u64,
    b_h: u64,
}

/// A per-(machine, visible-list) cached bound order: the sorted alive
/// permutation (`entries`, ordered ub desc / task asc), the candidates
/// excluded because their known start floor sits past the horizon
/// (`deferred`, revived when the horizon catches up), and the cursor
/// into the list's append-only startable log. Maintained incrementally
/// off [`StateDelta`] inserts/removes and floor raises; invalidated
/// wholesale by an epoch bump (rebuilds, unmap deltas, horizon
/// regression) and per machine by a §IV gate-row flush.
#[derive(Default)]
struct View {
    /// Matches [`Frontier::view_epoch`] when structurally valid.
    epoch: u64,
    /// [`SimState::revision`] the membership was last reconciled at.
    struct_rev: u64,
    /// Consumed prefix of the list's startable log.
    log_cursor: usize,
    /// Alive candidates, sorted (ub desc, task asc) after each sync.
    entries: Vec<ViewEntry>,
    /// Floor-excluded candidates as `Reverse((floor, task, gen))`:
    /// popped back into the alive set once `horizon_end ≥ floor`.
    deferred: BinaryHeap<Reverse<(Time, u32, u32)>>,
    /// Newcomers accepted this sync, awaiting their ub evaluation.
    pend: Vec<(u32, u32)>,
    /// Objective identity behind the cached `ub` values (weights adapt
    /// online in some modes without a state revision bump). `None`
    /// marks a view with no valid value snapshot — the next query
    /// refreshes in full.
    ub_obj: Option<Objective>,
    /// `T100` at the last full refresh — drift-bound input.
    t100_snap: usize,
    tec_snap: f64,
    /// `AET` at the last full refresh — drift-bound input.
    aet_snap: Time,
    /// Horizon end at the last full refresh — drift-bound input.
    h_snap: Time,
    /// Set when the last scan visited enough entries that resetting
    /// the drift (a full refresh) is cheaper than lazy re-evaluation.
    refresh: bool,
    /// Shed by the memory cap: serve this list via the resort scan
    /// until the next epoch.
    overflow: bool,
}

impl View {
    /// Back to the just-born state, keeping heap capacity. The drift
    /// snapshots need no reset: they are only read under a `ub_obj` that
    /// a full refresh sets together with them.
    fn clear(&mut self) {
        self.entries.clear();
        self.deferred.clear();
        self.pend.clear();
        self.log_cursor = 0;
        self.ub_obj = None;
        self.refresh = false;
        self.overflow = false;
    }

    /// Strict (ub desc, task asc) ordering — the same total order the
    /// resort scan sorts by, so a two-way merge of per-list slices
    /// replays the global sort exactly.
    fn entry_before(a: &ViewEntry, b: &ViewEntry) -> bool {
        a.ub > b.ub || (a.ub == b.ub && a.t < b.t)
    }
}

/// The live candidate frontier: every ready task, partitioned into
/// per-cluster lists plus the shared spill list. See the module docs.
///
/// `Default` is detached storage synchronised to nothing — only useful
/// as the donor for [`Frontier::reset`] ([`crate::RunContext`] keeps one
/// per worker).
#[derive(Default)]
pub(crate) struct Frontier {
    /// Ticks a candidate stays home-only before spilling.
    spill_after: u64,
    /// Per-machine cluster index (`< clusters`).
    cluster_of: Vec<u32>,
    /// Per-task home cluster (contiguous task-id blocks).
    home_of: Vec<u32>,
    /// `lists[c]`, `c < clusters`: candidates visible only to cluster
    /// `c`. `lists[clusters]`: the spill list, visible to every machine.
    lists: Vec<Vec<TaskId>>,
    /// Which list each task is on (`ABSENT` when not on the frontier).
    list_of: Vec<u32>,
    /// Index of each frontier task within its list.
    pos: Vec<u32>,
    /// FIFO of `(due_tick, task)` spill promotions; entries for tasks
    /// that left the frontier in the meantime are skipped on pop.
    /// Unused (kept empty) with a single cluster.
    pending: VecDeque<(u64, TaskId)>,
    /// Clock-tick index, advanced by [`Frontier::begin_tick`].
    tick: u64,
    /// The [`SimState::revision`] the lists are synchronised to.
    last_revision: u64,
    /// Set on a delta-stream gap; forces a rebuild on the next query.
    stale: bool,
    /// Reusable planner buffers for the query path.
    scratch: PlanScratch,
    /// Reusable batch-gate output.
    gate_buf: Vec<TaskId>,
    /// Per-task start lower bound `max_p finish(p)` ([`Time::MAX`] =
    /// not yet computed). Valid while the task stays on the frontier:
    /// any parent remap removes and reinserts it, resetting the slot.
    lb: Vec<Time>,
    /// Epoch of the startable caches; bumped by [`Frontier::begin_tick`]
    /// and [`Frontier::rebuild`] so every cache goes stale.
    stamp: u64,
    /// `startable[li]`: the lb-pruned slice of `lists[li]`, built once
    /// per `(stamp, list)` on first query. May hold stale entries (tasks
    /// committed or inserted later in the same tick); consumers re-check
    /// membership and `lb` per entry.
    startable: Vec<Vec<TaskId>>,
    /// The `stamp` each `startable[li]` was built at.
    startable_stamp: Vec<u64>,
    /// The horizon end the startable caches were built for (defensive:
    /// all queries within a tick share it).
    startable_horizon: Time,
    /// Reusable per-query buffer of checked startable candidates.
    start_buf: Vec<TaskId>,
    /// Per-(task, machine) lower bound on the execution start any
    /// `Append` plan for that pair can achieve, indexed
    /// `j * tasks + t` ([`Time::ZERO`] = nothing known — trivially
    /// true). Seeded from computed floors and tightened to actual
    /// planned starts: within one churn segment timelines only fill in,
    /// parents never re-assign and the clock only advances, so a once
    /// observed plan start is a valid floor for every later tick. This
    /// is what stops the query loop from re-planning the same
    /// contention-bound candidate (floor inside the horizon, placement
    /// search pushing the start out of it) on every tick of a spin
    /// phase. Cleared whenever occupation can shrink (rebuilds, unmap
    /// deltas); empty above [`FLOOR_CACHE_MAX`].
    floor_cache: Vec<Time>,
    /// Per-(machine, task) §IV gate-rejection bitset, rows of
    /// [`Frontier::gate_row_words`] words per machine. A set bit means
    /// the gate version's demand exceeded the machine's afford limit at
    /// some past query. Demand is static per scenario, so the rejection
    /// stays valid for as long as the limit does not *rise* above the
    /// value it had when the bit was set — which [`Frontier::gate_limit`]
    /// watches, making the cache self-validating: no delta hooks, no
    /// segment-boundary clears.
    gate_dead: Vec<u64>,
    /// Words per machine row of [`Frontier::gate_dead`]
    /// (`tasks.div_ceil(64)` — rows are word-aligned so a flush is one
    /// slice fill).
    gate_row_words: usize,
    /// Lowest afford limit at which any of machine `j`'s dead bits was
    /// recorded (`f64::INFINITY` = row empty). Every recorded rejection
    /// had `demand > limit_at_recording ≥ gate_limit[j]`, so while the
    /// current limit stays `≤ gate_limit[j]` every bit still implies
    /// rejection. Reservation settlement *refunds* energy (the limit can
    /// rise): a query seeing `afford_limit(j) > gate_limit[j]` flushes
    /// the row and starts over.
    gate_limit: Vec<f64>,
    /// Per-task parent costing tuples for the floor probe, valid while
    /// `ptuple_stamp[t] == ptuple_gen`: parent order is preserved and
    /// each entry carries exactly what
    /// [`SimState::candidate_floor_cost`] reads per parent — the
    /// assignment's machine and finish, and the edge size scaled by the
    /// mapped version. All static while `t` sits ready on the frontier
    /// (its parents are mapped and never silently re-assigned: any unmap
    /// removes and reinserts `t`, resetting the stamp), so the probe
    /// skips the per-parent assignment and O(fan-in) edge-size lookups.
    ptuples: Vec<Vec<ParentCost>>,
    /// Validity stamp per task; matches [`Frontier::ptuple_gen`] when
    /// [`Frontier::ptuples`] is current.
    ptuple_stamp: Vec<u64>,
    /// Generation counter for [`Frontier::ptuple_stamp`]; bumped
    /// whenever scheduled finishes can move (rebuilds, unmap deltas) —
    /// the same events that clear the start-floor cache. Starts at 1 so
    /// stamp 0 is always stale.
    ptuple_gen: u64,

    // ---- cached-bound-order machinery ----
    /// Born-shed views: every list is served by the per-query resort
    /// scan, as if [`VIEW_ENTRY_CAP`] were zero. Only
    /// [`Frontier::resort_only`] (the reference oracle) sets it.
    shed_all: bool,
    /// Generation counter for views, logs and per-list startability
    /// structures; bumped by rebuilds, unmap deltas and (defensively)
    /// horizon regression. Starts at 1 so every epoch-0 structure is
    /// born stale.
    view_epoch: u64,
    /// Per-task startable generation, bumped on every (re)insert; log,
    /// waiting and view entries carry the generation they were made at
    /// and are stale on mismatch.
    sgen: Vec<u32>,
    /// The [`Frontier::view_epoch`] each list's log/waiting/fresh
    /// structures are valid for.
    list_epoch: Vec<u64>,
    /// Per-list inserts not yet scored against the horizon
    /// (`(task, gen)`, drained by [`Frontier::sync_list`]).
    fresh: Vec<Vec<(TaskId, u32)>>,
    /// Per-list candidates whose start lower bound still exceeds the
    /// horizon (`(lb, task, gen)`, sorted lb-descending so the tail is
    /// the next to become startable). Each candidate is scored once per
    /// list residence instead of once per tick.
    waiting: Vec<Vec<(Time, TaskId, u32)>>,
    /// Per-list append-only startable log (`(task, gen)`): tasks whose
    /// lb cleared the horizon, in a deterministic arrival order. Views
    /// consume it through their cursor; cleared on epoch bumps.
    slog: Vec<Vec<(TaskId, u32)>>,
    /// Per-(machine, visible-slot) views: `views[2j]` tracks machine
    /// `j`'s home-cluster list, `views[2j + 1]` the spill list.
    views: Vec<View>,
    /// Per-machine idle latch. A query that returns `None` proves both
    /// views drained empty (every scanned entry was planned, deferred
    /// past the horizon, or dropped), so the answer stays `None` until
    /// something that can resurrect a candidate happens: an epoch
    /// change, a gate-row flush, a new startable-log arrival on either
    /// visible list, or the horizon reaching the earliest deferred
    /// floor. The stamp records exactly those inputs —
    /// `(epoch, slog_len(l0), slog_len(l1), min deferred floor)`.
    idle: Vec<Option<(u64, usize, usize, Time)>>,
    /// Live entries (alive + deferred) across all views, for
    /// [`VIEW_ENTRY_CAP`].
    view_entries: usize,
    /// Last horizon end served (horizon regression ⇒ epoch bump).
    last_horizon: Time,
    /// First-seen `allow_secondary` (a flip invalidates cached gate
    /// results and bounds ⇒ epoch bump).
    last_secondary: Option<bool>,
    /// Reusable eval-job buffer for the cached query path.
    eval_jobs: Vec<u32>,
    /// Reusable scratch bound orders for shed/resort-served lists.
    scratch_orders: [Vec<ViewEntry>; 2],
    /// Reusable per-side removal records from the plan loop: entry
    /// index plus `Some(floor)` to defer (floor past the horizon) or
    /// `None` to drop outright (stale or gate-dead).
    defer_buf: [Vec<(u32, Option<Time>)>; 2],
    /// Scan write-back scratch: `(entry index, exact ub)` per side.
    /// Lazily evaluated values are written back with the current metric
    /// basis, so the next query's per-entry drift starts from zero
    /// instead of re-paying the evaluation.
    wb_buf: [Vec<(u32, f64)>; 2],
}

/// One parent's contribution to the start-floor / transfer-energy probe.
#[derive(Copy, Clone)]
struct ParentCost {
    /// Machine the parent is mapped on.
    from: MachineId,
    /// The parent's scheduled finish.
    fin: Time,
    /// Edge size scaled by the parent's mapped version.
    size: Megabits,
}

impl Frontier {
    /// Build the frontier for `state`'s current ready set, clustering
    /// the scenario's machines by ETC-column similarity.
    pub fn new(state: &SimState<'_>, mode: ScaleMode) -> Frontier {
        let mut frontier = Frontier::default();
        frontier.reset(state, mode);
        frontier
    }

    /// Serve every query through the per-list resort scan instead of the
    /// cached bound orders — the `Resort` reference oracle. Not
    /// reachable from any configuration.
    pub fn resort_only(mut self) -> Frontier {
        self.shed_all = true;
        self
    }

    /// Re-synchronise with `state` for a new run: every value is
    /// re-derived from the scenario exactly as a fresh frontier would
    /// derive it, while the backing vectors keep their heap capacity —
    /// the [`crate::RunContext`] capacity-never-content contract.
    pub fn reset(&mut self, state: &SimState<'_>, mode: ScaleMode) {
        fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
            v.clear();
            v.resize(n, value);
        }
        fn refill_lists<T>(v: &mut Vec<Vec<T>>, n: usize) {
            v.resize_with(n, Vec::new);
            v.iter_mut().for_each(Vec::clear);
        }
        let sc = state.scenario();
        let machines = sc.grid.len();
        let tasks = sc.tasks();
        let clusters = (mode.clusters.max(1) as usize).min(machines);

        // ETC-similarity clustering: rank machines by mean column
        // seconds (ties toward the lower id — deterministic) and cut the
        // ranking into `clusters` near-equal contiguous groups.
        let means = sc.etc.machine_mean_seconds();
        let mut ranked: Vec<usize> = (0..machines).collect();
        ranked.sort_by(|&a, &b| {
            means[a]
                .partial_cmp(&means[b])
                .expect("ETC means are finite")
                .then(a.cmp(&b))
        });
        refill(&mut self.cluster_of, machines, 0);
        for (rank, &j) in ranked.iter().enumerate() {
            self.cluster_of[j] = (rank * clusters / machines) as u32;
        }

        // DAG regions: task ids are topologically ordered, so contiguous
        // id blocks are contiguous DAG regions; block `c` is homed on
        // cluster `c`.
        self.home_of.clear();
        self.home_of
            .extend((0..tasks).map(|t| (t * clusters / tasks) as u32));

        self.spill_after = mode.spill_after;
        refill_lists(&mut self.lists, clusters + 1);
        refill(&mut self.list_of, tasks, ABSENT);
        refill(&mut self.pos, tasks, 0);
        self.pending.clear();
        self.tick = 0;
        self.last_revision = state.revision();
        self.stale = false;
        refill(&mut self.lb, tasks, Time::MAX);
        // stamp starts ahead of every startable_stamp so the caches
        // are stale until the first query builds them.
        self.stamp = 1;
        refill_lists(&mut self.startable, clusters + 1);
        refill(&mut self.startable_stamp, clusters + 1, 0);
        self.startable_horizon = Time::MAX;
        let floors = tasks.saturating_mul(machines);
        refill(
            &mut self.floor_cache,
            if floors <= FLOOR_CACHE_MAX { floors } else { 0 },
            Time::ZERO,
        );
        self.gate_row_words = tasks.div_ceil(64);
        refill(&mut self.gate_dead, machines * self.gate_row_words, 0);
        refill(&mut self.gate_limit, machines, f64::INFINITY);
        refill_lists(&mut self.ptuples, tasks);
        refill(&mut self.ptuple_stamp, tasks, 0);
        self.ptuple_gen = 1;
        self.shed_all = false;
        self.view_epoch = 1;
        refill(&mut self.sgen, tasks, 0);
        refill(&mut self.list_epoch, clusters + 1, 0);
        refill_lists(&mut self.fresh, clusters + 1);
        refill_lists(&mut self.waiting, clusters + 1);
        refill_lists(&mut self.slog, clusters + 1);
        self.views.resize_with(machines * 2, View::default);
        for v in &mut self.views {
            v.clear();
            // Stale against `view_epoch`: the first sync re-arms the view.
            v.epoch = 0;
        }
        refill(&mut self.idle, machines, None);
        self.view_entries = 0;
        self.last_horizon = Time::ZERO;
        self.last_secondary = None;
        for &t in state.ready_tasks() {
            self.insert(t);
        }
    }

    fn clusters(&self) -> usize {
        self.lists.len() - 1
    }

    /// Total candidates currently on the frontier.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Put `t` on its home list (no-op if already on the frontier) and,
    /// when clustering is active, schedule its spill promotion.
    fn insert(&mut self, t: TaskId) {
        if self.list_of[t.0] != ABSENT {
            return;
        }
        let li = self.home_of[t.0] as usize;
        self.list_of[t.0] = li as u32;
        self.pos[t.0] = self.lists[li].len() as u32;
        self.lists[li].push(t);
        self.lb[t.0] = Time::MAX;
        // A (re)insert starts a fresh startable generation: any log,
        // waiting or view entry carrying the old one is now stale.
        self.sgen[t.0] = self.sgen[t.0].wrapping_add(1);
        self.fresh[li].push((t, self.sgen[t.0]));
        // Reinsertion after a parent remap: the parents' placements may
        // have changed, so any cached costing tuples are stale.
        self.ptuple_stamp[t.0] = 0;
        // A mid-tick insert (a commit's newly-ready child) must be seen
        // by the machines queried later this tick: if the list's
        // startable cache is already built, append the task — consumers
        // re-check `lb` per entry, so an unstartable child costs one
        // comparison, not a missed candidate.
        if self.startable_stamp[li] == self.stamp {
            self.startable[li].push(t);
        }
        if self.clusters() > 1 {
            self.pending
                .push_back((self.tick.saturating_add(self.spill_after), t));
        }
    }

    /// Remove `t` from whatever list holds it (no-op when absent).
    fn remove(&mut self, t: TaskId) {
        let li = self.list_of[t.0];
        if li == ABSENT {
            return;
        }
        let p = self.pos[t.0] as usize;
        let list = &mut self.lists[li as usize];
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos[moved.0] = p as u32;
        }
        self.list_of[t.0] = ABSENT;
    }

    /// Move `t` from its home list to the spill list (no-op when `t`
    /// already spilled or left the frontier).
    fn promote_to_spill(&mut self, t: TaskId) {
        let spill = self.clusters() as u32;
        if self.list_of[t.0] == ABSENT || self.list_of[t.0] == spill {
            return;
        }
        self.remove(t);
        self.list_of[t.0] = spill;
        self.pos[t.0] = self.lists[spill as usize].len() as u32;
        self.lists[spill as usize].push(t);
        // Same generation, new list: home-list log/view entries go
        // stale through the list check; the spill list scores the task
        // through its own fresh queue (the lb is already cached).
        self.fresh[spill as usize].push((t, self.sgen[t.0]));
    }

    /// Rebuild the lists from the state's ready set (the resync path —
    /// segment starts and delta-stream gaps). Spill timers restart.
    fn rebuild(&mut self, state: &SimState<'_>) {
        for list in &mut self.lists {
            list.clear();
        }
        self.pending.clear();
        for slot in &mut self.list_of {
            *slot = ABSENT;
        }
        for slot in &mut self.lb {
            *slot = Time::MAX;
        }
        self.floor_cache.fill(Time::ZERO);
        self.ptuple_gen = self.ptuple_gen.wrapping_add(1);
        self.stamp = self.stamp.wrapping_add(1);
        // Every cached bound order is rooted in floors and logs that
        // just went stale — including the floor copies held by deferred
        // entries, which would otherwise outlive the cleared
        // floor cache and wrongly exclude churn-reinserted tasks.
        self.view_epoch = self.view_epoch.wrapping_add(1);
        for &t in state.ready_tasks() {
            self.insert(t);
        }
        self.last_revision = state.revision();
        self.stale = false;
    }

    /// The cached start floor of `(t, j)` — [`Time::ZERO`] when nothing
    /// is known (or the cache is size-capped out).
    fn cached_floor(&self, t: TaskId, j: MachineId) -> Time {
        if self.floor_cache.is_empty() {
            return Time::ZERO;
        }
        self.floor_cache[j.0 * self.list_of.len() + t.0]
    }

    /// Record that no `Append` plan for `(t, j)` can start before `to`.
    fn raise_floor(&mut self, t: TaskId, j: MachineId, to: Time) {
        if self.floor_cache.is_empty() {
            return;
        }
        let slot = &mut self.floor_cache[j.0 * self.list_of.len() + t.0];
        *slot = (*slot).max(to);
    }

    /// Validate machine `j`'s gate-rejection row against the current
    /// afford limit (flushing it if the limit rose past the watermark —
    /// see [`Frontier::gate_limit`]) and return the limit plus whether
    /// a flush happened (a flush revives bit-excluded candidates, so
    /// the machine's cached bound orders must rebuild from the log).
    fn gate_row_guard(&mut self, state: &SimState<'_>, j: MachineId) -> (f64, bool) {
        let limit = state.ledger().afford_limit(j);
        let mut flushed = false;
        if limit > self.gate_limit[j.0] {
            let row = j.0 * self.gate_row_words;
            self.gate_dead[row..row + self.gate_row_words].fill(0);
            self.gate_limit[j.0] = f64::INFINITY;
            flushed = true;
        }
        (limit, flushed)
    }

    /// True when `(t, j)` is known gate-rejected (only meaningful after
    /// [`Frontier::gate_row_guard`] validated the row this query).
    fn gate_dead_bit(&self, t: TaskId, j: MachineId) -> bool {
        self.gate_dead[j.0 * self.gate_row_words + t.0 / 64] & (1 << (t.0 % 64)) != 0
    }

    /// Record the §IV rejections of one batch-gate call: every task in
    /// `cand` missing from `gate` (the gate preserves order, so one
    /// lockstep walk finds them) failed `demand > limit` and stays
    /// infeasible until the machine's limit rises past `limit`.
    fn mark_gate_rejections(&mut self, cand: &[TaskId], gate: &[TaskId], j: MachineId, limit: f64) {
        if cand.len() == gate.len() {
            return;
        }
        let row = j.0 * self.gate_row_words;
        let mut gi = 0;
        for &t in cand {
            if gate.get(gi) == Some(&t) {
                gi += 1;
                continue;
            }
            self.gate_dead[row + t.0 / 64] |= 1 << (t.0 % 64);
        }
        self.gate_limit[j.0] = self.gate_limit[j.0].min(limit);
    }

    /// Record one candidate's §IV rejection at `limit` — the lazy
    /// scan's counterpart of [`Frontier::mark_gate_rejections`], same
    /// dead bit and watermark semantics.
    fn mark_gate_rejection(&mut self, t: TaskId, j: MachineId, limit: f64) {
        self.gate_dead[j.0 * self.gate_row_words + t.0 / 64] |= 1 << (t.0 % 64);
        self.gate_limit[j.0] = self.gate_limit[j.0].min(limit);
    }

    /// [`SimState::candidate_floor_cost`] served from the per-task
    /// parent tuples: identical per-parent expressions in identical
    /// parent order, so both the floor and the accumulated transfer
    /// energy are bit-for-bit what the state probe computes — without
    /// its per-parent assignment and O(fan-in) edge-size lookups.
    fn floor_cost(
        &mut self,
        state: &SimState<'_>,
        t: TaskId,
        j: MachineId,
        not_before: Time,
    ) -> (Time, Energy) {
        let sc = state.scenario();
        if self.ptuple_stamp[t.0] != self.ptuple_gen {
            let tuples = &mut self.ptuples[t.0];
            tuples.clear();
            for &p in sc.dag.parents(t) {
                let pa = state
                    .schedule()
                    .assignment(p)
                    .expect("frontier tasks are ready: every parent is mapped");
                tuples.push(ParentCost {
                    from: pa.machine,
                    fin: pa.finish(),
                    size: sc.data.edge(&sc.dag, p, t).scaled(pa.version.data_factor()),
                });
            }
            self.ptuple_stamp[t.0] = self.ptuple_gen;
        }
        let to_spec = sc.grid.machine(j);
        let mut floor = not_before.max(state.compute_ready(j));
        let mut tx_energy = Energy::ZERO;
        for pc in &self.ptuples[t.0] {
            if pc.from == j {
                floor = floor.max(pc.fin);
                continue;
            }
            let from_spec = sc.grid.machine(pc.from);
            let dur = from_spec.transfer_dur(to_spec, pc.size);
            floor = floor.max(pc.fin.max(not_before) + dur);
            tx_energy += from_spec.transmit_energy(dur);
        }
        (floor, tx_energy)
    }

    fn resync(&mut self, state: &SimState<'_>) {
        if self.stale || state.revision() != self.last_revision {
            self.rebuild(state);
        }
    }

    /// The lists machine `j` sees: its home cluster's, then the spill
    /// list.
    fn visible_lists(&self, j: MachineId) -> [usize; 2] {
        [self.cluster_of[j.0] as usize, self.clusters()]
    }

    /// The cached start lower bound of frontier task `t`: the latest
    /// scheduled finish among its parents (all mapped, by readiness).
    /// Computed lazily — the delta stream that inserts `t` has no state
    /// access — and reused across ticks.
    fn lb_of(lb: &mut [Time], state: &SimState<'_>, t: TaskId) -> Time {
        let cached = lb[t.0];
        if cached != Time::MAX {
            return cached;
        }
        let mut bound = Time::ZERO;
        for &p in state.scenario().dag.parents(t) {
            let a = state
                .schedule()
                .assignment(p)
                .expect("frontier tasks are ready: every parent is mapped");
            bound = bound.max(a.finish());
        }
        lb[t.0] = bound;
        bound
    }

    /// Collect list `li`'s candidates whose start lower bound clears the
    /// horizon into `out`. The full-list lb scan runs once per
    /// `(tick, list)` and is cached; consuming re-checks membership and
    /// `lb` per cached entry because commits and inserts earlier in the
    /// same tick mutate both (a committed task goes stale in the cache,
    /// a newly-ready child is appended by [`Frontier::insert`]).
    fn collect_startable(
        &mut self,
        state: &SimState<'_>,
        li: usize,
        horizon_end: Time,
        out: &mut Vec<TaskId>,
    ) {
        if self.startable_horizon != horizon_end {
            self.stamp = self.stamp.wrapping_add(1);
            self.startable_horizon = horizon_end;
        }
        if self.startable_stamp[li] != self.stamp {
            self.startable[li].clear();
            for idx in 0..self.lists[li].len() {
                let t = self.lists[li][idx];
                if Self::lb_of(&mut self.lb, state, t) <= horizon_end {
                    self.startable[li].push(t);
                }
            }
            self.startable_stamp[li] = self.stamp;
        }
        for idx in 0..self.startable[li].len() {
            let t = self.startable[li][idx];
            if self.list_of[t.0] != li as u32 {
                continue;
            }
            if Self::lb_of(&mut self.lb, state, t) <= horizon_end {
                out.push(t);
            }
        }
    }

    /// Bring list `li`'s startability structures up to the horizon:
    /// score queued inserts against their start lower bound (into the
    /// startable log or the lb-sorted waiting set), then drain every
    /// waiting candidate the advancing horizon has reached into the
    /// log. Each candidate is scored once per list residence instead
    /// of being rescanned every tick; the log is the deterministic,
    /// append-only arrival order all of the list's views consume.
    fn sync_list(&mut self, state: &SimState<'_>, li: usize, horizon_end: Time) {
        if self.list_epoch[li] != self.view_epoch {
            self.fresh[li].clear();
            self.waiting[li].clear();
            self.slog[li].clear();
            for k in 0..self.lists[li].len() {
                let t = self.lists[li][k];
                self.fresh[li].push((t, self.sgen[t.0]));
            }
            self.list_epoch[li] = self.view_epoch;
        }
        if !self.fresh[li].is_empty() {
            let mut waited = false;
            for k in 0..self.fresh[li].len() {
                let (t, g) = self.fresh[li][k];
                if self.sgen[t.0] != g || self.list_of[t.0] != li as u32 {
                    continue;
                }
                let lb = Self::lb_of(&mut self.lb, state, t);
                if lb <= horizon_end {
                    self.slog[li].push((t, g));
                } else {
                    self.waiting[li].push((lb, t, g));
                    waited = true;
                }
            }
            self.fresh[li].clear();
            if waited {
                // Descending, so the tail is the next candidate the
                // horizon will reach; full-tuple order keeps equal-lb
                // drains deterministic.
                self.waiting[li].sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        while let Some(&(lb, t, g)) = self.waiting[li].last() {
            if lb > horizon_end {
                break;
            }
            self.waiting[li].pop();
            if self.sgen[t.0] == g && self.list_of[t.0] == li as u32 {
                self.slog[li].push((t, g));
            }
        }
    }

    /// Structural half of a view sync: reconcile membership with the
    /// current revision, re-gate when the afford limit fell, drain new
    /// log entries and horizon-reached deferrals into `pend` (gated,
    /// floor-checked, awaiting ub evaluation), and enforce the memory
    /// cap. Alive entries keep their sorted order throughout — removal
    /// preserves relative order, so only appended newcomers can dirty
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn sync_view_structural(
        &mut self,
        v: &mut View,
        state: &SimState<'_>,
        j: MachineId,
        li: usize,
        now: Time,
        horizon_end: Time,
        limit: f64,
        gate_version: Version,
    ) {
        if v.epoch != self.view_epoch {
            self.view_entries -= v.entries.len() + v.deferred.len();
            v.clear();
            v.overflow = self.shed_all;
            v.epoch = self.view_epoch;
        }
        if v.overflow {
            return;
        }
        v.pend.clear();
        v.struct_rev = state.revision();
        // Entries whose §IV gate verdict went stale (the afford limit
        // falls as commits drain energy) are caught lazily, at scan
        // time, by a per-candidate demand check — a falling limit can
        // only *remove* candidates, and a removed candidate's stale ub
        // stays a valid upper bound for the early-exit logic until the
        // scan reaches and drops it.
        // Newcomers from the startable log, in arrival order.
        let log_len = self.slog[li].len();
        if v.log_cursor < log_len {
            for k in v.log_cursor..log_len {
                let (t, g) = self.slog[li][k];
                if self.sgen[t.0] != g || self.list_of[t.0] != li as u32 {
                    continue;
                }
                if self.gate_dead_bit(t, j) {
                    continue;
                }
                // Admission floor: the *exact* start floor, not the
                // lazily-raised cache. Most arrivals are data-bound far
                // past the horizon; deferring them here (the same
                // verdict the scan's floor stage would reach, so the
                // schedule is unchanged) skips the whole
                // gate/eval/scan pipeline for the deferred mass. The
                // floor only grows with `now`, so an early defer can
                // only revive early and recheck.
                let f = self.cached_floor(t, j);
                if f > horizon_end {
                    v.deferred.push(Reverse((f, t.0 as u32, g)));
                    self.view_entries += 1;
                    continue;
                }
                let (f, _) = self.floor_cost(state, t, j, now);
                if f > horizon_end {
                    self.raise_floor(t, j, f);
                    v.deferred.push(Reverse((f, t.0 as u32, g)));
                    self.view_entries += 1;
                    continue;
                }
                v.pend.push((t.0 as u32, g));
            }
            v.log_cursor = log_len;
        }
        // Deferred revival: floors are monotone within an epoch, so a
        // deferral sleeps until the horizon reaches its recorded floor,
        // then re-checks everything fresh (membership, gate, the floor
        // itself — which may have been raised meanwhile).
        while let Some(&Reverse((floor, tu, g))) = v.deferred.peek() {
            if floor > horizon_end {
                break;
            }
            v.deferred.pop();
            self.view_entries -= 1;
            let t = TaskId(tu as usize);
            if self.sgen[tu as usize] != g || self.list_of[tu as usize] != li as u32 {
                continue;
            }
            if self.gate_dead_bit(t, j) {
                continue;
            }
            let f = self.cached_floor(t, j);
            if f > horizon_end {
                v.deferred.push(Reverse((f, tu, g)));
                self.view_entries += 1;
                continue;
            }
            v.pend.push((tu, g));
        }
        // Gate the accepted newcomers at the current limit.
        if !v.pend.is_empty() {
            let mut cand = std::mem::take(&mut self.start_buf);
            cand.clear();
            cand.extend(v.pend.iter().map(|&(t, _)| TaskId(t as usize)));
            let mut gate = std::mem::take(&mut self.gate_buf);
            gate.clear();
            state.feasible_candidates(&cand, gate_version, j, &mut gate);
            self.mark_gate_rejections(&cand, &gate, j, limit);
            if gate.len() != cand.len() {
                let mut gi = 0usize;
                v.pend.retain(|&(t, _)| {
                    if gate.get(gi) == Some(&TaskId(t as usize)) {
                        gi += 1;
                        true
                    } else {
                        false
                    }
                });
            }
            self.start_buf = cand;
            self.gate_buf = gate;
        }
        if self.view_entries + v.pend.len() > VIEW_ENTRY_CAP {
            // Shed: release the storage and serve this list through the
            // resort scan until the next epoch retries.
            self.view_entries -= v.entries.len() + v.deferred.len();
            v.clear();
            v.overflow = true;
            return;
        }
        self.view_entries += v.pend.len();
    }

    /// A conservative f64 upper bound on how much *any* alive entry's
    /// exact ub can have risen since the view's last full refresh.
    ///
    /// Within an epoch every metric the bound depends on moves one way:
    /// `T100` and `TEC` only grow (commits map tasks and spend energy),
    /// `AET` only grows (schedules only extend), and the horizon end
    /// only advances (a regression bumps the epoch). Of the three
    /// objective terms, the `TEC` term only *lowers* the ub as `TEC`
    /// grows, and the `AET` term only lowers it under the negative-sign
    /// ablation — so the rise is bounded by the `T100` term's drift
    /// plus (positive sign only) the `AET` term's drift, the latter
    /// bounded via the 1-Lipschitz `max`: `Δmax(aet, h+d) ≤ max(Δaet,
    /// Δh)` exactly, in integer time, for every entry duration `d`.
    /// Every float op along both bounds is a monotone rounding of a
    /// monotone real function, so the real-arithmetic bound carries
    /// over up to a few ULPs of O(1) magnitudes — swamped by the
    /// `DRIFT_SLOP` margin. Overestimating is safe: the bound is only
    /// used to *keep* scanning (a too-large drift visits entries the
    /// exact scan would have skipped, never the reverse).
    fn drift_bound(
        v: &View,
        objective: &Objective,
        m: &gridsim::metrics::Metrics,
        horizon_end: Time,
        positive: bool,
        tasks_f: f64,
        tau_s: f64,
    ) -> f64 {
        const DRIFT_SLOP: f64 = 1e-9;
        let w = &objective.weights;
        let mut d = w.alpha() * ((m.t100 - v.t100_snap) as f64) / tasks_f;
        // Every entry's TEC term moved by exactly `-β·ΔTEC/TSE` (the
        // per-candidate exec energy cancels in the difference), so the
        // uniform pad credits it — commits only consume energy, and
        // without the credit the pad is loose by the whole drain.
        d -= w.beta() * (m.tec.units() - v.tec_snap) / m.tse.units();
        if positive {
            let da = m.aet.0.saturating_sub(v.aet_snap.0);
            let dh = horizon_end.0.saturating_sub(v.h_snap.0);
            d += w.gamma() * Time(da.max(dh)).as_seconds() / tau_s;
        }
        (d + d.abs() * DRIFT_SLOP + DRIFT_SLOP).max(0.0)
    }

    /// Write one view's share of the eval batch back: refresh every
    /// alive ub on a full pass (resetting the drift snapshot to the
    /// current metrics), append the evaluated newcomers, then restore
    /// the sort if anything moved. Newcomers evaluated at *later*
    /// metrics than the snapshot stay safe under the snapshot's drift
    /// bound — drift is nonnegative and additive over time. The
    /// sortedness check is the steady-state fast path: appends usually
    /// land in bound order.
    #[allow(clippy::too_many_arguments)]
    fn apply_eval(
        v: &mut View,
        full: bool,
        res: &[f64],
        chosen_d: &impl Fn(u32) -> (u64, u64),
        m: &gridsim::metrics::Metrics,
        horizon_end: Time,
        objective: &Objective,
    ) {
        let mut it = res.iter();
        let (b_t100, b_tec, b_aet, b_h) =
            (m.t100 as u32, m.tec.units(), m.aet.0, horizon_end.0);
        if full {
            for e in &mut v.entries {
                e.ub = *it.next().expect("one result per job");
                e.b_t100 = b_t100;
                e.b_tec = b_tec;
                e.b_aet = b_aet;
                e.b_h = b_h;
            }
            v.t100_snap = m.t100;
            v.tec_snap = m.tec.units();
            v.aet_snap = m.aet;
            v.h_snap = horizon_end;
            v.ub_obj = Some(*objective);
            v.refresh = false;
        }
        let dirty = full || !v.pend.is_empty();
        for k in 0..v.pend.len() {
            let (t, gen) = v.pend[k];
            let ub = *it.next().expect("one result per job");
            let (dlo, dhi) = chosen_d(t);
            v.entries.push(ViewEntry {
                ub,
                t,
                gen,
                dlo,
                dhi,
                b_t100,
                b_tec,
                b_aet,
                b_h,
            });
        }
        v.pend.clear();
        if dirty {
            Self::restore_sort(&mut v.entries);
        }
    }

    /// Reset one view to its just-born state (gate-row flush: the flush
    /// revived bit-excluded candidates, so the alive set must rebuild
    /// from the log; the log itself and the list structures survive).
    fn reset_view(&mut self, slot: usize) {
        let v = &mut self.views[slot];
        self.view_entries -= v.entries.len() + v.deferred.len();
        v.clear();
        v.overflow = self.shed_all;
    }

    /// Write lazily evaluated exact ubs back into the alive set with
    /// the metric basis they were computed at, so the next query's
    /// per-entry drift bound starts from zero. Runs before the defer
    /// compaction (indices address the scanned layout); the caller
    /// restores the sort afterwards.
    fn apply_writebacks(v: &mut View, wb: &[(u32, f64)], basis: (u32, f64, u64, u64)) {
        for &(i, ub) in wb {
            let e = &mut v.entries[i as usize];
            e.ub = ub;
            e.b_t100 = basis.0;
            e.b_tec = basis.1;
            e.b_aet = basis.2;
            e.b_h = basis.3;
        }
    }

    /// Refold the view-level drift basis to the per-component extremes
    /// over the alive entries' bases — min `T100`/`AET`/`h`, max `TEC`
    /// (each the direction that maximises drift), so the uniform
    /// early-exit pad equals the tightest sound bound on any entry's
    /// per-entry drift instead of decaying with the age of the last
    /// full refresh. An empty side snaps to the current metrics (zero
    /// drift).
    fn refold_basis(v: &mut View, m: &gridsim::metrics::Metrics, horizon_end: Time, tec_u: f64) {
        let (mut t100, mut tec, mut aet, mut h) = (m.t100 as u32, tec_u, m.aet.0, horizon_end.0);
        if let Some((first, rest)) = v.entries.split_first() {
            t100 = first.b_t100;
            tec = first.b_tec;
            aet = first.b_aet;
            h = first.b_h;
            for e in rest {
                t100 = t100.min(e.b_t100);
                tec = tec.max(e.b_tec);
                aet = aet.min(e.b_aet);
                h = h.min(e.b_h);
            }
        }
        v.t100_snap = t100 as usize;
        v.tec_snap = tec;
        v.aet_snap = Time(aet);
        v.h_snap = Time(h);
    }

    /// Re-establish the (ub desc, task asc) order if an update broke it
    /// — the early-exit logic of the next scan depends on it.
    fn restore_sort(entries: &mut [ViewEntry]) {
        if !entries.windows(2).all(|w| View::entry_before(&w[0], &w[1])) {
            entries.sort_unstable_by(|a, b| {
                b.ub.partial_cmp(&a.ub)
                    .expect("objective bounds are finite")
                    .then(a.t.cmp(&b.t))
            });
        }
    }

    /// Apply the scan's removals to the alive set: `Some(floor)` moves
    /// the entry into the deferred heap (floor past the horizon, either
    /// probed or planned), `None` drops it outright (stale membership
    /// or gate-dead). Returns how many entries were dropped (the
    /// caller's storage accounting). Indices arrive ascending (the scan
    /// consumes each side monotonically), so one compaction pass
    /// preserves the sort.
    fn apply_defers(v: &mut View, defers: &[(u32, Option<Time>)]) -> usize {
        if defers.is_empty() {
            return 0;
        }
        let mut dropped = 0usize;
        for &(idx, floor) in defers {
            let e = v.entries[idx as usize];
            match floor {
                Some(f) => v.deferred.push(Reverse((f, e.t, e.gen))),
                None => dropped += 1,
            }
        }
        let mut k = 0usize;
        let mut w = 0usize;
        for i in 0..v.entries.len() {
            if k < defers.len() && defers[k].0 as usize == i {
                k += 1;
                continue;
            }
            if w != i {
                v.entries[w] = v.entries[i];
            }
            w += 1;
        }
        v.entries.truncate(w);
        dropped
    }

    /// Build one list's sorted bound order from scratch — the resort
    /// scan: collect → prune → gate → bound → sort, per query. Serves
    /// lists whose view was shed by the memory cap (and every list of
    /// the `Resort` reference oracle), bit-identical to the cached slice
    /// it replaces.
    #[allow(clippy::too_many_arguments)]
    fn build_scratch(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        li: usize,
        horizon_end: Time,
        allow_secondary: bool,
        gate_version: Version,
        limit: f64,
        bound_start: Time,
        out: &mut Vec<ViewEntry>,
    ) {
        out.clear();
        let mut cand = std::mem::take(&mut self.start_buf);
        cand.clear();
        self.collect_startable(state, li, horizon_end, &mut cand);
        cand.retain(|&t| !self.gate_dead_bit(t, j) && self.cached_floor(t, j) <= horizon_end);
        let mut gate = std::mem::take(&mut self.gate_buf);
        gate.clear();
        state.feasible_candidates(&cand, gate_version, j, &mut gate);
        self.mark_gate_rejections(&cand, &gate, j, limit);
        let sc = state.scenario();
        let m = state.metrics();
        let tasks_f = m.tasks as f64;
        let tau_s = m.tau.as_seconds();
        for &t in &gate {
            let ub_for = |v: Version| {
                let exec_dur = sc.etc.exec_dur(t, j, v);
                let exec_energy = sc.grid.machine(j).compute_energy(exec_dur);
                objective.evaluate(&ObjectiveInputs {
                    t100_frac: (m.t100 + usize::from(v.is_primary())) as f64 / tasks_f,
                    tec_frac: (m.tec + exec_energy) / m.tse,
                    aet_frac: m.aet.max(bound_start + exec_dur).as_seconds() / tau_s,
                })
            };
            let mut ub = ub_for(gate_version);
            if allow_secondary {
                ub = ub.max(ub_for(Version::Primary));
            }
            debug_assert!(ub.is_finite(), "objective bounds are finite");
            out.push(ViewEntry {
                ub,
                t: t.0 as u32,
                gen: 0,
                dlo: 0,
                dhi: 0,
                b_t100: 0,
                b_tec: 0.0,
                b_aet: 0,
                b_h: 0,
            });
        }
        self.start_buf = cand;
        self.gate_buf = gate;
        out.sort_unstable_by(|a, b| {
            b.ub.partial_cmp(&a.ub)
                .expect("objective bounds are finite")
                .then(a.t.cmp(&b.t))
        });
    }

}

impl Kernel for Frontier {
    /// Start a clock tick: record the tick index and promote every
    /// candidate whose spill timer is due.
    fn begin_tick(&mut self, state: &SimState<'_>, tick: u64) {
        self.tick = tick;
        self.stamp = self.stamp.wrapping_add(1);
        self.resync(state);
        while let Some(&(due, t)) = self.pending.front() {
            if due > tick {
                break;
            }
            self.pending.pop_front();
            self.promote_to_spill(t);
        }
    }

    /// Ingest one [`StateDelta`]: the delta's `invalidated` tasks leave
    /// the frontier, its `newly_ready` tasks join it — the exact
    /// readiness semantics [`SimState`]'s mutators report. Machine-loss
    /// and blocking deltas change no readiness and touch nothing. A gap
    /// in the revision stream marks the frontier stale (rebuilt on the
    /// next query) instead of serving a drifted list.
    fn apply(&mut self, delta: &StateDelta) {
        if delta.revision != self.last_revision + 1 {
            self.last_revision = delta.revision;
            self.stale = true;
            return;
        }
        self.last_revision = delta.revision;
        match delta.kind {
            // Loss and blocking add (or merely flag) occupation; floors
            // can only rise, so the start-floor cache stays valid.
            DeltaKind::MachineLost | DeltaKind::Blocked => {}
            DeltaKind::Commit | DeltaKind::Unmap => {
                // An unmap *removes* occupation: earlier gaps can open,
                // so every cached start floor — and every cached parent
                // finish — is suspect.
                if delta.kind == DeltaKind::Unmap {
                    self.floor_cache.fill(Time::ZERO);
                    self.ptuple_gen = self.ptuple_gen.wrapping_add(1);
                    // Deferred view entries hold floor copies; cached
                    // ubs and gate results survive (revision-guarded),
                    // but the epoch bump is the one mechanism that
                    // reaches every deferred heap.
                    self.view_epoch = self.view_epoch.wrapping_add(1);
                }
                for &t in &delta.invalidated {
                    self.remove(t);
                }
                for &t in &delta.newly_ready {
                    self.insert(t);
                }
            }
        }
    }

    /// The best committable candidate for machine `j`: among the visible
    /// candidates that pass the §IV gate and whose chosen-version plan
    /// can start within the horizon, the one maximising the objective
    /// (ties toward the lower task id). Returns the ready-to-commit
    /// plan. Replays [`crate::pool::build_pool_with`]'s version choice
    /// and [`crate::pool::Pool::first_startable`]'s selection exactly —
    /// see the module docs.
    ///
    /// Machine `j` is served from its two per-list views. Structure is
    /// reconciled incrementally (log drains, deferral revivals,
    /// revision-guarded membership); cached bound values are refreshed
    /// in full only when the scan itself signals that lazy
    /// re-evaluation got expensive. Between refreshes, the scan walks
    /// the cached permutations under a conservative drift bound
    /// ([`Frontier::drift_bound`]): a candidate is skipped only when its
    /// snapshot bound plus the drift sits strictly below the incumbent —
    /// and since the true ub never exceeds that sum, every skipped
    /// candidate's objective is strictly below the incumbent's, so the
    /// argmax (and its task-id tie-break) is exactly the exhaustive
    /// scan's. The schedule is therefore byte-identical to the
    /// all-views-shed resort scan at any thread count — and so are the
    /// [`RunStats`] whenever the start-floor cache is active (below
    /// [`FLOOR_CACHE_MAX`]); past the cap the deferred floors prune
    /// re-plans the resort scan repeats, so only `candidates_evaluated`
    /// may drop.
    ///
    /// The refresh eval batch is the one parallel section: chunked over
    /// the ambient compat/rayon width, each job a pure `(index, task) →
    /// bound` map re-assembled in index order, so any worker count
    /// computes identical bytes.
    #[allow(clippy::too_many_arguments)]
    fn best_startable(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        allow_secondary: bool,
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        self.resync(state);
        stats.queries += 1;
        // Defensive invalidation: a gate-version flip poisons cached
        // gate results, a horizon regression poisons the lb/floor
        // deferrals and the drift bound's monotonicity argument.
        // Neither occurs under the shipped variants.
        if self.last_secondary != Some(allow_secondary) {
            if self.last_secondary.is_some() {
                self.view_epoch = self.view_epoch.wrapping_add(1);
            }
            self.last_secondary = Some(allow_secondary);
        }
        if horizon_end < self.last_horizon {
            self.view_epoch = self.view_epoch.wrapping_add(1);
        }
        self.last_horizon = horizon_end;

        let gate_version = if allow_secondary {
            Version::Secondary
        } else {
            Version::Primary
        };
        let placement = Placement::Append { not_before: now };
        let (limit, flushed) = self.gate_row_guard(state, j);
        if flushed {
            self.reset_view(j.0 * 2);
            self.reset_view(j.0 * 2 + 1);
        }
        let [l0, l1] = self.visible_lists(j);
        self.sync_list(state, l0, horizon_end);
        self.sync_list(state, l1, horizon_end);
        if !flushed {
            if let Some((ep, n0, n1, floor)) = self.idle[j.0] {
                if ep == self.view_epoch
                    && n0 == self.slog[l0].len()
                    && n1 == self.slog[l1].len()
                    && floor > horizon_end
                {
                    return None;
                }
            }
        }
        self.idle[j.0] = None;

        let mut va = std::mem::take(&mut self.views[j.0 * 2]);
        let mut vb = std::mem::take(&mut self.views[j.0 * 2 + 1]);
        self.sync_view_structural(&mut va, state, j, l0, now, horizon_end, limit, gate_version);
        self.sync_view_structural(&mut vb, state, j, l1, now, horizon_end, limit, gate_version);

        let sc = state.scenario();
        let m = state.metrics();
        let tasks_f = m.tasks as f64;
        let tau_s = m.tau.as_seconds();
        let positive = matches!(objective.aet_sign, AetSign::Positive);
        let bound_start = if positive {
            horizon_end
        } else {
            now.max(state.compute_ready(j))
        };
        // An upper bound on the objective any plan for the candidate
        // could reach, *without* planning: exact arithmetic over the
        // planner's own start-independent quantities (`T100` and `TEC`
        // never depend on the placement) plus the extremal admissible
        // execution start for the `AET` term — `horizon_end` under the
        // paper's positive sign (later finishes score higher, and starts
        // past the horizon are rejected anyway), a cheap start floor
        // under the negative ablation. Transfer energy is bounded below
        // by zero rather than computed (a smaller `tec` term can only
        // raise the bound), and the primary is included unconditionally
        // (when it is actually infeasible the bound is merely looser —
        // the plan phase re-checks feasibility exactly). Every input
        // either matches the real evaluation bit-for-bit or bounds it
        // through operations that are monotone in IEEE arithmetic, so
        // `ub ≥ obj` holds exactly, never approximately. The resort
        // scan ([`Frontier::build_scratch`]) evaluates the identical
        // expression in the identical order, so reused values, refresh
        // batches and lazy per-visit evaluations are all bit-equal.
        let eval = |tu: u32| -> f64 {
            let t = TaskId(tu as usize);
            let ub_for = |v: Version| {
                let exec_dur = sc.etc.exec_dur(t, j, v);
                let exec_energy = sc.grid.machine(j).compute_energy(exec_dur);
                objective.evaluate(&ObjectiveInputs {
                    t100_frac: (m.t100 + usize::from(v.is_primary())) as f64 / tasks_f,
                    tec_frac: (m.tec + exec_energy) / m.tse,
                    aet_frac: m.aet.max(bound_start + exec_dur).as_seconds() / tau_s,
                })
            };
            let mut ub = ub_for(gate_version);
            if allow_secondary {
                ub = ub.max(ub_for(Version::Primary));
            }
            debug_assert!(ub.is_finite(), "objective bounds are finite");
            ub
        };

        // Full refreshes: a new/reset view, an objective change (online
        // weight adaptation), or the scan-cost signal from last query.
        let full_a = !va.overflow && (va.ub_obj != Some(*objective) || va.refresh);
        let full_b = !vb.overflow && (vb.ub_obj != Some(*objective) || vb.refresh);
        // A refresh re-evaluates every alive entry, so purge stale
        // membership first (it is otherwise caught lazily at scan
        // time) — no point evaluating the dead.
        if full_a && !va.entries.is_empty() {
            let before = va.entries.len();
            let list_of = &self.list_of;
            let sgen = &self.sgen;
            va.entries
                .retain(|e| list_of[e.t as usize] == l0 as u32 && sgen[e.t as usize] == e.gen);
            self.view_entries -= before - va.entries.len();
        }
        if full_b && !vb.entries.is_empty() {
            let before = vb.entries.len();
            let list_of = &self.list_of;
            let sgen = &self.sgen;
            vb.entries
                .retain(|e| list_of[e.t as usize] == l1 as u32 && sgen[e.t as usize] == e.gen);
            self.view_entries -= before - vb.entries.len();
        }
        let mut jobs = std::mem::take(&mut self.eval_jobs);
        jobs.clear();
        if !va.overflow {
            if full_a {
                jobs.extend(va.entries.iter().map(|e| e.t));
            }
            jobs.extend(va.pend.iter().map(|&(t, _)| t));
        }
        let split = jobs.len();
        if !vb.overflow {
            if full_b {
                jobs.extend(vb.entries.iter().map(|e| e.t));
            }
            jobs.extend(vb.pend.iter().map(|&(t, _)| t));
        }
        let results: Vec<f64> = if jobs.is_empty() {
            Vec::new()
        } else if jobs.len() >= PAR_EVAL_MIN && rayon::current_num_threads() > 1 {
            rayon::map_bounded(std::mem::take(&mut jobs), usize::MAX, |_, tu| eval(tu))
        } else {
            jobs.iter().map(|&tu| eval(tu)).collect()
        };
        self.eval_jobs = jobs;
        let chosen_d = |tu: u32| -> (u64, u64) {
            let t = TaskId(tu as usize);
            let d = sc.etc.exec_dur(t, j, gate_version).0;
            if allow_secondary {
                let p = sc.etc.exec_dur(t, j, Version::Primary).0;
                (d.min(p), d.max(p))
            } else {
                (d, d)
            }
        };
        let had_pend_a = !va.pend.is_empty();
        let had_pend_b = !vb.pend.is_empty();
        if !va.overflow {
            Self::apply_eval(
                &mut va, full_a, &results[..split], &chosen_d, &m, horizon_end, objective,
            );
        }
        if !vb.overflow {
            Self::apply_eval(
                &mut vb, full_b, &results[split..], &chosen_d, &m, horizon_end, objective,
            );
        }

        // Lists whose view was shed get a scratch-built sorted slice —
        // the same bytes the view would have held.
        let [mut sa, mut sb] = std::mem::take(&mut self.scratch_orders);
        if va.overflow {
            self.build_scratch(
                state, objective, j, l0, horizon_end, allow_secondary, gate_version, limit,
                bound_start, &mut sa,
            );
        }
        if vb.overflow {
            self.build_scratch(
                state, objective, j, l1, horizon_end, allow_secondary, gate_version, limit,
                bound_start, &mut sb,
            );
        }

        // A side whose values were computed *this query* (refresh or
        // scratch) needs no lazy re-evaluation and has zero drift.
        let fresh_a = va.overflow || full_a;
        let fresh_b = vb.overflow || full_b;
        let da = if fresh_a {
            0.0
        } else {
            Self::drift_bound(&va, objective, &m, horizon_end, positive, tasks_f, tau_s)
        };
        let db = if fresh_b {
            0.0
        } else {
            Self::drift_bound(&vb, objective, &m, horizon_end, positive, tasks_f, tau_s)
        };

        // Scan the two cached permutations by descending
        // drift-padded bound, exact-evaluating only the entries the
        // incumbent cannot already rule out.
        let [mut defer_a, mut defer_b] = std::mem::take(&mut self.defer_buf);
        defer_a.clear();
        defer_b.clear();
        let [mut wb_a, mut wb_b] = std::mem::take(&mut self.wb_buf);
        wb_a.clear();
        wb_b.clear();
        let tse_u = m.tse.units();
        let tec_u = m.tec.units();
        let (mut levals_a, mut levals_b) = (0usize, 0usize);
        let w_alpha = objective.weights.alpha();
        let w_beta = objective.weights.beta();
        let w_gamma = objective.weights.gamma();
        let mut best: Option<(f64, TaskId, MappingPlan)> = None;
        {
            let ea: &[ViewEntry] = if va.overflow { &sa } else { &va.entries };
            let eb: &[ViewEntry] = if vb.overflow { &sb } else { &vb.entries };
            let (mut ai, mut bi) = (0usize, 0usize);
            loop {
                let (e, from_a, bound) = match (ea.get(ai), eb.get(bi)) {
                    (None, None) => break,
                    (Some(x), None) => (*x, true, x.ub + da),
                    (None, Some(y)) => (*y, false, y.ub + db),
                    (Some(x), Some(y)) => {
                        let bx = x.ub + da;
                        let by = y.ub + db;
                        if bx > by || (bx == by && x.t < y.t) {
                            (*x, true, bx)
                        } else {
                            (*y, false, by)
                        }
                    }
                };
                let t = TaskId(e.t as usize);
                if let Some((best_obj, best_task, _)) = &best {
                    // Sound early exit: every remaining entry's exact ub
                    // is at most its drift-padded bound, so nothing left
                    // can beat (or task-tie-break) the incumbent.
                    if bound < *best_obj || (bound == *best_obj && t > *best_task) {
                        break;
                    }
                }
                let (idx, fresh) = if from_a {
                    let i = ai;
                    ai += 1;
                    (i, fresh_a)
                } else {
                    let i = bi;
                    bi += 1;
                    (i, fresh_b)
                };
                // Lazy membership: a committed (or re-homed) task's
                // entry is dropped when the scan reaches it; until
                // then its stale ub is a valid upper bound (the task
                // can no longer win at all).
                if !fresh
                    && (self.sgen[e.t as usize] != e.gen
                        || self.list_of[e.t as usize] != if from_a { l0 } else { l1 } as u32)
                {
                    if from_a {
                        defer_a.push((idx as u32, None));
                    } else {
                        defer_b.push((idx as u32, None));
                    }
                    continue;
                }
                // Per-entry refined bound, checked before the gate —
                // the drift from an entry's own metric basis is
                // exact-to-ulps (`T100` and `TEC` deltas are uniform
                // across candidates; the `AET` term's drift is monotone
                // in the chosen exec duration, so the stored duration
                // extremes bound every considered version), so entries
                // the incumbent already dominates cost no gate probe
                // and no evaluation.
                if !fresh {
                    if let Some((best_obj, best_task, _)) = &best {
                        let mut dr =
                            w_alpha * ((m.t100 - e.b_t100 as usize) as f64) / tasks_f;
                        dr -= w_beta * (tec_u - e.b_tec) / tse_u;
                        if positive {
                            let f = |d: u64| {
                                let cur = m.aet.0.max(horizon_end.0.saturating_add(d));
                                let old = e.b_aet.max(e.b_h.saturating_add(d));
                                cur.saturating_sub(old)
                            };
                            dr += w_gamma * Time(f(e.dlo).max(f(e.dhi))).as_seconds() / tau_s;
                        }
                        let tight = e.ub + (dr + dr.abs() * 1e-9 + 1e-9);
                        if tight < *best_obj || (tight == *best_obj && t > *best_task) {
                            continue;
                        }
                    }
                }
                // Lazy §IV gate: the afford limit falls as commits
                // drain energy, so a cached pass may have gone stale —
                // a value refresh does not re-gate. Only scratch sides
                // (batch-gated at build time this query) may skip.
                if !if from_a { va.overflow } else { vb.overflow } {
                    if self.gate_dead_bit(t, j) {
                        if from_a {
                            defer_a.push((idx as u32, None));
                        } else {
                            defer_b.push((idx as u32, None));
                        }
                        continue;
                    }
                    if !state.gate_feasible(t, gate_version, j, limit) {
                        self.mark_gate_rejection(t, j, limit);
                        if from_a {
                            defer_a.push((idx as u32, None));
                        } else {
                            defer_b.push((idx as u32, None));
                        }
                        continue;
                    }
                }
                let fresh_ub = if fresh {
                    e.ub
                } else {
                    let exact = eval(e.t);
                    if from_a {
                        levals_a += 1;
                        wb_a.push((idx as u32, exact));
                    } else {
                        levals_b += 1;
                        wb_b.push((idx as u32, exact));
                    }
                    exact
                };
                debug_assert!(
                    fresh_ub <= bound,
                    "drift bound {bound} below exact ub {fresh_ub} for {t}"
                );
                if let Some((best_obj, best_task, _)) = &best {
                    // Exact-bound skip: this candidate cannot win, but a
                    // later lower-snapshot entry still might — keep
                    // scanning without planning it. (On a fresh side the
                    // bound *is* the exact ub, so the early exit above
                    // already fired.)
                    if fresh_ub < *best_obj || (fresh_ub == *best_obj && t > *best_task) {
                        continue;
                    }
                }
                let (floor, _) = self.floor_cost(state, t, j, now);
                if floor > horizon_end {
                    self.raise_floor(t, j, floor);
                    if from_a {
                        if !va.overflow {
                            defer_a.push((idx as u32, Some(floor)));
                        }
                    } else if !vb.overflow {
                        defer_b.push((idx as u32, Some(floor)));
                    }
                    continue;
                }
                stats.candidates_evaluated += 1;
                let gated = state.plan_with(t, gate_version, j, placement, &mut self.scratch);
                let gated_obj = plan_objective(state, objective, &gated);
                let (obj, plan) = if allow_secondary
                    && state.version_feasible(t, Version::Primary, j)
                {
                    let primary =
                        state.plan_with(t, Version::Primary, j, placement, &mut self.scratch);
                    let primary_obj = plan_objective(state, objective, &primary);
                    if primary_obj >= gated_obj {
                        (primary_obj, primary)
                    } else {
                        (gated_obj, gated)
                    }
                } else {
                    (gated_obj, gated)
                };
                debug_assert!(obj.is_finite(), "objective values are finite");
                self.raise_floor(t, j, plan.start);
                if plan.start > horizon_end {
                    if from_a {
                        if !va.overflow {
                            defer_a.push((idx as u32, Some(plan.start)));
                        }
                    } else if !vb.overflow {
                        defer_b.push((idx as u32, Some(plan.start)));
                    }
                    continue;
                }
                debug_assert!(
                    obj <= fresh_ub,
                    "upper bound {fresh_ub} below objective {obj} for {t}"
                );
                let better = match &best {
                    None => true,
                    Some((best_obj, best_task, _)) => {
                        obj > *best_obj || (obj == *best_obj && t < *best_task)
                    }
                };
                if better {
                    best = Some((obj, t, plan));
                }
            }
        }
        // Scan-cost signal: when lazy evaluation (the expensive part of
        // a visit) ran deep into a cached order, reset its drift with a
        // full refresh next query.
        if !fresh_a && levals_a > 8 + va.entries.len() / 4 {
            va.refresh = true;
        }
        if !fresh_b && levals_b > 8 + vb.entries.len() / 4 {
            vb.refresh = true;
        }
        let basis = (m.t100 as u32, tec_u, m.aet.0, horizon_end.0);
        Self::apply_writebacks(&mut va, &wb_a, basis);
        Self::apply_writebacks(&mut vb, &wb_b, basis);
        if !va.overflow {
            self.view_entries -= Self::apply_defers(&mut va, &defer_a);
        }
        if !vb.overflow {
            self.view_entries -= Self::apply_defers(&mut vb, &defer_b);
        }
        if !wb_a.is_empty() {
            Self::restore_sort(&mut va.entries);
        }
        if !wb_b.is_empty() {
            Self::restore_sort(&mut vb.entries);
        }
        if !va.overflow && (full_a || had_pend_a || !defer_a.is_empty() || !wb_a.is_empty()) {
            Self::refold_basis(&mut va, &m, horizon_end, tec_u);
        }
        if !vb.overflow && (full_b || had_pend_b || !defer_b.is_empty() || !wb_b.is_empty()) {
            Self::refold_basis(&mut vb, &m, horizon_end, tec_u);
        }
        if best.is_none() && !va.overflow && !vb.overflow {
            debug_assert!(
                va.entries.is_empty() && vb.entries.is_empty(),
                "an incumbent-free scan consumes every entry"
            );
            let fa = va.deferred.peek().map_or(Time(u64::MAX), |&Reverse((f, _, _))| f);
            let fb = vb.deferred.peek().map_or(Time(u64::MAX), |&Reverse((f, _, _))| f);
            self.idle[j.0] = Some((
                self.view_epoch,
                self.slog[l0].len(),
                self.slog[l1].len(),
                fa.min(fb),
            ));
        }
        self.defer_buf = [defer_a, defer_b];
        self.wb_buf = [wb_a, wb_b];
        self.scratch_orders = [sa, sb];
        self.views[j.0 * 2] = va;
        self.views[j.0 * 2 + 1] = vb;
        best.map(|(_, _, plan)| plan)
    }

    /// The frozen SLRH-2 walk order for machine `j`: every visible
    /// gate-passing *startable* candidate with its chosen version and
    /// objective, sorted by (objective desc, task asc) — the same
    /// version choice and ordering [`crate::pool::build_pool_with`]
    /// freezes, without materialising the plans. The lb prune narrows
    /// membership relative to the frozen pool, but only by entries whose
    /// plans start past the horizon — entries the SLRH-2 walk re-plans
    /// and then rejects without committing, so the commit sequence is
    /// unchanged.
    #[allow(clippy::too_many_arguments)]
    fn frozen_order(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        j: MachineId,
        now: Time,
        horizon_end: Time,
        allow_secondary: bool,
        stats: &mut RunStats,
        out: &mut Vec<(f64, TaskId, Version)>,
    ) {
        self.resync(state);
        stats.queries += 1;
        let gate_version = if allow_secondary {
            Version::Secondary
        } else {
            Version::Primary
        };
        let placement = Placement::Append { not_before: now };
        out.clear();
        let mut cand = std::mem::take(&mut self.start_buf);
        let mut gate = std::mem::take(&mut self.gate_buf);
        let (limit, _) = self.gate_row_guard(state, j);
        for li in self.visible_lists(j) {
            cand.clear();
            self.collect_startable(state, li, horizon_end, &mut cand);
            // Same cached-rejection and cached-floor pruning as
            // [`Frontier::best_startable`].
            cand.retain(|&t| !self.gate_dead_bit(t, j) && self.cached_floor(t, j) <= horizon_end);
            gate.clear();
            state.feasible_candidates(&cand, gate_version, j, &mut gate);
            self.mark_gate_rejections(&cand, &gate, j, limit);
            for &t in &gate {
                // Same per-(task, machine) floor refinement as
                // [`Frontier::best_startable`]: the SLRH-2 walk re-plans
                // after its own commits, but those only push starts
                // later, so a floor past the horizon at walk-freeze time
                // rules the entry out for the whole walk — and so does a
                // start floor cached on an earlier tick.
                let (floor, _) = self.floor_cost(state, t, j, now);
                if floor > horizon_end {
                    self.raise_floor(t, j, floor);
                    continue;
                }
                stats.candidates_evaluated += 1;
                let gated = state.plan_with(t, gate_version, j, placement, &mut self.scratch);
                self.raise_floor(t, j, gated.start);
                let gated_obj = plan_objective(state, objective, &gated);
                let entry = if allow_secondary && state.version_feasible(t, Version::Primary, j) {
                    let primary =
                        state.plan_with(t, Version::Primary, j, placement, &mut self.scratch);
                    let primary_obj = plan_objective(state, objective, &primary);
                    if primary_obj >= gated_obj {
                        (primary_obj, t, Version::Primary)
                    } else {
                        (gated_obj, t, Version::Secondary)
                    }
                } else {
                    (gated_obj, t, gate_version)
                };
                out.push(entry);
            }
        }
        self.start_buf = cand;
        self.gate_buf = gate;
        out.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("objective values are finite")
                .then(a.1.cmp(&b.1))
        });
    }

    /// Whether *any* frontier candidate — on any list, not just the ones
    /// visible to `j` — passes the §IV gate on machine `j`. The clock
    /// loop's stuck check must look across the whole frontier: a
    /// candidate homed elsewhere is invisible to `j` *today* but spills
    /// within `spill_after` ticks, so only the all-machines ×
    /// all-candidates product proves no future invocation can progress.
    fn any_gate_feasible(
        &mut self,
        state: &SimState<'_>,
        gate_version: Version,
        j: MachineId,
    ) -> bool {
        self.resync(state);
        self.lists
            .iter()
            .any(|list| state.any_feasible_candidate(list, gate_version, j))
    }

    /// Read the idle latch forward in time. While `j`'s latch stamp is
    /// current, [`Frontier::best_startable`] keeps answering `None`
    /// without touching a view until the horizon reaches the latched
    /// deferred floor or the next `waiting` candidate of a visible list
    /// (whose drain into the startable log breaks the stamp). Everything
    /// else that breaks it — a commit or unmap (revision, epoch, log
    /// arrivals, `fresh` inserts), an energy refund lifting the afford
    /// limit over the gate row's watermark, a spill promotion coming due
    /// — is checked here, so a `Some` is a proof for exactly this
    /// `state`. SLRH-2 never latches and a shed view never does either,
    /// so both are asked every tick.
    fn wake(&self, state: &SimState<'_>, j: MachineId) -> Option<Time> {
        let (epoch, n0, n1, floor) = self.idle[j.0]?;
        let [l0, l1] = self.visible_lists(j);
        let list_current = |li: usize, logged: usize| {
            self.list_epoch[li] == self.view_epoch
                && self.fresh[li].is_empty()
                && self.slog[li].len() == logged
        };
        let current = !self.stale
            && state.revision() == self.last_revision
            && epoch == self.view_epoch
            && list_current(l0, n0)
            && list_current(l1, n1)
            && state.ledger().afford_limit(j) <= self.gate_limit[j.0]
            && self.pending.is_empty();
        let next_waiting =
            |li: usize| self.waiting[li].last().map_or(Time::MAX, |&(lb, _, _)| lb);
        current.then(|| floor.min(next_waiting(l0)).min(next_waiting(l1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScaleMode;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use lagrange::weights::Weights;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn objective() -> Objective {
        Objective::paper(Weights::new(0.5, 0.2).unwrap())
    }

    /// The k = 1 frontier query must pick exactly the pool's
    /// `first_startable` entry, across an entire greedy drain.
    #[test]
    fn best_startable_matches_first_startable_across_a_drain() {
        let sc = scenario(32);
        let mut state = SimState::new(&sc);
        let obj = objective();
        let mut fr = Frontier::new(&state, ScaleMode::default());
        let mut stats = RunStats::default();
        let mut now = Time::ZERO;
        let horizon = adhoc_grid::units::Dur(100);
        let mut guard = 0;
        let mut total_commits = 0u64;
        loop {
            fr.begin_tick(&state, guard);
            let mut committed = false;
            for j in sc.grid.ids() {
                let horizon_end = now.saturating_add(horizon);
                let reference = crate::pool::build_pool_with(&state, &obj, j, now, true);
                let expected = reference.first_startable(horizon_end);
                let got =
                    fr.best_startable(&state, &obj, j, now, horizon_end, true, &mut stats);
                match (expected, &got) {
                    (None, None) => {}
                    (Some(e), Some(p)) => assert_eq!(&e.plan, p, "machine {j}"),
                    (e, g) => panic!("machine {j}: pool {e:?} vs frontier {g:?}"),
                }
                if let Some(plan) = got {
                    let delta = state.commit(&plan);
                    fr.apply(&delta);
                    committed = true;
                    total_commits += 1;
                }
            }
            if state.all_mapped() || !committed {
                break;
            }
            now += adhoc_grid::units::Dur(10);
            guard += 1;
            assert!(guard < 512, "drain did not terminate");
        }
        // The drain ends either fully mapped or energy-gated; in both
        // cases every query agreed with the pool and the frontier must
        // still agree with the state's ready set.
        assert!(total_commits > 0, "drain never committed anything");
        assert_eq!(fr.len(), state.ready_tasks().len());
    }

    /// Delta-maintained membership equals the state's ready set.
    #[test]
    fn membership_tracks_the_ready_set() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state, ScaleMode { clusters: 2, spill_after: 1 });
        for step in 0..64u64 {
            fr.begin_tick(&state, step);
            let Some(&t) = state.ready_tasks().first() else {
                break;
            };
            let plan = state.plan(
                t,
                Version::Secondary,
                MachineId((step % sc.grid.len() as u64) as usize),
                Placement::Append { not_before: Time::ZERO },
            );
            let delta = state.commit(&plan);
            fr.apply(&delta);
            let mut on_frontier: Vec<TaskId> = fr
                .lists
                .iter()
                .flat_map(|l| l.iter().copied())
                .collect();
            on_frontier.sort();
            let mut ready: Vec<TaskId> = state.ready_tasks().to_vec();
            ready.sort();
            assert_eq!(on_frontier, ready, "step {step}");
        }
    }

    /// A revision gap (mutation not reported via `apply`) forces a
    /// rebuild instead of serving a drifted frontier.
    #[test]
    fn resynchronises_after_unreported_mutations() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let obj = objective();
        let mut fr = Frontier::new(&state, ScaleMode::default());
        let mut stats = RunStats::default();
        let t = state.ready_tasks()[0];
        let plan = state.plan(
            t,
            Version::Secondary,
            MachineId(0),
            Placement::Append { not_before: Time::ZERO },
        );
        state.commit(&plan); // delta dropped on the floor
        let horizon_end = Time::from_seconds(10);
        let got = fr.best_startable(&state, &obj, MachineId(0), Time::ZERO, horizon_end, true, &mut stats);
        let reference = crate::pool::build_pool_with(&state, &obj, MachineId(0), Time::ZERO, true);
        assert_eq!(
            got.as_ref(),
            reference.first_startable(horizon_end).map(|e| &e.plan)
        );
        assert_eq!(fr.len(), state.ready_tasks().len());
    }

    /// Regression: a start floor learned for `(t, j)` while `t`'s
    /// parent sat on another machine must not survive a loss-then-
    /// arrival churn trace that re-inserts the *same* `TaskId` with a
    /// cheaper true floor. The floor was raised to the planned start
    /// (parent finish on the old machine plus a cross-machine
    /// transfer) and a copy of it sits in a deferred view entry; after
    /// the parent unmaps and recommits on the queried machine itself,
    /// both the cache slot and the deferred copy are stale — serving
    /// either would wrongly exclude `t` from horizons its new
    /// same-machine floor clears. The unmap delta's floor-cache clear
    /// plus the view-epoch bump (which is what reaches the deferred
    /// heaps) must drop both.
    #[test]
    fn reinserted_task_is_not_pruned_by_a_stale_floor() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let obj = objective();
        let mut fr = Frontier::new(&state, ScaleMode::default());
        let mut stats = RunStats::default();
        let m0 = MachineId(0);
        let m1 = MachineId(1);

        // Commit ready roots on machine 1 — parked ~1000 s out, so any
        // plan for their children embeds that delay — until some child
        // becomes ready: that child `t` now has a far-future
        // cross-machine parent.
        let park = Time::from_seconds(1000);
        let mut committed: Vec<TaskId> = Vec::new();
        let mut child: Option<TaskId> = None;
        fr.begin_tick(&state, 0);
        while child.is_none() {
            let p = *state
                .ready_tasks()
                .iter()
                .find(|t| !committed.contains(t))
                .expect("scenario has a parent-child pair");
            let plan = state.plan(
                p,
                Version::Secondary,
                m1,
                Placement::Append { not_before: park },
            );
            let delta = state.commit(&plan);
            child = delta.newly_ready.first().copied();
            fr.apply(&delta);
            committed.push(p);
        }
        let t = child.expect("loop exits with a ready child");

        // A wide-horizon query plans every visible candidate — the
        // planning pass raises (t, m0)'s start floor to a start that
        // embeds machine 1's parked parent finish plus the transfer.
        let wide = Time(park.0 * 2);
        let got = fr.best_startable(&state, &obj, m0, Time::ZERO, wide, true, &mut stats);
        let reference = crate::pool::build_pool_with(&state, &obj, m0, Time::ZERO, true);
        assert_eq!(
            got.as_ref(),
            reference.first_startable(wide).map(|e| &e.plan),
            "pre-churn query diverged from the pool"
        );
        assert!(
            fr.cached_floor(t, m0) >= park,
            "the query learned t's parked cross-machine floor (got {:?})",
            fr.cached_floor(t, m0)
        );

        // Loss-then-arrival churn: machine 1 dies, its work unmaps
        // (t leaves the frontier with its parent), and the parents
        // recommit on machine 0 at time zero — t re-enters at the same
        // TaskId with a same-machine floor ~1000 s below the stale one.
        fr.apply(&state.mark_lost(m1, Time(1)));
        for &p in committed.iter().rev() {
            fr.apply(&state.unmap(p));
        }
        for &p in &committed {
            let plan = state.plan(
                p,
                Version::Secondary,
                m0,
                Placement::Append { not_before: Time::ZERO },
            );
            fr.apply(&state.commit(&plan));
        }
        assert!(
            state.ready_tasks().contains(&t),
            "the churn trace re-inserts the same TaskId"
        );
        // Drain every other ready task onto machine 0 so t is the only
        // candidate left: an over-prune now turns the query's Some into
        // None instead of hiding behind another winner.
        while let Some(&r) = state.ready_tasks().iter().find(|&&r| r != t) {
            let plan = state.plan(
                r,
                Version::Secondary,
                m0,
                Placement::Append { not_before: Time::ZERO },
            );
            fr.apply(&state.commit(&plan));
        }
        assert_eq!(state.ready_tasks(), &[t], "t is the sole candidate");

        // Query at exactly t's true start (and a band of horizons far
        // below the parked stale floor): the frontier must keep
        // agreeing with the pool, which admits t from its new
        // same-machine floor on.
        let true_start = state
            .plan(
                t,
                Version::Secondary,
                m0,
                Placement::Append { not_before: Time::ZERO },
            )
            .start;
        assert!(
            true_start < park,
            "recommitted parents give t a pre-park floor (got {true_start:?})"
        );
        for horizon_end in [true_start, Time(true_start.0 * 2), park] {
            let got =
                fr.best_startable(&state, &obj, m0, Time::ZERO, horizon_end, true, &mut stats);
            let reference = crate::pool::build_pool_with(&state, &obj, m0, Time::ZERO, true);
            assert_eq!(
                got.as_ref(),
                reference.first_startable(horizon_end).map(|e| &e.plan),
                "post-churn query diverged from the pool at horizon {horizon_end:?}"
            );
        }
        // And the sole candidate is genuinely admitted somewhere in the
        // band — the agreement above is not a vacuous None == None.
        let reference = crate::pool::build_pool_with(&state, &obj, m0, Time::ZERO, true);
        assert!(
            reference.first_startable(park).is_some(),
            "the pool admits t below the stale floor, so the ladder has teeth"
        );
    }

    // ---- wake-time regression tests: everything that must cut a
    // sleep short (DESIGN.md §19) ----

    const DT: adhoc_grid::units::Dur = adhoc_grid::units::Dur(10);
    const H: adhoc_grid::units::Dur = adhoc_grid::units::Dur(100);

    /// Three DAG levels (10 / 12 / 10 subtasks), so committing a child
    /// can ready a grandchild.
    fn layered() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 2)
    }

    /// A state the clock has to wait on: every root is committed on
    /// machine 1 starting `park` from now, so each ready subtask is a
    /// child whose start lower bound sits at or past `park`.
    fn parked<'a>(sc: &'a Scenario, park: Time) -> (SimState<'a>, Frontier) {
        let mut state = SimState::new(sc);
        let mut fr = Frontier::new(&state, ScaleMode::default());
        fr.begin_tick(&state, 0);
        while let Some(&root) = state
            .ready_tasks()
            .iter()
            .find(|&&t| sc.dag.parents(t).is_empty())
        {
            commit_on(&mut fr, &mut state, root, Version::Secondary, MachineId(1), park);
        }
        assert!(!state.ready_tasks().is_empty(), "the roots have children");
        (state, fr)
    }

    /// Commit `t` at the end of machine `j`'s queue and tell the
    /// frontier.
    fn commit_on(
        fr: &mut Frontier,
        state: &mut SimState<'_>,
        t: TaskId,
        v: Version,
        j: MachineId,
        not_before: Time,
    ) -> StateDelta {
        let plan = state.plan(t, v, j, Placement::Append { not_before });
        let delta = state.commit(&plan);
        fr.apply(&delta);
        delta
    }

    /// One sweep's worth of work for machine `j` at `clock`, as
    /// `mapper::drive` issues it.
    fn query(
        fr: &mut Frontier,
        state: &SimState<'_>,
        j: MachineId,
        tick: u64,
        clock: Time,
    ) -> Option<MappingPlan> {
        fr.begin_tick(state, tick);
        let mut stats = RunStats::default();
        fr.best_startable(state, &objective(), j, clock, clock + H, true, &mut stats)
    }

    /// Tick machine `j` over the unchanged `state` from `(tick, clock)`
    /// until a plan appears and return that sweep's horizon end. Every
    /// wake time reported on the way is held to its word: no plan while
    /// the horizon is short of it.
    fn first_plan_horizon(
        fr: &mut Frontier,
        state: &SimState<'_>,
        j: MachineId,
        mut tick: u64,
        mut clock: Time,
    ) -> Time {
        let mut proven = Time::ZERO;
        loop {
            let horizon_end = clock + H;
            if query(fr, state, j, tick, clock).is_some() {
                assert!(
                    horizon_end >= proven,
                    "a plan at horizon {horizon_end} inside a sleep proven to {proven}"
                );
                return horizon_end;
            }
            if let Some(w) = fr.wake(state, j) {
                assert!(w > horizon_end, "a wake time in the past");
                proven = proven.max(w);
            }
            tick += 1;
            clock += DT;
            assert!(clock <= state.scenario().tau, "no plan before τ");
        }
    }

    /// The contract, for a wake time read off *before* ticking on: `None`,
    /// or no later than the sweep at which the ticking loop first gets a
    /// plan.
    fn assert_wake_is_sound(wake: Option<Time>, first_plan: Time) {
        if let Some(w) = wake {
            assert!(w <= first_plan, "slept to {w}, past the plan at {first_plan}");
        }
    }

    #[test]
    fn wake_is_the_earliest_waiting_lower_bound() {
        let sc = layered();
        let park = Time(3000);
        let (state, mut fr) = parked(&sc, park);
        let m0 = MachineId(0);
        assert!(query(&mut fr, &state, m0, 1, Time::ZERO).is_none());
        let &(next_lb, _, _) = fr.waiting[0].last().expect("every candidate waits on its lb");
        assert!(next_lb >= park);
        let wake = fr.wake(&state, m0);
        assert_eq!(wake, Some(next_lb), "nothing deferred: the next lb is the wake time");
        // Other machines have not been asked, so nothing is proven of them.
        assert_eq!(fr.wake(&state, MachineId(2)), None);
        let first = first_plan_horizon(&mut fr, &state, m0, 2, Time(10));
        assert_wake_is_sound(wake, first);
        assert!(first >= next_lb);
    }

    #[test]
    fn wake_is_capped_by_the_earliest_deferred_floor() {
        let sc = layered();
        let (state, mut fr) = parked(&sc, Time(3000));
        let m0 = MachineId(0);
        assert!(query(&mut fr, &state, m0, 1, Time::ZERO).is_none());
        let next_lb = fr.wake(&state, m0).expect("latched on the waiting set");
        // The sweep the loop wakes for: the horizon clears the earliest
        // lb exactly, but that candidate's parents sit on machine 1 and
        // the transfer still has to fit — it is deferred to its floor.
        let clock = Time(next_lb.0 - H.0);
        assert!(
            query(&mut fr, &state, m0, 2, clock).is_none(),
            "data-bound: cleared its lb, cannot start inside the horizon"
        );
        let &Reverse((floor, _, _)) = fr.views[0].deferred.peek().expect("one deferral");
        assert!(floor > next_lb);
        let next_waiting = fr.waiting[0].last().map_or(Time::MAX, |&(lb, _, _)| lb);
        let wake = fr.wake(&state, m0);
        assert_eq!(wake, Some(floor.min(next_waiting)));
        let first = first_plan_horizon(&mut fr, &state, m0, 3, clock + DT);
        assert_wake_is_sound(wake, first);
    }

    #[test]
    fn a_commit_that_readies_a_child_ends_the_sleep() {
        let sc = layered();
        let (mut state, mut fr) = parked(&sc, Time(3000));
        let m0 = MachineId(0);
        assert!(query(&mut fr, &state, m0, 1, Time::ZERO).is_none());
        assert!(fr.wake(&state, m0).is_some());
        // Another machine commits ready subtasks until one of them
        // readies a child: a new arrival on the list machine 0 watches.
        loop {
            let &t = state.ready_tasks().first().expect("a child is readied first");
            let delta =
                commit_on(&mut fr, &mut state, t, Version::Secondary, MachineId(1), Time::ZERO);
            if !delta.newly_ready.is_empty() {
                break;
            }
        }
        let wake = fr.wake(&state, m0);
        assert_eq!(wake, None, "an unscored arrival may start at once");
        let first = first_plan_horizon(&mut fr, &state, m0, 2, Time(10));
        assert_wake_is_sound(wake, first);
    }

    #[test]
    fn an_unmap_ends_the_sleep() {
        let sc = layered();
        let (mut state, mut fr) = parked(&sc, Time(3000));
        let m0 = MachineId(0);
        assert!(query(&mut fr, &state, m0, 1, Time::ZERO).is_none());
        assert!(fr.wake(&state, m0).is_some());
        // A root whose children are all unmapped goes back: its children
        // leave the frontier, it re-enters with lb 0 — and every floor
        // the latch rests on is void (`view_epoch` bump).
        let root = (0..sc.tasks())
            .map(TaskId)
            .find(|&t| {
                state.is_mapped(t) && sc.dag.children(t).iter().all(|&c| !state.is_mapped(c))
            })
            .expect("a mapped leaf of the mapped set");
        let epoch = fr.view_epoch;
        fr.apply(&state.unmap(root));
        assert_ne!(fr.view_epoch, epoch);
        let wake = fr.wake(&state, m0);
        assert_eq!(wake, None);
        let first = first_plan_horizon(&mut fr, &state, m0, 2, Time(10));
        assert_eq!(first, Time(10) + H, "the unmapped root starts at once");
        // Unreported mutations (a loss cascade between segments) are
        // caught by the revision check instead.
        let (mut state, mut fr) = parked(&sc, Time(3000));
        assert!(query(&mut fr, &state, m0, 1, Time::ZERO).is_none());
        assert!(fr.wake(&state, m0).is_some());
        state.unmap(root);
        assert_eq!(fr.wake(&state, m0), None);
    }

    #[test]
    fn an_energy_refund_ends_the_sleep() {
        let sc = layered();
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state, ScaleMode::default());
        fr.begin_tick(&state, 0);
        let m0 = MachineId(0);
        // Drain machine 0's battery: it takes whatever still passes its
        // gate until no ready subtask does.
        while let Some((t, v)) = [Version::Primary, Version::Secondary].into_iter().find_map(|v| {
            let ready = state.ready_tasks().iter();
            ready.copied().find(|&t| state.version_feasible(t, v, m0)).map(|t| (t, v))
        }) {
            commit_on(&mut fr, &mut state, t, v, m0, Time::ZERO);
        }
        assert!(!state.ready_tasks().is_empty(), "the battery ran out first");
        let free = state.compute_ready(m0);
        assert!(query(&mut fr, &state, m0, 1, free).is_none());
        assert_eq!(
            fr.wake(&state, m0),
            Some(Time::MAX),
            "gate-dead across the board: no clock can help, only a commit"
        );
        let watermark = fr.gate_limit[0];
        assert!(state.ledger().afford_limit(m0) <= watermark);
        // A child of a machine-0 subtask lands on machine 1: the
        // worst-case transfer reservation machine 0 held for that edge
        // settles at the real link's cost and the rest comes back.
        let on_m0 = |p: &TaskId| state.schedule().assignment(*p).is_some_and(|a| a.machine == m0);
        let child = state
            .ready_tasks()
            .iter()
            .copied()
            .find(|&c| sc.dag.parents(c).iter().any(on_m0))
            .expect("a ready child of a machine-0 subtask");
        commit_on(&mut fr, &mut state, child, Version::Secondary, MachineId(1), Time::ZERO);
        assert!(
            state.ledger().afford_limit(m0) > watermark,
            "the refund lifted the limit over every recorded rejection"
        );
        assert_eq!(fr.wake(&state, m0), None);
    }

    #[test]
    fn a_pending_spill_promotion_keeps_the_loop_ticking() {
        let sc = layered();
        let state = SimState::new(&sc);
        let spill_after = 3;
        let mut fr = Frontier::new(&state, ScaleMode { clusters: 2, spill_after });
        // Every root is homed on cluster 0 (the low half of the ids): a
        // cluster-1 machine sees nothing until they spill.
        assert!(fr.lists[1].is_empty() && !fr.lists[0].is_empty());
        let j = MachineId(fr.cluster_of.iter().position(|&c| c == 1).unwrap());
        assert!(query(&mut fr, &state, j, 0, Time::ZERO).is_none());
        assert!(fr.idle[j.0].is_some(), "latched: both visible lists are empty");
        let wake = fr.wake(&state, j);
        assert_eq!(wake, None, "a promotion is queued; the tick count, not the clock, brings it");
        let first = first_plan_horizon(&mut fr, &state, j, 1, Time(10));
        assert_eq!(first, Time(spill_after * DT.0) + H);
        assert_wake_is_sound(wake, first);
    }

    /// With clusters > 1 every unspilled candidate is visible to exactly
    /// its home cluster, and spills promote after the configured delay.
    #[test]
    fn spill_promotes_after_the_configured_delay() {
        let sc = scenario(32);
        let state = SimState::new(&sc);
        let spill_after = 3;
        let mut fr = Frontier::new(&state, ScaleMode { clusters: 2, spill_after });
        let spill_list = fr.clusters();
        assert!(fr.lists[spill_list].is_empty(), "nothing spilled at birth");
        let total = fr.len();
        assert_eq!(total, state.ready_tasks().len());
        for tick in 0..=spill_after {
            fr.begin_tick(&state, tick);
        }
        assert_eq!(
            fr.lists[spill_list].len(),
            total,
            "every root should have spilled after {spill_after} ticks"
        );
    }

    /// Clustering is deterministic and clamped to the machine count.
    #[test]
    fn clustering_is_deterministic_and_clamped() {
        let sc = scenario(16);
        let state = SimState::new(&sc);
        let a = Frontier::new(&state, ScaleMode { clusters: 99, spill_after: 8 });
        let b = Frontier::new(&state, ScaleMode { clusters: 99, spill_after: 8 });
        assert_eq!(a.cluster_of, b.cluster_of);
        assert_eq!(a.clusters(), sc.grid.len(), "clamped to |M|");
        // Every cluster is non-empty under the clamped partition.
        for c in 0..a.clusters() {
            assert!(a.cluster_of.iter().any(|&x| x as usize == c));
        }
    }
}
