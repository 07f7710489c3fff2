//! The mutable simulation state heuristics operate on.
//!
//! [`SimState`] bundles, for one [`Scenario`]:
//!
//! * the per-machine compute / transmit / receive [`Timeline`]s,
//! * the [`EnergyLedger`] (committed energy plus worst-case reservations),
//! * the growing [`Schedule`],
//! * readiness bookkeeping (which unmapped subtasks have all parents
//!   mapped), and
//! * the incrementally maintained global quantities `T100` and `AET`.
//!
//! Heuristics drive it through exactly three entry points: feasibility
//! queries, [`SimState::plan`] (pure), and [`SimState::commit`]. The
//! dynamic-grid extension additionally uses [`SimState::unmap`] and
//! [`SimState::mark_lost`].
//!
//! # Revisions
//!
//! Every mutation (`commit`, `unmap`, `mark_lost`, `block_until`) bumps a
//! monotonic [`SimState::revision`] counter. A commit returns the
//! subtasks it readied and an unmap the parents it starved; the ready set
//! itself is read here ([`SimState::ready_tasks`],
//! [`SimState::is_ready`]). An incremental consumer (the `slrh`
//! candidate frontier) counts the commits it is told of and rebuilds
//! when the revision shows a mutation it was not told of.

use std::cell::Cell;

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Energy, Time};
use adhoc_grid::workload::Scenario;

use crate::ledger::EnergyLedger;
use crate::metrics::Metrics;
use crate::plan::{self, Costing, MappingPlan, Placement, PlanScratch};
use crate::schedule::{Assignment, Schedule, Transfer};
use crate::tables::{ScenarioTables, TableBuffers};
use crate::timeline::Timeline;

/// The set of unmapped tasks whose parents are all mapped, with O(1)
/// membership updates.
///
/// Iteration order is observable (baseline heuristics tie-break through
/// it, and `ready_tasks()` is public), so the historical semantics are
/// preserved exactly: tasks appear in discovery order and removal is
/// `swap_remove` (the last element takes the removed slot). What the
/// index adds is O(1) removal — the previous representation rescanned
/// the whole vector (`iter().position`) for every commit and for every
/// re-blocked child of an unmap, which made commit/unmap storms
/// quadratic in the ready-set size.
#[derive(Clone, Debug, Default)]
struct ReadySet {
    /// The tasks, in discovery order with swap-remove holes filled.
    order: Vec<TaskId>,
    /// `pos[t]` is the index of `t` in `order`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl ReadySet {
    /// Restore the fresh state for a (possibly different) task count in
    /// place, preserving heap capacity.
    fn reset(&mut self, tasks: usize, roots: impl Iterator<Item = TaskId>) {
        self.order.clear();
        self.pos.clear();
        self.pos.resize(tasks, ABSENT);
        for t in roots {
            self.push(t);
        }
    }

    fn as_slice(&self) -> &[TaskId] {
        &self.order
    }

    fn push(&mut self, t: TaskId) {
        debug_assert_eq!(self.pos[t.0], ABSENT, "{t} already ready");
        self.pos[t.0] = self.order.len() as u32;
        self.order.push(t);
    }

    /// Remove `t` if present (swap-remove semantics).
    fn remove(&mut self, t: TaskId) {
        let p = self.pos[t.0];
        if p == ABSENT {
            return;
        }
        self.order.swap_remove(p as usize);
        self.pos[t.0] = ABSENT;
        if let Some(&moved) = self.order.get(p as usize) {
            self.pos[moved.0] = p;
        }
    }
}

/// The heap allocations behind a [`SimState`], detached from any
/// scenario.
///
/// A state holds all of its recyclable storage as one `StateBuffers`:
/// three timeline sets, ledger accounts and per-edge reservations, the
/// schedule and its per-child transfer index, readiness bookkeeping, the
/// storage of the scenario's [`ScenarioTables`] and the lists a commit
/// and an unmap return. A campaign or search that executes thousands of
/// runs back to back keeps one (inside `slrh::RunContext`, the one
/// context every heuristic runs on), builds each run's state with
/// [`SimState::new_in`] and reclaims the storage afterwards with
/// [`SimState::into_buffers`]; the steady state then recycles one
/// allocation footprint instead of churning the allocator per run.
///
/// The buffers carry **capacity only, never content**: `new_in` clears
/// and re-derives every field from the scenario exactly as
/// [`SimState::new`] does, so a state built from recycled buffers is
/// indistinguishable from a fresh one (the `recycled_buffers_*` tests
/// pin this down to demand-table bit patterns). A scenario's content
/// that outlives one run is a [`ScenarioTables`] lent by borrow
/// ([`SimState::with_tables`]), never a buffer; a lent run leaves the
/// table storage untouched and hands it back. Donating buffers sized
/// for a different scenario is fine — everything is resized.
#[derive(Clone, Debug, Default)]
pub struct StateBuffers {
    compute: Vec<Timeline>,
    tx: Vec<Timeline>,
    rx: Vec<Timeline>,
    ledger: EnergyLedger,
    schedule: Schedule,
    /// Count of unmapped parents per task.
    unmapped_parents: Vec<usize>,
    /// Unmapped tasks whose parents are all mapped, in discovery order.
    ready: ReadySet,
    /// The instant each machine joined the grid: [`Time::ZERO`] unless
    /// [`SimState::block_until`] opened it later. With `lost` it is the
    /// machine's availability window, which the validator checks every
    /// execution and transfer against.
    available: Vec<Time>,
    /// Machines lost to the grid (dynamic extension), with loss time.
    lost: Vec<Option<Time>>,
    /// The storage of the scenario's tables: empty while a run owns its
    /// tables (they were built on it), kept aside while they are lent.
    tables: TableBuffers,
    /// The subtasks the last commit readied (see [`SimState::commit`]).
    newly_ready: Vec<TaskId>,
    /// The parents the last unmap starved (see [`SimState::unmap`]).
    starved: Vec<TaskId>,
    /// `unmap`'s copy of the unmapped task's incoming transfers
    /// (capacity only, between calls).
    unmap_incoming: Vec<Transfer>,
}

/// Key of an empty `TEC` memo (no revision reaches it).
const TEC_MEMO_EMPTY: u64 = u64::MAX;

/// Where a state's [`ScenarioTables`] live: built for the run on its
/// buffers, or lent by the caller.
#[derive(Clone, Debug)]
enum Tables<'a> {
    Own(ScenarioTables<'a>),
    Lent(&'a ScenarioTables<'a>),
}

/// Mutable simulation state for one scenario run.
#[derive(Clone, Debug)]
pub struct SimState<'a> {
    sc: &'a Scenario,
    /// The run's recyclable storage.
    buf: StateBuffers,
    /// The scenario's static §IV tables (per-edge worst-case durations,
    /// the feasibility-demand table): built for this run, or lent by a
    /// driver that maps the scenario many times.
    tables: Tables<'a>,
    t100: usize,
    aet: Time,
    /// The grid's total system energy (`TSE`), static per scenario but
    /// an O(machines) sum — computed once here because the objective
    /// normalises by it on every plan evaluation.
    tse: Energy,
    /// `(revision, TEC)`: the ledger's committed-energy sum at that
    /// revision. [`EnergyLedger::total_committed`] is an O(machines)
    /// fresh sum and the planner and the objective read `TEC` once per
    /// *plan*, so it must not be recomputed under an unchanged ledger.
    /// The memo holds the **exact fresh sum**: served values are
    /// bit-identical to recomputation (an incrementally maintained total
    /// would round differently and shift golden fixtures).
    tec_memo: Cell<(u64, f64)>,
    /// Bumped by every mutation; see the module docs.
    revision: u64,
}

impl<'a> SimState<'a> {
    /// Fresh state: nothing mapped, batteries full, roots ready.
    pub fn new(sc: &'a Scenario) -> SimState<'a> {
        SimState::new_in(sc, StateBuffers::default())
    }

    /// [`SimState::new`] with donated backing storage: consumes
    /// `buffers`, resets every field from the scenario (content is never
    /// carried over — see [`StateBuffers`]), and reuses the donated heap
    /// capacity. Reclaim the storage after the run with
    /// [`SimState::into_buffers`].
    ///
    /// The run builds the scenario's [`ScenarioTables`] on the buffers.
    /// A driver that maps one scenario many times builds them once
    /// instead and lends them to every run with
    /// [`SimState::with_tables`]: the tables borrow the scenario, so the
    /// borrow is their provenance and no run can read another
    /// scenario's tables. Both paths evaluate the same expressions, so
    /// the values are bit-identical either way.
    pub fn new_in(sc: &'a Scenario, mut buffers: StateBuffers) -> SimState<'a> {
        let tables = ScenarioTables::build(sc, std::mem::take(&mut buffers.tables));
        SimState::assemble(sc, Tables::Own(tables), buffers)
    }

    /// [`SimState::new_in`] reading the scenario's static tables from
    /// `tables` instead of building them: bit-identical to a state built
    /// on its own tables.
    pub fn with_tables(tables: &'a ScenarioTables<'a>, buffers: StateBuffers) -> SimState<'a> {
        SimState::assemble(tables.scenario(), Tables::Lent(tables), buffers)
    }

    fn assemble(sc: &'a Scenario, tables: Tables<'a>, mut buf: StateBuffers) -> SimState<'a> {
        let n = sc.tasks();
        let m = sc.grid.len();
        for timelines in [&mut buf.compute, &mut buf.tx, &mut buf.rx] {
            for tl in timelines.iter_mut() {
                tl.clear();
            }
            timelines.resize_with(m, Timeline::new);
        }
        buf.ledger.reset(&sc.grid, sc.dag.edge_count());
        buf.schedule.reset(n);
        buf.unmapped_parents.clear();
        buf.unmapped_parents
            .extend(sc.dag.tasks().map(|t| sc.dag.parents(t).len()));
        buf.ready.reset(n, sc.dag.roots());
        buf.available.clear();
        buf.available.resize(m, Time::ZERO);
        buf.lost.clear();
        buf.lost.resize(m, None);
        SimState {
            sc,
            buf,
            tables,
            t100: 0,
            aet: Time::ZERO,
            tse: sc.grid.total_system_energy(),
            tec_memo: Cell::new((TEC_MEMO_EMPTY, 0.0)),
            revision: 0,
        }
    }

    /// Detach the state's backing storage for reuse by a later
    /// [`SimState::new_in`]. The run's results are discarded; snapshot
    /// [`SimState::metrics`] (or whatever else is needed) first.
    pub fn into_buffers(self) -> StateBuffers {
        let mut buf = self.buf;
        if let Tables::Own(tables) = self.tables {
            buf.tables = tables.into_buffers();
        }
        buf
    }

    /// The scenario's static §IV tables this run reads.
    #[inline]
    pub(crate) fn tables(&self) -> &ScenarioTables<'a> {
        match &self.tables {
            Tables::Own(tables) => tables,
            Tables::Lent(tables) => tables,
        }
    }

    /// The monotonic mutation counter: 0 for a fresh state, incremented
    /// by every `commit` / `unmap` / `mark_lost` / `block_until`.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &'a Scenario {
        self.sc
    }

    /// The schedule built so far.
    pub fn schedule(&self) -> &Schedule {
        &self.buf.schedule
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.buf.ledger
    }

    /// Compute timeline of machine `j`.
    pub fn compute_timeline(&self, j: MachineId) -> &Timeline {
        &self.buf.compute[j.0]
    }

    /// Transmit-link timeline of machine `j`.
    pub fn tx_timeline(&self, j: MachineId) -> &Timeline {
        &self.buf.tx[j.0]
    }

    /// Receive-link timeline of machine `j`.
    pub fn rx_timeline(&self, j: MachineId) -> &Timeline {
        &self.buf.rx[j.0]
    }

    /// First instant at which machine `j` has no scheduled computation —
    /// the SLRH "availability time".
    #[inline]
    pub fn compute_ready(&self, j: MachineId) -> Time {
        self.buf.compute[j.0].ready_time()
    }

    /// True when `t` has been mapped.
    pub fn is_mapped(&self, t: TaskId) -> bool {
        self.buf.schedule.is_mapped(t)
    }

    /// True when every parent of `t` has been mapped.
    pub fn parents_mapped(&self, t: TaskId) -> bool {
        self.buf.unmapped_parents[t.0] == 0
    }

    /// Number of mapped subtasks.
    pub fn mapped_count(&self) -> usize {
        self.buf.schedule.mapped_count()
    }

    /// True when every subtask is mapped.
    pub fn all_mapped(&self) -> bool {
        self.mapped_count() == self.sc.tasks()
    }

    /// Unmapped tasks whose precedence constraints are satisfied —
    /// the universe the SLRH candidate pool is drawn from.
    pub fn ready_tasks(&self) -> &[TaskId] {
        self.buf.ready.as_slice()
    }

    /// True when `t` is in [`SimState::ready_tasks`].
    pub fn is_ready(&self, t: TaskId) -> bool {
        self.buf.ready.pos[t.0] != ABSENT
    }

    /// Current number of primary-version mappings.
    pub fn t100(&self) -> usize {
        self.t100
    }

    /// [`SimState::t100`] plus the subtasks still unmapped: the highest
    /// `T100` the run can still reach while nothing is unmapped, since
    /// each further commit adds at most one primary.
    pub fn t100_ceiling(&self) -> usize {
        self.t100 + (self.sc.tasks() - self.mapped_count())
    }

    /// Current application execution time (finish of the latest mapping).
    pub fn aet(&self) -> Time {
        self.aet
    }

    /// Mark machine `j` as lost at `at` (dynamic extension). Lost machines
    /// fail every subsequent feasibility check; already-scheduled work must
    /// be invalidated by the caller (see `slrh::dynamic`), and
    /// [`crate::validate::validate`] reports any that is left finishing
    /// after `at`.
    pub fn mark_lost(&mut self, j: MachineId, at: Time) {
        assert!(self.buf.lost[j.0].is_none(), "{j} already lost");
        self.buf.lost[j.0] = Some(at);
        self.revision += 1;
    }

    /// Model machine `j` joining the grid at `at` (dynamic extension):
    /// its compute, transmit and receive timelines are blocked over
    /// `[0, at)`, so no execution or transfer can touch it earlier and
    /// its availability time is exactly its arrival. The state records
    /// `at` as [`SimState::available_from`], the opening of the window
    /// the validator checks.
    ///
    /// # Panics
    /// Panics if anything is already scheduled on `j` or `at` is zero
    /// (an arrival at time zero is just an ordinary machine).
    pub fn block_until(&mut self, j: MachineId, at: Time) {
        assert!(at > Time::ZERO, "arrival at time zero is a no-op");
        assert!(
            self.buf.compute[j.0].is_empty()
                && self.buf.tx[j.0].is_empty()
                && self.buf.rx[j.0].is_empty(),
            "{j} already has scheduled work"
        );
        let span = at.since(Time::ZERO);
        self.buf.compute[j.0].insert(Time::ZERO, span);
        self.buf.tx[j.0].insert(Time::ZERO, span);
        self.buf.rx[j.0].insert(Time::ZERO, span);
        self.buf.available[j.0] = at;
        self.revision += 1;
    }

    /// The instant machine `j` joined the grid: [`Time::ZERO`] unless
    /// [`SimState::block_until`] opened it later. Nothing may start on,
    /// send from or reach `j` before it.
    pub fn available_from(&self, j: MachineId) -> Time {
        self.buf.available[j.0]
    }

    /// When was machine `j` lost, if ever? Nothing may finish on, send
    /// from or reach `j` after it.
    pub fn lost_at(&self, j: MachineId) -> Option<Time> {
        self.buf.lost[j.0]
    }

    /// True when machine `j` is still part of the grid.
    pub fn is_alive(&self, j: MachineId) -> bool {
        self.buf.lost[j.0].is_none()
    }

    /// The total energy mapping `(t, v)` on `j` must be able to afford:
    /// execution plus the §IV worst-case shipment of every output item
    /// (see [`ScenarioTables`]).
    #[inline]
    pub fn feasibility_demand(&self, t: TaskId, v: Version, j: MachineId) -> Energy {
        self.tables().feasibility_demand(t, v, j)
    }

    /// The §IV demand-vs-`limit` predicate for one candidate, with
    /// liveness and the machine's afford limit hoisted by the caller
    /// (the scale kernel re-checks cached candidates against a fallen
    /// limit with this); see [`ScenarioTables`].
    #[inline]
    pub fn gate_feasible(&self, t: TaskId, v: Version, j: MachineId, limit: f64) -> bool {
        self.tables().gate_feasible(t, v, j, limit)
    }

    /// Whether *any* task of `tasks` passes the `(v, j)` feasibility
    /// gate ([`SimState::version_feasible`]'s accept set, liveness and
    /// the limit hoisted out of the loop) — the clock loop's stuck check.
    pub fn any_feasible_candidate(&self, tasks: &[TaskId], v: Version, j: MachineId) -> bool {
        let limit = self.buf.ledger.afford_limit(j);
        self.is_alive(j) && tasks.iter().any(|&t| self.gate_feasible(t, v, j, limit))
    }

    /// The energy feasibility test for mapping `(t, v)` on `j`: the
    /// machine must be alive and able to afford the execution *and* the
    /// worst-case shipment of all resulting data items.
    ///
    /// The SLRH pool check (§IV) calls this with [`Version::Secondary`];
    /// Max-Max (§V) assesses each version independently. The demand side
    /// is static per scenario ([`ScenarioTables`]); only
    /// liveness and the machine's remaining energy are read live.
    #[inline]
    pub fn version_feasible(&self, t: TaskId, v: Version, j: MachineId) -> bool {
        self.is_alive(j) && self.gate_feasible(t, v, j, self.buf.ledger.afford_limit(j))
    }

    /// Plan mapping `(t, v)` onto `j` under `placement`. Pure: no state
    /// is modified. See [`MappingPlan`].
    ///
    /// # Panics
    /// Panics if `t` is mapped or any parent of `t` is unmapped.
    pub fn plan(&self, t: TaskId, v: Version, j: MachineId, placement: Placement) -> MappingPlan {
        plan::plan_mapping(self, t, v, j, placement, &mut PlanScratch::default())
    }

    /// [`SimState::plan`] with caller-provided scratch buffers, for
    /// planning loops (the reference pool plans every ready task per
    /// machine per tick; the kernels and Max-Max plan one winner per
    /// commit). Produces exactly the same plan as
    /// [`SimState::plan`]; the scratch only carries buffer capacity
    /// between calls, never results.
    pub fn plan_with(
        &self,
        t: TaskId,
        v: Version,
        j: MachineId,
        placement: Placement,
        scratch: &mut PlanScratch,
    ) -> MappingPlan {
        plan::plan_mapping(self, t, v, j, placement, scratch)
    }

    /// The version-independent half of planning `t` onto `j` under
    /// `placement`: the transfer-placement walk [`SimState::plan_with`]
    /// runs, without building a plan. Each version's execution slot is
    /// [`Costing::at`]. Pure.
    ///
    /// # Panics
    /// Panics if `t` is mapped or any parent of `t` is unmapped.
    pub fn cost(
        &self,
        t: TaskId,
        j: MachineId,
        placement: Placement,
        scratch: &mut PlanScratch,
    ) -> Costing {
        plan::cost(self, t, j, placement, scratch, |_, _| {})
    }

    /// Commit a plan produced by [`SimState::plan`] against the *current*
    /// state. Returns the children that became ready, in DAG child order
    /// (the mapped task itself left the ready set).
    ///
    /// # Panics
    /// Panics if the plan no longer fits (timeline overlap or battery
    /// overdraw) — plans must be committed before any other mutation.
    pub fn commit(&mut self, plan: &MappingPlan) -> &[TaskId] {
        let j = plan.machine;
        assert!(self.is_alive(j), "committing onto lost machine {j}");

        // 1. Incoming transfers: occupy links, charge senders via their
        //    reservations.
        for tr in &plan.transfers {
            self.buf.tx[tr.from.0].insert(tr.start, tr.dur);
            self.buf.rx[j.0].insert(tr.start, tr.dur);
            self.buf.schedule.add_transfer(Transfer {
                parent: tr.parent,
                child: plan.task,
                from: tr.from,
                to: j,
                size: tr.size,
                start: tr.start,
                dur: tr.dur,
                energy: tr.energy,
            });
        }
        for s in &plan.settlements {
            self.buf.ledger.settle(s.edge, s.actual);
        }

        // 2. The execution itself.
        self.buf.compute[j.0].insert(plan.start, plan.exec_dur);
        self.buf.ledger.commit(j, plan.exec_energy);
        self.buf.schedule.assign(Assignment {
            task: plan.task,
            version: plan.version,
            machine: j,
            start: plan.start,
            dur: plan.exec_dur,
            energy: plan.exec_energy,
        });

        // 3. Worst-case reservations for the task's own outputs, one per
        //    out-edge (the plan lists them in child order).
        let out_edges = self.sc.dag.out_edges(plan.task);
        for (&(_, amount), &e) in plan.child_reservations.iter().zip(out_edges) {
            self.buf.ledger.reserve(j, e as usize, amount);
        }

        // 4. Readiness and global quantities.
        self.t100 += usize::from(plan.version.is_primary());
        self.aet = self.aet.max(plan.finish());
        self.buf.ready.remove(plan.task);
        self.buf.newly_ready.clear();
        for &c in self.sc.dag.children(plan.task) {
            self.buf.unmapped_parents[c.0] -= 1;
            if self.buf.unmapped_parents[c.0] == 0 {
                self.buf.ready.push(c);
                self.buf.newly_ready.push(c);
            }
        }

        debug_assert!(self.buf.ledger.check_invariants().is_ok());
        self.revision += 1;
        &self.buf.newly_ready
    }

    /// Fully reverse the mapping of `t` (dynamic extension).
    ///
    /// Refunds its execution energy, removes its timeline occupations and
    /// incoming transfers (refunding the senders), cancels its outgoing
    /// reservations, and re-reserves the worst case on each *mapped*
    /// parent's machine for the now-unmapped edge.
    ///
    /// Returns the *starved* parents: those whose
    /// worst-case re-reservation could **not** be afforded — the caller
    /// must cascade and unmap those parents too, since they can no longer
    /// guarantee shipping their outputs. **Order contract:** the list is
    /// in ascending task id (it follows the DAG's sorted parent order),
    /// so callers can merge or deduplicate it without re-sorting.
    ///
    /// # Panics
    /// Panics if `t` is unmapped or any child of `t` is still mapped
    /// (children must be unmapped first — reverse topological order).
    pub fn unmap(&mut self, t: TaskId) -> &[TaskId] {
        for &c in self.sc.dag.children(t) {
            assert!(
                !self.is_mapped(c),
                "cannot unmap {t}: child {c} is still mapped"
            );
        }
        let a = self
            .buf
            .schedule
            .unmap(t)
            .unwrap_or_else(|| panic!("{t} is not mapped"));

        // Reverse the execution.
        self.buf.compute[a.machine.0].remove(a.start, a.dur);
        self.buf.ledger.uncommit(a.machine, a.energy);
        self.t100 -= usize::from(a.version.is_primary());

        // Cancel the task's own outgoing reservations (children unmapped).
        // An edge may legitimately hold no reservation when a previous
        // child-unmap could not afford the worst-case re-reservation and
        // reported this task as starved — it is being unmapped for exactly
        // that reason now.
        for &e in self.sc.dag.out_edges(t) {
            if self.buf.ledger.edge_reservation(e as usize).is_some() {
                self.buf.ledger.cancel_reservation(e as usize);
            }
        }

        // Reverse incoming transfers and restore parent-edge reservations.
        // The per-child index yields them in commit order (ascending
        // parent id), exactly the order the old full-scan collect saw, so
        // the ledger refund order — and with it every downstream float —
        // is unchanged.
        let mut incoming = plan::emptied(&mut self.buf.unmap_incoming);
        incoming.extend(self.buf.schedule.incoming_transfers(t).copied());
        self.buf.schedule.remove_transfers_to(t);
        for tr in &incoming {
            self.buf.tx[tr.from.0].remove(tr.start, tr.dur);
            self.buf.rx[tr.to.0].remove(tr.start, tr.dur);
            self.buf.ledger.uncommit(tr.from, tr.energy);
        }
        self.buf.unmap_incoming = incoming;

        // `sc.dag.parents(t)` is ascending, so the starved list is too —
        // this is the documented order contract.
        self.buf.starved.clear();
        for (&p, e) in self.sc.dag.parents(t).iter().zip(self.sc.dag.in_edges(t)) {
            let Some(pa) = self.buf.schedule.assignment(p) else {
                continue; // parent itself already unmapped by the cascade
            };
            let pj = pa.machine;
            let worst = self
                .sc
                .grid
                .machine(pj)
                .transmit_energy(self.tables().worst_dur(e, pa.version));
            if self.is_alive(pj) && self.buf.ledger.can_afford(pj, worst) {
                self.buf.ledger.reserve(pj, e, worst);
            } else {
                self.buf.starved.push(p);
            }
        }

        // Readiness: t becomes unmapped; its children gain an unmapped
        // parent (and leave the ready set if they were in it).
        for &c in self.sc.dag.children(t) {
            self.buf.ready.remove(c);
            self.buf.unmapped_parents[c.0] += 1;
        }
        if self.parents_mapped(t) {
            self.buf.ready.push(t);
        }

        // AET may shrink, but only when `t` finished last; the max over
        // the other assignments is otherwise unchanged (integer ticks).
        if a.finish() == self.aet {
            self.aet = self.buf.schedule.aet();
        }

        debug_assert!(self.buf.ledger.check_invariants().is_ok());
        self.revision += 1;
        &self.buf.starved
    }

    /// Total energy committed across the grid — the paper's `TEC`.
    /// Bit-identical to [`EnergyLedger::total_committed`], served from
    /// the per-revision memo (`tec_memo`): the planner and the
    /// objective read this once per candidate plan.
    pub fn tec(&self) -> Energy {
        let (rev, sum) = self.tec_memo.get();
        if rev == self.revision {
            return Energy(sum);
        }
        let total = self.buf.ledger.total_committed();
        self.tec_memo.set((self.revision, total.units()));
        total
    }

    /// Snapshot the run's metrics.
    #[inline]
    pub fn metrics(&self) -> Metrics {
        Metrics {
            tasks: self.sc.tasks(),
            mapped: self.mapped_count(),
            t100: self.t100,
            aet: self.aet,
            tec: self.tec(),
            tse: self.tse,
            tau: self.sc.tau,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::units::Dur;
    use adhoc_grid::workload::{Scenario, ScenarioParams};

    fn tiny_scenario() -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0)
    }

    fn m(j: usize) -> MachineId {
        MachineId(j)
    }

    #[test]
    fn fresh_state_has_roots_ready() {
        let sc = tiny_scenario();
        let st = SimState::new(&sc);
        assert_eq!(st.mapped_count(), 0);
        assert!(!st.all_mapped());
        let ready: Vec<_> = st.ready_tasks().to_vec();
        assert!(!ready.is_empty());
        for &t in &ready {
            assert!(sc.dag.parents(t).is_empty() || st.parents_mapped(t));
        }
        assert_eq!(st.aet(), Time::ZERO);
    }

    #[test]
    fn plan_and_commit_a_root() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let t = st.ready_tasks()[0];
        let plan = st.plan(
            t,
            Version::Primary,
            m(0),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        assert_eq!(plan.start, Time::ZERO, "root on idle machine starts now");
        assert!(plan.transfers.is_empty(), "roots receive nothing");
        let expected_reservations = sc.dag.children(t).len();
        assert_eq!(plan.child_reservations.len(), expected_reservations);
        st.commit(&plan);
        assert!(st.is_mapped(t));
        assert_eq!(st.t100(), 1);
        assert_eq!(st.aet(), plan.finish());
        assert_eq!(
            st.ledger().outstanding_reservations(),
            expected_reservations
        );
        assert!(st.ledger().check_invariants().is_ok());
    }

    #[test]
    fn child_transfer_planned_cross_machine() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        // Map every ready root until some child becomes ready.
        let mut guard = 0;
        while st
            .ready_tasks()
            .iter()
            .all(|&t| sc.dag.parents(t).is_empty())
            && !st.ready_tasks().is_empty()
        {
            let t = st.ready_tasks()[0];
            let plan = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&plan);
            guard += 1;
            assert!(guard < 64);
        }
        let child = *st
            .ready_tasks()
            .iter()
            .find(|&&t| !sc.dag.parents(t).is_empty())
            .expect("a non-root became ready");
        // Plan it on a different machine: must include transfers from m0.
        let plan = st.plan(
            child,
            Version::Primary,
            m(1),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        assert_eq!(plan.transfers.len(), sc.dag.parents(child).len());
        for tr in &plan.transfers {
            assert_eq!(tr.from, m(0));
            assert!(tr.energy.units() > 0.0);
        }
        let parent_finish = plan.transfers.iter().map(|tr| tr.start).min().unwrap();
        assert!(parent_finish >= Time::ZERO);
        assert!(
            plan.start
                >= plan
                    .transfers
                    .iter()
                    .map(|t| t.start + t.dur)
                    .max()
                    .unwrap()
        );
        st.commit(&plan);
        assert_eq!(st.schedule().transfers().len(), plan.transfers.len());
    }

    #[test]
    fn same_machine_child_has_no_transfers() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        // Map everything possible onto machine 0 greedily.
        while let Some(&t) = st.ready_tasks().first() {
            let plan = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&plan);
        }
        assert!(st.all_mapped());
        assert!(st.schedule().transfers().is_empty());
        // All reservations settled at zero: committed = exec only.
        assert_eq!(st.ledger().outstanding_reservations(), 0);
        assert!(st.ledger().check_invariants().is_ok());
        // AET equals the serial sum of secondary durations.
        let serial: Dur = sc
            .dag
            .tasks()
            .map(|t| sc.etc.exec_dur(t, m(0), Version::Secondary))
            .sum();
        assert_eq!(st.aet(), Time::ZERO + serial);
    }

    #[test]
    fn append_respects_not_before() {
        let sc = tiny_scenario();
        let st = SimState::new(&sc);
        let t = st.ready_tasks()[0];
        let now = Time::from_seconds(100);
        let plan = st.plan(
            t,
            Version::Primary,
            m(0),
            Placement::Append { not_before: now },
        );
        assert_eq!(plan.start, now);
    }

    #[test]
    fn version_feasibility_gates_on_energy() {
        let sc = tiny_scenario();
        let st = SimState::new(&sc);
        let t = st.ready_tasks()[0];
        // Fresh batteries: both versions fit everywhere.
        for j in sc.grid.ids() {
            assert!(st.version_feasible(t, Version::Primary, j));
            assert!(st.version_feasible(t, Version::Secondary, j));
        }
    }

    #[test]
    fn lost_machine_fails_feasibility() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let t = st.ready_tasks()[0];
        st.mark_lost(m(0), Time::ZERO);
        assert!(!st.is_alive(m(0)));
        assert!(!st.version_feasible(t, Version::Secondary, m(0)));
        assert!(st.version_feasible(t, Version::Secondary, m(1)));
    }

    #[test]
    fn unmap_reverses_commit_exactly() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let baseline = st.clone();
        let t = st.ready_tasks()[0];
        let plan = st.plan(
            t,
            Version::Primary,
            m(0),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
        assert!(st.unmap(t).is_empty(), "a root has no parent to starve");
        assert_eq!(st.mapped_count(), 0);
        assert_eq!(st.t100(), 0);
        assert_eq!(st.aet(), Time::ZERO);
        assert_eq!(st.ledger().outstanding_reservations(), 0);
        assert!(st
            .ledger()
            .available(m(0))
            .approx_eq(baseline.ledger().available(m(0)), 1e-9));
        let mut ready_now: Vec<_> = st.ready_tasks().to_vec();
        let mut ready_before: Vec<_> = baseline.ready_tasks().to_vec();
        ready_now.sort_unstable();
        ready_before.sort_unstable();
        assert_eq!(ready_now, ready_before);
    }

    #[test]
    fn unmap_restores_parent_reservations() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        // Map roots on m0 until a child is ready, then map + unmap it.
        while st
            .ready_tasks()
            .iter()
            .all(|&t| sc.dag.parents(t).is_empty())
        {
            let t = st.ready_tasks()[0];
            let p = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&p);
        }
        let child = *st
            .ready_tasks()
            .iter()
            .find(|&&t| !sc.dag.parents(t).is_empty())
            .unwrap();
        let before = st.ledger().outstanding_reservations();
        let plan = st.plan(
            child,
            Version::Primary,
            m(1),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
        let after_commit = st.ledger().outstanding_reservations();
        // Settled one reservation per parent, added one per child of `child`.
        assert_eq!(
            after_commit,
            before - sc.dag.parents(child).len() + sc.dag.children(child).len()
        );
        st.unmap(child);
        assert_eq!(st.ledger().outstanding_reservations(), before);
        assert!(st.ledger().check_invariants().is_ok());
    }

    #[test]
    fn every_mutation_bumps_the_revision() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        assert_eq!(st.revision(), 0);
        let mut expected = 0u64;
        while let Some(&t) = st.ready_tasks().first() {
            let plan = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&plan);
            expected += 1;
            assert_eq!(st.revision(), expected);
        }
        st.mark_lost(m(2), Time(10));
        assert_eq!(st.revision(), expected + 1);
    }

    #[test]
    fn commit_returns_the_children_it_readied() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let mut readied = 0;
        while let Some(&t) = st.ready_tasks().first() {
            let plan = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            // The children whose last unmapped parent is `t`, in child
            // order; nothing of the previous commit's list survives.
            let expected: Vec<TaskId> = sc
                .dag
                .children(t)
                .iter()
                .copied()
                .filter(|&c| sc.dag.parents(c).iter().all(|&p| p == t || st.is_mapped(p)))
                .collect();
            assert_eq!(st.commit(&plan), &expected[..]);
            readied += expected.len();
            for u in sc.dag.tasks() {
                assert_eq!(st.is_ready(u), st.ready_tasks().contains(&u), "{u}");
            }
        }
        assert!(readied > 0, "some commit readied a child");
    }

    #[test]
    fn cross_machine_commit_moves_the_senders_link_and_ledger() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        while st
            .ready_tasks()
            .iter()
            .all(|&t| sc.dag.parents(t).is_empty())
        {
            let t = st.ready_tasks()[0];
            let p = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&p);
        }
        let child = *st
            .ready_tasks()
            .iter()
            .find(|&&t| !sc.dag.parents(t).is_empty())
            .unwrap();
        let plan = st.plan(
            child,
            Version::Primary,
            m(1),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        assert!(!plan.transfers.is_empty(), "the parents sit on machine 0");
        let sender_spent = st.ledger().committed(m(0));
        let sender_link = st.tx_timeline(m(0)).ready_time();
        assert!(st.commit(&plan).is_empty(), "the drain left no child ready");
        assert!(!st.is_ready(child));
        // The sender pays for the shipment and its transmit link carries it.
        let shipped: Energy = plan.transfers.iter().map(|tr| tr.energy).sum();
        assert!(shipped.units() > 0.0);
        assert!(st
            .ledger()
            .committed(m(0))
            .approx_eq(sender_spent + shipped, 1e-9));
        let last_slot = plan
            .transfers
            .iter()
            .map(|tr| tr.start + tr.dur)
            .max()
            .unwrap();
        assert_eq!(
            st.tx_timeline(m(0)).ready_time(),
            sender_link.max(last_slot)
        );
        assert_eq!(st.rx_timeline(m(1)).ready_time(), last_slot);

        // Unmapping it gives both back and returns the child to the
        // ready set.
        assert!(
            st.unmap(child).is_empty(),
            "fresh batteries starve no parent"
        );
        assert!(st.is_ready(child));
        assert!(st.ledger().committed(m(0)).approx_eq(sender_spent, 1e-9));
        assert_eq!(st.tx_timeline(m(0)).ready_time(), sender_link);
        assert!(st.rx_timeline(m(1)).is_empty());
    }

    /// Run `st` to completion with the deterministic greedy policy the
    /// other tests use: always the first ready task, secondary, machine 0.
    fn drain_onto_m0(st: &mut SimState<'_>) {
        while let Some(&t) = st.ready_tasks().first() {
            let p = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&p);
        }
    }

    #[test]
    fn recycled_buffers_reproduce_fresh_state_exactly() {
        let sc = tiny_scenario();
        // Dirty the buffers with a complete run on a *different* scenario
        // (other task count, grid case and seeds) so any leaked content
        // or stale sizing would be caught.
        let other = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 1, 1);
        let mut dirty = SimState::new(&other);
        dirty.block_until(m(1), Time(7));
        drain_onto_m0(&mut dirty);
        assert!(dirty.all_mapped());
        let buffers = dirty.into_buffers();

        let fresh = SimState::new(&sc);
        let reused = SimState::new_in(&sc, buffers);

        assert_eq!(reused.revision(), 0);
        assert_eq!(reused.ready_tasks(), fresh.ready_tasks());
        assert_eq!(reused.mapped_count(), 0);
        assert_eq!(reused.aet(), Time::ZERO);
        assert_eq!(reused.metrics(), fresh.metrics());
        for j in sc.grid.ids() {
            assert!(reused.compute_timeline(j).is_empty());
            assert!(reused.tx_timeline(j).is_empty());
            assert!(reused.rx_timeline(j).is_empty());
            assert!(reused.is_alive(j));
            assert_eq!(reused.available_from(j), Time::ZERO);
            assert_eq!(
                reused.ledger().available(j).units().to_bits(),
                fresh.ledger().available(j).units().to_bits()
            );
        }
        // The recomputed demand table must match the fresh one bit for
        // bit — `version_feasible` compares these floats exactly.
        for t in sc.dag.tasks() {
            for j in sc.grid.ids() {
                for v in Version::BOTH {
                    assert_eq!(
                        reused.feasibility_demand(t, v, j).units().to_bits(),
                        fresh.feasibility_demand(t, v, j).units().to_bits(),
                        "demand differs at ({t}, {v:?}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn recycled_buffers_produce_identical_runs() {
        let sc = tiny_scenario();
        let mut fresh = SimState::new(&sc);
        drain_onto_m0(&mut fresh);

        let other = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 1, 1);
        let mut dirty = SimState::new(&other);
        dirty.block_until(m(1), Time(7));
        drain_onto_m0(&mut dirty);
        let mut reused = SimState::new_in(&sc, dirty.into_buffers());
        drain_onto_m0(&mut reused);

        assert_eq!(reused.metrics(), fresh.metrics());
        assert_eq!(reused.revision(), fresh.revision());
        assert_eq!(
            reused.ledger().total_committed().units().to_bits(),
            fresh.ledger().total_committed().units().to_bits()
        );
        for t in sc.dag.tasks() {
            assert_eq!(
                reused.schedule().assignment(t),
                fresh.schedule().assignment(t)
            );
        }
    }

    #[test]
    fn lent_tables_produce_identical_runs() {
        let sc = tiny_scenario();
        let mut own = SimState::new(&sc);
        drain_onto_m0(&mut own);

        // A lent run on buffers dirtied by another scenario, then an own
        // run on the buffers the lent run hands back.
        let other = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::B, 1, 1);
        let mut dirty = SimState::new(&other);
        drain_onto_m0(&mut dirty);
        let built = dirty.into_buffers();
        let storage = built.tables.storage();
        assert!(
            storage.iter().any(|&(_, cap)| cap > 0),
            "the own run built tables"
        );
        let tables = ScenarioTables::new(&sc);
        let mut lent = SimState::with_tables(&tables, built);
        drain_onto_m0(&mut lent);
        let mut after = SimState::new_in(&sc, lent.clone().into_buffers());
        drain_onto_m0(&mut after);

        for st in [&lent, &after] {
            assert_eq!(st.metrics(), own.metrics());
            assert_eq!(st.schedule().transfers(), own.schedule().transfers());
            for t in sc.dag.tasks() {
                assert_eq!(st.schedule().assignment(t), own.schedule().assignment(t));
                for j in sc.grid.ids() {
                    for v in Version::BOTH {
                        assert_eq!(
                            st.feasibility_demand(t, v, j).units().to_bits(),
                            own.feasibility_demand(t, v, j).units().to_bits()
                        );
                    }
                }
            }
        }
        // The lent run kept the own run's table storage aside and hands
        // it back whole, for the next own-table run to build on.
        assert_eq!(lent.into_buffers().tables.storage(), storage);
    }

    #[test]
    fn hoisted_gate_matches_version_feasible() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let tasks: Vec<TaskId> = sc.dag.tasks().collect();
        // Exercise full, partially drained, and dead-machine ledgers.
        for round in 0..3 {
            for j in sc.grid.ids() {
                for v in Version::BOTH {
                    // The definition: the ledger's own predicate over the
                    // §IV demand, on a live machine.
                    let affords = |&t: &TaskId| {
                        st.is_alive(j) && st.ledger().can_afford(j, st.feasibility_demand(t, v, j))
                    };
                    let expected: Vec<TaskId> = tasks.iter().copied().filter(affords).collect();
                    let gated = |&t: &TaskId| st.version_feasible(t, v, j);
                    let out: Vec<TaskId> = tasks.iter().copied().filter(gated).collect();
                    assert_eq!(out, expected, "round {round}, ({v:?}, {j})");
                    assert_eq!(
                        st.any_feasible_candidate(&tasks, v, j),
                        !expected.is_empty(),
                        "round {round}, ({v:?}, {j})"
                    );
                }
            }
            match round {
                0 => drain_onto_m0(&mut st),
                1 => {
                    st.mark_lost(m(0), Time::ZERO);
                }
                _ => {}
            }
        }
    }

    #[test]
    #[should_panic(expected = "child")]
    fn unmap_with_mapped_child_panics() {
        let sc = tiny_scenario();
        let mut st = SimState::new(&sc);
        let mut last = None;
        while let Some(&t) = st.ready_tasks().first() {
            let p = st.plan(
                t,
                Version::Secondary,
                m(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&p);
            last = Some(t);
        }
        // Unmap some task that has mapped children: pick a parent of `last`.
        let victim = sc.dag.parents(last.unwrap()).first().copied();
        if let Some(v) = victim {
            st.unmap(v);
        } else {
            panic!("child still mapped"); // satisfy the expected panic if DAG degenerate
        }
    }
}
