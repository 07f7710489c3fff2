//! Pure (non-mutating) planning of a candidate mapping.
//!
//! A [`MappingPlan`] is everything that committing `(task, version,
//! machine)` would do to the simulation: the incoming transfer slots, the
//! execution slot, every energy movement, and the resulting global
//! quantities (`T100`, `TEC`, `AET`) the SLRH objective function is
//! evaluated on. Heuristics plan many candidates, score them, and commit
//! exactly one — so planning must not touch any state.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Energy, Megabits, Time};

use crate::state::SimState;
use crate::timeline::{Interval, Timeline};

/// Where a new execution may be placed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Placement {
    /// SLRH semantics (§IV): no action (transfer or execution) may be
    /// scheduled before `not_before` (the current clock), and the
    /// execution is appended after the machine's availability time —
    /// the dynamic heuristic never looks backward in time.
    Append {
        /// The current clock tick.
        not_before: Time,
    },
    /// Max-Max semantics (§V): the execution may be inserted into a
    /// sufficiently large hole in the machine's existing schedule,
    /// anywhere from time zero on.
    Insert,
}

impl Placement {
    fn not_before(self) -> Time {
        match self {
            Placement::Append { not_before } => not_before,
            Placement::Insert => Time::ZERO,
        }
    }
}

/// One planned incoming cross-machine transfer.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PlannedTransfer {
    /// The producing parent subtask.
    pub parent: TaskId,
    /// The sending machine (the parent's machine).
    pub from: MachineId,
    /// Item size actually shipped (parent's version factor applied).
    pub size: Megabits,
    /// Slot start.
    pub start: Time,
    /// Slot length.
    pub dur: Dur,
    /// Energy the sender pays.
    pub energy: Energy,
}

/// The reservation settlement for one parent edge.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EdgeSettlement {
    /// The id of the parent edge whose reservation is settled (`Dag`'s
    /// "Edge ids").
    pub edge: usize,
    /// Actual transmission energy (zero for a same-machine parent).
    pub actual: Energy,
}

/// A fully-costed candidate mapping, ready to be scored or committed.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingPlan {
    /// The subtask being mapped.
    pub task: TaskId,
    /// The version to execute.
    pub version: Version,
    /// The target machine.
    pub machine: MachineId,
    /// Execution start.
    pub start: Time,
    /// Execution duration.
    pub exec_dur: Dur,
    /// Energy committed on [`MappingPlan::machine`] for the execution.
    pub exec_energy: Energy,
    /// Incoming cross-machine transfers, in parent-id order.
    pub transfers: Vec<PlannedTransfer>,
    /// Settlements for *every* parent edge (same-machine parents settle
    /// at zero cost).
    pub settlements: Vec<EdgeSettlement>,
    /// Worst-case outgoing reservation charged to the target machine,
    /// itemised per child edge, in child order (so aligned with the
    /// task's [`adhoc_grid::dag::Dag::out_edges`]).
    pub child_reservations: Vec<(TaskId, Energy)>,
    /// `T100` after committing this plan.
    pub t100_after: usize,
    /// Total energy committed across the grid after committing (`TEC`).
    pub tec_after: Energy,
    /// Application execution time after committing (`AET`).
    pub aet_after: Time,
}

impl MappingPlan {
    /// First tick after the execution completes.
    pub fn finish(&self) -> Time {
        self.start + self.exec_dur
    }
}

/// The three global quantities a commit moves — what the SLRH objective
/// is evaluated on.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PlanTotals {
    /// `T100` after the commit.
    pub t100_after: usize,
    /// Total energy committed across the grid after the commit (`TEC`).
    pub tec_after: Energy,
    /// Application execution time after the commit (`AET`).
    pub aet_after: Time,
}

impl PlanTotals {
    /// The one definition [`plan_mapping`], [`AppendCost::at`] and
    /// [`InsertSlot::totals`] share:
    /// `TEC + exec + Σ transfers` in exactly this association order, so
    /// a costing's totals are the plan's, bit for bit.
    fn after(
        state: &SimState<'_>,
        version: Version,
        start: Time,
        exec_dur: Dur,
        exec_energy: Energy,
        transfer_energy: Energy,
    ) -> PlanTotals {
        PlanTotals {
            t100_after: state.t100() + usize::from(version.is_primary()),
            tec_after: state.tec() + exec_energy + transfer_energy,
            aet_after: state.aet().max(start + exec_dur),
        }
    }
}

/// The version-independent half of an [`Placement::Append`] plan for one
/// `(task, machine)` pair: under `Append` the transfer slots depend only
/// on the parents' placements and the links' occupation, and the
/// execution is queued behind the machine's availability whatever its
/// length — so neither the start nor the transfer energy changes with
/// the version. (Under [`Placement::Insert`] only the transfers are
/// shared; see [`InsertCost`].)
///
/// Produced by [`SimState::cost_append`] from the same
/// transfer-placement walk [`SimState::plan_with`] runs, without
/// building a [`MappingPlan`]; [`AppendCost::at`] completes it for a
/// version.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AppendCost {
    /// The subtask costed.
    pub task: TaskId,
    /// The target machine.
    pub machine: MachineId,
    /// Execution start of either version's plan.
    pub start: Time,
    /// Energy the senders pay: the transfer energies summed in parent
    /// order, as the plan sums them.
    pub transfer_energy: Energy,
}

impl AppendCost {
    /// The totals of the plan for `version`: equal to the
    /// `t100_after` / `tec_after` / `aet_after` [`SimState::plan_with`]
    /// reports for the same state, bit for bit.
    pub fn at(&self, state: &SimState<'_>, version: Version) -> PlanTotals {
        let sc = state.scenario();
        let exec_dur = sc.etc.exec_dur(self.task, self.machine, version);
        let exec_energy = sc.grid.machine(self.machine).compute_energy(exec_dur);
        PlanTotals::after(state, version, self.start, exec_dur, exec_energy, self.transfer_energy)
    }
}

/// The version-independent half of a [`Placement::Insert`] plan for one
/// `(task, machine)` pair: the transfer-placement walk from time zero.
/// Its inputs are the parents' placements and the links' occupation, not
/// the version of the task being placed, so the instant every input is
/// on the machine and the transfer energy are the same for both
/// versions. Only the execution's gap search depends on the version —
/// a shorter secondary can fit a hole the primary cannot — and
/// [`InsertCost::at`] runs it.
///
/// Produced by [`SimState::cost_insert`] without building a
/// [`MappingPlan`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct InsertCost {
    /// The subtask costed.
    pub task: TaskId,
    /// The target machine.
    pub machine: MachineId,
    /// The instant every input item is on the machine: where the
    /// execution's gap search starts.
    pub arrival: Time,
    /// Energy the senders pay: the transfer energies summed in parent
    /// order, as the plan sums them.
    pub transfer_energy: Energy,
}

impl InsertCost {
    /// Where the plan for `version` puts its execution: the machine's
    /// earliest compute gap of the execution's length from the arrival
    /// instant — the plan's `start`, bit for bit.
    pub fn at(&self, state: &SimState<'_>, version: Version) -> InsertSlot {
        let sc = state.scenario();
        let exec_dur = sc.etc.exec_dur(self.task, self.machine, version);
        InsertSlot {
            version,
            start: state
                .compute_timeline(self.machine)
                .earliest_gap(self.arrival, exec_dur),
            exec_dur,
            exec_energy: sc.grid.machine(self.machine).compute_energy(exec_dur),
            transfer_energy: self.transfer_energy,
        }
    }
}

/// One version's completion of an [`InsertCost`]. It reads the target's
/// compute timeline and the costing, not the grid-wide totals, so it
/// stays what the plan would do for as long as those two do;
/// [`InsertSlot::totals`] reads the totals of the state it is given.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct InsertSlot {
    /// The version placed.
    pub version: Version,
    /// Execution start.
    pub start: Time,
    /// Execution duration.
    pub exec_dur: Dur,
    /// Energy the execution commits on the target.
    pub exec_energy: Energy,
    /// The costing's transfer energy.
    pub transfer_energy: Energy,
}

impl InsertSlot {
    /// First tick after the execution completes.
    pub fn finish(&self) -> Time {
        self.start + self.exec_dur
    }

    /// The totals of the plan for this slot in `state`: equal to the
    /// `t100_after` / `tec_after` / `aet_after` [`SimState::plan_with`]
    /// reports for the same state, bit for bit.
    pub fn totals(&self, state: &SimState<'_>) -> PlanTotals {
        PlanTotals::after(
            state,
            self.version,
            self.start,
            self.exec_dur,
            self.exec_energy,
            self.transfer_energy,
        )
    }
}

/// Reusable storage for the planner: the transfer-placement search's
/// per-plan link overlays, and the three vectors of the next
/// [`MappingPlan`].
///
/// With fresh `Vec`s per call the SLRH inner loop — thousands of
/// costings and one plan per commit — spends a measurable share of its
/// time in the allocator. Callers that plan in a loop (the candidate
/// kernels, Max-Max) hold one `PlanScratch`, pass it to
/// [`SimState::plan_with`] / [`SimState::cost_append`] /
/// [`SimState::cost_insert`], and hand a plan's vectors back with
/// [`PlanScratch::recycle`] once it is committed; the buffers are
/// cleared, never shrunk, so steady state performs no allocation at all.
///
/// The scratch carries no results across calls — only capacity. Using
/// one scratch for every plan of a run is therefore observationally
/// identical to fresh buffers.
#[derive(Default, Debug)]
pub struct PlanScratch {
    /// Transfer slots already placed by this plan, per sending machine.
    tx_overlays: Vec<(MachineId, Interval)>,
    /// Transfer slots already placed on the target's receive link.
    rx_overlay: Vec<Interval>,
    /// Per-parent filter of `tx_overlays` down to one sender.
    tx_extra: Vec<Interval>,
    /// Storage for the next plan's `transfers` / `settlements` /
    /// `child_reservations` (see [`PlanScratch::recycle`]).
    transfers: Vec<PlannedTransfer>,
    settlements: Vec<EdgeSettlement>,
    child_reservations: Vec<(TaskId, Energy)>,
}

impl PlanScratch {
    /// Take a spent plan's vectors back as storage for the next plan
    /// built on this scratch. Capacity only: the next plan clears them.
    pub fn recycle(&mut self, plan: MappingPlan) {
        self.transfers = plan.transfers;
        self.settlements = plan.settlements;
        self.child_reservations = plan.child_reservations;
    }
}

/// An empty vector on `spare`'s storage.
pub(crate) fn emptied<T>(spare: &mut Vec<T>) -> Vec<T> {
    let mut v = std::mem::take(spare);
    v.clear();
    v
}

/// What the transfer-placement walk establishes whoever consumes it.
struct Inputs {
    /// The instant every input item is on the target machine (never
    /// before `not_before`).
    arrival: Time,
    /// The transfer energies, summed in parent order.
    transfer_energy: Energy,
}

/// The transfer-placement walk: first-fit every cross-machine input of
/// `task` onto the sender's transmit link and `machine`'s receive link,
/// parent by parent, overlaying the slots already placed within this
/// walk so two parents cannot share a link. `edge` sees every parent
/// edge's settlement and, for a cross-machine parent, its slot — the
/// planner keeps them, the costing does not.
///
/// # Panics
/// Panics if any parent is unmapped.
fn place_transfers(
    state: &SimState<'_>,
    task: TaskId,
    machine: MachineId,
    not_before: Time,
    scratch: &mut PlanScratch,
    mut edge: impl FnMut(EdgeSettlement, Option<PlannedTransfer>),
) -> Inputs {
    let sc = state.scenario();
    let PlanScratch {
        tx_overlays,
        rx_overlay,
        tx_extra,
        ..
    } = scratch;
    tx_overlays.clear();
    rx_overlay.clear();
    let mut arrival = not_before;
    let mut transfer_energy = Energy::ZERO;

    for (&p, e) in sc.dag.parents(task).iter().zip(sc.dag.in_edges(task)) {
        let pa = state
            .schedule()
            .assignment(p)
            .unwrap_or_else(|| panic!("parent {p} of {task} is not mapped"));
        if pa.machine == machine {
            // Same-machine data movement is instantaneous and free.
            arrival = arrival.max(pa.finish());
            edge(
                EdgeSettlement {
                    edge: e,
                    actual: Energy::ZERO,
                },
                None,
            );
            continue;
        }
        let size = sc.data.by_id(e).scaled(pa.version.data_factor());
        let from_spec = sc.grid.machine(pa.machine);
        let to_spec = sc.grid.machine(machine);
        let dur = from_spec.transfer_dur(to_spec, size);
        tx_extra.clear();
        tx_extra.extend(
            tx_overlays
                .iter()
                .filter(|&&(m, _)| m == pa.machine)
                .map(|&(_, iv)| iv),
        );
        let earliest = pa.finish().max(not_before);
        let start = earliest_common_gap(
            state.tx_timeline(pa.machine),
            tx_extra,
            state.rx_timeline(machine),
            rx_overlay,
            earliest,
            dur,
        );
        let energy = from_spec.transmit_energy(dur);
        let iv = Interval::new(start, dur);
        tx_overlays.push((pa.machine, iv));
        rx_overlay.push(iv);
        arrival = arrival.max(start + dur);
        transfer_energy += energy;
        edge(
            EdgeSettlement {
                edge: e,
                actual: energy,
            },
            Some(PlannedTransfer {
                parent: p,
                from: pa.machine,
                size,
                start,
                dur,
                energy,
            }),
        );
    }
    Inputs {
        arrival,
        transfer_energy,
    }
}

/// Cost mapping `task` onto `machine` under `Append` without building
/// the plan. See [`SimState::cost_append`] for the public entry point.
pub(crate) fn cost_append(
    state: &SimState<'_>,
    task: TaskId,
    machine: MachineId,
    not_before: Time,
    scratch: &mut PlanScratch,
) -> AppendCost {
    assert!(!state.is_mapped(task), "{task} is already mapped");
    let inputs = place_transfers(state, task, machine, not_before, scratch, |_, _| {});
    AppendCost {
        task,
        machine,
        start: inputs.arrival.max(state.compute_ready(machine)),
        transfer_energy: inputs.transfer_energy,
    }
}

/// Cost mapping `task` onto `machine` under `Insert` without building
/// the plan. See [`SimState::cost_insert`] for the public entry point.
pub(crate) fn cost_insert(
    state: &SimState<'_>,
    task: TaskId,
    machine: MachineId,
    scratch: &mut PlanScratch,
) -> InsertCost {
    assert!(!state.is_mapped(task), "{task} is already mapped");
    let not_before = Placement::Insert.not_before();
    let inputs = place_transfers(state, task, machine, not_before, scratch, |_, _| {});
    InsertCost {
        task,
        machine,
        arrival: inputs.arrival,
        transfer_energy: inputs.transfer_energy,
    }
}

/// Plan mapping `(task, version)` onto `machine`. See
/// [`SimState::plan`] for the public entry point.
///
/// # Panics
/// Panics if `task` is already mapped or any parent is unmapped.
pub(crate) fn plan_mapping(
    state: &SimState<'_>,
    task: TaskId,
    version: Version,
    machine: MachineId,
    placement: Placement,
    scratch: &mut PlanScratch,
) -> MappingPlan {
    let sc = state.scenario();
    assert!(!state.is_mapped(task), "{task} is already mapped");

    let mut transfers = emptied(&mut scratch.transfers);
    let mut settlements = emptied(&mut scratch.settlements);
    let not_before = placement.not_before();
    let Inputs {
        arrival,
        transfer_energy,
    } = place_transfers(state, task, machine, not_before, scratch, |settlement, slot| {
        settlements.push(settlement);
        transfers.extend(slot);
    });

    // Place the execution.
    let exec_dur = sc.etc.exec_dur(task, machine, version);
    let start = match placement {
        Placement::Append { .. } => arrival.max(state.compute_ready(machine)),
        Placement::Insert => state
            .compute_timeline(machine)
            .earliest_gap(arrival, exec_dur),
    };
    let exec_energy = sc.grid.machine(machine).compute_energy(exec_dur);

    // Worst-case outgoing reservations for every (necessarily unmapped)
    // child: assume the child lands across the grid's slowest link.
    let mut child_reservations = emptied(&mut scratch.child_reservations);
    child_reservations.extend(worst_case_child_reservations(state, task, version, machine));

    let PlanTotals {
        t100_after,
        tec_after,
        aet_after,
    } = PlanTotals::after(state, version, start, exec_dur, exec_energy, transfer_energy);

    MappingPlan {
        task,
        version,
        machine,
        start,
        exec_dur,
        exec_energy,
        transfers,
        settlements,
        child_reservations,
        t100_after,
        tec_after,
        aet_after,
    }
}

/// Total §IV worst-case outgoing energy for `(task, version)` on
/// `machine`: the sum of [`worst_case_child_reservations`] without
/// materialising the per-child vector. Summation order is the child
/// order, identical to summing the collected vector, so the result is
/// bit-for-bit the same.
pub(crate) fn worst_case_out_energy(
    state: &SimState<'_>,
    task: TaskId,
    version: Version,
    machine: MachineId,
) -> Energy {
    worst_case_child_reservations(state, task, version, machine)
        .map(|(_, e)| e)
        .sum()
}

/// Worst-case per-child outgoing reservations for `(task, version)` on
/// `machine`, in child order — the §IV conservative bound used both for
/// planning and for pool feasibility: `machine`'s transmit energy over
/// each out-edge's worst-case duration (the state's per-edge table).
fn worst_case_child_reservations<'b>(
    state: &'b SimState<'_>,
    task: TaskId,
    version: Version,
    machine: MachineId,
) -> impl Iterator<Item = (TaskId, Energy)> + 'b {
    let dag = &state.scenario().dag;
    let spec = state.scenario().grid.machine(machine);
    dag.children(task)
        .iter()
        .zip(dag.out_edges(task))
        .map(move |(&c, &e)| {
            let worst = state.worst_dur(e as usize, version);
            (c, spec.transmit_energy(worst))
        })
}

/// Earliest instant `>= not_before` at which a span of `dur` is free on
/// *both* the sender's tx timeline and the receiver's rx timeline
/// (including the per-plan overlays).
///
/// Alternates gap searches on the two timelines; the candidate time is
/// non-decreasing and bounded by the end of all occupation, so the loop
/// terminates.
fn earliest_common_gap(
    tx: &Timeline,
    tx_extra: &[Interval],
    rx: &Timeline,
    rx_extra: &[Interval],
    not_before: Time,
    dur: Dur,
) -> Time {
    let mut t = not_before;
    loop {
        let s = tx.earliest_gap_with(tx_extra, t, dur);
        let s2 = rx.earliest_gap_with(rx_extra, s, dur);
        if s2 == s {
            return s;
        }
        t = s2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::units::{Dur, Time};
    use adhoc_grid::workload::{Scenario, ScenarioParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On mid-run states — machines queued, holes left by inserted
        /// executions, links occupied, energy spent — the one-walk
        /// costings are the plans' version-independent halves for every
        /// ready task × machine × version, under both placements: the
        /// same start, and `T100` / `TEC` / `AET` equal bit for bit. And
        /// a plan built on recycled storage equals the plan built on
        /// fresh storage.
        #[test]
        fn the_costing_is_the_plan_without_its_vectors(
            dag_id in 0usize..4,
            commits in 0usize..24,
            now in 0u64..400,
        ) {
            let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, dag_id);
            let mut state = SimState::new(&sc);
            for step in 0..commits {
                let Some(&t) = state.ready_tasks().first() else { break };
                let j = MachineId(step % sc.grid.len());
                let v = if step % 3 == 0 { Version::Primary } else { Version::Secondary };
                let placement = if step % 2 == 0 {
                    Placement::Append { not_before: Time::ZERO }
                } else {
                    Placement::Insert
                };
                if state.version_feasible(t, v, j) {
                    let plan = state.plan(t, v, j, placement);
                    state.commit(&plan);
                }
            }
            let now = Time(now);
            let placement = Placement::Append { not_before: now };
            let mut scratch = PlanScratch::default();
            for &t in state.ready_tasks() {
                for j in sc.grid.ids() {
                    let cost = state.cost_append(t, j, now, &mut scratch);
                    prop_assert_eq!((cost.task, cost.machine), (t, j));
                    let insert = state.cost_insert(t, j, &mut scratch);
                    prop_assert_eq!((insert.task, insert.machine), (t, j));
                    for v in Version::BOTH {
                        let fresh = state.plan(t, v, j, placement);
                        let totals = cost.at(&state, v);
                        prop_assert_eq!(cost.start, fresh.start);
                        prop_assert_eq!(totals.t100_after, fresh.t100_after);
                        prop_assert_eq!(totals.aet_after, fresh.aet_after);
                        prop_assert_eq!(
                            totals.tec_after.units().to_bits(),
                            fresh.tec_after.units().to_bits()
                        );

                        let planned = state.plan(t, v, j, Placement::Insert);
                        let slot = insert.at(&state, v);
                        let totals = slot.totals(&state);
                        prop_assert_eq!(slot.version, v);
                        prop_assert_eq!(slot.start, planned.start);
                        prop_assert_eq!(slot.finish(), planned.finish());
                        prop_assert_eq!(totals.t100_after, planned.t100_after);
                        prop_assert_eq!(totals.aet_after, planned.aet_after);
                        prop_assert_eq!(
                            totals.tec_after.units().to_bits(),
                            planned.tec_after.units().to_bits()
                        );

                        // The scratch has held costings and other pairs'
                        // plans by now; none of it shows.
                        let recycled = state.plan_with(t, v, j, placement, &mut scratch);
                        prop_assert_eq!(&recycled, &fresh);
                        scratch.recycle(recycled);
                    }
                }
            }
        }
    }

    #[test]
    fn common_gap_alternation_converges() {
        let mut tx = Timeline::new();
        let mut rx = Timeline::new();
        // tx busy [0,10), rx busy [10,20): first common slot of 5 is t=20.
        tx.insert(Time(0), Dur(10));
        rx.insert(Time(10), Dur(10));
        let s = earliest_common_gap(&tx, &[], &rx, &[], Time(0), Dur(5));
        assert_eq!(s, Time(20));
    }

    #[test]
    fn common_gap_respects_overlays() {
        let tx = Timeline::new();
        let rx = Timeline::new();
        let overlay = [Interval::new(Time(0), Dur(7))];
        let s = earliest_common_gap(&tx, &overlay, &rx, &[], Time(0), Dur(3));
        assert_eq!(s, Time(7));
    }

    #[test]
    fn common_gap_zero_duration() {
        let mut tx = Timeline::new();
        tx.insert(Time(0), Dur(10));
        let rx = Timeline::new();
        assert_eq!(
            earliest_common_gap(&tx, &[], &rx, &[], Time(3), Dur::ZERO),
            Time(3)
        );
    }
}
