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
    /// `T100` / `TEC` / `AET` after committing this plan.
    pub totals: PlanTotals,
}

impl MappingPlan {
    /// First tick after the execution completes.
    #[inline]
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

/// The version-independent half of a plan for one `(task, machine)`
/// pair: the transfer-placement walk. Its inputs are the parents'
/// placements and the links' occupation, not the version of the task
/// being placed, so the instant every input is on the machine and the
/// transfer energy are the same for both versions. [`Costing::at`]
/// places the execution for one version.
///
/// Produced by [`SimState::cost`] from the walk [`SimState::plan_with`]
/// runs, without building a [`MappingPlan`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Costing {
    /// The subtask costed.
    pub task: TaskId,
    /// The target machine.
    pub machine: MachineId,
    /// Where the execution may go.
    pub placement: Placement,
    /// The instant every input item is on the machine (never before the
    /// placement's clock).
    pub arrival: Time,
    /// Energy the senders pay: the transfer energies summed in parent
    /// order, as the plan sums them.
    pub transfer_energy: Energy,
}

impl Costing {
    /// Where the plan for `version` puts its execution — the plan's
    /// `start`, bit for bit. `Append` queues it behind the machine's
    /// availability, whatever its length; `Insert` takes the machine's
    /// earliest compute gap of its length from the arrival instant (a
    /// shorter secondary can fit a hole the primary cannot).
    pub fn at(&self, state: &SimState<'_>, version: Version) -> Slot {
        let sc = state.scenario();
        let exec_dur = sc.etc.exec_dur(self.task, self.machine, version);
        let start = match self.placement {
            Placement::Append { .. } => self.arrival.max(state.compute_ready(self.machine)),
            Placement::Insert => state
                .compute_timeline(self.machine)
                .earliest_gap(self.arrival, exec_dur),
        };
        Slot {
            version,
            start,
            exec_dur,
            exec_energy: sc.grid.machine(self.machine).compute_energy(exec_dur),
            transfer_energy: self.transfer_energy,
        }
    }
}

/// One version's completion of a [`Costing`]. It reads the target's
/// compute timeline and the costing, not the grid-wide totals, so it
/// stays what the plan would do for as long as those two do;
/// [`Slot::totals`] reads the totals of the state it is given.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Slot {
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

impl Slot {
    /// First tick after the execution completes.
    #[inline]
    pub fn finish(&self) -> Time {
        self.start + self.exec_dur
    }

    /// The totals after committing this slot in `state`: the one
    /// definition, which [`SimState::plan_with`] calls too, so a
    /// costing's totals are the plan's bit for bit (`TEC + exec +
    /// Σ transfers` in exactly this association order).
    pub fn totals(&self, state: &SimState<'_>) -> PlanTotals {
        PlanTotals {
            t100_after: state.t100() + usize::from(self.version.is_primary()),
            tec_after: state.tec() + self.exec_energy + self.transfer_energy,
            aet_after: state.aet().max(self.finish()),
        }
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
/// [`SimState::plan_with`] / [`SimState::cost`], and hand a plan's
/// vectors back with
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

/// The transfer-placement walk: first-fit every cross-machine input of
/// `task` onto the sender's transmit link and `machine`'s receive link,
/// parent by parent, overlaying the slots already placed within this
/// walk so two parents cannot share a link. `edge` sees every parent
/// edge's settlement and, for a cross-machine parent, its slot — the
/// planner keeps them, [`SimState::cost`] does not.
///
/// # Panics
/// Panics if `task` is mapped or any parent is unmapped.
pub(crate) fn cost(
    state: &SimState<'_>,
    task: TaskId,
    machine: MachineId,
    placement: Placement,
    scratch: &mut PlanScratch,
    mut edge: impl FnMut(EdgeSettlement, Option<PlannedTransfer>),
) -> Costing {
    assert!(!state.is_mapped(task), "{task} is already mapped");
    let sc = state.scenario();
    let PlanScratch {
        tx_overlays,
        rx_overlay,
        tx_extra,
        ..
    } = scratch;
    tx_overlays.clear();
    rx_overlay.clear();
    let not_before = placement.not_before();
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
    Costing {
        task,
        machine,
        placement,
        arrival,
        transfer_energy,
    }
}

/// Plan mapping `(task, version)` onto `machine`: the costing walk,
/// recording every edge, completed by [`Costing::at`] and
/// [`Slot::totals`]. See [`SimState::plan`] for the public entry point.
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
    let mut transfers = emptied(&mut scratch.transfers);
    let mut settlements = emptied(&mut scratch.settlements);
    let slot = cost(
        state,
        task,
        machine,
        placement,
        scratch,
        |settlement, slot| {
            settlements.push(settlement);
            transfers.extend(slot);
        },
    )
    .at(state, version);

    // Worst-case outgoing reservations for every (necessarily unmapped)
    // child: assume the child lands across the grid's slowest link.
    let mut child_reservations = emptied(&mut scratch.child_reservations);
    child_reservations.extend(state.tables().child_reservations(task, version, machine));

    MappingPlan {
        task,
        version,
        machine,
        start: slot.start,
        exec_dur: slot.exec_dur,
        exec_energy: slot.exec_energy,
        transfers,
        settlements,
        child_reservations,
        totals: slot.totals(state),
    }
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
        /// executions, links occupied, energy spent — one costing per
        /// ready task × machine, under either placement, completes to
        /// each version's plan without its vectors: the same execution
        /// slot, and every energy and total bit for bit. The slot is
        /// also checked against the timelines directly: free, not before
        /// the inputs arrive, and under `Append` behind the machine's
        /// availability. And a plan built on recycled storage equals the
        /// plan built on fresh storage.
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
            let bits = |e: Energy| e.units().to_bits();
            let mut scratch = PlanScratch::default();
            for &t in state.ready_tasks() {
                for j in sc.grid.ids() {
                    for placement in [Placement::Append { not_before: Time(now) }, Placement::Insert] {
                        let cost = state.cost(t, j, placement, &mut scratch);
                        prop_assert_eq!((cost.task, cost.machine, cost.placement), (t, j, placement));
                        for v in Version::BOTH {
                            let plan = state.plan(t, v, j, placement);
                            let slot = cost.at(&state, v);
                            prop_assert_eq!(slot.version, v);
                            prop_assert_eq!(slot.start, plan.start);
                            prop_assert_eq!(slot.finish(), plan.finish());
                            prop_assert_eq!(slot.exec_dur, plan.exec_dur);
                            prop_assert_eq!(bits(slot.exec_energy), bits(plan.exec_energy));
                            let shipped: Energy = plan.transfers.iter().map(|tr| tr.energy).sum();
                            prop_assert_eq!(bits(cost.transfer_energy), bits(shipped));
                            let totals = slot.totals(&state);
                            prop_assert_eq!(totals.t100_after, plan.totals.t100_after);
                            prop_assert_eq!(totals.aet_after, plan.totals.aet_after);
                            prop_assert_eq!(bits(totals.tec_after), bits(plan.totals.tec_after));

                            let compute = state.compute_timeline(j);
                            prop_assert!(compute.is_free(slot.start, slot.exec_dur));
                            prop_assert!(slot.start >= cost.arrival);
                            if let Placement::Append { not_before } = placement {
                                prop_assert!(slot.start >= not_before);
                                prop_assert!(slot.start >= state.compute_ready(j));
                            }

                            // The scratch has held costings and other
                            // pairs' plans by now; none of it shows.
                            let recycled = state.plan_with(t, v, j, placement, &mut scratch);
                            prop_assert_eq!(&recycled, &plan);
                            scratch.recycle(recycled);
                        }
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
