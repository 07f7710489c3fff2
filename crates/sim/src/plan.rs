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
    /// The parent whose outgoing reservation is settled.
    pub parent: TaskId,
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
    /// itemised per child edge.
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

/// Reusable buffers for the planner's transfer-placement search.
///
/// Every plan runs a first-fit search that accumulates
/// per-plan link overlays; with a fresh `Vec` per call the SLRH inner
/// loop — thousands of plans per run — spends a measurable share of its
/// time in the allocator. Callers that plan in a loop (the candidate
/// kernels) hold one `PlanScratch` and pass it to
/// [`SimState::plan_with`]; the buffers are cleared, never shrunk, so steady state performs no allocation at all.
///
/// The scratch carries no results across calls — only capacity. Using one
/// scratch for every plan in a pool build is therefore observationally
/// identical to fresh buffers.
#[derive(Default, Debug)]
pub struct PlanScratch {
    /// Transfer slots already placed by this plan, per sending machine.
    tx_overlays: Vec<(MachineId, Interval)>,
    /// Transfer slots already placed on the target's receive link.
    rx_overlay: Vec<Interval>,
    /// Per-parent filter of `tx_overlays` down to one sender.
    tx_extra: Vec<Interval>,
}

impl PlanScratch {
    fn reset(&mut self) {
        self.tx_overlays.clear();
        self.rx_overlay.clear();
        self.tx_extra.clear();
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
    let not_before = placement.not_before();

    // Plan incoming transfers parent-by-parent, overlaying slots already
    // planned within this mapping so two parents cannot share the target's
    // receive link.
    let mut transfers = Vec::new();
    let mut settlements = Vec::new();
    scratch.reset();
    let PlanScratch {
        tx_overlays,
        rx_overlay,
        tx_extra,
    } = scratch;
    let mut arrival = not_before;

    for &p in sc.dag.parents(task) {
        let pa = state
            .schedule()
            .assignment(p)
            .unwrap_or_else(|| panic!("parent {p} of {task} is not mapped"));
        if pa.machine == machine {
            // Same-machine data movement is instantaneous and free.
            arrival = arrival.max(pa.finish());
            settlements.push(EdgeSettlement {
                parent: p,
                actual: Energy::ZERO,
            });
            continue;
        }
        let size = sc.data.edge(&sc.dag, p, task).scaled(pa.version.data_factor());
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
        transfers.push(PlannedTransfer {
            parent: p,
            from: pa.machine,
            size,
            start,
            dur,
            energy,
        });
        settlements.push(EdgeSettlement { parent: p, actual: energy });
    }

    // Place the execution.
    let exec_dur = sc.etc.exec_dur(task, machine, version);
    let start = match placement {
        Placement::Append { not_before } => {
            arrival.max(not_before).max(state.compute_ready(machine))
        }
        Placement::Insert => state
            .compute_timeline(machine)
            .earliest_gap(arrival, exec_dur),
    };
    let exec_energy = sc.grid.machine(machine).compute_energy(exec_dur);

    // Worst-case outgoing reservations for every (necessarily unmapped)
    // child: assume the child lands across the grid's slowest link.
    let child_reservations = worst_case_child_reservations(state, task, version, machine);

    let t100_after = state.t100() + usize::from(version.is_primary());
    let tec_after = state.tec()
        + exec_energy
        + transfers.iter().map(|t| t.energy).sum::<Energy>();
    let aet_after = state.aet().max(start + exec_dur);

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
    let sc = state.scenario();
    let spec = sc.grid.machine(machine);
    let min_bw = sc.grid.min_bandwidth_mbps();
    sc.dag
        .children(task)
        .iter()
        .map(|&c| {
            let size = sc.data.edge(&sc.dag, task, c).scaled(version.data_factor());
            let worst_dur = Dur::from_seconds_ceil(size.transfer_seconds(min_bw));
            spec.transmit_energy(worst_dur)
        })
        .sum()
}

/// Worst-case per-child outgoing reservations for `(task, version)` on
/// `machine` — the §IV conservative bound used both for planning and for
/// pool feasibility.
pub(crate) fn worst_case_child_reservations(
    state: &SimState<'_>,
    task: TaskId,
    version: Version,
    machine: MachineId,
) -> Vec<(TaskId, Energy)> {
    let sc = state.scenario();
    let spec = sc.grid.machine(machine);
    let min_bw = sc.grid.min_bandwidth_mbps();
    sc.dag
        .children(task)
        .iter()
        .map(|&c| {
            let size = sc.data.edge(&sc.dag, task, c).scaled(version.data_factor());
            let worst_dur = Dur::from_seconds_ceil(size.transfer_seconds(min_bw));
            (c, spec.transmit_energy(worst_dur))
        })
        .collect()
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
    use adhoc_grid::units::{Dur, Time};

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
