//! Negative-path validator tests: hand-built schedules (and one state)
//! with deliberate violations of each physical constraint, checked to be
//! *caught*. The
//! validator is the project's safety net; these tests are the safety net's
//! safety net.

use adhoc_grid::config::{GridCase, GridConfig, MachineId};
use adhoc_grid::dag::Dag;
use adhoc_grid::data::DataSizes;
use adhoc_grid::etc::EtcMatrix;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Energy, Megabits, Time};
use adhoc_grid::workload::Scenario;
use gridsim::plan::Placement;
use gridsim::schedule::{Assignment, Schedule, Transfer};
use gridsim::state::SimState;
use gridsim::validate::{validate, validate_schedule, Invariant};

fn t(i: usize) -> TaskId {
    TaskId(i)
}
fn m(j: usize) -> MachineId {
    MachineId(j)
}

/// Two fast machines, uniform 10 s tasks, 8 Mb edges (1 s transfers).
fn scenario(edges: &[(usize, usize)], tasks: usize) -> Scenario {
    let dag = Dag::from_edges(
        tasks,
        &edges.iter().map(|&(u, v)| (t(u), t(v))).collect::<Vec<_>>(),
    )
    .unwrap();
    let data = DataSizes::uniform(&dag, 8.0);
    Scenario {
        case: GridCase::A,
        grid: GridConfig::with_counts(2, 0),
        etc: EtcMatrix::uniform(tasks, 2, 10.0),
        dag,
        data,
        tau: Time::from_seconds(100_000),
        etc_id: 0,
        dag_id: 0,
    }
}

fn exec(task: usize, machine: usize, start_secs: u64) -> Assignment {
    Assignment {
        task: t(task),
        version: Version::Primary,
        machine: m(machine),
        start: Time::from_seconds(start_secs),
        dur: Dur::from_seconds(10),
        energy: Energy(1.0), // 10 s × 0.1 eu/s
    }
}

fn transfer(parent: usize, child: usize, from: usize, to: usize, start_secs: u64) -> Transfer {
    Transfer {
        parent: t(parent),
        child: t(child),
        from: m(from),
        to: m(to),
        size: Megabits(8.0),
        start: Time::from_seconds(start_secs),
        dur: Dur::from_seconds(1), // 8 Mb at 8 Mb/s
        energy: Energy(0.2),       // 1 s × 0.2 eu/s
    }
}

#[test]
fn clean_hand_schedule_passes() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.add_transfer(transfer(0, 1, 0, 1, 10));
    s.assign(exec(1, 1, 11));
    assert!(validate_schedule(&sc, &s).is_empty());
}

#[test]
fn machine_overlap_is_caught() {
    let sc = scenario(&[], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.assign(exec(1, 0, 5)); // overlaps [0,10) on m0
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::ComputeExclusive && e.machine == Some(m(0))),
        "{errs:?}"
    );
}

#[test]
fn tx_link_overlap_is_caught() {
    // Two children of two parents, both transfers from m0 at once.
    let sc = scenario(&[(0, 2), (1, 3)], 4);
    let mut s = Schedule::new(4);
    s.assign(exec(0, 0, 0));
    s.assign(exec(1, 0, 10));
    s.add_transfer(transfer(0, 2, 0, 1, 20));
    s.add_transfer(transfer(1, 3, 0, 1, 20)); // same tx window on m0
    s.assign(exec(2, 1, 30));
    s.assign(exec(3, 1, 40));
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| matches!(e.invariant, Invariant::TxExclusive | Invariant::RxExclusive)),
        "{errs:?}"
    );
}

#[test]
fn transfer_before_parent_finish_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0)); // finishes at 10
    s.add_transfer(transfer(0, 1, 0, 1, 5)); // starts at 5!
    s.assign(exec(1, 1, 11));
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::Precedence && e.task == Some(t(1))),
        "{errs:?}"
    );
}

#[test]
fn start_before_arrival_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.add_transfer(transfer(0, 1, 0, 1, 10)); // arrives at 11
    s.assign(exec(1, 1, 10)); // starts before the data arrived
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter().any(|e| e.invariant == Invariant::Precedence
            && e.task == Some(t(1))
            && e.detail.contains("arrives")),
        "{errs:?}"
    );
}

#[test]
fn missing_transfer_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.assign(exec(1, 1, 20)); // cross-machine child with no transfer
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::TransferTopology
                && e.task == Some(t(1))
                && e.detail.contains("missing")),
        "{errs:?}"
    );
}

#[test]
fn spurious_same_machine_transfer_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.add_transfer(transfer(0, 1, 0, 0, 10)); // same-machine "transfer"
    s.assign(exec(1, 0, 12));
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::TransferTopology && e.detail.contains("spurious")),
        "{errs:?}"
    );
}

#[test]
fn wrong_transfer_size_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    let mut tr = transfer(0, 1, 0, 1, 10);
    tr.size = Megabits(4.0); // half the edge's data
    tr.dur = Dur::from_seconds(1);
    s.add_transfer(tr);
    s.assign(exec(1, 1, 12));
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::TransferPhysics && e.detail.contains("size")),
        "{errs:?}"
    );
}

#[test]
fn battery_overdraw_is_caught() {
    // 200 ten-second primaries on one fast machine = 200 eu > B/8 scaled…
    // use the real fast battery 580: 600 tasks would be needed; instead
    // craft oversized energy records directly.
    let sc = scenario(&[], 2);
    let mut s = Schedule::new(2);
    let mut a = exec(0, 0, 0);
    a.energy = Energy(600.0); // exceeds the 580 battery
                              // keep dur consistent with energy? The energy check is separate from
                              // the exec-energy consistency check; craft both errors and look for
                              // the overdraw one specifically.
    s.assign(a);
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::Battery && e.machine == Some(m(0))),
        "{errs:?}"
    );
}

#[test]
fn duplicate_transfer_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut s = Schedule::new(2);
    s.assign(exec(0, 0, 0));
    s.add_transfer(transfer(0, 1, 0, 1, 10));
    s.add_transfer(transfer(0, 1, 0, 1, 12));
    s.assign(exec(1, 1, 14));
    let errs = validate_schedule(&sc, &s);
    assert!(
        errs.iter()
            .any(|e| e.invariant == Invariant::TransferTopology && e.detail.contains("duplicate")),
        "{errs:?}"
    );
}

/// Positive control for the planner: a child with two parents on two
/// different machines gets serialized slots on its receive link.
#[test]
fn planner_serializes_rx_contention() {
    let sc = scenario(&[(0, 2), (1, 2)], 3);
    let mut st = SimState::new(&sc);
    for (task, machine) in [(0, 0), (1, 1)] {
        let plan = st.plan(
            t(task),
            Version::Primary,
            m(machine),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
    }
    // Child on machine 0: one local parent, one remote (m1 -> m0).
    let plan = st.plan(
        t(2),
        Version::Primary,
        m(0),
        Placement::Append {
            not_before: Time::ZERO,
        },
    );
    assert_eq!(plan.transfers.len(), 1);
    st.commit(&plan);
    assert!(validate_schedule(&sc, st.schedule()).is_empty());

    // Now a 3-parent fan-in onto a third task forces two remote transfers
    // through one rx link: they must not overlap.
    let sc2 = scenario(&[(0, 3), (1, 3), (2, 3)], 4);
    let mut st2 = SimState::new(&sc2);
    for (task, machine) in [(0, 0), (1, 1), (2, 1)] {
        let plan = st2.plan(
            t(task),
            Version::Primary,
            m(machine),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st2.commit(&plan);
    }
    let plan = st2.plan(
        t(3),
        Version::Primary,
        m(0),
        Placement::Append {
            not_before: Time::ZERO,
        },
    );
    assert_eq!(plan.transfers.len(), 2, "two remote parents");
    let a = &plan.transfers[0];
    let b = &plan.transfers[1];
    let overlap = a.start < b.start + b.dur && b.start < a.start + a.dur;
    assert!(!overlap, "rx link double-booked: {a:?} vs {b:?}");
    st2.commit(&plan);
    assert!(validate_schedule(&sc2, st2.schedule()).is_empty());
}

/// Work left running on a machine past its loss: the state records the
/// loss, so the validator alone sees it, with no churn trace handed in.
/// (No cascade runs here; in a real run `slrh::dynamic::apply_loss`
/// unmaps such work.)
#[test]
fn work_outliving_a_loss_is_caught() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    let plan = st.plan(
        t(0),
        Version::Primary,
        m(0),
        Placement::Append {
            not_before: Time::ZERO,
        },
    );
    st.commit(&plan);
    assert!(validate(&st).is_empty());
    // The 10 s execution is lost halfway through.
    st.mark_lost(m(0), Time::from_seconds(5));
    let errs = validate(&st);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].invariant, Invariant::Availability);
    assert_eq!(errs[0].task, Some(t(0)));
    assert_eq!(errs[0].machine, Some(m(0)));
}

/// Positive control for `block_until`: a child mapped onto a machine that
/// has not joined yet receives its input only once the machine is there,
/// because the arrival blocks the receive link too. Should the block
/// miss that link, the validator's window check names the transfer.
#[test]
fn an_arriving_machine_receives_nothing_before_it_joins() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    let joins = Time::from_seconds(50);
    st.block_until(m(1), joins);
    assert_eq!(st.available_from(m(1)), joins);
    for (task, machine) in [(0, 0), (1, 1)] {
        let plan = st.plan(
            t(task),
            Version::Primary,
            m(machine),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
    }
    let errs = validate(&st);
    assert!(errs.is_empty(), "{errs:?}");
    let tr = st.schedule().transfers()[0];
    assert!(tr.start >= joins, "{tr:?}");
}
