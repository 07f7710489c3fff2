//! Hand-crafted machine-loss scenarios pinning each invalidation rule of
//! `slrh::dynamic` individually. Workloads are built by hand (uniform
//! ETC, explicit DAG edges, fixed data sizes) so the schedule geometry —
//! who finishes before the loss, which transfers are in flight — is fully
//! controlled.

use adhoc_grid::config::{GridCase, GridConfig, MachineId};
use adhoc_grid::dag::Dag;
use adhoc_grid::data::DataSizes;
use adhoc_grid::etc::EtcMatrix;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::plan::Placement;
use gridsim::state::SimState;
use slrh::dynamic::apply_loss;

fn t(i: usize) -> TaskId {
    TaskId(i)
}
fn m(j: usize) -> MachineId {
    MachineId(j)
}

/// Two fast machines, uniform 100 s tasks, 1 Mb edges (0.125 s transfers
/// at 8 Mb/s between fast machines).
fn scenario(edges: &[(usize, usize)], tasks: usize) -> Scenario {
    let dag = Dag::from_edges(
        tasks,
        &edges.iter().map(|&(u, v)| (t(u), t(v))).collect::<Vec<_>>(),
    )
    .expect("hand DAG is acyclic");
    let data = DataSizes::uniform(&dag, 1.0);
    Scenario {
        case: GridCase::A,
        grid: GridConfig::with_counts(2, 0),
        etc: EtcMatrix::uniform(tasks, 2, 100.0),
        dag,
        data,
        tau: Time::from_seconds(100_000),
        etc_id: 0,
        dag_id: 0,
    }
}

fn map(state: &mut SimState<'_>, task: usize, machine: usize) {
    let plan = state.plan(
        t(task),
        Version::Primary,
        m(machine),
        Placement::Append {
            not_before: Time::ZERO,
        },
    );
    state.commit(&plan);
}

/// Rule 1: an execution killed mid-flight is invalidated; an execution
/// completed before the loss survives.
#[test]
fn kills_unfinished_keeps_finished() {
    let sc = scenario(&[], 2); // two independent tasks
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0); // m0: [0, 100)
    map(&mut st, 1, 0); // m0: [100, 200)
                        // Lose m0 at t = 150 s: task 0 finished, task 1 mid-execution.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(150));
    assert_eq!(n, 1);
    assert!(st.is_mapped(t(0)), "finished work survives");
    assert!(!st.is_mapped(t(1)), "in-flight work dies");
}

/// Rule 2: a parent that finished on the lost machine but still owes data
/// to an unmapped child must re-execute.
#[test]
fn finished_parent_with_unmapped_child_dies() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0); // parent on m0: [0, 100)
                        // Child not yet mapped. Lose m0 well after the parent finished.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(500));
    assert_eq!(n, 1, "the parent's output is stranded on the dead machine");
    assert!(!st.is_mapped(t(0)));
}

/// Rule 2 (positive case): a parent whose only child already received its
/// data over a completed transfer is kept.
#[test]
fn finished_parent_with_delivered_child_survives() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0); // parent on m0: [0, 100)
    map(&mut st, 1, 1); // child on m1, fed by a ~0.2 s transfer after 100 s
    let child_start = st.schedule().assignment(t(1)).unwrap().start;
    assert!(child_start > Time::from_seconds(100));
    // Lose m0 after the child's input transfer completed.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(400));
    assert_eq!(n, 0, "all obligations discharged before the loss");
    assert!(st.is_mapped(t(0)));
    assert!(st.is_mapped(t(1)));
}

/// Rule 3: a transfer from the lost machine that has not completed at the
/// loss instant starves its consumer — and rule 2 then takes the parent.
#[test]
fn inflight_transfer_starves_consumer() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0); // parent m0: [0, 100); transfer starts at 100
    map(&mut st, 1, 1); // child m1 after the transfer
                        // Lose m0 at exactly t = 100 s: parent finished (half-open interval)
                        // but the transfer to the child dies at birth.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(100));
    assert_eq!(n, 2, "child loses its input; parent must re-run elsewhere");
    assert!(!st.is_mapped(t(0)));
    assert!(!st.is_mapped(t(1)));
}

/// Rule 4: invalidation cascades through mapped descendants, but an
/// independent branch on a surviving machine is untouched.
#[test]
fn cascade_spares_independent_branches() {
    //   0 -> 1 -> 2      3 (independent)
    let sc = scenario(&[(0, 1), (1, 2)], 4);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0); // chain root on m0
    map(&mut st, 3, 1); // independent task on m1: [0, 100)
    map(&mut st, 1, 1); // chain middle on m1 (after transfer from m0)
    map(&mut st, 2, 1); // chain tail on m1
                        // Kill m0 while the root executes: the whole chain must unwind, the
                        // independent task must not.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(50));
    assert_eq!(n, 3);
    assert!(!st.is_mapped(t(0)));
    assert!(!st.is_mapped(t(1)));
    assert!(!st.is_mapped(t(2)));
    assert!(st.is_mapped(t(3)), "independent branch survives");
    // The freed chain is ready for remapping in dependency order.
    assert!(st.ready_tasks().contains(&t(0)));
    assert!(!st.ready_tasks().contains(&t(1)), "1 waits for 0 again");
}

/// Same-machine chains on the lost machine unwind all the way up: once a
/// link must re-execute, its parents' outputs — stranded on the dead
/// machine — are needed *again*, so having fed the child once does not
/// save them.
#[test]
fn same_machine_chain_unwinds_to_the_root() {
    // 0 -> 1 -> 2 all on m0, back to back: [0,100) [100,200) [200,300).
    let sc = scenario(&[(0, 1), (1, 2)], 3);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0);
    map(&mut st, 1, 0);
    map(&mut st, 2, 0);
    // Lose m0 at t = 250: 2 dies mid-execution; 1 must re-run to feed the
    // re-executed 2; 0 must re-run to feed the re-executed 1.
    let n = apply_loss(&mut st, m(0), Time::from_seconds(250));
    assert_eq!(n, 3, "the whole local chain unwinds");
    assert!(!st.is_mapped(t(0)));
    assert!(!st.is_mapped(t(1)));
    assert!(!st.is_mapped(t(2)));
    assert!(st.ready_tasks().contains(&t(0)));
}

/// A fully-completed same-machine chain (every link finished before the
/// loss) is kept end to end: no output obligation remains.
#[test]
fn fully_completed_chain_survives() {
    let sc = scenario(&[(0, 1), (1, 2)], 3);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0);
    map(&mut st, 1, 0);
    map(&mut st, 2, 0);
    // Lose m0 after everything finished (t = 300).
    let n = apply_loss(&mut st, m(0), Time::from_seconds(300));
    assert_eq!(n, 0);
    assert!(st.is_mapped(t(0)) && st.is_mapped(t(1)) && st.is_mapped(t(2)));
}

/// Energy accounting: invalidated work refunds exactly, so the machine
/// that keeps its completed work retains the correct committed energy.
#[test]
fn refunds_are_exact() {
    let sc = scenario(&[(0, 1)], 2);
    let mut st = SimState::new(&sc);
    map(&mut st, 0, 0);
    map(&mut st, 1, 1);
    let m1_committed_before = st.ledger().committed(m(1)).units();
    // Kill m1 mid-child: the child's exec energy returns to m1's ledger.
    let n = apply_loss(&mut st, m(1), Time::from_seconds(150));
    assert_eq!(n, 1);
    // m1 committed: child's exec energy refunded entirely.
    assert!(st.ledger().committed(m(1)).units() < m1_committed_before);
    assert!(st.ledger().check_invariants().is_ok());
    // The parent survives (its transfer to the child completed before the
    // loss? No — the child was mid-execution, so its input had arrived;
    // the data was consumed by a now-dead execution, but the parent is on
    // a live machine and can re-send).
    assert!(st.is_mapped(t(0)));
}
