//! Independent schedule validation.
//!
//! The validator re-derives every physical constraint of §III from the
//! scenario and the finished [`Schedule`] alone — it shares no code with
//! the planner — so a passing validation is genuine evidence that a
//! heuristic's output is executable on the modelled grid:
//!
//! 1. precedence: a mapped subtask's parents are mapped, same-machine
//!    parents finish before it starts, and cross-machine parents feed it
//!    through a correctly-sized transfer that completes before its start;
//! 2. machine exclusivity: one subtask at a time per machine;
//! 3. link exclusivity: one outgoing and one incoming transfer at a time
//!    per machine;
//! 4. physics: durations and energies match the ETC matrix, bandwidths
//!    and power draws;
//! 5. energy: no battery is overdrawn;
//! 6. availability: every execution and transfer lies inside its
//!    machines' windows — nothing starts on, sends from or reaches a
//!    machine before [`SimState::available_from`], and nothing finishes
//!    there after [`SimState::lost_at`];
//! 7. bookkeeping: the incrementally-maintained metrics match recomputed
//!    ones, and each machine's ledger account matches the schedule's
//!    spend on it.
//!
//! Checks 1–5 read the scenario and the schedule alone
//! ([`validate_schedule`]); 6 and 7 also read the state ([`validate`]),
//! which records each machine's window, so a churned run needs no trace
//! handed back to be validated.
//!
//! Each violation is reported as a structured [`ValidationError`] naming
//! the violated [`Invariant`] family and, where applicable, the task and
//! machine involved, so harnesses (e.g. the stress fuzzer) can classify
//! failures without parsing message text. Errors are emitted in a
//! deterministic order for a given schedule.

use std::collections::{BTreeSet, HashMap};

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::{Energy, Time};
use adhoc_grid::workload::Scenario;

use crate::ledger::ENERGY_EPS;
use crate::schedule::Schedule;
use crate::state::SimState;

/// The constraint family a [`ValidationError`] belongs to. The variants
/// mirror the numbered checks in the module docs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Invariant {
    /// Execution duration or energy disagrees with the ETC matrix and
    /// the machine's power model.
    ExecPhysics,
    /// A precedence constraint is violated: a parent is unmapped,
    /// finishes too late, or its data arrives after the child starts.
    Precedence,
    /// The transfer set is malformed: missing, spurious, duplicated,
    /// misrouted, off-DAG, or with an unmapped endpoint.
    TransferTopology,
    /// A transfer's size, duration or energy disagrees with the edge
    /// data and the link model.
    TransferPhysics,
    /// Two subtasks overlap on one machine's processor.
    ComputeExclusive,
    /// Two transfers overlap on one machine's outgoing link.
    TxExclusive,
    /// Two transfers overlap on one machine's incoming link.
    RxExclusive,
    /// A machine's committed energy exceeds its battery.
    Battery,
    /// An execution or transfer lies outside a machine's availability
    /// window: it starts before the machine joined or finishes after it
    /// was lost.
    Availability,
    /// Incrementally-maintained metrics or a machine's ledger account
    /// disagree with recomputation from the schedule.
    Bookkeeping,
    /// The energy ledger's internal invariants do not hold.
    Ledger,
}

impl Invariant {
    /// Short stable name (used by the stress harness's verdict codec).
    pub fn name(self) -> &'static str {
        match self {
            Invariant::ExecPhysics => "exec-physics",
            Invariant::Precedence => "precedence",
            Invariant::TransferTopology => "transfer-topology",
            Invariant::TransferPhysics => "transfer-physics",
            Invariant::ComputeExclusive => "compute-exclusive",
            Invariant::TxExclusive => "tx-exclusive",
            Invariant::RxExclusive => "rx-exclusive",
            Invariant::Battery => "battery",
            Invariant::Availability => "availability",
            Invariant::Bookkeeping => "bookkeeping",
            Invariant::Ledger => "ledger",
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One violated constraint, with the invariant family, the involved
/// task/machine (where one is identifiable) and human-readable context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationError {
    /// Which constraint family was violated.
    pub invariant: Invariant,
    /// The subtask the violation is attributed to, if any.
    pub task: Option<TaskId>,
    /// The machine the violation is attributed to, if any.
    pub machine: Option<MachineId>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

macro_rules! fail {
    ($errs:ident, $inv:expr, $task:expr, $mach:expr, $($arg:tt)*) => {
        $errs.push(ValidationError {
            invariant: $inv,
            task: $task,
            machine: $mach,
            detail: format!($($arg)*),
        })
    };
}

/// Validate `schedule` against `scenario`. Returns every violation found.
pub fn validate_schedule(sc: &Scenario, schedule: &Schedule) -> Vec<ValidationError> {
    let mut errs = Vec::new();
    check_schedule(sc, schedule, &mut errs);
    errs
}

/// Checks 1–5, appending to `errs`. Returns the schedule's spend per
/// machine: executions on it plus transfers sent from it.
fn check_schedule(
    sc: &Scenario,
    schedule: &Schedule,
    errs: &mut Vec<ValidationError>,
) -> Vec<Energy> {
    // Allocated first: this small vector outlives the large temporaries
    // below, and allocated after them it sits above them on the heap
    // (measured under glibc malloc: +6 MiB peak RSS when validating a
    // 16 384-subtask, 64-machine run).
    let mut spent: Vec<Energy> = vec![Energy::ZERO; sc.grid.len()];

    // Index transfers by edge id: `by_edge[e]` is the position of the
    // last transfer listed for edge `e`. Pairs that are not DAG edges
    // are only remembered to report their duplicates; the off-DAG check
    // below reports each such transfer.
    let mut by_edge: Vec<Option<usize>> = vec![None; sc.dag.edge_count()];
    let mut off_dag: BTreeSet<(TaskId, TaskId)> = BTreeSet::new();
    for (i, tr) in schedule.transfers().iter().enumerate() {
        let duplicate = match sc.dag.edge_id(tr.parent, tr.child) {
            Some(e) => by_edge[e].replace(i).is_some(),
            None => !off_dag.insert((tr.parent, tr.child)),
        };
        if duplicate {
            fail!(
                errs,
                Invariant::TransferTopology,
                Some(tr.child),
                Some(tr.to),
                "duplicate transfer for edge {}->{}",
                tr.parent,
                tr.child
            );
        }
    }

    // 1 & 4: per-assignment checks.
    for a in schedule.assignments() {
        let t = a.task;
        let expect_dur = sc.etc.exec_dur(t, a.machine, a.version);
        if a.dur != expect_dur {
            fail!(
                errs,
                Invariant::ExecPhysics,
                Some(t),
                Some(a.machine),
                "{t}: exec duration {} != ETC-derived {}",
                a.dur,
                expect_dur
            );
        }
        let expect_energy = sc.grid.machine(a.machine).compute_energy(a.dur);
        if !a.energy.approx_eq(expect_energy, 1e-6) {
            fail!(
                errs,
                Invariant::ExecPhysics,
                Some(t),
                Some(a.machine),
                "{t}: exec energy {} != expected {expect_energy}",
                a.energy
            );
        }
        for (&p, e) in sc.dag.parents(t).iter().zip(sc.dag.in_edges(t)) {
            let Some(pa) = schedule.assignment(p) else {
                fail!(
                    errs,
                    Invariant::Precedence,
                    Some(t),
                    Some(a.machine),
                    "{t} is mapped but its parent {p} is not"
                );
                continue;
            };
            if pa.machine == a.machine {
                if pa.finish() > a.start {
                    fail!(
                        errs,
                        Invariant::Precedence,
                        Some(t),
                        Some(a.machine),
                        "{t} starts at {} before same-machine parent {p} finishes at {}",
                        a.start,
                        pa.finish()
                    );
                }
                if by_edge[e].is_some() {
                    fail!(
                        errs,
                        Invariant::TransferTopology,
                        Some(t),
                        Some(a.machine),
                        "spurious transfer for same-machine edge {p}->{t}"
                    );
                }
                continue;
            }
            let Some(idx) = by_edge[e] else {
                fail!(
                    errs,
                    Invariant::TransferTopology,
                    Some(t),
                    Some(a.machine),
                    "missing transfer for cross-machine edge {p}->{t}"
                );
                continue;
            };
            let tr = &schedule.transfers()[idx];
            if tr.from != pa.machine || tr.to != a.machine {
                fail!(
                    errs,
                    Invariant::TransferTopology,
                    Some(t),
                    Some(a.machine),
                    "transfer {p}->{t} routes {}->{} but tasks run on {}->{}",
                    tr.from,
                    tr.to,
                    pa.machine,
                    a.machine
                );
            }
            let expect_size = sc.data.by_id(e).scaled(pa.version.data_factor());
            if (tr.size.value() - expect_size.value()).abs() > 1e-9 {
                fail!(
                    errs,
                    Invariant::TransferPhysics,
                    Some(t),
                    Some(tr.from),
                    "transfer {p}->{t}: size {} != expected {expect_size}",
                    tr.size
                );
            }
            let expect_dur = sc
                .grid
                .machine(pa.machine)
                .transfer_dur(sc.grid.machine(a.machine), expect_size);
            if tr.dur != expect_dur {
                fail!(
                    errs,
                    Invariant::TransferPhysics,
                    Some(t),
                    Some(tr.from),
                    "transfer {p}->{t}: duration {} != expected {expect_dur}",
                    tr.dur
                );
            }
            let expect_e = sc.grid.machine(pa.machine).transmit_energy(tr.dur);
            if !tr.energy.approx_eq(expect_e, 1e-6) {
                fail!(
                    errs,
                    Invariant::TransferPhysics,
                    Some(t),
                    Some(tr.from),
                    "transfer {p}->{t}: energy {} != expected {expect_e}",
                    tr.energy
                );
            }
            if tr.start < pa.finish() {
                fail!(
                    errs,
                    Invariant::Precedence,
                    Some(t),
                    Some(tr.from),
                    "transfer {p}->{t} starts at {} before {p} finishes at {}",
                    tr.start,
                    pa.finish()
                );
            }
            if tr.finish() > a.start {
                fail!(
                    errs,
                    Invariant::Precedence,
                    Some(t),
                    Some(a.machine),
                    "{t} starts at {} before its input from {p} arrives at {}",
                    a.start,
                    tr.finish()
                );
            }
        }
    }

    // Transfers must connect mapped endpoints along real DAG edges.
    for tr in schedule.transfers() {
        if !sc.dag.parents(tr.child).contains(&tr.parent) {
            fail!(
                errs,
                Invariant::TransferTopology,
                Some(tr.child),
                Some(tr.to),
                "transfer {}->{} is not a DAG edge",
                tr.parent,
                tr.child
            );
        }
        if schedule.assignment(tr.parent).is_none() || schedule.assignment(tr.child).is_none() {
            fail!(
                errs,
                Invariant::TransferTopology,
                Some(tr.child),
                Some(tr.to),
                "transfer {}->{} has an unmapped endpoint",
                tr.parent,
                tr.child
            );
        }
    }

    // 2: machine exclusivity.
    check_disjoint(
        errs,
        Invariant::ComputeExclusive,
        "compute",
        schedule
            .assignments()
            .map(|a| (a.machine, a.start, a.finish())),
    );
    // 3: link exclusivity.
    check_disjoint(
        errs,
        Invariant::TxExclusive,
        "tx",
        schedule
            .transfers()
            .iter()
            .map(|t| (t.from, t.start, t.finish())),
    );
    check_disjoint(
        errs,
        Invariant::RxExclusive,
        "rx",
        schedule
            .transfers()
            .iter()
            .map(|t| (t.to, t.start, t.finish())),
    );

    // 5: battery limits (committed energy only; reservations are an
    // internal planning device, not a physical drain).
    for a in schedule.assignments() {
        spent[a.machine.0] += a.energy;
    }
    for tr in schedule.transfers() {
        spent[tr.from.0] += tr.energy;
    }
    for (j, &e) in spent.iter().enumerate() {
        let b = sc.grid.machine(MachineId(j)).battery;
        if e.units() > b.units() + ENERGY_EPS {
            fail!(
                errs,
                Invariant::Battery,
                None,
                Some(MachineId(j)),
                "machine m{j} overdrawn: spent {e} of battery {b}"
            );
        }
    }

    spent
}

fn check_disjoint(
    errs: &mut Vec<ValidationError>,
    invariant: Invariant,
    what: &str,
    spans: impl Iterator<Item = (MachineId, Time, Time)>,
) {
    let mut per_machine: HashMap<MachineId, Vec<(Time, Time)>> = HashMap::new();
    for (m, s, e) in spans {
        if e > s {
            per_machine.entry(m).or_default().push((s, e));
        }
    }
    // Sorted machine order keeps the error list deterministic for a
    // given schedule (HashMap iteration order is not).
    let mut per_machine: Vec<_> = per_machine.into_iter().collect();
    per_machine.sort_unstable_by_key(|(m, _)| m.0);
    for (m, mut spans) in per_machine {
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                fail!(
                    errs,
                    invariant,
                    None,
                    Some(m),
                    "{what} overlap on {m}: [{}, {}) and [{}, {})",
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
        }
    }
}

/// Validate a full [`SimState`]: the schedule, every execution and
/// transfer against its machines' availability windows, and the
/// incrementally maintained bookkeeping (metrics and ledger) against
/// recomputation. This is the one answer to "is this finished run
/// valid?", churned or not.
pub fn validate(state: &SimState<'_>) -> Vec<ValidationError> {
    let sc = state.scenario();
    let schedule = state.schedule();
    let mut errs = Vec::new();
    let spent = check_schedule(sc, schedule, &mut errs);

    // 6: availability windows.
    for a in schedule.assignments() {
        if let Some(why) = window_breach(state, a.machine, a.start, a.finish()) {
            fail!(
                errs,
                Invariant::Availability,
                Some(a.task),
                Some(a.machine),
                "{} {why}",
                a.task
            );
        }
    }
    for tr in schedule.transfers() {
        for j in [tr.from, tr.to] {
            if let Some(why) = window_breach(state, j, tr.start, tr.finish()) {
                fail!(
                    errs,
                    Invariant::Availability,
                    Some(tr.child),
                    Some(j),
                    "transfer {}->{} {why}",
                    tr.parent,
                    tr.child
                );
            }
        }
    }

    // 7: bookkeeping.
    let m = state.metrics();
    if m.t100 != schedule.t100() {
        fail!(
            errs,
            Invariant::Bookkeeping,
            None,
            None,
            "T100 bookkeeping {} != schedule {}",
            m.t100,
            schedule.t100()
        );
    }
    if m.aet != schedule.aet() {
        fail!(
            errs,
            Invariant::Bookkeeping,
            None,
            None,
            "AET bookkeeping {} != schedule {}",
            m.aet,
            schedule.aet()
        );
    }
    let tec: Energy = schedule
        .assignments()
        .map(|a| a.energy)
        .chain(schedule.transfers().iter().map(|t| t.energy))
        .sum();
    if !m.tec.approx_eq(tec, 1e-6) {
        fail!(
            errs,
            Invariant::Bookkeeping,
            None,
            None,
            "TEC bookkeeping {} != recomputed {tec}",
            m.tec
        );
    }
    // Per machine, with the relative tolerance of a sum re-associated
    // in another order (the ledger adds and refunds as the run goes).
    for (j, &e) in spent.iter().enumerate() {
        let committed = state.ledger().committed(MachineId(j));
        let (c, e) = (committed.units(), e.units());
        if (c - e).abs() > 1e-6 * c.abs().max(e.abs()).max(1.0) {
            fail!(
                errs,
                Invariant::Bookkeeping,
                None,
                Some(MachineId(j)),
                "machine m{j} ledger committed {committed} != schedule spend {}",
                Energy(e)
            );
        }
    }
    if let Err(e) = state.ledger().check_invariants() {
        fail!(
            errs,
            Invariant::Ledger,
            None,
            None,
            "ledger invariant violated: {e}"
        );
    }

    errs
}

/// Why work on `j` over `[start, finish)` lies outside `j`'s window, if
/// it does. Work may start at the instant `j` joined and finish at the
/// instant it was lost.
fn window_breach(state: &SimState<'_>, j: MachineId, start: Time, finish: Time) -> Option<String> {
    let joined = state.available_from(j);
    if start < joined {
        return Some(format!(
            "starts on {j} at {start} before it joined at {joined}"
        ));
    }
    match state.lost_at(j) {
        Some(lost) if finish > lost => Some(format!(
            "finishes on {j} at {finish} after it was lost at {lost}"
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Placement;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::task::Version;
    use adhoc_grid::workload::ScenarioParams;

    #[test]
    fn greedy_round_robin_run_validates() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 1, 1);
        let mut st = SimState::new(&sc);
        let mut next_machine = 0usize;
        while let Some(&t) = st.ready_tasks().first() {
            let j = MachineId(next_machine % sc.grid.len());
            next_machine += 1;
            let v = if next_machine.is_multiple_of(3) {
                Version::Secondary
            } else {
                Version::Primary
            };
            if !st.version_feasible(t, v, j) {
                continue;
            }
            let plan = st.plan(
                t,
                v,
                j,
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&plan);
        }
        assert!(st.all_mapped());
        let errs = validate(&st);
        assert!(errs.is_empty(), "validation failed: {errs:?}");
    }

    #[test]
    fn tampered_schedule_is_caught() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let mut st = SimState::new(&sc);
        let t = st.ready_tasks()[0];
        let plan = st.plan(
            t,
            Version::Primary,
            MachineId(0),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
        // Tamper with every assignment's duration on a schedule copy —
        // no lookup needed, so no unwrap on the tamper path.
        let mut tampered = st.schedule().clone();
        let originals: Vec<_> = tampered.assignments().copied().collect();
        for a in originals {
            tampered.unmap(a.task);
            tampered.assign(crate::schedule::Assignment {
                dur: a.dur + adhoc_grid::units::Dur(1),
                ..a
            });
        }
        let errs = validate_schedule(&sc, &tampered);
        let hit = errs
            .iter()
            .find(|e| e.invariant == Invariant::ExecPhysics)
            .expect("tampered duration not caught");
        assert_eq!(hit.task, Some(t));
        assert_eq!(hit.machine, Some(MachineId(0)));
    }

    #[test]
    fn missing_parent_is_caught() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let mut st = SimState::new(&sc);
        // Map roots then one child.
        while st
            .ready_tasks()
            .iter()
            .all(|&t| sc.dag.parents(t).is_empty())
        {
            let t = st.ready_tasks()[0];
            let p = st.plan(
                t,
                Version::Secondary,
                MachineId(0),
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&p);
        }
        // All roots are mapped, so any remaining ready task has parents;
        // the paper DAG always has edges, so one exists.
        let Some(&child) = st
            .ready_tasks()
            .iter()
            .find(|&&t| !sc.dag.parents(t).is_empty())
        else {
            panic!("generated DAG has no edges to test against");
        };
        let plan = st.plan(
            child,
            Version::Primary,
            MachineId(0),
            Placement::Append {
                not_before: Time::ZERO,
            },
        );
        st.commit(&plan);
        // Remove one of the child's parents from a schedule copy.
        let mut tampered = st.schedule().clone();
        let parent = sc.dag.parents(child)[0];
        tampered.unmap(parent);
        let errs = validate_schedule(&sc, &tampered);
        let hit = errs
            .iter()
            .find(|e| e.invariant == Invariant::Precedence)
            .expect("missing parent not caught");
        assert_eq!(hit.task, Some(child), "{errs:?}");
    }

    /// The transfer index keeps the error list exactly: a duplicated
    /// edge transfer is reported once and checked by its last copy (the
    /// first, sent before its parent finished, goes unchecked), and
    /// transfers off the DAG are reported as duplicates and as non-edges
    /// in list order. (The expected list was recorded on the hash-map
    /// index this replaced.)
    #[test]
    fn duplicate_and_off_dag_transfers_keep_their_error_list() {
        use crate::schedule::{Assignment, Schedule, Transfer};
        use adhoc_grid::config::GridConfig;
        use adhoc_grid::dag::Dag;
        use adhoc_grid::data::DataSizes;
        use adhoc_grid::etc::EtcMatrix;
        use adhoc_grid::units::{Dur, Megabits};

        let dag = Dag::from_edges(3, &[(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))]).unwrap();
        let sc = Scenario {
            case: GridCase::A,
            grid: GridConfig::with_counts(2, 0),
            etc: EtcMatrix::uniform(3, 2, 10.0),
            data: DataSizes::uniform(&dag, 8.0),
            dag,
            tau: Time::from_seconds(100_000),
            etc_id: 0,
            dag_id: 0,
        };
        let mut s = Schedule::new(3);
        for (task, machine, start) in [(0, 0, 0), (1, 1, 14), (2, 1, 30)] {
            s.assign(Assignment {
                task: TaskId(task),
                version: Version::Primary,
                machine: MachineId(machine),
                start: Time::from_seconds(start),
                dur: Dur::from_seconds(10),
                energy: Energy(1.0),
            });
        }
        for (parent, child, from, to, start) in [
            (0, 1, 0, 1, 5),
            (0, 2, 0, 1, 20),
            (0, 1, 0, 1, 12),
            (0, 2, 0, 1, 22),
            (2, 0, 1, 0, 40),
        ] {
            s.add_transfer(Transfer {
                parent: TaskId(parent),
                child: TaskId(child),
                from: MachineId(from),
                to: MachineId(to),
                size: Megabits(8.0),
                start: Time::from_seconds(start),
                dur: Dur::from_seconds(1),
                energy: Energy(0.2),
            });
        }
        let got: Vec<String> = validate_schedule(&sc, &s)
            .iter()
            .map(|e| format!("{:?} {:?} {e}", e.task, e.machine))
            .collect();
        let expected = [
            "Some(TaskId(1)) Some(MachineId(1)) [transfer-topology] duplicate transfer for edge t0->t1",
            "Some(TaskId(2)) Some(MachineId(1)) [transfer-topology] duplicate transfer for edge t0->t2",
            "Some(TaskId(2)) Some(MachineId(1)) [transfer-topology] transfer t0->t2 is not a DAG edge",
            "Some(TaskId(2)) Some(MachineId(1)) [transfer-topology] transfer t0->t2 is not a DAG edge",
            "Some(TaskId(0)) Some(MachineId(0)) [transfer-topology] transfer t2->t0 is not a DAG edge",
        ];
        assert_eq!(got, expected);
    }
}
