//! Ad hoc machine loss during a run, with on-the-fly remapping.
//!
//! The paper's motivation (§I) is a grid whose assets "appear and
//! disappear ... at unanticipated times", but its study freezes the grid
//! per case; this module implements the dynamic behaviour the SLRH was
//! designed for. When machine `j` is lost at time `a`:
//!
//! 1. every execution on `j` that has not *finished* by `a` is killed;
//! 2. a subtask that did finish on `j` is kept only if all of its output
//!    obligations were already discharged — every child mapped and every
//!    cross-machine transfer completed before `a` (partial results on a
//!    vanished machine are unreachable; the paper judges recovering them
//!    "too costly");
//! 3. any transfer from `j` still in flight (or in the future) at `a`
//!    starves its consumer;
//! 4. invalidation cascades to all mapped descendants of an invalidated
//!    subtask: a re-executed parent re-produces *all* its outputs, so its
//!    consumers re-run too.
//!
//! Invalidated subtasks are unmapped (in reverse dependency order, with
//! full energy refunds — see the crate docs for the accounting
//! simplification) and the ordinary SLRH clock loop simply continues on
//! the surviving grid, remapping them as they re-enter the ready set.
//!
//! Events are processed on the heuristic's clock: a loss at time `a`
//! takes effect at the first clock tick `>= a` (granularity ΔT), matching
//! the paper's clock-driven design.
//!
//! A trace reaches the loop as a [`Churn`]: the one place its
//! preconditions are checked ([`Churn::new`]), for the library, the
//! CLI, the broker and the stress harness alike.

use std::fmt;

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use adhoc_grid::workload::Scenario;
use gridsim::state::SimState;

use crate::config::SlrhConfig;
use crate::context::RunContext;
use crate::mapper::{drive, run_slrh_with, Kernel, RunStats, SlrhOutcome, TickEvent};

/// A machine disappearing from the grid.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MachineLossEvent {
    /// The vanishing machine.
    pub machine: MachineId,
    /// When it vanishes.
    pub at: Time,
}

/// A machine joining the grid mid-run. The machine must be part of the
/// scenario's grid (and its ETC columns); before `at` it accepts no work.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MachineArrivalEvent {
    /// The joining machine.
    pub machine: MachineId,
    /// When it becomes usable.
    pub at: Time,
}

impl From<(usize, u64)> for MachineLossEvent {
    /// `(machine index, tick)` — the shape churn events have on the CLI,
    /// the wire and in corpus files.
    fn from((machine, at): (usize, u64)) -> MachineLossEvent {
        MachineLossEvent {
            machine: MachineId(machine),
            at: Time(at),
        }
    }
}

impl From<(usize, u64)> for MachineArrivalEvent {
    /// See [`MachineLossEvent`]'s conversion.
    fn from((machine, at): (usize, u64)) -> MachineArrivalEvent {
        MachineArrivalEvent {
            machine: MachineId(machine),
            at: Time(at),
        }
    }
}

/// Why a churn trace was rejected. `Display` is the message clients of
/// the broker see.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChurnError {
    /// Every machine of the grid is lost at some point.
    WholeGridLost,
    /// An event names a machine the grid does not have.
    UnknownMachine {
        /// `"loss"` or `"arrival"`.
        event: &'static str,
        /// The machine index named.
        machine: usize,
        /// The grid size.
        machines: usize,
    },
    /// Two events of one list name the same machine.
    Duplicate {
        /// `"loss"` or `"arrival"`.
        event: &'static str,
    },
    /// A machine both arrives and is lost, and not strictly in that order.
    LostBeforeArrival {
        /// The machine index.
        machine: usize,
        /// Its loss time.
        lost: Time,
        /// Its arrival time.
        arrives: Time,
    },
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChurnError::WholeGridLost => f.write_str("cannot lose every machine"),
            ChurnError::UnknownMachine {
                event,
                machine,
                machines,
            } => write!(f, "{event} names machine {machine} of {machines}"),
            ChurnError::Duplicate { event } => write!(f, "duplicate {event} machine"),
            ChurnError::LostBeforeArrival {
                machine,
                lost,
                arrives,
            } => write!(
                f,
                "machine {machine} lost at {} before arriving at {}",
                lost.0, arrives.0
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

/// A churn trace — machines joining and leaving at arbitrary times —
/// checked once against a grid size. Every driver takes a `&Churn` and
/// relies on what [`Churn::new`] established: every machine index is in
/// range, no machine appears twice in either list, at least one machine
/// is never lost, and a machine that both arrives and is lost arrives
/// strictly first. The default value is the frozen grid.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Churn {
    /// In `(at, machine)` order — the order the loop applies them in.
    losses: Vec<MachineLossEvent>,
    /// In `(machine, at)` order.
    arrivals: Vec<MachineArrivalEvent>,
    /// The grid size the trace was checked against.
    machines: usize,
}

impl Churn {
    /// Check `losses` and `arrivals` against a grid of `machines`
    /// machines and sort them into application order.
    pub fn new(
        losses: &[MachineLossEvent],
        arrivals: &[MachineArrivalEvent],
        machines: usize,
    ) -> Result<Churn, ChurnError> {
        Churn::checked(losses.to_vec(), arrivals.to_vec(), machines)
    }

    /// [`Churn::new`] from `(machine index, tick)` pairs.
    pub fn from_pairs(
        losses: impl IntoIterator<Item = (usize, u64)>,
        arrivals: impl IntoIterator<Item = (usize, u64)>,
        machines: usize,
    ) -> Result<Churn, ChurnError> {
        Churn::checked(
            losses.into_iter().map(Into::into).collect(),
            arrivals.into_iter().map(Into::into).collect(),
            machines,
        )
    }

    fn checked(
        mut losses: Vec<MachineLossEvent>,
        mut arrivals: Vec<MachineArrivalEvent>,
        machines: usize,
    ) -> Result<Churn, ChurnError> {
        if !losses.is_empty() && losses.len() >= machines {
            return Err(ChurnError::WholeGridLost);
        }
        check_machines(
            "loss",
            losses.iter().map(|e| e.machine.0).collect(),
            machines,
        )?;
        check_machines(
            "arrival",
            arrivals.iter().map(|e| e.machine.0).collect(),
            machines,
        )?;
        for a in &arrivals {
            if let Some(l) = losses.iter().find(|l| l.machine == a.machine) {
                if a.at >= l.at {
                    return Err(ChurnError::LostBeforeArrival {
                        machine: a.machine.0,
                        lost: l.at,
                        arrives: a.at,
                    });
                }
            }
        }
        losses.sort_by_key(|e| (e.at, e.machine));
        arrivals.sort_by_key(|e| (e.machine, e.at));
        Ok(Churn {
            losses,
            arrivals,
            machines,
        })
    }

    /// The losses, in `(at, machine)` order.
    pub fn losses(&self) -> &[MachineLossEvent] {
        &self.losses
    }

    /// The arrivals, in `(machine, at)` order.
    pub fn arrivals(&self) -> &[MachineArrivalEvent] {
        &self.arrivals
    }

    /// A trace checked for one grid is good for any grid at least as
    /// large; on a smaller one its indices and its "one machine
    /// survives" guarantee mean nothing.
    pub(crate) fn assert_fits(&self, machines: usize) {
        assert!(
            self.machines <= machines,
            "churn trace checked against {} machines, the grid has {machines}",
            self.machines
        );
    }

    /// Build a run's initial state on `ctx`: arriving machines are
    /// scenario members whose timelines are blocked until they join, so
    /// they contribute no capacity before that and the mapper's
    /// availability check excludes them naturally.
    pub(crate) fn initial_state<'a>(
        &self,
        scenario: &'a Scenario,
        ctx: &mut RunContext,
    ) -> SimState<'a> {
        self.assert_fits(scenario.grid.len());
        let mut state = ctx.state(scenario);
        for a in &self.arrivals {
            if a.at > Time::ZERO {
                state.block_until(a.machine, a.at);
            }
        }
        state
    }
}

/// Range first (the first offender in input order), then duplicates.
fn check_machines(
    event: &'static str,
    mut ids: Vec<usize>,
    machines: usize,
) -> Result<(), ChurnError> {
    if let Some(&machine) = ids.iter().find(|&&m| m >= machines) {
        return Err(ChurnError::UnknownMachine {
            event,
            machine,
            machines,
        });
    }
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(ChurnError::Duplicate { event });
    }
    Ok(())
}

/// Run SLRH on `scenario` with full churn: machines joining (`arrivals`)
/// and leaving (`losses`) at arbitrary times — [`run_slrh_with`] on a
/// throwaway context, with the trace checked by [`Churn::new`].
///
/// # Panics
/// Panics with the [`ChurnError`] when the trace is rejected.
pub fn run_slrh_churn<'a>(
    scenario: &'a Scenario,
    config: &SlrhConfig,
    losses: &[MachineLossEvent],
    arrivals: &[MachineArrivalEvent],
) -> SlrhOutcome<'a> {
    let churn = Churn::new(losses, arrivals, scenario.grid.len()).unwrap_or_else(|e| panic!("{e}"));
    run_slrh_with(scenario, config, &churn, &mut RunContext::new(), None)
}

/// Drive the clock loop from `start` across the `(at, machine)`-sorted
/// loss events: one segment up to each loss, the loss cascade, then the
/// tail segment. Every loss is applied, so `disruptions` lines up with
/// `losses` one to one.
pub(crate) fn drive_segments<'a, K: Kernel>(
    mut state: SimState<'a>,
    config: &SlrhConfig,
    losses: &[MachineLossEvent],
    kernel: &mut K,
    start: Time,
    mut observer: Option<&mut dyn FnMut(TickEvent)>,
) -> SlrhOutcome<'a> {
    let mut stats = RunStats::default();
    let mut disruptions = Vec::new();
    let mut now = start;
    // One run-local copy spans every segment, so adapted weights (and
    // the tick schedule carried by `stats.clock_steps`) survive loss
    // events but never escape into the caller's configuration.
    let mut run = *config;

    for ev in losses {
        // Manual reborrow: `as_deref_mut` would pin the trait object's
        // lifetime to the outer borrow; `&mut **o` lets it shorten.
        #[allow(clippy::manual_map)] // a `map` closure cannot return the reborrow
        let obs = match observer {
            Some(ref mut o) => Some(&mut **o as &mut dyn FnMut(TickEvent)),
            None => None,
        };
        now = drive(
            &mut state,
            &mut run,
            &mut stats,
            kernel,
            now,
            Some(ev.at),
            obs,
            0,
        );
        // The loss takes effect at the clock tick the driver stopped on.
        // Every event is applied, even past τ: mappings only happen at
        // clocks <= τ, but work mapped near τ can still be *executing*
        // when the machine vanishes, and that work must be killed
        // (`apply_loss` is a cheap no-op when everything already
        // finished before the loss).
        let effective = now.max(ev.at);
        disruptions.push((effective, apply_loss(&mut state, ev.machine, effective)));
    }
    drive(
        &mut state, &mut run, &mut stats, kernel, now, None, observer, 0,
    );

    SlrhOutcome {
        state,
        stats,
        disruptions,
        final_weights: run.objective.weights,
    }
}

/// Invalidate everything machine `j`'s disappearance at `at` disrupts and
/// unmap it. Returns the number of invalidated subtasks.
///
/// The cascade's mutations are not reported to the candidate kernel: it
/// notices the revision gap on its next tick and rebuilds from the
/// surviving ready set, once, however many subtasks were unmapped.
///
/// The working set (the closure's bitmap and worklist, the pending list,
/// one round's snapshot, the walk stack) is allocated once per loss,
/// sized to the task count, and an unmap's starved parents seed the walk
/// stack straight from the state's own list, so a loss allocates about
/// five times however many subtasks it unmaps.
pub fn apply_loss(state: &mut SimState<'_>, j: MachineId, at: Time) -> usize {
    state.mark_lost(j, at);
    let sc = state.scenario();
    let mut pending = Pending::new(invalidation_closure(state, sc, j, at));

    // Unmap children-first, visiting candidates in ascending task id so
    // the energy ledger sees one deterministic refund order (float sums
    // are order-sensitive). `unmap` can report parents that can no longer
    // afford their restored worst-case reservations; those cascade.
    let mut total = pending.list.iter().filter(|&&t| state.is_mapped(t)).count();
    let mut round = Vec::with_capacity(pending.list.len());
    let mut stack = Vec::with_capacity(sc.dag.len());
    while !pending.list.is_empty() {
        let mut progressed = false;
        // A round visits the members as of its start, ascending; the
        // members it keeps or adds wait for the next round.
        round.clear();
        round.append(&mut pending.list);
        round.sort_unstable();
        for &t in &round {
            if !state.is_mapped(t) {
                pending.member[t.0] = false;
                progressed = true;
                continue;
            }
            // Unmap only once every mapped child has been unmapped first
            // (children that are themselves pending will clear this later).
            if sc.dag.children(t).iter().all(|&c| !state.is_mapped(c)) {
                // A starved parent must re-run, so everything mapped
                // downstream of it must re-run too.
                stack.extend_from_slice(state.unmap(t));
                pending.member[t.0] = false;
                total += add_with_mapped_descendants(state, sc, &mut pending, &mut stack);
                progressed = true;
            } else {
                pending.list.push(t);
            }
        }
        assert!(progressed, "invalidation closure failed to make progress");
    }
    total
}

/// The loss cascade's set of subtasks still to unmap: `member[t]` is
/// membership and `list` holds the members in no particular order (each
/// round sorts its snapshot).
struct Pending {
    member: Vec<bool>,
    list: Vec<TaskId>,
}

impl Pending {
    /// The set whose membership bitmap is `member`. A task is a member at
    /// most once, so the list never outgrows the task count.
    fn new(member: Vec<bool>) -> Pending {
        let mut list = Vec::with_capacity(member.len());
        list.extend((0..member.len()).filter(|&i| member[i]).map(TaskId));
        Pending { member, list }
    }

    /// Add `t`; false if it was already a member.
    fn insert(&mut self, t: TaskId) -> bool {
        let fresh = !self.member[t.0];
        if fresh {
            self.member[t.0] = true;
            self.list.push(t);
        }
        fresh
    }
}

/// Add the tasks on `stack` and every mapped descendant of them to
/// `pending`, emptying the stack; returns how many newly-added tasks
/// were mapped. (A mapped task's ancestors are always mapped, so the
/// walk can stop at the first unmapped node.)
fn add_with_mapped_descendants(
    state: &SimState<'_>,
    sc: &Scenario,
    pending: &mut Pending,
    stack: &mut Vec<TaskId>,
) -> usize {
    let mut added = 0;
    while let Some(t) = stack.pop() {
        if state.is_mapped(t) && pending.insert(t) {
            added += 1;
            stack.extend(sc.dag.children(t).iter().copied());
        }
    }
    added
}

/// The fixpoint of the invalidation rules (see module docs), as a
/// membership bitmap over the scenario's tasks.
///
/// Computed as a seeded worklist walk over the DAG in O(V + E):
/// each rule's *static* part (decidable from the frozen schedule alone)
/// seeds the worklist, and the two *propagation* parts — "invalid parent
/// ⇒ mapped child re-runs" (rule 4) and "invalid child ⇒ a parent that
/// finished on `j` re-runs, since `j` can no longer re-ship its data"
/// (rule 2's invalid-child clause) — are monotone edge rules, so chasing
/// them from the seeds reaches exactly the least fixpoint the previous
/// whole-schedule rescan loop converged to. Edge-transfer lookups go
/// through [`gridsim::schedule::Schedule::transfer_between`] (O(fan-in))
/// instead of scanning the full transfer list per edge.
fn invalidation_closure(state: &SimState<'_>, sc: &Scenario, j: MachineId, at: Time) -> Vec<bool> {
    let schedule = state.schedule();
    // A completed cross-machine shipment survives the loss of its sender.
    let delivered = |p: TaskId, c: TaskId| -> bool {
        matches!(schedule.transfer_between(p, c), Some(tr) if tr.finish() <= at)
    };

    let mut invalid = vec![false; schedule.tasks()];
    // Each task enters the worklist at most once: sized to never grow.
    let mut work: Vec<TaskId> = Vec::with_capacity(schedule.tasks());

    // Seeds: every mapped task condemned by a static rule.
    for a in schedule.assignments() {
        let t = a.task;
        let mut bad = false;

        // Rule 1: killed mid-execution (or before starting) on j.
        if a.machine == j && a.finish() > at {
            bad = true;
        }

        // Rule 2 (static part): finished on j, but some output can no
        // longer be delivered — an unmapped child (the data can never
        // leave j now) or a cross-machine child whose transfer had not
        // completed by the loss. Same-machine children are covered by
        // their own rules.
        if !bad && a.machine == j {
            bad = sc
                .dag
                .children(t)
                .iter()
                .any(|&c| match schedule.assignment(c) {
                    None => true,
                    Some(ca) => ca.machine != j && !delivered(t, c),
                });
        }

        // Rule 3 (consumer side): an incoming transfer from j died.
        if !bad && a.machine != j {
            bad = sc.dag.parents(t).iter().any(|&p| {
                matches!(schedule.assignment(p), Some(pa) if pa.machine == j) && !delivered(p, t)
            });
        }

        if bad {
            invalid[t.0] = true;
            work.push(t);
        }
    }

    // Propagate along DAG edges. Every worklist entry is mapped, and each
    // task enters at most once, so this is O(V + E) regardless of visit
    // order (the fixpoint is order-independent).
    while let Some(t) = work.pop() {
        // Rule 4: any parent invalid => mapped children re-run too.
        for &c in sc.dag.children(t) {
            if !invalid[c.0] && schedule.is_mapped(c) {
                invalid[c.0] = true;
                work.push(c);
            }
        }
        // Rule 2 (invalid-child clause): a parent that finished on j
        // will need to re-ship data to the re-run child, but j is gone.
        for &p in sc.dag.parents(t) {
            if !invalid[p.0] && matches!(schedule.assignment(p), Some(pa) if pa.machine == j) {
                invalid[p.0] = true;
                work.push(p);
            }
        }
    }

    invalid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SlrhVariant;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;
    use lagrange::weights::Weights;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn config() -> SlrhConfig {
        SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap())
    }

    #[test]
    fn losing_a_machine_midway_still_yields_valid_schedule() {
        let sc = scenario(64);
        // Lose slow machine 3 a quarter of the way into the deadline.
        let at = Time(sc.tau.0 / 4);
        let events = [MachineLossEvent {
            machine: MachineId(3),
            at,
        }];
        let out = run_slrh_churn(&sc, &config(), &events, &[]);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        // Nothing may be assigned to the lost machine after the loss.
        for a in out.state.schedule().assignments() {
            if a.machine == MachineId(3) {
                assert!(a.finish() <= out.state.lost_at(MachineId(3)).unwrap());
            }
        }
    }

    #[test]
    fn loss_before_start_reduces_to_smaller_grid() {
        let sc = scenario(48);
        let events = [MachineLossEvent {
            machine: MachineId(1),
            at: Time::ZERO,
        }];
        let out = run_slrh_churn(&sc, &config(), &events, &[]);
        assert!(validate(&out.state).is_empty());
        assert!(out
            .state
            .schedule()
            .assignments()
            .all(|a| a.machine != MachineId(1)));
        assert_eq!(out.disruptions[0].1, 0, "nothing to invalidate at t=0");
    }

    #[test]
    fn losing_a_fast_machine_costs_t100() {
        let sc = scenario(64);
        let baseline = crate::mapper::run_slrh(&sc, &config());
        let events = [MachineLossEvent {
            machine: MachineId(0),
            at: Time(sc.tau.0 / 8),
        }];
        let out = run_slrh_churn(&sc, &config(), &events, &[]);
        assert!(validate(&out.state).is_empty());
        assert!(
            out.metrics().t100 <= baseline.metrics().t100,
            "losing a fast machine should not improve T100"
        );
    }

    #[test]
    fn late_loss_disrupts_nothing_already_finished() {
        let sc = scenario(32);
        let baseline = crate::mapper::run_slrh(&sc, &config());
        let aet = baseline.metrics().aet;
        // Lose a machine long after everything finished.
        let events = [MachineLossEvent {
            machine: MachineId(2),
            at: aet + adhoc_grid::units::Dur(1_000),
        }];
        let out = run_slrh_churn(&sc, &config(), &events, &[]);
        assert_eq!(out.metrics().t100, baseline.metrics().t100);
        assert_eq!(out.metrics().mapped, baseline.metrics().mapped);
    }

    #[test]
    fn late_arrival_contributes_after_joining() {
        let sc = scenario(64);
        // Machine 1 (fast) joins a third of the way in.
        let at = Time(sc.tau.0 / 3);
        let arrivals = [MachineArrivalEvent {
            machine: MachineId(1),
            at,
        }];
        let out = run_slrh_churn(&sc, &config(), &[], &arrivals);
        assert_eq!(out.state.available_from(MachineId(1)), at);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        // The late machine still ends up doing work after joining.
        assert!(out
            .state
            .schedule()
            .assignments()
            .any(|a| a.machine == MachineId(1) && a.start >= at));
    }

    #[test]
    fn churn_arrival_then_loss_round_trip() {
        let sc = scenario(48);
        let arrivals = [MachineArrivalEvent {
            machine: MachineId(3),
            at: Time(sc.tau.0 / 8),
        }];
        let losses = [MachineLossEvent {
            machine: MachineId(3),
            at: Time(sc.tau.0 / 2),
        }];
        let out = run_slrh_churn(&sc, &config(), &losses, &arrivals);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }

    /// Every way a trace is rejected, with the message a broker client
    /// sees for it, plus the accepted arrive-then-lose case.
    #[test]
    fn churn_new_rejects_each_malformed_trace_with_its_message() {
        type Pairs = &'static [(usize, u64)];
        let cases: [(Pairs, Pairs, &str); 7] = [
            (&[(99, 10)], &[], "loss names machine 99 of 4"),
            (&[], &[(4, 10)], "arrival names machine 4 of 4"),
            (&[(0, 10), (0, 20)], &[], "duplicate loss machine"),
            (&[], &[(1, 10), (1, 20)], "duplicate arrival machine"),
            (
                &[(0, 10), (1, 10), (2, 10), (3, 10)],
                &[],
                "cannot lose every machine",
            ),
            (
                &[(2, 500)],
                &[(2, 1_000)],
                "machine 2 lost at 500 before arriving at 1000",
            ),
            (
                &[(2, 500)],
                &[(2, 500)],
                "machine 2 lost at 500 before arriving at 500",
            ),
        ];
        for (losses, arrivals, message) in cases {
            let err = Churn::from_pairs(losses.iter().copied(), arrivals.iter().copied(), 4)
                .expect_err(message);
            assert_eq!(err.to_string(), message);
        }
        let ok = Churn::from_pairs([(3, 900), (1, 400)], [(3, 100)], 4).expect("arrive, then lose");
        assert_eq!(
            ok.losses()[0],
            MachineLossEvent::from((1, 400)),
            "sorted by time"
        );
        assert_eq!(ok.arrivals(), [MachineArrivalEvent::from((3, 100))]);
        assert_eq!(Churn::new(&[], &[], 0), Ok(Churn::default()));
    }

    /// A machine the grid does not have used to surface as a slice-index
    /// panic inside `SimState::mark_lost`.
    #[test]
    #[should_panic(expected = "loss names machine 99 of 4")]
    fn an_out_of_range_machine_is_a_churn_error_not_an_index_panic() {
        let sc = scenario(16);
        let _ = run_slrh_churn(&sc, &config(), &[MachineLossEvent::from((99, 10))], &[]);
    }

    #[test]
    #[should_panic(expected = "churn trace checked against 4 machines, the grid has 3")]
    fn a_trace_checked_for_a_larger_grid_is_refused() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::B, 0, 0);
        let churn = Churn::from_pairs([(3, 10)], [], 4).unwrap();
        let _ = run_slrh_with(&sc, &config(), &churn, &mut RunContext::new(), None);
    }
}
