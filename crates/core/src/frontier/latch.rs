//! The idle latch: a query that returns `None` proves the view drained
//! empty (every scanned entry was planned, deferred past the horizon, or
//! dropped), so the answer stays `None` until something that can
//! resurrect a candidate happens — an epoch change, a gate-row flush, a
//! new startable-log arrival, or the horizon reaching the earliest
//! deferred floor. The latch records
//! exactly those inputs, short-circuits the queries that repeat them,
//! and tells the clock loop how long it may sleep (DESIGN.md §19). Only
//! SLRH-1/3 query the kernel, so only their sweeps are ever elided:
//! SLRH-2's frozen order and the stuck check read the state.

use adhoc_grid::config::MachineId;
use adhoc_grid::units::Time;
use gridsim::state::SimState;

use super::{Frontier, Query};

impl Frontier {
    /// Arm `j`'s latch after an incumbent-free scan whose earliest
    /// deferred floor is `floor`.
    pub(super) fn arm_latch(&mut self, j: MachineId, floor: Time) {
        self.idle[j.0] = Some((self.view_epoch, self.slog.len(), floor));
    }

    /// Whether `j`'s latch still answers this query (a gate-row flush
    /// has already cleared it, see [`Frontier::gate_row_guard`]).
    pub(super) fn latch_holds(&self, q: &Query<'_>) -> bool {
        self.idle[q.j.0].is_some_and(|(epoch, logged, floor)| {
            epoch == self.view_epoch && logged == self.slog.len() && floor > q.horizon_end
        })
    }

    /// Read the idle latch forward in time — [`crate::mapper::Kernel::wake`].
    /// While `j`'s latch stamp is current, `best_startable` keeps
    /// answering `None` without touching a view until the horizon
    /// reaches the latched deferred floor or the next `waiting`
    /// candidate (whose drain into the startable log breaks the stamp).
    /// Everything else that breaks it — a commit or unmap (revision,
    /// epoch, log arrivals, `fresh` inserts), an energy refund lifting
    /// the afford limit over the gate row's watermark — is checked
    /// here, so a `Some` is a proof for exactly this `state`. A shed
    /// view never latches, so it is asked every tick.
    pub(super) fn latched_until(&self, state: &SimState<'_>, j: MachineId) -> Option<Time> {
        let (epoch, logged, floor) = self.idle[j.0]?;
        let current = state.revision() == self.last_revision
            && epoch == self.view_epoch
            && self.list_epoch == self.view_epoch
            && self.fresh.is_empty()
            && self.slog.len() == logged
            && state.ledger().afford_limit(j) <= self.gate_limit[j.0];
        let next_waiting = self.waiting.last().map_or(Time::MAX, |&(lb, _, _)| lb);
        current.then(|| floor.min(next_waiting))
    }
}

#[cfg(test)]
mod tests {
    //! Everything that must cut a sleep short (DESIGN.md §19).

    use std::cmp::Reverse;

    use super::super::tests::*;

    /// One sweep's worth of work for machine `j` at `clock`, as
    /// `mapper::drive` issues it.
    fn query(
        fr: &mut Frontier,
        state: &SimState<'_>,
        j: MachineId,
        clock: Time,
    ) -> Option<MappingPlan> {
        ask(fr, state, j, clock, clock + H)
    }

    /// Tick machine `j` over the unchanged `state` from `clock` until a
    /// plan appears and return that sweep's horizon end. Every wake time
    /// reported on the way is held to its word: no plan while the
    /// horizon is short of it.
    fn first_plan_horizon(
        fr: &mut Frontier,
        state: &SimState<'_>,
        j: MachineId,
        mut clock: Time,
    ) -> Time {
        let mut proven = Time::ZERO;
        loop {
            let horizon_end = clock + H;
            if query(fr, state, j, clock).is_some() {
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
            clock += DT;
            assert!(clock <= state.scenario().tau, "no plan before τ");
        }
    }

    /// The contract, for a wake time read off *before* ticking on: `None`,
    /// or no later than the sweep at which the ticking loop first gets a
    /// plan.
    fn assert_wake_is_sound(wake: Option<Time>, first_plan: Time) {
        if let Some(w) = wake {
            assert!(
                w <= first_plan,
                "slept to {w}, past the plan at {first_plan}"
            );
        }
    }

    const M0: MachineId = MachineId(0);

    /// [`parked`] at 3000 with machine 0 asked once: it is told `None`
    /// and goes to sleep.
    fn asleep(sc: &Scenario) -> (SimState<'_>, Frontier) {
        let (state, mut fr) = parked(sc, Time(3000));
        assert!(query(&mut fr, &state, M0, Time::ZERO).is_none());
        assert!(fr.wake(&state, M0).is_some());
        (state, fr)
    }

    #[test]
    fn wake_is_the_earliest_waiting_lower_bound() {
        let sc = layered();
        let (state, mut fr) = asleep(&sc);
        let &(next_lb, _, _) = fr.waiting.last().expect("every candidate waits on its lb");
        assert!(next_lb >= Time(3000));
        let wake = fr.wake(&state, M0);
        assert_eq!(
            wake,
            Some(next_lb),
            "nothing deferred: the next lb is the wake time"
        );
        // Other machines have not been asked, so nothing is proven of them.
        assert_eq!(fr.wake(&state, MachineId(2)), None);
        let first = first_plan_horizon(&mut fr, &state, M0, Time(10));
        assert_wake_is_sound(wake, first);
        assert!(first >= next_lb);
    }

    #[test]
    fn wake_is_capped_by_the_earliest_deferred_floor() {
        let sc = layered();
        let (state, mut fr) = asleep(&sc);
        let next_lb = fr.wake(&state, M0).expect("latched on the waiting set");
        // The sweep the loop wakes for: the horizon clears the earliest
        // lb exactly, but that candidate's parents sit on machine 1 and
        // the transfer still has to fit — it is deferred to its floor.
        let clock = Time(next_lb.0 - H.0);
        assert!(
            query(&mut fr, &state, M0, clock).is_none(),
            "data-bound: cleared its lb, cannot start inside the horizon"
        );
        let &Reverse((floor, _, _)) = fr.views[0].deferred.peek().expect("one deferral");
        assert!(floor > next_lb);
        let next_waiting = fr.waiting.last().map_or(Time::MAX, |&(lb, _, _)| lb);
        let wake = fr.wake(&state, M0);
        assert_eq!(wake, Some(floor.min(next_waiting)));
        let first = first_plan_horizon(&mut fr, &state, M0, clock + DT);
        assert_wake_is_sound(wake, first);
    }

    #[test]
    fn a_commit_that_readies_a_child_ends_the_sleep() {
        let sc = layered();
        let (mut state, mut fr) = asleep(&sc);
        // Another machine commits ready subtasks until one of them
        // readies a child: a new arrival machine 0 has not seen.
        loop {
            let &t = state
                .ready_tasks()
                .first()
                .expect("a child is readied first");
            let readied = commit_on(
                &mut fr,
                &mut state,
                t,
                Version::Secondary,
                MachineId(1),
                Time::ZERO,
            );
            if !readied.is_empty() {
                break;
            }
        }
        let wake = fr.wake(&state, M0);
        assert_eq!(wake, None, "an unscored arrival may start at once");
        let first = first_plan_horizon(&mut fr, &state, M0, Time(10));
        assert_wake_is_sound(wake, first);
    }

    #[test]
    fn an_unmap_ends_the_sleep() {
        let sc = layered();
        let (mut state, mut fr) = asleep(&sc);
        // A root whose children are all unmapped goes back, unreported
        // as in a loss cascade: its children leave the ready set and it
        // re-enters with lb 0. The revision check ends the sleep, and the
        // rebuild voids every floor the latch rested on (`view_epoch`
        // bump).
        let root = (0..sc.tasks())
            .map(TaskId)
            .find(|&t| {
                state.is_mapped(t) && sc.dag.children(t).iter().all(|&c| !state.is_mapped(c))
            })
            .expect("a mapped leaf of the mapped set");
        let epoch = fr.view_epoch;
        state.unmap(root);
        let wake = fr.wake(&state, M0);
        assert_eq!(wake, None);
        let first = first_plan_horizon(&mut fr, &state, M0, Time(10));
        assert_ne!(fr.view_epoch, epoch);
        assert_eq!(first, Time(10) + H, "the unmapped root starts at once");
    }

    #[test]
    fn an_energy_refund_ends_the_sleep() {
        let sc = layered();
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state);
        // Drain machine 0's battery: it takes whatever still passes its
        // gate until no ready subtask does.
        while let Some((t, v)) = [Version::Primary, Version::Secondary]
            .into_iter()
            .find_map(|v| {
                let ready = state.ready_tasks().iter();
                ready
                    .copied()
                    .find(|&t| state.version_feasible(t, v, M0))
                    .map(|t| (t, v))
            })
        {
            commit_on(&mut fr, &mut state, t, v, M0, Time::ZERO);
        }
        assert!(!state.ready_tasks().is_empty(), "the battery ran out first");
        let free = state.compute_ready(M0);
        assert!(query(&mut fr, &state, M0, free).is_none());
        assert_eq!(
            fr.wake(&state, M0),
            Some(Time::MAX),
            "gate-dead across the board: no clock can help, only a commit"
        );
        let watermark = fr.gate_limit[0];
        assert!(state.ledger().afford_limit(M0) <= watermark);
        // A child of a machine-0 subtask lands on machine 1: the
        // worst-case transfer reservation machine 0 held for that edge
        // settles at the real link's cost and the rest comes back.
        let on_m0 = |p: &TaskId| {
            state
                .schedule()
                .assignment(*p)
                .is_some_and(|a| a.machine == M0)
        };
        let child = state
            .ready_tasks()
            .iter()
            .copied()
            .find(|&c| sc.dag.parents(c).iter().any(on_m0))
            .expect("a ready child of a machine-0 subtask");
        commit_on(
            &mut fr,
            &mut state,
            child,
            Version::Secondary,
            MachineId(1),
            Time::ZERO,
        );
        assert!(
            state.ledger().afford_limit(M0) > watermark,
            "the refund lifted the limit over every recorded rejection"
        );
        assert_eq!(fr.wake(&state, M0), None);
    }
}
