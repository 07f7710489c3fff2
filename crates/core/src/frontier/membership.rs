//! Membership: which ready tasks are on the frontier, and the list's
//! startability log — the candidates whose start lower bound the
//! horizon has reached, in the deterministic arrival order every view
//! consumes. The list equals the state's ready set
//! (`membership_tracks_the_ready_set`), which the stuck check and SLRH-2 read.

use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use gridsim::state::SimState;

use super::{merge_sorted, Frontier, Query, ABSENT};

impl Frontier {
    /// Total candidates currently on the frontier.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.list.len()
    }

    /// Put `t` on the list (no-op if already on the frontier).
    pub(super) fn insert(&mut self, t: TaskId) {
        if self.pos[t.0] != ABSENT {
            return;
        }
        self.pos[t.0] = self.list.len() as u32;
        self.list.push(t);
        self.lb[t.0] = Time::MAX;
        // A (re)insert starts a fresh startable generation: any log,
        // waiting or view entry carrying the old one is now stale.
        self.sgen[t.0] = self.sgen[t.0].wrapping_add(1);
        self.fresh.push((t, self.sgen[t.0]));
    }

    /// Take `t` off the list (no-op when absent).
    pub(super) fn remove(&mut self, t: TaskId) {
        let p = self.pos[t.0];
        if p == ABSENT {
            return;
        }
        self.list.swap_remove(p as usize);
        if let Some(&moved) = self.list.get(p as usize) {
            self.pos[moved.0] = p;
        }
        self.pos[t.0] = ABSENT;
    }

    /// Rebuild the list from the state's ready set (the resync path —
    /// segment starts and delta-stream gaps). Everything rooted in the
    /// old occupation is forgotten.
    fn rebuild(&mut self, state: &SimState<'_>) {
        self.list.clear();
        self.pos.fill(ABSENT);
        self.lb.fill(Time::MAX);
        self.forget_occupation();
        for &t in state.ready_tasks() {
            self.insert(t);
        }
        self.last_revision = state.revision();
        self.stale = false;
    }

    pub(super) fn resync(&mut self, state: &SimState<'_>) {
        if self.stale || state.revision() != self.last_revision {
            self.rebuild(state);
        }
    }

    /// Collect the candidates that can matter to the query, from
    /// scratch — the resort scan's per-query filter (the cached views
    /// read the startable log instead): members whose
    /// start lower bound and cached start floor clear the horizon and
    /// that pass the §IV gate.
    pub(super) fn collect_startable(&mut self, q: &Query<'_>, out: &mut Vec<TaskId>) {
        out.clear();
        for idx in 0..self.list.len() {
            let t = self.list[idx];
            if Self::lb_of(&mut self.lb, q.state, t) <= q.horizon_end
                && self.cached_floor(t, q.j) <= q.horizon_end
                && self.gate_passes(q, t)
            {
                out.push(t);
            }
        }
    }

    /// Bring the startability structures up to the horizon: score queued
    /// inserts against their start lower bound (into the startable log
    /// or the lb-sorted waiting set), then drain every waiting candidate
    /// the advancing horizon has reached into the log. Each candidate is
    /// scored once per frontier residence instead of being rescanned
    /// every tick; the log is the deterministic, append-only arrival
    /// order all views consume. New waiters are sorted among themselves
    /// and merged into the waiting set, which is already in order.
    pub(super) fn sync_list(&mut self, state: &SimState<'_>, horizon_end: Time) {
        if self.list_epoch != self.view_epoch {
            self.fresh.clear();
            self.waiting.clear();
            self.slog.clear();
            self.slog_low = 0;
            for k in 0..self.list.len() {
                let t = self.list[k];
                self.fresh.push((t, self.sgen[t.0]));
            }
            self.list_epoch = self.view_epoch;
        }
        if !self.fresh.is_empty() {
            for k in 0..self.fresh.len() {
                let (t, g) = self.fresh[k];
                if !self.is_current(t, g) {
                    continue;
                }
                let lb = Self::lb_of(&mut self.lb, state, t);
                if lb <= horizon_end {
                    self.slog.push((t, g));
                } else {
                    self.new_waiting.push((lb, t, g));
                }
            }
            self.fresh.clear();
            // Descending, so the tail is the next candidate the horizon
            // will reach; full-tuple order keeps equal-lb drains
            // deterministic.
            merge_sorted(&mut self.waiting, &mut self.new_waiting, |a, b| b.cmp(a));
        }
        while let Some(&(lb, t, g)) = self.waiting.last() {
            if lb > horizon_end {
                break;
            }
            self.waiting.pop();
            if self.is_current(t, g) {
                self.slog.push((t, g));
            }
        }
    }

    /// Whether a `(task, generation)` record still names a live member
    /// of the list: the task has neither left the frontier nor been
    /// re-inserted since.
    pub(super) fn is_current(&self, t: TaskId, gen: u32) -> bool {
        self.sgen[t.0] == gen && self.pos[t.0] != ABSENT
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use proptest::prelude::*;

    /// Delta-maintained membership equals the state's ready set.
    #[test]
    fn membership_tracks_the_ready_set() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state);
        for step in 0..64usize {
            let Some(&t) = state.ready_tasks().first() else {
                break;
            };
            let j = MachineId(step % sc.grid.len());
            commit_on(&mut fr, &mut state, t, Version::Secondary, j, Time::ZERO);
            let mut on_frontier = fr.list.clone();
            on_frontier.sort();
            let mut ready: Vec<TaskId> = state.ready_tasks().to_vec();
            ready.sort();
            assert_eq!(on_frontier, ready, "step {step}");
        }
    }

    proptest! {
        /// The waiting set's repair is the sort it replaces: a sorted
        /// set plus any batch of new waiters, merged, is the whole set
        /// sorted (lb desc, then task and generation desc) — with equal
        /// lbs on distinct tasks, an empty set or batch, and a batch
        /// that lands entirely before or entirely after the set.
        #[test]
        fn merging_new_waiters_is_sorting_the_waiting_set(
            lbs in prop::collection::vec(0u64..6, 0..48),
            cut in any::<usize>(),
            placement in 0usize..3,
        ) {
            let waiters: Vec<(Time, TaskId, u32)> = lbs
                .iter()
                .enumerate()
                .map(|(i, &lb)| (Time(100 + lb), TaskId(i * 37 % 64), i as u32 % 3))
                .collect();
            let n = waiters.len();
            for split in [0, cut % (n + 1), n] {
                // Interleaved with the set, all ahead of it, all behind it.
                let tail: Vec<_> = waiters[split..]
                    .iter()
                    .map(|&(lb, t, g)| (Time([lb.0, lb.0 + 100, lb.0 - 100][placement]), t, g))
                    .collect();
                let (merged, sorted) = merged_and_sorted(&waiters[..split], &tail, |a, b| b.cmp(a));
                prop_assert_eq!(merged, sorted);
            }
        }
    }

    /// A revision gap (mutation not reported via `apply`) forces a
    /// rebuild instead of serving a drifted frontier.
    #[test]
    fn resynchronises_after_unreported_mutations() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state);
        let t = state.ready_tasks()[0];
        let plan = state.plan(
            t,
            Version::Secondary,
            MachineId(0),
            Placement::Append { not_before: Time::ZERO },
        );
        state.commit(&plan); // delta dropped on the floor
        let horizon_end = Time::from_seconds(10);
        let got = ask(&mut fr, &state, MachineId(0), Time::ZERO, horizon_end);
        assert_eq!(got, pool_answer(&state, MachineId(0), Time::ZERO, horizon_end));
        assert_eq!(fr.len(), state.ready_tasks().len());
    }
}
