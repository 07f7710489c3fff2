//! Membership + spill: which ready task sits on which list, and each
//! list's startability log — the candidates whose start lower bound the
//! horizon has reached, in the deterministic arrival order every view of
//! the list consumes.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use gridsim::state::SimState;

use super::{Frontier, Query, ABSENT};

impl Frontier {
    pub(super) fn clusters(&self) -> usize {
        self.lists.len() - 1
    }

    /// Total candidates currently on the frontier.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The lists machine `j` sees: its home cluster's, then the spill
    /// list.
    pub(super) fn visible_lists(&self, j: MachineId) -> [usize; 2] {
        [self.cluster_of[j.0] as usize, self.clusters()]
    }

    /// Put `t` on its home list (no-op if already on the frontier) and,
    /// when clustering is active, schedule its spill promotion.
    pub(super) fn insert(&mut self, t: TaskId) {
        if self.list_of[t.0] != ABSENT {
            return;
        }
        let li = self.home_of[t.0] as usize;
        self.list_of[t.0] = li as u32;
        self.pos[t.0] = self.lists[li].len() as u32;
        self.lists[li].push(t);
        self.lb[t.0] = Time::MAX;
        // A (re)insert starts a fresh startable generation: any log,
        // waiting or view entry carrying the old one is now stale.
        self.sgen[t.0] = self.sgen[t.0].wrapping_add(1);
        self.fresh[li].push((t, self.sgen[t.0]));
        // Reinsertion after a parent remap: the parents' placements may
        // have changed, so any cached costing tuples are stale.
        self.ptuple_stamp[t.0] = 0;
        if self.clusters() > 1 {
            self.pending
                .push_back((self.tick.saturating_add(self.spill_after), t));
        }
    }

    /// Remove `t` from whatever list holds it (no-op when absent).
    pub(super) fn remove(&mut self, t: TaskId) {
        let li = self.list_of[t.0];
        if li == ABSENT {
            return;
        }
        let p = self.pos[t.0] as usize;
        let list = &mut self.lists[li as usize];
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos[moved.0] = p as u32;
        }
        self.list_of[t.0] = ABSENT;
    }

    /// Move `t` from its home list to the spill list (no-op when `t`
    /// already spilled or left the frontier).
    pub(super) fn promote_to_spill(&mut self, t: TaskId) {
        let spill = self.clusters() as u32;
        if self.list_of[t.0] == ABSENT || self.list_of[t.0] == spill {
            return;
        }
        self.remove(t);
        self.list_of[t.0] = spill;
        self.pos[t.0] = self.lists[spill as usize].len() as u32;
        self.lists[spill as usize].push(t);
        // Same generation, new list: home-list log/view entries go
        // stale through the list check; the spill list scores the task
        // through its own fresh queue (the lb is already cached).
        self.fresh[spill as usize].push((t, self.sgen[t.0]));
    }

    /// Rebuild the lists from the state's ready set (the resync path —
    /// segment starts and delta-stream gaps). Spill timers restart, and
    /// everything rooted in the old occupation is forgotten.
    fn rebuild(&mut self, state: &SimState<'_>) {
        self.lists.iter_mut().for_each(Vec::clear);
        self.pending.clear();
        self.list_of.fill(ABSENT);
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

    /// Collect list `li`'s candidates that can matter to the query, from
    /// scratch — the resort scan's and SLRH-2's per-query filter (the
    /// cached views read the startable log instead): members whose
    /// start lower bound and cached start floor clear the horizon and
    /// that pass the §IV gate.
    pub(super) fn collect_startable(&mut self, q: &Query<'_>, li: usize, out: &mut Vec<TaskId>) {
        out.clear();
        for idx in 0..self.lists[li].len() {
            let t = self.lists[li][idx];
            if Self::lb_of(&mut self.lb, q.state, t) <= q.horizon_end
                && self.cached_floor(t, q.j) <= q.horizon_end
                && self.gate_passes(q, t)
            {
                out.push(t);
            }
        }
    }

    /// Bring list `li`'s startability structures up to the horizon:
    /// score queued inserts against their start lower bound (into the
    /// startable log or the lb-sorted waiting set), then drain every
    /// waiting candidate the advancing horizon has reached into the
    /// log. Each candidate is scored once per list residence instead
    /// of being rescanned every tick; the log is the deterministic,
    /// append-only arrival order all of the list's views consume.
    pub(super) fn sync_list(&mut self, state: &SimState<'_>, li: usize, horizon_end: Time) {
        if self.list_epoch[li] != self.view_epoch {
            self.fresh[li].clear();
            self.waiting[li].clear();
            self.slog[li].clear();
            self.slog_low[li] = 0;
            for k in 0..self.lists[li].len() {
                let t = self.lists[li][k];
                self.fresh[li].push((t, self.sgen[t.0]));
            }
            self.list_epoch[li] = self.view_epoch;
        }
        if !self.fresh[li].is_empty() {
            let mut waited = false;
            for k in 0..self.fresh[li].len() {
                let (t, g) = self.fresh[li][k];
                if !self.is_current(t, g, li) {
                    continue;
                }
                let lb = Self::lb_of(&mut self.lb, state, t);
                if lb <= horizon_end {
                    self.slog[li].push((t, g));
                } else {
                    self.waiting[li].push((lb, t, g));
                    waited = true;
                }
            }
            self.fresh[li].clear();
            if waited {
                // Descending, so the tail is the next candidate the
                // horizon will reach; full-tuple order keeps equal-lb
                // drains deterministic.
                self.waiting[li].sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        while let Some(&(lb, t, g)) = self.waiting[li].last() {
            if lb > horizon_end {
                break;
            }
            self.waiting[li].pop();
            if self.is_current(t, g, li) {
                self.slog[li].push((t, g));
            }
        }
    }

    /// Whether a `(task, generation)` record made on list `li` still
    /// names a live member of that list: the task has neither left the
    /// frontier (or been re-inserted) nor been re-homed since.
    pub(super) fn is_current(&self, t: TaskId, gen: u32, li: usize) -> bool {
        self.sgen[t.0] == gen && self.list_of[t.0] == li as u32
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;

    /// Delta-maintained membership equals the state's ready set.
    #[test]
    fn membership_tracks_the_ready_set() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state, ScaleMode { clusters: 2, spill_after: 1 });
        for step in 0..64u64 {
            fr.begin_tick(&state, step);
            let Some(&t) = state.ready_tasks().first() else {
                break;
            };
            let j = MachineId((step % sc.grid.len() as u64) as usize);
            commit_on(&mut fr, &mut state, t, Version::Secondary, j, Time::ZERO);
            let mut on_frontier: Vec<TaskId> = fr
                .lists
                .iter()
                .flat_map(|l| l.iter().copied())
                .collect();
            on_frontier.sort();
            let mut ready: Vec<TaskId> = state.ready_tasks().to_vec();
            ready.sort();
            assert_eq!(on_frontier, ready, "step {step}");
        }
    }

    /// A revision gap (mutation not reported via `apply`) forces a
    /// rebuild instead of serving a drifted frontier.
    #[test]
    fn resynchronises_after_unreported_mutations() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state, ScaleMode::default());
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

    /// With clusters > 1 every unspilled candidate is visible to exactly
    /// its home cluster, and spills promote after the configured delay.
    #[test]
    fn spill_promotes_after_the_configured_delay() {
        let sc = scenario(32);
        let state = SimState::new(&sc);
        let spill_after = 3;
        let mut fr = Frontier::new(&state, ScaleMode { clusters: 2, spill_after });
        let spill_list = fr.clusters();
        assert!(fr.lists[spill_list].is_empty(), "nothing spilled at birth");
        let total = fr.len();
        assert_eq!(total, state.ready_tasks().len());
        for tick in 0..=spill_after {
            fr.begin_tick(&state, tick);
        }
        assert_eq!(
            fr.lists[spill_list].len(),
            total,
            "every root should have spilled after {spill_after} ticks"
        );
    }
}
