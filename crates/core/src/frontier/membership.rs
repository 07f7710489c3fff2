//! Membership: the frontier's members are the state's ready set
//! ([`SimState::ready_tasks`]); this layer keeps the startability log
//! over it — the candidates whose start lower bound the horizon has
//! reached, in the deterministic arrival order every view consumes.

use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use gridsim::state::SimState;

use super::{merge_sorted, Frontier, Query};

impl Frontier {
    /// Start a fresh startable generation for ready subtask `t`: any
    /// log, waiting or view entry carrying the old one is now stale.
    pub(super) fn insert(&mut self, t: TaskId) {
        self.lb[t.0] = Time::MAX;
        self.sgen[t.0] = self.sgen[t.0].wrapping_add(1);
        self.fresh.push((t, self.sgen[t.0]));
    }

    /// Catch up with mutations that were not reported (segment starts,
    /// loss cascades): re-insert the whole ready set and forget
    /// everything rooted in the old occupation.
    pub(super) fn resync(&mut self, state: &SimState<'_>) {
        if state.revision() == self.last_revision {
            return;
        }
        self.forget_occupation();
        for &t in state.ready_tasks() {
            self.insert(t);
        }
        self.last_revision = state.revision();
    }

    /// Collect the candidates that can matter to the query, from
    /// scratch — the resort scan's per-query filter (the cached views
    /// read the startable log instead): members whose
    /// start lower bound and cached start floor clear the horizon and
    /// that pass the §IV gate.
    pub(super) fn collect_startable(&mut self, q: &Query<'_>, out: &mut Vec<TaskId>) {
        out.clear();
        for &t in q.state.ready_tasks() {
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
            for &t in state.ready_tasks() {
                self.fresh.push((t, self.sgen[t.0]));
            }
            self.list_epoch = self.view_epoch;
        }
        if !self.fresh.is_empty() {
            for k in 0..self.fresh.len() {
                let (t, g) = self.fresh[k];
                if !self.is_current(state, t, g) {
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
            if self.is_current(state, t, g) {
                self.slog.push((t, g));
            }
        }
    }

    /// Whether a `(task, generation)` record still names a ready
    /// subtask: the task has neither been committed nor been re-inserted
    /// since.
    pub(super) fn is_current(&self, state: &SimState<'_>, t: TaskId, gen: u32) -> bool {
        self.sgen[t.0] == gen && state.is_ready(t)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use proptest::prelude::*;

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

        /// The counted-revision contract: the frontier counts the
        /// commits it is told of, and any mutation it is not told of — a
        /// commit whose report is dropped, a leaf unmap as in a loss
        /// cascade — makes the next query rebuild from the state. After
        /// every step each machine's answer is the pool's, and the count
        /// has caught up with the state's revision.
        #[test]
        fn every_answer_survives_unreported_mutations(
            steps in prop::collection::vec(
                (any::<bool>(), any::<bool>(), any::<usize>(), any::<usize>(), 0u64..4),
                1..32,
            ),
            span in prop::sample::select(&[H.0, 40 * H.0]),
        ) {
            let sc = layered();
            let mut state = SimState::new(&sc);
            let mut fr = Frontier::new(&state);
            let mut now = Time::ZERO;
            for (unmap, report, pick, machine, advance) in steps {
                if unmap {
                    // A mapped leaf of the mapped set whose unmap starves
                    // no parent (a starved parent would have to cascade).
                    let leaves: Vec<TaskId> = sc
                        .dag
                        .tasks()
                        .filter(|&t| {
                            state.is_mapped(t)
                                && sc.dag.children(t).iter().all(|&c| !state.is_mapped(c))
                                && state.clone().unmap(t).is_empty()
                        })
                        .collect();
                    if !leaves.is_empty() {
                        state.unmap(leaves[pick % leaves.len()]);
                    }
                } else if !state.ready_tasks().is_empty() {
                    let t = state.ready_tasks()[pick % state.ready_tasks().len()];
                    let j = MachineId(machine % sc.grid.len());
                    if state.version_feasible(t, Version::Secondary, j) {
                        let placement = Placement::Append { not_before: now };
                        let plan = state.plan(t, Version::Secondary, j, placement);
                        let readied = state.commit(&plan);
                        if report {
                            fr.apply(readied);
                        }
                    }
                }
                now += Dur(advance * DT.0);
                let horizon_end = now + Dur(span);
                for j in sc.grid.ids().filter(|&j| state.is_alive(j)) {
                    prop_assert_eq!(
                        ask(&mut fr, &state, j, now, horizon_end),
                        pool_answer(&state, j, now, horizon_end),
                        "{} at {:?}", j, now
                    );
                    prop_assert_eq!(fr.last_revision, state.revision());
                }
            }
        }
    }
}
