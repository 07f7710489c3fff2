//! Tables: the per-task start lower bound, the per-(task, machine)
//! start floors and the §IV gate-rejection bits — everything a query
//! consults to discard a candidate without planning it.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Time;
use gridsim::state::SimState;

use super::{Frontier, Query};
use crate::mapper::GATE_VERSION;

/// Cap on the per-(task, machine) start-floor cache, in entries. At the
/// 65k × 256 design point the cache is 128 MiB of `Time` — acceptable
/// for an opt-in scale run; past the cap the cache is disabled (every
/// probe recomputes, bit-identical results, no memory cliff).
pub(super) const FLOOR_CACHE_MAX: usize = 1 << 25;

impl Frontier {
    /// The cached start lower bound of frontier task `t`: the latest
    /// scheduled finish among its parents (all mapped, by readiness).
    /// Computed lazily — the commit that readies `t` reports it without
    /// state access — and reused across ticks.
    pub(super) fn lb_of(lb: &mut [Time], state: &SimState<'_>, t: TaskId) -> Time {
        let cached = lb[t.0];
        if cached != Time::MAX {
            return cached;
        }
        let mut bound = Time::ZERO;
        for &p in state.scenario().dag.parents(t) {
            let a = state
                .schedule()
                .assignment(p)
                .expect("frontier tasks are ready: every parent is mapped");
            bound = bound.max(a.finish());
        }
        lb[t.0] = bound;
        bound
    }

    /// Occupation may have shrunk (a rebuild after an unmap): earlier gaps
    /// can open, so every cached start floor is suspect — and so is
    /// every floor copy a deferred view entry holds, which would
    /// otherwise outlive the cleared cache and wrongly exclude
    /// churn-reinserted tasks. Cached ubs and gate
    /// results would survive (they are revision-guarded), but the epoch
    /// bump is the one mechanism that reaches every deferred heap.
    pub(super) fn forget_occupation(&mut self) {
        self.floor_cache.fill(Time::ZERO);
        self.view_epoch = self.view_epoch.wrapping_add(1);
    }

    /// The cached start floor of `(t, j)` — [`Time::ZERO`] when nothing
    /// is known (or the cache is size-capped out).
    pub(super) fn cached_floor(&self, t: TaskId, j: MachineId) -> Time {
        if self.floor_cache.is_empty() {
            return Time::ZERO;
        }
        self.floor_cache[j.0 * self.sgen.len() + t.0]
    }

    /// Record that no `Append` plan for `(t, j)` can start before `to`.
    pub(super) fn raise_floor(&mut self, t: TaskId, j: MachineId, to: Time) {
        if self.floor_cache.is_empty() {
            return;
        }
        let slot = &mut self.floor_cache[j.0 * self.sgen.len() + t.0];
        *slot = (*slot).max(to);
    }

    /// A lower bound on the execution start any `Append` plan for `t` on
    /// `j` at clock `not_before` can achieve — each term the planner
    /// enforces (parent finishes, minimum cross-machine transfer
    /// durations, the machine's compute availability) without its
    /// channel-contention gap search, which can only push the start
    /// later. O(fan-in) arithmetic — per parent one assignment read, and
    /// one edge-size read when it sits on another machine — against an
    /// O(|timeline| log) full plan.
    pub(super) fn start_floor(
        &self,
        state: &SimState<'_>,
        t: TaskId,
        j: MachineId,
        not_before: Time,
    ) -> Time {
        let sc = state.scenario();
        let to_spec = sc.grid.machine(j);
        let mut floor = not_before.max(state.compute_ready(j));
        for (&p, e) in sc.dag.parents(t).iter().zip(sc.dag.in_edges(t)) {
            let pa = state
                .schedule()
                .assignment(p)
                .expect("frontier tasks are ready: every parent is mapped");
            floor = floor.max(if pa.machine == j {
                pa.finish()
            } else {
                let size = sc.data.by_id(e).scaled(pa.version.data_factor());
                pa.finish().max(not_before)
                    + sc.grid.machine(pa.machine).transfer_dur(to_spec, size)
            });
        }
        floor
    }

    /// Validate machine `j`'s gate-rejection row against the current
    /// afford limit and return the limit. A limit risen past the
    /// watermark (see [`Frontier::gate_limit`]) flushes the row — and,
    /// because the flush revives bit-excluded candidates, resets the
    /// machine's view (its alive set must rebuild from the log; the log
    /// itself and the startability structures survive) and its idle latch.
    pub(super) fn gate_row_guard(&mut self, state: &SimState<'_>, j: MachineId) -> f64 {
        let limit = state.ledger().afford_limit(j);
        if limit > self.gate_limit[j.0] {
            let row = j.0 * self.gate_row_words;
            self.gate_dead[row..row + self.gate_row_words].fill(0);
            self.gate_limit[j.0] = f64::INFINITY;
            self.views[j.0].retire(&mut self.view_entries, self.shed_all);
            self.idle[j.0] = None;
        }
        limit
    }

    /// True when `(t, j)` is known gate-rejected (only meaningful after
    /// [`Frontier::gate_row_guard`] validated the row this query).
    pub(super) fn gate_dead_bit(&self, t: TaskId, j: MachineId) -> bool {
        self.gate_dead[j.0 * self.gate_row_words + t.0 / 64] & (1 << (t.0 % 64)) != 0
    }

    /// The §IV gate for one candidate on the query's machine, through
    /// the rejection bits: a set bit answers at once, a fresh rejection
    /// is remembered. Newcomers are gated with it on admission and
    /// cached entries again when the scan reaches them — the afford
    /// limit falls as commits drain energy, so a recorded pass may have
    /// gone stale.
    pub(super) fn gate_passes(&mut self, q: &Query<'_>, t: TaskId) -> bool {
        if self.gate_dead_bit(t, q.j) {
            return false;
        }
        let pass = q.state.gate_feasible(t, GATE_VERSION, q.j, q.limit);
        if !pass {
            // It stays infeasible until the limit rises past `q.limit`.
            self.gate_dead[q.j.0 * self.gate_row_words + t.0 / 64] |= 1 << (t.0 % 64);
            self.gate_limit[q.j.0] = self.gate_limit[q.j.0].min(q.limit);
        }
        pass
    }

    /// Probe `t`'s exact start floor on the query's machine: `Some` (and
    /// remembered) when no plan can start inside the horizon.
    pub(super) fn floor_past_horizon(&mut self, q: &Query<'_>, t: TaskId) -> Option<Time> {
        let floor = self.start_floor(q.state, t, q.j, q.now);
        (floor > q.horizon_end).then(|| {
            self.raise_floor(t, q.j, floor);
            floor
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;

    /// Regression: a start floor learned for `(t, j)` while `t`'s
    /// parent sat on another machine must not survive a loss-then-
    /// arrival churn trace that re-inserts the *same* `TaskId` with a
    /// cheaper true floor. The floor was raised to the planned start
    /// (parent finish on the old machine plus a cross-machine
    /// transfer) and a copy of it sits in a deferred view entry; after
    /// the parent unmaps and recommits on the queried machine itself,
    /// both the cache slot and the deferred copy are stale — serving
    /// either would wrongly exclude `t` from horizons its new
    /// same-machine floor clears. The loss cascade goes unreported, as
    /// in a product run, so the next query rebuilds: its floor-cache
    /// clear plus the view-epoch bump (which is what reaches the
    /// deferred heaps) must drop both.
    #[test]
    fn reinserted_task_is_not_pruned_by_a_stale_floor() {
        let sc = scenario(24);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state);
        let m0 = MachineId(0);
        let m1 = MachineId(1);

        // Commit ready roots on machine 1 — parked ~1000 s out, so any
        // plan for their children embeds that delay — until some child
        // becomes ready: that child `t` now has a far-future
        // cross-machine parent.
        let park = Time::from_seconds(1000);
        let mut committed: Vec<TaskId> = Vec::new();
        let mut child: Option<TaskId> = None;
        while child.is_none() {
            let p = *state
                .ready_tasks()
                .iter()
                .find(|t| !committed.contains(t))
                .expect("scenario has a parent-child pair");
            child = commit_on(&mut fr, &mut state, p, Version::Secondary, m1, park)
                .first()
                .copied();
            committed.push(p);
        }
        let t = child.expect("loop exits with a ready child");

        // A wide-horizon query plans every candidate — the
        // planning pass raises (t, m0)'s start floor to a start that
        // embeds machine 1's parked parent finish plus the transfer.
        let wide = Time(park.0 * 2);
        let got = ask(&mut fr, &state, m0, Time::ZERO, wide);
        assert_eq!(
            got,
            pool_answer(&state, m0, Time::ZERO, wide),
            "pre-churn query diverged from the pool"
        );
        assert!(
            fr.cached_floor(t, m0) >= park,
            "the query learned t's parked cross-machine floor (got {:?})",
            fr.cached_floor(t, m0)
        );

        // Loss-then-arrival churn: machine 1 dies, its work unmaps
        // (t leaves the frontier with its parent), and the parents
        // recommit on machine 0 at time zero — t re-enters at the same
        // TaskId with a same-machine floor ~1000 s below the stale one.
        state.mark_lost(m1, Time(1));
        for &p in committed.iter().rev() {
            state.unmap(p);
        }
        for &p in &committed {
            commit_on(&mut fr, &mut state, p, Version::Secondary, m0, Time::ZERO);
        }
        assert!(
            state.ready_tasks().contains(&t),
            "the churn trace re-inserts the same TaskId"
        );
        // Drain every other ready task onto machine 0 so t is the only
        // candidate left: an over-prune now turns the query's Some into
        // None instead of hiding behind another winner.
        while let Some(&r) = state.ready_tasks().iter().find(|&&r| r != t) {
            commit_on(&mut fr, &mut state, r, Version::Secondary, m0, Time::ZERO);
        }
        assert_eq!(state.ready_tasks(), &[t], "t is the sole candidate");

        // Query at exactly t's true start (and a band of horizons far
        // below the parked stale floor): the frontier must keep
        // agreeing with the pool, which admits t from its new
        // same-machine floor on.
        let true_start = state
            .plan(
                t,
                Version::Secondary,
                m0,
                Placement::Append {
                    not_before: Time::ZERO,
                },
            )
            .start;
        assert!(
            true_start < park,
            "recommitted parents give t a pre-park floor (got {true_start:?})"
        );
        for horizon_end in [true_start, Time(true_start.0 * 2), park] {
            assert_eq!(
                ask(&mut fr, &state, m0, Time::ZERO, horizon_end),
                pool_answer(&state, m0, Time::ZERO, horizon_end),
                "post-churn query diverged from the pool at horizon {horizon_end:?}"
            );
        }
        // And the sole candidate is genuinely admitted somewhere in the
        // band — the agreement above is not a vacuous None == None.
        assert!(
            pool_answer(&state, m0, Time::ZERO, park).is_some(),
            "the pool admits t below the stale floor, so the ladder has teeth"
        );
    }
}
