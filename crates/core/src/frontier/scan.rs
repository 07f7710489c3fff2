//! Scan: the four phases of a query over a machine's view — reconcile
//! → refresh → scan → settle. Each candidate the walk cannot rule out is
//! costed once and its version chosen by [`crate::mapper::choose_version`],
//! the rule SLRH-2's frozen order applies too.

use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::Time;
use gridsim::plan::{MappingPlan, Placement, Slot};

use super::view::{Bound, View, ViewEntry};
use super::{Frontier, Query};
use crate::mapper::{choose_version, RunStats};
use crate::pool::plan_objective;

/// Reusable scan buffers.
#[derive(Default)]
pub(super) struct SideBuf {
    /// The scratch bound order standing in for a shed view.
    order: Vec<ViewEntry>,
    /// Removal records from the scan: entry index plus `Some(floor)` to
    /// defer (floor past the horizon) or `None` to drop outright (stale
    /// or gate-dead).
    removals: Vec<(u32, Option<Time>)>,
    /// `(entry index, exact ub)` of every lazy evaluation, written back
    /// so the next query's per-entry drift starts from zero instead of
    /// re-paying the evaluation.
    wb: Vec<(u32, f64)>,
    /// The entries a view update moved — newcomers, written-back
    /// entries — on their way into the view's order
    /// ([`super::merge_sorted`]); empty between updates. One buffer
    /// serves every view.
    moved: Vec<ViewEntry>,
}

/// One query's working set: the machine's view (taken out of the
/// frontier for the duration of the query) and the scan buffers.
#[derive(Default)]
pub(super) struct Side {
    view: View,
    buf: SideBuf,
    /// Every value was computed *this query* (a full refresh or a
    /// scratch-built order): no lazy re-evaluation, zero drift, and
    /// membership and — for a scratch order — the §IV gate are current.
    fresh: bool,
    /// The refresh phase changed the alive set.
    touched: bool,
    /// The view-level drift pad when the values are not fresh.
    drift: f64,
    /// Lazy evaluations this scan — the expensive part of a visit.
    levals: usize,
}

impl Side {
    /// The bound order the scan walks: the view's alive set, or the
    /// scratch slice standing in for a shed view — the same bytes the
    /// view would have held.
    fn order(&mut self) -> &mut Vec<ViewEntry> {
        if self.view.overflow {
            &mut self.buf.order
        } else {
            &mut self.view.entries
        }
    }

    /// Record that the scan found entry `idx` dead (`None`) or unable to
    /// start before `Some(floor)`. A scratch order is rebuilt per query
    /// and keeps no records.
    fn remove(&mut self, idx: usize, floor: Option<Time>) {
        if !self.view.overflow {
            self.buf.removals.push((idx as u32, floor));
        }
    }
}

/// The incumbent of a scan: `(objective, task, chosen version)`. Its
/// plan is built once, after the walk.
type Best = Option<(f64, TaskId, Version)>;

/// Whether a candidate whose objective is at most `value` cannot
/// displace the incumbent: strictly below it, or tied and losing the
/// lower-task-id tie-break.
fn loses(best: &Best, value: f64, t: TaskId) -> bool {
    best.as_ref()
        .is_some_and(|(obj, task, _)| value < *obj || (value == *obj && t > *task))
}

impl Frontier {
    /// Phase 1: bring the startability log and the machine's view
    /// structurally up to date, the view taken out into `s` for the
    /// query. `false` (nothing taken) when the idle latch proves the
    /// answer is still `None`.
    pub(super) fn reconcile(&mut self, q: &Query<'_>, s: &mut Side) -> bool {
        self.sync_list(q.state, q.horizon_end);
        if self.latch_holds(q) {
            return false;
        }
        self.idle[q.j.0] = None;
        std::mem::swap(&mut s.view, &mut self.views[q.j.0]);
        std::mem::swap(&mut s.buf, &mut self.side_buf);
        s.buf.removals.clear();
        s.buf.wb.clear();
        self.sync_view(&mut s.view, q);
        true
    }

    /// Phase 2: make every bound value servable. A shed view gets its
    /// scratch order. A view due a full refresh — new or reset, the
    /// objective changed (online weight adaptation), or the last scan's
    /// cost signal — first purges stale membership (otherwise caught
    /// lazily at scan time: no point evaluating the dead) and is
    /// re-bounded; any other view only bounds its newcomers and is
    /// served under its drift pad.
    pub(super) fn refresh(&mut self, b: &Bound<'_>, s: &mut Side) {
        if s.view.overflow {
            self.build_scratch(b, &mut s.buf.order);
            s.fresh = true;
            return;
        }
        s.fresh = s.view.ub_obj != Some(*b.q.objective) || s.view.refresh;
        if s.fresh {
            let before = s.view.entries.len();
            s.view
                .entries
                .retain(|e| self.is_current(b.q.state, TaskId(e.t as usize), e.gen));
            self.view_entries -= before - s.view.entries.len();
        }
        s.touched = s.view.evaluate(s.fresh, b, &mut s.buf.moved);
        if !s.fresh {
            s.drift = s.view.drift(b);
        }
    }

    /// Phase 3: walk the bound order by descending drift-padded bound
    /// (ties toward the lower task id), exact-evaluating and planning
    /// only the entries the incumbent cannot already rule out. A
    /// candidate is skipped only when its cached bound plus the drift
    /// sits strictly below the incumbent (or ties it and loses the
    /// task-id tie-break) — and since the true ub never exceeds that
    /// sum, the argmax is exactly the exhaustive scan's. Per entry: membership kill → per-entry tight bound → §IV
    /// gate → lazy exact eval → exact-bound skip → floor defer → costing
    /// → incumbent update. Only the winner is planned: the state cannot
    /// change during a query, so the plan built after the walk is the one
    /// the walk would have kept.
    pub(super) fn scan(
        &mut self,
        b: &Bound<'_>,
        s: &mut Side,
        stats: &mut RunStats,
    ) -> Option<MappingPlan> {
        let q = &b.q;
        // The walk's own state — the order (lent out of the side until
        // the walk ends) and its drift pad — lives in locals: read
        // through the `&mut` side it is re-fetched from memory every
        // step, ~2 % of a 65 536 × 256 run.
        let order = std::mem::take(s.order());
        let drift = s.drift;
        let mut best: Best = None;
        for (idx, &e) in order.iter().enumerate() {
            let t = TaskId(e.t as usize);
            // Sound early exit: every remaining entry's exact ub is at
            // most its drift-padded bound, so nothing left can beat (or
            // task-tie-break) the incumbent.
            let padded = e.ub + drift;
            if loses(&best, padded, t) {
                break;
            }
            if !s.fresh {
                // Lazy membership: a committed task's entry is dropped
                // when the scan reaches it; until then its stale ub is a
                // valid upper bound (the task can no longer win at all).
                if !self.is_current(q.state, t, e.gen) {
                    s.remove(idx, None);
                    continue;
                }
                // Checked before the gate, so entries the incumbent
                // already dominates cost no gate probe and no
                // evaluation.
                if best.is_some() && loses(&best, e.ub + b.entry_drift(&e), t) {
                    continue;
                }
            }
            // A value refresh does not re-gate; only a scratch order
            // (gated when it was built, this query) may skip.
            if !s.view.overflow && !self.gate_passes(q, t) {
                s.remove(idx, None);
                continue;
            }
            let ub = if s.fresh {
                e.ub
            } else {
                let exact = b.ub(t, (e.dlo, e.dhi));
                s.levals += 1;
                s.buf.wb.push((idx as u32, exact));
                exact
            };
            debug_assert!(
                ub <= padded,
                "drift bound {padded} below exact ub {ub} for {t}"
            );
            // Exact-bound skip: this candidate cannot win, but a later
            // lower-snapshot entry still might — keep scanning without
            // planning it. (On a fresh order the padded bound *is* the
            // exact ub, so the early exit above already fired.)
            if loses(&best, ub, t) {
                continue;
            }
            if let Some(floor) = self.floor_past_horizon(q, t) {
                s.remove(idx, Some(floor));
                continue;
            }
            let (obj, slot) = self.cost_chosen(b, t, stats);
            if slot.start > q.horizon_end {
                s.remove(idx, Some(slot.start));
                continue;
            }
            debug_assert!(obj <= ub, "upper bound {ub} below objective {obj} for {t}");
            if !loses(&best, obj, t) {
                best = Some((obj, t, slot.version));
            }
        }
        *s.order() = order;
        best.map(|(obj, t, version)| {
            let placement = Placement::Append { not_before: q.now };
            let plan = q
                .state
                .plan_with(t, version, q.j, placement, &mut self.scratch);
            debug_assert_eq!(
                obj.to_bits(),
                plan_objective(q.state, q.objective, &plan).to_bits(),
                "the costing's score is not the plan's objective for {t}"
            );
            plan
        })
    }

    /// Phase 4: fold what the scan learned back into the views — the
    /// scan-cost signal (lazy evaluation ran deep into a cached order:
    /// reset its drift with a full refresh next query), write-backs,
    /// removals, the refolded drift basis — hand views and buffers back,
    /// and arm the idle latch after a `None`.
    pub(super) fn settle(&mut self, b: &Bound<'_>, s: &mut Side, idle: bool) {
        let v = &mut s.view;
        // A shed view proves nothing about the next query.
        let mut latch = None;
        if !v.overflow {
            if !s.fresh && s.levals > 8 + v.entries.len() / 4 {
                v.refresh = true;
            }
            self.view_entries -= v.settle(&s.buf.wb, &s.buf.removals, b.basis(), &mut s.buf.moved);
            if s.touched || !s.buf.removals.is_empty() || !s.buf.wb.is_empty() {
                v.refold_basis(b.basis());
            }
            debug_assert!(
                !idle || v.entries.is_empty(),
                "an incumbent-free scan consumes every entry"
            );
            latch = idle.then(|| v.earliest_deferral());
        }
        std::mem::swap(&mut self.views[b.q.j.0], &mut s.view);
        std::mem::swap(&mut self.side_buf, &mut s.buf);
        if let Some(floor) = latch {
            self.arm_latch(b.q.j, floor);
        }
    }

    /// Cost `t` on the query's machine once and choose its version
    /// ([`choose_version`]). Both versions' scores come from the one
    /// costing ([`gridsim::plan::Costing`]; under `Append` neither the
    /// start nor the transfer energy depends on the version) and equal
    /// the two plans' objectives bit for bit. The start is remembered as
    /// the pair's start floor.
    fn cost_chosen(&mut self, b: &Bound<'_>, t: TaskId, stats: &mut RunStats) -> (f64, Slot) {
        stats.candidates_evaluated += 1;
        let q = &b.q;
        let cost = q.state.cost(
            t,
            q.j,
            Placement::Append { not_before: q.now },
            &mut self.scratch,
        );
        let chosen = choose_version(q.state, &cost, |totals| b.score(totals));
        self.raise_floor(t, q.j, chosen.1.start);
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;

    /// The frontier query must pick exactly the pool's
    /// `first_startable` entry, across an entire greedy drain.
    #[test]
    fn best_startable_matches_first_startable_across_a_drain() {
        let sc = scenario(32);
        let mut state = SimState::new(&sc);
        let mut fr = Frontier::new(&state);
        let mut now = Time::ZERO;
        let mut guard = 0;
        let mut total_commits = 0u64;
        loop {
            let mut committed = false;
            for j in sc.grid.ids() {
                let horizon_end = now.saturating_add(H);
                let expected = pool_answer(&state, j, now, horizon_end);
                let got = ask(&mut fr, &state, j, now, horizon_end);
                assert_eq!(expected, got, "machine {j}");
                if let Some(plan) = got {
                    fr.apply(state.commit(&plan));
                    committed = true;
                    total_commits += 1;
                }
            }
            if state.all_mapped() || !committed {
                break;
            }
            now += DT;
            guard += 1;
            assert!(guard < 512, "drain did not terminate");
        }
        // The drain ends either fully mapped or energy-gated; in both
        // cases every query agreed with the pool and every commit was
        // counted.
        assert!(total_commits > 0, "drain never committed anything");
        assert_eq!(fr.last_revision, state.revision());
    }

    /// Regression: a child made ready by a commit *mid-tick* must be
    /// offered to the machines queried later in the same tick, by the
    /// cached views and by the resort scan, which filters the ready set
    /// itself. (It once read a per-tick startable cache that had to be
    /// patched on insert; now it walks the state's ready set.)
    #[test]
    fn a_child_readied_mid_tick_is_offered_later_in_the_same_tick() {
        let sc = layered();
        let wide = Time(sc.tau.0 * 4);
        for resort in [false, true] {
            let mut state = SimState::new(&sc);
            let mut fr = Frontier::new(&state);
            if resort {
                fr = fr.resort_only();
            }
            // Machine 0 is served first: whatever is cached per tick or
            // per ready set is built now, before the child exists.
            assert!(ask(&mut fr, &state, MachineId(0), Time::ZERO, wide).is_some());
            // It commits until a child becomes ready, then takes every
            // other ready subtask too: the child is the sole candidate.
            let mut child = None;
            while child.is_none() {
                let &t = state.ready_tasks().first().expect("a root readies a child");
                let readied = commit_on(
                    &mut fr,
                    &mut state,
                    t,
                    Version::Secondary,
                    MachineId(0),
                    Time::ZERO,
                );
                child = readied.first().copied();
            }
            let child = child.unwrap();
            while let Some(&r) = state.ready_tasks().iter().find(|&&r| r != child) {
                commit_on(
                    &mut fr,
                    &mut state,
                    r,
                    Version::Secondary,
                    MachineId(0),
                    Time::ZERO,
                );
            }
            assert_eq!(state.ready_tasks(), &[child]);
            // Same tick, next machine.
            let m1 = MachineId(1);
            let got = ask(&mut fr, &state, m1, Time::ZERO, wide);
            assert_eq!(
                got.as_ref().map(|p| p.task),
                Some(child),
                "scan (resort: {resort})"
            );
            assert_eq!(got, pool_answer(&state, m1, Time::ZERO, wide));
        }
    }
}
