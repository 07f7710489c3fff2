//! Views: one cached bound order per machine, the objective upper
//! bound its entries are sorted by, and the drift bound under which
//! stale entries are still served.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Time};
use gridsim::metrics::Metrics;
use gridsim::plan::PlanTotals;
use lagrange::weights::{AetSign, Objective};

use super::{merge_sorted, Frontier, Query};
use crate::mapper::GATE_VERSION;
use crate::pool::totals_objective;

/// Global cap on live cached-order entries (alive + floor-deferred)
/// across every machine's view, in entries — 64 bytes each alive (the
/// size assertion below), so the worst case is 512 MiB. A view whose
/// drain would push the total past the cap is *shed*: its storage is
/// released and its machine is served by the per-query resort scan
/// until the next epoch, so worst-case memory is bounded without a
/// correctness cliff — the resort scan is the same bit-exact path the
/// [`crate::reference`] `Resort` oracle forces on every view.
const VIEW_ENTRY_CAP: usize = 1 << 23;

const _: () = assert!(std::mem::size_of::<ViewEntry>() == 64);

/// The global metrics a bound value was computed at. Within an epoch
/// each component moves one way (`T100`, `TEC`, `AET` and the horizon
/// end only grow), which is what makes the drift since a basis boundable.
#[derive(Copy, Clone, Default)]
pub(super) struct Basis {
    tec: f64,
    aet: u64,
    /// Horizon end.
    h: u64,
    t100: u32,
}

/// One alive candidate in a machine's cached bound order: the
/// §IV-gate-passing, floor-admissible startable task `t` with the
/// objective upper bound any plan for it could reach on the view's
/// machine. `gen` is the task's startable generation
/// ([`Frontier::sgen`]) at entry time; a mismatch means the task left
/// the frontier (or was re-inserted) and the entry is stale.
#[derive(Copy, Clone)]
pub(super) struct ViewEntry {
    /// Objective upper bound ([`Bound::ub`]).
    pub(super) ub: f64,
    /// Task id (task counts fit u32 at every supported scale).
    pub(super) t: u32,
    /// [`Frontier::sgen`] stamp at entry time.
    pub(super) gen: u32,
    /// Smallest / largest chosen exec duration (ticks) over the
    /// versions the bound maximises ([`Bound::durations`]) — per-entry
    /// drift is evaluated at both (the drift is monotone in the
    /// duration, so the pair bounds every considered version), and every
    /// re-evaluation of `ub` reads them instead of the ETC matrix.
    pub(super) dlo: u64,
    pub(super) dhi: u64,
    /// The metric basis `ub` was computed at. Per-entry bases make the
    /// refined drift bound exact-to-ulps for entries evaluated *after*
    /// the view's last full refresh (log newcomers, lazy write-backs),
    /// which the view-level snapshot would over-charge by the whole
    /// drift since the refresh.
    basis: Basis,
}

/// A machine's cached bound order: the sorted alive permutation (`entries`, ordered ub desc / task asc), the candidates
/// excluded because their known start floor sits past the horizon
/// (`deferred`, revived when the horizon catches up), and the cursor
/// into the append-only startable log. Maintained incrementally
/// off the startable log, lazy membership checks and floor raises;
/// invalidated wholesale by an epoch bump (a rebuild) and
/// per machine by a §IV gate-row flush.
#[derive(Default)]
pub(super) struct View {
    /// Matches [`Frontier::view_epoch`] when structurally valid.
    pub(super) epoch: u64,
    /// Consumed prefix of the startable log.
    log_cursor: usize,
    /// Alive candidates, sorted (ub desc, task asc) after each sync.
    /// Updates that move a few keys repair the order
    /// ([`View::evaluate`], [`View::settle`]); only a full refresh, which
    /// moves every key, sorts it again.
    pub(super) entries: Vec<ViewEntry>,
    /// Floor-excluded candidates as `Reverse((floor, task, gen))`:
    /// popped back into the alive set once `horizon_end ≥ floor`.
    pub(super) deferred: BinaryHeap<Reverse<(Time, u32, u32)>>,
    /// Newcomers accepted this sync, awaiting their ub evaluation.
    pend: Vec<(u32, u32)>,
    /// Objective identity behind the cached `ub` values (weights adapt
    /// online in some modes without a state revision bump). `None`
    /// marks a view with no valid value snapshot — the next query
    /// refreshes in full.
    pub(super) ub_obj: Option<Objective>,
    /// The view-level drift basis: the metrics of the last full refresh,
    /// refolded to the extremes over the alive entries' own bases. Only
    /// read under a `ub_obj` that a full refresh sets together with it.
    snap: Basis,
    /// Set when the last scan visited enough entries that resetting
    /// the drift (a full refresh) is cheaper than lazy re-evaluation.
    pub(super) refresh: bool,
    /// Shed by the memory cap: serve this machine via the resort scan
    /// until the next epoch.
    pub(super) overflow: bool,
}

/// The bound order: ub desc, task asc — the scan's early exit depends
/// on it, and it is a strict total order (the ready set holds a task once).
fn view_order(a: &ViewEntry, b: &ViewEntry) -> Ordering {
    b.ub.partial_cmp(&a.ub)
        .expect("objective bounds are finite")
        .then(a.t.cmp(&b.t))
}

/// Sort a bound order whose every key was just computed — a full
/// refresh or a scratch build; updates that move a few keys merge them
/// in instead ([`merge_sorted`]). The sortedness check skips the sort
/// when the new keys kept their order.
fn restore_sort(entries: &mut [ViewEntry]) {
    if !entries
        .windows(2)
        .all(|w| view_order(&w[0], &w[1]) == Ordering::Less)
    {
        entries.sort_unstable_by(view_order);
    }
}

impl View {
    /// Back to the just-born state, keeping heap capacity.
    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.deferred.clear();
        self.pend.clear();
        self.log_cursor = 0;
        self.ub_obj = None;
        self.refresh = false;
        self.overflow = false;
    }

    /// [`View::clear`], handing the storage back to the frontier-wide
    /// `live` count; a `shed` view serves its machine through the
    /// resort scan until the next epoch.
    pub(super) fn retire(&mut self, live: &mut usize, shed: bool) {
        *live -= self.entries.len() + self.deferred.len();
        self.clear();
        self.overflow = shed;
    }

    /// Bound this query's share of the view in place: on a `full` pass
    /// every alive ub is recomputed from the entry's stored durations
    /// (resetting the drift basis to the current metrics), the newcomers
    /// are bounded and appended, and the whole order is sorted again;
    /// otherwise only the newcomers are bounded, collected in `moved` and
    /// merged into the order, whose other keys did not move. Newcomers
    /// evaluated at *later* metrics than the view basis stay safe under
    /// its drift bound — drift is nonnegative and additive over time.
    /// Returns whether the alive set changed.
    pub(super) fn evaluate(
        &mut self,
        full: bool,
        b: &Bound<'_>,
        moved: &mut Vec<ViewEntry>,
    ) -> bool {
        let basis = b.basis();
        if full {
            for e in &mut self.entries {
                e.ub = b.ub(TaskId(e.t as usize), (e.dlo, e.dhi));
                e.basis = basis;
            }
            self.snap = basis;
            self.ub_obj = Some(*b.q.objective);
            self.refresh = false;
        }
        let dirty = full || !self.pend.is_empty();
        // A full pass sorts everything anyway, and a re-armed view's
        // newcomers are the whole startable log: they go straight into
        // the order, so the shared buffer never grows to a log's size.
        let dest = if full { &mut self.entries } else { &mut *moved };
        for &(t, gen) in &self.pend {
            let task = TaskId(t as usize);
            let (dlo, dhi) = b.durations(task);
            let ub = b.ub(task, (dlo, dhi));
            dest.push(ViewEntry {
                ub,
                t,
                gen,
                dlo,
                dhi,
                basis,
            });
        }
        self.pend.clear();
        if full {
            restore_sort(&mut self.entries);
        } else {
            merge_sorted(&mut self.entries, moved, view_order);
        }
        dirty
    }

    /// Settle one scan's findings into the alive set: apply the
    /// removals — `Some(floor)` moves the entry into the deferred heap
    /// (floor past the horizon, probed or planned), `None` drops it
    /// outright (stale membership or gate-dead) — and write the lazily
    /// evaluated exact ubs of the entries that stay back with the basis
    /// they were computed at (so the next query's per-entry drift starts
    /// from zero). Both record lists address the scanned layout and
    /// arrive in ascending index order (the scan consumes the order
    /// monotonically), so one compaction pass does both: it keeps the
    /// untouched entries in order and lifts the written-back ones out
    /// into `moved`, which is then merged back in. Returns how many
    /// entries were dropped (the caller's storage accounting).
    pub(super) fn settle(
        &mut self,
        wb: &[(u32, f64)],
        removals: &[(u32, Option<Time>)],
        basis: Basis,
        moved: &mut Vec<ViewEntry>,
    ) -> usize {
        let View {
            entries, deferred, ..
        } = self;
        let (mut wbs, mut rms) = (wb.iter().peekable(), removals.iter().peekable());
        // Everything before the first record stays where it is.
        let heads = [
            wb.first().map(|w| w.0 as usize),
            removals.first().map(|r| r.0 as usize),
        ];
        let first = heads.into_iter().flatten().min().unwrap_or(entries.len());
        let (mut kept, mut dropped) = (first, 0);
        for i in first..entries.len() {
            let e = entries[i];
            let written = wbs.next_if(|w| w.0 as usize == i).map(|w| w.1);
            if let Some(&(_, floor)) = rms.next_if(|r| r.0 as usize == i) {
                match floor {
                    Some(f) => deferred.push(Reverse((f, e.t, e.gen))),
                    None => dropped += 1,
                }
            } else if let Some(ub) = written {
                moved.push(ViewEntry { ub, basis, ..e });
            } else {
                entries[kept] = e;
                kept += 1;
            }
        }
        debug_assert!(
            wbs.next().is_none() && rms.next().is_none(),
            "records past the end of the order"
        );
        entries.truncate(kept);
        merge_sorted(entries, moved, view_order);
        dropped
    }

    /// Refold the view-level drift basis to the per-component extremes
    /// over the alive entries' bases — min `T100`/`AET`/`h`, max `TEC`
    /// (each the direction that maximises drift), so the uniform
    /// early-exit pad equals the tightest sound bound on any entry's
    /// per-entry drift instead of decaying with the age of the last
    /// full refresh. An empty view snaps to `current` (zero drift).
    pub(super) fn refold_basis(&mut self, current: Basis) {
        self.snap = match self.entries.split_first() {
            None => current,
            Some((first, rest)) => rest.iter().fold(first.basis, |s, e| Basis {
                t100: s.t100.min(e.basis.t100),
                tec: s.tec.max(e.basis.tec),
                aet: s.aet.min(e.basis.aet),
                h: s.h.min(e.basis.h),
            }),
        };
    }

    /// The earliest floor a deferred entry waits on ([`Time::MAX`]:
    /// none).
    pub(super) fn earliest_deferral(&self) -> Time {
        self.deferred
            .peek()
            .map_or(Time::MAX, |&Reverse((f, _, _))| f)
    }

    /// The view-level drift bound (see [`Bound::drift`]): how much *any*
    /// alive entry's exact ub can have risen since it was computed.
    pub(super) fn drift(&self, b: &Bound<'_>) -> f64 {
        let rise = b.m.aet.0.saturating_sub(self.snap.aet);
        let reach = b.q.horizon_end.0.saturating_sub(self.snap.h);
        b.drift(&self.snap, rise.max(reach)).max(0.0)
    }
}

/// The objective upper bound of one query, and its drift.
///
/// [`Bound::ub`] bounds the objective any plan for a candidate could
/// reach, *without* planning: exact arithmetic over the planner's own
/// start-independent quantities (`T100` and `TEC` never depend on the
/// placement) plus the extremal admissible execution start for the `AET`
/// term — `horizon_end` under the paper's positive sign (later finishes
/// score higher, and starts past the horizon are rejected anyway), a
/// cheap start floor under the negative ablation. Transfer energy is
/// bounded below by zero rather than computed (a smaller `tec` term can
/// only raise the bound), and the primary is included unconditionally
/// (when it is actually infeasible the bound is merely looser — the plan
/// phase re-checks feasibility exactly). Every input either matches the
/// real evaluation bit-for-bit or bounds it through operations that are
/// monotone in IEEE arithmetic, so `ub ≥ obj` holds exactly, never
/// approximately. Cached views, refreshes, lazy per-visit evaluations
/// and the resort scan all call this one function, so their values are
/// bit-equal.
pub(super) struct Bound<'q> {
    pub(super) q: Query<'q>,
    m: Metrics,
    /// The extremal admissible execution start.
    start: Time,
    positive: bool,
    tasks_f: f64,
    tau_s: f64,
    /// The objective's weights, read once: the drift runs per scanned
    /// entry.
    weights: [f64; 3],
}

impl<'q> Bound<'q> {
    pub(super) fn new(q: &Query<'q>) -> Bound<'q> {
        let m = q.state.metrics();
        let positive = matches!(q.objective.aet_sign, AetSign::Positive);
        let w = &q.objective.weights;
        Bound {
            q: *q,
            m,
            start: if positive {
                q.horizon_end
            } else {
                q.now.max(q.state.compute_ready(q.j))
            },
            positive,
            tasks_f: m.tasks as f64,
            tau_s: m.tau.as_seconds(),
            weights: [w.alpha(), w.beta(), w.gamma()],
        }
    }

    /// `(dlo, dhi)` are `t`'s exec durations on the query's machine,
    /// [`Bound::durations`]: a cached entry passes the pair it stores,
    /// so re-evaluating it reads no ETC row. Each version's bound is a
    /// [`PlanTotals`] scored by [`Bound::score`], the plans' own
    /// objective expression.
    pub(super) fn ub(&self, t: TaskId, (dlo, dhi): (u64, u64)) -> f64 {
        debug_assert_eq!(
            (dlo, dhi),
            self.durations(t),
            "stale exec durations for {t}"
        );
        let (q, m) = (&self.q, &self.m);
        let machine = q.state.scenario().grid.machine(q.j);
        let ub_for = |v: Version, exec_dur: Dur| {
            self.score(&PlanTotals {
                t100_after: m.t100 + usize::from(v.is_primary()),
                tec_after: m.tec + machine.compute_energy(exec_dur),
                aet_after: m.aet.max(self.start + exec_dur),
            })
        };
        let ub = ub_for(GATE_VERSION, Dur(dlo)).max(ub_for(Version::Primary, Dur(dhi)));
        debug_assert!(ub.is_finite(), "objective bounds are finite");
        ub
    }

    /// The objective of a plan with these totals:
    /// [`totals_objective`] over the query's metrics snapshot (the state
    /// cannot change during a query), so the value is the plan's
    /// objective bit for bit.
    pub(super) fn score(&self, totals: &PlanTotals) -> f64 {
        totals_objective(&self.m, self.q.objective, totals)
    }

    /// Smallest / largest exec duration over the versions `ub`
    /// maximises: the gate version's (the secondary, a fraction of the
    /// primary rounded up, so never longer) and the primary's.
    fn durations(&self, t: TaskId) -> (u64, u64) {
        let etc = &self.q.state.scenario().etc;
        let d = etc.exec_dur(t, self.q.j, GATE_VERSION).0;
        let p = etc.exec_dur(t, self.q.j, Version::Primary).0;
        debug_assert!(d <= p, "a secondary outlasts its primary for {t}");
        (d, p)
    }

    /// The metrics this query's bounds are computed at.
    pub(super) fn basis(&self) -> Basis {
        Basis {
            t100: self.m.t100 as u32,
            tec: self.m.tec.units(),
            aet: self.m.aet.0,
            h: self.q.horizon_end.0,
        }
    }

    /// A conservative f64 upper bound on how much a ub computed at
    /// `basis` can have risen by now, given the rise of its `AET` term's
    /// numerator in ticks.
    ///
    /// Within an epoch every metric the bound depends on moves one way:
    /// `T100` and `TEC` only grow (commits map tasks and spend energy),
    /// `AET` only grows (schedules only extend), and the horizon end
    /// only advances (one kernel serves one run, whose clock is
    /// monotone). Of the three objective terms, the `T100` term rises by
    /// exactly `α·ΔT100/|T|` and the `TEC` term falls by exactly
    /// `β·ΔTEC/TSE` for every candidate (the per-candidate exec energy
    /// cancels in the difference — without that credit the pad is loose
    /// by the whole drain), and the `AET` term matters only under the
    /// positive sign (under the negative ablation it only lowers the
    /// ub). Every float op is a monotone rounding of a monotone real
    /// function, so the real-arithmetic bound carries over up to a few
    /// ULPs of O(1) magnitudes — swamped by the `DRIFT_SLOP` margin.
    /// Overestimating is safe: the bound is only used to *keep*
    /// scanning (a too-large drift visits entries the exact scan would
    /// have skipped, never the reverse).
    fn drift(&self, basis: &Basis, aet_rise: u64) -> f64 {
        const DRIFT_SLOP: f64 = 1e-9;
        debug_assert!(
            basis.h <= self.q.horizon_end.0,
            "the horizon regressed inside an epoch"
        );
        let [alpha, beta, gamma] = self.weights;
        let mut d = alpha * ((self.m.t100 - basis.t100 as usize) as f64) / self.tasks_f;
        d -= beta * (self.m.tec.units() - basis.tec) / self.m.tse.units();
        if self.positive {
            d += gamma * Time(aet_rise).as_seconds() / self.tau_s;
        }
        d + d.abs() * DRIFT_SLOP + DRIFT_SLOP
    }

    /// The per-entry refinement of [`View::drift`], from the entry's own
    /// basis: exact-to-ulps, because the `AET` term's drift
    /// `Δmax(aet, h + d)` is monotone in the exec duration `d`, so the
    /// stored duration extremes bound every considered version (the
    /// view-level bound uses `Δmax(aet, h + d) ≤ max(Δaet, Δh)`, the
    /// 1-Lipschitz `max`, instead).
    pub(super) fn entry_drift(&self, e: &ViewEntry) -> f64 {
        debug_assert_eq!(
            (e.dlo, e.dhi),
            self.durations(TaskId(e.t as usize)),
            "the version set changed under a cached entry"
        );
        let rise = |d: u64| {
            let cur = self.m.aet.0.max(self.q.horizon_end.0.saturating_add(d));
            cur.saturating_sub(e.basis.aet.max(e.basis.h.saturating_add(d)))
        };
        let aet_rise = if self.positive {
            rise(e.dlo).max(rise(e.dhi))
        } else {
            0
        };
        self.drift(&e.basis, aet_rise)
    }
}

impl Frontier {
    /// Structural half of a view sync: re-arm a view from a stale
    /// epoch, then drain new log entries and horizon-reached deferrals
    /// into `pend` (gated, floor-checked, awaiting ub evaluation), and
    /// enforce the memory cap. Alive entries keep their sorted order
    /// throughout, and entries whose membership or §IV verdict went
    /// stale (the afford limit falls as commits drain energy) are
    /// caught lazily, at scan time — a falling limit can only *remove*
    /// candidates, and a removed candidate's stale ub stays a valid
    /// upper bound for the early-exit logic until the scan reaches and
    /// drops it.
    pub(super) fn sync_view(&mut self, v: &mut View, q: &Query<'_>) {
        if v.epoch != self.view_epoch {
            v.retire(&mut self.view_entries, self.shed_all);
            v.epoch = self.view_epoch;
        }
        if v.overflow {
            return;
        }
        v.pend.clear();
        // Newcomers from the startable log, in arrival order, admitted
        // on their *exact* start floor, not just the lazily-raised
        // cache. Most arrivals are data-bound far past the horizon;
        // deferring them here (the same verdict the scan's floor stage
        // would reach, so the schedule is unchanged) skips the whole
        // gate/eval/scan pipeline for the deferred mass. The floor only
        // grows with `now`, so an early defer can only revive early and
        // recheck.
        //
        // A re-armed view re-walks the log from the low-water
        // mark — everything before it is stale for good (see
        // [`Frontier::slog_low`]) — and what is left is still mostly
        // stale, so each stale run is skipped by a call-free search:
        // with `admit` (`&mut self`) inside that loop every table pointer
        // is reloaded per record, which measured ~2 % of a 100 000 × 1000
        // run. A stale run that starts at the mark raises it.
        let logged = self.slog.len();
        let mut k = v.log_cursor.max(self.slog_low);
        while k < logged {
            let run = self.slog[k..]
                .iter()
                .position(|&(t, g)| self.is_current(q.state, t, g))
                .unwrap_or(logged - k);
            if k == self.slog_low {
                self.slog_low += run;
            }
            k += run;
            if let Some(&(t, g)) = self.slog.get(k) {
                self.admit(v, q, t, g, true);
                k += 1;
            }
        }
        v.log_cursor = logged;
        // Deferred revival: floors are monotone within an epoch, so a
        // deferral sleeps until the horizon reaches its recorded floor,
        // then re-checks everything fresh (membership, gate, the cached
        // floor — which may have been raised meanwhile).
        while let Some(&Reverse((floor, t, g))) = v.deferred.peek() {
            if floor > q.horizon_end {
                break;
            }
            v.deferred.pop();
            self.view_entries -= 1;
            let t = TaskId(t as usize);
            if self.is_current(q.state, t, g) {
                self.admit(v, q, t, g, false);
            }
        }
        // Gate the accepted newcomers at the current limit.
        v.pend
            .retain(|&(t, _)| self.gate_passes(q, TaskId(t as usize)));
        if self.view_entries + v.pend.len() > VIEW_ENTRY_CAP {
            // Shed: release the storage and serve this machine through
            // the resort scan until the next epoch retries.
            v.retire(&mut self.view_entries, true);
            return;
        }
        self.view_entries += v.pend.len();
    }

    /// Admit a current `(task, generation)` record into `v`, unless it is gate-dead: deferred when its start floor —
    /// the cached one, else (`probe`) the exact one — sits past the
    /// horizon, pended otherwise.
    fn admit(&mut self, v: &mut View, q: &Query<'_>, t: TaskId, g: u32, probe: bool) {
        if self.gate_dead_bit(t, q.j) {
            return;
        }
        let cached = self.cached_floor(t, q.j);
        let blocked = if cached > q.horizon_end {
            Some(cached)
        } else if probe {
            self.floor_past_horizon(q, t)
        } else {
            None
        };
        match blocked {
            Some(f) => {
                v.deferred.push(Reverse((f, t.0 as u32, g)));
                self.view_entries += 1;
            }
            None => v.pend.push((t.0 as u32, g)),
        }
    }

    /// Build the sorted bound order from scratch — the resort scan:
    /// collect → prune → gate → bound → sort, per query. Serves machines
    /// whose view was shed by the memory cap (and every machine of the
    /// `Resort` reference oracle), bit-identical to the cached order it
    /// replaces.
    pub(super) fn build_scratch(&mut self, b: &Bound<'_>, out: &mut Vec<ViewEntry>) {
        let mut cand = std::mem::take(&mut self.start_buf);
        self.collect_startable(&b.q, &mut cand);
        out.clear();
        out.extend(cand.iter().map(|&t| {
            let (dlo, dhi) = b.durations(t);
            ViewEntry {
                ub: b.ub(t, (dlo, dhi)),
                t: t.0 as u32,
                gen: 0,
                dlo,
                dhi,
                basis: Basis::default(),
            }
        }));
        self.start_buf = cand;
        restore_sort(out);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use crate::pool::plan_objective;
    use lagrange::weights::Weights;
    use proptest::prelude::*;

    /// A view re-armed while the log's head is stale re-walks from the
    /// low-water mark, and admits exactly what the walk from
    /// index 0 admits.
    #[test]
    fn a_rearmed_view_rewalks_from_the_low_water_mark() {
        const N: usize = 4;
        let sc = scenario(32);
        let horizon_end = Time::ZERO + H;
        let (m0, m1, m2) = (MachineId(0), MachineId(1), MachineId(2));
        // Machine 0's view consumes the whole log (every root), then the
        // log's first N tasks are committed elsewhere: a stale head.
        let stale_head = |state: &mut SimState<'_>, fr: &mut Frontier| {
            assert!(ask(fr, state, m0, Time::ZERO, horizon_end).is_some());
            let head: Vec<TaskId> = fr.slog[..N].iter().map(|&(t, _)| t).collect();
            for t in head {
                commit_on(fr, state, t, Version::Secondary, m1, Time::ZERO);
            }
            assert_eq!(fr.slog_low, 0, "nothing has re-walked the log yet");
        };
        // What a gate-row flush does to a machine's view.
        let rearm = |fr: &mut Frontier, j: MachineId| {
            fr.views[j.0].retire(&mut fr.view_entries, false);
            fr.idle[j.0] = None;
        };
        let members = |fr: &Frontier| {
            let v = &fr.views[0];
            let mut alive: Vec<(u32, u32)> = v.entries.iter().map(|e| (e.t, e.gen)).collect();
            alive.sort_unstable();
            let mut deferred: Vec<_> = v.deferred.iter().map(|r| r.0).collect();
            deferred.sort_unstable();
            (alive, deferred, v.log_cursor)
        };

        // The reference: machine 0's re-armed view walks from index 0.
        let mut state_a = SimState::new(&sc);
        let mut a = Frontier::new(&state_a);
        stale_head(&mut state_a, &mut a);
        rearm(&mut a, m0);
        let from_zero = ask(&mut a, &state_a, m0, Time::ZERO, horizon_end);
        assert_eq!(a.slog_low, N, "the walk itself found the stale head");

        // Same history, but machine 2's first walk has raised the mark
        // by the time machine 0's view is re-armed.
        let mut state_b = SimState::new(&sc);
        let mut b = Frontier::new(&state_b);
        stale_head(&mut state_b, &mut b);
        let pool = pool_answer(&state_b, m2, Time::ZERO, horizon_end);
        assert_eq!(ask(&mut b, &state_b, m2, Time::ZERO, horizon_end), pool);
        assert_eq!(b.slog_low, N);
        rearm(&mut b, m0);
        let from_mark = ask(&mut b, &state_b, m0, Time::ZERO, horizon_end);
        assert_eq!(from_mark, from_zero);
        assert_eq!(
            from_mark,
            pool_answer(&state_b, m0, Time::ZERO, horizon_end)
        );
        assert_eq!(members(&b), members(&a));
        assert!(from_mark.is_some() && !members(&b).0.is_empty());

        // An epoch bump clears the log, and the mark with it.
        b.forget_occupation();
        b.sync_list(&state_b, horizon_end);
        assert_eq!(b.slog_low, 0);
        assert!(b.slog.iter().all(|&(t, g)| b.is_current(&state_b, t, g)));
    }

    /// A view entry for the order tests: distinct tasks come from
    /// distinct `i`, in scrambled order.
    fn entry(ub: u8, i: usize) -> ViewEntry {
        let t = (i * 37 % 64) as u32;
        let (dlo, dhi) = (u64::from(t), u64::from(t) + 1);
        ViewEntry {
            ub: f64::from(ub) * 0.25,
            t,
            gen: t % 3,
            dlo,
            dhi,
            basis: Basis::default(),
        }
    }

    /// Every field of an entry, bit for bit.
    fn fields(entries: &[ViewEntry]) -> Vec<[u64; 9]> {
        entries
            .iter()
            .map(|e| {
                let b = e.basis;
                let (t, gen, t100) = (e.t.into(), e.gen.into(), b.t100.into());
                [
                    e.ub.to_bits(),
                    t,
                    gen,
                    e.dlo,
                    e.dhi,
                    t100,
                    b.tec.to_bits(),
                    b.aet,
                    b.h,
                ]
            })
            .collect()
    }

    /// The procedure [`View::settle`] replaced, kept as its oracle:
    /// write every lazy value back, retain the survivors (deferring or
    /// dropping the removed), then sort the whole order again.
    fn settle_by_full_sort(
        v: &mut View,
        wb: &[(u32, f64)],
        removals: &[(u32, Option<Time>)],
        basis: Basis,
    ) -> usize {
        for &(i, ub) in wb {
            let e = &mut v.entries[i as usize];
            e.ub = ub;
            e.basis = basis;
        }
        let (mut i, mut next, mut dropped) = (0, 0, 0);
        let View {
            entries, deferred, ..
        } = v;
        entries.retain(|e| {
            let removed = removals.get(next).is_some_and(|r| r.0 == i);
            if removed {
                match removals[next].1 {
                    Some(f) => deferred.push(Reverse((f, e.t, e.gen))),
                    None => dropped += 1,
                }
                next += 1;
            }
            i += 1;
            !removed
        });
        entries.sort_unstable_by(view_order);
        dropped
    }

    proptest! {
        /// The view's repair is the sort it replaces: a sorted order plus
        /// any batch of moved entries, merged, is the whole sorted — with
        /// equal ubs on distinct tasks, an empty order or batch, and a
        /// batch that lands entirely before or entirely after the order.
        #[test]
        fn merging_moved_entries_is_sorting_the_view(
            ubs in prop::collection::vec(0u8..6, 0..48),
            cut in any::<usize>(),
            placement in 0usize..3,
        ) {
            let entries: Vec<ViewEntry> =
                ubs.iter().enumerate().map(|(i, &ub)| entry(ub, i)).collect();
            let n = entries.len();
            for split in [0, cut % (n + 1), n] {
                // Interleaved with the order, all ahead of it, all behind it.
                let tail: Vec<_> = entries[split..]
                    .iter()
                    .map(|&e| ViewEntry { ub: e.ub + [0.0, 10.0, -10.0][placement], ..e })
                    .collect();
                let (merged, sorted) = merged_and_sorted(&entries[..split], &tail, view_order);
                prop_assert_eq!(fields(&merged), fields(&sorted));
            }
        }

        /// `View::settle` lifts the written-back survivors out in its
        /// compaction pass and merges them back in; that gives the alive
        /// order, deferred heap and drop count of writing back, retaining
        /// and re-sorting — with write-backs and removals interleaved and
        /// entries that are both written back and removed.
        #[test]
        fn settling_by_merge_is_settling_by_full_sort(
            ubs in prop::collection::vec(0u8..6, 0..48),
            fates in prop::collection::vec((0u8..6, 0u8..6), 48),
        ) {
            let mut v = View {
                entries: ubs.iter().enumerate().map(|(i, &ub)| entry(ub, i)).collect(),
                ..View::default()
            };
            v.entries.sort_unstable_by(view_order);
            v.deferred.push(Reverse((Time(25), 99, 0)));
            let basis = Basis { tec: 1.5, aet: 40, h: 90, t100: 7 };
            // Per scanned index: 0 untouched, 1 written back, 2 dropped,
            // 3 deferred, 4 written back then dropped, 5 written back
            // then deferred.
            let (mut wb, mut removals) = (Vec::new(), Vec::new());
            for (i, &(fate, k)) in fates.iter().take(v.entries.len()).enumerate() {
                let i = i as u32;
                if matches!(fate, 1 | 4 | 5) {
                    wb.push((i, f64::from(k) * 0.25));
                }
                match fate {
                    2 | 4 => removals.push((i, None)),
                    3 | 5 => removals.push((i, Some(Time(u64::from(k) * 10)))),
                    _ => {}
                }
            }
            let mut oracle = View {
                entries: v.entries.clone(),
                deferred: v.deferred.clone(),
                ..View::default()
            };
            let expected = settle_by_full_sort(&mut oracle, &wb, &removals, basis);
            let mut moved = Vec::new();
            prop_assert_eq!(v.settle(&wb, &removals, basis, &mut moved), expected);
            prop_assert!(moved.is_empty());
            prop_assert_eq!(fields(&v.entries), fields(&oracle.entries));
            prop_assert_eq!(v.deferred.into_sorted_vec(), oracle.deferred.into_sorted_vec());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The single bound function dominates the planner's objective
        /// for every gate-passing candidate and every version the scan
        /// may choose, under both `AET` signs — on mid-run states, where
        /// `T100`, `TEC`, `AET` and the machines' queues are all
        /// non-trivial. (Under the positive sign the bound assumes the
        /// latest admissible start, so only plans that start inside the
        /// horizon are covered — the scan rejects the others before
        /// comparing.)
        #[test]
        fn the_bound_dominates_every_plan_it_stands_for(
            dag_id in 0usize..4,
            commits in 0usize..24,
            alpha in 2u32..=8,
            now in 0u64..400,
            horizon in 1u64..2000,
        ) {
            let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, dag_id);
            let mut state = SimState::new(&sc);
            let mut fr = Frontier::new(&state);
            for step in 0..commits {
                let Some(&t) = state.ready_tasks().first() else { break };
                let j = MachineId(step % sc.grid.len());
                let v = if step % 3 == 0 { Version::Primary } else { Version::Secondary };
                if state.version_feasible(t, v, j) {
                    commit_on(&mut fr, &mut state, t, v, j, Time::ZERO);
                }
            }
            let weights = Weights::new(f64::from(alpha) * 0.1, 0.1).unwrap();
            let (now, horizon_end) = (Time(now), Time(now + horizon));
            let placement = Placement::Append { not_before: now };
            for aet_sign in [AetSign::Positive, AetSign::Negative] {
                let objective = Objective { weights, aet_sign };
                for j in sc.grid.ids() {
                    let q = fr.open_query(&state, &objective, j, now, horizon_end);
                    let b = Bound::new(&q);
                    for &t in state.ready_tasks() {
                        if !state.version_feasible(t, GATE_VERSION, j) {
                            continue;
                        }
                        for v in [Version::Primary, Version::Secondary] {
                            let plan = state.plan(t, v, j, placement);
                            if aet_sign == AetSign::Positive && plan.start > horizon_end {
                                continue;
                            }
                            let obj = plan_objective(&state, &objective, &plan);
                            let ub = b.ub(t, b.durations(t));
                            prop_assert!(
                                ub >= obj,
                                "ub {} < objective {} for {} {:?} on {} ({:?})",
                                ub, obj, t, v, j, aet_sign
                            );
                        }
                    }
                }
            }
        }
    }
}
