//! Execution traces: the §IV "historical record of all critical
//! parameters", derived from a finished schedule.
//!
//! The paper's SLRH "stored a historical record of all critical
//! parameters for later analysis" at every mapping. Since the simulation
//! is deterministic, that record is fully reconstructible from the final
//! [`Schedule`]; deriving it afterwards keeps the mapper's hot loop free
//! of instrumentation (the paper measured 15–20 % of its Python runtime
//! going to exactly this bookkeeping).
//!
//! A [`Trace`] provides:
//!
//! * the time-ordered [`TraceEvent`] stream (execution and transfer
//!   starts/ends),
//! * per-machine battery level series (energy remaining after each
//!   drain), and
//! * per-machine busy/utilisation summaries and an ASCII Gantt chart.

use adhoc_grid::config::{GridConfig, MachineId};
use adhoc_grid::task::TaskId;
use adhoc_grid::units::{Dur, Energy, Time};

use crate::schedule::Schedule;
use crate::state::SimState;

/// What happened at one instant on one machine.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A subtask began executing.
    ExecStart {
        /// The subtask.
        task: TaskId,
        /// Where it runs.
        machine: MachineId,
    },
    /// A subtask finished executing (its energy is drained here).
    ExecEnd {
        /// The subtask.
        task: TaskId,
        /// Where it ran.
        machine: MachineId,
        /// Execution energy drained from the machine.
        energy: Energy,
    },
    /// A data transfer began.
    TransferStart {
        /// Producing subtask.
        parent: TaskId,
        /// Consuming subtask.
        child: TaskId,
        /// Sending machine.
        from: MachineId,
        /// Receiving machine.
        to: MachineId,
    },
    /// A data transfer completed (the sender's energy is drained here).
    TransferEnd {
        /// Producing subtask.
        parent: TaskId,
        /// Consuming subtask.
        child: TaskId,
        /// Sending machine (pays `energy`).
        from: MachineId,
        /// Transmission energy drained from the sender.
        energy: Energy,
    },
}

/// Per-machine summary over the whole run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MachineSummary {
    /// The machine.
    pub machine: MachineId,
    /// Subtasks executed.
    pub tasks: usize,
    /// Total compute-busy span.
    pub busy: Dur,
    /// Fraction of `[0, AET)` spent computing.
    pub utilization: f64,
    /// Total energy drained (execution + transmissions).
    pub energy_used: Energy,
    /// Battery remaining at the end.
    pub energy_left: Energy,
}

/// A reconstructed execution history.
#[derive(Clone, Debug)]
pub struct Trace {
    events: Vec<(Time, TraceEvent)>,
    summaries: Vec<MachineSummary>,
    aet: Time,
}

impl Trace {
    /// Derive the trace of a finished state.
    ///
    /// ```
    /// use adhoc_grid::workload::{Scenario, ScenarioParams};
    /// use adhoc_grid::config::{GridCase, MachineId};
    /// use adhoc_grid::task::Version;
    /// use adhoc_grid::units::Time;
    /// use gridsim::plan::Placement;
    /// use gridsim::state::SimState;
    /// use gridsim::trace::Trace;
    ///
    /// let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
    /// let mut st = SimState::new(&sc);
    /// while let Some(&t) = st.ready_tasks().first() {
    ///     let plan = st.plan(t, Version::Secondary, MachineId(0),
    ///                        Placement::Append { not_before: Time::ZERO });
    ///     st.commit(&plan);
    /// }
    /// let trace = Trace::from_state(&st);
    /// assert_eq!(trace.machine_summaries()[0].tasks, 8);
    /// ```
    pub fn from_state(state: &SimState<'_>) -> Trace {
        Trace::from_schedule(state.schedule(), &state.scenario().grid)
    }

    /// Derive the trace of a schedule on a grid.
    pub fn from_schedule(schedule: &Schedule, grid: &GridConfig) -> Trace {
        let mut events: Vec<(Time, TraceEvent)> = Vec::new();
        for a in schedule.assignments() {
            events.push((
                a.start,
                TraceEvent::ExecStart {
                    task: a.task,
                    machine: a.machine,
                },
            ));
            events.push((
                a.finish(),
                TraceEvent::ExecEnd {
                    task: a.task,
                    machine: a.machine,
                    energy: a.energy,
                },
            ));
        }
        for tr in schedule.transfers() {
            events.push((
                tr.start,
                TraceEvent::TransferStart {
                    parent: tr.parent,
                    child: tr.child,
                    from: tr.from,
                    to: tr.to,
                },
            ));
            events.push((
                tr.finish(),
                TraceEvent::TransferEnd {
                    parent: tr.parent,
                    child: tr.child,
                    from: tr.from,
                    energy: tr.energy,
                },
            ));
        }
        events.sort_by_key(|&(t, e)| (t, event_order(&e)));

        let aet = schedule.aet();
        let summaries = grid
            .ids()
            .map(|j| {
                let (tasks, busy, exec_energy) = schedule
                    .assignments()
                    .filter(|a| a.machine == j)
                    .fold((0usize, Dur::ZERO, Energy::ZERO), |(n, b, e), a| {
                        (n + 1, b + a.dur, e + a.energy)
                    });
                let tx_energy: Energy = schedule
                    .transfers()
                    .iter()
                    .filter(|t| t.from == j)
                    .map(|t| t.energy)
                    .sum();
                let used = exec_energy + tx_energy;
                MachineSummary {
                    machine: j,
                    tasks,
                    busy,
                    utilization: if aet == Time::ZERO {
                        0.0
                    } else {
                        busy.as_seconds() / aet.as_seconds()
                    },
                    energy_used: used,
                    energy_left: (grid.machine(j).battery - used).max(Energy::ZERO),
                }
            })
            .collect();

        Trace {
            events,
            summaries,
            aet,
        }
    }

    /// All events in time order (ends before starts at equal instants, so
    /// battery series are monotone between drains).
    pub fn events(&self) -> &[(Time, TraceEvent)] {
        &self.events
    }

    /// Per-machine summaries, in machine order.
    pub fn machine_summaries(&self) -> &[MachineSummary] {
        &self.summaries
    }

    /// The application execution time the trace covers.
    pub fn aet(&self) -> Time {
        self.aet
    }

    /// The battery-level series of machine `j`: `(time, remaining)` after
    /// each drain, starting from the full battery at time zero.
    pub fn battery_series(&self, j: MachineId, battery: Energy) -> Vec<(Time, Energy)> {
        let mut level = battery;
        let mut series = vec![(Time::ZERO, level)];
        for &(t, e) in &self.events {
            let drain = match e {
                TraceEvent::ExecEnd {
                    machine, energy, ..
                } if machine == j => energy,
                TraceEvent::TransferEnd { from, energy, .. } if from == j => energy,
                _ => continue,
            };
            level = (level - drain).max(Energy::ZERO);
            series.push((t, level));
        }
        series
    }

    /// An ASCII Gantt chart of compute occupation: one row per machine,
    /// `width` columns spanning `[0, AET)`. `#` = executing, `.` = idle.
    pub fn render_gantt(&self, schedule: &Schedule, width: usize) -> String {
        assert!(width > 0, "gantt width must be positive");
        let span = self.aet.0.max(1);
        let mut rows: Vec<Vec<u8>> = self.summaries.iter().map(|_| vec![b'.'; width]).collect();
        for a in schedule.assignments() {
            let row = &mut rows[a.machine.0];
            let lo = (a.start.0 as u128 * width as u128 / span as u128) as usize;
            let hi =
                ((a.finish().0 as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
            for c in row.iter_mut().take(hi).skip(lo) {
                *c = b'#';
            }
        }
        let mut out = String::new();
        for (s, row) in self.summaries.iter().zip(rows) {
            out.push_str(&format!(
                "{} |{}| {:>3.0}% busy, {} tasks\n",
                s.machine,
                String::from_utf8(row).expect("ascii"),
                s.utilization * 100.0,
                s.tasks
            ));
        }
        out
    }
}

/// Sort ends before starts at the same tick.
fn event_order(e: &TraceEvent) -> u8 {
    match e {
        TraceEvent::ExecEnd { .. } | TraceEvent::TransferEnd { .. } => 0,
        TraceEvent::ExecStart { .. } | TraceEvent::TransferStart { .. } => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Placement;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::task::Version;
    use adhoc_grid::workload::{Scenario, ScenarioParams};

    fn mapped_state(sc: &Scenario) -> SimState<'_> {
        let mut st = SimState::new(sc);
        let mut i = 0;
        while let Some(&t) = st.ready_tasks().first() {
            let j = MachineId(i % sc.grid.len());
            i += 1;
            if !st.version_feasible(t, Version::Secondary, j) {
                continue;
            }
            let plan = st.plan(
                t,
                Version::Secondary,
                j,
                Placement::Append {
                    not_before: Time::ZERO,
                },
            );
            st.commit(&plan);
        }
        st
    }

    #[test]
    fn events_are_time_ordered_and_paired() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let st = mapped_state(&sc);
        let trace = Trace::from_state(&st);
        let mut last = Time::ZERO;
        let mut starts = 0usize;
        let mut ends = 0usize;
        for &(t, e) in trace.events() {
            assert!(t >= last);
            last = t;
            match e {
                TraceEvent::ExecStart { .. } | TraceEvent::TransferStart { .. } => starts += 1,
                _ => ends += 1,
            }
        }
        assert_eq!(starts, ends, "every start has an end");
        assert_eq!(
            starts,
            st.schedule().mapped_count() + st.schedule().transfers().len()
        );
    }

    #[test]
    fn summaries_match_ledger() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let st = mapped_state(&sc);
        let trace = Trace::from_state(&st);
        for s in trace.machine_summaries() {
            let committed = st.ledger().committed(s.machine);
            assert!(
                s.energy_used.approx_eq(committed, 1e-6),
                "{}: trace {} vs ledger {committed}",
                s.machine,
                s.energy_used
            );
            assert!(s.utilization >= 0.0 && s.utilization <= 1.0 + 1e-9);
        }
        let total_tasks: usize = trace.machine_summaries().iter().map(|s| s.tasks).sum();
        assert_eq!(total_tasks, st.mapped_count());
    }

    #[test]
    fn battery_series_is_monotone_and_lands_on_ledger() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(24), GridCase::A, 0, 0);
        let st = mapped_state(&sc);
        let trace = Trace::from_state(&st);
        for j in sc.grid.ids() {
            let series = trace.battery_series(j, sc.grid.machine(j).battery);
            for w in series.windows(2) {
                assert!(w[1].1 .0 <= w[0].1 .0 + 1e-12, "battery went up on {j}");
            }
            let final_level = series.last().unwrap().1;
            let expect = sc.grid.machine(j).battery - st.ledger().committed(j);
            assert!(final_level.approx_eq(expect, 1e-6));
        }
    }

    #[test]
    fn gantt_rendering_shape() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
        let st = mapped_state(&sc);
        let trace = Trace::from_state(&st);
        let g = trace.render_gantt(st.schedule(), 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), sc.grid.len());
        for line in lines {
            assert!(line.contains('|'));
            assert!(line.contains('#'), "every machine got work in round-robin");
        }
    }

    #[test]
    fn empty_schedule_traces_cleanly() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(8), GridCase::A, 0, 0);
        let st = SimState::new(&sc);
        let trace = Trace::from_state(&st);
        assert!(trace.events().is_empty());
        assert_eq!(trace.aet(), Time::ZERO);
        for s in trace.machine_summaries() {
            assert_eq!(s.tasks, 0);
            assert_eq!(s.utilization, 0.0);
        }
    }
}
