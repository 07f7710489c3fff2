//! A scenario's static §IV tables: what every run of one scenario reads
//! and none writes.
//!
//! The per-edge worst-case transfer durations and the feasibility-demand
//! table depend on the scenario alone (ETC entries, data sizes, machine
//! powers, the grid's lowest bandwidth), never on the clock, the
//! timelines or the ledger. A single run builds its [`ScenarioTables`]
//! inline on its recycled buffers ([`crate::state::SimState::new_in`]);
//! a driver that maps one scenario many times — the Figure 3 weight
//! search — builds them once and lends them to every run
//! ([`crate::state::SimState::with_tables`]). The tables borrow their
//! scenario, so a lent table can only ever describe the scenario it was
//! built from.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Energy};
use adhoc_grid::workload::Scenario;

/// Cap on the precomputed feasibility-demand table, in entries
/// (`tasks × machines × 2`). Paper-scale scenarios (1024 × 10) sit four
/// orders of magnitude below it and always get the table; at the scale
/// kernel's target sizes (100k tasks × 1000 machines) the table would be
/// 1.6 GB and its precompute pass would dominate run setup, while the
/// frontier's rejection bits only ever gate a small slice of it — above
/// the cap [`ScenarioTables::feasibility_demand`] evaluates the same
/// expression lazily, bit-identically. The cap keeps paper-scale runs
/// (1024 × 10, 20 480 entries) on the table while every scale-kernel
/// size — where the precompute pass is a triple-digit-millisecond fixed
/// cost that the frontier's sparse gating never amortises — takes the
/// lazy path. Both paths read the per-edge
/// duration table ([`ScenarioTables::out_durs`]), which every scenario
/// gets: it is `2 × edges` entries whatever the grid size.
const DEMAND_TABLE_MAX: usize = 1 << 20;

/// The static §IV tables of one scenario. Immutable once built.
#[derive(Clone, Debug)]
pub struct ScenarioTables<'a> {
    sc: &'a Scenario,
    /// Precomputed §IV feasibility demand, indexed
    /// `(t * machines + j) * 2 + version`: execution energy plus the
    /// worst-case outgoing-communication energy for mapping `(t, v)` on
    /// `j`, so the §IV gate is one lookup and one ledger compare. The
    /// clock loop evaluates that gate for every ready task on every
    /// machine on every tick, which made the recomputation the single
    /// hottest path in the SLRH kernel. **Empty** (no table) for
    /// scenarios above [`DEMAND_TABLE_MAX`] entries; queries then
    /// evaluate the same expression lazily via
    /// [`ScenarioTables::demand_of`].
    demand: Vec<Energy>,
    /// The §IV worst-case transfer duration of every DAG edge, indexed
    /// `edge_id * 2 + version` (versions alternating fastest):
    /// `Dur::from_seconds_ceil(size.scaled(v).transfer_seconds(min_bw))`,
    /// the item shipped across the grid's slowest link. This build is the
    /// one place `min_bandwidth_mbps` and the §IV ceil are evaluated: the
    /// demand table (or the lazy demand above the cap), the plan's
    /// per-child reservations and `unmap`'s re-reservations all apply the
    /// per-machine `transmit_energy` to these durations in child order.
    out_durs: Vec<Dur>,
    /// Per-`(task, version)` upper bound on the §IV demand across every
    /// machine (`demand_ub[t * 2 + version] ≥ demand_of(t, v, j)` for
    /// all `j`), built for above-cap scenarios only. The §IV gate
    /// compares it against the afford limit first: a bound under the
    /// limit proves feasibility without evaluating the per-machine
    /// demand — the common case on grids whose batteries are far from
    /// exhaustion. The bound is the sum of the machine-wise maxima of
    /// the two demand summands; `f64` addition and `max` are monotone,
    /// so `bound ≤ limit` implies `demand ≤ limit` exactly and the
    /// gate's accept/reject set is unchanged bit for bit.
    demand_ub: Vec<Energy>,
}

/// The storage behind a [`ScenarioTables`], detached from any scenario:
/// capacity only, never content.
#[derive(Clone, Debug, Default)]
pub(crate) struct TableBuffers {
    demand: Vec<Energy>,
    out_durs: Vec<Dur>,
    demand_ub: Vec<Energy>,
}

impl<'a> ScenarioTables<'a> {
    /// Build `sc`'s tables.
    pub fn new(sc: &'a Scenario) -> ScenarioTables<'a> {
        ScenarioTables::build(sc, TableBuffers::default())
    }

    /// Build `sc`'s tables on donated storage: every entry is derived
    /// afresh, only the heap capacity is reused.
    pub(crate) fn build(sc: &'a Scenario, buffers: TableBuffers) -> ScenarioTables<'a> {
        let n = sc.tasks();
        let m = sc.grid.len();
        let TableBuffers {
            mut demand,
            mut out_durs,
            mut demand_ub,
        } = buffers;
        demand.clear();
        demand_ub.clear();
        let min_bw = sc.grid.min_bandwidth_mbps();
        out_durs.clear();
        out_durs.extend((0..sc.dag.edge_count()).flat_map(|e| {
            let size = sc.data.by_id(e);
            Version::BOTH.map(|v| {
                Dur::from_seconds_ceil(size.scaled(v.data_factor()).transfer_seconds(min_bw))
            })
        }));
        let mut tables = ScenarioTables {
            sc,
            demand: Vec::new(),
            out_durs,
            demand_ub: Vec::new(),
        };
        if n * m * 2 <= DEMAND_TABLE_MAX {
            demand.reserve(n * m * 2);
            for t in sc.dag.tasks() {
                for j in sc.grid.ids() {
                    for v in Version::BOTH {
                        demand.push(tables.demand_of(t, v, j));
                    }
                }
            }
            tables.demand = demand;
        } else {
            tables.fill_demand_ub(&mut demand_ub);
            tables.demand_ub = demand_ub;
        }
        tables
    }

    /// The grid-wide demand bound per (task, version), into `out` (see
    /// the field docs). `transmit_energy` is linear in the machine's
    /// communication power, so the shipment summand is maximised by the
    /// highest-power machine applied to the same durations. The
    /// execution summand is maximised per compute power: machines of
    /// one power price their longest execution dearest, since the tick
    /// ceil and multiplication by a positive power are both monotone, so
    /// each power group is priced once, at its longest ETC entry.
    fn fill_demand_ub(&self, out: &mut Vec<Energy>) {
        let sc = self.sc;
        let worst_comm = sc
            .grid
            .ids()
            .max_by(|&a, &b| {
                let ea = sc.grid.machine(a).transmit_energy(Dur(1)).units();
                let eb = sc.grid.machine(b).transmit_energy(Dur(1)).units();
                ea.partial_cmp(&eb).expect("powers are finite")
            })
            .expect("grids are non-empty");
        let worst_spec = sc.grid.machine(worst_comm);
        // Each machine's power group, by first appearance.
        let mut powers: Vec<f64> = Vec::new();
        let group: Vec<usize> = sc
            .grid
            .iter()
            .map(|(_, spec)| {
                powers
                    .iter()
                    .position(|&p| p == spec.compute_power)
                    .unwrap_or_else(|| {
                        powers.push(spec.compute_power);
                        powers.len() - 1
                    })
            })
            .collect();
        let mut longest: Vec<Option<MachineId>> = vec![None; powers.len()];
        out.reserve(sc.tasks() * 2);
        for t in sc.dag.tasks() {
            longest.fill(None);
            for (j, &g) in sc.grid.ids().zip(&group) {
                let secs = sc.etc.seconds(t, j);
                if longest[g].is_none_or(|k| sc.etc.seconds(t, k) < secs) {
                    longest[g] = Some(j);
                }
            }
            for v in Version::BOTH {
                let exec_max = longest
                    .iter()
                    .flatten()
                    .map(|&j| self.exec_energy(t, v, j).units())
                    .fold(0.0f64, f64::max);
                let ship_max: Energy = sc
                    .dag
                    .out_edges(t)
                    .iter()
                    .map(|&e| worst_spec.transmit_energy(self.worst_dur(e as usize, v)))
                    .sum();
                out.push(Energy(exec_max) + ship_max);
            }
        }
    }

    /// Detach the storage for a later [`ScenarioTables::build`].
    pub(crate) fn into_buffers(self) -> TableBuffers {
        TableBuffers {
            demand: self.demand,
            out_durs: self.out_durs,
            demand_ub: self.demand_ub,
        }
    }

    /// The scenario the tables describe.
    #[inline]
    pub fn scenario(&self) -> &'a Scenario {
        self.sc
    }

    /// Index into [`ScenarioTables::demand`]: versions alternate fastest.
    #[inline]
    fn demand_idx(&self, t: TaskId, v: Version, j: MachineId) -> usize {
        (t.0 * self.sc.grid.len() + j.0) * 2 + usize::from(!v.is_primary())
    }

    /// The §IV demand expression: execution plus worst-case shipment of
    /// every output item, summed in child order (as the plan itemises
    /// it). This is the **single definition** both the precomputed table
    /// and the above-cap lazy path evaluate, which is what makes the two
    /// serving modes bit-identical.
    fn demand_of(&self, t: TaskId, v: Version, j: MachineId) -> Energy {
        let out: Energy = self.child_reservations(t, v, j).map(|(_, e)| e).sum();
        self.exec_energy(t, v, j) + out
    }

    /// Energy execution of `(t, v)` on `j` would commit.
    fn exec_energy(&self, t: TaskId, v: Version, j: MachineId) -> Energy {
        self.sc
            .grid
            .machine(j)
            .compute_energy(self.sc.etc.exec_dur(t, j, v))
    }

    /// The §IV worst-case duration of shipping edge `e`'s item, produced
    /// at version `v`, across the grid's slowest link (see
    /// [`ScenarioTables::out_durs`]).
    #[inline]
    pub(crate) fn worst_dur(&self, e: usize, v: Version) -> Dur {
        self.out_durs[e * 2 + usize::from(!v.is_primary())]
    }

    /// Worst-case per-child outgoing reservations for `(t, v)` on `j`,
    /// in child order — the §IV conservative bound used both for
    /// planning and for feasibility: `j`'s transmit energy over each
    /// out-edge's worst-case duration.
    pub(crate) fn child_reservations(
        &self,
        t: TaskId,
        v: Version,
        j: MachineId,
    ) -> impl Iterator<Item = (TaskId, Energy)> + '_ {
        let dag = &self.sc.dag;
        let spec = self.sc.grid.machine(j);
        dag.children(t)
            .iter()
            .zip(dag.out_edges(t))
            .map(move |(&c, &e)| (c, spec.transmit_energy(self.worst_dur(e as usize, v))))
    }

    /// The total energy mapping `(t, v)` on `j` must be able to afford:
    /// execution plus the §IV worst-case shipment of every output item.
    /// Served from the table when one was built, and evaluated lazily
    /// (same expression, bit-identical values) above the table-size cap.
    #[inline]
    pub(crate) fn feasibility_demand(&self, t: TaskId, v: Version, j: MachineId) -> Energy {
        if self.demand.is_empty() {
            return self.demand_of(t, v, j);
        }
        self.demand[self.demand_idx(t, v, j)]
    }

    /// The §IV demand-vs-`limit` predicate for one candidate. Table-backed
    /// it is one strided lookup and one compare; above the table cap the
    /// grid-wide per-(task, version) bound settles most candidates with
    /// one compare and the exact per-machine demand is only evaluated
    /// when the bound is inconclusive — same accept set either way,
    /// since the bound dominates the demand (see
    /// [`ScenarioTables::demand_ub`]).
    #[inline]
    pub(crate) fn gate_feasible(&self, t: TaskId, v: Version, j: MachineId, limit: f64) -> bool {
        if self.demand.is_empty() {
            return self.demand_ub[t.0 * 2 + usize::from(!v.is_primary())].units() <= limit
                || self.demand_of(t, v, j).units() <= limit;
        }
        self.demand[self.demand_idx(t, v, j)].units() <= limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::scale::ScaleParams;
    use adhoc_grid::workload::ScenarioParams;

    /// The tables as every run built them before they could be shared,
    /// with the per-machine execution fold: the oracle the shared build
    /// must equal bit for bit. Returns `(demand, out_durs, demand_ub)`.
    fn per_run_tables(sc: &Scenario) -> (Vec<u64>, Vec<Dur>, Vec<u64>) {
        let (n, m) = (sc.tasks(), sc.grid.len());
        let min_bw = sc.grid.min_bandwidth_mbps();
        let out_durs: Vec<Dur> = (0..sc.dag.edge_count())
            .flat_map(|e| {
                let size = sc.data.by_id(e);
                Version::BOTH.map(|v| {
                    Dur::from_seconds_ceil(size.scaled(v.data_factor()).transfer_seconds(min_bw))
                })
            })
            .collect();
        let worst = |e: u32, v: Version| out_durs[e as usize * 2 + usize::from(!v.is_primary())];
        let exec = |t, v, j| {
            sc.grid
                .machine(j)
                .compute_energy(sc.etc.exec_dur(t, j, v))
                .units()
        };
        let (mut demand, mut demand_ub) = (Vec::new(), Vec::new());
        if n * m * 2 <= DEMAND_TABLE_MAX {
            for t in sc.dag.tasks() {
                for j in sc.grid.ids() {
                    for v in Version::BOTH {
                        let spec = sc.grid.machine(j);
                        let out: Energy = sc
                            .dag
                            .out_edges(t)
                            .iter()
                            .map(|&e| spec.transmit_energy(worst(e, v)))
                            .sum();
                        demand.push((Energy(exec(t, v, j)) + out).units().to_bits());
                    }
                }
            }
        } else {
            let worst_spec = sc
                .grid
                .ids()
                .map(|j| sc.grid.machine(j))
                .max_by(|a, b| {
                    let ea = a.transmit_energy(Dur(1)).units();
                    let eb = b.transmit_energy(Dur(1)).units();
                    ea.partial_cmp(&eb).unwrap()
                })
                .unwrap();
            for t in sc.dag.tasks() {
                for v in Version::BOTH {
                    let exec_max = sc.grid.ids().map(|j| exec(t, v, j)).fold(0.0f64, f64::max);
                    let ship_max: Energy = sc
                        .dag
                        .out_edges(t)
                        .iter()
                        .map(|&e| worst_spec.transmit_energy(worst(e, v)))
                        .sum();
                    demand_ub.push((Energy(exec_max) + ship_max).units().to_bits());
                }
            }
        }
        (demand, out_durs, demand_ub)
    }

    fn bits(v: &[Energy]) -> Vec<u64> {
        v.iter().map(|e| e.units().to_bits()).collect()
    }

    fn assert_matches_per_run_build(sc: &Scenario, what: &str) {
        let tables = ScenarioTables::new(sc);
        let (demand, out_durs, demand_ub) = per_run_tables(sc);
        assert_eq!(tables.out_durs, out_durs, "{what}: out_durs");
        assert_eq!(bits(&tables.demand), demand, "{what}: demand");
        assert_eq!(bits(&tables.demand_ub), demand_ub, "{what}: demand_ub");
    }

    #[test]
    fn shared_tables_equal_the_per_run_build() {
        for case in GridCase::ALL {
            for (tasks, e, d) in [(32, 0, 0), (256, 1, 1), (1024, 0, 1)] {
                let sc = Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, e, d);
                assert!(sc.tasks() * sc.grid.len() * 2 <= DEMAND_TABLE_MAX);
                assert_matches_per_run_build(&sc, &format!("{case:?} {tasks}"));
            }
        }
    }

    #[test]
    fn above_the_cap_the_bound_equals_the_per_machine_fold() {
        let sc = ScaleParams::new(4096, 160).generate(0, 0);
        assert!(sc.tasks() * sc.grid.len() * 2 > DEMAND_TABLE_MAX);
        let tables = ScenarioTables::new(&sc);
        assert!(tables.demand.is_empty());
        assert_eq!(tables.demand_ub.len(), sc.tasks() * 2);
        assert_matches_per_run_build(&sc, "4096 x 160");
    }

    #[test]
    fn demand_table_matches_the_lazy_expression_bitwise() {
        // The table and the above-cap lazy path must serve the same
        // bits: both are defined by `demand_of`, and this pins the table
        // entries to one fresh evaluation of that expression.
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::A, 0, 0);
        let tables = ScenarioTables::new(&sc);
        for t in sc.dag.tasks() {
            for j in sc.grid.ids() {
                for v in Version::BOTH {
                    assert_eq!(
                        tables.feasibility_demand(t, v, j).units().to_bits(),
                        tables.demand_of(t, v, j).units().to_bits(),
                        "table and expression disagree at ({t}, {v:?}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn recycled_storage_builds_the_same_tables() {
        let big = Scenario::generate(&ScenarioParams::paper_scaled(64), GridCase::A, 1, 1);
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(32), GridCase::B, 0, 0);
        let reused = ScenarioTables::build(&sc, ScenarioTables::new(&big).into_buffers());
        let fresh = ScenarioTables::new(&sc);
        assert_eq!(reused.out_durs, fresh.out_durs);
        assert_eq!(bits(&reused.demand), bits(&fresh.demand));
        assert!(reused.demand_ub.is_empty());
    }
}
