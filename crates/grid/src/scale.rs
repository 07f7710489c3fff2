//! Large-scale scenario construction — beyond the paper's 4-machine cases.
//!
//! The paper's suite tops out at |T| = 1024 subtasks on 4 machines. The
//! scale experiments (see `DESIGN.md` §16) push the same generators to
//! 100k subtasks and 1000 machines while keeping the *per-machine* regime
//! paper-shaped:
//!
//! * the ETC matrix uses the paper's CVB generator over an arbitrary
//!   fast/slow machine mix;
//! * the DAG keeps the layered [ShC04] family but widens layers with the
//!   task count, so the ready set is large enough to feed every machine
//!   (the paper's 16–48-wide layers would starve a 256-machine grid);
//! * τ scales with |T| exactly as [`ScenarioParams::paper_scaled`] does;
//! * batteries scale by `(|T| / 1024) · (4 / |M|)`, holding the
//!   energy-per-subtask-per-machine ratio of the full-scale paper run, so
//!   the §IV feasibility gate stays as binding as in the original suite.
//!
//! The resulting [`Scenario`] is an ordinary scenario — every consumer
//! (simulator, SLRH, validation) works unchanged — labelled with a
//! nominal [`GridCase::A`] (the `case` field is display metadata only).

use crate::config::{GridCase, GridConfig};
use crate::dag_gen::{self, DagGenParams};
use crate::data::{DataGenParams, DataSizes};
use crate::etc_gen::{self, EtcGenParams};
use crate::machine::{paper_constants, MachineClass};
use crate::seed::{self, stream};
use crate::units::Time;
use crate::workload::Scenario;

/// Parameters of a large-scale scenario.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ScaleParams {
    /// Number of subtasks `|T|`.
    pub tasks: usize,
    /// Fast machines in the grid (machines `0..fast`).
    pub fast: usize,
    /// Slow machines in the grid (machines `fast..fast+slow`).
    pub slow: usize,
    /// Master seed of the suite (defaults to [`seed::MASTER_SEED`]).
    pub master_seed: u64,
}

impl ScaleParams {
    /// A paper-regime scale point: `tasks` subtasks on a half-fast,
    /// half-slow grid of `machines` machines (fast gets the odd one).
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn new(tasks: usize, machines: usize) -> ScaleParams {
        assert!(tasks > 0, "need at least one subtask");
        assert!(machines > 0, "need at least one machine");
        ScaleParams {
            tasks,
            fast: machines - machines / 2,
            slow: machines / 2,
            master_seed: seed::MASTER_SEED,
        }
    }

    /// Replace the master seed (for independent replications).
    pub fn with_seed(mut self, master_seed: u64) -> ScaleParams {
        self.master_seed = master_seed;
        self
    }

    /// Total machine count `|M|`.
    pub fn machines(&self) -> usize {
        self.fast + self.slow
    }

    /// The deadline: the paper's τ scaled by `|T| / 1024`, as in
    /// [`ScenarioParams::paper_scaled`].
    ///
    /// [`ScenarioParams::paper_scaled`]: crate::workload::ScenarioParams::paper_scaled
    pub fn tau(&self) -> Time {
        let factor = self.tasks as f64 / paper_constants::NUM_SUBTASKS as f64;
        Time::from_seconds((paper_constants::TAU_SECONDS as f64 * factor).ceil() as u64)
    }

    /// Battery scale holding the paper's energy-per-subtask-per-machine
    /// regime: `(|T| / 1024) · (4 / |M|)`.
    pub fn battery_scale(&self) -> f64 {
        (self.tasks as f64 / paper_constants::NUM_SUBTASKS as f64) * (4.0 / self.machines() as f64)
    }

    /// DAG generator parameters: the paper's layered family with layer
    /// widths that grow with |T| (clamped to `48..=4096`) so large grids
    /// see a ready set wide enough to keep every machine busy.
    pub fn dag_params(&self) -> DagGenParams {
        let base = DagGenParams::paper(self.tasks);
        let max_width = (self.tasks / 16).clamp(base.max_width, 4096);
        let min_width = (max_width / 3).max(base.min_width);
        DagGenParams {
            max_width,
            min_width,
            ..base
        }
    }

    /// Generate the scenario for `(etc_id, dag_id)`.
    ///
    /// Seed derivation mirrors [`Scenario::generate`]: the DAG and data
    /// sizes depend only on `dag_id`, the ETC matrix only on `etc_id`.
    pub fn generate(&self, etc_id: usize, dag_id: usize) -> Scenario {
        let etc_seed = seed::derive2(self.master_seed, stream::ETC, etc_id as u64);
        let dag_seed = seed::derive2(self.master_seed, stream::DAG, dag_id as u64);
        let data_seed = seed::derive2(self.master_seed, stream::DATA, dag_id as u64);

        let classes: Vec<MachineClass> = std::iter::repeat_n(MachineClass::Fast, self.fast)
            .chain(std::iter::repeat_n(MachineClass::Slow, self.slow))
            .collect();
        let etc = etc_gen::generate(&EtcGenParams::paper(self.tasks), &classes, etc_seed);
        let dag = dag_gen::generate(&self.dag_params(), dag_seed);
        let data = DataSizes::generate(&dag, &DataGenParams::paper(), data_seed);
        Scenario {
            case: GridCase::A,
            grid: GridConfig::with_counts(self.fast, self.slow)
                .scale_batteries(self.battery_scale()),
            etc,
            dag,
            data,
            tau: self.tau(),
            etc_id,
            dag_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Energy;

    #[test]
    fn paper_sized_point_matches_the_paper_regime() {
        // 1024 tasks on 4 machines is the paper's own scale: batteries
        // unscaled, τ the paper deadline.
        let p = ScaleParams::new(1024, 4);
        assert_eq!((p.fast, p.slow), (2, 2));
        assert!((p.battery_scale() - 1.0).abs() < 1e-12);
        assert_eq!(p.tau(), Time::from_seconds(34_075));
        let sc = p.generate(0, 0);
        assert_eq!(sc.tasks(), 1024);
        assert!(sc
            .grid
            .total_system_energy()
            .approx_eq(Energy(1276.0), 1e-9));
    }

    #[test]
    fn wide_grids_widen_the_dag() {
        let p = ScaleParams::new(16_384, 64);
        let d = p.dag_params();
        assert_eq!(d.max_width, 1024);
        assert!(d.min_width >= 64);
        let sc = p.generate(1, 2);
        assert_eq!(sc.tasks(), 16_384);
        assert_eq!(sc.grid.len(), 64);
        // Per-machine battery stays in the paper band (a fast machine has
        // 580 eu at full scale).
        let per_machine = sc.grid.machine(crate::config::MachineId(0)).battery;
        assert!(
            per_machine.approx_eq(Energy(580.0), 1e-6),
            "{per_machine:?}"
        );
    }

    #[test]
    fn generation_is_deterministic_and_id_separated() {
        let p = ScaleParams::new(2048, 16);
        let a = p.generate(3, 5);
        let b = p.generate(3, 5);
        assert_eq!(a.etc, b.etc);
        assert_eq!(a.dag, b.dag);
        assert_eq!(a.data, b.data);
        let other_etc = p.generate(4, 5);
        assert_eq!(a.dag, other_etc.dag);
        assert_ne!(a.etc, other_etc.etc);
    }
}
