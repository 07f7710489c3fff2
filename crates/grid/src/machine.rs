//! Machine classes and per-machine physical parameters (paper Table 2).
//!
//! Each machine `j` is characterised by four parameters (§III):
//!
//! 1. `B(j)` — battery energy capacity;
//! 2. `E(j)` — energy consumption rate while *computing*, per second;
//! 3. `C(j)` — energy consumption rate while *transmitting*, per second;
//! 4. `BW(j)` — link bandwidth in megabits/second.
//!
//! Machines consume no energy when idle or receiving (§III assumption (a)).

use crate::units::{Dur, Energy, Megabits};

/// The two machine classes of the paper's test grids.
///
/// "Fast" machines model notebook-class hardware (Dell Precision M60,
/// 1.7 GHz Pentium M); "slow" machines model PDA-class hardware (Dell Axim
/// X5, 400 MHz XScale). Fast machines execute subtasks roughly ten times
/// faster on average but draw two orders of magnitude more power.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MachineClass {
    /// Notebook-class machine: fast, high power draw, large battery.
    Fast,
    /// PDA-class machine: slow, very low power draw, small battery.
    Slow,
}

impl MachineClass {
    /// Short human-readable label used in reports ("fast" / "slow").
    pub fn label(self) -> &'static str {
        match self {
            MachineClass::Fast => "fast",
            MachineClass::Slow => "slow",
        }
    }
}

/// Physical parameters of one machine.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MachineSpec {
    /// Which class the machine belongs to.
    pub class: MachineClass,
    /// Battery energy capacity `B(j)`.
    pub battery: Energy,
    /// Compute power draw `E(j)`, energy units per second.
    pub compute_power: f64,
    /// Transmit power draw `C(j)`, energy units per second.
    pub comm_power: f64,
    /// Link bandwidth `BW(j)`, megabits per second.
    pub bandwidth_mbps: f64,
}

impl MachineSpec {
    /// The paper's fast-machine parameters (Table 2).
    pub fn fast() -> MachineSpec {
        MachineSpec {
            class: MachineClass::Fast,
            battery: Energy(paper_constants::FAST_BATTERY),
            compute_power: paper_constants::FAST_COMPUTE_POWER,
            comm_power: paper_constants::FAST_COMM_POWER,
            bandwidth_mbps: paper_constants::FAST_BANDWIDTH_MBPS,
        }
    }

    /// The paper's slow-machine parameters (Table 2).
    pub fn slow() -> MachineSpec {
        MachineSpec {
            class: MachineClass::Slow,
            battery: Energy(paper_constants::SLOW_BATTERY),
            compute_power: paper_constants::SLOW_COMPUTE_POWER,
            comm_power: paper_constants::SLOW_COMM_POWER,
            bandwidth_mbps: paper_constants::SLOW_BANDWIDTH_MBPS,
        }
    }

    /// Energy consumed by computing for `d` on this machine: `E(j) · d`.
    pub fn compute_energy(&self, d: Dur) -> Energy {
        Energy(self.compute_power * d.as_seconds())
    }

    /// Price of one second of this machine's time, in grid-dollars —
    /// the cost dimension of the open-system mode and the DBC
    /// (deadline-and-budget-constrained, Buyya et al.) heuristics.
    /// Notebook-class machines rent at 16 G$/s, PDA-class machines at
    /// 1 G$/s. Fast machines run subtasks roughly ten times faster, so
    /// the slow machines are ~1.6x cheaper *per unit of work* — the
    /// classic grid-economy trade-off where meeting a tight deadline
    /// costs real money and a slack one lets the scheduler save it.
    pub fn price_rate(&self) -> f64 {
        match self.class {
            MachineClass::Fast => 16.0,
            MachineClass::Slow => 1.0,
        }
    }

    /// Energy consumed by *transmitting* for `d` on this machine: `C(j) · d`.
    /// Receiving is free (§III assumption (a)).
    pub fn transmit_energy(&self, d: Dur) -> Energy {
        Energy(self.comm_power * d.as_seconds())
    }

    /// Time to transmit `g` megabits from this machine to `receiver`.
    ///
    /// The paper defines the per-bit cost as `CMT(i,j) = 1/min(BW_i, BW_j)`,
    /// so the whole item takes `g / min(BW_i, BW_j)` seconds, rounded up to
    /// whole ticks.
    #[inline]
    pub fn transfer_dur(&self, receiver: &MachineSpec, g: Megabits) -> Dur {
        let bw = self.bandwidth_mbps.min(receiver.bandwidth_mbps);
        Dur::from_seconds_ceil(g.transfer_seconds(bw))
    }
}

/// The raw Table 2 values plus the experiment-wide time constraint.
pub mod paper_constants {
    /// Fast-machine battery capacity, energy units.
    pub const FAST_BATTERY: f64 = 580.0;
    /// Fast-machine compute power draw, energy units per second.
    pub const FAST_COMPUTE_POWER: f64 = 0.1;
    /// Fast-machine transmit power draw, energy units per second.
    pub const FAST_COMM_POWER: f64 = 0.2;
    /// Fast-machine bandwidth, megabits per second.
    pub const FAST_BANDWIDTH_MBPS: f64 = 8.0;

    /// Slow-machine battery capacity, energy units.
    pub const SLOW_BATTERY: f64 = 58.0;
    /// Slow-machine compute power draw, energy units per second.
    pub const SLOW_COMPUTE_POWER: f64 = 0.001;
    /// Slow-machine transmit power draw, energy units per second.
    pub const SLOW_COMM_POWER: f64 = 0.002;
    /// Slow-machine bandwidth, megabits per second.
    pub const SLOW_BANDWIDTH_MBPS: f64 = 4.0;

    /// The application completion deadline τ, in seconds (§III: "a value of
    /// 34,075 seconds was selected as the time constraint").
    pub const TAU_SECONDS: u64 = 34_075;

    /// Number of subtasks `|T|` in the paper's application.
    pub const NUM_SUBTASKS: usize = 1024;

    /// Mean estimated execution time of a single subtask, seconds, averaged
    /// over all (subtask, machine) pairs of the baseline Case A grid.
    pub const MEAN_ETC_SECONDS: f64 = 131.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Dur;

    #[test]
    fn table2_values() {
        let f = MachineSpec::fast();
        let s = MachineSpec::slow();
        assert_eq!(f.battery, Energy(580.0));
        assert_eq!(s.battery, Energy(58.0));
        assert_eq!(f.compute_power, 0.1);
        assert_eq!(s.compute_power, 0.001);
        assert_eq!(f.comm_power, 0.2);
        assert_eq!(s.comm_power, 0.002);
        assert_eq!(f.bandwidth_mbps, 8.0);
        assert_eq!(s.bandwidth_mbps, 4.0);
        assert_eq!(f.class, MachineClass::Fast);
        assert_eq!(s.class, MachineClass::Slow);
    }

    #[test]
    fn compute_energy_is_power_times_time() {
        let f = MachineSpec::fast();
        let e = f.compute_energy(Dur::from_seconds(131));
        assert!(e.approx_eq(Energy(13.1), 1e-9));
    }

    #[test]
    fn transfer_uses_min_bandwidth() {
        let f = MachineSpec::fast();
        let s = MachineSpec::slow();
        // 8 Mb fast->slow runs at min(8,4)=4 Mb/s -> 2 s.
        assert_eq!(f.transfer_dur(&s, Megabits(8.0)), Dur::from_seconds(2));
        // fast->fast runs at 8 Mb/s -> 1 s.
        assert_eq!(f.transfer_dur(&f, Megabits(8.0)), Dur::from_seconds(1));
    }

    #[test]
    fn transfer_rounds_up_to_ticks() {
        let f = MachineSpec::fast();
        // 0.01 Mb at 8 Mb/s = 1.25 ms -> rounds up to one 0.1 s tick.
        assert_eq!(f.transfer_dur(&f, Megabits(0.01)), Dur(1));
        assert_eq!(f.transfer_dur(&f, Megabits::ZERO), Dur::ZERO);
    }

    #[test]
    fn class_labels() {
        assert_eq!(MachineClass::Fast.label(), "fast");
        assert_eq!(MachineClass::Slow.label(), "slow");
    }
}
