//! Grid configurations: the paper's Cases A/B/C (Table 1) and custom mixes.
//!
//! Case A is the baseline grid with all machines present; Case B removes
//! one slow machine; Case C removes one fast machine. Machine counts are
//! recovered from Table 4's column headers ("2 fast, 2 slow", "2 fast,
//! 1 slow", "1 fast, 2 slow") since Table 1's cells are blank in the
//! available scan.
//!
//! Machines are indexed by [`MachineId`]; by convention fast machines come
//! first so machine 0 — the upper-bound reference machine (§VI) — is fast
//! whenever any fast machine is present.

use std::fmt;

use crate::machine::MachineSpec;
use crate::units::Energy;

/// Index of a machine within a [`GridConfig`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MachineId(pub usize);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The three grid configurations studied in the paper (Table 1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum GridCase {
    /// Baseline: 2 fast + 2 slow machines.
    A,
    /// One slow machine lost: 2 fast + 1 slow.
    B,
    /// One fast machine lost: 1 fast + 2 slow.
    C,
}

impl GridCase {
    /// All three cases in paper order.
    pub const ALL: [GridCase; 3] = [GridCase::A, GridCase::B, GridCase::C];

    /// `(fast, slow)` machine counts for the case.
    pub fn counts(self) -> (usize, usize) {
        match self {
            GridCase::A => (2, 2),
            GridCase::B => (2, 1),
            GridCase::C => (1, 2),
        }
    }

    /// The bare letter ("A" …): how scenario files and stress corpus
    /// files spell the case.
    pub fn letter(self) -> &'static str {
        match self {
            GridCase::A => "A",
            GridCase::B => "B",
            GridCase::C => "C",
        }
    }

    /// Human-readable name ("Case A" …).
    pub fn name(self) -> &'static str {
        match self {
            GridCase::A => "Case A",
            GridCase::B => "Case B",
            GridCase::C => "Case C",
        }
    }
}

impl fmt::Display for GridCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for GridCase {
    type Err = String;

    /// Accepts the canonical [`GridCase::name`] form (`"Case A"`) and the
    /// bare letter (`"A"`/`"a"`), so `case.to_string().parse()` always
    /// round-trips and CLI/wire spellings stay terse.
    fn from_str(s: &str) -> Result<GridCase, String> {
        match s.trim().strip_prefix("Case ").unwrap_or(s.trim()) {
            "A" | "a" => Ok(GridCase::A),
            "B" | "b" => Ok(GridCase::B),
            "C" | "c" => Ok(GridCase::C),
            other => Err(format!("unknown grid case {other:?} (expected A, B or C)")),
        }
    }
}

/// A concrete grid: an ordered list of machines.
#[derive(Clone, PartialEq, Debug)]
pub struct GridConfig {
    machines: Vec<MachineSpec>,
}

impl GridConfig {
    /// Build a grid with `fast` fast machines followed by `slow` slow
    /// machines, using the paper's Table 2 parameters.
    ///
    /// # Panics
    /// Panics if the grid would be empty.
    pub fn with_counts(fast: usize, slow: usize) -> GridConfig {
        assert!(fast + slow > 0, "grid must contain at least one machine");
        let machines = std::iter::repeat_n(MachineSpec::fast(), fast)
            .chain(std::iter::repeat_n(MachineSpec::slow(), slow))
            .collect();
        GridConfig { machines }
    }

    /// Build one of the paper's Cases A/B/C.
    pub fn case(case: GridCase) -> GridConfig {
        let (fast, slow) = case.counts();
        GridConfig::with_counts(fast, slow)
    }

    /// Build a grid from explicit machine specs (for custom experiments).
    ///
    /// # Panics
    /// Panics if `machines` is empty.
    pub fn from_machines(machines: Vec<MachineSpec>) -> GridConfig {
        assert!(
            !machines.is_empty(),
            "grid must contain at least one machine"
        );
        GridConfig { machines }
    }

    /// Number of machines `|M|`.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Always false: an empty grid cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The spec of machine `j`.
    pub fn machine(&self, j: MachineId) -> &MachineSpec {
        &self.machines[j.0]
    }

    /// All machine specs, in id order.
    pub fn machines(&self) -> &[MachineSpec] {
        &self.machines
    }

    /// Iterate over `(MachineId, &MachineSpec)` in numerical order — the
    /// order in which the SLRH heuristic visits machines (§IV).
    pub fn iter(&self) -> impl Iterator<Item = (MachineId, &MachineSpec)> {
        self.machines
            .iter()
            .enumerate()
            .map(|(j, m)| (MachineId(j), m))
    }

    /// All machine ids.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> + Clone {
        (0..self.machines.len()).map(MachineId)
    }

    /// Drain each machine's battery by the energy already spent on it
    /// (clamped at zero) — how the open-system mode carries battery
    /// depletion across the jobs sharing one grid. A machine drained to
    /// zero stays in the grid but fails every energy-feasibility gate.
    ///
    /// # Panics
    /// Panics when `spent` does not cover every machine.
    pub fn drain_batteries(&mut self, spent: &[Energy]) {
        assert_eq!(spent.len(), self.machines.len(), "one drain per machine");
        for (m, &e) in self.machines.iter_mut().zip(spent) {
            m.battery = Energy((m.battery.units() - e.units()).max(0.0));
        }
    }

    /// Total system energy `TSE = Σ_j B(j)` (§IV).
    pub fn total_system_energy(&self) -> Energy {
        self.machines.iter().map(|m| m.battery).sum()
    }

    /// The minimum bandwidth over all machines — the worst-case link used by
    /// the SLRH pool's conservative communication-energy bound (§IV).
    pub fn min_bandwidth_mbps(&self) -> f64 {
        self.machines
            .iter()
            .map(|m| m.bandwidth_mbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Scale every battery by `factor` (used by reduced-scale suites to
    /// keep the energy-per-subtask regime of the full-scale experiment).
    ///
    /// # Panics
    /// Panics unless `factor` is positive and finite.
    pub fn scale_batteries(&self, factor: f64) -> GridConfig {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "invalid battery scale {factor}"
        );
        let machines = self
            .machines
            .iter()
            .map(|m| MachineSpec {
                battery: m.battery * factor,
                ..*m
            })
            .collect();
        GridConfig { machines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineClass;

    #[test]
    fn table1_counts() {
        assert_eq!(GridCase::A.counts(), (2, 2));
        assert_eq!(GridCase::B.counts(), (2, 1));
        assert_eq!(GridCase::C.counts(), (1, 2));
        assert_eq!(GridConfig::case(GridCase::A).len(), 4);
        assert_eq!(GridConfig::case(GridCase::B).len(), 3);
        assert_eq!(GridConfig::case(GridCase::C).len(), 3);
    }

    #[test]
    fn fast_machines_come_first() {
        for case in GridCase::ALL {
            let g = GridConfig::case(case);
            let (fast, _) = case.counts();
            for (MachineId(j), m) in g.iter() {
                let expected = if j < fast {
                    MachineClass::Fast
                } else {
                    MachineClass::Slow
                };
                assert_eq!(m.class, expected, "{case} machine {j}");
            }
        }
    }

    #[test]
    fn total_system_energy_per_case() {
        // Case A: 2*580 + 2*58 = 1276.
        assert!(GridConfig::case(GridCase::A)
            .total_system_energy()
            .approx_eq(Energy(1276.0), 1e-9));
        // Case B: 2*580 + 58 = 1218.
        assert!(GridConfig::case(GridCase::B)
            .total_system_energy()
            .approx_eq(Energy(1218.0), 1e-9));
        // Case C: 580 + 2*58 = 696.
        assert!(GridConfig::case(GridCase::C)
            .total_system_energy()
            .approx_eq(Energy(696.0), 1e-9));
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_grid_rejected() {
        let _ = GridConfig::with_counts(0, 0);
    }

    #[test]
    fn min_bandwidth() {
        assert_eq!(GridConfig::case(GridCase::A).min_bandwidth_mbps(), 4.0);
        assert_eq!(GridConfig::with_counts(2, 0).min_bandwidth_mbps(), 8.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(GridCase::A.to_string(), "Case A");
        assert_eq!(MachineId(2).to_string(), "m2");
    }
}
