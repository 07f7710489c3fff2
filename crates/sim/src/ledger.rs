//! Per-machine energy accounting with worst-case communication reservations.
//!
//! The ledger tracks, for every machine `j`:
//!
//! * `committed(j)` — energy already spent (or irrevocably scheduled to be
//!   spent) on subtask execution and actual data transmissions; this is the
//!   `EC(j)` of the paper's `TEC = Σ EC(j)`;
//! * `reserved(j)` — the SLRH worst-case allowance for transmissions whose
//!   destination is not yet known: when a subtask is mapped onto `j`, each
//!   of its (necessarily still unmapped) children contributes a reservation
//!   sized as if the child will land across the grid's *lowest-bandwidth*
//!   link (§IV's conservative assumption). When the child is mapped the
//!   reservation is *settled*: the actual transmission cost (zero for a
//!   same-machine child) is committed and the remainder refunded.
//!
//! Reservations are keyed by the DAG's edge id (`Dag`'s "Edge ids"):
//! one `Option<(machine, amount)>` slot per edge plus an outstanding
//! count, so reserving, settling and cancelling are array writes — the
//! commit path settles one reservation per parent edge and reserves one
//! per child edge, and does so on every commit of every run.
//!
//! Hard invariants, enforced on every mutation:
//!
//! * `committed(j) + reserved(j) <= B(j)` — a battery can never be
//!   overdrawn, even counting worst-case future sends;
//! * settlements never exceed their reservation (refunds are non-negative),
//!   which holds physically because every real link is at least as fast as
//!   the slowest link in the grid.

use adhoc_grid::config::{GridConfig, MachineId};
use adhoc_grid::units::Energy;

/// Tolerance for floating-point energy comparisons.
pub const ENERGY_EPS: f64 = 1e-9;

/// The per-machine energy ledger.
///
/// `Default` is the zero-machine ledger — only useful as donated storage
/// for [`EnergyLedger::reset`].
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    battery: Vec<Energy>,
    committed: Vec<Energy>,
    reserved: Vec<Energy>,
    /// Outstanding reservations by edge id: `(machine holding the
    /// reservation, amount)`.
    edges: Vec<Option<(MachineId, Energy)>>,
    /// Number of `Some` slots in `edges`.
    outstanding: usize,
}

impl EnergyLedger {
    /// A fresh ledger with every battery full, for a DAG of `edges`
    /// edges.
    pub fn new(grid: &GridConfig, edges: usize) -> EnergyLedger {
        let mut ledger = EnergyLedger::default();
        ledger.reset(grid, edges);
        ledger
    }

    /// Restore the fresh-ledger state for `grid` and a DAG of `edges`
    /// edges (every battery full, no commits, no reservations) in place,
    /// preserving heap capacity. After a reset the ledger is
    /// indistinguishable from [`EnergyLedger::new`]`(grid, edges)` — the
    /// run-context reuse path depends on that equivalence being exact.
    pub fn reset(&mut self, grid: &GridConfig, edges: usize) {
        self.battery.clear();
        self.battery
            .extend(grid.machines().iter().map(|m| m.battery));
        let n = self.battery.len();
        self.committed.clear();
        self.committed.resize(n, Energy::ZERO);
        self.reserved.clear();
        self.reserved.resize(n, Energy::ZERO);
        self.edges.clear();
        self.edges.resize(edges, None);
        self.outstanding = 0;
    }

    /// Battery capacity `B(j)`.
    pub fn battery(&self, j: MachineId) -> Energy {
        self.battery[j.0]
    }

    /// Energy committed on `j` so far — the paper's `EC(j)`.
    pub fn committed(&self, j: MachineId) -> Energy {
        self.committed[j.0]
    }

    /// Worst-case energy reserved on `j` for future sends.
    pub fn reserved(&self, j: MachineId) -> Energy {
        self.reserved[j.0]
    }

    /// Energy still uncommitted and unreserved on `j`.
    #[inline]
    pub fn available(&self, j: MachineId) -> Energy {
        (self.battery[j.0] - self.committed[j.0] - self.reserved[j.0]).max(Energy::ZERO)
    }

    /// Total energy committed across the grid — the paper's `TEC`.
    pub fn total_committed(&self) -> Energy {
        self.committed.iter().copied().sum()
    }

    /// The affordability threshold [`EnergyLedger::can_afford`] compares
    /// against, hoisted for batch feasibility gating:
    /// `can_afford(j, e)` ⇔ `e.units() <= afford_limit(j)`.
    #[inline]
    pub fn afford_limit(&self, j: MachineId) -> f64 {
        self.available(j).units() + ENERGY_EPS
    }

    /// True when `j` can afford `amount` more committed-or-reserved energy.
    pub fn can_afford(&self, j: MachineId, amount: Energy) -> bool {
        amount.units() <= self.afford_limit(j)
    }

    /// Commit `amount` on `j` (execution or an actual transmission).
    ///
    /// # Panics
    /// Panics if the battery would be overdrawn — callers must check
    /// [`EnergyLedger::can_afford`] first.
    pub fn commit(&mut self, j: MachineId, amount: Energy) {
        assert!(amount.units() >= 0.0, "negative commit {amount}");
        assert!(
            self.can_afford(j, amount),
            "battery overdraw on {j}: commit {amount}, available {}",
            self.available(j)
        );
        self.committed[j.0] += amount;
    }

    /// Reserve worst-case send energy on `j` for the edge with id `edge`.
    ///
    /// # Panics
    /// Panics on overdraw or if the edge already holds a reservation.
    pub fn reserve(&mut self, j: MachineId, edge: usize, amount: Energy) {
        assert!(amount.units() >= 0.0, "negative reservation {amount}");
        assert!(
            self.can_afford(j, amount),
            "battery overdraw on {j}: reserve {amount}, available {}",
            self.available(j)
        );
        let prev = self.edges[edge].replace((j, amount));
        assert!(prev.is_none(), "duplicate reservation for edge #{edge}");
        self.outstanding += 1;
        self.reserved[j.0] += amount;
    }

    /// The outstanding reservation for edge `edge`, if any.
    pub fn edge_reservation(&self, edge: usize) -> Option<(MachineId, Energy)> {
        self.edges[edge]
    }

    /// Remove and return edge `edge`'s reservation.
    fn take(&mut self, edge: usize) -> (MachineId, Energy) {
        let taken = self.edges[edge]
            .take()
            .unwrap_or_else(|| panic!("no reservation for edge #{edge}"));
        self.outstanding -= 1;
        taken
    }

    /// Settle edge `edge`'s reservation: commit the `actual` transmission
    /// cost on the reserving machine and refund the remainder.
    ///
    /// # Panics
    /// Panics if no reservation exists or `actual` exceeds it (beyond
    /// floating-point tolerance).
    pub fn settle(&mut self, edge: usize, actual: Energy) {
        let (j, reserved) = self.take(edge);
        assert!(
            actual.units() <= reserved.units() + ENERGY_EPS,
            "settlement {actual} exceeds reservation {reserved} on {j}"
        );
        // Clamp tiny float excess so reserved never goes negative.
        let actual = actual.min(reserved);
        self.reserved[j.0] -= reserved;
        self.reserved[j.0] = self.reserved[j.0].max(Energy::ZERO);
        self.committed[j.0] += actual;
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Reverse a previous commit (dynamic remapping: an invalidated
    /// mapping's execution or transmission never happens).
    ///
    /// # Panics
    /// Panics if more than the committed amount would be refunded.
    pub fn uncommit(&mut self, j: MachineId, amount: Energy) {
        assert!(amount.units() >= 0.0, "negative uncommit {amount}");
        assert!(
            amount.units() <= self.committed[j.0].units() + ENERGY_EPS,
            "uncommit {amount} exceeds committed {} on {j}",
            self.committed[j.0]
        );
        self.committed[j.0] -= amount;
        self.committed[j.0] = self.committed[j.0].max(Energy::ZERO);
    }

    /// Drop edge `edge`'s reservation without committing anything
    /// (dynamic remapping: the parent itself is being unmapped).
    ///
    /// # Panics
    /// Panics if no reservation exists for the edge.
    pub fn cancel_reservation(&mut self, edge: usize) -> (MachineId, Energy) {
        let (j, reserved) = self.take(edge);
        self.reserved[j.0] -= reserved;
        self.reserved[j.0] = self.reserved[j.0].max(Energy::ZERO);
        (j, reserved)
    }

    /// Number of outstanding edge reservations.
    pub fn outstanding_reservations(&self) -> usize {
        self.outstanding
    }

    /// Verify the ledger's internal invariants; returns a description of
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for j in 0..self.battery.len() {
            let (b, c, r) = (self.battery[j], self.committed[j], self.reserved[j]);
            if c.units() < -ENERGY_EPS || r.units() < -ENERGY_EPS {
                return Err(format!("machine m{j}: negative committed/reserved {c}/{r}"));
            }
            if c.units() + r.units() > b.units() + ENERGY_EPS {
                return Err(format!(
                    "machine m{j}: committed {c} + reserved {r} exceeds battery {b}"
                ));
            }
        }
        let held = self.edges.iter().flatten().count();
        if held != self.outstanding {
            return Err(format!(
                "{held} edge reservations held, {} counted",
                self.outstanding
            ));
        }
        let by_machine: Vec<f64> = {
            let mut v = vec![0.0; self.battery.len()];
            for &(j, e) in self.edges.iter().flatten() {
                v[j.0] += e.units();
            }
            v
        };
        for (j, &sum) in by_machine.iter().enumerate() {
            if (sum - self.reserved[j].units()).abs() > 1e-6 {
                return Err(format!(
                    "machine m{j}: edge reservations {sum} != reserved {}",
                    self.reserved[j].units()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::{GridCase, GridConfig};

    /// Case A over a DAG of four edges (ids 0..4).
    fn ledger() -> EnergyLedger {
        EnergyLedger::new(&GridConfig::case(GridCase::A), 4)
    }
    fn m(j: usize) -> MachineId {
        MachineId(j)
    }

    #[test]
    fn fresh_ledger() {
        let l = ledger();
        assert_eq!(l.battery(m(0)), Energy(580.0));
        assert_eq!(l.available(m(2)), Energy(58.0));
        assert_eq!(l.total_committed(), Energy::ZERO);
        assert!(l.check_invariants().is_ok());
    }

    #[test]
    fn commit_reduces_available() {
        let mut l = ledger();
        l.commit(m(0), Energy(100.0));
        assert!(l.available(m(0)).approx_eq(Energy(480.0), 1e-9));
        assert!(l.total_committed().approx_eq(Energy(100.0), 1e-9));
    }

    #[test]
    fn reserve_then_settle_with_refund() {
        let mut l = ledger();
        l.reserve(m(0), 2, Energy(10.0));
        assert!(l.available(m(0)).approx_eq(Energy(570.0), 1e-9));
        assert_eq!(l.edge_reservation(2), Some((m(0), Energy(10.0))));
        assert_eq!(l.edge_reservation(1), None);
        assert_eq!(l.outstanding_reservations(), 1);
        l.settle(2, Energy(4.0));
        assert!(l.committed(m(0)).approx_eq(Energy(4.0), 1e-9));
        assert!(l.reserved(m(0)).approx_eq(Energy::ZERO, 1e-9));
        assert!(l.available(m(0)).approx_eq(Energy(576.0), 1e-9));
        assert_eq!(l.outstanding_reservations(), 0);
    }

    #[test]
    fn settle_zero_for_same_machine_child() {
        let mut l = ledger();
        l.reserve(m(3), 0, Energy(0.5));
        l.settle(0, Energy::ZERO);
        assert!(l.committed(m(3)).approx_eq(Energy::ZERO, 1e-9));
        assert!(l.available(m(3)).approx_eq(Energy(58.0), 1e-9));
    }

    #[test]
    #[should_panic(expected = "battery overdraw")]
    fn commit_overdraw_panics() {
        let mut l = ledger();
        l.commit(m(2), Energy(58.1));
    }

    #[test]
    #[should_panic(expected = "battery overdraw")]
    fn reserve_counts_toward_overdraw() {
        let mut l = ledger();
        l.reserve(m(2), 0, Energy(50.0));
        l.commit(m(2), Energy(10.0));
    }

    #[test]
    #[should_panic(expected = "duplicate reservation")]
    fn duplicate_edge_reservation_panics() {
        let mut l = ledger();
        l.reserve(m(0), 3, Energy(1.0));
        l.reserve(m(1), 3, Energy(1.0));
    }

    #[test]
    #[should_panic(expected = "exceeds reservation")]
    fn settlement_above_reservation_panics() {
        let mut l = ledger();
        l.reserve(m(0), 0, Energy(1.0));
        l.settle(0, Energy(2.0));
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn settling_unknown_edge_panics() {
        let mut l = ledger();
        l.settle(0, Energy::ZERO);
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn settling_a_settled_edge_panics() {
        let mut l = ledger();
        l.reserve(m(0), 1, Energy(1.0));
        l.settle(1, Energy(0.5));
        l.settle(1, Energy(0.5));
    }

    #[test]
    #[should_panic(expected = "no reservation")]
    fn cancelling_unknown_edge_panics() {
        let mut l = ledger();
        l.cancel_reservation(2);
    }

    #[test]
    fn uncommit_refunds() {
        let mut l = ledger();
        l.commit(m(0), Energy(20.0));
        l.uncommit(m(0), Energy(5.0));
        assert!(l.committed(m(0)).approx_eq(Energy(15.0), 1e-9));
    }

    #[test]
    #[should_panic(expected = "exceeds committed")]
    fn uncommit_more_than_committed_panics() {
        let mut l = ledger();
        l.commit(m(0), Energy(1.0));
        l.uncommit(m(0), Energy(2.0));
    }

    #[test]
    fn cancel_reservation_restores_available() {
        let mut l = ledger();
        l.reserve(m(1), 0, Energy(7.0));
        let (j, e) = l.cancel_reservation(0);
        assert_eq!(j, m(1));
        assert!(e.approx_eq(Energy(7.0), 1e-9));
        assert!(l.available(m(1)).approx_eq(Energy(580.0), 1e-9));
        assert_eq!(l.outstanding_reservations(), 0);
    }

    #[test]
    fn can_afford_tolerates_float_noise() {
        let mut l = ledger();
        l.commit(m(2), Energy(58.0));
        assert!(l.can_afford(m(2), Energy::ZERO));
        assert!(!l.can_afford(m(2), Energy(0.1)));
    }

    #[test]
    fn reset_resizes_for_another_dag_and_drops_every_reservation() {
        let mut l = ledger();
        l.reserve(m(0), 3, Energy(2.0));
        l.commit(m(1), Energy(5.0));
        l.reset(&GridConfig::case(GridCase::B), 9);
        assert_eq!(l.outstanding_reservations(), 0);
        assert_eq!(l.edge_reservation(8), None);
        assert_eq!(l.total_committed(), Energy::ZERO);
        l.reserve(m(2), 8, Energy(1.0));
        assert!(l.check_invariants().is_ok());
    }
}
