//! The estimated-time-to-compute (ETC) matrix.
//!
//! `ETC(i, j)` is the estimated execution time, in seconds, of subtask `i`'s
//! *primary* version on machine `j` (§III). Secondary-version times are 10 %
//! of primary (see [`crate::task::Version`]).

use crate::config::MachineId;
use crate::task::{TaskId, Version};
use crate::units::Dur;

/// A dense `|T| × |M|` matrix of primary-version execution times (seconds).
#[derive(Clone, PartialEq, Debug)]
pub struct EtcMatrix {
    tasks: usize,
    machines: usize,
    /// Row-major `tasks × machines` seconds.
    secs: Vec<f64>,
}

impl EtcMatrix {
    /// Build from row-major data (`secs[i * machines + j]`).
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-positive/non-finite entries.
    pub fn from_rows(tasks: usize, machines: usize, secs: Vec<f64>) -> EtcMatrix {
        assert_eq!(secs.len(), tasks * machines, "ETC dimension mismatch");
        assert!(machines > 0, "ETC needs at least one machine");
        for (idx, &v) in secs.iter().enumerate() {
            assert!(
                v > 0.0 && v.is_finite(),
                "ETC({}, {}) = {v} must be positive and finite",
                idx / machines,
                idx % machines
            );
        }
        EtcMatrix {
            tasks,
            machines,
            secs,
        }
    }

    /// Uniform matrix (every task takes `secs` on every machine) — handy in
    /// tests and examples.
    pub fn uniform(tasks: usize, machines: usize, secs: f64) -> EtcMatrix {
        EtcMatrix::from_rows(tasks, machines, vec![secs; tasks * machines])
    }

    /// Number of tasks `|T|`.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Number of machines `|M|`.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// `ETC(i, j)` in seconds (primary version).
    pub fn seconds(&self, i: TaskId, j: MachineId) -> f64 {
        self.secs[i.0 * self.machines + j.0]
    }

    /// Execution duration of `(task, version)` on machine `j`, in ticks
    /// (rounded up, so a secondary version is never free).
    #[inline]
    pub fn exec_dur(&self, i: TaskId, j: MachineId, v: Version) -> Dur {
        Dur::from_seconds_ceil(self.seconds(i, j) * v.time_factor())
    }

    /// Mean of all entries, seconds.
    pub fn mean_seconds(&self) -> f64 {
        self.secs.iter().sum::<f64>() / self.secs.len() as f64
    }

    /// Project the matrix onto a machine subset (models machine loss):
    /// column `keep[k]` of `self` becomes column `k` of the result.
    ///
    /// # Panics
    /// Panics if `keep` is empty or contains an out-of-range column.
    pub fn select_machines(&self, keep: &[MachineId]) -> EtcMatrix {
        assert!(!keep.is_empty(), "must keep at least one machine");
        let mut secs = Vec::with_capacity(self.tasks * keep.len());
        for i in 0..self.tasks {
            for &j in keep {
                assert!(j.0 < self.machines, "no such machine {j}");
                secs.push(self.secs[i * self.machines + j.0]);
            }
        }
        EtcMatrix::from_rows(self.tasks, keep.len(), secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let m = EtcMatrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.seconds(TaskId(0), MachineId(2)), 3.0);
        assert_eq!(m.seconds(TaskId(1), MachineId(0)), 4.0);
        assert_eq!(m.tasks(), 2);
        assert_eq!(m.machines(), 3);
    }

    #[test]
    fn exec_dur_by_version() {
        let m = EtcMatrix::uniform(1, 1, 131.0);
        assert_eq!(
            m.exec_dur(TaskId(0), MachineId(0), Version::Primary),
            Dur::from_seconds(131)
        );
        // 13.1 s -> 131 ticks.
        assert_eq!(
            m.exec_dur(TaskId(0), MachineId(0), Version::Secondary),
            Dur(131)
        );
    }

    #[test]
    fn secondary_never_free() {
        let m = EtcMatrix::uniform(1, 1, 0.01);
        assert_eq!(
            m.exec_dur(TaskId(0), MachineId(0), Version::Secondary),
            Dur(1)
        );
    }

    #[test]
    fn mean() {
        let m = EtcMatrix::from_rows(1, 4, vec![1., 2., 3., 6.]);
        assert_eq!(m.mean_seconds(), 3.0);
    }

    #[test]
    fn select_machines_projects_columns() {
        let m = EtcMatrix::from_rows(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let p = m.select_machines(&[MachineId(2), MachineId(0)]);
        assert_eq!(p.machines(), 2);
        assert_eq!(p.seconds(TaskId(0), MachineId(0)), 3.0);
        assert_eq!(p.seconds(TaskId(0), MachineId(1)), 1.0);
        assert_eq!(p.seconds(TaskId(1), MachineId(0)), 6.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive() {
        let _ = EtcMatrix::from_rows(1, 1, vec![0.0]);
    }
}
