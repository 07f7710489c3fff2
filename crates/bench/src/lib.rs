//! # bench — reproduction harness support
//!
//! Scale presets for the `repro` binary.
//! Run `cargo run -p bench --release --bin repro -- help` for the list of
//! regenerable tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adhoc_grid::workload::{ScenarioParams, ScenarioSet};

/// Experiment scale: task count, suite dimensions and search grid.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Scale {
    tasks: usize,
    etcs: usize,
    dags: usize,
    coarse: f64,
    fine: f64,
}

impl Scale {
    /// |T| = 256, 3 ETC × 3 DAG, 0.2/0.1 search — minutes on a laptop,
    /// same shapes as the paper.
    #[allow(non_upper_case_globals)]
    pub const Reduced: Scale = Scale {
        tasks: 256,
        etcs: 3,
        dags: 3,
        coarse: 0.2,
        fine: 0.1,
    };

    /// |T| = 1024, 10 ETC × 10 DAG, 0.1/0.02 search — the paper's
    /// dimensions.
    #[allow(non_upper_case_globals)]
    pub const Full: Scale = Scale {
        tasks: 1024,
        etcs: 10,
        dags: 10,
        coarse: 0.1,
        fine: 0.02,
    };

    /// Subtask count.
    pub fn tasks(self) -> usize {
        self.tasks
    }

    /// ETC suite size.
    pub fn etc_count(self) -> usize {
        self.etcs
    }

    /// DAG suite size.
    pub fn dag_count(self) -> usize {
        self.dags
    }

    /// Override the ETC suite size (must stay positive).
    pub fn with_etc_count(mut self, etcs: usize) -> Scale {
        assert!(etcs > 0);
        self.etcs = etcs;
        self
    }

    /// Override the DAG suite size (must stay positive).
    pub fn with_dag_count(mut self, dags: usize) -> Scale {
        assert!(dags > 0);
        self.dags = dags;
        self
    }

    /// Weight-search steps `(coarse, fine)`.
    pub fn search_steps(self) -> (f64, f64) {
        (self.coarse, self.fine)
    }

    /// The scenario generation parameters at this scale.
    pub fn params(self) -> ScenarioParams {
        ScenarioParams::paper_scaled(self.tasks)
    }

    /// The scenario suite at this scale.
    pub fn set(self) -> ScenarioSet {
        ScenarioSet::new(self.params(), self.etcs, self.dags)
    }

    /// Report-header label.
    pub fn label(self) -> String {
        format!(
            "|T|={}, {}x{} scenarios, search {}/{}",
            self.tasks, self.etcs, self.dags, self.coarse, self.fine
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(Scale::Full.tasks(), 1024);
        assert_eq!(Scale::Full.set().len(), 100);
        assert_eq!(Scale::Reduced.set().len(), 9);
        assert_eq!(Scale::Full.search_steps(), (0.1, 0.02));
    }
}
