//! Global data items `g(i, k)` communicated along DAG edges (§III).
//!
//! Each DAG edge `i -> k` carries a data item whose size was "generated
//! according to the method described in [ShC04]" and "not varied across the
//! three ad hoc grid configurations". We draw sizes uniformly from a small
//! megabit range chosen so communication energy is a *negligible* fraction
//! of total energy — the regime the paper reports ("the communications
//! energy proved to be a negligible factor") — while still exercising the
//! full link-scheduling code path.
//!
//! The stored size is the **primary-version** output; a parent executed at
//! the secondary level ships 10 % of it ([`crate::task::Version::data_factor`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dag::Dag;
use crate::task::TaskId;
use crate::units::Megabits;

/// Per-edge data item sizes for one DAG.
#[derive(Clone, PartialEq, Debug)]
pub struct DataSizes {
    /// `sizes[e]` is `g(i, k)` for the edge `i -> k` with id `e` (see
    /// [`Dag`]'s "Edge ids").
    sizes: Vec<Megabits>,
}

/// Parameters for data item generation.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct DataGenParams {
    /// Uniform size range in megabits (inclusive of both ends).
    pub size_mb: (f64, f64),
}

impl DataGenParams {
    /// Paper-regime defaults: 0.1–1.0 Mb per item. At the grid's worst-case
    /// 4 Mb/s this is a 25–250 ms transfer costing at most ~0.05 energy
    /// units from a fast sender — negligible next to multi-second,
    /// multi-unit subtask executions, as the paper requires.
    pub fn paper() -> DataGenParams {
        DataGenParams {
            size_mb: (0.1, 1.0),
        }
    }

    fn validate(&self) {
        let (lo, hi) = self.size_mb;
        assert!(0.0 < lo && lo <= hi, "invalid size range {lo}..{hi}");
    }
}

impl DataSizes {
    /// Generate sizes for every edge of `dag`. Deterministic in
    /// `(params, dag, seed)`.
    pub fn generate(dag: &Dag, params: &DataGenParams, seed: u64) -> DataSizes {
        params.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = params.size_mb;
        // One draw per edge in id order — each task's parents in turn.
        let sizes = (0..dag.edge_count())
            .map(|_| Megabits(rng.gen_range(lo..=hi)))
            .collect();
        DataSizes { sizes }
    }

    /// Uniform sizes (every edge carries `mb` megabits) — for tests.
    pub fn uniform(dag: &Dag, mb: f64) -> DataSizes {
        DataSizes {
            sizes: vec![Megabits(mb); dag.edge_count()],
        }
    }

    /// Reassemble data sizes from an explicit edge list (scenario import).
    /// Every DAG edge must appear exactly once.
    pub fn from_edge_list(
        dag: &Dag,
        edges: &[(TaskId, TaskId, Megabits)],
    ) -> Result<DataSizes, String> {
        if edges.len() != dag.edge_count() {
            return Err(format!(
                "{} edge sizes provided for a DAG with {} edges",
                edges.len(),
                dag.edge_count()
            ));
        }
        let mut sizes: Vec<Option<Megabits>> = vec![None; dag.edge_count()];
        for &(p, c, g) in edges {
            if g.value() <= 0.0 || !g.value().is_finite() {
                return Err(format!("edge {p}->{c}: bad size {g}"));
            }
            let e = dag
                .edge_id(p, c)
                .ok_or_else(|| format!("{p}->{c} is not a DAG edge"))?;
            if sizes[e].replace(g).is_some() {
                return Err(format!("duplicate size for edge {p}->{c}"));
            }
        }
        Ok(DataSizes {
            sizes: sizes
                .into_iter()
                .map(|g| g.expect("counted above"))
                .collect(),
        })
    }

    /// Size of the item on edge id `e` (primary version) — the read every
    /// adjacency walk uses ([`Dag::in_edges`], [`Dag::out_edges`]).
    pub fn by_id(&self, e: usize) -> Megabits {
        self.sizes[e]
    }

    /// Size of the item sent from `parent` to `child` (primary version),
    /// by endpoint pair — a search over `child`'s parents; walks over an
    /// adjacency list use [`DataSizes::by_id`].
    ///
    /// # Panics
    /// Panics if `parent -> child` is not a DAG edge — callers must pass a
    /// real edge, looked up against the same [`Dag`] this was built from.
    pub fn edge(&self, dag: &Dag, parent: TaskId, child: TaskId) -> Megabits {
        let e = dag
            .edge_id(parent, child)
            .unwrap_or_else(|| panic!("{parent} is not a parent of {child}"));
        self.sizes[e]
    }

    /// Total primary-version data volume over all edges.
    pub fn total(&self) -> Megabits {
        self.sizes.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn deterministic_and_in_range() {
        let dag = Dag::from_edges(4, &[(t(0), t(2)), (t(1), t(2)), (t(2), t(3))]).unwrap();
        let p = DataGenParams::paper();
        let a = DataSizes::generate(&dag, &p, 11);
        let b = DataSizes::generate(&dag, &p, 11);
        assert_eq!(a, b);
        for (u, v) in dag.edges() {
            let g = a.edge(&dag, u, v);
            assert!((0.1..=1.0).contains(&g.value()), "{g} out of range");
        }
    }

    #[test]
    fn edge_lookup_matches_parent_order() {
        let dag = Dag::from_edges(3, &[(t(0), t(2)), (t(1), t(2))]).unwrap();
        let d = DataSizes::generate(&dag, &DataGenParams::paper(), 1);
        // Both edges into t2 exist and are distinct draws (almost surely).
        let g0 = d.edge(&dag, t(0), t(2));
        let g1 = d.edge(&dag, t(1), t(2));
        assert_ne!(g0.value(), g1.value());
    }

    #[test]
    #[should_panic(expected = "is not a parent")]
    fn non_edge_rejected() {
        let dag = Dag::chain(3);
        let d = DataSizes::uniform(&dag, 1.0);
        let _ = d.edge(&dag, t(0), t(2));
    }

    #[test]
    fn totals() {
        let dag = Dag::chain(4);
        let d = DataSizes::uniform(&dag, 2.0);
        assert_eq!(d.total().value(), 6.0);
    }
}
