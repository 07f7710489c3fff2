//! Directed acyclic graphs of subtask dependencies (§III).
//!
//! Subtask dependencies are given by a DAG: a subtask becomes *available*
//! for mapping once all its parents are mapped, and it cannot *start
//! executing* until all its input data has been received from the machines
//! its parents ran on (§III assumption (d)).

use std::ops::Range;

use crate::task::TaskId;

/// An immutable DAG over `n` subtasks.
///
/// Stores both adjacency directions so heuristics can walk parents
/// (precedence checks) and children (worst-case communication-energy
/// reservations) without re-deriving either.
///
/// # Data layout
///
/// Both directions are kept in CSR (compressed sparse row) form: one flat
/// edge array per direction plus an `n + 1` offset array, so
/// [`Dag::parents`] and [`Dag::children`] are a pair of array reads
/// yielding a contiguous slice. The per-tick mapping kernel walks these
/// adjacency lists for every readiness update, plan, reservation and loss
/// cascade; the flat layout keeps those walks on one or two cache lines
/// instead of chasing a `Vec<Vec<_>>` pointer per task.
///
/// # Edge ids
///
/// Every edge has one number in `0..edge_count()`: its position in the
/// parent CSR. A task's in-edges are therefore the consecutive ids
/// [`Dag::in_edges`], aligned with [`Dag::parents`]; its out-edge ids
/// are stored once, aligned with [`Dag::children`] ([`Dag::out_edges`]).
/// Per-edge quantities (data sizes, §IV worst-case durations, ledger
/// reservations) are flat arrays indexed by this id, so walking either
/// adjacency list reads them without any `(parent, child)` search.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dag {
    /// Parents of `t` are `parent_edges[parent_off[t]..parent_off[t+1]]`,
    /// ascending; the index into `parent_edges` is the edge id.
    /// `parent_off.len() == n + 1`.
    parent_off: Vec<u32>,
    parent_edges: Vec<TaskId>,
    /// Children of `t` are `child_edges[child_off[t]..child_off[t+1]]`,
    /// ascending. `child_off.len() == n + 1`.
    child_off: Vec<u32>,
    child_edges: Vec<TaskId>,
    /// `out_ids[k]` is the edge id of `child_edges[k]`'s edge.
    out_ids: Vec<u32>,
}

/// Per-task bucket ends for a counting sort of `keys` over `0..n`: entry
/// `t` is one past the last slot of `t`'s bucket, entry `n` the total.
fn ends(n: usize, keys: impl Iterator<Item = TaskId>) -> Vec<u32> {
    let mut off = vec![0u32; n + 1];
    for k in keys {
        off[k.0] += 1;
    }
    for i in 1..=n {
        off[i] += off[i - 1];
    }
    off
}

impl Dag {
    /// Build a DAG over `n` tasks from an edge list (`parent -> child`).
    ///
    /// Duplicate edges are collapsed. Returns an error message if any
    /// endpoint is out of range, an edge is a self-loop, or the edges form
    /// a cycle.
    ///
    /// O(n + E) but for sorting each task's (short) parent list: both CSR
    /// directions are filled by counting. An edge list whose every edge
    /// runs from a lower id to a higher one is acyclic by construction
    /// (the layered generator's always is), so only other lists pay for
    /// the cycle check.
    pub fn from_edges(n: usize, edges: &[(TaskId, TaskId)]) -> Result<Dag, String> {
        assert!(
            n < u32::MAX as usize,
            "CSR offsets are u32: at most {} tasks supported",
            u32::MAX
        );
        let mut ascending = true;
        for &(u, v) in edges {
            if u.0 >= n || v.0 >= n {
                return Err(format!("edge {u}->{v} out of range for n={n}"));
            }
            if u == v {
                return Err(format!("self-loop on {u}"));
            }
            ascending &= u < v;
        }
        // Parents direction: bucket the parents by child (each offset
        // counts up to its bucket's end, then the fill counts it back
        // down to the start), then sort and dedup each bucket, closing
        // the gaps the duplicates leave.
        let mut parent_off = ends(n, edges.iter().map(|&(_, v)| v));
        let mut parent_edges = vec![TaskId(0); edges.len()];
        for &(u, v) in edges {
            parent_off[v.0] -= 1;
            parent_edges[parent_off[v.0] as usize] = u;
        }
        let mut kept = 0;
        for v in 0..n {
            let bucket = parent_off[v] as usize..parent_off[v + 1] as usize;
            parent_edges[bucket.clone()].sort_unstable();
            parent_off[v] = kept as u32;
            for i in bucket {
                let u = parent_edges[i];
                if kept == parent_off[v] as usize || parent_edges[kept - 1] != u {
                    parent_edges[kept] = u;
                    kept += 1;
                }
            }
        }
        parent_off[n] = kept as u32;
        parent_edges.truncate(kept);
        // Children direction, the same way: walking the children from
        // the highest down fills each parent's list from its end, so it
        // comes out ascending, each entry next to its edge id.
        let mut child_off = ends(n, parent_edges.iter().copied());
        let mut child_edges = vec![TaskId(0); kept];
        let mut out_ids = vec![0u32; kept];
        for v in (0..n).rev() {
            for id in parent_off[v]..parent_off[v + 1] {
                let u = parent_edges[id as usize];
                child_off[u.0] -= 1;
                child_edges[child_off[u.0] as usize] = TaskId(v);
                out_ids[child_off[u.0] as usize] = id;
            }
        }

        let dag = Dag {
            parent_off,
            parent_edges,
            child_off,
            child_edges,
            out_ids,
        };
        if !ascending && dag.topological_order().is_none() {
            return Err("edge list contains a cycle".into());
        }
        Ok(dag)
    }

    /// An empty DAG (no edges) over `n` independent tasks.
    pub fn independent(n: usize) -> Dag {
        Dag {
            parent_off: vec![0; n + 1],
            parent_edges: Vec::new(),
            child_off: vec![0; n + 1],
            child_edges: Vec::new(),
            out_ids: Vec::new(),
        }
    }

    /// A simple chain `t0 -> t1 -> ... -> t(n-1)` (useful in tests).
    pub fn chain(n: usize) -> Dag {
        let edges: Vec<_> = (1..n).map(|i| (TaskId(i - 1), TaskId(i))).collect();
        Dag::from_edges(n, &edges).expect("chain is acyclic")
    }

    /// Number of tasks `|T|`.
    pub fn len(&self) -> usize {
        self.parent_off.len() - 1
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.child_edges.len()
    }

    /// Parents of `t` (its data sources), in ascending id order.
    #[inline]
    pub fn parents(&self, t: TaskId) -> &[TaskId] {
        &self.parent_edges[self.parent_off[t.0] as usize..self.parent_off[t.0 + 1] as usize]
    }

    /// Children of `t` (its data sinks), in ascending id order.
    #[inline]
    pub fn children(&self, t: TaskId) -> &[TaskId] {
        &self.child_edges[self.child_off[t.0] as usize..self.child_off[t.0 + 1] as usize]
    }

    /// Edge ids of `t`'s in-edges, aligned with [`Dag::parents`]: the
    /// edge from `parents(t)[i]` is `in_edges(t).start + i`.
    pub fn in_edges(&self, t: TaskId) -> Range<usize> {
        self.parent_off[t.0] as usize..self.parent_off[t.0 + 1] as usize
    }

    /// Edge ids of `t`'s out-edges, aligned with [`Dag::children`].
    #[inline]
    pub fn out_edges(&self, t: TaskId) -> &[u32] {
        &self.out_ids[self.child_off[t.0] as usize..self.child_off[t.0 + 1] as usize]
    }

    /// The id of the edge `parent -> child`, or `None` when it is not an
    /// edge (or `child` is out of range). A binary search over `child`'s
    /// parents — for lookups by endpoint pair; code walking an adjacency
    /// list reads [`Dag::in_edges`] / [`Dag::out_edges`] instead.
    #[inline]
    pub fn edge_id(&self, parent: TaskId, child: TaskId) -> Option<usize> {
        if child.0 >= self.len() {
            return None;
        }
        let base = self.parent_off[child.0] as usize;
        self.parents(child)
            .binary_search(&parent)
            .ok()
            .map(|i| base + i)
    }

    /// All task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + Clone {
        (0..self.len()).map(TaskId)
    }

    /// Edges as `(parent, child)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        self.tasks()
            .flat_map(|u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// Tasks with no parents.
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&t| self.parents(t).is_empty())
    }

    /// Tasks with no children.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&t| self.children(t).is_empty())
    }

    /// A topological order (Kahn's algorithm), or `None` if cyclic.
    /// `from_edges` guarantees constructed DAGs are acyclic, so on a valid
    /// `Dag` this always returns `Some`.
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|t| self.parents(TaskId(t)).len()).collect();
        let mut queue: Vec<TaskId> = (0..n).filter(|&t| indegree[t] == 0).map(TaskId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop() {
            order.push(t);
            for &c in self.children(t) {
                indegree[c.0] -= 1;
                if indegree[c.0] == 0 {
                    queue.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Length (in edges) of the longest path — the DAG's depth minus one.
    #[cfg(test)]
    pub(crate) fn critical_path_edges(&self) -> usize {
        let order = self.topological_order().expect("Dag is acyclic");
        let mut depth = vec![0usize; self.len()];
        let mut best = 0;
        for &t in &order {
            for &c in self.children(t) {
                depth[c.0] = depth[c.0].max(depth[t.0] + 1);
                best = best.max(depth[c.0]);
            }
        }
        best
    }

    /// Maximum number of parents over all tasks (bounds per-task fan-in).
    pub fn max_fan_in(&self) -> usize {
        self.tasks()
            .map(|t| self.parents(t).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(i: usize) -> TaskId {
        TaskId(i)
    }

    /// The sort-based builder [`Dag::from_edges`] replaced, kept as its
    /// oracle: sort and dedup the edges by `(parent, child)` for the
    /// child lists and by `(child, parent)` for the parent lists, number
    /// the out-edges by walking the first sort, and always run Kahn's
    /// pass for the cycle check.
    fn from_edges_sorted(n: usize, edges: &[(TaskId, TaskId)]) -> Result<Dag, String> {
        fn csr_from_sorted(n: usize, edges: &[(TaskId, TaskId)]) -> (Vec<u32>, Vec<TaskId>) {
            let mut off = vec![0u32; n + 1];
            for &(u, _) in edges {
                off[u.0 + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            (off, edges.iter().map(|&(_, v)| v).collect())
        }
        for &(u, v) in edges {
            if u.0 >= n || v.0 >= n {
                return Err(format!("edge {u}->{v} out of range for n={n}"));
            }
            if u == v {
                return Err(format!("self-loop on {u}"));
            }
        }
        let mut fwd: Vec<(TaskId, TaskId)> = edges.to_vec();
        fwd.sort_unstable();
        fwd.dedup();
        let (child_off, child_edges) = csr_from_sorted(n, &fwd);
        let mut rev: Vec<(TaskId, TaskId)> = fwd.iter().map(|&(u, v)| (v, u)).collect();
        rev.sort_unstable();
        let (parent_off, parent_edges) = csr_from_sorted(n, &rev);
        let mut next_in: Vec<u32> = parent_off[..n].to_vec();
        let out_ids = fwd
            .iter()
            .map(|&(_, v)| {
                let id = next_in[v.0];
                next_in[v.0] += 1;
                id
            })
            .collect();
        let dag = Dag {
            parent_off,
            parent_edges,
            child_off,
            child_edges,
            out_ids,
        };
        if dag.topological_order().is_none() {
            return Err("edge list contains a cycle".into());
        }
        Ok(dag)
    }

    /// The counting builder is the sort-based one: all five arrays and
    /// the Ok/Err verdict agree on random edge lists — ascending ones
    /// (which skip Kahn's pass), ones running both ways (acyclic or
    /// not), with duplicates, and with the odd self-loop or
    /// out-of-range endpoint.
    #[test]
    fn the_counting_builder_is_the_sort_based_one() {
        let mut rng = StdRng::seed_from_u64(0xDA6);
        let (mut acyclic, mut cyclic) = (0, 0);
        for round in 0..3000 {
            let n = rng.gen_range(0..40usize);
            let m = if n == 0 { 0 } else { rng.gen_range(0..3 * n) };
            let mut edges: Vec<(TaskId, TaskId)> = Vec::with_capacity(m + 2);
            for _ in 0..m {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                match round % 4 {
                    // Ascending only, duplicates included.
                    0 | 1 if a != b => edges.push((t(a.min(b)), t(a.max(b)))),
                    // Either way round: some of these close a cycle.
                    2 if a != b => edges.push((t(a), t(b))),
                    3 if a != b => edges.push((t(a.max(b)), t(a.min(b)))),
                    _ => {}
                }
                if rng.gen_range(0..8) == 0 && !edges.is_empty() {
                    let dup = edges[rng.gen_range(0..edges.len())];
                    edges.push(dup);
                }
            }
            if n > 0 && rng.gen_range(0..20) == 0 {
                let a = rng.gen_range(0..n);
                edges.push((t(a), t(a)));
            }
            if rng.gen_range(0..20) == 0 {
                edges.push((t(rng.gen_range(0..n + 1)), t(n + rng.gen_range(0..3))));
            }
            let counted = Dag::from_edges(n, &edges);
            assert_eq!(counted, from_edges_sorted(n, &edges), "n={n} {edges:?}");
            match counted {
                Ok(_) => acyclic += 1,
                Err(e) if e.contains("cycle") => cyclic += 1,
                Err(_) => {}
            }
        }
        assert!(
            acyclic > 1000 && cyclic > 100,
            "{acyclic} acyclic, {cyclic} cyclic"
        );
    }

    #[test]
    fn diamond() {
        //   0
        //  / \
        // 1   2
        //  \ /
        //   3
        let d =
            Dag::from_edges(4, &[(t(0), t(1)), (t(0), t(2)), (t(1), t(3)), (t(2), t(3))]).unwrap();
        assert_eq!(d.parents(t(3)), &[t(1), t(2)]);
        assert_eq!(d.children(t(0)), &[t(1), t(2)]);
        assert_eq!(d.roots().collect::<Vec<_>>(), vec![t(0)]);
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![t(3)]);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.critical_path_edges(), 2);
        assert_eq!(d.max_fan_in(), 2);
    }

    #[test]
    fn topological_order_respects_edges() {
        let d =
            Dag::from_edges(5, &[(t(0), t(2)), (t(1), t(2)), (t(2), t(3)), (t(2), t(4))]).unwrap();
        let order = d.topological_order().unwrap();
        // Invert the permutation once instead of `iter().position` per
        // query (which made this helper O(n^2) on large DAGs).
        let mut pos = vec![usize::MAX; d.len()];
        for (i, &x) in order.iter().enumerate() {
            pos[x.0] = i;
        }
        for (u, v) in d.edges() {
            assert!(pos[u.0] < pos[v.0], "{u} must precede {v}");
        }
    }

    #[test]
    fn cycle_rejected() {
        let err = Dag::from_edges(2, &[(t(0), t(1)), (t(1), t(0))]).unwrap_err();
        assert!(err.contains("cycle"));
    }

    #[test]
    fn self_loop_rejected() {
        assert!(Dag::from_edges(1, &[(t(0), t(0))]).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Dag::from_edges(2, &[(t(0), t(5))]).is_err());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let d = Dag::from_edges(2, &[(t(0), t(1)), (t(0), t(1))]).unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn independent_and_chain() {
        let ind = Dag::independent(3);
        assert_eq!(ind.edge_count(), 0);
        assert_eq!(ind.roots().count(), 3);
        let ch = Dag::chain(4);
        assert_eq!(ch.edge_count(), 3);
        assert_eq!(ch.critical_path_edges(), 3);
        assert_eq!(ch.roots().collect::<Vec<_>>(), vec![t(0)]);
    }

    #[test]
    fn csr_adjacency_matches_edge_list() {
        // Unsorted, duplicated input edges: adjacency must come out
        // ascending and deduplicated in both directions.
        let edges = [
            (t(4), t(1)),
            (t(0), t(3)),
            (t(0), t(1)),
            (t(4), t(1)), // dup
            (t(2), t(3)),
            (t(0), t(5)),
        ];
        let d = Dag::from_edges(6, &edges).unwrap();
        assert_eq!(d.children(t(0)), &[t(1), t(3), t(5)]);
        assert_eq!(d.children(t(4)), &[t(1)]);
        assert_eq!(d.children(t(1)), &[]);
        assert_eq!(d.parents(t(1)), &[t(0), t(4)]);
        assert_eq!(d.parents(t(3)), &[t(0), t(2)]);
        assert_eq!(d.parents(t(0)), &[]);
        assert_eq!(d.edge_count(), 5);
        let listed: Vec<_> = d.edges().collect();
        assert_eq!(
            listed,
            vec![
                (t(0), t(1)),
                (t(0), t(3)),
                (t(0), t(5)),
                (t(2), t(3)),
                (t(4), t(1)),
            ]
        );
    }
}
