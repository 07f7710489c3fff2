//! The DAG's edge numbering (`Dag`'s "Edge ids") and the per-edge arrays
//! built on it.

use adhoc_grid::config::GridCase;
use adhoc_grid::dag::Dag;
use adhoc_grid::data::DataSizes;
use adhoc_grid::task::TaskId;
use adhoc_grid::units::Megabits;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use proptest::prelude::*;

/// A random acyclic edge list over `n` tasks: each raw pair is oriented
/// along a random rank order (so edges run both up and down the id
/// range), self-pairs dropped, some pairs repeated, and the whole list
/// shuffled.
fn random_dag_edges(n: usize, raw: &[(u64, u64)], salt: u64) -> Vec<(TaskId, TaskId)> {
    let mut rank: Vec<u64> = (0..n as u64)
        .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    // Ties would break acyclicity of the rank order.
    for (i, r) in rank.iter_mut().enumerate() {
        *r = (*r & !0xFFFF_FFFF) | i as u64;
    }
    let mut edges: Vec<(TaskId, TaskId)> = raw
        .iter()
        .map(|&(a, b)| ((a % n as u64) as usize, (b % n as u64) as usize))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| {
            if rank[a] < rank[b] {
                (TaskId(a), TaskId(b))
            } else {
                (TaskId(b), TaskId(a))
            }
        })
        .collect();
    let dups: Vec<_> = edges.iter().step_by(3).copied().collect();
    edges.extend(dups);
    // Fisher–Yates with a fixed LCG: the input order must not matter.
    let mut state = salt | 1;
    for i in (1..edges.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        edges.swap(i, (state >> 33) as usize % (i + 1));
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Ids are a bijection onto `0..edge_count`, a task's in-ids are the
    /// consecutive run aligned with its ascending parents, the out-id
    /// list is aligned with `children`, and `edge_id` finds every edge
    /// and nothing else.
    #[test]
    fn edge_ids_number_every_edge_once(
        n in 1usize..200,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 0..600),
        salt in any::<u64>(),
    ) {
        let dag = Dag::from_edges(n, &random_dag_edges(n, &raw, salt)).expect("rank order is acyclic");
        let m = dag.edge_count();
        let mut seen = vec![None; m];
        for c in dag.tasks() {
            let ids = dag.in_edges(c);
            prop_assert_eq!(ids.len(), dag.parents(c).len());
            for (e, &p) in ids.zip(dag.parents(c)) {
                prop_assert!(seen[e].replace((p, c)).is_none(), "in-id {} used twice", e);
                prop_assert_eq!(dag.edge_id(p, c), Some(e));
            }
        }
        prop_assert!(seen.iter().all(Option::is_some), "ids leave a hole in 0..{}", m);
        let mut out_seen = 0;
        for p in dag.tasks() {
            let out = dag.out_edges(p);
            prop_assert_eq!(out.len(), dag.children(p).len());
            for (&e, &c) in out.iter().zip(dag.children(p)) {
                prop_assert_eq!(seen[e as usize], Some((p, c)), "out-id {} misaligned", e);
                out_seen += 1;
            }
        }
        prop_assert_eq!(out_seen, m);
        for p in dag.tasks() {
            for c in dag.tasks() {
                let is_edge = dag.parents(c).contains(&p);
                prop_assert_eq!(dag.edge_id(p, c).is_some(), is_edge);
            }
        }
        prop_assert_eq!(dag.edge_id(TaskId(0), TaskId(n)), None);
    }

    /// `from_edge_list` rebuilds the sizes it was given, in any order.
    #[test]
    fn data_sizes_round_trip_through_an_edge_list(
        n in 2usize..120,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..300),
        salt in any::<u64>(),
    ) {
        let dag = Dag::from_edges(n, &random_dag_edges(n, &raw, salt)).expect("acyclic");
        let data = DataSizes::generate(&dag, &adhoc_grid::data::DataGenParams::paper(), salt);
        let mut list: Vec<_> = dag.edges().map(|(p, c)| (p, c, data.edge(&dag, p, c))).collect();
        list.reverse();
        prop_assert_eq!(DataSizes::from_edge_list(&dag, &list), Ok(data.clone()));
        for (p, c) in dag.edges() {
            let e = dag.edge_id(p, c).expect("an edge");
            prop_assert_eq!(data.by_id(e).value().to_bits(), data.edge(&dag, p, c).value().to_bits());
        }
        // One edge listed twice in place of another: right count, wrong set.
        if list.len() > 1 {
            let last = list.len() - 1;
            list[last] = list[0];
            prop_assert!(DataSizes::from_edge_list(&dag, &list).is_err());
        }
    }
}

/// FNV-1a over every size's bits, in edge-id order.
fn size_digest(sc: &Scenario) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in 0..sc.dag.edge_count() {
        for b in sc.data.by_id(e).value().to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The flat layout draws the same sizes in the same order as the
/// per-task rows it replaced: digests recorded at the parent commit
/// (`sizes[child][p]` walked child by child, parent by parent).
#[test]
fn paper_data_sizes_are_bit_identical_to_the_per_task_layout() {
    for (dag_id, edges, digest, total_bits) in [
        (
            0,
            2016,
            0xe6c9_73e3_6c5b_8d40_u64,
            4_652_621_573_560_564_489_u64,
        ),
        (7, 2036, 0x9949_a77b_12eb_dec0, 4_652_704_722_781_423_370),
    ] {
        let sc = Scenario::generate(&ScenarioParams::paper(), GridCase::A, 0, dag_id);
        assert_eq!(sc.dag.edge_count(), edges, "dag {dag_id}");
        assert_eq!(size_digest(&sc), digest, "dag {dag_id}");
        assert_eq!(
            sc.data.total().value().to_bits(),
            total_bits,
            "dag {dag_id}"
        );
    }
}

#[test]
fn from_edge_list_rejects_non_edges_and_duplicates() {
    let dag = Dag::chain(3);
    let g = Megabits(1.0);
    let ok = [(TaskId(0), TaskId(1), g), (TaskId(1), TaskId(2), g)];
    assert!(DataSizes::from_edge_list(&dag, &ok).is_ok());
    let off_dag = [(TaskId(0), TaskId(2), g), (TaskId(1), TaskId(2), g)];
    assert!(DataSizes::from_edge_list(&dag, &off_dag)
        .unwrap_err()
        .contains("is not a DAG edge"));
    let out_of_range = [(TaskId(0), TaskId(1), g), (TaskId(1), TaskId(9), g)];
    assert!(DataSizes::from_edge_list(&dag, &out_of_range).is_err());
    let dup = [(TaskId(0), TaskId(1), g), (TaskId(0), TaskId(1), g)];
    assert!(DataSizes::from_edge_list(&dag, &dup)
        .unwrap_err()
        .contains("duplicate size"));
}
