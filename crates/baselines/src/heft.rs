//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).
//!
//! The canonical DAG list scheduler of the heterogeneous-computing
//! literature, included as a context baseline the paper predates by two
//! years. HEFT orders subtasks by *upward rank* — the expected critical
//! path from the subtask to the DAG's sinks, using machine-averaged
//! execution and transfer costs — and places each, highest rank first,
//! on the machine minimizing its earliest finish time (with hole
//! insertion).
//!
//! Adaptation to the ad hoc grid model: versions fall back from primary
//! to secondary when a machine's battery (including the worst-case
//! outgoing-communication reservation) cannot fund the primary, exactly
//! like the other static baselines here.

use adhoc_grid::task::TaskId;
use adhoc_grid::workload::Scenario;
use gridsim::state::{SimState, StateBuffers};

use crate::greedy::earliest_finish;
use crate::outcome::StaticOutcome;

/// Machine-averaged upward ranks, the HEFT priority.
///
/// `rank(t) = w̄(t) + max_{c ∈ children(t)} ( c̄(t,c) + rank(c) )`, where
/// `w̄` is the mean primary execution time over machines and `c̄` the mean
/// transfer time of the edge's data item over distinct machine pairs.
pub fn upward_ranks(scenario: &Scenario) -> Vec<f64> {
    let m = scenario.grid.len();
    let mean_exec = |t: TaskId| -> f64 {
        scenario
            .grid
            .ids()
            .map(|j| scenario.etc.seconds(t, j))
            .sum::<f64>()
            / m as f64
    };
    // Mean transfer seconds for an edge, averaged over ordered distinct
    // machine pairs (same-machine transfers are free and excluded, as in
    // the standard HEFT formulation).
    let mean_transfer = |p: TaskId, c: TaskId| -> f64 {
        if m < 2 {
            return 0.0;
        }
        let g = scenario.data.edge(&scenario.dag, p, c);
        let mut total = 0.0;
        let mut pairs = 0u32;
        for (a, sa) in scenario.grid.iter() {
            for (b, sb) in scenario.grid.iter() {
                if a != b {
                    total += sa.transfer_dur(sb, g).as_seconds();
                    pairs += 1;
                }
            }
        }
        total / pairs as f64
    };

    let order = scenario
        .dag
        .topological_order()
        .expect("scenario DAGs are acyclic");
    let mut rank = vec![0.0f64; scenario.tasks()];
    for &t in order.iter().rev() {
        let tail = scenario
            .dag
            .children(t)
            .iter()
            .map(|&c| mean_transfer(t, c) + rank[c.0])
            .fold(0.0f64, f64::max);
        rank[t.0] = mean_exec(t) + tail;
    }
    rank
}

/// Run HEFT on `scenario`.
pub fn run_heft(scenario: &Scenario) -> StaticOutcome<'_> {
    run_heft_in(scenario, &mut StateBuffers::default())
}

/// [`run_heft`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
#[allow(clippy::while_let_loop)] // the loop also breaks on placement failure
pub fn run_heft_in<'a>(scenario: &'a Scenario, buffers: &mut StateBuffers) -> StaticOutcome<'a> {
    let rank = upward_ranks(scenario);
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut evaluated = 0u64;

    loop {
        // Highest upward rank among ready subtasks (ties: lower id).
        let Some(&t) = state.ready_tasks().iter().max_by(|&&a, &&b| {
            rank[a.0]
                .partial_cmp(&rank[b.0])
                .expect("ranks are finite")
                .then(b.cmp(&a))
        }) else {
            break;
        };

        // Earliest finish over machines, primary preferred per machine.
        let Some(plan) = earliest_finish(&state, t, &mut evaluated) else {
            break;
        };
        state.commit(&plan);
    }

    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    #[test]
    fn ranks_decrease_along_edges() {
        let sc = scenario(64);
        let rank = upward_ranks(&sc);
        for (u, v) in sc.dag.edges() {
            assert!(
                rank[u.0] > rank[v.0],
                "rank({u}) = {} must exceed rank({v}) = {}",
                rank[u.0],
                rank[v.0]
            );
        }
    }

    #[test]
    fn sinks_rank_equals_mean_exec() {
        let sc = scenario(32);
        let rank = upward_ranks(&sc);
        for t in sc.dag.sinks() {
            let mean =
                sc.grid.ids().map(|j| sc.etc.seconds(t, j)).sum::<f64>() / sc.grid.len() as f64;
            assert!((rank[t.0] - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn heft_maps_everything_and_validates() {
        let sc = scenario(64);
        let out = run_heft(&sc);
        assert!(out.metrics().fully_mapped());
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn heft_beats_olb_on_makespan() {
        // HEFT considers execution times and the critical path; OLB does
        // neither. On a 10x-heterogeneous grid HEFT must not lose.
        let sc = scenario(64);
        let heft = run_heft(&sc).metrics();
        let olb = crate::simple::run_olb(&sc).metrics();
        assert!(
            heft.aet <= olb.aet,
            "HEFT AET {} vs OLB AET {}",
            heft.aet,
            olb.aet
        );
    }

    #[test]
    fn deterministic() {
        let sc = scenario(48);
        assert_eq!(run_heft(&sc).metrics(), run_heft(&sc).metrics());
    }
}
