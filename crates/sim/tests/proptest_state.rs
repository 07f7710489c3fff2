//! Property tests for the simulation state: arbitrary feasible commit
//! sequences keep every invariant, every produced schedule validates, and
//! unmapping is an exact inverse of committing.

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::task::Version;
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use gridsim::plan::Placement;
use gridsim::state::SimState;
use gridsim::validate::validate;
use proptest::prelude::*;

/// Drive a state with a deterministic pseudo-random policy derived from
/// `decisions`: at each step pick a ready task, machine and version from
/// the stream; skip infeasible picks.
fn drive<'a>(sc: &'a Scenario, decisions: &[u8], placement_insert: bool) -> SimState<'a> {
    let mut st = SimState::new(sc);
    let mut d = decisions.iter().copied().cycle();
    let mut budget = decisions.len() * 4;
    while !st.all_mapped() && budget > 0 {
        budget -= 1;
        let ready = st.ready_tasks();
        if ready.is_empty() {
            break;
        }
        let t = ready[d.next().unwrap() as usize % ready.len()];
        let j = MachineId(d.next().unwrap() as usize % sc.grid.len());
        let v = if d.next().unwrap() % 3 == 0 {
            Version::Primary
        } else {
            Version::Secondary
        };
        if !st.version_feasible(t, v, j) {
            continue;
        }
        let placement = if placement_insert {
            Placement::Insert
        } else {
            Placement::Append {
                not_before: Time::ZERO,
            }
        };
        let plan = st.plan(t, v, j, placement);
        st.commit(&plan);
    }
    st
}

fn scenario(tasks: usize, case: GridCase, ids: (usize, usize)) -> Scenario {
    Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, ids.0, ids.1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever feasible commit sequence a heuristic produces, the
    /// schedule passes full physical validation and the ledger's
    /// invariants hold.
    #[test]
    fn arbitrary_commit_sequences_validate(
        decisions in prop::collection::vec(any::<u8>(), 16..200),
        case_idx in 0usize..3,
        etc_id in 0usize..3,
        dag_id in 0usize..3,
        insert in any::<bool>(),
    ) {
        let case = GridCase::ALL[case_idx];
        let sc = scenario(24, case, (etc_id, dag_id));
        let st = drive(&sc, &decisions, insert);
        let errs = validate(&st);
        prop_assert!(errs.is_empty(), "validation failed: {errs:?}");
        prop_assert!(st.ledger().check_invariants().is_ok());
    }

    /// Committing then unmapping the most recent sink-like mapping is a
    /// no-op on every observable quantity.
    #[test]
    fn unmap_is_exact_inverse(
        decisions in prop::collection::vec(any::<u8>(), 16..120),
        etc_id in 0usize..2,
    ) {
        let sc = scenario(16, GridCase::A, (etc_id, 0));
        let mut st = drive(&sc, &decisions, false);
        // Find a mapped task with no mapped children (always exists when
        // anything is mapped: take a mapped task of maximal id in
        // topological terms — scan for one whose children are all unmapped).
        let victim = sc
            .dag
            .tasks()
            .filter(|&t| st.is_mapped(t))
            .find(|&t| sc.dag.children(t).iter().all(|&c| !st.is_mapped(c)));
        let Some(victim) = victim else { return Ok(()); };

        let before_metrics = st.metrics();
        let before_available: Vec<f64> = sc
            .grid
            .ids()
            .map(|j| st.ledger().available(j).units())
            .collect();
        let before_reservations = st.ledger().outstanding_reservations();

        // Re-plan the victim's exact mapping so we can re-commit it.
        let a = *st.schedule().assignment(victim).unwrap();
        prop_assert!(st.unmap(victim).is_empty(), "fresh unmap cannot starve parents");
        prop_assert!(!st.is_mapped(victim));

        // Re-commit the same (version, machine) pair. The slot may
        // legitimately differ (the original came from an Append placement;
        // Insert may find an earlier hole), but every slot-independent
        // quantity must round-trip exactly.
        let plan = st.plan(victim, a.version, a.machine, Placement::Insert);
        prop_assert!(plan.start <= a.start, "insert can only move the slot earlier");
        st.commit(&plan);

        let after_metrics = st.metrics();
        prop_assert_eq!(before_metrics.t100, after_metrics.t100);
        prop_assert_eq!(before_metrics.mapped, after_metrics.mapped);
        prop_assert!(after_metrics.aet <= before_metrics.aet);
        prop_assert!((before_metrics.tec.units() - after_metrics.tec.units()).abs() < 1e-6);
        for (j, before) in sc.grid.ids().zip(before_available) {
            prop_assert!((st.ledger().available(j).units() - before).abs() < 1e-6);
        }
        prop_assert_eq!(st.ledger().outstanding_reservations(), before_reservations);
        prop_assert!(validate(&st).is_empty());
    }

    /// Battery is never overdrawn: committed + reserved <= B(j) at every
    /// step of every run (checked at the end; commits assert it live).
    #[test]
    fn batteries_never_overdrawn(
        decisions in prop::collection::vec(any::<u8>(), 64..256),
        case_idx in 0usize..3,
    ) {
        let case = GridCase::ALL[case_idx];
        let sc = scenario(32, case, (0, 1));
        let st = drive(&sc, &decisions, true);
        for j in sc.grid.ids() {
            let spent = st.ledger().committed(j) + st.ledger().reserved(j);
            prop_assert!(
                spent.units() <= st.ledger().battery(j).units() + 1e-9,
                "machine {j} overdrawn: {spent} of {}",
                st.ledger().battery(j)
            );
        }
    }
}
