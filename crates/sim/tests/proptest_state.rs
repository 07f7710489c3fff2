//! Property tests for the simulation state: arbitrary feasible commit
//! sequences keep every invariant, every produced schedule validates,
//! unmapping is an exact inverse of committing, and any legal mix of
//! commits, unmap cascades, losses and arrivals bumps the revision once
//! per mutation and lands on the same state whether it starts fresh or
//! on recycled buffers. The mixed driver also checks the incremental
//! bookkeeping after every mutation: the cached AET against a full scan,
//! and the transfer list and its per-child index against the
//! retain-and-rebuild they replace.

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use gridsim::plan::Placement;
use gridsim::schedule::Transfer;
use gridsim::state::SimState;
use gridsim::validate::validate;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// The state's incremental bookkeeping against a from-scratch rebuild:
/// the cached AET equals a full scan of the schedule, and for every DAG
/// edge the per-child transfer index answers what a forward scan of
/// the transfer list finds (the first transfer per edge, in order).
fn check_bookkeeping(sc: &Scenario, st: &SimState<'_>) {
    let schedule = st.schedule();
    assert_eq!(st.aet(), schedule.aet(), "cached AET drifted from the scan");
    let transfers = schedule.transfers();
    for c in sc.dag.tasks() {
        let mut fresh: Vec<&Transfer> = Vec::new();
        for tr in transfers.iter().filter(|tr| tr.child == c) {
            if !fresh.iter().any(|f| f.parent == tr.parent) {
                fresh.push(tr);
            }
        }
        let indexed: Vec<&Transfer> = schedule.incoming_transfers(c).collect();
        assert_eq!(indexed, fresh, "incoming index of {c} is stale");
        for &p in sc.dag.parents(c) {
            let scanned = fresh.iter().find(|tr| tr.parent == p).copied();
            assert_eq!(
                schedule.transfer_between(p, c),
                scanned,
                "edge {p} -> {c} is indexed wrongly"
            );
        }
    }
}

/// Unmap `t` and honour the [`SimState::unmap`] contract: mapped
/// children come off first (reverse topological order) and starved
/// parents are cascaded. Counts every unmap in `mutations`.
fn unmap_cascade(sc: &Scenario, st: &mut SimState<'_>, mutations: &mut u64, t: TaskId) {
    while let Some(c) = sc
        .dag
        .children(t)
        .iter()
        .copied()
        .find(|&c| st.is_mapped(c))
    {
        unmap_cascade(sc, st, mutations, c);
    }
    if !st.is_mapped(t) {
        return;
    }
    *mutations += 1;
    let expected: Vec<Transfer> = st
        .schedule()
        .transfers()
        .iter()
        .filter(|tr| tr.child != t)
        .copied()
        .collect();
    let starved = st.unmap(t).to_vec();
    assert_eq!(
        st.schedule().transfers(),
        &expected[..],
        "unmap({t}) must drop exactly its incoming transfers, in order"
    );
    check_bookkeeping(sc, st);
    for p in starved {
        if st.is_mapped(p) {
            unmap_cascade(sc, st, mutations, p);
        }
    }
}

/// Commit a ready task picked from the stream, skipping infeasible picks
/// (lost machines fail feasibility) and machines in `pending`. Returns
/// whether it committed.
fn commit_pick(
    sc: &Scenario,
    st: &mut SimState<'_>,
    next: &mut impl FnMut() -> u8,
    pending: &[MachineId],
) -> bool {
    let ready = st.ready_tasks();
    if ready.is_empty() {
        return false;
    }
    let t = ready[next() as usize % ready.len()];
    let j = MachineId(next() as usize % sc.grid.len());
    if pending.contains(&j) {
        return false;
    }
    let v = if next().is_multiple_of(3) {
        Version::Primary
    } else {
        Version::Secondary
    };
    if !st.version_feasible(t, v, j) {
        return false;
    }
    let plan = st.plan(
        t,
        v,
        j,
        Placement::Append {
            not_before: Time::ZERO,
        },
    );
    st.commit(&plan);
    true
}

/// Drive `st` with a deterministic pseudo-random policy that mixes every
/// mutation kind: arrivals rolled up front, then mostly commits, unmap
/// cascades and losses, checking the bookkeeping after each mutation.
/// Returns the number of mutations applied.
fn drive_mixed(sc: &Scenario, st: &mut SimState<'_>, decisions: &[u8]) -> u64 {
    let mut d = decisions.iter().copied().cycle();
    let mut next = move || d.next().unwrap();
    let mut mutations = 0;

    // Arrivals must precede any work on the machine, so roll them first,
    // keeping machines 0 and 1 immediately available.
    for j in 2..sc.grid.len() {
        if next().is_multiple_of(4) {
            let at = Time(10 + u64::from(next()) % 90);
            st.block_until(MachineId(j), at);
            mutations += 1;
            check_bookkeeping(sc, st);
        }
    }

    let mut alive = sc.grid.len();
    for _ in 0..decisions.len() * 4 {
        match next() % 16 {
            0..=11 => {
                mutations += u64::from(commit_pick(sc, st, &mut next, &[]));
                check_bookkeeping(sc, st);
            }
            // Unmap a mapped task with no mapped children, cascading
            // any starved parents the unmap reports.
            12 | 13 => {
                let victim = sc
                    .dag
                    .tasks()
                    .filter(|&t| st.is_mapped(t))
                    .find(|&t| sc.dag.children(t).iter().all(|&c| !st.is_mapped(c)));
                if let Some(t) = victim {
                    unmap_cascade(sc, st, &mut mutations, t);
                }
            }
            // Lose an alive machine, keeping at least one alive.
            14 => {
                let j = MachineId(next() as usize % sc.grid.len());
                if alive <= 1 || !st.is_alive(j) {
                    continue;
                }
                st.mark_lost(j, Time(u64::from(next()) % 200));
                mutations += 1;
                alive -= 1;
                check_bookkeeping(sc, st);
            }
            _ => {}
        }
    }
    mutations
}

/// Drive `st` with arrivals *interleaved* with losses and commits (the
/// open-system regime: a machine may join after others were lost).
/// Commits skip machines whose arrival has not been rolled yet. Returns
/// the number of mutations applied.
fn drive_interleaved(sc: &Scenario, st: &mut SimState<'_>, decisions: &[u8]) -> u64 {
    let mut d = decisions.iter().copied().cycle();
    let mut next = move || d.next().unwrap();
    let mut mutations = 0;

    // Machines 1.. start pending and join when the loop rolls their
    // arrival; machine 0 is available from the start.
    let mut pending: Vec<MachineId> = sc.grid.ids().skip(1).collect();
    let mut alive = sc.grid.len();
    for _ in 0..decisions.len() * 4 {
        match next() % 16 {
            0..=9 => mutations += u64::from(commit_pick(sc, st, &mut next, &pending)),
            10..=12 => {
                if pending.is_empty() {
                    continue;
                }
                let j = pending.swap_remove(next() as usize % pending.len());
                st.block_until(j, Time(10 + u64::from(next()) % 190));
                mutations += 1;
            }
            // Lose an arrived machine, keeping at least one alive.
            13 | 14 => {
                let j = MachineId(next() as usize % sc.grid.len());
                if alive <= 1 || !st.is_alive(j) || pending.contains(&j) {
                    continue;
                }
                st.mark_lost(j, Time(u64::from(next()) % 200));
                mutations += 1;
                alive -= 1;
            }
            _ => {}
        }
    }
    mutations
}

type Driver = fn(&Scenario, &mut SimState<'_>, &[u8]) -> u64;

/// Run `drive` on a fresh state, then on buffers recycled from a run of
/// the reversed decisions. Each run bumps the revision once per mutation
/// and keeps the ledger consistent, and the two land on the same state.
fn counted_and_repeatable(
    sc: &Scenario,
    decisions: &[u8],
    drive: Driver,
) -> Result<(), TestCaseError> {
    let mut fresh = SimState::new(sc);
    let mutations = drive(sc, &mut fresh, decisions);
    prop_assert_eq!(fresh.revision(), mutations);
    prop_assert_eq!(fresh.ledger().check_invariants(), Ok(()));

    let mut donor = SimState::new(sc);
    let reversed: Vec<u8> = decisions.iter().rev().copied().collect();
    drive(sc, &mut donor, &reversed);
    let mut recycled = SimState::new_in(sc, donor.into_buffers());
    prop_assert_eq!(drive(sc, &mut recycled, decisions), mutations);
    prop_assert_eq!(recycled.ledger().check_invariants(), Ok(()));

    prop_assert_eq!(recycled.revision(), fresh.revision());
    prop_assert_eq!(recycled.metrics(), fresh.metrics());
    prop_assert_eq!(recycled.ready_tasks(), fresh.ready_tasks());
    prop_assert_eq!(
        recycled.schedule().assignments().collect::<Vec<_>>(),
        fresh.schedule().assignments().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        recycled.schedule().transfers(),
        fresh.schedule().transfers()
    );
    for j in sc.grid.ids() {
        prop_assert_eq!(recycled.lost_at(j), fresh.lost_at(j));
        prop_assert_eq!(recycled.available_from(j), fresh.available_from(j));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Commits, unmap cascades and losses after up-front arrivals.
    #[test]
    fn mixed_mutations_are_counted_and_repeatable(
        decisions in prop::collection::vec(any::<u8>(), 32..220),
        case_idx in 0usize..3,
        etc_id in 0usize..3,
        dag_id in 0usize..3,
    ) {
        let sc = scenario(20, GridCase::ALL[case_idx], (etc_id, dag_id));
        counted_and_repeatable(&sc, &decisions, drive_mixed)?;
    }

    /// Arrivals landing between commits and losses, not only before them.
    #[test]
    fn interleaved_arrivals_are_counted_and_repeatable(
        decisions in prop::collection::vec(any::<u8>(), 48..220),
        case_idx in 0usize..3,
        dag_id in 0usize..3,
    ) {
        let sc = scenario(20, GridCase::ALL[case_idx], (1, dag_id));
        counted_and_repeatable(&sc, &decisions, drive_interleaved)?;
    }
}
