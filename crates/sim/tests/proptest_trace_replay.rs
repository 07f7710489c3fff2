//! Property tests for [`EventTrace`] replay: recording an arbitrary
//! legal mutation sequence (commits, unmaps, losses, arrivals) and
//! replaying it against a fresh state reproduces the original final
//! state exactly — same revision, same metrics, same schedule, same
//! per-machine loss marks. This is the round-trip the stress harness's
//! differential oracles build on.

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::task::Version;
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use gridsim::plan::Placement;
use gridsim::state::SimState;
use gridsim::trace::{EventTrace, ReplayOp};
use proptest::prelude::*;

/// Unmap `t` and honour the [`SimState::unmap`] contract: mapped
/// children come off first (reverse topological order) and starved
/// parents are cascaded, recording every op.
fn unmap_cascade(sc: &Scenario, st: &mut SimState<'_>, rec: &mut EventTrace, t: adhoc_grid::task::TaskId) {
    loop {
        let child = sc.dag.children(t).iter().copied().find(|&c| st.is_mapped(c));
        match child {
            Some(c) => unmap_cascade(sc, st, rec, c),
            None => break,
        }
    }
    if !st.is_mapped(t) {
        return;
    }
    rec.record(ReplayOp::Unmap(t));
    for p in st.unmap(t).to_vec() {
        if st.is_mapped(p) {
            unmap_cascade(sc, st, rec, p);
        }
    }
}

/// Drive a state with a deterministic pseudo-random policy that mixes
/// every mutation kind, recording each applied op.
fn drive_recorded<'a>(sc: &'a Scenario, decisions: &[u8]) -> (SimState<'a>, EventTrace) {
    let mut st = SimState::new(sc);
    let mut rec = EventTrace::new();
    let mut d = decisions.iter().copied().cycle();
    let mut next = move || d.next().unwrap();

    // Arrivals must precede any work on the machine, so roll them first,
    // keeping machines 0 and 1 immediately available.
    for j in 2..sc.grid.len() {
        if next() % 4 == 0 {
            let at = Time(10 + u64::from(next()) % 90);
            rec.record(ReplayOp::BlockUntil(MachineId(j), at));
            st.block_until(MachineId(j), at);
        }
    }

    let mut alive = sc.grid.len();
    let mut budget = decisions.len() * 4;
    while budget > 0 {
        budget -= 1;
        match next() % 16 {
            // Mostly commits: pick a ready task, machine and version,
            // skipping infeasible picks (lost machines fail feasibility).
            0..=11 => {
                let ready = st.ready_tasks();
                if ready.is_empty() {
                    continue;
                }
                let t = ready[next() as usize % ready.len()];
                let j = MachineId(next() as usize % sc.grid.len());
                let v = if next() % 3 == 0 {
                    Version::Primary
                } else {
                    Version::Secondary
                };
                if !st.version_feasible(t, v, j) {
                    continue;
                }
                let plan = st.plan(t, v, j, Placement::Append {
                    not_before: Time::ZERO,
                });
                rec.record_commit(&plan);
                st.commit(&plan);
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
                    unmap_cascade(sc, &mut st, &mut rec, t);
                }
            }
            // Lose an alive machine, keeping at least one alive.
            14 => {
                if alive <= 1 {
                    continue;
                }
                let j = MachineId(next() as usize % sc.grid.len());
                if !st.is_alive(j) {
                    continue;
                }
                let at = Time(u64::from(next()) % 200);
                rec.record(ReplayOp::MarkLost(j, at));
                st.mark_lost(j, at);
                alive -= 1;
            }
            _ => {}
        }
    }
    (st, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replaying a recorded mutation sequence on a fresh state of the
    /// same scenario reproduces the final state exactly.
    #[test]
    fn replay_reproduces_final_state(
        decisions in prop::collection::vec(any::<u8>(), 32..220),
        case_idx in 0usize..3,
        etc_id in 0usize..3,
        dag_id in 0usize..3,
    ) {
        let case = GridCase::ALL[case_idx];
        let sc = Scenario::generate(
            &ScenarioParams::paper_scaled(20),
            case,
            etc_id,
            dag_id,
        );
        let (original, rec) = drive_recorded(&sc, &decisions);

        // Every mutation bumps the revision by exactly one, so the final
        // revision equals the op count.
        prop_assert_eq!(original.revision(), rec.len() as u64);

        let replayed = rec.replay(&sc);
        prop_assert_eq!(replayed.revision(), original.revision());
        prop_assert_eq!(replayed.metrics(), original.metrics());
        prop_assert_eq!(replayed.mapped_count(), original.mapped_count());
        prop_assert_eq!(replayed.ready_tasks(), original.ready_tasks());
        prop_assert_eq!(
            replayed.schedule().assignments().collect::<Vec<_>>(),
            original.schedule().assignments().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            replayed.schedule().transfers(),
            original.schedule().transfers()
        );
        for j in sc.grid.ids() {
            prop_assert_eq!(replayed.lost_at(j), original.lost_at(j));
            prop_assert!(
                replayed
                    .ledger()
                    .available(j)
                    .approx_eq(original.ledger().available(j), 1e-12),
                "ledger availability diverged on {}", j
            );
        }
        // The replayed state is as internally consistent as the original.
        prop_assert_eq!(replayed.ledger().check_invariants(), Ok(()));
    }

    /// Replay is deterministic: two replays of one recording agree.
    #[test]
    fn replay_is_deterministic(
        decisions in prop::collection::vec(any::<u8>(), 32..120),
        dag_id in 0usize..4,
    ) {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::B, 0, dag_id);
        let (_, rec) = drive_recorded(&sc, &decisions);
        let a = rec.replay(&sc);
        let b = rec.replay(&sc);
        prop_assert_eq!(a.revision(), b.revision());
        prop_assert_eq!(a.metrics(), b.metrics());
        prop_assert_eq!(
            a.schedule().assignments().collect::<Vec<_>>(),
            b.schedule().assignments().collect::<Vec<_>>()
        );
        prop_assert_eq!(a.schedule().transfers(), b.schedule().transfers());
    }
}

/// Drive a state where machine arrivals are *interleaved* with losses
/// and commits mid-sequence (the open-system regime: a machine may join
/// after other machines have already been lost), rather than all rolled
/// up front. `BlockUntil` must still precede any work on its machine,
/// so commits skip machines whose arrival has not been rolled yet.
fn drive_interleaved<'a>(sc: &'a Scenario, decisions: &[u8]) -> (SimState<'a>, EventTrace) {
    let mut st = SimState::new(sc);
    let mut rec = EventTrace::new();
    let mut d = decisions.iter().copied().cycle();
    let mut next = move || d.next().unwrap();

    // Machines 1.. start "pending": they join only when the loop rolls
    // their arrival. Machine 0 is available immediately so the schedule
    // is never empty-handed.
    let mut pending: Vec<MachineId> = sc.grid.ids().skip(1).collect();
    let mut alive = sc.grid.len();
    let mut budget = decisions.len() * 4;
    while budget > 0 {
        budget -= 1;
        match next() % 16 {
            0..=9 => {
                let ready = st.ready_tasks();
                if ready.is_empty() {
                    continue;
                }
                let t = ready[next() as usize % ready.len()];
                let j = MachineId(next() as usize % sc.grid.len());
                if pending.contains(&j) {
                    continue;
                }
                let v = if next() % 3 == 0 {
                    Version::Primary
                } else {
                    Version::Secondary
                };
                if !st.version_feasible(t, v, j) {
                    continue;
                }
                let plan = st.plan(t, v, j, Placement::Append {
                    not_before: Time::ZERO,
                });
                rec.record_commit(&plan);
                st.commit(&plan);
            }
            // Mid-sequence arrival: an untouched machine joins now,
            // possibly after losses elsewhere.
            10..=12 => {
                if pending.is_empty() {
                    continue;
                }
                let j = pending.swap_remove(next() as usize % pending.len());
                let at = Time(10 + u64::from(next()) % 190);
                rec.record(ReplayOp::BlockUntil(j, at));
                st.block_until(j, at);
            }
            // Lose an arrived machine, keeping at least one alive.
            13 | 14 => {
                if alive <= 1 {
                    continue;
                }
                let j = MachineId(next() as usize % sc.grid.len());
                if !st.is_alive(j) || pending.contains(&j) {
                    continue;
                }
                let at = Time(u64::from(next()) % 200);
                rec.record(ReplayOp::MarkLost(j, at));
                st.mark_lost(j, at);
                alive -= 1;
            }
            _ => {}
        }
    }
    (st, rec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replay reproduces a sequence in which arrivals land between
    /// commits and losses, not only before them.
    #[test]
    fn replay_handles_arrivals_interleaved_with_losses(
        decisions in prop::collection::vec(any::<u8>(), 48..220),
        case_idx in 0usize..3,
        dag_id in 0usize..3,
    ) {
        let case = GridCase::ALL[case_idx];
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(20), case, 1, dag_id);
        let (original, rec) = drive_interleaved(&sc, &decisions);
        prop_assert_eq!(original.revision(), rec.len() as u64);

        let replayed = rec.replay(&sc);
        prop_assert_eq!(replayed.revision(), original.revision());
        prop_assert_eq!(replayed.metrics(), original.metrics());
        prop_assert_eq!(
            replayed.schedule().assignments().collect::<Vec<_>>(),
            original.schedule().assignments().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            replayed.schedule().transfers(),
            original.schedule().transfers()
        );
        for j in sc.grid.ids() {
            prop_assert_eq!(replayed.lost_at(j), original.lost_at(j));
        }
        prop_assert_eq!(replayed.ledger().check_invariants(), Ok(()));
    }
}
