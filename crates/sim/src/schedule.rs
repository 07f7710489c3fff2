//! The schedule produced by a heuristic: subtask assignments and the data
//! transfers that feed them.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Energy, Megabits, Time};

/// One mapped subtask.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Assignment {
    /// Which subtask.
    pub task: TaskId,
    /// Which version was mapped.
    pub version: Version,
    /// Which machine executes it.
    pub machine: MachineId,
    /// Execution start.
    pub start: Time,
    /// Execution duration.
    pub dur: Dur,
    /// Energy committed for the execution.
    pub energy: Energy,
}

impl Assignment {
    /// First tick after execution completes.
    #[inline]
    pub fn finish(&self) -> Time {
        self.start + self.dur
    }
}

/// One scheduled cross-machine data transfer.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Transfer {
    /// Producing subtask.
    pub parent: TaskId,
    /// Consuming subtask.
    pub child: TaskId,
    /// Sending machine (pays the energy).
    pub from: MachineId,
    /// Receiving machine.
    pub to: MachineId,
    /// Item size actually shipped (after the parent's version factor).
    pub size: Megabits,
    /// Transfer start.
    pub start: Time,
    /// Transfer duration.
    pub dur: Dur,
    /// Energy charged to the sender.
    pub energy: Energy,
}

impl Transfer {
    /// First tick after the data has fully arrived.
    #[inline]
    pub fn finish(&self) -> Time {
        self.start + self.dur
    }
}

/// The complete output of a mapping run.
///
/// Alongside the flat transfer list (kept in commit order — the order
/// trace rendering and validation iterate), the schedule maintains a
/// per-child index over transfers, so `(parent, child) → Transfer`
/// lookups are O(fan-in) instead of a scan over every transfer in the
/// run. The dynamic loss cascade and `SimState::unmap` query transfers
/// by edge on every invalidated subtask; without the index those paths
/// are quadratic in schedule size. For the same reason an unmap drops
/// its subtask's transfers with [`Schedule::remove_transfers_to`], which
/// moves only the log's tail from the subtask's first transfer and
/// repairs the index there, instead of filtering the whole log and
/// rebuilding the whole index.
///
/// `Default` is the zero-task schedule — only useful as donated storage
/// for [`Schedule::reset`].
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    assignments: Vec<Option<Assignment>>,
    /// Count of `Some` entries in `assignments`, maintained by
    /// `assign`/`unmap`/`reset`. The SLRH clock loop asks "all mapped?"
    /// once per machine per tick, so the count must not be a scan.
    mapped: usize,
    transfers: Vec<Transfer>,
    /// `incoming[c]` lists `(parent, position in transfers)` for every
    /// indexed transfer whose child is `c`, in insertion (commit) order.
    /// Only the *first* transfer for a given edge is indexed, matching
    /// what a linear forward scan would find; duplicate edges can only
    /// be produced by hand-built schedules (the validator rejects them).
    incoming: Vec<Vec<(TaskId, u32)>>,
}

impl Schedule {
    /// An empty schedule over `tasks` subtasks.
    pub fn new(tasks: usize) -> Schedule {
        let mut schedule = Schedule {
            assignments: Vec::new(),
            mapped: 0,
            transfers: Vec::new(),
            incoming: Vec::new(),
        };
        schedule.reset(tasks);
        schedule
    }

    /// Empty the schedule back to the [`Schedule::new`]`(tasks)` state in
    /// place, preserving heap capacity (including each retained per-child
    /// index slot) so the run-context reuse path allocates nothing in the
    /// steady state.
    pub fn reset(&mut self, tasks: usize) {
        self.assignments.clear();
        self.mapped = 0;
        self.assignments.resize(tasks, None);
        self.transfers.clear();
        for slot in &mut self.incoming {
            slot.clear();
        }
        self.incoming.resize_with(tasks, Vec::new);
    }

    /// Number of subtasks the schedule covers (mapped or not).
    pub fn tasks(&self) -> usize {
        self.assignments.len()
    }

    /// The assignment of `t`, if mapped.
    pub fn assignment(&self, t: TaskId) -> Option<&Assignment> {
        self.assignments[t.0].as_ref()
    }

    /// True when `t` has been mapped.
    pub fn is_mapped(&self, t: TaskId) -> bool {
        self.assignments[t.0].is_some()
    }

    /// Record an assignment.
    ///
    /// # Panics
    /// Panics if `t` is already mapped (remapping requires
    /// [`Schedule::unmap`] first) or the record is for a different task.
    pub fn assign(&mut self, a: Assignment) {
        assert!(
            self.assignments[a.task.0].is_none(),
            "{} is already mapped",
            a.task
        );
        self.assignments[a.task.0] = Some(a);
        self.mapped += 1;
    }

    /// Remove the assignment of `t` (used by the dynamic remapping
    /// extension when a machine is lost). Associated transfers must be
    /// removed by the caller via [`Schedule::remove_transfers_to`].
    pub fn unmap(&mut self, t: TaskId) -> Option<Assignment> {
        let old = self.assignments[t.0].take();
        self.mapped -= usize::from(old.is_some());
        old
    }

    /// Record a transfer.
    pub fn add_transfer(&mut self, tr: Transfer) {
        self.index(&tr, self.transfers.len());
        self.transfers.push(tr);
    }

    /// Index `tr`, stored at `pos`, unless its edge already has an
    /// indexed transfer: the index holds the first transfer per edge.
    fn index(&mut self, tr: &Transfer, pos: usize) {
        let slot = &mut self.incoming[tr.child.0];
        if !slot.iter().any(|&(p, _)| p == tr.parent) {
            slot.push((tr.parent, pos as u32));
        }
    }

    /// All recorded transfers, in commit order.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// The transfer shipping `parent`'s output to `child`, if one is
    /// scheduled. O(fan-in of `child`) via the per-child index — the
    /// first matching transfer in commit order, exactly what a forward
    /// scan of [`Schedule::transfers`] would return.
    pub fn transfer_between(&self, parent: TaskId, child: TaskId) -> Option<&Transfer> {
        self.incoming[child.0]
            .iter()
            .find(|&&(p, _)| p == parent)
            .map(|&(_, pos)| &self.transfers[pos as usize])
    }

    /// All indexed transfers delivering data to `child`, in commit order
    /// (which is ascending parent id: plans schedule incoming transfers
    /// parent-by-parent).
    pub fn incoming_transfers(&self, child: TaskId) -> impl Iterator<Item = &Transfer> + '_ {
        self.incoming[child.0]
            .iter()
            .map(|&(_, pos)| &self.transfers[pos as usize])
    }

    /// Remove every transfer into `child`, keeping the others in commit
    /// order (used by `SimState::unmap`).
    ///
    /// Every transfer into `child` sits at or after its first indexed
    /// one, `p0`, so only the tail `transfers[p0..]` moves: the tail's
    /// index entries are dropped, the tail is compacted in order without
    /// `child`'s transfers, and each survivor is re-indexed under the
    /// first-transfer-per-edge rule. Transfers before `p0` and their
    /// index entries stay as they are. The cost is the tail's length,
    /// not the schedule's, and nothing is allocated.
    pub fn remove_transfers_to(&mut self, child: TaskId) {
        let Some(p0) = self.incoming[child.0].iter().map(|&(_, pos)| pos).min() else {
            return;
        };
        let p0 = p0 as usize;
        for tr in &self.transfers[p0..] {
            self.incoming[tr.child.0].retain(|&(_, pos)| (pos as usize) < p0);
        }
        let mut kept = p0;
        for pos in p0..self.transfers.len() {
            let tr = self.transfers[pos];
            if tr.child == child {
                continue;
            }
            self.transfers[kept] = tr;
            self.index(&tr, kept);
            kept += 1;
        }
        self.transfers.truncate(kept);
    }

    /// All assignments present, in task-id order.
    pub fn assignments(&self) -> impl Iterator<Item = &Assignment> {
        self.assignments.iter().filter_map(Option::as_ref)
    }

    /// Number of mapped subtasks. O(1): maintained incrementally, never
    /// recounted (debug builds assert it against the slow scan).
    pub fn mapped_count(&self) -> usize {
        debug_assert_eq!(
            self.mapped,
            self.assignments.iter().filter(|a| a.is_some()).count()
        );
        self.mapped
    }

    /// Number of subtasks mapped at the primary level — the paper's `T100`.
    pub fn t100(&self) -> usize {
        self.assignments()
            .filter(|a| a.version.is_primary())
            .count()
    }

    /// The application execution time `AET`: the finish of the last
    /// assignment (`Time::ZERO` when nothing is mapped).
    pub fn aet(&self) -> Time {
        self.assignments()
            .map(Assignment::finish)
            .max()
            .unwrap_or(Time::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(task: usize, version: Version, start: u64, dur: u64) -> Assignment {
        Assignment {
            task: TaskId(task),
            version,
            machine: MachineId(0),
            start: Time(start),
            dur: Dur(dur),
            energy: Energy(1.0),
        }
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(3);
        assert_eq!(s.tasks(), 3);
        assert_eq!(s.mapped_count(), 0);
        assert_eq!(s.t100(), 0);
        assert_eq!(s.aet(), Time::ZERO);
        assert!(!s.is_mapped(TaskId(0)));
    }

    #[test]
    fn counting_and_aet() {
        let mut s = Schedule::new(3);
        s.assign(asg(0, Version::Primary, 0, 10));
        s.assign(asg(2, Version::Secondary, 5, 20));
        assert_eq!(s.mapped_count(), 2);
        assert_eq!(s.t100(), 1);
        assert_eq!(s.aet(), Time(25));
        assert_eq!(s.assignment(TaskId(2)).unwrap().finish(), Time(25));
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_assign_panics() {
        let mut s = Schedule::new(1);
        s.assign(asg(0, Version::Primary, 0, 1));
        s.assign(asg(0, Version::Secondary, 0, 1));
    }

    #[test]
    fn unmap_then_reassign() {
        let mut s = Schedule::new(1);
        s.assign(asg(0, Version::Primary, 0, 10));
        let old = s.unmap(TaskId(0)).unwrap();
        assert_eq!(old.version, Version::Primary);
        s.assign(asg(0, Version::Secondary, 0, 1));
        assert_eq!(s.t100(), 0);
    }

    /// The oracle for [`Schedule::remove_transfers_to`]: keep the
    /// transfers the predicate accepts and rebuild the whole per-child
    /// index from the survivors.
    fn retain_transfers(s: &mut Schedule, f: impl FnMut(&Transfer) -> bool) {
        s.transfers.retain(f);
        for slot in &mut s.incoming {
            slot.clear();
        }
        for (pos, tr) in s.transfers.iter().enumerate() {
            let slot = &mut s.incoming[tr.child.0];
            if !slot.iter().any(|&(p, _)| p == tr.parent) {
                slot.push((tr.parent, pos as u32));
            }
        }
    }

    fn tr(parent: usize, child: usize, start: u64) -> Transfer {
        Transfer {
            parent: TaskId(parent),
            child: TaskId(child),
            from: MachineId(0),
            to: MachineId(1),
            size: Megabits(1.0),
            start: Time(start),
            dur: Dur(1),
            energy: Energy(0.02),
        }
    }

    #[test]
    fn removing_a_childs_transfers_equals_retain_and_rebuild() {
        // Child 3's transfers sit at positions 0, 2 and 3 (not
        // contiguous), and the edge 0 -> 3 is recorded twice; child 4's
        // at 1, 5, 6 and 7, with the edge 1 -> 4 twice too.
        let edges = [
            (0, 3),
            (1, 4),
            (0, 3),
            (2, 3),
            (1, 5),
            (2, 4),
            (1, 4),
            (0, 4),
            (3, 5),
        ];
        let mut built = Schedule::new(6);
        for (i, &(p, c)) in edges.iter().enumerate() {
            built.add_transfer(tr(p, c, i as u64));
        }
        for first in 0..6 {
            let (mut fast, mut oracle) = (built.clone(), built.clone());
            for k in 0..6 {
                let child = TaskId((first + k) % 6);
                fast.remove_transfers_to(child);
                retain_transfers(&mut oracle, |t| t.child != child);
                assert_eq!(fast.transfers, oracle.transfers, "after removing {child}");
                assert_eq!(fast.incoming, oracle.incoming, "after removing {child}");
            }
            assert!(fast.transfers().is_empty());
        }
    }

    #[test]
    fn transfers_roundtrip() {
        let mut s = Schedule::new(2);
        let tr = Transfer {
            parent: TaskId(0),
            child: TaskId(1),
            from: MachineId(0),
            to: MachineId(1),
            size: Megabits(1.0),
            start: Time(4),
            dur: Dur(3),
            energy: Energy(0.06),
        };
        s.add_transfer(tr);
        assert_eq!(s.transfers().len(), 1);
        assert_eq!(s.transfers()[0].finish(), Time(7));
        s.remove_transfers_to(TaskId(1));
        assert!(s.transfers().is_empty());
        assert!(s.transfer_between(TaskId(0), TaskId(1)).is_none());
    }
}
