//! Busy-interval timelines with earliest-gap search.
//!
//! A [`Timeline`] records when a serial resource (a machine's CPU, its
//! transmit link, or its receive link) is occupied, as a sorted list of
//! disjoint half-open tick intervals `[start, end)`. The two operations
//! that matter to the heuristics are:
//!
//! * [`Timeline::earliest_gap`] — the earliest instant `>= not_before` at
//!   which a span of a given duration fits (used by Max-Max's
//!   hole-insertion and by transfer-slot search), and
//! * [`Timeline::insert`] — commit an occupation, with overlap detection
//!   as a hard invariant.

use adhoc_grid::units::{Dur, Time};

/// A half-open occupied interval `[start, end)` in ticks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Interval {
    /// First occupied tick.
    pub start: Time,
    /// First tick after the occupation.
    pub end: Time,
}

impl Interval {
    /// Build from a start and duration.
    pub fn new(start: Time, dur: Dur) -> Interval {
        Interval {
            start,
            end: start + dur,
        }
    }

    /// True when the two half-open intervals share at least one tick.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A sorted set of disjoint busy intervals for one serial resource.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Timeline {
    /// Sorted by start; pairwise disjoint.
    busy: Vec<Interval>,
    /// Sum of the intervals' lengths, kept by `insert`/`remove`/`clear`
    /// so [`Timeline::total_busy`] reads no interval.
    busy_total: Dur,
}

impl Timeline {
    /// An empty (fully free) timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Remove every busy interval, keeping the heap allocation for
    /// reuse (the run-context reset path clears whole timeline vectors
    /// between consecutive runs).
    pub fn clear(&mut self) {
        self.busy.clear();
        self.busy_total = Dur::ZERO;
    }

    /// Number of busy intervals.
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// The busy intervals, sorted by start.
    pub fn intervals(&self) -> &[Interval] {
        &self.busy
    }

    /// The first instant after which the timeline is free forever —
    /// `Time::ZERO` when empty. This is the machine's "availability time".
    #[inline]
    pub fn ready_time(&self) -> Time {
        self.busy.last().map_or(Time::ZERO, |iv| iv.end)
    }

    /// True when `[start, start+dur)` does not intersect any busy interval.
    /// Zero-duration spans always fit.
    pub fn is_free(&self, start: Time, dur: Dur) -> bool {
        if dur.is_zero() {
            return true;
        }
        let probe = Interval::new(start, dur);
        // First interval with end > start could overlap; binary search on end.
        let idx = self.busy.partition_point(|iv| iv.end <= probe.start);
        self.busy.get(idx).is_none_or(|iv| !iv.overlaps(&probe))
    }

    /// Earliest `t >= not_before` such that `[t, t+dur)` is free.
    ///
    /// Total occupation is finite so a gap always exists; for zero
    /// durations this is simply `not_before`.
    pub fn earliest_gap(&self, not_before: Time, dur: Dur) -> Time {
        self.earliest_gap_with(&[], not_before, dur)
    }

    /// Like [`Timeline::earliest_gap`], but also avoiding the `extra`
    /// intervals (used when planning several transfers in one mapping
    /// before any of them is committed). `extra` need not be sorted.
    ///
    /// `t` only grows, so the base intervals ending by `t` never conflict
    /// again: a cursor into the sorted base moves forward only — one step
    /// per base conflict, one suffix search after an overlay bump — and a
    /// hole search deep in a busy timeline (Max-Max's) is one binary
    /// search and a walk.
    pub fn earliest_gap_with(&self, extra: &[Interval], not_before: Time, dur: Dur) -> Time {
        if dur.is_zero() {
            return not_before;
        }
        let mut t = not_before;
        // Every base interval before `idx` ends by `t`.
        let mut idx = self.busy.partition_point(|iv| iv.end <= t);
        loop {
            // Conflicts in the sorted base: `busy[idx]` ends after `t`, so
            // it conflicts unless it starts at or after the probe's end,
            // and then so does every later one.
            while let Some(iv) = self.busy.get(idx) {
                if t + dur <= iv.start {
                    break;
                }
                t = iv.end;
                idx += 1;
            }
            let probe = Interval::new(t, dur);
            // Conflict in the (small, unsorted) overlay? Move past the
            // earliest-ending conflicting interval and rescan.
            let mut bumped = None::<Time>;
            for iv in extra {
                if iv.overlaps(&probe) {
                    bumped = Some(match bumped {
                        Some(b) => b.min(iv.end),
                        None => iv.end,
                    });
                }
            }
            match bumped {
                Some(b) => {
                    t = b;
                    idx += self.busy[idx..].partition_point(|iv| iv.end <= t);
                }
                None => return t,
            }
        }
    }

    /// Commit the occupation `[start, start+dur)`.
    ///
    /// Zero-duration spans are ignored (nothing to occupy).
    ///
    /// # Panics
    /// Panics if the span overlaps an existing busy interval — heuristics
    /// must only commit spans obtained from a gap search.
    pub fn insert(&mut self, start: Time, dur: Dur) {
        if dur.is_zero() {
            return;
        }
        let iv = Interval::new(start, dur);
        let idx = self.busy.partition_point(|b| b.start < iv.start);
        if idx > 0 {
            assert!(
                !self.busy[idx - 1].overlaps(&iv),
                "timeline overlap: inserting {iv:?} against {:?}",
                self.busy[idx - 1]
            );
        }
        if let Some(next) = self.busy.get(idx) {
            assert!(
                !next.overlaps(&iv),
                "timeline overlap: inserting {iv:?} against {next:?}"
            );
        }
        self.busy.insert(idx, iv);
        self.busy_total += dur;
    }

    /// Remove a previously inserted occupation (used by the dynamic
    /// remapping extension when a mapping is invalidated).
    ///
    /// # Panics
    /// Panics if `[start, start+dur)` is not an exact existing interval.
    /// Zero-duration spans are ignored (they were never inserted).
    pub fn remove(&mut self, start: Time, dur: Dur) {
        if dur.is_zero() {
            return;
        }
        let iv = Interval::new(start, dur);
        let idx = self
            .busy
            .binary_search_by(|b| b.start.cmp(&iv.start))
            .unwrap_or_else(|_| panic!("no interval starting at {start:?} to remove"));
        assert_eq!(
            self.busy[idx].end, iv.end,
            "interval at {start:?} has a different duration"
        );
        self.busy.remove(idx);
        self.busy_total = self.busy_total - dur;
    }

    /// Total busy span. O(1): a running total, equal to the sum of the
    /// intervals' lengths (integer ticks, so exactly).
    pub fn total_busy(&self) -> Dur {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> Time {
        Time(s)
    }
    fn d(n: u64) -> Dur {
        Dur(n)
    }

    #[test]
    fn empty_timeline_is_free_everywhere() {
        let tl = Timeline::new();
        assert!(tl.is_free(t(0), d(100)));
        assert_eq!(tl.earliest_gap(t(7), d(5)), t(7));
        assert_eq!(tl.ready_time(), Time::ZERO);
        assert!(tl.is_empty());
    }

    #[test]
    fn insert_and_gap_search() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(10)); // [10,20)
        tl.insert(t(30), d(10)); // [30,40)
        assert_eq!(tl.ready_time(), t(40));
        // Fits before the first interval.
        assert_eq!(tl.earliest_gap(t(0), d(10)), t(0));
        // Too big for [0,10), lands in [20,30).
        assert_eq!(tl.earliest_gap(t(5), d(10)), t(20));
        // Too big for any hole, lands after everything.
        assert_eq!(tl.earliest_gap(t(0), d(11)), t(40));
        // not_before inside a busy interval gets bumped.
        assert_eq!(tl.earliest_gap(t(12), d(5)), t(20));
        // Exact fit in the hole [20,30).
        assert_eq!(tl.earliest_gap(t(20), d(10)), t(20));
    }

    #[test]
    fn is_free_boundaries() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(10));
        assert!(tl.is_free(t(0), d(10)), "half-open: may end at 10");
        assert!(tl.is_free(t(20), d(1)), "half-open: may start at 20");
        assert!(!tl.is_free(t(19), d(1)));
        assert!(!tl.is_free(t(9), d(2)));
        assert!(tl.is_free(t(15), Dur::ZERO), "zero spans always fit");
    }

    #[test]
    fn overlay_gap_search() {
        let mut tl = Timeline::new();
        tl.insert(t(0), d(10)); // [0,10)
        let extra = [Interval::new(t(10), d(5)), Interval::new(t(20), d(5))];
        // [10,15) blocked by overlay, [15,20) free and big enough for 5.
        assert_eq!(tl.earliest_gap_with(&extra, t(0), d(5)), t(15));
        // Needs 6: [15,20) too small, [25,..) free.
        assert_eq!(tl.earliest_gap_with(&extra, t(0), d(6)), t(25));
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let mut tl = Timeline::new();
        tl.insert(t(30), d(5));
        tl.insert(t(10), d(5));
        tl.insert(t(20), d(5));
        let starts: Vec<u64> = tl.intervals().iter().map(|iv| iv.start.0).collect();
        assert_eq!(starts, vec![10, 20, 30]);
        assert_eq!(tl.total_busy(), d(15));
    }

    #[test]
    #[should_panic(expected = "timeline overlap")]
    fn overlapping_insert_panics() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(10));
        tl.insert(t(15), d(1));
    }

    #[test]
    #[should_panic(expected = "timeline overlap")]
    fn overlapping_insert_before_panics() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(10));
        tl.insert(t(5), d(6));
    }

    #[test]
    fn remove_roundtrips() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(5));
        tl.insert(t(20), d(5));
        tl.remove(t(10), d(5));
        assert_eq!(tl.len(), 1);
        assert!(tl.is_free(t(10), d(5)));
        tl.remove(t(20), d(5));
        assert!(tl.is_empty());
        tl.remove(t(0), Dur::ZERO); // no-op
    }

    #[test]
    fn total_busy_follows_insert_remove_and_clear() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(5));
        tl.insert(t(20), d(7));
        tl.insert(t(30), Dur::ZERO);
        assert_eq!(tl.total_busy(), d(12));
        tl.remove(t(10), d(5));
        assert_eq!(tl.total_busy(), d(7));
        tl.clear();
        assert_eq!(tl.total_busy(), Dur::ZERO);
        tl.insert(t(0), d(3));
        assert_eq!(tl.total_busy(), d(3));
    }

    #[test]
    #[should_panic(expected = "no interval starting")]
    fn remove_missing_panics() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(5));
        tl.remove(t(11), d(4));
    }

    #[test]
    #[should_panic(expected = "different duration")]
    fn remove_wrong_duration_panics() {
        let mut tl = Timeline::new();
        tl.insert(t(10), d(5));
        tl.remove(t(10), d(4));
    }

    #[test]
    fn zero_duration_insert_is_noop() {
        let mut tl = Timeline::new();
        tl.insert(t(5), Dur::ZERO);
        assert!(tl.is_empty());
    }
}
