//! Property tests for the busy-interval timeline — the data structure
//! under every machine, transmit link and receive link in the simulator.

use adhoc_grid::units::{Dur, Time};
use gridsim::timeline::{Interval, Timeline};
use proptest::prelude::*;

/// Naive O(base · extra · ticks) reference for `earliest_gap_with`:
/// advance tick by tick from `not_before`, rechecking every interval,
/// until the probe span conflicts with nothing. Only viable for the
/// small coordinates used in tests, which is the point — it encodes the
/// spec with no cleverness to share bugs with the real search.
fn naive_gap_with(base: &Timeline, extra: &[Interval], not_before: Time, dur: Dur) -> Time {
    if dur.is_zero() {
        return not_before;
    }
    let mut t = not_before;
    loop {
        let probe = Interval::new(t, dur);
        let conflict = base
            .intervals()
            .iter()
            .chain(extra)
            .any(|iv| iv.overlaps(&probe));
        if !conflict {
            return t;
        }
        t += Dur(1);
    }
}

/// A request stream: (not_before, duration) pairs with durations >= 1.
fn requests() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..5_000, 1u64..200), 1..60)
}

proptest! {
    /// Inserting at whatever earliest_gap returns never overlaps, and the
    /// returned slot really is the earliest: one tick earlier always
    /// conflicts (when not clamped by not_before).
    #[test]
    fn earliest_gap_is_free_and_tight(reqs in requests()) {
        let mut tl = Timeline::new();
        for (not_before, dur) in reqs {
            let (nb, d) = (Time(not_before), Dur(dur));
            let start = tl.earliest_gap(nb, d);
            prop_assert!(start >= nb);
            prop_assert!(tl.is_free(start, d));
            if start > nb {
                // Starting one tick earlier must conflict, else `start`
                // was not the earliest admissible slot.
                prop_assert!(!tl.is_free(start - Dur(1), d));
            }
            tl.insert(start, d); // panics on overlap = property failure
        }
    }

    /// Intervals stay sorted and pairwise disjoint under arbitrary
    /// gap-search-driven insertion order.
    #[test]
    fn intervals_sorted_disjoint(reqs in requests()) {
        let mut tl = Timeline::new();
        for (not_before, dur) in reqs {
            let start = tl.earliest_gap(Time(not_before), Dur(dur));
            tl.insert(start, Dur(dur));
        }
        let iv = tl.intervals();
        for w in iv.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
        }
        let total: u64 = iv.iter().map(|i| i.end.0 - i.start.0).sum();
        prop_assert_eq!(total, tl.total_busy().0);
        prop_assert_eq!(tl.ready_time(), iv.last().map_or(Time::ZERO, |i| i.end));
    }

    /// remove() exactly reverses insert(): the timeline returns to its
    /// previous contents regardless of removal order, and the running
    /// busy total matches a fresh sum after every removal.
    #[test]
    fn remove_roundtrips(reqs in requests(), removal_seed in 0u64..1000) {
        let mut tl = Timeline::new();
        let mut placed = Vec::new();
        for (not_before, dur) in reqs {
            let start = tl.earliest_gap(Time(not_before), Dur(dur));
            tl.insert(start, Dur(dur));
            placed.push((start, Dur(dur)));
        }
        // Pseudo-shuffle removal order with a simple LCG.
        let mut order: Vec<usize> = (0..placed.len()).collect();
        let mut s = removal_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s as usize) % (i + 1));
        }
        for &i in &order {
            let (start, dur) = placed[i];
            tl.remove(start, dur);
            let total: u64 = tl.intervals().iter().map(|i| i.end.0 - i.start.0).sum();
            prop_assert_eq!(total, tl.total_busy().0);
        }
        prop_assert!(tl.is_empty());
        prop_assert_eq!(tl.total_busy(), Dur::ZERO);
    }

    /// The overlay-aware gap search agrees with physically inserting the
    /// overlay intervals.
    #[test]
    fn overlay_matches_materialized(base in requests(), extra in requests(), probe_nb in 0u64..5_000, probe_dur in 1u64..100) {
        let mut tl = Timeline::new();
        for (not_before, dur) in base {
            let start = tl.earliest_gap(Time(not_before), Dur(dur));
            tl.insert(start, Dur(dur));
        }
        // Build the overlay by gap-searching so it is disjoint by
        // construction (matching how the planner builds overlays).
        let mut materialized = tl.clone();
        let mut overlay = Vec::new();
        for (not_before, dur) in extra {
            let start = materialized.earliest_gap(Time(not_before), Dur(dur));
            materialized.insert(start, Dur(dur));
            overlay.push(gridsim::timeline::Interval::new(start, Dur(dur)));
        }
        let via_overlay = tl.earliest_gap_with(&overlay, Time(probe_nb), Dur(probe_dur));
        let via_material = materialized.earliest_gap(Time(probe_nb), Dur(probe_dur));
        prop_assert_eq!(via_overlay, via_material);
    }

    /// The overlay search agrees with the naive tick-by-tick reference
    /// even when the overlay intervals overlap each other and the base —
    /// unlike `overlay_matches_materialized`, nothing here guarantees the
    /// overlay is disjoint, which is exactly the regime where a clever
    /// search can skip past a valid slot or loop on the wrong bump.
    #[test]
    fn overlay_matches_naive_reference(
        base in prop::collection::vec((0u64..400, 1u64..40), 0..12),
        extra in prop::collection::vec((0u64..400, 1u64..40), 0..12),
        probe_nb in 0u64..450,
        probe_dur in 0u64..50,
    ) {
        let mut tl = Timeline::new();
        for (not_before, dur) in base {
            let start = tl.earliest_gap(Time(not_before), Dur(dur));
            tl.insert(start, Dur(dur));
        }
        // Arbitrary, possibly self-overlapping overlay: the contract of
        // `earliest_gap_with` only requires `extra` to be intervals, not
        // a disjoint set.
        let overlay: Vec<Interval> = extra
            .into_iter()
            .map(|(s, d)| Interval::new(Time(s), Dur(d)))
            .collect();
        let fast = tl.earliest_gap_with(&overlay, Time(probe_nb), Dur(probe_dur));
        let naive = naive_gap_with(&tl, &overlay, Time(probe_nb), Dur(probe_dur));
        prop_assert_eq!(fast, naive);
    }
}

/// Many abutting overlay intervals `[k, k+1)` form one solid wall: the
/// search must not return a zero-width "gap" between neighbours, and must
/// land exactly at the wall's end.
#[test]
fn abutting_overlay_wall() {
    let tl = Timeline::new();
    let wall: Vec<Interval> = (0..100).map(|k| Interval::new(Time(k), Dur(1))).collect();
    assert_eq!(tl.earliest_gap_with(&wall, Time(0), Dur(1)), Time(100));
    assert_eq!(tl.earliest_gap_with(&wall, Time(0), Dur(37)), Time(100));
    // A one-tick hole in the wall admits exactly a one-tick probe.
    let mut holed = wall.clone();
    holed.remove(42);
    assert_eq!(tl.earliest_gap_with(&holed, Time(0), Dur(1)), Time(42));
    assert_eq!(tl.earliest_gap_with(&holed, Time(0), Dur(2)), Time(100));
    assert_eq!(naive_gap_with(&tl, &holed, Time(0), Dur(2)), Time(100));
}

/// An overlay interval strictly before the first base interval must bump
/// the probe into the base conflict, which bumps it again — the search
/// has to alternate between overlay and base until both are satisfied.
#[test]
fn overlay_before_base_alternation() {
    let mut tl = Timeline::new();
    tl.insert(Time(10), Dur(10)); // base [10,20)
    tl.insert(Time(25), Dur(5)); // base [25,30)
    let overlay = [
        Interval::new(Time(0), Dur(8)),  // before any base occupation
        Interval::new(Time(20), Dur(5)), // plugs the [20,25) base hole
    ];
    // dur 2: [8,10) is free of both.
    assert_eq!(tl.earliest_gap_with(&overlay, Time(0), Dur(2)), Time(8));
    // dur 3: [8,10) too small -> base bumps to 20 -> overlay bumps to 25
    // -> base bumps to 30.
    assert_eq!(tl.earliest_gap_with(&overlay, Time(0), Dur(3)), Time(30));
    assert_eq!(naive_gap_with(&tl, &overlay, Time(0), Dur(3)), Time(30));
    // Overlay conflicts found before base conflicts: probe at 19 of dur 2
    // hits base tail [10,20) first, then overlay [20,25).
    assert_eq!(tl.earliest_gap_with(&overlay, Time(19), Dur(2)), Time(30));
}

/// Overlapping overlay intervals (the same span listed twice, and nested
/// spans) must not confuse the bump-to-earliest-end rule.
#[test]
fn overlapping_overlay_entries() {
    let tl = Timeline::new();
    let overlay = [
        Interval::new(Time(0), Dur(10)), // [0,10)
        Interval::new(Time(0), Dur(10)), // duplicate
        Interval::new(Time(2), Dur(3)),  // nested [2,5)
        Interval::new(Time(8), Dur(7)),  // straddles [8,15)
    ];
    assert_eq!(tl.earliest_gap_with(&overlay, Time(0), Dur(4)), Time(15));
    assert_eq!(naive_gap_with(&tl, &overlay, Time(0), Dur(4)), Time(15));
}
