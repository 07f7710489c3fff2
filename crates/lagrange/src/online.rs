//! The online weight controller: one projected subgradient step per
//! SLRH clock tick, as a *pure function* of the current weights and the
//! tick index.
//!
//! The paper's §II machinery prices the energy and time constraints with
//! multipliers `(λ_e, λ_t)` and normalizes them onto the objective's
//! weight simplex as `(α, β, γ) = (1, λ_e, λ_t) / (1 + λ_e + λ_t)`.
//! This module runs that correspondence both ways so the receding-horizon
//! loop can store nothing but the weights themselves: at tick `k` it
//! reconstructs the multipliers from the live weights, takes one
//! projected ascent step ([`StepRule::ascend`], on two components) along
//! the observed constraint violations, and maps back.
//! Statelessness is the determinism contract — reusing a `RunContext`,
//! splitting a run into churn segments, or replaying a prefix cannot
//! change the update, because there is no hidden accumulator to drift.
//!
//! Three projection rules keep the update well-posed:
//!
//! * multipliers are clamped into `[0, MAX_MULTIPLIER]` (the dual cone,
//!   bounded so one catastrophic violation estimate cannot saturate the
//!   weights forever);
//! * `α` is floored at [`MIN_ALPHA`], so the `T100` reward never
//!   vanishes and the weight→multiplier direction (`λ = (β, γ)/α`)
//!   stays defined;
//! * the result is snapped to the global 1e-9 weight lattice (the same
//!   `round(v·1e9)` key the sweep's evaluation memo uses), so adapted
//!   weights compare, memoize, and serialize exactly.
//!
//! The floor and the cap are constants, not settings: every caller and
//! every recorded study ran at these two values.
//!
//! A vanishing step — zero violations, or an inert
//! [`StepRule::Constant`] with `a = 0` — returns the input weights
//! **bit-identically**, so "no signal" is a true fixed point and an
//! inert adaptive run is byte-equal to the legacy fixed-weight path.

use crate::step::StepRule;
use crate::weights::Weights;

/// One lattice unit: weights live on multiples of 1e-9, matching the
/// sweep's evaluation-memo key.
const LATTICE: f64 = 1e9;

/// Floor on α after each update: the `T100` reward never vanishes and
/// `λ = (β, γ)/α` stays defined on the whole simplex.
pub const MIN_ALPHA: f64 = 0.05;

/// Ceiling on each multiplier `λ_e`, `λ_t` after each update.
pub const MAX_MULTIPLIER: f64 = 8.0;

/// The multipliers `[λ_e, λ_t]` a weight triple encodes:
/// `λ_e = β/α`, `λ_t = γ/α`, with `α` floored at [`MIN_ALPHA`] so the
/// direction is defined on the whole simplex.
pub fn multipliers_of(w: Weights) -> [f64; 2] {
    let a = w.alpha().max(MIN_ALPHA);
    [w.beta() / a, w.gamma() / a]
}

/// The weight triple a multiplier pair encodes, projected and snapped:
/// `(α, β, γ) = (1, λ_e, λ_t) / (1 + λ_e + λ_t)`, rescaled so
/// `α >= MIN_ALPHA`, then rounded onto the 1e-9 lattice.
///
/// Snapping is idempotent: feeding the result's `(α, β)` back through
/// the lattice rounding reproduces it exactly.
pub fn weights_of(lambda: [f64; 2]) -> Weights {
    let le = lambda[0].clamp(0.0, MAX_MULTIPLIER);
    let lt = lambda[1].clamp(0.0, MAX_MULTIPLIER);
    let mut denom = 1.0 + le + lt;
    // Enforce the α floor by shrinking both multipliers radially: the
    // dual *direction* is preserved, only its magnitude is capped.
    let max_denom = 1.0 / MIN_ALPHA;
    let le = if denom > max_denom {
        let scale = (max_denom - 1.0) / (le + lt);
        denom = max_denom;
        le * scale
    } else {
        le
    };
    let alpha = 1.0 / denom;
    let beta = le / denom;
    snap_to_lattice(alpha, beta)
}

/// Round `(α, β)` onto the 1e-9 lattice in integer space, keeping
/// `α >= MIN_ALPHA` and `α + β <= 1`.
pub fn snap_to_lattice(alpha: f64, beta: f64) -> Weights {
    let min_ai = (MIN_ALPHA * LATTICE).round() as i64;
    let ai = ((alpha * LATTICE).round() as i64).clamp(min_ai, LATTICE as i64);
    let bi = ((beta * LATTICE).round() as i64).clamp(0, LATTICE as i64 - ai);
    Weights::new(ai as f64 / LATTICE, bi as f64 / LATTICE)
        .expect("lattice-snapped weights stay on the simplex")
}

/// One online adaptation step: the weights the mapper should use from
/// tick `k` onward, given the weights it used up to now and the
/// constraint violations `g = [g_e, g_t]` observed at this tick
/// (positive = violated, in the sense of [`StepRule::ascend`]).
///
/// `k` is 1-based and must advance monotonically across a run (the SLRH
/// loop passes `tick / every`); the [`StepRule::Diminishing`] schedule
/// reads it directly, so the update is a pure function of
/// `(rule, current, k, g)` with no state between calls.
///
/// A zero step (vanishing violations, or a rule that yields 0) returns
/// `current` **unchanged, bit for bit** — no projection, no lattice
/// snap — so satisfied constraints are an exact fixed point.
///
/// # Panics
/// Panics when `k == 0`.
pub fn adapt_step(rule: &StepRule, current: Weights, k: u64, violations: [f64; 2]) -> Weights {
    assert!(k >= 1, "adaptation steps are 1-based");
    // On the stack: this runs once per adaptation step of the clock
    // loop, which allocates nothing per tick.
    let mut lambda = multipliers_of(current).map(|l| l.clamp(0.0, MAX_MULTIPLIER));
    if rule.ascend(k as usize, 0.0, &mut lambda, &violations) == 0.0 {
        return current;
    }
    weights_of(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_violations_are_a_bitexact_fixed_point() {
        // An off-lattice weight triple must come back untouched: no snap,
        // no projection.
        let w = Weights::new(1.0 / 3.0, 1.0 / 3.0).unwrap();
        let out = adapt_step(&StepRule::Constant { a: 0.25 }, w, 5, [0.0, 0.0]);
        assert_eq!(out.alpha().to_bits(), w.alpha().to_bits());
        assert_eq!(out.beta().to_bits(), w.beta().to_bits());
    }

    #[test]
    fn inert_rule_is_a_bitexact_fixed_point() {
        let w = Weights::new(0.6000000000000001, 0.2).unwrap();
        let out = adapt_step(&StepRule::Constant { a: 0.0 }, w, 1, [1.5, -0.3]);
        assert_eq!(out.alpha().to_bits(), w.alpha().to_bits());
        assert_eq!(out.beta().to_bits(), w.beta().to_bits());
    }

    #[test]
    fn violations_raise_the_matching_penalty_weight() {
        let w = Weights::new(0.5, 0.3).unwrap();
        // Energy overdraw: β must rise relative to α.
        let out = adapt_step(&StepRule::Constant { a: 0.5 }, w, 1, [1.0, 0.0]);
        assert!(
            out.beta() / out.alpha() > w.beta() / w.alpha(),
            "β/α {} -> {}",
            w.beta() / w.alpha(),
            out.beta() / out.alpha()
        );
        // Slack on both constraints: both multipliers decay, α rises.
        let out = adapt_step(&StepRule::Constant { a: 0.5 }, w, 1, [-1.0, -1.0]);
        assert!(out.alpha() > w.alpha());
    }

    #[test]
    fn alpha_floor_holds_under_extreme_violations() {
        let w = Weights::new(0.1, 0.45).unwrap();
        let out = adapt_step(&StepRule::Constant { a: 100.0 }, w, 1, [1000.0, 1000.0]);
        assert!(
            out.alpha() >= MIN_ALPHA - 1e-12,
            "α {} under the floor",
            out.alpha()
        );
        // The multiplier ceiling bounds how far from the floor the
        // result can sit: λ <= 8 each, so α >= 1/17.
        assert!(out.alpha() >= 1.0 / 17.0 - 1e-9);
    }

    #[test]
    fn snap_is_idempotent() {
        // The second pair's β is an off-lattice double (≈2^-52-scale
        // tail) that must snap cleanly.
        #[allow(clippy::excessive_precision)]
        let cases = [
            (0.1234567891, 0.555_111_512_312_578_27),
            (0.05, 0.0),
            (0.9999999999, 0.0),
        ];
        for (a, b) in cases {
            let w = snap_to_lattice(a, b);
            let again = snap_to_lattice(w.alpha(), w.beta());
            assert_eq!(again.alpha().to_bits(), w.alpha().to_bits());
            assert_eq!(again.beta().to_bits(), w.beta().to_bits());
        }
    }

    #[test]
    fn update_lands_on_the_lattice() {
        let w = Weights::new(1.0 / 3.0, 1.0 / 3.0).unwrap();
        let out = adapt_step(&StepRule::Diminishing { a: 0.7 }, w, 3, [0.4, -0.2]);
        for v in [out.alpha(), out.beta()] {
            let snapped = (v * 1e9).round() / 1e9;
            assert_eq!(snapped.to_bits(), v.to_bits(), "{v} off the 1e-9 lattice");
        }
    }

    #[test]
    fn roundtrip_through_multipliers_is_stable_on_lattice_points() {
        let w = snap_to_lattice(0.5, 0.3);
        let back = weights_of(multipliers_of(w));
        assert_eq!(back.alpha().to_bits(), w.alpha().to_bits());
        assert_eq!(back.beta().to_bits(), w.beta().to_bits());
    }

    /// `diminishing(1)` at `k = 4` steps `1/2`: λ = (0.6, 0.4) moves along
    /// (0.4, −0.2) to (0.8, 0.3), so (α, β) = (1, 0.8)/2.1, snapped.
    #[test]
    fn step_k_reads_the_diminishing_schedule() {
        let w = Weights::new(0.5, 0.3).unwrap();
        let got = adapt_step(&StepRule::Diminishing { a: 1.0 }, w, 4, [0.4, -0.2]);
        assert_eq!(got.alpha(), 0.476190476);
        assert_eq!(got.beta(), 0.380952381);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zeroth_step_rejected() {
        let w = Weights::new(0.5, 0.3).unwrap();
        adapt_step(&StepRule::Constant { a: 0.1 }, w, 0, [0.0, 0.0]);
    }
}
