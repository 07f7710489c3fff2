//! Property tests for the online multiplier adaptation step.
//!
//! Three contracts, each load-bearing for the SLRH loop's determinism:
//!
//! * **projection** — whatever the rule, the tick, or the violation
//!   vector, the updated weights stay on the simplex, respect the `α`
//!   floor and the multiplier cap, and land exactly on the 1e-9 lattice
//!   (the sweep's memo key);
//! * **fixed point** — zero violations (or an inert rule) return the
//!   input weights bit-identically, so "no signal" cannot perturb a run;
//! * **purity** — the update is a function of `(rule, weights, k, g)`
//!   alone: calling it twice, in any interleaving, gives the same bits. This is what makes churn-segmented runs, recycled
//!   `RunContext`s, and replayed prefixes agree.

use lagrange::online::{adapt_step, multipliers_of, weights_of, MAX_MULTIPLIER, MIN_ALPHA};
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use proptest::prelude::*;

/// A free `(rule-tag, a, target)` triple mapped onto every step rule.
fn rule_of(tag: usize, a: f64, target: f64) -> StepRule {
    match tag % 3 {
        0 => StepRule::Constant { a },
        1 => StepRule::Diminishing { a },
        _ => StepRule::Polyak {
            target,
            max_step: a,
        },
    }
}

/// Project a free pair onto the weight simplex the way callers do.
fn weights_on_simplex(a: f64, b: f64) -> Weights {
    let b = b.min(1.0 - a);
    Weights::new(a, b).expect("on-simplex pair")
}

fn on_lattice(v: f64) -> bool {
    ((v * 1e9).round() / 1e9).to_bits() == v.to_bits()
}

proptest! {
    #[test]
    fn update_stays_projected_and_on_the_lattice(
        rule_raw in (0usize..3, 0.01f64..4.0, 0.0f64..8.0),
        pair in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1u64..1000,
        g in (-10.0f64..10.0, -10.0f64..10.0),
    ) {
        let rule = rule_of(rule_raw.0, rule_raw.1, rule_raw.2);
        let w = weights_on_simplex(pair.0, pair.1);
        let out = adapt_step(&rule, w, k, [g.0, g.1]);
        if out != w {
            // A real step: the result is projected and lattice-snapped.
            // The floor itself is lattice-rounded, so allow half a unit.
            prop_assert!(out.alpha() >= MIN_ALPHA - 0.5e-9,
                "alpha {} under the {} floor", out.alpha(), MIN_ALPHA);
            prop_assert!(on_lattice(out.alpha()), "alpha {} off-lattice", out.alpha());
            // On the simplex boundary `Weights::new` stores
            // `β = fl(1 − α)`, which may sit one ulp off the lattice;
            // the memo key (`round(β·1e9)`) is unaffected.
            let boundary = out.beta().to_bits() == (1.0 - out.alpha()).to_bits();
            prop_assert!(on_lattice(out.beta()) || boundary,
                "beta {} off-lattice away from the simplex boundary", out.beta());
            // The multiplier ceiling bounds how small alpha can get:
            // alpha = 1/(1 + le + lt) >= 1/(1 + 2*MAX_MULTIPLIER).
            prop_assert!(
                out.alpha() >= 1.0 / (1.0 + 2.0 * MAX_MULTIPLIER) - 1e-9,
                "alpha {} below the multiplier-ceiling bound", out.alpha()
            );
        }
        // Either way the simplex invariant holds (Weights enforces it,
        // but the property is the contract worth stating).
        prop_assert!(out.alpha() + out.beta() <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_violations_are_a_bitexact_fixed_point(
        rule_raw in (0usize..3, 0.0f64..4.0, 0.0f64..8.0),
        pair in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1u64..1000,
    ) {
        let rule = rule_of(rule_raw.0, rule_raw.1, rule_raw.2);
        // Deliberately off-lattice input: the fixed point must not snap.
        let w = weights_on_simplex(pair.0, pair.1);
        let out = adapt_step(&rule, w, k, [0.0, 0.0]);
        prop_assert_eq!(out.alpha().to_bits(), w.alpha().to_bits());
        prop_assert_eq!(out.beta().to_bits(), w.beta().to_bits());
    }

    #[test]
    fn inert_rule_is_a_bitexact_fixed_point(
        pair in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1u64..1000,
        g in (-10.0f64..10.0, -10.0f64..10.0),
    ) {
        let w = weights_on_simplex(pair.0, pair.1);
        let out = adapt_step(&StepRule::Constant { a: 0.0 }, w, k, [g.0, g.1]);
        prop_assert_eq!(out.alpha().to_bits(), w.alpha().to_bits());
        prop_assert_eq!(out.beta().to_bits(), w.beta().to_bits());
    }

    #[test]
    fn update_is_a_pure_function_of_its_arguments(
        rule_raw in (0usize..3, 0.01f64..4.0, 0.0f64..8.0),
        pair in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1u64..1000,
        g in (-10.0f64..10.0, -10.0f64..10.0),
    ) {
        let rule = rule_of(rule_raw.0, rule_raw.1, rule_raw.2);
        let w = weights_on_simplex(pair.0, pair.1);
        let first = adapt_step(&rule, w, k, [g.0, g.1]);
        // Interleave an unrelated update — no hidden state may leak.
        let _ = adapt_step(&rule, weights_on_simplex(pair.1, pair.0), k + 1, [g.1, g.0]);
        let second = adapt_step(&rule, w, k, [g.0, g.1]);
        prop_assert_eq!(first.alpha().to_bits(), second.alpha().to_bits());
        prop_assert_eq!(first.beta().to_bits(), second.beta().to_bits());
    }

    #[test]
    fn updates_are_stable_under_repetition(
        rule_raw in (0usize..3, 0.01f64..4.0, 0.0f64..8.0),
        pair in (0.0f64..=1.0, 0.0f64..=1.0),
        k in 1u64..1000,
        g in (-10.0f64..10.0, -10.0f64..10.0),
    ) {
        // Applying the update to its own output with zero violations is
        // the identity: once the signal is gone the weights freeze.
        let rule = rule_of(rule_raw.0, rule_raw.1, rule_raw.2);
        let w = weights_on_simplex(pair.0, pair.1);
        let stepped = adapt_step(&rule, w, k, [g.0, g.1]);
        let frozen = adapt_step(&rule, stepped, k + 1, [0.0, 0.0]);
        prop_assert_eq!(frozen.alpha().to_bits(), stepped.alpha().to_bits());
        prop_assert_eq!(frozen.beta().to_bits(), stepped.beta().to_bits());
    }

    #[test]
    fn weight_multiplier_correspondence_is_stable_on_lattice_points(
        lambda in (0.0f64..8.0, 0.0f64..8.0),
    ) {
        // weights_of is a projection: applying it to the multipliers its
        // own output encodes reproduces the output bit-for-bit.
        let w = weights_of([lambda.0, lambda.1]);
        let back = weights_of(multipliers_of(w));
        prop_assert_eq!(back.alpha().to_bits(), w.alpha().to_bits());
        prop_assert_eq!(back.beta().to_bits(), w.beta().to_bits());
    }
}
