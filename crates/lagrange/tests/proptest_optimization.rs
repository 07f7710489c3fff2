//! Property tests for the Lagrangian machinery: weak duality, multiplier
//! projection, and objective bounds.

use lagrange::dual::{Choice, SeparableProblem};
use lagrange::step::StepRule;
use lagrange::weights::{Objective, ObjectiveInputs, Weights};
use proptest::prelude::*;

/// Random separable problems: every item gets a free "skip" option so a
/// feasible selection always exists.
fn problems() -> impl Strategy<Value = SeparableProblem> {
    let item = prop::collection::vec((0.0f64..10.0, 0.0f64..3.0, 0.0f64..3.0), 1..4);
    (
        prop::collection::vec(item, 1..8),
        1.0f64..10.0,
        1.0f64..10.0,
    )
        .prop_map(|(items, cap0, cap1)| {
            let options = items
                .into_iter()
                .map(|opts| {
                    let mut choices: Vec<Choice> = opts
                        .into_iter()
                        .map(|(value, u0, u1)| Choice {
                            value,
                            usage: vec![u0, u1],
                        })
                        .collect();
                    choices.push(Choice {
                        value: 0.0,
                        usage: vec![0.0, 0.0],
                    });
                    choices
                })
                .collect();
            SeparableProblem::new(options, vec![cap0, cap1])
        })
}

/// Brute-force the true optimum (instances are tiny by construction).
fn brute_force(p: &SeparableProblem) -> f64 {
    fn rec(p: &SeparableProblem, item: usize, sel: &mut Vec<usize>, best: &mut f64) {
        if item == p.items() {
            let s = lagrange::dual::Selection(sel.clone());
            if p.is_feasible(&s) {
                *best = best.max(p.total_value(&s));
            }
            return;
        }
        for o in 0..p.options_of(item).len() {
            sel.push(o);
            rec(p, item + 1, sel, best);
            sel.pop();
        }
    }
    let mut best = f64::NEG_INFINITY;
    rec(p, 0, &mut Vec::new(), &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weak duality: q(λ) >= optimum for every λ >= 0, and therefore the
    /// optimized bound dominates the brute-force optimum. The outcome
    /// also agrees with itself: the bound is the dual at the returned
    /// multipliers, the selection is the relaxed one there, and the start
    /// is an upper limit. A shorter budget runs a prefix of the same
    /// iterates, so it reports exactly that budget and a bound no better
    /// than a longer one's: the best iterate is kept, not the last.
    #[test]
    fn weak_duality_holds(p in problems(), l0 in 0.0f64..5.0, l1 in 0.0f64..5.0) {
        let opt = brute_force(&p);
        let (q, _) = p.dual(&[l0, l1]);
        prop_assert!(q >= opt - 1e-9, "q({l0},{l1}) = {q} below optimum {opt}");

        let rule = StepRule::Diminishing { a: 1.0 };
        let out = p.minimize_dual(rule, 150, vec![0.0, 0.0]);
        prop_assert!(out.upper_bound >= opt - 1e-9,
            "optimized bound {} below optimum {opt}", out.upper_bound);
        prop_assert_eq!(out.upper_bound.to_bits(), p.dual(&out.lambda).0.to_bits());
        prop_assert_eq!(&out.selection, &p.relaxed_selection(&out.lambda));
        prop_assert!(out.upper_bound <= p.dual(&[0.0, 0.0]).0);
        prop_assert!((1..=150).contains(&out.iterations), "{} iterations", out.iterations);

        let mut bound = f64::INFINITY;
        for n in (1..=out.iterations).step_by(10).chain([out.iterations]) {
            let prefix = p.minimize_dual(rule, n, vec![0.0, 0.0]);
            prop_assert_eq!(prefix.iterations, n);
            prop_assert!(prefix.upper_bound <= bound, "budget {n} lost the bound {bound}");
            bound = prefix.upper_bound;
        }
        prop_assert_eq!(bound.to_bits(), out.upper_bound.to_bits());
    }

    /// The relaxed selection at λ = 0 picks each item's maximum-value
    /// option (prices only ever push value down).
    #[test]
    fn zero_prices_maximize_value(p in problems()) {
        let sel = p.relaxed_selection(&[0.0, 0.0]);
        let anything_better = (0..p.items()).any(|i| {
            p.options_of(i)
                .iter()
                .any(|c| c.value > p.options_of(i)[sel.0[i]].value + 1e-12)
        });
        prop_assert!(!anything_better);
    }

    /// Projected multipliers never go negative, whatever the violation
    /// stream.
    #[test]
    fn multipliers_stay_nonnegative(
        violations in prop::collection::vec(
            prop::collection::vec(-5.0f64..5.0, 3), 1..40),
        step in 0.01f64..2.0,
    ) {
        let mut lambda = [0.0; 3];
        for (k, g) in violations.iter().enumerate() {
            StepRule::Constant { a: step }.ascend(k + 1, 0.0, &mut lambda, g);
            for &l in &lambda {
                prop_assert!(l >= 0.0);
            }
        }
    }

    /// ObjFn stays within [-1, 1] for all simplex weights and unit-range
    /// inputs (the paper's normalization claim).
    #[test]
    fn objective_bounded(
        a in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
        t in 0.0f64..1.0,
        e in 0.0f64..1.0,
        x in 0.0f64..1.0,
    ) {
        let b = (1.0 - a) * b_frac;
        let obj = Objective::paper(Weights::new(a, b).unwrap());
        let v = obj.evaluate(&ObjectiveInputs { t100_frac: t, tec_frac: e, aet_frac: x });
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&v));
    }

    /// Weight shifts always land back on the simplex.
    #[test]
    fn shifted_weights_stay_on_simplex(
        a in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
        da in -2.0f64..2.0,
        db in -2.0f64..2.0,
    ) {
        let b = (1.0 - a) * b_frac;
        let w = Weights::new(a, b).unwrap().shifted(da, db);
        prop_assert!((0.0..=1.0).contains(&w.alpha()));
        prop_assert!((0.0..=1.0).contains(&w.beta()));
        prop_assert!(w.gamma() >= -1e-12);
        prop_assert!(w.alpha() + w.beta() <= 1.0 + 1e-12);
    }
}
