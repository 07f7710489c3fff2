//! Lagrangian relaxation of separable selection problems.
//!
//! This is the structure underlying Lagrangian scheduling in the style of
//! Luh & Hoitomt [LuH93]: a set of *items* (subtasks) must each select one
//! *option* (a machine/version placement, or "skip"), options carry a
//! value and per-resource usages, and coupling capacity constraints tie
//! the items together. Pricing the capacities with multipliers λ makes the
//! problem **separable** — each item independently picks the option with
//! the best reduced value — which is what makes the dual cheap to
//! evaluate and the relaxation practical:
//!
//! ```text
//! maximize   Σ_i value(x_i)
//! subject to Σ_i usage_k(x_i) <= cap_k          for every resource k
//!
//! q(λ) = Σ_i max_o [ value(o) − Σ_k λ_k·usage_k(o) ] + Σ_k λ_k·cap_k
//! ```
//!
//! `q(λ) >= optimum` for every λ >= 0, so minimizing `q` over λ yields the
//! tightest Lagrangian **upper bound**; the relaxed selections along the
//! way are typically infeasible and are repaired downstream by list
//! scheduling (see the `grid-baselines` crate).

use crate::step::StepRule;

/// [`SeparableProblem::minimize_dual`] stops when `‖g‖` or `s·‖g‖` is below this.
const TOL: f64 = 1e-12;

/// One selectable option of an item.
#[derive(Clone, PartialEq, Debug)]
pub struct Choice {
    /// Objective contribution if selected.
    pub value: f64,
    /// Resource usage per capacity constraint (same length as the
    /// problem's `capacities`).
    pub usage: Vec<f64>,
}

impl Choice {
    /// The reduced value `value − λ·usage` at prices λ.
    pub fn reduced(&self, lambda: &[f64]) -> f64 {
        self.value
            - self
                .usage
                .iter()
                .zip(lambda)
                .map(|(u, l)| u * l)
                .sum::<f64>()
    }
}

/// A selection: the chosen option index for every item.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Selection(pub Vec<usize>);

/// A separable capacity-constrained selection problem.
#[derive(Clone, PartialEq, Debug)]
pub struct SeparableProblem {
    options: Vec<Vec<Choice>>,
    capacities: Vec<f64>,
}

/// The outcome of dual optimization.
#[derive(Clone, Debug)]
pub struct DualOutcome {
    /// The multipliers achieving the best (lowest) upper bound.
    pub lambda: Vec<f64>,
    /// The Lagrangian upper bound `min_λ q(λ)` over the iterates seen.
    pub upper_bound: f64,
    /// The relaxed selection at [`DualOutcome::lambda`] (may be
    /// infeasible — marginal-cost prices for a downstream repair stage).
    pub selection: Selection,
    /// Dual evaluations made: `1..=max_iters`, or 0 when `max_iters` is 0.
    pub iterations: usize,
}

impl SeparableProblem {
    /// Build a problem.
    ///
    /// # Panics
    /// Panics if any item has no options or an option's usage vector does
    /// not match the number of capacities.
    pub fn new(options: Vec<Vec<Choice>>, capacities: Vec<f64>) -> SeparableProblem {
        for (i, opts) in options.iter().enumerate() {
            assert!(!opts.is_empty(), "item {i} has no options");
            for o in opts {
                assert_eq!(
                    o.usage.len(),
                    capacities.len(),
                    "item {i}: usage dimension mismatch"
                );
            }
        }
        SeparableProblem {
            options,
            capacities,
        }
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.options.len()
    }

    /// Number of coupling constraints.
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// The options of item `i`.
    pub fn options_of(&self, i: usize) -> &[Choice] {
        &self.options[i]
    }

    /// The relaxed (per-item independent) selection at prices λ: every
    /// item picks the option maximizing `value − λ·usage`, ties broken
    /// toward the lower option index.
    pub fn relaxed_selection(&self, lambda: &[f64]) -> Selection {
        assert_eq!(lambda.len(), self.capacities.len());
        Selection(
            self.options
                .iter()
                .map(|opts| {
                    let mut best = 0usize;
                    let mut best_v = f64::NEG_INFINITY;
                    for (o, c) in opts.iter().enumerate() {
                        let reduced = c.reduced(lambda);
                        if reduced > best_v {
                            best_v = reduced;
                            best = o;
                        }
                    }
                    best
                })
                .collect(),
        )
    }

    /// Total objective value of a selection.
    pub fn total_value(&self, sel: &Selection) -> f64 {
        sel.0
            .iter()
            .enumerate()
            .map(|(i, &o)| self.options[i][o].value)
            .sum()
    }

    /// Total usage of a selection, per resource.
    pub fn total_usage(&self, sel: &Selection) -> Vec<f64> {
        let mut usage = vec![0.0; self.capacities.len()];
        for (i, &o) in sel.0.iter().enumerate() {
            for (u, c) in usage.iter_mut().zip(&self.options[i][o].usage) {
                *u += c;
            }
        }
        usage
    }

    /// True when the selection respects every capacity.
    pub fn is_feasible(&self, sel: &Selection) -> bool {
        self.total_usage(sel)
            .iter()
            .zip(&self.capacities)
            .all(|(u, c)| *u <= *c + 1e-9)
    }

    /// The dual value and the constraint violations `usage − cap` of the
    /// relaxed maximizer at λ (a subgradient of `q`, negated, as needed by
    /// the minimization).
    pub fn dual(&self, lambda: &[f64]) -> (f64, Vec<f64>) {
        let sel = self.relaxed_selection(lambda);
        let usage = self.total_usage(&sel);
        let relaxed_value: f64 = self.total_value(&sel)
            - usage.iter().zip(lambda).map(|(u, l)| u * l).sum::<f64>()
            + self
                .capacities
                .iter()
                .zip(lambda)
                .map(|(c, l)| c * l)
                .sum::<f64>();
        let violations: Vec<f64> = usage
            .iter()
            .zip(&self.capacities)
            .map(|(u, c)| u - c)
            .collect();
        (relaxed_value, violations)
    }

    /// Minimize the dual upper bound `q(λ)` by projected subgradient
    /// descent from `lambda0`, keeping the best iterate (the method is not
    /// monotone): for `k = 1..=max_iters`, evaluate `(q, g) = self.dual(λ)`
    /// and step with [`StepRule::ascend`]. The violations `g` are a
    /// subgradient of `−q`, so the rule sees `value = −q`, and a
    /// [`StepRule::Polyak`] `target` estimates `−q*`.
    ///
    /// ```
    /// use lagrange::{dual::Choice, SeparableProblem, StepRule};
    ///
    /// // Two items contend for one unit (taking it is worth 3 or 2): optimum 3.
    /// let take = |value| Choice { value, usage: vec![1.0] };
    /// let skip = Choice { value: 0.0, usage: vec![0.0] };
    /// let items = vec![vec![take(3.0), skip.clone()], vec![take(2.0), skip]];
    /// let rule = StepRule::Polyak { target: -3.0, max_step: 10.0 };
    /// let out = SeparableProblem::new(items, vec![1.0]).minimize_dual(rule, 100, vec![0.0]);
    /// assert_eq!(out.upper_bound, 3.0);
    /// ```
    ///
    /// # Panics
    /// Panics if an entry of `lambda0` is negative or non-finite, or its
    /// length is not [`SeparableProblem::resources`].
    pub fn minimize_dual(
        &self,
        rule: StepRule,
        max_iters: usize,
        lambda0: Vec<f64>,
    ) -> DualOutcome {
        for &l in &lambda0 {
            assert!(l >= 0.0 && l.is_finite(), "invalid multiplier {l}");
        }
        let mut lambda = lambda0;
        let (mut best, mut upper_bound) = (lambda.clone(), f64::INFINITY);
        let mut iterations = 0;
        for k in 1..=max_iters {
            iterations = k;
            let (q, g) = self.dual(&lambda);
            if q < upper_bound {
                upper_bound = q;
                best.clone_from(&lambda);
            }
            let norm = g.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm <= TOL || rule.ascend(k, -q, &mut lambda, &g) * norm <= TOL {
                break;
            }
        }
        DualOutcome {
            selection: self.relaxed_selection(&best),
            lambda: best,
            upper_bound,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two items, one resource of capacity 1. Each item may take the
    /// resource (value 3 or 2, usage 1) or skip (value 0). Optimum: item 0
    /// takes, item 1 skips — value 3.
    fn contention() -> SeparableProblem {
        let take = |v: f64| Choice {
            value: v,
            usage: vec![1.0],
        };
        let skip = Choice {
            value: 0.0,
            usage: vec![0.0],
        };
        SeparableProblem::new(
            vec![vec![take(3.0), skip.clone()], vec![take(2.0), skip]],
            vec![1.0],
        )
    }

    #[test]
    fn zero_prices_pick_max_value_and_violate() {
        let p = contention();
        let sel = p.relaxed_selection(&[0.0]);
        assert_eq!(sel.0, vec![0, 0], "both grab the resource");
        assert!(!p.is_feasible(&sel));
        assert_eq!(p.total_value(&sel), 5.0);
        let (q, viol) = p.dual(&[0.0]);
        assert_eq!(q, 5.0);
        assert_eq!(viol, vec![1.0]);
    }

    #[test]
    fn high_prices_push_everyone_off() {
        let p = contention();
        let sel = p.relaxed_selection(&[10.0]);
        assert_eq!(sel.0, vec![1, 1]);
        assert!(p.is_feasible(&sel));
    }

    #[test]
    fn dual_bound_dominates_optimum() {
        let p = contention();
        for l in [0.0, 1.0, 2.0, 2.5, 3.0, 5.0] {
            let (q, _) = p.dual(&[l]);
            assert!(q >= 3.0 - 1e-9, "q({l}) = {q} below optimum 3");
        }
        // At λ = 2 the bound is tight: q = (3-2) + 0 + 2·1 = 3.
        let (q, _) = p.dual(&[2.0]);
        assert!((q - 3.0).abs() < 1e-12);
    }

    #[test]
    fn subgradient_finds_near_tight_bound() {
        let out = contention().minimize_dual(StepRule::Diminishing { a: 1.0 }, 500, vec![0.0]);
        assert!(
            out.upper_bound < 3.3,
            "bound {} not near optimum 3",
            out.upper_bound
        );
        assert!(out.upper_bound >= 3.0 - 1e-9);
    }

    #[test]
    fn bigger_instance_bound_and_prices() {
        // Five items, two resources; "skip" always available.
        let mk = |v: f64, u0: f64, u1: f64| Choice {
            value: v,
            usage: vec![u0, u1],
        };
        let skip = Choice {
            value: 0.0,
            usage: vec![0.0, 0.0],
        };
        let items: Vec<Vec<Choice>> = (0..5)
            .map(|i| {
                vec![
                    mk(4.0 + i as f64, 2.0, 1.0),
                    mk(2.0, 1.0, 0.0),
                    skip.clone(),
                ]
            })
            .collect();
        let p = SeparableProblem::new(items, vec![5.0, 2.0]);
        let out = p.minimize_dual(StepRule::Diminishing { a: 2.0 }, 800, vec![0.0, 0.0]);
        // A feasible hand solution: items 3 and 4 take big (usage 4,2),
        // one more item takes small (usage 1,0) -> value 7+8+2 = 17, usage (5,2).
        assert!(out.upper_bound >= 17.0 - 1e-6);
        assert!(
            out.upper_bound <= 19.5,
            "bound {} too loose",
            out.upper_bound
        );
        // Prices should be meaningfully positive for the scarce resources.
        assert!(out.lambda.iter().any(|&l| l > 0.0));
    }

    #[test]
    fn polyak_with_the_optimal_target_converges_in_two_steps() {
        // q(0) = 5 with violation 1: the step (5 − 3)/1 lands on the tight λ = 2.
        let rule = StepRule::Polyak {
            target: -3.0,
            max_step: 10.0,
        };
        let out = contention().minimize_dual(rule, 100, vec![0.0]);
        assert_eq!(
            (out.upper_bound, out.lambda, out.iterations),
            (3.0, vec![2.0], 2)
        );
    }

    #[test]
    fn the_best_iterate_is_kept_not_the_last() {
        // Constant steps of 4 visit λ = 0 (q = 5), 4 (q = 4), then 0 again.
        let out = contention().minimize_dual(StepRule::Constant { a: 4.0 }, 3, vec![0.0]);
        assert_eq!(
            (out.upper_bound, out.lambda, out.iterations),
            (4.0, vec![4.0], 3)
        );
        assert_eq!(
            out.selection.0,
            vec![1, 1],
            "the selection is the best iterate's"
        );
    }

    #[test]
    fn a_start_without_violation_stops_after_one_iteration() {
        // At λ = 2.5 item 0 takes and item 1 skips: usage = capacity.
        let out = contention().minimize_dual(StepRule::Constant { a: 0.1 }, 100, vec![2.5]);
        assert_eq!(
            (out.upper_bound, out.lambda, out.iterations),
            (3.0, vec![2.5], 1)
        );
    }

    #[test]
    #[should_panic(expected = "invalid multiplier")]
    fn negative_start_rejected() {
        contention().minimize_dual(StepRule::Constant { a: 0.1 }, 1, vec![-1.0]);
    }

    #[test]
    #[should_panic(expected = "no options")]
    fn empty_item_rejected() {
        let _ = SeparableProblem::new(vec![vec![]], vec![]);
    }
}
