//! Subgradient step-size rules.
//!
//! Subgradient methods do not descend monotonically, so the step-size
//! schedule *is* the algorithm. The three classic rules are provided:
//!
//! * **Constant** — converges to within a ball of the optimum whose radius
//!   scales with the step; the right choice for a non-stationary target
//!   (e.g. the online weight controller, where the "problem" drifts as the
//!   grid changes);
//! * **Diminishing** `a/√k` — the textbook divergent-sum,
//!   square-summable-ratio schedule guaranteeing convergence for concave
//!   duals;
//! * **Polyak** — `(f̂ − f_k)/‖g_k‖²` given an estimate `f̂` of the optimal
//!   value; the fastest rule when a bound (such as a feasible primal
//!   value) is available.

use std::fmt;

/// A step-size schedule for subgradient iterations.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum StepRule {
    /// Fixed step `a`.
    Constant {
        /// The step size.
        a: f64,
    },
    /// `a / sqrt(k)` at iteration `k >= 1`.
    Diminishing {
        /// The numerator.
        a: f64,
    },
    /// Polyak's rule: `(target − value) / ‖g‖²`, clamped to
    /// `[0, max_step]` so a bad target estimate cannot explode the
    /// iterates.
    Polyak {
        /// Estimate of the optimal (maximal) dual value.
        target: f64,
        /// Upper clamp on the step.
        max_step: f64,
    },
}

impl StepRule {
    /// The step to take at iteration `k` (1-based), given the current
    /// objective `value` and subgradient norm-squared `grad_norm_sq`.
    ///
    /// Returns 0 when the subgradient vanishes (already optimal).
    pub fn step(&self, k: usize, value: f64, grad_norm_sq: f64) -> f64 {
        assert!(k >= 1, "iterations are 1-based");
        if grad_norm_sq <= 0.0 {
            return 0.0;
        }
        match *self {
            StepRule::Constant { a } => a,
            StepRule::Diminishing { a } => a / (k as f64).sqrt(),
            StepRule::Polyak { target, max_step } => {
                ((target - value) / grad_norm_sq).clamp(0.0, max_step)
            }
        }
    }

    /// The `k`-th projected ascent step `λ ← max(0, λ + s·g)` along the
    /// constraint violations `g` (positive = violated); returns the step
    /// `s`. The one projected multiplier update, shared by the dual solver
    /// and the online weight controller.
    ///
    /// # Panics
    /// Panics on a dimension mismatch, or when `k == 0`.
    pub fn ascend(&self, k: usize, value: f64, lambda: &mut [f64], g: &[f64]) -> f64 {
        assert_eq!(g.len(), lambda.len(), "violation vector dimension mismatch");
        let s = self.step(k, value, g.iter().map(|g| g * g).sum());
        for (l, g) in lambda.iter_mut().zip(g) {
            *l = (*l + s * g).max(0.0);
        }
        s
    }
}

impl fmt::Display for StepRule {
    /// The canonical, machine-readable rendering: `constant(a)`,
    /// `diminishing(a)`, or `polyak(target, max_step)`, with every `f64`
    /// printed via shortest-round-trip `{:?}` so
    /// `rule.to_string().parse::<StepRule>()` returns a bit-identical
    /// rule. The CLI, the SLRH config string, and the stress corpus all
    /// name step rules through this one form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StepRule::Constant { a } => write!(f, "constant({a:?})"),
            StepRule::Diminishing { a } => write!(f, "diminishing({a:?})"),
            StepRule::Polyak { target, max_step } => {
                write!(f, "polyak({target:?}, {max_step:?})")
            }
        }
    }
}

impl std::str::FromStr for StepRule {
    type Err = String;

    /// Parse the [`Display`] form. Whitespace around the name, the
    /// parentheses and the arguments is tolerated; the argument count
    /// must match the rule, and every argument must be a finite,
    /// non-negative `f64` (a negative "step" would descend the dual).
    fn from_str(s: &str) -> Result<StepRule, String> {
        let s = s.trim();
        let (name, rest) = s
            .split_once('(')
            .ok_or_else(|| format!("step rule {s:?} has no argument list"))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("step rule {s:?} has an unclosed argument list"))?;
        let args: Vec<f64> = args
            .split(',')
            .map(|a| {
                let a = a.trim();
                let v: f64 = a
                    .parse()
                    .map_err(|e| format!("bad step-rule argument {a:?}: {e}"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("step-rule argument {a:?} must be finite and >= 0"));
                }
                Ok(v)
            })
            .collect::<Result<_, String>>()?;
        let arity = |n: usize| {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "step rule {:?} takes {n} argument(s), got {}",
                    name.trim(),
                    args.len()
                ))
            }
        };
        match name.trim() {
            "constant" => {
                arity(1)?;
                Ok(StepRule::Constant { a: args[0] })
            }
            "diminishing" => {
                arity(1)?;
                Ok(StepRule::Diminishing { a: args[0] })
            }
            "polyak" => {
                arity(2)?;
                Ok(StepRule::Polyak {
                    target: args[0],
                    max_step: args[1],
                })
            }
            other => Err(format!("unknown step rule {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_iteration() {
        let r = StepRule::Constant { a: 0.5 };
        assert_eq!(r.step(1, 0.0, 1.0), 0.5);
        assert_eq!(r.step(100, -3.0, 9.0), 0.5);
    }

    #[test]
    fn diminishing_decays_like_inverse_sqrt() {
        let r = StepRule::Diminishing { a: 2.0 };
        assert_eq!(r.step(1, 0.0, 1.0), 2.0);
        assert_eq!(r.step(4, 0.0, 1.0), 1.0);
        assert_eq!(r.step(100, 0.0, 1.0), 0.2);
    }

    #[test]
    fn polyak_scales_with_gap() {
        let r = StepRule::Polyak {
            target: 10.0,
            max_step: 100.0,
        };
        // gap 4, |g|^2 = 2 -> step 2.
        assert_eq!(r.step(1, 6.0, 2.0), 2.0);
        // Past the target: no step backwards.
        assert_eq!(r.step(1, 11.0, 2.0), 0.0);
        // Clamped.
        let r = StepRule::Polyak {
            target: 10.0,
            max_step: 0.1,
        };
        assert_eq!(r.step(1, 0.0, 1.0), 0.1);
    }

    #[test]
    fn ascent_moves_along_violations_and_projects() {
        let mut lambda = [0.0, 0.0];
        assert_eq!(
            StepRule::Constant { a: 0.5 }.ascend(1, 0.0, &mut lambda, &[2.0, -1.0]),
            0.5
        );
        assert_eq!(lambda, [1.0, 0.0], "projection keeps λ >= 0");
        let mut lambda = [1.0];
        for k in 1..=10 {
            StepRule::Constant { a: 0.2 }.ascend(k, 0.0, &mut lambda, &[-1.0]);
        }
        assert_eq!(lambda, [0.0], "satisfied constraints drive λ to 0");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ascend_dimension_mismatch_panics() {
        StepRule::Constant { a: 1.0 }.ascend(1, 0.0, &mut [0.0, 0.0], &[1.0]);
    }

    #[test]
    fn display_from_str_round_trips_bit_exactly() {
        for rule in [
            StepRule::Constant { a: 0.25 },
            StepRule::Constant { a: 0.1 + 0.2 }, // 0.30000000000000004
            StepRule::Diminishing { a: 2.0 },
            StepRule::Polyak {
                target: 1.5,
                max_step: 0.25,
            },
            StepRule::Constant { a: 0.0 },
        ] {
            let back: StepRule = rule.to_string().parse().expect("parse Display form");
            assert_eq!(back, rule, "{rule}");
        }
    }

    #[test]
    fn from_str_tolerates_whitespace() {
        assert_eq!(
            " polyak( 1.5 , 0.25 ) ".parse::<StepRule>().unwrap(),
            StepRule::Polyak {
                target: 1.5,
                max_step: 0.25
            }
        );
    }

    #[test]
    fn from_str_rejects_malformed() {
        for bad in [
            "",
            "constant",
            "constant()",
            "constant(1.0",
            "constant(1.0, 2.0)",
            "diminishing(-0.5)",
            "polyak(1.0)",
            "polyak(inf, 1.0)",
            "polyak(nan, 1.0)",
            "newton(1.0)",
            "constant(abc)",
        ] {
            assert!(bad.parse::<StepRule>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn zero_gradient_means_zero_step() {
        for r in [
            StepRule::Constant { a: 1.0 },
            StepRule::Diminishing { a: 1.0 },
            StepRule::Polyak {
                target: 1.0,
                max_step: 1.0,
            },
        ] {
            assert_eq!(r.step(3, 0.0, 0.0), 0.0);
        }
    }
}
