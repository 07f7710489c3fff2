//! Projected Lagrange multiplier vectors.
//!
//! For inequality constraints `g_k(x) <= 0` the multipliers live in the
//! non-negative orthant; the dual ascent update is the projected
//! subgradient step `λ_k <- max(0, λ_k + s·g_k(x))`, where the constraint
//! violation `g_k(x)` *is* a subgradient of the dual at λ.

use crate::step::StepRule;

/// A non-negative multiplier vector with projected subgradient updates.
#[derive(Clone, PartialEq, Debug)]
pub struct MultiplierVector {
    lambda: Vec<f64>,
    iteration: usize,
}

impl MultiplierVector {
    /// All-zero multipliers for `n` constraints.
    pub fn zeros(n: usize) -> MultiplierVector {
        MultiplierVector {
            lambda: vec![0.0; n],
            iteration: 0,
        }
    }

    /// Start from explicit values (warm start — the paper's motivation for
    /// the Lagrangian approach is that "pre-existing optimal values of the
    /// Lagrangian multipliers can be used as a starting point" after a
    /// change).
    ///
    /// # Panics
    /// Panics if any value is negative or non-finite.
    pub fn from_values(lambda: Vec<f64>) -> MultiplierVector {
        for &l in &lambda {
            assert!(l >= 0.0 && l.is_finite(), "invalid multiplier {l}");
        }
        MultiplierVector {
            lambda,
            iteration: 0,
        }
    }

    /// The current values.
    pub fn values(&self) -> &[f64] {
        &self.lambda
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.lambda.len()
    }

    /// True when tracking no constraints.
    pub fn is_empty(&self) -> bool {
        self.lambda.is_empty()
    }

    /// Completed update count.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// One projected ascent step along the constraint violations
    /// `g` (positive = violated). Returns the step size used.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn ascend(&mut self, rule: &StepRule, dual_value: f64, violations: &[f64]) -> f64 {
        assert_eq!(
            violations.len(),
            self.lambda.len(),
            "violation vector dimension mismatch"
        );
        self.iteration += 1;
        let norm_sq: f64 = violations.iter().map(|g| g * g).sum();
        let s = rule.step(self.iteration, dual_value, norm_sq);
        for (l, g) in self.lambda.iter_mut().zip(violations) {
            *l = (*l + s * g).max(0.0);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascent_moves_along_violations() {
        let mut m = MultiplierVector::zeros(2);
        let s = m.ascend(&StepRule::Constant { a: 0.5 }, 0.0, &[2.0, -1.0]);
        assert_eq!(s, 0.5);
        assert_eq!(m.values(), &[1.0, 0.0], "projection keeps λ >= 0");
        assert_eq!(m.iteration(), 1);
    }

    #[test]
    fn satisfied_constraints_drive_lambda_down() {
        let mut m = MultiplierVector::from_values(vec![1.0]);
        for _ in 0..10 {
            m.ascend(&StepRule::Constant { a: 0.2 }, 0.0, &[-1.0]);
        }
        assert_eq!(m.values(), &[0.0]);
    }

    #[test]
    fn diminishing_steps_advance_iteration_count() {
        let mut m = MultiplierVector::zeros(1);
        let s1 = m.ascend(&StepRule::Diminishing { a: 1.0 }, 0.0, &[1.0]);
        let s2 = m.ascend(&StepRule::Diminishing { a: 1.0 }, 0.0, &[1.0]);
        assert!(s2 < s1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut m = MultiplierVector::zeros(2);
        m.ascend(&StepRule::Constant { a: 1.0 }, 0.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "invalid multiplier")]
    fn negative_start_rejected() {
        let _ = MultiplierVector::from_values(vec![-1.0]);
    }
}
