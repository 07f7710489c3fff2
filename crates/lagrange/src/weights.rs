//! The objective weights `(α, β, γ)` and the paper's global objective.
//!
//! §IV: "Using α, β, and γ as the weights ... the global objective
//! function can be written as
//!
//! ```text
//! ObjFn(α, β, γ) = α · T100/|T|  −  β · TEC/TSE  +  γ · AET/τ
//! ```
//!
//! Each term of the objective function has been normalized to the \[0,1\]
//! range. By constraining each of the weights to that range, and requiring
//! that α+β+γ = 1, the objective function was confined to the same \[0,1\]
//! range." (More precisely the value lies in \[−1, 1\]; the paper's claim
//! holds for the configurations it reports.)
//!
//! The γ term carries a **positive** sign by design: "the positive sign on
//! the final term was selected to encourage use of all of the available
//! time" — a negative sign produced short-AET, low-`T100` mappings. The
//! [`AetSign`] knob exposes the alternative for the sign ablation.

use std::fmt;

/// Error constructing a weight triple.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum WeightError {
    /// A weight fell outside `[0, 1]`.
    OutOfRange {
        /// Which weight ("alpha" or "beta").
        which: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `alpha + beta` exceeded 1, leaving no room for a valid γ.
    SumExceedsOne {
        /// The offending `alpha + beta`.
        sum: f64,
    },
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::OutOfRange { which, value } => {
                write!(f, "{which} = {value} is outside [0, 1]")
            }
            WeightError::SumExceedsOne { sum } => {
                write!(f, "alpha + beta = {sum} exceeds 1")
            }
        }
    }
}

impl std::error::Error for WeightError {}

/// A weight triple on the unit simplex: `α, β, γ ∈ [0, 1]`, `α+β+γ = 1`.
///
/// Only α and β are free; γ is derived ("although only two weights are
/// actually required, three weights were used ... to allow easy
/// investigation of system performance in the absence of any of the three
/// terms").
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Weights {
    alpha: f64,
    beta: f64,
}

impl Weights {
    /// Build from `(α, β)`; `γ = 1 − α − β`.
    pub fn new(alpha: f64, beta: f64) -> Result<Weights, WeightError> {
        for (which, value) in [("alpha", alpha), ("beta", beta)] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(WeightError::OutOfRange { which, value });
            }
        }
        // Tolerate tiny float excess from grid arithmetic.
        if alpha + beta > 1.0 + 1e-12 {
            return Err(WeightError::SumExceedsOne { sum: alpha + beta });
        }
        Ok(Weights {
            alpha,
            beta: beta.min(1.0 - alpha),
        })
    }

    /// The `T100` reward weight α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The energy penalty weight β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The time weight γ = 1 − α − β.
    pub fn gamma(&self) -> f64 {
        (1.0 - self.alpha - self.beta).max(0.0)
    }

    /// Shift by `(dα, dβ)`, clamping back onto the simplex. Clamping keeps
    /// α and β in `[0, 1]` and shrinks β first if the pair would overflow
    /// the simplex.
    pub fn shifted(&self, d_alpha: f64, d_beta: f64) -> Weights {
        let alpha = (self.alpha + d_alpha).clamp(0.0, 1.0);
        let beta = (self.beta + d_beta).clamp(0.0, 1.0 - alpha);
        Weights { alpha, beta }
    }
}

impl fmt::Display for Weights {
    /// The canonical, machine-readable rendering: shortest-round-trip
    /// decimals (`{:?}`), so `w.to_string().parse::<Weights>()` returns
    /// a bit-identical triple. The CLI, the broker wire protocol and the
    /// golden fixtures all name weight triples through this one form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(α={:?}, β={:?}, γ={:?})",
            self.alpha,
            self.beta,
            self.gamma()
        )
    }
}

impl std::str::FromStr for Weights {
    type Err = String;

    /// Parse the [`Display`] form `(α=A, β=B, γ=G)`. ASCII key spellings
    /// (`alpha=`/`beta=`/`gamma=`, `a=`/`b=`/`g=`) are accepted, the
    /// parentheses and the γ component are optional (γ is derived; when
    /// present it is checked for consistency), and a bare `A,B` pair
    /// also parses. The result is validated by [`Weights::new`].
    fn from_str(s: &str) -> Result<Weights, String> {
        let inner = s.trim();
        let inner = inner
            .strip_prefix('(')
            .and_then(|t| t.strip_suffix(')'))
            .unwrap_or(inner);
        let mut alpha = None;
        let mut beta = None;
        let mut gamma = None;
        for (i, part) in inner.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty component in weights {s:?}"));
            }
            let (slot, value) = match part.split_once('=') {
                Some((k, v)) => {
                    let slot = match k.trim() {
                        "α" | "alpha" | "a" => &mut alpha,
                        "β" | "beta" | "b" => &mut beta,
                        "γ" | "gamma" | "g" => &mut gamma,
                        other => return Err(format!("unknown weight component {other:?}")),
                    };
                    (slot, v)
                }
                // Bare positional form: alpha, beta.
                None => match i {
                    0 => (&mut alpha, part),
                    1 => (&mut beta, part),
                    _ => return Err(format!("too many bare components in weights {s:?}")),
                },
            };
            let parsed: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad weight value {value:?}: {e}"))?;
            if slot.replace(parsed).is_some() {
                return Err(format!("duplicate weight component in {s:?}"));
            }
        }
        let alpha = alpha.ok_or_else(|| format!("weights {s:?} name no α"))?;
        let beta = beta.ok_or_else(|| format!("weights {s:?} name no β"))?;
        let w = Weights::new(alpha, beta).map_err(|e| e.to_string())?;
        if let Some(g) = gamma {
            if (g - w.gamma()).abs() > 1e-9 {
                return Err(format!(
                    "inconsistent γ = {g} for α = {alpha}, β = {beta} (derived γ = {})",
                    w.gamma()
                ));
            }
        }
        Ok(w)
    }
}

/// Sign of the γ·AET/τ term.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum AetSign {
    /// The paper's choice: reward using the available time.
    #[default]
    Positive,
    /// The rejected alternative: penalize long schedules (ablation A2).
    Negative,
}

impl AetSign {
    fn factor(self) -> f64 {
        match self {
            AetSign::Positive => 1.0,
            AetSign::Negative => -1.0,
        }
    }
}

/// The normalized fractions the objective is evaluated on.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ObjectiveInputs {
    /// `T100 / |T|`.
    pub t100_frac: f64,
    /// `TEC / TSE`.
    pub tec_frac: f64,
    /// `AET / τ`.
    pub aet_frac: f64,
}

/// The paper's global objective function.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Objective {
    /// The weight triple.
    pub weights: Weights,
    /// Sign convention for the AET term (paper: positive).
    pub aet_sign: AetSign,
}

impl Objective {
    /// The paper's form: positive AET term.
    pub fn paper(weights: Weights) -> Objective {
        Objective {
            weights,
            aet_sign: AetSign::Positive,
        }
    }

    /// Evaluate `ObjFn` on the given fractions. Larger is better.
    pub fn evaluate(&self, inputs: &ObjectiveInputs) -> f64 {
        let w = &self.weights;
        w.alpha() * inputs.t100_frac - w.beta() * inputs.tec_frac
            + self.aet_sign.factor() * w.gamma() * inputs.aet_frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplex_construction() {
        let w = Weights::new(0.6, 0.3).unwrap();
        assert_eq!(w.alpha(), 0.6);
        assert_eq!(w.beta(), 0.3);
        assert!((w.gamma() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Weights::new(-0.1, 0.5),
            Err(WeightError::OutOfRange { which: "alpha", .. })
        ));
        assert!(matches!(
            Weights::new(0.5, 1.1),
            Err(WeightError::OutOfRange { which: "beta", .. })
        ));
        assert!(matches!(
            Weights::new(0.7, 0.7),
            Err(WeightError::SumExceedsOne { .. })
        ));
        assert!(Weights::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn boundary_weights_allowed() {
        let w = Weights::new(1.0, 0.0).unwrap();
        assert_eq!(w.gamma(), 0.0);
        let w = Weights::new(0.0, 0.0).unwrap();
        assert_eq!(w.gamma(), 1.0);
    }

    #[test]
    fn float_grid_sums_tolerated() {
        // 0.58 + 0.42 can exceed 1.0 by an ulp in grid arithmetic.
        let a = 0.58f64;
        let b = 1.0 - a + 1e-13;
        let w = Weights::new(a, b).unwrap();
        assert!(w.gamma() >= 0.0);
    }

    #[test]
    fn objective_matches_paper_form() {
        let w = Weights::new(0.5, 0.3).unwrap();
        let obj = Objective::paper(w);
        let inputs = ObjectiveInputs {
            t100_frac: 0.8,
            tec_frac: 0.5,
            aet_frac: 0.9,
        };
        // 0.5*0.8 - 0.3*0.5 + 0.2*0.9 = 0.4 - 0.15 + 0.18 = 0.43.
        assert!((obj.evaluate(&inputs) - 0.43).abs() < 1e-12);
    }

    #[test]
    fn negative_sign_ablation() {
        let w = Weights::new(0.5, 0.3).unwrap();
        let obj = Objective {
            weights: w,
            aet_sign: AetSign::Negative,
        };
        let inputs = ObjectiveInputs {
            t100_frac: 0.8,
            tec_frac: 0.5,
            aet_frac: 0.9,
        };
        assert!((obj.evaluate(&inputs) - (0.4 - 0.15 - 0.18)).abs() < 1e-12);
    }

    #[test]
    fn objective_bounded_on_unit_inputs() {
        // For fractions in [0,1] and weights on the simplex, ObjFn ∈ [-1, 1].
        for &(a, b) in &[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.3, 0.3)] {
            let obj = Objective::paper(Weights::new(a, b).unwrap());
            for &t in &[0.0, 0.5, 1.0] {
                for &e in &[0.0, 0.5, 1.0] {
                    for &x in &[0.0, 0.5, 1.0] {
                        let v = obj.evaluate(&ObjectiveInputs {
                            t100_frac: t,
                            tec_frac: e,
                            aet_frac: x,
                        });
                        assert!((-1.0..=1.0).contains(&v));
                    }
                }
            }
        }
    }

    #[test]
    fn shifted_clamps_to_simplex() {
        let w = Weights::new(0.9, 0.05).unwrap();
        let s = w.shifted(0.2, 0.2);
        assert_eq!(s.alpha(), 1.0);
        assert_eq!(s.beta(), 0.0);
        let s = w.shifted(-2.0, 0.5);
        assert_eq!(s.alpha(), 0.0);
        assert!((s.beta() - 0.55).abs() < 1e-12);
        assert!(s.gamma() >= 0.0);
    }

    #[test]
    fn display() {
        let w = Weights::new(0.5, 0.25).unwrap();
        assert_eq!(w.to_string(), "(α=0.5, β=0.25, γ=0.25)");
    }

    #[test]
    fn display_from_str_round_trips_bit_exactly() {
        // Values chosen to stress shortest-round-trip printing: exact
        // dyadics, repeating decimals, grid-arithmetic residue.
        for (a, b) in [
            (0.5, 0.25),
            (0.1, 0.2),
            (0.6000000000000001, 0.35000000000000003),
            (1.0, 0.0),
            (0.0, 0.0),
            (1.0 / 3.0, 1.0 / 3.0),
        ] {
            let w = Weights::new(a, b).unwrap();
            let back: Weights = w.to_string().parse().expect("parse Display form");
            assert_eq!(back.alpha().to_bits(), w.alpha().to_bits());
            assert_eq!(back.beta().to_bits(), w.beta().to_bits());
        }
    }

    #[test]
    fn from_str_accepts_alternate_spellings() {
        let w = Weights::new(0.5, 0.3).unwrap();
        for s in [
            "(α=0.5, β=0.3, γ=0.2)",
            "alpha=0.5, beta=0.3",
            "a=0.5,b=0.3",
            "0.5, 0.3",
            "(0.5, 0.3)",
        ] {
            assert_eq!(s.parse::<Weights>().expect(s), w, "{s}");
        }
    }

    #[test]
    fn from_str_rejects_malformed_and_inconsistent() {
        assert!("".parse::<Weights>().is_err());
        assert!("(α=0.5)".parse::<Weights>().is_err());
        assert!(
            "(α=0.5, β=0.3, γ=0.9)".parse::<Weights>().is_err(),
            "wrong γ"
        );
        assert!("(α=0.9, β=0.9)".parse::<Weights>().is_err(), "off simplex");
        assert!("(q=0.5, β=0.3)".parse::<Weights>().is_err());
        assert!("(α=0.5, α=0.5, β=0.3)".parse::<Weights>().is_err());
        assert!("0.1, 0.2, 0.7".parse::<Weights>().is_err(), "bare γ");
    }
}
