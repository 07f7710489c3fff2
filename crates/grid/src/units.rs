//! Strongly-typed simulation units.
//!
//! The paper's simulation is clock-driven with one clock cycle = 0.1 s
//! (§IV). We make that cycle the *tick*, the indivisible unit of simulated
//! time, and represent absolute times ([`Time`]) and durations ([`Dur`]) as
//! integer tick counts. Integer time makes timeline arithmetic exact — no
//! floating-point ordering hazards in gap searches or overlap checks.
//!
//! Energy remains a real quantity ([`Energy`], in the paper's abstract
//! "energy units"), as do data sizes ([`Megabits`]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Simulation ticks per simulated second (one tick = one 0.1 s clock cycle).
pub const TICKS_PER_SECOND: u64 = 10;

/// Largest tick count accepted from outside the program — a flag, a config
/// string, a wire field — for any clock value: ΔT, H, τ, a job's arrival
/// or deadline. [`Time`] and [`Dur`] arithmetic is checked, so an unbounded
/// input would turn `arrival + deadline` or `τ + ΔT` into an overflow
/// panic; under this cap any three such values (and the execution time on
/// top) add without overflow. Each value's owner enforces it:
/// `SlrhConfig::check`, `ScenarioSpec::build`, `OpenParams::check`.
/// 2^62 ticks is about 10^10 simulated years.
pub const MAX_INPUT_TICKS: u64 = 1 << 62;

/// Largest subtask count accepted from outside the program for one
/// scenario — a wire field, an inline workload's header, an open job.
/// A scenario's storage grows with it (the ETC matrix alone holds one
/// `f64` per subtask and machine), and a failed allocation aborts the
/// whole process, which no `catch_unwind` can answer; so each count's
/// owner refuses a larger one with [`check_input_tasks`] before sizing
/// anything: `ScenarioSpec::build`, `io::read`, `OpenParams::check` and
/// the campaign executor. 2^16 is above every size a request in this
/// repository carries (the largest is an 8 192-subtask export).
pub const MAX_INPUT_TASKS: usize = 1 << 16;

/// Largest scenario suite (`etc_count × dag_count` scenarios per case)
/// accepted from outside the program for one campaign. A campaign unit
/// holds one id pair, one tuned weight and one set of measurements per
/// suite member before it reports, so a product nobody bounded would let
/// one small frame size vectors past any memory, and that allocation
/// failure aborts the process like an oversized scenario does. 2^12 is
/// about 40 times the paper's 10 × 10 suite; the campaign executor
/// refuses a larger (or overflowing) product before sizing anything.
pub const MAX_INPUT_SUITE: usize = 1 << 12;

/// The one refusal of a subtask count past [`MAX_INPUT_TASKS`].
pub fn check_input_tasks(tasks: usize) -> Result<(), String> {
    if tasks > MAX_INPUT_TASKS {
        return Err(format!("tasks must be at most {MAX_INPUT_TASKS}"));
    }
    Ok(())
}

/// An absolute instant in simulated time, in ticks since the start of the run.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in ticks.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// Largest representable instant; used as an "infinite" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_seconds(secs: u64) -> Time {
        Time(secs * TICKS_PER_SECOND)
    }

    /// The instant expressed in (possibly fractional) seconds.
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Duration from `earlier` to `self`; saturates to zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition, so `Time::MAX` behaves as an absorbing bound.
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole seconds.
    pub fn from_seconds(secs: u64) -> Dur {
        Dur(secs * TICKS_PER_SECOND)
    }

    /// Convert a real-valued duration in seconds to ticks, rounding *up* so
    /// a nonzero workload never collapses to a zero-length occupation.
    ///
    /// Equal to `(secs * 10.0).ceil() as u64` for every finite
    /// non-negative `secs`, saturation at `u64::MAX` included, but the
    /// ceiling is taken in integers: the saturating cast truncates, and a
    /// truncation that lost a fraction adds one tick. (The baseline
    /// x86-64 target has no rounding instruction, so `f64::ceil` is a
    /// libm call on the planner's hot path.)
    #[inline]
    pub fn from_seconds_ceil(secs: f64) -> Dur {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration: {secs}");
        let ticks = secs * TICKS_PER_SECOND as f64;
        let whole = ticks as u64;
        Dur(if (whole as f64) < ticks {
            whole.saturating_add(1)
        } else {
            whole
        })
    }

    /// The span expressed in (possibly fractional) seconds.
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// True when the span is zero ticks long.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("Time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("Time underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur underflow"))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.checked_mul(rhs).expect("Dur overflow"))
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_seconds())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.as_seconds())
    }
}

/// An amount of energy, in the paper's abstract "energy units".
///
/// `Energy` is a thin wrapper over `f64` with only the operations the
/// simulation needs; in particular there is no `Mul<Energy>` so that
/// dimensionally nonsensical expressions do not type-check.
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
pub struct Energy(pub f64);

impl Energy {
    /// No energy.
    pub const ZERO: Energy = Energy(0.0);

    /// The raw value in energy units.
    pub fn units(self) -> f64 {
        self.0
    }

    /// `max(self, other)`, for ledger clamping.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// `min(self, other)`.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// True when within `eps` energy units of `other` (for float-tolerant
    /// assertions in tests and the validator).
    pub fn approx_eq(self, other: Energy, eps: f64) -> bool {
        (self.0 - other.0).abs() <= eps
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<Energy> for Energy {
    /// Ratio of two energies is dimensionless.
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}eu", self.0)
    }
}

/// A data size in megabits (the paper specifies bandwidths in megabits/s).
#[derive(Copy, Clone, PartialEq, PartialOrd, Debug, Default)]
pub struct Megabits(pub f64);

impl Megabits {
    /// No data.
    pub const ZERO: Megabits = Megabits(0.0);

    /// The raw number of megabits.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Transfer time in seconds over an effective bandwidth of
    /// `bw_mbps` megabits per second. This is `g · CMT` with
    /// `CMT = 1 / min(BW_i, BW_j)` resolved by the caller.
    #[inline]
    pub fn transfer_seconds(self, bw_mbps: f64) -> f64 {
        assert!(bw_mbps > 0.0, "bandwidth must be positive");
        self.0 / bw_mbps
    }

    /// Scale the data item (used for the secondary version's 10 % output).
    pub fn scaled(self, factor: f64) -> Megabits {
        Megabits(self.0 * factor)
    }
}

impl Add for Megabits {
    type Output = Megabits;
    fn add(self, rhs: Megabits) -> Megabits {
        Megabits(self.0 + rhs.0)
    }
}

impl Sum for Megabits {
    fn sum<I: Iterator<Item = Megabits>>(iter: I) -> Megabits {
        iter.fold(Megabits::ZERO, Add::add)
    }
}

impl fmt::Display for Megabits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mb", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_tenth_of_second() {
        assert_eq!(Time::from_seconds(1).0, 10);
        assert_eq!(Dur::from_seconds(34_075).0, 340_750);
    }

    #[test]
    fn ceil_rounding_never_loses_work() {
        assert_eq!(Dur::from_seconds_ceil(0.0).0, 0);
        assert_eq!(Dur::from_seconds_ceil(0.01).0, 1);
        assert_eq!(Dur::from_seconds_ceil(0.1).0, 1);
        assert_eq!(Dur::from_seconds_ceil(0.11).0, 2);
        assert_eq!(Dur::from_seconds_ceil(131.0).0, 1310);
    }

    /// What the integer ceiling must equal: the float expression it
    /// replaced.
    fn float_ceil(secs: f64) -> Dur {
        Dur((secs * TICKS_PER_SECOND as f64).ceil() as u64)
    }

    #[test]
    fn integer_ceil_matches_float_ceil_on_the_edges() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| {
            if x > 0.0 {
                f64::from_bits(x.to_bits() - 1)
            } else {
                x
            }
        };
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX / 10.0,
            f64::MAX,
        ];
        // k/10 s, i.e. exactly k ticks when the product rounds back, and
        // one ulp either side of it.
        for k in (0..2_000u64).chain([1 << 20, 1 << 40, 123_456_789]) {
            let x = k as f64 / 10.0;
            inputs.extend([ulp_down(x), x, ulp_up(x)]);
        }
        // 2^52, 2^53 ± 1, 2^63 and 2^64 ticks, with their neighbours.
        for ticks in [
            2f64.powi(52),
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
        ] {
            let x = ticks / 10.0;
            inputs.extend([ulp_down(x), x, ulp_up(x)]);
        }
        for x in inputs {
            assert_eq!(
                Dur::from_seconds_ceil(x),
                float_ceil(x),
                "secs = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        assert_eq!(
            Dur::from_seconds_ceil(f64::MAX),
            Dur(u64::MAX),
            "+inf product saturates"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_ceil_matches_float_ceil_on_any_bits(bits in proptest::any::<u64>()) {
            // Every finite non-negative f64: clear the sign, and map the
            // all-ones exponent (inf / NaN) onto the finite range.
            let mut bits = bits & !(1 << 63);
            if bits >= f64::INFINITY.to_bits() {
                bits -= f64::INFINITY.to_bits();
            }
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(Dur::from_seconds_ceil(x), float_ceil(x));
            // And the same bits scaled into the tick range that matters.
            let small = x % 1e7;
            proptest::prop_assert_eq!(Dur::from_seconds_ceil(small), float_ceil(small));
        }
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_seconds(5);
        let d = Dur::from_seconds(3);
        assert_eq!(t + d, Time::from_seconds(8));
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.since(t + d), Dur::ZERO, "since saturates");
        assert_eq!(Time::MAX.saturating_add(d), Time::MAX);
    }

    #[test]
    #[should_panic(expected = "Time underflow")]
    fn time_subtraction_checks() {
        let _ = Time::from_seconds(1) - Dur::from_seconds(2);
    }

    #[test]
    fn energy_arithmetic() {
        let b = Energy(580.0);
        let spent = Energy(13.1);
        assert!((b - spent).units() > 0.0);
        assert_eq!(Energy(2.0) / Energy(4.0), 0.5);
        assert!(Energy(1.0).approx_eq(Energy(1.0 + 1e-12), 1e-9));
        let total: Energy = [Energy(1.0), Energy(2.0)].into_iter().sum();
        assert!(total.approx_eq(Energy(3.0), 1e-12));
    }

    #[test]
    fn transfer_time_uses_min_bandwidth_semantics() {
        // 8 Mb over min(8, 4) = 4 Mb/s -> 2 s.
        let g = Megabits(8.0);
        assert_eq!(g.transfer_seconds(4.0), 2.0);
        assert_eq!(g.scaled(0.1).value(), 0.8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_seconds(2).to_string(), "2.0s");
        assert_eq!(Dur(5).to_string(), "0.5s");
        assert_eq!(Energy(1.5).to_string(), "1.500eu");
        assert_eq!(Megabits(0.25).to_string(), "0.250Mb");
    }
}
