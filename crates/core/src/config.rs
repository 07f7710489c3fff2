//! SLRH configuration: variant, clock step ΔT, horizon H, objective,
//! and the opt-in online weight [`Adaptation`] block.

use adhoc_grid::units::{Dur, MAX_INPUT_TICKS};
use lagrange::online::{MAX_MULTIPLIER, MIN_ALPHA};
use lagrange::step::StepRule;
use lagrange::weights::{AetSign, Objective, Weights};

/// The three SLRH variants of §V.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SlrhVariant {
    /// Baseline: at most one subtask/version pair per machine per timestep.
    V1,
    /// Keeps assigning pairs from the *same* candidate pool to a machine
    /// until the pool is exhausted or nothing can start within the
    /// horizon; the pool is not re-evaluated between assignments.
    V2,
    /// Like V2 but the pool is recreated and re-evaluated after every
    /// assignment, immediately admitting newly-ready children.
    V3,
}

impl SlrhVariant {
    /// All variants in paper order.
    pub const ALL: [SlrhVariant; 3] = [SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3];

    /// The paper's name for the variant.
    pub fn name(self) -> &'static str {
        match self {
            SlrhVariant::V1 => "SLRH-1",
            SlrhVariant::V2 => "SLRH-2",
            SlrhVariant::V3 => "SLRH-3",
        }
    }
}

impl std::fmt::Display for SlrhVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SlrhVariant {
    type Err = String;

    /// Accepts the paper name (`"SLRH-1"`, case-insensitive) and the
    /// terse forms `"slrh1"`/`"v1"`, so `v.to_string().parse()` always
    /// round-trips.
    fn from_str(s: &str) -> Result<SlrhVariant, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "slrh-1" | "slrh1" | "v1" => Ok(SlrhVariant::V1),
            "slrh-2" | "slrh2" | "v2" => Ok(SlrhVariant::V2),
            "slrh-3" | "slrh3" | "v3" => Ok(SlrhVariant::V3),
            other => Err(format!(
                "unknown SLRH variant {other:?} (expected SLRH-1|2|3)"
            )),
        }
    }
}

/// Opt-in online weight adaptation (the paper's §VIII "on-the-fly
/// adjustment of the Lagrangian parameters", wired into the clock loop).
///
/// When a configuration carries an `Adaptation`, the mapper re-derives
/// the constraint violations every `every`-th clock tick and replaces
/// the objective weights with one projected subgradient step
/// ([`lagrange::online::adapt_step`]; its α floor and multiplier cap
/// are constants of that module). A run starts from the objective's
/// weights. With `adaptation: None` — the default everywhere — the loop
/// is byte-identical to the legacy fixed-weight path.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Adaptation {
    /// Subgradient step-size schedule.
    pub rule: StepRule,
    /// Update cadence: one step every `every` clock ticks (>= 1). The
    /// first update happens at tick `every` — tick 0 always runs on the
    /// starting weights.
    pub every: u64,
}

impl Default for Adaptation {
    /// Defaults established by the EXPERIMENTS.md Cases A/B/C study: a
    /// constant step (the right schedule for a drifting target), updated
    /// every tick.
    fn default() -> Adaptation {
        Adaptation {
            rule: StepRule::Constant { a: 0.25 },
            every: 1,
        }
    }
}

impl Adaptation {
    /// Assemble a block from the optional parts every textual surface
    /// carries (config string, CLI flags, corpus keys): no rule means no
    /// adaptation, and then no cadence may be present; with a rule, a
    /// missing cadence takes [`Adaptation::default`]'s and the result is
    /// [checked](Adaptation::check).
    pub fn from_parts(
        rule: Option<StepRule>,
        every: Option<u64>,
    ) -> Result<Option<Adaptation>, ConfigError> {
        let Some(rule) = rule else {
            return match every {
                Some(_) => Err(ConfigError::AdaptWithoutRule),
                None => Ok(None),
            };
        };
        let adaptation = Adaptation {
            rule,
            every: every.unwrap_or(Adaptation::default().every),
        };
        adaptation.check()?;
        Ok(Some(adaptation))
    }

    /// Validate the block.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.every == 0 {
            return Err(ConfigError::ZeroAdaptEvery);
        }
        Ok(())
    }
}

/// Retired and ignored: the clustered (approximate) frontier this block
/// selected is gone, and every run uses the one exact kernel. The name
/// and [`SlrhConfig::with_scale`] stay only so callers written against
/// them keep compiling; nothing reads the value, [`SlrhConfig`] has no
/// field for it and it never reaches a config string or the wire.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ScaleMode {
    /// Ignored.
    pub clusters: u32,
}

/// Full configuration of one SLRH run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SlrhConfig {
    /// Which variant to run.
    pub variant: SlrhVariant,
    /// The objective function (weights + AET sign).
    pub objective: Objective,
    /// Clock step ΔT between heuristic invocations, in ticks
    /// (paper: 10 clock cycles = 1 s, established by the Figure 2 sweep).
    pub dt: Dur,
    /// Receding horizon H: a candidate must be able to *start* within
    /// `H` of the current clock (paper: 100 clock cycles = 10 s).
    pub horizon: Dur,
    /// Online weight adaptation. `None` (the default, and the only value
    /// [`SlrhConfig::paper`] produces) keeps the legacy fixed-weight
    /// loop byte-identical.
    pub adaptation: Option<Adaptation>,
}

impl SlrhConfig {
    /// Paper defaults: ΔT = 10 cycles, H = 100 cycles.
    pub fn paper(variant: SlrhVariant, weights: Weights) -> SlrhConfig {
        SlrhConfig {
            variant,
            objective: Objective::paper(weights),
            dt: Dur(10),
            horizon: Dur(100),
            adaptation: None,
        }
    }

    /// The one validity rule of a configuration, behind `FromStr`, the
    /// panicking `with_*` setters, the CLI and the broker's executors: ΔT
    /// and H of at least one tick and at most [`MAX_INPUT_TICKS`], a
    /// well-formed adaptation block.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.dt.is_zero() {
            return Err(ConfigError::ZeroDt);
        }
        if self.horizon.is_zero() {
            return Err(ConfigError::ZeroHorizon);
        }
        if self.dt.0 > MAX_INPUT_TICKS {
            return Err(ConfigError::DtTooLarge);
        }
        if self.horizon.0 > MAX_INPUT_TICKS {
            return Err(ConfigError::HorizonTooLarge);
        }
        if let Some(adaptation) = &self.adaptation {
            adaptation.check()?;
        }
        Ok(())
    }

    fn checked(self) -> SlrhConfig {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        self
    }

    /// Override ΔT (Figure 2 sweep).
    ///
    /// # Panics
    /// Panics on a step [`SlrhConfig::check`] rejects; set the field and
    /// call `check` for fallible construction.
    pub fn with_dt(mut self, dt: Dur) -> SlrhConfig {
        self.dt = dt;
        self.checked()
    }

    /// Override the horizon (ablation A3).
    ///
    /// # Panics
    /// Panics on a horizon [`SlrhConfig::check`] rejects.
    pub fn with_horizon(mut self, horizon: Dur) -> SlrhConfig {
        self.horizon = horizon;
        self.checked()
    }

    /// Enable online weight adaptation with the given block.
    ///
    /// # Panics
    /// Panics on a malformed block.
    pub fn with_adaptation(mut self, adaptation: Adaptation) -> SlrhConfig {
        self.adaptation = Some(adaptation);
        self.checked()
    }

    /// Retired and ignored (see [`ScaleMode`]): returns `self` unchanged.
    pub fn with_scale(self, _: ScaleMode) -> SlrhConfig {
        self
    }
}

impl std::fmt::Display for SlrhConfig {
    /// The canonical one-line rendering of a full configuration:
    ///
    /// ```text
    /// SLRH-1; w=(α=0.5, β=0.3, γ=0.2); aet=+; trigger=clock; order=numerical; dt=10; h=100; secondary=on
    /// ```
    ///
    /// Every field is printed (floats shortest-round-trip), so
    /// `config.to_string().parse::<SlrhConfig>()` reproduces the
    /// configuration exactly — the CLI, the broker wire protocol and
    /// fixture headers all name configurations through this one form.
    /// `trigger=clock; order=numerical` and `secondary=on` are fixed
    /// text: the loop has one clock and one visit order, the §IV gate
    /// always tests the secondary version, and the v1 line keeps its
    /// shape.
    ///
    /// The adaptation components (`adapt=`, `every=`) are appended
    /// **only** when the configuration carries an
    /// adaptation block, so a fixed-weight configuration renders as the
    /// bare prefix above.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; w={}; aet={}; trigger=clock; order=numerical; dt={}; h={}; secondary=on",
            self.variant,
            self.objective.weights,
            match self.objective.aet_sign {
                AetSign::Positive => "+",
                AetSign::Negative => "-",
            },
            self.dt.0,
            self.horizon.0,
        )?;
        if let Some(a) = &self.adaptation {
            write!(f, "; adapt={}; every={}", a.rule, a.every)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for SlrhConfig {
    type Err = String;

    /// Parse the [`Display`] form. The variant and `w=` are required;
    /// every other component is optional and defaults to the paper
    /// value, so `"SLRH-1; w=(0.5, 0.3)"` is a valid terse spelling.
    /// Unknown components and duplicate keys are hard errors.
    ///
    /// The retired kernel-selection components `cache=on|off`,
    /// `frontier=on|off`, `orders=on|off`, `scan=N`, `clusters=N` and
    /// `spill=N` are still accepted (value shape checked) and discarded,
    /// so v1 requests and fixture headers recorded while they existed
    /// keep parsing.
    ///
    /// The retired adaptation bounds `amin=` and `lmax=` are accepted
    /// and discarded at the only values an adaptive line ever rendered
    /// (`amin=0.05`, `lmax=8.0`, the constants of
    /// [`lagrange::online`]); any other value, and the retired warm
    /// start `warm=`, would have changed the run and is refused.
    ///
    /// `trigger=` and `order=` parse only at the loop's one clock and one
    /// visit order (`clock`, `numerical`) and are discarded; the retired
    /// event trigger (`machine-available`) and visit orders (`reversed`,
    /// `rotating`) changed the run and are refused by name. Likewise
    /// `secondary=` parses only at `on`: the retired primary-only gate
    /// (`secondary=off`) is refused by name.
    fn from_str(s: &str) -> Result<SlrhConfig, String> {
        let mut parts = s.split(';').map(str::trim);
        let variant: SlrhVariant = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("empty SLRH config {s:?}"))?
            .parse()?;
        let mut weights: Option<Weights> = None;
        let mut config = SlrhConfig::paper(variant, Weights::new(0.0, 0.0).expect("placeholder"));
        let mut seen: Vec<String> = Vec::new();
        let mut adapt_rule: Option<StepRule> = None;
        let mut adapt_every: Option<u64> = None;
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("expected key=value in SLRH config, got {part:?}"))?;
            if seen.iter().any(|k| k == key) {
                return Err(format!("duplicate component {key:?} in SLRH config"));
            }
            seen.push(key.to_string());
            match key {
                "w" => weights = Some(value.parse()?),
                "aet" => {
                    config.objective.aet_sign = match value {
                        "+" => AetSign::Positive,
                        "-" => AetSign::Negative,
                        other => return Err(format!("bad aet sign {other:?} (expected + or -)")),
                    }
                }
                "trigger" | "order" | "secondary" => retired_knob(key, value)?,
                "dt" => {
                    config.dt = Dur(value
                        .parse()
                        .map_err(|e| format!("bad dt {value:?}: {e}"))?)
                }
                "h" => {
                    config.horizon =
                        Dur(value.parse().map_err(|e| format!("bad h {value:?}: {e}"))?)
                }
                "cache" | "frontier" | "orders" => {
                    if !matches!(value, "on" | "off") {
                        return Err(format!("bad {key} value {value:?} (expected on|off)"));
                    }
                }
                "scan" | "clusters" => {
                    value
                        .parse::<u32>()
                        .map_err(|e| format!("bad {key} {value:?}: {e}"))?;
                }
                "spill" => {
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad spill {value:?}: {e}"))?;
                }
                "adapt" => adapt_rule = Some(value.parse()?),
                "every" => {
                    adapt_every = Some(
                        value
                            .parse()
                            .map_err(|e| format!("bad every {value:?}: {e}"))?,
                    )
                }
                "amin" => retired_bound(key, value, MIN_ALPHA, "the α floor")?,
                "lmax" => retired_bound(key, value, MAX_MULTIPLIER, "the multiplier cap")?,
                "warm" => {
                    return Err(format!(
                        "warm={value} is retired: the warm start is gone, \
                         put the starting weights in w= instead"
                    ))
                }
                other => return Err(format!("unknown SLRH config component {other:?}")),
            }
        }
        config.objective.weights =
            weights.ok_or_else(|| format!("SLRH config {s:?} names no weights (w=...)"))?;
        config.adaptation =
            Adaptation::from_parts(adapt_rule, adapt_every).map_err(|e| e.to_string())?;
        config.check().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// Accept a retired adaptation bound (`amin=`, `lmax=`) only at the
/// constant that replaced it.
fn retired_bound(key: &str, value: &str, fixed: f64, what: &str) -> Result<(), String> {
    match value.parse::<f64>() {
        Ok(v) if v.to_bits() == fixed.to_bits() => Ok(()),
        _ => Err(format!(
            "{key}={value} is retired: {what} is fixed at {fixed:?}"
        )),
    }
}

/// Accept a retired knob (`trigger=`, `order=`, `secondary=`) only at
/// the value SLRH still runs; name a retired value as retired, saying
/// why the kept value is the only one.
fn retired_knob(key: &str, value: &str) -> Result<(), String> {
    let (kept, retired, why): (&str, &[&str], &str) = match key {
        "trigger" => (
            "clock",
            &["machine-available"],
            "the loop runs one clock on the ΔT lattice",
        ),
        "order" => (
            "numerical",
            &["reversed", "rotating"],
            "the loop visits machines in numerical order",
        ),
        _ => (
            "on",
            &["off"],
            "the §IV gate tests the secondary version, and the primary competes when it fits too",
        ),
    };
    if value == kept {
        Ok(())
    } else if retired.contains(&value) {
        Err(format!("{key}={value} is retired: {why} ({key}={kept})"))
    } else {
        Err(format!("unknown {key} {value:?} (expected {kept})"))
    }
}

/// Why [`SlrhConfig::check`] rejected a configuration.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// ΔT must be at least one tick: the clock would not advance.
    ZeroDt,
    /// H must be at least one tick: no candidate could ever start
    /// strictly within the horizon of a busy machine.
    ZeroHorizon,
    /// ΔT is past [`MAX_INPUT_TICKS`]: `clock + ΔT` could overflow.
    DtTooLarge,
    /// H is past [`MAX_INPUT_TICKS`]: a start inside the horizon plus its
    /// execution time could overflow.
    HorizonTooLarge,
    /// The adaptation cadence must be at least one tick.
    ZeroAdaptEvery,
    /// A cadence was given without the step rule that switches
    /// adaptation on.
    AdaptWithoutRule,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroDt => f.write_str("ΔT must be at least one tick"),
            ConfigError::ZeroHorizon => f.write_str("the horizon H must be at least one tick"),
            ConfigError::DtTooLarge => {
                write!(f, "ΔT (dt=) must be at most {MAX_INPUT_TICKS} ticks")
            }
            ConfigError::HorizonTooLarge => {
                write!(
                    f,
                    "the horizon H (h=) must be at most {MAX_INPUT_TICKS} ticks"
                )
            }
            ConfigError::ZeroAdaptEvery => {
                f.write_str("the adaptation cadence (every=) must be at least one tick")
            }
            ConfigError::AdaptWithoutRule => {
                f.write_str("the adaptation cadence (every) requires an adaptation rule")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap());
        assert_eq!(c.dt, Dur(10));
        assert_eq!(c.horizon, Dur(100));
        assert_eq!(c.variant, SlrhVariant::V1);
    }

    /// Every rejection of the one validity rule, by variant — the cases
    /// the retired builder's tests pinned, plus the tick cap.
    #[test]
    fn check_names_each_broken_rule() {
        let paper = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap());
        assert_eq!(paper.check(), Ok(()));
        let broken = |edit: &dyn Fn(&mut SlrhConfig)| {
            let mut c = paper;
            edit(&mut c);
            c.check().unwrap_err()
        };
        let adapt = |a: Adaptation| move |c: &mut SlrhConfig| c.adaptation = Some(a);
        assert_eq!(broken(&|c| c.dt = Dur::ZERO), ConfigError::ZeroDt);
        assert_eq!(broken(&|c| c.horizon = Dur::ZERO), ConfigError::ZeroHorizon);
        assert_eq!(
            broken(&|c| c.dt = Dur(MAX_INPUT_TICKS + 1)),
            ConfigError::DtTooLarge
        );
        assert_eq!(
            broken(&|c| c.horizon = Dur(u64::MAX)),
            ConfigError::HorizonTooLarge
        );
        assert_eq!(
            broken(&adapt(Adaptation {
                every: 0,
                ..Adaptation::default()
            })),
            ConfigError::ZeroAdaptEvery
        );

        // The cap itself is a legal value, in the struct and in the string.
        let widest = paper
            .with_dt(Dur(MAX_INPUT_TICKS))
            .with_horizon(Dur(MAX_INPUT_TICKS));
        assert_eq!(
            widest
                .to_string()
                .parse::<SlrhConfig>()
                .expect("the cap parses"),
            widest
        );
        for s in [
            "SLRH-1; w=(0.5, 0.3); h=18446744073709551615",
            "SLRH-1; w=(0.5, 0.3); h=4611686018427387905",
            "SLRH-1; w=(0.5, 0.3); dt=9223372036854775808",
        ] {
            let err = s.parse::<SlrhConfig>().unwrap_err();
            assert!(
                err.contains("at most 4611686018427387904 ticks"),
                "{s}: {err}"
            );
        }
    }

    #[test]
    fn builders() {
        let c = SlrhConfig::paper(SlrhVariant::V3, Weights::new(0.5, 0.2).unwrap())
            .with_dt(Dur(1))
            .with_horizon(Dur(500));
        assert_eq!(c.dt, Dur(1));
        assert_eq!(c.horizon, Dur(500));
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_dt_rejected() {
        let _ =
            SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.2).unwrap()).with_dt(Dur::ZERO);
    }

    #[test]
    fn names() {
        assert_eq!(SlrhVariant::V1.to_string(), "SLRH-1");
        assert_eq!(SlrhVariant::ALL.len(), 3);
    }

    #[test]
    fn default_display_is_the_bare_prefix() {
        let c = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        assert_eq!(
            c.to_string(),
            "SLRH-1; w=(α=0.5, β=0.3, γ=0.2); aet=+; trigger=clock; order=numerical; \
             dt=10; h=100; secondary=on"
        );
    }

    #[test]
    fn retired_components_parse_and_are_discarded() {
        let paper = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        // The exact default line every pre-removal fixture and v1 request
        // carries.
        let legacy: SlrhConfig = "SLRH-1; w=(α=0.5, β=0.3, γ=0.2); aet=+; trigger=clock; \
                                  order=numerical; dt=10; h=100; secondary=on; cache=on"
            .parse()
            .expect("pre-removal default line parses");
        assert_eq!(legacy, paper);
        // Every retired kernel selector, at either value, changes nothing.
        for s in [
            "SLRH-1; w=(0.5, 0.3); cache=off",
            "SLRH-1; w=(0.5, 0.3); frontier=on",
            "SLRH-1; w=(0.5, 0.3); frontier=off",
            "SLRH-1; w=(0.5, 0.3); frontier=on; scan=4; orders=off",
        ] {
            assert_eq!(s.parse::<SlrhConfig>().expect(s), paper, "{s}");
        }
        // Shape is still validated and duplicates are still errors.
        for s in [
            "SLRH-1; w=(0.5, 0.3); cache=maybe",
            "SLRH-1; w=(0.5, 0.3); scan=many",
            "SLRH-1; w=(0.5, 0.3); orders=1",
            "SLRH-1; w=(0.5, 0.3); cache=on; cache=on",
        ] {
            assert!(s.parse::<SlrhConfig>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn adaptive_display_round_trips() {
        let mut c = SlrhConfig::paper(SlrhVariant::V2, Weights::new(0.5, 0.3).unwrap());
        c.adaptation = Some(Adaptation {
            rule: StepRule::Polyak {
                target: 1.5,
                max_step: 0.25,
            },
            every: 4,
        });
        let text = c.to_string();
        assert!(
            text.ends_with("; adapt=polyak(1.5, 0.25); every=4"),
            "{text}"
        );
        let back: SlrhConfig = text.parse().expect("adaptive config parses");
        assert_eq!(back, c);
    }

    /// The loop's one clock and one visit order and the one version
    /// rule parse and round-trip; the retired event trigger, visit
    /// orders and primary-only gate changed the run, so each is refused
    /// by name.
    #[test]
    fn retired_knobs_parse_only_at_the_paper_values() {
        let paper = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        let c: SlrhConfig = "SLRH-1; w=(0.5, 0.3); trigger=clock; order=numerical; secondary=on"
            .parse()
            .expect("the paper's loop knobs parse");
        assert_eq!(c, paper);
        assert_eq!(c.to_string().parse::<SlrhConfig>(), Ok(c));
        assert!(c.to_string().ends_with("; secondary=on"), "{c}");
        for (tail, names) in [
            (
                "trigger=machine-available",
                "trigger=machine-available is retired",
            ),
            ("order=reversed", "order=reversed is retired"),
            ("order=rotating", "order=rotating is retired"),
            ("secondary=off", "secondary=off is retired"),
        ] {
            let err = format!("SLRH-1; w=(0.5, 0.3); {tail}")
                .parse::<SlrhConfig>()
                .unwrap_err();
            assert!(err.contains(names), "{tail}: {err}");
        }
        for s in [
            "SLRH-1; w=(0.5, 0.3); trigger=event",
            "SLRH-1; w=(0.5, 0.3); order=",
            "SLRH-1; w=(0.5, 0.3); trigger=clock; trigger=clock",
            "SLRH-1; w=(0.5, 0.3); secondary=maybe",
            "SLRH-1; w=(0.5, 0.3); secondary=on; secondary=on",
        ] {
            assert!(s.parse::<SlrhConfig>().is_err(), "accepted {s:?}");
        }
    }

    /// Every adaptive line the retired bounds were rendered into ends
    /// `; amin=0.05; lmax=8.0`: it parses to the same run. Any other
    /// bound, and any warm start, names the retired knob and is refused.
    #[test]
    fn retired_adaptation_bounds_parse_only_at_their_constants() {
        let c = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap())
            .with_adaptation(Adaptation {
                rule: StepRule::Diminishing { a: 0.5 },
                every: 10,
            });
        let legacy = format!("{c}; amin=0.05; lmax=8.0");
        assert_eq!(legacy.parse::<SlrhConfig>().expect("legacy line parses"), c);
        assert_eq!(format!("{c}; lmax=8").parse::<SlrhConfig>(), Ok(c));
        // Without a rule the constants change nothing either.
        let paper = SlrhConfig {
            adaptation: None,
            ..c
        };
        assert_eq!(
            format!("{paper}; amin=0.05").parse::<SlrhConfig>(),
            Ok(paper)
        );
        for (tail, names) in [
            ("amin=0.1", "amin=0.1 is retired"),
            ("lmax=4", "lmax=4 is retired"),
            ("amin=x", "amin=x is retired"),
            ("warm=(0.4, 0.2)", "put the starting weights in w= instead"),
        ] {
            let err = format!("{c}; {tail}").parse::<SlrhConfig>().unwrap_err();
            assert!(err.contains(names), "{tail}: {err}");
        }
    }

    #[test]
    fn adapt_components_default_from_the_block_defaults() {
        let c: SlrhConfig = "SLRH-1; w=(0.5, 0.3); adapt=constant(0.25)"
            .parse()
            .expect("terse adaptive config parses");
        assert_eq!(c.adaptation, Some(Adaptation::default()));
    }

    #[test]
    fn a_cadence_requires_the_rule() {
        let err = "SLRH-1; w=(0.5, 0.3); every=2"
            .parse::<SlrhConfig>()
            .unwrap_err();
        assert_eq!(err, ConfigError::AdaptWithoutRule.to_string());
    }

    #[test]
    fn malformed_adaptation_rejected() {
        for s in [
            "SLRH-1; w=(0.5, 0.3); adapt=constant(0.25); every=0",
            "SLRH-1; w=(0.5, 0.3); adapt=constant(0.25); amin=0.0",
            "SLRH-1; w=(0.5, 0.3); adapt=constant(0.25); lmax=0.0",
            "SLRH-1; w=(0.5, 0.3); adapt=constant(0.25); amin=0.05; amin=0.05",
            "SLRH-1; w=(0.5, 0.3); adapt=newton(0.25)",
        ] {
            assert!(s.parse::<SlrhConfig>().is_err(), "accepted {s:?}");
        }
    }

    /// The clustered kernel's keys outlive it the way `cache=` did: a
    /// recorded request that carries them maps as the paper config.
    #[test]
    fn retired_scale_components_parse_and_are_discarded() {
        let paper = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        let c: SlrhConfig = "SLRH-1; w=(0.5, 0.3); frontier=on; clusters=16; spill=4"
            .parse()
            .expect("retired scale keys parse");
        assert_eq!(c, paper);
        assert_eq!(
            c.to_string(),
            "SLRH-1; w=(α=0.5, β=0.3, γ=0.2); aet=+; trigger=clock; order=numerical; \
             dt=10; h=100; secondary=on"
        );
        assert_eq!(paper.with_scale(ScaleMode { clusters: 8 }), paper);
        for s in [
            "SLRH-1; w=(0.5, 0.3); clusters=x",
            "SLRH-1; w=(0.5, 0.3); spill=-1",
            "SLRH-1; w=(0.5, 0.3); clusters=2; clusters=2",
        ] {
            assert!(s.parse::<SlrhConfig>().is_err(), "accepted {s:?}");
        }
    }
}
