//! Property test: `SlrhConfig`'s `Display`/`FromStr` pair round-trips
//! every representable configuration exactly — weights bit for bit,
//! every knob preserved. The broker wire protocol and the CLI both name
//! configurations through this form, so it must be total over the knob
//! space, not just the paper defaults.

use adhoc_grid::units::Dur;
use lagrange::weights::{AetSign, Weights};
use proptest::prelude::*;
use slrh::{SlrhConfig, SlrhVariant};

fn configs() -> impl Strategy<Value = SlrhConfig> {
    (
        (
            0usize..3,     // variant
            0.0f64..=1.0,  // alpha
            0.0f64..=1.0,  // beta (projected)
            any::<bool>(), // aet sign
        ),
        (
            1u64..500,  // dt
            1u64..2000, // horizon
        ),
    )
        .prop_map(|((v, a, b, aet), (dt, h))| {
            let w = Weights::new(a, b.min(1.0 - a)).expect("on-simplex");
            let mut c = SlrhConfig::paper(SlrhVariant::ALL[v], w);
            c.objective.aet_sign = if aet {
                AetSign::Positive
            } else {
                AetSign::Negative
            };
            c.dt = Dur(dt);
            c.horizon = Dur(h);
            c
        })
}

proptest! {
    #[test]
    fn display_round_trips_exactly(config in configs()) {
        let text = config.to_string();
        let back: SlrhConfig = text.parse().expect("Display form parses");
        prop_assert_eq!(back, config);
        // Weights equality above is f64 PartialEq; additionally pin bits.
        prop_assert_eq!(
            back.objective.weights.alpha().to_bits(),
            config.objective.weights.alpha().to_bits()
        );
        // And printing again is a fixpoint.
        prop_assert_eq!(back.to_string(), text);
    }
}

#[test]
fn terse_form_defaults_to_paper() {
    let c: SlrhConfig = "SLRH-1; w=(0.5, 0.3)".parse().expect("terse form");
    let w = Weights::new(0.5, 0.3).unwrap();
    assert_eq!(c, SlrhConfig::paper(SlrhVariant::V1, w));
}

#[test]
fn malformed_configs_are_rejected() {
    for bad in [
        "",
        "SLRH-9; w=(0.5, 0.3)",
        "SLRH-1",                           // no weights
        "SLRH-1; w=(0.5, 0.3); dt=0",       // degenerate clock
        "SLRH-1; w=(0.5, 0.3); h=0",        // degenerate horizon
        "SLRH-1; w=(0.5, 0.3); warp=9",     // unknown component
        "SLRH-1; w=(0.5, 0.3); dt=5; dt=6", // duplicate component
        "SLRH-1; w=(0.9, 0.9)",             // off-simplex weights
        "SLRH-1; w=(0.5, 0.3); aet=0",      // bad sign
    ] {
        assert!(
            bad.parse::<SlrhConfig>().is_err(),
            "{bad:?} should not parse"
        );
    }
}
