//! Frontier ≡ reference equivalence under churn cascades.
//!
//! The product kernel replaces the paper's per-query pool rebuild with
//! worklist-driven frontier maintenance, cached start floors, the §IV
//! gate-rejection bitset and cached bound-ordered candidate scans.
//! Every one of those is a pure pruning of the same argmax, so a
//! frontier run must replay the `slrh::reference` pool walk
//! **byte-for-byte** — schedule, metrics, disruption counts, final
//! weights, loop trajectory — including across machine-loss cascades
//! that unmap most of the schedule and force frontier re-seeding, for
//! every variant; and the cached bound orders must replay the resort
//! reference the same way.
//!
//! The product loop also *elides* sweeps the frontier has already
//! answered (DESIGN.md §19) while both reference kernels are swept on
//! every tick, so the equalities above — and the `TickEvent` stream
//! differential below — are what prove the elision exact; the pinned
//! case keeps that proof from going vacuous.
//!
//! The kernel is sequential and `slrh` links no thread pool
//! (`scripts/api_surface.sh` holds that line), so there is no pool-width
//! arm here; the campaign sweeps' embedding — worker-local `RunContext`s
//! under a real rayon pool — is pinned by `differential_determinism.rs`.

use std::fmt::Write as _;

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::scale::ScaleParams;
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use proptest::prelude::*;
use slrh::reference::{self, Kind};
use slrh::{
    run_slrh, run_slrh_with, Adaptation, Churn, MachineArrivalEvent, MachineLossEvent, RunContext,
    SlrhConfig, SlrhOutcome, SlrhVariant, TickEvent,
};

/// Deterministic full serialization of a churn run. `{:?}` on floats is
/// shortest-roundtrip, so byte equality is bit equality. Of the work
/// counters only the loop trajectory is included: the frontier prunes
/// candidates the pool walk plans, so `candidates_evaluated` differs
/// even though every output bit matches.
fn canonical(out: &SlrhOutcome<'_>) -> String {
    let mut s = String::new();
    writeln!(s, "metrics: {:?}", out.state.metrics()).unwrap();
    writeln!(s, "disruptions: {:?}", out.disruptions).unwrap();
    writeln!(
        s,
        "trajectory: {} steps, {} commits",
        out.stats.clock_steps, out.stats.commits
    )
    .unwrap();
    writeln!(
        s,
        "final_weights: {:016x}/{:016x}",
        out.final_weights.alpha().to_bits(),
        out.final_weights.beta().to_bits(),
    )
    .unwrap();
    for a in out.state.schedule().assignments() {
        writeln!(s, "{a:?}").unwrap();
    }
    for t in out.state.schedule().transfers() {
        writeln!(s, "{t:?}").unwrap();
    }
    s
}

/// One generated churn case on a scale workload.
#[derive(Clone, Debug)]
struct Case {
    tasks: usize,
    machines: usize,
    etc_id: usize,
    dag_id: usize,
    weights: Weights,
    /// `(machine index, tick fraction of tau)` — losses mid-run.
    losses: Vec<(usize, f64)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::sample::select(&[64usize, 128, 256]),
        4usize..=12,
        0usize..10,
        0usize..10,
        (8u32..=16, 0u32..=8),
        prop::collection::vec((0usize..12, 0.05f64..0.9), 0..3),
    )
        .prop_map(|(tasks, machines, etc_id, dag_id, (a, b), losses)| {
            // Keep the lattice point on the weight simplex: β ≤ 1 − α.
            let b = b.min(20 - a);
            Case {
                tasks,
                machines,
                etc_id,
                dag_id,
                weights: Weights::new(f64::from(a) * 0.05, f64::from(b) * 0.05)
                    .expect("lattice weights are on the simplex"),
                losses,
            }
        })
}

/// The case's loss events: deduped by machine (a machine is lost at
/// most once), never the whole grid.
fn losses(case: &Case, tau: u64) -> Vec<MachineLossEvent> {
    let mut seen = std::collections::HashSet::new();
    case.losses
        .iter()
        .filter_map(|&(m, frac)| {
            let m = m % case.machines;
            seen.insert(m).then(|| MachineLossEvent {
                machine: MachineId(m),
                at: Time(((tau as f64 * frac) as u64).max(1)),
            })
        })
        .take(case.machines - 1)
        .collect()
}

/// At most one arrival, `(machine index, tick fraction of tau)`, moved
/// to the first machine from that index on that the case never loses.
fn arrivals(case: &Case, arrival: Option<(usize, f64)>) -> Vec<MachineArrivalEvent> {
    let tau = ScaleParams::new(case.tasks, case.machines).tau().0;
    let lost = losses(case, tau);
    arrival
        .into_iter()
        .map(|(m, frac)| MachineArrivalEvent {
            machine: (0..case.machines)
                .map(|k| MachineId((m + k) % case.machines))
                .find(|&j| lost.iter().all(|l| l.machine != j))
                .expect("at least one machine is never lost"),
            at: Time(((tau as f64 * frac) as u64).max(1)),
        })
        .collect()
}

/// The case's scale scenario and its checked churn trace.
fn scenario_and_churn(case: &Case, arrivals: &[MachineArrivalEvent]) -> (Scenario, Churn) {
    let params = ScaleParams::new(case.tasks, case.machines);
    let sc = params.generate(case.etc_id, case.dag_id);
    let churn = Churn::new(&losses(case, params.tau().0), arrivals, case.machines)
        .expect("generated traces are well-formed");
    (sc, churn)
}

/// Run `cfg` on the case through the product kernel (`kind: None`) or a
/// reference oracle, reporting every tick to `observer`.
fn run_observed<'a>(
    sc: &'a Scenario,
    cfg: &SlrhConfig,
    churn: &Churn,
    kind: Option<Kind>,
    observer: Option<&mut dyn FnMut(TickEvent)>,
) -> SlrhOutcome<'a> {
    let ctx = &mut RunContext::new();
    match kind {
        None => run_slrh_with(sc, cfg, churn, ctx, observer),
        Some(kind) => reference::run(kind, sc, cfg, churn, ctx, observer),
    }
}

fn run_with(
    case: &Case,
    cfg: &SlrhConfig,
    arrivals: &[MachineArrivalEvent],
    kind: Option<Kind>,
) -> String {
    let (sc, churn) = scenario_and_churn(case, arrivals);
    canonical(&run_observed(&sc, cfg, &churn, kind, None))
}

/// The per-tick stream an observed run stands for: every sleeping span
/// expanded into its ticks ([`TickEvent::ticks`]). A reference loop
/// reports every tick on its own, so its stream expands to itself.
fn expand(events: &[TickEvent], cfg: &SlrhConfig) -> Vec<TickEvent> {
    events.iter().flat_map(|e| e.ticks(cfg.dt)).collect()
}

/// [`run_with`] observed: the `TickEvent` stream as reported — clock,
/// commits, the weights each tick ran on, spans — the loop's counters
/// (`clock_steps`, `queries`) and how many of the ticks were elided.
fn observe(
    case: &Case,
    cfg: &SlrhConfig,
    arrivals: &[MachineArrivalEvent],
    kind: Option<Kind>,
) -> (Vec<TickEvent>, (u64, u64), u64) {
    let (sc, churn) = scenario_and_churn(case, arrivals);
    let mut events = Vec::new();
    let st = run_observed(&sc, cfg, &churn, kind, Some(&mut |e| events.push(e))).stats;
    (events, (st.clock_steps, st.queries), st.sweeps_elided)
}

fn run_case(case: &Case, kind: Option<Kind>) -> String {
    let cfg = SlrhConfig::paper(SlrhVariant::V1, case.weights);
    run_with(case, &cfg, &[], kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The frontier replays the reference pool walk bit-for-bit — the
    /// schedule, metrics, disruptions and loop trajectory — through loss
    /// cascades and at most one arrival, for every variant.
    #[test]
    fn frontier_matches_the_pool_walk_under_churn(
        case in case_strategy(),
        variant in prop::sample::select(&SlrhVariant::ALL[..]),
        arrive in any::<bool>(),
        arrival_machine in 0usize..12,
        arrival_frac in 0.02f64..0.25,
    ) {
        let cfg = SlrhConfig::paper(variant, case.weights);
        let arrivals = arrivals(&case, arrive.then_some((arrival_machine, arrival_frac)));
        let walk = run_with(&case, &cfg, &arrivals, Some(Kind::Scratch));
        let frontier = run_with(&case, &cfg, &arrivals, None);
        prop_assert_eq!(&walk, &frontier, "frontier diverged from the pool walk under {}", cfg);
    }

    /// The observer cannot tell an elided sweep from a swept one: the
    /// product's `TickEvent` stream, each sleeping span expanded into
    /// its ticks, equals the pool walk's (which is swept on every tick
    /// and reports each on its own) event for event, and so do the
    /// counters an elided tick has to keep — through one loss and one
    /// arrival (three segments, each opening with a real sweep), fixed
    /// weights and online adaptation (whose steps open spans). Every
    /// event carries the weights its tick ran on, so stream equality
    /// also proves the adapted weights agree with the reference's tick
    /// for tick, not just at the end of the run.
    #[test]
    fn elided_sweeps_are_invisible_to_the_observer(
        case in case_strategy(),
        variant in prop::sample::select(&[SlrhVariant::V1, SlrhVariant::V3][..]),
        lost in 0usize..12,
        loss_frac in 0.3f64..0.9,
        arrival_frac in 0.02f64..0.25,
        adapt_every in prop::sample::select(&[1u64, 5, 16]),
    ) {
        let tau = ScaleParams::new(case.tasks, case.machines).tau().0 as f64;
        let lost = lost % case.machines;
        let case = Case { losses: vec![(lost, loss_frac)], ..case };
        let arrivals = [MachineArrivalEvent {
            machine: MachineId((lost + 1) % case.machines),
            at: Time(((tau * arrival_frac) as u64).max(1)),
        }];
        let fixed = SlrhConfig::paper(variant, case.weights);
        let adaptive = fixed.with_adaptation(Adaptation {
            rule: StepRule::Diminishing { a: 0.2 },
            every: adapt_every,
        });
        for cfg in [fixed, adaptive] {
            let (walk_events, walk_counters, walk_elided) =
                observe(&case, &cfg, &arrivals, Some(Kind::Scratch));
            let (events, counters, _) = observe(&case, &cfg, &arrivals, None);
            prop_assert_eq!(walk_elided, 0, "the reference never elides");
            prop_assert_eq!(walk_events.len() as u64, counters.0, "one event per clock step");
            prop_assert!(walk_events.iter().all(|e| e.span == 1), "the reference never sleeps");
            let events = expand(&events, &cfg);
            prop_assert_eq!(&events, &walk_events, "event streams differ under {}", cfg);
            prop_assert_eq!(counters, walk_counters, "(clock_steps, queries) differ under {}", cfg);
        }
    }

    /// Serving queries from the cached per-machine bound orders is a
    /// query-plan change only — the resort reference replays the same
    /// run byte-for-byte through loss cascades.
    #[test]
    fn cached_views_match_resort_under_churn(case in case_strategy()) {
        let cached = run_case(&case, None);
        let resort = run_case(&case, Some(Kind::Resort));
        prop_assert_eq!(&cached, &resort, "cached-order run diverged from the resort reference");
    }
}

/// The differentials above prove elision exact only if it happens. On
/// the paper-scale Case A job (`paper_suite`'s weights) the clock spends
/// most of its ticks waiting — on busy machines, or on scheduled finishes
/// to drift inside the horizon — and the product loop must sleep through
/// at least half of them; the two reference kernels must not sleep at
/// all — same clock steps, every one swept. SLRH-2 asks the kernel
/// nothing, so it sleeps only through the ticks that find every machine
/// busy: its run must equal the same configuration under a reference
/// loop, which sweeps them, event for event once its spans are expanded.
#[test]
fn the_paper_scale_job_elides_most_sweeps_and_the_oracles_none() {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(1024), GridCase::A, 0, 0);
    let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.25).unwrap());
    let product = run_slrh(&sc, &cfg).stats;
    assert!(
        product.sweeps_elided >= product.clock_steps / 2,
        "{} of {} sweeps elided",
        product.sweeps_elided,
        product.clock_steps
    );
    for kind in [Kind::Scratch, Kind::Resort] {
        let oracle = run_observed(&sc, &cfg, &Churn::default(), Some(kind), None).stats;
        assert_eq!(oracle.sweeps_elided, 0, "{kind:?}");
        assert_eq!(
            (oracle.clock_steps, oracle.queries, oracle.commits),
            (product.clock_steps, product.queries, product.commits),
            "{kind:?}"
        );
    }

    let frozen = SlrhConfig {
        variant: SlrhVariant::V2,
        ..cfg
    };
    let observed = |kind: Option<Kind>| {
        let mut events = Vec::new();
        let out = run_observed(
            &sc,
            &frozen,
            &Churn::default(),
            kind,
            Some(&mut |e| events.push(e)),
        );
        (canonical(&out), events, out.stats)
    };
    let (v2_run, v2_events, v2) = observed(None);
    let (swept_run, swept_events, swept) = observed(Some(Kind::Scratch));
    assert_eq!(swept.sweeps_elided, 0);
    assert!(
        v2.sweeps_elided > 0,
        "SLRH-2 sleeps through its all-busy ticks"
    );
    assert!(
        v2_events.len() < swept_events.len(),
        "each span is one event"
    );
    assert_eq!(expand(&v2_events, &frozen), swept_events);
    assert_eq!(
        (v2.clock_steps, v2.queries),
        (swept.clock_steps, swept.queries)
    );
    assert_eq!(v2_run, swept_run);
}
