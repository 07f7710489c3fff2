//! Golden fixtures for the online-adaptation loop.
//!
//! Two committed references pin the behaviour bit-for-bit:
//!
//! * `golden/adaptive_run.txt` — a churn run with a live adaptation
//!   block: full schedule, stats (including `weight_updates`), the
//!   adapted final weights, under 1 and 4 worker threads;
//! * `golden/adaptive_trace.txt` — the `(clock, weights)` trajectory,
//!   stats and schedule the retired trace-recording front end
//!   produced, blessed from it at the last commit that had it (PR 14)
//!   and reproduced here by the one entry point plus an observer. Never
//!   re-bless this one: its producer is gone.
//!
//! A third test re-runs the *legacy* churn fixture's exact trajectory
//! with an inert (zero-step) adaptation block and compares it against
//! the pre-existing `golden/churn.txt` — the adaptive machinery, when
//! it never moves, must not cost a single output bit.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p grid-sweep --test
//! golden_adaptive` — only for a change that is *supposed* to alter
//! results, and say so in the commit.

use std::fmt::Write as _;
use std::path::PathBuf;

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use rayon::ThreadPool;
use slrh::{
    run_slrh_churn, run_slrh_with, Adaptation, Churn, MachineArrivalEvent, MachineLossEvent,
    RunContext, SlrhConfig, SlrhOutcome, SlrhVariant, TickEvent,
};

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"));
    assert_eq!(
        actual, expected,
        "{name}: output differs from the blessed reference"
    );
}

fn assert_golden_differential<F: Fn() -> String>(name: &str, f: F) {
    let sequential = pool(1).install(&f);
    assert_golden(name, &sequential);
    let parallel = pool(4).install(&f);
    assert_eq!(
        sequential, parallel,
        "{name}: canonical output differs between 1 and 4 threads"
    );
}

/// Full deterministic serialization of a churn run, exactly the legacy
/// golden suite's form plus the final-weights line (`{:?}` floats are
/// shortest-roundtrip, so byte equality is bit equality).
fn adaptive_canonical(out: &SlrhOutcome<'_>) -> String {
    let mut s = String::new();
    let m = out.state.metrics();
    writeln!(s, "metrics: {m:?}").unwrap();
    // The five counters the fixtures pin, spelled out: `sweeps_elided`
    // says how the loop did this work, and the reference-kernel fixture
    // shares the line.
    let st = &out.stats;
    writeln!(
        s,
        "stats: RunStats {{ clock_steps: {}, queries: {}, candidates_evaluated: {}, commits: {}, \
         weight_updates: {} }}",
        st.clock_steps, st.queries, st.candidates_evaluated, st.commits, st.weight_updates
    )
    .unwrap();
    writeln!(s, "final-weights: {:?}", out.final_weights).unwrap();
    writeln!(s, "disruptions: {:?}", out.disruptions).unwrap();
    for a in out.state.schedule().assignments() {
        writeln!(
            s,
            "asg {} {} {} start={:?} dur={:?} e={:?}",
            a.task, a.version, a.machine, a.start, a.dur, a.energy
        )
        .unwrap();
    }
    for tr in out.state.schedule().transfers() {
        writeln!(
            s,
            "tr {}->{} {}->{} size={:?} start={:?} dur={:?} e={:?}",
            tr.parent, tr.child, tr.from, tr.to, tr.size, tr.start, tr.dur, tr.energy
        )
        .unwrap();
    }
    s
}

/// The legacy churn fixture's exact scenario and event trace
/// (`golden_kernel_refactor.rs::churn_matches_pre_refactor_reference`).
fn legacy_churn_setup() -> (Scenario, [MachineLossEvent; 2], [MachineArrivalEvent; 1]) {
    let sc = Scenario::generate(&ScenarioParams::paper_scaled(192), GridCase::A, 0, 0);
    let arrivals = [MachineArrivalEvent {
        machine: MachineId(3),
        at: Time(sc.tau.0 / 8),
    }];
    let losses = [
        MachineLossEvent {
            machine: MachineId(0),
            at: Time(sc.tau.0 / 3),
        },
        MachineLossEvent {
            machine: MachineId(2),
            at: Time(2 * sc.tau.0 / 3),
        },
    ];
    (sc, losses, arrivals)
}

#[test]
fn adaptive_churn_run_matches_blessed_reference() {
    assert_golden_differential("adaptive_run.txt", || {
        let (sc, losses, arrivals) = legacy_churn_setup();
        let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap())
            .with_adaptation(Adaptation {
                rule: StepRule::Constant { a: 0.5 },
                every: 2,
            });
        let out = run_slrh_churn(&sc, &cfg, &losses, &arrivals);
        assert!(
            out.stats.weight_updates > 0,
            "the fixture is meant to pin a run whose weights actually move"
        );
        adaptive_canonical(&out)
    });
}

/// The retired front end cut the run into `control_interval`-tick
/// segments and recorded the weights *between* segments: the starting
/// weights at clock 0, then at each boundary the weights the segment
/// just finished ran on, then — if the last adaptation step moved them —
/// the final weights at the clock the loop stopped on. The in-loop
/// controller steps at the *start* of each boundary tick, so the weights
/// sampled from that tick's event are the next boundary's entry. The
/// stream is read per tick, each sleeping span expanded into its ticks,
/// so the stop clock is the one after the last tick the loop crossed.
fn weight_trace(sc: &Scenario, cfg: &SlrhConfig, out: &mut String) {
    let every = cfg.adaptation.expect("an adaptive configuration").every;
    let mut trace = Vec::new();
    let mut sampled = cfg.objective.weights;
    let mut last: Option<TickEvent> = None;
    let mut observer = |e: TickEvent| {
        for e in e.ticks(cfg.dt) {
            if e.tick.is_multiple_of(every) {
                trace.push((e.clock, sampled));
                sampled = e.weights;
            }
            last = Some(e);
        }
    };
    let run = run_slrh_with(
        sc,
        cfg,
        &Churn::default(),
        &mut RunContext::new(),
        Some(&mut observer),
    );
    let last = last.expect("the run ticked");
    if trace.last().map(|&(_, w)| w) != Some(last.weights) {
        trace.push((last.clock + cfg.dt, last.weights));
    }
    assert_eq!(run.final_weights, last.weights);

    for (at, w) in &trace {
        writeln!(
            out,
            "trace {} {:016x} {:016x}",
            at.0,
            w.alpha().to_bits(),
            w.beta().to_bits()
        )
        .unwrap();
    }
    // The legacy serialization minus its final-weights and disruptions
    // lines: the trace ends on the former, a frozen grid has none of the
    // latter.
    for l in adaptive_canonical(&run).lines() {
        if !l.starts_with("final-weights:") && !l.starts_with("disruptions:") {
            writeln!(out, "{l}").unwrap();
        }
    }
}

#[test]
fn the_retired_trace_front_end_is_reproduced_by_an_observer() {
    let path = golden_path("adaptive_trace.txt");
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); it cannot be re-blessed"));
    let reproduce = || {
        let mut out = String::new();
        for case in [GridCase::A, GridCase::C] {
            for interval in [100u64, 500] {
                let sc = Scenario::generate(&ScenarioParams::paper_scaled(64), case, 0, 0);
                let base = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
                let cfg = base.with_adaptation(Adaptation {
                    every: interval / base.dt.0,
                    ..Adaptation::default()
                });
                writeln!(out, "== {case} control-interval={interval}").unwrap();
                weight_trace(&sc, &cfg, &mut out);
            }
        }
        out
    };
    for threads in [1, 4] {
        assert_eq!(
            pool(threads).install(reproduce),
            expected,
            "{threads} thread(s): the observer no longer reproduces the retired front end"
        );
    }
}

#[test]
fn inert_adaptation_reproduces_the_legacy_churn_fixture() {
    // Byte-compare against the *other* suite's committed fixture: an
    // adaptation block that never steps leaves the legacy goldens
    // untouched. Deliberately read-only — blessing happens in
    // golden_kernel_refactor.rs, never here.
    let path = golden_path("churn.txt");
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); bless golden_kernel_refactor first")
    });
    let (sc, losses, arrivals) = legacy_churn_setup();
    let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()).with_adaptation(
        Adaptation {
            rule: StepRule::Constant { a: 0.0 },
            ..Adaptation::default()
        },
    );
    let out = run_slrh_churn(&sc, &cfg, &losses, &arrivals);
    // The legacy serialization has no final-weights line; strip ours.
    let canonical: String = adaptive_canonical(&out)
        .lines()
        .filter(|l| !l.starts_with("final-weights:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        canonical, expected,
        "inert adaptation diverged from the committed legacy churn fixture"
    );
    assert_eq!(out.stats.weight_updates, 0);
    assert_eq!(out.final_weights, Weights::new(0.5, 0.3).unwrap());
}
