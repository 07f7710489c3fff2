//! Golden differential suite for the data-oriented mapping kernel.
//!
//! The CSR DAG, the schedule's `(parent, child) → Transfer` index, the
//! position-indexed ready set, the worklist loss cascade and the reusable
//! `PlanScratch` are all pure data-layout changes: they must not move a
//! single output bit. These tests pin that claim against *committed
//! reference fixtures* captured on the pre-refactor code
//! (`tests/golden/*.txt`): canonical campaign, weight-search and churn
//! reports must stay **byte-identical** to the reference, under 1 worker
//! thread and under 4.
//!
//! The fixtures are regenerated with `GOLDEN_BLESS=1 cargo test -p
//! grid-sweep --test golden_kernel_refactor` — only do that for a change
//! that is *supposed* to alter results, and say so in the commit.

use std::fmt::Write as _;
use std::path::PathBuf;

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams, ScenarioSet};
use grid_sweep::weight_search::optimal_weights_with_steps;
use grid_sweep::{canonical_report, run_campaign, CampaignConfig, Heuristic};
use lagrange::weights::Weights;
use rayon::ThreadPool;
use slrh::reference::{self, Kind};
use slrh::{
    run_slrh_churn, Churn, MachineArrivalEvent, MachineLossEvent, RunContext, SlrhConfig,
    SlrhOutcome, SlrhVariant,
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

/// Compare `actual` against the committed fixture (or overwrite it when
/// `GOLDEN_BLESS` is set).
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
        "{name}: output differs from the pre-refactor reference — \
         the kernel data-structure swap changed observable behaviour"
    );
}

/// Run `f` under a 1-thread and a 4-thread pool; both results must match
/// the committed fixture byte for byte.
fn assert_golden_differential<F: Fn() -> String>(name: &str, f: F) {
    let sequential = pool(1).install(&f);
    assert_golden(name, &sequential);
    let parallel = pool(4).install(&f);
    assert_eq!(
        sequential, parallel,
        "{name}: canonical output differs between 1 and 4 threads"
    );
}

/// Deterministic full serialization of a churn run: metrics, work
/// counters, disruption sizes, and the complete schedule (assignments in
/// task-id order, transfers in commit order). `{:?}` on floats is
/// shortest-roundtrip, so byte equality is bit equality.
fn churn_canonical(out: &SlrhOutcome<'_>) -> String {
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

#[test]
fn campaign_matches_pre_refactor_reference() {
    assert_golden_differential("campaign.txt", || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 1, 2);
        let cfg = CampaignConfig {
            set,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A, GridCase::C],
            coarse: 0.25,
            fine: 0.25,
        };
        canonical_report(&run_campaign(&cfg))
    });
}

#[test]
fn weight_search_matches_pre_refactor_reference() {
    assert_golden_differential("weight_search.txt", || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 2, 2);
        let mut out = String::new();
        for case in [GridCase::A, GridCase::B] {
            for (e, d) in set.ids() {
                let sc = set.scenario(case, e, d);
                let found = optimal_weights_with_steps(Heuristic::Slrh1, &sc, 0.25, 0.25);
                out.push_str(&format!("{case} {e} {d}: {found:?}\n"));
            }
        }
        out
    });
}

#[test]
fn churn_matches_pre_refactor_reference() {
    // A loss-heavy churn run at a size where the cascade invalidates a
    // large fraction of the schedule, plus a mid-run arrival. The full
    // schedule is serialized, so any divergence in the loss cascade, the
    // ready-set order, the transfer bookkeeping or the float operation
    // order shows up here.
    assert_golden_differential("churn.txt", || {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(192), GridCase::A, 0, 0);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
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
        let out = run_slrh_churn(&sc, &cfg, &losses, &arrivals);
        churn_canonical(&out)
    });
}

#[test]
fn churn_through_the_reference_walk_matches_pre_refactor_reference() {
    // A churn trajectory through the reference oracle: covers the
    // from-scratch `build_pool_with` walk (and its scratch reuse) rather
    // than the frontier kernel.
    assert_golden_differential("churn_nocache.txt", || {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(192), GridCase::A, 0, 0);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap());
        let losses = [MachineLossEvent {
            machine: MachineId(0),
            at: Time(sc.tau.0 / 3),
        }];
        let churn = Churn::new(&losses, &[], sc.grid.len()).expect("one loss on four machines");
        let out = reference::run(
            Kind::Scratch,
            &sc,
            &cfg,
            &churn,
            &mut RunContext::new(),
            None,
        );
        churn_canonical(&out)
    });
}
