//! The per-tick mapping kernel at campaign scale — the hot loop behind
//! every SLRH, Max-Max and churn run.
//!
//! Four cases, all on the paper's largest workload (1024 subtasks):
//!
//! * `slrh1_end_to_end/{Case A,B,C}` — a complete SLRH-1 run with the
//!   paper configuration. This exercises the whole
//!   kernel: CSR DAG precedence walks, ready-set maintenance, indexed
//!   schedule lookups, and scratch-reused candidate planning.
//! * `churn_cascade/1024_case_a` — the same workload with two machine
//!   losses mid-run. The first loss invalidates ~¾ of the mapped
//!   subtasks, so this is dominated by the loss cascade
//!   (`invalidation_closure` + the unmap storm) and the remapping that
//!   follows.
//!
//! Numbers are recorded in `BENCH_kernel.json` at the repository root
//! (see EXPERIMENTS.md for the methodology); run with
//! `CRITERION_JSON=out.json cargo bench --bench mapper_kernel` to emit
//! machine-readable samples.

use adhoc_grid::config::{GridCase, MachineId};
use adhoc_grid::units::Time;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lagrange::weights::Weights;
use slrh::{run_slrh, run_slrh_churn, MachineLossEvent, SlrhConfig, SlrhVariant};

fn scenario(tasks: usize, case: GridCase) -> Scenario {
    Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, 0, 0)
}

fn weights() -> Weights {
    Weights::new(0.5, 0.25).expect("static weights")
}

fn bench_slrh_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("mapper_kernel");
    g.sample_size(10);
    for case in GridCase::ALL {
        let sc = scenario(1024, case);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, weights());
        g.bench_with_input(
            BenchmarkId::new("slrh1_end_to_end", case.name()),
            &sc,
            |b, sc| b.iter(|| run_slrh(sc, &cfg).metrics()),
        );
    }
    g.finish();
}

fn bench_churn_cascade(c: &mut Criterion) {
    let mut g = c.benchmark_group("mapper_kernel");
    g.sample_size(10);
    let sc = scenario(1024, GridCase::A);
    let cfg = SlrhConfig::paper(SlrhVariant::V1, weights());
    // Lose the first fast machine a third of the way in (invalidating
    // roughly three quarters of the mapped subtasks) and a slow machine
    // at the two-thirds mark — a worst-case loss cascade plus the full
    // remapping drive on the surviving grid.
    let events = [
        MachineLossEvent {
            machine: MachineId(0),
            at: Time(sc.tau.0 / 3),
        },
        MachineLossEvent {
            machine: MachineId(2),
            at: Time(2 * sc.tau.0 / 3),
        },
    ];
    g.bench_with_input(
        BenchmarkId::new("churn_cascade", "1024_case_a"),
        &sc,
        |b, sc| b.iter(|| run_slrh_churn(sc, &cfg, &events, &[]).metrics()),
    );
    g.finish();
}

criterion_group!(benches, bench_slrh_end_to_end, bench_churn_cascade);
criterion_main!(benches);
