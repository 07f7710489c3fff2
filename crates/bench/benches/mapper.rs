//! Full-heuristic benchmarks — the machinery behind Figures 4, 6 and 7.
//!
//! One group per heuristic family, sized |T| ∈ {64, 256} so `cargo bench`
//! completes in minutes while still exposing the SLRH-1 vs SLRH-3 vs
//! Max-Max execution-time ordering the paper reports.

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid_baselines::{run_greedy, run_lr_list, run_maxmax, run_minmin, LrListConfig};
use lagrange::weights::{Objective, Weights};
use slrh::{run_slrh, SlrhConfig, SlrhVariant};

fn scenario(tasks: usize, case: GridCase) -> Scenario {
    Scenario::generate(&ScenarioParams::paper_scaled(tasks), case, 0, 0)
}

fn weights() -> Weights {
    Weights::new(0.5, 0.25).expect("static weights")
}

fn bench_slrh_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_slrh");
    g.sample_size(10);
    for &tasks in &[64usize, 256] {
        let sc = scenario(tasks, GridCase::A);
        for variant in [SlrhVariant::V1, SlrhVariant::V3] {
            let cfg = SlrhConfig::paper(variant, weights());
            g.bench_with_input(BenchmarkId::new(variant.name(), tasks), &sc, |b, sc| {
                b.iter(|| run_slrh(sc, &cfg).metrics())
            });
        }
    }
    g.finish();
}

fn bench_slrh_cases(c: &mut Criterion) {
    // The paper's Figure 6 point: SLRH-1's execution time *drops* when a
    // fast machine is lost.
    let mut g = c.benchmark_group("fig6_slrh1_cases");
    g.sample_size(10);
    for case in GridCase::ALL {
        let sc = scenario(256, case);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, weights());
        g.bench_with_input(BenchmarkId::from_parameter(case.name()), &sc, |b, sc| {
            b.iter(|| run_slrh(sc, &cfg).metrics())
        });
    }
    g.finish();
}

fn bench_static_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_static");
    g.sample_size(10);
    for &tasks in &[64usize, 256] {
        let sc = scenario(tasks, GridCase::A);
        let obj = Objective::paper(weights());
        g.bench_with_input(BenchmarkId::new("maxmax", tasks), &sc, |b, sc| {
            b.iter(|| run_maxmax(sc, &obj).metrics())
        });
        g.bench_with_input(BenchmarkId::new("greedy", tasks), &sc, |b, sc| {
            b.iter(|| run_greedy(sc).metrics())
        });
        g.bench_with_input(BenchmarkId::new("minmin", tasks), &sc, |b, sc| {
            b.iter(|| run_minmin(sc).metrics())
        });
        let lr = LrListConfig::default();
        g.bench_with_input(BenchmarkId::new("lr_list", tasks), &sc, |b, sc| {
            b.iter(|| run_lr_list(sc, &lr).metrics())
        });
    }
    g.finish();
}

fn bench_dt_effect(c: &mut Criterion) {
    // Figure 2's execution-time curve: small ΔT multiplies the clock
    // iterations.
    let mut g = c.benchmark_group("fig2_dt");
    g.sample_size(10);
    let sc = scenario(128, GridCase::A);
    for &dt in &[1u64, 10, 100] {
        let cfg =
            SlrhConfig::paper(SlrhVariant::V1, weights()).with_dt(adhoc_grid::units::Dur(dt));
        g.bench_with_input(BenchmarkId::from_parameter(dt), &sc, |b, sc| {
            b.iter(|| run_slrh(sc, &cfg).metrics())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_slrh_variants,
    bench_slrh_cases,
    bench_static_baselines,
    bench_dt_effect
);
criterion_main!(benches);
