//! The mapping kernel at synthetic scale — far past the paper's 1024
//! subtasks, on [`adhoc_grid::scale::ScaleParams`] workloads.
//!
//! Two axes per size:
//!
//! * `frontier/{N}x{M}` — the product kernel with clustering
//!   ([`slrh::ScaleMode`]): worklist-driven startable maintenance,
//!   ETC-similarity machine clusters with spill, and the bound-ordered
//!   candidate scan.
//! * `rebuild/{N}x{M}` — the paper's per-query pool walk, through the
//!   `slrh::reference` `Scratch` oracle. Only benched at the smallest
//!   size: the walk is quadratic-ish in the frontier width and takes
//!   minutes per run at 16k+, which is why it is an oracle and not a
//!   product path.
//!
//! At `clusters: 1` both commit byte-identical schedules
//! (`crates/stress/src/scale.rs` proves it per seed). Numbers are recorded in `BENCH_scale.json` at
//! the repository root via `cargo run -p bench --release --bin scale_ab`
//! (see EXPERIMENTS.md for the interleaved A/B methodology — criterion
//! rounds here are for local iteration, the JSON is the record).

use adhoc_grid::scale::ScaleParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lagrange::weights::Weights;
use slrh::reference::{self, Kind};
use slrh::{run_slrh, Churn, RunContext, ScaleMode, SlrhConfig, SlrhVariant};

fn weights() -> Weights {
    Weights::new(0.5, 0.25).expect("static weights")
}

/// (tasks, machines, clusters) — clusters ≈ machines/16 keeps the
/// home-cluster width constant as the grid grows.
const SIZES: [(usize, usize, u32); 3] = [(1024, 16, 4), (16_384, 64, 8), (65_536, 256, 16)];

/// The ROADMAP design point. One frontier run is ~20 s, so criterion
/// only touches it when `BENCH_SCALE_100K=1` is set (the scale_ab
/// binary records it unconditionally).
const DESIGN_POINT: (usize, usize, u32) = (100_000, 1000, 64);

fn bench_frontier(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_scale");
    g.sample_size(10);
    for (tasks, machines, clusters) in SIZES {
        let sc = ScaleParams::new(tasks, machines).generate(0, 0);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, weights()).with_scale(ScaleMode {
            clusters,
            ..ScaleMode::default()
        });
        g.bench_with_input(
            BenchmarkId::new("frontier", format!("{tasks}x{machines}")),
            &sc,
            |b, sc| b.iter(|| run_slrh(sc, &cfg).metrics()),
        );
    }
    if std::env::var_os("BENCH_SCALE_100K").is_some_and(|v| v == "1") {
        let (tasks, machines, clusters) = DESIGN_POINT;
        let sc = ScaleParams::new(tasks, machines).generate(0, 0);
        let cfg = SlrhConfig::paper(SlrhVariant::V1, weights()).with_scale(ScaleMode {
            clusters,
            ..ScaleMode::default()
        });
        g.sample_size(10);
        g.bench_with_input(
            BenchmarkId::new("frontier", format!("{tasks}x{machines}")),
            &sc,
            |b, sc| b.iter(|| run_slrh(sc, &cfg).metrics()),
        );
    }
    g.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_scale");
    g.sample_size(10);
    let (tasks, machines, _) = SIZES[0];
    let sc = ScaleParams::new(tasks, machines).generate(0, 0);
    let cfg = SlrhConfig::paper(SlrhVariant::V1, weights());
    g.bench_with_input(
        BenchmarkId::new("rebuild", format!("{tasks}x{machines}")),
        &sc,
        |b, sc| {
            b.iter(|| {
                reference::run(Kind::Scratch, sc, &cfg, &Churn::default(), &mut RunContext::new(), None).metrics()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_frontier, bench_rebuild);
criterion_main!(benches);
