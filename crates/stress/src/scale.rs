//! Large-scenario fuzz mode: the scale path under churn.
//!
//! The main campaign ([`crate::gen`]) stays at paper-sized cases (8–32
//! tasks) where every heuristic and every differential arm is cheap. This
//! module fuzzes the other end: thousands to 100k subtasks on grids of up
//! to 1000 machines, built by [`adhoc_grid::scale::ScaleParams`], driven
//! through the SLRH frontier kernel with machine losses mid-run. Oracles
//! per seed:
//!
//! * **invariants** — [`crate::oracle::check_all`] on the final state
//!   (the independent validator, churn rules included, and the horizon
//!   gate);
//! * **differential, pool walk** — for cases small enough to afford the
//!   quadratic pool walk (≤ [`DIFF_MAX_TASKS`] tasks), the frontier run
//!   must match the [`Kind::Scratch`] reference byte-for-byte
//!   (schedule, metrics, disruptions);
//! * **differential, cached vs resort** — up to
//!   [`ABLATION_DIFF_MAX_TASKS`] tasks, the [`Kind::Resort`] reference
//!   (every view shed to the per-query resort scan) must replay the
//!   main run byte-for-byte: the cached bound orders are a query-plan
//!   optimization with no output surface;
//! * **progress** — a scale run must actually map work (a silently empty
//!   schedule would pass every conservation oracle).
//!
//! Sizes are drawn from a ladder capped by the CLI's `--scale-max-tasks`,
//! so CI smoke runs stay bounded while the full ladder reaches the
//! 100k-task / 1000-machine design point.

use adhoc_grid::scale::ScaleParams;
use adhoc_grid::seed;
use lagrange::weights::Weights;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slrh::reference::{self, Kind};
use slrh::{run_slrh_with, Churn, RunContext, SlrhConfig, SlrhVariant};

use crate::oracle;
use crate::runner::reference_mismatch;

/// Seed-stream tag for the scale generator (distinct from
/// [`crate::gen::STREAM_FUZZ`]).
pub const STREAM_SCALE: u64 = 0x5CA1E;

/// Largest case the frontier-vs-pool-walk differential arm runs on: the
/// from-scratch walk is O(|U|·|M|) per tick, so the arm is restricted to
/// sizes where that is still cheap.
pub const DIFF_MAX_TASKS: usize = 2048;

/// Largest case the cached-order-vs-resort arm runs on. It is a full
/// frontier run — merely a constant factor over the main run — so it
/// covers a far wider band than the quadratic rebuild differential.
pub const ABLATION_DIFF_MAX_TASKS: usize = 16_384;

/// One generated scale case.
#[derive(Clone, PartialEq, Debug)]
pub struct ScaleCase {
    /// The fuzz seed that produced this case.
    pub seed: u64,
    /// Subtask count `|T|`.
    pub tasks: usize,
    /// Machine count `|M|`.
    pub machines: usize,
    /// ETC suite id.
    pub etc_id: usize,
    /// DAG suite id.
    pub dag_id: usize,
    /// Objective weights.
    pub weights: Weights,
    /// Machine losses, `(machine, tick)`.
    pub losses: Vec<(usize, u64)>,
}

/// The verdict of one scale seed.
#[derive(Clone, Debug)]
pub struct ScaleReport {
    /// The case that ran.
    pub case: ScaleCase,
    /// Oracle failures; empty = pass.
    pub failures: Vec<String>,
    /// Clock steps spent by the frontier run.
    pub clock_steps: u64,
    /// How many of them it ran as bookkeeping only.
    pub sweeps_elided: u64,
    /// Subtasks mapped by the frontier run.
    pub mapped: usize,
}

impl ScaleReport {
    /// True when every oracle passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Deterministically generate the scale case for `fuzz_seed`, with the
/// task ladder capped at `max_tasks`.
pub fn generate_scale(fuzz_seed: u64, max_tasks: usize) -> ScaleCase {
    let mut rng = StdRng::seed_from_u64(seed::derive2(seed::MASTER_SEED, STREAM_SCALE, fuzz_seed));

    // The design-point ladder, capped for bounded (CI smoke) campaigns.
    const LADDER: [usize; 5] = [1024, 4096, 16_384, 65_536, 100_000];
    let capped: Vec<usize> = LADDER
        .iter()
        .copied()
        .filter(|&t| t <= max_tasks.max(LADDER[0]))
        .collect();
    let tasks = capped[rng.gen_range(0..capped.len())];

    // Machines scale with |T| (≈ 1 per 64–256 subtasks), capped at the
    // 1000-machine design point.
    let base = (tasks / 128).max(8);
    let machines = (base / 2 + rng.gen_range(0..=base)).clamp(8, 1000);

    let alpha = f64::from(rng.gen_range(8u32..=18)) * 0.05;
    let beta_max = ((1.0 - alpha) / 0.05).floor() as u32;
    let beta = f64::from(rng.gen_range(0u32..=beta_max)) * 0.05;
    let weights = Weights::new(alpha, beta).expect("lattice weights are on the simplex");

    // A few losses mid-run, never losing the whole grid.
    let tau = ScaleParams::new(tasks, machines).tau().0;
    let n_losses = rng.gen_range(0usize..=3.min(machines - 1));
    let mut losses = Vec::new();
    let mut lost = std::collections::HashSet::new();
    while losses.len() < n_losses {
        let m = rng.gen_range(0..machines);
        if lost.insert(m) {
            losses.push((m, rng.gen_range(1..=tau)));
        }
    }

    ScaleCase {
        seed: fuzz_seed,
        tasks,
        machines,
        etc_id: rng.gen_range(0usize..10),
        dag_id: rng.gen_range(0usize..10),
        weights,
        losses,
    }
}

/// Run one scale case through every oracle.
pub fn run_scale_seed(case: &ScaleCase, ctx: &mut RunContext) -> ScaleReport {
    let sc = ScaleParams::new(case.tasks, case.machines).generate(case.etc_id, case.dag_id);
    let churn = &Churn::from_pairs(case.losses.iter().copied(), [], case.machines)
        .expect("the generator loses each machine at most once and never all of them");

    let config = SlrhConfig::paper(SlrhVariant::V1, case.weights);
    let mut failures = Vec::new();
    let frontier = run_slrh_with(&sc, &config, churn, ctx, None);
    let metrics = frontier.state.metrics();
    if metrics.mapped == 0 {
        failures.push("scale: progress: the frontier run mapped nothing".to_string());
    }
    for f in oracle::check_all(&frontier.state, Some(&config)) {
        failures.push(format!("scale: {f}"));
    }

    // The frontier is a pure optimization of the paper's pool walk and
    // must replay it bit-for-bit. Bounded to sizes where the walk is
    // affordable.
    if case.tasks <= DIFF_MAX_TASKS {
        let walk = reference::run(Kind::Scratch, &sc, &config, churn, ctx, None);
        failures.extend(reference_mismatch("scale", Kind::Scratch, &frontier, &walk));
        ctx.reclaim(walk.state);
    }

    // The cached bound orders are a pure query-plan optimization, so
    // the resort reference must replay the main run's schedule, metrics
    // and disruptions byte-for-byte.
    if case.tasks <= ABLATION_DIFF_MAX_TASKS {
        let resort = reference::run(Kind::Resort, &sc, &config, churn, ctx, None);
        failures.extend(reference_mismatch(
            "scale",
            Kind::Resort,
            &frontier,
            &resort,
        ));
        ctx.reclaim(resort.state);
    }

    let stats = frontier.stats;
    ctx.reclaim(frontier.state);
    failures.sort();
    failures.dedup();
    ScaleReport {
        case: case.clone(),
        failures,
        clock_steps: stats.clock_steps,
        sweeps_elided: stats.sweeps_elided,
        mapped: metrics.mapped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_case() {
        for s in 0..32 {
            assert_eq!(generate_scale(s, 4096), generate_scale(s, 4096));
        }
    }

    #[test]
    fn ladder_respects_the_cap() {
        for s in 0..64 {
            let c = generate_scale(s, 4096);
            assert!(c.tasks <= 4096, "seed {s}: {} tasks", c.tasks);
            assert!(c.machines >= 8 && c.machines <= 1000);
            assert!(c.losses.len() < c.machines);
        }
    }

    #[test]
    fn a_small_scale_case_runs_green() {
        // Forced-small campaign: every ladder entry is the 1024 floor, so
        // this stays fast in debug builds.
        let mut ctx = RunContext::new();
        let case = generate_scale(5, 1024);
        let report = run_scale_seed(&case, &mut ctx);
        assert!(report.passed(), "{:#?}", report.failures);
        assert!(report.mapped > 0);
    }
}
