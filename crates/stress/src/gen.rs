//! Seeded fuzz-case generation.
//!
//! [`generate`] maps a `u64` fuzz seed to a [`CaseSpec`] through the
//! workspace seed-derivation scheme, so the campaign is reproducible from
//! seed numbers alone and independent of process order. The generator
//! deliberately over-samples the regimes the churn machinery finds
//! hardest: losses on ticks that are *not* clock multiples (so transfers
//! are in flight), a loss and an arrival landing on the same tick, and
//! late arrivals combined with tight deadlines.

use adhoc_grid::arrival::{poisson_trace, BackgroundParams, PoissonParams};
use adhoc_grid::config::GridCase;
use adhoc_grid::seed;
use adhoc_grid::workload::ScenarioParams;
use lagrange::step::StepRule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slrh::Adaptation;

use crate::spec::{CaseSpec, ChurnEvent, OpenSpec};

/// Seed-stream tag for the fuzz generator (distinct from the workload
/// generators' ETC/DAG/DATA streams).
pub const STREAM_FUZZ: u64 = 0xF022;

/// Number of machines in each grid case's machine mix.
pub fn grid_len(case: GridCase) -> usize {
    adhoc_grid::config::GridConfig::case(case).len()
}

/// Deterministically generate the fuzz case for `fuzz_seed`.
pub fn generate(fuzz_seed: u64) -> CaseSpec {
    let mut rng = StdRng::seed_from_u64(seed::derive2(seed::MASTER_SEED, STREAM_FUZZ, fuzz_seed));

    let tasks = rng.gen_range(8usize..=32);
    let case = [GridCase::A, GridCase::B, GridCase::C][rng.gen_range(0usize..3)];
    let etc_id = rng.gen_range(0usize..10);
    let dag_id = rng.gen_range(0usize..10);
    // An independent master seed per case varies the generated ETC/DAG/
    // data streams beyond the 10 × 10 suite ids.
    let master_seed = seed::derive2(seed::MASTER_SEED, STREAM_FUZZ, fuzz_seed ^ 0x5EED);

    let dt = *[1u64, 2, 5, 10, 20].get(rng.gen_range(0usize..5)).unwrap();
    let horizon = *[20u64, 50, 100, 200].get(rng.gen_range(0usize..4)).unwrap();

    // Deadline: the paper-scaled default stretched or squeezed by ±50%.
    let tau_default = ScenarioParams::paper_scaled(tasks).tau.0;
    let tau = ((tau_default as f64 * rng.gen_range(0.5f64..1.5)) as u64).max(dt);

    // Weights on a 0.05 lattice with α + β ≤ 1, biased toward the
    // paper's own operating region (α large, β small).
    let alpha = f64::from(rng.gen_range(4u32..=18)) * 0.05;
    let beta_max = ((1.0 - alpha) / 0.05).floor() as u32;
    let beta = f64::from(rng.gen_range(0u32..=beta_max)) * 0.05;

    let (losses, arrivals) = gen_churn(&mut rng, grid_len(case), tau, dt);

    // Adaptive-mode sampling comes AFTER the churn draws so every
    // pre-existing seed keeps its exact scenario and churn trace — the
    // corpus and any recorded reproducer stay meaningful.
    let adaptation = gen_adaptation(&mut rng);

    // Open-system sampling comes last, for the same reason: seeds that
    // predate the open mode keep their exact cases.
    let open = gen_open(&mut rng);

    let spec = CaseSpec {
        seed: fuzz_seed,
        tasks,
        case,
        etc_id,
        dag_id,
        master_seed,
        tau,
        dt,
        horizon,
        alpha,
        beta,
        losses,
        arrivals,
        adaptation,
        open,
    };
    debug_assert_eq!(spec.check(), Ok(()));
    spec
}

/// Sample an open-system block for about a third of the cases: a short
/// Poisson trace spanning saturated (tight mean gap) through sparse
/// arrival regimes, mixed DAG/bag populations, per-job budgets, and a
/// live background model on half of those cases.
fn gen_open(rng: &mut StdRng) -> Option<OpenSpec> {
    if !rng.gen_bool(1.0 / 3.0) {
        return None;
    }
    let jobs = poisson_trace(&PoissonParams {
        jobs: rng.gen_range(2u32..=5),
        mean_gap: *[50u64, 200, 800, 3_000]
            .get(rng.gen_range(0usize..4))
            .unwrap(),
        tasks: (3, rng.gen_range(6usize..=10)),
        bag_in_8: rng.gen_range(0u8..=8),
        budget_in_8: rng.gen_range(0u8..=8),
        seed: rng.gen_range(0u64..u64::MAX),
    });
    let bg = if rng.gen_bool(0.5) {
        BackgroundParams::none()
    } else {
        BackgroundParams {
            max_offset: rng.gen_range(0u64..=2_000),
            max_util_eighths: rng.gen_range(1u8..=5),
            seed: rng.gen_range(0u64..u64::MAX),
        }
    };
    Some(OpenSpec { jobs, bg })
}

/// Sample the adaptive mode for about half the cases, covering every
/// step rule and off-lattice update intervals.
fn gen_adaptation(rng: &mut StdRng) -> Option<Adaptation> {
    if rng.gen_bool(0.5) {
        return None;
    }
    let rule = match rng.gen_range(0u32..4) {
        // Inert steps included on purpose: they must reproduce the
        // legacy run bit-for-bit (the runner's inert-adaptation oracle).
        0 => StepRule::Constant { a: 0.0 },
        1 => StepRule::Constant {
            a: f64::from(rng.gen_range(1u32..=8)) * 0.125,
        },
        2 => StepRule::Diminishing {
            a: f64::from(rng.gen_range(1u32..=8)) * 0.25,
        },
        _ => StepRule::Polyak {
            target: f64::from(rng.gen_range(0u32..=8)) * 0.25,
            max_step: f64::from(rng.gen_range(1u32..=4)) * 0.25,
        },
    };
    Some(Adaptation {
        rule,
        every: rng.gen_range(1u64..=7),
    })
}

/// Generate a churn trace respecting the churn API's preconditions:
/// distinct loss machines, strictly fewer losses than machines, distinct
/// arrival machines, and any shared machine arriving strictly before its
/// loss.
fn gen_churn(
    rng: &mut StdRng,
    grid_len: usize,
    tau: u64,
    dt: u64,
) -> (Vec<ChurnEvent>, Vec<ChurnEvent>) {
    let mut losses = Vec::new();
    let mut arrivals = Vec::new();

    // Losses: up to grid_len - 1 machines, biased toward one or two.
    let max_losses = grid_len - 1;
    let n_losses = match rng.gen_range(0u32..10) {
        0..=1 => 0,
        2..=5 => 1.min(max_losses),
        6..=8 => 2.min(max_losses),
        _ => max_losses,
    };
    let mut machines: Vec<usize> = (0..grid_len).collect();
    for i in (1..machines.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        machines.swap(i, j);
    }
    for &m in machines.iter().take(n_losses) {
        // Bias the loss tick off the ΔT lattice so transfers and
        // executions are mid-flight when the machine vanishes; allow
        // ticks slightly past τ to exercise the tail-kill path.
        let mut at = rng.gen_range(1u64..=tau + 2 * dt);
        if dt > 1 && rng.gen_bool(0.6) && at % dt == 0 {
            at += rng.gen_range(1u64..dt);
        }
        losses.push(ChurnEvent { machine: m, at });
    }

    // Arrivals: machines that start blocked and join mid-run. A machine
    // that is also lost must arrive strictly before its loss.
    for &m in machines.iter() {
        if !rng.gen_bool(0.3) {
            continue;
        }
        let loss_at = losses.iter().find(|l| l.machine == m).map(|l| l.at);
        let cap = loss_at.map_or(tau, |l| l.saturating_sub(1)).min(tau);
        if cap == 0 {
            continue;
        }
        let mut at = rng.gen_range(0u64..=cap);
        // Adversarial bias: land the arrival on the same tick as some
        // *other* machine's loss (the same-tick loss + arrival regime),
        // when that tick is admissible for this machine.
        if rng.gen_bool(0.4) {
            if let Some(l) = losses.iter().find(|l| l.machine != m && l.at <= cap) {
                at = l.at;
            }
        }
        arrivals.push(ChurnEvent { machine: m, at });
    }
    // Keep at least one machine free of churn so the grid never starts
    // empty-handed: a machine that is blocked until late *and* others
    // lost early is legal, but an all-blocked grid start wastes the case.
    if arrivals.len() == grid_len {
        arrivals.pop();
    }

    (losses, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_spec() {
        for s in 0..64 {
            assert_eq!(generate(s), generate(s));
        }
    }

    #[test]
    fn generated_specs_pass_precondition_check() {
        for s in 0..256 {
            let spec = generate(s);
            assert_eq!(spec.check(), Ok(()), "seed {s}: {spec:?}");
        }
    }

    #[test]
    fn generated_specs_round_trip_the_corpus_codec() {
        // Bit-exact through encode/decode for every generated case,
        // open-system blocks (budgets as f64 bit patterns) included.
        for s in 0..128 {
            let spec = generate(s);
            let decoded =
                CaseSpec::decode(&spec.encode()).unwrap_or_else(|e| panic!("seed {s}: {e}"));
            assert_eq!(decoded, spec, "seed {s}");
        }
    }

    #[test]
    fn generation_covers_the_adversarial_regimes() {
        let specs: Vec<CaseSpec> = (0..512).map(generate).collect();
        // Off-lattice losses (mid-transfer regime).
        assert!(specs
            .iter()
            .any(|s| s.losses.iter().any(|l| s.dt > 1 && l.at % s.dt != 0)));
        // Same-tick loss + arrival on different machines.
        assert!(specs.iter().any(|s| s.losses.iter().any(|l| s
            .arrivals
            .iter()
            .any(|a| a.at == l.at && a.machine != l.machine))));
        // Arrive-then-lose on one machine.
        assert!(specs.iter().any(|s| s.losses.iter().any(|l| s
            .arrivals
            .iter()
            .any(|a| a.machine == l.machine && a.at < l.at))));
        // Multi-loss cases and loss-free cases both occur.
        assert!(specs.iter().any(|s| s.losses.len() >= 2));
        assert!(specs.iter().any(|s| s.losses.is_empty()));
        // All three grid cases and several clock steps occur.
        for case in [GridCase::A, GridCase::B, GridCase::C] {
            assert!(specs.iter().any(|s| s.case == case));
        }
        for dt in [1, 2, 5, 10, 20] {
            assert!(specs.iter().any(|s| s.dt == dt));
        }
        // Adaptive and fixed-weight cases both occur, every rule shows
        // up, and the inert-step regime (the legacy-equivalence oracle's
        // fuel) is represented.
        assert!(specs.iter().any(|s| s.adaptation.is_none()));
        assert!(specs.iter().any(|s| matches!(
            s.adaptation,
            Some(Adaptation { rule: StepRule::Constant { a }, .. }) if a == 0.0
        )));
        assert!(specs.iter().any(|s| matches!(
            s.adaptation,
            Some(Adaptation { rule: StepRule::Constant { a }, .. }) if a > 0.0
        )));
        assert!(specs.iter().any(|s| matches!(
            s.adaptation,
            Some(Adaptation {
                rule: StepRule::Diminishing { .. },
                ..
            })
        )));
        assert!(specs.iter().any(|s| matches!(
            s.adaptation,
            Some(Adaptation {
                rule: StepRule::Polyak { .. },
                ..
            })
        )));
        assert!(specs
            .iter()
            .any(|s| matches!(s.adaptation, Some(Adaptation { every, .. }) if every > 1)));
        // Open-system blocks: present and absent, with and without a
        // live background model, budgeted and unbudgeted jobs, and both
        // job kinds show up.
        use adhoc_grid::arrival::JobKind;
        let opens: Vec<_> = specs.iter().filter_map(|s| s.open.as_ref()).collect();
        assert!(!opens.is_empty());
        assert!(specs.iter().any(|s| s.open.is_none()));
        assert!(opens.iter().any(|o| o.bg.is_none()));
        assert!(opens.iter().any(|o| !o.bg.is_none()));
        assert!(opens
            .iter()
            .any(|o| o.jobs.iter().any(|j| j.budget.is_some())));
        assert!(opens
            .iter()
            .any(|o| o.jobs.iter().all(|j| j.budget.is_none())));
        for kind in [JobKind::Dag, JobKind::Bag] {
            assert!(opens.iter().any(|o| o.jobs.iter().any(|j| j.kind == kind)));
        }
        // Open cases co-occur with churn: losses hit the shared grid
        // while the job stream is live.
        assert!(specs
            .iter()
            .any(|s| s.open.is_some() && !s.losses.is_empty()));
    }
}
