//! Golden differential suite for the run-context reuse refactor.
//!
//! Reusing one `RunContext` (SimState buffers, candidate frontier, plan scratch)
//! across thousands of heuristic runs — and memoizing weight-search
//! evaluations between the coarse and fine stages — must not move a
//! single *semantic* output bit: the winning weights, their `T100`, and
//! every campaign aggregate have to stay byte-identical to what
//! fresh-allocation runs produced. These fixtures were blessed on the
//! pre-refactor code (`tests/golden/run_context_*.txt`) and are asserted
//! under 1 worker thread and under 4.
//!
//! Unlike `golden_kernel_refactor.rs`'s `weight_search.txt`, the
//! weight-search fixture here deliberately **excludes**
//! `WeightSearchOutcome::evaluations`: the fine-stage dedup is *supposed*
//! to lower that counter, while weights and `T100` must not move.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p grid-sweep --test
//! golden_run_context` — only for a change that is supposed to alter
//! results, and say so in the commit.
//!
//! The steps (coarse 0.2, fine 0.05) are chosen so the fine stage is a
//! genuine refinement pass whose grid overlaps the coarse lattice at
//! every fourth index — exactly the step-aligned points the dedup memo
//! elides — rather than the degenerate `fine == coarse` configuration
//! the kernel-refactor fixtures use.

use std::fmt::Write as _;
use std::path::PathBuf;

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{ScenarioParams, ScenarioSet};
use grid_sweep::weight_search::optimal_weights_with_steps;
use grid_sweep::{canonical_report, run_campaign, CampaignConfig, Heuristic};
use rayon::ThreadPool;

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
         run-context reuse changed semantic behaviour"
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

#[test]
fn weight_search_semantics_match_pre_reuse_reference() {
    assert_golden_differential("run_context_weight_search.txt", || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 2, 2);
        let mut out = String::new();
        for h in [Heuristic::Slrh1, Heuristic::MaxMax] {
            for case in [GridCase::A, GridCase::B] {
                for (e, d) in set.ids() {
                    let sc = set.scenario(case, e, d);
                    let found = optimal_weights_with_steps(h, &sc, 0.2, 0.05);
                    match found {
                        Some(o) => writeln!(
                            out,
                            "{h} {case} {e} {d}: alpha={:?} beta={:?} t100={}",
                            o.weights.alpha(),
                            o.weights.beta(),
                            o.t100
                        )
                        .unwrap(),
                        None => writeln!(out, "{h} {case} {e} {d}: infeasible").unwrap(),
                    }
                }
            }
        }
        out
    });
}

#[test]
fn campaign_two_stage_matches_pre_reuse_reference() {
    assert_golden_differential("run_context_campaign.txt", || {
        let set = ScenarioSet::new(ScenarioParams::paper_scaled(32), 1, 2);
        let cfg = CampaignConfig {
            set,
            heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
            cases: vec![GridCase::A, GridCase::C],
            coarse: 0.2,
            fine: 0.05,
        };
        canonical_report(&run_campaign(&cfg))
    });
}
