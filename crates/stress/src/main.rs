//! The fuzz-campaign CLI.
//!
//! ```text
//! cargo run --release -p stress -- --seeds 256
//! cargo run --release -p stress -- --seeds 64 --start-seed 1000 --ticks-budget 2000000
//! cargo run --release -p stress -- --replay crates/stress/corpus/loss-arrival-same-tick.case
//! ```
//!
//! Runs seeds `start..start+n` through every heuristic and every oracle.
//! A failing seed is shrunk to a minimal reproducer and persisted under
//! the corpus directory as `fail-<seed>.case`; the campaign continues
//! (collecting every failure) and exits non-zero at the end.

use std::path::PathBuf;
use std::process::ExitCode;

use slrh::RunContext;
use stress::{generate, run_seed, shrink, CaseSpec};

struct Args {
    seeds: u64,
    start_seed: u64,
    ticks_budget: Option<u64>,
    corpus: PathBuf,
    replay: Option<PathBuf>,
    shrink_budget: usize,
    scale_seeds: u64,
    scale_max_tasks: usize,
}

fn default_corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 64,
        start_seed: 0,
        ticks_budget: None,
        corpus: default_corpus(),
        replay: None,
        shrink_budget: 200,
        scale_seeds: 0,
        scale_max_tasks: 16_384,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = num(&value("--seeds")?)?,
            "--start-seed" => args.start_seed = num(&value("--start-seed")?)?,
            "--ticks-budget" => args.ticks_budget = Some(num(&value("--ticks-budget")?)?),
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")?),
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--shrink-budget" => args.shrink_budget = num(&value("--shrink-budget")?)? as usize,
            "--scale-seeds" => args.scale_seeds = num(&value("--scale-seeds")?)?,
            "--scale-max-tasks" => {
                args.scale_max_tasks = num(&value("--scale-max-tasks")?)? as usize
            }
            "--help" | "-h" => {
                println!(
                    "usage: stress [--seeds N] [--start-seed S] [--ticks-budget B]\n\
                     \x20             [--corpus DIR] [--shrink-budget N] [--replay FILE]\n\
                     \x20             [--scale-seeds N] [--scale-max-tasks T]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn num(s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse()
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stress: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ctx = RunContext::new();

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stress: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let spec = match CaseSpec::decode(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("stress: cannot decode {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let report = run_seed(&spec, &mut ctx);
        println!(
            "replay {}: seed {} signature {} ({} clock steps, {} sweeps elided)",
            path.display(),
            report.seed,
            report.signature,
            report.clock_steps,
            report.sweeps_elided
        );
        return if report.passed() {
            println!("PASS");
            ExitCode::SUCCESS
        } else {
            for f in &report.failures {
                println!("FAIL {f}");
            }
            ExitCode::FAILURE
        };
    }

    let mut scale_failing: Vec<u64> = Vec::new();
    let (mut scale_steps, mut scale_elided) = (0u64, 0u64);
    for seed in args.start_seed..args.start_seed + args.scale_seeds {
        let case = stress::generate_scale(seed, args.scale_max_tasks);
        let report = stress::run_scale_seed(&case, &mut ctx);
        if report.passed() {
            scale_steps += report.clock_steps;
            scale_elided += report.sweeps_elided;
            println!(
                "scale seed {seed}: ok ({} tasks, {} machines, {} losses, {} mapped, {} steps, \
                 {} elided)",
                case.tasks,
                case.machines,
                case.losses.len(),
                report.mapped,
                report.clock_steps,
                report.sweeps_elided
            );
            continue;
        }
        println!(
            "scale seed {seed}: FAILED ({} oracle failures) on {} tasks / {} machines",
            report.failures.len(),
            case.tasks,
            case.machines
        );
        for f in &report.failures {
            println!("  {f}");
        }
        scale_failing.push(seed);
    }
    if args.scale_seeds > 0 && scale_failing.is_empty() {
        println!(
            "all {} scale seeds green ({scale_steps} clock steps, {scale_elided} sweeps elided)",
            args.scale_seeds
        );
    }

    let mut ticks_spent = 0u64;
    let mut sweeps_elided = 0u64;
    let mut ran = 0u64;
    let mut failing: Vec<u64> = Vec::new();

    for seed in args.start_seed..args.start_seed + args.seeds {
        if let Some(budget) = args.ticks_budget {
            if ticks_spent >= budget {
                println!("ticks budget exhausted ({ticks_spent} >= {budget}) after {ran} seeds");
                break;
            }
        }
        let spec = generate(seed);
        let report = run_seed(&spec, &mut ctx);
        ticks_spent += report.clock_steps;
        sweeps_elided += report.sweeps_elided;
        ran += 1;

        if report.passed() {
            if seed.is_multiple_of(16) {
                println!(
                    "seed {seed}: ok ({} tasks, case {}, {} losses, {} arrivals, sig {})",
                    spec.tasks,
                    spec.case.letter(),
                    spec.losses.len(),
                    spec.arrivals.len(),
                    report.signature
                );
            }
            continue;
        }

        println!(
            "seed {seed}: FAILED ({} oracle failures)",
            report.failures.len()
        );
        for f in &report.failures {
            println!("  {f}");
        }
        failing.push(seed);

        println!("  shrinking (budget {})...", args.shrink_budget);
        let minimal = shrink(&spec, args.shrink_budget);
        println!(
            "  shrunk to {} tasks, {} losses, {} arrivals, tau {}",
            minimal.tasks,
            minimal.losses.len(),
            minimal.arrivals.len(),
            minimal.tau
        );
        let path = args.corpus.join(format!("fail-{seed}.case"));
        match std::fs::create_dir_all(&args.corpus)
            .and_then(|()| std::fs::write(&path, minimal.encode()))
        {
            Ok(()) => println!("  reproducer written to {}", path.display()),
            Err(e) => eprintln!("  cannot persist reproducer {}: {e}", path.display()),
        }
    }

    if !failing.is_empty() {
        println!(
            "{} of {ran} seeds failed: {failing:?} ({ticks_spent} clock steps)",
            failing.len()
        );
        return ExitCode::FAILURE;
    }
    if !scale_failing.is_empty() {
        println!(
            "{} scale seeds failed: {scale_failing:?}",
            scale_failing.len()
        );
        return ExitCode::FAILURE;
    }
    // The frontier ≡ reference differentials are the proof that eliding
    // a sweep is exact — but only over sweeps that were elided.
    if ran >= 64 && sweeps_elided == 0 {
        println!("{ran} seeds and not one sweep elided: the elision differentials ran vacuously");
        return ExitCode::FAILURE;
    }
    println!("all {ran} seeds green ({ticks_spent} clock steps, {sweeps_elided} sweeps elided)");
    ExitCode::SUCCESS
}
