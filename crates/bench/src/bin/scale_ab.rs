//! Frontier-kernel timing beyond what `BENCHMARK.json` reaches, recorded
//! in `BENCH_scale.json` at the repository root: the interleaved
//! resort-vs-cached oracle A/B and the 65 536×256 / 100 000×1000 design
//! points. Everything at or below 16 384×64 as a *product* number is
//! `benchmark/`'s (`scale_16k`, `paper_suite`, `paper_churn`).
//!
//! Two arms run from this one binary, interleaved within each round so
//! background-load drift hits both equally:
//!
//! * **resort** — the `slrh::reference` `Resort` oracle: the incremental
//!   frontier with every cached bound order shed, re-gating and
//!   re-sorting the ready list every query.
//! * **cached** — the product kernel (`run_slrh`). This is the recorded
//!   `after`; against `resort` it isolates the cached-order win.
//!
//! Both arms commit a byte-identical schedule
//! (`crates/stress/src/scale.rs` and the sweep equivalence proptests
//! assert it), so the ratio is a pure kernel speedup. Per-case summaries
//! use min-of-rounds (robust to host variance); all rounds are listed,
//! and every full run appends one row per case, stamped with
//! `git describe --always --dirty`, to the file's `history` array
//! instead of erasing the past.
//!
//! ```text
//! cargo run -p bench --release --bin scale_ab              # full A/B, rewrites BENCH_scale.json (history preserved)
//! cargo run -p bench --release --bin scale_ab -- --smoke   # one 65k product run, fails past the wall-clock ceiling
//! ```

use adhoc_grid::scale::ScaleParams;
use lagrange::weights::Weights;
use slrh::reference::{self, Kind};
use slrh::{run_slrh, Churn, RunContext, SlrhConfig, SlrhVariant};
use std::time::Instant;

/// (tasks, machines) of one case.
type Size = (usize, usize);

const AB_SIZES: [Size; 3] = [(1024, 16), (16_384, 64), (65_536, 256)];
/// The design-point size: one `cached` round, recorded end to end.
const DESIGN_POINT: Size = (100_000, 1000);
/// `--smoke` runs this size once and fails past `SMOKE_MAX_SECS`. A
/// regime tripwire, not a ratchet: the frontier maps 65k in about 5 s,
/// the per-query pool walk it replaced needed minutes.
const SMOKE_SIZE: Size = AB_SIZES[2];
const SMOKE_MAX_SECS: f64 = 30.0;

const USAGE: &str = "usage: scale_ab [--smoke] [--rounds N] [--out PATH]";

fn config() -> SlrhConfig {
    let weights = Weights::new(0.5, 0.25).expect("static weights");
    SlrhConfig::paper(SlrhVariant::V1, weights)
}

/// The two arms, in within-round execution order.
#[derive(Clone, Copy)]
enum Arm {
    Resort,
    Cached,
}

impl Arm {
    const BOTH: [Arm; 2] = [Arm::Resort, Arm::Cached];
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn min_of(rounds: &[f64]) -> f64 {
    rounds.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median_of(rounds: &[f64]) -> f64 {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One case's rounds in ms. `resort_ms` is empty when only the product
/// arm ran (the design point).
struct CaseResult {
    name: String,
    resort_ms: Vec<f64>,
    cached_ms: Vec<f64>,
}

fn run_case((tasks, machines): Size, rounds: usize, arms: &[Arm]) -> CaseResult {
    let sc = ScaleParams::new(tasks, machines).generate(0, 0);
    let cfg = config();
    let mut case = CaseResult {
        name: format!("kernel_scale/{tasks}x{machines}"),
        resort_ms: Vec::new(),
        cached_ms: Vec::new(),
    };
    for round in 1..=rounds {
        for &arm in arms {
            let t = Instant::now();
            let (label, mapped, rounds_ms) = match arm {
                Arm::Cached => (
                    "cached",
                    run_slrh(&sc, &cfg).metrics().mapped,
                    &mut case.cached_ms,
                ),
                Arm::Resort => {
                    let ctx = &mut RunContext::new();
                    let out = reference::run(Kind::Resort, &sc, &cfg, &Churn::default(), ctx, None);
                    ("resort", out.metrics().mapped, &mut case.resort_ms)
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(mapped, tasks, "run must map every subtask");
            eprintln!("{} round {round}: {label} {ms:.2} ms", case.name);
            rounds_ms.push(round2(ms));
        }
    }
    case
}

/// The raw row lines of an existing file's `history` array (one object
/// per line, the format [`render`] writes).
fn history_lines(text: &str) -> Vec<&str> {
    text.lines()
        .skip_while(|l| !l.trim_start().starts_with("\"history\""))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .collect()
}

fn join_ms(rounds: &[f64], sep: &str) -> String {
    rounds
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(sep)
}

/// The whole of BENCH_scale.json for one round: fresh `cases` blocks,
/// and `existing`'s history rows carried forward byte for byte with one
/// `{commit, date, case, after_min_ms}` row appended per case.
fn render(
    existing: &str,
    commit: &str,
    date: &str,
    results: &[CaseResult],
    rounds: usize,
) -> String {
    let methodology = format!(
        "Interleaved A/B from one binary on the same host: per round, the resort reference \
         (slrh::reference Kind::Resort: the frontier with every cached bound order shed) and \
         the product kernel (run_slrh) run back to back, {rounds} rounds per case, so \
         background-load drift hits both arms equally. 'after' is the product kernel; \
         resort-vs-cached isolates the cached-order win. The resort arm is an oracle timing, \
         not a product number: from the PR 16 rounds on it filters the ready list per \
         query (its per-tick startable cache was deleted with the kernel's second \
         startability structure), so its rounds are not comparable with earlier ones. \
         Rows from the PR 24 round (2026-10-05, stamped d5629b5-dirty) on are exact-mode: \
         every commit is the paper's argmax over the whole ready list. Every row before it \
         ran the since-deleted clustered approximate mode (clusters 4/8/16/64 at the four \
         sizes) and is not comparable with them; the same-session exact-vs-clustered \
         timing is in EXPERIMENTS.md (Scale benchmark). The \
         kernel is sequential: the chunked parallel scan earlier rounds could reach at 65k \
         and 100k was measured and removed (DESIGN.md section 17). Rounds stamped with \
         different commits come from different host sessions, so they are a trail, not an \
         A/B: the same-session parent-vs-PR 16 timing at 65536x256 and 100000x1000 is in \
         EXPERIMENTS.md (Scale benchmark). Per-case summary uses \
         min-of-rounds; all rounds are listed. Workloads: ScaleParams::new(tasks, \
         machines).generate(0, 0), SLRH-1 end-to-end, weights (0.5, 0.25). Both arms commit \
         a byte-identical schedule (crates/stress/src/scale.rs and the sweep equivalence \
         proptests assert it). History entries up to d0d882a timed the same kernel with a \
         since-retired forced 4-worker scan and, as 'before', the retired per-query pool \
         path (4023 ms at 16384x64). kernel_scale/100000x1000 is the ROADMAP design point, \
         recorded as a single after-arm round. The history array accumulates one row per \
         case per scripts/perf_append.sh round (rounds before PR 19 recorded 16384x64 \
         only), stamped with git describe --always --dirty, so a -dirty suffix marks a \
         round taken on an uncommitted tree. No gate reads this file: the per-PR same-host \
         regression check at 16384x64 is BENCHMARK.json's scale_16k, and CI runs only \
         scale_ab --smoke (65536x256 under 30 s)."
    );
    let cases: Vec<String> = results
        .iter()
        .map(|case| {
            let after = &case.cached_ms;
            if case.resort_ms.is_empty() {
                return format!(
                    "    \"{}\": {{\n      \"after_rounds_ms\": [{}],\n      \"after_min_ms\": {}\n    }}",
                    case.name,
                    join_ms(after, ", "),
                    min_of(after),
                );
            }
            let arm = |label: &str, rounds_ms: &[f64]| {
                format!(
                    "        \"{label}\": {{\n          \"rounds_ms\": [{}],\n          \"min_ms\": {}\n        }}",
                    join_ms(rounds_ms, ", "),
                    min_of(rounds_ms),
                )
            };
            format!(
                "    \"{}\": {{\n      \"after_rounds_ms\": [\n        {}\n      ],\n      \
                 \"after_min_ms\": {},\n      \"after_median_ms\": {},\n      \
                 \"arms\": {{\n{},\n{}\n      }}\n    }}",
                case.name,
                join_ms(after, ",\n        "),
                min_of(after),
                round2(median_of(after)),
                arm("resort", &case.resort_ms),
                arm("cached", after),
            )
        })
        .collect();
    let mut history: Vec<String> = history_lines(existing)
        .iter()
        .map(|row| row.trim_end_matches(',').to_string())
        .collect();
    history.extend(results.iter().map(|case| {
        format!(
            "    {{\"commit\": \"{commit}\", \"date\": \"{date}\", \"case\": \"{}\", \"after_min_ms\": {}}}",
            case.name,
            min_of(&case.cached_ms),
        )
    }));
    format!(
        "{{\n  \"bench\": \"kernel_scale\",\n  \"date\": \"{date}\",\n  \"commit\": \"{commit}\",\n  \
         \"methodology\": \"{methodology}\",\n  \"cases\": {{\n{}\n  }},\n  \"history\": [\n{}\n  ]\n}}\n",
        cases.join(",\n"),
        history.join(",\n"),
    )
}

/// A command's stdout, trimmed, or "unknown" when it cannot be had.
fn stdout_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut rounds = 3usize;
    let mut out = "BENCH_scale.json".to_string();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--rounds needs a positive integer"))
            }
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a path"))
            }
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }

    if smoke {
        let secs = run_case(SMOKE_SIZE, 1, &[Arm::Cached]).cached_ms[0] / 1e3;
        assert!(
            secs < SMOKE_MAX_SECS,
            "65k smoke took {secs:.1} s, ceiling is {SMOKE_MAX_SECS} s"
        );
        println!("smoke ok: {secs:.2} s");
        return;
    }

    let mut results: Vec<CaseResult> = AB_SIZES
        .iter()
        .map(|&size| run_case(size, rounds, &Arm::BOTH))
        .collect();
    results.push(run_case(DESIGN_POINT, 1, &[Arm::Cached]));
    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let commit = stdout_of("git", &["describe", "--always", "--dirty"]);
    let date = stdout_of("date", &["+%Y-%m-%d"]);
    std::fs::write(&out, render(&existing, &commit, &date, &results, rounds))
        .expect("BENCH_scale.json is writable");
    eprintln!("wrote {out}");
    for case in &results {
        if case.resort_ms.is_empty() {
            println!(
                "{} after: {:.2} s",
                case.name,
                min_of(&case.cached_ms) / 1e3
            );
        } else {
            println!(
                "{}: resort {:.2} ms -> cached {:.2} ms (min)",
                case.name,
                min_of(&case.resort_ms),
                min_of(&case.cached_ms),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A round's history rows cover every case it ran, and whatever the
    /// file's `history` array already held comes first, byte for byte.
    #[test]
    fn a_round_appends_one_row_per_case_and_carries_history_verbatim() {
        // Rows as earlier versions wrote them, plus one with a field
        // this version does not know: carried, never re-rendered.
        let old_rows = "    {\"commit\": \"d0d882a\", \"date\": \"2026-08-09\", \"case\": \"kernel_scale/16384x64\", \"after_min_ms\": 340.48},\n\
                        \t{\"commit\": \"67d86a2\",  \"case\": \"kernel_scale/16384x64\", \"after_min_ms\": 331.53, \"note\": \"x\"}";
        let existing = format!(
            "{{\n  \"cases\": {{\n    \"kernel_scale/1024x16\": {{ \"after_min_ms\": 1 }}\n  }},\n  \
             \"history\": [\n{old_rows}\n  ]\n}}\n"
        );
        let case = |name: &str, resort_ms: &[f64], cached_ms: &[f64]| CaseResult {
            name: name.to_string(),
            resort_ms: resort_ms.to_vec(),
            cached_ms: cached_ms.to_vec(),
        };
        let results = [
            case("kernel_scale/1024x16", &[14.5, 12.83], &[6.98, 5.96]),
            case("kernel_scale/16384x64", &[448.47, 405.6], &[365.86, 331.53]),
            case(
                "kernel_scale/65536x256",
                &[6491.51, 6901.53],
                &[5039.46, 4635.17],
            ),
            case("kernel_scale/100000x1000", &[], &[11012.25]),
        ];
        let text = render(&existing, "abc1234-dirty", "2026-10-02", &results, 2);

        let history_at = text.find("  \"history\": [\n").expect("a history array");
        let block = &text[history_at + "  \"history\": [\n".len()..];
        assert!(block.starts_with(&format!("{old_rows},\n")), "{block}");
        let rows = history_lines(&text);
        assert_eq!(rows.len(), 2 + results.len());
        for (row, case) in rows[2..].iter().zip(&results) {
            let min = min_of(&case.cached_ms);
            assert_eq!(
                row.trim_end_matches(','),
                format!(
                    "    {{\"commit\": \"abc1234-dirty\", \"date\": \"2026-10-02\", \"case\": \"{}\", \"after_min_ms\": {min}}}",
                    case.name
                )
            );
        }
        assert!(text.ends_with("}\n  ]\n}\n"), "{text}");
        // No history yet (first run, unreadable file): the round's rows alone.
        assert_eq!(
            history_lines(&render("", "abc1234", "2026-10-02", &results, 2)).len(),
            4
        );
    }
}
