//! The repository's benchmark: seven workloads over the whole stack,
//! end-to-end metrics from an untraced timed window, per-layer metrics
//! from a traced cycle. See `README.md` beside this package.
//!
//! Two ways in:
//!
//! * the driver's contract — `benchmark --workload W --seed N --seconds S
//!   --trace 0|1` runs one workload in this process and prints one JSON
//!   object as the last line of standard output;
//! * for people — `benchmark run|check|manifest`, which run each
//!   workload in a child process of their own and print tables.

mod api;
mod catalog;
mod report;
mod run;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use catalog::{Better, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, RUN_SECONDS};
use util::{json_num, json_str};
use workloads::WORKLOADS;

const USAGE: &str = "\
usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick 0|1]
       benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace] [--quick] [--record]
       benchmark check [--workload NAME] [--seed N] [--seconds S] [--quick]
       benchmark manifest

  (no command)  one workload in this process; the result is one JSON object on
                the last line of standard output
  run           every workload (or one), each in its own child process; prints
                every metric by name and unit. --trace adds the traced pass and
                the per-layer metrics; --record also measures the held-out seed
                and rewrites benchmark/results/baseline.json
  check         the whole benchmark twice on the same build; exits non-zero
                when an end-to-end metric's two values differ by more than its
                bound (not judged under --quick, nor on a workload outside
                BENCHMARK.json), or a digest differs or an operation fails
  manifest      print the root BENCHMARK.json generated from the catalogue
  --quick       1-second windows and short lists; every correctness check still runs";

struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Flags that take no value on the human-facing commands.
const SWITCHES: [&str; 3] = ["--trace", "--quick", "--record"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().peekable();
    let command = match it.peek() {
        Some(first) if !first.starts_with("--") => it.next().cloned(),
        _ => None,
    };
    let mut flags = BTreeMap::new();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        // The driver spells switches with a value (`--trace 1`), people
        // without (`--trace`); accept both.
        let takes_value = !SWITCHES.contains(&flag.as_str())
            || it
                .peek()
                .is_some_and(|v| v.as_str() == "0" || v.as_str() == "1");
        let value = if takes_value {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))?
        } else {
            "1".to_string()
        };
        flags.insert(flag.clone(), value);
    }
    Ok(Args { command, flags })
}

impl Args {
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.get(flag) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {raw:?} for {flag}")),
        }
    }

    fn switch(&self, flag: &str) -> Result<bool, String> {
        Ok(self.num::<u8>(flag)?.unwrap_or(0) != 0)
    }

    fn workloads(&self) -> Result<Vec<&'static workloads::Workload>, String> {
        match self.flags.get("--workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => workloads::find(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|f| !known.contains(&f.as_str())) {
            Some(f) => Err(format!("unknown flag {f}")),
            None => Ok(()),
        }
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

// ---- the driver's contract ----------------------------------------------

fn driver_mode(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace", "--quick"])?;
    let name = args
        .flags
        .get("--workload")
        .ok_or("--workload is required")?;
    let o = run::Options {
        workload: workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: args.num("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.num("--seconds")?.unwrap_or(RUN_SECONDS as f64),
        trace: args.switch("--trace")?,
        quick: args.switch("--quick")?,
    };
    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let out = run::run(&o)?;
    // For the human-facing commands, which read a child's standard error.
    for (key, value) in &out.notes {
        eprintln!("# note {key}={}", value.replace('\n', " | "));
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(unit_of(m.name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

// ---- the human-facing commands --------------------------------------------

/// What a child run reported.
struct Row {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    notes: BTreeMap<String, String>,
}

impl Row {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Pull `"key": value` out of the flat result line this program prints.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn parse_result_line(line: &str) -> Option<Row> {
    let metrics_at = line.find("\"metrics\": {")?;
    let mut metrics = Vec::new();
    // Each metric is `"name": {"value": v, "unit": "u"}`.
    for piece in line[metrics_at + 12..].split("\"unit\"") {
        let Some(value_at) = piece.find("{\"value\": ") else {
            continue;
        };
        let name = piece[..value_at].rsplit('"').nth(1)?;
        let value = piece[value_at + 10..]
            .trim_end_matches([',', ' '])
            .parse()
            .ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(Row {
        correct: json_field(line, "correct")? == "true",
        attempted: json_field(line, "attempted")?.parse().ok()?,
        failed: json_field(line, "failed")?.parse().ok()?,
        metrics,
        notes: BTreeMap::new(),
    })
}

/// Run one workload in a child process of this program, so peak memory
/// and CPU time are that workload's alone.
fn child(
    w: &workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
            if quick { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{}: child exited with {}: {}",
            w.name,
            output.status,
            stderr.trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut row = stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{}: child printed no result line", w.name))?;
    for note in stderr.lines().filter_map(|l| l.strip_prefix("# note ")) {
        if let Some((k, v)) = note.split_once('=') {
            row.notes.insert(k.to_string(), v.to_string());
        }
    }
    Ok(row)
}

fn print_row(w: &workloads::Workload, seed: u64, row: &Row) {
    let note = |k: &str| row.notes.get(k).map_or("?", String::as_str);
    println!(
        "\n{} (seed {seed}; {} client(s), closed loop; operation: {}{})",
        w.name,
        w.clients,
        w.operation,
        if w.gated {
            ""
        } else {
            "; not in BENCHMARK.json"
        }
    );
    println!(
        "  correct={} attempted={} failed={} samples={} rounds={} highest percentile={} digest={} noisy={}",
        row.correct,
        row.attempted,
        row.failed,
        note("samples"),
        note("rounds"),
        note("highest_supported_percentile"),
        note("report_digest"),
        note("noisy"),
    );
    for key in ["first_failure", "few_rounds", "trace_error", "trace_file"] {
        if let Some(v) = row.notes.get(key) {
            println!("  {key}: {v}");
        }
    }
    for (name, value) in &row.metrics {
        // Per-layer rows say which end-to-end metric they should move.
        let moves = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or(String::new(), |m| format!("  -> {}", m.moves));
        println!("  {name:<32} {value:>16.4} {:<6}{moves}", unit_of(name));
    }
}

struct Plan {
    workloads: Vec<&'static workloads::Workload>,
    seed: u64,
    seconds: f64,
    quick: bool,
}

impl Plan {
    fn new(args: &Args) -> Result<Plan, String> {
        let quick = args.switch("--quick")?;
        Ok(Plan {
            workloads: args.workloads()?,
            seed: args.num("--seed")?.unwrap_or(DEFAULT_SEED),
            seconds: args
                .num("--seconds")?
                .unwrap_or(if quick { 1.0 } else { RUN_SECONDS as f64 }),
            quick,
        })
    }
}

fn run_mode(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--quick",
        "--record",
    ])?;
    let plan = Plan::new(args)?;
    let record = args.switch("--record")?;
    let traced = args.switch("--trace")? || record;
    let seeds = if record {
        vec![plan.seed, HELD_OUT_SEED]
    } else {
        vec![plan.seed]
    };
    let mut all_ok = true;
    let mut recorded = Vec::new();
    for &seed in &seeds {
        for &w in &plan.workloads {
            let mut rows = vec![child(w, seed, plan.seconds, false, plan.quick)?];
            if traced {
                rows.push(child(w, seed, plan.seconds, true, plan.quick)?);
            }
            for row in &rows {
                print_row(w, seed, row);
                all_ok &= row.correct && row.failed == 0;
            }
            recorded.push((w, seed, rows));
        }
    }
    if record {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join("baseline.json");
        std::fs::write(&path, baseline_json(&plan, &recorded))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("\nrecorded {}", path.display());
    }
    Ok(all_ok)
}

/// The recorded numbers: per seed and workload, every metric with its
/// unit, plus the digest that shows two commits schedule identically.
fn baseline_json(plan: &Plan, recorded: &[(&workloads::Workload, u64, Vec<Row>)]) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = format!(
        "{{\n  \"default_seed\": {DEFAULT_SEED},\n  \"held_out_seed\": {HELD_OUT_SEED},\n  \
         \"run_seconds\": {},\n  \"host_threads\": {threads},\n  \"runs\": [\n",
        json_num(plan.seconds)
    );
    let runs: Vec<String> = recorded
        .iter()
        .map(|(w, seed, rows)| {
            let note = |k: &str| rows[0].notes.get(k).cloned().unwrap_or_default();
            let metrics: Vec<String> = rows
                .iter()
                .flat_map(|r| &r.metrics)
                .map(|(n, v)| format!("      {}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(unit_of(n))))
                .collect();
            format!(
                "    {{\"workload\": {}, \"gated\": {}, \"seed\": {seed}, \"clients\": {}, \"operation\": {}, \
                 \"report_digest\": {}, \"noisy\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"samples\": {}, \"metrics\": {{\n{}\n    }}}}",
                json_str(w.name),
                w.gated,
                w.clients,
                json_str(w.operation),
                json_str(&note("report_digest")),
                note("noisy") == "true",
                rows[0].attempted,
                rows[0].failed,
                note("samples").parse::<u64>().unwrap_or(0),
                metrics.join(",\n")
            )
        })
        .collect();
    s.push_str(&runs.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

fn check_mode(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--quick"])?;
    let plan = Plan::new(args)?;
    let mut all_ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for &w in &plan.workloads {
        let a = child(w, plan.seed, plan.seconds, false, plan.quick)?;
        let b = child(w, plan.seed, plan.seconds, false, plan.quick)?;
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                return Err(format!("{}: {} was not reported", w.name, m.name));
            };
            // How much worse the worse of the two reads than the better.
            let gap = match m.better {
                Better::Lower => x.max(y) / x.min(y) - 1.0,
                Better::Higher => 1.0 - x.min(y) / x.max(y),
            };
            let ok = gap <= m.bound;
            // A workload outside BENCHMARK.json is shown, not judged; nor
            // are the timings of 1-second windows.
            let judged = w.gated && !plan.quick;
            all_ok &= ok || !judged;
            println!(
                "{:<14} {:<16} {x:>14.4} {y:>14.4} {:>7.1}% {:>6.0}%  {}",
                w.name,
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                match (ok, judged) {
                    (true, _) => "ok",
                    (false, true) => "EXCEEDS BOUND",
                    (false, false) => "exceeds bound (not judged)",
                }
            );
        }
        // What repeats exactly must agree exactly.
        let digest = |r: &Row| r.notes.get("report_digest").cloned();
        let exact =
            digest(&a) == digest(&b) && a.failed == 0 && b.failed == 0 && a.correct && b.correct;
        all_ok &= exact;
        println!(
            "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7}  {}",
            w.name,
            "report_digest",
            digest(&a).unwrap_or_default(),
            digest(&b).unwrap_or_default(),
            "",
            "exact",
            if exact { "ok" } else { "DIFFERS OR FAILED" }
        );
        for r in [&a, &b] {
            if r.notes.get("noisy").is_some_and(|v| v == "true") {
                println!(
                    "{:<14} noisy: true (calibration drift {})",
                    w.name,
                    r.notes.get("calib_drift").map_or("?", String::as_str)
                );
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_deref() {
        None => driver_mode(&args).map(|()| true),
        Some("run") => run_mode(&args),
        Some("check") => check_mode(&args),
        Some("manifest") => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_human_spellings_of_switches_both_parse() {
        let a = parse_args(&args(
            "--workload paper_suite --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, None);
        assert!(a.switch("--trace").unwrap());
        assert_eq!(a.num::<u64>("--seed").unwrap(), Some(7));
        let b = parse_args(&args("run --trace --workload open_stream --quick")).unwrap();
        assert_eq!(b.command.as_deref(), Some("run"));
        assert!(b.switch("--trace").unwrap() && b.switch("--quick").unwrap());
        assert!(!b.switch("--record").unwrap());
        let c = parse_args(&args("--trace 0 --workload x")).unwrap();
        assert!(!c.switch("--trace").unwrap());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("run stray")).is_err());
        assert!(a.reject_unknown(&["--workload"]).is_err());
    }

    #[test]
    fn the_result_line_reads_back() {
        let line = "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": {\
            \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
            \"jobs_per_s\": {\"value\": 71.25, \"unit\": \"1/s\"}}}";
        let row = parse_result_line(line).unwrap();
        assert!(row.correct);
        assert_eq!((row.attempted, row.failed), (120, 0));
        assert_eq!(row.metric("setup_s"), Some(0.8127));
        assert_eq!(row.metric("jobs_per_s"), Some(71.25));
        assert_eq!(row.metric("absent"), None);
        assert!(parse_result_line("not a result").is_none());
    }

    #[test]
    fn every_metric_has_a_unit() {
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(!unit_of(name).is_empty(), "{name}");
        }
    }
}
