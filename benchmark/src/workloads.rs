//! The seven workloads and their job lists.
//!
//! A job list is a list of argument vectors, made from the benchmark
//! seed alone: the program under test receives only these generated
//! inputs, never the seed. Lists interleave Cases A/B/C so a window that
//! ends part-way through a cycle has still run the same mix.

use crate::api;
use crate::util::Rng;

/// How a workload's operations are issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `execute_map` in-process, one caller on one warm context.
    Map,
    /// The frontier scale path called directly, one caller.
    Scale,
    /// `execute_open` in-process, one caller; an operation is one stream job.
    Open,
    /// `execute_campaign` back to back; an operation is one cell.
    Campaign,
    /// `submit` over loopback to an in-process daemon, closed loop.
    Daemon,
}

/// How a window's rounds become `jobs_per_s` and `job_p50_ms`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Timing {
    /// The repository's min-of-rounds discipline (`scale_ab`): each list
    /// entry counts at the best time any round saw for it. For compute:
    /// on a shared host interference only ever adds time, and a burst
    /// then spoils one round of an entry, not the run.
    BestOfRounds,
    /// Every sample counts; the rate is the median round's. For the
    /// daemon, whose latency is made of protocol waits (Nagle, delayed
    /// ACK) that are the product's behaviour: the best of several tries
    /// would report the lucky path no client sees half the time.
    Plain,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub timing: Timing,
    /// Listed in `BENCHMARK.json`, so the driver runs it and bounds apply.
    pub gated: bool,
    /// Concurrent callers (closed loop: each sends its next request when
    /// the reply to the last has arrived).
    pub clients: usize,
    /// What one operation is.
    pub operation: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
}

/// Daemon worker threads, as `lrh-grid serve` defaults.
pub const DAEMON_WORKERS: usize = 2;

#[rustfmt::skip]
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "paper_suite",
        timing: Timing::BestOfRounds,
        gated: true,
        kind: Kind::Map,
        clients: 1,
        operation: "one 1024-subtask SLRH-1 job",
        why: "The one-shot path at paper scale (Figure 6): the tick loop and sim plan/commit are ~90 % of a job, so kernel work shows here and broker work must not.",
    },
    Workload {
        name: "paper_churn",
        timing: Timing::BestOfRounds,
        gated: true,
        kind: Kind::Map,
        clients: 1,
        operation: "one 1024-subtask SLRH-1 job under machine loss and arrival",
        why: "Same kernel under ad hoc dynamics (unmap cascades, cache invalidation, online weight updates): a steady-state caching gain that costs the invalidation path shows as a loss here.",
    },
    Workload {
        name: "scale_16k",
        timing: Timing::BestOfRounds,
        gated: true,
        kind: Kind::Scale,
        clients: 1,
        operation: "one 16384-subtask x 64-machine frontier job plus validation",
        why: "The frontier kernel is ~97 % of the job and the pool path does nothing: where peak memory, the SoA bound tables and the chunked scan matter.",
    },
    Workload {
        name: "open_stream",
        timing: Timing::BestOfRounds,
        gated: true,
        kind: Kind::Open,
        clients: 1,
        operation: "one stream job of an open-system trace",
        why: "The open driver's own load (per-job scenario generation, block_until coupling, battery draining), across the arrival-rate sweep; where admission control should move the hit rate.",
    },
    Workload {
        name: "campaign_tune",
        timing: Timing::BestOfRounds,
        gated: true,
        kind: Kind::Campaign,
        clients: 1,
        operation: "one (heuristic, case) campaign cell",
        why: "The Figures 3-7 pipeline and the only rayon-parallel CPU-bound path: sweep memo, context reuse, bounds, baselines and the checkpoint's fsync.",
    },
    Workload {
        name: "daemon_small",
        timing: Timing::Plain,
        gated: true,
        kind: Kind::Daemon,
        clients: 2,
        operation: "one 32-128-subtask submit, request sent to reply read",
        why: "Service time is under a millisecond, so submit-to-done latency is almost all broker and wire: per-message flushes, queue hand-off, frame codec (fixed cost per job).",
    },
    Workload {
        name: "daemon_paper",
        timing: Timing::Plain,
        // Not gated: on this 2-core host its six busy threads and the
        // TCP dynamics of ~25 000 small frames per job move same-seed
        // throughput by 30 % run to run (README, "Known limits").
        gated: false,
        kind: Kind::Daemon,
        clients: 2,
        operation: "one 1024-subtask submit, request sent to reply read",
        why: "Tens of thousands of tick-event frames per job make event streaming most of the job: the broker's per-event cost, told apart from daemon_small's per-job cost.",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One job: the words after `lrh-grid` (or, for the two kinds the CLI
/// has no command for, the harness's own `scale`/`campaign` words).
pub type Job = Vec<String>;

fn words(s: &str) -> Job {
    s.split_whitespace().map(str::to_string).collect()
}

const CASES: [&str; 3] = ["A", "B", "C"];

/// (ETC, DAG) members of the paper's 10 x 10 suite a paper list draws:
/// thirty, on three cases each, make a round of about a second, so a
/// window holds the ten or so rounds that best-of-rounds timing wants.
const PAPER_PAIRS: usize = 30;
/// daemon_paper submits this many of them: at ~17 jobs/s a longer list
/// would leave the window too few rounds.
const DAEMON_PAPER_PAIRS: usize = 8;

/// The paper suite: `pairs` (ETC, DAG) members in seeded order, each on
/// Cases A, B and C, |T| = 1024, under a seeded master seed.
fn paper_jobs(rng: &mut Rng, pairs: usize, churn: bool) -> Vec<Job> {
    let master = rng.next();
    let mut ids: Vec<(u64, u64)> = (0..10).flat_map(|e| (0..10).map(move |d| (e, d))).collect();
    rng.shuffle(&mut ids);
    let tau = api::paper_tau(1024);
    let mut jobs = Vec::new();
    for (p, &(etc, dag)) in ids.iter().take(pairs).enumerate() {
        for (c, case) in CASES.iter().enumerate() {
            let mut job = words(&format!(
                "run --tasks 1024 --case {case} --etc {etc} --dag {dag} --seed 0x{master:x} \
                 --heuristic slrh1 --alpha 0.5 --beta 0.25 --label {}",
                jobs.len()
            ));
            if churn {
                job.extend(words(&format!("--lose 0@{} --join 1@{}", tau / 3, tau / 4)));
                if *case == "A" {
                    job.extend(words(&format!("--lose 2@{}", 2 * tau / 3)));
                }
                // Every third job adapts its weights online; the case
                // that does rotates with the pair.
                if (p + c) % 3 == 0 {
                    job.extend(words("--adapt diminishing(0.5) --adapt-every 10"));
                }
            }
            jobs.push(job);
        }
    }
    jobs
}

/// The EXPERIMENTS.md arrival-rate sweep as a load.
fn open_jobs(rng: &mut Rng, seeds_per_cell: usize) -> Vec<Job> {
    let bg_seed = rng.next() & 0xffff;
    let mut jobs = Vec::new();
    for _ in 0..seeds_per_cell {
        for gap in [100, 400, 1600, 6400] {
            for case in CASES {
                jobs.push(words(&format!(
                    "open --case {case} --seed 0x{:x} --jobs 32 --mean-gap {gap} \
                     --tasks-min 16 --tasks-max 64 --bg 300;3;0x{bg_seed:x} --lose 1@4000 \
                     --label {}",
                    rng.next(),
                    jobs.len()
                )));
            }
        }
    }
    jobs
}

/// Small submits: sizes x heuristics x cases, one in eight under a loss.
fn small_jobs(rng: &mut Rng, rounds: usize) -> Vec<Job> {
    let master = rng.next();
    let mut jobs = Vec::new();
    for _ in 0..rounds {
        let mut round = Vec::new();
        for tasks in [32usize, 64, 128] {
            for heuristic in ["slrh1", "slrh3", "maxmax"] {
                for case in CASES {
                    let mut job = words(&format!(
                        "run --tasks {tasks} --case {case} --etc {} --dag {} --seed 0x{master:x} \
                         --heuristic {heuristic} --alpha 0.5 --beta 0.25",
                        rng.below(10),
                        rng.below(10),
                    ));
                    if heuristic != "maxmax" && rng.below(8) == 0 {
                        let at = api::paper_tau(tasks) / 3;
                        job.extend(words(&format!("--lose 1@{at}")));
                    }
                    round.push(job);
                }
            }
        }
        rng.shuffle(&mut round);
        jobs.extend(round);
    }
    for (i, job) in jobs.iter_mut().enumerate() {
        job.extend(words(&format!("--label {i}")));
    }
    jobs
}

/// The job list of `workload` for `seed`. `quick` shrinks every list so
/// the whole benchmark runs in seconds with every check still made.
pub fn job_list(workload: &Workload, seed: u64, quick: bool) -> Vec<Job> {
    // Each list draws from its own stream of the seed; daemon_paper
    // submits the head of paper_suite's list, so its overhead over the
    // in-process path is measured on jobs both workloads run.
    let stream = match workload.name {
        "daemon_paper" => "paper_suite",
        name => name,
    };
    let mut rng = Rng::new(seed ^ crate::util::digest([stream]));
    match workload.name {
        "paper_suite" => paper_jobs(&mut rng, if quick { 4 } else { PAPER_PAIRS }, false),
        "daemon_paper" => paper_jobs(&mut rng, if quick { 2 } else { DAEMON_PAPER_PAIRS }, false),
        "paper_churn" => paper_jobs(&mut rng, if quick { 4 } else { PAPER_PAIRS }, true),
        "scale_16k" => {
            let master = rng.next();
            let count = if quick { 1 } else { 4 };
            (0..count)
                .map(|_| {
                    words(&format!(
                        "scale --tasks 16384 --machines 64 --seed {master} --etc {} --dag {}",
                        rng.below(1000),
                        rng.below(1000)
                    ))
                })
                .collect()
        }
        "open_stream" => open_jobs(&mut rng, if quick { 1 } else { 16 }),
        "campaign_tune" => {
            // A campaign names its suite by size, not by seed; the seed
            // picks the order of its heuristics and cases.
            let mut heuristics = vec!["slrh1", "slrh3", "maxmax"];
            let mut cases = CASES.to_vec();
            rng.shuffle(&mut heuristics);
            rng.shuffle(&mut cases);
            if quick {
                heuristics.truncate(2);
                cases.truncate(1);
            }
            vec![words(&format!(
                "campaign --tasks 32 --etc-count 2 --dag-count 2 --heuristics {} --cases {} \
                 --coarse 0.1 --fine 0.02",
                heuristics.join(","),
                cases.join(",")
            ))]
        }
        "daemon_small" => small_jobs(&mut rng, if quick { 1 } else { 2 }),
        other => unreachable!("no job list for workload {other}"),
    }
}

/// The value following `flag` in a harness-own job (`scale`, `campaign`).
pub fn flag<'a>(job: &'a Job, flag: &str) -> Result<&'a str, String> {
    job.iter()
        .position(|w| w == flag)
        .and_then(|i| job.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("job {job:?} lacks {flag}"))
}

pub fn flag_num<T: std::str::FromStr>(job: &Job, name: &str) -> Result<T, String> {
    let raw = flag(job, name)?;
    raw.parse()
        .map_err(|_| format!("bad value {raw:?} for {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_a_function_of_the_seed() {
        for w in &WORKLOADS {
            let a = job_list(w, 42, false);
            assert_eq!(a, job_list(w, 42, false), "{}", w.name);
            assert_ne!(a, job_list(w, 43, false), "{}", w.name);
            assert!(!a.is_empty());
            assert!(job_list(w, 42, true).len() <= a.len());
        }
    }

    #[test]
    fn daemon_paper_submits_the_head_of_the_paper_suite_list() {
        let suite = job_list(find("paper_suite").unwrap(), 5, false);
        let daemon = job_list(find("daemon_paper").unwrap(), 5, false);
        assert_eq!(daemon.len(), 3 * DAEMON_PAPER_PAIRS);
        assert_eq!(suite[..daemon.len()], daemon[..]);
        // Other lists draw from their own stream of the same seed.
        let churn = job_list(find("paper_churn").unwrap(), 5, false);
        assert_ne!(flag(&suite[0], "--seed"), flag(&churn[0], "--seed"));
    }

    #[test]
    fn paper_lists_interleave_the_cases() {
        let jobs = job_list(find("paper_churn").unwrap(), 9, false);
        assert_eq!(jobs.len(), 3 * PAPER_PAIRS);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(flag(job, "--case").unwrap(), CASES[i % 3]);
            assert_eq!(
                job.iter().filter(|w| *w == "--lose").count(),
                1 + usize::from(i % 3 == 0)
            );
        }
        let adaptive = jobs
            .iter()
            .filter(|j| j.contains(&"--adapt".to_string()))
            .count();
        assert_eq!(adaptive, PAPER_PAIRS);
    }

    #[test]
    fn every_cli_job_parses() {
        for w in &WORKLOADS {
            for job in job_list(w, 1, true) {
                match w.kind {
                    Kind::Map | Kind::Daemon => drop(api::parse_map(&job).unwrap()),
                    Kind::Open => drop(api::parse_open(&job).unwrap()),
                    Kind::Scale => assert_eq!(flag_num::<usize>(&job, "--tasks").unwrap(), 16384),
                    Kind::Campaign => assert!(flag(&job, "--heuristics").is_ok()),
                }
            }
        }
    }

    #[test]
    fn harness_own_flags_parse() {
        let job = words("scale --tasks 16 --seed 255");
        assert_eq!(flag_num::<usize>(&job, "--tasks").unwrap(), 16);
        assert_eq!(flag_num::<u64>(&job, "--seed").unwrap(), 255);
        assert!(flag_num::<u64>(&job, "--etc").is_err());
        assert!(flag_num::<u8>(&words("scale --tasks many"), "--tasks").is_err());
    }
}
