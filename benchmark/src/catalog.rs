//! Every metric the benchmark reports, by name, and the writer of the
//! root `BENCHMARK.json` (which is generated from this file, never
//! edited by hand: `benchmark manifest > BENCHMARK.json`).

use crate::util::{json_num, json_str};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 12;

/// The seed the recorded baseline was measured on, and the held-out
/// seed no workload was tuned against.
pub const DEFAULT_SEED: u64 = 20040426;
pub const HELD_OUT_SEED: u64 = 977;

use Better::{Higher, Lower};

#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "jobs_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "job_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.15 },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // Demoted from end-to-end: each is zero, absent or seed-dependent on
    // some workload, which an end-to-end metric may not be (README).
    layer("job_p95_ms", "ms", Lower, "tail of job_p50_ms; reported where the window has >= 200 operations, else 0"),
    layer("job_samples", "count", Higher, "operations behind job_p50_ms / job_p95_ms"),
    layer("cpu_ms_per_job", "ms", Lower, "process user+system CPU / operations over the window; differs from 1/jobs_per_s on campaign_tune and the daemon workloads"),
    layer("fail_rate", "1", Lower, "failed / attempted; must stay 0 on every workload"),
    layer("t100_frac", "1", Higher, "simulated quality, exact per seed: must not move on a performance change"),
    layer("deadline_hit_rate", "1", Higher, "simulated quality, exact per seed; admission control should move it on open_stream"),
    layer("cli.parse_us", "us", Lower, "job_p50_ms on daemon_small (expected < 1 %)"),
    layer("grid.generate_ms", "ms", Lower, "job_p50_ms on open_stream and daemon_small; setup_s on scale_16k"),
    layer("grid.generate_share", "1", Lower, "largest in-process share of sub-millisecond jobs: job_p50_ms on daemon_small"),
    layer("grid.wire_encode_us", "us", Lower, "job_p50_ms on daemon_small; jobs_per_s on daemon_paper"),
    layer("grid.wire_decode_us", "us", Lower, "job_p50_ms on daemon_small; jobs_per_s on daemon_paper"),
    layer("grid.wire_frames_per_job", "count", Lower, "exact; jobs_per_s on daemon_paper"),
    layer("grid.wire_bytes_per_job", "count", Lower, "frame bytes of request and events plus the report; moves a few bytes with the daemon's job counter; jobs_per_s on daemon_paper"),
    layer("sim.validate_ms", "ms", Lower, "job_p50_ms on scale_16k and paper_suite"),
    layer("sim.validate_share", "1", Lower, "job_p50_ms on scale_16k and paper_suite"),
    layer("lagrange.objective_ns", "ns", Lower, "times slrh.candidates_per_job bounds its share of job_p50_ms on paper_suite"),
    layer("lagrange.weight_updates_per_job", "count", Lower, "exact; cpu_ms_per_job on paper_churn"),
    layer("slrh.map_ms", "ms", Lower, "job_p50_ms on paper_suite, paper_churn, scale_16k; jobs_per_s on campaign_tune"),
    layer("slrh.map_share", "1", Lower, "share of an in-process job inside the driver: job_p50_ms on paper_suite"),
    layer("slrh.clock_steps_per_job", "count", Lower, "exact; job_p50_ms on paper_suite, events on daemon_paper"),
    layer("slrh.commits_per_job", "count", Higher, "exact; useful outcomes of the scan"),
    layer("slrh.candidates_per_job", "count", Lower, "exact; job_p50_ms on paper_suite and scale_16k"),
    layer("slrh.candidates_per_commit", "1", Lower, "waste ratio of the candidate scan: cpu_ms_per_job on paper_suite"),
    layer("slrh.us_per_tick", "us", Lower, "job_p50_ms on paper_suite"),
    layer("slrh.us_per_commit", "us", Lower, "job_p50_ms on paper_suite and scale_16k"),
    layer("slrh.disruptions_per_job", "count", Lower, "exact; paper_churn only"),
    layer("slrh.invalidated_per_job", "count", Lower, "exact; job_p50_ms on paper_churn"),
    layer("slrh.open_us_per_stream_job", "us", Lower, "job_p50_ms on open_stream"),
    layer("baselines.maxmax_ms", "ms", Lower, "jobs_per_s on campaign_tune"),
    layer("bounds.upper_bound_ms", "ms", Lower, "jobs_per_s on campaign_tune"),
    layer("sweep.search_ms", "ms", Lower, "jobs_per_s and cpu_ms_per_job on campaign_tune"),
    layer("sweep.evals_per_search", "count", Lower, "exact; jobs_per_s on campaign_tune"),
    layer("sweep.ms_per_eval", "ms", Lower, "jobs_per_s on campaign_tune"),
    layer("sweep.parallel_speedup", "1", Higher, "one campaign's wall time on 1 rayon thread / on the default count; campaign_tune is gated on 1 thread"),
    layer("broker.execute_ms", "ms", Lower, "in-process reference for the daemon workloads' job_p50_ms"),
    layer("broker.render_ms", "ms", Lower, "execute - generate - map - validate: job_p50_ms on paper_suite (expected small)"),
    layer("broker.proto_roundtrip_us", "us", Lower, "job_p50_ms on daemon_small"),
    layer("broker.queue_op_ns", "ns", Lower, "job_p50_ms on daemon_small"),
    layer("broker.checkpoint_record_ms", "ms", Lower, "jobs_per_s on campaign_tune (fsync per cell)"),
    layer("broker.submit_to_queued_ms", "ms", Lower, "job_p50_ms on daemon_small"),
    layer("broker.queue_wait_ms", "ms", Lower, "job_p50_ms on daemon_small (Queued to Started)"),
    layer("broker.service_ms", "ms", Lower, "jobs_per_s on daemon_paper (Started to Done, event streaming included)"),
    layer("broker.reply_ms", "ms", Lower, "job_p50_ms on daemon_small (Done to response read)"),
    layer("broker.overhead_ms", "ms", Lower, "daemon p50 - in-process p50 of the same list: job_p50_ms on daemon_small and daemon_paper"),
    layer("broker.events_per_job", "count", Lower, "exact; jobs_per_s on daemon_paper"),
    layer("broker.us_per_event", "us", Lower, "jobs_per_s on daemon_paper"),
    layer("host.calib_ms", "ms", Lower, "a fixed arithmetic spin; flags a noisy neighbour, moves nothing"),
    layer("host.calib_drift_frac", "1", Lower, "spin after / spin before - 1; above 0.2 the run is flagged noisy"),
    layer("trace_overhead_frac", "1", Lower, "traced mean time per operation / untraced (1 / jobs_per_s per caller) - 1"),
    layer("trace_coverage_frac", "1", Higher, "share of traced job time that layer spans account for (>= 0.9 expected)"),
];

/// The root `BENCHMARK.json`, exactly the keys the driver reads.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let join = |rows: Vec<String>| rows.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&join(
        WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.word()),
                    json_num(m.bound)
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&join(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.word())
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_stays_inside_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} has no moves entry", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn setup_time_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_with_bad_characters_are_caught() {
        assert!(name_ok("slrh.map_ms") && name_ok("9lives"));
        assert!(!name_ok(".hidden") && !name_ok("a b") && !name_ok("") && !name_ok("a/b"));
        assert!(unit_ok("1/s") && unit_ok("%") && !unit_ok("per second") && !unit_ok(""));
    }
}
