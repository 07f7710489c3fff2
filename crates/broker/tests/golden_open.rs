//! Golden fixtures for the open-system mode and the DBC heuristic
//! family, plus the daemon byte-identity end-to-end case.
//!
//! * `golden/open_report.txt` — one fixed open-system request (three
//!   jobs, a budget, a live background model, a mid-run machine loss)
//!   through [`execute_open`]: the full report plus every emitted event
//!   frame, byte-identical under 1- and 4-thread rayon pools.
//! * `golden/dbc_report.txt` — one fixed DBC-cost mapping request
//!   through [`execute_map`], same 1-vs-4-thread discipline.
//! * the e2e case: `submit`ting the open request to a live daemon
//!   returns byte-for-byte the report the one-shot CLI path
//!   ([`execute_open`] on a fresh context) prints.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p grid-broker --test
//! golden_open` — only for a deliberate report or protocol change, and
//! say so in the commit.

use std::path::PathBuf;

use adhoc_grid::arrival::{BackgroundParams, JobArrival, JobKind};
use adhoc_grid::config::GridCase;
use adhoc_grid::units::{Dur, Time};
use grid_broker::proto::{Event, MapRequest, OpenRequest, ScenarioSpec};
use grid_broker::server::{serve, BrokerConfig};
use grid_broker::{execute_map, execute_open, Connection};
use grid_sweep::heuristic::Heuristic;
use lagrange::weights::Weights;
use rayon::ThreadPool;
use slrh::{RunContext, SlrhConfig, SlrhVariant};

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
        "{name}: output differs from the blessed reference"
    );
}

fn open_request() -> OpenRequest {
    OpenRequest {
        client: "golden".into(),
        label: "open-session".into(),
        config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
        case: GridCase::A,
        seed: 0x5EED_09E4,
        jobs: vec![
            JobArrival {
                id: 0,
                at: Time(0),
                kind: JobKind::Dag,
                tasks: 10,
                deadline: Dur(200_000),
                budget: None,
            },
            JobArrival {
                id: 1,
                at: Time(900),
                kind: JobKind::Bag,
                tasks: 6,
                deadline: Dur(150_000),
                budget: Some(9_000.0),
            },
            JobArrival {
                id: 2,
                at: Time(2_500),
                kind: JobKind::Dag,
                tasks: 8,
                deadline: Dur(180_000),
                budget: Some(0.25),
            },
        ],
        bg: BackgroundParams {
            max_offset: 300,
            max_util_eighths: 3,
            seed: 0xB61D,
        },
        losses: vec![(2, 1_500)],
        arrivals: vec![],
    }
}

/// Run an open request through the one-shot path and serialize the
/// report plus every event frame (re-encoded — frame encoding is a
/// fixpoint, so this is byte-identical to the wire).
fn record(req: &OpenRequest) -> String {
    let mut recording = String::new();
    let mut ctx = RunContext::new();
    let resp = execute_open(1, req, &mut ctx, &mut |event| {
        recording.push_str(&event.to_frame().encode());
    })
    .expect("open run");
    recording.push_str(&resp.report);
    recording
}

fn record_open() -> String {
    record(&open_request())
}

#[test]
fn open_report_matches_fixture_at_1_and_4_threads() {
    let one = pool(1).install(record_open);
    let four = pool(4).install(record_open);
    assert_eq!(one, four, "thread count changed the open-report bytes");
    assert_golden("open_report.txt", &one);
}

fn dbc_request() -> MapRequest {
    MapRequest {
        client: "golden".into(),
        label: "dbc-session".into(),
        heuristic: Heuristic::DbcCost,
        config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
        scenario: ScenarioSpec::Generate {
            tasks: 16,
            case: GridCase::A,
            etc: 0,
            dag: 0,
            seed: None,
            tau: None,
        },
        losses: vec![],
        arrivals: vec![],
    }
}

#[test]
fn dbc_report_matches_fixture_at_1_and_4_threads() {
    let record = || {
        let mut ctx = RunContext::new();
        execute_map(1, &dbc_request(), &mut ctx, &mut |_| {})
            .expect("dbc run")
            .report
    };
    let one = pool(1).install(record);
    let four = pool(4).install(record);
    assert_eq!(one, four, "thread count changed the DBC report bytes");
    assert_golden("dbc_report.txt", &one);
}

/// The clustered kernel is gone and its config keys are retired: an
/// open request recorded with `clusters=2` is no longer refused, it
/// runs the one kernel and reports what the plain request reports.
#[test]
fn open_requests_naming_the_retired_clustered_kernel_run_the_exact_one() {
    let mut req = open_request();
    req.config = format!("{}; frontier=on; clusters=2; spill=8", req.config)
        .parse()
        .expect("retired keys parse");
    assert_golden("open_report.txt", &record(&req));
}

/// Submitting the open request to a live daemon returns byte-for-byte
/// the report the one-shot CLI path prints, and the daemon's job events
/// match the local emission except for the daemon-assigned job id.
#[test]
fn daemon_open_submission_matches_one_shot_execution() {
    let local = {
        let mut ctx = RunContext::new();
        execute_open(0, &open_request(), &mut ctx, &mut |_| {})
            .expect("local run")
            .report
    };

    let daemon = serve(&BrokerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
    })
    .expect("bind");
    let mut events: Vec<Event> = Vec::new();
    let resp = {
        let mut conn = Connection::connect(daemon.addr()).expect("connect");
        let resp = conn
            .submit_open(&open_request(), |e| events.push(e.clone()))
            .expect("submit");
        conn.shutdown().expect("shutdown");
        resp
    };
    daemon.join();

    assert_eq!(resp.report, local, "daemon and one-shot reports diverge");
    // One Event::Job per job in the trace, in scheduling order.
    let ids: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::Job { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert_eq!(ids, vec![0, 1, 2]);
    assert!(
        events.iter().any(|e| matches!(e, Event::Disruption { .. })),
        "the machine loss emitted no disruption event"
    );
}
