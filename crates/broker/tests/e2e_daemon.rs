//! End-to-end daemon tests: concurrent submissions, byte-identity with
//! local execution, event-stream well-formedness, checkpointed campaign
//! resume across daemon restarts, status counters, graceful shutdown
//! (a reply in flight is delivered in full), and the byte stream a
//! client reads being exactly the typed encoding of the job's messages.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use adhoc_grid::arrival::{BackgroundParams, JobArrival, JobKind};
use adhoc_grid::config::GridCase;
use adhoc_grid::units::{Dur, Time, MAX_INPUT_TASKS};
use grid_broker::proto::{CampaignRequest, Event, MapRequest, OpenRequest, ScenarioSpec};
use grid_broker::server::{serve, BrokerConfig, BrokerHandle};
use grid_broker::{execute_campaign, execute_map, Connection};
use grid_sweep::heuristic::Heuristic;
use lagrange::weights::Weights;
use slrh::{RunContext, SlrhConfig, SlrhVariant};

fn daemon(workers: usize) -> BrokerHandle {
    serve(&BrokerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
    })
    .expect("bind daemon")
}

fn map_request(client: &str, heuristic: Heuristic, tasks: usize, seed: u64) -> MapRequest {
    let config = match heuristic {
        Heuristic::Slrh2 => SlrhConfig::paper(SlrhVariant::V2, Weights::new(0.4, 0.4).unwrap()),
        Heuristic::Slrh3 => SlrhConfig::paper(SlrhVariant::V3, Weights::new(0.4, 0.4).unwrap()),
        _ => SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
    };
    MapRequest {
        client: client.into(),
        label: format!("{client}-job"),
        heuristic,
        config,
        scenario: ScenarioSpec::Generate {
            tasks,
            case: GridCase::A,
            etc: 0,
            dag: 0,
            seed: Some(seed),
            tau: None,
        },
        losses: vec![],
        arrivals: vec![],
    }
}

/// Run a request through `execute_map` locally, discarding events.
fn local_report(req: &MapRequest) -> String {
    let mut ctx = RunContext::new();
    execute_map(0, req, &mut ctx, &mut |_| {})
        .expect("local run")
        .report
}

/// The value of a `key=<integer>` line of a report.
fn report_count(report: &str, key: &str) -> u64 {
    report
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key} line in {report}"))
        .parse()
        .expect("an integer")
}

/// Assert a submission's event stream is well-formed: Queued first,
/// Started second, Done last, ticks in between with monotone clock and
/// non-decreasing mapped count, and every event tagged with `job` — and
/// that the tick frames account for the job's own `report`: each stands
/// for itself and its `idle` predecessors, only the last may be
/// commit-free, and together they cover every clock step and commit.
fn check_stream(events: &[Event], job: u64, report: &str) {
    assert!(events.len() >= 3, "stream too short: {events:?}");
    assert!(matches!(events[0], Event::Queued { .. }), "{events:?}");
    assert!(matches!(events[1], Event::Started { .. }), "{events:?}");
    assert!(
        matches!(events.last(), Some(Event::Done { .. })),
        "{events:?}"
    );
    for e in events {
        assert_eq!(e.job(), job, "event for the wrong job: {e:?}");
    }
    let ticks: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Tick {
                clock,
                mapped,
                commits,
                idle,
                ..
            } => Some((*clock, *mapped, *commits, *idle)),
            _ => None,
        })
        .collect();
    for pair in ticks.windows(2) {
        let ((clock, mapped, commits, _), (next_clock, next_mapped, ..)) = (pair[0], pair[1]);
        assert!(clock < next_clock, "clock went backwards: {ticks:?}");
        assert!(mapped <= next_mapped, "mapped count shrank: {ticks:?}");
        assert!(commits > 0, "a commit-free tick before the last: {ticks:?}");
    }
    let commits = report_count(report, "commits");
    assert_eq!(
        ticks.iter().map(|&(.., idle)| 1 + idle).sum::<u64>(),
        report_count(report, "clock-steps"),
        "tick frames and their idle counts do not cover the clock: {ticks:?}"
    );
    assert_eq!(
        ticks.iter().map(|&(_, _, commits, _)| commits).sum::<u64>(),
        commits,
        "{ticks:?}"
    );
    assert!(
        ticks.len() as u64 <= commits + 1,
        "{} tick frames for {commits} commits",
        ticks.len()
    );
}

#[test]
fn concurrent_submissions_match_local_execution() {
    let daemon = daemon(2);
    let addr = daemon.addr();

    let jobs = [
        ("alice", Heuristic::Slrh1, 16, 7u64),
        ("bob", Heuristic::Slrh3, 24, 11u64),
        ("carol", Heuristic::MaxMax, 32, 13u64),
    ];

    let handles: Vec<_> = jobs
        .iter()
        .map(|&(client, h, tasks, seed)| {
            std::thread::spawn(move || {
                let req = map_request(client, h, tasks, seed);
                let mut events = Vec::new();
                let mut conn = Connection::connect(addr).expect("connect");
                let resp = conn
                    .submit_map(&req, |e| events.push(e.clone()))
                    .expect("submit");
                (req, events, resp)
            })
        })
        .collect();

    for handle in handles {
        let (req, events, resp) = handle.join().expect("client thread");
        check_stream(&events, resp.job, &resp.report);
        // The daemon's report must be byte-identical to a local
        // one-shot run of the same request.
        assert_eq!(
            resp.report,
            local_report(&req),
            "daemon report diverged from local run for {}",
            req.client
        );
    }

    // All three jobs were admitted under distinct ids and completed.
    let mut conn = Connection::connect(addr).expect("connect");
    let status = conn.status().expect("status");
    assert_eq!(status.completed, 3);
    assert_eq!(status.queued, 0);
    assert_eq!(status.running, 0);
    assert_eq!(status.workers, 2);

    conn.shutdown().expect("shutdown");
    daemon.join();
}

/// Three clients on one execution slot: each waits its turn, none runs
/// beside another, and every report is the local one. A campaign's
/// `started` frame leaves as its job takes the slot, so the k-th job to
/// start must find k - 1 jobs completed.
#[test]
fn one_slot_serves_concurrent_clients_one_job_at_a_time() {
    let daemon = daemon(1);
    let addr = daemon.addr();
    let clients: Vec<_> = [("dora", 10), ("eve", 12), ("finn", 14)]
        .into_iter()
        .map(|(client, tasks)| {
            std::thread::spawn(move || {
                let req = CampaignRequest {
                    client: client.into(),
                    label: format!("{client}-batch"),
                    tasks,
                    checkpoint: None,
                    ..campaign_request("")
                };
                let mut status = Connection::connect(addr).expect("connect");
                let mut completed_at_start = None;
                let mut conn = Connection::connect(addr).expect("connect");
                let resp = conn
                    .submit_campaign(&req, |e| {
                        if let Event::Started { .. } = e {
                            completed_at_start = Some(status.status().expect("status").completed);
                        }
                    })
                    .expect("submit");
                let local = execute_campaign(0, &req, &mut |_| {}).expect("local run");
                assert_eq!(resp.report, local.report, "{client}");
                completed_at_start.expect("a started frame")
            })
        })
        .collect();
    let mut completed_at_start: Vec<u64> = clients
        .into_iter()
        .map(|client| client.join().expect("client thread"))
        .collect();
    completed_at_start.sort_unstable();
    for (k, completed) in completed_at_start.into_iter().enumerate() {
        assert!(
            completed >= k as u64,
            "job {} started beside another",
            k + 1
        );
    }

    let mut conn = Connection::connect(addr).expect("connect");
    let status = conn.status().expect("status");
    assert_eq!((status.completed, status.queued, status.running), (3, 0, 0));
    conn.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn one_connection_can_submit_sequential_jobs() {
    let daemon = daemon(1);
    let mut conn = Connection::connect(daemon.addr()).expect("connect");
    let mut job_ids = Vec::new();
    for seed in [1u64, 2, 3] {
        let req = map_request("serial", Heuristic::Slrh1, 12, seed);
        let mut events = Vec::new();
        let resp = conn
            .submit_map(&req, |e| events.push(e.clone()))
            .expect("submit");
        check_stream(&events, resp.job, &resp.report);
        assert_eq!(resp.report, local_report(&req));
        job_ids.push(resp.job);
    }
    assert_eq!(job_ids, vec![1, 2, 3], "job ids must be sequential");
    conn.shutdown().expect("shutdown");
    daemon.join();
}

#[test]
fn invalid_requests_are_rejected_without_killing_the_connection() {
    let daemon = daemon(1);
    let mut conn = Connection::connect(daemon.addr()).expect("connect");

    // Config names V2 but the heuristic is SLRH-1.
    let mut bad = map_request("probe", Heuristic::Slrh1, 8, 1);
    bad.config = SlrhConfig::paper(SlrhVariant::V2, Weights::new(0.4, 0.4).unwrap());
    let err = conn.submit_map(&bad, |_| {}).expect_err("must be rejected");
    assert!(err.contains("config names"), "{err}");

    // Churn events on a baseline heuristic.
    let mut bad = map_request("probe", Heuristic::MaxMax, 8, 1);
    bad.losses = vec![(0, 50)];
    let err = conn.submit_map(&bad, |_| {}).expect_err("must be rejected");
    assert!(err.contains("SLRH"), "{err}");

    // The connection survives and still serves valid work.
    let good = map_request("probe", Heuristic::Slrh1, 8, 1);
    let resp = conn.submit_map(&good, |_| {}).expect("valid submit");
    assert_eq!(resp.report, local_report(&good));

    conn.shutdown().expect("shutdown");
    daemon.join();
}

fn campaign_request(checkpoint: &str) -> CampaignRequest {
    CampaignRequest {
        client: "batch".into(),
        label: "resume-test".into(),
        tasks: 12,
        etc_count: 2,
        dag_count: 1,
        heuristics: vec![Heuristic::Slrh1, Heuristic::MaxMax],
        cases: vec![GridCase::A],
        coarse: 0.25,
        fine: 0.05,
        searcher: grid_sweep::SearcherKind::Grid,
        checkpoint: Some(checkpoint.into()),
    }
}

/// Well-formed frames that used to panic the thread executing them —
/// search steps out of order (`assert!` in the weight search), clock
/// values whose checked sums overflow (`Time overflow`) — and, before
/// the daemon had `catch_unwind`, took its only worker thread with them.
/// Each gets an error frame, and the slot still serves afterwards.
#[test]
fn requests_that_used_to_panic_the_worker_get_error_frames() {
    within_a_minute(bad_requests_then_an_ordinary_job);
}

/// Run `body` against a one-slot daemon. A client of a daemon that lost
/// its only slot waits forever; fail with a sentence instead of hanging
/// the suite.
fn within_a_minute(body: fn()) {
    let (done, finished) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if finished.recv_timeout(Duration::from_secs(60)) == Err(RecvTimeoutError::Timeout) {
        panic!("no answer within a minute: the daemon's only slot is gone");
    }
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

fn bad_requests_then_an_ordinary_job() {
    let daemon = daemon(1);
    let mut conn = Connection::connect(daemon.addr()).expect("connect");

    let mut steps = campaign_request("unused");
    steps.checkpoint = None;
    (steps.coarse, steps.fine) = (0.1, 0.2);
    let err = conn
        .submit_campaign(&steps, |_| {})
        .expect_err("disordered steps");
    assert!(err.contains("fine <= coarse"), "{err}");

    // `now + ΔT` past τ = u64::MAX: refused when the config string is decoded.
    let mut clock = map_request("probe", Heuristic::Slrh1, 64, 1);
    clock.config.dt = Dur(1 << 63);
    let ScenarioSpec::Generate { tau, .. } = &mut clock.scenario else {
        unreachable!()
    };
    *tau = Some(u64::MAX);
    let err = conn
        .submit_map(&clock, |_| {})
        .expect_err("ΔT past the cap");
    assert!(err.contains("at most 4611686018427387904 ticks"), "{err}");
    // τ alone decodes and is refused by the job building the scenario.
    clock.config.dt = Dur(10);
    let err = conn.submit_map(&clock, |_| {}).expect_err("τ past the cap");
    assert!(err.contains("tau must be at most"), "{err}");

    // `arrival + deadline` overflows: refused by the job's open check.
    let open = OpenRequest {
        client: "probe".into(),
        label: "open".into(),
        config: clock.config,
        case: GridCase::A,
        seed: 1,
        jobs: vec![JobArrival {
            id: 1,
            at: Time(1 << 63),
            kind: JobKind::Dag,
            tasks: 4,
            deadline: Dur(u64::MAX),
            budget: None,
        }],
        bg: BackgroundParams::none(),
        losses: vec![],
        arrivals: vec![],
    };
    let err = conn
        .submit_open(&open, |_| {})
        .expect_err("arrival + deadline overflows");
    assert!(err.contains("job 1 arrives or is due past"), "{err}");

    // The one slot survived all four and serves an ordinary job.
    let good = map_request("probe", Heuristic::Slrh1, 8, 1);
    let resp = conn.submit_map(&good, |_| {}).expect("valid submit");
    assert_eq!(resp.report, local_report(&good));

    conn.shutdown().expect("shutdown");
    daemon.join();
}

/// A task count past `MAX_INPUT_TASKS` would have the job size
/// gigabytes before it ran, and a failed allocation aborts the whole
/// daemon — no `catch_unwind` answers it. Every request that carries a
/// task count gets an error frame naming the limit instead, and the next
/// client's job on the one slot still completes.
#[test]
fn task_counts_past_the_cap_get_error_frames_and_the_next_client_is_served() {
    within_a_minute(over_cap_requests_then_another_clients_job);
}

fn over_cap_requests_then_another_clients_job() {
    let daemon = daemon(1);
    let past = MAX_INPUT_TASKS + 1;
    let refusal = format!("tasks must be at most {MAX_INPUT_TASKS}");
    let mut conn = Connection::connect(daemon.addr()).expect("connect");

    let mut map = map_request("greedy", Heuristic::Slrh1, past, 1);
    let err = conn
        .submit_map(&map, |_| {})
        .expect_err("generated scenario past the cap");
    assert!(err.contains(&refusal), "{err}");
    let header = format!("lrh-grid-scenario v1\ncase A\ntau 100\netc 0 {past} 4\n");
    map.scenario = ScenarioSpec::Inline(header);
    let err = conn
        .submit_map(&map, |_| {})
        .expect_err("inline scenario past the cap");
    assert!(err.contains(&refusal), "{err}");

    let mut campaign = campaign_request("unused");
    campaign.checkpoint = None;
    campaign.tasks = past;
    let err = conn
        .submit_campaign(&campaign, |_| {})
        .expect_err("campaign past the cap");
    assert!(err.contains(&refusal), "{err}");

    let open = OpenRequest {
        client: "greedy".into(),
        label: "open".into(),
        config: map.config,
        case: GridCase::A,
        seed: 1,
        jobs: vec![JobArrival {
            id: 1,
            at: Time(0),
            kind: JobKind::Bag,
            tasks: past,
            deadline: Dur(1000),
            budget: None,
        }],
        bg: BackgroundParams::none(),
        losses: vec![],
        arrivals: vec![],
    };
    let err = conn
        .submit_open(&open, |_| {})
        .expect_err("open job past the cap");
    assert!(err.contains(&refusal), "{err}");

    let mut next = Connection::connect(daemon.addr()).expect("connect");
    let good = map_request("next", Heuristic::Slrh1, 8, 1);
    let resp = next.submit_map(&good, |_| {}).expect("valid submit");
    assert_eq!(resp.report, local_report(&good));

    next.shutdown().expect("shutdown");
    daemon.join();
}

/// A frame past `MAX_FRAME_BYTES` — here one raw block of 1 MiB lines,
/// each line and the block's line count under their own caps — would
/// have the daemon buffer it whole. It gets an error frame instead, the
/// connection is dropped, and the next client on the one slot is
/// served.
#[test]
fn an_oversized_frame_gets_an_error_frame_and_the_next_client_is_served() {
    within_a_minute(oversized_frame_then_another_clients_job);
}

fn oversized_frame_then_another_clients_job() {
    use adhoc_grid::io::wire::{read_frame, MAX_FRAME_BYTES, MAX_LINE_BYTES};
    use std::io::Write;

    let daemon = daemon(1);
    let stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    // The header lines push the frame past the cap on the last line
    // sent, so the daemon has read every byte when it hangs up. (The
    // block announces one line more than arrives.)
    let line = format!("{}\n", "v".repeat(MAX_LINE_BYTES - 1));
    let lines = MAX_FRAME_BYTES / line.len();
    let head = format!("lrh-grid-wire v1 map-request\nraw scenario {}\n", lines + 1);
    writer.write_all(head.as_bytes()).expect("send");
    for _ in 0..lines {
        writer.write_all(line.as_bytes()).expect("send");
    }
    let reply = read_frame(&mut reader).expect("read").expect("a reply");
    assert_eq!(reply.kind, "error");
    let message = reply.raw("message").expect("message block");
    assert!(message.contains("frame exceeds size cap"), "{message}");
    assert_eq!(read_frame(&mut reader).expect("a clean close"), None);

    let mut next = Connection::connect(daemon.addr()).expect("connect");
    let good = map_request("next", Heuristic::Slrh1, 8, 1);
    let resp = next.submit_map(&good, |_| {}).expect("valid submit");
    assert_eq!(resp.report, local_report(&good));

    next.shutdown().expect("shutdown");
    daemon.join();
}

fn temp_checkpoint(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("lrh-e2e-{}-{name}.ckpt", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn restarted_daemon_resumes_checkpointed_campaign() {
    let path = temp_checkpoint("restart");
    let _ = std::fs::remove_file(&path);
    let req = campaign_request(&path);

    // First daemon runs the whole campaign, checkpointing each unit.
    let first = daemon(1);
    let mut unit_events = Vec::new();
    let report_a = {
        let mut conn = Connection::connect(first.addr()).expect("connect");
        let resp = conn
            .submit_campaign(&req, |e| {
                if let Event::Unit { index, .. } = e {
                    unit_events.push(*index);
                }
            })
            .expect("first campaign");
        assert_eq!(resp.resumed, 0);
        conn.shutdown().expect("shutdown");
        resp.report
    };
    first.join();
    assert_eq!(unit_events, vec![0, 1], "both units must stream");

    // "Restart": a fresh daemon process given the same request and
    // checkpoint must resume past every recorded unit — re-running
    // nothing — and reproduce the report byte-for-byte.
    let second = daemon(1);
    let mut re_ran = Vec::new();
    let report_b = {
        let mut conn = Connection::connect(second.addr()).expect("connect");
        let resp = conn
            .submit_campaign(&req, |e| {
                if let Event::Unit { index, .. } = e {
                    re_ran.push(*index);
                }
            })
            .expect("resumed campaign");
        assert_eq!(resp.resumed, 2, "both units restore from checkpoint");
        conn.shutdown().expect("shutdown");
        resp.report
    };
    second.join();
    assert!(re_ran.is_empty(), "resume re-ran units {re_ran:?}");
    assert_eq!(report_a, report_b, "resumed report diverged");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_skips_sentinel_rows_without_executing_them() {
    // Pre-fill the checkpoint with a fabricated row for unit 0. The
    // daemon must take it at face value — proof that recorded units are
    // never re-executed — and only run unit 1.
    let path = temp_checkpoint("sentinel");
    let _ = std::fs::remove_file(&path);
    let req = campaign_request(&path);
    let sentinel = "SLRH-1|Case A|t100=123456.0|ub_frac=0.25|feasible=1/2";
    std::fs::write(
        &path,
        format!(
            "lrh-grid-checkpoint v1\ncampaign={}\nrow={sentinel}\n",
            req.fingerprint()
        ),
    )
    .unwrap();

    let daemon = daemon(1);
    let mut ran = Vec::new();
    let mut conn = Connection::connect(daemon.addr()).expect("connect");
    let resp = conn
        .submit_campaign(&req, |e| {
            if let Event::Unit { index, .. } = e {
                ran.push(*index);
            }
        })
        .expect("campaign");
    conn.shutdown().expect("shutdown");
    daemon.join();

    assert_eq!(resp.resumed, 1);
    assert_eq!(ran, vec![1], "only the unrecorded unit may execute");
    let first_line = resp.report.lines().next().unwrap();
    assert_eq!(
        first_line, sentinel,
        "restored row must appear verbatim in the report"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mismatched_checkpoint_is_refused() {
    let path = temp_checkpoint("mismatch");
    let _ = std::fs::remove_file(&path);
    std::fs::write(
        &path,
        "lrh-grid-checkpoint v1\ncampaign=some other campaign\n",
    )
    .unwrap();

    let daemon = daemon(1);
    let mut conn = Connection::connect(daemon.addr()).expect("connect");
    let err = conn
        .submit_campaign(&campaign_request(&path), |_| {})
        .expect_err("must refuse");
    assert!(err.contains("different campaign"), "{err}");
    conn.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shutdown_refuses_new_work_but_drains_accepted_jobs() {
    let daemon = Arc::new(daemon(1));
    let addr = daemon.addr();

    // Occupy the single slot with a job, then shut down while it runs.
    let runner = std::thread::spawn(move || {
        let req = map_request("drain", Heuristic::Slrh1, 48, 3);
        let mut conn = Connection::connect(addr).expect("connect");
        conn.submit_map(&req, |_| {})
            .expect("accepted job completes")
    });

    // Wait until the job is actually running.
    let mut conn = Connection::connect(addr).expect("connect");
    loop {
        let status = conn.status().expect("status");
        if status.running > 0 || status.completed > 0 {
            break;
        }
        std::thread::yield_now();
    }
    conn.shutdown().expect("shutdown");

    // The in-flight job still finishes with a well-formed report.
    let resp = runner.join().expect("runner thread");
    assert!(resp.report.starts_with("lrh-grid report v1\n"));

    // New submissions are refused once the daemon is stopping.
    let req = map_request("late", Heuristic::Slrh1, 8, 1);
    // A connect error means the listener is already gone — also a
    // valid refusal.
    if let Ok(mut late) = Connection::connect(addr) {
        match late.submit_map(&req, |_| {}) {
            Ok(_) => panic!("daemon accepted work after shutdown"),
            Err(err) => assert!(
                err.contains("shutting down") || err.contains("closed") || err.contains("daemon"),
                "{err}"
            ),
        }
    }

    match Arc::try_unwrap(daemon) {
        Ok(d) => d.join(),
        Err(_) => unreachable!("runner thread has exited"),
    }
}

/// What the daemon writes for a job is, byte for byte, the typed
/// encoding of `queued`, `started`, the events the job emits
/// in-process, `done` and the response — however the server batches and
/// flushes them.
#[test]
fn raw_reply_bytes_are_the_typed_encoding_of_the_jobs_messages() {
    use grid_broker::proto::{Request, ServerMsg, StatusRequest};
    use std::io::{Read, Write};

    let mut req = map_request("raw", Heuristic::Slrh1, 48, 5);
    req.losses = vec![(1, 400)]; // a disruption event among the ticks

    // The first job of a fresh daemon is job 1.
    let mut expected = Event::Queued { job: 1 }.to_frame().encode();
    expected.push_str(&Event::Started { job: 1 }.to_frame().encode());
    let response = execute_map(1, &req, &mut RunContext::new(), &mut |event| {
        expected.push_str(&event.to_frame().encode())
    })
    .expect("local run");
    expected.push_str(&Event::Done { job: 1 }.to_frame().encode());
    expected.push_str(&ServerMsg::Map(response).to_frame().encode());
    assert!(expected.contains("event=tick") && expected.contains("event=disruption"));

    let daemon = daemon(1);
    let mut stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .write_all(Request::Map(req).to_frame().encode().as_bytes())
        .expect("send");
    let mut got = vec![0u8; expected.len()];
    stream.read_exact(&mut got).expect("the whole reply");
    assert_eq!(String::from_utf8(got).expect("wire text"), expected);

    // Nothing trails the response: the next bytes answer the next request.
    stream
        .write_all(
            Request::Status(StatusRequest)
                .to_frame()
                .encode()
                .as_bytes(),
        )
        .expect("send");
    let mut reader = std::io::BufReader::new(stream);
    let frame = adhoc_grid::io::wire::read_frame(&mut reader)
        .expect("read")
        .expect("status reply");
    assert_eq!(frame.kind, "status-response");

    daemon.shutdown();
    daemon.join();
}

/// The adaptation bounds and the warm start are retired. A config line
/// the daemon used to accept names them; the daemon refuses any value
/// but the two constants with an error frame naming the knob, keeps the
/// connection, and runs the legacy `; amin=0.05; lmax=8.0` line as the
/// same job a bare adaptive line is.
#[test]
fn retired_adaptation_keys_get_error_frames_on_a_live_connection() {
    use grid_broker::proto::Request;
    use std::io::Write;

    let mut req = map_request("retired", Heuristic::Slrh1, 24, 3);
    req.config = req.config.with_adaptation(slrh::Adaptation {
        rule: lagrange::step::StepRule::Diminishing { a: 0.5 },
        every: 10,
    });
    let frame = Request::Map(req.clone()).to_frame().encode();
    let config_line = format!("config={}\n", req.config);
    assert!(frame.contains(&config_line), "{frame}");
    let with_tail =
        |tail: &str| frame.replace(&config_line, &format!("config={}; {tail}\n", req.config));

    let daemon = daemon(1);
    let stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let mut answer = |text: &str| {
        writer.write_all(text.as_bytes()).expect("send");
        loop {
            let frame = adhoc_grid::io::wire::read_frame(&mut reader)
                .expect("read")
                .expect("a reply");
            if frame.kind != "event" {
                return frame;
            }
        }
    };
    for (tail, names) in [
        ("amin=0.1", "amin=0.1 is retired"),
        ("lmax=4", "lmax=4 is retired"),
        ("warm=(0.4, 0.2)", "put the starting weights in w= instead"),
    ] {
        let reply = answer(&with_tail(tail));
        assert_eq!(reply.kind, "error", "{tail}");
        let message = reply.raw("message").expect("message block");
        assert!(message.contains(names), "{tail}: {message}");
    }
    let reply = answer(&with_tail("amin=0.05; lmax=8.0"));
    assert_eq!(reply.kind, "map-response");
    assert_eq!(
        reply.raw("report").expect("report block"),
        local_report(&req)
    );

    daemon.shutdown();
    daemon.join();
}

/// OLB, Min-Min and HEFT are retired. A map request naming one gets an
/// error frame naming the retirement, and the same connection then
/// runs the next job.
#[test]
fn retired_heuristics_get_error_frames_on_a_live_connection() {
    use grid_broker::proto::Request;
    use std::io::Write;

    let req = map_request("retired", Heuristic::Greedy, 24, 3);
    let frame = Request::Map(req.clone()).to_frame().encode();
    assert!(frame.contains("heuristic=greedy\n"), "{frame}");

    let daemon = daemon(1);
    let stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let mut answer = |text: &str| {
        writer.write_all(text.as_bytes()).expect("send");
        loop {
            let frame = adhoc_grid::io::wire::read_frame(&mut reader)
                .expect("read")
                .expect("a reply");
            if frame.kind != "event" {
                return frame;
            }
        }
    };
    for (retired, name) in [
        ("heft", "HEFT"),
        ("minmin", "Min-Min"),
        ("olb", "OLB"),
        ("dbctime", "DBC-Time"),
    ] {
        let reply = answer(&frame.replace("heuristic=greedy\n", &format!("heuristic={retired}\n")));
        assert_eq!(reply.kind, "error", "{retired}");
        let message = reply.raw("message").expect("message block");
        assert!(
            message.contains(&format!("{name} was retired")),
            "{retired}: {message}"
        );
    }
    let reply = answer(&frame);
    assert_eq!(reply.kind, "map-response");
    assert_eq!(
        reply.raw("report").expect("report block"),
        local_report(&req)
    );

    daemon.shutdown();
    daemon.join();
}

/// The event trigger, the non-numerical visit orders and the
/// primary-only gate are retired. A map request whose `config=` names
/// one gets an error frame naming the retirement, and the same
/// connection then runs the next job.
#[test]
fn retired_knobs_get_error_frames_on_a_live_connection() {
    use grid_broker::proto::Request;
    use std::io::Write;

    let req = map_request("retired", Heuristic::Slrh1, 24, 3);
    let frame = Request::Map(req.clone()).to_frame().encode();
    assert!(
        frame.contains("; trigger=clock; order=numerical; ") && frame.contains("; secondary=on"),
        "{frame}"
    );

    let daemon = daemon(1);
    let stream = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    let mut answer = |text: &str| {
        writer.write_all(text.as_bytes()).expect("send");
        loop {
            let frame = adhoc_grid::io::wire::read_frame(&mut reader)
                .expect("read")
                .expect("a reply");
            if frame.kind != "event" {
                return frame;
            }
        }
    };
    for (paper, retired) in [
        ("trigger=clock", "trigger=machine-available"),
        ("order=numerical", "order=reversed"),
        ("order=numerical", "order=rotating"),
        ("secondary=on", "secondary=off"),
    ] {
        let reply = answer(&frame.replace(paper, retired));
        assert_eq!(reply.kind, "error", "{retired}");
        let message = reply.raw("message").expect("message block");
        assert!(
            message.contains(&format!("{retired} is retired")),
            "{retired}: {message}"
        );
    }
    let reply = answer(&frame);
    assert_eq!(reply.kind, "map-response");
    assert_eq!(
        reply.raw("report").expect("report block"),
        local_report(&req)
    );

    daemon.shutdown();
    daemon.join();
}

/// A shutdown that arrives while a paper-scale job is streaming its
/// events (one per committing tick, about a thousand) drains it: the
/// client gets every event and the same report a local run renders.
/// (That `join` also outlasts the last write is only observable from
/// another process; `scripts/broker_smoke.sh` pins it through the real
/// binary.)
#[test]
fn shutdown_during_a_paper_scale_job_delivers_the_whole_stream() {
    let daemon = daemon(1);
    let addr = daemon.addr();
    let req = map_request("paper", Heuristic::Slrh1, 1024, 9);

    let runner = {
        let req = req.clone();
        std::thread::spawn(move || {
            let mut events = Vec::new();
            let mut conn = Connection::connect(addr).expect("connect");
            let resp = conn
                .submit_map(&req, |e| events.push(e.clone()))
                .expect("accepted job completes");
            (events, resp)
        })
    };

    let mut conn = Connection::connect(addr).expect("connect");
    while conn.status().expect("status").running == 0 {
        std::thread::yield_now();
    }
    conn.shutdown().expect("shutdown");

    let mut local_events = 0usize;
    let local = execute_map(0, &req, &mut RunContext::new(), &mut |_| local_events += 1)
        .expect("local run");

    let (events, resp) = runner.join().expect("runner thread");
    check_stream(&events, resp.job, &resp.report);
    assert!(
        local_events > 500,
        "{local_events} events is not paper scale"
    );
    assert_eq!(
        events.len(),
        local_events + 3,
        "queued + started + ticks + done"
    );
    assert_eq!(resp.report, local.report);
    daemon.join();
}

#[test]
fn disconnecting_client_does_not_kill_the_job() {
    let daemon = daemon(1);
    let addr = daemon.addr();
    let path = temp_checkpoint("disconnect");
    let _ = std::fs::remove_file(&path);
    let req = campaign_request(&path);

    // Submit, read the queued event, then drop the connection.
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                grid_broker::proto::Request::Campaign(req.clone())
                    .to_frame()
                    .encode()
                    .as_bytes(),
            )
            .expect("send");
        stream.flush().expect("flush");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let frame = adhoc_grid::io::wire::read_frame(&mut reader)
            .expect("read")
            .expect("queued event");
        assert_eq!(frame.kind, "event");
        // Dropping the stream here abandons the job mid-flight.
    }

    // The daemon must finish the campaign anyway: poll the checkpoint
    // until both units are recorded.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let recorded = std::fs::read_to_string(&path)
            .map(|t| t.lines().filter(|l| l.starts_with("row=")).count())
            .unwrap_or(0);
        if recorded == 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned campaign never completed (recorded {recorded}/2 rows)"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let mut conn = Connection::connect(addr).expect("connect");
    conn.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_file(&path).unwrap();
}
