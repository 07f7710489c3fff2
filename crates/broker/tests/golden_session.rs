//! Golden fixture of a recorded submit → events → result session.
//!
//! One fixed [`MapRequest`] is submitted to a live daemon and every
//! frame the client receives is recorded (re-encoded — frame encoding
//! is a fixpoint, so this is byte-identical to the wire). The recording
//! must match the committed fixture under a 1-slot daemon **and**
//! under a 4-slot daemon: event payloads carry no thread identities
//! or wall-clock readings, so daemon parallelism must not move a byte.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p grid-broker --test
//! golden_session` — only for a deliberate protocol or report change,
//! and say so in the commit.
//!
//! `session_per_tick.txt` is the same session as daemons before the
//! `idle` key streamed it, one frame per clock tick. It is never
//! re-blessed: it must keep decoding, and folding its commit-free ticks
//! by the rule on [`Event::Tick`] must give `session.txt` byte for byte.

use std::path::PathBuf;

use adhoc_grid::config::GridCase;
use adhoc_grid::io::wire::FrameReader;
use grid_broker::proto::{Event, MapRequest, ScenarioSpec, ServerMsg};
use grid_broker::server::{serve, BrokerConfig};
use grid_broker::Connection;
use grid_sweep::heuristic::Heuristic;
use lagrange::weights::Weights;
use slrh::{SlrhConfig, SlrhVariant};

fn request() -> MapRequest {
    MapRequest {
        client: "golden".into(),
        label: "session".into(),
        heuristic: Heuristic::Slrh1,
        config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
        scenario: ScenarioSpec::Generate {
            tasks: 16,
            case: GridCase::A,
            etc: 0,
            dag: 0,
            seed: None,
            tau: None,
        },
        losses: vec![(1, 400)],
        arrivals: vec![],
    }
}

/// Run the session against a fresh daemon with `workers` slots and
/// return the concatenated frames the client received.
fn record_session(workers: usize) -> String {
    let daemon = serve(&BrokerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
    })
    .expect("bind");
    let mut recording = String::new();
    {
        let mut conn = Connection::connect(daemon.addr()).expect("connect");
        let resp = conn
            .submit_map(&request(), |event| {
                recording.push_str(&event.to_frame().encode());
            })
            .expect("submit");
        recording.push_str(&resp.to_frame().encode());
        conn.shutdown().expect("shutdown");
    }
    daemon.join();
    recording
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read_golden(name: &str) -> String {
    let path = golden(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path:?} ({e}); run with GOLDEN_BLESS=1"))
}

#[test]
fn session_matches_fixture_at_1_and_4_workers() {
    let one = record_session(1);
    let four = record_session(4);
    assert_eq!(one, four, "slot count changed the session byte stream");

    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(golden("session.txt"), &one).unwrap();
        return;
    }
    assert_eq!(
        one,
        read_golden("session.txt"),
        "recorded session diverged from tests/golden/session.txt"
    );
}

#[test]
fn the_per_tick_recording_still_decodes_and_folds_to_the_fixture() {
    let recording = read_golden("session_per_tick.txt");
    let mut input = recording.as_bytes();
    let mut frames = FrameReader::new();
    let mut folded = String::new();
    // Commit-free ticks since the last frame written, and the latest of
    // them: it closes the run if no committing tick follows.
    let mut idle = 0;
    let mut closing = None;
    let mut ticks = 0;
    while let Some(frame) = frames.read(&mut input).expect("a well-formed frame") {
        let msg = match ServerMsg::from_frame(frame).expect("a current server message") {
            ServerMsg::Event(Event::Tick {
                job,
                clock,
                tick,
                mapped,
                commits,
                idle: recorded,
            }) => {
                assert_eq!(recorded, 0, "a per-tick recording has no idle key");
                ticks += 1;
                let msg = ServerMsg::Event(Event::Tick {
                    job,
                    clock,
                    tick,
                    mapped,
                    commits,
                    idle,
                });
                if commits == 0 {
                    idle += 1;
                    closing = Some(msg);
                    continue;
                }
                idle = 0;
                closing = None;
                msg
            }
            msg => msg,
        };
        if let Some(closing) = closing.take() {
            folded.push_str(&closing.to_frame().encode());
        }
        folded.push_str(&msg.to_frame().encode());
    }
    assert!(
        ticks > 500,
        "{ticks} tick frames is not the per-tick recording"
    );
    assert!(closing.is_none(), "the recording ends with its response");
    assert_eq!(
        folded,
        read_golden("session.txt"),
        "folding tests/golden/session_per_tick.txt does not give tests/golden/session.txt"
    );
}
