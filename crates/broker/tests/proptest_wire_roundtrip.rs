//! Property tests: every typed wire message round-trips through its
//! frame *and* through the encoded wire text —
//! `from_frame(decode(encode(to_frame(m)))) == m` — over generated
//! message values, not just the unit tests' samples. Floats (the
//! weights inside a config, a campaign's search steps) must survive bit
//! for bit.
//!
//! The same generators pin the allocation-free paths to the typed API:
//! `encode_into` a dirty buffer appends exactly `to_frame().encode()`,
//! and one [`FrameReader`] reused across a stream returns what a fresh
//! [`read_frame`] per frame returns — frames and errors alike, on valid
//! streams and on mutated, truncated, spliced and garbage ones.
//!
//! The daemon feeds these decoders straight from a socket, so a
//! panicking input is a remote crash: on every hostile stream
//! `Frame::decode` and both typed decoders (run on every frame read from
//! it) must return, not unwind. Generated values are ones their owners'
//! checks accept, drawn from the value charset (`#` opens a comment and
//! a newline ends an entry); hostile bytes enter only by mutation.

use adhoc_grid::arrival::{BackgroundParams, JobArrival, JobKind};
use adhoc_grid::config::GridCase;
use adhoc_grid::io::kv::KvError;
use adhoc_grid::io::wire::{read_frame, Frame, FrameReader};
use adhoc_grid::units::{Dur, Time};
use grid_broker::proto::{
    CampaignRequest, CampaignResponse, ErrorResponse, Event, MapRequest, MapResponse, OpenRequest,
    Request, ScenarioSpec, ServerMsg, StatusRequest, StatusResponse,
};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::SearcherKind;
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use proptest::prelude::*;
use slrh::{Adaptation, SlrhConfig, SlrhVariant};

fn cases() -> impl Strategy<Value = GridCase> {
    prop::sample::select(&[GridCase::A, GridCase::B, GridCase::C][..])
}

fn heuristics() -> impl Strategy<Value = Heuristic> {
    prop::sample::select(&Heuristic::ALL[..])
}

/// Names (clients, labels, inline workload lines) over the value charset.
fn names() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    prop::collection::vec(prop::sample::select(CHARSET), 1..16)
        .prop_map(|bytes| String::from_utf8(bytes).expect("ASCII charset"))
}

fn weights() -> impl Strategy<Value = Weights> {
    (0.0f64..=1.0, 0.0f64..=1.0)
        .prop_map(|(a, b)| Weights::new(a, b * (1.0 - a)).expect("on simplex"))
}

fn step_rules() -> impl Strategy<Value = StepRule> {
    (0usize..3, 0.01f64..2.0, 0.0f64..4.0).prop_map(|(tag, a, target)| match tag {
        0 => StepRule::Constant { a },
        1 => StepRule::Diminishing { a },
        _ => StepRule::Polyak {
            target,
            max_step: a,
        },
    })
}

fn adaptations() -> impl Strategy<Value = Option<Adaptation>> {
    (any::<bool>(), step_rules(), 1u64..16)
        .prop_map(|(on, rule, every)| on.then_some(Adaptation { rule, every }))
}

fn configs() -> impl Strategy<Value = SlrhConfig> {
    (
        prop::sample::select(&[SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3][..]),
        weights(),
        (1u64..500, 1u64..2000),
        adaptations(),
    )
        .prop_map(|(variant, w, (dt, h), adaptation)| {
            let mut cfg = SlrhConfig::paper(variant, w);
            cfg.dt = Dur(dt);
            cfg.horizon = Dur(h);
            cfg.adaptation = adaptation;
            cfg
        })
}

fn churn() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..8, 1u64..100_000), 0..4)
}

fn scenario_specs() -> impl Strategy<Value = ScenarioSpec> {
    (
        0usize..4,
        (1usize..2000, cases(), 0usize..10, 0usize..10),
        (
            (any::<bool>(), 0u64..u64::MAX),
            (any::<bool>(), 1u64..1_000_000),
        ),
        prop::collection::vec(names(), 1..6),
    )
        .prop_map(
            |(tag, (tasks, case, etc, dag), ((with_seed, seed), (with_tau, tau)), lines)| {
                if tag == 0 {
                    // An inline workload: a raw block of 1–5 lines.
                    return ScenarioSpec::Inline(lines.iter().map(|l| format!("{l}\n")).collect());
                }
                ScenarioSpec::Generate {
                    tasks,
                    case,
                    etc,
                    dag,
                    seed: with_seed.then_some(seed),
                    tau: with_tau.then_some(tau),
                }
            },
        )
}

fn map_requests() -> impl Strategy<Value = MapRequest> {
    (
        (names(), names(), heuristics(), configs(), scenario_specs()),
        (churn(), churn()),
    )
        .prop_map(
            |((client, label, heuristic, config, scenario), (losses, arrivals))| MapRequest {
                client,
                label,
                heuristic,
                config,
                scenario,
                losses,
                arrivals,
            },
        )
}

fn campaign_requests() -> impl Strategy<Value = CampaignRequest> {
    (
        (names(), 1usize..5000, 1usize..11, 1usize..11),
        (
            prop::collection::vec(heuristics(), 1..4),
            prop::collection::vec(cases(), 1..4),
            0.01f64..0.5,
            0.01f64..0.5,
            (
                any::<bool>(),
                prop::sample::select(&["/tmp/cp.txt", "sweep.ckpt", "runs/a-b_c.d"][..]),
            ),
        ),
    )
        .prop_map(
            |(
                (client, tasks, etc_count, dag_count),
                (heuristics, cases, coarse, fine, (with_cp, cp)),
            )| CampaignRequest {
                client,
                label: "sweep".into(),
                tasks,
                etc_count,
                dag_count,
                heuristics,
                cases,
                coarse,
                fine,
                searcher: SearcherKind::Grid,
                checkpoint: with_cp.then(|| cp.to_string()),
            },
        )
}

fn events() -> impl Strategy<Value = Event> {
    (
        (0usize..7, 1u64..1_000_000),
        (
            (0u64..1_000_000, 1u64..100_000, 0usize..10_000, 0u64..100),
            // Absent from the frame, small, and the widest there is.
            prop::sample::select(&[0, 0, 1, 22, u64::MAX][..]),
        ),
        (0usize..100, 1usize..100, heuristics(), cases(), 0.0f64..1e6),
    )
        .prop_map(
            |((tag, job), ((clock, tick, mapped, commits), idle), (index, extra, h, c, t100))| {
                match tag {
                    0 => Event::Queued { job },
                    1 => Event::Started { job },
                    2 => Event::Tick {
                        job,
                        clock,
                        tick,
                        mapped,
                        commits,
                        idle,
                    },
                    3 => Event::Disruption {
                        job,
                        at: clock,
                        invalidated: mapped,
                    },
                    4 => Event::Unit {
                        job,
                        index,
                        total: index + extra,
                        // A realistic canonical row as the payload.
                        row: format!("{h}|{c}|t100={t100:?}|ub_frac=0.5|feasible=2/2"),
                    },
                    5 => Event::Job {
                        job,
                        id: tick,
                        mapped: mapped.min(extra),
                        tasks: extra,
                        hit: commits % 2 == 0,
                        cost: t100,
                    },
                    _ => Event::Done { job },
                }
            },
        )
}

fn reports() -> impl Strategy<Value = String> {
    prop::sample::select(
        &[
            "",
            "lrh-grid report v1\nmapped=2/2\n",
            "SLRH-1|Case A|t100=25.0|ub_frac=0.78125|feasible=2/2\n",
            "line one\nline two\nline three\n",
        ][..],
    )
    .prop_map(str::to_string)
}

fn open_requests() -> impl Strategy<Value = OpenRequest> {
    (
        (names(), configs(), cases(), any::<u64>()),
        prop::collection::vec(
            (
                1u64..5_000,
                any::<bool>(),
                1usize..64,
                1u64..1_000_000,
                (any::<bool>(), 1.0f64..1e6),
            ),
            1..5,
        ),
        (any::<bool>(), 1u64..1_000_000, 0u8..7, any::<u64>()),
        (churn(), churn()),
    )
        .prop_map(
            |(
                (client, config, case, seed),
                gaps,
                (loaded, max_offset, util, bg_seed),
                (losses, arrivals),
            )| {
                let mut at = 0;
                let jobs = gaps
                    .into_iter()
                    .enumerate()
                    .map(|(id, (gap, dag, tasks, deadline, (capped, budget)))| {
                        at += gap;
                        JobArrival {
                            id: id as u64,
                            at: Time(at),
                            kind: if dag { JobKind::Dag } else { JobKind::Bag },
                            tasks,
                            deadline: Dur(deadline),
                            budget: capped.then_some(budget),
                        }
                    })
                    .collect();
                OpenRequest {
                    client,
                    label: "stream".into(),
                    config,
                    case,
                    seed,
                    jobs,
                    // Inert (omitted on the wire) or visibly loaded.
                    bg: if loaded {
                        BackgroundParams {
                            max_offset,
                            max_util_eighths: util,
                            seed: bg_seed,
                        }
                    } else {
                        BackgroundParams::none()
                    },
                    losses,
                    arrivals,
                }
            },
        )
}

/// Every request variant.
fn requests() -> impl Strategy<Value = Request> {
    (
        0usize..5,
        map_requests(),
        campaign_requests(),
        open_requests(),
    )
        .prop_map(|(tag, map, campaign, open)| match tag {
            0 => Request::Map(map),
            1 => Request::Campaign(campaign),
            2 => Request::Open(open),
            3 => Request::Status(StatusRequest),
            _ => Request::Shutdown,
        })
}

/// Every server message variant (and, through `events`, every event).
fn server_msgs() -> impl Strategy<Value = ServerMsg> {
    (
        0usize..9,
        events(),
        (1u64..1_000_000, 0usize..100, reports()),
        (0usize..100, 0usize..8, 0u64..10_000),
        (
            any::<bool>(),
            prop::sample::select(&["bad integer \"x\"", "two\nlines", "# not a comment", ""][..]),
        ),
    )
        .prop_map(
            |(
                tag,
                event,
                (job, resumed, report),
                (queued, running, completed),
                (with_job, message),
            )| {
                match tag {
                    // Events are most of what a daemon sends.
                    0..=3 => ServerMsg::Event(event),
                    4 => ServerMsg::Map(MapResponse { job, report }),
                    5 => ServerMsg::Campaign(CampaignResponse {
                        job,
                        resumed,
                        report,
                    }),
                    6 => ServerMsg::Status(StatusResponse {
                        queued,
                        running,
                        completed,
                        workers: running.max(1),
                    }),
                    7 => ServerMsg::Error(ErrorResponse {
                        job: with_job.then_some(job),
                        message: message.to_string(),
                    }),
                    _ => ServerMsg::Ok,
                }
            },
        )
}

/// What a stream yields: its frames in order, then how it ended.
type Transcript = (Vec<Frame>, Option<KvError>);

/// Read `bytes` to the end (or the first error) with one reused reader.
fn read_reusing(bytes: &[u8]) -> Transcript {
    let mut input = bytes;
    let mut frames = FrameReader::new();
    let mut seen = Vec::new();
    loop {
        match frames.read(&mut input) {
            Ok(Some(frame)) => seen.push(frame.clone()),
            Ok(None) => return (seen, None),
            Err(e) => return (seen, Some(e)),
        }
    }
}

/// The same with a fresh `read_frame` per frame.
fn read_fresh(bytes: &[u8]) -> Transcript {
    let mut input = bytes;
    let mut seen = Vec::new();
    loop {
        match read_frame(&mut input) {
            Ok(Some(frame)) => seen.push(frame),
            Ok(None) => return (seen, None),
            Err(e) => return (seen, Some(e)),
        }
    }
}

/// One edit of a wire stream, as a hostile or dying peer would make it.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate,
    Replace(u8),
    Insert(Vec<u8>),
    DeleteLine,
    DuplicateLine,
    /// Swap the chosen line with the line at this index (modulo the line
    /// count): entries out of order, a header displaced.
    SwapLines(usize),
    /// Append a prefix of the stream to itself.
    Splice,
}

/// Bytes a mutation injects: protocol syntax (`=`, `@`, `#`, spaces,
/// digits) over-represented so mutants stay near-valid, and 0xff (never
/// valid UTF-8).
const HOSTILE: &[u8] = b"=@# 0123456789abcXYZz|/\\\"'\t\n~\x7f\xff";

fn mutations() -> impl Strategy<Value = (Mutation, usize)> {
    (
        0usize..7,
        prop::sample::select(HOSTILE),
        prop::collection::vec(prop::sample::select(HOSTILE), 1..12),
        0usize..1 << 16,
        0usize..1 << 16,
    )
        .prop_map(|(tag, byte, run, at, other)| {
            let mutation = match tag {
                0 => Mutation::Truncate,
                1 => Mutation::Replace(byte),
                2 => Mutation::Insert(run),
                3 => Mutation::DeleteLine,
                4 => Mutation::DuplicateLine,
                5 => Mutation::SwapLines(other),
                _ => Mutation::Splice,
            };
            (mutation, at)
        })
}

/// Apply `mutation` at a position derived from `at`.
fn mutate(stream: &[u8], mutation: &Mutation, at: usize) -> Vec<u8> {
    let mut out = stream.to_vec();
    let pos = at % (stream.len() + 1);
    match mutation {
        Mutation::Truncate => out.truncate(pos),
        Mutation::Replace(b) => {
            if let Some(slot) = out.get_mut(pos) {
                *slot = *b;
            }
        }
        Mutation::Insert(run) => {
            out.splice(pos..pos, run.iter().copied());
        }
        Mutation::DeleteLine | Mutation::DuplicateLine | Mutation::SwapLines(_) => {
            let mut lines: Vec<&[u8]> = stream.split_inclusive(|&b| b == b'\n').collect();
            let n = lines.len();
            if n > 0 {
                let i = at % n;
                match mutation {
                    Mutation::DeleteLine => {
                        lines.remove(i);
                    }
                    Mutation::DuplicateLine => lines.insert(i, lines[i]),
                    Mutation::SwapLines(other) => lines.swap(i, other % n),
                    _ => unreachable!("not a line edit"),
                }
            }
            out = lines.concat();
        }
        Mutation::Splice => out.extend_from_slice(&stream[..pos]),
    }
    out
}

/// Every decoder the daemon runs on socket bytes, run on `bytes`: the
/// whole-text and streaming frame readers, then both typed decoders on
/// every frame they return. Each must return rather than panic, and the
/// reused reader must yield what a fresh one per frame yields: the same
/// frames, then the same error (line and message) or the same clean end.
fn decode_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let whole = Frame::decode(&String::from_utf8_lossy(bytes));
    let fresh = read_fresh(bytes);
    for frame in whole.iter().chain(&fresh.0) {
        let _ = Request::from_frame(frame);
        let _ = ServerMsg::from_frame(frame);
    }
    prop_assert_eq!(read_reusing(bytes), fresh);
    Ok(())
}

/// Round-trip helper: typed → frame → text → frame → typed.
fn wire_round_trip<T, F>(msg: &T, from_frame: F, frame: Frame) -> T
where
    F: Fn(&Frame) -> Result<T, adhoc_grid::io::kv::KvError>,
    T: std::fmt::Debug,
{
    let text = frame.encode();
    let decoded =
        Frame::decode(&text).unwrap_or_else(|e| panic!("frame for {msg:?} does not re-parse: {e}"));
    assert_eq!(decoded.encode(), text, "encode is not a fixpoint");
    from_frame(&decoded).unwrap_or_else(|e| panic!("typed decode of {msg:?} failed: {e}"))
}

proptest! {
    #[test]
    fn map_requests_round_trip(req in map_requests()) {
        let back = wire_round_trip(&req, MapRequest::from_frame, req.to_frame());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn campaign_requests_round_trip(req in campaign_requests()) {
        let back = wire_round_trip(&req, CampaignRequest::from_frame, req.to_frame());
        // Float fields must survive bit for bit.
        prop_assert_eq!(back.coarse.to_bits(), req.coarse.to_bits());
        prop_assert_eq!(back.fine.to_bits(), req.fine.to_bits());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn events_round_trip(event in events()) {
        let back = wire_round_trip(&event, Event::from_frame, event.to_frame());
        prop_assert_eq!(back, event);
    }

    #[test]
    fn responses_round_trip(
        job in 1u64..1_000_000,
        resumed in 0usize..100,
        report in reports(),
        queued in 0usize..100,
        running in 0usize..8,
        completed in 0u64..10_000,
    ) {
        let map = MapResponse { job, report: report.clone() };
        prop_assert_eq!(wire_round_trip(&map, MapResponse::from_frame, map.to_frame()), map.clone());

        let campaign = CampaignResponse { job, resumed, report };
        prop_assert_eq!(
            wire_round_trip(&campaign, CampaignResponse::from_frame, campaign.to_frame()),
            campaign.clone()
        );

        let status = StatusResponse { queued, running, completed, workers: running.max(1) };
        prop_assert_eq!(
            wire_round_trip(&status, StatusResponse::from_frame, status.to_frame()),
            status
        );
    }

    #[test]
    fn errors_round_trip(
        with_job in any::<bool>(),
        job in 1u64..1_000_000,
        message in prop::sample::select(
            &["bad integer \"x\"", "cannot lose every machine", "line 3: tasks: bad value"][..]
        ),
    ) {
        let err = ErrorResponse { job: with_job.then_some(job), message: message.to_string() };
        prop_assert_eq!(
            wire_round_trip(&err, ErrorResponse::from_frame, err.to_frame()),
            err.clone()
        );
    }

    #[test]
    fn request_envelope_dispatches(req in requests()) {
        let back = wire_round_trip(&req, Request::from_frame, req.to_frame());
        prop_assert_eq!(back, req);
    }

    #[test]
    fn server_envelope_dispatches(msg in server_msgs()) {
        let back = wire_round_trip(&msg, ServerMsg::from_frame, msg.to_frame());
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn requests_encode_into_a_dirty_buffer_as_their_frame_encodes(
        req in requests(),
        before in reports(),
    ) {
        let mut buf = before.clone();
        req.encode_into(&mut buf);
        prop_assert_eq!(buf, before + &req.to_frame().encode());
    }

    #[test]
    fn server_msgs_encode_into_a_dirty_buffer_as_their_frame_encodes(
        msgs in prop::collection::vec(server_msgs(), 1..6),
        before in reports(),
    ) {
        // One buffer across messages, as a connection reuses it.
        let mut buf = before.clone();
        let mut expected = before;
        for msg in &msgs {
            msg.encode_into(&mut buf);
            expected.push_str(&msg.to_frame().encode());
        }
        prop_assert_eq!(buf, expected);
    }

    #[test]
    fn reused_reader_matches_read_frame_on_valid_streams(
        msgs in prop::collection::vec(server_msgs(), 0..8),
        req in requests(),
        commented in any::<bool>(),
    ) {
        let mut stream = String::new();
        req.encode_into(&mut stream);
        for msg in &msgs {
            if commented {
                stream.push_str("\n# between frames\n");
            }
            msg.encode_into(&mut stream);
        }
        let (frames, end) = read_reusing(stream.as_bytes());
        prop_assert_eq!(end.clone(), None);
        prop_assert_eq!(frames.len(), msgs.len() + 1);
        // Storage reused from earlier frames never leaks into later ones.
        prop_assert_eq!(Request::from_frame(&frames[0]).unwrap(), req);
        for (frame, msg) in frames[1..].iter().zip(&msgs) {
            prop_assert_eq!(&ServerMsg::from_frame(frame).unwrap(), msg);
        }
        prop_assert_eq!((frames, end), read_fresh(stream.as_bytes()));
    }

    #[test]
    fn reused_reader_matches_read_frame_on_hostile_streams(
        msgs in prop::collection::vec(server_msgs(), 1..6),
        req in requests(),
        edits in prop::collection::vec(mutations(), 1..4),
    ) {
        let mut stream = String::new();
        for msg in &msgs {
            msg.encode_into(&mut stream);
        }
        req.encode_into(&mut stream);
        let mut bytes = stream.into_bytes();
        for (mutation, at) in &edits {
            bytes = mutate(&bytes, mutation, *at);
        }
        decode_hostile(&bytes)?;
    }

    #[test]
    fn garbage_never_panics_a_decoder(
        lines in prop::collection::vec(
            prop::collection::vec(prop::sample::select(HOSTILE), 0..40),
            0..13,
        ),
        headed in any::<bool>(),
    ) {
        // Half the garbage opens with a real header to reach deeper code.
        let mut bytes = if headed { b"lrh-grid-wire v1 map-request\n".to_vec() } else { Vec::new() };
        for line in &lines {
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
        }
        decode_hostile(&bytes)?;
    }
}

/// `idle` is an optional key of the `tick` event (DESIGN.md §14,
/// versioning rule 2): written only when non-zero, so a tick without
/// idle predecessors encodes as it did before the key existed, and read
/// as 0 when absent, so such a frame still decodes.
#[test]
fn a_ticks_idle_key_is_written_only_when_non_zero_and_read_as_zero_when_absent() {
    let before_the_key =
        "lrh-grid-wire v1 event\njob=7\nevent=tick\nclock=170\ntick=17\nmapped=5\ncommits=1\nend\n";
    for idle in [0, 16, u64::MAX] {
        let msg = ServerMsg::Event(Event::Tick {
            job: 7,
            clock: 170,
            tick: 17,
            mapped: 5,
            commits: 1,
            idle,
        });
        let text = match idle {
            0 => before_the_key.to_string(),
            n => before_the_key.replace("end\n", &format!("idle={n}\nend\n")),
        };
        assert_eq!(msg.to_frame().encode(), text);
        let mut buf = String::from("# dirty\n");
        msg.encode_into(&mut buf);
        assert_eq!(buf, format!("# dirty\n{text}"));
        assert_eq!(
            ServerMsg::from_frame(&Frame::decode(&text).unwrap()).unwrap(),
            msg
        );
    }
}
