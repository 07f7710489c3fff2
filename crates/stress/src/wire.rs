//! Wire-protocol fuzz oracles for the broker's message layer.
//!
//! From a `u64` seed, deterministically generate a batch of typed wire
//! messages ([`grid_broker::proto`]) plus a swarm of mutants of their
//! encodings, and check two oracles:
//!
//! * **fixpoint oracle** — for every generated message,
//!   `encode(decode(encode(m))) == encode(m)` and the typed decode
//!   returns a value equal to `m`. This is the property the daemon's
//!   byte-identity guarantee rides on: a frame that re-encodes
//!   differently would make recorded sessions diverge from live ones.
//!   Server messages are also written through the reply path's
//!   `encode_into`, which must give the same bytes.
//! * **no-panic oracle** — mutated, truncated and garbage inputs fed to
//!   [`Frame::decode`], the streaming [`read_frame`] reader, and the
//!   typed decoders must return `Ok` or `Err`, never panic. The daemon
//!   feeds these decoders straight from a socket, so any panicking
//!   input is a remote crash.
//! * **reuse oracle** — on the same inputs, one [`FrameReader`] reused
//!   across the stream (what the daemon and the client hold per
//!   connection) must yield what a fresh [`read_frame`] per frame
//!   yields: the same frames, then the same error or the same clean
//!   end. Storage carried from one frame to the next must never show.
//!
//! Values are drawn from the protocol's value charset (`#` opens a
//! comment and a newline ends an entry, so neither can appear inside a
//! key=value field); the mutation stage is where hostile bytes enter.

use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};

use adhoc_grid::arrival::{BackgroundParams, JobArrival, JobKind};
use adhoc_grid::config::GridCase;
use adhoc_grid::io::wire::{read_frame, Frame, FrameReader};
use adhoc_grid::seed;
use adhoc_grid::units::{Dur, Time};
use grid_broker::proto::{
    CampaignRequest, CampaignResponse, ErrorResponse, Event, MapRequest, MapResponse, OpenRequest,
    Request, ScenarioSpec, ServerMsg, StatusRequest, StatusResponse,
};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::SearcherKind;
use lagrange::step::StepRule;
use lagrange::weights::Weights;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slrh::{SlrhConfig, SlrhVariant};

/// Seed-stream tag for the wire fuzzer (distinct from the churn
/// campaign's [`crate::gen::STREAM_FUZZ`]).
pub const STREAM_WIRE: u64 = 0xF023;

/// Messages generated per seed.
const MESSAGES_PER_SEED: usize = 12;
/// Mutants derived from each message's encoding.
const MUTANTS_PER_MESSAGE: usize = 8;
/// Pure-garbage inputs per seed.
const GARBAGE_PER_SEED: usize = 8;

/// The outcome of one wire-fuzz seed.
#[derive(Debug)]
pub struct WireReport {
    /// The fuzz seed.
    pub seed: u64,
    /// Typed messages round-tripped.
    pub messages: usize,
    /// Mutated/garbage inputs decoded.
    pub mutants: usize,
    /// Oracle failures (empty on success).
    pub failures: Vec<String>,
}

impl WireReport {
    /// True when every oracle held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the wire oracles for one seed.
pub fn fuzz_wire(wire_seed: u64) -> WireReport {
    let mut rng = StdRng::seed_from_u64(seed::derive2(seed::MASTER_SEED, STREAM_WIRE, wire_seed));
    let mut report = WireReport {
        seed: wire_seed,
        messages: 0,
        mutants: 0,
        failures: Vec::new(),
    };

    let mut encodings: Vec<String> = Vec::new();
    for _ in 0..MESSAGES_PER_SEED {
        let (name, text) = round_trip_one(&mut rng, &mut report.failures);
        report.messages += 1;
        encodings.push(text.unwrap_or_else(|| format!("lrh-grid-wire v1 {name}\nend\n")));
    }

    for text in &encodings {
        for _ in 0..MUTANTS_PER_MESSAGE {
            let mutant = mutate(&mut rng, text);
            decode_must_not_panic(&mutant, &mut report.failures);
            report.mutants += 1;
        }
    }
    for _ in 0..GARBAGE_PER_SEED {
        let garbage = gen_garbage(&mut rng);
        decode_must_not_panic(&garbage, &mut report.failures);
        report.mutants += 1;
    }

    report
}

/// Generate one typed message, check the fixpoint oracle, and return
/// its kind name and (on success) its encoding.
fn round_trip_one(rng: &mut StdRng, failures: &mut Vec<String>) -> (&'static str, Option<String>) {
    // Dispatch over every message family the protocol defines.
    match rng.gen_range(0usize..9) {
        0 => {
            let msg = Request::Map(gen_map_request(rng));
            ("map-request", check(&msg, Request::from_frame, msg.to_frame(), failures))
        }
        1 => {
            let msg = Request::Campaign(gen_campaign_request(rng));
            ("campaign-request", check(&msg, Request::from_frame, msg.to_frame(), failures))
        }
        2 => {
            let msg = Request::Status(StatusRequest);
            ("status-request", check(&msg, Request::from_frame, msg.to_frame(), failures))
        }
        3 => {
            let msg = ServerMsg::Event(gen_event(rng));
            ("event", check_server(&msg, failures))
        }
        4 => {
            let msg = ServerMsg::Map(MapResponse {
                job: rng.gen_range(1u64..1 << 40),
                report: gen_report(rng),
            });
            ("map-response", check_server(&msg, failures))
        }
        5 => {
            let msg = ServerMsg::Campaign(CampaignResponse {
                job: rng.gen_range(1u64..1 << 40),
                resumed: rng.gen_range(0usize..64),
                report: gen_report(rng),
            });
            ("campaign-response", check_server(&msg, failures))
        }
        6 => {
            let msg = ServerMsg::Status(StatusResponse {
                queued: rng.gen_range(0usize..1000),
                running: rng.gen_range(0usize..16),
                completed: rng.gen_range(0u64..1 << 32),
                workers: rng.gen_range(1usize..16),
            });
            ("status-response", check_server(&msg, failures))
        }
        7 => {
            let msg = Request::Open(gen_open_request(rng));
            ("open-request", check(&msg, Request::from_frame, msg.to_frame(), failures))
        }
        _ => {
            let msg = ServerMsg::Error(ErrorResponse {
                job: rng.gen_range(0u64..4).checked_sub(1).map(|j| j + 1),
                message: gen_name(rng),
            });
            ("error", check_server(&msg, failures))
        }
    }
}

/// The fixpoint oracle for one message.
fn check<T, F>(msg: &T, from_frame: F, frame: Frame, failures: &mut Vec<String>) -> Option<String>
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&Frame) -> Result<T, adhoc_grid::io::kv::KvError>,
{
    let text = frame.encode();
    let decoded = match Frame::decode(&text) {
        Ok(frame) => frame,
        Err(e) => {
            failures.push(format!("encoding of {msg:?} does not re-parse: {e}"));
            return None;
        }
    };
    if decoded.encode() != text {
        failures.push(format!("encode is not a fixpoint for {msg:?}"));
        return None;
    }
    match from_frame(&decoded) {
        Ok(back) if &back == msg => Some(text),
        Ok(back) => {
            failures.push(format!("round trip changed the message: {msg:?} -> {back:?}"));
            None
        }
        Err(e) => {
            failures.push(format!("typed decode of {msg:?} failed: {e}"));
            None
        }
    }
}

/// [`check`] for a server message, plus the reply path's own encoder:
/// `encode_into` must write what `to_frame().encode()` does — for a
/// tick, with and without its optional `idle` key.
fn check_server(msg: &ServerMsg, failures: &mut Vec<String>) -> Option<String> {
    let text = check(msg, ServerMsg::from_frame, msg.to_frame(), failures)?;
    let mut direct = String::new();
    msg.encode_into(&mut direct);
    if direct != text {
        failures.push(format!("encode_into diverged from to_frame().encode() for {msg:?}"));
        return None;
    }
    Some(text)
}

/// The no-panic and reuse oracles: every decoder must return, not
/// unwind, and the reused reader must agree with the fresh one.
fn decode_must_not_panic(input: &str, failures: &mut Vec<String>) {
    let shown = || {
        format!(
            "({} bytes): {:?}...",
            input.len(),
            &input[..input.len().min(120)]
        )
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(frame) = Frame::decode(input) {
            // A structurally sound mutant may still be a valid message;
            // the typed decoders must handle it (or reject it) cleanly.
            let _ = Request::from_frame(&frame);
            let _ = ServerMsg::from_frame(&frame);
        }
        // The streaming readers see the same bytes as a socket would.
        let mut fresh = BufReader::new(input.as_bytes());
        let mut reused = BufReader::new(input.as_bytes());
        let mut frames = FrameReader::new();
        for _ in 0..10_000 {
            let expected = read_frame(&mut fresh);
            let got = frames.read(&mut reused).map(|frame| frame.cloned());
            if got != expected {
                return Some(format!("{got:?} where read_frame returns {expected:?}"));
            }
            if !matches!(expected, Ok(Some(_))) {
                break;
            }
        }
        None
    }));
    match outcome {
        Ok(None) => {}
        Ok(Some(diff)) => failures.push(format!(
            "reused reader diverged on input {}: {diff}",
            shown()
        )),
        Err(_) => failures.push(format!("decoder panicked on input {}", shown())),
    }
}

// ---- typed-message generators -----------------------------------------

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";

fn gen_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1usize..16);
    (0..len)
        .map(|_| NAME_CHARS[rng.gen_range(0usize..NAME_CHARS.len())] as char)
        .collect()
}

fn gen_case(rng: &mut StdRng) -> GridCase {
    GridCase::ALL[rng.gen_range(0usize..GridCase::ALL.len())]
}

fn gen_heuristic(rng: &mut StdRng) -> Heuristic {
    Heuristic::ALL[rng.gen_range(0usize..Heuristic::ALL.len())]
}

fn gen_weights(rng: &mut StdRng) -> Weights {
    let alpha = rng.gen_range(0.0f64..=1.0);
    let beta = rng.gen_range(0.0f64..=1.0) * (1.0 - alpha);
    Weights::new(alpha, beta).expect("weights on the simplex")
}

fn gen_config(rng: &mut StdRng) -> SlrhConfig {
    let variant = [SlrhVariant::V1, SlrhVariant::V2, SlrhVariant::V3][rng.gen_range(0usize..3)];
    let mut cfg = SlrhConfig::paper(variant, gen_weights(rng));
    cfg.dt = adhoc_grid::units::Dur(rng.gen_range(1u64..500));
    cfg.horizon = adhoc_grid::units::Dur(rng.gen_range(1u64..5000));
    cfg.allow_secondary = rng.gen_range(0u32..2) == 0;
    if rng.gen_range(0u32..2) == 0 {
        cfg.adaptation = Some(gen_adaptation(rng));
    }
    cfg
}

fn gen_adaptation(rng: &mut StdRng) -> slrh::Adaptation {
    let rule = match rng.gen_range(0u32..3) {
        0 => StepRule::Constant { a: rng.gen_range(0.0f64..2.0) },
        1 => StepRule::Diminishing { a: rng.gen_range(0.01f64..2.0) },
        _ => StepRule::Polyak {
            target: rng.gen_range(0.0f64..4.0),
            max_step: rng.gen_range(0.01f64..1.0),
        },
    };
    slrh::Adaptation {
        rule,
        every: rng.gen_range(1u64..16),
        min_alpha: rng.gen_range(0.0f64..0.2),
        max_multiplier: rng.gen_range(1.0f64..32.0),
        warm_start: (rng.gen_range(0u32..2) == 0).then(|| gen_weights(rng)),
    }
}

fn gen_searcher(rng: &mut StdRng) -> SearcherKind {
    if rng.gen_range(0u32..2) == 0 {
        SearcherKind::Grid
    } else {
        SearcherKind::Anneal {
            seed: rng.gen_range(0u64..u64::MAX),
            iterations: rng.gen_range(1u32..256),
        }
    }
}

fn gen_churn(rng: &mut StdRng) -> Vec<(usize, u64)> {
    (0..rng.gen_range(0usize..4))
        .map(|_| (rng.gen_range(0usize..8), rng.gen_range(1u64..1 << 20)))
        .collect()
}

fn gen_scenario_spec(rng: &mut StdRng) -> ScenarioSpec {
    if rng.gen_range(0u32..4) == 0 {
        // An inline workload: raw-block transport of arbitrary-ish text.
        let lines = rng.gen_range(1usize..6);
        let text: String = (0..lines).map(|_| format!("{}\n", gen_name(rng))).collect();
        return ScenarioSpec::Inline(text);
    }
    ScenarioSpec::Generate {
        tasks: rng.gen_range(1usize..2048),
        case: gen_case(rng),
        etc: rng.gen_range(0usize..10),
        dag: rng.gen_range(0usize..10),
        seed: (rng.gen_range(0u32..2) == 0).then(|| rng.gen_range(0u64..u64::MAX)),
        tau: (rng.gen_range(0u32..2) == 0).then(|| rng.gen_range(1u64..1 << 30)),
    }
}

fn gen_map_request(rng: &mut StdRng) -> MapRequest {
    MapRequest {
        client: gen_name(rng),
        label: gen_name(rng),
        heuristic: gen_heuristic(rng),
        config: gen_config(rng),
        scenario: gen_scenario_spec(rng),
        losses: gen_churn(rng),
        arrivals: gen_churn(rng),
    }
}

fn gen_open_request(rng: &mut StdRng) -> OpenRequest {
    let njobs = rng.gen_range(1usize..6);
    let mut at = 0u64;
    let jobs = (0..njobs as u64)
        .map(|id| {
            at += rng.gen_range(1u64..5_000);
            JobArrival {
                id,
                at: Time(at),
                kind: if rng.gen_range(0u32..2) == 0 { JobKind::Dag } else { JobKind::Bag },
                tasks: rng.gen_range(1usize..64),
                deadline: Dur(rng.gen_range(1u64..1 << 20)),
                budget: (rng.gen_range(0u32..2) == 0).then(|| rng.gen_range(1.0f64..1e6)),
            }
        })
        .collect();
    // The background block is either exactly inert (omitted on the
    // wire) or visibly loaded — an inert model with a live seed would
    // not survive the round trip, by design.
    let bg = if rng.gen_range(0u32..2) == 0 {
        BackgroundParams::none()
    } else {
        BackgroundParams {
            max_offset: rng.gen_range(1u64..1 << 20),
            max_util_eighths: rng.gen_range(0u8..=6),
            seed: rng.gen_range(0u64..u64::MAX),
        }
    };
    OpenRequest {
        client: gen_name(rng),
        label: gen_name(rng),
        config: gen_config(rng),
        case: gen_case(rng),
        seed: rng.gen_range(0u64..u64::MAX),
        jobs,
        bg,
        losses: gen_churn(rng),
        arrivals: gen_churn(rng),
    }
}

fn gen_campaign_request(rng: &mut StdRng) -> CampaignRequest {
    CampaignRequest {
        client: gen_name(rng),
        label: gen_name(rng),
        tasks: rng.gen_range(1usize..4096),
        etc_count: rng.gen_range(1usize..11),
        dag_count: rng.gen_range(1usize..11),
        heuristics: (0..rng.gen_range(1usize..4)).map(|_| gen_heuristic(rng)).collect(),
        cases: (0..rng.gen_range(1usize..4)).map(|_| gen_case(rng)).collect(),
        coarse: rng.gen_range(0.01f64..0.5),
        fine: rng.gen_range(0.001f64..0.1),
        searcher: gen_searcher(rng),
        checkpoint: (rng.gen_range(0u32..2) == 0).then(|| gen_name(rng)),
    }
}

fn gen_event(rng: &mut StdRng) -> Event {
    let job = rng.gen_range(1u64..1 << 40);
    match rng.gen_range(0usize..7) {
        0 => Event::Queued { job },
        1 => Event::Started { job },
        2 => Event::Tick {
            job,
            clock: rng.gen_range(0u64..1 << 30),
            tick: rng.gen_range(0u64..1 << 20),
            mapped: rng.gen_range(0usize..10_000),
            commits: rng.gen_range(0u64..100),
            // Absent from the frame, small, and the widest there is.
            idle: [0, 0, 1, 22, u64::MAX][rng.gen_range(0usize..5)],
        },
        3 => Event::Disruption {
            job,
            at: rng.gen_range(0u64..1 << 30),
            invalidated: rng.gen_range(0usize..100),
        },
        4 => {
            let index = rng.gen_range(0usize..64);
            Event::Unit {
                job,
                index,
                total: index + rng.gen_range(1usize..64),
                row: format!(
                    "{}|{}|t100={:?}|ub_frac=0.5|feasible=2/2",
                    gen_heuristic(rng),
                    gen_case(rng),
                    rng.gen_range(0.0f64..1e6)
                ),
            }
        }
        5 => {
            let tasks = rng.gen_range(1usize..256);
            Event::Job {
                job,
                id: rng.gen_range(0u64..1 << 20),
                mapped: rng.gen_range(0usize..=tasks),
                tasks,
                hit: rng.gen_range(0u32..2) == 0,
                cost: rng.gen_range(0.0f64..1e9),
            }
        }
        _ => Event::Done { job },
    }
}

fn gen_report(rng: &mut StdRng) -> String {
    let lines = rng.gen_range(0usize..8);
    (0..lines).map(|_| format!("{}={}\n", gen_name(rng), gen_name(rng))).collect()
}

// ---- mutation ----------------------------------------------------------

/// Characters the mutator injects: protocol syntax (`=`, `@`, `#`,
/// spaces, digits) over-represented so mutants stay near-valid.
const HOSTILE_CHARS: &[u8] = b"=@# 0123456789abcXYZ|/\\\"'\t~\x7f";

/// Derive one mutant of `text`.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    match rng.gen_range(0usize..7) {
        // Truncate mid-message (a socket dying mid-frame).
        0 => {
            let keep = rng.gen_range(0usize..=chars.len());
            chars.truncate(keep);
        }
        // Replace one character.
        1 if !chars.is_empty() => {
            let at = rng.gen_range(0usize..chars.len());
            chars[at] = HOSTILE_CHARS[rng.gen_range(0usize..HOSTILE_CHARS.len())] as char;
        }
        // Insert a run of hostile characters.
        2 => {
            let at = rng.gen_range(0usize..=chars.len());
            let run: Vec<char> = (0..rng.gen_range(1usize..12))
                .map(|_| HOSTILE_CHARS[rng.gen_range(0usize..HOSTILE_CHARS.len())] as char)
                .collect();
            chars.splice(at..at, run);
        }
        // Delete a whole line (breaks raw-block line counts).
        3 => return edit_lines(rng, text, LineEdit::Delete),
        // Duplicate a line.
        4 => return edit_lines(rng, text, LineEdit::Duplicate),
        // Swap two lines (entries out of order, header displaced).
        5 => return edit_lines(rng, text, LineEdit::Swap),
        // Splice two messages together.
        _ => {
            let cut = rng.gen_range(0usize..=chars.len());
            let tail: String = chars[..cut].iter().collect();
            return format!("{text}{tail}");
        }
    }
    chars.into_iter().collect()
}

enum LineEdit {
    Delete,
    Duplicate,
    Swap,
}

fn edit_lines(rng: &mut StdRng, text: &str, edit: LineEdit) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let at = rng.gen_range(0usize..lines.len());
    match edit {
        LineEdit::Delete => {
            lines.remove(at);
        }
        LineEdit::Duplicate => lines.insert(at, lines[at]),
        LineEdit::Swap => {
            let other = rng.gen_range(0usize..lines.len());
            lines.swap(at, other);
        }
    }
    let mut out = lines.join("\n");
    if text.ends_with('\n') && !out.is_empty() {
        out.push('\n');
    }
    out
}

fn gen_garbage(rng: &mut StdRng) -> String {
    let lines = rng.gen_range(0usize..12);
    let mut out = String::new();
    for _ in 0..lines {
        let len = rng.gen_range(0usize..40);
        for _ in 0..len {
            out.push(HOSTILE_CHARS[rng.gen_range(0usize..HOSTILE_CHARS.len())] as char);
        }
        out.push('\n');
    }
    // Half the garbage opens with a real header to reach deeper code.
    if rng.gen_range(0u32..2) == 0 {
        format!("lrh-grid-wire v1 map-request\n{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic() {
        let a = fuzz_wire(7);
        let b = fuzz_wire(7);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.mutants, b.mutants);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn generators_cover_every_message_family() {
        // Over a modest seed range the dispatch must hit all 9 arms;
        // this guards the generator against silently narrowing.
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 9];
        for _ in 0..512 {
            seen[rng.gen_range(0usize..9)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn open_requests_and_job_events_round_trip() {
        // Direct fixpoint checks on the two new families, independent of
        // the dispatch hitting them for any particular campaign seed.
        let mut rng = StdRng::seed_from_u64(42);
        let mut failures = Vec::new();
        for _ in 0..32 {
            let msg = Request::Open(gen_open_request(&mut rng));
            check(&msg, Request::from_frame, msg.to_frame(), &mut failures);
        }
        let mut saw_job = false;
        for _ in 0..64 {
            let ev = gen_event(&mut rng);
            saw_job |= matches!(ev, Event::Job { .. });
            let msg = ServerMsg::Event(ev);
            check_server(&msg, &mut failures);
        }
        assert!(saw_job, "the event generator never drew a job event");
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
