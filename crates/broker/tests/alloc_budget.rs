//! Allocation budget for the daemon's reply path (feature
//! `alloc-counter`).
//!
//! A job's reply is one frame per committing clock tick — over a
//! hundred for a 128-subtask job, about a thousand at paper scale — so
//! the path an event takes (encode and buffered write on the connection
//! thread, decode on the client) must not allocate per event. This test pins that with a counting global allocator:
//! encoding a tick into a warm buffer and decoding one through a warm
//! reader allocate nothing, and a whole daemon job's reply costs a fixed
//! number of allocations however many events it streams.
//!
//! Gated behind the `alloc-counter` cargo feature because installing a
//! process-global allocator wrapper should not ride along with ordinary
//! test runs:
//!
//! ```text
//! cargo test -p grid-broker --features alloc-counter --test alloc_budget
//! ```
#![cfg(feature = "alloc-counter")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use adhoc_grid::config::GridCase;
use adhoc_grid::io::wire::FrameReader;
use grid_broker::proto::{Event, MapRequest, ScenarioSpec, ServerMsg};
use grid_broker::server::{serve, BrokerConfig};
use grid_broker::{execute_map, Connection};
use grid_sweep::heuristic::Heuristic;
use lagrange::weights::Weights;
use slrh::{RunContext, SlrhConfig, SlrhVariant};

/// Counts every `alloc`/`realloc` served while delegating to [`System`]:
/// process-wide, and per thread (the test harness allocates on threads
/// of its own while a test runs). The per-job budget needs the
/// process-wide count, because a daemon reply spans threads — the
/// daemon's connection thread runs the job and writes its reply, the
/// client decodes it — so unlike the sweep's pins, which each count
/// their own thread, these tests run one at a time.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static OWN_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    OWN_ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: pure delegation to `System`; the counter increments have no
// allocation-relevant side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and the caller upholds
        // `GlobalAlloc::realloc`'s contract on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One test at a time: what another test allocates would count against
/// the process-wide budget.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    // A failed budget must not fail the other tests with a poison error.
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations performed (on any thread) while running `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations this thread performed while running `f`.
fn count_own_allocs(f: impl FnOnce()) -> u64 {
    let before = OWN_ALLOCATIONS.with(Cell::get);
    f();
    OWN_ALLOCATIONS.with(Cell::get) - before
}

fn tick(n: u64) -> ServerMsg {
    ServerMsg::Event(Event::Tick {
        job: 123_456,
        clock: 10 * n,
        tick: n,
        mapped: n as usize,
        commits: n % 3,
        idle: n,
    })
}

#[test]
fn encoding_a_tick_into_a_warm_buffer_allocates_nothing() {
    let _one_at_a_time = measuring();
    let mut buf = String::new();
    tick(u64::MAX / 10).encode_into(&mut buf); // the widest tick there is
    let allocs = count_own_allocs(|| {
        for n in 0..1_000 {
            buf.clear();
            tick(n).encode_into(&mut buf);
        }
    });
    assert_eq!(allocs, 0, "1000 tick encodes allocated {allocs} times");
}

#[test]
fn decoding_a_tick_through_a_warm_reader_allocates_nothing() {
    let _one_at_a_time = measuring();
    let mut stream = String::new();
    for n in 0..1_002 {
        tick(n).encode_into(&mut stream);
    }
    let mut input = stream.as_bytes();
    let mut frames = FrameReader::new();
    // Warm after two frames: the first sizes the line buffer and the
    // entry strings, the second the pool the strings are recycled through.
    for n in 0..2 {
        let frame = frames.read(&mut input).unwrap().expect("a frame");
        assert_eq!(ServerMsg::from_frame(frame).unwrap(), tick(n));
    }
    let allocs = count_own_allocs(|| {
        for n in 2..1_002 {
            let frame = frames.read(&mut input).unwrap().expect("a frame");
            assert_eq!(ServerMsg::from_frame(frame).unwrap(), tick(n));
        }
    });
    assert_eq!(allocs, 0, "1000 tick decodes allocated {allocs} times");
}

#[test]
fn a_daemon_jobs_reply_path_stays_within_its_per_job_budget() {
    let _one_at_a_time = measuring();
    let req = MapRequest {
        client: "budget".into(),
        label: "reply-path".into(),
        heuristic: Heuristic::Slrh1,
        config: SlrhConfig::paper(SlrhVariant::V1, Weights::new(0.5, 0.3).unwrap()),
        scenario: ScenarioSpec::Generate {
            tasks: 128,
            case: GridCase::A,
            etc: 0,
            dag: 0,
            seed: None,
            tau: None,
        },
        losses: vec![],
        arrivals: vec![],
    };
    let daemon = serve(&BrokerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
    })
    .expect("bind daemon");
    let mut conn = Connection::connect(daemon.addr()).expect("connect");
    let mut ctx = RunContext::new();

    // Warm both sides alike: the daemon's execution slot and the
    // connection's buffers on one, the local context on the other.
    for _ in 0..2 {
        conn.submit_map(&req, |_| {}).expect("warm-up submit");
        execute_map(0, &req, &mut ctx, &mut |_| {}).expect("warm-up run");
    }

    // The job itself (scenario generation, mapping, validation, report)
    // allocates the same in the daemon as here; what a submit allocates
    // beyond it is the reply path plus one request's round trip.
    let executing = count_allocs(|| {
        execute_map(0, &req, &mut ctx, &mut |_| {}).expect("local run");
    });
    let mut events = 0u64;
    let submitting = count_allocs(|| {
        conn.submit_map(&req, |_| events += 1).expect("submit");
    });
    conn.shutdown().expect("shutdown");
    daemon.join();

    assert!(events > 100, "a 128-subtask job streams {events} events");
    let reply_path = submitting.saturating_sub(executing);
    // Measured 47 allocations for 122 events, and 47 for a 1 024-subtask
    // job's 994: all of it is per job (the request's round trip and the
    // response), none per event, so the budget is a count per job
    // whatever it streams.
    assert!(
        reply_path <= 56,
        "the reply path allocated {reply_path} times for a job of {events} events \
         ({submitting} submitting, {executing} executing): budget 56 per job"
    );
}
