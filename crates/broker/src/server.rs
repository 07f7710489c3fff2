//! The broker daemon: a TCP server executing mapping and campaign jobs
//! on the threads of the connections that submit them.
//!
//! Threading model:
//!
//! * one **accept** thread turning connections into connection threads;
//! * one **connection** thread per client socket, reading request
//!   frames and running each job itself, writing its events and final
//!   response straight into the connection's write buffer.
//!
//! At most `workers` jobs execute at once: the daemon keeps that many
//! **execution slots**, each one recycled [`RunContext`]. A connection
//! that finds a slot free takes it under one lock; otherwise it queues a
//! turn in the fair [`JobQueue`] (FIFO per client, round-robin across
//! clients) and blocks until a finishing job hands the slot over. An
//! uncontended job crosses no thread boundary. Connection threads are
//! plain threads (never rayon workers), so a campaign unit's internal
//! weight-search parallelism nests correctly.
//!
//! ## The reply path
//!
//! Every message of a job's reply (`queued`, `started`, one event per
//! committing clock tick, `done`, the response) is encoded into one
//! reused `String` and written to the connection's `BufWriter`. Nothing
//! on this path allocates per event.
//!
//! There is one flush rule: the connection thread flushes **before it
//! blocks** — on the socket for the next request, and on a busy slot —
//! and after a job's last frame. A map job's other frames ride the
//! buffer, which writes through when full, so a small job's whole reply
//! leaves in one flush. An open job's `job` events are as dense (tens of
//! microseconds apart) and ride it too. A campaign job also flushes after
//! every frame: its `unit` events come seconds apart and must stream
//! live. Sockets run with `TCP_NODELAY`, so a flushed
//! segment never waits for the peer's delayed ACK. Where segments break
//! is not part of the protocol; the byte stream is.
//!
//! A job holds its slot while its frames are written, so a client that
//! stops reading holds one until a write has blocked for `WRITE_TIMEOUT`.
//! A client that disconnects or times out loses the rest of its reply:
//! after the first failed write the job's frames are dropped, but the job
//! runs to completion and releases its slot (campaign checkpoints keep
//! advancing). A job that panics answers an `error` frame, and its slot
//! gets a fresh context.
//!
//! Shutdown (`shutdown-request` frame or [`BrokerHandle::shutdown`]) is
//! graceful: admissions stop, waiting turns still get their slots, the
//! accept thread is poked awake and joins, and [`BrokerHandle::join`]
//! returns once every admitted job's reply has been written out.

use std::any::Any;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use adhoc_grid::io::wire::FrameReader;
use slrh::RunContext;

use crate::execute::{execute_campaign, execute_map, execute_open};
use crate::proto::{ErrorResponse, Event, Request, ServerMsg, StatusResponse};
use crate::queue::JobQueue;

/// Capacity of a connection's write buffer: a small map job's whole
/// reply.
const WRITE_BUFFER_BYTES: usize = 8 * 1024;

/// How long a write may block before its client counts as gone. A job
/// holds its execution slot while it writes.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the accept thread waits after a failed `accept` (out of
/// file descriptors, typically) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`BrokerHandle::addr`]).
    pub addr: String,
    /// Execution slots: jobs executing at once.
    pub workers: usize,
}

impl Default for BrokerConfig {
    fn default() -> BrokerConfig {
        BrokerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
        }
    }
}

/// Where a connection waiting for an execution slot receives it.
#[derive(Default)]
struct Turn {
    slot: Mutex<Option<RunContext>>,
    granted: Condvar,
}

impl Turn {
    fn grant(&self, ctx: RunContext) {
        *self.slot.lock().expect("turn lock poisoned") = Some(ctx);
        self.granted.notify_one();
    }

    fn wait(&self) -> RunContext {
        let mut slot = self.slot.lock().expect("turn lock poisoned");
        loop {
            if let Some(ctx) = slot.take() {
                return ctx;
            }
            slot = self.granted.wait(slot).expect("turn lock poisoned");
        }
    }
}

/// The daemon's execution slots: `size` recycled run contexts, granted
/// in [`JobQueue`] order to connections that cannot take one at once.
struct Slots {
    size: usize,
    pool: Mutex<Pool>,
    turns: JobQueue<Arc<Turn>>,
}

struct Pool {
    /// Contexts no job holds. Empty whenever a turn waits: a released
    /// context goes to the next turn before it comes back here.
    free: Vec<RunContext>,
    /// Jobs that have released their slot.
    completed: u64,
}

impl Slots {
    fn new(size: usize) -> Slots {
        Slots {
            size,
            pool: Mutex::new(Pool {
                free: (0..size).map(|_| RunContext::new()).collect(),
                completed: 0,
            }),
            turns: JobQueue::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        // Holders only push, pop and count: a panic cannot happen with
        // the lock held.
        self.pool.lock().expect("slot pool poisoned")
    }

    /// A free slot for one of `client`'s jobs (`Ok`), or, when every
    /// slot is held, the turn the next one released in order arrives at
    /// (`Err`); `None` once admissions are closed. The pool lock orders
    /// admissions against releases, so a turn is only ever queued while
    /// no context is free.
    fn admit(&self, client: &str) -> Option<Result<RunContext, Arc<Turn>>> {
        let mut pool = self.lock();
        if !self.turns.is_open() {
            return None;
        }
        if let Some(ctx) = pool.free.pop() {
            return Some(Ok(ctx));
        }
        let turn = Arc::new(Turn::default());
        self.turns
            .push(client, Arc::clone(&turn))
            .then_some(Err(turn))
    }

    /// Hand a slot to the next waiting turn, or back to the pool. The
    /// job counts as completed from here on.
    fn release(&self, ctx: RunContext) {
        let mut pool = self.lock();
        pool.completed += 1;
        match self.turns.pop() {
            Some(turn) => turn.grant(ctx),
            None => pool.free.push(ctx),
        }
    }

    fn status(&self) -> StatusResponse {
        let pool = self.lock();
        StatusResponse {
            queued: self.turns.len(),
            running: self.size - pool.free.len(),
            completed: pool.completed,
            workers: self.size,
        }
    }
}

struct Shared {
    slots: Slots,
    addr: SocketAddr,
    next_job: AtomicU64,
    stopping: AtomicBool,
    /// Admitted jobs whose reply is not yet written out in full.
    deliveries: Mutex<usize>,
    delivered: Condvar,
}

/// One reply in flight; counted from admission to the last byte.
struct Delivery<'a>(&'a Shared);

impl Drop for Delivery<'_> {
    fn drop(&mut self) {
        *self.0.in_flight() -= 1;
        self.0.delivered.notify_all();
    }
}

impl Shared {
    fn new(addr: SocketAddr, workers: usize) -> Shared {
        Shared {
            slots: Slots::new(workers),
            addr,
            next_job: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            deliveries: Mutex::new(0),
            delivered: Condvar::new(),
        }
    }

    fn initiate_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.slots.turns.close();
        // Poke the accept loop awake so it notices the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// The count of replies in flight. A plain counter is valid at
    /// every step, so a poisoned lock is recovered, not propagated
    /// (`Delivery::drop` runs during unwinding).
    fn in_flight(&self) -> MutexGuard<'_, usize> {
        self.deliveries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn begin_delivery(&self) -> Delivery<'_> {
        *self.in_flight() += 1;
        Delivery(self)
    }

    /// Block until no reply is in flight. Connections idle between
    /// requests are not waited for.
    fn wait_delivered(&self) {
        let mut in_flight = self.in_flight();
        while *in_flight > 0 {
            in_flight = self
                .delivered
                .wait(in_flight)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running daemon.
pub struct BrokerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl BrokerHandle {
    /// The daemon's actual bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Ask the daemon to shut down (stop admissions, drain, exit).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Block until the daemon has shut down (either via
    /// [`BrokerHandle::shutdown`] or a client's `shutdown-request`):
    /// every admitted job has run and its whole reply has been written
    /// to its connection, so a process may exit when this returns.
    pub fn join(self) {
        let _ = self.accept.join();
        self.shared.wait_delivered();
    }
}

/// Start a daemon. Returns once the listener is bound; jobs are
/// processed on background threads until shutdown.
pub fn serve(cfg: &BrokerConfig) -> std::io::Result<BrokerHandle> {
    assert!(
        cfg.workers > 0,
        "the broker needs at least one execution slot"
    );
    let listener = TcpListener::bind(&cfg.addr)?;
    let shared = Arc::new(Shared::new(listener.local_addr()?, cfg.workers));
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener.incoming(), &shared))
    };
    Ok(BrokerHandle { shared, accept })
}

/// Turn accepted connections into connection threads until shutdown.
/// The flag is read after every `accept`, failed ones included, and a
/// failed one is followed by a pause: a persistent error (`EMFILE`)
/// costs a retry every [`ACCEPT_BACKOFF`], not a core.
fn accept_loop(incoming: impl Iterator<Item = std::io::Result<TcpStream>>, shared: &Arc<Shared>) {
    for stream in incoming {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &shared);
                });
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Encode `msg` into the connection's write buffer. Flushing is the
/// caller's business (see the module docs).
fn buffer_msg(out: &mut impl Write, scratch: &mut String, msg: &ServerMsg) -> std::io::Result<()> {
    scratch.clear();
    msg.encode_into(scratch);
    out.write_all(scratch.as_bytes())
}

fn rejection(message: String) -> ServerMsg {
    ServerMsg::Error(ErrorResponse { job: None, message })
}

/// Handle one client connection: a sequence of requests, each answered
/// in full (events then response) before the next is read.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut frames = FrameReader::new();
    let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, stream);
    let mut scratch = String::new();
    loop {
        // Nothing waits in the buffer while this thread waits for the
        // next request.
        out.flush()?;
        let request = match frames.read(&mut reader) {
            Ok(Some(frame)) => Request::from_frame(frame),
            Ok(None) => return Ok(()), // client closed cleanly
            Err(e) => {
                // Framing is broken; report and drop the connection.
                let _ = buffer_msg(&mut out, &mut scratch, &rejection(e.to_string()));
                let _ = out.flush();
                return Ok(());
            }
        };
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                // The frame itself was sound: reject the request but
                // keep the connection.
                buffer_msg(&mut out, &mut scratch, &rejection(e.to_string()))?;
                continue;
            }
        };
        let out = &mut out;
        let scratch = &mut scratch;
        match request {
            Request::Status(_) => {
                buffer_msg(out, scratch, &ServerMsg::Status(shared.slots.status()))?;
            }
            Request::Shutdown => {
                buffer_msg(out, scratch, &ServerMsg::Ok)?;
                out.flush()?;
                shared.initiate_shutdown();
                return Ok(());
            }
            Request::Map(req) => {
                run_job(shared, &req.client, false, out, scratch, |id, ctx, emit| {
                    execute_map(id, &req, ctx, emit).map(ServerMsg::Map)
                })?
            }
            Request::Open(req) => {
                run_job(shared, &req.client, false, out, scratch, |id, ctx, emit| {
                    execute_open(id, &req, ctx, emit).map(ServerMsg::Map)
                })?
            }
            Request::Campaign(req) => {
                run_job(shared, &req.client, true, out, scratch, |id, _, emit| {
                    execute_campaign(id, &req, emit).map(ServerMsg::Campaign)
                })?
            }
        }
    }
}

/// A connection's write side for one job's reply. The first failed
/// write is kept and every later frame of the reply is dropped.
struct JobReply<'a, W: Write> {
    out: &'a mut W,
    scratch: &'a mut String,
    failed: Option<std::io::Error>,
}

impl<W: Write> JobReply<'_, W> {
    fn send(&mut self, msg: &ServerMsg) {
        if self.failed.is_none() {
            self.failed = buffer_msg(self.out, self.scratch, msg).err();
        }
    }

    fn flush(&mut self) {
        if self.failed.is_none() {
            self.failed = self.out.flush().err();
        }
    }

    fn finish(self) -> std::io::Result<()> {
        self.failed.map_or(Ok(()), Err)
    }
}

/// Run one of `client`'s jobs on this thread: admit it, wait for an
/// execution slot if none is free, run `work` on the slot's context and
/// stream the reply to `out`; `live` (a campaign's slow `unit` events)
/// flushes after every frame. Whether anyone still reads the reply
/// makes no difference: the job runs to completion (campaign checkpoints
/// must keep advancing) and the first write error is returned once its
/// slot is released.
fn run_job<W: Write>(
    shared: &Shared,
    client: &str,
    live: bool,
    out: &mut W,
    scratch: &mut String,
    work: impl FnOnce(u64, &mut RunContext, &mut dyn FnMut(Event)) -> Result<ServerMsg, String>,
) -> std::io::Result<()> {
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst) + 1;
    let _delivery = shared.begin_delivery();
    let mut reply = JobReply {
        out,
        scratch,
        failed: None,
    };
    let queued = ServerMsg::Event(Event::Queued { job: id });
    let mut ctx = match shared.slots.admit(client) {
        Some(Ok(ctx)) => {
            reply.send(&queued);
            ctx
        }
        Some(Err(turn)) => {
            reply.send(&queued);
            reply.flush();
            turn.wait()
        }
        None => {
            reply.send(&rejection("daemon is shutting down".into()));
            return reply.finish();
        }
    };
    reply.send(&ServerMsg::Event(Event::Started { job: id }));
    if live {
        reply.flush();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        work(id, &mut ctx, &mut |event| {
            reply.send(&ServerMsg::Event(event));
            if live {
                reply.flush();
            }
        })
    }));
    let failure = |message| {
        ServerMsg::Error(ErrorResponse {
            job: Some(id),
            message,
        })
    };
    let (done, last) = match outcome {
        Ok(Ok(msg)) => (true, msg),
        Ok(Err(message)) => (false, failure(message)),
        Err(panic) => {
            // Whatever the job left in its context is not trusted again.
            ctx = RunContext::new();
            (
                false,
                failure(format!("job panicked: {}", panic_message(&*panic))),
            )
        }
    };
    // Released, and so counted as completed, before the response is
    // written: a client holding its response always finds its job under
    // `completed`.
    shared.slots.release(ctx);
    if done {
        reply.send(&ServerMsg::Event(Event::Done { job: id }));
    }
    reply.send(&last);
    reply.flush();
    reply.finish()
}

fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{CampaignResponse, MapRequest, MapResponse, ScenarioSpec};
    use adhoc_grid::config::GridCase;
    use grid_sweep::heuristic::Heuristic;
    use lagrange::weights::Weights;
    use slrh::{SlrhConfig, SlrhVariant};
    use std::sync::mpsc;

    #[derive(Debug, PartialEq)]
    enum Op {
        Write(String),
        Flush,
    }

    /// Reports every call to the test thread as it happens.
    struct Recorder(mpsc::Sender<Op>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let text = String::from_utf8(buf.to_vec()).expect("frames are text");
            self.0.send(Op::Write(text)).expect("test is listening");
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.send(Op::Flush).expect("test is listening");
            Ok(())
        }
    }

    /// A client that goes away after `left` bytes; counts the calls
    /// made on it after that.
    struct FailsAfter {
        left: usize,
        calls_after: usize,
    }

    impl Write for FailsAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                self.calls_after += 1;
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A client that stops reading: its first write blocks until the
    /// test lets it time out, and fails as a socket write timeout does.
    /// Counts the calls made on it after that.
    struct StopsReading {
        blocked: mpsc::Sender<()>,
        time_out: mpsc::Receiver<()>,
        timed_out: bool,
        calls_after: usize,
    }

    impl Write for StopsReading {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            if self.timed_out {
                self.calls_after += 1;
            } else {
                self.blocked.send(()).expect("test is listening");
                self.time_out.recv().expect("the test times the write out");
                self.timed_out = true;
            }
            Err(std::io::ErrorKind::TimedOut.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The recorder behind a connection-sized write buffer, and what it
    /// reports.
    fn recorded() -> (BufWriter<Recorder>, mpsc::Receiver<Op>) {
        let (tx, ops) = mpsc::channel();
        (
            BufWriter::with_capacity(WRITE_BUFFER_BYTES, Recorder(tx)),
            ops,
        )
    }

    fn test_shared(workers: usize) -> Shared {
        Shared::new("127.0.0.1:1".parse().expect("an address"), workers)
    }

    fn tick(n: u64) -> Event {
        Event::Tick {
            job: 1,
            clock: 10 * n,
            tick: n,
            mapped: n as usize,
            commits: 1,
            idle: n % 4,
        }
    }

    fn unit(index: usize) -> Event {
        Event::Unit {
            job: 1,
            index,
            total: 3,
            row: format!("row {index}"),
        }
    }

    fn response() -> ServerMsg {
        ServerMsg::Map(MapResponse {
            job: 1,
            report: "lrh-grid report v1\nvalid=yes\n".into(),
        })
    }

    fn event(event: Event) -> ServerMsg {
        ServerMsg::Event(event)
    }

    fn wire(msgs: &[ServerMsg]) -> String {
        msgs.iter().map(|m| m.to_frame().encode()).collect()
    }

    /// Writes received until the next flush, concatenated.
    fn writes_until_flush(ops: &mpsc::Receiver<Op>) -> String {
        let mut text = String::new();
        loop {
            match ops.recv().expect("the job is running") {
                Op::Write(t) => text.push_str(&t),
                Op::Flush => return text,
            }
        }
    }

    fn small_map_request() -> MapRequest {
        MapRequest {
            client: "gone".into(),
            label: "abandoned".into(),
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
            losses: vec![],
            arrivals: vec![],
        }
    }

    #[test]
    fn a_map_job_whose_reply_fits_the_buffer_is_flushed_once_after_its_response() {
        let shared = test_shared(1);
        let (mut out, ops) = recorded();
        run_job(
            &shared,
            "a",
            false,
            &mut out,
            &mut String::new(),
            |_, _, emit| {
                (0..20).for_each(|n| emit(tick(n)));
                Ok(response())
            },
        )
        .expect("no write error");
        drop(out);

        let mut msgs = vec![
            event(Event::Queued { job: 1 }),
            event(Event::Started { job: 1 }),
        ];
        msgs.extend((0..20).map(|n| event(tick(n))));
        msgs.extend([event(Event::Done { job: 1 }), response()]);
        assert!(wire(&msgs).len() < WRITE_BUFFER_BYTES);
        let ops: Vec<Op> = ops.iter().collect();
        assert_eq!(ops, [Op::Write(wire(&msgs)), Op::Flush]);
    }

    #[test]
    fn a_campaign_job_is_flushed_after_each_unit_frame() {
        let shared = test_shared(1);
        let (mut out, ops) = recorded();
        let last = || {
            ServerMsg::Campaign(CampaignResponse {
                job: 1,
                resumed: 0,
                report: "campaign\n".into(),
            })
        };
        run_job(
            &shared,
            "c",
            true,
            &mut out,
            &mut String::new(),
            |_, _, emit| {
                (0..3).for_each(|i| emit(unit(i)));
                Ok(last())
            },
        )
        .expect("no write error");
        drop(out);

        let mut expected = vec![
            Op::Write(wire(&[
                event(Event::Queued { job: 1 }),
                event(Event::Started { job: 1 }),
            ])),
            Op::Flush,
        ];
        for i in 0..3 {
            expected.extend([Op::Write(wire(&[event(unit(i))])), Op::Flush]);
        }
        expected.extend([
            Op::Write(wire(&[event(Event::Done { job: 1 }), last()])),
            Op::Flush,
        ]);
        assert_eq!(ops.iter().collect::<Vec<Op>>(), expected);
    }

    #[test]
    fn a_connection_waiting_for_a_slot_has_flushed_queued_first() {
        let shared = Arc::new(test_shared(1));
        let Some(Ok(held)) = shared.slots.admit("holder") else {
            panic!("the only slot is free");
        };
        let (mut out, ops) = recorded();
        let waiting = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                run_job(
                    &shared,
                    "w",
                    false,
                    &mut out,
                    &mut String::new(),
                    |_, _, _| Ok(response()),
                )
            })
        };

        // `queued` leaves before the connection blocks; nothing follows
        // while its turn waits.
        assert_eq!(
            writes_until_flush(&ops),
            wire(&[event(Event::Queued { job: 1 })])
        );
        let status = shared.slots.status();
        assert_eq!((status.queued, status.running), (1, 1));
        assert_eq!(
            ops.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout)
        );

        // The released slot goes to the waiting turn, which runs the job.
        shared.slots.release(held);
        let rest = [
            event(Event::Started { job: 1 }),
            event(Event::Done { job: 1 }),
            response(),
        ];
        assert_eq!(writes_until_flush(&ops), wire(&rest));
        waiting
            .join()
            .expect("connection thread")
            .expect("no write error");
        let status = shared.slots.status();
        assert_eq!((status.queued, status.running, status.completed), (0, 0, 2));
    }

    #[test]
    fn a_panicking_job_answers_an_error_and_its_slot_gets_a_fresh_context() {
        let fresh = format!("{:?}", RunContext::new());
        let scenario = small_map_request().scenario.build().expect("a scenario");
        let shared = test_shared(1);
        let (mut out, ops) = recorded();
        run_job(
            &shared,
            "p",
            false,
            &mut out,
            &mut String::new(),
            |_, ctx, _| {
                // Leave something in the context, then die.
                let state = ctx.state(&scenario);
                ctx.reclaim(state);
                assert_ne!(format!("{ctx:?}"), fresh);
                panic!("a bug in the job");
            },
        )
        .expect("no write error");
        drop(out);

        let error = ServerMsg::Error(ErrorResponse {
            job: Some(1),
            message: "job panicked: a bug in the job".into(),
        });
        let msgs = [
            event(Event::Queued { job: 1 }),
            event(Event::Started { job: 1 }),
            error,
        ];
        let ops: Vec<Op> = ops.iter().collect();
        assert_eq!(ops, [Op::Write(wire(&msgs)), Op::Flush]);

        let status = shared.slots.status();
        assert_eq!((status.queued, status.running, status.completed), (0, 0, 1));
        assert_eq!(shared.slots.lock().free.len(), 1, "the slot is back");
        let Some(Ok(ctx)) = shared.slots.admit("next") else {
            panic!("the slot is free");
        };
        assert_eq!(format!("{ctx:?}"), fresh, "a fresh context");
    }

    #[test]
    fn a_dead_writer_never_stalls_a_job() {
        let shared = test_shared(1);
        let req = small_map_request();
        let mut local_events = 0;
        let local = execute_map(1, &req, &mut RunContext::new(), &mut |_| local_events += 1)
            .expect("local run");
        let mut out = FailsAfter {
            left: 100,
            calls_after: 0,
        };
        let mut events = 0;
        let err = run_job(
            &shared,
            "gone",
            false,
            &mut out,
            &mut String::new(),
            |id, ctx, emit| {
                let response = execute_map(id, &req, ctx, &mut |e| {
                    events += 1;
                    emit(e);
                });
                assert_eq!(
                    response.as_ref().expect("the job runs").report,
                    local.report
                );
                response.map(ServerMsg::Map)
            },
        )
        .expect_err("the client is gone");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);

        // The whole job ran, its frames went nowhere after the first
        // failed write, and its slot is back.
        assert_eq!(events, local_events);
        assert_eq!(out.calls_after, 1, "frames written after the failure");
        let status = shared.slots.status();
        assert_eq!((status.running, status.completed), (0, 1));
        assert_eq!(shared.slots.lock().free.len(), 1);
    }

    #[test]
    fn a_client_that_stops_reading_holds_its_slot_until_the_write_times_out() {
        let shared = Arc::new(test_shared(1));
        let (blocked, is_blocked) = mpsc::channel();
        let (time_out, timed_out) = mpsc::channel();
        let ticks = 300;
        assert!(
            wire(&(0..ticks).map(|n| event(tick(n))).collect::<Vec<_>>()).len()
                > WRITE_BUFFER_BYTES
        );
        let job = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let reader = StopsReading {
                    blocked,
                    time_out: timed_out,
                    timed_out: false,
                    calls_after: 0,
                };
                let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, reader);
                let mut emitted = 0;
                let result = run_job(
                    &shared,
                    "slow",
                    false,
                    &mut out,
                    &mut String::new(),
                    |_, _, emit| {
                        for n in 0..ticks {
                            emit(tick(n));
                            emitted += 1;
                        }
                        Ok(response())
                    },
                );
                // Dropped without the `BufWriter`'s own final flush.
                let (reader, _) = out.into_parts();
                (result, emitted, reader.calls_after)
            })
        };

        // The reply outgrew the buffer and its write blocks: the job
        // still holds the only slot, so the next job waits its turn.
        is_blocked.recv().expect("the write blocks");
        let status = shared.slots.status();
        assert_eq!((status.running, status.completed), (1, 0));
        let Some(Err(turn)) = shared.slots.admit("next") else {
            panic!("a blocked writer holds its slot");
        };

        // Once the write times out, the job runs to completion without
        // writing again and hands its slot over.
        time_out.send(()).expect("the writer is blocked");
        let ctx = turn.wait();
        let (result, emitted, calls_after) = job.join().expect("connection thread");
        assert_eq!(
            result.expect_err("the write timed out").kind(),
            std::io::ErrorKind::TimedOut
        );
        assert_eq!(emitted, ticks);
        assert_eq!(calls_after, 0, "writes after the timeout");
        let status = shared.slots.status();
        assert_eq!((status.running, status.completed), (1, 1));
        shared.slots.release(ctx);
    }

    /// The turn that holds the slot just released, taken out of it.
    fn granted(turns: &[Arc<Turn>]) -> (usize, RunContext) {
        turns
            .iter()
            .enumerate()
            .find_map(|(i, turn)| Some((i, turn.slot.lock().unwrap().take()?)))
            .expect("a turn was granted")
    }

    #[test]
    fn slots_are_granted_round_robin_across_clients() {
        let slots = Slots::new(1);
        let Some(Ok(mut ctx)) = slots.admit("a") else {
            panic!("the only slot is free");
        };
        let turns: Vec<Arc<Turn>> = ["a", "a", "b"]
            .into_iter()
            .map(|client| match slots.admit(client) {
                Some(Err(turn)) => turn,
                _ => panic!("the only slot is held"),
            })
            .collect();
        assert_eq!(slots.status().queued, 3);

        let mut order = Vec::new();
        for _ in 0..3 {
            slots.release(ctx);
            let (i, next) = granted(&turns);
            order.push(["a1", "a2", "b1"][i]);
            ctx = next;
        }
        assert_eq!(order, ["a1", "b1", "a2"]);
        let status = slots.status();
        assert_eq!((status.queued, status.running, status.completed), (0, 1, 3));
    }

    #[test]
    fn after_close_new_turns_are_refused_but_queued_turns_are_granted() {
        let slots = Slots::new(1);
        let Some(Ok(ctx)) = slots.admit("a") else {
            panic!("the only slot is free");
        };
        let Some(Err(turn)) = slots.admit("b") else {
            panic!("the only slot is held");
        };
        slots.turns.close();
        assert!(slots.admit("c").is_none());

        slots.release(ctx);
        let ctx = turn.wait();
        slots.release(ctx);
        // Refused even with a slot free.
        assert!(slots.admit("d").is_none());
        let status = slots.status();
        assert_eq!((status.queued, status.running, status.completed), (0, 0, 2));
    }

    #[test]
    fn join_waits_for_deliveries_in_flight() {
        let shared = Arc::new(test_shared(1));
        let delivery = shared.begin_delivery();
        let (tx, waited) = mpsc::channel();
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared.wait_delivered();
                tx.send(()).expect("test is listening");
            })
        };
        // Still waiting while the delivery is open...
        assert_eq!(
            waited.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Timeout)
        );
        // ...and released by its end.
        drop(delivery);
        waited.recv().expect("waiter returns");
        waiter.join().expect("waiter thread");
    }

    #[test]
    fn accept_loop_backs_off_on_persistent_errors_and_still_stops() {
        let shared = Arc::new(test_shared(1));
        let attempts = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        // `accept` failing forever, as with EMFILE.
        let failing = {
            let attempts = Arc::clone(&attempts);
            std::iter::repeat_with(move || {
                attempts.fetch_add(1, Ordering::SeqCst);
                Err(std::io::Error::other("too many open files"))
            })
        };
        let started = std::time::Instant::now();
        let accepting = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(failing, &shared))
        };
        while attempts.load(Ordering::SeqCst) < 3 {
            std::thread::yield_now();
        }
        shared.stopping.store(true, Ordering::SeqCst);
        accepting
            .join()
            .expect("accept thread ends once stopping is set");
        // Every failed attempt but the last was followed by a pause.
        let attempts = attempts.load(Ordering::SeqCst) as u32;
        assert!(
            started.elapsed() >= ACCEPT_BACKOFF * (attempts - 1),
            "{attempts} attempts in {:?}",
            started.elapsed()
        );
    }
}
