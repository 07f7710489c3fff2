//! The broker daemon: a TCP server executing mapping and campaign jobs
//! on a pool of worker threads.
//!
//! Threading model:
//!
//! * one **accept** thread turning connections into connection threads;
//! * one **connection** thread per client socket, reading request
//!   frames and streaming each job's events and final response back;
//! * `workers` **worker** threads, each owning one recycled
//!   [`RunContext`], popping jobs from the fair [`JobQueue`].
//!
//! Workers are plain threads (never rayon workers), so a campaign
//! unit's internal weight-search parallelism nests correctly.
//!
//! ## The reply path
//!
//! A worker encodes each message of a job's reply (`started`, one event
//! per committing clock tick, `done`, the response) into the job's
//! [`Outbox`]; the connection thread takes whatever has accumulated —
//! one chunk of bytes, not one message — and writes it through the
//! connection's `BufWriter`. Nothing on this path allocates per event.
//!
//! There is one flush rule: the connection thread flushes **before it
//! blocks** — on an empty outbox, or on the socket for the next request
//! — and after a job's last frame. A slow producer (campaign units
//! seconds apart) therefore sees every event leave as it is produced,
//! while a burst of ticks leaves as a few large segments. Sockets run
//! with `TCP_NODELAY`, so a flushed segment never waits for the peer's
//! delayed ACK. Where segments break is not part of the protocol; the
//! byte stream is.
//!
//! A client that disconnects mid-job only closes its outbox — the
//! worker keeps executing (campaign checkpoints keep advancing) and its
//! frames are dropped.
//!
//! Shutdown (`shutdown-request` frame or [`BrokerHandle::shutdown`]) is
//! graceful: admissions stop, queued jobs drain, workers exit, the
//! accept thread is poked awake and joins, and [`BrokerHandle::join`]
//! returns once every admitted job's reply has been written out.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use adhoc_grid::io::wire::FrameReader;
use slrh::RunContext;

use crate::execute::{execute_campaign, execute_map, execute_open};
use crate::proto::{
    CampaignRequest, ErrorResponse, Event, MapRequest, OpenRequest, Request, ServerMsg,
    StatusResponse,
};
use crate::queue::JobQueue;

/// Size of the blocks an [`Outbox`] backlog is kept in (about forty
/// tick frames).
const OUTBOX_BLOCK_BYTES: usize = 4 * 1024;

/// Capacity of a connection's write buffer: two outbox blocks.
const WRITE_BUFFER_BYTES: usize = 2 * OUTBOX_BLOCK_BYTES;

/// Written-out blocks an [`Outbox`] keeps for reuse: a producer the
/// connection keeps up with never needs a third.
const OUTBOX_SPARE_BLOCKS: usize = 2;

/// How long the accept thread waits after a failed `accept` (out of
/// file descriptors, typically) before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`BrokerHandle::addr`]).
    pub addr: String,
    /// Worker threads.
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

enum JobBody {
    Map(MapRequest),
    Open(OpenRequest),
    Campaign(CampaignRequest),
}

struct QueuedJob {
    id: u64,
    body: JobBody,
    reply: Reply,
}

/// One job's encoded reply frames, on their way from the thread that
/// produces them to the connection thread that writes them.
#[derive(Default)]
struct Outbox {
    pending: Mutex<Pending>,
    ready: Condvar,
}

#[derive(Default)]
struct Pending {
    /// Whole frames nobody has taken yet, in order, in blocks of about
    /// [`OUTBOX_BLOCK_BYTES`]: a backlog costs what it holds, with no
    /// doubling and no copy when it grows.
    blocks: Vec<String>,
    /// Written-out blocks, emptied, for the producer to fill again.
    spare: Vec<String>,
    /// The job's last frame is in `blocks` (or its producer is gone).
    finished: bool,
    /// The connection thread is blocked on `ready`.
    waiting: bool,
    /// The connection thread gave up on its client; frames are dropped.
    abandoned: bool,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, Pending> {
        // Holders only append, swap and set flags: a panic cannot
        // happen with the lock held.
        self.pending.lock().expect("outbox lock poisoned")
    }

    /// Wake the connection thread if it is blocked.
    fn wake(&self, pending: &mut Pending) {
        if std::mem::take(&mut pending.waiting) {
            self.ready.notify_one();
        }
    }
}

/// The producing end of an [`Outbox`]. Dropping it finishes the reply,
/// so a worker that dies mid-job releases its connection thread.
struct Reply {
    outbox: Arc<Outbox>,
    /// The frame being encoded, before it is appended under the lock.
    frame: String,
}

impl Reply {
    fn new() -> (Reply, Arc<Outbox>) {
        let outbox = Arc::new(Outbox::default());
        let reply = Reply {
            outbox: Arc::clone(&outbox),
            frame: String::new(),
        };
        (reply, outbox)
    }

    fn push(&mut self, msg: &ServerMsg, last: bool) {
        self.frame.clear();
        msg.encode_into(&mut self.frame);
        let mut pending = self.outbox.lock();
        if !pending.abandoned {
            match pending.blocks.last_mut() {
                Some(block) if block.len() + self.frame.len() <= OUTBOX_BLOCK_BYTES => {
                    block.push_str(&self.frame)
                }
                _ => {
                    let mut block = pending
                        .spare
                        .pop()
                        .unwrap_or_else(|| String::with_capacity(OUTBOX_BLOCK_BYTES));
                    block.push_str(&self.frame);
                    pending.blocks.push(block);
                }
            }
        }
        pending.finished |= last;
        self.outbox.wake(&mut pending);
    }

    /// Append one message of the reply.
    fn send(&mut self, msg: &ServerMsg) {
        self.push(msg, false);
    }

    /// Append the reply's last message.
    fn finish(mut self, msg: &ServerMsg) {
        self.push(msg, true);
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        // A poisoned lock takes the connection thread down by itself.
        if let Ok(mut pending) = self.outbox.pending.lock() {
            pending.finished = true;
            self.outbox.wake(&mut pending);
        }
    }
}

/// Write a job's reply to `out` as its outbox fills, until the last
/// frame is out.
///
/// The flush rule lives here: flush before blocking on an empty outbox,
/// and after the last frame. A write error abandons the outbox — the
/// producer carries on and its frames are dropped.
fn pump(out: &mut impl Write, outbox: &Outbox) -> std::io::Result<()> {
    let result = pump_until_finished(out, outbox);
    if result.is_err() {
        let mut pending = outbox.lock();
        pending.abandoned = true;
        pending.blocks = Vec::new();
    }
    result
}

fn pump_until_finished(out: &mut impl Write, outbox: &Outbox) -> std::io::Result<()> {
    // Swapped against the outbox's list, so the two vectors carry every
    // chunk of the job.
    let mut taken: Vec<String> = Vec::new();
    loop {
        let mut pending = outbox.lock();
        for mut block in taken.drain(..) {
            if pending.spare.len() < OUTBOX_SPARE_BLOCKS && block.capacity() <= OUTBOX_BLOCK_BYTES {
                block.clear();
                pending.spare.push(block);
            }
        }
        if pending.blocks.is_empty() && !pending.finished {
            drop(pending);
            out.flush()?;
            pending = outbox.lock();
            while pending.blocks.is_empty() && !pending.finished {
                pending.waiting = true;
                pending = outbox.ready.wait(pending).expect("outbox lock poisoned");
            }
        }
        std::mem::swap(&mut pending.blocks, &mut taken);
        let finished = pending.finished;
        drop(pending);
        for block in &taken {
            out.write_all(block.as_bytes())?;
        }
        if finished {
            return out.flush();
        }
    }
}

struct Shared {
    queue: JobQueue<QueuedJob>,
    addr: SocketAddr,
    workers: usize,
    running: AtomicUsize,
    completed: AtomicU64,
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
            queue: JobQueue::new(),
            addr,
            workers,
            running: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            deliveries: Mutex::new(0),
            delivered: Condvar::new(),
        }
    }

    fn status(&self) -> StatusResponse {
        StatusResponse {
            queued: self.queue.len(),
            running: self.running.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            workers: self.workers,
        }
    }

    fn initiate_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
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
    workers: Vec<JoinHandle<()>>,
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
        for w in self.workers {
            let _ = w.join();
        }
        self.shared.wait_delivered();
    }
}

/// Start a daemon. Returns once the listener is bound; jobs are
/// processed on background threads until shutdown.
pub fn serve(cfg: &BrokerConfig) -> std::io::Result<BrokerHandle> {
    assert!(cfg.workers > 0, "the broker needs at least one worker");
    let listener = TcpListener::bind(&cfg.addr)?;
    let shared = Arc::new(Shared::new(listener.local_addr()?, cfg.workers));

    let workers = (0..cfg.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener.incoming(), &shared))
    };

    Ok(BrokerHandle {
        shared,
        accept,
        workers,
    })
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
        match request {
            Request::Status(_) => {
                buffer_msg(&mut out, &mut scratch, &ServerMsg::Status(shared.status()))?;
            }
            Request::Shutdown => {
                buffer_msg(&mut out, &mut scratch, &ServerMsg::Ok)?;
                out.flush()?;
                shared.initiate_shutdown();
                return Ok(());
            }
            Request::Map(req) => {
                let client = req.client.clone();
                submit(shared, &client, JobBody::Map(req), &mut out, &mut scratch)?;
            }
            Request::Open(req) => {
                let client = req.client.clone();
                submit(shared, &client, JobBody::Open(req), &mut out, &mut scratch)?;
            }
            Request::Campaign(req) => {
                let client = req.client.clone();
                submit(
                    shared,
                    &client,
                    JobBody::Campaign(req),
                    &mut out,
                    &mut scratch,
                )?;
            }
        }
    }
}

/// Enqueue a job and stream its events and final response to `out`.
fn submit(
    shared: &Shared,
    client: &str,
    body: JobBody,
    out: &mut impl Write,
    scratch: &mut String,
) -> std::io::Result<()> {
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst) + 1;
    let _delivery = shared.begin_delivery();
    let (mut reply, outbox) = Reply::new();
    reply.send(&ServerMsg::Event(Event::Queued { job: id }));
    if !shared.queue.push(client, QueuedJob { id, body, reply }) {
        return buffer_msg(out, scratch, &rejection("daemon is shutting down".into()));
    }
    pump(out, &outbox)
}

/// One worker: pop, execute, stream, repeat until the queue closes.
/// The context persists across jobs, so consecutive jobs on a worker
/// recycle the same buffers.
fn worker_loop(shared: &Shared) {
    let mut ctx = RunContext::new();
    while let Some(job) = shared.queue.pop() {
        run_job(shared, &mut ctx, job);
    }
}

/// Execute one job, streaming its reply. Whether anyone still reads the
/// reply makes no difference: the job runs to completion (campaign
/// checkpoints must keep advancing).
fn run_job(shared: &Shared, ctx: &mut RunContext, job: QueuedJob) {
    shared.running.fetch_add(1, Ordering::SeqCst);
    let QueuedJob {
        id,
        body,
        mut reply,
    } = job;
    reply.send(&ServerMsg::Event(Event::Started { job: id }));
    let mut emit = |event: Event| reply.send(&ServerMsg::Event(event));
    let outcome = match &body {
        JobBody::Map(req) => execute_map(id, req, ctx, &mut emit).map(ServerMsg::Map),
        JobBody::Open(req) => execute_open(id, req, ctx, &mut emit).map(ServerMsg::Map),
        JobBody::Campaign(req) => execute_campaign(id, req, &mut emit).map(ServerMsg::Campaign),
    };
    let final_msg = match outcome {
        Ok(msg) => {
            reply.send(&ServerMsg::Event(Event::Done { job: id }));
            msg
        }
        Err(message) => ServerMsg::Error(ErrorResponse {
            job: Some(id),
            message,
        }),
    };
    // Counted before the response leaves, so a client holding its
    // response always finds its job under `completed`.
    shared.running.fetch_sub(1, Ordering::SeqCst);
    shared.completed.fetch_add(1, Ordering::SeqCst);
    reply.finish(&final_msg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{MapResponse, ScenarioSpec};
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

    /// A client that has gone away.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn tick(n: u64) -> ServerMsg {
        ServerMsg::Event(Event::Tick {
            job: 1,
            clock: 10 * n,
            tick: n,
            mapped: n as usize,
            commits: 1,
            idle: n % 4,
        })
    }

    fn response() -> ServerMsg {
        ServerMsg::Map(MapResponse {
            job: 1,
            report: "lrh-grid report v1\nvalid=yes\n".into(),
        })
    }

    fn wire(msgs: &[ServerMsg]) -> String {
        msgs.iter().map(|m| m.to_frame().encode()).collect()
    }

    /// Writes received until the next flush, concatenated.
    fn writes_until_flush(ops: &mpsc::Receiver<Op>) -> String {
        let mut text = String::new();
        loop {
            match ops.recv().expect("pump is running") {
                Op::Write(t) => text.push_str(&t),
                Op::Flush => return text,
            }
        }
    }

    #[test]
    fn pump_flushes_once_when_the_outbox_runs_dry_and_once_after_the_last_frame() {
        // More than one block's worth, all there before the pump starts.
        let burst: Vec<ServerMsg> = (0..300).map(tick).collect();
        assert!(wire(&burst).len() > 2 * OUTBOX_BLOCK_BYTES);
        let (mut reply, outbox) = Reply::new();
        for msg in &burst {
            reply.send(msg);
        }

        let (tx, ops) = mpsc::channel();
        let pumping = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || pump(&mut Recorder(tx), &outbox))
        };

        // Every frame of the burst, then one flush, then the pump
        // blocks: `waiting` is set with the lock held, after the flush.
        assert_eq!(writes_until_flush(&ops), wire(&burst));
        while !outbox.lock().waiting {
            std::thread::yield_now();
        }
        assert_eq!(ops.try_recv(), Err(mpsc::TryRecvError::Empty));

        // A late event leaves at once: streaming stays live.
        reply.send(&tick(300));
        assert_eq!(writes_until_flush(&ops), wire(&[tick(300)]));

        // The last frame is flushed and ends the pump.
        reply.finish(&response());
        assert_eq!(writes_until_flush(&ops), wire(&[response()]));
        pumping
            .join()
            .expect("pump thread")
            .expect("no write error");
        assert_eq!(ops.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn pump_sends_a_finished_reply_with_one_flush() {
        let msgs = [tick(1), tick(2), response()];
        let (mut reply, outbox) = Reply::new();
        reply.send(&msgs[0]);
        reply.send(&msgs[1]);
        reply.finish(&msgs[2]);
        let (tx, ops) = mpsc::channel();
        pump(&mut Recorder(tx), &outbox).expect("no write error");
        let ops: Vec<Op> = ops.iter().collect();
        assert_eq!(ops.last(), Some(&Op::Flush));
        assert_eq!(ops.iter().filter(|op| **op == Op::Flush).count(), 1);
        let written: String = ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(t) => Some(t.as_str()),
                Op::Flush => None,
            })
            .collect();
        assert_eq!(written, wire(&msgs));
    }

    #[test]
    fn a_dropped_reply_ends_the_pump() {
        let (mut reply, outbox) = Reply::new();
        reply.send(&tick(1));
        drop(reply); // a worker that died mid-job
        let (tx, ops) = mpsc::channel();
        pump(&mut Recorder(tx), &outbox).expect("no write error");
        assert_eq!(writes_until_flush(&ops), wire(&[tick(1)]));
    }

    fn test_shared() -> Shared {
        Shared::new("127.0.0.1:1".parse().expect("an address"), 1)
    }

    #[test]
    fn a_write_error_ends_the_pump_and_the_job_still_completes() {
        let (mut reply, outbox) = Reply::new();
        reply.send(&ServerMsg::Event(Event::Queued { job: 1 }));
        let err = pump(&mut Broken, &outbox).expect_err("the client is gone");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);

        // The worker runs the whole job; its frames go nowhere.
        let shared = test_shared();
        let req = MapRequest {
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
        };
        let job = QueuedJob {
            id: 1,
            body: JobBody::Map(req),
            reply,
        };
        run_job(&shared, &mut RunContext::new(), job);
        assert_eq!(shared.status().completed, 1);
        assert_eq!(shared.status().running, 0);
        let pending = outbox.lock();
        assert!(
            pending.blocks.is_empty(),
            "frames kept for a client that left"
        );
        assert!(pending.finished);
    }

    #[test]
    fn join_waits_for_deliveries_in_flight() {
        let shared = Arc::new(test_shared());
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
        let shared = Arc::new(test_shared());
        let attempts = Arc::new(AtomicUsize::new(0));
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
