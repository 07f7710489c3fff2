//! A blocking client for the broker daemon.
//!
//! One [`Connection`] speaks the frame protocol over one TCP stream.
//! Submissions stream their events through a caller-supplied callback
//! and return the final response; the connection can then be reused for
//! the next request.
//!
//! A job's reply is thousands of small event frames, so the receive
//! path reuses its storage from one frame to the next
//! ([`FrameReader`]): reading a tick event allocates nothing.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use adhoc_grid::io::wire::FrameReader;

use crate::proto::{
    CampaignRequest, CampaignResponse, Event, MapRequest, MapResponse, OpenRequest, Request,
    ServerMsg, StatusRequest, StatusResponse,
};

/// A client connection to a broker daemon.
pub struct Connection {
    reader: BufReader<TcpStream>,
    frames: FrameReader,
    writer: TcpStream,
    /// The request being sent; kept for its capacity.
    outgoing: String,
}

impl Connection {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection {
            reader,
            frames: FrameReader::new(),
            writer,
            outgoing: String::new(),
        })
    }

    /// A request leaves in one write on the unbuffered socket.
    fn send(&mut self, request: &Request) -> Result<(), String> {
        self.outgoing.clear();
        request.encode_into(&mut self.outgoing);
        self.writer
            .write_all(self.outgoing.as_bytes())
            .map_err(|e| format!("sending to daemon: {e}"))
    }

    fn recv(&mut self) -> Result<ServerMsg, String> {
        match self.frames.read(&mut self.reader) {
            Ok(Some(frame)) => ServerMsg::from_frame(frame).map_err(|e| e.to_string()),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("reading from daemon: {e}")),
        }
    }

    /// Submit a request and collect the streamed reply: events go to
    /// `on_event` as they arrive; the first non-event message is
    /// returned.
    fn transact(
        &mut self,
        request: &Request,
        on_event: &mut dyn FnMut(&Event),
    ) -> Result<ServerMsg, String> {
        self.send(request)?;
        loop {
            match self.recv()? {
                ServerMsg::Event(event) => on_event(&event),
                other => return Ok(other),
            }
        }
    }

    /// Submit a mapping job; returns its deterministic report.
    pub fn submit_map(
        &mut self,
        req: &MapRequest,
        mut on_event: impl FnMut(&Event),
    ) -> Result<MapResponse, String> {
        match self.transact(&Request::Map(req.clone()), &mut on_event)? {
            ServerMsg::Map(resp) => Ok(resp),
            ServerMsg::Error(e) => Err(e.message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Submit an open-system streaming job; returns its deterministic
    /// open report.
    pub fn submit_open(
        &mut self,
        req: &OpenRequest,
        mut on_event: impl FnMut(&Event),
    ) -> Result<MapResponse, String> {
        match self.transact(&Request::Open(req.clone()), &mut on_event)? {
            ServerMsg::Map(resp) => Ok(resp),
            ServerMsg::Error(e) => Err(e.message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Submit a campaign batch job; returns its canonical report.
    pub fn submit_campaign(
        &mut self,
        req: &CampaignRequest,
        mut on_event: impl FnMut(&Event),
    ) -> Result<CampaignResponse, String> {
        match self.transact(&Request::Campaign(req.clone()), &mut on_event)? {
            ServerMsg::Campaign(resp) => Ok(resp),
            ServerMsg::Error(e) => Err(e.message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Fetch a status snapshot.
    pub fn status(&mut self) -> Result<StatusResponse, String> {
        match self.transact(&Request::Status(StatusRequest), &mut |_| {})? {
            ServerMsg::Status(resp) => Ok(resp),
            ServerMsg::Error(e) => Err(e.message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.transact(&Request::Shutdown, &mut |_| {})? {
            ServerMsg::Ok => Ok(()),
            ServerMsg::Error(e) => Err(e.message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}
