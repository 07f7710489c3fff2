//! Generic framing for the broker's line-delimited wire protocol.
//!
//! A *frame* is the unit of exchange between a broker daemon and its
//! clients: a versioned header naming the message kind, `key=value`
//! entries, optional named raw blocks (verbatim multi-line payloads,
//! e.g. an embedded scenario or a final report), and an `end` line:
//!
//! ```text
//! lrh-grid-wire v1 <kind>
//! key=value
//! ...
//! raw <name> <line-count>
//! <line-count verbatim lines>
//! end
//! ```
//!
//! This module knows nothing about *which* kinds and keys exist — that
//! typed layer lives with the broker (`crates/broker`'s `proto`
//! module). Keeping the framing here, next to [`super::kv`], means the
//! scenario codec, the stress corpus and the wire protocol all share
//! one set of lexical conventions.
//!
//! ## Versioning rules
//!
//! * The header pins the **protocol version** (`v1`). A reader must
//!   reject any other version — there is no cross-version negotiation.
//! * Within a version, adding a new *optional* key to an existing kind
//!   is a compatible change: readers ignore unknown keys. Adding a new
//!   kind, removing a key, or changing a key's meaning requires a
//!   version bump.
//! * Entry lines may carry `#` comments; raw-block lines are verbatim
//!   (never trimmed, comments preserved).
//!
//! ## Robustness limits
//!
//! [`FrameReader`] (and [`read_frame`] on top of it) enforces hard caps
//! on line length, entry count, raw-block size and a frame's total
//! bytes, so a malformed or hostile peer cannot make the daemon buffer
//! unbounded input. A unit test pins each cap at its boundary, through
//! a whole text and through a default `BufReader`.
//!
//! ## One text emitter, one parser
//!
//! [`FrameWriter`] is the only code that produces wire text and
//! [`FrameReader`] the only code that parses it. A typed message states
//! its fields once, against [`FieldSink`]: into a [`Frame`] it becomes
//! the typed value tests and tools inspect, into a [`FrameWriter`] it
//! becomes bytes in a caller-owned buffer with no allocation in
//! between — which is what the daemon's event stream uses.

use std::fmt::{Display, Write as _};
use std::io::BufRead;

use super::kv::{split_pair, KvError};

/// The protocol version this build speaks.
pub const WIRE_VERSION: &str = "v1";

/// Header prefix of every frame.
pub const WIRE_MAGIC: &str = "lrh-grid-wire";

/// Longest accepted line, in bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most entries accepted in one frame.
pub const MAX_ENTRIES: usize = 1 << 16;

/// Most verbatim lines accepted in one raw block.
pub const MAX_BLOCK_LINES: usize = 1 << 20;

/// Most bytes accepted in one frame, counting every line of it — the
/// header, the entries and the raw-block lines — with its newline. The
/// caps above bound a line and a block's line count but not how many
/// blocks a frame carries, so without this one frame could make the
/// daemon buffer up to 2^40 bytes per block: an allocation failure,
/// which aborts the process and which no `catch_unwind` answers.
///
/// Sizing: the largest frame any shipped path produces is a request
/// carrying an inline (`--in`) scenario of
/// [`crate::units::MAX_INPUT_TASKS`] subtasks, and
/// `lrh-grid export --tasks 65536 --case A` writes 10 960 857 bytes, so
/// 64 MiB leaves six times that.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// A decoded (or to-be-encoded) frame.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The message kind from the header line.
    pub kind: String,
    /// `key=value` entries, in order; repeated keys are allowed.
    pub entries: Vec<(String, String)>,
    /// Named raw blocks, in order. Block text is newline-terminated.
    pub blocks: Vec<(String, String)>,
}

impl Frame {
    /// A new, empty frame of the given kind.
    pub fn new(kind: impl Into<String>) -> Frame {
        Frame {
            kind: kind.into(),
            entries: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Append an entry. Keys must be bare identifiers; values must be a
    /// single line and must not contain `#` (the comment delimiter).
    /// Both are enforced here so every encoded frame re-parses.
    pub fn push(&mut self, key: &str, value: impl Into<String>) -> &mut Frame {
        let value = value.into();
        debug_assert!(
            key.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "bad wire key {key:?}"
        );
        assert!(
            !value.contains('\n') && !value.contains('#'),
            "wire value for {key:?} contains a newline or '#': {value:?}"
        );
        self.entries.push((key.to_string(), value));
        self
    }

    /// Append a raw block. `text` is carried verbatim line by line; a
    /// missing final newline is added (block text is always
    /// newline-terminated on both sides of the wire).
    pub fn block(&mut self, name: &str, text: impl Into<String>) -> &mut Frame {
        let mut text = text.into();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        self.blocks.push((name.to_string(), text));
        self
    }

    /// First value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of `key`, or a structural [`KvError`].
    pub fn req(&self, key: &str) -> Result<&str, KvError> {
        self.get(key).ok_or_else(|| KvError {
            line: 0,
            message: format!("{} frame missing required key {key:?}", self.kind),
        })
    }

    /// Every value of `key`, in order.
    pub fn all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The required value of `key` through `parser`; a parse failure is
    /// a structural [`KvError`] prefixed with the key.
    pub fn parse<T, E: Display>(
        &self,
        key: &str,
        parser: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, KvError> {
        parser(self.req(key)?).map_err(|e| keyed(key, e))
    }

    /// [`Frame::parse`] for an optional key: `None` when it is absent.
    pub fn parse_opt<T, E: Display>(
        &self,
        key: &str,
        parser: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, KvError> {
        self.get(key)
            .map(|s| parser(s).map_err(|e| keyed(key, e)))
            .transpose()
    }

    /// [`Frame::parse`] for a repeated key: every value, in order.
    pub fn parse_all<T, E: Display>(
        &self,
        key: &str,
        parser: impl Fn(&str) -> Result<T, E>,
    ) -> Result<Vec<T>, KvError> {
        self.all(key)
            .map(|s| parser(s).map_err(|e| keyed(key, e)))
            .collect()
    }

    /// First raw block named `name`, if present.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.blocks
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }

    /// First raw block named `name`, or a structural [`KvError`].
    pub fn req_raw(&self, name: &str) -> Result<&str, KvError> {
        self.raw(name).ok_or_else(|| KvError {
            line: 0,
            message: format!("{} frame missing required block {name:?}", self.kind),
        })
    }

    /// Encode to the wire text. The result always re-parses to an equal
    /// frame ([`Frame::decode`]), which the broker's wire property suite
    /// (`crates/broker/tests/proptest_wire_roundtrip.rs`) checks.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the wire text to `out`, whatever it already holds.
    pub fn encode_into(&self, out: &mut String) {
        let mut w = FrameWriter::begin(out, &self.kind);
        for (k, v) in &self.entries {
            w.put(k, v);
        }
        for (name, text) in &self.blocks {
            w.put_block(name, text);
        }
        w.end();
    }

    /// Decode a single frame from a complete text.
    pub fn decode(text: &str) -> Result<Frame, KvError> {
        let mut bytes = text.as_bytes();
        match read_frame(&mut bytes)? {
            Some(frame) => Ok(frame),
            None => super::kv::err(0, "empty input where a frame was expected"),
        }
    }
}

/// A value of `key` that did not parse.
fn keyed(key: &str, e: impl Display) -> KvError {
    KvError {
        line: 0,
        message: format!("{key}: {e}"),
    }
}

/// Where a typed message puts its fields, in wire order: entries
/// first, raw blocks after them.
pub trait FieldSink {
    /// One `key=value` entry. The rendered value must be a single line
    /// without `#` (the comment delimiter); both sinks enforce it, so
    /// every encoded frame re-parses.
    fn put(&mut self, key: &str, value: impl Display);

    /// One raw block, carried verbatim line by line; a missing final
    /// newline is added.
    fn put_block(&mut self, name: &str, text: &str);
}

impl FieldSink for Frame {
    fn put(&mut self, key: &str, value: impl Display) {
        self.push(key, value.to_string());
    }

    fn put_block(&mut self, name: &str, text: &str) {
        self.block(name, text);
    }
}

/// Writes one frame's wire text straight into a caller-owned buffer.
pub struct FrameWriter<'a> {
    out: &'a mut String,
}

impl<'a> FrameWriter<'a> {
    /// Append the header line of a `kind` frame to `out`.
    pub fn begin(out: &'a mut String, kind: &str) -> FrameWriter<'a> {
        out.push_str(WIRE_MAGIC);
        out.push(' ');
        out.push_str(WIRE_VERSION);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        FrameWriter { out }
    }

    /// Append the `end` line.
    pub fn end(self) {
        self.out.push_str("end\n");
    }
}

impl FieldSink for FrameWriter<'_> {
    fn put(&mut self, key: &str, value: impl Display) {
        debug_assert!(
            key.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "bad wire key {key:?}"
        );
        self.out.push_str(key);
        self.out.push('=');
        let start = self.out.len();
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        let written = &self.out[start..];
        assert!(
            !written.contains(['\n', '#']),
            "wire value for {key:?} contains a newline or '#': {written:?}"
        );
        self.out.push('\n');
    }

    fn put_block(&mut self, name: &str, text: &str) {
        let lines = text.lines().count();
        writeln!(self.out, "raw {name} {lines}").expect("writing to a String cannot fail");
        self.out.push_str(text);
        if !text.is_empty() && !text.ends_with('\n') {
            self.out.push('\n');
        }
    }
}

/// Most entry pairs a [`FrameReader`] keeps for reuse between frames.
const SPARE_ENTRIES: usize = 16;

/// Largest entry pair (key plus value capacity, in bytes) worth keeping.
const SPARE_ENTRY_BYTES: usize = 256;

/// Line-buffer capacity a [`FrameReader`] keeps between frames.
const SPARE_LINE_BYTES: usize = 4096;

/// Reads frames off a stream, reusing its line buffer and the previous
/// frame's storage: in the steady state of an event stream (small
/// frames of a few entries) reading a frame allocates nothing. What is
/// kept between frames is bounded by the three constants above, so one
/// oversized frame from a hostile peer is not held for the life of the
/// connection.
#[derive(Default)]
pub struct FrameReader {
    line: Vec<u8>,
    frame: Frame,
    /// Entry strings of earlier frames, kept for their capacity.
    spare: Vec<(String, String)>,
}

impl FrameReader {
    /// A reader with nothing buffered.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read one frame from `reader`. The frame lives until the next
    /// call.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (no bytes before EOF),
    /// an error on a truncated or malformed frame. Blank and
    /// comment-only lines between frames and between entries are
    /// skipped; raw-block lines are verbatim.
    pub fn read(&mut self, reader: &mut impl BufRead) -> Result<Option<&Frame>, KvError> {
        let FrameReader { line, frame, spare } = self;
        for pair in frame.entries.drain(..) {
            if spare.len() < SPARE_ENTRIES
                && pair.0.capacity() + pair.1.capacity() <= SPARE_ENTRY_BYTES
            {
                spare.push(pair);
            }
        }
        frame.entries.shrink_to(SPARE_ENTRIES);
        frame.blocks.clear();
        frame.blocks.shrink_to(SPARE_ENTRIES);
        frame.kind.clear();
        line.shrink_to(SPARE_LINE_BYTES);

        // Bytes of this frame read so far; blank and comment lines
        // before its header belong to no frame.
        let mut size = 0usize;
        // Locate the header, skipping blank/comment lines between frames.
        loop {
            let Some(raw) = read_line(reader, 0, line)? else {
                return Ok(None);
            };
            let header = meaningful(raw);
            if !header.is_empty() {
                size = charge(size, raw, 1)?;
                parse_header(header, &mut frame.kind)?;
                break;
            }
        }

        let mut line_no = 1usize;
        loop {
            let Some(raw) = read_line(reader, line_no, line)? else {
                return super::kv::err(0, format!("{} frame truncated before end", frame.kind));
            };
            line_no += 1;
            size = charge(size, raw, line_no)?;
            let entry = meaningful(raw);
            if entry.is_empty() {
                continue;
            }
            if entry == "end" {
                return Ok(Some(frame));
            }
            if let Some(rest) = entry.strip_prefix("raw ") {
                let mut p = rest.split_whitespace();
                let (name, count) = match (p.next(), p.next(), p.next()) {
                    (Some(n), Some(c), None) => (n.to_string(), c),
                    _ => return super::kv::err(line_no, format!("bad raw block header {raw:?}")),
                };
                let count: usize = count.parse().map_err(|_| KvError {
                    line: line_no,
                    message: format!("bad raw block line count {count:?}"),
                })?;
                if count > MAX_BLOCK_LINES {
                    return super::kv::err(
                        line_no,
                        format!("raw block of {count} lines exceeds cap"),
                    );
                }
                let mut text = String::new();
                for _ in 0..count {
                    let Some(raw) = read_line(reader, line_no, line)? else {
                        return super::kv::err(0, format!("raw block {name:?} truncated"));
                    };
                    line_no += 1;
                    size = charge(size, raw, line_no)?;
                    text.push_str(raw);
                    text.push('\n');
                }
                frame.blocks.push((name, text));
                continue;
            }
            let (k, v) = split_pair(line_no, entry)?;
            if frame.entries.len() >= MAX_ENTRIES {
                return super::kv::err(line_no, "frame exceeds entry cap");
            }
            let mut pair = spare.pop().unwrap_or_default();
            pair.0.clear();
            pair.0.push_str(k);
            pair.1.clear();
            pair.1.push_str(v);
            frame.entries.push(pair);
        }
    }
}

/// Read one frame from `reader` into a frame of its own; see
/// [`FrameReader::read`], which this is one call of.
pub fn read_frame(reader: &mut impl BufRead) -> Result<Option<Frame>, KvError> {
    let mut frames = FrameReader::new();
    let complete = frames.read(reader)?.is_some();
    Ok(complete.then_some(frames.frame))
}

/// `size` plus line `raw` of a frame and its newline, refused past
/// [`MAX_FRAME_BYTES`]. `at` is the line's number in the frame.
fn charge(size: usize, raw: &str, at: usize) -> Result<usize, KvError> {
    let size = size + raw.len() + 1;
    if size > MAX_FRAME_BYTES {
        return super::kv::err(at, "frame exceeds size cap");
    }
    Ok(size)
}

/// A line with its `#` comment and surrounding whitespace removed.
fn meaningful(line: &str) -> &str {
    line.split('#').next().unwrap_or("").trim()
}

/// Check a header line and store the kind it names in `kind`.
fn parse_header(header: &str, kind: &mut String) -> Result<(), KvError> {
    let mut parts = header.split_whitespace();
    if parts.next() != Some(WIRE_MAGIC) {
        return super::kv::err(1, format!("bad wire header {header:?}"));
    }
    match parts.next() {
        Some(WIRE_VERSION) => {}
        Some(other) => {
            return super::kv::err(
                1,
                format!("unsupported wire version {other:?} (this build speaks {WIRE_VERSION})"),
            )
        }
        None => return super::kv::err(1, format!("wire header {header:?} names no version")),
    }
    let Some(name) = parts.next() else {
        return super::kv::err(1, format!("wire header {header:?} names no kind"));
    };
    if parts.next().is_some() {
        return super::kv::err(1, format!("trailing tokens in wire header {header:?}"));
    }
    kind.push_str(name);
    Ok(())
}

/// Read one `\n`-terminated line (without the terminator) into `buf`,
/// enforcing the length cap. `Ok(None)` on EOF before any byte.
fn read_line<'a>(
    reader: &mut impl BufRead,
    at: usize,
    buf: &'a mut Vec<u8>,
) -> Result<Option<&'a str>, KvError> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf().map_err(|e| KvError {
            line: at,
            message: format!("read error: {e}"),
        })?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            break; // final unterminated line
        }
        // Every chunk counts toward the cap, the one ending the line too.
        let newline = chunk.iter().position(|&b| b == b'\n');
        let n = newline.unwrap_or(chunk.len());
        if buf.len() + n > MAX_LINE_BYTES {
            return super::kv::err(at, "line exceeds length cap");
        }
        buf.extend_from_slice(&chunk[..n]);
        reader.consume(n + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    std::str::from_utf8(buf).map(Some).map_err(|_| KvError {
        line: at,
        message: "line is not valid UTF-8".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        let mut f = Frame::new("map-request");
        f.push("job", "7")
            .push("heuristic", "SLRH-1")
            .push("loss", "0@100")
            .push("loss", "1@200")
            .block("scenario", "lrh-grid-scenario v1\ncase A\nend\n");
        f
    }

    #[test]
    fn encode_decode_round_trips() {
        let f = sample();
        let text = f.encode();
        let back = Frame::decode(&text).expect("decode");
        assert_eq!(back, f);
        // Encoding again is a fixpoint.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn repeated_keys_keep_order() {
        let f = Frame::decode(&sample().encode()).unwrap();
        let losses: Vec<&str> = f.all("loss").collect();
        assert_eq!(losses, vec!["0@100", "1@200"]);
    }

    #[test]
    fn streaming_reads_consecutive_frames() {
        let mut text = sample().encode();
        let mut second = Frame::new("status-request");
        second.push("client", "cli");
        text.push_str("\n# separator comment\n");
        text.push_str(&second.encode());
        let mut bytes = text.as_bytes();
        let a = read_frame(&mut bytes).unwrap().unwrap();
        let b = read_frame(&mut bytes).unwrap().unwrap();
        assert_eq!(a.kind, "map-request");
        assert_eq!(b.kind, "status-request");
        assert!(read_frame(&mut bytes).unwrap().is_none());
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        let e = Frame::decode("lrh-grid-wire v9 nope\nend\n").unwrap_err();
        assert!(e.message.contains("unsupported wire version"));
        let text = sample().encode();
        for cut in [text.len() / 3, text.len() / 2, text.len() - 2] {
            assert!(Frame::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn parsed_values_name_their_key_in_errors() {
        let f = sample();
        let int = |s: &str| s.parse::<u64>();
        assert_eq!(f.parse("job", int), Ok(7));
        assert_eq!(f.parse_opt("job", int), Ok(Some(7)));
        assert_eq!(f.parse_opt("absent", int), Ok(None));
        let pairs = f.parse_all("loss", crate::io::kv::parse_at_pair);
        assert_eq!(pairs, Ok(vec![(0, 100), (1, 200)]));
        assert!(f
            .parse("absent", int)
            .unwrap_err()
            .message
            .contains("missing required key"));
        let bad = [
            f.parse("heuristic", int).unwrap_err(),
            f.parse_opt("heuristic", int).unwrap_err(),
            f.parse_all("heuristic", int).unwrap_err(),
        ];
        assert!(
            bad.iter().all(|e| e.message.starts_with("heuristic: ")),
            "{bad:?}"
        );
    }

    #[test]
    fn raw_blocks_are_verbatim() {
        let mut f = Frame::new("x");
        f.block("b", "  indented # not a comment\n\nblank kept\n");
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(
            back.raw("b").unwrap(),
            "  indented # not a comment\n\nblank kept\n"
        );
    }

    #[test]
    fn writer_rejects_what_push_rejects() {
        let mut out = String::new();
        let mut w = FrameWriter::begin(&mut out, "x");
        let hostile = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.put("k", "a#b")));
        assert!(hostile.is_err(), "a '#' in a value must not reach the wire");
    }

    #[test]
    fn reused_reader_reads_what_fresh_readers_read_and_keeps_little() {
        let mut big = Frame::new("big");
        for i in 0..100 {
            big.push("k", format!("{i}"));
        }
        big.push("long", "x".repeat(10_000));
        big.block("b", "one\ntwo\n");
        let text = format!("{}{}{}", big.encode(), sample().encode(), big.encode());

        let mut reused = text.as_bytes();
        let mut fresh = text.as_bytes();
        let mut frames = FrameReader::new();
        for _ in 0..3 {
            let expected = read_frame(&mut fresh).unwrap().unwrap();
            assert_eq!(frames.read(&mut reused).unwrap(), Some(&expected));
        }
        assert_eq!(frames.read(&mut reused).unwrap(), None);

        // What an oversized frame leaves behind is bounded.
        assert!(frames.spare.len() <= SPARE_ENTRIES);
        assert!(frames
            .spare
            .iter()
            .all(|(k, v)| k.capacity() + v.capacity() <= SPARE_ENTRY_BYTES));
        assert!(frames.frame.entries.capacity() <= SPARE_ENTRIES);
        assert!(frames.line.capacity() <= SPARE_LINE_BYTES);
    }

    /// Decode `text` through [`Frame::decode`] and through a
    /// default-capacity `BufReader`, as the daemon wraps its sockets: a
    /// cap must hold however the input arrives in chunks.
    fn decode_both_ways(text: &str) -> Result<Frame, KvError> {
        let direct = Frame::decode(text);
        let buffered = read_frame(&mut std::io::BufReader::new(text.as_bytes()));
        assert_eq!(
            buffered.as_ref().map(Option::as_ref),
            direct.as_ref().map(Some)
        );
        direct
    }

    /// A frame of exactly `bytes` bytes: one raw block of lines no
    /// longer than [`MAX_LINE_BYTES`].
    fn frame_of(bytes: usize) -> String {
        let lines = bytes.div_ceil(MAX_LINE_BYTES);
        let mut text = format!("lrh-grid-wire v1 x\nraw b {lines}\n");
        let mut left = bytes - text.len() - "end\n".len();
        for i in 0..lines {
            let len = left / (lines - i);
            text.push_str(&"v".repeat(len - 1));
            text.push('\n');
            left -= len;
        }
        text.push_str("end\n");
        assert_eq!(text.len(), bytes);
        text
    }

    #[test]
    fn every_cap_accepts_its_value_and_rejects_one_past_it() {
        let line = |bytes: usize| format!("lrh-grid-wire v1 x\nk={}\nend\n", "v".repeat(bytes - 2));
        let entries = |n: usize| format!("lrh-grid-wire v1 x\n{}end\n", "k=v\n".repeat(n));
        let block = |n: usize| format!("lrh-grid-wire v1 x\nraw b {n}\n{}end\n", "\n".repeat(n));
        let past_block = format!("lrh-grid-wire v1 x\nraw b {}\n", MAX_BLOCK_LINES + 1);
        // The size case is built only when reached: its two texts are
        // 64 MiB each.
        let size = std::iter::once_with(|| {
            (
                frame_of(MAX_FRAME_BYTES),
                frame_of(MAX_FRAME_BYTES + 1),
                "frame exceeds size cap".to_string(),
            )
        });
        let cases = [
            (
                line(MAX_LINE_BYTES),
                line(MAX_LINE_BYTES + 1),
                "line exceeds length cap".into(),
            ),
            (
                entries(MAX_ENTRIES),
                entries(MAX_ENTRIES + 1),
                "frame exceeds entry cap".into(),
            ),
            (
                block(MAX_BLOCK_LINES),
                past_block,
                format!("raw block of {} lines exceeds cap", MAX_BLOCK_LINES + 1),
            ),
        ];
        for (at_cap, past_cap, message) in cases.into_iter().chain(size) {
            assert!(
                decode_both_ways(&at_cap).is_ok(),
                "{message}: the cap itself is refused"
            );
            assert_eq!(decode_both_ways(&past_cap).unwrap_err().message, message);
        }
    }

    #[test]
    #[should_panic(expected = "newline")]
    fn push_rejects_multiline_values() {
        Frame::new("x").push("k", "a\nb");
    }
}
