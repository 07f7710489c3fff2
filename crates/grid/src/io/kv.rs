//! The shared line-oriented `key=value` codec.
//!
//! Three text formats in the workspace are built from the same few
//! ingredients — numbered lines, `#` comments, `key=value` pairs,
//! integers that may be written in hex, and `f64`s that must survive a
//! round-trip bit for bit:
//!
//! * the stress corpus (`crates/stress`, reproducer `.case` files),
//! * the broker wire protocol (`crates/broker`, [`super::wire`]),
//! * the broker's batch-job checkpoints.
//!
//! This module is the one implementation they all share. It is
//! deliberately small: a numbered, comment-stripping line iterator
//! ([`Lines`]), a pair splitter ([`split_pair`]), and the scalar
//! parsers/formatters. Anything format-specific (which keys exist,
//! which are required) stays with the format.
//!
//! ## Float conventions
//!
//! Two float encodings are supported, chosen per format:
//!
//! * **bit patterns** ([`format_f64_bits`]/[`parse_f64_bits`]): the raw
//!   IEEE-754 bits in hex (`3fe0000000000000`), optionally followed by a
//!   `#` comment carrying the human-readable value. Exact for every
//!   value including NaNs; used by the stress corpus.
//! * **shortest round-trip decimal** ([`format_f64`]/[`parse_f64`]):
//!   Rust's `{:?}` rendering, the shortest decimal string that parses
//!   back to the identical `f64`. Exact for every finite value and
//!   human-readable; used by the wire protocol.

/// A parse error: the 1-based line number (0 when structural, e.g.
/// truncated input) and a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KvError {
    /// 1-based line number of the offending line (0 = structural).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for KvError {}

/// Build a [`KvError`] result.
pub fn err<T>(line: usize, message: impl Into<String>) -> Result<T, KvError> {
    Err(KvError {
        line,
        message: message.into(),
    })
}

/// Iterator over the meaningful lines of a `key=value` document:
/// 1-based line numbers, `#` comments stripped, surrounding whitespace
/// trimmed, blank (or comment-only) lines skipped.
pub struct Lines<'a> {
    inner: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    /// Iterate the meaningful lines of `text`.
    pub fn new(text: &'a str) -> Lines<'a> {
        Lines {
            inner: text.lines().enumerate(),
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        for (i, raw) in self.inner.by_ref() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if !line.is_empty() {
                return Some((i + 1, line));
            }
        }
        None
    }
}

/// Split a meaningful line into a trimmed `(key, value)` pair.
pub fn split_pair(line_no: usize, line: &str) -> Result<(&str, &str), KvError> {
    let (key, value) = line.split_once('=').ok_or_else(|| KvError {
        line: line_no,
        message: format!("expected key=value, got {line:?}"),
    })?;
    Ok((key.trim(), value.trim()))
}

/// Parse a `u64` written in decimal or (with a `0x` prefix) hex;
/// underscores in hex are ignored.
pub fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.parse(),
    };
    r.map_err(|e| format!("bad integer {s:?}: {e}"))
}

/// Parse a `usize` with the same conventions as [`parse_u64`].
pub fn parse_usize(s: &str) -> Result<usize, String> {
    parse_u64(s).map(|v| v as usize)
}

/// An `f64` that displays as its raw bit pattern in hex (16 digits),
/// for writers that format into a buffer of their own.
pub struct F64Bits(pub f64);

impl std::fmt::Display for F64Bits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

/// Format an `f64` as its raw bit pattern in hex (16 digits).
pub fn format_f64_bits(v: f64) -> String {
    F64Bits(v).to_string()
}

/// Parse an `f64` from its raw bit pattern in hex.
pub fn parse_f64_bits(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad f64 bit pattern {s:?}: {e}"))
}

/// Format a finite `f64` as the shortest decimal string that parses back
/// to the identical value (`{:?}`).
pub fn format_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Parse an `f64` from its decimal rendering. Exact inverse of
/// [`format_f64`] for every finite value.
pub fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("bad float {s:?}: {e}"))
}

/// Parse a `machine@tick` pair (shared by churn-event and wire-event
/// encodings).
pub fn parse_at_pair(s: &str) -> Result<(usize, u64), String> {
    let (m, at) = s
        .split_once('@')
        .ok_or_else(|| format!("expected machine@tick, got {s:?}"))?;
    Ok((parse_usize(m.trim())?, parse_u64(at.trim())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_strip_comments_and_blanks() {
        let doc = "# header\n\na=1 # trailing\n   \nb = 2\n";
        let got: Vec<(usize, &str)> = Lines::new(doc).collect();
        assert_eq!(got, vec![(3, "a=1"), (5, "b = 2")]);
    }

    #[test]
    fn split_pair_trims() {
        assert_eq!(split_pair(1, "key = value").unwrap(), ("key", "value"));
        assert!(split_pair(1, "no pair").is_err());
    }

    #[test]
    fn u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("42").unwrap(), 42);
        assert_eq!(parse_u64("0xff").unwrap(), 255);
        assert_eq!(parse_u64("0xdead_beef").unwrap(), 0xdead_beef);
        assert!(parse_u64("nope").is_err());
    }

    #[test]
    fn f64_bits_round_trip_exactly() {
        for v in [0.0, -0.0, 0.1, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE] {
            let s = format_f64_bits(v);
            assert_eq!(parse_f64_bits(&s).unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f64_shortest_round_trips_exactly() {
        for v in [0.0, 0.1, 0.30000000000000004, 1e-300, 12345.6789] {
            let s = format_f64(v);
            assert_eq!(parse_f64(&s).unwrap().to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn at_pair_parses() {
        assert_eq!(parse_at_pair("3@1200").unwrap(), (3, 1200));
        assert!(parse_at_pair("3:1200").is_err());
    }
}
