//! From-scratch parsers and writers for the container formats that package
//! metadata is written in: JSON, a TOML subset, a YAML subset, an XML subset,
//! and Java-style properties / MANIFEST files.
//!
//! These are deliberately first-party (not `serde_json` et al.): the paper's
//! parser-confusion attack (§VI) exploits *differences between parsers*, so
//! the parsing layer is part of the system under study, and the tool
//! emulators need precise control over its behavior.
//!
//! All parsers are tolerant of malformed input in the sense that they return
//! errors and never panic — verified by fuzz-style property tests.
//!
//! # Examples
//!
//! ```
//! use sbomdiff_textformats::{json, Value};
//!
//! let v = json::parse(r#"{"name": "demo", "deps": ["a", "b"]}"#)?;
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("demo"));
//! assert_eq!(v.get("deps").and_then(Value::as_array).map(|a| a.len()), Some(2));
//! # Ok::<(), sbomdiff_textformats::TextError>(())
//! ```

pub mod json;
pub mod properties;
pub mod stream;
pub mod toml;
pub mod value;
pub mod xml;
pub mod yaml;

pub use value::Value;
pub use xml::Element;

use std::fmt;

/// One `\uXXXX` escape, decoded under the surrogate policy that every
/// reader in this crate accepting such escapes ([`json`], [`stream`] and
/// [`properties`]) shares: a high surrogate pairs with the low surrogate of
/// the escape right after it; lone and unpaired surrogates become U+FFFD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnicodeEscape {
    /// A character from one escape.
    Char(char),
    /// An astral character from a high surrogate and the low-surrogate
    /// escape right after it; the reader consumes both escapes.
    Pair(char),
    /// A high surrogate with no low surrogate right after it. Any escape
    /// that does follow decodes on its own.
    LoneHigh,
    /// A low surrogate with no high surrogate before it.
    UnpairedLow,
}

impl UnicodeEscape {
    /// Decodes the code unit `unit` of one escape; `next` is the code unit
    /// of the `\uXXXX` escape immediately after it, if there is one. Only
    /// a [`UnicodeEscape::Pair`] uses `next`.
    pub fn decode(unit: u32, next: Option<u32>) -> Self {
        match (unit, next) {
            (0xD800..=0xDBFF, Some(low @ 0xDC00..=0xDFFF)) => UnicodeEscape::Pair(
                char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
                    .unwrap_or(char::REPLACEMENT_CHARACTER),
            ),
            (0xD800..=0xDBFF, _) => UnicodeEscape::LoneHigh,
            (0xDC00..=0xDFFF, _) => UnicodeEscape::UnpairedLow,
            _ => UnicodeEscape::Char(char::from_u32(unit).unwrap_or(char::REPLACEMENT_CHARACTER)),
        }
    }

    /// The decoded character: U+FFFD for a lone or unpaired surrogate.
    pub fn char(self) -> char {
        match self {
            UnicodeEscape::Char(c) | UnicodeEscape::Pair(c) => c,
            UnicodeEscape::LoneHigh | UnicodeEscape::UnpairedLow => char::REPLACEMENT_CHARACTER,
        }
    }
}

/// Whether `b` ends a plain run inside a JSON string: a quote, a backslash
/// or a control byte (RFC 8259 §7).
#[inline]
fn ends_string_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The length of the plain run at the start of `bytes`: the index of the
/// first byte that [ends a JSON string run](ends_string_run), or
/// `bytes.len()`. The string kernel of both JSON readers ([`json`] and
/// [`stream::JsonStream`]).
///
/// It tests eight bytes per step (SWAR over a little-endian `u64`). Each
/// of the three tests flags a byte by its high bit, exactly for the lowest
/// matching byte; a borrow can only set false flags above a true one, so
/// the lowest flag of the union is the first stop byte.
#[inline]
pub(crate) fn string_run(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const QUOTES: u64 = u64::from_le_bytes([b'"'; 8]);
    const BACKSLASHES: u64 = u64::from_le_bytes([b'\\'; 8]);
    const SPACES: u64 = u64::from_le_bytes([0x20; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        let w = u64::from_le_bytes(le);
        let (q, s) = (w ^ QUOTES, w ^ BACKSLASHES);
        let hits =
            (q.wrapping_sub(ONES) & !q | s.wrapping_sub(ONES) & !s | w.wrapping_sub(SPACES) & !w)
                & HIGHS;
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = words.remainder();
    at + tail
        .iter()
        .position(|&b| ends_string_run(b))
        .unwrap_or(tail.len())
}

/// The byte a one-character JSON escape stands for (`n` for `\n`, ...);
/// `None` for `u` and for bytes that are no escape.
fn simple_escape(b: u8) -> Option<u8> {
    match b {
        b'"' | b'\\' | b'/' => Some(b),
        b'b' => Some(0x08),
        b'f' => Some(0x0c),
        b'n' => Some(b'\n'),
        b'r' => Some(b'\r'),
        b't' => Some(b'\t'),
        _ => None,
    }
}

/// Error raised by the text-format parsers, with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    line: usize,
    message: String,
}

impl TextError {
    /// Creates an error at a 1-based line number (0 when unknown).
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        TextError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line the error occurred on (0 when unknown).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for TextError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytewise(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .position(|&b| ends_string_run(b))
            .unwrap_or(bytes.len())
    }

    #[test]
    fn string_run_agrees_with_the_bytewise_predicate() {
        // Every byte value at every offset of a 16-byte window followed by
        // a tail of 0..=7 bytes (the part the word loop leaves to the
        // byte loop), over fillers that sit next to each stop class.
        for filler in [b'a', b'!', b'#', b' ', b'[', b']', 0x7f, 0x80, 0xff] {
            for tail in 0..8 {
                let mut buf = vec![filler; 16 + tail];
                assert_eq!(string_run(&buf), buf.len());
                for offset in 0..buf.len() {
                    for byte in 0..=255u8 {
                        buf[offset] = byte;
                        assert_eq!(
                            string_run(&buf),
                            bytewise(&buf),
                            "filler {filler:#x}, tail {tail}, byte {byte:#x} at {offset}"
                        );
                    }
                    buf[offset] = filler;
                }
            }
        }
    }

    #[test]
    fn string_run_reports_the_first_of_several_stops() {
        // A borrow out of a stop byte must not hide or fake a stop above it.
        for (bytes, want) in [
            (&b"abc\x00\x01\"\\xyz"[..], 3),
            (&b"abcdefgh\\\x00\"\x1f"[..], 8),
            (&b"\x1f\x20\x21\x22"[..], 0),
            (&b"\x21\x22\x23\x5b\x5c"[..], 1),
            (&b"\x00"[..], 0),
            (&b""[..], 0),
        ] {
            assert_eq!(string_run(bytes), want, "{bytes:?}");
            assert_eq!(bytewise(bytes), want, "{bytes:?}");
        }
    }
}
