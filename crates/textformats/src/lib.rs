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
