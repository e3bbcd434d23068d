//! Incremental, pull-based readers over any [`io::Read`].
//!
//! The in-memory parsers in this crate materialize a full [`crate::Value`]
//! tree — fine for lockfiles, hopeless for externally generated SBOMs that
//! can run to hundreds of megabytes. This module is the bounded-memory
//! alternative: a [`ChunkSource`] refills one fixed-size buffer from the
//! underlying reader, and [`JsonStream`] / [`LineReader`] tokenize out of
//! that window, so peak buffering is `chunk size + largest single token`
//! regardless of document size.
//!
//! Design rules, enforced by the corruption suite one layer up:
//!
//! * **Never panic.** Every malformed byte sequence maps to a typed
//!   [`StreamError`] with a line and byte offset.
//! * **Hard allocation bound.** No token (string, number, line) may exceed
//!   [`MAX_TOKEN`] bytes; nesting is capped at [`MAX_DEPTH`]. Both caps are
//!   classified errors, not aborts. [`ChunkSource::peak_buffered`] reports
//!   the high-water mark so tests can assert the bound.
//! * **Chunk-boundary transparent.** Tokens (including `\u` escapes and
//!   multi-byte UTF-8 sequences) may straddle any chunk boundary.

use std::fmt;
use std::io::Read;

use crate::UnicodeEscape;

/// Default refill size for [`ChunkSource`]: 64 KiB.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// Hard cap on one token's byte length (strings, numbers, lines). A
/// pathological 100 MB string is rejected after buffering at most this
/// much of it.
pub const MAX_TOKEN: usize = 1 << 20;

/// Hard cap on container nesting depth for [`JsonStream`].
pub const MAX_DEPTH: usize = 96;

/// Why a streaming read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamErrorKind {
    /// Bytes that violate the grammar.
    Syntax,
    /// The input ended mid-token or mid-container.
    UnexpectedEof,
    /// Bytes that are not valid UTF-8 where text was required.
    Utf8,
    /// Nesting beyond [`MAX_DEPTH`].
    DepthExceeded,
    /// A single token longer than [`MAX_TOKEN`].
    TokenTooLong,
    /// The underlying reader failed.
    Io,
}

/// A typed streaming-parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError {
    kind: StreamErrorKind,
    line: usize,
    byte_offset: u64,
    message: String,
}

impl StreamError {
    /// Creates an error at an explicit position (for layers above the
    /// tokenizer that detect structural problems the grammar allows).
    pub fn new(
        kind: StreamErrorKind,
        line: usize,
        byte_offset: u64,
        message: impl Into<String>,
    ) -> Self {
        StreamError {
            kind,
            line,
            byte_offset,
            message: message.into(),
        }
    }

    /// The classified failure kind.
    pub fn kind(&self) -> StreamErrorKind {
        self.kind
    }

    /// 1-based line of the failure.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Byte offset of the failure within the document.
    pub fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    /// The error message (position excluded).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, byte {}: {}",
            self.line, self.byte_offset, self.message
        )
    }
}

impl std::error::Error for StreamError {}

/// A fixed-size sliding window over an [`io::Read`].
///
/// All reads go through one `chunk_size` buffer; [`ChunkSource::peak_buffered`]
/// reports `chunk_size` plus the largest scratch (token) buffer any consumer
/// reported, giving the bounded-memory guarantee a measurable witness.
pub struct ChunkSource<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    len: usize,
    eof: bool,
    consumed: u64,
    line: usize,
    chunk_size: usize,
    peak_scratch: usize,
}

impl<R: Read> ChunkSource<R> {
    /// A source refilling in [`DEFAULT_CHUNK`]-byte chunks.
    pub fn new(inner: R) -> Self {
        ChunkSource::with_chunk_size(inner, DEFAULT_CHUNK)
    }

    /// A source with an explicit chunk size (clamped to `[512, 8 MiB]`).
    pub fn with_chunk_size(inner: R, chunk_size: usize) -> Self {
        let chunk_size = chunk_size.clamp(512, 8 << 20);
        ChunkSource {
            inner,
            buf: vec![0u8; chunk_size],
            start: 0,
            len: 0,
            eof: false,
            consumed: 0,
            line: 1,
            chunk_size,
            peak_scratch: 0,
        }
    }

    /// Total bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.consumed
    }

    /// 1-based line number at the current position.
    pub fn line(&self) -> usize {
        self.line
    }

    /// High-water mark of buffered bytes: the chunk window plus the
    /// largest token scratch any tokenizer reported via
    /// [`ChunkSource::note_scratch`].
    pub fn peak_buffered(&self) -> usize {
        self.chunk_size + self.peak_scratch
    }

    /// Records a consumer-side scratch-buffer size for peak accounting.
    pub fn note_scratch(&mut self, len: usize) {
        if len > self.peak_scratch {
            self.peak_scratch = len;
        }
    }

    fn err(&self, kind: StreamErrorKind, message: impl Into<String>) -> StreamError {
        StreamError {
            kind,
            line: self.line,
            byte_offset: self.consumed,
            message: message.into(),
        }
    }

    fn fill(&mut self) -> Result<(), StreamError> {
        if self.start < self.len || self.eof {
            return Ok(());
        }
        self.start = 0;
        self.len = 0;
        loop {
            match self.inner.read(&mut self.buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.len = n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.err(StreamErrorKind::Io, format!("read failed: {e}"))),
            }
        }
    }

    /// The next byte without consuming it (`None` at EOF).
    ///
    /// # Errors
    ///
    /// Returns an [`StreamErrorKind::Io`] error when the reader fails.
    pub fn peek(&mut self) -> Result<Option<u8>, StreamError> {
        self.fill()?;
        if self.start < self.len {
            Ok(Some(self.buf[self.start]))
        } else {
            Ok(None)
        }
    }

    /// Consumes and returns the next byte (`None` at EOF).
    ///
    /// # Errors
    ///
    /// Returns an [`StreamErrorKind::Io`] error when the reader fails.
    pub fn next_byte(&mut self) -> Result<Option<u8>, StreamError> {
        self.fill()?;
        if self.start < self.len {
            let b = self.buf[self.start];
            self.start += 1;
            self.consumed += 1;
            if b == b'\n' {
                self.line += 1;
            }
            Ok(Some(b))
        } else {
            Ok(None)
        }
    }

    /// The currently buffered, unconsumed window (may be empty even before
    /// EOF; call [`ChunkSource::peek`] first to force a refill).
    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.len]
    }

    /// Consumes `n` bytes from the current window (caller guarantees
    /// `n <= window().len()`), maintaining line accounting.
    fn advance(&mut self, n: usize) {
        let slice = &self.buf[self.start..self.start + n];
        self.line += slice.iter().filter(|&&b| b == b'\n').count();
        self.start += n;
        self.consumed += n as u64;
    }
}

/// One JSON syntax event produced by [`JsonStream`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonEvent {
    /// `{`
    ObjectStart,
    /// `}`
    ObjectEnd,
    /// `[`
    ArrayStart,
    /// `]`
    ArrayEnd,
    /// An object key (the following event is its value).
    Key(String),
    /// A string value.
    Str(String),
    /// A number value.
    Num(f64),
    /// A boolean value.
    Bool(bool),
    /// `null`
    Null,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Container {
    Object,
    Array,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value (top level, after a key, or after `,` in an array).
    Value,
    /// First key or `}` right after `{`.
    KeyOrEnd,
    /// A key right after `,` inside an object.
    Key,
    /// First value or `]` right after `[`.
    ValueOrEnd,
    /// `,` or the container close after a completed value.
    CommaOrEnd,
    /// Only trailing whitespace remains.
    End,
}

/// A pull-based JSON tokenizer (RFC 8259) over a [`ChunkSource`].
///
/// Emits a flat stream of [`JsonEvent`]s; the caller reconstructs exactly
/// the subtrees it cares about and skips the rest, so memory stays bounded
/// by [`ChunkSource::peak_buffered`] no matter how large the document is.
pub struct JsonStream<R> {
    src: ChunkSource<R>,
    stack: Vec<Container>,
    expect: Expect,
    scratch: Vec<u8>,
}

impl<R: Read> JsonStream<R> {
    /// A stream with the default chunk size.
    pub fn new(inner: R) -> Self {
        JsonStream::from_source(ChunkSource::new(inner))
    }

    /// A stream over an already-constructed source (keeps any bytes the
    /// caller peeked for format sniffing).
    pub fn from_source(src: ChunkSource<R>) -> Self {
        JsonStream {
            src,
            stack: Vec::new(),
            expect: Expect::Value,
            scratch: Vec::new(),
        }
    }

    /// Total bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.src.bytes_read()
    }

    /// 1-based current line.
    pub fn line(&self) -> usize {
        self.src.line()
    }

    /// Peak buffered bytes (window + largest token).
    pub fn peak_buffered(&self) -> usize {
        self.src.peak_buffered()
    }

    /// Current container nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn err(&self, kind: StreamErrorKind, message: impl Into<String>) -> StreamError {
        self.src.err(kind, message)
    }

    fn skip_ws(&mut self) -> Result<(), StreamError> {
        loop {
            match self.src.peek()? {
                Some(b' ' | b'\t' | b'\n' | b'\r') => {
                    self.src.next_byte()?;
                }
                _ => return Ok(()),
            }
        }
    }

    /// The next event, or `None` once the document completed cleanly.
    ///
    /// After the first `None` (or any error) the stream stays finished.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StreamError`] on malformed input, EOF inside a
    /// token or container, depth/token-length cap violations, invalid
    /// UTF-8, or reader failure.
    pub fn next_event(&mut self) -> Result<Option<JsonEvent>, StreamError> {
        self.skip_ws()?;
        match self.expect {
            Expect::End => match self.src.peek()? {
                None => Ok(None),
                Some(_) => Err(self.err(
                    StreamErrorKind::Syntax,
                    "trailing characters after document",
                )),
            },
            Expect::Value | Expect::ValueOrEnd => {
                if self.expect == Expect::ValueOrEnd && self.src.peek()? == Some(b']') {
                    self.src.next_byte()?;
                    return self.close(Container::Array).map(Some);
                }
                self.value().map(Some)
            }
            Expect::KeyOrEnd | Expect::Key => {
                match self.src.peek()? {
                    Some(b'}') if self.expect == Expect::KeyOrEnd => {
                        self.src.next_byte()?;
                        return self.close(Container::Object).map(Some);
                    }
                    Some(b'"') => {}
                    Some(_) => return Err(self.err(StreamErrorKind::Syntax, "expected string key")),
                    None => {
                        return Err(self.err(
                            StreamErrorKind::UnexpectedEof,
                            "unexpected end of input inside object",
                        ))
                    }
                }
                let key = self.string()?;
                self.skip_ws()?;
                match self.src.peek()? {
                    Some(b':') => {
                        self.src.next_byte()?;
                    }
                    Some(_) => return Err(self.err(StreamErrorKind::Syntax, "expected ':'")),
                    None => {
                        return Err(self.err(
                            StreamErrorKind::UnexpectedEof,
                            "unexpected end of input after key",
                        ))
                    }
                }
                self.expect = Expect::Value;
                Ok(Some(JsonEvent::Key(key)))
            }
            Expect::CommaOrEnd => {
                let top = match self.stack.last() {
                    Some(&top) => top,
                    None => {
                        // Value complete at top level: only whitespace may
                        // remain.
                        self.expect = Expect::End;
                        return self.next_event();
                    }
                };
                match (self.src.peek()?, top) {
                    (Some(b','), Container::Object) => {
                        self.src.next_byte()?;
                        self.expect = Expect::Key;
                        self.next_event()
                    }
                    (Some(b','), Container::Array) => {
                        self.src.next_byte()?;
                        self.expect = Expect::Value;
                        self.next_event()
                    }
                    (Some(b'}'), Container::Object) => {
                        self.src.next_byte()?;
                        self.close(Container::Object).map(Some)
                    }
                    (Some(b']'), Container::Array) => {
                        self.src.next_byte()?;
                        self.close(Container::Array).map(Some)
                    }
                    (Some(_), Container::Object) => {
                        Err(self.err(StreamErrorKind::Syntax, "expected ',' or '}'"))
                    }
                    (Some(_), Container::Array) => {
                        Err(self.err(StreamErrorKind::Syntax, "expected ',' or ']'"))
                    }
                    (None, _) => Err(self.err(
                        StreamErrorKind::UnexpectedEof,
                        "unexpected end of input inside container",
                    )),
                }
            }
        }
    }

    fn close(&mut self, expected: Container) -> Result<JsonEvent, StreamError> {
        // The caller only reaches here from states where the top matches.
        debug_assert_eq!(self.stack.last(), Some(&expected));
        self.stack.pop();
        self.expect = Expect::CommaOrEnd;
        Ok(match expected {
            Container::Object => JsonEvent::ObjectEnd,
            Container::Array => JsonEvent::ArrayEnd,
        })
    }

    fn value(&mut self) -> Result<JsonEvent, StreamError> {
        match self.src.peek()? {
            Some(b'{') => {
                self.src.next_byte()?;
                if self.stack.len() >= MAX_DEPTH {
                    return Err(self.err(
                        StreamErrorKind::DepthExceeded,
                        "maximum nesting depth exceeded",
                    ));
                }
                self.stack.push(Container::Object);
                self.expect = Expect::KeyOrEnd;
                Ok(JsonEvent::ObjectStart)
            }
            Some(b'[') => {
                self.src.next_byte()?;
                if self.stack.len() >= MAX_DEPTH {
                    return Err(self.err(
                        StreamErrorKind::DepthExceeded,
                        "maximum nesting depth exceeded",
                    ));
                }
                self.stack.push(Container::Array);
                self.expect = Expect::ValueOrEnd;
                Ok(JsonEvent::ArrayStart)
            }
            Some(b'"') => {
                let s = self.string()?;
                self.expect = Expect::CommaOrEnd;
                Ok(JsonEvent::Str(s))
            }
            Some(b't') => self.literal("true", JsonEvent::Bool(true)),
            Some(b'f') => self.literal("false", JsonEvent::Bool(false)),
            Some(b'n') => self.literal("null", JsonEvent::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err(StreamErrorKind::Syntax, "unexpected character")),
            None => Err(self.err(StreamErrorKind::UnexpectedEof, "unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, event: JsonEvent) -> Result<JsonEvent, StreamError> {
        for expected in text.bytes() {
            match self.src.next_byte()? {
                Some(b) if b == expected => {}
                Some(_) => return Err(self.err(StreamErrorKind::Syntax, "invalid literal")),
                None => {
                    return Err(self.err(
                        StreamErrorKind::UnexpectedEof,
                        "unexpected end of input in literal",
                    ))
                }
            }
        }
        self.expect = Expect::CommaOrEnd;
        Ok(event)
    }

    fn number(&mut self) -> Result<JsonEvent, StreamError> {
        self.scratch.clear();
        if self.src.peek()? == Some(b'-') {
            self.src.next_byte()?;
            self.scratch.push(b'-');
        }
        while let Some(b) = self.src.peek()? {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.src.next_byte()?;
                self.scratch.push(b);
                if self.scratch.len() > MAX_TOKEN {
                    return Err(self.err(StreamErrorKind::TokenTooLong, "number token too long"));
                }
            } else {
                break;
            }
        }
        self.src.note_scratch(self.scratch.len());
        let text = std::str::from_utf8(&self.scratch)
            .map_err(|_| self.err(StreamErrorKind::Utf8, "invalid utf-8 in number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(StreamErrorKind::Syntax, "invalid number"))?;
        self.expect = Expect::CommaOrEnd;
        Ok(JsonEvent::Num(n))
    }

    /// Parses a string token; the opening quote is at the current position.
    fn string(&mut self) -> Result<String, StreamError> {
        self.src.next_byte()?; // opening '"'
        self.scratch.clear();
        loop {
            self.check_token_len()?;
            // Bulk-copy the run up to the next quote, escape or control
            // byte inside the current window, capped so the scratch buffer
            // overshoots MAX_TOKEN by at most one byte; multi-byte
            // sequences may straddle the window edge, so UTF-8 validation
            // happens once at token end.
            self.src.fill()?;
            let window = self.src.window();
            if !window.is_empty() {
                let run = window
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(window.len())
                    .min(MAX_TOKEN + 1 - self.scratch.len());
                if run > 0 {
                    self.scratch.extend_from_slice(&window[..run]);
                    self.src.advance(run);
                    continue;
                }
            }
            match self.src.next_byte()? {
                None => return Err(self.err(StreamErrorKind::UnexpectedEof, "unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => self.escape()?,
                Some(b) if b < 0x20 => {
                    return Err(self.err(StreamErrorKind::Syntax, "control character in string"))
                }
                // Unreachable: the bulk run consumed everything else.
                Some(b) => self.scratch.push(b),
            }
        }
        self.src.note_scratch(self.scratch.len());
        String::from_utf8(std::mem::take(&mut self.scratch))
            .map_err(|_| self.err(StreamErrorKind::Utf8, "invalid utf-8 in string"))
    }

    /// Records the string scratch for peak accounting and enforces the
    /// [`MAX_TOKEN`] cap on it.
    fn check_token_len(&mut self) -> Result<(), StreamError> {
        self.src.note_scratch(self.scratch.len());
        if self.scratch.len() > MAX_TOKEN {
            return Err(self.err(
                StreamErrorKind::TokenTooLong,
                format!("string token exceeds {MAX_TOKEN} bytes"),
            ));
        }
        Ok(())
    }

    fn push_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.scratch
            .extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    }

    fn escape(&mut self) -> Result<(), StreamError> {
        match self.src.next_byte()? {
            Some(b'"') => self.scratch.push(b'"'),
            Some(b'\\') => self.scratch.push(b'\\'),
            Some(b'/') => self.scratch.push(b'/'),
            Some(b'b') => self.scratch.push(0x08),
            Some(b'f') => self.scratch.push(0x0c),
            Some(b'n') => self.scratch.push(b'\n'),
            Some(b'r') => self.scratch.push(b'\r'),
            Some(b't') => self.scratch.push(b'\t'),
            Some(b'u') => self.unicode_escape()?,
            Some(_) => return Err(self.err(StreamErrorKind::Syntax, "invalid escape")),
            None => {
                return Err(self.err(
                    StreamErrorKind::UnexpectedEof,
                    "unexpected end of input in escape",
                ))
            }
        }
        Ok(())
    }

    /// Handles `\uXXXX` (the `\u` is already consumed) through the shared
    /// [`UnicodeEscape`] policy. The stream cannot rewind, so it reads the
    /// escape that follows before deciding; when the two do not pair, that
    /// escape decodes on the next round.
    fn unicode_escape(&mut self) -> Result<(), StreamError> {
        let mut unit = self.hex4()?;
        loop {
            self.check_token_len()?;
            let mut next = None;
            if self.src.peek()? == Some(b'\\') {
                self.src.next_byte()?;
                if self.src.peek()? != Some(b'u') {
                    self.push_char(UnicodeEscape::decode(unit, None).char());
                    return self.escape();
                }
                self.src.next_byte()?;
                next = Some(self.hex4()?);
            }
            let decoded = UnicodeEscape::decode(unit, next);
            self.push_char(decoded.char());
            match next {
                Some(n) if !matches!(decoded, UnicodeEscape::Pair(_)) => unit = n,
                _ => return Ok(()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, StreamError> {
        let mut n = 0u32;
        for _ in 0..4 {
            let digit = match self.src.next_byte()? {
                Some(b) => (b as char).to_digit(16),
                None => {
                    return Err(self.err(StreamErrorKind::UnexpectedEof, "truncated \\u escape"))
                }
            };
            match digit {
                Some(d) => n = n * 16 + d,
                None => return Err(self.err(StreamErrorKind::Syntax, "invalid \\u escape")),
            }
        }
        Ok(n)
    }
}

/// A bounded-memory line reader over a [`ChunkSource`], for line-oriented
/// formats (SPDX tag-value). Lines are returned without their terminator;
/// `\r\n` and `\n` both end a line. A line longer than [`MAX_TOKEN`] is a
/// [`StreamErrorKind::TokenTooLong`] error, and non-UTF-8 lines are
/// [`StreamErrorKind::Utf8`] errors.
pub struct LineReader<R> {
    src: ChunkSource<R>,
    scratch: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    /// A reader with the default chunk size.
    pub fn new(inner: R) -> Self {
        LineReader::from_source(ChunkSource::new(inner))
    }

    /// A reader over an already-constructed source (keeps bytes the caller
    /// peeked for format sniffing).
    pub fn from_source(src: ChunkSource<R>) -> Self {
        LineReader {
            src,
            scratch: Vec::new(),
        }
    }

    /// Total bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.src.bytes_read()
    }

    /// 1-based line number of the *next* line to be returned.
    pub fn line(&self) -> usize {
        self.src.line()
    }

    /// Peak buffered bytes (window + largest line).
    pub fn peak_buffered(&self) -> usize {
        self.src.peak_buffered()
    }

    /// The next line, or `None` at EOF.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StreamError`] on over-long lines, invalid UTF-8,
    /// or reader failure.
    pub fn next_line(&mut self) -> Result<Option<String>, StreamError> {
        if self.src.peek()?.is_none() {
            return Ok(None);
        }
        self.scratch.clear();
        loop {
            self.src.note_scratch(self.scratch.len());
            if self.scratch.len() > MAX_TOKEN {
                return Err(self.src.err(
                    StreamErrorKind::TokenTooLong,
                    format!("line exceeds {MAX_TOKEN} bytes"),
                ));
            }
            self.src.fill()?;
            let window = self.src.window();
            if window.is_empty() {
                if self.src.peek()?.is_none() {
                    break; // final line without terminator
                }
                continue;
            }
            match window
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| p.min(MAX_TOKEN + 1 - self.scratch.len()))
            {
                Some(pos) if pos + self.scratch.len() <= MAX_TOKEN => {
                    self.scratch.extend_from_slice(&window[..pos]);
                    self.src.advance(pos + 1); // consume the '\n' too
                    break;
                }
                _ => {
                    let take = window.len().min(MAX_TOKEN + 1 - self.scratch.len());
                    self.scratch.extend_from_slice(&window[..take]);
                    self.src.advance(take);
                }
            }
        }
        if self.scratch.last() == Some(&b'\r') {
            self.scratch.pop();
        }
        self.src.note_scratch(self.scratch.len());
        let line = String::from_utf8(std::mem::take(&mut self.scratch))
            .map_err(|_| self.src.err(StreamErrorKind::Utf8, "invalid utf-8 in line"))?;
        Ok(Some(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<JsonEvent>, StreamError> {
        events_chunked(input, DEFAULT_CHUNK)
    }

    fn events_chunked(input: &str, chunk: usize) -> Result<Vec<JsonEvent>, StreamError> {
        let src = ChunkSource::with_chunk_size(input.as_bytes(), chunk);
        let mut stream = JsonStream::from_source(src);
        let mut out = Vec::new();
        while let Some(ev) = stream.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    #[test]
    fn tokenizes_scalars() {
        assert_eq!(events("null").unwrap(), vec![JsonEvent::Null]);
        assert_eq!(events("true").unwrap(), vec![JsonEvent::Bool(true)]);
        assert_eq!(events("-1.5e2").unwrap(), vec![JsonEvent::Num(-150.0)]);
        assert_eq!(
            events(r#""hi""#).unwrap(),
            vec![JsonEvent::Str("hi".into())]
        );
    }

    #[test]
    fn tokenizes_nested_document() {
        let evs = events(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            evs,
            vec![
                JsonEvent::ObjectStart,
                JsonEvent::Key("a".into()),
                JsonEvent::ArrayStart,
                JsonEvent::Num(1.0),
                JsonEvent::ObjectStart,
                JsonEvent::Key("b".into()),
                JsonEvent::Null,
                JsonEvent::ObjectEnd,
                JsonEvent::ArrayEnd,
                JsonEvent::Key("c".into()),
                JsonEvent::Str("x".into()),
                JsonEvent::ObjectEnd,
            ]
        );
    }

    #[test]
    fn chunk_boundaries_are_transparent() {
        let doc = r#"{"name": "héllo wörld ✓ 😀", "n": 12345, "esc": "aéb😀c"}"#;
        let want = events(doc).unwrap();
        // Chunk size is clamped to >= 512, so pad the document so tokens
        // really do straddle refills.
        let pad = "x".repeat(700);
        let padded = format!(r#"{{"pad": "{pad}", "inner": {doc}}}"#);
        let a = events_chunked(&padded, 512).unwrap();
        let b = events_chunked(&padded, 8192).unwrap();
        assert_eq!(a, b);
        // Events: ObjectStart, Key(pad), Str(pad), Key(inner), <inner doc>.
        assert_eq!(&a[4..4 + want.len()], &want[..]);
    }

    #[test]
    fn escape_semantics_match_in_memory_parser() {
        let cases = [
            (r#""line\nquote\" tab\t""#, "line\nquote\" tab\t"),
            (r#""Aé中""#, "Aé中"),
            (r#""😀""#, "😀"),
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ud83dx""#, "\u{FFFD}x"),
            (r#""\ud83dA""#, "\u{FFFD}A"),
            (r#""\ud83d\n""#, "\u{FFFD}\n"),
            // Valid escaped surrogate pair.
            ("\"\\ud83d\\ude00\"", "\u{1F600}"),
            // A high surrogate followed by a BMP escape: the escape
            // survives instead of being swallowed with the surrogate.
            ("\"\\ud83d\\u0041\"", "\u{FFFD}A"),
            // A second high surrogate restarts pair matching.
            ("\"\\ud83d\\ud83d\\ude00\"", "\u{FFFD}\u{1F600}"),
            // Unpaired low surrogate.
            ("\"\\ude00\"", "\u{FFFD}"),
            ("\"a\\ude00\\ud83db\"", "a\u{FFFD}\u{FFFD}b"),
        ];
        for (doc, want) in cases {
            let evs = events(doc).unwrap();
            assert_eq!(evs, vec![JsonEvent::Str(want.into())], "{doc}");
            // Cross-check against the in-memory parser.
            let v = crate::json::parse(doc).unwrap();
            assert_eq!(v.as_str(), Some(want), "{doc}");
            // And against the tiny-chunk streaming path, where the pair
            // can straddle a refill boundary.
            let pad = "x".repeat(700);
            let padded = format!(r#"{{"pad": "{pad}", "s": {doc}}}"#);
            let evs = events_chunked(&padded, 512).unwrap();
            assert_eq!(evs[4], JsonEvent::Str(want.into()), "{doc} (chunked)");
        }
    }

    #[test]
    fn rejects_malformed_with_classified_kinds() {
        for (doc, kind) in [
            ("{", StreamErrorKind::UnexpectedEof),
            ("[1,]", StreamErrorKind::Syntax),
            (r#"{"a" 1}"#, StreamErrorKind::Syntax),
            ("tru", StreamErrorKind::UnexpectedEof),
            ("truz", StreamErrorKind::Syntax),
            ("1 2", StreamErrorKind::Syntax),
            ("", StreamErrorKind::UnexpectedEof),
            (r#""abc"#, StreamErrorKind::UnexpectedEof),
            (r#""\q""#, StreamErrorKind::Syntax),
            (r#""\u12"#, StreamErrorKind::UnexpectedEof),
            (r#"{"a": 1,}"#, StreamErrorKind::Syntax),
            ("[1 2]", StreamErrorKind::Syntax),
        ] {
            let err = events(doc).unwrap_err();
            assert_eq!(err.kind(), kind, "{doc:?}: {err}");
        }
    }

    #[test]
    fn rejects_invalid_utf8() {
        let bytes = b"\"ab\xff\xfecd\"";
        let mut stream = JsonStream::new(&bytes[..]);
        let err = loop {
            match stream.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("accepted invalid utf-8"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), StreamErrorKind::Utf8);
    }

    #[test]
    fn depth_is_bounded() {
        let doc = "[".repeat(MAX_DEPTH + 10);
        let err = events(&doc).unwrap_err();
        assert_eq!(err.kind(), StreamErrorKind::DepthExceeded);
    }

    #[test]
    fn string_token_length_is_bounded() {
        let doc = format!("\"{}\"", "a".repeat(MAX_TOKEN + 100));
        let src = ChunkSource::with_chunk_size(doc.as_bytes(), 4096);
        let mut stream = JsonStream::from_source(src);
        let err = loop {
            match stream.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("accepted over-long token"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), StreamErrorKind::TokenTooLong);
        // The bound is the witness: window + at most MAX_TOKEN + 1 scratch.
        assert!(stream.peak_buffered() <= 4096 + MAX_TOKEN + 1);
    }

    #[test]
    fn error_reports_line_and_offset() {
        let err = events("{\n\"a\": \n@}").unwrap_err();
        assert_eq!(err.line(), 3);
        assert_eq!(err.byte_offset(), 8);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn peak_buffered_stays_bounded_on_large_docs() {
        let mut doc = String::from("[");
        for i in 0..5000 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("{{\"k{i}\": \"v{i}\"}}"));
        }
        doc.push(']');
        let src = ChunkSource::with_chunk_size(doc.as_bytes(), 1024);
        let mut stream = JsonStream::from_source(src);
        while let Some(_ev) = stream.next_event().unwrap() {}
        assert_eq!(stream.bytes_read(), doc.len() as u64);
        assert!(stream.peak_buffered() < 1024 + 64, "small tokens only");
    }

    #[test]
    fn line_reader_handles_terminators_and_eof() {
        let mut r = LineReader::new("a\nb\r\nc".as_bytes());
        assert_eq!(r.next_line().unwrap().as_deref(), Some("a"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("b"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("c"));
        assert_eq!(r.next_line().unwrap(), None);
        assert_eq!(r.next_line().unwrap(), None);
        assert_eq!(r.bytes_read(), 6);
    }

    #[test]
    fn line_reader_empty_lines_and_chunks() {
        let text = "first\n\nthird\n";
        let src = ChunkSource::with_chunk_size(text.as_bytes(), 512);
        let mut r = LineReader::from_source(src);
        assert_eq!(r.next_line().unwrap().as_deref(), Some("first"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("third"));
        assert_eq!(r.next_line().unwrap(), None);
    }

    #[test]
    fn line_reader_rejects_overlong_and_non_utf8() {
        let long = "x".repeat(MAX_TOKEN + 10);
        let mut r = LineReader::new(long.as_bytes());
        assert_eq!(
            r.next_line().unwrap_err().kind(),
            StreamErrorKind::TokenTooLong
        );
        let mut r = LineReader::new(&b"ok\n\xff\xfe\n"[..]);
        assert_eq!(r.next_line().unwrap().as_deref(), Some("ok"));
        assert_eq!(r.next_line().unwrap_err().kind(), StreamErrorKind::Utf8);
    }

    #[test]
    fn interrupted_reader_is_retried() {
        struct Flaky {
            data: &'static [u8],
            pos: usize,
            interrupted: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.interrupted {
                    self.interrupted = true;
                    return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
                }
                let n = (self.data.len() - self.pos).min(buf.len()).min(3);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let flaky = Flaky {
            data: br#"{"a": [true, false]}"#,
            pos: 0,
            interrupted: false,
        };
        let evs = {
            let mut stream = JsonStream::new(flaky);
            let mut out = Vec::new();
            while let Some(ev) = stream.next_event().unwrap() {
                out.push(ev);
            }
            out
        };
        assert_eq!(evs.len(), 7);
    }

    #[test]
    fn io_errors_are_classified() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        let mut stream = JsonStream::new(Broken);
        let err = stream.next_event().unwrap_err();
        assert_eq!(err.kind(), StreamErrorKind::Io);
        assert!(err.message().contains("disk on fire"));
    }
}
