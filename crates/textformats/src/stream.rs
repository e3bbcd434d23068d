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
///
/// Boxed, so that the `Result` every token comes back in stays small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError(Box<ErrorInner>);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ErrorInner {
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
        StreamError(Box::new(ErrorInner {
            kind,
            line,
            byte_offset,
            message: message.into(),
        }))
    }

    /// The classified failure kind.
    pub fn kind(&self) -> StreamErrorKind {
        self.0.kind
    }

    /// 1-based line of the failure.
    pub fn line(&self) -> usize {
        self.0.line
    }

    /// Byte offset of the failure within the document.
    pub fn byte_offset(&self) -> u64 {
        self.0.byte_offset
    }

    /// The error message (position excluded).
    pub fn message(&self) -> &str {
        &self.0.message
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, byte {}: {}",
            self.0.line, self.0.byte_offset, self.0.message
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

    #[cold]
    fn err(&self, kind: StreamErrorKind, message: impl Into<String>) -> StreamError {
        StreamError::new(kind, self.line, self.consumed, message)
    }

    #[inline]
    fn fill(&mut self) -> Result<(), StreamError> {
        if self.start < self.len || self.eof {
            return Ok(());
        }
        self.refill()
    }

    /// Reads the next chunk into the window once it is used up.
    #[cold]
    fn refill(&mut self) -> Result<(), StreamError> {
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
    #[inline]
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
    #[inline]
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
    /// EOF; call [`ChunkSource::fill`] first to force a refill).
    #[inline]
    fn window(&self) -> &[u8] {
        &self.buf[self.start..self.len]
    }

    /// Consumes the next byte, which the caller has peeked in the window
    /// and which is not a line feed.
    #[inline]
    fn bump(&mut self) {
        self.consume(1, 0);
    }

    /// Consumes `n` bytes of the current window (caller guarantees
    /// `n <= window().len()`) that hold `newlines` line feeds: every caller
    /// has already scanned the bytes it consumes, so none is counted twice.
    #[inline]
    fn consume(&mut self, n: usize, newlines: usize) {
        self.start += n;
        self.consumed += n as u64;
        self.line += newlines;
    }
}

/// One JSON token produced by [`JsonStream`].
///
/// Tokens are `Copy` and carry no text: the text of a [`JsonToken::Key`]
/// or [`JsonToken::Str`] sits in the stream's one reused buffer, read with
/// [`JsonStream::text`] until the next token. Reading, matching or skipping
/// a string therefore allocates nothing once that buffer has grown to the
/// document's longest string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonToken {
    /// `{`
    ObjectStart,
    /// `}`
    ObjectEnd,
    /// `[`
    ArrayStart,
    /// `]`
    ArrayEnd,
    /// An object key (the following token is its value).
    Key,
    /// A string value.
    Str,
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
/// Emits a flat stream of [`JsonToken`]s; the caller reconstructs exactly
/// the subtrees it cares about and skips the rest, so memory stays bounded
/// by [`ChunkSource::peak_buffered`] no matter how large the document is.
pub struct JsonStream<R> {
    src: ChunkSource<R>,
    stack: Vec<Container>,
    expect: Expect,
    /// The one token buffer: the text of the last key or string, or the
    /// literal of the last number. A string is decoded into its bytes and
    /// validated as UTF-8 once, at the closing quote.
    text: String,
    /// The first error, returned again by every later call.
    failed: Option<StreamError>,
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
            text: String::new(),
            failed: None,
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

    /// The text of the last [`JsonToken::Key`] or [`JsonToken::Str`]
    /// (after a [`JsonToken::Num`], the number's literal). Valid until the
    /// next call to [`JsonStream::next_token`].
    #[inline]
    pub fn text(&self) -> &str {
        &self.text
    }

    fn err(&self, kind: StreamErrorKind, message: impl Into<String>) -> StreamError {
        self.src.err(kind, message)
    }

    /// Skips whitespace a window at a time and returns the byte after it,
    /// unconsumed (`None` at end of input).
    #[inline]
    fn skip_ws(&mut self) -> Result<Option<u8>, StreamError> {
        loop {
            self.src.fill()?;
            let window = self.src.window();
            let (mut n, mut newlines) = (0, 0);
            while let Some(&b) = window.get(n) {
                match b {
                    b'\n' => newlines += 1,
                    b' ' | b'\t' | b'\r' => {}
                    _ => {
                        self.src.consume(n, newlines);
                        return Ok(Some(b));
                    }
                }
                n += 1;
            }
            // An empty window after `fill` means end of input.
            if n == 0 {
                return Ok(None);
            }
            self.src.consume(n, newlines);
        }
    }

    /// The next token, or `None` once the document completed cleanly.
    ///
    /// After the first `None` the stream stays finished, and after the
    /// first error every call returns that error again.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StreamError`] on malformed input, EOF inside a
    /// token or container, depth/token-length cap violations, invalid
    /// UTF-8, or reader failure.
    pub fn next_token(&mut self) -> Result<Option<JsonToken>, StreamError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let token = self.token();
        if let Err(e) = &token {
            self.failed = Some(e.clone());
        }
        token
    }

    /// The tokenizer behind [`JsonStream::next_token`], which alone reads
    /// it, so that no caller can read on past an error.
    #[inline]
    fn token(&mut self) -> Result<Option<JsonToken>, StreamError> {
        loop {
            let next = self.skip_ws()?;
            match self.expect {
                Expect::End => {
                    return match next {
                        None => Ok(None),
                        Some(_) => Err(self.err(
                            StreamErrorKind::Syntax,
                            "trailing characters after document",
                        )),
                    }
                }
                Expect::Value | Expect::ValueOrEnd => {
                    if self.expect == Expect::ValueOrEnd && next == Some(b']') {
                        self.src.bump();
                        return Ok(Some(self.close(Container::Array)));
                    }
                    return self.value(next).map(Some);
                }
                Expect::KeyOrEnd | Expect::Key => {
                    match next {
                        Some(b'}') if self.expect == Expect::KeyOrEnd => {
                            self.src.bump();
                            return Ok(Some(self.close(Container::Object)));
                        }
                        Some(b'"') => {}
                        Some(_) => {
                            return Err(self.err(StreamErrorKind::Syntax, "expected string key"))
                        }
                        None => {
                            return Err(self.err(
                                StreamErrorKind::UnexpectedEof,
                                "unexpected end of input inside object",
                            ))
                        }
                    }
                    self.string()?;
                    match self.skip_ws()? {
                        Some(b':') => self.src.bump(),
                        Some(_) => return Err(self.err(StreamErrorKind::Syntax, "expected ':'")),
                        None => {
                            return Err(self.err(
                                StreamErrorKind::UnexpectedEof,
                                "unexpected end of input after key",
                            ))
                        }
                    }
                    self.expect = Expect::Value;
                    return Ok(Some(JsonToken::Key));
                }
                Expect::CommaOrEnd => {
                    let Some(&top) = self.stack.last() else {
                        // Value complete at top level: only whitespace may
                        // remain.
                        self.expect = Expect::End;
                        continue;
                    };
                    match (next, top) {
                        (Some(b','), Container::Object) => {
                            self.src.bump();
                            self.expect = Expect::Key;
                        }
                        (Some(b','), Container::Array) => {
                            self.src.bump();
                            self.expect = Expect::Value;
                        }
                        (Some(b'}'), Container::Object) | (Some(b']'), Container::Array) => {
                            self.src.bump();
                            return Ok(Some(self.close(top)));
                        }
                        (Some(_), Container::Object) => {
                            return Err(self.err(StreamErrorKind::Syntax, "expected ',' or '}'"))
                        }
                        (Some(_), Container::Array) => {
                            return Err(self.err(StreamErrorKind::Syntax, "expected ',' or ']'"))
                        }
                        (None, _) => {
                            return Err(self.err(
                                StreamErrorKind::UnexpectedEof,
                                "unexpected end of input inside container",
                            ))
                        }
                    }
                }
            }
        }
    }

    fn close(&mut self, expected: Container) -> JsonToken {
        // The caller only reaches here from states where the top matches.
        debug_assert_eq!(self.stack.last(), Some(&expected));
        self.stack.pop();
        self.expect = Expect::CommaOrEnd;
        match expected {
            Container::Object => JsonToken::ObjectEnd,
            Container::Array => JsonToken::ArrayEnd,
        }
    }

    /// Starts a value whose first byte, `next`, is peeked but unconsumed.
    fn value(&mut self, next: Option<u8>) -> Result<JsonToken, StreamError> {
        let (container, token, expect) = match next {
            Some(b'{') => (Container::Object, JsonToken::ObjectStart, Expect::KeyOrEnd),
            Some(b'[') => (Container::Array, JsonToken::ArrayStart, Expect::ValueOrEnd),
            Some(b'"') => {
                self.string()?;
                self.expect = Expect::CommaOrEnd;
                return Ok(JsonToken::Str);
            }
            Some(b't') => return self.literal("true", JsonToken::Bool(true)),
            Some(b'f') => return self.literal("false", JsonToken::Bool(false)),
            Some(b'n') => return self.literal("null", JsonToken::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => return self.number(),
            Some(_) => return Err(self.err(StreamErrorKind::Syntax, "unexpected character")),
            None => return Err(self.err(StreamErrorKind::UnexpectedEof, "unexpected end of input")),
        };
        self.src.bump();
        if self.stack.len() >= MAX_DEPTH {
            return Err(self.err(
                StreamErrorKind::DepthExceeded,
                "maximum nesting depth exceeded",
            ));
        }
        self.stack.push(container);
        self.expect = expect;
        Ok(token)
    }

    fn literal(&mut self, text: &str, token: JsonToken) -> Result<JsonToken, StreamError> {
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
        Ok(token)
    }

    fn number(&mut self) -> Result<JsonToken, StreamError> {
        self.text.clear();
        if self.src.peek()? == Some(b'-') {
            self.src.next_byte()?;
            self.text.push('-');
        }
        while let Some(b) = self.src.peek()? {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.src.next_byte()?;
                self.text.push(char::from(b));
                if self.text.len() > MAX_TOKEN {
                    return Err(self.err(StreamErrorKind::TokenTooLong, "number token too long"));
                }
            } else {
                break;
            }
        }
        self.src.note_scratch(self.text.len());
        let n: f64 = self
            .text
            .parse()
            .map_err(|_| self.err(StreamErrorKind::Syntax, "invalid number"))?;
        self.expect = Expect::CommaOrEnd;
        Ok(JsonToken::Num(n))
    }

    /// Reads a string token into the text buffer; the opening quote is at
    /// the current position. The buffer is taken as bytes for the read,
    /// because a multi-byte sequence may straddle a refill, and handed
    /// back as text once it validates.
    fn string(&mut self) -> Result<(), StreamError> {
        self.src.bump(); // opening '"'
        let mut bytes = std::mem::take(&mut self.text).into_bytes();
        bytes.clear();
        self.string_bytes(&mut bytes)?;
        self.src.note_scratch(bytes.len());
        self.text = String::from_utf8(bytes)
            .map_err(|_| self.err(StreamErrorKind::Utf8, "invalid utf-8 in string"))?;
        Ok(())
    }

    /// Decodes string content through the closing quote into `out`.
    fn string_bytes(&mut self, out: &mut Vec<u8>) -> Result<(), StreamError> {
        loop {
            self.check_token_len(out.len())?;
            // Bulk-copy the run up to the next quote, escape or control
            // byte inside the current window, capped so the buffer
            // overshoots MAX_TOKEN by at most one byte. A run holds no
            // line feed, so consuming it leaves the line count alone.
            self.src.fill()?;
            let window = self.src.window();
            let run = crate::string_run(window).min(MAX_TOKEN + 1 - out.len());
            if run > 0 {
                out.extend_from_slice(&window[..run]);
                // The common case: the closing quote is in the window too.
                if window.get(run) == Some(&b'"') && out.len() <= MAX_TOKEN {
                    self.src.consume(run + 1, 0);
                    return Ok(());
                }
                self.src.consume(run, 0);
                continue;
            }
            match self.src.next_byte()? {
                None => return Err(self.err(StreamErrorKind::UnexpectedEof, "unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => self.escape(out)?,
                Some(b) if b < 0x20 => {
                    return Err(self.err(StreamErrorKind::Syntax, "control character in string"))
                }
                // Unreachable: the bulk run consumed everything else.
                Some(b) => out.push(b),
            }
        }
    }

    /// Records the token buffer for peak accounting and enforces the
    /// [`MAX_TOKEN`] cap on it.
    #[inline]
    fn check_token_len(&mut self, len: usize) -> Result<(), StreamError> {
        self.src.note_scratch(len);
        if len > MAX_TOKEN {
            return Err(self.err(
                StreamErrorKind::TokenTooLong,
                format!("string token exceeds {MAX_TOKEN} bytes"),
            ));
        }
        Ok(())
    }

    fn escape(&mut self, out: &mut Vec<u8>) -> Result<(), StreamError> {
        match self.src.next_byte()? {
            Some(b'u') => self.unicode_escape(out),
            Some(b) => match crate::simple_escape(b) {
                Some(decoded) => {
                    out.push(decoded);
                    Ok(())
                }
                None => Err(self.err(StreamErrorKind::Syntax, "invalid escape")),
            },
            None => Err(self.err(
                StreamErrorKind::UnexpectedEof,
                "unexpected end of input in escape",
            )),
        }
    }

    /// Handles `\uXXXX` (the `\u` is already consumed) through the shared
    /// [`UnicodeEscape`] policy. The stream cannot rewind, so it reads the
    /// escape that follows before deciding; when the two do not pair, that
    /// escape decodes on the next round.
    fn unicode_escape(&mut self, out: &mut Vec<u8>) -> Result<(), StreamError> {
        let mut unit = self.hex4()?;
        loop {
            self.check_token_len(out.len())?;
            let mut next = None;
            if self.src.peek()? == Some(b'\\') {
                self.src.next_byte()?;
                if self.src.peek()? != Some(b'u') {
                    push_char(out, UnicodeEscape::decode(unit, None).char());
                    return self.escape(out);
                }
                self.src.next_byte()?;
                next = Some(self.hex4()?);
            }
            let decoded = UnicodeEscape::decode(unit, next);
            push_char(out, decoded.char());
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

fn push_char(out: &mut Vec<u8>, c: char) {
    let mut buf = [0u8; 4];
    out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
}

/// A bounded-memory line reader over a [`ChunkSource`], for line-oriented
/// formats (SPDX tag-value). Lines are returned without their terminator;
/// `\r\n` and `\n` both end a line. A line longer than [`MAX_TOKEN`] is a
/// [`StreamErrorKind::TokenTooLong`] error, and non-UTF-8 lines are
/// [`StreamErrorKind::Utf8`] errors.
pub struct LineReader<R> {
    src: ChunkSource<R>,
    /// The one line buffer, reused for every line.
    line: String,
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
            line: String::new(),
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

    /// The next line, or `None` at EOF. The line borrows the reader's one
    /// reused buffer, valid until the next call.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StreamError`] on over-long lines, invalid UTF-8,
    /// or reader failure.
    pub fn next_line(&mut self) -> Result<Option<&str>, StreamError> {
        if self.src.peek()?.is_none() {
            return Ok(None);
        }
        let mut bytes = std::mem::take(&mut self.line).into_bytes();
        bytes.clear();
        loop {
            self.src.note_scratch(bytes.len());
            if bytes.len() > MAX_TOKEN {
                return Err(self.src.err(
                    StreamErrorKind::TokenTooLong,
                    format!("line exceeds {MAX_TOKEN} bytes"),
                ));
            }
            self.src.fill()?;
            let window = self.src.window();
            if window.is_empty() {
                break; // final line without terminator
            }
            let room = MAX_TOKEN + 1 - bytes.len();
            match window.iter().position(|&b| b == b'\n') {
                Some(pos) if pos < room => {
                    bytes.extend_from_slice(&window[..pos]);
                    self.src.consume(pos + 1, 1); // the '\n' too
                    break;
                }
                _ => {
                    let take = window.len().min(room);
                    bytes.extend_from_slice(&window[..take]);
                    self.src.consume(take, 0);
                }
            }
        }
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        self.src.note_scratch(bytes.len());
        self.line = String::from_utf8(bytes)
            .map_err(|_| self.src.err(StreamErrorKind::Utf8, "invalid utf-8 in line"))?;
        Ok(Some(&self.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token with the text it carries (empty for tokens without text).
    type Owned = (JsonToken, String);

    fn tok(t: JsonToken) -> Owned {
        (t, String::new())
    }

    fn key(k: &str) -> Owned {
        (JsonToken::Key, k.into())
    }

    fn st(v: &str) -> Owned {
        (JsonToken::Str, v.into())
    }

    fn tokens(input: &str) -> Result<Vec<Owned>, StreamError> {
        tokens_chunked(input.as_bytes(), DEFAULT_CHUNK)
    }

    fn tokens_chunked(input: &[u8], chunk: usize) -> Result<Vec<Owned>, StreamError> {
        let src = ChunkSource::with_chunk_size(input, chunk);
        let mut stream = JsonStream::from_source(src);
        let mut out = Vec::new();
        while let Some(t) = stream.next_token()? {
            let text = match t {
                JsonToken::Key | JsonToken::Str => stream.text().to_string(),
                _ => String::new(),
            };
            out.push((t, text));
        }
        Ok(out)
    }

    #[test]
    fn tokenizes_scalars() {
        assert_eq!(tokens("null").unwrap(), vec![tok(JsonToken::Null)]);
        assert_eq!(tokens("true").unwrap(), vec![tok(JsonToken::Bool(true))]);
        assert_eq!(tokens("-1.5e2").unwrap(), vec![tok(JsonToken::Num(-150.0))]);
        assert_eq!(tokens(r#""hi""#).unwrap(), vec![st("hi")]);
    }

    #[test]
    fn tokenizes_nested_document() {
        let toks = tokens(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(
            toks,
            vec![
                tok(JsonToken::ObjectStart),
                key("a"),
                tok(JsonToken::ArrayStart),
                tok(JsonToken::Num(1.0)),
                tok(JsonToken::ObjectStart),
                key("b"),
                tok(JsonToken::Null),
                tok(JsonToken::ObjectEnd),
                tok(JsonToken::ArrayEnd),
                key("c"),
                st("x"),
                tok(JsonToken::ObjectEnd),
            ]
        );
    }

    #[test]
    fn text_borrows_one_reused_buffer() {
        let doc = r#"{"alpha": "a longer string value", "b": 12, "c": "x"}"#;
        let mut stream = JsonStream::new(doc.as_bytes());
        let mut texts = Vec::new();
        while let Some(t) = stream.next_token().unwrap() {
            if matches!(t, JsonToken::Key | JsonToken::Str) {
                texts.push(stream.text().to_string());
            }
        }
        assert_eq!(texts, ["alpha", "a longer string value", "b", "c", "x"]);
        // Peak accounting sees the longest token, not a sum of tokens.
        assert_eq!(
            stream.peak_buffered(),
            DEFAULT_CHUNK + "a longer string value".len()
        );
    }

    #[test]
    fn chunk_boundaries_are_transparent() {
        let doc = r#"{"name": "héllo wörld ✓ 😀", "n": 12345, "esc": "aéb😀c"}"#;
        let want = tokens(doc).unwrap();
        // Chunk size is clamped to >= 512, so pad the document so tokens
        // really do straddle refills.
        let pad = "x".repeat(700);
        let padded = format!(r#"{{"pad": "{pad}", "inner": {doc}}}"#);
        let a = tokens_chunked(padded.as_bytes(), 512).unwrap();
        let b = tokens_chunked(padded.as_bytes(), 8192).unwrap();
        assert_eq!(a, b);
        // Tokens: ObjectStart, Key(pad), Str(pad), Key(inner), <inner doc>.
        assert_eq!(&a[4..4 + want.len()], &want[..]);
    }

    #[test]
    fn runs_escapes_and_utf8_straddle_words_and_refills() {
        // Three pieces, each written across a 512-byte refill: a plain
        // run, escapes (a surrogate pair and `\n`) and multi-byte UTF-8.
        // `shift` slides each piece across its refill and lengthens the
        // plain run before it, which moves the piece through every
        // alignment of the 8-byte words the run scan reads.
        let pieces = [
            (512, "0123456789ab", "0123456789ab"),
            (1024, "\\ud83d\\ude00\\n", "😀\n"),
            (1536, "é😀", "é😀"),
        ];
        for shift in 0..24 {
            let mut doc = String::from("[");
            let mut want = vec![tok(JsonToken::ArrayStart)];
            for (refill, raw, decoded) in pieces {
                let before = "r".repeat(33 + shift);
                // The piece starts `into` bytes before the refill and ends
                // after it.
                let into = 1 + shift % (raw.len() - 1);
                let start = refill - into;
                let filler = " ".repeat(start - doc.len() - 4 - before.len());
                doc.push_str(&format!("\"{filler}\",\"{before}"));
                assert_eq!(doc.len(), start);
                doc.push_str(raw);
                doc.push_str("end\",");
                want.push(st(&filler));
                want.push(st(&format!("{before}{decoded}end")));
            }
            doc.pop();
            doc.push(']');
            want.push(tok(JsonToken::ArrayEnd));
            for chunk in [512, DEFAULT_CHUNK] {
                let got = tokens_chunked(doc.as_bytes(), chunk).unwrap();
                assert_eq!(got, want, "shift {shift}, chunk {chunk}");
            }
            let parsed = crate::json::parse(&doc).unwrap();
            let strings: Vec<&str> = parsed
                .as_array()
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap())
                .collect();
            let texts: Vec<&str> = want.iter().map(|(_, t)| t.as_str()).collect();
            assert_eq!(strings, texts[1..texts.len() - 1], "shift {shift}");
        }
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
            let toks = tokens(doc).unwrap();
            assert_eq!(toks, vec![st(want)], "{doc}");
            // Cross-check against the in-memory parser.
            let v = crate::json::parse(doc).unwrap();
            assert_eq!(v.as_str(), Some(want), "{doc}");
            // And against the tiny-chunk streaming path, where the pair
            // can straddle a refill boundary.
            let pad = "x".repeat(700);
            let padded = format!(r#"{{"pad": "{pad}", "s": {doc}}}"#);
            let toks = tokens_chunked(padded.as_bytes(), 512).unwrap();
            assert_eq!(toks[4], st(want), "{doc} (chunked)");
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
            let err = tokens(doc).unwrap_err();
            assert_eq!(err.kind(), kind, "{doc:?}: {err}");
        }
    }

    #[test]
    fn an_error_is_final() {
        // Resuming after the bad escape would read `", "` as a string.
        for doc in [r#"["a\q", "after"]"#, r#"{"k": tru, "z": 1}"#] {
            let mut stream = JsonStream::new(doc.as_bytes());
            let first = loop {
                match stream.next_token() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("{doc:?} accepted"),
                    Err(e) => break e,
                }
            };
            for _ in 0..3 {
                assert_eq!(stream.next_token(), Err(first.clone()), "{doc:?}");
            }
        }
    }

    #[test]
    fn rejects_invalid_utf8() {
        let bytes = b"\"ab\xff\xfecd\"";
        let err = tokens_chunked(bytes, DEFAULT_CHUNK).unwrap_err();
        assert_eq!(err.kind(), StreamErrorKind::Utf8);
    }

    #[test]
    fn depth_is_bounded() {
        let doc = "[".repeat(MAX_DEPTH + 10);
        let err = tokens(&doc).unwrap_err();
        assert_eq!(err.kind(), StreamErrorKind::DepthExceeded);
    }

    #[test]
    fn string_token_length_is_bounded() {
        let doc = format!("\"{}\"", "a".repeat(MAX_TOKEN + 100));
        let src = ChunkSource::with_chunk_size(doc.as_bytes(), 4096);
        let mut stream = JsonStream::from_source(src);
        let err = loop {
            match stream.next_token() {
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
        let err = tokens("{\n\"a\": \n@}").unwrap_err();
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
        while let Some(_t) = stream.next_token().unwrap() {}
        assert_eq!(stream.bytes_read(), doc.len() as u64);
        assert!(stream.peak_buffered() < 1024 + 64, "small tokens only");
    }

    #[test]
    fn line_reader_handles_terminators_and_eof() {
        let mut r = LineReader::new("a\nb\r\nc".as_bytes());
        assert_eq!(r.next_line().unwrap(), Some("a"));
        assert_eq!(r.line(), 2);
        assert_eq!(r.next_line().unwrap(), Some("b"));
        assert_eq!(r.next_line().unwrap(), Some("c"));
        assert_eq!(r.line(), 3);
        assert_eq!(r.next_line().unwrap(), None);
        assert_eq!(r.next_line().unwrap(), None);
        assert_eq!(r.bytes_read(), 6);
    }

    #[test]
    fn line_reader_empty_lines_and_chunks() {
        let text = "first\n\nthird\n";
        let src = ChunkSource::with_chunk_size(text.as_bytes(), 512);
        let mut r = LineReader::from_source(src);
        assert_eq!(r.next_line().unwrap(), Some("first"));
        assert_eq!(r.next_line().unwrap(), Some(""));
        assert_eq!(r.next_line().unwrap(), Some("third"));
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
        assert_eq!(r.next_line().unwrap(), Some("ok"));
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
        let toks = {
            let mut stream = JsonStream::new(flaky);
            let mut out = Vec::new();
            while let Some(t) = stream.next_token().unwrap() {
                out.push(t);
            }
            out
        };
        assert_eq!(toks.len(), 7);
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
        let err = stream.next_token().unwrap_err();
        assert_eq!(err.kind(), StreamErrorKind::Io);
        assert!(err.message().contains("disk on fire"));
    }
}
