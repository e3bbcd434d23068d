//! HTTP/1.1 request parsing and response serialization for the reactor.
//!
//! The build environment is fully offline (no tokio/hyper), so the service
//! speaks just enough HTTP/1.1 for API traffic — but since PR 8 it speaks
//! it *incrementally*: [`parse_request`] consumes a byte buffer that may
//! hold a partial request, exactly one request, or several pipelined
//! requests, and reports how many bytes the first complete request
//! consumed. The connection state machine (`conn.rs`) calls it in a loop
//! over whatever the socket delivered.
//!
//! Framing rules (RFC 9112, hardened):
//!
//! * header names are case-insensitive (`content-length`, `CONTENT-LENGTH`
//!   and `Content-Length` are the same header);
//! * empty-line padding before a request line (RFC 9112 §2.2 — e.g. a
//!   CRLF a client sends between pipelined requests) is ignored, bounded
//!   by the head cap;
//! * duplicate, non-numeric, signed, or overflowing `Content-Length`
//!   values are a 400, never a silent misframe;
//! * `Transfer-Encoding` is not supported and answers 400 rather than
//!   guessing at body boundaries;
//! * head and body sizes are hard-capped so untrusted input cannot exhaust
//!   memory.

use std::sync::Arc;

/// Maximum accepted bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request → 400.
    Malformed(&'static str),
    /// Head or body over the configured limits → 413.
    TooLarge,
}

impl HttpError {
    /// The status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge => 413,
        }
    }

    /// The client-facing message.
    pub fn message(&self) -> &'static str {
        match self {
            HttpError::Malformed(msg) => msg,
            HttpError::TooLarge => "request too large",
        }
    }
}

/// Which part of a request the buffer currently ends inside — used to
/// label `408` timeouts (`sbomdiff_timeouts_total{phase}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPhase {
    /// Still inside the request line / headers.
    Head,
    /// Head complete, waiting for `Content-Length` body bytes.
    Body,
}

/// Result of attempting to parse one request from the front of a buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// A full request: `consumed` bytes belong to it; the rest of the
    /// buffer (if any) is the next pipelined request. `keep_alive` is the
    /// connection's fate *after* this request per RFC 9112 §9.3.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer consumed by this request.
        consumed: usize,
        /// False when the client asked for `Connection: close` (or spoke
        /// HTTP/1.0 without `keep-alive`).
        keep_alive: bool,
    },
    /// Not enough bytes yet; `ReadPhase` says which part is pending.
    Partial(ReadPhase),
    /// The request is invalid; the connection must answer and close.
    Error(HttpError),
}

/// Attempts to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> ParseStatus {
    // RFC 9112 §2.2: ignore empty line(s) received where a request-line
    // is expected (e.g. CRLF padding a client sends between pipelined
    // requests). The skipped bytes are charged to this request's
    // `consumed`; a peer streaming nothing but padding hits the head cap.
    let mut skip = 0;
    while skip <= MAX_HEAD_BYTES {
        if buf[skip..].starts_with(b"\r\n") {
            skip += 2;
        } else if buf[skip..].starts_with(b"\n") {
            skip += 1;
        } else {
            break;
        }
    }
    if skip > MAX_HEAD_BYTES {
        return ParseStatus::Error(HttpError::TooLarge);
    }
    let buf = &buf[skip..];

    // Locate the end of the head: the first empty line. Lines may be
    // CRLF- or bare-LF-terminated (the pre-reactor parser tolerated both).
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return ParseStatus::Error(HttpError::TooLarge);
        }
        return ParseStatus::Partial(ReadPhase::Head);
    };
    if head_end > MAX_HEAD_BYTES {
        return ParseStatus::Error(HttpError::TooLarge);
    }
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return ParseStatus::Error(HttpError::Malformed("head is not valid UTF-8"));
    };
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    // Request line.
    let Some(request_line) = lines.next() else {
        return ParseStatus::Error(HttpError::Malformed("bad request line"));
    };
    let mut parts = request_line.split(' ');
    let Some(method) = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
    else {
        return ParseStatus::Error(HttpError::Malformed("bad request line"));
    };
    let Some(target) = parts.next().filter(|t| t.starts_with('/')) else {
        return ParseStatus::Error(HttpError::Malformed("bad request target"));
    };
    let Some(version) = parts.next() else {
        return ParseStatus::Error(HttpError::Malformed("missing version"));
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") || parts.next().is_some() {
        return ParseStatus::Error(HttpError::Malformed("unsupported protocol"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    // Headers: case-insensitive names, hardened Content-Length.
    let mut content_length: Option<usize> = None;
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        if line.is_empty() {
            continue; // the terminating empty line
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseStatus::Error(HttpError::Malformed("header without colon"));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.2: anything but a single plain digit run is an
            // unrecoverable framing ambiguity — reject, never guess.
            if content_length.is_some() {
                return ParseStatus::Error(HttpError::Malformed("duplicate content-length"));
            }
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return ParseStatus::Error(HttpError::Malformed("bad content-length"));
            }
            let Ok(n) = value.parse::<u64>() else {
                // Digit runs longer than u64 are an overflow attack, not a
                // size the service could ever accept.
                return ParseStatus::Error(HttpError::Malformed("bad content-length"));
            };
            if n > MAX_BODY_BYTES as u64 {
                return ParseStatus::Error(HttpError::TooLarge);
            }
            content_length = Some(n as usize);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return ParseStatus::Error(HttpError::Malformed("transfer-encoding not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list, case-insensitive per RFC 9110 §7.6.1.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }

    // Body.
    let content_length = content_length.unwrap_or(0);
    let total = head_end + content_length;
    if buf.len() < total {
        return ParseStatus::Partial(ReadPhase::Body);
    }
    ParseStatus::Complete {
        request: Request {
            method: method.to_string(),
            path,
            body: buf[head_end..total].to_vec(),
        },
        consumed: skip + total,
        keep_alive,
    }
}

/// Index just past the head terminator (the first empty line), or `None`
/// when the buffer does not contain a full head yet. The caller
/// ([`parse_request`]) has already stripped leading empty lines, so the
/// buffer never *starts* with the terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // An empty line is `\n` immediately, or `\r\n` immediately,
            // after the previous line's `\n`.
            let line_start = i + 1;
            match buf.get(line_start) {
                Some(b'\n') => return Some(line_start + 1),
                Some(b'\r') if buf.get(line_start + 1) == Some(&b'\n') => {
                    return Some(line_start + 2)
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// An HTTP response ready to be serialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// True when the analysis behind this response ran in degraded mode
    /// (an injected or caught fault reduced its completeness). Degraded
    /// responses are never admitted to the response cache.
    pub degraded: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            degraded: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            degraded: false,
        }
    }

    /// Marks this response as degraded (see [`Response::degraded`]).
    pub fn with_degraded(mut self, degraded: bool) -> Response {
        self.degraded = degraded;
        self
    }

    /// A JSON error envelope (`{"error": "..."}`).
    pub fn error(status: u16, message: &str) -> Response {
        let mut doc = sbomdiff_textformats::Value::object();
        doc.set("error", sbomdiff_textformats::Value::from(message));
        let mut body = sbomdiff_textformats::json::to_string(&doc);
        body.push('\n');
        Response::json(status, body)
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Serializes the response to wire bytes.
    ///
    /// Persistent connections are the HTTP/1.1 default, so no `Connection`
    /// header is emitted unless the server is about to close — which keeps
    /// the serialization identical between the keep-alive path and the
    /// preserialized cache-hit path (the cache stores the persistent form;
    /// see [`crate::respcache::CacheEntry`]).
    pub fn serialize(&self, close: bool) -> Vec<u8> {
        serialize_parts(self.status, self.content_type, &self.body, close)
    }

    /// Serializes into a shared buffer for the zero-copy write path.
    pub fn serialize_shared(&self) -> Arc<[u8]> {
        Arc::from(self.serialize(false).into_boxed_slice())
    }
}

/// The wire bytes of a response with these parts (see
/// [`Response::serialize`]): the head, then `body` verbatim.
pub(crate) fn serialize_parts(
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

/// The canonical reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &[u8]) -> (Request, usize, bool) {
        match parse_request(raw) {
            ParseStatus::Complete {
                request,
                consumed,
                keep_alive,
            } => (request, consumed, keep_alive),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    fn parse_err(raw: &[u8]) -> HttpError {
        match parse_request(raw) {
            ParseStatus::Error(err) => err,
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_without_body() {
        let (req, consumed, keep_alive) = parse_ok(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(consumed, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".len());
        assert!(keep_alive);
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let raw = b"POST /v1/diff?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let (req, consumed, _) = parse_ok(raw);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/diff");
        assert_eq!(req.body, b"abcd");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        for name in [
            "Content-Length",
            "content-length",
            "CONTENT-LENGTH",
            "CoNtEnT-lEnGtH",
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{name}: 4\r\n\r\nabcd");
            let (req, _, _) = parse_ok(raw.as_bytes());
            assert_eq!(req.body, b"abcd", "{name}");
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, consumed, _) = parse_ok(raw);
        assert_eq!(req.path, "/a");
        let (req2, consumed2, _) = parse_ok(&raw[consumed..]);
        assert_eq!(req2.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn partial_head_and_partial_body_report_their_phase() {
        assert!(matches!(
            parse_request(b"POST /v1/diff HTT"),
            ParseStatus::Partial(ReadPhase::Head)
        ));
        assert!(matches!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            ParseStatus::Partial(ReadPhase::Body)
        ));
        assert!(matches!(
            parse_request(b""),
            ParseStatus::Partial(ReadPhase::Head)
        ));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let (_, _, ka) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!ka);
        let (_, _, ka) = parse_ok(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n");
        assert!(!ka, "token comparison is case-insensitive");
        let (_, _, ka) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!ka, "HTTP/1.0 defaults to close");
        let (_, _, ka) = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(ka, "HTTP/1.0 opts back in explicitly");
        let (_, _, ka) = parse_ok(b"GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n");
        assert!(!ka, "close anywhere in the token list wins");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "GET\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET / HTTP/1.2\r\n\r\n",
        ] {
            assert!(
                matches!(
                    parse_request(raw.as_bytes()),
                    ParseStatus::Error(HttpError::Malformed(_))
                ),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(matches!(
            parse_err(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n"),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            parse_err(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            parse_err(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn rejects_duplicate_content_length() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        assert_eq!(
            parse_err(raw),
            HttpError::Malformed("duplicate content-length")
        );
        // Even when the duplicate hides behind a case variant.
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 9\r\n\r\nabcd";
        assert_eq!(
            parse_err(raw),
            HttpError::Malformed("duplicate content-length")
        );
    }

    #[test]
    fn rejects_signed_fractional_and_overflowing_content_length() {
        for value in [
            "-1",
            "+4",
            "4.0",
            "0x10",
            "18446744073709551616",
            "99999999999999999999999",
        ] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n");
            assert_eq!(
                parse_err(raw.as_bytes()),
                HttpError::Malformed("bad content-length"),
                "{value}"
            );
        }
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_err(raw.as_bytes()), HttpError::TooLarge);
    }

    #[test]
    fn rejects_oversized_head() {
        // Complete but oversized head.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse_err(raw.as_bytes()), HttpError::TooLarge);
        // Unterminated head already past the cap.
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(MAX_HEAD_BYTES));
        assert_eq!(parse_err(raw.as_bytes()), HttpError::TooLarge);
    }

    #[test]
    fn zero_length_body_completes_immediately() {
        let (req, consumed, _) = parse_ok(b"POST /v1/diff HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(req.body.is_empty());
        assert_eq!(
            consumed,
            b"POST /v1/diff HTTP/1.1\r\nContent-Length: 0\r\n\r\n".len()
        );
    }

    #[test]
    fn leading_empty_lines_are_ignored() {
        // RFC 9112 §2.2: empty-line padding before the request line is
        // ignored, not a 400 that kills the keep-alive connection.
        let raw = b"\r\nGET / HTTP/1.1\r\n\r\n";
        let (req, consumed, _) = parse_ok(raw);
        assert_eq!(req.path, "/");
        assert_eq!(consumed, raw.len(), "padding is charged to the request");
        // Several empty lines, CRLF and bare LF mixed.
        let raw = b"\r\n\n\r\nGET /a HTTP/1.1\r\n\r\n";
        let (req, consumed, _) = parse_ok(raw);
        assert_eq!(req.path, "/a");
        assert_eq!(consumed, raw.len());
        // Padding between pipelined requests frames onto the follower.
        let raw = b"GET /a HTTP/1.1\r\n\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (_, c1, _) = parse_ok(raw);
        let (req2, c2, _) = parse_ok(&raw[c1..]);
        assert_eq!(req2.path, "/b");
        assert_eq!(c1 + c2, raw.len());
        // Only padding so far: a partial head, not an error.
        assert!(matches!(
            parse_request(b"\r\n\r\n"),
            ParseStatus::Partial(ReadPhase::Head)
        ));
        // A lone CR could be half of a CRLF: still partial.
        assert!(matches!(
            parse_request(b"\r\n\r"),
            ParseStatus::Partial(ReadPhase::Head)
        ));
        // A flood of nothing but padding is cut off at the head cap.
        let raw = "\r\n".repeat(MAX_HEAD_BYTES);
        assert_eq!(parse_err(raw.as_bytes()), HttpError::TooLarge);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let (req, _, _) = parse_ok(b"POST /v1/diff HTTP/1.1\nContent-Length: 2\n\nhi");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn serialization_frames_body_and_connection() {
        let resp = Response::json(200, "{}\n");
        let text = String::from_utf8(resp.serialize(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(!text.contains("Connection:"), "persistent is the default");
        assert!(text.ends_with("\r\n\r\n{}\n"));
        let text = String::from_utf8(resp.serialize(true)).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        // The shared form matches the persistent serialization.
        assert_eq!(&*resp.serialize_shared(), resp.serialize(false).as_slice());
    }

    #[test]
    fn reason_covers_new_statuses() {
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(429), "Too Many Requests");
    }

    #[test]
    fn error_envelope_is_json() {
        let resp = Response::error(400, "nope \"quoted\"");
        assert_eq!(resp.status, 400);
        let doc =
            sbomdiff_textformats::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("error").and_then(|v| v.as_str()),
            Some("nope \"quoted\"")
        );
    }
}
