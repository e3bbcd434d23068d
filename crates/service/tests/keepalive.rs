//! Integration tests for the reactor's HTTP/1.1 connection handling:
//! keep-alive, pipelining, adversarial framing, and timeout behavior, all
//! driven over real sockets against an in-process server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sbomdiff_service::metrics::TimeoutPhase;
use sbomdiff_service::server::{ServeConfig, Server, ServerHandle};

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server starts")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads one `Content-Length`-framed response; returns (status, head, body).
fn read_framed(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn request_split_across_tcp_segments_is_reassembled() {
    let mut handle = start(ServeConfig::default());
    let mut stream = connect(handle.addr());
    let raw = post(
        "/v1/analyze",
        r#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#,
    );
    // Trickle the request a few bytes at a time across many segments; the
    // incremental parser must reassemble it exactly.
    for chunk in raw.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, body) = read_framed(&mut stream);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_answer_in_order() {
    let mut handle = start(ServeConfig::default());
    let mut stream = connect(handle.addr());
    // Three requests in a single TCP segment; responses must come back in
    // request order, distinguishable by body.
    let burst = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n\
                 GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n\
                 GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
    stream.write_all(burst.as_bytes()).unwrap();
    let (s1, _, b1) = read_framed(&mut stream);
    let (s2, _, b2) = read_framed(&mut stream);
    let (s3, _, b3) = read_framed(&mut stream);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert!(b1.contains("\"ok\""), "{b1}");
    assert!(b2.contains("sbomdiff_requests_total"), "{b2}");
    assert!(b3.contains("\"ok\""), "{b3}");
    handle.shutdown();
}

#[test]
fn zero_length_body_is_a_complete_request() {
    let mut handle = start(ServeConfig::default());
    let mut stream = connect(handle.addr());
    // Content-Length: 0 frames an empty body; the handler rejects the
    // empty JSON (400) but the connection survives — the next request on
    // the same socket is served normally.
    stream.write_all(post("/v1/diff", "").as_bytes()).unwrap();
    let (status, _, _) = read_framed(&mut stream);
    assert_eq!(status, 400);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_framed(&mut stream);
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}

#[test]
fn trailing_garbage_after_framed_body_is_rejected_not_ignored() {
    let mut handle = start(ServeConfig::default());
    let mut stream = connect(handle.addr());
    let mut raw = post(
        "/v1/analyze",
        r#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#,
    );
    raw.push_str("\0\0garbage that is not an http request\r\n\r\n");
    stream.write_all(raw.as_bytes()).unwrap();
    // The framed request is answered...
    let (status, _, _) = read_framed(&mut stream);
    assert_eq!(status, 200);
    // ...and the garbage is a framing error: 400, then close (EOF).
    let (status, head, _) = read_framed(&mut stream);
    assert_eq!(status, 400);
    assert!(head.to_ascii_lowercase().contains("connection: close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn half_close_mid_request_gets_408_not_silent_drop() {
    let mut handle = start(ServeConfig {
        header_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let mut stream = connect(handle.addr());
    // Head promises a body that never comes, then the client half-closes
    // its write side. The read side stays open: the server must still
    // deliver the 408 there instead of dropping the connection.
    stream
        .write_all(b"POST /v1/diff HTTP/1.1\r\nHost: localhost\r\nContent-Length: 64\r\n\r\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(
        handle.state().metrics.timeouts_phase(TimeoutPhase::Body) >= 1,
        "body-phase timeout must be counted"
    );
    handle.shutdown();
}

#[test]
fn slow_loris_header_times_out_with_408_and_counted_phase() {
    let mut handle = start(ServeConfig {
        header_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    });
    let mut stream = connect(handle.addr());
    // Classic slow loris: drip header bytes and never finish the head.
    stream.write_all(b"GET /healthz HT").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
    assert!(
        handle.state().metrics.timeouts_phase(TimeoutPhase::Header) >= 1,
        "header-phase timeout must be counted"
    );
    // The metric is exposed with its phase label.
    let mut probe = connect(handle.addr());
    probe
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let (status, _, body) = read_framed(&mut probe);
    assert_eq!(status, 200);
    assert!(
        body.contains("sbomdiff_timeouts_total{phase=\"header\"}"),
        "{body}"
    );
    handle.shutdown();
}

#[test]
fn batch_endpoint_amortizes_many_requests_over_one_round_trip() {
    let mut handle = start(ServeConfig::default());
    let mut stream = connect(handle.addr());
    let batch = r#"{"requests":[
        {"path":"/v1/analyze","body":{"files":{"requirements.txt":"numpy==1.19.2\n"}}},
        {"path":"/v1/analyze","body":{"files":{"requirements.txt":"numpy==1.19.2\n"}}},
        {"path":"/v1/nope","body":{}}
    ]}"#;
    stream
        .write_all(post("/v1/batch", batch).as_bytes())
        .unwrap();
    let (status, _, body) = read_framed(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"count\": 3") || body.contains("\"count\":3"),
        "{body}"
    );
    // Identical sub-requests inside one batch share the response cache.
    assert!(handle.state().cache.stats().hits >= 1);
    handle.shutdown();
}

#[test]
fn responses_are_byte_identical_across_worker_counts() {
    // The full wire bytes (head + body) must match between a jobs=1 and a
    // jobs=4 server, for both cold and cached (keep-alive, preserialized)
    // responses: handlers are pure and responses carry no timestamps.
    let payloads = [
        (
            "/v1/analyze",
            r#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#,
        ),
        // Repeat → the cached, preserialized zero-copy hit path.
        (
            "/v1/analyze",
            r#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#,
        ),
        (
            "/v1/analyze",
            r#"{"files":{"package.json":"{\"dependencies\":{\"react\":\"17.0.2\"}}"}}"#,
        ),
    ];
    let collect = |jobs: usize| -> Vec<(u16, String, String)> {
        let mut handle = start(ServeConfig {
            jobs,
            ..ServeConfig::default()
        });
        let mut stream = connect(handle.addr());
        let mut responses = Vec::new();
        for (path, body) in &payloads {
            stream.write_all(post(path, body).as_bytes()).unwrap();
            responses.push(read_framed(&mut stream));
        }
        handle.shutdown();
        responses
    };
    let serial = collect(1);
    let parallel = collect(4);
    assert_eq!(serial, parallel);
    handle_statuses(&serial);
}

fn handle_statuses(responses: &[(u16, String, String)]) {
    for (status, _, body) in responses {
        assert!(*status < 500, "unexpected 5xx: {body}");
    }
}
