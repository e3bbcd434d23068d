//! The `sbomdiff-serve` child process and a minimal HTTP/1.1 keep-alive
//! client for it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `sbomdiff-serve serve` process, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so that the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: String,
}

impl Server {
    /// Starts the server at its defaults on an ephemeral port and returns
    /// once it listens (its first line of standard output names the port).
    pub fn spawn(bin: &str) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0"])
            .env_remove("SBOMDIFF_JOBS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let pid = child.id().to_string();
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().ok_or("server stdout not captured")?);
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .rsplit_once("http://")
            .map(|(_, a)| a.to_string());
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
            pid,
        };
        match read {
            Ok(n) if n > 0 && !server.addr.is_empty() => Ok(server),
            _ => Err(format!("server did not report its address (got {line:?})")),
        }
    }

    /// Polls `/healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(mut conn) = Conn::connect(&self.addr) {
                if let Ok((200, _)) = conn.get("/healthz") {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server never answered /healthz".into())
    }

    /// One `GET /metrics` scrape.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut conn = Conn::connect(&self.addr).map_err(|e| e.to_string())?;
        match conn.get("/metrics") {
            Ok((200, body)) => Ok(Scrape(String::from_utf8_lossy(&body).into_owned())),
            Ok((status, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics failed: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A Prometheus text exposition.
pub struct Scrape(String);

impl Scrape {
    /// Sum of every sample of family `name` (all label sets).
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .lines()
            .filter(|l| {
                l.strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            })
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }

    /// Sum of family `name` over the samples whose labels contain `label`.
    pub fn sum_where(&self, name: &str, label: &str) -> f64 {
        self.0
            .lines()
            .filter(|l| {
                l.starts_with(name) && l[name.len()..].starts_with('{') && l.contains(label)
            })
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        self.round_trip(head.as_bytes())
    }

    /// Writes one complete request and reads its `Content-Length`-framed
    /// response; returns the status and the body.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad =
            || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response head");
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let length: usize = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(bad)?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}
