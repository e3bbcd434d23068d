//! Built-in load generator: N concurrent synthetic clients against an
//! in-process server.
//!
//! Payloads come from the calibrated corpus generator, so the traffic
//! exercises exactly the parsing/diffing machinery the paper's batch
//! experiments do — a small payload set is deliberately reused across many
//! requests to exercise the response cache. Client fan-out rides on
//! `sbomdiff_parallel::par_map`, the same worker-pool primitive the batch
//! pipeline uses.
//!
//! Clients speak HTTP/1.1 keep-alive by default (one connection per client
//! for the whole run, responses framed by `Content-Length`, headers matched
//! case-insensitively per RFC 9112); `--no-keep-alive` falls back to a
//! fresh connection per request, which is also the sweep's worst-case
//! column. [`run_sweep`] drives a clients × payloads × keep-alive grid and
//! records the latency-histogram trajectory in `BENCH_service.json`.
//!
//! The summary checks the service-level guarantees: zero 5xx, per-payload
//! byte-identical responses (the response digest is independent of
//! `--jobs`), and a nonzero cache hit ratio.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_registry::Registries;
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_textformats::{json, Value};
use sbomdiff_types::fnv1a;

use crate::server::{ServeConfig, Server};

/// Throughput of the pre-reactor thread-per-request server on the same
/// bench cell (requests=1000, clients=4, payloads=12, seed=42); the
/// reactor's speedup in `BENCH_service.json` is measured against this.
pub const BASELINE_RPS: f64 = 1463.1;

/// Latency histogram bucket upper bounds, in microseconds; one overflow
/// bucket follows.
pub const HIST_BOUNDS_US: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Load-generation configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Distinct payloads to rotate through (smaller → more cache hits).
    pub payloads: usize,
    /// Server worker threads (0 → default policy).
    pub jobs: usize,
    /// Seed for corpus payload synthesis and the server default seed.
    pub seed: u64,
    /// Reuse one connection per client (HTTP/1.1 keep-alive); `false`
    /// reconnects per request.
    pub keep_alive: bool,
    /// Drive batched `POST /v1/impact` payloads only (one tool-profile
    /// batch per payload) instead of the mixed analyze/diff/impact set.
    pub impact_only: bool,
    /// Where to write the benchmark JSON (None → don't write).
    pub out: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            requests: 1000,
            clients: 4,
            payloads: 12,
            jobs: 0,
            seed: 42,
            keep_alive: true,
            impact_only: false,
            out: None,
        }
    }
}

/// One client-side observation.
struct Sample {
    payload_idx: usize,
    status: u16,
    latency_micros: u64,
    body_hash: u64,
}

/// Aggregated loadgen results.
#[derive(Debug, Clone)]
pub struct LoadgenSummary {
    /// Requests sent.
    pub requests: usize,
    /// Concurrent clients used.
    pub clients: usize,
    /// Whether clients reused connections.
    pub keep_alive: bool,
    /// Responses by status code.
    pub status_counts: BTreeMap<u16, usize>,
    /// Wall-clock duration of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles in microseconds (p50, p90, p99, max).
    pub latency_us: (u64, u64, u64, u64),
    /// Latency histogram: per-bucket counts for [`HIST_BOUNDS_US`] plus a
    /// final overflow bucket.
    pub histogram: Vec<usize>,
    /// Server-side response-cache hits / misses scraped from `/metrics`.
    pub cache_hits: u64,
    /// See [`LoadgenSummary::cache_hits`].
    pub cache_misses: u64,
    /// Order-independent digest over per-payload response bodies; equal
    /// digests across runs mean byte-identical responses.
    pub response_digest: u64,
    /// Payloads whose responses were *not* byte-identical across requests.
    pub inconsistent_payloads: usize,
    /// `sbomdiff_worker_panics_total` scraped from `/metrics` — panics
    /// caught at the worker-pool boundary (must stay 0, even under chaos).
    pub worker_panics: u64,
    /// `sbomdiff_degraded_total` scraped from `/metrics` — analyses that
    /// completed in degraded mode.
    pub degraded: u64,
    /// Sum of `sbomdiff_advisories_matched_total{severity}` scraped from
    /// `/metrics` — advisories raised by `/v1/impact` scans.
    pub advisories_matched: u64,
}

impl LoadgenSummary {
    /// Total non-2xx responses.
    pub fn non_2xx(&self) -> usize {
        self.status_counts
            .iter()
            .filter(|(status, _)| !(200..300).contains(*status))
            .map(|(_, n)| n)
            .sum()
    }

    /// Total 5xx responses.
    pub fn count_5xx(&self) -> usize {
        self.status_counts
            .iter()
            .filter(|(status, _)| **status >= 500)
            .map(|(_, n)| n)
            .sum()
    }

    /// The acceptance gate: every response 2xx, byte-identical bodies per
    /// payload, and a warm cache.
    pub fn ok(&self) -> bool {
        self.non_2xx() == 0 && self.inconsistent_payloads == 0 && self.cache_hits > 0
    }

    /// Renders the human-readable report table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loadgen: {} requests, {} clients, keep-alive={}, {:.1} ms wall\n",
            self.requests, self.clients, self.keep_alive, self.wall_ms
        ));
        out.push_str(&format!(
            "  throughput   {:.0} req/s ({:.1}x the pre-reactor baseline)\n",
            self.throughput_rps,
            self.throughput_rps / BASELINE_RPS
        ));
        let (p50, p90, p99, max) = self.latency_us;
        out.push_str(&format!(
            "  latency (us) p50={p50} p90={p90} p99={p99} max={max}\n"
        ));
        for (status, count) in &self.status_counts {
            out.push_str(&format!("  status {status}  {count}\n"));
        }
        let lookups = self.cache_hits + self.cache_misses;
        let ratio = if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        };
        out.push_str(&format!(
            "  cache        {} hits / {} misses ({:.1}% hit ratio)\n",
            self.cache_hits,
            self.cache_misses,
            ratio * 100.0
        ));
        out.push_str(&format!(
            "  responses    digest={:016x} inconsistent_payloads={}\n",
            self.response_digest, self.inconsistent_payloads
        ));
        out.push_str(&format!(
            "  advisories   {} raised (per-severity breakdown on /metrics)\n",
            self.advisories_matched
        ));
        out
    }

    /// The summary as a JSON object (shared by the single-run and sweep
    /// benchmark artifacts).
    fn json_doc(&self, jobs: usize, payloads: usize) -> Value {
        let mut doc = Value::object();
        doc.set("bench", Value::from("sbomdiff-serve loadgen"));
        doc.set("requests", Value::from(self.requests as i64));
        doc.set("clients", Value::from(self.clients as i64));
        doc.set("jobs", Value::from(jobs as i64));
        doc.set("payloads", Value::from(payloads as i64));
        doc.set("keep_alive", Value::from(self.keep_alive));
        doc.set("wall_ms", Value::from(self.wall_ms));
        doc.set("throughput_rps", Value::from(self.throughput_rps));
        doc.set("baseline_rps", Value::from(BASELINE_RPS));
        doc.set(
            "speedup_vs_baseline",
            Value::from(self.throughput_rps / BASELINE_RPS),
        );
        let (p50, p90, p99, max) = self.latency_us;
        let mut latency = Value::object();
        latency.set("p50_us", Value::from(p50 as i64));
        latency.set("p90_us", Value::from(p90 as i64));
        latency.set("p99_us", Value::from(p99 as i64));
        latency.set("max_us", Value::from(max as i64));
        doc.set("latency", latency);
        let mut histogram = Vec::with_capacity(self.histogram.len());
        let mut cumulative = 0usize;
        for (i, &count) in self.histogram.iter().enumerate() {
            cumulative += count;
            let mut bucket = Value::object();
            let le = HIST_BOUNDS_US
                .get(i)
                .map_or_else(|| "+inf".to_string(), u64::to_string);
            bucket.set("le_us", Value::from(le));
            bucket.set("count", Value::from(count as i64));
            bucket.set("cumulative", Value::from(cumulative as i64));
            histogram.push(bucket);
        }
        doc.set("latency_histogram", Value::Array(histogram));
        let mut statuses = Value::object();
        for (status, count) in &self.status_counts {
            statuses.set(status.to_string(), Value::from(*count as i64));
        }
        doc.set("status_counts", statuses);
        doc.set("non_2xx", Value::from(self.non_2xx() as i64));
        doc.set("cache_hits", Value::from(self.cache_hits as i64));
        doc.set("cache_misses", Value::from(self.cache_misses as i64));
        doc.set(
            "advisories_matched",
            Value::from(self.advisories_matched as i64),
        );
        doc.set(
            "inconsistent_payloads",
            Value::from(self.inconsistent_payloads as i64),
        );
        doc.set(
            "response_digest",
            Value::from(format!("{:016x}", self.response_digest)),
        );
        doc
    }

    /// Serializes the benchmark artifact (`BENCH_service.json`).
    pub fn to_json(&self, jobs: usize, payloads: usize) -> String {
        let mut body = json::to_string_pretty(&self.json_doc(jobs, payloads));
        body.push('\n');
        body
    }
}

/// One cell of the clients × payloads × keep-alive sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Concurrent clients in this cell.
    pub clients: usize,
    /// Distinct payloads rotated through.
    pub payloads: usize,
    /// Whether connections were reused.
    pub keep_alive: bool,
    /// Requests sent in this cell.
    pub requests: usize,
    /// Cell throughput.
    pub throughput_rps: f64,
    /// Cell latency percentiles in microseconds.
    pub latency_us: (u64, u64, u64, u64),
    /// Non-2xx responses (must be 0 under clean load).
    pub non_2xx: usize,
}

impl SweepCell {
    fn json_doc(&self) -> Value {
        let mut doc = Value::object();
        doc.set("clients", Value::from(self.clients as i64));
        doc.set("payloads", Value::from(self.payloads as i64));
        doc.set("keep_alive", Value::from(self.keep_alive));
        doc.set("requests", Value::from(self.requests as i64));
        doc.set("throughput_rps", Value::from(self.throughput_rps));
        let (p50, p90, p99, max) = self.latency_us;
        doc.set("p50_us", Value::from(p50 as i64));
        doc.set("p90_us", Value::from(p90 as i64));
        doc.set("p99_us", Value::from(p99 as i64));
        doc.set("max_us", Value::from(max as i64));
        doc.set("non_2xx", Value::from(self.non_2xx as i64));
        doc
    }
}

/// Runs the load generator against a fresh in-process server.
///
/// # Errors
///
/// Propagates server-start and benchmark-file I/O errors.
pub fn run(config: &LoadgenConfig) -> std::io::Result<LoadgenSummary> {
    let payloads = if config.impact_only {
        build_impact_payloads(config.seed, config.payloads.max(1))
    } else {
        build_payloads(config.seed, config.payloads.max(1))
    };
    run_with_payloads(config, &payloads)
}

/// Runs the primary bench cell plus a clients × payloads × keep-alive
/// sweep, writing a combined artifact to `config.out` when set. The
/// primary cell uses `config` exactly; sweep cells shrink the request
/// count so the grid stays CI-affordable.
///
/// # Errors
///
/// Propagates server-start and benchmark-file I/O errors.
pub fn run_sweep(config: &LoadgenConfig) -> std::io::Result<(LoadgenSummary, Vec<SweepCell>)> {
    let primary = run(&LoadgenConfig {
        out: None,
        ..config.clone()
    })?;
    let cell_requests = (config.requests / 4).clamp(1, config.requests.max(1));
    let mut cells = Vec::new();
    for &clients in &[1usize, 4, 16] {
        for &payloads in &[4usize, 12] {
            for &keep_alive in &[true, false] {
                let cell = run(&LoadgenConfig {
                    requests: cell_requests,
                    clients,
                    payloads,
                    keep_alive,
                    out: None,
                    ..config.clone()
                })?;
                cells.push(SweepCell {
                    clients,
                    payloads,
                    keep_alive,
                    requests: cell.requests,
                    throughput_rps: cell.throughput_rps,
                    latency_us: cell.latency_us,
                    non_2xx: cell.non_2xx(),
                });
            }
        }
    }
    if let Some(path) = &config.out {
        let mut doc = primary.json_doc(config.jobs, config.payloads);
        doc.set(
            "sweep",
            Value::Array(cells.iter().map(SweepCell::json_doc).collect()),
        );
        let mut body = json::to_string_pretty(&doc);
        body.push('\n');
        std::fs::write(path, body)?;
    }
    Ok((primary, cells))
}

/// Runs the load generator with a caller-supplied payload set against a
/// fresh in-process server. The chaos harness uses this to build payloads
/// once, cleanly, before any fault plan is installed.
///
/// # Errors
///
/// Propagates server-start and benchmark-file I/O errors.
pub fn run_with_payloads(
    config: &LoadgenConfig,
    payloads: &[(String, String)],
) -> std::io::Result<LoadgenSummary> {
    let mut server = Server::start(ServeConfig {
        jobs: config.jobs,
        seed: config.seed,
        ..ServeConfig::default()
    })?;
    let addr = server.addr();

    let started = Instant::now();
    let clients: Vec<usize> = (0..config.clients.max(1)).collect();
    let keep_alive = config.keep_alive;
    let samples: Vec<Vec<Sample>> = sbomdiff_parallel::par_map(clients.len(), &clients, |_, &c| {
        run_client(
            addr,
            c,
            clients.len(),
            config.requests,
            payloads,
            keep_alive,
        )
    });
    let wall = started.elapsed();

    // Scrape cache counters through the public endpoint so the loadgen
    // exercises /metrics too.
    let (_, metrics_text) = http_request(addr, "GET", "/metrics", "").unwrap_or((0, String::new()));
    let cache_hits = scrape(&metrics_text, "sbomdiff_cache_hits_total");
    let cache_misses = scrape(&metrics_text, "sbomdiff_cache_misses_total");
    let worker_panics = scrape(&metrics_text, "sbomdiff_worker_panics_total");
    let degraded = scrape(&metrics_text, "sbomdiff_degraded_total");
    let advisories_matched = scrape_sum(&metrics_text, "sbomdiff_advisories_matched_total{");
    server.shutdown();

    let mut status_counts: BTreeMap<u16, usize> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut per_payload: BTreeMap<usize, u64> = BTreeMap::new();
    let mut inconsistent: std::collections::BTreeSet<usize> = Default::default();
    for sample in samples.iter().flatten() {
        *status_counts.entry(sample.status).or_default() += 1;
        latencies.push(sample.latency_micros);
        match per_payload.get(&sample.payload_idx) {
            None => {
                per_payload.insert(sample.payload_idx, sample.body_hash);
            }
            Some(&seen) if seen != sample.body_hash => {
                inconsistent.insert(sample.payload_idx);
            }
            Some(_) => {}
        }
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let mut histogram = vec![0usize; HIST_BOUNDS_US.len() + 1];
    for &latency in &latencies {
        let bucket = HIST_BOUNDS_US
            .iter()
            .position(|&bound| latency <= bound)
            .unwrap_or(HIST_BOUNDS_US.len());
        histogram[bucket] += 1;
    }
    // Order-independent digest: XOR of per-payload (index, body hash)
    // mixes — identical for any client/worker interleaving.
    let response_digest = per_payload.iter().fold(0u64, |acc, (&idx, &hash)| {
        acc ^ hash
            .wrapping_add(idx as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });

    let total: usize = status_counts.values().sum();
    let summary = LoadgenSummary {
        requests: total,
        clients: clients.len(),
        keep_alive,
        status_counts,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            total as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        latency_us: (
            pct(0.50),
            pct(0.90),
            pct(0.99),
            *latencies.last().unwrap_or(&0),
        ),
        histogram,
        cache_hits,
        cache_misses,
        response_digest,
        inconsistent_payloads: inconsistent.len(),
        worker_panics,
        degraded,
        advisories_matched,
    };
    if let Some(path) = &config.out {
        std::fs::write(path, summary.to_json(config.jobs, config.payloads))?;
    }
    Ok(summary)
}

/// Builds the rotating payload set: analyze requests over synthetic corpus
/// repositories, plus diff and impact requests derived from their SBOMs.
pub fn build_payloads(seed: u64, count: usize) -> Vec<(String, String)> {
    let registries = Registries::generate(seed);
    let corpus = Corpus::build_with_jobs(
        &registries,
        &CorpusConfig {
            repos_per_language: count.div_ceil(9).max(1),
            seed,
        },
        1,
    );
    let repos: Vec<_> = corpus.iter().flat_map(|(_, repos)| repos).collect();
    let tools = sbomdiff_generators::studied_tools(&registries, 0.0);
    let mut payloads = Vec::with_capacity(count);
    for i in 0..count {
        let repo = repos[i % repos.len()];
        let endpoint = i % 3;
        match endpoint {
            0 => {
                let mut files = Value::object();
                for (path, text) in repo.text_files() {
                    files.set(path, Value::from(text));
                }
                let mut doc = Value::object();
                doc.set("name", Value::from(repo.name()));
                doc.set("seed", Value::from(seed as i64));
                doc.set("files", files);
                payloads.push(("/v1/analyze".to_string(), json::to_string(&doc)));
            }
            1 => {
                use sbomdiff_generators::SbomGenerator;
                let a = tools[0].generate(repo);
                let b = tools[3].generate(repo);
                let mut doc = Value::object();
                doc.set("a", Value::from(SbomFormat::CycloneDx.serialize(&a)));
                doc.set("b", Value::from(SbomFormat::Spdx.serialize(&b)));
                payloads.push(("/v1/diff".to_string(), json::to_string(&doc)));
            }
            _ => {
                use sbomdiff_generators::SbomGenerator;
                let sbom = tools[1].generate(repo);
                let mut doc = Value::object();
                doc.set("sbom", Value::from(SbomFormat::CycloneDx.serialize(&sbom)));
                doc.set("seed", Value::from(seed as i64));
                doc.set("advisory_seed", Value::from(1i64));
                doc.set("vulnerable_share", Value::from(0.3));
                payloads.push(("/v1/impact".to_string(), json::to_string(&doc)));
            }
        }
    }
    payloads
}

/// Builds batched `POST /v1/impact` payloads: per repository, one batch of
/// the best-practice SBOM (document 0, hence the shared ground truth)
/// followed by all four studied tool profiles — the service-side version of
/// the `experiments vuln` divergence run. Repeated payloads across clients
/// hit the response cache, and repeated packages within a batch hit the
/// enrichment cache.
pub fn build_impact_payloads(seed: u64, count: usize) -> Vec<(String, String)> {
    use sbomdiff_generators::{BestPracticeGenerator, SbomGenerator};
    let registries = Registries::generate(seed);
    let corpus = Corpus::build_with_jobs(
        &registries,
        &CorpusConfig {
            repos_per_language: count.div_ceil(9).max(1),
            seed,
        },
        1,
    );
    let repos: Vec<_> = corpus.iter().flat_map(|(_, repos)| repos).collect();
    let tools = sbomdiff_generators::studied_tools(&registries, 0.0);
    let best = BestPracticeGenerator::new(&registries);
    let mut payloads = Vec::with_capacity(count);
    for i in 0..count {
        let repo = repos[i % repos.len()];
        let mut docs = Vec::with_capacity(tools.len() + 1);
        docs.push(Value::from(
            SbomFormat::CycloneDx.serialize(&best.generate(repo)),
        ));
        for tool in &tools {
            docs.push(Value::from(
                SbomFormat::CycloneDx.serialize(&tool.generate(repo)),
            ));
        }
        let mut doc = Value::object();
        doc.set("sboms", Value::Array(docs));
        doc.set("seed", Value::from(seed as i64));
        doc.set("advisory_seed", Value::from(1i64));
        doc.set("vulnerable_share", Value::from(0.3));
        payloads.push(("/v1/impact".to_string(), json::to_string(&doc)));
    }
    payloads
}

/// A keep-alive client connection: one socket plus a response read buffer
/// (responses are `Content-Length`-framed; leftovers stay buffered for the
/// next response).
struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

impl ClientConn {
    fn connect(addr: SocketAddr) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            stream,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Sends one request and reads its framed response; returns
    /// `(status, body, server_will_close)`.
    fn round_trip(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String, bool)> {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String, bool)> {
        let head_end = loop {
            if let Some(at) = find_subslice(&self.buf[self.pos..], b"\r\n\r\n") {
                break self.pos + at + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[self.pos..head_end]).into_owned();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        // Header names are case-insensitive (RFC 9112): match accordingly.
        let mut length: Option<usize> = None;
        let mut close = false;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok();
            } else if name.trim().eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
        let length = length.ok_or(std::io::ErrorKind::InvalidData)?;
        while self.buf.len() - head_end < length {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + length]).into_owned();
        self.pos = head_end + length;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok((status, body, close))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let old_len = self.buf.len();
        self.buf.resize(old_len + 16 * 1024, 0);
        match self.stream.read(&mut self.buf[old_len..]) {
            Ok(0) => {
                self.buf.truncate(old_len);
                Err(std::io::ErrorKind::UnexpectedEof.into())
            }
            Ok(n) => {
                self.buf.truncate(old_len + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(old_len);
                Err(e)
            }
        }
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn run_client(
    addr: SocketAddr,
    client: usize,
    clients: usize,
    total_requests: usize,
    payloads: &[(String, String)],
    keep_alive: bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn: Option<ClientConn> = None;
    let mut request_no = client;
    while request_no < total_requests {
        let payload_idx = request_no % payloads.len();
        let (path, body) = &payloads[payload_idx];
        let started = Instant::now();
        // A transport failure is counted as status 0.
        let (status, response_body) = if keep_alive {
            keep_alive_request(&mut conn, addr, path, body)
        } else {
            http_request(addr, "POST", path, body).unwrap_or_default()
        };
        samples.push(Sample {
            payload_idx,
            status,
            latency_micros: started.elapsed().as_micros() as u64,
            body_hash: fnv1a(response_body.as_bytes()),
        });
        request_no += clients;
    }
    samples
}

/// One request over the client's persistent connection, reconnecting once
/// on failure (the server may have idle-closed between requests).
fn keep_alive_request(
    conn: &mut Option<ClientConn>,
    addr: SocketAddr,
    path: &str,
    body: &str,
) -> (u16, String) {
    for attempt in 0..2 {
        if conn.is_none() {
            match ClientConn::connect(addr) {
                Ok(fresh) => *conn = Some(fresh),
                Err(_) => return (0, String::new()),
            }
        }
        let established = conn.as_mut().expect("connection just ensured");
        match established.round_trip(path, body) {
            Ok((status, response_body, close)) => {
                if close {
                    *conn = None;
                }
                return (status, response_body);
            }
            Err(_) => {
                *conn = None;
                if attempt == 1 {
                    return (0, String::new());
                }
            }
        }
    }
    (0, String::new())
}

/// One HTTP request over a fresh connection; returns (status, body).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes())?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn scrape(metrics_text: &str, name: &str) -> u64 {
    metrics_text
        .lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sums every sample of a labeled counter family (`prefix` includes the
/// opening `{`, so bare counters sharing the name prefix don't match).
fn scrape_sum(metrics_text: &str, prefix: &str) -> u64 {
    metrics_text
        .lines()
        .filter(|line| line.starts_with(prefix))
        .filter_map(|line| line.rsplit(' ').next())
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_set_is_deterministic_and_mixed() {
        let a = build_payloads(7, 9);
        let b = build_payloads(7, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
        let endpoints: std::collections::BTreeSet<_> =
            a.iter().map(|(path, _)| path.as_str()).collect();
        assert!(endpoints.contains("/v1/analyze"));
        assert!(endpoints.contains("/v1/diff"));
        assert!(endpoints.contains("/v1/impact"));
        // Every payload body is valid JSON.
        for (_, body) in &a {
            assert!(json::parse(body).is_ok());
        }
    }

    #[test]
    fn scrape_parses_counter_lines() {
        let text = "# TYPE x counter\nsbomdiff_cache_hits_total 42\nother 1\n";
        assert_eq!(scrape(text, "sbomdiff_cache_hits_total"), 42);
        assert_eq!(scrape(text, "missing"), 0);
    }

    #[test]
    fn smoke_run_is_clean() {
        let summary = run(&LoadgenConfig {
            requests: 36,
            clients: 4,
            payloads: 6,
            jobs: 2,
            seed: 11,
            keep_alive: true,
            impact_only: false,
            out: None,
        })
        .expect("loadgen runs");
        assert_eq!(summary.requests, 36);
        assert_eq!(summary.non_2xx(), 0, "{:?}", summary.status_counts);
        assert_eq!(summary.inconsistent_payloads, 0);
        assert!(summary.cache_hits > 0);
        assert!(summary.ok(), "{}", summary.report());
        assert_eq!(summary.histogram.iter().sum::<usize>(), 36);
    }

    #[test]
    fn impact_payloads_are_batched_and_deterministic() {
        let a = build_impact_payloads(7, 4);
        let b = build_impact_payloads(7, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for (path, body) in &a {
            assert_eq!(path, "/v1/impact");
            let doc = json::parse(body).unwrap();
            let sboms = doc.get("sboms").and_then(Value::as_array).unwrap();
            assert_eq!(sboms.len(), 5, "best-practice truth + four profiles");
        }
    }

    #[test]
    fn impact_smoke_run_is_clean() {
        let summary = run(&LoadgenConfig {
            requests: 24,
            clients: 3,
            payloads: 4,
            jobs: 2,
            seed: 11,
            keep_alive: true,
            impact_only: true,
            out: None,
        })
        .expect("impact loadgen runs");
        assert_eq!(summary.non_2xx(), 0, "{:?}", summary.status_counts);
        assert_eq!(summary.inconsistent_payloads, 0);
        assert!(summary.cache_hits > 0, "repeated batches hit the cache");
        assert!(
            summary.advisories_matched > 0,
            "per-severity counters populated: {}",
            summary.report()
        );
    }

    #[test]
    fn scrape_sum_totals_labeled_family() {
        let text = "x_total{severity=\"low\"} 2\nx_total{severity=\"high\"} 3\nx_other 9\n";
        assert_eq!(scrape_sum(text, "x_total{"), 5);
    }

    #[test]
    fn digest_is_stable_across_jobs() {
        let base = LoadgenConfig {
            requests: 24,
            clients: 3,
            payloads: 6,
            seed: 13,
            keep_alive: true,
            impact_only: false,
            out: None,
            jobs: 1,
        };
        let a = run(&base).unwrap();
        let b = run(&LoadgenConfig { jobs: 4, ..base }).unwrap();
        assert_eq!(a.response_digest, b.response_digest);
        assert_eq!(a.inconsistent_payloads + b.inconsistent_payloads, 0);
    }

    #[test]
    fn digest_is_independent_of_keep_alive() {
        // The digest covers bodies only, so reconnect-per-request and
        // keep-alive runs of the same cell must agree byte-for-byte.
        let base = LoadgenConfig {
            requests: 18,
            clients: 3,
            payloads: 6,
            seed: 13,
            keep_alive: true,
            impact_only: false,
            out: None,
            jobs: 2,
        };
        let a = run(&base).unwrap();
        let b = run(&LoadgenConfig {
            keep_alive: false,
            ..base
        })
        .unwrap();
        assert_eq!(a.response_digest, b.response_digest);
        assert_eq!(a.non_2xx() + b.non_2xx(), 0);
    }
}
