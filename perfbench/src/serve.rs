//! The serving workloads: an out-of-process `sbomdiff-serve` driven over
//! HTTP by a closed loop of keep-alive connections, and, for traced runs,
//! an in-process replay of the same payloads that times the handler's
//! stage calls.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sbomdiff_diff::{jaccard, key_set};
use sbomdiff_generators::{studied_tools, ParseCache, ScanContext};
use sbomdiff_matching::{match_sboms, MatchConfig};
use sbomdiff_metadata::RepoFs;
use sbomdiff_sbomfmt::{ingest, SbomFormat};
use sbomdiff_service::{api, AppState, Request};
use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{Ecosystem, ResolvedPackage, Sbom, Version};
use sbomdiff_vuln::{assess_cached, EnrichCache};

use crate::client::{Conn, Scrape, Server};
use crate::inputs::{ServeInputs, SERVER_SEED};
use crate::stats::{cpu_time, fnv, peak_rss_mb, quantile, tail_percentile, Fnv};
use crate::trace::Recorder;
use crate::{E2e, Layers};

/// The response cache capacity `sbomdiff-serve serve` runs with by default.
const SERVER_CACHE: usize = 256;

const SERVED: [&str; 3] = ["analyze", "diff", "impact"];

/// One round: a fresh server, its warm-up, then every measured payload once.
pub struct Round {
    pub e2e: E2e,
    pub failed: usize,
    pub digest: u64,
    /// Response-body hash per payload index.
    pub hashes: Vec<u64>,
    pub cache_hits: f64,
    pub cache_misses: f64,
    /// Server-reported request latency, summed over the measured requests.
    pub server_latency: Duration,
    pub client_latency: Duration,
    pub samples: usize,
}

struct Outcome {
    start: Instant,
    end: Instant,
    status: u16,
    hash: u64,
}

pub fn round(
    bin: &str,
    inputs: &ServeInputs,
    conns: usize,
    mut spans: Option<&mut Recorder>,
) -> Result<Round, String> {
    let spawned = Instant::now();
    let server = Server::spawn(bin)?;
    server.wait_healthy()?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    for p in &inputs.warmup {
        match conn.round_trip(&p.request) {
            Ok((s, _)) if (200..300).contains(&s) => {}
            other => {
                return Err(format!(
                    "warm-up {} failed: {:?}",
                    p.path,
                    other.map(|r| r.0)
                ))
            }
        }
    }
    drop(conn);
    let setup = spawned.elapsed();

    let before = server.scrape()?;
    let cpu_before = cpu_time(&server.pid);
    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<Outcome>>> =
        Mutex::new((0..inputs.measured.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut conn = Conn::connect(&server.addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = inputs.measured.get(i) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let reply = match conn.as_mut() {
                        Some(c) => c.round_trip(&p.request).ok(),
                        None => None,
                    };
                    let t1 = Instant::now();
                    let (status, hash) = match reply {
                        Some((status, body)) => (status, fnv(&body)),
                        None => {
                            // A transport error fails this op; the next one
                            // gets a fresh connection.
                            conn = Conn::connect(&server.addr).ok();
                            (0, 0)
                        }
                    };
                    outcomes.lock().expect("outcome slots")[i] = Some(Outcome {
                        start: t0,
                        end: t1,
                        status,
                        hash,
                    });
                }
            });
        }
    });
    let window = start.elapsed();
    let cpu = cpu_time(&server.pid).saturating_sub(cpu_before);
    let after = server.scrape()?;
    let rss = peak_rss_mb(&server.pid);
    drop(server);

    let outcomes = outcomes.into_inner().expect("outcome slots");
    let n = outcomes.len();
    let mut digest = Fnv::default();
    let mut hashes = Vec::with_capacity(n);
    let mut latencies = Vec::with_capacity(n);
    let mut failed = 0;
    let mut client_latency = Duration::ZERO;
    for (i, o) in outcomes.iter().enumerate() {
        let o = o.as_ref().ok_or("a payload was never sent")?;
        if !(200..300).contains(&o.status) {
            failed += 1;
        }
        digest.write_u64(i as u64);
        digest.write_u64(o.hash);
        hashes.push(o.hash);
        let latency = o.end - o.start;
        client_latency += latency;
        latencies.push(latency.as_secs_f64() * 1e3);
        if let Some(rec) = spans.as_deref_mut() {
            rec.push("client.request", i as u64, None, o.start, o.end);
        }
    }
    latencies.sort_by(f64::total_cmp);
    let tail = tail_percentile(n).map_or(latencies[n - 1], |q| quantile(&latencies, q));
    let served = |s: &Scrape, suffix: &str| -> f64 {
        SERVED
            .iter()
            .map(|e| {
                s.sum_where(
                    &format!("sbomdiff_latency_seconds{suffix}"),
                    &format!("endpoint=\"{e}\""),
                )
            })
            .sum()
    };
    Ok(Round {
        e2e: E2e {
            setup_s: setup.as_secs_f64(),
            ops_per_s: n as f64 / window.as_secs_f64(),
            latency_p50_ms: quantile(&latencies, 0.5),
            latency_tail_ms: tail,
            cpu_ms_per_op: cpu.as_secs_f64() * 1e3 / n as f64,
            peak_rss_mb: rss,
        },
        failed,
        digest: digest.finish(),
        hashes,
        cache_hits: after.sum("sbomdiff_cache_hits_total")
            - before.sum("sbomdiff_cache_hits_total"),
        cache_misses: after.sum("sbomdiff_cache_misses_total")
            - before.sum("sbomdiff_cache_misses_total"),
        server_latency: Duration::from_secs_f64(
            (served(&after, "_sum") - served(&before, "_sum")).max(0.0),
        ),
        client_latency,
        samples: n,
    })
}

/// Byte counts the replay's throughput metrics divide by.
#[derive(Default)]
struct Bytes {
    envelope: usize,
    ingested: usize,
}

/// Replays the first `count` payloads, in order, against a fresh
/// [`AppState`] configured like the server. Each payload is one
/// `service.handle` span around `api::handle`; right after it, the stage
/// calls that handler makes are repeated on a mirror state (its own parse
/// and enrichment caches, fed the same payload sequence) and recorded as
/// the handle span's children. `generators.scan` is the cold scan of all
/// four tools (walk, metadata parses, emulation); its child
/// `generators.emulate` repeats the emulation over the now memoized
/// parses, so the scan's self time is the metadata parse time.
pub fn replay(
    inputs: &ServeInputs,
    count: usize,
    http_hashes: &[u64],
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Result<(), String> {
    let state = AppState::new(SERVER_SEED, SERVER_CACHE);
    let (registries, _) = rec.time("registry.generate", 0, None, || {
        state.registries(SERVER_SEED)
    });
    let (db, _) = rec.time("vuln.advisory_db", 0, None, || {
        state.advisory_db(SERVER_SEED, 1, 0.2)
    });
    let mirror = Mirror {
        tools: studied_tools(&registries, 0.0),
        parse_cache: ParseCache::new(),
        enrich: EnrichCache::new(),
        db,
    };
    let mut bytes = Bytes::default();
    let mut warmup_spans = Recorder::new(Instant::now());
    for p in &inputs.warmup {
        mirror.payload(
            &state,
            p.path,
            p.body(),
            u64::MAX,
            &mut warmup_spans,
            &mut bytes,
        )?;
    }
    let enrich0 = mirror.enrich.stats();
    let mut bytes = Bytes::default();
    let mut cold_hits = 0;
    let mut cold_misses = 0;
    for (i, p) in inputs.measured.iter().take(count).enumerate() {
        let (hash, (h, m)) = mirror.payload(&state, p.path, p.body(), i as u64, rec, &mut bytes)?;
        if http_hashes.get(i).is_some_and(|&served| served != hash) {
            return Err(format!("replayed response {i} differs from the served one"));
        }
        cold_hits += h;
        cold_misses += m;
    }
    let enrich = mirror.enrich.stats();
    let times = rec.self_times();
    let total = |name: &str| times.get(name).map_or(Duration::ZERO, |t| t.0);
    layers.bytes(
        "textformats.json_parse_mb_per_s",
        bytes.envelope,
        total("textformats.json_parse"),
    );
    layers.bytes(
        "sbomfmt.ingest_mb_per_s",
        bytes.ingested,
        total("sbomfmt.ingest"),
    );
    layers.ratio(
        "generators.parse_cache_hit_ratio",
        cold_hits as f64,
        (cold_hits + cold_misses) as f64,
    );
    layers.set("metadata.parse_calls", cold_misses as f64);
    layers.ratio(
        "vuln.enrich_hit_ratio",
        (enrich.hits - enrich0.hits) as f64,
        (enrich.hits + enrich.misses - enrich0.hits - enrich0.misses) as f64,
    );
    Ok(())
}

struct Mirror<'r> {
    tools: Vec<sbomdiff_generators::ToolEmulator<'r>>,
    parse_cache: ParseCache,
    enrich: EnrichCache,
    db: std::sync::Arc<sbomdiff_vuln::AdvisoryDb>,
}

impl Mirror<'_> {
    /// Handles one payload and mirrors its stage calls; returns the
    /// response-body hash and the parse-cache hits and misses of the cold
    /// scan.
    fn payload(
        &self,
        state: &AppState,
        path: &str,
        body: &[u8],
        op: u64,
        rec: &mut Recorder,
        bytes: &mut Bytes,
    ) -> Result<(u64, (u64, u64)), String> {
        let request = Request {
            method: "POST".into(),
            path: path.into(),
            body: body.to_vec(),
        };
        let (response, parent) = rec.time("service.handle", op, None, || {
            api::handle(state, &request, 0)
        });
        if !(200..300).contains(&response.status) {
            return Err(format!("replayed {path} answered {}", response.status));
        }
        let parent = Some(parent);
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let (doc, _) = rec.time("textformats.json_parse", op, parent, || json::parse(text));
        bytes.envelope += text.len();
        let doc = doc.map_err(|e| e.to_string())?;
        let field = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or_default();
        let mut cold = (0, 0);
        match path {
            "/v1/analyze" => {
                let name = doc.get("name").and_then(Value::as_str).unwrap_or("repo");
                let mut repo = RepoFs::new(name);
                for (file, content) in doc
                    .get("files")
                    .and_then(Value::as_object)
                    .into_iter()
                    .flatten()
                {
                    repo.add_text(file.clone(), content.as_str().unwrap_or_default());
                }
                let (h0, m0) = (self.parse_cache.hits(), self.parse_cache.misses());
                let scan_start = Instant::now();
                let scan = ScanContext::new(&repo, &self.parse_cache);
                let sboms: Vec<Sbom> = self
                    .tools
                    .iter()
                    .map(|t| t.generate_with_scan(&scan))
                    .collect();
                let scan_end = Instant::now();
                cold = (self.parse_cache.hits() - h0, self.parse_cache.misses() - m0);
                rec.push("generators.scan", op, parent, scan_start, scan_end);
                let scan_span = Some(rec.spans.len() - 1);
                rec.time("generators.emulate", op, scan_span, || {
                    self.tools
                        .iter()
                        .map(|t| t.generate_with_scan(&scan))
                        .collect::<Vec<_>>()
                });
                rec.time("diff.jaccard", op, parent, || {
                    let keys: Vec<_> = sboms.iter().map(key_set).collect();
                    let mut out = Vec::new();
                    for a in 0..keys.len() {
                        for b in a + 1..keys.len() {
                            out.push(jaccard(&keys[a], &keys[b]));
                        }
                    }
                    out
                });
                rec.time("sbomfmt.emit", op, parent, || {
                    sboms
                        .iter()
                        .map(|s| SbomFormat::CycloneDx.serialize(s))
                        .collect::<Vec<_>>()
                });
            }
            "/v1/diff" => {
                let (a, b) = (field("a"), field("b"));
                let (sides, _) = rec.time("sbomfmt.ingest", op, parent, || {
                    (
                        ingest::ingest_bytes(a.as_bytes()),
                        ingest::ingest_bytes(b.as_bytes()),
                    )
                });
                bytes.ingested += a.len() + b.len();
                rec.time("diff.jaccard", op, parent, || {
                    jaccard(&key_set(&sides.0.sbom), &key_set(&sides.1.sbom))
                });
                let cfg = MatchConfig {
                    jobs: 1,
                    ..MatchConfig::default()
                };
                rec.time("matching.match", op, parent, || {
                    match_sboms(&sides.0.sbom, &sides.1.sbom, &cfg)
                });
            }
            _ => {
                let texts: Vec<&str> = doc
                    .get("sboms")
                    .and_then(Value::as_array)
                    .map(|a| a.iter().filter_map(Value::as_str).collect())
                    .unwrap_or_default();
                let (formats, _) = rec.time("sbomfmt.detect", op, parent, || {
                    texts
                        .iter()
                        .map(|t| SbomFormat::detect(t))
                        .collect::<Vec<_>>()
                });
                let (sboms, _) = rec.time("sbomfmt.parse", op, parent, || {
                    texts
                        .iter()
                        .zip(&formats)
                        .filter_map(|(t, f)| f.and_then(|f| f.parse(t).ok()))
                        .collect::<Vec<_>>()
                });
                let truth = sboms.first().map(as_truth).unwrap_or_default();
                rec.time("vuln.assess", op, parent, || {
                    sboms
                        .iter()
                        .map(|s| {
                            let eco = s
                                .components()
                                .first()
                                .map_or(Ecosystem::Python, |c| c.ecosystem);
                            assess_cached(&self.enrich, &self.db, eco, s, &truth)
                        })
                        .collect::<Vec<_>>()
                });
            }
        }
        let out = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
        let tree = json::parse(out.trim_end()).map_err(|e| e.to_string())?;
        rec.time("textformats.json_emit", op, parent, || {
            json::to_string(&tree)
        });
        Ok((fnv(&response.body), cold))
    }
}

/// The pinned components of the first document: `/v1/impact`'s default
/// ground truth.
fn as_truth(sbom: &Sbom) -> Vec<ResolvedPackage> {
    sbom.components()
        .iter()
        .filter_map(|c| {
            let version = Version::parse(c.version.as_deref()?).ok()?;
            Some(ResolvedPackage::direct(c.name.clone(), version))
        })
        .collect()
}

/// Per-layer metrics of a traced serve run: the traced HTTP round's client
/// and server views, and the replay's self times.
pub fn layer_metrics(traced: &Round, rec: &Recorder, replayed: usize, layers: &mut Layers) {
    let times: BTreeMap<&str, (Duration, u64)> = rec.self_times();
    let n = replayed as f64;
    let handle_total: Duration = rec
        .spans
        .iter()
        .filter(|s| s.name == "service.handle")
        .map(|s| s.duration())
        .sum();
    let served = traced.samples as f64;
    let client_ms = traced.client_latency.as_secs_f64() * 1e3 / served;
    let server_ms = traced.server_latency.as_secs_f64() * 1e3 / served;
    let handle_ms = handle_total.as_secs_f64() * 1e3 / n;
    layers.set("service.client_ms_per_op", client_ms - server_ms);
    layers.set("service.wait_ms_per_op", server_ms - handle_ms);
    layers.ratio(
        "respcache.hit_ratio",
        traced.cache_hits,
        traced.cache_hits + traced.cache_misses,
    );
    layers.spans(&times, n);
    let handle_self = times.get("service.handle").map_or(Duration::ZERO, |t| t.0);
    layers.ratio(
        "trace.coverage",
        (handle_total - handle_self).as_secs_f64(),
        handle_total.as_secs_f64(),
    );
}
