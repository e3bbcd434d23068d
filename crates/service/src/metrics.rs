//! Service metrics registry rendered at `GET /metrics`.
//!
//! Lock-free atomic counters and fixed-bucket latency histograms, rendered
//! in the Prometheus text exposition format. Everything is counted at the
//! point where a response is written, so the numbers include cache hits,
//! rejected (429) and timed-out (503) requests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use sbomdiff_matching::MatchTier;
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_types::DiagClass;
use sbomdiff_vuln::Severity;

/// The endpoints the service distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/analyze`.
    Analyze,
    /// `POST /v1/diff`.
    Diff,
    /// `POST /v1/impact`.
    Impact,
    /// `POST /v1/batch`.
    Batch,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

impl Endpoint {
    /// All endpoints, in rendering order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Analyze,
        Endpoint::Diff,
        Endpoint::Impact,
        Endpoint::Batch,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// Classifies a request path.
    pub fn classify(path: &str) -> Endpoint {
        match path {
            "/v1/analyze" => Endpoint::Analyze,
            "/v1/diff" => Endpoint::Diff,
            "/v1/impact" => Endpoint::Impact,
            "/v1/batch" => Endpoint::Batch,
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            _ => Endpoint::Other,
        }
    }

    /// The `endpoint` label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Diff => "diff",
            Endpoint::Impact => "impact",
            Endpoint::Batch => "batch",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Analyze => 0,
            Endpoint::Diff => 1,
            Endpoint::Impact => 2,
            Endpoint::Batch => 3,
            Endpoint::Healthz => 4,
            Endpoint::Metrics => 5,
            Endpoint::Other => 6,
        }
    }
}

/// The phase a connection was in when it timed out — the label set of
/// `sbomdiff_timeouts_total{phase}` (DESIGN.md §18 timeout taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPhase {
    /// Mid request line / headers → answered `408`.
    Header,
    /// Head complete, body bytes overdue → answered `408`.
    Body,
    /// Idle keep-alive connection between requests → closed silently
    /// (nothing was owed, so no response is written).
    Idle,
}

impl TimeoutPhase {
    /// All phases, in rendering order.
    pub const ALL: [TimeoutPhase; 3] =
        [TimeoutPhase::Header, TimeoutPhase::Body, TimeoutPhase::Idle];

    /// The `phase` label value.
    pub fn label(self) -> &'static str {
        match self {
            TimeoutPhase::Header => "header",
            TimeoutPhase::Body => "body",
            TimeoutPhase::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        match self {
            TimeoutPhase::Header => 0,
            TimeoutPhase::Body => 1,
            TimeoutPhase::Idle => 2,
        }
    }
}

/// Upper bounds of the latency histogram buckets, in seconds.
pub const LATENCY_BUCKETS: [f64; 11] = [
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
];

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    // One slot per LATENCY_BUCKETS bound plus the +Inf overflow slot.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    latency_sum_micros: AtomicU64,
}

/// The registry: per-endpoint stats plus service-wide counters.
#[derive(Default)]
pub struct Metrics {
    endpoints: [EndpointStats; Endpoint::ALL.len()],
    queue_rejected: AtomicU64,
    deadline_timeouts: AtomicU64,
    // Connection-level timeouts by phase (slow header/body → 408, idle
    // keep-alive → silent close), indexed by TimeoutPhase::index().
    phase_timeouts: [AtomicU64; TimeoutPhase::ALL.len()],
    // Analyses that completed in degraded mode (partial SBOM after a
    // caught fault) and panics caught at the worker-pool boundary.
    degraded: AtomicU64,
    worker_panics: AtomicU64,
    // One counter per DiagClass, indexed by DiagClass::index().
    diagnostics: [AtomicU64; DiagClass::ALL.len()],
    // SBOM documents read by `/v1/diff` and `/v1/impact`: total bytes
    // consumed, and documents per detected format (trailing slot:
    // unrecognizable documents).
    ingest_bytes: AtomicU64,
    ingest_documents: [AtomicU64; SbomFormat::ALL.len() + 1],
    // Component pairs matched by tiered `/v1/diff` requests, per tier,
    // indexed by MatchTier::index().
    match_pairs: [AtomicU64; MatchTier::COUNT],
    // Advisories raised by `/v1/impact` scans (detected + false alarms),
    // per severity, indexed by Severity::index().
    advisories_matched: [AtomicU64; Severity::ALL.len()],
    // Latest quality score per (profile, check) observed by opt-in
    // `/v1/analyze` quality scoring, stored as f64 bits. A BTreeMap keeps
    // the rendering order deterministic.
    quality_scores: Mutex<BTreeMap<(String, String), u64>>,
}

/// Escapes a label value for the Prometheus text exposition format:
/// inside the double-quoted value, backslash, double-quote and newline
/// must be written as `\\`, `\"` and `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` text: backslash and newline must be written as
/// `\\` and `\n` (quotes are not escaped in help text).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Writes the `# HELP` / `# TYPE` header pair for a metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {kind}\n",
        escape_help(help)
    ));
}

/// Counter slot for an ingest format (`None`: the unknown slot).
fn ingest_index(format: Option<SbomFormat>) -> usize {
    format
        .and_then(|f| SbomFormat::ALL.iter().position(|&g| g == f))
        .unwrap_or(SbomFormat::ALL.len())
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished request: its endpoint, response status, and
    /// latency. The server's clock starts when the reactor begins parsing
    /// the buffered request (the task's `parsed_at`) and stops once the
    /// response is known — the handler returned, or an inline cache hit,
    /// 429 or 503 was decided — before serialization and the socket write.
    /// A 408 is timed from the start of the stalled read.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency: Duration) {
        let stats = &self.endpoints[endpoint.index()];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &stats.responses_2xx,
            400..=499 => &stats.responses_4xx,
            _ => &stats.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let secs = latency.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(LATENCY_BUCKETS.len());
        stats.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        stats
            .latency_sum_micros
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Counts one request shed by admission control (429).
    pub fn record_rejected(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that exceeded its deadline in the queue (503).
    pub fn record_timeout(&self) {
        self.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection-level timeout in `phase` (slow-header and
    /// slow-body timeouts are answered 408; idle closes are silent).
    pub fn record_timeout_phase(&self, phase: TimeoutPhase) {
        self.phase_timeouts[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Connection-level timeouts in `phase` so far.
    pub fn timeouts_phase(&self, phase: TimeoutPhase) -> u64 {
        self.phase_timeouts[phase.index()].load(Ordering::Relaxed)
    }

    /// Counts one analysis that completed in degraded mode.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Degraded analyses so far.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Counts one panic caught at the worker-pool boundary.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker-boundary panics so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Counts one classified diagnostic surfaced in a response.
    pub fn record_diagnostic(&self, class: DiagClass) {
        self.diagnostics[class.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Diagnostics of `class` surfaced so far.
    pub fn diagnostics(&self, class: DiagClass) -> u64 {
        self.diagnostics[class.index()].load(Ordering::Relaxed)
    }

    /// Diagnostics surfaced so far across all classes.
    pub fn total_diagnostics(&self) -> u64 {
        self.diagnostics
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Records one SBOM document ingested by `/v1/diff` or `/v1/impact`:
    /// the bytes consumed and the detected format (`None` when the
    /// document was not recognizable).
    pub fn record_ingest(&self, format: Option<SbomFormat>, bytes: u64) {
        self.ingest_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.ingest_documents[ingest_index(format)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `pairs` component pairs matched at `tier` by a tiered
    /// `/v1/diff` request.
    pub fn record_matches(&self, tier: MatchTier, pairs: u64) {
        self.match_pairs[tier.index()].fetch_add(pairs, Ordering::Relaxed);
    }

    /// Component pairs matched at `tier` so far.
    pub fn matches(&self, tier: MatchTier) -> u64 {
        self.match_pairs[tier.index()].load(Ordering::Relaxed)
    }

    /// Records `n` advisories of `severity` raised by an `/v1/impact`
    /// scan (detected and false alarms both count — they are what an
    /// operator sees).
    pub fn record_advisories(&self, severity: Severity, n: u64) {
        self.advisories_matched[severity.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Advisories of `severity` raised so far.
    pub fn advisories_matched(&self, severity: Severity) -> u64 {
        self.advisories_matched[severity.index()].load(Ordering::Relaxed)
    }

    /// Records the latest quality `score` observed for `(profile, check)`
    /// — rendered as the `sbomdiff_quality_score` gauge. Use check
    /// `"total"` for the weighted document total.
    pub fn record_quality_score(&self, profile: &str, check: &str, score: f64) {
        self.quality_scores
            .lock()
            .unwrap()
            .insert((profile.to_string(), check.to_string()), score.to_bits());
    }

    /// The latest quality score recorded for `(profile, check)`, if any.
    pub fn quality_score(&self, profile: &str, check: &str) -> Option<f64> {
        self.quality_scores
            .lock()
            .unwrap()
            .get(&(profile.to_string(), check.to_string()))
            .map(|&bits| f64::from_bits(bits))
    }

    /// Bytes ingested from external SBOM documents so far.
    pub fn ingest_bytes(&self) -> u64 {
        self.ingest_bytes.load(Ordering::Relaxed)
    }

    /// External documents ingested with this detected format so far.
    pub fn ingest_documents(&self, format: Option<SbomFormat>) -> u64 {
        self.ingest_documents[ingest_index(format)].load(Ordering::Relaxed)
    }

    /// Total requests seen across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Total 5xx responses across all endpoints.
    pub fn total_5xx(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.responses_5xx.load(Ordering::Relaxed))
            .sum()
    }

    /// 429 rejections so far.
    pub fn rejected(&self) -> u64 {
        self.queue_rejected.load(Ordering::Relaxed)
    }

    /// Deadline timeouts so far.
    pub fn timeouts(&self) -> u64 {
        self.deadline_timeouts.load(Ordering::Relaxed)
    }

    /// Renders the shared parse-cache counters in the same exposition
    /// format, for appending after [`Metrics::render`]. Kept out of
    /// `/v1/analyze` responses: the counters depend on request history, and
    /// analyze responses must stay byte-identical for identical payloads.
    pub fn render_parse_cache(hits: u64, misses: u64) -> String {
        let mut out = String::with_capacity(256);
        family(
            &mut out,
            "sbomdiff_parse_cache_hits_total",
            "counter",
            "Shared parse-cache hits.",
        );
        out.push_str(&format!("sbomdiff_parse_cache_hits_total {hits}\n"));
        family(
            &mut out,
            "sbomdiff_parse_cache_misses_total",
            "counter",
            "Shared parse-cache misses.",
        );
        out.push_str(&format!("sbomdiff_parse_cache_misses_total {misses}\n"));
        out
    }

    /// Renders the shared enrichment-cache counters (advisory lookups by
    /// `(ecosystem, package)`), for appending after [`Metrics::render`]
    /// like [`Metrics::render_parse_cache`].
    pub fn render_enrich_cache(hits: u64, misses: u64, expired: u64) -> String {
        let mut out = String::with_capacity(384);
        family(
            &mut out,
            "sbomdiff_enrich_cache_hits_total",
            "counter",
            "Shared enrichment-cache hits.",
        );
        out.push_str(&format!("sbomdiff_enrich_cache_hits_total {hits}\n"));
        family(
            &mut out,
            "sbomdiff_enrich_cache_misses_total",
            "counter",
            "Shared enrichment-cache misses.",
        );
        out.push_str(&format!("sbomdiff_enrich_cache_misses_total {misses}\n"));
        family(
            &mut out,
            "sbomdiff_enrich_cache_expired_total",
            "counter",
            "Shared enrichment-cache entries evicted after expiry.",
        );
        out.push_str(&format!("sbomdiff_enrich_cache_expired_total {expired}\n"));
        out
    }

    /// Renders the Prometheus text exposition, including the cache and
    /// queue gauges supplied by the caller.
    pub fn render(&self, cache_hits: u64, cache_misses: u64, queue_depth: usize) -> String {
        let mut out = String::with_capacity(8192);
        family(
            &mut out,
            "sbomdiff_requests_total",
            "counter",
            "Requests received, by endpoint.",
        );
        for ep in Endpoint::ALL {
            let stats = &self.endpoints[ep.index()];
            out.push_str(&format!(
                "sbomdiff_requests_total{{endpoint=\"{}\"}} {}\n",
                escape_label_value(ep.label()),
                stats.requests.load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_responses_total",
            "counter",
            "Responses written, by endpoint and status class.",
        );
        for ep in Endpoint::ALL {
            let stats = &self.endpoints[ep.index()];
            for (class, counter) in [
                ("2xx", &stats.responses_2xx),
                ("4xx", &stats.responses_4xx),
                ("5xx", &stats.responses_5xx),
            ] {
                out.push_str(&format!(
                    "sbomdiff_responses_total{{endpoint=\"{}\",class=\"{class}\"}} {}\n",
                    escape_label_value(ep.label()),
                    counter.load(Ordering::Relaxed)
                ));
            }
        }
        family(
            &mut out,
            "sbomdiff_diagnostics_total",
            "counter",
            "Classified diagnostics surfaced in responses, by class.",
        );
        for class in DiagClass::ALL {
            out.push_str(&format!(
                "sbomdiff_diagnostics_total{{class=\"{}\"}} {}\n",
                escape_label_value(class.label()),
                self.diagnostics[class.index()].load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_ingest_bytes_total",
            "counter",
            "Bytes of external SBOM documents ingested.",
        );
        out.push_str(&format!(
            "sbomdiff_ingest_bytes_total {}\n",
            self.ingest_bytes.load(Ordering::Relaxed)
        ));
        family(
            &mut out,
            "sbomdiff_ingest_documents_total",
            "counter",
            "External SBOM documents ingested, by detected format.",
        );
        for (i, label) in SbomFormat::ALL
            .iter()
            .map(|f| f.label())
            .chain(std::iter::once("unknown"))
            .enumerate()
        {
            out.push_str(&format!(
                "sbomdiff_ingest_documents_total{{format=\"{}\"}} {}\n",
                escape_label_value(label),
                self.ingest_documents[i].load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_match_total",
            "counter",
            "Component pairs matched by tiered diffs, by tier.",
        );
        for tier in MatchTier::ALL {
            out.push_str(&format!(
                "sbomdiff_match_total{{tier=\"{}\"}} {}\n",
                escape_label_value(tier.label()),
                self.match_pairs[tier.index()].load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_advisories_matched_total",
            "counter",
            "Advisories raised by impact scans, by severity.",
        );
        for severity in Severity::ALL {
            out.push_str(&format!(
                "sbomdiff_advisories_matched_total{{severity=\"{}\"}} {}\n",
                escape_label_value(severity.metric_label()),
                self.advisories_matched[severity.index()].load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_quality_score",
            "gauge",
            "Latest SBOM quality score observed, by profile and check.",
        );
        for ((profile, check), bits) in self.quality_scores.lock().unwrap().iter() {
            out.push_str(&format!(
                "sbomdiff_quality_score{{profile=\"{}\",check=\"{}\"}} {:.6}\n",
                escape_label_value(profile),
                escape_label_value(check),
                f64::from_bits(*bits)
            ));
        }
        family(
            &mut out,
            "sbomdiff_queue_rejected_total",
            "counter",
            "Requests shed by admission control (429).",
        );
        out.push_str(&format!(
            "sbomdiff_queue_rejected_total {}\n",
            self.queue_rejected.load(Ordering::Relaxed)
        ));
        family(
            &mut out,
            "sbomdiff_deadline_timeouts_total",
            "counter",
            "Requests that exceeded their queue deadline (503).",
        );
        out.push_str(&format!(
            "sbomdiff_deadline_timeouts_total {}\n",
            self.deadline_timeouts.load(Ordering::Relaxed)
        ));
        family(
            &mut out,
            "sbomdiff_timeouts_total",
            "counter",
            "Connection-level timeouts, by phase.",
        );
        for phase in TimeoutPhase::ALL {
            out.push_str(&format!(
                "sbomdiff_timeouts_total{{phase=\"{}\"}} {}\n",
                escape_label_value(phase.label()),
                self.phase_timeouts[phase.index()].load(Ordering::Relaxed)
            ));
        }
        family(
            &mut out,
            "sbomdiff_degraded_total",
            "counter",
            "Analyses that completed in degraded mode.",
        );
        out.push_str(&format!(
            "sbomdiff_degraded_total {}\n",
            self.degraded.load(Ordering::Relaxed)
        ));
        family(
            &mut out,
            "sbomdiff_worker_panics_total",
            "counter",
            "Panics caught at the worker-pool boundary.",
        );
        out.push_str(&format!(
            "sbomdiff_worker_panics_total {}\n",
            self.worker_panics.load(Ordering::Relaxed)
        ));
        family(
            &mut out,
            "sbomdiff_queue_depth",
            "gauge",
            "Requests currently queued.",
        );
        out.push_str(&format!("sbomdiff_queue_depth {queue_depth}\n"));
        family(
            &mut out,
            "sbomdiff_cache_hits_total",
            "counter",
            "Analysis cache hits.",
        );
        out.push_str(&format!("sbomdiff_cache_hits_total {cache_hits}\n"));
        family(
            &mut out,
            "sbomdiff_cache_misses_total",
            "counter",
            "Analysis cache misses.",
        );
        out.push_str(&format!("sbomdiff_cache_misses_total {cache_misses}\n"));
        family(
            &mut out,
            "sbomdiff_cache_hit_ratio",
            "gauge",
            "Analysis cache hit ratio.",
        );
        let lookups = cache_hits + cache_misses;
        let ratio = if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        };
        out.push_str(&format!("sbomdiff_cache_hit_ratio {ratio:.6}\n"));
        family(
            &mut out,
            "sbomdiff_latency_seconds",
            "histogram",
            "Request latency from the start of request parsing to the handler's return (before serialization and the socket write), by endpoint.",
        );
        for ep in Endpoint::ALL {
            let stats = &self.endpoints[ep.index()];
            let mut cumulative = 0u64;
            for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += stats.latency_buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "sbomdiff_latency_seconds_bucket{{endpoint=\"{}\",le=\"{bound}\"}} {cumulative}\n",
                    ep.label()
                ));
            }
            cumulative += stats.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "sbomdiff_latency_seconds_bucket{{endpoint=\"{}\",le=\"+Inf\"}} {cumulative}\n",
                ep.label()
            ));
            out.push_str(&format!(
                "sbomdiff_latency_seconds_sum{{endpoint=\"{}\"}} {:.6}\n",
                ep.label(),
                stats.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "sbomdiff_latency_seconds_count{{endpoint=\"{}\"}} {cumulative}\n",
                ep.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_routes() {
        assert_eq!(Endpoint::classify("/v1/analyze"), Endpoint::Analyze);
        assert_eq!(Endpoint::classify("/v1/diff"), Endpoint::Diff);
        assert_eq!(Endpoint::classify("/v1/impact"), Endpoint::Impact);
        assert_eq!(Endpoint::classify("/v1/batch"), Endpoint::Batch);
        assert_eq!(Endpoint::classify("/healthz"), Endpoint::Healthz);
        assert_eq!(Endpoint::classify("/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::classify("/nope"), Endpoint::Other);
    }

    #[test]
    fn timeout_phases_counted_and_rendered() {
        let m = Metrics::new();
        m.record_timeout_phase(TimeoutPhase::Header);
        m.record_timeout_phase(TimeoutPhase::Header);
        m.record_timeout_phase(TimeoutPhase::Idle);
        assert_eq!(m.timeouts_phase(TimeoutPhase::Header), 2);
        assert_eq!(m.timeouts_phase(TimeoutPhase::Body), 0);
        assert_eq!(m.timeouts_phase(TimeoutPhase::Idle), 1);
        let text = m.render(0, 0, 0);
        assert!(text.contains("sbomdiff_timeouts_total{phase=\"header\"} 2"));
        assert!(text.contains("sbomdiff_timeouts_total{phase=\"body\"} 0"));
        assert!(text.contains("sbomdiff_timeouts_total{phase=\"idle\"} 1"));
    }

    #[test]
    fn record_and_render() {
        let m = Metrics::new();
        m.record(Endpoint::Analyze, 200, Duration::from_micros(300));
        m.record(Endpoint::Analyze, 200, Duration::from_millis(3));
        m.record(Endpoint::Diff, 400, Duration::from_micros(50));
        m.record_rejected();
        m.record_timeout();
        m.record_degraded();
        m.record_worker_panic();
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_5xx(), 0);
        assert_eq!(m.degraded(), 1);
        assert_eq!(m.worker_panics(), 1);
        let text = m.render(5, 10, 2);
        assert!(text.contains("sbomdiff_degraded_total 1"));
        assert!(text.contains("sbomdiff_worker_panics_total 1"));
        assert!(text.contains("sbomdiff_requests_total{endpoint=\"analyze\"} 2"));
        assert!(text.contains("sbomdiff_responses_total{endpoint=\"diff\",class=\"4xx\"} 1"));
        assert!(text.contains("sbomdiff_queue_rejected_total 1"));
        assert!(text.contains("sbomdiff_deadline_timeouts_total 1"));
        assert!(text.contains("sbomdiff_queue_depth 2"));
        assert!(text.contains("sbomdiff_cache_hits_total 5"));
        assert!(text.contains("sbomdiff_cache_hit_ratio 0.333333"));
        assert!(text.contains("sbomdiff_latency_seconds_count{endpoint=\"analyze\"} 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record(Endpoint::Healthz, 200, Duration::from_micros(100));
        m.record(Endpoint::Healthz, 200, Duration::from_secs(2)); // +Inf bucket
        let text = m.render(0, 0, 0);
        assert!(
            text.contains("sbomdiff_latency_seconds_bucket{endpoint=\"healthz\",le=\"0.00025\"} 1")
        );
        assert!(
            text.contains("sbomdiff_latency_seconds_bucket{endpoint=\"healthz\",le=\"+Inf\"} 2")
        );
    }

    #[test]
    fn parse_cache_exposition_renders_counters() {
        let text = Metrics::render_parse_cache(7, 3);
        assert!(text.contains("sbomdiff_parse_cache_hits_total 7"));
        assert!(text.contains("sbomdiff_parse_cache_misses_total 3"));
    }

    #[test]
    fn ingest_counters_render_per_format_with_unknown_slot() {
        let m = Metrics::new();
        // Edge cases: zero-byte document, unknown format, repeated counts.
        m.record_ingest(Some(SbomFormat::CycloneDx), 1024);
        m.record_ingest(Some(SbomFormat::CycloneDx), 0);
        m.record_ingest(Some(SbomFormat::SpdxTagValue), 76);
        m.record_ingest(None, 3);
        assert_eq!(m.ingest_bytes(), 1103);
        assert_eq!(m.ingest_documents(Some(SbomFormat::CycloneDx)), 2);
        assert_eq!(m.ingest_documents(Some(SbomFormat::Spdx)), 0);
        assert_eq!(m.ingest_documents(Some(SbomFormat::SpdxTagValue)), 1);
        assert_eq!(m.ingest_documents(None), 1);
        let text = m.render(0, 0, 0);
        assert!(text.contains("sbomdiff_ingest_bytes_total 1103"));
        assert!(text.contains("sbomdiff_ingest_documents_total{format=\"cyclonedx\"} 2"));
        assert!(text.contains("sbomdiff_ingest_documents_total{format=\"spdx-json\"} 0"));
        assert!(text.contains("sbomdiff_ingest_documents_total{format=\"spdx-tag-value\"} 1"));
        assert!(text.contains("sbomdiff_ingest_documents_total{format=\"unknown\"} 1"));
    }

    #[test]
    fn match_counters_render_per_tier() {
        let m = Metrics::new();
        m.record_matches(MatchTier::Exact, 12);
        m.record_matches(MatchTier::Normalized, 3);
        m.record_matches(MatchTier::Normalized, 1);
        assert_eq!(m.matches(MatchTier::Exact), 12);
        assert_eq!(m.matches(MatchTier::Normalized), 4);
        assert_eq!(m.matches(MatchTier::Fuzzy), 0);
        let text = m.render(0, 0, 0);
        assert!(text.contains("sbomdiff_match_total{tier=\"exact\"} 12"));
        assert!(text.contains("sbomdiff_match_total{tier=\"normalized\"} 4"));
        assert!(text.contains("sbomdiff_match_total{tier=\"fuzzy\"} 0"));
    }

    #[test]
    fn advisory_counters_render_per_severity() {
        let m = Metrics::new();
        m.record_advisories(Severity::Critical, 2);
        m.record_advisories(Severity::Medium, 1);
        m.record_advisories(Severity::Medium, 4);
        assert_eq!(m.advisories_matched(Severity::Critical), 2);
        assert_eq!(m.advisories_matched(Severity::Medium), 5);
        assert_eq!(m.advisories_matched(Severity::Low), 0);
        let text = m.render(0, 0, 0);
        assert!(text.contains("sbomdiff_advisories_matched_total{severity=\"critical\"} 2"));
        assert!(text.contains("sbomdiff_advisories_matched_total{severity=\"medium\"} 5"));
        assert!(text.contains("sbomdiff_advisories_matched_total{severity=\"low\"} 0"));
        assert!(text.contains("sbomdiff_advisories_matched_total{severity=\"high\"} 0"));
    }

    #[test]
    fn enrich_cache_exposition_renders_counters() {
        let text = Metrics::render_enrich_cache(11, 4, 2);
        assert!(text.contains("sbomdiff_enrich_cache_hits_total 11"));
        assert!(text.contains("sbomdiff_enrich_cache_misses_total 4"));
        assert!(text.contains("sbomdiff_enrich_cache_expired_total 2"));
    }

    #[test]
    fn label_values_escape_per_text_format() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // Backslash escapes first, so an already-escaped quote survives.
        assert_eq!(escape_label_value("\\\""), "\\\\\\\"");
    }

    #[test]
    fn quality_scores_render_as_gauges() {
        let m = Metrics::new();
        m.record_quality_score("trivy-like", "supplier", 62.5);
        m.record_quality_score("trivy-like", "total", 71.25);
        m.record_quality_score("best-practice", "total", 100.0);
        assert_eq!(m.quality_score("trivy-like", "supplier"), Some(62.5));
        assert_eq!(m.quality_score("trivy-like", "nope"), None);
        let text = m.render(0, 0, 0);
        assert!(text.contains("# TYPE sbomdiff_quality_score gauge"));
        assert!(text.contains(
            "sbomdiff_quality_score{profile=\"best-practice\",check=\"total\"} 100.000000"
        ));
        assert!(text.contains(
            "sbomdiff_quality_score{profile=\"trivy-like\",check=\"supplier\"} 62.500000"
        ));
        // Re-recording overwrites: it is a gauge, not a counter.
        m.record_quality_score("trivy-like", "supplier", 50.0);
        assert_eq!(m.quality_score("trivy-like", "supplier"), Some(50.0));
    }

    /// Scrape-format conformance for the full exposition: every family
    /// has `# HELP` immediately before `# TYPE`, no family is declared
    /// twice, every sample belongs to a declared family, and label
    /// sections carry balanced, escaped quoting.
    #[test]
    fn exposition_format_conformance() {
        let m = Metrics::new();
        m.record(Endpoint::Analyze, 200, Duration::from_micros(300));
        m.record_diagnostic(DiagClass::MalformedFile);
        m.record_ingest(Some(SbomFormat::CycloneDx), 10);
        m.record_quality_score("trivy-like", "supplier", 62.5);
        m.record_quality_score("weird\"\\\n", "total", 10.0);
        let mut text = m.render(1, 2, 0);
        text.push_str(&Metrics::render_parse_cache(3, 4));
        text.push_str(&Metrics::render_enrich_cache(5, 6, 7));

        let mut declared: Vec<String> = Vec::new();
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap().to_string();
                assert!(rest.len() > name.len() + 1, "HELP without text: {line}");
                last_help = Some(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap_or("");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "bad TYPE: {line}"
                );
                assert_eq!(
                    last_help.as_deref(),
                    Some(name.as_str()),
                    "TYPE without matching HELP directly before it: {line}"
                );
                assert!(!declared.contains(&name), "family declared twice: {name}");
                declared.push(name);
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment form: {line}");
            let name = line.split(['{', ' ']).next().unwrap();
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                declared.iter().any(|d| d == name || d == base),
                "sample without a declared family: {line}"
            );
            // The sample must end in a space-separated value.
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
            // Label sections: every quote inside must be paired or escaped.
            if let Some(open) = line.find('{') {
                let close = line.rfind('}').expect("unterminated label set");
                let labels = &line[open + 1..close];
                let mut quotes = 0u32;
                let mut chars = labels.chars();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => quotes += 1,
                        _ => {}
                    }
                }
                assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
            }
        }
        // The hostile profile label rendered escaped, on a single line.
        assert!(
            text.contains("profile=\"weird\\\"\\\\\\n\",check=\"total\""),
            "escaped hostile label missing"
        );
    }

    #[test]
    fn statuses_5xx_counted() {
        let m = Metrics::new();
        m.record(Endpoint::Other, 503, Duration::ZERO);
        assert_eq!(m.total_5xx(), 1);
    }

    #[test]
    fn diagnostics_counted_per_class() {
        let m = Metrics::new();
        m.record_diagnostic(DiagClass::MalformedFile);
        m.record_diagnostic(DiagClass::MalformedFile);
        m.record_diagnostic(DiagClass::UnpinnedDropped);
        assert_eq!(m.diagnostics(DiagClass::MalformedFile), 2);
        assert_eq!(m.diagnostics(DiagClass::TruncatedInput), 0);
        assert_eq!(m.total_diagnostics(), 3);
        let text = m.render(0, 0, 0);
        assert!(text.contains("sbomdiff_diagnostics_total{class=\"malformed-file\"} 2"));
        assert!(text.contains("sbomdiff_diagnostics_total{class=\"unpinned-dropped\"} 1"));
        assert!(text.contains("sbomdiff_diagnostics_total{class=\"io-error\"} 0"));
    }
}
