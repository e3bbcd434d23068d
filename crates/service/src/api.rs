//! Request handlers: JSON in, JSON out.
//!
//! Every handler is a *pure function* of the request body — seeds are part
//! of the payload, nothing reads clocks or thread state — which is what
//! makes responses cacheable byte-for-byte and identical for every worker
//! count (the same discipline `sbomdiff-parallel` imposes on the batch
//! pipeline).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use sbomdiff_diff::{jaccard, key_set};
use sbomdiff_faultline as fault;
use sbomdiff_generators::{BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext, ToolId};
use sbomdiff_matching::{match_sboms, MatchConfig, MatchTier};
use sbomdiff_metadata::RepoFs;
use sbomdiff_quality::QualityCheck;
use sbomdiff_registry::Registries;
use sbomdiff_sbomfmt::{ingest, SbomFormat};
use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{DiagClass, Diagnostic, Ecosystem, ResolvedPackage, Sbom, Version};
use sbomdiff_vuln::{assess_cached, AdvisoryDb, EnrichCache, ImpactReport};

use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::respcache::{CacheEntry, ResponseCache};

/// Maximum number of files accepted by `/v1/analyze`.
pub const MAX_ANALYZE_FILES: usize = 512;

/// Maximum sub-requests accepted by `POST /v1/batch`.
pub const MAX_BATCH_REQUESTS: usize = 256;

/// Maximum SBOM documents accepted by one batched `POST /v1/impact`.
pub const MAX_IMPACT_SBOMS: usize = 64;

/// Shared service state: memoized seeded worlds, response cache, metrics.
pub struct AppState {
    /// Seed used when a request does not carry one.
    pub default_seed: u64,
    /// The response cache, probed once per request by the reactor and
    /// filled by the workers (and by `/v1/batch` sub-requests).
    pub cache: ResponseCache,
    /// The metrics registry.
    pub metrics: Metrics,
    /// Parsed-metadata cache shared across requests. Keys hash file
    /// *content*, so two requests reusing a repository name can never see
    /// each other's stale parses — a rewritten manifest re-parses.
    pub parse_cache: ParseCache,
    /// TTL'd per-`(ecosystem, package)` advisory cache shared across
    /// `/v1/impact` requests (keyed on database fingerprints, so seeds
    /// never alias).
    pub enrich: EnrichCache,
    registries: Mutex<HashMap<u64, Arc<Registries>>>,
    advisories: Mutex<HashMap<(u64, u64, u64), Arc<AdvisoryDb>>>,
}

impl AppState {
    /// Fresh state with a response cache of `cache_capacity` entries.
    pub fn new(default_seed: u64, cache_capacity: usize) -> Self {
        AppState {
            default_seed,
            cache: ResponseCache::new(cache_capacity),
            metrics: Metrics::new(),
            parse_cache: ParseCache::new(),
            enrich: EnrichCache::new(),
            registries: Mutex::new(HashMap::new()),
            advisories: Mutex::new(HashMap::new()),
        }
    }

    /// The registry set for `seed`, memoized (at most 8 seeds retained).
    /// A poisoned memo lock means another worker panicked mid-insert; the
    /// map stays coherent, so the lock is recovered instead of cascading.
    pub fn registries(&self, seed: u64) -> Arc<Registries> {
        if let Some(found) = self
            .registries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&seed)
        {
            return Arc::clone(found);
        }
        // Generate outside the lock; a racing duplicate is deterministic.
        let generated = Arc::new(Registries::generate(seed));
        let mut memo = self
            .registries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.len() >= 8 && !memo.contains_key(&seed) {
            memo.clear();
        }
        Arc::clone(memo.entry(seed).or_insert(generated))
    }

    /// The advisory database for `(registry seed, advisory seed, share)`,
    /// memoized like [`AppState::registries`].
    pub fn advisory_db(&self, seed: u64, advisory_seed: u64, share: f64) -> Arc<AdvisoryDb> {
        let key = (seed, advisory_seed, share.to_bits());
        if let Some(found) = self
            .advisories
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(found);
        }
        let registries = self.registries(seed);
        let generated = Arc::new(AdvisoryDb::generate(&registries, advisory_seed, share));
        let mut memo = self
            .advisories
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.len() >= 8 && !memo.contains_key(&key) {
            memo.clear();
        }
        Arc::clone(memo.entry(key).or_insert(generated))
    }
}

/// Routes a parsed request to its handler. `queue_depth` feeds the
/// `/metrics` gauge.
pub fn handle(state: &AppState, request: &Request, queue_depth: usize) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => healthz(),
        ("GET", "/metrics") => {
            let mut text =
                state
                    .metrics
                    .render(state.cache.hits(), state.cache.misses(), queue_depth);
            text.push_str(&Metrics::render_parse_cache(
                state.parse_cache.hits(),
                state.parse_cache.misses(),
            ));
            let enrich = state.enrich.stats();
            text.push_str(&Metrics::render_enrich_cache(
                enrich.hits,
                enrich.misses,
                enrich.expired,
            ));
            Response::text(200, text)
        }
        ("POST", "/v1/analyze") => with_json_body(request, |doc| analyze(state, doc)),
        ("POST", "/v1/diff") => with_json_body(request, |doc| diff(state, doc)),
        ("POST", "/v1/impact") => with_json_body(request, |doc| impact(state, doc)),
        ("POST", "/v1/batch") => with_json_body(request, |doc| batch(state, doc, queue_depth)),
        (_, "/healthz" | "/metrics")
        | (_, "/v1/analyze" | "/v1/diff" | "/v1/impact" | "/v1/batch") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "unknown endpoint"),
    }
}

/// Outcome of a cached execution.
pub enum Executed {
    /// Backed by a shared cache entry — a lookup hit, or a fresh success
    /// that was just inserted. Keep-alive responses write the entry's
    /// preserialized wire bytes zero-copy.
    Hit(Arc<CacheEntry>),
    /// Not cacheable (GET, error, or degraded): an owned response.
    Miss(Response),
}

impl Executed {
    /// The response status.
    pub fn status(&self) -> u16 {
        match self {
            Executed::Hit(entry) => entry.response.status,
            Executed::Miss(response) => response.status,
        }
    }
}

/// The response-cache key of a cacheable request, `None` for the rest.
/// Only POST analysis requests are cacheable: GETs are trivially cheap.
pub(crate) fn cache_key(request: &Request) -> Option<u128> {
    (request.method == "POST" && request.path.starts_with("/v1/"))
        .then(|| ResponseCache::key(&request.path, &request.body))
}

/// Looks up / fills the response cache around the pure [`handle`] call:
/// one lookup, then `execute_miss` when it misses.
pub fn execute_cached(state: &AppState, request: &Request, queue_depth: usize) -> Executed {
    let key = cache_key(request);
    if let Some(cached) = key.and_then(|key| state.cache.get(key)) {
        return Executed::Hit(cached);
    }
    execute_miss(state, request, key, queue_depth)
}

/// Runs [`handle`] for a request whose cache lookup under `key` (its
/// [`cache_key`]) already missed, and inserts the response without a
/// second lookup. Only successful responses are cached: error responses
/// must keep carrying their specific messages. Degraded responses are
/// partial by construction and must not outlive the fault that shaped
/// them, so they never enter the cache.
pub(crate) fn execute_miss(
    state: &AppState,
    request: &Request,
    key: Option<u128>,
    queue_depth: usize,
) -> Executed {
    let response = handle(state, request, queue_depth);
    match key {
        Some(key) if response.is_success() && !response.degraded => {
            let entry = Arc::new(CacheEntry::new(response));
            state.cache.put(key, Arc::clone(&entry));
            Executed::Hit(entry)
        }
        _ => Executed::Miss(response),
    }
}

/// `POST /v1/batch`: many analysis sub-requests in one HTTP request,
/// amortizing connection, framing, and envelope-parse cost.
///
/// Payload: `{"requests": [{"path": "/v1/analyze", "body": {...}}, ...]}`
/// (at most [`MAX_BATCH_REQUESTS`] entries). Each entry routes through the
/// same cached execution path as a standalone POST — repeated payloads
/// across batches (or within one) are answered from the response cache, and
/// `/v1/analyze` entries share the PR-4 `ScanContext`/interner machinery
/// through the process-wide parse cache. An invalid entry yields a per-entry
/// 400 row rather than failing the whole batch; only a malformed envelope
/// is a top-level 400.
///
/// Response: `{"count": N, "degraded": bool, "responses": [{"path", "status",
/// "degraded", "body": "<sub-response JSON, as a string>"}, ...]}`. The
/// batch response is itself cacheable unless any sub-response was degraded.
fn batch(state: &AppState, doc: &Value, queue_depth: usize) -> Response {
    let Some(entries) = doc.get("requests").and_then(Value::as_array) else {
        return Response::error(400, "missing \"requests\" array");
    };
    if entries.is_empty() {
        return Response::error(400, "\"requests\" must contain at least one entry");
    }
    if entries.len() > MAX_BATCH_REQUESTS {
        return Response::error(400, "too many batch entries (limit 256)");
    }
    let mut degraded = false;
    let mut rows = Vec::with_capacity(entries.len());
    for entry in entries {
        let sub = match batch_entry_request(entry) {
            Ok(sub) => sub,
            Err(msg) => {
                rows.push(batch_row("", &Response::error(400, msg)));
                continue;
            }
        };
        let path = sub.path.clone();
        match execute_cached(state, &sub, queue_depth) {
            Executed::Hit(hit) => {
                rows.push(batch_row(&path, &hit.response));
                degraded |= hit.response.degraded;
            }
            Executed::Miss(response) => {
                rows.push(batch_row(&path, &response));
                degraded |= response.degraded;
            }
        }
    }
    let mut out = Value::object();
    out.set("count", Value::from(rows.len() as i64));
    out.set("degraded", Value::from(degraded));
    out.set("responses", Value::Array(rows));
    finish(out).with_degraded(degraded)
}

/// Validates one batch entry into a sub-[`Request`].
fn batch_entry_request(entry: &Value) -> Result<Request, &'static str> {
    let Some(path) = entry.get("path").and_then(Value::as_str) else {
        return Err("batch entry needs a string \"path\"");
    };
    if !matches!(path, "/v1/analyze" | "/v1/diff" | "/v1/impact") {
        return Err("batch entry path must be /v1/analyze, /v1/diff, or /v1/impact");
    }
    let Some(body) = entry.get("body").filter(|b| b.as_object().is_some()) else {
        return Err("batch entry needs an object \"body\"");
    };
    Ok(Request {
        method: "POST".into(),
        path: path.to_string(),
        body: json::to_string(body).into_bytes(),
    })
}

/// One row of the batch response. The sub-response body is embedded as a
/// string, not re-parsed: the bytes are already deterministic JSON, and
/// skipping the parse/re-serialize round-trip is the point of batching.
fn batch_row(path: &str, response: &Response) -> Value {
    let mut row = Value::object();
    row.set("path", Value::from(path));
    row.set("status", Value::from(i64::from(response.status)));
    row.set("degraded", Value::from(response.degraded));
    row.set(
        "body",
        Value::from(String::from_utf8_lossy(&response.body).into_owned()),
    );
    row
}

fn healthz() -> Response {
    let mut doc = Value::object();
    doc.set("status", Value::from("ok"));
    doc.set("service", Value::from("sbomdiff-serve"));
    doc.set("version", Value::from(env!("CARGO_PKG_VERSION")));
    finish(doc)
}

fn with_json_body(request: &Request, f: impl FnOnce(&Value) -> Response) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "request body is not valid UTF-8");
    };
    match json::parse(text) {
        Ok(doc) if doc.as_object().is_some() => f(&doc),
        Ok(_) => Response::error(400, "request body must be a JSON object"),
        Err(e) => Response::error(400, &format!("invalid JSON body: {e}")),
    }
}

/// `POST /v1/analyze`: an in-memory repository tree → all four studied-tool
/// SBOMs (plus optionally the best-practice reference) and diff metrics.
fn analyze(state: &AppState, doc: &Value) -> Response {
    let Some(files) = doc.get("files").and_then(Value::as_object) else {
        return Response::error(400, "missing \"files\" object ({path: content})");
    };
    if files.is_empty() {
        return Response::error(400, "\"files\" must contain at least one file");
    }
    if files.len() > MAX_ANALYZE_FILES {
        return Response::error(400, "too many files (limit 512)");
    }
    let name = doc.get("name").and_then(Value::as_str).unwrap_or("repo");
    let seed = opt_u64(doc, "seed").unwrap_or(state.default_seed);
    let include_sboms = doc
        .get("include_sboms")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let best_practice = doc
        .get("best_practice")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let quality = doc.get("quality").and_then(Value::as_bool).unwrap_or(false);
    let format = match doc.get("format").and_then(Value::as_str) {
        None | Some("cyclonedx") => SbomFormat::CycloneDx,
        Some("spdx") => SbomFormat::Spdx,
        Some("spdx-tag-value") => SbomFormat::SpdxTagValue,
        Some(_) => {
            return Response::error(
                400,
                "format must be \"cyclonedx\", \"spdx\", or \"spdx-tag-value\"",
            )
        }
    };

    let mut repo = RepoFs::new(name);
    for (path, content) in files {
        let Some(content) = content.as_str() else {
            return Response::error(400, "every file content must be a string");
        };
        repo.add_text(path.clone(), content);
    }

    let registries = state.registries(seed);
    let tools = sbomdiff_generators::studied_tools(&registries, 0.0);
    // One walk, one parse per manifest: every profile (and the optional
    // best-practice reference) scans through a shared context backed by
    // the process-wide cache, so repeat requests over unchanged manifests
    // reuse earlier parses while mutated files re-parse (content-hashed
    // keys).
    let scan = ScanContext::new(&repo, &state.parse_cache);
    let mut ids = Vec::new();
    let mut sboms: Vec<Sbom> = Vec::new();
    let mut caught_fault = false;
    for tool in &tools {
        let id = tool.id();
        ids.push(id);
        let (sbom, faulted) = generate_guarded(id, name, || tool.generate_with_scan(&scan));
        caught_fault |= faulted;
        sboms.push(sbom);
    }
    if best_practice {
        let bp = BestPracticeGenerator::new(&registries);
        let id = bp.id();
        ids.push(id);
        let (sbom, faulted) = generate_guarded(id, name, || bp.generate_with_scan(&scan));
        caught_fault |= faulted;
        sboms.push(sbom);
    }
    // Opt-in NTIA-minimum quality scoring. Evaluated before the degraded
    // verdict so an injected `quality.score` fault marks the response
    // degraded (and thereby keeps it out of the response cache).
    let quality_rows = quality.then(|| {
        let mut rows = Vec::new();
        let mut faulted = false;
        for (id, sbom) in ids.iter().zip(&sboms) {
            let mut row = Value::object();
            row.set("tool", Value::from(id.label()));
            if let Some(surfaced) = fault::point!(fault::sites::QUALITY_SCORE, id.label()) {
                faulted = true;
                row.set(
                    "error",
                    Value::from(surfaced.message(fault::sites::QUALITY_SCORE)),
                );
                rows.push(row);
                continue;
            }
            let report = sbomdiff_quality::evaluate(sbom);
            let profile = quality_profile(*id);
            for check in QualityCheck::ALL {
                state.metrics.record_quality_score(
                    profile,
                    check.label(),
                    report.check(check).score(),
                );
            }
            state
                .metrics
                .record_quality_score(profile, "total", report.score());
            row.set("score", Value::from(report.score()));
            row.set("components", Value::from(report.components as i64));
            let mut checks = Value::object();
            for check in QualityCheck::ALL {
                let r = report.check(check);
                let mut cell = Value::object();
                cell.set("score", Value::from(r.score()));
                cell.set("weight", Value::from(i64::from(check.weight())));
                cell.set("passed", Value::from(r.passed as i64));
                cell.set("missing", Value::from(r.missing as i64));
                cell.set("malformed", Value::from(r.malformed as i64));
                checks.set(check.label(), cell);
            }
            row.set("checks", checks);
            rows.push(row);
        }
        (rows, faulted)
    });
    let quality_fault = quality_rows.as_ref().is_some_and(|(_, f)| *f);
    // Degraded := some tool's generation step was lost to a caught fault,
    // or a fault plan is installed and fault evidence (injected-marker
    // messages, registry failures under the otherwise-reliable service
    // registry) reached the diagnostics. A pure function of (payload,
    // installed plan), so responses stay deterministic per plan.
    let degraded = caught_fault
        || quality_fault
        || sboms.iter().any(|s| {
            s.diagnostics().iter().any(|d| {
                fault::is_injected(&d.message)
                    || (fault::enabled() && d.class == DiagClass::RegistryFailure)
            })
        });

    let mut out = Value::object();
    out.set("subject", Value::from(name));
    out.set("seed", Value::from(seed as i64));
    out.set("degraded", Value::from(degraded));
    if degraded {
        state.metrics.record_degraded();
    }
    let mut tool_rows = Vec::new();
    for (id, sbom) in ids.iter().zip(&sboms) {
        let mut row = Value::object();
        row.set("tool", Value::from(id.label()));
        row.set("version", Value::from(id.version()));
        row.set("components", Value::from(sbom.len() as i64));
        row.set("duplicates", Value::from(sbom.duplicate_entries() as i64));
        row.set("diagnostics", Value::from(sbom.diagnostics().len() as i64));
        tool_rows.push(row);
    }
    out.set("tools", Value::Array(tool_rows));
    if let Some((rows, _)) = quality_rows {
        out.set("quality", Value::Array(rows));
    }
    // Classified diagnostics: what each tool could not parse or silently
    // dropped. Corrupted input degrades into evidence, never a 5xx.
    let mut diag_rows = Vec::new();
    for (id, sbom) in ids.iter().zip(&sboms) {
        for diag in sbom.diagnostics() {
            state.metrics.record_diagnostic(diag.class);
            let mut row = Value::object();
            row.set("tool", Value::from(id.label()));
            row.set("severity", Value::from(diag.severity.label()));
            row.set("class", Value::from(diag.class.label()));
            if let Some(path) = &diag.path {
                row.set("path", Value::from(path.clone()));
            }
            if let Some(line) = diag.line {
                row.set("line", Value::from(i64::from(line)));
            }
            row.set("message", Value::from(diag.message.clone()));
            diag_rows.push(row);
        }
    }
    out.set("diagnostics", Value::Array(diag_rows));
    let keys: Vec<_> = sboms.iter().map(key_set).collect();
    let mut pairs = Vec::new();
    for a in 0..sboms.len() {
        for b in (a + 1)..sboms.len() {
            let mut pair = Value::object();
            pair.set("a", Value::from(ids[a].label()));
            pair.set("b", Value::from(ids[b].label()));
            pair.set(
                "jaccard",
                jaccard(&keys[a], &keys[b]).map_or(Value::Null, Value::from),
            );
            pairs.push(pair);
        }
    }
    out.set("pairwise", Value::Array(pairs));
    // Scan-plan facts only: global cache hit/miss counters depend on
    // request history and would break the byte-identical-response
    // guarantee, so they are exposed via /metrics instead.
    let mut scan_info = Value::object();
    scan_info.set("metadata_files", Value::from(scan.files().len() as i64));
    out.set("scan", scan_info);
    if include_sboms {
        let mut docs = Value::object();
        for (id, sbom) in ids.iter().zip(&sboms) {
            docs.set(id.label(), Value::from(format.serialize(sbom)));
        }
        out.set("sboms", docs);
    }
    finish(out).with_degraded(degraded)
}

/// Stable lowercase profile slug used as the `profile` label of the
/// `sbomdiff_quality_score` gauge (matching the experiment CSV's profile
/// column).
fn quality_profile(id: ToolId) -> &'static str {
    match id {
        ToolId::Trivy => "trivy",
        ToolId::Syft => "syft",
        ToolId::SbomTool => "sbom-tool",
        ToolId::GithubDg => "github-dg",
        ToolId::BestPractice => "best-practice",
    }
}

/// Runs one tool's generation step under the `service.analyze` fault point
/// and a panic boundary. A failing or panicking tool yields an empty SBOM
/// carrying a typed diagnostic: the analysis degrades into evidence, it
/// never becomes a 500 and never silently omits the tool.
fn generate_guarded(id: ToolId, subject: &str, generate: impl FnOnce() -> Sbom) -> (Sbom, bool) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(surfaced) = fault::point!(fault::sites::SERVICE_ANALYZE, id.label()) {
            return Err(surfaced.message(fault::sites::SERVICE_ANALYZE));
        }
        Ok(generate())
    }));
    match outcome {
        Ok(Ok(sbom)) => (sbom, false),
        Ok(Err(message)) => (failed_tool_sbom(id, subject, message), true),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "tool generation panicked".to_string());
            let message = if fault::is_injected(&message) {
                message
            } else {
                format!("caught panic: {message}")
            };
            (failed_tool_sbom(id, subject, message), true)
        }
    }
}

/// The placeholder SBOM for a tool whose generation step was lost to a
/// caught fault: no components, one Error-severity diagnostic.
fn failed_tool_sbom(id: ToolId, subject: &str, message: String) -> Sbom {
    let mut sbom = Sbom::new(id.label(), id.version()).with_subject(subject);
    sbom.extend_shared_diagnostics([Arc::new(Diagnostic::new(DiagClass::IoError, message))]);
    sbom
}

/// Reads one request document through the streaming ingester, the one
/// SBOM reader behind `/v1/diff` and `/v1/impact`, and records the ingest
/// metrics. Any externally produced CycloneDX 1.4/1.5 JSON, SPDX 2.2/2.3
/// JSON, or SPDX tag-value document is accepted. A genuinely malformed
/// document is a 400 naming `document` with its classified diagnostic. An
/// injected `ingest.doc` fault comes back as an `Ok` outcome that still
/// carries its fatal diagnostic: the caller degrades into a 200, mirroring
/// `/v1/analyze`, so chaos soaks see availability rather than client
/// errors.
fn ingest_doc(
    state: &AppState,
    document: &str,
    text: &str,
) -> Result<ingest::IngestOutcome, Response> {
    let outcome = ingest::ingest_bytes(text.as_bytes());
    state
        .metrics
        .record_ingest(outcome.format, outcome.stats.bytes_read);
    match &outcome.fatal {
        Some(fatal) if !fault::is_injected(&fatal.message) => Err(Response::error(
            400,
            &format!("document {document}: {}", fatal.message),
        )),
        _ => Ok(outcome),
    }
}

/// `POST /v1/diff`: two serialized SBOM documents → differential report.
///
/// Both documents are read by [`ingest_doc`]; the two sides need not share
/// a format.
///
/// With `"match": "tiered"` the response additionally carries the
/// multi-tier matcher's view (`jaccard_exact` vs `jaccard_matched`, the
/// per-tier pair counts, and a capped sample of non-exact matches). The
/// optional `"jobs"` knob only changes how tier-3 scoring fans out —
/// responses stay byte-identical for every value.
fn diff(state: &AppState, doc: &Value) -> Response {
    let (Some(a_text), Some(b_text)) = (
        doc.get("a").and_then(Value::as_str),
        doc.get("b").and_then(Value::as_str),
    ) else {
        return Response::error(400, "missing \"a\" and \"b\" SBOM document strings");
    };
    let tiered = match doc.get("match") {
        None => false,
        Some(mode) => match mode.as_str() {
            Some("exact") => false,
            Some("tiered") => true,
            _ => return Response::error(400, "\"match\" must be \"exact\" or \"tiered\""),
        },
    };
    let mut outcomes = Vec::with_capacity(2);
    for (label, text) in [("a", a_text), ("b", b_text)] {
        match ingest_doc(state, &format!("\"{label}\""), text) {
            Ok(outcome) => outcomes.push((label, outcome)),
            Err(response) => return response,
        }
    }
    // A fatal that `ingest_doc` let through is an injected fault.
    let degraded = outcomes.iter().any(|(_, o)| o.is_fatal());
    if degraded {
        state.metrics.record_degraded();
    }
    let keys_a = key_set(&outcomes[0].1.sbom);
    let keys_b = key_set(&outcomes[1].1.sbom);
    let mut out = Value::object();
    let mut diag_rows = Vec::new();
    for (label, outcome) in &outcomes {
        let sbom = &outcome.sbom;
        let mut side = Value::object();
        side.set(
            "format",
            outcome
                .format
                .map_or(Value::Null, |f| Value::from(f.label())),
        );
        side.set(
            "spec_version",
            outcome
                .stats
                .spec_version
                .as_ref()
                .map_or(Value::Null, |v| Value::from(v.clone())),
        );
        side.set("tool", Value::from(sbom.meta.tool_name.clone()));
        side.set("tool_version", Value::from(sbom.meta.tool_version.clone()));
        side.set("subject", Value::from(sbom.meta.subject.clone()));
        side.set("components", Value::from(sbom.len() as i64));
        side.set("duplicates", Value::from(sbom.duplicate_entries() as i64));
        out.set(*label, side);
        for diag in sbom
            .diagnostics()
            .iter()
            .map(|d| &**d)
            .chain(outcome.fatal.as_ref())
        {
            state.metrics.record_diagnostic(diag.class);
            let mut row = Value::object();
            row.set("document", Value::from(*label));
            row.set("severity", Value::from(diag.severity.label()));
            row.set("class", Value::from(diag.class.label()));
            if let Some(line) = diag.line {
                row.set("line", Value::from(i64::from(line)));
            }
            row.set("message", Value::from(diag.message.clone()));
            diag_rows.push(row);
        }
    }
    out.set("diagnostics", Value::Array(diag_rows));
    out.set("degraded", Value::from(degraded));
    out.set(
        "jaccard",
        jaccard(&keys_a, &keys_b).map_or(Value::Null, Value::from),
    );
    out.set(
        "intersection",
        Value::from(keys_a.intersection(&keys_b).count() as i64),
    );
    const KEY_SAMPLE: usize = 50;
    for (label, mine, other) in [("only_a", &keys_a, &keys_b), ("only_b", &keys_b, &keys_a)] {
        let only: Vec<_> = mine.difference(other).collect();
        out.set(format!("{label}_total"), Value::from(only.len() as i64));
        out.set(
            label,
            Value::Array(
                only.iter()
                    .take(KEY_SAMPLE)
                    .map(|k| Value::from(k.to_string()))
                    .collect(),
            ),
        );
    }
    if tiered {
        let jobs = opt_u64(doc, "jobs").unwrap_or(1).clamp(1, 16) as usize;
        let cfg = MatchConfig {
            jobs,
            ..MatchConfig::default()
        };
        let report = match_sboms(&outcomes[0].1.sbom, &outcomes[1].1.sbom, &cfg);
        let counts = report.tier_counts();
        for tier in MatchTier::ALL {
            state
                .metrics
                .record_matches(tier, counts[tier.index()] as u64);
        }
        out.set(
            "jaccard_exact",
            report.jaccard_exact().map_or(Value::Null, Value::from),
        );
        out.set(
            "jaccard_matched",
            report.jaccard_matched().map_or(Value::Null, Value::from),
        );
        let mut tiers = Value::object();
        for tier in MatchTier::ALL {
            tiers.set(tier.label(), Value::from(counts[tier.index()] as i64));
        }
        out.set("match_tiers", tiers);
        let recovered: Vec<_> = report
            .pairs
            .iter()
            .filter(|p| p.tier != MatchTier::Exact)
            .collect();
        out.set("matches_total", Value::from(recovered.len() as i64));
        out.set(
            "matches",
            Value::Array(
                recovered
                    .iter()
                    .take(KEY_SAMPLE)
                    .map(|p| {
                        let mut row = Value::object();
                        row.set("a", Value::from(p.a.to_string()));
                        row.set("b", Value::from(p.b.to_string()));
                        row.set("tier", Value::from(p.tier.label()));
                        row.set("score", Value::from(p.score));
                        row
                    })
                    .collect(),
            ),
        );
    }
    finish(out).with_degraded(degraded)
}

/// `POST /v1/impact`: SBOM document(s) + advisory-db seed → missed /
/// false-alarm vulnerability reports via the enrichment cache
/// ([`sbomdiff_vuln::assess_cached`]).
///
/// Two payload shapes:
///
/// * `{"sbom": "<doc>", ...}` — the legacy single-document form; the
///   response carries the report fields at the top level.
/// * `{"sboms": ["<doc>", ...], ...}` — batched (at most
///   [`MAX_IMPACT_SBOMS`] documents) against one shared truth; the
///   response is `{"count", "advisories", "truth_packages", "degraded",
///   "reports": [...]}` with one report row per document.
///
/// Without an explicit `"truth"` array, the first document's pinned
/// components are the ground truth — so a batch of one tool profile per
/// document diffs every profile against the first (e.g. a best-practice
/// SBOM). An optional `"ecosystem"` string pins the truth's language;
/// otherwise it is inferred per document from its first component.
///
/// Every document is read once, by [`ingest_doc`]. A fault injected at
/// `ingest.doc` or surfaced at an enrichment site degrades that
/// document's row (never a 5xx); degraded responses are never cached by
/// [`execute_cached`], so a later fault-free request recomputes.
fn impact(state: &AppState, doc: &Value) -> Response {
    if doc.get("sbom").is_some() && doc.get("sboms").is_some() {
        return Response::error(400, "provide \"sbom\" or \"sboms\", not both");
    }
    let batched = doc.get("sboms").is_some();
    let mut texts: Vec<&str> = Vec::new();
    if batched {
        let Some(entries) = doc.get("sboms").and_then(Value::as_array) else {
            return Response::error(400, "\"sboms\" must be an array of document strings");
        };
        if entries.is_empty() {
            return Response::error(400, "\"sboms\" must contain at least one document");
        }
        if entries.len() > MAX_IMPACT_SBOMS {
            return Response::error(400, "too many impact documents (limit 64)");
        }
        for (i, entry) in entries.iter().enumerate() {
            let Some(text) = entry.as_str() else {
                return Response::error(400, &format!("\"sboms\"[{i}] must be a document string"));
            };
            texts.push(text);
        }
    } else {
        let Some(text) = doc.get("sbom").and_then(Value::as_str) else {
            return Response::error(400, "missing \"sbom\" document string");
        };
        texts.push(text);
    }
    let mut outcomes = Vec::with_capacity(texts.len());
    for (i, text) in texts.into_iter().enumerate() {
        let document = if batched {
            format!("\"sboms\"[{i}]")
        } else {
            "\"sbom\"".to_string()
        };
        match ingest_doc(state, &document, text) {
            Ok(outcome) => outcomes.push(outcome),
            Err(response) => return response,
        }
    }
    let seed = opt_u64(doc, "seed").unwrap_or(state.default_seed);
    let advisory_seed = opt_u64(doc, "advisory_seed").unwrap_or(1);
    let share = doc
        .get("vulnerable_share")
        .and_then(Value::as_f64)
        .unwrap_or(0.2);
    if !(0.0..=1.0).contains(&share) {
        return Response::error(400, "vulnerable_share must be within [0, 1]");
    }
    let pinned_eco = match doc.get("ecosystem") {
        None | Some(Value::Null) => None,
        Some(value) => match value.as_str().and_then(|s| s.parse::<Ecosystem>().ok()) {
            Some(eco) => Some(eco),
            None => return Response::error(400, "unknown \"ecosystem\""),
        },
    };
    let truth = match doc.get("truth") {
        None | Some(Value::Null) => sbom_as_truth(&outcomes[0].sbom),
        Some(value) => match parse_truth(value) {
            Ok(t) => t,
            Err(msg) => return Response::error(400, msg),
        },
    };
    let db = state.advisory_db(seed, advisory_seed, share);
    let mut degraded = false;
    let mut rows = Vec::with_capacity(outcomes.len());
    for outcome in &outcomes {
        let sbom = &outcome.sbom;
        let eco = pinned_eco
            .or_else(|| sbom.components().first().map(|c| c.ecosystem))
            .unwrap_or(Ecosystem::Python);
        let mut row = Value::object();
        row.set("tool", Value::from(sbom.meta.tool_name.clone()));
        row.set("subject", Value::from(sbom.meta.subject.clone()));
        // A fatal that `ingest_doc` let through is an injected fault.
        let assessed = match &outcome.fatal {
            Some(fatal) => Err(fatal.message.clone()),
            None => assess_cached(&state.enrich, &db, eco, sbom, &truth),
        };
        match assessed {
            Ok(report) => {
                record_raised_severities(state, &db, &report);
                impact_report_fields(&mut row, &report);
            }
            Err(msg) => {
                degraded = true;
                row.set("degraded", Value::from(true));
                row.set("error", Value::from(msg));
            }
        }
        rows.push(row);
    }
    if degraded {
        state.metrics.record_degraded();
    }
    let mut out = if batched {
        let mut out = Value::object();
        out.set("count", Value::from(rows.len() as i64));
        out.set("degraded", Value::from(degraded));
        out.set("reports", Value::Array(rows));
        out
    } else {
        rows.pop().unwrap_or_else(Value::object)
    };
    out.set("advisories", Value::from(db.len() as i64));
    out.set("truth_packages", Value::from(truth.len() as i64));
    finish(out).with_degraded(degraded)
}

/// Writes an [`ImpactReport`]'s id partitions and rates into a response
/// row.
fn impact_report_fields(row: &mut Value, report: &ImpactReport) {
    for (label, ids) in [
        ("actual", &report.actual),
        ("detected", &report.detected),
        ("missed", &report.missed),
        ("false_alarms", &report.false_alarms),
    ] {
        row.set(
            label,
            Value::Array(ids.iter().map(|id| Value::from(id.clone())).collect()),
        );
    }
    row.set("miss_rate", Value::from(report.miss_rate()));
    row.set("false_alarm_rate", Value::from(report.false_alarm_rate()));
}

/// Counts the raised advisories (detected + false alarms — what an
/// operator sees) per severity for `/metrics`.
fn record_raised_severities(state: &AppState, db: &AdvisoryDb, report: &ImpactReport) {
    for id in report.detected.iter().chain(report.false_alarms.iter()) {
        if let Some(adv) = db.by_id(id) {
            state.metrics.record_advisories(adv.severity, 1);
        }
    }
}

fn sbom_as_truth(sbom: &Sbom) -> Vec<ResolvedPackage> {
    sbom.components()
        .iter()
        .filter_map(|c| {
            let version = Version::parse(c.version.as_deref()?).ok()?;
            Some(ResolvedPackage::direct(c.name.clone(), version))
        })
        .collect()
}

fn parse_truth(value: &Value) -> Result<Vec<ResolvedPackage>, &'static str> {
    let entries = value
        .as_array()
        .ok_or("\"truth\" must be an array of {name, version} objects")?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let name = entry
            .get("name")
            .and_then(Value::as_str)
            .ok_or("every truth entry needs a string \"name\"")?;
        let version_text = entry
            .get("version")
            .and_then(Value::as_str)
            .ok_or("every truth entry needs a string \"version\"")?;
        let version =
            Version::parse(version_text).map_err(|_| "unparseable version in \"truth\" entry")?;
        out.push(ResolvedPackage::direct(name, version));
    }
    Ok(out)
}

fn opt_u64(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key)
        .and_then(Value::as_i64)
        .map(|n| n.max(0) as u64)
}

/// Compact-serializes a response document with a trailing newline.
fn finish(doc: Value) -> Response {
    let mut body = json::to_string(&doc);
    body.push('\n');
    Response::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fault plans are process-global. Tests that install one hold this
    /// lock until the plan is uninstalled, so plans never replace each
    /// other; tests whose assertions an installed plan would perturb
    /// (parse-cache hits, quality rows) hold it too.
    static FAULT_PLAN: Mutex<()> = Mutex::new(());

    fn no_other_plan() -> std::sync::MutexGuard<'static, ()> {
        FAULT_PLAN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn install(plan: fault::FaultPlan) -> (fault::Guard, std::sync::MutexGuard<'static, ()>) {
        let lock = no_other_plan();
        (fault::install(plan), lock)
    }

    fn state() -> AppState {
        AppState::new(42, 64)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_json(resp: &Response) -> Value {
        json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_reports_ok() {
        let state = state();
        let req = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            body: vec![],
        };
        let resp = handle(&state, &req, 0);
        assert_eq!(resp.status, 200);
        assert_eq!(
            body_json(&resp).get("status").and_then(Value::as_str),
            Some("ok")
        );
    }

    #[test]
    fn unknown_path_is_404_and_bad_method_is_405() {
        let state = state();
        let resp = handle(&state, &post("/nope", "{}"), 0);
        assert_eq!(resp.status, 404);
        let resp = handle(&state, &post("/healthz", ""), 0);
        assert_eq!(resp.status, 405);
        let get_diff = Request {
            method: "GET".into(),
            path: "/v1/diff".into(),
            body: vec![],
        };
        assert_eq!(handle(&state, &get_diff, 0).status, 405);
    }

    #[test]
    fn malformed_bodies_yield_400() {
        let state = state();
        for body in ["not json", "{\"files\": 7}", "[1,2]", "{\"files\": {}}"] {
            let resp = handle(&state, &post("/v1/analyze", body), 0);
            assert_eq!(resp.status, 400, "{body}");
            assert!(body_json(&resp).get("error").is_some(), "{body}");
        }
        let resp = handle(&state, &post("/v1/diff", "{}"), 0);
        assert_eq!(resp.status, 400);
        let resp = handle(&state, &post("/v1/impact", "{\"sbom\": \"junk\"}"), 0);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn non_utf8_body_yields_400() {
        let state = state();
        let req = Request {
            method: "POST".into(),
            path: "/v1/diff".into(),
            body: vec![0xff, 0xfe, 0x00],
        };
        assert_eq!(handle(&state, &req, 0).status, 400);
    }

    fn analyze_payload() -> String {
        r#"{"name":"demo","seed":7,"files":{"requirements.txt":"numpy==1.19.2\nflask>=2.0\n","go.mod":"module m\nrequire github.com/pkg/errors v0.9.1\n"}}"#.to_string()
    }

    #[test]
    fn analyze_reports_four_tools_and_pairwise_jaccard() {
        let _plan = no_other_plan();
        let state = state();
        let resp = handle(&state, &post("/v1/analyze", &analyze_payload()), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        assert_eq!(doc.get("tools").and_then(Value::as_array).unwrap().len(), 4);
        assert_eq!(
            doc.get("pairwise").and_then(Value::as_array).unwrap().len(),
            6
        );
        assert_eq!(
            doc.pointer("scan/metadata_files").and_then(Value::as_i64),
            Some(2)
        );
        // The shared parse cache actually memoized across the four tools.
        assert!(state.parse_cache.hits() > 0);
    }

    #[test]
    fn rewritten_manifest_is_reanalyzed_not_served_stale() {
        let _plan = no_other_plan();
        // Same repository name, same path, different bytes across two
        // requests against one long-lived state: the content-hashed parse
        // cache must serve the *new* parse, not the memo of the first.
        let state = state();
        let old = r#"{"name":"demo","seed":7,"include_sboms":true,"files":{"requirements.txt":"numpy==1.19.2\n"}}"#;
        let new = r#"{"name":"demo","seed":7,"include_sboms":true,"files":{"requirements.txt":"numpy==1.25.0\n"}}"#;
        let first = handle(&state, &post("/v1/analyze", old), 0);
        let second = handle(&state, &post("/v1/analyze", new), 0);
        assert_eq!(first.status, 200);
        assert_eq!(second.status, 200);
        let embedded = |resp: &Response| {
            body_json(resp)
                .pointer("sboms/Trivy")
                .and_then(Value::as_str)
                .unwrap()
                .to_string()
        };
        assert!(embedded(&first).contains("1.19.2"));
        let rewritten = embedded(&second);
        assert!(rewritten.contains("1.25.0"), "{rewritten}");
        assert!(!rewritten.contains("1.19.2"), "stale parse served");
        // The unchanged request replays as pure cache hits…
        let misses_before = state.parse_cache.misses();
        let replay = handle(&state, &post("/v1/analyze", old), 0);
        assert_eq!(replay.body, first.body);
        assert_eq!(state.parse_cache.misses(), misses_before);
    }

    #[test]
    fn analyze_surfaces_diagnostics_for_corrupted_payloads() {
        use sbomdiff_types::DiagClass;
        let state = state();
        // A truncated package.json plus an unpinned requirement the
        // Trivy/Syft dialect drops: both must come back as classified
        // diagnostics on a 2xx response — never a worker panic.
        let payload = r#"{"name":"corrupt","seed":7,"files":{"package.json":"{\"dependencies\": {\"a\":","requirements.txt":"requests>=2.8.1\n"}}"#;
        let resp = handle(&state, &post("/v1/analyze", payload), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        let diags = doc.get("diagnostics").and_then(Value::as_array).unwrap();
        assert!(!diags.is_empty());
        let classes: Vec<&str> = diags
            .iter()
            .filter_map(|d| d.get("class").and_then(Value::as_str))
            .collect();
        assert!(classes.contains(&"truncated-input"), "{classes:?}");
        assert!(classes.contains(&"unpinned-dropped"), "{classes:?}");
        for d in diags {
            assert!(d.get("tool").and_then(Value::as_str).is_some());
            assert!(d.get("severity").and_then(Value::as_str).is_some());
            assert!(d.get("message").and_then(Value::as_str).is_some());
        }
        // Every surfaced diagnostic also incremented its /metrics counter.
        assert!(state.metrics.diagnostics(DiagClass::TruncatedInput) > 0);
        assert_eq!(state.metrics.total_diagnostics(), diags.len() as u64);
        let text = state.metrics.render(0, 0, 0);
        assert!(text.contains("sbomdiff_diagnostics_total{class=\"truncated-input\"} 1"));
    }

    #[test]
    fn analyze_is_deterministic() {
        let state = state();
        let a = handle(&state, &post("/v1/analyze", &analyze_payload()), 0);
        let b = handle(&state, &post("/v1/analyze", &analyze_payload()), 0);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn analyze_include_sboms_embeds_parseable_docs() {
        let state = state();
        let payload = analyze_payload().replace(
            "\"name\":\"demo\"",
            "\"name\":\"demo\",\"include_sboms\":true,\"best_practice\":true",
        );
        let resp = handle(&state, &post("/v1/analyze", &payload), 0);
        assert_eq!(resp.status, 200);
        let doc = body_json(&resp);
        assert_eq!(doc.get("tools").and_then(Value::as_array).unwrap().len(), 5);
        let embedded = doc.pointer("sboms/Trivy").and_then(Value::as_str).unwrap();
        assert!(SbomFormat::CycloneDx.parse(embedded).is_ok());
    }

    #[test]
    fn diff_compares_two_documents() {
        let state = state();
        // Build two documents through /v1/analyze with include_sboms.
        let payload = analyze_payload().replace(
            "\"name\":\"demo\"",
            "\"name\":\"demo\",\"include_sboms\":true",
        );
        let resp = handle(&state, &post("/v1/analyze", &payload), 0);
        let doc = body_json(&resp);
        let trivy = doc.pointer("sboms/Trivy").and_then(Value::as_str).unwrap();
        let github = doc
            .pointer("sboms/GitHub DG")
            .and_then(Value::as_str)
            .unwrap();
        let mut req = Value::object();
        req.set("a", Value::from(trivy));
        req.set("b", Value::from(github));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 200);
        let out = body_json(&resp);
        assert_eq!(out.pointer("a/tool").and_then(Value::as_str), Some("Trivy"));
        assert!(out.get("jaccard").is_some());
        assert!(out.get("only_b_total").and_then(Value::as_i64).is_some());
    }

    #[test]
    fn diff_accepts_external_documents_across_formats() {
        let state = state();
        // Hand-written third-party documents: CycloneDX 1.4 JSON on one
        // side, SPDX 2.3 tag-value on the other.
        let cdx = concat!(
            "{\"bomFormat\":\"CycloneDX\",\"specVersion\":\"1.4\",",
            "\"metadata\":{\"tools\":[{\"name\":\"syft\",\"version\":\"1.0\"}],",
            "\"component\":{\"name\":\"demo\"}},",
            "\"components\":[{\"type\":\"library\",\"name\":\"left-pad\",",
            "\"version\":\"1.3.0\",\"purl\":\"pkg:npm/left-pad@1.3.0\"}]}"
        );
        let spdx = concat!(
            "SPDXVersion: SPDX-2.3\n",
            "DataLicense: CC0-1.0\n",
            "SPDXID: SPDXRef-DOCUMENT\n",
            "DocumentName: demo-trivy\n",
            "Creator: Tool: trivy-0.50\n",
            "\n",
            "PackageName: left-pad\n",
            "SPDXID: SPDXRef-Package-0\n",
            "PackageVersion: 1.3.0\n",
            "ExternalRef: PACKAGE-MANAGER purl pkg:npm/left-pad@1.3.0\n",
        );
        let mut req = Value::object();
        req.set("a", Value::from(cdx));
        req.set("b", Value::from(spdx));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let out = body_json(&resp);
        assert_eq!(
            out.pointer("a/format").and_then(Value::as_str),
            Some("cyclonedx")
        );
        assert_eq!(
            out.pointer("a/spec_version").and_then(Value::as_str),
            Some("1.4")
        );
        assert_eq!(
            out.pointer("b/format").and_then(Value::as_str),
            Some("spdx-tag-value")
        );
        assert_eq!(
            out.pointer("b/spec_version").and_then(Value::as_str),
            Some("SPDX-2.3")
        );
        assert_eq!(out.pointer("a/components").and_then(Value::as_i64), Some(1));
        assert_eq!(out.pointer("b/components").and_then(Value::as_i64), Some(1));
        // Both sides name the same package, so the key sets intersect.
        assert_eq!(out.get("intersection").and_then(Value::as_i64), Some(1));
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(false));
        // Ingest metrics observed both documents.
        assert_eq!(
            state.metrics.ingest_documents(Some(SbomFormat::CycloneDx)),
            1
        );
        assert_eq!(
            state
                .metrics
                .ingest_documents(Some(SbomFormat::SpdxTagValue)),
            1
        );
        assert_eq!(
            state.metrics.ingest_bytes(),
            (cdx.len() + spdx.len()) as u64
        );
        let text = state.metrics.render(0, 0, 0);
        assert!(text.contains("sbomdiff_ingest_documents_total{format=\"cyclonedx\"} 1"));
    }

    #[test]
    fn diff_malformed_document_is_400_with_side_label() {
        let state = state();
        let mut req = Value::object();
        req.set("a", Value::from("{\"bomFormat\":\"CycloneDX\""));
        req.set("b", Value::from("SPDXVersion: SPDX-2.3\n"));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 400);
        let msg = body_json(&resp)
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert!(msg.contains("document \"a\""), "{msg}");
        // The unrecognizable side still counted toward ingest metrics.
        assert_eq!(state.metrics.ingest_documents(None), 1);
    }

    #[test]
    fn diff_degrades_instead_of_failing_under_injected_ingest_fault() {
        let state = state();
        // Key the rule to this document's exact byte length so concurrent
        // tests in this binary are unaffected by the global plan.
        let mut cdx =
            String::from("{\"bomFormat\":\"CycloneDX\",\"specVersion\":\"1.5\",\"components\":[]}");
        while cdx.len() < 9973 {
            cdx.push('\n');
        }
        let plan = fault::FaultPlan {
            seed: 11,
            rules: vec![fault::FaultRule::new(
                fault::sites::INGEST_DOC,
                1_000_000,
                fault::FaultAction::Error,
            )
            .for_key("9973")],
        };
        let guard = install(plan);
        let mut req = Value::object();
        req.set("a", Value::from(cdx.as_str()));
        req.set("b", Value::from("SPDXVersion: SPDX-2.3\n"));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        drop(guard);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(resp.degraded);
        let out = body_json(&resp);
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(out.pointer("a/components").and_then(Value::as_i64), Some(0));
        let diags = out.get("diagnostics").and_then(Value::as_array).unwrap();
        assert!(diags.iter().any(|d| {
            d.get("document").and_then(Value::as_str) == Some("a")
                && d.get("message")
                    .and_then(Value::as_str)
                    .is_some_and(fault::is_injected)
        }));
        assert!(state.metrics.degraded() >= 1);
    }

    #[test]
    fn diff_and_impact_reject_the_same_documents_with_the_same_message() {
        // Both endpoints read documents through one reader, so a document
        // past the ingester's nesting or token caps is a 400 on both.
        let deep = format!(
            "{{\"bomFormat\":\"CycloneDX\",\"specVersion\":\"1.5\",\"x-vendor\":{}{},\"components\":[]}}",
            "[".repeat(120),
            "]".repeat(120)
        );
        let long = format!(
            "{{\"bomFormat\":\"CycloneDX\",\"specVersion\":\"1.5\",\"components\":[{{\"name\":\"{}\"}}]}}",
            "x".repeat(1_200_000)
        );
        let valid = SbomFormat::CycloneDx.serialize(&Sbom::new("t", "1"));
        let state = state();
        let error = |resp: &Response| {
            body_json(resp)
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        for (doc, want) in [
            (&deep, "maximum nesting depth exceeded"),
            (&long, "string token exceeds 1048576 bytes"),
        ] {
            let mut req = Value::object();
            req.set("a", Value::from(doc.as_str()));
            req.set("b", Value::from(valid.as_str()));
            let diff = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
            let mut req = Value::object();
            req.set("sbom", Value::from(doc.as_str()));
            let impact = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
            let (diff_msg, impact_msg) = (error(&diff), error(&impact));
            assert_eq!((diff.status, impact.status), (400, 400), "{impact_msg}");
            assert_eq!(diff_msg, format!("document \"a\": {want}"));
            assert_eq!(impact_msg, format!("document \"sbom\": {want}"));
        }
        assert_eq!(state.metrics.ingest_documents(None), 4);
    }

    #[test]
    fn impact_degrades_under_injected_ingest_fault_and_is_never_cached() {
        use sbomdiff_types::Component;
        let state = state();
        let mut truth = Sbom::new("best-practice", "1");
        truth.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.19.2".into()),
        ));
        let truth = SbomFormat::CycloneDx.serialize(&truth);
        // Key the rule to the second document's exact byte length so
        // concurrent tests in this binary are unaffected by the global plan.
        let mut faulted = SbomFormat::CycloneDx.serialize(&Sbom::new("dropper", "1"));
        while faulted.len() < 9967 {
            faulted.push('\n');
        }
        let mut req = Value::object();
        req.set(
            "sboms",
            Value::Array(vec![
                Value::from(truth.as_str()),
                Value::from(faulted.as_str()),
            ]),
        );
        req.set("vulnerable_share", Value::from(1.0));
        let body = json::to_string(&req);
        let plan = fault::FaultPlan {
            seed: 17,
            rules: vec![fault::FaultRule::new(
                fault::sites::INGEST_DOC,
                1_000_000,
                fault::FaultAction::Error,
            )
            .for_key("9967")],
        };
        let guard = install(plan);
        let first = match execute_cached(&state, &post("/v1/impact", &body), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response must not enter the cache"),
        };
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        assert!(first.degraded);
        let out = body_json(&first);
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(true));
        let reports = out.get("reports").and_then(Value::as_array).unwrap();
        assert_eq!(reports[0].get("degraded"), None);
        assert_eq!(
            reports[1].get("degraded").and_then(Value::as_bool),
            Some(true)
        );
        assert!(reports[1]
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(fault::is_injected));
        assert_eq!(state.metrics.degraded(), 1);
        // Deterministic while the plan is live, and still not a cache hit.
        let second = match execute_cached(&state, &post("/v1/impact", &body), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response served from cache"),
        };
        assert_eq!(first.body, second.body);
        drop(guard);
        // Fault-free recomputation succeeds and becomes cacheable.
        let healthy = execute_cached(&state, &post("/v1/impact", &body), 0);
        assert!(matches!(healthy, Executed::Hit(_)));
        assert_eq!(healthy.status(), 200);
        // Every impact document is counted once per request it was read in.
        let metrics = &state.metrics;
        assert_eq!(metrics.ingest_documents(Some(SbomFormat::CycloneDx)), 4);
        assert_eq!(metrics.ingest_documents(None), 2);
    }

    // Two CycloneDX documents naming the same three Python packages with
    // divergent spellings: one PEP 503 case/separator variant, one `v`
    // version prefix, one exact agreement.
    fn divergent_pair() -> (String, String) {
        let mk = |tool: &str, comps: &str| {
            format!(
                concat!(
                    "{{\"bomFormat\":\"CycloneDX\",\"specVersion\":\"1.5\",",
                    "\"metadata\":{{\"tools\":[{{\"name\":\"{}\",\"version\":\"1.0\"}}],",
                    "\"component\":{{\"name\":\"demo\"}}}},",
                    "\"components\":[{}]}}"
                ),
                tool, comps
            )
        };
        let comp = |name: &str, version: &str| {
            format!(
                concat!(
                    "{{\"type\":\"library\",\"name\":\"{}\",\"version\":\"{}\",",
                    "\"properties\":[{{\"name\":\"sbomdiff:ecosystem\",\"value\":\"pypi\"}}]}}"
                ),
                name, version
            )
        };
        let a = mk(
            "syft",
            &[
                comp("Flask_Login", "0.6.2"),
                comp("werkzeug", "3.0.1"),
                comp("requests", "2.31.0"),
            ]
            .join(","),
        );
        let b = mk(
            "dependency-graph",
            &[
                comp("flask-login", "0.6.2"),
                comp("werkzeug", "v3.0.1"),
                comp("requests", "2.31.0"),
            ]
            .join(","),
        );
        (a, b)
    }

    #[test]
    fn diff_tiered_mode_reports_matched_jaccard_and_tiers() {
        let state = state();
        let (a, b) = divergent_pair();
        let mut req = Value::object();
        req.set("a", Value::from(a));
        req.set("b", Value::from(b));
        req.set("match", Value::from("tiered"));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let out = body_json(&resp);
        // Exact identity only sees the one agreeing spelling...
        let exact = out.get("jaccard_exact").and_then(Value::as_f64).unwrap();
        assert!((exact - 0.2).abs() < 1e-9, "{exact}");
        // ...the tiers recover the PEP 503 and v-prefix divergences.
        assert_eq!(
            out.get("jaccard_matched").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            out.pointer("match_tiers/exact").and_then(Value::as_i64),
            Some(1)
        );
        assert_eq!(
            out.pointer("match_tiers/normalized")
                .and_then(Value::as_i64),
            Some(2)
        );
        assert_eq!(out.get("matches_total").and_then(Value::as_i64), Some(2));
        let matches = out.get("matches").and_then(Value::as_array).unwrap();
        assert!(matches
            .iter()
            .all(|m| m.get("tier").and_then(Value::as_str) == Some("normalized")));
        // The legacy exact-diff fields are still present and agree.
        assert_eq!(out.get("jaccard").and_then(Value::as_f64), Some(exact));
        // Every matched pair also incremented its /metrics tier counter.
        assert_eq!(state.metrics.matches(MatchTier::Exact), 1);
        assert_eq!(state.metrics.matches(MatchTier::Normalized), 2);
        let text = state.metrics.render(0, 0, 0);
        assert!(text.contains("sbomdiff_match_total{tier=\"normalized\"} 2"));
    }

    #[test]
    fn diff_without_match_field_keeps_exact_response_shape() {
        let state = state();
        let (a, b) = divergent_pair();
        let mut req = Value::object();
        req.set("a", Value::from(a));
        req.set("b", Value::from(b));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 200);
        let out = body_json(&resp);
        assert!(out.get("jaccard").is_some());
        assert!(out.get("jaccard_matched").is_none());
        assert!(out.get("match_tiers").is_none());
        assert_eq!(state.metrics.matches(MatchTier::Exact), 0);
    }

    #[test]
    fn diff_tiered_is_byte_identical_across_jobs_counts() {
        let state = state();
        let (a, b) = divergent_pair();
        let bodies: Vec<Vec<u8>> = [1i64, 4]
            .iter()
            .map(|&jobs| {
                let mut req = Value::object();
                req.set("a", Value::from(a.as_str()));
                req.set("b", Value::from(b.as_str()));
                req.set("match", Value::from("tiered"));
                req.set("jobs", Value::from(jobs));
                let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
                assert_eq!(resp.status, 200);
                resp.body
            })
            .collect();
        assert_eq!(bodies[0], bodies[1], "jobs=1 vs jobs=4");
    }

    #[test]
    fn diff_rejects_unknown_match_mode() {
        let state = state();
        let mut req = Value::object();
        req.set("a", Value::from("SPDXVersion: SPDX-2.3\n"));
        req.set("b", Value::from("SPDXVersion: SPDX-2.3\n"));
        req.set("match", Value::from("approximate"));
        let resp = handle(&state, &post("/v1/diff", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 400);
        let msg = body_json(&resp)
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert!(msg.contains("\"match\""), "{msg}");
    }

    #[test]
    fn impact_assesses_sbom_against_advisories() {
        let state = state();
        let payload = analyze_payload().replace(
            "\"name\":\"demo\"",
            "\"name\":\"demo\",\"include_sboms\":true",
        );
        let resp = handle(&state, &post("/v1/analyze", &payload), 0);
        let doc = body_json(&resp);
        let sbom = doc.pointer("sboms/Trivy").and_then(Value::as_str).unwrap();
        let mut req = Value::object();
        req.set("sbom", Value::from(sbom));
        req.set("vulnerable_share", Value::from(1.0));
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let out = body_json(&resp);
        assert!(out.get("advisories").and_then(Value::as_i64).unwrap() > 0);
        assert!(out.get("miss_rate").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn impact_with_explicit_truth_detects_misses() {
        let state = state();
        // An empty SBOM against a non-empty truth must report misses when
        // the truth package carries an advisory at 100% share.
        let empty = SbomFormat::CycloneDx.serialize(&Sbom::new("t", "1"));
        let mut req = Value::object();
        req.set("sbom", Value::from(empty));
        req.set("vulnerable_share", Value::from(1.0));
        req.set(
            "truth",
            json::parse(r#"[{"name":"numpy","version":"1.19.2"}]"#).unwrap(),
        );
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 200);
        let out = body_json(&resp);
        let missed = out.get("missed").and_then(Value::as_array).unwrap();
        assert!(!missed.is_empty(), "{out:?}");
    }

    #[test]
    fn impact_rejects_bad_truth_and_share() {
        let state = state();
        let empty = SbomFormat::CycloneDx.serialize(&Sbom::new("t", "1"));
        let mut req = Value::object();
        req.set("sbom", Value::from(empty.as_str()));
        req.set("truth", json::parse(r#"[{"name":"x"}]"#).unwrap());
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 400);
        let mut req = Value::object();
        req.set("sbom", Value::from(empty));
        req.set("vulnerable_share", Value::from(3.5));
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn impact_batched_scores_documents_against_shared_truth() {
        use sbomdiff_types::{Component, Ecosystem};
        use sbomdiff_vuln::Severity;
        let state = state();
        let mut full = Sbom::new("best-practice", "1");
        full.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.19.2".into()),
        ));
        let full = SbomFormat::CycloneDx.serialize(&full);
        let empty = SbomFormat::CycloneDx.serialize(&Sbom::new("dropper", "1"));
        let mut req = Value::object();
        req.set(
            "sboms",
            Value::Array(vec![
                Value::from(full.as_str()),
                Value::from(empty.as_str()),
            ]),
        );
        req.set("ecosystem", Value::from("python"));
        req.set("vulnerable_share", Value::from(1.0));
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let out = body_json(&resp);
        assert_eq!(out.get("count").and_then(Value::as_i64), Some(2));
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(false));
        assert_eq!(out.get("truth_packages").and_then(Value::as_i64), Some(1));
        let reports = out.get("reports").and_then(Value::as_array).unwrap();
        assert_eq!(reports.len(), 2);
        // The truth document detects its own vulnerability; the empty
        // profile misses the same advisory against the shared truth.
        let detected = reports[0]
            .get("detected")
            .and_then(Value::as_array)
            .unwrap();
        assert!(!detected.is_empty(), "{out:?}");
        let missed = reports[1].get("missed").and_then(Value::as_array).unwrap();
        assert_eq!(missed.len(), detected.len(), "{out:?}");
        assert_eq!(
            reports[1].get("miss_rate").and_then(Value::as_f64),
            Some(1.0)
        );
        // Raised advisories landed on the per-severity /metrics counters
        // and the enrichment cache served the repeated package lookups.
        let raised: u64 = Severity::ALL
            .iter()
            .map(|s| state.metrics.advisories_matched(*s))
            .sum();
        assert_eq!(raised, detected.len() as u64);
        let text = state.metrics.render(0, 0, 0);
        assert!(text.contains("sbomdiff_advisories_matched_total{severity=\""));
        let stats = state.enrich.stats();
        assert!(stats.hits > 0, "{stats:?}");
        // Both payload shapes at once are ambiguous.
        req.set("sbom", Value::from(empty.as_str()));
        let resp = handle(&state, &post("/v1/impact", &json::to_string(&req)), 0);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn impact_degrades_under_injected_enrich_fault_and_is_never_cached() {
        let state = state();
        // Key the rule to a package name no other test looks up, so the
        // process-global plan cannot leak into concurrent tests.
        let empty = SbomFormat::CycloneDx.serialize(&Sbom::new("t", "1"));
        let mut req = Value::object();
        req.set("sbom", Value::from(empty));
        req.set("vulnerable_share", Value::from(1.0));
        req.set(
            "truth",
            json::parse(r#"[{"name":"impact-fault-probe","version":"1.0.0"}]"#).unwrap(),
        );
        let body = json::to_string(&req);
        let plan = fault::FaultPlan {
            seed: 13,
            rules: vec![fault::FaultRule::new(
                fault::sites::VULN_LOOKUP,
                1_000_000,
                fault::FaultAction::Error,
            )
            .for_key("impact-fault-probe")],
        };
        let guard = install(plan);
        let first = match execute_cached(&state, &post("/v1/impact", &body), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response must not enter the cache"),
        };
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        assert!(first.degraded);
        let out = body_json(&first);
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(true));
        assert!(out
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(fault::is_injected));
        // Deterministic while the plan is live, and still not a cache hit.
        let second = match execute_cached(&state, &post("/v1/impact", &body), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response served from cache"),
        };
        assert_eq!(first.body, second.body);
        drop(guard);
        // Fault-free recomputation succeeds and becomes cacheable.
        let healthy = execute_cached(&state, &post("/v1/impact", &body), 0);
        assert!(matches!(healthy, Executed::Hit(_)));
        assert_eq!(healthy.status(), 200);
    }

    #[test]
    fn analyze_quality_scores_every_tool_and_feeds_gauges() {
        let _plan = no_other_plan();
        let state = state();
        let payload = analyze_payload().replace(
            "\"name\":\"demo\"",
            "\"name\":\"demo\",\"quality\":true,\"best_practice\":true",
        );
        let resp = handle(&state, &post("/v1/analyze", &payload), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let doc = body_json(&resp);
        let rows = doc.get("quality").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 5, "one quality row per tool incl best-practice");
        let mut best = None;
        let mut emulators = Vec::new();
        for row in rows {
            let tool = row.get("tool").and_then(Value::as_str).unwrap();
            let score = row.get("score").and_then(Value::as_f64).unwrap();
            assert!((0.0..=100.0).contains(&score), "{tool}: {score}");
            let checks = row.get("checks").unwrap();
            for check in QualityCheck::ALL {
                let cell = checks
                    .get(check.label())
                    .unwrap_or_else(|| panic!("{tool}: missing check cell {:?}", check.label()));
                assert!(cell.get("score").and_then(Value::as_f64).is_some());
                assert!(cell.get("passed").and_then(Value::as_i64).is_some());
            }
            if tool == "best-practice" {
                best = Some(score);
            } else {
                emulators.push((tool.to_string(), score));
            }
        }
        let best = best.expect("best-practice quality row");
        for (tool, score) in emulators {
            assert!(
                best > score,
                "best-practice ({best}) must beat {tool} ({score})"
            );
        }
        // Scores also landed on the /metrics gauges under profile slugs.
        assert_eq!(
            state.metrics.quality_score("best-practice", "total"),
            Some(best)
        );
        assert!(state.metrics.quality_score("github-dg", "total").is_some());
        let text = state.metrics.render(0, 0, 0);
        assert!(text.contains("sbomdiff_quality_score{profile=\"trivy\",check=\"supplier\"}"));
        // Without the opt-in flag, no quality key appears in the response.
        let plain = handle(&state, &post("/v1/analyze", &analyze_payload()), 0);
        assert!(body_json(&plain).get("quality").is_none());
    }

    #[test]
    fn analyze_quality_degrades_under_injected_fault_and_is_never_cached() {
        let state = state();
        // Key the rule to one tool label so only the quality step trips.
        let payload = analyze_payload().replace(
            "\"name\":\"demo\"",
            "\"name\":\"quality-fault-probe\",\"quality\":true",
        );
        let plan = fault::FaultPlan {
            seed: 29,
            rules: vec![fault::FaultRule::new(
                fault::sites::QUALITY_SCORE,
                1_000_000,
                fault::FaultAction::Error,
            )
            .for_key("Syft")],
        };
        let guard = install(plan);
        let first = match execute_cached(&state, &post("/v1/analyze", &payload), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response must not enter the cache"),
        };
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        assert!(first.degraded);
        let out = body_json(&first);
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(true));
        let rows = out.get("quality").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 4);
        let syft = rows
            .iter()
            .find(|r| r.get("tool").and_then(Value::as_str) == Some("Syft"))
            .unwrap();
        assert!(syft
            .get("error")
            .and_then(Value::as_str)
            .is_some_and(fault::is_injected));
        assert!(syft.get("score").is_none(), "faulted row carries no score");
        // The other tools still scored normally in the same response.
        let scored = rows
            .iter()
            .filter(|r| r.get("score").and_then(Value::as_f64).is_some())
            .count();
        assert_eq!(scored, 3, "{rows:?}");
        // Deterministic while the plan is live, and still not a cache hit.
        let second = match execute_cached(&state, &post("/v1/analyze", &payload), 0) {
            Executed::Miss(resp) => resp,
            Executed::Hit(_) => panic!("degraded response served from cache"),
        };
        assert_eq!(first.body, second.body);
        drop(guard);
        // Fault-free recomputation succeeds and becomes cacheable.
        let healthy = execute_cached(&state, &post("/v1/analyze", &payload), 0);
        assert!(matches!(healthy, Executed::Hit(_)));
        assert_eq!(healthy.status(), 200);
        let out = body_json(match &healthy {
            Executed::Hit(entry) => &entry.response,
            Executed::Miss(resp) => resp,
        });
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(false));
        let rows = out.get("quality").and_then(Value::as_array).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.get("score").and_then(Value::as_f64).is_some()));
    }

    #[test]
    fn batch_routes_entries_and_embeds_sub_responses() {
        let state = state();
        let mut req = Value::object();
        let mut a = Value::object();
        a.set("path", Value::from("/v1/analyze"));
        a.set("body", json::parse(&analyze_payload()).unwrap());
        let mut b = Value::object();
        b.set("path", Value::from("/v1/impact"));
        let mut impact_body = Value::object();
        impact_body.set(
            "sbom",
            Value::from(SbomFormat::CycloneDx.serialize(&Sbom::new("t", "1"))),
        );
        b.set("body", impact_body);
        req.set("requests", Value::Array(vec![a, b]));
        let resp = handle(&state, &post("/v1/batch", &json::to_string(&req)), 0);
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let out = body_json(&resp);
        assert_eq!(out.get("count").and_then(Value::as_i64), Some(2));
        assert_eq!(out.get("degraded").and_then(Value::as_bool), Some(false));
        let rows = out.get("responses").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("status").and_then(Value::as_i64),
            Some(200),
            "{rows:?}"
        );
        // The embedded body string is the sub-handler's exact JSON output.
        let embedded = rows[0].get("body").and_then(Value::as_str).unwrap();
        let standalone = handle(&state, &post("/v1/analyze", &analyze_payload()), 0);
        assert_eq!(embedded.as_bytes(), standalone.body.as_slice());
        assert_eq!(rows[1].get("status").and_then(Value::as_i64), Some(200));
    }

    #[test]
    fn batch_rejects_bad_envelopes() {
        let state = state();
        for body in ["{}", "{\"requests\": []}", "{\"requests\": 3}"] {
            let resp = handle(&state, &post("/v1/batch", body), 0);
            assert_eq!(resp.status, 400, "{body}");
        }
        // Over the entry cap.
        let entry = r#"{"path":"/v1/impact","body":{}}"#;
        let body = format!("{{\"requests\":[{}]}}", vec![entry; 257].join(","));
        assert_eq!(handle(&state, &post("/v1/batch", &body), 0).status, 400);
        // GET on the endpoint is a 405 like its siblings.
        let get = Request {
            method: "GET".into(),
            path: "/v1/batch".into(),
            body: vec![],
        };
        assert_eq!(handle(&state, &get, 0).status, 405);
    }

    #[test]
    fn batch_invalid_entries_fail_per_row_not_whole_batch() {
        let state = state();
        let body = concat!(
            "{\"requests\":[",
            "{\"path\":\"/v1/batch\",\"body\":{}},", // recursion refused
            "{\"path\":\"/v1/diff\"},",              // missing body
            "{\"path\":\"/v1/diff\",\"body\":{}}",   // routed: handler 400s
            "]}"
        );
        let resp = handle(&state, &post("/v1/batch", body), 0);
        assert_eq!(resp.status, 200);
        let out = body_json(&resp);
        let rows = out.get("responses").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            assert_eq!(row.get("status").and_then(Value::as_i64), Some(400));
        }
    }

    #[test]
    fn batch_sub_requests_share_the_response_cache() {
        let state = state();
        let entry = format!(
            "{{\"path\":\"/v1/analyze\",\"body\":{}}}",
            analyze_payload()
        );
        // The same payload twice in one batch: second entry is a hit.
        let body = format!("{{\"requests\":[{entry},{entry}]}}");
        let first = handle(&state, &post("/v1/batch", &body), 0);
        assert_eq!(first.status, 200);
        assert!(state.cache.hits() >= 1, "hits={}", state.cache.hits());
        // A standalone POST of the same payload is also a hit now.
        let hits_before = state.cache.hits();
        match execute_cached(&state, &post("/v1/analyze", &analyze_payload()), 0) {
            Executed::Hit(hit) => {
                assert_eq!(hit.response.status, 200);
                assert_eq!(&*hit.wire, hit.response.serialize(false).as_slice());
            }
            Executed::Miss(_) => panic!("expected a cache hit"),
        }
        assert_eq!(state.cache.hits(), hits_before + 1);
    }

    #[test]
    fn execute_cached_skips_errors_and_non_v1_paths() {
        let state = state();
        // An error response is never cached: same request, still a miss.
        let bad = post("/v1/diff", "not json");
        assert!(matches!(
            execute_cached(&state, &bad, 0),
            Executed::Miss(ref r) if r.status == 400
        ));
        let misses = state.cache.misses();
        assert!(matches!(
            execute_cached(&state, &bad, 0),
            Executed::Miss(ref r) if r.status == 400
        ));
        assert_eq!(state.cache.misses(), misses + 1);
        // GETs bypass the cache entirely (no lookup, no insertion).
        let get = Request {
            method: "GET".into(),
            path: "/healthz".into(),
            body: vec![],
        };
        let lookups = state.cache.hits() + state.cache.misses();
        assert!(matches!(
            execute_cached(&state, &get, 0),
            Executed::Miss(ref r) if r.status == 200
        ));
        assert_eq!(state.cache.hits() + state.cache.misses(), lookups);
    }

    #[test]
    fn registries_and_advisories_are_memoized() {
        let state = state();
        let a = state.registries(5);
        let b = state.registries(5);
        assert!(Arc::ptr_eq(&a, &b));
        let da = state.advisory_db(5, 1, 0.2);
        let db = state.advisory_db(5, 1, 0.2);
        assert!(Arc::ptr_eq(&da, &db));
    }
}
