//! End-to-end tests: real sockets against an in-process server, plus the
//! `sbomdiff-serve` binary surface.

use std::process::Command;

use sbomdiff_service::loadgen::{build_payloads, http_request};
use sbomdiff_service::{ServeConfig, Server};
use sbomdiff_textformats::json;

fn start() -> sbomdiff_service::ServerHandle {
    Server::start(ServeConfig {
        jobs: 2,
        seed: 42,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

#[test]
fn healthz_and_metrics_roundtrip() {
    let mut server = start();
    let (status, body) = http_request(server.addr(), "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.pointer("/status").and_then(|v| v.as_str()), Some("ok"));

    let (status, text) = http_request(server.addr(), "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("sbomdiff_requests_total{endpoint=\"healthz\"} 1"));
    assert!(text.contains("sbomdiff_cache_hit_ratio"));
    assert!(text.contains("sbomdiff_latency_seconds_bucket"));
    server.shutdown();
}

#[test]
fn analyze_diff_impact_pipeline_over_http() {
    let mut server = start();
    let addr = server.addr();

    // Analyze a small repo and ask for the serialized SBOMs back.
    let analyze_body = r#"{
        "name": "demo",
        "seed": 42,
        "include_sboms": true,
        "files": {
            "package.json": "{\"name\": \"demo\", \"version\": \"1.0.0\", \"dependencies\": {\"left-pad\": \"^1.3.0\"}}"
        }
    }"#;
    let (status, body) = http_request(addr, "POST", "/v1/analyze", analyze_body).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let tools = doc.get("tools").and_then(|v| v.as_array()).unwrap();
    assert_eq!(tools.len(), 4);
    let sboms = doc.get("sboms").and_then(|v| v.as_object()).unwrap();
    assert_eq!(sboms.len(), 4);

    // Feed two of the returned documents to /v1/diff.
    let a = sboms[0].1.as_str().unwrap();
    let b = sboms[1].1.as_str().unwrap();
    let mut diff_doc = sbomdiff_textformats::Value::object();
    diff_doc.set("a", sbomdiff_textformats::Value::from(a));
    diff_doc.set("b", sbomdiff_textformats::Value::from(b));
    let (status, body) =
        http_request(addr, "POST", "/v1/diff", &json::to_string(&diff_doc)).unwrap();
    assert_eq!(status, 200, "{body}");
    let report = json::parse(&body).unwrap();
    assert!(report.get("jaccard").is_some());

    // And one of them to /v1/impact.
    let mut impact_doc = sbomdiff_textformats::Value::object();
    impact_doc.set("sbom", sbomdiff_textformats::Value::from(a));
    impact_doc.set("vulnerable_share", sbomdiff_textformats::Value::from(0.5));
    let (status, body) =
        http_request(addr, "POST", "/v1/impact", &json::to_string(&impact_doc)).unwrap();
    assert_eq!(status, 200, "{body}");
    let report = json::parse(&body).unwrap();
    assert!(report.get("miss_rate").is_some(), "{body}");
    server.shutdown();
}

#[test]
fn malformed_bodies_answer_400_not_panic() {
    let mut server = start();
    let addr = server.addr();
    for (path, body) in [
        ("/v1/analyze", "{not json"),
        ("/v1/analyze", "[1,2,3]"),
        ("/v1/analyze", "{}"),
        ("/v1/diff", "{\"a\": \"junk\", \"b\": \"junk\"}"),
        ("/v1/impact", "{\"sbom\": 42}"),
        ("/v1/impact", "{}"),
    ] {
        let (status, response) = http_request(addr, "POST", path, body).unwrap();
        assert_eq!(status, 400, "{path} {body} -> {response}");
        let doc = json::parse(&response).expect("error body is JSON");
        assert!(doc.get("error").is_some());
    }
    // Server is still healthy afterwards.
    let (status, _) = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn identical_payloads_are_cached_and_byte_identical() {
    let mut server = start();
    let addr = server.addr();
    let payloads = build_payloads(42, 3);
    let (path, body) = &payloads[0];
    let (s1, b1) = http_request(addr, "POST", path, body).unwrap();
    let (s2, b2) = http_request(addr, "POST", path, body).unwrap();
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(b1, b2, "identical payloads must get byte-identical bodies");
    let (_, metrics) = http_request(addr, "GET", "/metrics", "").unwrap();
    // One lookup per request: the cold request misses once, its repeat hits.
    for line in [
        "sbomdiff_cache_hits_total 1",
        "sbomdiff_cache_misses_total 1",
        "sbomdiff_cache_hit_ratio 0.500000",
    ] {
        assert!(metrics.contains(line), "expected {line}:\n{metrics}");
    }
    server.shutdown();
}

#[test]
fn batch_counts_one_lookup_per_envelope_and_entry() {
    // Two identical /v1/analyze entries in one batch on a fresh server: the
    // envelope misses, the first entry misses, the second entry hits.
    let mut server = start();
    let addr = server.addr();
    let payloads = build_payloads(42, 1);
    let (path, body) = &payloads[0];
    assert_eq!(path, "/v1/analyze");
    let entry = format!("{{\"path\":\"{path}\",\"body\":{body}}}");
    let batch = format!("{{\"requests\":[{entry},{entry}]}}");
    let (status, _) = http_request(addr, "POST", "/v1/batch", &batch).unwrap();
    assert_eq!(status, 200);
    let (_, metrics) = http_request(addr, "GET", "/metrics", "").unwrap();
    for line in [
        "sbomdiff_cache_hits_total 1",
        "sbomdiff_cache_misses_total 2",
    ] {
        assert!(metrics.contains(line), "expected {line}:\n{metrics}");
    }
    server.shutdown();
}

#[test]
fn binary_reports_version_and_help() {
    let exe = env!("CARGO_BIN_EXE_sbomdiff-serve");
    let out = Command::new(exe).arg("--version").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("sbomdiff-serve "), "{text}");

    let out = Command::new(exe).arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("loadgen"), "{text}");
    assert!(text.contains("/v1/analyze"), "{text}");

    let out = Command::new(exe).arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn binary_loadgen_smoke() {
    let exe = env!("CARGO_BIN_EXE_sbomdiff-serve");
    let out_path = std::env::temp_dir().join("sbomdiff_loadgen_smoke.json");
    let out = Command::new(exe)
        .args([
            "loadgen",
            "--requests",
            "24",
            "--clients",
            "3",
            "--payloads",
            "6",
            "--jobs",
            "2",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out_path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("throughput"), "{stdout}");
    let bench = std::fs::read_to_string(&out_path).unwrap();
    let doc = json::parse(&bench).unwrap();
    assert_eq!(doc.pointer("/non_2xx").and_then(|v| v.as_i64()), Some(0));
    let _ = std::fs::remove_file(&out_path);
}
