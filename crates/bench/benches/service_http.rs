//! Benchmarks of the serving tier's per-request hot path (DESIGN.md §18):
//! incremental HTTP/1.1 request parsing as the reactor sees it, response
//! serialization, the preserialized zero-copy cache-hit write, and the
//! response-cache key the reactor computes for every cacheable request.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use sbomdiff_service::http::{parse_request, ParseStatus, Response};
use sbomdiff_service::respcache::{self, CacheEntry};

fn analyze_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn bench_parse_request(c: &mut Criterion) {
    let body = r#"{"files":{"requirements.txt":"numpy==1.19.2\nflask>=2.0\n"},"seed":42}"#;
    let wire = analyze_request(body);
    let mut group = c.benchmark_group("service_http");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("parse_request_complete", |b| {
        b.iter(|| match parse_request(black_box(&wire)) {
            ParseStatus::Complete { consumed, .. } => consumed,
            _ => unreachable!("complete request must parse"),
        })
    });
    // The reactor re-parses from the partial prefix every fill until the
    // head completes; the incomplete path must stay cheap.
    let head_only = &wire[..wire.len() - body.len() - 2];
    group.bench_function("parse_request_partial", |b| {
        b.iter(|| matches!(parse_request(black_box(head_only)), ParseStatus::Partial(_)))
    });
    group.finish();
}

fn bench_response_paths(c: &mut Criterion) {
    let response = Response::json(200, r#"{"ok":true,"tools":4,"jaccard":0.273}"#.as_bytes());
    let entry = Arc::new(CacheEntry::new(response.clone()));
    let mut group = c.benchmark_group("service_response");
    // Cold path: a miss serializes headers + body into a fresh buffer.
    group.bench_function("serialize_miss", |b| {
        b.iter(|| black_box(&response).serialize(false))
    });
    // Hot path: a keep-alive hit clones the Arc of preserialized bytes.
    group.bench_function("cache_hit_shared", |b| {
        b.iter(|| Arc::clone(black_box(&entry.wire)))
    });
    group.bench_function("cache_key", |b| {
        let body = br#"{"files":{"requirements.txt":"numpy==1.19.2\n"}}"#;
        b.iter(|| respcache::key(black_box("/v1/analyze"), black_box(body)))
    });
    group.finish();
}

/// The key over bodies of the two perfbench serve workloads' mean request
/// sizes: `serve-cold` (~72 KB) and `serve-large` (~1.66 MB).
fn bench_cache_key_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_cache_key");
    for (name, len) in [("cache_key_72KB", 72_000), ("cache_key_1.66MB", 1_660_000)] {
        let body: Vec<u8> = (0..len).map(|i| b' ' + (i % 95) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| {
            b.iter(|| respcache::key(black_box("/v1/diff"), black_box(&body)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parse_request,
    bench_response_paths,
    bench_cache_key_sizes
);
criterion_main!(benches);
