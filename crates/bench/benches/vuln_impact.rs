//! Benchmarks of the vulnerability-impact enrichment path (DESIGN.md
//! §19): OSV range evaluation, indexed advisory matching, one assessment
//! straight off the index next to the same assessment through the
//! enrichment cache (warm and cold), and OSV feed (de)serialization —
//! the pieces `POST /v1/impact` and `experiments vuln` sit on.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use sbomdiff_registry::Registries;
use sbomdiff_types::{Component, Ecosystem, ResolvedPackage, Sbom, Version};
use sbomdiff_vuln::{
    assess_cached, assess_in, db_to_osv_json, ingest_osv, AdvisoryDb, EnrichCache,
};

fn world() -> (Registries, AdvisoryDb) {
    let registries = Registries::generate(8);
    let db = AdvisoryDb::generate(&registries, 77, 0.3);
    (registries, db)
}

/// A scan pair over every vulnerable Python package: the SBOM names each
/// package at its oldest published version, the truth installs the same
/// set — enough lookups to exercise matching and the cache realistically.
fn scan_pair(registries: &Registries, db: &AdvisoryDb) -> (Sbom, Vec<ResolvedPackage>) {
    let mut sbom = Sbom::new("bench-tool", "1.0").with_subject("bench-repo");
    let mut truth = Vec::new();
    for (eco, universe) in registries.iter() {
        if eco != Ecosystem::Python {
            continue;
        }
        for (name, published) in universe.entries() {
            let canonical = sbomdiff_types::name::normalize(eco, name);
            if db.for_package(eco, &canonical).is_empty() || published.is_empty() {
                continue;
            }
            let version = published[0].version.clone();
            sbom.push(Component::new(eco, name, Some(version.to_unprefixed())));
            truth.push(ResolvedPackage::direct(canonical, version));
        }
    }
    assert!(truth.len() > 10, "bench scan too small: {}", truth.len());
    (sbom, truth)
}

fn bench_matching(c: &mut Criterion) {
    let (registries, db) = world();
    let (_, truth) = scan_pair(&registries, &db);
    let mut group = c.benchmark_group("vuln_matching");
    // The per-component hot loop: indexed lookup plus the sorted event
    // walk of every range of every advisory on the package.
    group.throughput(Throughput::Elements(truth.len() as u64));
    group.bench_function("matching_indexed", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for pkg in &truth {
                hits += db
                    .matching(Ecosystem::Python, black_box(&pkg.name), &pkg.version)
                    .len();
            }
            hits
        })
    });
    let probe = Version::parse("1.4.2").unwrap();
    group.bench_function("range_walk_single", |b| {
        let advisory = &db.advisories()[0];
        b.iter(|| advisory.affects(black_box(&probe)))
    });
    group.finish();
}

fn bench_enrichment(c: &mut Criterion) {
    let (registries, db) = world();
    let (sbom, truth) = scan_pair(&registries, &db);
    let mut group = c.benchmark_group("vuln_enrichment");
    group.throughput(Throughput::Elements(truth.len() as u64));
    // No cache: every lookup goes to the database index — the baseline
    // the cache has to beat.
    group.bench_function("assess_direct", |b| {
        b.iter(|| assess_in(&db, Ecosystem::Python, black_box(&sbom), &truth))
    });
    // Warm path: every `(ecosystem, package)` already cached — this is
    // what repeated /v1/impact batches over one advisory universe see.
    group.bench_function("assess_cached_warm", |b| {
        let cache = EnrichCache::new();
        assess_cached(&cache, &db, Ecosystem::Python, &sbom, &truth).expect("no faults installed");
        b.iter(|| {
            assess_cached(&cache, &db, Ecosystem::Python, black_box(&sbom), &truth)
                .expect("no faults installed")
        })
    });
    // Cold path: a fresh cache per iteration pays every fill.
    group.bench_function("assess_cached_cold", |b| {
        b.iter(|| {
            let cache = EnrichCache::new();
            assess_cached(&cache, &db, Ecosystem::Python, black_box(&sbom), &truth)
                .expect("no faults installed")
        })
    });
    group.finish();
}

fn bench_osv_roundtrip(c: &mut Criterion) {
    let (_, db) = world();
    let json = db_to_osv_json(&db);
    let mut group = c.benchmark_group("vuln_osv");
    group.throughput(Throughput::Bytes(json.len() as u64));
    group.bench_function("serialize_feed", |b| {
        b.iter(|| db_to_osv_json(black_box(&db)))
    });
    group.bench_function("ingest_feed", |b| {
        b.iter(|| {
            let (back, diagnostics) =
                ingest_osv(black_box(json.as_bytes())).expect("clean feed ingests");
            assert!(diagnostics.is_empty());
            back.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_enrichment,
    bench_osv_roundtrip
);
criterion_main!(benches);
