//! Shared-scan pipeline benchmarks: parse, emulate and diff, on small /
//! medium / large synthetic repo sets, comparing the isolated per-profile
//! path (`scan_isolated`, the pre-sharing behavior) against the shared
//! [`ScanContext`] path.
//!
//! These track the *ratio*; the committed before/after medians live in
//! `BENCH_pipeline.json`, emitted by `cargo run -p sbomdiff-bench`.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_diff::{jaccard, key_set};
use sbomdiff_generators::{studied_tools, ParseCache, ScanContext};
use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_metadata::RepoFs;
use sbomdiff_registry::Registries;
use sbomdiff_types::{Ecosystem, Sbom};

const SIZES: [(&str, usize); 3] = [("small", 1), ("medium", 4), ("large", 12)];

fn corpus(regs: &Registries, repos_per_language: usize) -> Vec<RepoFs> {
    let mut repos = Vec::new();
    for eco in [
        Ecosystem::Python,
        Ecosystem::JavaScript,
        Ecosystem::Go,
        Ecosystem::Rust,
    ] {
        repos.extend(Corpus::build_language(
            regs,
            &CorpusConfig {
                repos_per_language,
                seed: 99,
            },
            eco,
        ));
    }
    repos
}

/// Raw parse cost: every metadata file of a repo set, each parsed once
/// through a fresh scan of its repository.
fn bench_parse(c: &mut Criterion) {
    let regs = Registries::generate(99);
    let mut group = c.benchmark_group("pipeline_parse");
    for (label, n) in SIZES {
        let repos = corpus(&regs, n);
        let files: usize = repos.iter().map(|r| r.metadata_files().len()).sum();
        group.throughput(Throughput::Elements(files as u64));
        group.bench_function(format!("cold_{label}"), |b| {
            b.iter(|| {
                let counters = ParseCache::new();
                let mut deps = 0usize;
                for repo in &repos {
                    let scan = ScanContext::new(black_box(repo), &counters);
                    for &(path, kind) in scan.files() {
                        deps += scan.parsed(path, kind, ReqStyle::TrivySyft).len();
                    }
                }
                deps
            })
        });
    }
    group.finish();
}

/// The 4-profile corpus scan: isolated per-profile parses vs one shared
/// scan per repository.
fn bench_emulate(c: &mut Criterion) {
    let regs = Registries::generate(99);
    let tools = studied_tools(&regs, 0.15);
    let mut group = c.benchmark_group("pipeline_emulate");
    for (label, n) in SIZES {
        let repos = corpus(&regs, n);
        group.throughput(Throughput::Elements(repos.len() as u64 * 4));
        group.bench_function(format!("isolated_{label}"), |b| {
            b.iter(|| {
                let mut total = 0usize;
                for repo in &repos {
                    for tool in &tools {
                        total += tool.scan_isolated(black_box(repo)).len();
                    }
                }
                total
            })
        });
        group.bench_function(format!("shared_{label}"), |b| {
            b.iter(|| {
                let counters = ParseCache::new();
                let mut total = 0usize;
                for repo in &repos {
                    let scan = ScanContext::new(black_box(repo), &counters);
                    for tool in &tools {
                        total += tool.generate_with_scan(&scan).len();
                    }
                }
                total
            })
        });
    }
    group.finish();
}

/// Pairwise differential metrics over the 4 profiles' SBOMs (the diff
/// stage consumes interned components; key-set extraction is the hot op).
fn bench_diff(c: &mut Criterion) {
    let regs = Registries::generate(99);
    let tools = studied_tools(&regs, 0.15);
    let mut group = c.benchmark_group("pipeline_diff");
    for (label, n) in SIZES {
        let repos = corpus(&regs, n);
        let counters = ParseCache::new();
        let sboms: Vec<[Sbom; 4]> = repos
            .iter()
            .map(|repo| {
                let scan = ScanContext::new(repo, &counters);
                [
                    tools[0].generate_with_scan(&scan),
                    tools[1].generate_with_scan(&scan),
                    tools[2].generate_with_scan(&scan),
                    tools[3].generate_with_scan(&scan),
                ]
            })
            .collect();
        group.throughput(Throughput::Elements(sboms.len() as u64 * 6));
        group.bench_function(format!("pairwise_{label}"), |b| {
            b.iter(|| {
                let mut sum = 0.0;
                for cells in &sboms {
                    let keys: Vec<_> = cells.iter().map(key_set).collect();
                    for a in 0..4 {
                        for z in (a + 1)..4 {
                            if let Some(j) = jaccard(&keys[a], &keys[z]) {
                                sum += j;
                            }
                        }
                    }
                }
                sum
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets =
    bench_parse,
    bench_emulate,
    bench_diff
);
criterion_main!(benches);
