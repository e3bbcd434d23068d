//! Emits `BENCH_pipeline.json`: before/after wall-clock medians for the
//! shared-scan pipeline on the 4-profile corpus experiment.
//!
//! * **before** — the pre-sharing behavior: every profile walks the
//!   repository and parses every metadata file itself
//!   (`ToolEmulator::scan_isolated`, which is also the differential
//!   property-test oracle).
//! * **after** — the shared-scan pipeline: one `ScanContext` per
//!   repository, every profile deriving its SBOM from the shared parses,
//!   each file parsed once per dialect.
//!
//! Both paths produce byte-identical SBOMs (enforced by
//! `crates/generators/tests/shared_scan_props.rs`), so the `speedup` ratio
//! is pure pipeline overhead. Usage:
//!
//! ```text
//! cargo run --release -p sbomdiff-bench -- [--repos N] [--iters K] [--out PATH]
//! ```

use std::time::Instant;

use sbomdiff_bench::{median, stats};
use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_diff::{jaccard, key_set};
use sbomdiff_generators::{studied_tools, ParseCache, ScanContext, ToolEmulator};
use sbomdiff_metadata::RepoFs;
use sbomdiff_registry::Registries;
use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{Ecosystem, Sbom};

const SEED: u64 = 99;
const SIZES: [(&str, usize); 3] = [("small", 1), ("medium", 4), ("large", 12)];

fn usage() -> ! {
    eprintln!(
        "usage: sbomdiff-bench [--repos N] [--iters K] [--out PATH]\n\
         \n\
         --repos N   repos per language for the `large` tier (default 12);\n\
         \x20           `small`/`medium` stay at 1/4\n\
         --iters K   timed iterations per scenario, median reported (default 5)\n\
         --out PATH  output path (default BENCH_pipeline.json)"
    );
    std::process::exit(2);
}

struct Args {
    large_repos: usize,
    iters: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        large_repos: 12,
        iters: 5,
        out: "BENCH_pipeline.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--repos" => args.large_repos = value(i).parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value(i).parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = value(i),
            _ => usage(),
        }
        i += 2;
    }
    if args.iters == 0 || args.large_repos == 0 {
        usage();
    }
    args
}

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
                seed: SEED,
            },
            eco,
        ));
    }
    repos
}

/// One isolated-path corpus pass: every profile re-walks and re-parses.
fn run_isolated(tools: &[ToolEmulator<'_>], repos: &[RepoFs]) -> (usize, f64) {
    let mut components = 0usize;
    let mut jaccard_sum = 0.0;
    for repo in repos {
        let cells: Vec<Sbom> = tools.iter().map(|t| t.scan_isolated(repo)).collect();
        components += cells.iter().map(Sbom::len).sum::<usize>();
        jaccard_sum += pairwise(&cells);
    }
    (components, jaccard_sum)
}

/// One shared-path corpus pass: one walk and shared parses per repository.
fn run_shared(tools: &[ToolEmulator<'_>], repos: &[RepoFs]) -> (usize, f64) {
    let counters = ParseCache::new();
    let mut components = 0usize;
    let mut jaccard_sum = 0.0;
    for repo in repos {
        let scan = ScanContext::new(repo, &counters);
        let cells: Vec<Sbom> = tools.iter().map(|t| t.generate_with_scan(&scan)).collect();
        components += cells.iter().map(Sbom::len).sum::<usize>();
        jaccard_sum += pairwise(&cells);
    }
    (components, jaccard_sum)
}

fn pairwise(cells: &[Sbom]) -> f64 {
    let keys: Vec<_> = cells.iter().map(key_set).collect();
    let mut sum = 0.0;
    for a in 0..keys.len() {
        for b in (a + 1)..keys.len() {
            if let Some(j) = jaccard(&keys[a], &keys[b]) {
                sum += j;
            }
        }
    }
    sum
}

fn time_ms(mut f: impl FnMut() -> (usize, f64), iters: usize) -> (Vec<f64>, usize) {
    // One untimed warm-up pass so lazy one-time work (registry memos,
    // global interner fill) does not land in the first sample.
    let (components, _) = f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let (got, _) = f();
        assert_eq!(got, components, "nondeterministic corpus pass");
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (samples, components)
}

fn main() {
    let args = parse_args();
    let regs = Registries::generate(SEED);
    let tools = studied_tools(&regs, 0.15);

    let mut scenarios = Vec::new();
    for (label, per_language) in SIZES {
        let per_language = if label == "large" {
            args.large_repos
        } else {
            per_language
        };
        let repos = corpus(&regs, per_language);
        let files: usize = repos.iter().map(|r| r.metadata_files().len()).sum();

        let (before, components) = time_ms(|| run_isolated(&tools, &repos), args.iters);
        let (after, shared_components) = time_ms(|| run_shared(&tools, &repos), args.iters);
        assert_eq!(
            components, shared_components,
            "shared scan changed the corpus output"
        );

        let before_median = median(before.clone());
        let after_median = median(after.clone());
        let speedup = before_median / after_median;
        println!(
            "{label:8} {:3} repos {files:5} files  before {before_median:8.2} ms  \
             after {after_median:8.2} ms ({speedup:.2}x)",
            repos.len()
        );

        let mut row = Value::object();
        row.set("name", Value::from(format!("corpus_4profile_{label}")));
        row.set("repos", Value::from(repos.len() as i64));
        row.set("metadata_files", Value::from(files as i64));
        row.set("components", Value::from(components as i64));
        row.set("before_ms", stats(&before));
        row.set("after_ms", stats(&after));
        row.set("speedup", Value::from(speedup));
        scenarios.push(row);
    }

    let mut doc = Value::object();
    doc.set("bench", Value::from("pipeline"));
    doc.set(
        "description",
        Value::from(
            "4-profile corpus experiment (emulate + pairwise diff): isolated \
             per-profile parses (before) vs one shared ScanContext per \
             repository (after)",
        ),
    );
    let mut config = Value::object();
    config.set("seed", Value::from(SEED as i64));
    config.set("iters", Value::from(args.iters as i64));
    config.set(
        "large_repos_per_language",
        Value::from(args.large_repos as i64),
    );
    config.set("profiles", Value::from(4i64));
    doc.set("config", config);
    doc.set("scenarios", Value::Array(scenarios));

    let mut body = json::to_string(&doc);
    body.push('\n');
    std::fs::write(&args.out, body).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);
}
