//! Harness self-test: tiny-size runs of every workload.
//!
//! The serve workloads need a built `sbomdiff-serve`; `python3
//! perfbench/run.py --self-test` builds it and names it in
//! `PERFBENCH_SERVE_BIN`. Without that variable the binary is looked up
//! next to the benchmark's own, which is where a shared `CARGO_TARGET_DIR`
//! release build puts it.

use std::path::PathBuf;
use std::process::Command;

use sbomdiff_textformats::{json, Value};

const WORKLOADS: [&str; 3] = ["corpus", "serve-cold", "serve-large"];

fn serve_bin() -> String {
    if let Ok(bin) = std::env::var("PERFBENCH_SERVE_BIN") {
        return bin;
    }
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let sibling = exe.with_file_name("sbomdiff-serve");
    assert!(
        sibling.exists(),
        "sbomdiff-serve not found at {}: run `python3 perfbench/run.py --self-test`",
        sibling.display()
    );
    sibling.display().to_string()
}

struct Run {
    success: bool,
    result: Value,
    stderr: String,
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1"])
        .args([
            "--trace",
            trace,
            "--size",
            "tiny",
            "--serve-bin",
            &serve_bin(),
            "--out",
        ])
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Run {
        success: out.status.success(),
        result: json::parse(last).unwrap_or(Value::Null),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_prints_with_its_unit() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(key);
        for workload in WORKLOADS {
            let run = run(workload, trace, &[]);
            assert!(
                run.success,
                "{workload} --trace {trace} failed:\n{}",
                run.stderr
            );
            assert_eq!(
                run.result.get("correct").and_then(Value::as_bool),
                Some(true)
            );
            assert_eq!(run.result.get("failed").and_then(Value::as_i64), Some(0));
            let metrics = run
                .result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), names.len(), "{workload} --trace {trace}");
            for (name, unit) in &names {
                let (_, metric) = metrics
                    .iter()
                    .find(|(k, _)| k == name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                assert!(metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn tampered_digest_fails_the_run() {
    for workload in WORKLOADS {
        let run = run(workload, "0", &["--expect-digest", "0123456789abcdef"]);
        assert!(!run.success, "{workload} passed against a tampered digest");
        assert_eq!(
            run.result.get("correct").and_then(Value::as_bool),
            Some(false)
        );
        assert!(
            run.stderr.contains("differs from the recorded"),
            "{}",
            run.stderr
        );
    }
}

#[test]
fn response_cache_hit_fails_a_serve_run() {
    for workload in ["serve-cold", "serve-large"] {
        // Recording mode skips the digest comparison, so only the cache
        // check can fail this run.
        let run = run(workload, "0", &["--repeat-payload", "--record"]);
        assert!(!run.success, "{workload} passed with a repeated payload");
        assert_eq!(
            run.result.get("correct").and_then(Value::as_bool),
            Some(false)
        );
        assert!(run.stderr.contains("response-cache hit"), "{}", run.stderr);
    }
}
