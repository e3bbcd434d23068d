//! Criterion benchmark harness crate. Measurement content lives in
//! `benches/`: `parsers`, `formats`, `resolver`, `generators`,
//! `experiments` (one group per paper table/figure pipeline), and
//! `matching_lsh` (LSH-gated vs brute-force tier-3 matching). The library
//! part carries the synthetic corpora shared between the benches and the
//! `BENCH_*.json` emitter binaries, and the sample statistics every
//! emitter writes.

pub mod matching_corpus;

use sbomdiff_textformats::Value;

/// The median of `samples` (the mean of the middle two for an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// A `BENCH_*.json` timing row: `{"median", "min", "max", "samples"}`.
pub fn stats(samples: &[f64]) -> Value {
    let mut v = Value::object();
    v.set("median", Value::from(median(samples.to_vec())));
    v.set(
        "min",
        Value::from(samples.iter().cloned().fold(f64::INFINITY, f64::min)),
    );
    v.set(
        "max",
        Value::from(samples.iter().cloned().fold(0.0f64, f64::max)),
    );
    v.set(
        "samples",
        Value::Array(samples.iter().map(|s| Value::from(*s)).collect()),
    );
    v
}
